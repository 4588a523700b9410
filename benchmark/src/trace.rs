//! Spans recorded from outside the program, around the calls into each
//! layer: timing adapters over the public `ObservationSource` and
//! `Policy` traits, plus whole-call spans for the cluster.
//!
//! Spans stay in memory until the run ends. Every span of one control
//! tick shares that tick's trace id, and the per-call spans
//! (`source_step`, `decide`, `apply`, `record`) are children of the
//! tick span.

use crate::stats;
use serde_json::json;
use stay_away::telemetry::{
    Action, Observation, ObservationSource, Policy, SourceMeta, TelemetryError, TickRecord,
};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// The layer boundary a span was recorded at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One iteration of `telemetry::drive`: observe → decide → apply →
    /// record.
    Tick,
    /// `ObservationSource::next_observation` (sim physics or engine).
    SourceStep,
    /// `Policy::decide` (the whole controller period).
    Decide,
    /// `ObservationSource::apply` (actuation).
    Apply,
    /// `ObservationSource::record_for` (run accounting).
    Record,
    /// `Cluster::new`.
    ClusterNew,
    /// `Cluster::run`.
    ClusterRun,
    /// `ClusterOutcome::to_json`.
    ClusterJson,
}

impl Layer {
    /// The span name written to the trace file.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Tick => "tick",
            Layer::SourceStep => "source_step",
            Layer::Decide => "decide",
            Layer::Apply => "apply",
            Layer::Record => "record",
            Layer::ClusterNew => "cluster_new",
            Layer::ClusterRun => "cluster_run",
            Layer::ClusterJson => "cluster_json",
        }
    }
}

/// One recorded span; times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Span id, unique within the tracer.
    pub id: u32,
    /// The enclosing span, if any.
    pub parent: Option<u32>,
    /// Trace id shared by every span of one tick (or one cluster call).
    pub trace: u64,
    /// Layer boundary.
    pub layer: Layer,
    /// Start, ns since origin.
    pub start_ns: u64,
    /// End, ns since origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span store.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open_tick: Option<usize>,
    next_trace: u64,
}

impl Tracer {
    /// An empty tracer with room for `capacity` spans.
    pub fn with_capacity(capacity: usize) -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
            open_tick: None,
            next_trace: 0,
        }
    }

    /// Nanoseconds since the tracer's origin.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn push(&mut self, parent: Option<u32>, trace: u64, layer: Layer, start: u64, end: u64) {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent,
            trace,
            layer,
            start_ns: start,
            end_ns: end,
        });
    }

    /// Records a root span with a fresh trace id.
    pub fn root(&mut self, layer: Layer, start: u64, end: u64) {
        let trace = self.next_trace;
        self.next_trace += 1;
        self.push(None, trace, layer, start, end);
    }

    fn open_tick(&mut self, start: u64) {
        let trace = self.next_trace;
        self.next_trace += 1;
        self.open_tick = Some(self.spans.len());
        self.push(None, trace, Layer::Tick, start, start);
    }

    fn child(&mut self, layer: Layer, start: u64, end: u64) {
        match self.open_tick.map(|i| self.spans[i]) {
            Some(tick) => self.push(Some(tick.id), tick.trace, layer, start, end),
            None => self.root(layer, start, end),
        }
    }

    fn close_tick(&mut self, end: u64) {
        if let Some(i) = self.open_tick.take() {
            self.spans[i].end_ns = end;
        }
    }

    /// All spans, in start order.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total nanoseconds spent in spans of `layer`.
    pub fn busy(&self, layer: Layer) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(Span::nanos)
            .sum()
    }

    /// Durations of every span of `layer`, ascending.
    pub fn sorted_durations(&self, layer: Layer) -> Vec<u64> {
        let mut d: Vec<u64> = self
            .spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(Span::nanos)
            .collect();
        d.sort_unstable();
        d
    }

    /// Summed self time of every span of `layer`: its duration minus
    /// the time its child spans cover.
    pub fn self_time(&self, layer: Layer) -> u64 {
        let mut total = 0;
        for parent in self.spans.iter().filter(|s| s.layer == layer) {
            // Children are recorded after their parent opens and carry
            // its trace id, so they sit in the run right behind it.
            let children: Vec<(u64, u64)> = self.spans[parent.id as usize + 1..]
                .iter()
                .take_while(|s| s.trace == parent.trace)
                .filter(|s| s.parent == Some(parent.id))
                .map(|s| (s.start_ns, s.end_ns))
                .collect();
            total += stats::self_time((parent.start_ns, parent.end_ns), &children);
        }
        total
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        self.spans
            .iter()
            .map(|s| {
                let span = json!({
                    "id": s.id,
                    "parent": s.parent,
                    "trace": s.trace,
                    "layer": s.layer.name(),
                    "start_ns": s.start_ns,
                    "end_ns": s.end_ns,
                });
                format!("{span}\n")
            })
            .collect()
    }
}

/// A tracer shared between the source and policy adapters of one run.
pub type SharedTracer = Rc<RefCell<Tracer>>;

/// Records a tick span and `source_step`, `apply` and `record` child
/// spans around an inner source. `telemetry::drive` calls
/// `next_observation` first and `record_for` last in every tick, so
/// those calls open and close the tick span.
pub struct TracedSource<'a> {
    inner: &'a mut dyn ObservationSource,
    tracer: SharedTracer,
}

impl<'a> TracedSource<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a mut dyn ObservationSource, tracer: SharedTracer) -> Self {
        TracedSource { inner, tracer }
    }
}

impl ObservationSource for TracedSource<'_> {
    fn meta(&self) -> SourceMeta {
        self.inner.meta()
    }

    fn next_observation(&mut self) -> Result<Option<Observation>, TelemetryError> {
        let start = self.tracer.borrow().now();
        self.tracer.borrow_mut().open_tick(start);
        let observation = self.inner.next_observation();
        let mut tracer = self.tracer.borrow_mut();
        let end = tracer.now();
        tracer.child(Layer::SourceStep, start, end);
        if !matches!(observation, Ok(Some(_))) {
            tracer.close_tick(end);
        }
        observation
    }

    fn apply(&mut self, actions: &[Action]) -> Result<u64, TelemetryError> {
        let start = self.tracer.borrow().now();
        let rejected = self.inner.apply(actions);
        let mut tracer = self.tracer.borrow_mut();
        let end = tracer.now();
        tracer.child(Layer::Apply, start, end);
        rejected
    }

    fn record_for(&self, observation: &Observation, actions: &[Action]) -> TickRecord {
        let start = self.tracer.borrow().now();
        let record = self.inner.record_for(observation, actions);
        let mut tracer = self.tracer.borrow_mut();
        let end = tracer.now();
        tracer.child(Layer::Record, start, end);
        tracer.close_tick(end);
        record
    }

    fn batch_work(&self) -> f64 {
        self.inner.batch_work()
    }
}

/// Records a `decide` child span around an inner policy.
pub struct TracedPolicy<'a> {
    inner: &'a mut dyn Policy,
    tracer: SharedTracer,
}

impl<'a> TracedPolicy<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a mut dyn Policy, tracer: SharedTracer) -> Self {
        TracedPolicy { inner, tracer }
    }
}

impl Policy for TracedPolicy<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn decide(&mut self, observation: &Observation) -> Vec<Action> {
        let start = self.tracer.borrow().now();
        let actions = self.inner.decide(observation);
        let mut tracer = self.tracer.borrow_mut();
        let end = tracer.now();
        tracer.child(Layer::Decide, start, end);
        actions
    }
}

/// The untraced run's only adapter: one latency sample per
/// `Policy::decide`, for the controller-overhead percentiles.
pub struct TimedPolicy<'a> {
    inner: &'a mut dyn Policy,
    samples: Vec<u64>,
}

impl<'a> TimedPolicy<'a> {
    /// Wraps `inner`, reserving room for `ticks` samples.
    pub fn new(inner: &'a mut dyn Policy, ticks: u64) -> Self {
        TimedPolicy {
            inner,
            samples: Vec::with_capacity(ticks as usize),
        }
    }

    /// The recorded `decide` latencies, in call order.
    pub fn into_samples(self) -> Vec<u64> {
        self.samples
    }
}

impl Policy for TimedPolicy<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn decide(&mut self, observation: &Observation) -> Vec<Action> {
        let start = Instant::now();
        let actions = self.inner.decide(observation);
        self.samples.push(start.elapsed().as_nanos() as u64);
        actions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tick_children_share_the_tick_trace_and_self_time_excludes_them() {
        let mut t = Tracer::with_capacity(16);
        for k in 0..3u64 {
            let base = k * 100;
            t.open_tick(base);
            t.child(Layer::SourceStep, base, base + 30);
            t.child(Layer::Decide, base + 35, base + 60);
            t.child(Layer::Apply, base + 60, base + 65);
            t.child(Layer::Record, base + 70, base + 80);
            t.close_tick(base + 80);
        }
        let ticks: Vec<&Span> = t
            .spans()
            .iter()
            .filter(|s| s.layer == Layer::Tick)
            .collect();
        assert_eq!(ticks.len(), 3);
        for tick in &ticks {
            let children: Vec<&Span> = t
                .spans()
                .iter()
                .filter(|s| s.parent == Some(tick.id))
                .collect();
            assert_eq!(children.len(), 4);
            assert!(children.iter().all(|c| c.trace == tick.trace));
        }
        assert_eq!(t.busy(Layer::Tick), 240);
        assert_eq!(t.busy(Layer::SourceStep), 90);
        // Gaps 30..35 and 65..70 are the tick's own time.
        assert_eq!(t.self_time(Layer::Tick), 30);
        assert_eq!(t.sorted_durations(Layer::Decide), vec![25, 25, 25]);
        assert_eq!(t.to_jsonl().lines().count(), 15);
    }

    #[test]
    fn root_spans_get_fresh_traces() {
        let mut t = Tracer::with_capacity(4);
        t.root(Layer::ClusterNew, 0, 5);
        t.root(Layer::ClusterRun, 5, 50);
        assert_ne!(t.spans()[0].trace, t.spans()[1].trace);
        assert_eq!(t.self_time(Layer::ClusterRun), 45);
    }
}
