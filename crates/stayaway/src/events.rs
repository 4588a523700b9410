//! Controller telemetry: events and aggregate statistics.

use serde::{Deserialize, Serialize};

/// Why a throttled batch application was resumed (§3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ResumeReason {
    /// The sensitive application's isolated states drifted more than β —
    /// a phase or workload change.
    PhaseChange,
    /// The random anti-starvation factor fired after a long stable period.
    Optimistic,
}

/// One notable controller decision.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ControllerEvent {
    /// A transition towards a violation-range was predicted.
    ViolationPredicted {
        /// Tick of the prediction.
        tick: u64,
        /// How many candidate states fell inside a violation-range.
        votes: usize,
        /// Total candidates drawn.
        samples: usize,
    },
    /// An actual QoS violation was reported and learned.
    ViolationLearned {
        /// Tick of the violation.
        tick: u64,
        /// Representative state index that was labelled.
        state: usize,
    },
    /// Batch applications were throttled.
    Throttled {
        /// Tick of the action.
        tick: u64,
        /// Number of containers paused.
        count: usize,
        /// True when triggered by prediction rather than an observed
        /// violation.
        proactive: bool,
    },
    /// Batch applications were resumed.
    Resumed {
        /// Tick of the action.
        tick: u64,
        /// Why.
        reason: ResumeReason,
    },
    /// β was incremented after a resume immediately re-violated.
    BetaIncreased {
        /// Tick of the adjustment.
        tick: u64,
        /// The new β.
        beta: f64,
    },
}

impl ControllerEvent {
    /// The tick the event happened at.
    pub fn tick(&self) -> u64 {
        match *self {
            ControllerEvent::ViolationPredicted { tick, .. }
            | ControllerEvent::ViolationLearned { tick, .. }
            | ControllerEvent::Throttled { tick, .. }
            | ControllerEvent::Resumed { tick, .. }
            | ControllerEvent::BetaIncreased { tick, .. } => tick,
        }
    }
}

/// Fixed-capacity ring buffer over [`ControllerEvent`]s.
///
/// The controller appends one or more events per control period; a
/// week-long run would grow an unbounded `Vec` without limit. The ring
/// keeps the most recent `capacity` events and counts how many older ones
/// were evicted (exposed as [`ControllerStats::events_dropped`]), so
/// long-lived fleet cells run in constant memory while recent decisions
/// stay inspectable.
#[derive(Debug, Clone, PartialEq)]
pub struct EventLog {
    buf: Vec<ControllerEvent>,
    /// Index of the oldest retained event once the buffer is full.
    head: usize,
    capacity: usize,
    dropped: u64,
}

impl EventLog {
    /// An empty log retaining at most `capacity` events (minimum 1).
    pub fn with_capacity(capacity: usize) -> Self {
        EventLog {
            buf: Vec::new(),
            head: 0,
            capacity: capacity.max(1),
            dropped: 0,
        }
    }

    /// Maximum number of retained events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of currently retained events.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when no events have been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Number of events evicted to honour the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Appends an event, evicting the oldest one when full.
    pub fn push(&mut self, event: ControllerEvent) {
        if self.buf.len() < self.capacity {
            self.buf.push(event);
        } else {
            self.buf[self.head] = event;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Iterates oldest-to-newest over the retained events.
    pub fn iter(&self) -> EventLogIter<'_> {
        self.buf[self.head..]
            .iter()
            .chain(self.buf[..self.head].iter())
    }

    /// The retained events, oldest first, as an owned vector.
    pub fn to_vec(&self) -> Vec<ControllerEvent> {
        self.iter().cloned().collect()
    }
}

/// Iterator over an [`EventLog`], oldest event first.
pub type EventLogIter<'a> =
    std::iter::Chain<std::slice::Iter<'a, ControllerEvent>, std::slice::Iter<'a, ControllerEvent>>;

impl<'a> IntoIterator for &'a EventLog {
    type Item = &'a ControllerEvent;
    type IntoIter = EventLogIter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Invocation count and accumulated wall-time of one pipeline stage.
///
/// Wall-time is diagnostic only: two bit-identical runs disagree on
/// nanoseconds, so equality compares invocation counts alone — the
/// determinism suite can keep asserting `stats == stats` while perf PRs
/// still see which stage burns the per-period budget.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct StageClock {
    /// Times the stage ran.
    pub invocations: u64,
    /// Accumulated wall-clock nanoseconds across those invocations.
    pub nanos: u64,
}

impl PartialEq for StageClock {
    fn eq(&self, other: &Self) -> bool {
        self.invocations == other.invocations
    }
}

/// Per-stage accounting of the staged control pipeline
/// (Sense → Map → Predict → Act), surfaced via
/// [`ControllerStats::stage_timing`]. A view: the controller fills it
/// from its per-stage latency histograms, which are the store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct StageTiming {
    /// Observation → raw measurement vector (violation detection included).
    pub sense: StageClock,
    /// Dedup + incremental MDS + state-map upkeep.
    pub map: StageClock,
    /// Verdict verification, trajectory update and candidate sampling.
    pub predict: StageClock,
    /// Throttle/resume decisions and β adaptation.
    pub act: StageClock,
}

/// Ratio of `hits` over `checks`, or `None` when nothing was checked.
///
/// A 0/0 ratio used to report `1.0`, which let exporters advertise 100 %
/// prediction accuracy before a single check had run; `None` makes the
/// "no data yet" case explicit so callers can omit the series instead.
///
/// The one fold helper genuinely shared between the controller's
/// [`ControllerStats::prediction_accuracy`] and the fleet rollup's pooled
/// accuracy — kept here (its single home) and re-used by `stayaway-fleet`.
pub fn hit_ratio(hits: u64, checks: u64) -> Option<f64> {
    if checks == 0 {
        None
    } else {
        Some(hits as f64 / checks as f64)
    }
}

/// Aggregate controller statistics over a run.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ControllerStats {
    /// Control periods executed.
    pub periods: u64,
    /// Violations reported by the sensitive application.
    pub violations_observed: u64,
    /// Predictions that flagged an impending violation.
    pub violations_predicted: u64,
    /// Throttle actions issued.
    pub throttles: u64,
    /// Resume actions issued.
    pub resumes: u64,
    /// Predictions whose in-range verdict was checked against the actually
    /// reached next state.
    pub prediction_checks: u64,
    /// Checked predictions whose verdict matched reality.
    pub prediction_hits: u64,
    /// Representative states currently held.
    pub states: usize,
    /// Violation-states currently held.
    pub violation_states: usize,
    /// Control periods skipped because the mapping pipeline errored.
    pub mapping_errors: u64,
    /// Raw metric samples rejected by the sense stage — non-finite or
    /// negative readings sanitised to zero before embedding.
    pub samples_rejected: u64,
    /// Events evicted from the bounded decision log (see [`EventLog`]).
    pub events_dropped: u64,
    /// Per-stage tick counters and wall-time of the control pipeline.
    pub stage_timing: StageTiming,
}

impl ControllerStats {
    /// Fraction of checked predictions that matched the actually reached
    /// state (the §3.2.3 accuracy measure). `None` when nothing was
    /// checked yet — not a claim of perfect accuracy.
    pub fn prediction_accuracy(&self) -> Option<f64> {
        hit_ratio(self.prediction_hits, self.prediction_checks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_tick_accessor() {
        let e = ControllerEvent::Throttled {
            tick: 42,
            count: 1,
            proactive: true,
        };
        assert_eq!(e.tick(), 42);
        let e = ControllerEvent::Resumed {
            tick: 43,
            reason: ResumeReason::PhaseChange,
        };
        assert_eq!(e.tick(), 43);
    }

    #[test]
    fn accuracy_without_checks_is_unknown() {
        assert_eq!(ControllerStats::default().prediction_accuracy(), None);
    }

    #[test]
    fn accuracy_is_hit_ratio() {
        let s = ControllerStats {
            prediction_checks: 10,
            prediction_hits: 9,
            ..ControllerStats::default()
        };
        assert!((s.prediction_accuracy().unwrap() - 0.9).abs() < 1e-12);
    }

    fn throttled(tick: u64) -> ControllerEvent {
        ControllerEvent::Throttled {
            tick,
            count: 1,
            proactive: false,
        }
    }

    #[test]
    fn event_log_below_capacity_keeps_everything() {
        let mut log = EventLog::with_capacity(4);
        assert!(log.is_empty());
        for t in 0..3 {
            log.push(throttled(t));
        }
        assert_eq!(log.len(), 3);
        assert_eq!(log.dropped(), 0);
        let ticks: Vec<u64> = log.iter().map(|e| e.tick()).collect();
        assert_eq!(ticks, vec![0, 1, 2]);
    }

    #[test]
    fn event_log_evicts_oldest_and_counts_drops() {
        let mut log = EventLog::with_capacity(4);
        for t in 0..10 {
            log.push(throttled(t));
        }
        assert_eq!(log.len(), 4);
        assert_eq!(log.dropped(), 6);
        // Oldest-to-newest order is preserved across the wrap.
        let ticks: Vec<u64> = log.iter().map(|e| e.tick()).collect();
        assert_eq!(ticks, vec![6, 7, 8, 9]);
        assert_eq!(log.to_vec().len(), 4);
        // `for e in &log` works through IntoIterator.
        assert_eq!((&log).into_iter().count(), 4);
    }

    #[test]
    fn event_log_zero_capacity_clamps_to_one() {
        let mut log = EventLog::with_capacity(0);
        assert_eq!(log.capacity(), 1);
        log.push(throttled(1));
        log.push(throttled(2));
        assert_eq!(log.len(), 1);
        assert_eq!(log.dropped(), 1);
        assert_eq!(log.iter().next().unwrap().tick(), 2);
    }

    #[test]
    fn stage_clock_equality_ignores_wall_time() {
        let a = StageClock {
            invocations: 1,
            nanos: 10,
        };
        let b = StageClock {
            invocations: 1,
            nanos: 9999,
        };
        assert_eq!(a, b, "same invocation count must compare equal");
        let b = StageClock {
            invocations: 2,
            nanos: 10000,
        };
        assert_ne!(a, b);
    }

    #[test]
    fn hit_ratio_handles_zero_checks() {
        assert_eq!(hit_ratio(0, 0), None);
        assert_eq!(hit_ratio(3, 4), Some(0.75));
    }

    #[test]
    fn events_serialize() {
        let e = ControllerEvent::BetaIncreased {
            tick: 1,
            beta: 0.02,
        };
        let json = serde_json::to_string(&e).unwrap();
        let back: ControllerEvent = serde_json::from_str(&json).unwrap();
        assert_eq!(e, back);
    }
}
