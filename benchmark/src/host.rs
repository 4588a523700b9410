//! The single-host workloads, `paper-colocation` and `flash-crowd`: one
//! observation source and one Stay-Away controller, driven through
//! `telemetry::drive` for a fixed number of ticks per episode.

use crate::report::{self, counter, gauge, hist_sum, LayerSums, Ledger, Metrics};
use crate::stats;
use crate::trace::{Layer, SharedTracer, TimedPolicy, TracedPolicy, TracedSource, Tracer};
use crate::{episode_seeds, thread_cpu_s, Budget, Invocation, Workload};
use stay_away::core::{
    Controller, ControllerConfig, ControllerStats, Observability, PredictorKind,
};
use stay_away::obs::{MetricsRegistry, MetricsSnapshot};
use stay_away::sim::apps::WebWorkload;
use stay_away::sim::scenario::{BatchKind, Scenario};
use stay_away::sim::SimSource;
use stay_away::telemetry::{drive, ObservationSource, QosSummary, RunOutcome, TickRecord};
use stay_away::workload::{RunTotals, WorkloadSource};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// The observation source of one episode.
enum HostSource {
    Sim(SimSource),
    Engine(Box<WorkloadSource>),
}

impl HostSource {
    fn as_dyn(&mut self) -> &mut dyn ObservationSource {
        match self {
            HostSource::Sim(s) => s,
            HostSource::Engine(s) => s.as_mut(),
        }
    }
}

/// A built episode: source, controller and, when traced, the registry
/// the controller's instruments record into.
struct Rig {
    source: HostSource,
    controller: Controller,
    registry: Option<MetricsRegistry>,
}

/// Builds the scenario, source and controller of one episode — the
/// work `setup_s` times.
fn build(workload: Workload, seed: u64, traced: bool) -> Result<Rig, String> {
    let registry = traced.then(MetricsRegistry::new);
    let obs = match &registry {
        Some(r) => Observability::enabled(r.clone()),
        None => Observability::disabled(),
    };
    let config = ControllerConfig {
        seed,
        predictor: PredictorKind::Kde,
        ..ControllerConfig::default()
    };
    let (source, spec) = match workload {
        Workload::PaperColocation => {
            let scenario = Scenario::webservice_with(
                WebWorkload::MemIntensive,
                BatchKind::TwitterAnalysis,
                seed,
            );
            let harness = scenario.build_harness().map_err(|e| e.to_string())?;
            let spec = *harness.host().spec();
            (HostSource::Sim(SimSource::new(harness)), spec)
        }
        Workload::FlashCrowd => {
            let scenario =
                stay_away::workload::by_name("flash-crowd").map_err(|e| e.to_string())?;
            let spec = scenario.host;
            let source = WorkloadSource::new(scenario, seed).map_err(|e| e.to_string())?;
            (HostSource::Engine(Box::new(source)), spec)
        }
        Workload::ClusterStorm => return Err("cluster-storm is not a single-host workload".into()),
    };
    let controller =
        Controller::for_host_observed(config, &spec, obs).map_err(|e| e.to_string())?;
    Ok(Rig {
        source,
        controller,
        registry,
    })
}

/// What one episode produced.
struct Episode {
    wall_ns: u64,
    cpu_s: f64,
    outcome: RunOutcome,
    stats: ControllerStats,
    totals: Option<RunTotals>,
    fingerprint: String,
    decide_ns: Vec<u64>,
    traced: Option<(Tracer, MetricsSnapshot)>,
}

/// FNV-1a over every field of the tick timeline.
fn timeline_digest(timeline: &[TickRecord]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for r in timeline {
        mix(r.tick);
        mix(r.qos_value.to_bits());
        mix(u64::from(r.violated) | u64::from(r.sensitive_active) << 1);
        mix(r.batch_active as u64);
        mix(r.batch_paused as u64);
        mix(r.sensitive_cpu.to_bits());
        mix(r.batch_cpu.to_bits());
        mix(r.utilization.to_bits());
        mix(r.actions as u64);
    }
    h
}

/// Everything a decision-inert adapter must leave unchanged: the QoS
/// summary, batch work, the controller's counts (stage invocation
/// counts included, wall-clock nanos excluded), the tick timeline and,
/// on the engine, the request totals and event-timeline digest.
fn fingerprint(
    outcome: &RunOutcome,
    stats: &ControllerStats,
    engine: Option<(&RunTotals, u64)>,
) -> String {
    let mut stats = *stats;
    for clock in [
        &mut stats.stage_timing.sense,
        &mut stats.stage_timing.map,
        &mut stats.stage_timing.predict,
        &mut stats.stage_timing.act,
    ] {
        clock.nanos = 0;
    }
    format!(
        "{:?}|{:016x}|{}|{:016x}|{:?}|{:?}",
        outcome.qos,
        outcome.batch_work.to_bits(),
        outcome.rejected_actions,
        timeline_digest(&outcome.timeline),
        stats,
        engine
    )
}

fn episode(workload: Workload, seed: u64, ticks: u64, traced: bool) -> Result<Episode, String> {
    let Rig {
        mut source,
        mut controller,
        registry,
    } = build(workload, seed, traced)?;
    // CPU time is taken for the untraced run only, which the timing
    // metrics use.
    let (wall_ns, cpu_s, outcome, decide_ns, tracer) = if traced {
        // Five spans per tick: the tick and its four calls.
        let tracer: SharedTracer =
            Rc::new(RefCell::new(Tracer::with_capacity(5 * ticks as usize + 1)));
        let mut src = TracedSource::new(source.as_dyn(), tracer.clone());
        let mut policy = TracedPolicy::new(&mut controller, tracer.clone());
        let start = Instant::now();
        let outcome = drive(&mut src, &mut policy, ticks).map_err(|e| e.to_string())?;
        let wall = start.elapsed().as_nanos() as u64;
        drop((src, policy));
        let tracer = Rc::try_unwrap(tracer)
            .map_err(|_| "tracer still shared after the run".to_string())?
            .into_inner();
        (wall, f64::NAN, outcome, Vec::new(), Some(tracer))
    } else {
        let mut policy = TimedPolicy::new(&mut controller, ticks);
        let cpu = thread_cpu_s();
        let start = Instant::now();
        let outcome = drive(source.as_dyn(), &mut policy, ticks).map_err(|e| e.to_string())?;
        let wall = start.elapsed().as_nanos() as u64;
        let cpu = thread_cpu_s() - cpu;
        (wall, cpu, outcome, policy.into_samples(), None)
    };
    if outcome.timeline.len() as u64 != ticks {
        return Err(format!(
            "source ended after {} of {ticks} ticks",
            outcome.timeline.len()
        ));
    }
    let stats = controller.stats();
    let engine = match &source {
        HostSource::Engine(s) => Some((*s.totals(), s.timeline_digest())),
        HostSource::Sim(_) => None,
    };
    let fingerprint = fingerprint(&outcome, &stats, engine.as_ref().map(|(t, d)| (t, *d)));
    let traced = match (tracer, registry) {
        (Some(t), Some(r)) => Some((t, r.snapshot())),
        _ => None,
    };
    Ok(Episode {
        wall_ns,
        cpu_s,
        outcome,
        stats,
        totals: engine.map(|(t, _)| t),
        fingerprint,
        decide_ns,
        traced,
    })
}

/// Per-episode sums over the first pass of the episode set.
#[derive(Default)]
struct Totals {
    episodes: u64,
    qos: QosSummary,
    batch_work: f64,
    requests: RunTotals,
}

impl Totals {
    fn add(&mut self, ep: &Episode) {
        self.episodes += 1;
        self.qos.active_ticks += ep.outcome.qos.active_ticks;
        self.qos.violations += ep.outcome.qos.violations;
        self.batch_work += ep.outcome.batch_work;
        if let Some(t) = &ep.totals {
            let r = &mut self.requests;
            r.arrivals += t.arrivals;
            r.completed += t.completed;
            r.sensitive_completed += t.sensitive_completed;
            r.sensitive_met += t.sensitive_met;
            r.sensitive_dropped += t.sensitive_dropped;
            r.dropped += t.dropped;
            r.cold_starts += t.cold_starts;
            r.evictions += t.evictions;
        }
    }

    fn put(&self, m: &mut Metrics) {
        let qos_rate = if self.qos.active_ticks == 0 {
            0.0
        } else {
            self.qos.violations as f64 / self.qos.active_ticks as f64
        };
        m.put("qos_violation_rate", qos_rate, "ratio");
        m.put(
            "batch_work",
            self.batch_work / self.episodes.max(1) as f64,
            "work",
        );
        m.put(
            "request_slo_violation_rate",
            self.requests.slo_violation_rate(),
            "ratio",
        );
    }
}

/// Adds one traced episode's layer readings to `sums`.
fn take_layers(sums: &mut LayerSums, ep: &Episode, ledger: &mut Ledger, ticks: u64) {
    let Some((tracer, snap)) = &ep.traced else {
        return;
    };
    sums.episodes += 1;
    let s = |ns: u64| ns as f64 * 1e-9;
    let wrapped = [
        Layer::SourceStep,
        Layer::Decide,
        Layer::Apply,
        Layer::Record,
    ]
    .iter()
    .map(|&l| tracer.busy(l))
    .sum();
    let unattributed = stats::unattributed(ep.wall_ns, wrapped);
    ledger.check(unattributed.is_some(), ticks, || {
        format!(
            "wrapped time {wrapped} ns exceeds run wall {} ns",
            ep.wall_ns
        )
    });
    sums.add(
        "telemetry.unattributed_s",
        s(unattributed.unwrap_or(0)),
        "s",
    );
    sums.add(
        "telemetry.source_step_busy_s",
        s(tracer.busy(Layer::SourceStep)),
        "s",
    );
    sums.add(
        "telemetry.source_step_count",
        tracer.sorted_durations(Layer::SourceStep).len() as f64,
        "count",
    );
    sums.add("telemetry.apply_busy_s", s(tracer.busy(Layer::Apply)), "s");
    sums.add(
        "telemetry.record_busy_s",
        s(tracer.busy(Layer::Record)),
        "s",
    );
    sums.add(
        "telemetry.tick_self_s",
        s(tracer.self_time(Layer::Tick)),
        "s",
    );
    sums.add(
        "telemetry.rejected_actions",
        ep.outcome.rejected_actions as f64,
        "count",
    );
    sums.add("stayaway.decide_busy_s", s(tracer.busy(Layer::Decide)), "s");
    let st = &ep.stats;
    let timing = &st.stage_timing;
    sums.add("stayaway.sense_busy_s", s(timing.sense.nanos), "s");
    sums.add("stayaway.map_busy_s", s(timing.map.nanos), "s");
    sums.add("stayaway.predict_busy_s", s(timing.predict.nanos), "s");
    sums.add("stayaway.act_busy_s", s(timing.act.nanos), "s");
    sums.add(
        "mds.smacof_runs",
        counter(snap, "stayaway_mapping_smacof_runs_total"),
        "count",
    );
    sums.add(
        "mds.sweeps",
        hist_sum(snap, "stayaway_mapping_smacof_iterations"),
        "count",
    );
    sums.add(
        "mds.sweep_busy_s",
        1e-9 * hist_sum(snap, "stayaway_mapping_sweep_latency_nanos"),
        "s",
    );
    sums.add(
        "mds.append_busy_s",
        1e-9 * hist_sum(snap, "stayaway_mapping_append_latency_nanos"),
        "s",
    );
    sums.add(
        "mds.repr_states",
        gauge(snap, "stayaway_mapping_repr_states"),
        "count",
    );
    sums.add(
        "mds.dedup_ratio",
        gauge(snap, "stayaway_mapping_dedup_ratio"),
        "ratio",
    );
    sums.add(
        "trajectory.forecast_busy_s",
        1e-9 * hist_sum(snap, "stayaway_predict_forecast_latency_nanos"),
        "s",
    );
    sums.add(
        "trajectory.verdicts",
        counter(snap, "stayaway_predict_verdicts_total"),
        "count",
    );
    sums.add(
        "trajectory.violation_verdicts",
        counter(snap, "stayaway_predict_violation_verdicts_total"),
        "count",
    );
    sums.add(
        "stayaway.prediction_hits",
        st.prediction_hits as f64,
        "count",
    );
    sums.add(
        "stayaway.prediction_checks",
        st.prediction_checks as f64,
        "count",
    );
    sums.add("statespace.states", st.states as f64, "count");
    sums.add(
        "statespace.violation_states",
        st.violation_states as f64,
        "count",
    );
    sums.add("stayaway.throttles", st.throttles as f64, "count");
    sums.add("stayaway.resumes", st.resumes as f64, "count");
    sums.add(
        "stayaway.samples_rejected",
        st.samples_rejected as f64,
        "count",
    );
    sums.add("stayaway.mapping_errors", st.mapping_errors as f64, "count");
    if let Some(t) = &ep.totals {
        sums.add("workload.arrivals", t.arrivals as f64, "count");
        sums.add("workload.completed", t.completed as f64, "count");
        sums.add("workload.dropped", t.dropped as f64, "count");
        sums.add("workload.cold_starts", t.cold_starts as f64, "count");
        sums.add("workload.evictions", t.evictions as f64, "count");
    }
    sums.add("obs.metric_series", report::series(snap) as f64, "count");
}

fn micros(sorted: &[u64], p: f64) -> f64 {
    stats::percentile(sorted, p).unwrap_or(0) as f64 * 1e-3
}

/// Runs one invocation of a single-host workload.
pub fn run(inv: &Invocation, ledger: &mut Ledger, m: &mut Metrics, notes: &mut Vec<String>) {
    let w = inv.workload;
    let p = w.params();
    let seeds = episode_seeds(inv.seed, p.episodes);
    let budget = Budget::start(inv.seconds);

    let mut first: Vec<Option<String>> = vec![None; seeds.len()];
    let mut check = |ledger: &mut Ledger, k: usize, ep: &Episode, label: &str| {
        let fp = first[k].get_or_insert_with(|| ep.fingerprint.clone());
        ledger.check(*fp == ep.fingerprint, p.ticks, || {
            format!("{label} episode {k} changed the outcome fingerprint")
        });
        ledger.check(
            ep.outcome.batch_work.is_finite()
                && ep.outcome.qos.qos_sum.is_finite()
                && ep.outcome.qos.worst.is_finite(),
            p.ticks,
            || format!("{label} episode {k} produced a non-finite output"),
        );
    };

    let mut totals = Totals::default();
    let mut layers = LayerSums::default();
    let mut blocks = stats::Blocks::new(p.block);
    // Latency samples come from the first pass only, so their buffers
    // are the same size however many episodes the window holds, and
    // `peak_rss_mb` does not grow with the program's speed.
    let mut decide: Vec<u64> = Vec::with_capacity(seeds.len() * p.ticks as usize);
    let mut steps: Vec<u64> = Vec::new();
    let mut overhead = Vec::new();
    let mut spans_out: Option<String> = None;
    let mut i = 0;
    while !budget.done(i, seeds.len()) {
        let k = i % seeds.len();
        let first_pass = i < seeds.len();
        // The traced run alternates which side of a pair goes first.
        let order: &[bool] = match (inv.trace, i % 2) {
            (false, _) => &[false],
            (true, 0) => &[false, true],
            (true, _) => &[true, false],
        };
        let mut pair = [0u64; 2];
        for &traced in order {
            if !traced {
                report::time_setups(ledger, &mut blocks, || build(w, seeds[k], false));
            }
            let label = if traced { "traced" } else { "timed" };
            let Some(ep) = ledger.guard(p.ticks, label, || episode(w, seeds[k], p.ticks, traced))
            else {
                continue;
            };
            check(ledger, k, &ep, label);
            pair[usize::from(traced)] = ep.wall_ns;
            if let Some((tracer, _)) = &ep.traced {
                spans_out.get_or_insert_with(|| tracer.to_jsonl());
                if first_pass {
                    steps.extend(tracer.sorted_durations(Layer::SourceStep));
                    take_layers(&mut layers, &ep, ledger, p.ticks);
                }
            } else {
                let requests = ep.totals.map_or(0.0, |t| t.arrivals as f64);
                blocks.episode(ep.wall_ns as f64 * 1e-9, ep.cpu_s, p.ticks as f64, requests);
                if first_pass {
                    decide.extend_from_slice(&ep.decide_ns);
                    totals.add(&ep);
                }
            }
        }
        if pair[0] > 0 && pair[1] > 0 {
            overhead.push(pair[1] as f64 / pair[0] as f64);
        }
        i += 1;
    }
    ledger.check(i >= seeds.len(), ledger.attempted, || {
        format!(
            "only {i} of {} episodes ran before the time cap",
            seeds.len()
        )
    });
    notes.push(format!(
        "episodes run: {i} ({} seeds, {} ticks each); {} complete timing blocks of {}",
        seeds.len(),
        p.ticks,
        blocks.count(),
        p.block
    ));
    m.put("peak_rss_mb", crate::peak_rss_mb(), "MB");

    if !inv.trace {
        // Correctness gate: the traced run must reproduce the timed one.
        if let Some(ep) = ledger.guard(p.ticks, "traced gate", || {
            episode(w, seeds[0], p.ticks, true)
        }) {
            check(ledger, 0, &ep, "traced gate");
        }
    }

    decide.sort_unstable();
    steps.sort_unstable();
    report::put_timing(&blocks, m, notes);
    m.put("decide_p50_us", micros(&decide, 50.0), "us");
    m.put("decide_p99_us", micros(&decide, 99.0), "us");
    m.put("decide_samples", decide.len() as f64, "count");
    totals.put(m);
    match stats::tail(&decide) {
        Some(t) if t.percentile >= 99.0 => notes.push(format!(
            "decide tail: p{} = {:.1} us with {} of {} samples above",
            t.percentile,
            t.value as f64 * 1e-3,
            t.above,
            t.samples
        )),
        _ => {
            let ops = ledger.attempted;
            ledger.fail(
                ops,
                format!(
                    "{} decide samples leave fewer than 10 above p99",
                    decide.len()
                ),
            );
        }
    }
    if inv.trace {
        layers.put(m);
        m.put("telemetry.source_step_p50_us", micros(&steps, 50.0), "us");
        m.put("telemetry.source_step_p99_us", micros(&steps, 99.0), "us");
        m.put(
            "bench.tracing_overhead_ratio",
            stats::median(&overhead).unwrap_or(f64::NAN),
            "ratio",
        );
        m.put("bench.traced_pairs", overhead.len() as f64, "count");
        if let Some(spans) = spans_out {
            crate::write_spans(inv, &spans, notes);
        }
    }
    m.put("bench.episodes", i as f64, "count");
}
