//! The `cluster-storm` workload: the `storm-cluster` scenario under
//! scoring placement with migration, short epochs, `workers = nproc`
//! and metrics plus event collection on — the way an operator runs
//! `cluster --metrics-out --events-out`.

use crate::report::{self, counter, gauge, hist_sum, LayerSums, Ledger, Metrics};
use crate::stats;
use crate::trace::{Layer, Tracer};
use crate::{episode_seeds, process_cpu_s, Budget, Invocation, Params};
use stay_away::fleet::{cluster_by_name, Cluster, ClusterConfig, ClusterOutcome};
use std::time::Instant;

const SCENARIO: &str = "storm-cluster";

/// Worker threads of the timed configuration.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Builds the cluster — the work `setup_s` times.
fn build(p: &Params, seed: u64, workers: usize, collect: bool) -> Result<Cluster, String> {
    let scenario = cluster_by_name(SCENARIO).map_err(|e| e.to_string())?;
    let mut config = ClusterConfig::new(scenario, seed);
    config.epochs = p.epochs;
    config.ticks_per_epoch = p.ticks_per_epoch;
    config.workers = workers;
    config.collect_metrics = collect;
    config.collect_events = collect;
    Cluster::new(config).map_err(|e| e.to_string())
}

/// One configuration of an episode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Variant {
    workers: usize,
    collect: bool,
    traced: bool,
}

struct Episode {
    wall_ns: u64,
    run_ns: u64,
    /// Process CPU time of `Cluster::run`, worker threads included.
    run_cpu_s: f64,
    outcome: ClusterOutcome,
    /// `ClusterOutcome::to_json`, the worker-count determinism contract.
    json: String,
    /// The same document without the collected metrics and events, so
    /// collection-off runs compare too.
    decisions: String,
    tracer: Option<Tracer>,
}

impl Episode {
    fn hosts(&self) -> u64 {
        self.outcome.per_host.len() as u64
    }
}

fn episode(p: &Params, seed: u64, v: Variant) -> Result<Episode, String> {
    let mut tracer = v.traced.then(|| Tracer::with_capacity(3));
    let span = |tracer: &mut Option<Tracer>, layer: Layer, start: Instant| {
        let nanos = start.elapsed().as_nanos() as u64;
        if let Some(t) = tracer {
            let end = t.now();
            t.root(layer, end.saturating_sub(nanos), end);
        }
        nanos
    };
    let wall = Instant::now();
    let start = Instant::now();
    let cluster = build(p, seed, v.workers, v.collect)?;
    span(&mut tracer, Layer::ClusterNew, start);
    let cpu = process_cpu_s();
    let start = Instant::now();
    let outcome = cluster.run().map_err(|e| e.to_string())?;
    let run_ns = span(&mut tracer, Layer::ClusterRun, start);
    let run_cpu_s = process_cpu_s() - cpu;
    let start = Instant::now();
    let json = outcome.to_json().map_err(|e| e.to_string())?;
    span(&mut tracer, Layer::ClusterJson, start);
    let wall_ns = wall.elapsed().as_nanos() as u64;
    let mut bare = outcome.clone();
    bare.metrics = None;
    bare.events = None;
    let decisions = bare.to_json().map_err(|e| e.to_string())?;
    Ok(Episode {
        wall_ns,
        run_ns,
        run_cpu_s,
        outcome,
        json,
        decisions,
        tracer,
    })
}

/// Adds one traced episode's layer readings to `sums`.
fn take_layers(sums: &mut LayerSums, ep: &Episode, ledger: &mut Ledger, ticks: u64) {
    let Some(tracer) = &ep.tracer else {
        return;
    };
    sums.episodes += 1;
    let s = |ns: u64| ns as f64 * 1e-9;
    let wrapped = [Layer::ClusterNew, Layer::ClusterRun, Layer::ClusterJson]
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
        "fleet.cluster_new_busy_s",
        s(tracer.busy(Layer::ClusterNew)),
        "s",
    );
    sums.add(
        "fleet.cluster_run_busy_s",
        s(tracer.busy(Layer::ClusterRun)),
        "s",
    );
    sums.add(
        "fleet.cluster_json_busy_s",
        s(tracer.busy(Layer::ClusterJson)),
        "s",
    );
    let o = &ep.outcome;
    sums.add("fleet.admissions", o.admissions as f64, "count");
    sums.add("fleet.migrations", o.migrations as f64, "count");
    sums.add("fleet.deferrals", o.deferrals as f64, "count");
    sums.add("fleet.invalid_actions", o.invalid_actions as f64, "count");
    sums.add("fleet.max_queue_depth", o.max_queue_depth as f64, "count");
    sums.add("fleet.mean_queue_depth", o.mean_queue_depth, "count");
    sums.add("stayaway.throttles", o.throttles as f64, "count");
    sums.add("stayaway.resumes", o.resumes as f64, "count");
    sums.add(
        "stayaway.samples_rejected",
        o.samples_rejected as f64,
        "count",
    );
    sums.add(
        "stayaway.prediction_hits",
        o.prediction_hits as f64,
        "count",
    );
    sums.add(
        "stayaway.prediction_checks",
        o.prediction_checks as f64,
        "count",
    );
    let per_host = |f: fn(&stay_away::fleet::HostRollup) -> u64| -> f64 {
        o.per_host.iter().map(f).sum::<u64>() as f64
    };
    sums.add(
        "telemetry.rejected_actions",
        per_host(|h| h.rejected_actions),
        "count",
    );
    sums.add("workload.arrivals", per_host(|h| h.arrivals), "count");
    sums.add("workload.completed", per_host(|h| h.completed), "count");
    sums.add("workload.dropped", per_host(|h| h.dropped), "count");
    sums.add(
        "obs.events_recorded",
        o.events.as_ref().map_or(0, Vec::len) as f64,
        "count",
    );
    if let Some(snap) = &o.metrics {
        // Host registries merged by name: counters and gauges sum
        // over hosts; timing histograms keep only their counts.
        sums.add("obs.metric_series", report::series(snap) as f64, "count");
        sums.add(
            "workload.cold_starts",
            counter(snap, "workload_container_cold_starts_total"),
            "count",
        );
        sums.add(
            "workload.evictions",
            counter(snap, "workload_container_evictions_total"),
            "count",
        );
        sums.add(
            "stayaway.mapping_errors",
            counter(snap, "stayaway_controller_mapping_errors_total"),
            "count",
        );
        sums.add(
            "statespace.states",
            gauge(snap, "stayaway_controller_states"),
            "count",
        );
        sums.add(
            "statespace.violation_states",
            gauge(snap, "stayaway_controller_violation_states"),
            "count",
        );
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
            "mds.repr_states",
            gauge(snap, "stayaway_mapping_repr_states"),
            "count",
        );
        sums.add(
            "mds.dedup_ratio",
            gauge(snap, "stayaway_mapping_dedup_ratio") / ep.hosts().max(1) as f64,
            "ratio",
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
    }
}

/// Runs one invocation of `cluster-storm`.
pub fn run(inv: &Invocation, ledger: &mut Ledger, m: &mut Metrics, notes: &mut Vec<String>) {
    let p = inv.workload.params();
    let seeds = episode_seeds(inv.seed, p.episodes);
    let workers = nproc();
    let budget = Budget::start(inv.seconds);
    let timed = Variant {
        workers,
        collect: true,
        traced: false,
    };

    // Control ticks of one episode, summed over hosts.
    let hosts = cluster_by_name(SCENARIO).map_or(1, |s| s.hosts.len()) as u64;
    let ticks = hosts * p.epochs * p.ticks_per_epoch;

    // Reference documents per seed: the full JSON of the first
    // collecting run, and the decision-only JSON of the first run.
    let mut reference: Vec<(Option<String>, Option<String>)> = vec![(None, None); seeds.len()];
    let mut check = |ledger: &mut Ledger, k: usize, ep: &Episode, v: Variant| {
        let (full, bare) = &mut reference[k];
        if v.collect {
            let full = full.get_or_insert_with(|| ep.json.clone());
            ledger.check(*full == ep.json, ticks, || {
                format!(
                    "seed {k} at {} workers changed ClusterOutcome::to_json",
                    v.workers
                )
            });
        }
        let bare = bare.get_or_insert_with(|| ep.decisions.clone());
        ledger.check(*bare == ep.decisions, ticks, || {
            format!(
                "seed {k} with collection {} changed the decisions",
                v.collect
            )
        });
        let o = &ep.outcome;
        let finite = [
            o.qos.qos_sum,
            o.qos.worst,
            o.slo_violation_rate,
            o.total_batch_work,
            o.mean_utilization,
            o.mean_gained_utilization,
            o.mean_queue_depth,
        ]
        .iter()
        .all(|v| v.is_finite());
        ledger.check(finite, ticks, || {
            format!("seed {k} produced a non-finite output")
        });
    };

    let mut layers = LayerSums::default();
    let (mut violations, mut active, mut batch, mut slo, mut first_pass_runs) = (0, 0, 0.0, 0.0, 0);
    let mut blocks = stats::Blocks::new(p.block);
    let (mut wall_1w, mut wall_nw) = (Vec::new(), Vec::new());
    let (mut tracing, mut collecting) = (Vec::new(), Vec::new());
    let mut spans_out = None;
    let mut i = 0;
    while !budget.done(i, seeds.len()) {
        let k = i % seeds.len();
        let first_pass = i < seeds.len();
        let mut variants = vec![timed];
        if inv.trace {
            variants.extend([
                Variant {
                    traced: true,
                    ..timed
                },
                Variant {
                    workers: 1,
                    ..timed
                },
                Variant {
                    collect: false,
                    ..timed
                },
            ]);
            let shift = i % variants.len();
            variants.rotate_left(shift);
        }
        let mut timings = Vec::with_capacity(variants.len());
        for &v in &variants {
            if v == timed {
                report::time_setups(ledger, &mut blocks, || build(&p, seeds[k], workers, true));
            }
            let Some(ep) = ledger.guard(ticks, "cluster episode", || episode(&p, seeds[k], v))
            else {
                continue;
            };
            check(ledger, k, &ep, v);
            timings.push((v, ep.wall_ns, ep.run_ns));
            if v.traced {
                if first_pass {
                    take_layers(&mut layers, &ep, ledger, ticks);
                }
                if let Some(t) = &ep.tracer {
                    spans_out.get_or_insert_with(|| t.to_jsonl());
                }
            } else if v == timed {
                let requests = ep.outcome.per_host.iter().map(|h| h.arrivals).sum::<u64>();
                blocks.episode(
                    ep.run_ns as f64 * 1e-9,
                    ep.run_cpu_s,
                    ticks as f64,
                    requests as f64,
                );
                if first_pass {
                    first_pass_runs += 1;
                    violations += ep.outcome.qos.violations;
                    active += ep.outcome.qos.active_ticks;
                    batch += ep.outcome.total_batch_work;
                    slo += ep.outcome.slo_violation_rate;
                }
            }
        }
        let find = |want: Variant| timings.iter().find(|w| w.0 == want).map(|w| (w.1, w.2));
        if let (Some(base), Some(traced)) = (
            find(timed),
            find(Variant {
                traced: true,
                ..timed
            }),
        ) {
            tracing.push(traced.0 as f64 / base.0 as f64);
        }
        if let (Some(base), Some(off)) = (
            find(timed),
            find(Variant {
                collect: false,
                ..timed
            }),
        ) {
            collecting.push(base.1 as f64 / off.1 as f64);
        }
        if let Some(one) = find(Variant {
            workers: 1,
            ..timed
        }) {
            wall_1w.push(one.1 as f64 * 1e-9);
        }
        if let (true, Some(base)) = (inv.trace, find(timed)) {
            wall_nw.push(base.1 as f64 * 1e-9);
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
        "episodes run: {i} ({} seeds, {} epochs x {} ticks, {workers} workers); \
         {} complete timing blocks of {}",
        seeds.len(),
        p.epochs,
        p.ticks_per_epoch,
        blocks.count(),
        p.block
    ));
    m.put("peak_rss_mb", crate::peak_rss_mb(), "MB");

    if !inv.trace {
        // Correctness gate: one worker and tracing must reproduce the
        // timed run byte for byte, and collection off its decisions.
        for v in [
            Variant {
                workers: 1,
                traced: true,
                ..timed
            },
            Variant {
                collect: false,
                ..timed
            },
        ] {
            if let Some(ep) = ledger.guard(ticks, "cluster gate", || episode(&p, seeds[0], v)) {
                check(ledger, 0, &ep, v);
            }
        }
    }

    let runs = f64::from(first_pass_runs.max(1));
    report::put_timing(&blocks, m, notes);
    let qos = if active == 0 {
        0.0
    } else {
        violations as f64 / active as f64
    };
    m.put("qos_violation_rate", qos, "ratio");
    m.put("batch_work", batch / runs, "work");
    m.put("request_slo_violation_rate", slo / runs, "ratio");
    m.put("bench.episodes", i as f64, "count");
    if inv.trace {
        layers.put(m);
        m.put("fleet.workers", workers as f64, "count");
        let w1 = stats::median(&wall_1w).unwrap_or(f64::NAN);
        let wn = stats::median(&wall_nw).unwrap_or(f64::NAN);
        m.put("fleet.cluster_wall_1w_s", w1, "s");
        m.put("fleet.cluster_wall_nw_s", wn, "s");
        m.put(
            "fleet.parallel_efficiency",
            w1 / (workers as f64 * wn),
            "ratio",
        );
        m.put(
            "obs.collect_overhead_ratio",
            stats::median(&collecting).unwrap_or(f64::NAN),
            "ratio",
        );
        m.put(
            "bench.tracing_overhead_ratio",
            stats::median(&tracing).unwrap_or(f64::NAN),
            "ratio",
        );
        m.put("bench.traced_pairs", tracing.len() as f64, "count");
        if let Some(spans) = spans_out {
            crate::write_spans(inv, &spans, notes);
        }
    }
}
