//! `stayaway` — command-line front end to the reproduction.
//!
//! ```text
//! stayaway list
//! stayaway scenarios --json
//! stayaway run --scenario vlc+cpu-bomb --policy stay-away --ticks 384 --seed 7
//! stayaway run --source trace:trace.jsonl
//! stayaway run --source workload:multi-tenant-storm --policy stayaway
//! stayaway bench-scenarios --ticks 120
//! stayaway compare --scenario web-mem+twitter-analysis --ticks 300
//! stayaway capture --scenario vlc+cpu-bomb --out template.json
//! stayaway reuse --scenario vlc+soplex --template template.json
//! stayaway record --scenario vlc+cpu-bomb --out trace.jsonl
//! stayaway replay --trace trace.jsonl
//! stayaway fleet --cells 64 --workers 4 --seed 7 --share-templates --json
//! stayaway fleet --predictor kde,xapp,denoise,last-tick --json
//! stayaway tournament --json
//! stayaway tournament --scenario cpu-bomb,flash-crowd --predictor kde,xapp
//! stayaway cluster --cluster-scenario hotspot --cluster-policy score --json
//! stayaway cluster --compare --cluster-scenario storm-cluster
//! ```
//!
//! Scenario names are `<sensitive>+<batch>` with sensitive ∈ {vlc,
//! web-cpu, web-mem, web-mix} and batch ∈ {cpu-bomb, memory-bomb, soplex,
//! twitter-analysis, vlc-transcode}.

use stay_away::core::{ControlPolicy, ControllerConfig, ControllerStats, Observability};
use stay_away::fleet::{
    cluster_by_name, cluster_library, run_tournament, Cluster, ClusterConfig, ClusterOutcome,
    ClusterPolicySpec, Fleet, FleetConfig, PolicySpec, PredictorSpec, SourceSpec, TournamentConfig,
    TournamentOutcome,
};
use stay_away::obs::{
    events_from_jsonl, events_to_jsonl, promlint, to_json, to_prometheus, EventId, EventKind,
    EventRecord, FlightRecorder, HttpServer, Introspection, MetricsRegistry, MetricsSnapshot,
    StateCell,
};
use stay_away::sim::apps::WebWorkload;
use stay_away::sim::scenario::{BatchKind, Scenario, SensitiveKind};
use stay_away::sim::workload::{DiurnalParams, Trace};
use stay_away::sim::{RunOutcome, SimSource};
use stay_away::statespace::Template;
use stay_away::telemetry::{drive, RecordingSource, TraceSource};
use stay_away::workload::{bench_scenario, BenchTable, WorkloadSource};

const USAGE: &str = "\
usage: stayaway <command> [options]

commands:
  list                       list scenarios and policies
  run                        run one scenario under one policy
  compare                    run one scenario under every policy
  capture                    run stay-away and export the learned template
  reuse                      run stay-away seeded from a template
  record                     run one scenario and record the observation
                             stream to a JSONL trace file
  replay                     drive a policy from a recorded trace
  fleet                      run many co-location cells over a worker pool
  tournament                 rank every prediction plane over a set of
                             workload scenarios (the full predictor x
                             scenario cross-product, with bootstrap
                             confidence intervals)
  cluster                    run movable batch jobs over an open cluster of
                             workload hosts (placement + admission queue +
                             migration above per-host controllers)
  metrics                    run one scenario with full instrumentation and
                             print the metrics exposition
  events                     run with the flight recorder on and print the
                             causal event timeline (or inspect a JSONL file
                             via --events-in); --cause <scope:seq> renders
                             one event's causal chain
  metrics-diff <a> <b>       compare two metrics snapshot JSON files (as
                             written by --metrics-out x.json) with relative
                             per-metric thresholds; exits 1 on regression
  promlint <file>            validate a Prometheus text exposition file
                             (`-` reads stdin); exits 1 on lint errors
  scenarios                  list the request-driven workload scenario
                             library (use with run --source workload:<name>)
  bench-scenarios            run every workload scenario under a list of
                             policies and print the per-request QoS table

options:
  --scenario <sens>+<batch>  e.g. vlc+cpu-bomb, web-mem+twitter-analysis
                             (fleet default: a 4-scenario mix; tournament:
                             comma-separated workload scenario names,
                             default cpu-bomb,memory-bomb,flash-crowd)
  --policy <name>            stayaway | reactive | static | always | null
                             (fleet/bench-scenarios: comma-separated list,
                             e.g. stayaway,reactive; bench-scenarios
                             default stayaway,reactive,null)
  --predictor <name>         prediction plane for the stay-away controller:
                             kde | xapp | denoise | last-tick (default kde;
                             fleet/tournament: comma-separated list — the
                             fleet round-robins it across cells, the
                             tournament enters every listed plane)
  --resamples <n>            tournament: bootstrap resamples behind each
                             confidence interval (default 1000)
  --source <spec>            observation substrate for run/compare/fleet:
                             sim | trace:<path> | procfs |
                             workload:<scenario> (default sim; fleet:
                             comma-separated list round-robined across
                             cells)
  --trace <path>             recorded trace file for replay
  --ticks <n>                simulation length (default 384)
  --seed <n>                 deterministic seed (default 7)
  --template <path>          template file for capture/reuse
  --out <path>               output path for capture (template.json) and
                             record (trace.jsonl)
  --cells <n>                fleet: number of co-location cells (default 8);
                             tournament: cells per predictor x scenario
                             combination (default 3)
  --workers <n>              fleet/cluster: worker threads (default 1;
                             results are identical for any value)
  --share-templates          fleet: warm-start cells from the registry
  --cluster-scenario <name>  cluster: hotspot | storm-cluster
                             (default hotspot)
  --cluster-policy <name>    cluster: score | random | least-loaded | none
                             (default score; none = throttle-only
                             round-robin Stay-Away)
  --epochs <n>               cluster: placement epochs (default 24)
  --epoch-ticks <n>          cluster: control ticks per epoch (default 8)
  --no-migration             cluster: disable the Migrate verb
  --compare                  cluster: run every cluster policy and print
                             the comparison table
  --metrics-out <path>       run/fleet/cluster/tournament/metrics: export
                             the run's metrics snapshot; `-` writes pretty
                             JSON to stdout, a `.json` path writes pretty
                             JSON, any other path writes Prometheus text
                             exposition
  --events-out <path>        run/fleet/cluster: write the canonical event
                             stream as JSON Lines (`-` writes to stdout)
  --events-in <path>         events: read a recorded JSONL stream instead
                             of running a scenario
  --http <addr>              run/fleet/cluster: serve /health /metrics
                             /state /events?tail=N on <addr> (port 0 binds
                             an ephemeral port; the bound address is
                             printed)
  --http-linger <secs>       keep the HTTP server up this many seconds
                             after the run completes (default 0)
  --kind <name>              events: only show this event kind
  --host <n>                 events: only show this recorder scope
  --tick-from <n>            events: drop events before this tick
  --tick-to <n>              events: drop events after this tick
  --cause <scope:seq>        events: render the causal chain ending at
                             this event id
  --threshold <f>            metrics-diff: relative tolerance applied to
                             every metric (default 0, exact match)
  --threshold-for <m=f>      metrics-diff: per-metric override, repeatable
  --json                     print a JSON summary instead of text
";

#[derive(Debug, Clone)]
struct Args {
    command: String,
    /// None means "not given on the command line": single-run commands
    /// default to vlc+cpu-bomb, the fleet to its standard scenario mix.
    scenario: Option<String>,
    /// None means "not given on the command line": most commands default
    /// to stay-away, bench-scenarios to its baseline-comparison list.
    policy: Option<String>,
    /// None means "not given": every predictive command defaults to the
    /// reference KDE plane.
    predictor: Option<String>,
    source: String,
    trace: Option<String>,
    ticks: u64,
    seed: u64,
    template: Option<String>,
    out: Option<String>,
    /// None means "not given": the fleet defaults to 8 cells, the
    /// tournament to 3 cells per predictor × scenario combination.
    cells: Option<usize>,
    workers: usize,
    resamples: usize,
    share_templates: bool,
    /// None means "not given": the cluster defaults to hotspot.
    cluster_scenario: Option<String>,
    /// None means "not given": the cluster defaults to scoring placement.
    cluster_policy: Option<String>,
    epochs: u64,
    epoch_ticks: u64,
    no_migration: bool,
    compare: bool,
    metrics_out: Option<String>,
    events_out: Option<String>,
    events_in: Option<String>,
    /// None means "don't serve": `--http <addr>` starts the introspection
    /// server (DESIGN.md §16) for the duration of the run.
    http: Option<String>,
    /// Seconds the HTTP server outlives the run (0 = stop immediately).
    http_linger: u64,
    kind: Option<String>,
    host: Option<u32>,
    tick_from: Option<u64>,
    tick_to: Option<u64>,
    cause: Option<String>,
    /// metrics-diff: global relative tolerance (0 = exact).
    threshold: f64,
    /// metrics-diff: per-metric overrides, `name=tolerance`.
    threshold_for: Vec<(String, f64)>,
    /// Non-flag operands after the command (metrics-diff paths, a
    /// promlint file).
    positional: Vec<String>,
    json: bool,
}

/// Scenario used by the single-run commands when `--scenario` is omitted.
const DEFAULT_SCENARIO: &str = "vlc+cpu-bomb";

impl Args {
    /// The `--policy` value, or `default` when the flag was omitted.
    fn policy_or<'a>(&'a self, default: &'a str) -> &'a str {
        self.policy.as_deref().unwrap_or(default)
    }

    /// The controller configuration single-run commands build policies
    /// with: the defaults, with `--predictor` applied when given.
    fn controller_config(&self) -> Result<ControllerConfig, String> {
        let config = ControllerConfig::default();
        match &self.predictor {
            Some(token) => Ok(PredictorSpec::parse(token)
                .map_err(|e| e.to_string())?
                .apply(&config)),
            None => Ok(config),
        }
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        command: argv.first().cloned().ok_or("missing command")?,
        scenario: None,
        policy: None,
        predictor: None,
        source: "sim".into(),
        trace: None,
        ticks: 384,
        seed: 7,
        template: None,
        out: None,
        cells: None,
        workers: 1,
        resamples: 1000,
        share_templates: false,
        cluster_scenario: None,
        cluster_policy: None,
        epochs: 24,
        epoch_ticks: 8,
        no_migration: false,
        compare: false,
        metrics_out: None,
        events_out: None,
        events_in: None,
        http: None,
        http_linger: 0,
        kind: None,
        host: None,
        tick_from: None,
        tick_to: None,
        cause: None,
        threshold: 0.0,
        threshold_for: Vec::new(),
        positional: Vec::new(),
        json: false,
    };
    let mut it = argv[1..].iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} expects a value"))
        };
        match flag.as_str() {
            "--scenario" => args.scenario = Some(value("--scenario")?),
            "--policy" => args.policy = Some(value("--policy")?),
            "--predictor" => args.predictor = Some(value("--predictor")?),
            "--resamples" => {
                args.resamples = value("--resamples")?
                    .parse()
                    .map_err(|_| "--resamples expects an integer".to_string())?
            }
            "--source" => args.source = value("--source")?,
            "--trace" => args.trace = Some(value("--trace")?),
            "--ticks" => {
                args.ticks = value("--ticks")?
                    .parse()
                    .map_err(|_| "--ticks expects an integer".to_string())?
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed expects an integer".to_string())?
            }
            "--template" => args.template = Some(value("--template")?),
            "--out" => args.out = Some(value("--out")?),
            "--cells" => {
                args.cells = Some(
                    value("--cells")?
                        .parse()
                        .map_err(|_| "--cells expects an integer".to_string())?,
                )
            }
            "--workers" => {
                args.workers = value("--workers")?
                    .parse()
                    .map_err(|_| "--workers expects an integer".to_string())?
            }
            "--share-templates" => args.share_templates = true,
            "--cluster-scenario" => args.cluster_scenario = Some(value("--cluster-scenario")?),
            "--cluster-policy" => args.cluster_policy = Some(value("--cluster-policy")?),
            "--epochs" => {
                args.epochs = value("--epochs")?
                    .parse()
                    .map_err(|_| "--epochs expects an integer".to_string())?
            }
            "--epoch-ticks" => {
                args.epoch_ticks = value("--epoch-ticks")?
                    .parse()
                    .map_err(|_| "--epoch-ticks expects an integer".to_string())?
            }
            "--no-migration" => args.no_migration = true,
            "--compare" => args.compare = true,
            "--metrics-out" => args.metrics_out = Some(value("--metrics-out")?),
            "--events-out" => args.events_out = Some(value("--events-out")?),
            "--events-in" => args.events_in = Some(value("--events-in")?),
            "--http" => args.http = Some(value("--http")?),
            "--http-linger" => {
                args.http_linger = value("--http-linger")?
                    .parse()
                    .map_err(|_| "--http-linger expects seconds".to_string())?
            }
            "--kind" => args.kind = Some(value("--kind")?),
            "--host" => {
                args.host = Some(
                    value("--host")?
                        .parse()
                        .map_err(|_| "--host expects an integer scope".to_string())?,
                )
            }
            "--tick-from" => {
                args.tick_from = Some(
                    value("--tick-from")?
                        .parse()
                        .map_err(|_| "--tick-from expects an integer".to_string())?,
                )
            }
            "--tick-to" => {
                args.tick_to = Some(
                    value("--tick-to")?
                        .parse()
                        .map_err(|_| "--tick-to expects an integer".to_string())?,
                )
            }
            "--cause" => args.cause = Some(value("--cause")?),
            "--threshold" => {
                args.threshold = value("--threshold")?
                    .parse()
                    .map_err(|_| "--threshold expects a number".to_string())?
            }
            "--threshold-for" => {
                let spec = value("--threshold-for")?;
                let (name, tol) = spec.split_once('=').ok_or_else(|| {
                    format!("--threshold-for `{spec}` is not <metric>=<tolerance>")
                })?;
                let tol: f64 = tol
                    .parse()
                    .map_err(|_| format!("--threshold-for tolerance `{tol}` is not a number"))?;
                args.threshold_for.push((name.to_string(), tol));
            }
            "--json" => args.json = true,
            other if !other.starts_with('-') => args.positional.push(other.to_string()),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(args)
}

fn parse_scenario(name: &str, seed: u64) -> Result<Scenario, String> {
    let (sens, batch) = name
        .split_once('+')
        .ok_or_else(|| format!("scenario `{name}` is not of the form <sensitive>+<batch>"))?;
    let batch_kind = BatchKind::ALL
        .into_iter()
        .find(|k| k.name() == batch)
        .ok_or_else(|| {
            format!(
                "unknown batch app `{batch}` (expected one of {})",
                BatchKind::ALL.map(|k| k.name()).join(", ")
            )
        })?;
    let trace = Trace::diurnal(DiurnalParams::default(), seed.wrapping_add(1));
    let sensitive = match sens {
        "vlc" => SensitiveKind::VlcStreaming { trace },
        "web-cpu" => SensitiveKind::Webservice {
            workload: WebWorkload::CpuIntensive,
            trace,
        },
        "web-mem" => SensitiveKind::Webservice {
            workload: WebWorkload::MemIntensive,
            trace,
        },
        "web-mix" => SensitiveKind::Webservice {
            workload: WebWorkload::Mix,
            trace,
        },
        other => {
            return Err(format!(
                "unknown sensitive app `{other}` (expected vlc, web-cpu, web-mem or web-mix)"
            ))
        }
    };
    Ok(Scenario::builder(name)
        .seed(seed)
        .sensitive(sensitive)
        .batch(batch_kind, 20)
        .build())
}

fn summarize(
    label: &str,
    scenario_name: &str,
    cpu_capacity: f64,
    out: &RunOutcome,
    stats: Option<&ControllerStats>,
    json: bool,
) {
    let cap = cpu_capacity;
    if json {
        let mut doc = serde_json::json!({
            "scenario": scenario_name,
            "policy": label,
            "ticks": out.timeline.len(),
            "violations": out.qos.violations,
            "satisfaction": out.qos.satisfaction(),
            "mean_qos": out.qos.mean_qos(),
            "gained_utilization": out.mean_gained_utilization(cap),
            "batch_work": out.batch_work,
        });
        if let (Some(stats), serde_json::Value::Object(pairs)) = (stats, &mut doc) {
            pairs.push(("controller".to_string(), serde_json::to_value(stats)));
        }
        println!("{}", serde_json::to_string_pretty(&doc).expect("json"));
    } else {
        println!(
            "{label:<16} violations {:>4}  satisfaction {:>5.1}%  gained util {:>5.1}%  batch work {:>6.0}",
            out.qos.violations,
            100.0 * out.qos.satisfaction(),
            100.0 * out.mean_gained_utilization(cap),
            out.batch_work,
        );
        if let Some(stats) = stats {
            println!(
                "controller: {} states ({} violation), {} throttles, {} resumes, prediction accuracy {}",
                stats.states,
                stats.violation_states,
                stats.throttles,
                stats.resumes,
                format_accuracy(stats.prediction_accuracy()),
            );
            let t = &stats.stage_timing;
            println!(
                "stages: sense {}x/{}µs, map {}x/{}µs, predict {}x/{}µs, act {}x/{}µs",
                t.sense.invocations,
                t.sense.nanos / 1_000,
                t.map.invocations,
                t.map.nanos / 1_000,
                t.predict.invocations,
                t.predict.nanos / 1_000,
                t.act.invocations,
                t.act.nanos / 1_000,
            );
        }
    }
}

/// Prediction accuracy for humans: a percentage, or "n/a" before any
/// prediction has been checked (never a made-up 100%).
fn format_accuracy(accuracy: Option<f64>) -> String {
    match accuracy {
        Some(a) => format!("{:.1}%", 100.0 * a),
        None => "n/a".to_string(),
    }
}

/// Writes a metrics snapshot to `path`: `-` prints pretty JSON to
/// stdout, a `.json` path gets pretty JSON, anything else gets the
/// Prometheus text exposition.
fn write_metrics(snapshot: &MetricsSnapshot, path: &str) -> Result<(), String> {
    if path == "-" {
        println!(
            "{}",
            serde_json::to_string_pretty(&to_json(snapshot)).expect("metrics json")
        );
        return Ok(());
    }
    let rendered = if path.ends_with(".json") {
        let mut text = serde_json::to_string_pretty(&to_json(snapshot)).expect("metrics json");
        text.push('\n');
        text
    } else {
        to_prometheus(snapshot)
    };
    std::fs::write(path, rendered).map_err(|e| format!("cannot write {path}: {e}"))?;
    println!("metrics written to {path}");
    Ok(())
}

/// The live observability handles a single-host run shares between the
/// controller, the workload source and the HTTP introspection server:
/// one flight recorder (scope 0), the `/state` cell the controller
/// publishes into, and — when `--http` was given — the running server.
struct RunIntrospection {
    recorder: FlightRecorder,
    state: StateCell,
    server: Option<HttpServer>,
}

/// Builds the single-run introspection plane when `--http` or
/// `--events-out` asks for it. With `--http` the server starts before
/// the run (live observation) and the bound address is printed —
/// ephemeral ports resolve here, scripts scrape this line.
fn run_introspection(
    args: &Args,
    registry: Option<&MetricsRegistry>,
) -> Result<Option<RunIntrospection>, String> {
    if args.http.is_none() && args.events_out.is_none() {
        return Ok(None);
    }
    let recorder = FlightRecorder::for_scope(0, "run");
    let (state, server) = match &args.http {
        Some(addr) => {
            let mut intro = Introspection::new().with_recorder(recorder.clone());
            if let Some(registry) = registry {
                intro = intro.with_registry(registry.clone());
            }
            // The server's own cell doubles as the controller's `/state`
            // sink — one handle, no copying.
            let state = intro.state();
            let server = HttpServer::serve(addr, intro)
                .map_err(|e| format!("cannot serve on {addr}: {e}"))?;
            println!(
                "introspection server listening on http://{}",
                server.local_addr()
            );
            (state, Some(server))
        }
        None => (StateCell::new(), None),
    };
    Ok(Some(RunIntrospection {
        recorder,
        state,
        server,
    }))
}

/// Post-run: exports the event stream when `--events-out` asked for it,
/// honours `--http-linger`, then stops the server.
fn finish_introspection(
    args: &Args,
    introspection: Option<RunIntrospection>,
) -> Result<(), String> {
    let Some(intro) = introspection else {
        return Ok(());
    };
    if let Some(path) = &args.events_out {
        write_events(&intro.recorder.events(), path)?;
    }
    linger_and_shutdown(args, intro.server);
    Ok(())
}

/// Honours `--http-linger`, then stops the server.
fn linger_and_shutdown(args: &Args, server: Option<HttpServer>) {
    let Some(server) = server else { return };
    if args.http_linger > 0 {
        println!(
            "introspection server lingering for {}s (ctrl-c to abort)",
            args.http_linger
        );
        std::thread::sleep(std::time::Duration::from_secs(args.http_linger));
    }
    server.shutdown();
}

/// Writes the canonical event stream to `path` as JSON Lines (`-`
/// prints to stdout).
fn write_events(events: &[EventRecord], path: &str) -> Result<(), String> {
    let jsonl = events_to_jsonl(events);
    if path == "-" {
        print!("{jsonl}");
        return Ok(());
    }
    std::fs::write(path, jsonl).map_err(|e| format!("cannot write {path}: {e}"))?;
    println!("{} events written to {path}", events.len());
    Ok(())
}

/// Reads a whole text input: `-` means stdin, anything else a path.
fn read_text_input(path: &str) -> Result<String, String> {
    if path == "-" {
        let mut buf = String::new();
        std::io::Read::read_to_string(&mut std::io::stdin(), &mut buf)
            .map_err(|e| format!("cannot read stdin: {e}"))?;
        Ok(buf)
    } else {
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
    }
}

/// Serves a *completed* fleet or cluster outcome over `--http`: the
/// frozen metrics rollup on `/metrics`, a summary document on `/state`
/// and the merged canonical event stream on `/events`. The server only
/// exists for the `--http-linger` window — multi-cell planes publish
/// after the run rather than live, so their streams stay canonical.
fn serve_outcome_http(
    args: &Args,
    metrics: Option<&MetricsSnapshot>,
    events: Option<Vec<EventRecord>>,
    state: serde_json::Value,
) -> Result<(), String> {
    let Some(addr) = &args.http else {
        return Ok(());
    };
    let intro = Introspection::new();
    if let Some(snapshot) = metrics {
        intro.set_metrics(snapshot.clone());
    }
    if let Some(events) = events {
        intro.set_events(events);
    }
    intro.state().set(state);
    let server =
        HttpServer::serve(addr, intro).map_err(|e| format!("cannot serve on {addr}: {e}"))?;
    println!(
        "introspection server listening on http://{}",
        server.local_addr()
    );
    linger_and_shutdown(args, Some(server));
    Ok(())
}

/// The `/state` summary a post-run fleet server publishes.
fn fleet_state_json(outcome: &stay_away::fleet::FleetOutcome) -> serde_json::Value {
    serde_json::json!({
        "plane": "fleet",
        "cells": outcome.cells as u64,
        "ticks_per_cell": outcome.ticks_per_cell,
        "fleet_seed": outcome.fleet_seed,
        "total_batch_work": outcome.total_batch_work,
        "mean_utilization": outcome.mean_utilization,
        "mean_gained_utilization": outcome.mean_gained_utilization,
        "throttles": outcome.throttles,
        "resumes": outcome.resumes,
        "violations_predicted": outcome.violations_predicted,
        "events_dropped": outcome.events_dropped,
        "metric_unit_mismatches": outcome.metric_unit_mismatches
    })
}

/// The `/state` summary a post-run cluster server publishes.
fn cluster_state_json(outcome: &ClusterOutcome) -> serde_json::Value {
    serde_json::json!({
        "plane": "cluster",
        "scenario": outcome.scenario.clone(),
        "cluster_policy": outcome.cluster_policy.clone(),
        "host_policy": outcome.host_policy.clone(),
        "seed": outcome.seed,
        "epochs": outcome.epochs,
        "ticks_per_epoch": outcome.ticks_per_epoch,
        "slo_violation_rate": outcome.slo_violation_rate,
        "total_batch_work": outcome.total_batch_work,
        "admissions": outcome.admissions,
        "migrations": outcome.migrations,
        "deferrals": outcome.deferrals,
        "queue_actions": outcome.queue_actions,
        "metric_unit_mismatches": outcome.metric_unit_mismatches
    })
}

/// One human-readable timeline line:
/// `scope:seq t=<tick> [layer] kind subject k=v ... <- cause`.
fn render_event(e: &EventRecord) -> String {
    let mut line = format!(
        "{} t={} [{}] {} {}",
        e.id(),
        e.tick,
        e.layer,
        e.kind,
        e.subject
    );
    for (name, value) in &e.attrs {
        line.push_str(&format!(" {name}={}", value.render()));
    }
    if let Some(cause) = e.cause {
        line.push_str(&format!(" <- {cause}"));
    }
    line
}

/// The event stream the `events` command inspects: `--events-in` reads
/// a JSONL export, otherwise a demo cluster run records one live.
/// storm-cluster is the demo default because it exercises every cluster
/// verb including migration (hotspot under scoring placement admits
/// cleanly and never migrates).
fn load_or_record_events(args: &Args) -> Result<Vec<EventRecord>, String> {
    if let Some(path) = &args.events_in {
        let text = read_text_input(path)?;
        return events_from_jsonl(&text).map_err(|e| format!("{path}: {e}"));
    }
    let mut demo = args.clone();
    if demo.cluster_scenario.is_none() {
        demo.cluster_scenario = Some("storm-cluster".into());
    }
    let policy = ClusterPolicySpec::parse(demo.cluster_policy.as_deref().unwrap_or("score"))
        .map_err(|e| e.to_string())?;
    let outcome = run_cluster_policy(&demo, policy)?;
    outcome
        .events
        .ok_or_else(|| "cluster run recorded no events".to_string())
}

/// Walks `--cause` links from `id` back to the root, printing each hop.
fn print_causal_chain(events: &[EventRecord], id: EventId) -> Result<(), String> {
    let find = |id: EventId| {
        events
            .iter()
            .find(|e| e.scope == id.scope && e.seq == id.seq)
    };
    let mut next = Some(id);
    let mut depth = 0usize;
    while let Some(id) = next {
        let event = find(id).ok_or_else(|| format!("event {id} not found in the stream"))?;
        if depth == 0 {
            println!("{}", render_event(event));
        } else {
            println!(
                "{:indent$}caused by {}",
                "",
                render_event(event),
                indent = depth * 2
            );
        }
        next = event.cause;
        depth += 1;
    }
    Ok(())
}

/// One comparable series extracted from a metrics snapshot JSON:
/// histograms expand to one series per statistic; `metric` names the
/// owning metric so `--threshold-for` overrides attach to all of them.
struct MetricSeries {
    key: String,
    metric: String,
    value: f64,
}

/// A numeric JSON field, whatever integer/float shape it parsed as.
fn number_field(value: &serde_json::Value) -> Option<f64> {
    value
        .as_f64()
        .or_else(|| value.as_u64().map(|u| u as f64))
        .or_else(|| value.as_i64().map(|i| i as f64))
}

/// Wall-clock series are nondeterministic by nature and excluded from
/// the regression gate.
fn is_wall_clock(name: &str, unit: Option<&str>) -> bool {
    name.ends_with("_nanos") || name.contains("_nanos_") || unit == Some("nanos")
}

/// Extracts the comparable series from a `--metrics-out *.json`
/// snapshot, skipping wall-clock series and null quantiles.
fn load_metric_values(path: &str) -> Result<Vec<MetricSeries>, String> {
    let text = read_text_input(path)?;
    let doc: serde_json::Value = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    let mut out = Vec::new();
    for section in ["counters", "gauges"] {
        let Some(entries) = doc.get(section).and_then(|v| v.as_array()) else {
            continue;
        };
        for entry in entries {
            let Some(name) = entry.get("name").and_then(|v| v.as_str()) else {
                continue;
            };
            if is_wall_clock(name, None) {
                continue;
            }
            let Some(value) = entry.get("value").and_then(number_field) else {
                continue;
            };
            out.push(MetricSeries {
                key: name.to_string(),
                metric: name.to_string(),
                value,
            });
        }
    }
    if let Some(entries) = doc.get("histograms").and_then(|v| v.as_array()) {
        for entry in entries {
            let Some(name) = entry.get("name").and_then(|v| v.as_str()) else {
                continue;
            };
            let unit = entry.get("unit").and_then(|v| v.as_str());
            if is_wall_clock(name, unit) {
                continue;
            }
            for stat in ["count", "sum", "min", "max", "mean", "p50", "p95", "p99"] {
                let Some(value) = entry.get(stat).and_then(number_field) else {
                    continue;
                };
                out.push(MetricSeries {
                    key: format!("{name}/{stat}"),
                    metric: name.to_string(),
                    value,
                });
            }
        }
    }
    Ok(out)
}

/// One row of the regression-gate comparison.
struct DiffRow {
    key: String,
    metric: String,
    a: f64,
    b: f64,
    rel: f64,
}

/// Symmetric relative difference: `|a-b| / max(|a|,|b|)`; 0 when equal.
fn relative_difference(a: f64, b: f64) -> f64 {
    if a == b {
        return 0.0;
    }
    let scale = a.abs().max(b.abs());
    if scale == 0.0 {
        0.0
    } else {
        (a - b).abs() / scale
    }
}

/// Compares two extracted series sets over the union of keys. A series
/// present on only one side diffs as infinite — a missing metric is a
/// regression, not a skip.
fn diff_metric_values(a: &[MetricSeries], b: &[MetricSeries]) -> Vec<DiffRow> {
    use std::collections::BTreeMap;
    let index = |series: &[MetricSeries]| -> BTreeMap<String, (String, f64)> {
        series
            .iter()
            .map(|m| (m.key.clone(), (m.metric.clone(), m.value)))
            .collect()
    };
    let left = index(a);
    let right = index(b);
    let mut keys: Vec<String> = left.keys().chain(right.keys()).cloned().collect();
    keys.sort();
    keys.dedup();
    keys.into_iter()
        .map(|key| {
            let l = left.get(&key);
            let r = right.get(&key);
            let metric = l.or(r).map(|(m, _)| m.clone()).unwrap_or_default();
            let (a, b, rel) = match (l, r) {
                (Some((_, a)), Some((_, b))) => (*a, *b, relative_difference(*a, *b)),
                (Some((_, a)), None) => (*a, f64::NAN, f64::INFINITY),
                (None, Some((_, b))) => (f64::NAN, *b, f64::INFINITY),
                (None, None) => unreachable!("key came from one of the maps"),
            };
            DiffRow {
                key,
                metric,
                a,
                b,
                rel,
            }
        })
        .collect()
}

/// Runs the named policy against the selected observation substrate via
/// the unified [`ControlPolicy`] surface; returns the outcome, the
/// post-run policy (for introspection: stats, template export) and the
/// CPU capacity of the sensed host (for utilisation summaries). When a
/// `registry` is given, the policy and substrate register their
/// instruments into it (decision-inert).
#[allow(clippy::too_many_arguments)]
fn run_policy_by_name(
    scenario: &Scenario,
    policy: &str,
    config: &ControllerConfig,
    source_spec: &SourceSpec,
    seed: u64,
    ticks: u64,
    registry: Option<&MetricsRegistry>,
    introspection: Option<&RunIntrospection>,
) -> Result<(RunOutcome, Box<dyn ControlPolicy>, f64), String> {
    let spec = PolicySpec::parse(policy).map_err(|e| e.to_string())?;
    let mut source = source_spec
        .build_instrumented(
            scenario,
            seed,
            registry,
            introspection.map(|intro| &intro.recorder),
        )
        .map_err(|e| e.to_string())?;
    let host_spec = source.meta().host.unwrap_or_else(|| *scenario.host_spec());
    let mut obs = match registry {
        Some(registry) => Observability::enabled(registry.clone()),
        None => Observability::disabled(),
    };
    if let Some(intro) = introspection {
        obs = obs
            .with_recorder(intro.recorder.clone())
            .with_state(intro.state.clone());
    }
    let mut policy = spec
        .build_observed(config, &host_spec, obs)
        .map_err(|e| e.to_string())?;
    let out = drive(source.as_mut(), policy.as_mut(), ticks).map_err(|e| e.to_string())?;
    Ok((out, policy, host_spec.cpu_cores))
}

/// Runs a workload-library scenario under one policy, keeping the
/// concrete [`WorkloadSource`] in hand so the summary can include the
/// per-request latency QoS the tick-level summary cannot see.
fn run_workload(name: &str, args: &Args) -> Result<(), String> {
    let scenario = stay_away::workload::by_name(name).map_err(|e| e.to_string())?;
    let host_spec = scenario.host;
    let registry = (args.metrics_out.is_some() || args.http.is_some()).then(MetricsRegistry::new);
    let introspection = run_introspection(args, registry.as_ref())?;
    let spec = PolicySpec::parse(args.policy_or("stay-away")).map_err(|e| e.to_string())?;
    let mut obs = match &registry {
        Some(registry) => Observability::enabled(registry.clone()),
        None => Observability::disabled(),
    };
    if let Some(intro) = &introspection {
        obs = obs
            .with_recorder(intro.recorder.clone())
            .with_state(intro.state.clone());
    }
    let mut policy = spec
        .build_observed(&args.controller_config()?, &host_spec, obs)
        .map_err(|e| e.to_string())?;
    let mut source = WorkloadSource::new(scenario, args.seed).map_err(|e| e.to_string())?;
    if let Some(registry) = &registry {
        source = source.with_metrics(registry);
    }
    if let Some(intro) = &introspection {
        source = source.with_recorder(intro.recorder.clone());
    }
    let out = drive(&mut source, policy.as_mut(), args.ticks).map_err(|e| e.to_string())?;
    let latency = source.latency();
    let totals = source.totals();
    let stats = policy.stats();
    let stats = (stats.periods > 0).then_some(&stats);
    let label = format!("workload:{name}");
    if args.json {
        let mut doc = serde_json::json!({
            "scenario": label,
            "policy": policy.name(),
            "ticks": out.timeline.len(),
            "violations": out.qos.violations,
            "satisfaction": out.qos.satisfaction(),
            "mean_qos": out.qos.mean_qos(),
            "gained_utilization": out.mean_gained_utilization(host_spec.cpu_cores),
            "batch_work": out.batch_work,
            "latency": serde_json::json!({
                "p50_ms": latency.quantile_ms(0.50),
                "p95_ms": latency.quantile_ms(0.95),
                "p99_ms": latency.quantile_ms(0.99),
                "mean_ms": latency.mean_ms(),
                "slo_violation_rate": totals.slo_violation_rate(),
                "requests": totals.arrivals,
                "completed": totals.completed,
                "dropped": totals.dropped,
                "cold_starts": totals.cold_starts,
                "evictions": totals.evictions,
            }),
        });
        if let (Some(stats), serde_json::Value::Object(pairs)) = (stats, &mut doc) {
            pairs.push(("controller".to_string(), serde_json::to_value(stats)));
        }
        println!("{}", serde_json::to_string_pretty(&doc).expect("json"));
    } else {
        summarize(
            policy.name(),
            &label,
            host_spec.cpu_cores,
            &out,
            stats,
            false,
        );
        println!(
            "latency: p50 {:.3} ms  p95 {:.3} ms  p99 {:.3} ms  slo-violation {:.2}%",
            latency.quantile_ms(0.50),
            latency.quantile_ms(0.95),
            latency.quantile_ms(0.99),
            100.0 * totals.slo_violation_rate(),
        );
        println!(
            "requests: {} arrived, {} completed, {} dropped, {} cold starts, {} evictions",
            totals.arrivals, totals.completed, totals.dropped, totals.cold_starts, totals.evictions,
        );
    }
    if let (Some(path), Some(registry)) = (&args.metrics_out, &registry) {
        write_metrics(&registry.snapshot(), path)?;
    }
    finish_introspection(args, introspection)?;
    Ok(())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() || argv[0] == "--help" || argv[0] == "-h" || argv[0] == "help" {
        print!("{USAGE}");
        return;
    }
    if let Err(e) = run(&argv) {
        eprintln!("error: {e}");
        eprint!("{USAGE}");
        std::process::exit(2);
    }
}

fn fleet_summary(outcome: &stay_away::fleet::FleetOutcome) {
    println!(
        "fleet: {} cells x {} ticks, seed {}, template sharing {}",
        outcome.cells,
        outcome.ticks_per_cell,
        outcome.fleet_seed,
        if outcome.share_templates { "on" } else { "off" },
    );
    println!(
        "qos: {} violations / {} active ticks ({:.1}% satisfaction), worst {:.3}",
        outcome.qos.violations,
        outcome.qos.active_ticks,
        100.0 * outcome.satisfaction(),
        outcome.qos.worst,
    );
    println!(
        "utilization: mean {:.1}%, gained from batch {:.1}%, total batch work {:.0}",
        100.0 * outcome.mean_utilization,
        100.0 * outcome.mean_gained_utilization,
        outcome.total_batch_work,
    );
    println!(
        "control: {} throttles, {} resumes, prediction accuracy {}, {} samples rejected, {} log events dropped",
        outcome.throttles,
        outcome.resumes,
        format_accuracy(outcome.prediction_accuracy()),
        outcome.samples_rejected,
        outcome.events_dropped,
    );
    println!(
        "templates: {} cells imported, {} proactive first throttles",
        outcome.cells_imported, outcome.proactive_first_throttles,
    );
    if outcome.per_policy.len() > 1 {
        for r in &outcome.per_policy {
            println!(
                "  {:<16} {} cells  satisfaction {:>5.1}%  gained util {:>5.1}%  {} throttles / {} resumes  {} log events dropped",
                r.policy,
                r.cells,
                100.0 * r.satisfaction(),
                100.0 * r.mean_gained_utilization,
                r.throttles,
                r.resumes,
                r.events_dropped,
            );
        }
    }
    if outcome.per_predictor.len() > 1 {
        for r in &outcome.per_predictor {
            println!(
                "  predictor {:<10} {} cells  satisfaction {:>5.1}%  slo-viol {:>5.2}%  accuracy {:>6}  {} samples rejected",
                r.predictor,
                r.cells,
                100.0 * r.satisfaction(),
                100.0 * r.slo_violation_rate(),
                format_accuracy(r.prediction_accuracy()),
                r.samples_rejected,
            );
        }
    }
}

fn tournament_summary(outcome: &TournamentOutcome) {
    println!(
        "tournament: {} predictors x {} scenarios x {} cells/combo = {} cells, {} ticks each, seed {}",
        outcome.predictors.len(),
        outcome.scenarios.len(),
        outcome.cells_per_combo,
        outcome.cells,
        outcome.ticks,
        outcome.seed,
    );
    println!(
        "scenarios: {} ({} bootstrap resamples per interval)",
        outcome.scenarios.join(", "),
        outcome.bootstrap_resamples,
    );
    println!(
        "{:<5} {:<10} {:>5} {:>24} {:>22} {:>10} {:>8} {:>8} {:>9}",
        "rank",
        "predictor",
        "cells",
        "satisfaction [95% ci]",
        "slo-viol [95% ci]",
        "batch",
        "accuracy",
        "rejected",
        "decide",
    );
    for s in &outcome.standings {
        println!(
            "{:<5} {:<10} {:>5} {:>7.1}% [{:>4.1}, {:>5.1}] {:>6.2}% [{:>4.2}, {:>5.2}] {:>10.0} {:>8} {:>8} {:>9}",
            s.rank,
            s.predictor,
            s.cells,
            100.0 * s.satisfaction.mean,
            100.0 * s.satisfaction.lo,
            100.0 * s.satisfaction.hi,
            100.0 * s.slo_violation_rate.mean,
            100.0 * s.slo_violation_rate.lo,
            100.0 * s.slo_violation_rate.hi,
            s.batch_work.mean,
            format_accuracy(s.prediction_accuracy),
            s.samples_rejected,
            match s.decide_nanos {
                Some(nanos) => format!("{:.1}µs", nanos / 1_000.0),
                None => "n/a".to_string(),
            },
        );
    }
    println!("per-scenario satisfaction:");
    for s in &outcome.standings {
        let row: Vec<String> = s
            .per_scenario
            .iter()
            .map(|sc| format!("{} {:>5.1}%", sc.scenario, 100.0 * sc.satisfaction))
            .collect();
        println!("  {:<10} {}", s.predictor, row.join("  "));
    }
}

fn cluster_summary(outcome: &ClusterOutcome) {
    println!(
        "cluster: {} ({} hosts, {} jobs), {} epochs x {} ticks, seed {}",
        outcome.scenario,
        outcome.per_host.len(),
        outcome.per_job.len(),
        outcome.epochs,
        outcome.ticks_per_epoch,
        outcome.seed,
    );
    println!(
        "placement: {} above per-host {}, migration {}",
        outcome.cluster_policy,
        outcome.host_policy,
        if outcome.migration { "on" } else { "off" },
    );
    println!(
        "qos: {} violations / {} active ticks ({:.1}% satisfaction), pooled slo-violation {:.2}%",
        outcome.qos.violations,
        outcome.qos.active_ticks,
        100.0 * outcome.satisfaction(),
        100.0 * outcome.slo_violation_rate,
    );
    println!(
        "utilization: mean {:.1}%, gained from batch {:.1}%, total batch work {:.0}",
        100.0 * outcome.mean_utilization,
        100.0 * outcome.mean_gained_utilization,
        outcome.total_batch_work,
    );
    println!(
        "scheduling: {} admissions, {} migrations, {} deferrals, {} queue actions \
         (max depth {}, mean {:.2}), {} invalid, {} jobs unfinished",
        outcome.admissions,
        outcome.migrations,
        outcome.deferrals,
        outcome.queue_actions,
        outcome.max_queue_depth,
        outcome.mean_queue_depth,
        outcome.invalid_actions,
        outcome.jobs_unfinished,
    );
    println!(
        "control: {} throttles, {} resumes, prediction accuracy {}, {} samples rejected, {} log events dropped",
        outcome.throttles,
        outcome.resumes,
        format_accuracy(outcome.prediction_accuracy()),
        outcome.samples_rejected,
        outcome.events_dropped,
    );
    for h in &outcome.per_host {
        println!(
            "  host {:<12} satisfaction {:>5.1}%  slo-viol {:>5.2}%  batch work {:>6.0}  \
             {} throttles  jobs {:?}",
            h.name,
            100.0 * h.qos.satisfaction(),
            100.0 * h.slo_violation_rate,
            h.batch_work,
            h.throttles,
            h.jobs_hosted,
        );
    }
    for j in &outcome.per_job {
        println!(
            "  job  {:<14} {:>6} requests  hosts {:?}  {} migrations  {} queued epochs{}",
            j.name,
            j.generated,
            j.placements,
            j.migrations,
            j.queued_epochs,
            if j.departed { "  (departed)" } else { "" },
        );
    }
}

/// Runs one cluster configuration; the compare table and the single-run
/// path share this builder so they measure exactly the same experiment.
fn run_cluster_policy(args: &Args, policy: ClusterPolicySpec) -> Result<ClusterOutcome, String> {
    let name = args.cluster_scenario.as_deref().unwrap_or("hotspot");
    let scenario = cluster_by_name(name).map_err(|e| e.to_string())?;
    let mut config = ClusterConfig::new(scenario, args.seed);
    config.epochs = args.epochs;
    config.ticks_per_epoch = args.epoch_ticks;
    config.workers = args.workers.max(1);
    config.cluster_policy = policy;
    config.host_policy =
        PolicySpec::parse(args.policy_or("stay-away")).map_err(|e| e.to_string())?;
    config.migration = !args.no_migration;
    config.collect_metrics = args.metrics_out.is_some() || args.http.is_some();
    config.collect_events =
        args.events_out.is_some() || args.http.is_some() || args.command == "events";
    let cluster = Cluster::new(config).map_err(|e| e.to_string())?;
    cluster.run().map_err(|e| e.to_string())
}

fn run(argv: &[String]) -> Result<(), String> {
    let args = parse_args(argv)?;
    let scenario_name = args.scenario.clone().unwrap_or(DEFAULT_SCENARIO.into());
    match args.command.as_str() {
        "list" => {
            println!("sensitive applications: vlc, web-cpu, web-mem, web-mix");
            println!(
                "batch applications:     {}",
                BatchKind::ALL.map(|k| k.name()).join(", ")
            );
            println!("policies:               stayaway, reactive, static, always, null");
            println!(
                "predictors:             {}",
                PredictorSpec::all()
                    .iter()
                    .map(|p| p.name())
                    .collect::<Vec<_>>()
                    .join(", ")
            );
            println!("workload scenarios:     see `stayaway scenarios`");
            for c in cluster_library() {
                println!("cluster scenario:       {:<14} {}", c.name, c.description);
            }
            println!(
                "cluster policies:       {}",
                ClusterPolicySpec::all().map(|p| p.name()).join(", ")
            );
            Ok(())
        }
        "scenarios" => {
            let library = stay_away::workload::library();
            if args.json {
                println!(
                    "{}",
                    serde_json::to_string_pretty(&library).expect("scenario json")
                );
                return Ok(());
            }
            for scenario in &library {
                println!("{:<20} {}", scenario.name, scenario.description);
                println!(
                    "{:20} slo: {} ms deadline, {:.0}% of a tick's requests",
                    "",
                    scenario.slo.deadline_ms,
                    100.0 * scenario.slo.target_satisfaction,
                );
                for tenant in &scenario.tenants {
                    println!(
                        "{:20} {:<9} {:<12} {}",
                        "",
                        tenant.class.to_string(),
                        tenant.name,
                        tenant.arrival.summary(),
                    );
                }
                println!(
                    "{:20} co-runners: {}",
                    "",
                    match scenario.co_runners().join(", ") {
                        ref s if s.is_empty() => "none".to_string(),
                        s => s,
                    },
                );
            }
            Ok(())
        }
        "bench-scenarios" => {
            let policies = PolicySpec::parse_list(args.policy_or("stayaway,reactive,null"))
                .map_err(|e| e.to_string())?;
            let mut table = BenchTable::default();
            for scenario in stay_away::workload::library() {
                for spec in &policies {
                    let mut policy = spec
                        .build(&ControllerConfig::default(), &scenario.host)
                        .map_err(|e| e.to_string())?;
                    let row = bench_scenario(&scenario, policy.as_mut(), args.seed, args.ticks)
                        .map_err(|e| e.to_string())?;
                    table.rows.push(row);
                }
            }
            if args.json {
                println!("{}", table.to_json().map_err(|e| e.to_string())?);
            } else {
                print!("{}", table.render());
            }
            Ok(())
        }
        "run" => {
            let source = SourceSpec::parse(&args.source).map_err(|e| e.to_string())?;
            // Workload runs bypass the `<sensitive>+<batch>` scenario
            // machinery: the named library scenario IS the workload, and
            // the concrete source exposes per-request latency QoS.
            if let SourceSpec::Workload { scenario } = &source {
                return run_workload(scenario, &args);
            }
            let scenario = parse_scenario(&scenario_name, args.seed)?;
            // `--http` wants a live registry behind `/metrics` even when
            // no snapshot export was requested.
            let registry =
                (args.metrics_out.is_some() || args.http.is_some()).then(MetricsRegistry::new);
            let introspection = run_introspection(&args, registry.as_ref())?;
            let (out, policy, cap) = run_policy_by_name(
                &scenario,
                args.policy_or("stay-away"),
                &args.controller_config()?,
                &source,
                args.seed,
                args.ticks,
                registry.as_ref(),
                introspection.as_ref(),
            )?;
            let stats = policy.stats();
            // Baselines track nothing; only show controller internals when
            // the policy actually counted its periods.
            let stats = (stats.periods > 0).then_some(&stats);
            summarize(policy.name(), scenario.name(), cap, &out, stats, args.json);
            if let (Some(path), Some(registry)) = (&args.metrics_out, &registry) {
                write_metrics(&registry.snapshot(), path)?;
            }
            finish_introspection(&args, introspection)?;
            Ok(())
        }
        "metrics" => {
            let scenario = parse_scenario(&scenario_name, args.seed)?;
            let source = SourceSpec::parse(&args.source).map_err(|e| e.to_string())?;
            let registry = MetricsRegistry::new();
            run_policy_by_name(
                &scenario,
                args.policy_or("stay-away"),
                &args.controller_config()?,
                &source,
                args.seed,
                args.ticks,
                Some(&registry),
                None,
            )?;
            let snapshot = registry.snapshot();
            match &args.metrics_out {
                Some(path) => write_metrics(&snapshot, path)?,
                // Default exposition: JSON with --json, Prometheus text
                // otherwise, both to stdout.
                None if args.json => println!(
                    "{}",
                    serde_json::to_string_pretty(&to_json(&snapshot)).expect("metrics json")
                ),
                None => print!("{}", to_prometheus(&snapshot)),
            }
            Ok(())
        }
        "compare" => {
            let scenario = parse_scenario(&scenario_name, args.seed)?;
            let source = SourceSpec::parse(&args.source).map_err(|e| e.to_string())?;
            println!(
                "scenario: {} ({} ticks, seed {}, source {})\n",
                scenario.name(),
                args.ticks,
                args.seed,
                source.name(),
            );
            let config = args.controller_config()?;
            for policy in ["null", "always", "reactive", "static", "stayaway"] {
                let (out, built, cap) = run_policy_by_name(
                    &scenario, policy, &config, &source, args.seed, args.ticks, None, None,
                )?;
                summarize(built.name(), scenario.name(), cap, &out, None, args.json);
            }
            Ok(())
        }
        "capture" => {
            let scenario = parse_scenario(&scenario_name, args.seed)?;
            let (out, policy, cap) = run_policy_by_name(
                &scenario,
                "stay-away",
                &args.controller_config()?,
                &SourceSpec::Sim,
                args.seed,
                args.ticks,
                None,
                None,
            )?;
            let sens_name = scenario_name.split('+').next().unwrap_or("sensitive");
            let template = policy
                .export_template(sens_name)
                .map_err(|e| e.to_string())?
                .ok_or("the selected policy does not learn templates")?;
            let path = args.out.unwrap_or_else(|| "template.json".into());
            template.save_to_path(&path).map_err(|e| e.to_string())?;
            summarize("stay-away", scenario.name(), cap, &out, None, args.json);
            println!(
                "template with {} states ({} violation) written to {path}",
                template.len(),
                template.violation_count()
            );
            Ok(())
        }
        "reuse" => {
            let config = args.controller_config()?;
            let path = args.template.ok_or("reuse requires --template <path>")?;
            let template = Template::load_from_path(&path).map_err(|e| e.to_string())?;
            let scenario = parse_scenario(&scenario_name, args.seed)?;
            let mut harness = scenario.build_harness().map_err(|e| e.to_string())?;
            let mut policy = PolicySpec::StayAway
                .build(&config, harness.host().spec())
                .map_err(|e| e.to_string())?;
            policy
                .import_template(&template)
                .map_err(|e| e.to_string())?;
            let out = harness.run(policy.as_mut(), args.ticks);
            println!(
                "seeded with {} template states ({} violation) from {path}",
                template.len(),
                template.violation_count()
            );
            summarize(
                "stay-away+tpl",
                scenario.name(),
                scenario.host_spec().cpu_cores,
                &out,
                None,
                args.json,
            );
            Ok(())
        }
        "record" => {
            let scenario = parse_scenario(&scenario_name, args.seed)?;
            let spec = PolicySpec::parse(args.policy_or("stay-away")).map_err(|e| e.to_string())?;
            let harness = scenario.build_harness().map_err(|e| e.to_string())?;
            let host_spec = *harness.host().spec();
            let mut policy = spec
                .build(&args.controller_config()?, &host_spec)
                .map_err(|e| e.to_string())?;
            let path = args.out.unwrap_or_else(|| "trace.jsonl".into());
            let file = std::fs::File::create(&path).map_err(|e| e.to_string())?;
            let mut recorder =
                RecordingSource::new(SimSource::new(harness), std::io::BufWriter::new(file))
                    .map_err(|e| e.to_string())?;
            let out =
                drive(&mut recorder, policy.as_mut(), args.ticks).map_err(|e| e.to_string())?;
            recorder.finish().map_err(|e| e.to_string())?;
            summarize(
                policy.name(),
                scenario.name(),
                host_spec.cpu_cores,
                &out,
                None,
                args.json,
            );
            println!(
                "trace with {} observations written to {path}",
                out.timeline.len()
            );
            Ok(())
        }
        "replay" => {
            let path = args.trace.clone().ok_or("replay requires --trace <path>")?;
            let mut source = TraceSource::open(&path).map_err(|e| e.to_string())?;
            let recorded_from = source.header().recorded_from;
            // The controller runs against the capacities the trace was
            // recorded on; traces without a host spec get the defaults.
            let host_spec = source.header().host.unwrap_or_default();
            let spec = PolicySpec::parse(args.policy_or("stay-away")).map_err(|e| e.to_string())?;
            let mut policy = spec
                .build(&args.controller_config()?, &host_spec)
                .map_err(|e| e.to_string())?;
            let out = drive(&mut source, policy.as_mut(), args.ticks).map_err(|e| e.to_string())?;
            println!(
                "replayed {} observations from {path} (recorded from {recorded_from})",
                out.timeline.len(),
            );
            let stats = policy.stats();
            let stats = (stats.periods > 0).then_some(&stats);
            summarize(
                policy.name(),
                &format!("replay:{path}"),
                host_spec.cpu_cores,
                &out,
                stats,
                args.json,
            );
            Ok(())
        }
        "fleet" => {
            let scenarios = match &args.scenario {
                Some(name) => vec![parse_scenario(name, args.seed)?],
                None => FleetConfig::standard_mix(args.seed),
            };
            let policies =
                PolicySpec::parse_list(args.policy_or("stay-away")).map_err(|e| e.to_string())?;
            let predictors = PredictorSpec::parse_list(args.predictor.as_deref().unwrap_or("kde"))
                .map_err(|e| e.to_string())?;
            let sources = SourceSpec::parse_list(&args.source).map_err(|e| e.to_string())?;
            let config = FleetConfig {
                cells: args.cells.unwrap_or(8),
                workers: args.workers,
                ticks: args.ticks,
                fleet_seed: args.seed,
                share_templates: args.share_templates,
                scenarios,
                policies,
                predictors,
                sources,
                controller: ControllerConfig::default(),
                collect_metrics: args.metrics_out.is_some() || args.http.is_some(),
                collect_events: args.events_out.is_some() || args.http.is_some(),
            };
            let fleet = Fleet::new(config).map_err(|e| e.to_string())?;
            let outcome = fleet.run().map_err(|e| e.to_string())?;
            if args.json {
                println!("{}", outcome.to_json().map_err(|e| e.to_string())?);
            } else {
                fleet_summary(&outcome);
            }
            if let Some(path) = &args.metrics_out {
                let rollup = outcome
                    .metrics
                    .as_ref()
                    .ok_or("fleet produced no metrics rollup")?;
                write_metrics(rollup, path)?;
            }
            if let Some(path) = &args.events_out {
                let events = outcome
                    .events
                    .as_ref()
                    .ok_or("fleet produced no event stream")?;
                write_events(events, path)?;
            }
            serve_outcome_http(
                &args,
                outcome.metrics.as_ref(),
                outcome.events.clone(),
                fleet_state_json(&outcome),
            )?;
            Ok(())
        }
        "tournament" => {
            let mut config = TournamentConfig::new(args.seed);
            if let Some(tokens) = &args.predictor {
                config.predictors = PredictorSpec::parse_list(tokens).map_err(|e| e.to_string())?;
            }
            if let Some(names) = &args.scenario {
                config.scenarios = names
                    .split(',')
                    .map(str::trim)
                    .filter(|t| !t.is_empty())
                    .map(String::from)
                    .collect();
            }
            config.cells_per_combo = args.cells.unwrap_or(3);
            config.ticks = args.ticks;
            config.workers = args.workers.max(1);
            config.bootstrap_resamples = args.resamples;
            // Latency calibration is wall-clock and text-only; JSON output
            // is the deterministic contract, so skip the extra runs there.
            config.calibrate_latency = !args.json;
            config.collect_metrics = args.metrics_out.is_some();
            let outcome = run_tournament(&config).map_err(|e| e.to_string())?;
            if args.json {
                println!("{}", outcome.to_json().map_err(|e| e.to_string())?);
            } else {
                tournament_summary(&outcome);
            }
            if let Some(path) = &args.metrics_out {
                let rollup = outcome
                    .metrics
                    .as_ref()
                    .ok_or("tournament produced no metrics rollup")?;
                write_metrics(rollup, path)?;
            }
            Ok(())
        }
        "cluster" => {
            if args.compare {
                let reference = run_cluster_policy(&args, ClusterPolicySpec::NoPlacement)?;
                println!(
                    "cluster comparison: {} ({} epochs x {} ticks, seed {}, host policy {}, migration {})\n",
                    reference.scenario,
                    reference.epochs,
                    reference.ticks_per_epoch,
                    reference.seed,
                    reference.host_policy,
                    if !args.no_migration { "on" } else { "off" },
                );
                println!(
                    "{:<14} {:>10} {:>9} {:>8} {:>7} {:>6} {:>6} {:>7} {:>11}",
                    "policy",
                    "batch-work",
                    "slo-viol",
                    "satisf",
                    "admits",
                    "migr",
                    "defer",
                    "queued",
                    "log-dropped",
                );
                for spec in ClusterPolicySpec::all() {
                    let out = if spec == ClusterPolicySpec::NoPlacement {
                        reference.clone()
                    } else {
                        run_cluster_policy(&args, spec)?
                    };
                    println!(
                        "{:<14} {:>10.0} {:>8.2}% {:>7.1}% {:>7} {:>6} {:>6} {:>7} {:>11}",
                        out.cluster_policy,
                        out.total_batch_work,
                        100.0 * out.slo_violation_rate,
                        100.0 * out.satisfaction(),
                        out.admissions,
                        out.migrations,
                        out.deferrals,
                        out.queue_actions,
                        out.events_dropped,
                    );
                }
                return Ok(());
            }
            let policy =
                ClusterPolicySpec::parse(args.cluster_policy.as_deref().unwrap_or("score"))
                    .map_err(|e| e.to_string())?;
            let outcome = run_cluster_policy(&args, policy)?;
            if args.json {
                println!("{}", outcome.to_json().map_err(|e| e.to_string())?);
            } else {
                cluster_summary(&outcome);
            }
            if let Some(path) = &args.metrics_out {
                let rollup = outcome
                    .metrics
                    .as_ref()
                    .ok_or("cluster produced no metrics rollup")?;
                write_metrics(rollup, path)?;
            }
            if let Some(path) = &args.events_out {
                let events = outcome
                    .events
                    .as_ref()
                    .ok_or("cluster produced no event stream")?;
                write_events(events, path)?;
            }
            serve_outcome_http(
                &args,
                outcome.metrics.as_ref(),
                outcome.events.clone(),
                cluster_state_json(&outcome),
            )?;
            Ok(())
        }
        "events" => {
            let events = load_or_record_events(&args)?;
            if let Some(token) = &args.cause {
                let id = EventId::parse(token).map_err(|e| e.to_string())?;
                return print_causal_chain(&events, id);
            }
            let kind = args
                .kind
                .as_deref()
                .map(EventKind::parse)
                .transpose()
                .map_err(|e| e.to_string())?;
            let filtered: Vec<EventRecord> = events
                .into_iter()
                .filter(|e| kind.is_none_or(|k| e.kind == k))
                .filter(|e| args.host.is_none_or(|scope| e.scope == scope))
                .filter(|e| args.tick_from.is_none_or(|from| e.tick >= from))
                .filter(|e| args.tick_to.is_none_or(|to| e.tick <= to))
                .collect();
            if let Some(path) = &args.events_out {
                write_events(&filtered, path)?;
            } else if args.json {
                print!("{}", events_to_jsonl(&filtered));
            } else {
                for event in &filtered {
                    println!("{}", render_event(event));
                }
                println!("{} events", filtered.len());
            }
            Ok(())
        }
        "metrics-diff" => {
            let [a_path, b_path] = args.positional.as_slice() else {
                return Err(
                    "metrics-diff expects exactly two snapshot paths (from --metrics-out *.json)"
                        .into(),
                );
            };
            let rows =
                diff_metric_values(&load_metric_values(a_path)?, &load_metric_values(b_path)?);
            let mut failures = 0usize;
            for row in &rows {
                let tolerance = args
                    .threshold_for
                    .iter()
                    .find(|(name, _)| *name == row.metric)
                    .map(|(_, tol)| *tol)
                    .unwrap_or(args.threshold);
                if row.rel > tolerance {
                    failures += 1;
                    println!(
                        "FAIL {:<44} a={} b={} rel={:.6} tolerance={}",
                        row.key, row.a, row.b, row.rel, tolerance
                    );
                }
            }
            println!(
                "metrics-diff: {} series compared, {} beyond tolerance",
                rows.len(),
                failures
            );
            if failures > 0 {
                // A plain exit keeps CI semantics crisp: nonzero means
                // the gate tripped, stderr stays free for real errors.
                std::process::exit(1);
            }
            Ok(())
        }
        "promlint" => {
            let path = args.positional.first().map(String::as_str).unwrap_or("-");
            let text = read_text_input(path)?;
            match promlint::validate(&text) {
                Ok(()) => {
                    println!("{path}: exposition lints clean");
                    Ok(())
                }
                Err(errors) => {
                    for error in &errors {
                        println!("{path}: {error}");
                    }
                    std::process::exit(1);
                }
            }
        }
        other => Err(format!("unknown command `{other}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_introspection_flags() {
        let a = parse_args(&argv(
            "run --http 127.0.0.1:0 --http-linger 2 --events-out ev.jsonl --metrics-out m.json",
        ))
        .unwrap();
        assert_eq!(a.http.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(a.http_linger, 2);
        assert_eq!(a.events_out.as_deref(), Some("ev.jsonl"));
        assert_eq!(a.metrics_out.as_deref(), Some("m.json"));
    }

    #[test]
    fn parses_events_filters_and_diff_positionals() {
        let a = parse_args(&argv(
            "events --events-in ev.jsonl --kind migrate --host 2 --tick-from 10 --tick-to 20 --cause 2:17",
        ))
        .unwrap();
        assert_eq!(a.events_in.as_deref(), Some("ev.jsonl"));
        assert_eq!(a.kind.as_deref(), Some("migrate"));
        assert_eq!(a.host, Some(2));
        assert_eq!(a.tick_from, Some(10));
        assert_eq!(a.tick_to, Some(20));
        assert_eq!(a.cause.as_deref(), Some("2:17"));
        let d = parse_args(&argv(
            "metrics-diff a.json b.json --threshold 0.05 --threshold-for stayaway_throttles_total=0.2",
        ))
        .unwrap();
        assert_eq!(
            d.positional,
            vec!["a.json".to_string(), "b.json".to_string()]
        );
        assert_eq!(d.threshold, 0.05);
        assert_eq!(
            d.threshold_for,
            vec![("stayaway_throttles_total".to_string(), 0.2)]
        );
        assert!(parse_args(&argv("metrics-diff a b --threshold-for nope")).is_err());
    }

    #[test]
    fn metrics_diff_flags_missing_and_changed_series() {
        let series = |key: &str, value: f64| MetricSeries {
            key: key.into(),
            metric: key.into(),
            value,
        };
        let a = vec![series("x_total", 10.0), series("only_a", 1.0)];
        let b = vec![series("x_total", 11.0)];
        let rows = diff_metric_values(&a, &b);
        assert_eq!(rows.len(), 2);
        let only = rows.iter().find(|r| r.key == "only_a").unwrap();
        assert!(
            only.rel.is_infinite(),
            "a vanished series must trip any gate"
        );
        let x = rows.iter().find(|r| r.key == "x_total").unwrap();
        assert!((x.rel - 1.0 / 11.0).abs() < 1e-12);
        assert!(diff_metric_values(&[], &[]).is_empty());
    }

    #[test]
    fn wall_clock_series_are_excluded_from_the_gate() {
        assert!(is_wall_clock("stayaway_controller_stage_nanos", None));
        assert!(is_wall_clock("anything", Some("nanos")));
        assert!(!is_wall_clock("stayaway_throttles_total", None));
        assert_eq!(relative_difference(0.0, 0.0), 0.0);
        assert_eq!(relative_difference(2.0, 1.0), 0.5);
    }

    #[test]
    fn parses_full_flag_set() {
        let a = parse_args(&argv(
            "run --scenario web-mem+soplex --policy reactive --ticks 100 --seed 3 --json",
        ))
        .unwrap();
        assert_eq!(a.command, "run");
        assert_eq!(a.scenario.as_deref(), Some("web-mem+soplex"));
        assert_eq!(a.policy.as_deref(), Some("reactive"));
        assert_eq!(a.ticks, 100);
        assert_eq!(a.seed, 3);
        assert!(a.json);
    }

    #[test]
    fn parses_fleet_flags() {
        let a = parse_args(&argv(
            "fleet --cells 64 --workers 4 --seed 7 --share-templates --json",
        ))
        .unwrap();
        assert_eq!(a.command, "fleet");
        assert_eq!(a.cells, Some(64));
        assert_eq!(a.workers, 4);
        assert_eq!(a.seed, 7);
        assert!(a.share_templates);
        assert!(a.json);
        // No --scenario means the fleet runs its standard mix.
        assert_eq!(a.scenario, None);
    }

    #[test]
    fn fleet_defaults_are_modest() {
        let a = parse_args(&argv("fleet")).unwrap();
        // No --cells on the command line: the fleet defaults to 8, the
        // tournament to 3 per combination.
        assert_eq!(a.cells, None);
        assert_eq!(a.workers, 1);
        assert!(!a.share_templates);
        assert_eq!(a.predictor, None);
        assert_eq!(a.resamples, 1000);
    }

    #[test]
    fn parses_predictor_and_tournament_flags() {
        let a = parse_args(&argv(
            "tournament --predictor kde,xapp --scenario cpu-bomb,flash-crowd \
             --cells 2 --resamples 250 --workers 4 --json",
        ))
        .unwrap();
        assert_eq!(a.command, "tournament");
        assert_eq!(a.predictor.as_deref(), Some("kde,xapp"));
        assert_eq!(a.scenario.as_deref(), Some("cpu-bomb,flash-crowd"));
        assert_eq!(a.cells, Some(2));
        assert_eq!(a.resamples, 250);
        assert!(a.json);
        let specs = PredictorSpec::parse_list(a.predictor.as_deref().unwrap()).unwrap();
        assert_eq!(specs.len(), 2);
        // A single --predictor flows into the controller configuration.
        let a = parse_args(&argv("run --predictor last-tick")).unwrap();
        let config = a.controller_config().unwrap();
        assert_eq!(
            config.predictor,
            PredictorSpec::parse("last-tick").unwrap().kind()
        );
        assert!(parse_args(&argv("run --predictor")).is_err());
        assert!(parse_args(&argv("tournament --resamples abc")).is_err());
        assert!(Args {
            predictor: Some("warp-core".into()),
            ..a
        }
        .controller_config()
        .is_err());
    }

    #[test]
    fn rejects_unknown_flags_and_bad_values() {
        assert!(parse_args(&argv("run --bogus 1")).is_err());
        assert!(parse_args(&argv("run --ticks abc")).is_err());
        assert!(parse_args(&argv("run --scenario")).is_err());
        assert!(parse_args(&argv("fleet --cells abc")).is_err());
        assert!(parse_args(&argv("fleet --workers")).is_err());
        assert!(parse_args(&argv("replay --trace")).is_err());
        assert!(parse_args(&[]).is_err());
    }

    #[test]
    fn parses_cluster_flags() {
        let a = parse_args(&argv(
            "cluster --cluster-scenario storm-cluster --cluster-policy least-loaded \
             --epochs 12 --epoch-ticks 4 --workers 4 --no-migration --json",
        ))
        .unwrap();
        assert_eq!(a.command, "cluster");
        assert_eq!(a.cluster_scenario.as_deref(), Some("storm-cluster"));
        assert_eq!(a.cluster_policy.as_deref(), Some("least-loaded"));
        assert_eq!(a.epochs, 12);
        assert_eq!(a.epoch_ticks, 4);
        assert_eq!(a.workers, 4);
        assert!(a.no_migration);
        assert!(!a.compare);
        assert!(a.json);
        let a = parse_args(&argv("cluster --compare")).unwrap();
        assert!(a.compare);
        // Defaults when nothing is given: the library's standard shape.
        assert_eq!(a.cluster_scenario, None);
        assert_eq!(a.cluster_policy, None);
        assert_eq!(a.epochs, 24);
        assert_eq!(a.epoch_ticks, 8);
        assert!(!a.no_migration);
        assert!(parse_args(&argv("cluster --epochs abc")).is_err());
        assert!(parse_args(&argv("cluster --cluster-policy")).is_err());
        assert!(ClusterPolicySpec::parse("bogus").is_err());
    }

    #[test]
    fn cluster_command_runs_through_the_cli_path() {
        // The same builder the `cluster` command uses, at smoke size.
        let mut args = parse_args(&argv("cluster --epochs 4 --epoch-ticks 2 --seed 3")).unwrap();
        let out = run_cluster_policy(&args, ClusterPolicySpec::Score).unwrap();
        assert_eq!(out.scenario, "hotspot");
        assert_eq!(out.cluster_policy, "score");
        assert_eq!(out.host_policy, "stay-away");
        assert_eq!(out.epochs, 4);
        assert_eq!(out.per_host.len(), 3);
        assert_eq!(out.per_job.len(), 4);
        // --no-migration and the host-policy override flow through too.
        args.no_migration = true;
        args.policy = Some("reactive".into());
        let out = run_cluster_policy(&args, ClusterPolicySpec::NoPlacement).unwrap();
        assert!(!out.migration);
        assert_eq!(out.migrations, 0);
        assert_eq!(out.host_policy, "reactive");
        assert!(run_cluster_policy(
            &Args {
                cluster_scenario: Some("warp-core".into()),
                ..args
            },
            ClusterPolicySpec::Score,
        )
        .is_err());
    }

    #[test]
    fn parses_source_and_trace_flags() {
        let a = parse_args(&argv("run --source trace:/tmp/t.jsonl")).unwrap();
        assert_eq!(a.source, "trace:/tmp/t.jsonl");
        assert_eq!(
            SourceSpec::parse(&a.source).unwrap(),
            SourceSpec::Trace {
                path: "/tmp/t.jsonl".into()
            }
        );
        let a = parse_args(&argv("replay --trace out.jsonl --policy reactive")).unwrap();
        assert_eq!(a.trace.as_deref(), Some("out.jsonl"));
        // The default substrate is the simulator.
        let a = parse_args(&argv("run")).unwrap();
        assert_eq!(SourceSpec::parse(&a.source).unwrap(), SourceSpec::Sim);
    }

    #[test]
    fn record_then_replay_reproduces_the_run_through_the_cli_paths() {
        // Exercise the same code paths the `record` and `replay` commands
        // use, against an in-memory trace.
        let scenario = parse_scenario("vlc+cpu-bomb", 3).unwrap();
        let harness = scenario.build_harness().unwrap();
        let host_spec = *harness.host().spec();
        let mut recorder = RecordingSource::new(SimSource::new(harness), Vec::new()).unwrap();
        let mut live = PolicySpec::StayAway
            .build(&ControllerConfig::default(), &host_spec)
            .unwrap();
        let live_out = drive(&mut recorder, live.as_mut(), 60).unwrap();
        let (_, trace) = recorder.finish().unwrap();

        let mut source = TraceSource::new(trace.as_slice()).unwrap();
        let replay_host = source.header().host.unwrap();
        assert_eq!(replay_host, host_spec);
        let mut replayed = PolicySpec::StayAway
            .build(&ControllerConfig::default(), &replay_host)
            .unwrap();
        let replay_out = drive(&mut source, replayed.as_mut(), 60).unwrap();
        assert_eq!(live_out.qos, replay_out.qos);
        assert_eq!(live.stats(), replayed.stats());
    }

    #[test]
    fn parses_all_scenario_names() {
        for sens in ["vlc", "web-cpu", "web-mem", "web-mix"] {
            for batch in BatchKind::ALL {
                let name = format!("{sens}+{batch}");
                let s = parse_scenario(&name, 1).unwrap();
                assert_eq!(s.name(), name);
            }
        }
    }

    #[test]
    fn rejects_malformed_scenarios() {
        assert!(parse_scenario("vlc", 1).is_err());
        assert!(parse_scenario("vlc+unknown", 1).is_err());
        assert!(parse_scenario("nope+soplex", 1).is_err());
    }

    #[test]
    fn run_policy_by_name_covers_all_policies() {
        let scenario = parse_scenario("vlc+soplex", 1).unwrap();
        let config = ControllerConfig::default();
        for p in ["stay-away", "none", "always", "reactive", "static", "null"] {
            let (out, policy, cap) =
                run_policy_by_name(&scenario, p, &config, &SourceSpec::Sim, 1, 30, None, None)
                    .unwrap();
            assert_eq!(out.timeline.len(), 30);
            assert_eq!(cap, scenario.host_spec().cpu_cores);
            // Only the controller counts its periods and learns templates.
            let is_stayaway = p == "stay-away";
            assert_eq!(policy.stats().periods > 0, is_stayaway);
            assert_eq!(policy.supports_templates(), is_stayaway);
        }
        assert!(run_policy_by_name(
            &scenario,
            "bogus",
            &config,
            &SourceSpec::Sim,
            1,
            10,
            None,
            None
        )
        .is_err());
    }

    #[test]
    fn policy_defaults_are_per_command() {
        let a = parse_args(&argv("run")).unwrap();
        assert_eq!(a.policy, None);
        assert_eq!(a.policy_or("stay-away"), "stay-away");
        assert_eq!(
            a.policy_or("stayaway,reactive,null"),
            "stayaway,reactive,null"
        );
        let a = parse_args(&argv("bench-scenarios --policy null")).unwrap();
        assert_eq!(a.policy_or("stayaway,reactive,null"), "null");
    }

    #[test]
    fn parses_workload_source_tokens() {
        let a = parse_args(&argv("run --source workload:cpu-bomb")).unwrap();
        assert_eq!(
            SourceSpec::parse(&a.source).unwrap(),
            SourceSpec::Workload {
                scenario: "cpu-bomb".into()
            }
        );
        assert!(SourceSpec::parse("workload:warp-core").is_err());
    }

    #[test]
    fn workload_scenarios_run_under_cli_built_policies() {
        // The bench-scenarios path: library scenario × PolicySpec-built
        // policy, closed over the workload substrate.
        let scenario = stay_away::workload::by_name("cpu-bomb").unwrap();
        for name in ["stayaway", "reactive", "null"] {
            let spec = PolicySpec::parse(name).unwrap();
            let mut policy = spec
                .build(&ControllerConfig::default(), &scenario.host)
                .unwrap();
            let row = bench_scenario(&scenario, policy.as_mut(), 7, 20).unwrap();
            assert_eq!(row.scenario, "cpu-bomb");
            assert_eq!(row.ticks, 20);
            assert!(row.requests > 0);
            assert!(row.p50_ms <= row.p95_ms && row.p95_ms <= row.p99_ms);
        }
    }

    #[test]
    fn every_library_scenario_drives_through_the_run_path() {
        // The run --source workload:<name> path builds the same concrete
        // source; make sure each library entry survives a short drive.
        for name in stay_away::workload::names() {
            let scenario = stay_away::workload::by_name(&name).unwrap();
            let mut source = WorkloadSource::new(scenario, 7).unwrap();
            let out = drive(&mut source, &mut stay_away::telemetry::NullPolicy::new(), 5).unwrap();
            assert_eq!(out.timeline.len(), 5, "{name}");
            assert!(source.totals().arrivals > 0, "{name}");
        }
    }
}
