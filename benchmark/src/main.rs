//! The Stay-Away benchmark: three workloads driven through the public
//! API, end-to-end metrics from an untraced run and per-layer metrics
//! from a traced one.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload paper-colocation --seed 1 --seconds 12 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. The exit code is 0
//! only when every correctness check passed. See `README.md`.

mod cluster;
mod host;
mod report;
mod stats;
mod trace;

use report::{check_finite, Ledger, Metrics, END_TO_END, PER_LAYER};
use serde_json::json;
use std::hint::black_box;
use std::process::{exit, Command, Stdio};
use std::time::Instant;

/// Hard cap on the measuring loop, so an invocation ends well inside
/// 180 s even on a slow machine.
const MEASURE_CAP_S: f64 = 120.0;

/// Set-ups timed before every untraced episode, for `setup_s`.
pub const SETUP_REPS: usize = 50;

/// Iterations of the noise-diagnostic spin loop.
const SPIN_ITERS: u64 = 40_000_000;

/// Directory the traced run writes its spans to.
const TRACE_DIR: &str = ".bench_traces";

const USAGE: &str =
    "usage: stayaway-benchmark --workload <paper-colocation|flash-crowd|cluster-storm> \
                     [--seed N] [--seconds N] [--trace 0|1]";

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's loop: webservice (memory-intensive) plus Twitter
    /// analysis in the simulator, Stay-Away with the KDE predictor.
    PaperColocation,
    /// The workload engine's `flash-crowd` scenario under Stay-Away.
    FlashCrowd,
    /// The four-host `storm-cluster` scenario.
    ClusterStorm,
}

/// Per-workload run lengths.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Distinct seeds, each one episode; the whole set runs at least
    /// once per invocation, its sums make the simulated metrics, and the
    /// invocation cycles through it until the time is up.
    pub episodes: usize,
    /// Control ticks per episode (single-host workloads).
    pub ticks: u64,
    /// Cluster epochs per episode.
    pub epochs: u64,
    /// Control ticks per cluster epoch.
    pub ticks_per_epoch: u64,
    /// Consecutive untraced episodes per timing block; the throughput
    /// and set-up metrics are medians over blocks.
    pub block: usize,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::PaperColocation,
        Workload::FlashCrowd,
        Workload::ClusterStorm,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::PaperColocation => "paper-colocation",
            Workload::FlashCrowd => "flash-crowd",
            Workload::ClusterStorm => "cluster-storm",
        }
    }

    fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Run lengths, sized so the first pass over the episode set takes
    /// roughly half of a 12-second run on a 2-CPU machine.
    pub fn params(self) -> Params {
        match self {
            Workload::PaperColocation => Params {
                episodes: 48,
                ticks: 2000,
                epochs: 0,
                ticks_per_epoch: 0,
                block: 8,
            },
            Workload::FlashCrowd => Params {
                episodes: 16,
                ticks: 2000,
                epochs: 0,
                ticks_per_epoch: 0,
                block: 4,
            },
            Workload::ClusterStorm => Params {
                episodes: 8,
                ticks: 0,
                epochs: 400,
                ticks_per_epoch: 2,
                block: 4,
            },
        }
    }
}

/// One benchmark invocation, as parsed from the command line.
#[derive(Debug, Clone, Copy)]
pub struct Invocation {
    /// Workload to run.
    pub workload: Workload,
    /// Seed all inputs derive from.
    pub seed: u64,
    /// Measuring time.
    pub seconds: f64,
    /// Traced (per-layer) run instead of the untraced one.
    pub trace: bool,
}

fn parse_args(args: &[String]) -> Result<Invocation, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 12.0f64;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value}"))?
            }
            "--trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Invocation {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// The seeds of the episode set: a splitmix64 stream from the run seed,
/// so the same seed gives the same inputs.
pub fn episode_seeds(seed: u64, n: usize) -> Vec<u64> {
    let mut state = seed;
    (0..n)
        .map(|_| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        })
        .collect()
}

/// The measuring window of one invocation.
pub struct Budget {
    start: Instant,
    seconds: f64,
}

impl Budget {
    /// Starts the window.
    pub fn start(seconds: f64) -> Self {
        Budget {
            start: Instant::now(),
            seconds: seconds.min(MEASURE_CAP_S),
        }
    }

    /// True once `runs` episodes have covered the `set` seeds and the
    /// window has passed, or at the hard cap.
    pub fn done(&self, runs: usize, set: usize) -> bool {
        let elapsed = self.start.elapsed().as_secs_f64();
        (runs >= set && elapsed >= self.seconds) || elapsed >= MEASURE_CAP_S
    }
}

/// Writes the first traced episode's spans to the trace directory.
pub fn write_spans(inv: &Invocation, spans: &str, notes: &mut Vec<String>) {
    let path = format!("{TRACE_DIR}/{}-seed{}.jsonl", inv.workload.name(), inv.seed);
    let written = std::fs::create_dir_all(TRACE_DIR).and_then(|()| std::fs::write(&path, spans));
    notes.push(match written {
        Ok(()) => format!("spans of the first traced episode: {path}"),
        Err(e) => format!("could not write spans to {path}: {e}"),
    });
}

/// Times a fixed spin loop, in milliseconds: the machine's speed at this
/// moment, reported as run context.
fn spin_ms() -> f64 {
    let start = Instant::now();
    let mut x = 0x853c_49e6_748f_ea9bu64;
    for _ in 0..SPIN_ITERS {
        x = black_box(x)
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
    }
    black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}

/// Peak resident set size of this process so far, in MB. The workloads
/// read it right after their measuring loop, before the correctness
/// gate's extra runs, and keep no buffer there whose size depends on
/// how many episodes the window held.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Layout of `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// Reads a CPU-time clock, in seconds; NaN if the call fails. On Linux
/// these clocks count time on the CPU only: time a virtual machine's host
/// keeps the CPU away (steal time) is not charged to the thread.
fn cpu_clock_s(clock: i32) -> f64 {
    let mut tp = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `tp` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call, and both clock ids
    // are defined by POSIX.
    let rc = unsafe { clock_gettime(clock, &mut tp) };
    if rc == 0 {
        tp.tv_sec as f64 + tp.tv_nsec as f64 * 1e-9
    } else {
        f64::NAN
    }
}

/// CPU time of the calling thread, in seconds.
pub fn thread_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU time of the whole process, exited threads included, in seconds.
pub fn process_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

/// First line of a command's standard output, or `unknown`.
fn command_line(program: &str, args: &[&str], env: &[(&str, &str)]) -> String {
    let mut cmd = Command::new(program);
    cmd.args(args).stdin(Stdio::null()).stderr(Stdio::null());
    for (k, v) in env {
        cmd.env(k, v);
    }
    cmd.output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let inv = match parse_args(&argv) {
        Ok(inv) => inv,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            exit(2);
        }
    };
    let spin_before = spin_ms();
    let mut ledger = Ledger::default();
    // Every metric name must be valid and unique in the result line.
    ledger.check(report::names_are_valid(), 0, || {
        "a metric name is invalid or used twice".into()
    });
    let mut metrics = Metrics::default();
    let mut notes = Vec::new();
    match inv.workload {
        Workload::ClusterStorm => cluster::run(&inv, &mut ledger, &mut metrics, &mut notes),
        _ => host::run(&inv, &mut ledger, &mut metrics, &mut notes),
    }
    let spin_after = spin_ms();
    let list: &[(&str, &str)] = if inv.trace { &PER_LAYER } else { &END_TO_END };
    if inv.trace {
        metrics.fill_missing(list);
    }
    check_finite(&mut ledger, &metrics, list);
    metrics.put("failed_ops_ratio", ledger.failed_ratio(), "ratio");

    let p = inv.workload.params();
    println!(
        "stayaway-benchmark  workload {}  seed {}  {} run",
        inv.workload.name(),
        inv.seed,
        if inv.trace { "traced" } else { "untraced" }
    );
    for (name, value, unit) in &metrics.0 {
        println!("  {name:<32} {value:>16.6} {unit}");
    }
    for note in &notes {
        println!("  note: {note}");
    }
    for failure in &ledger.failures {
        println!("  FAILED: {failure}");
    }
    let context = json!({
        "git_rev": command_line("git", &["rev-parse", "--short=12", "HEAD"], &[("GIT_DIR", ".git")]),
        "nproc": cluster::nproc(),
        "rustc": command_line("rustc", &["--version"], &[]),
        "workload": inv.workload.name(),
        "seed": inv.seed,
        "seconds": inv.seconds,
        "trace": u8::from(inv.trace),
        "episodes": p.episodes,
        "ticks": p.ticks,
        "epochs": p.epochs,
        "ticks_per_epoch": p.ticks_per_epoch,
        "block": p.block,
        "setup_reps": SETUP_REPS,
        "spin_before_ms": spin_before,
        "spin_after_ms": spin_after,
    });
    println!("context: {context}");
    let result = json!({
        "correct": ledger.correct(),
        "attempted": ledger.attempted.max(1),
        "failed": ledger.failed,
        "metrics": metrics.to_json(list),
    });
    println!("{result}");
    if !ledger.correct() {
        exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_episode_seeds() {
        assert_eq!(episode_seeds(7, 8), episode_seeds(7, 8));
        assert_ne!(episode_seeds(7, 8), episode_seeds(8, 8));
        let s = episode_seeds(1, 24);
        let mut d = s.clone();
        d.sort_unstable();
        d.dedup();
        assert_eq!(d.len(), s.len());
    }

    #[test]
    fn cpu_clocks_advance_with_work() {
        let (t0, p0) = (thread_cpu_s(), process_cpu_s());
        let start = Instant::now();
        let mut x = 1u64;
        while start.elapsed().as_millis() < 60 {
            x = black_box(x).wrapping_mul(3).wrapping_add(1);
        }
        let (t1, p1) = (thread_cpu_s(), process_cpu_s());
        assert!(t1 - t0 > 0.01, "thread CPU {t0} -> {t1}");
        assert!(p1 - p0 >= t1 - t0, "process CPU {p0} -> {p1}");
        // Sleeping costs no CPU time.
        let t2 = thread_cpu_s();
        std::thread::sleep(std::time::Duration::from_millis(30));
        assert!(thread_cpu_s() - t2 < 0.01);
    }

    #[test]
    fn arguments_parse_and_reject() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let inv = parse_args(&args(
            "--workload flash-crowd --seed 9 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!(inv.workload, Workload::FlashCrowd);
        assert_eq!((inv.seed, inv.seconds, inv.trace), (9, 3.0, true));
        assert!(parse_args(&args("--seed 1")).is_err());
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--workload flash-crowd --trace 2")).is_err());
        assert!(parse_args(&args("--workload flash-crowd --seconds -1")).is_err());
        assert!(parse_args(&args("--workload flash-crowd --seed")).is_err());
    }

    #[test]
    fn benchmark_json_lists_the_metrics_this_program_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
        let list = |key: &str| -> &[serde_json::Value] {
            doc.get(key)
                .and_then(serde_json::Value::as_array)
                .unwrap_or_else(|| panic!("{key} is not a list"))
        };
        let field = |m: &serde_json::Value, f: &str| -> String {
            m.get(f)
                .and_then(serde_json::Value::as_str)
                .unwrap_or_else(|| panic!("{f} is not a string"))
                .to_string()
        };
        let listed = |key: &str| -> Vec<(String, String)> {
            list(key)
                .iter()
                .map(|m| (field(m, "name"), field(m, "unit")))
                .collect()
        };
        let ours = |metrics: &[(&str, &str)]| -> Vec<(String, String)> {
            metrics
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), ours(&END_TO_END));
        assert_eq!(listed("per_layer"), ours(&PER_LAYER));
        let names: Vec<String> = list("workloads").iter().map(|w| field(w, "name")).collect();
        assert_eq!(names, Workload::ALL.map(Workload::name));
    }
}
