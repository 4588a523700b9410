//! Run bookkeeping shared by the workloads: failure accounting, metric
//! lists and the result line.

use crate::stats::{self, Blocks};
use crate::{thread_cpu_s, SETUP_REPS};
use serde_json::{json, Value};
use stay_away::obs::MetricsSnapshot;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// End-to-end metrics listed in `BENCHMARK.json`: name and unit, printed
/// by every untraced run.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ticks_per_cpu_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("qos_violation_rate", "ratio"),
    ("batch_work", "work"),
];

/// Per-layer metrics listed in `BENCHMARK.json`: name and unit, printed
/// by every traced run. A layer a workload does not exercise, or cannot
/// expose, reads 0.
pub const PER_LAYER: [(&str, &str); 64] = [
    ("ticks_per_s", "1/s"),
    ("decide_p50_us", "us"),
    ("decide_p99_us", "us"),
    ("decide_samples", "count"),
    ("requests_per_s", "1/s"),
    ("request_slo_violation_rate", "ratio"),
    ("failed_ops_ratio", "ratio"),
    ("telemetry.source_step_busy_s", "s"),
    ("telemetry.source_step_p50_us", "us"),
    ("telemetry.source_step_p99_us", "us"),
    ("telemetry.source_step_count", "count"),
    ("telemetry.apply_busy_s", "s"),
    ("telemetry.record_busy_s", "s"),
    ("telemetry.tick_self_s", "s"),
    ("telemetry.rejected_actions", "count"),
    ("telemetry.unattributed_s", "s"),
    ("stayaway.decide_busy_s", "s"),
    ("stayaway.sense_busy_s", "s"),
    ("stayaway.map_busy_s", "s"),
    ("stayaway.predict_busy_s", "s"),
    ("stayaway.act_busy_s", "s"),
    ("mds.smacof_runs", "count"),
    ("mds.sweeps", "count"),
    ("mds.sweep_busy_s", "s"),
    ("mds.append_busy_s", "s"),
    ("mds.repr_states", "count"),
    ("mds.dedup_ratio", "ratio"),
    ("trajectory.forecast_busy_s", "s"),
    ("trajectory.verdicts", "count"),
    ("trajectory.violation_verdicts", "count"),
    ("stayaway.prediction_hit_ratio", "ratio"),
    ("stayaway.prediction_hits", "count"),
    ("stayaway.prediction_checks", "count"),
    ("statespace.states", "count"),
    ("statespace.violation_states", "count"),
    ("stayaway.throttles", "count"),
    ("stayaway.resumes", "count"),
    ("stayaway.samples_rejected", "count"),
    ("stayaway.mapping_errors", "count"),
    ("workload.arrivals", "count"),
    ("workload.completed", "count"),
    ("workload.dropped", "count"),
    ("workload.completed_ratio", "ratio"),
    ("workload.cold_starts", "count"),
    ("workload.evictions", "count"),
    ("fleet.workers", "count"),
    ("fleet.cluster_wall_1w_s", "s"),
    ("fleet.cluster_wall_nw_s", "s"),
    ("fleet.parallel_efficiency", "ratio"),
    ("fleet.admissions", "count"),
    ("fleet.migrations", "count"),
    ("fleet.deferrals", "count"),
    ("fleet.invalid_actions", "count"),
    ("fleet.max_queue_depth", "count"),
    ("fleet.mean_queue_depth", "count"),
    ("fleet.cluster_new_busy_s", "s"),
    ("fleet.cluster_run_busy_s", "s"),
    ("fleet.cluster_json_busy_s", "s"),
    ("obs.events_recorded", "count"),
    ("obs.metric_series", "count"),
    ("obs.collect_overhead_ratio", "ratio"),
    ("bench.tracing_overhead_ratio", "ratio"),
    ("bench.episodes", "count"),
    ("bench.traced_pairs", "count"),
];

/// Named values with units, in insertion order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    /// Sets `name` (replacing an earlier value) with `unit`.
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        match self.0.iter_mut().find(|(n, _, _)| *n == name) {
            Some(slot) => *slot = (name, value, unit),
            None => self.0.push((name, value, unit)),
        }
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _, _)| *n == name).map(|m| m.1)
    }

    /// Fills every metric of `list` not yet set with 0 — the reading of
    /// a layer this workload does not exercise.
    pub fn fill_missing(&mut self, list: &[(&'static str, &'static str)]) {
        for &(name, unit) in list {
            if self.get(name).is_none() {
                self.put(name, 0.0, unit);
            }
        }
    }

    /// The metrics of `list`, in its order, as the result line's JSON
    /// object; names outside `list` are dropped, and a missing or
    /// non-finite value becomes `null`, which the correctness gate has
    /// already counted as a failure.
    pub fn to_json(&self, list: &[(&'static str, &'static str)]) -> Value {
        Value::Object(
            list.iter()
                .map(|&(name, unit)| {
                    let value = self.get(name).unwrap_or(f64::NAN);
                    (name.to_string(), json!({"value": value, "unit": unit}))
                })
                .collect(),
        )
    }
}

/// Layer readings summed over the traced episodes of a first pass.
#[derive(Debug, Default)]
pub struct LayerSums {
    /// Episodes summed.
    pub episodes: u64,
    sums: Vec<(&'static str, f64, &'static str)>,
}

impl LayerSums {
    /// Adds `value` to `name`.
    pub fn add(&mut self, name: &'static str, value: f64, unit: &'static str) {
        match self.sums.iter_mut().find(|(n, _, _)| *n == name) {
            Some(slot) => slot.1 += value,
            None => self.sums.push((name, value, unit)),
        }
    }

    fn get(&self, name: &str) -> f64 {
        self.sums
            .iter()
            .find(|(n, _, _)| *n == name)
            .map_or(0.0, |m| m.1)
    }

    /// Puts per-episode means into `m`, plus the ratios formed from the
    /// summed counts.
    pub fn put(&self, m: &mut Metrics) {
        let n = self.episodes.max(1) as f64;
        for &(name, sum, unit) in &self.sums {
            m.put(name, sum / n, unit);
        }
        let ratio = |num: &str, den: &str| {
            let d = self.get(den);
            if d > 0.0 {
                self.get(num) / d
            } else {
                0.0
            }
        };
        let hit = ratio("stayaway.prediction_hits", "stayaway.prediction_checks");
        m.put("stayaway.prediction_hit_ratio", hit, "ratio");
        let completed = ratio("workload.completed", "workload.arrivals");
        m.put("workload.completed_ratio", completed, "ratio");
    }
}

/// Builds a set-up [`SETUP_REPS`] times through `build`, recording the
/// CPU time of each build (its drop excluded) into the current block.
pub fn time_setups<T>(
    ledger: &mut Ledger,
    blocks: &mut Blocks,
    build: impl Fn() -> Result<T, String>,
) {
    for _ in 0..SETUP_REPS {
        let built = ledger.guard(1, "set-up", || {
            let cpu = thread_cpu_s();
            let rig = build()?;
            Ok((thread_cpu_s() - cpu, rig))
        });
        if let Some((cpu_s, _rig)) = built {
            blocks.setup(cpu_s);
        }
    }
}

/// Puts the block-timed metrics into `m`, and each block's CPU rate into
/// `notes`.
pub fn put_timing(blocks: &Blocks, m: &mut Metrics, notes: &mut Vec<String>) {
    let rates: Vec<String> = blocks
        .cpu_tick_rates()
        .iter()
        .map(|r| format!("{r:.0}"))
        .collect();
    notes.push(format!(
        "ticks per CPU second by block: {}",
        rates.join(" ")
    ));
    let or_nan = |v: Option<f64>| v.unwrap_or(f64::NAN);
    m.put("setup_s", or_nan(blocks.setup_s()), "s");
    m.put("ticks_per_s", or_nan(blocks.ticks_per_s()), "1/s");
    m.put("ticks_per_cpu_s", or_nan(blocks.ticks_per_cpu_s()), "1/s");
    m.put("requests_per_s", or_nan(blocks.requests_per_s()), "1/s");
}

/// A counter of a metrics snapshot, 0 when absent.
pub fn counter(m: &MetricsSnapshot, name: &str) -> f64 {
    m.counters
        .iter()
        .find(|c| c.name == name)
        .map_or(0.0, |c| c.value as f64)
}

/// A gauge of a metrics snapshot, 0 when absent.
pub fn gauge(m: &MetricsSnapshot, name: &str) -> f64 {
    m.gauges
        .iter()
        .find(|g| g.name == name)
        .map_or(0.0, |g| g.value)
}

/// The sum of a histogram of a metrics snapshot, 0 when absent.
pub fn hist_sum(m: &MetricsSnapshot, name: &str) -> f64 {
    m.histograms
        .iter()
        .find(|h| h.name == name)
        .map_or(0.0, |h| h.hist.sum as f64)
}

/// Series held by a metrics snapshot.
pub fn series(m: &MetricsSnapshot) -> usize {
    m.counters.len() + m.gauges.len() + m.histograms.len()
}

/// Operation accounting for one benchmark invocation.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Operations attempted: control ticks, plus one per set-up build.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
}

impl Ledger {
    /// Runs `f` as `ops` operations. An error or a panic fails all of
    /// them and yields `None`.
    pub fn guard<T>(
        &mut self,
        ops: u64,
        what: &str,
        f: impl FnOnce() -> Result<T, String>,
    ) -> Option<T> {
        self.attempted += ops;
        let outcome = catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|panic| {
            let msg = panic
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic".into());
            Err(format!("panicked: {msg}"))
        });
        match outcome {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(ops, format!("{what}: {e}"));
                None
            }
        }
    }

    /// Marks `ops` already-attempted operations as failed, e.g. the ticks
    /// of an episode that failed its correctness check.
    pub fn fail(&mut self, ops: u64, why: String) {
        self.failed = (self.failed + ops).min(self.attempted);
        self.failures.push(why);
    }

    /// Fails `ops` operations unless `ok`.
    pub fn check(&mut self, ok: bool, ops: u64, why: impl FnOnce() -> String) {
        if !ok {
            self.fail(ops, why());
        }
    }

    /// True when nothing failed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// Failed operations over attempted ones.
    pub fn failed_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Checks every listed metric is set and finite, failing the run
/// otherwise.
pub fn check_finite(ledger: &mut Ledger, metrics: &Metrics, list: &[(&'static str, &'static str)]) {
    for &(name, _) in list {
        let ok = metrics.get(name).is_some_and(f64::is_finite);
        let ops = ledger.attempted;
        ledger.check(ok, ops, || {
            format!("metric {name} is missing or not finite")
        });
    }
}

/// True when every metric name in both lists is valid and used once.
pub fn names_are_valid() -> bool {
    let mut names: Vec<&str> = END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .map(|m| m.0)
        .collect();
    let all_valid = names.iter().all(|n| stats::valid_name(n));
    names.sort_unstable();
    let before = names.len();
    names.dedup();
    all_valid && names.len() == before
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_lists_use_valid_unique_names() {
        assert!(names_are_valid());
    }

    #[test]
    fn guard_counts_errors_and_panics_as_failed_operations() {
        let mut l = Ledger::default();
        assert_eq!(l.guard(10, "ok", || Ok(1)), Some(1));
        assert_eq!(l.guard(5, "err", || Err::<(), _>("boom".into())), None);
        assert_eq!(
            l.guard(5, "panic", || -> Result<(), String> { panic!("bang") }),
            None
        );
        assert_eq!((l.attempted, l.failed), (20, 10));
        assert!(!l.correct());
        assert!((l.failed_ratio() - 0.5).abs() < 1e-12);
        assert!(l.failures[1].contains("bang"));
    }

    #[test]
    fn result_metrics_keep_digits_and_null_non_finite_values() {
        let mut m = Metrics::default();
        m.put("setup_s", 0.5, "s");
        m.put("setup_s", 0.123456789012, "s");
        m.put("ticks_per_s", f64::NAN, "1/s");
        let text =
            serde_json::to_string(&m.to_json(&[("setup_s", "s"), ("ticks_per_s", "1/s")])).unwrap();
        assert_eq!(
            text,
            "{\"setup_s\":{\"value\":0.123456789012,\"unit\":\"s\"},\
             \"ticks_per_s\":{\"value\":null,\"unit\":\"1/s\"}}"
        );
    }

    #[test]
    fn non_finite_metrics_fail_the_run() {
        let mut l = Ledger {
            attempted: 7,
            ..Ledger::default()
        };
        let mut m = Metrics::default();
        m.put("setup_s", f64::INFINITY, "s");
        check_finite(&mut l, &m, &[("setup_s", "s")]);
        assert_eq!(l.failed, 7);
        assert!(!l.correct());
    }
}
