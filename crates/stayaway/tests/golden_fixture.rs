//! Golden-fixture equivalence for the staged controller pipeline.
//!
//! The fixture under `tests/fixtures/` was captured from the pre-refactor
//! monolithic controller (one `period()` function). The staged pipeline
//! (Sense → Map → Predict → Act) must reproduce the recorded event and
//! stat streams **bit-for-bit** on the same scenario: identical events in
//! identical order, identical counters, identical per-tick action counts,
//! identical final β. Any divergence means the refactor changed behaviour.
//! The events are read back from the flight recorder, the controller's
//! only decision store; a recorder-less twin of every run must agree on
//! stats, β and actions.
//!
//! Regenerate (only when a behaviour change is intended and reviewed):
//!
//! ```text
//! STAYAWAY_REGEN_GOLDEN=1 cargo test -p stayaway-core --test golden_fixture
//! ```

mod common;

use common::FIXTURE_PATH;
use serde_json::Value;
use stayaway_core::{ControllerConfig, Observability};
use stayaway_obs::{MetricsRegistry, SpanSink};
use stayaway_sim::scenario::Scenario;

/// The default scenario under the default configuration, projected into
/// the canonical document (see `tests/common/mod.rs`).
fn capture_observed(obs: Observability) -> Value {
    common::capture(
        ControllerConfig::default(),
        &Scenario::vlc_with_cpubomb(7),
        obs,
    )
}

fn capture() -> Value {
    capture_observed(Observability::disabled())
}

#[test]
fn staged_pipeline_matches_prerefactor_golden_fixture() {
    let rendered = serde_json::to_string_pretty(&capture()).expect("projection serialises") + "\n";
    if std::env::var("STAYAWAY_REGEN_GOLDEN").is_ok() {
        std::fs::create_dir_all(std::path::Path::new(FIXTURE_PATH).parent().unwrap())
            .expect("fixture dir");
        std::fs::write(FIXTURE_PATH, &rendered).expect("fixture written");
        eprintln!("golden fixture regenerated at {FIXTURE_PATH}");
        return;
    }
    let golden = std::fs::read_to_string(FIXTURE_PATH)
        .expect("golden fixture exists (regenerate with STAYAWAY_REGEN_GOLDEN=1)");
    assert_eq!(
        rendered, golden,
        "staged pipeline diverged from the pre-refactor event/stat stream"
    );
}

/// The observability plane's hard invariant (DESIGN.md §11): a run with
/// every instrument enabled — metrics registry, span sink, and the deep
/// (O(n²) stress gauge) mode — projects to **bit-for-bit** the same
/// golden document as the uninstrumented run. Instrumentation reads the
/// clock and writes atomics; it must never touch controller RNG or
/// branch control logic.
#[test]
fn fully_instrumented_run_matches_the_golden_fixture_bit_for_bit() {
    if std::env::var("STAYAWAY_REGEN_GOLDEN").is_ok() {
        return; // regeneration runs capture() once; nothing to compare
    }
    let golden = std::fs::read_to_string(FIXTURE_PATH)
        .expect("golden fixture exists (regenerate with STAYAWAY_REGEN_GOLDEN=1)");
    let registry = MetricsRegistry::new();
    let sink = SpanSink::bounded(4096);
    let obs = Observability::enabled(registry.clone()).with_sink(sink.clone());
    assert!(obs.is_deep());
    let rendered =
        serde_json::to_string_pretty(&capture_observed(obs)).expect("projection serialises") + "\n";
    assert_eq!(
        rendered, golden,
        "instrumentation changed controller behaviour — the obs plane must be decision-inert"
    );
    // The instruments did record: per-stage latency histograms saw every
    // period, and the sink holds the span records.
    let snapshot = registry.snapshot();
    for stage in ["sense", "map", "predict", "act"] {
        let name = format!("stayaway_controller_{stage}_latency_nanos");
        let hist = snapshot
            .histograms
            .iter()
            .find(|h| h.name == name)
            .unwrap_or_else(|| panic!("{name} registered"));
        assert_eq!(hist.hist.count, 300, "{name} records one sample per period");
    }
    // The prediction-plane instruments (DESIGN.md §15) are equally
    // decision-inert: the run above matched the fixture bit-for-bit, yet
    // the forecast latency histogram and verdict counters did record.
    let forecast = snapshot
        .histograms
        .iter()
        .find(|h| h.name == "stayaway_predict_forecast_latency_nanos")
        .expect("forecast latency histogram registered");
    assert!(
        forecast.hist.count > 0,
        "forecast latency records one sample per forecast invocation"
    );
    let counter = |name: &str| {
        snapshot
            .counters
            .iter()
            .find(|c| c.name == name)
            .unwrap_or_else(|| panic!("{name} registered"))
            .value
    };
    let verdicts = counter("stayaway_predict_verdicts_total");
    let violation_verdicts = counter("stayaway_predict_violation_verdicts_total");
    assert!(verdicts > 0, "the KDE issued verdicts on this scenario");
    assert!(
        violation_verdicts <= verdicts,
        "violation verdicts are a subset of all verdicts"
    );
    assert!(
        verdicts <= forecast.hist.count,
        "every verdict came from a recorded forecast invocation"
    );
    assert!(!sink.is_empty(), "span sink captured records");
}
