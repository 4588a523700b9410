//! The golden-fixture projection shared by `golden_fixture` and
//! `predictor_plane`.
//!
//! A run is projected into one canonical JSON document: the controller's
//! decisions (read back from an attached flight recorder, the only store
//! of decisions), its stat counters, the final β, the QoS violation count
//! and the per-tick action counts. Wall-clock stage timings are excluded;
//! stat fields are listed one by one so adding a *new* counter cannot
//! silently change the fixture.

use serde_json::{json, Value};
use stayaway_core::{Controller, ControllerConfig, Observability, ResumeReason};
use stayaway_obs::{AttrValue, EventKind, EventRecord, FlightRecorder, Layer};
use stayaway_sim::scenario::Scenario;
use stayaway_sim::RunOutcome;

/// The committed golden document.
pub const FIXTURE_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/golden_controller.json"
);

const TICKS: u64 = 300;

fn run(
    config: ControllerConfig,
    scenario: &Scenario,
    obs: Observability,
) -> (Controller, RunOutcome) {
    let mut harness = scenario.build_harness().expect("scenario builds");
    let mut ctl =
        Controller::for_host_observed(config, harness.host().spec(), obs).expect("config is valid");
    let outcome = harness.run(&mut ctl, TICKS);
    (ctl, outcome)
}

fn actions(outcome: &RunOutcome) -> Vec<usize> {
    outcome.timeline.iter().map(|r| r.actions).collect()
}

/// Runs `scenario` for 300 ticks under `config`, recording decisions
/// into a flight recorder added to `obs`, and projects the run into the
/// golden document. A bare twin (no recorder, no instruments) runs too
/// and must agree on stats, β and per-tick actions, so the document also
/// pins the recorder-less path.
pub fn capture(config: ControllerConfig, scenario: &Scenario, obs: Observability) -> Value {
    let recorder = FlightRecorder::for_scope(0, "golden");
    let (ctl, outcome) = run(
        config.clone(),
        scenario,
        obs.with_recorder(recorder.clone()),
    );
    let (bare, bare_outcome) = run(config, scenario, Observability::disabled());
    let stats = ctl.stats();
    assert_eq!(bare.stats(), stats, "the recorder changed the stats");
    assert_eq!(bare.beta().to_bits(), ctl.beta().to_bits());
    assert_eq!(actions(&bare_outcome), actions(&outcome));
    let events: Vec<Value> = recorder.events().iter().filter_map(decision).collect();
    json!({
        "scenario": scenario.name(),
        "ticks": TICKS,
        "events": events,
        "stats": json!({
            "periods": stats.periods,
            "violations_observed": stats.violations_observed,
            "violations_predicted": stats.violations_predicted,
            "throttles": stats.throttles,
            "resumes": stats.resumes,
            "prediction_checks": stats.prediction_checks,
            "prediction_hits": stats.prediction_hits,
            "states": stats.states,
            "violation_states": stats.violation_states,
            "mapping_errors": stats.mapping_errors,
            "events_dropped": stats.events_dropped,
        }),
        "beta": ctl.beta(),
        "qos_violations": outcome.qos.violations,
        "timeline_actions": actions(&outcome),
    })
}

/// The fixture's view of one controller decision, or `None` for records
/// it does not list (drift anchors, verdicts that predicted no violation).
fn decision(e: &EventRecord) -> Option<Value> {
    let attr = |name: &str| -> Value {
        match e.attrs.iter().find(|(k, _)| k == name).map(|(_, v)| v) {
            Some(AttrValue::U64(v)) => json!(v),
            Some(AttrValue::I64(v)) => json!(v),
            Some(AttrValue::F64(v)) => json!(v),
            Some(AttrValue::Bool(v)) => json!(v),
            Some(AttrValue::Str(v)) => json!(v),
            None => panic!("{} record lacks `{name}`", e.kind),
        }
    };
    let tick = e.tick;
    let (name, fields) = match (e.layer, e.kind) {
        (Layer::Predictor, EventKind::PredictorVerdict) if attr("predicted") == json!(true) => (
            "ViolationPredicted",
            json!({"tick": tick, "votes": attr("votes"), "samples": attr("samples")}),
        ),
        (Layer::Controller, EventKind::SloViolation) => (
            "ViolationLearned",
            json!({"tick": tick, "state": attr("state")}),
        ),
        (Layer::Controller, EventKind::Throttle) => (
            "Throttled",
            json!({"tick": tick, "count": attr("count"), "proactive": attr("proactive")}),
        ),
        (Layer::Controller, EventKind::Resume) => {
            let reason = match attr("reason").as_str() {
                Some("phase-change") => ResumeReason::PhaseChange,
                Some("optimistic") => ResumeReason::Optimistic,
                other => panic!("unknown resume reason {other:?}"),
            };
            ("Resumed", json!({"tick": tick, "reason": reason}))
        }
        (Layer::Controller, EventKind::BetaChange) => {
            ("BetaIncreased", json!({"tick": tick, "beta": attr("beta")}))
        }
        _ => return None,
    };
    Some(Value::Object(vec![(name.to_string(), fields)]))
}
