//! Pins the hybrid backend's decisions over a whole quick-scale figure
//! set. Its decision rule (ε = 0.02, 1 to 8 analog trials per point) is
//! fixed, so how many trials the table answered, how many escalated and
//! how each point stopped are exact numbers of the build: a change to
//! the rule, the calibration table or the trial stream moves them.

use simra_characterize::{ExperimentConfig, FigureSet, Session};
use simra_exec::BackendChoice;
use simra_telemetry::Recorder;

#[test]
fn quick_hybrid_figures_take_the_pinned_decisions() {
    let recorder = Recorder::new();
    recorder.enable();
    let mut config = ExperimentConfig::quick();
    config.backend = BackendChoice::Hybrid;
    let session = Session::recorded_by(config, recorder.clone());
    FigureSet::compute(&session, |_, run| run());

    let snapshot = recorder.snapshot();
    let counter = |name: &str| {
        snapshot
            .counters
            .iter()
            .find(|c| c.module == "hybrid" && c.name == name)
            .map_or(0, |c| c.value)
    };
    assert_eq!(
        [
            counter("table_hits"),
            counter("escalations"),
            counter("early_stops"),
            counter("budget_capped"),
        ],
        [357, 489, 187, 0],
        "table hits, escalations, early stops, budget caps"
    );
    // Every point of Figs. 3–12 decides within two analog trials; the
    // ceiling is reached only by the unit test that forces a table
    // inconsistency (`table_inconsistency_forces_escalation`).
    let trials_per_point = snapshot
        .histograms
        .iter()
        .find(|h| h.module == "hybrid" && h.name == "analog_trials_per_point")
        .expect("decided points are recorded");
    assert_eq!(trials_per_point.count, 187);
    assert_eq!(trials_per_point.max, 2.0);
}
