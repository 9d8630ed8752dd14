//! Integration tests for the telemetry wiring.
//!
//! Two invariants: fleet telemetry is a pure function of
//! `(config, points, policy)` — identical across worker counts — and a
//! disabled recorder leaves the scientific output byte-identical.
//!
//! Each test owns its recorder, so the tests run in parallel without
//! seeing each other's series.

use simra_characterize::config::ModuleUnderTest;
use simra_characterize::pool::FleetPool;
use simra_characterize::{
    fig5_power, run_sweep_on, ExperimentConfig, FleetPolicy, MockClock, Session, SweepPoint,
};
use simra_faults::{FaultPlan, ModuleFault, ModuleFaultKind};
use simra_telemetry::Recorder;

/// Quick-scale config widened to four modules so multi-worker runs
/// actually schedule concurrently (≤ 1 module forces the serial path).
fn four_module_quick() -> ExperimentConfig {
    let mut config = ExperimentConfig::quick();
    while config.modules.len() < 4 {
        let seed = 100 + config.modules.len() as u64;
        config.modules.push(ModuleUnderTest {
            profile: simra_dram::VendorProfile::mfr_h_a_die(),
            seed,
        });
    }
    config
}

#[test]
fn fleet_telemetry_is_identical_across_worker_counts() {
    let recorder = Recorder::new();
    recorder.enable();

    // A transient dropout on module 1 exercises the retry/backoff
    // events; recovery after the 2nd attempt keeps the run green.
    let mut config = four_module_quick();
    config.faults = Some(FaultPlan {
        modules: vec![ModuleFault {
            module_index: 1,
            kind: ModuleFaultKind::Dropout {
                at_group: 0,
                recover_after_attempts: Some(2),
            },
        }],
        ..FaultPlan::default()
    });
    let policy = FleetPolicy {
        max_attempts: 4,
        backoff_base_ms: 10.0,
        deadline_ms: None,
    };

    let mut snapshots = Vec::new();
    for workers in [1usize, 2, 4] {
        recorder.reset();
        // A fresh session per worker count: its coverage ledger (and any
        // lazily built backend state) dies with it, so nothing leaks
        // between iterations.
        let session = Session::recorded_by(config.clone(), recorder.clone());
        let clock = MockClock::new();
        let outcome = run_sweep_on(
            FleetPool::global(),
            &session,
            &[SweepPoint::new(4, ())],
            policy,
            &clock,
            workers,
            |_, _, g, _| Some(g.n_rows() as f64),
        )
        .remove(0);
        assert_eq!(outcome.ok_modules(), 4, "workers={workers}");
        snapshots.push((workers, recorder.snapshot()));
    }

    let (_, reference) = &snapshots[0];
    for (workers, snapshot) in &snapshots {
        assert_eq!(
            snapshot.counters, reference.counters,
            "counter values diverged at workers={workers}"
        );
        assert_eq!(
            snapshot.histograms, reference.histograms,
            "histogram values diverged at workers={workers}"
        );
    }

    let counter = |name: &str| {
        reference
            .counters
            .iter()
            .find(|c| c.module == "fleet" && c.name == name)
            .unwrap_or_else(|| panic!("fleet counter {name} missing"))
            .value
    };
    assert_eq!(counter("task_completed"), 4);
    // Module 1 fails attempts 1 and 2, succeeds on attempt 3.
    assert_eq!(counter("task_retried"), 2);
    assert_eq!(counter("task_started"), 6);
    assert_eq!(counter("task_failed"), 0);
    assert_eq!(counter("task_panicked"), 0);
    // Grid/pool accounting: a single-point run is a 1 × 4 grid. Every
    // module chain's first acquisition constructs its rig (4 misses);
    // module 1's attempts 2 and 3 reuse the rig its non-panicking
    // earlier attempts returned (2 hits).
    assert_eq!(counter("grid_tasks"), 4);
    assert_eq!(counter("pool_miss"), 4);
    assert_eq!(counter("pool_hit"), 2);
    // One group draw per module at its one N: module 1's two retries
    // rerun the groups its first attempt drew.
    assert_eq!(counter("group_draws"), 4);
    let backoff = reference
        .histograms
        .iter()
        .find(|h| h.module == "fleet" && h.name == "backoff_charged_ms")
        .expect("backoff histogram missing");
    // Charges 10 · 2⁰ before attempt 2 and 10 · 2¹ before attempt 3.
    assert_eq!(backoff.count, 2);
    assert!((backoff.sum - 30.0).abs() < 1e-9);
}

#[test]
fn sweep_grid_and_rig_pool_counters_are_deterministic() {
    let recorder = Recorder::new();
    recorder.enable();

    let mut config = four_module_quick();
    config.faults = Some(FaultPlan {
        modules: vec![ModuleFault {
            module_index: 1,
            kind: ModuleFaultKind::Dropout {
                at_group: 0,
                recover_after_attempts: Some(2),
            },
        }],
        ..FaultPlan::default()
    });
    let policy = FleetPolicy {
        max_attempts: 4,
        backoff_base_ms: 10.0,
        deadline_ms: None,
    };
    let points: Vec<SweepPoint<()>> = [2u32, 4, 8]
        .iter()
        .map(|&n| SweepPoint::new(n, ()))
        .collect();

    let mut snapshots = Vec::new();
    for workers in [1usize, 2, 4] {
        recorder.reset();
        let session = Session::recorded_by(config.clone(), recorder.clone());
        let clock = MockClock::new();
        let outcomes = run_sweep_on(
            FleetPool::global(),
            &session,
            &points,
            policy,
            &clock,
            workers,
            |_: &(), _, g, _| Some(g.n_rows() as f64),
        );
        assert_eq!(outcomes.len(), 3, "workers={workers}");
        for outcome in &outcomes {
            assert_eq!(outcome.ok_modules(), 4, "workers={workers}");
        }
        snapshots.push((workers, recorder.snapshot()));
    }

    let (_, reference) = &snapshots[0];
    for (workers, snapshot) in &snapshots {
        assert_eq!(
            snapshot.counters, reference.counters,
            "counter values diverged at workers={workers}"
        );
        assert_eq!(
            snapshot.histograms, reference.histograms,
            "histogram values diverged at workers={workers}"
        );
    }

    let counter = |name: &str| {
        reference
            .counters
            .iter()
            .find(|c| c.module == "fleet" && c.name == name)
            .unwrap_or_else(|| panic!("fleet counter {name} missing"))
            .value
    };
    // The whole 3 × 4 grid is one submission.
    assert_eq!(counter("grid_tasks"), 12);
    // Each chain constructs its rig once (4 misses). Module 1 retries
    // twice per point (attempts 2 and 3 reuse the returned rig) and then
    // carries the rig to the next point: 9 acquisitions, 8 of them hits.
    // The three healthy chains each reuse across points: 3 acquisitions,
    // 2 hits. Totals: 4 misses, 8 + 3·2 = 14 hits.
    assert_eq!(counter("pool_miss"), 4);
    assert_eq!(counter("pool_hit"), 14);
    // Module 1: 2 retries per point; everyone completes in the end.
    assert_eq!(counter("task_retried"), 6);
    assert_eq!(counter("task_started"), 18);
    // Each module's groups are drawn once per N (4 modules × 3 N); module
    // 1's six retries reuse its draws.
    assert_eq!(counter("group_draws"), 12);
    assert_eq!(counter("task_completed"), 12);
    assert_eq!(counter("task_failed"), 0);
    let backoff = reference
        .histograms
        .iter()
        .find(|h| h.module == "fleet" && h.name == "backoff_charged_ms")
        .expect("backoff histogram missing");
    // (10 + 20) ms charged per point for module 1's two retries.
    assert_eq!(backoff.count, 6);
    assert!((backoff.sum - 90.0).abs() < 1e-9);
}

#[test]
fn disabled_recorder_leaves_figure_output_byte_identical() {
    let recorder = Recorder::new();
    let session = Session::recorded_by(ExperimentConfig::quick(), recorder.clone());
    let baseline_fig3 = simra_characterize::fig3_activation_timing(&session).to_string();
    let baseline_fig5 = fig5_power(&session).to_string();
    assert_eq!(
        recorder
            .snapshot()
            .spans
            .iter()
            .map(|s| s.count)
            .sum::<u64>(),
        0,
        "disabled recorder must not record spans"
    );

    recorder.enable();
    let instrumented_fig3 = simra_characterize::fig3_activation_timing(&session).to_string();
    let instrumented_fig5 = fig5_power(&session).to_string();
    let snapshot = recorder.snapshot();

    assert_eq!(baseline_fig3, instrumented_fig3);
    assert_eq!(baseline_fig5, instrumented_fig5);
    for figure in ["fig3", "fig5"] {
        let span = snapshot
            .spans
            .iter()
            .find(|s| s.module == "figure" && s.name == figure)
            .unwrap_or_else(|| panic!("span figure/{figure} missing"));
        assert_eq!(span.count, 1);
    }
}
