//! Concurrent-session isolation: several sessions with different seeds
//! and backends run their sweeps at the same time in one process — all
//! on the uncapped [`FleetPool::global`] budget — yet each produces
//! output byte-identical to running alone, with disjoint telemetry and
//! coverage.
//!
//! Each session owns its recorder, its engine counters and one hybrid
//! backend, whose surrogate is the session's only calibration table.
//! Nothing a sibling campaign does (its RNG streams, its calibration
//! probes, its hybrid slot state, its fault plan) may perturb another
//! session's tables or counters: every recorder sees exactly its solo
//! run's calibration-probe count.
//!
//! [`FleetPool::global`]: simra_characterize::pool::FleetPool::global

use std::thread;

use simra_characterize::pool::FleetPool;
use simra_characterize::{
    fig7_majx_patterns, run_sweep_on, ExperimentConfig, FleetPolicy, MockClock, Session, SweepPoint,
};
use simra_exec::BackendChoice;
use simra_faults::{FaultPlan, ModuleFault, ModuleFaultKind};
use simra_telemetry::Recorder;

/// One campaign: a backend and a seed of its own.
struct Campaign {
    backend: BackendChoice,
    seed: u64,
}

const CAMPAIGNS: [Campaign; 3] = [
    Campaign {
        backend: BackendChoice::Analog,
        seed: 11,
    },
    Campaign {
        backend: BackendChoice::Surrogate,
        seed: 22,
    },
    Campaign {
        backend: BackendChoice::Hybrid,
        seed: 33,
    },
];

/// A fresh quick-scale session for one campaign, with a private enabled
/// recorder so its telemetry can be inspected in isolation.
fn session_for(campaign: &Campaign) -> (Session, Recorder) {
    let mut config = ExperimentConfig::quick();
    config.backend = campaign.backend;
    config.seed = campaign.seed;
    let recorder = Recorder::new();
    recorder.enable();
    (Session::recorded_by(config, recorder.clone()), recorder)
}

fn counter_value(recorder: &Recorder, module: &str, name: &str) -> u64 {
    recorder
        .snapshot()
        .counters
        .iter()
        .find(|c| c.module == module && c.name == name)
        .map(|c| c.value)
        .unwrap_or(0)
}

#[test]
fn concurrent_sessions_match_their_solo_runs_with_disjoint_telemetry() {
    // Solo baselines: each campaign alone in a fresh session.
    let solo: Vec<(String, u64)> = CAMPAIGNS
        .iter()
        .map(|campaign| {
            let (session, recorder) = session_for(campaign);
            let table = fig7_majx_patterns(&session).to_string();
            let probes = counter_value(&recorder, "surrogate", "calibration_probes");
            (table, probes)
        })
        .collect();
    assert!(
        solo[1].1 > 0,
        "the surrogate campaign must calibrate, or the disjointness check below is vacuous"
    );

    // The same three campaigns at once, from separate threads, all
    // borrowing the shared global fleet pool.
    let concurrent: Vec<(String, Recorder)> = thread::scope(|scope| {
        let handles: Vec<_> = CAMPAIGNS
            .iter()
            .map(|campaign| {
                scope.spawn(move || {
                    let (session, recorder) = session_for(campaign);
                    (fig7_majx_patterns(&session).to_string(), recorder)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("campaign thread panicked"))
            .collect()
    });

    for ((campaign, (solo_table, solo_probes)), (table, recorder)) in
        CAMPAIGNS.iter().zip(&solo).zip(&concurrent)
    {
        assert_eq!(
            table, solo_table,
            "{} campaign diverged from its solo run",
            campaign.backend
        );
        // Calibration traffic stays with the session that caused it: the
        // analog campaign records none, the others exactly their solo
        // counts, sibling sessions notwithstanding.
        let probes = counter_value(recorder, "surrogate", "calibration_probes");
        match campaign.backend {
            BackendChoice::Analog => {
                assert_eq!(probes, 0, "the analog session must not calibrate")
            }
            _ => assert_eq!(
                probes, *solo_probes,
                "{}'s calibration count changed under concurrency",
                campaign.backend
            ),
        }
        // Each recorder saw its own figure exactly once — no sibling's
        // span leaked in.
        let spans = recorder.snapshot().spans;
        let span = spans
            .iter()
            .find(|s| s.module == "figure" && s.name == "fig7")
            .expect("figure/fig7 span recorded");
        assert_eq!(span.count, 1);
    }
}

#[test]
fn fault_coverage_stays_with_the_session_that_ran_it() {
    let mut faulted_config = ExperimentConfig::quick();
    faulted_config.faults = Some(FaultPlan {
        modules: vec![ModuleFault {
            module_index: 0,
            kind: ModuleFaultKind::Dropout {
                at_group: 0,
                recover_after_attempts: None,
            },
        }],
        ..FaultPlan::default()
    });
    let faulty = Session::recorded_by(faulted_config, Recorder::new());
    let clean = Session::recorded_by(ExperimentConfig::quick(), Recorder::new());

    thread::scope(|scope| {
        scope.spawn(|| {
            let clock = MockClock::new();
            let outcome = run_sweep_on(
                FleetPool::global(),
                &faulty,
                &[SweepPoint::new(4, ())],
                FleetPolicy::default(),
                &clock,
                2,
                |_, _, g, _| Some(g.n_rows() as f64),
            )
            .remove(0);
            assert_eq!(outcome.ok_modules(), 0, "the dropout never recovers");
        });
        scope.spawn(|| {
            let clock = MockClock::new();
            let outcome = run_sweep_on(
                FleetPool::global(),
                &clean,
                &[SweepPoint::new(4, ())],
                FleetPolicy::default(),
                &clock,
                2,
                |_, _, g, _| Some(g.n_rows() as f64),
            )
            .remove(0);
            assert_eq!(outcome.ok_modules(), 1);
        });
    });

    let (faulty_coverage, failures) = faulty.take_coverage();
    assert_eq!(faulty_coverage.tasks, 1);
    assert_eq!(faulty_coverage.failed, 1);
    assert_eq!(failures.len(), 1);
    assert!(failures[0].contains("dropped out"), "{}", failures[0]);

    let (clean_coverage, clean_failures) = clean.take_coverage();
    assert_eq!(clean_coverage.tasks, 1);
    assert_eq!(clean_coverage.completed, 1);
    assert_eq!(clean_coverage.failed, 0);
    assert!(
        clean_failures.is_empty(),
        "the sibling's failure leaked: {clean_failures:?}"
    );
}
