//! Fault-injection invariants, end to end: an empty plan is invisible
//! (byte-identical samples), and an arbitrary chaotic plan never loses a
//! module slot, never deadlocks, and produces the identical outcome for
//! identical `(seed, plan)` regardless of worker count.

use simra::bender::TestSetup;
use simra::characterize::pool::FleetPool;
use simra::characterize::{
    collect_group_samples_serial, fig10_mrc_timing, fig3_activation_timing, fig6_maj3_timing,
    run_sweep, run_sweep_on, ExperimentConfig, FailureCause, FleetClock, FleetOutcome, FleetPolicy,
    MockClock, ModuleResult, Session, SweepPoint,
};
use simra::dram::{ApaTiming, Rng};
use simra::exec::{BackendChoice, TrialSpec};
use simra::faults::{CellFaultSpec, FaultPlan, ModuleFault, ModuleFaultKind};
use simra::pud::rowgroup::GroupSpec;

/// The figure runners' op shape: run the point's spec through the
/// session's backend for its config's choice.
fn run_trial_via(
    session: &Session,
    spec: &TrialSpec,
    setup: &mut TestSetup,
    group: &GroupSpec,
    rng: &mut Rng,
) -> Option<f64> {
    session
        .dispatch(session.config().backend)
        .run_trial(spec, setup, group, rng)
}

/// An op that exercises RNG state, group identity, and module identity,
/// without touching cell arrays (keeps the seeded cases fast).
fn probe_op(setup: &mut TestSetup, g: &GroupSpec, rng: &mut Rng) -> Option<f64> {
    Some(g.local_rows[0] as f64 + rng.gen::<f64>() + setup.module().seed() as f64 * 1e-6)
}

/// A one-point sweep at `n` rows on the global pool: the fleet run
/// every figure's grid decomposes into.
fn one_point<F>(
    session: &Session,
    n: u32,
    policy: FleetPolicy,
    clock: &dyn FleetClock,
    workers: usize,
    op: F,
) -> FleetOutcome
where
    F: Fn(&mut TestSetup, &GroupSpec, &mut Rng) -> Option<f64> + Send + Sync,
{
    let point = [SweepPoint::new(n, ())];
    run_sweep_on(
        FleetPool::global(),
        session,
        &point,
        policy,
        clock,
        workers,
        |_, s, g, r| op(s, g, r),
    )
    .remove(0)
}

/// A two-module fleet at quick scale (quick itself has one module, which
/// never exercises the stealing pool).
fn two_module_config(seed: u64) -> ExperimentConfig {
    let mut config = ExperimentConfig::quick();
    config.seed = seed;
    config
        .modules
        .push(simra::characterize::config::ModuleUnderTest {
            profile: simra::dram::VendorProfile::mfr_m_e_die(),
            seed: seed ^ 0x51,
        });
    config
}

/// Builds one module-level fault from a small integer choice.
fn fault_from_choice(
    module_index: usize,
    choice: u8,
    at_group: usize,
    stall: f64,
) -> Option<ModuleFault> {
    let kind = match choice % 4 {
        0 => return None,
        1 => ModuleFaultKind::Dropout {
            at_group,
            recover_after_attempts: if choice >= 128 { Some(1) } else { None },
        },
        2 => ModuleFaultKind::PanicAt { at_group },
        _ => ModuleFaultKind::Hang {
            at_group,
            stall_ms: stall,
        },
    };
    Some(ModuleFault { module_index, kind })
}

/// The row counts a sweep may ask for: `draw_group`'s powers of two.
const SWEEP_NS: [u32; 5] = [2, 4, 8, 16, 32];

/// An all-empty fault plan is indistinguishable from no plan at all:
/// every sample matches the serial fault-free reference bit for bit,
/// on one worker and on several.
#[test]
fn empty_plan_is_byte_identical_to_baseline() {
    for case in 0..16u64 {
        let mut rng = Rng::seed_from_u64(case);
        let seed = rng.next_u64();
        let n = SWEEP_NS[rng.gen_range(0..SWEEP_NS.len())];
        let at = format!("case {case}: seed {seed}, n {n}");
        let mut config = two_module_config(seed);
        let baseline = collect_group_samples_serial(&config, n, probe_op);
        config.faults = Some(FaultPlan::default());
        let session = Session::new(config.clone());
        let point = [SweepPoint::new(n, ())];
        let defaults = run_sweep(&session, &point, |_, s, g, r| probe_op(s, g, r));
        assert_eq!(&defaults[0].samples(), &baseline, "{at}");
        let clock = MockClock::new();
        for workers in [1usize, 2, 4] {
            let outcome = one_point(
                &session,
                n,
                FleetPolicy::default(),
                &clock,
                workers,
                probe_op,
            );
            assert_eq!(outcome.slots.len(), config.modules.len(), "{at}");
            assert_eq!(
                &outcome.into_samples(),
                &baseline,
                "{at}, {workers} workers"
            );
        }
    }
}

/// Chaos: an arbitrary plan over a three-module fleet. Whatever the
/// plan does, the executor must (a) terminate, (b) report exactly one
/// slot per module, (c) produce the identical outcome on 1, 2, and 4
/// workers, and (d) fail only for injected reasons; across the cases
/// some slot must complete, or the test would prove nothing.
#[test]
fn chaotic_plans_never_lose_slots_and_are_schedule_independent() {
    let mut completed = 0;
    for case in 0..32u64 {
        let mut rng = Rng::seed_from_u64(case);
        let seed = rng.next_u64();
        let choices: Vec<u8> = (0..3).map(|_| rng.next_u64() as u8).collect();
        let groups: Vec<usize> = (0..3).map(|_| rng.gen_range(0..4usize)).collect();
        let stall = rng.gen_range(0.0..30.0);
        let with_deadline = rng.gen::<bool>();
        let with_cells = rng.gen::<bool>();
        let at = format!("case {case}: seed {seed}, choices {choices:?}, groups {groups:?}");
        let mut config = two_module_config(seed);
        config
            .modules
            .push(simra::characterize::config::ModuleUnderTest {
                profile: simra::dram::VendorProfile::mfr_h_a_die(),
                seed: seed ^ 0xA7,
            });
        let modules: Vec<ModuleFault> = choices
            .iter()
            .zip(&groups)
            .enumerate()
            .filter_map(|(i, (&c, &g))| fault_from_choice(i, c, g, stall))
            .collect();
        let plan = FaultPlan {
            seed,
            cells: with_cells.then_some(CellFaultSpec {
                seed,
                stuck_per_million: 50.0,
                sense_offset_shift: 0.0,
            }),
            modules,
            vpp_droop: None,
            deadline_ms: with_deadline.then_some(20.0),
        };
        let policy = FleetPolicy {
            deadline_ms: plan.deadline_ms,
            ..FleetPolicy::default()
        };
        config.faults = Some(plan);
        let session = Session::new(config.clone());
        let clock = MockClock::new();
        let outcomes: Vec<_> = [1usize, 2, 4]
            .iter()
            .map(|&workers| one_point(&session, 4, policy, &clock, workers, probe_op))
            .collect();
        for outcome in &outcomes {
            assert_eq!(outcome.slots.len(), 3, "{at}: no slot may be lost");
            for slot in &outcome.slots {
                let attempts = match slot {
                    ModuleResult::Completed { attempts, .. } => *attempts,
                    ModuleResult::Failed { attempts, cause } => {
                        if let FailureCause::Panic(message) = cause {
                            assert!(
                                message.starts_with("injected fault"),
                                "{at}: only injected panics may fail a slot, got {message:?}"
                            );
                        }
                        *attempts
                    }
                };
                assert!((1..=3).contains(&attempts), "{at}: {slot:?}");
            }
        }
        assert_eq!(&outcomes[0], &outcomes[1], "{at}: 1 vs 2 workers diverged");
        assert_eq!(&outcomes[0], &outcomes[2], "{at}: 1 vs 4 workers diverged");
        completed += outcomes[0].ok_modules();
    }
    assert!(completed > 0, "no chaos case completed a single slot");
}

/// The sweep-grid scheduler's pooled rigs are invisible: a whole
/// multi-point sweep on reused modules is byte-identical to running
/// every point with freshly constructed modules, across vendor
/// profiles, fault presets, and 1/2/4 workers — and, when no faults are
/// armed, to the serial fault-free reference.
#[test]
fn pooled_rig_sweep_is_byte_identical_to_fresh_construction() {
    for case in 0..12u64 {
        let mut rng = Rng::seed_from_u64(case);
        let seed = rng.next_u64();
        let profile_choice = rng.gen_range(0..4usize);
        // Every (backend, preset) pair runs within the first eight cases.
        let backend = [BackendChoice::Analog, BackendChoice::Surrogate][case as usize % 2];
        let preset = [None, Some("quick"), Some("dropout"), Some("chaos")][case as usize / 2 % 4];
        let ns: Vec<u32> = (0..rng.gen_range(2..5usize))
            .map(|_| SWEEP_NS[rng.gen_range(0..SWEEP_NS.len())])
            .collect();
        let at = format!("case {case}: seed {seed}, ns {ns:?}");
        let mut config = two_module_config(seed);
        config.modules[1].profile = match profile_choice {
            0 => simra::dram::VendorProfile::mfr_h_m_die(),
            1 => simra::dram::VendorProfile::mfr_h_a_die(),
            2 => simra::dram::VendorProfile::mfr_m_e_die(),
            _ => simra::dram::VendorProfile::mfr_m_b_die(),
        };
        if let Some(name) = preset {
            config.faults = FaultPlan::preset(name, config.modules.len());
        }
        let policy = FleetPolicy {
            deadline_ms: config.faults.as_ref().and_then(|p| p.deadline_ms),
            ..FleetPolicy::default()
        };
        // The point parameter feeds the op, so a point handed the wrong
        // parameters (or the wrong rig state) shows in the samples.
        let points: Vec<SweepPoint<u32>> = ns.iter().map(|&n| SweepPoint::new(n, n)).collect();
        let op = |params: &u32, setup: &mut TestSetup, g: &GroupSpec, rng: &mut Rng| {
            probe_op(setup, g, rng).map(|s| s + f64::from(*params))
        };
        let clock = MockClock::new();
        let session = Session::new(config.clone());
        for workers in [1usize, 2, 4] {
            let pool = FleetPool::global();
            let sweep = run_sweep_on(pool, &session, &points, policy, &clock, workers, op);
            assert_eq!(sweep.len(), points.len(), "{at}");
            for (point, outcome) in points.iter().zip(&sweep) {
                let n = point.n;
                let fresh = one_point(
                    &session,
                    n,
                    policy,
                    &clock,
                    workers,
                    |s: &mut TestSetup, g: &GroupSpec, r: &mut Rng| op(&n, s, g, r),
                );
                assert_eq!(outcome, &fresh, "{at}: workers={workers} n={n}");
                if preset.is_none() {
                    let serial =
                        collect_group_samples_serial(&config, n, |s, g, r| op(&n, s, g, r));
                    assert_eq!(outcome.samples(), serial, "{at}: n={n}");
                }
            }
        }
        // Backend-generic leg: the same pooled-vs-fresh identity must hold
        // when the op is a real trait-dispatched trial (either backend)
        // rather than a synthetic probe.
        config.backend = backend;
        let spec = TrialSpec::activation(ApaTiming::from_ns(2.5, 2.5));
        let spec_points: Vec<SweepPoint<TrialSpec>> = ns
            .iter()
            .take(2)
            .map(|&n| SweepPoint::new(n, spec))
            .collect();
        let session = Session::new(config.clone());
        for workers in [1usize, 2] {
            let sweep = run_sweep_on(
                FleetPool::global(),
                &session,
                &spec_points,
                policy,
                &clock,
                workers,
                |spec, s, g, r| run_trial_via(&session, spec, s, g, r),
            );
            assert_eq!(sweep.len(), spec_points.len(), "{at}");
            for (point, outcome) in spec_points.iter().zip(&sweep) {
                let spec = point.params;
                let fresh = one_point(
                    &session,
                    point.n,
                    policy,
                    &clock,
                    workers,
                    |s: &mut TestSetup, g: &GroupSpec, r: &mut Rng| {
                        run_trial_via(&session, &spec, s, g, r)
                    },
                );
                assert_eq!(
                    outcome, &fresh,
                    "{at}: backend {backend} leg: workers={workers} n={}",
                    point.n
                );
                // Every preset but chaos leaves a module standing.
                assert!(
                    preset == Some("chaos") || outcome.samples().iter().any(|s| s.is_finite()),
                    "{at}: backend {backend} n={} produced no finite samples",
                    point.n
                );
                if preset.is_none() {
                    let serial = collect_group_samples_serial(&config, point.n, |s, g, r| {
                        run_trial_via(&session, &spec, s, g, r)
                    });
                    assert_eq!(outcome.samples(), serial, "{at}: n={}", point.n);
                }
            }
        }
    }
}

/// Golden test for the partial-results path: the dropout preset on a
/// two-module fleet completes, reports the lost module's cause, and
/// keeps the healthy module's samples intact.
#[test]
fn dropout_preset_reports_partial_results() {
    let mut config = two_module_config(0xD5A);
    let plan = FaultPlan::preset("dropout", config.modules.len()).expect("preset exists");
    config.faults = Some(plan);
    let session = Session::new(config);
    let clock = MockClock::new();
    let outcome = one_point(&session, 4, FleetPolicy::default(), &clock, 2, probe_op);
    assert_eq!(outcome.slots.len(), 2);
    // Module 0 panics once (heals on retry); module 1 drops out for good.
    match &outcome.slots[0] {
        ModuleResult::Completed { attempts, samples } => {
            assert_eq!(*attempts, 2);
            assert!(!samples.is_empty());
        }
        other => panic!("module 0 must heal on retry, got {other:?}"),
    }
    match &outcome.slots[1] {
        ModuleResult::Failed { attempts, cause } => {
            assert_eq!(*attempts, 3);
            assert_eq!(cause.to_string(), "dropped out at group 0");
        }
        other => panic!("module 1 must drop out, got {other:?}"),
    }
    assert_eq!(outcome.ok_modules(), 1);
    assert!(outcome.describe().starts_with("1/2 modules completed"));
}

/// Quick scale mounts one module and the dropout preset faults it, so
/// every sweep point has an empty quorum: the figure runners render NaN
/// cells instead of panicking on an empty sample set.
#[test]
fn an_empty_quorum_renders_nan_cells() {
    let mut config = ExperimentConfig::quick();
    config.faults = FaultPlan::preset("dropout", config.modules.len());
    let session = Session::new(config);
    for table in [
        fig3_activation_timing(&session),
        fig6_maj3_timing(&session),
        fig10_mrc_timing(&session),
    ] {
        assert!(!table.rows.is_empty(), "{}", table.title);
        for row in &table.rows {
            assert!(
                row.values.iter().all(|v| v.is_nan()),
                "{}: {} = {:?}",
                table.title,
                row.label,
                row.values
            );
        }
    }
}
