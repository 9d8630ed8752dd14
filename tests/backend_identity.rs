//! Golden byte-identity tests for the backend layer.
//!
//! The `AnalogBackend` contract is that the `PudBackend` refactor is
//! *invisible*: every figure runner must produce bit-for-bit the same
//! samples it produced when the ops were inlined closures. These tests
//! freeze the pre-refactor closures verbatim (including their RNG draw
//! order — the part a refactor most easily breaks) and diff a
//! quick-scale sweep through the trait-dispatched path against them.
//!
//! The surrogate gets the complementary check: not identity, but its
//! documented tolerance band against the analog reference.

use simra::bender::TestSetup;
use simra::characterize::{
    run_sweep, sweep_trial_samples, ExperimentConfig, FleetOutcome, Session, SweepPoint,
};
use simra::dram::{ApaTiming, BitRow, DataPattern, Manufacturer, Rng};
use simra::exec::{AnalogBackend, BackendChoice, MrcSource, PudBackend, TrialSpec};
use simra::pud::act::activation_success;
use simra::pud::maj::{majx_success, MajConfig};
use simra::pud::multirowcopy::multirowcopy_success;
use simra::pud::rowgroup::GroupSpec;

/// Per-point surviving samples of a [`run_sweep`] with a frozen legacy
/// op — what `sweep_trial_samples` computes through the trait.
fn legacy_sweep<P, F>(session: &Session, points: &[SweepPoint<P>], op: F) -> Vec<Vec<f64>>
where
    P: Sync + std::fmt::Debug,
    F: Fn(&P, &mut TestSetup, &GroupSpec, &mut Rng) -> Option<f64> + Send + Sync,
{
    run_sweep(session, points, op)
        .into_iter()
        .map(FleetOutcome::into_samples)
        .collect()
}

/// Bitwise view of a sample matrix: equality up to NaN payloads.
fn bits(samples: &[Vec<f64>]) -> Vec<Vec<u64>> {
    samples
        .iter()
        .map(|row| row.iter().map(|s| s.to_bits()).collect())
        .collect()
}

// ---- Frozen pre-refactor ops (verbatim copies of the old closures) ----

#[derive(Debug, Clone, Copy)]
struct LegacyActPoint {
    timing: ApaTiming,
    temperature_c: Option<f64>,
    vpp_v: Option<f64>,
}

fn legacy_activation_op(
    point: &LegacyActPoint,
    setup: &mut TestSetup,
    group: &GroupSpec,
    rng: &mut Rng,
) -> Option<f64> {
    if let Some(t) = point.temperature_c {
        setup
            .set_temperature(t)
            .expect("swept temperature is in range");
    }
    if let Some(v) = point.vpp_v {
        setup.set_vpp(v).expect("swept V_PP is in range");
    }
    activation_success(setup, group, point.timing, DataPattern::Random, rng).ok()
}

#[derive(Debug, Clone, Copy)]
struct LegacyMajPoint {
    x: usize,
    timing: ApaTiming,
    pattern: DataPattern,
    temperature_c: Option<f64>,
    vpp_v: Option<f64>,
}

fn legacy_majx_op(
    point: &LegacyMajPoint,
    setup: &mut TestSetup,
    group: &GroupSpec,
    rng: &mut Rng,
) -> Option<f64> {
    if point.x >= 9 && setup.module().profile().manufacturer == Manufacturer::M {
        return None;
    }
    if let Some(t) = point.temperature_c {
        setup
            .set_temperature(t)
            .expect("swept temperature is in range");
    }
    if let Some(v) = point.vpp_v {
        setup.set_vpp(v).expect("swept V_PP is in range");
    }
    let maj_config = MajConfig::default();
    majx_success(
        setup,
        group,
        point.x,
        point.timing,
        point.pattern,
        &maj_config,
        rng,
    )
    .ok()
}

#[derive(Debug, Clone, Copy)]
enum LegacyMrcPattern {
    AllOnes,
    Random,
}

#[derive(Debug, Clone, Copy)]
struct LegacyMrcPoint {
    timing: ApaTiming,
    pattern: LegacyMrcPattern,
    temperature_c: Option<f64>,
    vpp_v: Option<f64>,
}

fn legacy_mrc_op(
    point: &LegacyMrcPoint,
    setup: &mut TestSetup,
    group: &GroupSpec,
    rng: &mut Rng,
) -> Option<f64> {
    if let Some(t) = point.temperature_c {
        setup
            .set_temperature(t)
            .expect("swept temperature is in range");
    }
    if let Some(v) = point.vpp_v {
        setup.set_vpp(v).expect("swept V_PP is in range");
    }
    let cols = setup.module().geometry().cols_per_row as usize;
    let img = match point.pattern {
        LegacyMrcPattern::AllOnes => BitRow::ones(cols),
        LegacyMrcPattern::Random => BitRow::from_bits((0..cols).map(|_| rng.gen())),
    };
    multirowcopy_success(setup, group, point.timing, &img).ok()
}

// ---- The identity tests ----

/// A two-vendor quick-scale config (Mfr. M exercises the MAJ9 guard).
fn config() -> ExperimentConfig {
    let mut config = ExperimentConfig::quick();
    config
        .modules
        .push(simra::characterize::config::ModuleUnderTest {
            profile: simra::dram::VendorProfile::mfr_m_e_die(),
            seed: 19,
        });
    config
}

#[test]
fn activation_sweep_is_byte_identical_through_the_trait() {
    let config = config();
    let grid: Vec<(u32, ApaTiming, Option<f64>, Option<f64>)> = vec![
        (2, ApaTiming::from_ns(1.5, 1.5), None, None),
        (8, ApaTiming::from_ns(3.0, 3.0), None, None),
        (32, ApaTiming::best_for_activation(), Some(90.0), None),
        (16, ApaTiming::best_for_activation(), None, Some(2.1)),
    ];
    let legacy_points: Vec<SweepPoint<LegacyActPoint>> = grid
        .iter()
        .map(|&(n, timing, temperature_c, vpp_v)| {
            SweepPoint::new(
                n,
                LegacyActPoint {
                    timing,
                    temperature_c,
                    vpp_v,
                },
            )
        })
        .collect();
    let trait_points: Vec<_> = grid
        .iter()
        .map(|&(n, timing, t, v)| {
            let mut spec = TrialSpec::activation(timing);
            if let Some(t) = t {
                spec = spec.at_temperature(t);
            }
            if let Some(v) = v {
                spec = spec.at_vpp(v);
            }
            SweepPoint::new(n, spec)
        })
        .collect();
    let session = Session::new(config.clone());
    let legacy = legacy_sweep(&session, &legacy_points, legacy_activation_op);
    let dispatched = sweep_trial_samples(&session, &trait_points);
    assert_eq!(bits(&legacy), bits(&dispatched));
}

#[test]
fn majx_sweep_is_byte_identical_through_the_trait() {
    let config = config();
    // MAJ9 probes the Mfr-M guard; it must refuse *before* consuming
    // any stream so later points replay identically.
    let grid: Vec<(u32, usize, DataPattern)> = vec![
        (32, 3, DataPattern::Random),
        (32, 5, DataPattern::Solid),
        (16, 9, DataPattern::Random),
        (32, 7, DataPattern::Checkered),
    ];
    let legacy_points: Vec<SweepPoint<LegacyMajPoint>> = grid
        .iter()
        .map(|&(n, x, pattern)| {
            SweepPoint::new(
                n,
                LegacyMajPoint {
                    x,
                    timing: ApaTiming::best_for_majx(),
                    pattern,
                    temperature_c: None,
                    vpp_v: None,
                },
            )
        })
        .collect();
    let trait_points: Vec<_> = grid
        .iter()
        .map(|&(n, x, pattern)| {
            SweepPoint::new(n, TrialSpec::majx(x, ApaTiming::best_for_majx(), pattern))
        })
        .collect();
    let session = Session::new(config.clone());
    let legacy = legacy_sweep(&session, &legacy_points, legacy_majx_op);
    let dispatched = sweep_trial_samples(&session, &trait_points);
    assert_eq!(bits(&legacy), bits(&dispatched));
}

#[test]
fn mrc_sweep_is_byte_identical_through_the_trait() {
    let config = config();
    let timing = ApaTiming::best_for_multi_row_copy();
    let legacy_points = vec![
        SweepPoint::new(
            8,
            LegacyMrcPoint {
                timing,
                pattern: LegacyMrcPattern::Random,
                temperature_c: None,
                vpp_v: None,
            },
        ),
        SweepPoint::new(
            32,
            LegacyMrcPoint {
                timing,
                pattern: LegacyMrcPattern::AllOnes,
                temperature_c: Some(70.0),
                vpp_v: None,
            },
        ),
    ];
    let trait_points = vec![
        SweepPoint::new(8, TrialSpec::multirowcopy(timing, MrcSource::RandomBits)),
        SweepPoint::new(
            32,
            TrialSpec::multirowcopy(timing, MrcSource::AllOnes).at_temperature(70.0),
        ),
    ];
    let session = Session::new(config.clone());
    let legacy = legacy_sweep(&session, &legacy_points, legacy_mrc_op);
    let dispatched = sweep_trial_samples(&session, &trait_points);
    assert_eq!(bits(&legacy), bits(&dispatched));
}

#[test]
fn random_row_source_matches_the_word_drawing_convention() {
    // The per-die table draws MRC images with `BitRow::random` (whole
    // words), not bit-by-bit; `MrcSource::RandomRow` must reproduce
    // that stream exactly.
    let profile = simra::dram::VendorProfile::mfr_h_m_die();
    let mut legacy_setup = TestSetup::with_module(simra::dram::DramModule::new(profile.clone(), 4));
    let mut trait_setup = TestSetup::with_module(simra::dram::DramModule::new(profile, 4));
    let mut legacy_rng = Rng::seed_from_u64(99);
    let group = simra::pud::rowgroup::random_group(
        legacy_setup.module().geometry(),
        simra::dram::BankId::new(0),
        simra::dram::SubarrayId::new(0),
        16,
        &mut legacy_rng,
    )
    .expect("group fits");
    let cols = legacy_setup.module().geometry().cols_per_row as usize;
    let timing = ApaTiming::best_for_multi_row_copy();
    let legacy = {
        let img = BitRow::random(&mut legacy_rng, cols);
        multirowcopy_success(&mut legacy_setup, &group, timing, &img).ok()
    };
    // Re-seed the trait stream to the exact same position.
    let mut trait_rng = Rng::seed_from_u64(99);
    let group2 = simra::pud::rowgroup::random_group(
        trait_setup.module().geometry(),
        simra::dram::BankId::new(0),
        simra::dram::SubarrayId::new(0),
        16,
        &mut trait_rng,
    )
    .expect("group fits");
    let spec = TrialSpec::multirowcopy(timing, MrcSource::RandomRow);
    let dispatched = AnalogBackend.run_trial(&spec, &mut trait_setup, &group2, &mut trait_rng);
    assert_eq!(legacy.map(f64::to_bits), dispatched.map(f64::to_bits));
}

#[test]
fn surrogate_fig4a_stays_within_the_documented_band() {
    // Not identity — the surrogate's contract is its tolerance band:
    // paired same-N observations match up to cancelled trial noise, and
    // absolute levels stay within a few percentage points.
    let analog_cfg = ExperimentConfig::quick();
    let mut surrogate_cfg = ExperimentConfig::quick();
    surrogate_cfg.backend = BackendChoice::Surrogate;
    let analog = simra::characterize::fig4a_activation_temperature(&Session::new(analog_cfg));
    let surrogate = simra::characterize::fig4a_activation_temperature(&Session::new(surrogate_cfg));
    for (ra, rs) in analog.rows.iter().zip(&surrogate.rows) {
        assert_eq!(ra.label, rs.label);
        for (va, vs) in ra.values.iter().zip(&rs.values) {
            assert!(
                (va - vs).abs() < 5.0,
                "row {}: analog {va} vs surrogate {vs} (band: 5 pp)",
                ra.label
            );
        }
    }
}
