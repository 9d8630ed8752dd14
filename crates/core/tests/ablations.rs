//! The design ablations of DESIGN.md §4b: each test turns one model
//! mechanism off through `TestSetup::set_circuit_params` and checks the
//! effect that mechanism exists to produce. Every case runs MAJX at
//! N = 32 on the same 16 groups (4 in each of 4 subarrays) of one
//! Mfr. H M-die module, with the same data stream.

use simra_analog::CircuitParams;
use simra_bender::TestSetup;
use simra_core::maj::{majx_success, MajConfig};
use simra_core::rowgroup::sample_groups;
use simra_dram::{ApaTiming, DataPattern, Rng, VendorProfile};

/// Per-group MAJX success under `params` (`None` = calibrated).
fn majx_per_group(params: Option<CircuitParams>, x: usize, timing: ApaTiming) -> Vec<f64> {
    let mut setup = TestSetup::new(VendorProfile::mfr_h_m_die(), 7);
    setup.set_circuit_params(params);
    let mut rng = Rng::seed_from_u64(1);
    let geometry = *setup.module().geometry();
    let groups = sample_groups(&geometry, 32, 1, 4, 4, &mut rng);
    assert_eq!(groups.len(), 16);
    let config = MajConfig::default();
    groups
        .iter()
        .map(|pick| {
            majx_success(
                &mut setup,
                &pick.resolve(&geometry),
                x,
                timing,
                DataPattern::Random,
                &config,
                &mut rng,
            )
            .expect("MAJX runs on a 32-row group")
        })
        .collect()
}

/// The calibrated parameters with one mechanism turned off.
fn ablated(turn_off: impl FnOnce(&mut CircuitParams)) -> Option<CircuitParams> {
    let mut params = CircuitParams::calibrated();
    turn_off(&mut params);
    Some(params)
}

fn mean(successes: &[f64]) -> f64 {
    successes.iter().sum::<f64>() / successes.len() as f64
}

fn range(successes: &[f64]) -> f64 {
    let max = successes.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let min = successes.iter().copied().fold(f64::INFINITY, f64::min);
    max - min
}

/// First-row over-share is what makes MAJ3 at (t1, t2) = (3, 3) ns fall
/// far below (1.5, 3) ns — the model's Obs. 7 timing asymmetry. Without
/// it, (3, 3) recovers to the (1.5, 3) level.
#[test]
fn no_first_row_overshare_erases_the_timing_asymmetry() {
    let t33 = ApaTiming::from_ns(3.0, 3.0);
    let best = mean(&majx_per_group(None, 3, ApaTiming::best_for_majx()));
    let calibrated = mean(&majx_per_group(None, 3, t33));
    assert!(
        best - calibrated > 0.20,
        "calibrated MAJ3: (3, 3) {calibrated:.4} is not 20 pp below (1.5, 3) {best:.4}"
    );
    let no_overshare = mean(&majx_per_group(
        ablated(|p| p.overshare_per_ns = 0.0),
        3,
        t33,
    ));
    assert!(
        (no_overshare - best).abs() <= 0.01,
        "MAJ3 at (3, 3) without over-share: {no_overshare:.4}, (1.5, 3): {best:.4}"
    );
}

/// Group-to-group margin spread is what makes the MAJX box plots wide:
/// without it the MAJ5 spread over the groups at least halves.
#[test]
fn no_group_spread_narrows_the_box_plots() {
    let best = ApaTiming::best_for_majx();
    let calibrated = range(&majx_per_group(None, 5, best));
    let no_spread = range(&majx_per_group(
        ablated(|p| p.group_spread_sigma = 0.0),
        5,
        best,
    ));
    assert!(
        no_spread <= calibrated / 2.0,
        "MAJ5 max - min: calibrated {calibrated:.4}, without group spread {no_spread:.4}"
    );
}

/// Transfer-variation amplification is per-cell noise that grows with
/// N; without it MAJ5 gains more than 5 pp on average. It does not make
/// every MAJX saturate: MAJ7 gains about 15 pp and MAJ9 does not improve.
#[test]
fn no_transfer_amplification_lifts_maj5() {
    let best = ApaTiming::best_for_majx();
    let calibrated = mean(&majx_per_group(None, 5, best));
    let no_amp = mean(&majx_per_group(
        ablated(|p| p.pud_transfer_amp = 0.0),
        5,
        best,
    ));
    assert!(
        no_amp - calibrated > 0.05,
        "MAJ5 mean: calibrated {calibrated:.4}, without transfer amplification {no_amp:.4}"
    );
}
