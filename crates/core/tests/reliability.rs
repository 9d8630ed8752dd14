//! Empirical (trial-sampled) success rates and stable/unstable cell
//! classification — the §3.1 metric computed the slow way.
//!
//! The characterization runners use an *analytic* survival probability
//! (margin → Φ-survival over 10⁴ trials) because it is smooth, fast and
//! deterministic. These tests compute the same metric by literally
//! repeating trials with sampled sense noise and counting cells that are
//! correct *every* time — which is what the paper's tester does — and
//! check that the analytic shortcut agrees with that ground truth.

use simra_analog::CircuitParams;
use simra_bender::TestSetup;
use simra_core::frac::{init_neutral_rows, neutral_plan};
use simra_core::maj::{majority, plan_layout, random_operands};
use simra_core::rowgroup::{random_group, GroupSpec};
use simra_core::PudError;
use simra_dram::{ApaTiming, BankId, BitRow, Rng, SubarrayId, VendorProfile};

/// Per-cell trial statistics for one bitline population.
#[derive(Debug, Clone, PartialEq)]
struct TrialStats {
    /// Trials run.
    trials: u32,
    /// Per-column count of correct resolutions.
    correct: Vec<u32>,
}

impl TrialStats {
    /// The paper's success rate: fraction of cells correct in *all*
    /// trials ("stable" cells).
    fn success_rate(&self) -> f64 {
        if self.correct.is_empty() {
            return f64::NAN;
        }
        let stable = self.correct.iter().filter(|&&c| c == self.trials).count();
        stable as f64 / self.correct.len() as f64
    }

    /// Mean per-trial accuracy (a *different*, laxer metric than the
    /// success rate — useful to see how far "mostly right" is from
    /// "always right").
    fn mean_accuracy(&self) -> f64 {
        if self.correct.is_empty() || self.trials == 0 {
            return f64::NAN;
        }
        let total: u64 = self.correct.iter().map(|&c| c as u64).sum();
        total as f64 / (self.correct.len() as u64 * self.trials as u64) as f64
    }

    /// Column indices of unstable cells (wrong at least once).
    fn unstable_columns(&self) -> Vec<u32> {
        self.correct
            .iter()
            .enumerate()
            .filter(|(_, &c)| c != self.trials)
            .map(|(i, _)| i as u32)
            .collect()
    }
}

/// Runs `trials` sampled MAJX trials on `group` with *fixed* operand
/// data (the same images every trial, like the paper's fixed-pattern
/// tests) and tallies per-column correctness.
fn empirical_majx_trials(
    setup: &mut TestSetup,
    group: &GroupSpec,
    operands: &[BitRow],
    timing: ApaTiming,
    trials: u32,
    rng: &mut Rng,
) -> Result<TrialStats, PudError> {
    let layout = plan_layout(group, operands.len())?;
    let geometry = *setup.module().geometry();
    let cols = geometry.cols_per_row as usize;
    for o in operands {
        if o.len() != cols {
            return Err(PudError::InputWidth {
                got: o.len(),
                expected: cols,
            });
        }
    }
    let expected = majority(operands);
    let engine = setup.engine();
    let local_r_f = group.local_r_f(&geometry);
    let mut correct = vec![0u32; cols];

    // Write the layout once; sensing does not disturb the stored charge
    // in this mode (we re-sense the same state per trial, as the tester
    // re-initialises between trials).
    for (i, rows) in layout.operand_rows.iter().enumerate() {
        for &local in rows {
            setup.init_row(
                group.bank,
                geometry.join_row(group.subarray, local),
                &operands[i],
            )?;
        }
    }
    let plan = neutral_plan(setup);
    let neutral: Vec<_> = layout
        .neutral_rows
        .iter()
        .map(|&l| geometry.join_row(group.subarray, l))
        .collect();
    init_neutral_rows(setup, group.bank, &neutral, plan, rng)?;

    let rows = group.local_rows.clone();
    // The stored charge state is identical for every trial, so the whole
    // trial loop collapses onto the batched sampling rig: one systematic
    // sense, then per-trial noise redraws in the exact RNG-stream order
    // the scalar loop used.
    let subarray = setup
        .module_mut()
        .bank_mut(group.bank)?
        .subarray(group.subarray);
    let senses =
        engine.sense_sampled_batch(subarray, &rows, local_r_f, timing, trials as usize, rng);
    for sense in &senses {
        for (c, tally) in correct.iter_mut().enumerate() {
            if sense.resolved.get(c) == expected.get(c) {
                *tally += 1;
            }
        }
    }
    Ok(TrialStats { trials, correct })
}

fn env() -> (TestSetup, GroupSpec, Rng) {
    let setup = TestSetup::new(VendorProfile::mfr_h_m_die(), 23);
    let mut rng = Rng::seed_from_u64(17);
    let group = random_group(
        setup.module().geometry(),
        BankId::new(0),
        SubarrayId::new(0),
        32,
        &mut rng,
    )
    .unwrap();
    (setup, group, rng)
}

#[test]
fn stats_accounting() {
    let s = TrialStats {
        trials: 4,
        correct: vec![4, 4, 3, 0],
    };
    assert!((s.success_rate() - 0.5).abs() < 1e-12);
    assert!((s.mean_accuracy() - 11.0 / 16.0).abs() < 1e-12);
    assert_eq!(s.unstable_columns(), vec![2, 3]);
}

#[test]
fn maj3_at_32_rows_has_mostly_stable_cells() {
    let (mut setup, group, mut rng) = env();
    let cols = setup.module().geometry().cols_per_row as usize;
    let ops = random_operands(3, cols, &mut rng);
    let stats = empirical_majx_trials(
        &mut setup,
        &group,
        &ops,
        ApaTiming::best_for_majx(),
        50,
        &mut rng,
    )
    .unwrap();
    assert!(
        stats.success_rate() > 0.9,
        "empirical {:.3}",
        stats.success_rate()
    );
    assert!(stats.mean_accuracy() >= stats.success_rate());
}

#[test]
fn empirical_agrees_with_analytic_survival() {
    // The core validation: the analytic Φ-survival metric the
    // characterization crate uses must track the trial-sampled
    // ground truth (at a matched trial count).
    let (mut setup, group, mut rng) = env();
    let cols = setup.module().geometry().cols_per_row as usize;
    let trials = 200u32;
    let mut params = CircuitParams::calibrated();
    params.effective_trials = trials;
    setup.set_circuit_params(Some(params));

    let ops = random_operands(3, cols, &mut rng);
    let stats = empirical_majx_trials(
        &mut setup,
        &group,
        &ops,
        ApaTiming::best_for_majx(),
        trials,
        &mut rng,
    )
    .unwrap();

    // Analytic prediction on the same state.
    let geometry = *setup.module().geometry();
    let engine = setup.engine();
    let expected = majority(&ops);
    let local_r_f = group.local_r_f(&geometry);
    let subarray = setup
        .module_mut()
        .bank_mut(group.bank)
        .unwrap()
        .subarray(group.subarray);
    let sense = engine.sense(
        subarray,
        &group.local_rows,
        local_r_f,
        ApaTiming::best_for_majx(),
    );
    let analytic: f64 = engine
        .survival_toward(subarray, &sense.deltas, &expected)
        .iter()
        .sum::<f64>()
        / cols as f64;

    let empirical = stats.success_rate();
    assert!(
        (analytic - empirical).abs() < 0.08,
        "analytic {analytic:.3} vs empirical {empirical:.3}"
    );
}

#[test]
fn harsher_timing_lowers_empirical_success() {
    let (mut setup, group, mut rng) = env();
    let cols = setup.module().geometry().cols_per_row as usize;
    let ops = random_operands(3, cols, &mut rng);
    let good = empirical_majx_trials(
        &mut setup,
        &group,
        &ops,
        ApaTiming::best_for_majx(),
        20,
        &mut rng,
    )
    .unwrap();
    let bad = empirical_majx_trials(
        &mut setup,
        &group,
        &ops,
        ApaTiming::from_ns(3.0, 3.0),
        20,
        &mut rng,
    )
    .unwrap();
    assert!(good.success_rate() >= bad.success_rate());
}

#[test]
fn width_mismatch_rejected() {
    let (mut setup, group, mut rng) = env();
    let bad = vec![BitRow::ones(3); 3];
    assert!(matches!(
        empirical_majx_trials(
            &mut setup,
            &group,
            &bad,
            ApaTiming::best_for_majx(),
            5,
            &mut rng
        ),
        Err(PudError::InputWidth { .. })
    ));
}
