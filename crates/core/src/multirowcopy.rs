//! Multi-RowCopy: copying one source row to up to 31 destination rows at
//! once (§3.4, §6) — the paper's second new PUD operation.
//!
//! Sequence: fully activate the source (`t1 ≥ tRAS` so the amps latch it),
//! then interrupt the precharge within ≤ 3 ns so the predecoder latches
//! accumulate and *all* group rows open while the amps still drive the
//! source data; the amps then overwrite every open row.
//!
//! With a short `t1` the amplifiers never finished latching: a fraction of
//! columns latches the wrong value and every destination inherits the
//! error — that is Obs. 15's cliff at `t1 = 1.5 ns` (≈ half the columns).

use simra_bender::TestSetup;
use simra_dram::{ApaTiming, BitRow, Rng};

use crate::error::PudError;
use crate::rowgroup::{expect_simultaneous, GroupSpec};

/// Outcome of a functional Multi-RowCopy.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiRowCopyReport {
    /// Local indices of the destination rows that were overwritten.
    pub destinations: Vec<u32>,
    /// The image the sense amplifiers actually drove (equals the source
    /// image on the columns that latched correctly).
    pub driven_image: BitRow,
    /// Cells across all destinations that failed to take the write.
    pub restore_failures: usize,
}

/// Deterministic per-column "did the amplifier latch in time" decision:
/// the first output of a stream keyed on (column, R_F), thresholded at
/// the latch quality. Systematic across trials — slow columns are slow
/// every time.
fn column_latches(col: u32, r_f_raw: u32, quality: f64) -> bool {
    let key = (col as u64) << 32 | r_f_raw as u64;
    (Rng::seed_from_u64(key).next_u64() as f64 / u64::MAX as f64) < quality
}

/// The restore drive scale for Multi-RowCopy: the amps drive at full
/// strength once latched; only a grid-minimum `t2` weakens the overdrive.
fn mrc_restore_strength(setup: &TestSetup, timing: ApaTiming) -> f64 {
    // t1 affects the *latch*, not the restore: evaluate the restore
    // penalty as if t1 were nominal.
    let restore_timing = ApaTiming::from_ns(3.0, timing.t2.as_ns());
    setup
        .engine()
        .params()
        .restore_strength(restore_timing, setup.conditions())
}

/// Success rate (0–1) of Multi-RowCopy on `group` with `timing`: the
/// expected fraction of destination cells that hold the source image
/// after the copy, across all trials (§3.4 methodology: destinations are
/// pre-filled with a different pattern, here the complement).
///
/// # Errors
///
/// Sequencer/group validation errors.
pub fn multirowcopy_success(
    setup: &mut TestSetup,
    group: &GroupSpec,
    timing: ApaTiming,
    source_image: &BitRow,
) -> Result<f64, PudError> {
    let geometry = *setup.module().geometry();
    let cols = geometry.cols_per_row as usize;
    if source_image.len() != cols {
        return Err(PudError::InputWidth {
            got: source_image.len(),
            expected: cols,
        });
    }
    let rows = expect_simultaneous(setup, group, timing)?;
    let local_src = group.local_r_f(&geometry);
    let destinations: Vec<u32> = rows.iter().copied().filter(|r| *r != local_src).collect();

    // Initialise source and destinations per the methodology.
    setup.init_row(group.bank, group.r_f, source_image)?;
    let anti = source_image.complement();
    for &d in &destinations {
        setup.init_row(group.bank, geometry.join_row(group.subarray, d), &anti)?;
    }

    let engine = setup.engine();
    let latch_q = engine.params().mrc_latch_quality(timing.t1.as_ns());
    let restore = mrc_restore_strength(setup, timing);
    let subarray = setup
        .module_mut()
        .bank_mut(group.bank)?
        .subarray(group.subarray);
    let mut probs = Vec::new();
    engine.commit_survival_into(subarray, &destinations, source_image, restore, &mut probs);
    // A destination cell succeeds iff its column latched the source value
    // AND the restore stuck. Columns that latched wrong drive the
    // complement into the cell: guaranteed failure. The latch decision is
    // per-column (systematic across destinations), so hash it once per
    // column instead of once per cell.
    let per_dest_cols = probs.len() / destinations.len().max(1);
    let latched: Vec<bool> = (0..per_dest_cols)
        .map(|col| column_latches(col as u32, group.r_f.raw(), latch_q))
        .collect();
    let mut total = 0.0;
    for (i, p) in probs.iter().enumerate() {
        if latched[i % per_dest_cols.max(1)] {
            total += p;
        }
    }
    Ok(total / probs.len().max(1) as f64)
}

/// Functionally executes Multi-RowCopy, mutating the module.
///
/// # Errors
///
/// Sequencer/group validation errors.
pub fn exec_multirowcopy(
    setup: &mut TestSetup,
    group: &GroupSpec,
    timing: ApaTiming,
) -> Result<MultiRowCopyReport, PudError> {
    let geometry = *setup.module().geometry();
    let rows = expect_simultaneous(setup, group, timing)?;
    let local_src = group.local_r_f(&geometry);
    let destinations: Vec<u32> = rows.iter().copied().filter(|r| *r != local_src).collect();
    let source_image = setup.read_row(group.bank, group.r_f)?;

    let engine = setup.engine();
    let latch_q = engine.params().mrc_latch_quality(timing.t1.as_ns());
    let restore = mrc_restore_strength(setup, timing);
    // The driven image is the source corrupted on slow columns.
    let driven_image = BitRow::from_bits((0..source_image.len()).map(|c| {
        if column_latches(c as u32, group.r_f.raw(), latch_q) {
            source_image.get(c)
        } else {
            !source_image.get(c)
        }
    }));
    let subarray = setup
        .module_mut()
        .bank_mut(group.bank)?
        .subarray(group.subarray);
    let restore_failures = engine.commit(subarray, &destinations, &driven_image, restore);
    Ok(MultiRowCopyReport {
        destinations,
        driven_image,
        restore_failures,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rowgroup::random_group;
    use simra_dram::{BankId, DataPattern, SubarrayId, VendorProfile};

    fn setup() -> TestSetup {
        TestSetup::new(VendorProfile::mfr_h_m_die(), 55)
    }

    fn group(s: &TestSetup, n: u32, seed: u64) -> GroupSpec {
        let mut rng = Rng::seed_from_u64(seed);
        random_group(
            s.module().geometry(),
            BankId::new(0),
            SubarrayId::new(0),
            n,
            &mut rng,
        )
        .expect("group")
    }

    #[test]
    fn best_timing_copies_almost_perfectly() {
        let mut s = setup();
        let mut rng = Rng::seed_from_u64(1);
        let cols = s.module().geometry().cols_per_row as usize;
        for n in [2u32, 4, 8, 16, 32] {
            let g = group(&s, n, n as u64);
            let img = DataPattern::Random.row_image(0, cols, &mut rng);
            let p = multirowcopy_success(&mut s, &g, ApaTiming::best_for_multi_row_copy(), &img)
                .unwrap();
            assert!(p > 0.995, "N={n}: {p}");
        }
    }

    #[test]
    fn t1_grid_minimum_halves_success() {
        let mut s = setup();
        let mut rng = Rng::seed_from_u64(2);
        let cols = s.module().geometry().cols_per_row as usize;
        let g = group(&s, 8, 3);
        let img = DataPattern::Random.row_image(0, cols, &mut rng);
        let bad = multirowcopy_success(&mut s, &g, ApaTiming::from_ns(1.5, 3.0), &img).unwrap();
        assert!(
            bad > 0.3 && bad < 0.7,
            "t1=1.5 ns should land near 50 %: {bad}"
        );
    }

    #[test]
    fn exec_overwrites_all_destinations() {
        // Over 64 sampled 16-row groups: every destination row reads back
        // > 99 % ones, and restore failures stay under the same 1 % of
        // destination cells (some groups lose a few cells to restore).
        for seed in 0..64 {
            let mut s = setup();
            let cols = s.module().geometry().cols_per_row as usize;
            let g = group(&s, 16, seed);
            let geometry = *s.module().geometry();
            s.init_row(g.bank, g.r_f, &BitRow::ones(cols)).unwrap();
            for &d in &g.local_rows {
                let row = geometry.join_row(g.subarray, d);
                if row != g.r_f {
                    s.init_row(g.bank, row, &BitRow::zeros(cols)).unwrap();
                }
            }
            let report =
                exec_multirowcopy(&mut s, &g, ApaTiming::best_for_multi_row_copy()).unwrap();
            assert_eq!(report.destinations.len(), 15, "group seed {seed}");
            let cells = report.destinations.len() * cols;
            assert!(
                report.restore_failures as f64 <= 0.01 * cells as f64,
                "group seed {seed}: {} of {cells} cells failed to restore",
                report.restore_failures
            );
            for &d in &report.destinations {
                let row = geometry.join_row(g.subarray, d);
                let read = s.read_row(g.bank, row).unwrap();
                assert!(
                    read.count_ones() as f64 / cols as f64 > 0.99,
                    "group seed {seed}: row {d}"
                );
            }
        }
    }

    #[test]
    fn all_ones_at_31_dips_below_all_zeros() {
        let mut s = setup();
        let g = group(&s, 32, 5);
        let cols = s.module().geometry().cols_per_row as usize;
        let t = ApaTiming::best_for_multi_row_copy();
        let p1 = multirowcopy_success(&mut s, &g, t, &BitRow::ones(cols)).unwrap();
        let p0 = multirowcopy_success(&mut s, &g, t, &BitRow::zeros(cols)).unwrap();
        assert!(
            p0 > p1,
            "all-0s {p0} should beat all-1s {p1} at 31 destinations"
        );
        assert!(p0 - p1 < 0.05, "but only slightly (paper: 0.79 %)");
    }

    #[test]
    fn width_mismatch_rejected() {
        let mut s = setup();
        let g = group(&s, 4, 6);
        let err = multirowcopy_success(
            &mut s,
            &g,
            ApaTiming::best_for_multi_row_copy(),
            &BitRow::ones(3),
        )
        .unwrap_err();
        assert!(matches!(err, PudError::InputWidth { .. }));
    }

    #[test]
    fn consecutive_timing_rejected() {
        let mut s = setup();
        let cols = s.module().geometry().cols_per_row as usize;
        let g = group(&s, 4, 7);
        let err = multirowcopy_success(&mut s, &g, ApaTiming::row_clone(), &BitRow::ones(cols))
            .unwrap_err();
        assert!(matches!(err, PudError::UnexpectedActivation { .. }));
    }
}
