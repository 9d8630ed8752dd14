//! In-DRAM majority-of-X (MAJX) with input replication (§3.3, §5).
//!
//! To perform MAJX with N-row activation, each of the X operands is
//! replicated ⌊N/X⌋ times across the simultaneously activated rows; the
//! N%X leftover rows are made *neutral* (Frac on Mfr. H, complementary
//! all-0/all-1 pairs on Mfr. M). Replication is the paper's headline
//! robustness lever: MAJ3 with 32-row activation (10× replication) beats
//! MAJ3 with 4-row activation by ~31 % (Obs. 6).

use simra_analog::SenseBatch;
use simra_bender::TestSetup;
use simra_dram::{ApaTiming, BitRow, DataPattern, Rng};

use crate::error::PudError;
use crate::frac::{init_neutral_rows, neutral_plan};
use crate::rowgroup::{expect_simultaneous, GroupSpec};

/// How an X-operand majority is laid out on an N-row group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MajLayout {
    /// For each operand, the local rows holding its copies (⌊N/X⌋ each).
    pub operand_rows: Vec<Vec<u32>>,
    /// Local rows initialised as neutral (N % X of them).
    pub neutral_rows: Vec<u32>,
}

impl MajLayout {
    /// Replication factor (copies per operand).
    pub fn replication(&self) -> usize {
        self.operand_rows.first().map_or(0, Vec::len)
    }
}

/// Plans the replication layout of `x` operands over the group's rows.
///
/// # Errors
///
/// [`PudError::BadOperandCount`] unless `x` is odd and ≥ 3;
/// [`PudError::GroupTooSmall`] if the group has fewer than `x` rows.
pub fn plan_layout(group: &GroupSpec, x: usize) -> Result<MajLayout, PudError> {
    if x < 3 || x.is_multiple_of(2) {
        return Err(PudError::BadOperandCount(x));
    }
    let n = group.n_rows();
    if n < x {
        return Err(PudError::GroupTooSmall {
            rows: n,
            required: x,
        });
    }
    let r = n / x;
    let operand_rows = (0..x)
        .map(|i| group.local_rows[i * r..(i + 1) * r].to_vec())
        .collect();
    let neutral_rows = group.local_rows[x * r..].to_vec();
    Ok(MajLayout {
        operand_rows,
        neutral_rows,
    })
}

/// Per-column majority over the operand images.
///
/// # Panics
///
/// Panics if `operands` is empty or images have unequal widths.
pub fn majority(operands: &[BitRow]) -> BitRow {
    assert!(!operands.is_empty(), "majority needs operands");
    let cols = operands[0].len();
    assert!(
        operands.iter().all(|o| o.len() == cols),
        "majority operands must have equal widths"
    );
    // Bit-sliced count over 64 columns at a time: bit c of plane i is
    // bit i of column c's count of set operands. A column is set when
    // its count reaches a strict majority, ⌊X/2⌋ + 1.
    let x = operands.len();
    let threshold = x / 2 + 1;
    let mut planes = vec![0u64; (usize::BITS - x.leading_zeros()) as usize];
    let words = (0..cols.div_ceil(64))
        .map(|w| {
            planes.fill(0);
            for operand in operands {
                // Ripple-carry add of one bit per column.
                let mut carry = operand.words()[w];
                for plane in planes.iter_mut() {
                    (*plane, carry) = (*plane ^ carry, *plane & carry);
                }
            }
            // count ≥ threshold, compared from the top plane down.
            let (mut greater, mut equal) = (0u64, u64::MAX);
            for (i, &plane) in planes.iter().enumerate().rev() {
                if (threshold >> i) & 1 == 1 {
                    equal &= plane;
                } else {
                    greater |= equal & plane;
                    equal &= !plane;
                }
            }
            greater | equal
        })
        .collect();
    BitRow::from_words(words, cols)
}

/// Configuration for MAJX characterization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MajConfig {
    /// Independent data redraws for the random pattern. A cell only counts
    /// as stable if it would survive every redraw (fixed patterns are
    /// identical across trials and use a single batch).
    pub data_batches: usize,
}

impl Default for MajConfig {
    fn default() -> Self {
        MajConfig { data_batches: 6 }
    }
}

fn write_layout(
    setup: &mut TestSetup,
    group: &GroupSpec,
    layout: &MajLayout,
    operands: &[BitRow],
    rng: &mut Rng,
) -> Result<(), PudError> {
    let geometry = *setup.module().geometry();
    for (i, rows) in layout.operand_rows.iter().enumerate() {
        for &local in rows {
            setup.init_row(
                group.bank,
                geometry.join_row(group.subarray, local),
                &operands[i],
            )?;
        }
    }
    let neutral: Vec<_> = layout
        .neutral_rows
        .iter()
        .map(|&local| geometry.join_row(group.subarray, local))
        .collect();
    let plan = neutral_plan(setup);
    init_neutral_rows(setup, group.bank, &neutral, plan, rng)?;
    Ok(())
}

/// Success rate (0–1) of MAJX on `group`: expected fraction of bitlines
/// whose sense amplifiers resolve the correct majority in all trials,
/// minimised over data redraws for the random pattern (§3.3 methodology).
///
/// # Errors
///
/// Operand/group validation errors, plus sequencer errors.
pub fn majx_success(
    setup: &mut TestSetup,
    group: &GroupSpec,
    x: usize,
    timing: ApaTiming,
    pattern: DataPattern,
    config: &MajConfig,
    rng: &mut Rng,
) -> Result<f64, PudError> {
    let layout = plan_layout(group, x)?;
    let rows = expect_simultaneous(setup, group, timing)?;
    let geometry = *setup.module().geometry();
    let cols = geometry.cols_per_row as usize;
    let batches = if pattern.is_random() {
        config.data_batches.max(1)
    } else {
        1
    };

    let engine = setup.engine();
    let local_r_f = group.local_r_f(&geometry);
    // Trial-batched sensing: each data redraw writes its layout and
    // snapshots the group's voltage plane; one batched kernel pass then
    // senses every redraw at once (the variation planes are redraw-
    // invariant). Sensing consumes no randomness, so deferring it
    // leaves the RNG stream — and hence every sample — byte-identical
    // to the historical sense-per-redraw loop.
    let mut batch = SenseBatch::new(&rows, cols);
    let mut expecteds = Vec::with_capacity(batches);
    for _ in 0..batches {
        let operands: Vec<BitRow> = (0..x).map(|i| pattern.row_image(i, cols, rng)).collect();
        expecteds.push(majority(&operands));
        write_layout(setup, group, &layout, &operands, rng)?;
        let subarray = setup
            .module_mut()
            .bank_mut(group.bank)?
            .subarray(group.subarray);
        batch.snapshot_trial(subarray);
    }
    let subarray = setup
        .module_mut()
        .bank_mut(group.bank)?
        .subarray(group.subarray);
    let results = engine.sense_batch(subarray, &batch, local_r_f, timing);
    let min_margins = engine.margins_batch(subarray, &results, &expecteds);
    let mean: f64 = min_margins
        .iter()
        .map(|&m| engine.margin_survival(m))
        .sum::<f64>()
        / cols as f64;
    Ok(mean)
}

/// Functionally executes MAJX: replicates `operands` onto the group,
/// initialises neutral rows, performs the APA, commits the sensed result
/// into every open row, and returns the computed majority as resolved by
/// the (noise-sampled) sense amplifiers.
///
/// # Errors
///
/// Operand/group validation errors, plus sequencer errors.
pub fn exec_majx(
    setup: &mut TestSetup,
    group: &GroupSpec,
    operands: &[BitRow],
    timing: ApaTiming,
    rng: &mut Rng,
) -> Result<BitRow, PudError> {
    let x = operands.len();
    let layout = plan_layout(group, x)?;
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
    let rows = expect_simultaneous(setup, group, timing)?;
    write_layout(setup, group, &layout, operands, rng)?;
    let engine = setup.engine();
    let restore = engine.params().restore_strength(timing, setup.conditions());
    let local_r_f = group.local_r_f(&geometry);
    let subarray = setup
        .module_mut()
        .bank_mut(group.bank)?
        .subarray(group.subarray);
    let sense = engine.sense_sampled(subarray, &rows, local_r_f, timing, rng);
    engine.commit(subarray, &rows, &sense.resolved, restore);
    Ok(sense.resolved)
}

/// Convenience: a random operand set for tests and examples.
pub fn random_operands(x: usize, cols: usize, rng: &mut Rng) -> Vec<BitRow> {
    (0..x)
        .map(|_| BitRow::from_bits((0..cols).map(|_| rng.gen())))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rowgroup::random_group;
    use simra_dram::{BankId, SubarrayId, VendorProfile};

    fn setup() -> TestSetup {
        TestSetup::new(VendorProfile::mfr_h_m_die(), 21)
    }

    fn group(setup: &TestSetup, n: u32, seed: u64) -> GroupSpec {
        let mut rng = Rng::seed_from_u64(seed);
        random_group(
            setup.module().geometry(),
            BankId::new(0),
            SubarrayId::new(0),
            n,
            &mut rng,
        )
        .expect("group")
    }

    #[test]
    fn layout_replication_counts() {
        let s = setup();
        let g = group(&s, 32, 1);
        let l3 = plan_layout(&g, 3).unwrap();
        assert_eq!(l3.replication(), 10);
        assert_eq!(l3.neutral_rows.len(), 2);
        let l5 = plan_layout(&g, 5).unwrap();
        assert_eq!(l5.replication(), 6);
        assert_eq!(l5.neutral_rows.len(), 2);
        let l7 = plan_layout(&g, 7).unwrap();
        assert_eq!(l7.replication(), 4);
        assert_eq!(l7.neutral_rows.len(), 4);
        let l9 = plan_layout(&g, 9).unwrap();
        assert_eq!(l9.replication(), 3);
        assert_eq!(l9.neutral_rows.len(), 5);
    }

    #[test]
    fn layout_validation() {
        let s = setup();
        let g = group(&s, 4, 1);
        assert!(matches!(
            plan_layout(&g, 4),
            Err(PudError::BadOperandCount(4))
        ));
        assert!(matches!(
            plan_layout(&g, 1),
            Err(PudError::BadOperandCount(1))
        ));
        assert!(matches!(
            plan_layout(&g, 5),
            Err(PudError::GroupTooSmall { .. })
        ));
    }

    #[test]
    fn majority_reference() {
        let a = BitRow::from_bits([true, true, false, false]);
        let b = BitRow::from_bits([true, false, true, false]);
        let c = BitRow::from_bits([false, true, true, false]);
        let m = majority(&[a, b, c]);
        let bits: Vec<bool> = m.iter().collect();
        assert_eq!(bits, [true, true, true, false]);
    }

    #[test]
    fn majority_is_the_per_column_count() {
        // Every X up to 17 crosses the bit-sliced counter's plane
        // boundaries (X = 1, 2, 4, 8, 16) with odd and even counts.
        let mut rng = Rng::seed_from_u64(12);
        for cols in [1usize, 63, 64, 65, 129, 256] {
            for x in 1usize..=17 {
                let operands: Vec<BitRow> =
                    (0..x).map(|_| BitRow::random(&mut rng, cols)).collect();
                let want = BitRow::from_bits((0..cols).map(|c| {
                    let ones = operands.iter().filter(|o| o.get(c)).count();
                    ones * 2 > x
                }));
                assert_eq!(majority(&operands), want, "cols {cols}, X {x}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "equal widths")]
    fn majority_rejects_a_wider_operand() {
        majority(&[BitRow::ones(64), BitRow::ones(64), BitRow::ones(65)]);
    }

    #[test]
    #[should_panic(expected = "equal widths")]
    fn majority_rejects_a_narrower_operand() {
        majority(&[BitRow::ones(64), BitRow::zeros(63), BitRow::ones(64)]);
    }

    #[test]
    #[should_panic(expected = "needs operands")]
    fn majority_rejects_no_operands() {
        majority(&[]);
    }

    #[test]
    fn maj3_with_replication_beats_no_replication() {
        let mut s = setup();
        let mut rng = Rng::seed_from_u64(5);
        let g32 = group(&s, 32, 2);
        let g4 = group(&s, 4, 3);
        let cfg = MajConfig::default();
        let t = ApaTiming::best_for_majx();
        let s32 = majx_success(&mut s, &g32, 3, t, DataPattern::Random, &cfg, &mut rng).unwrap();
        let s4 = majx_success(&mut s, &g4, 3, t, DataPattern::Random, &cfg, &mut rng).unwrap();
        assert!(
            s32 > s4 + 0.1,
            "replication should help: 32-row {s32} vs 4-row {s4}"
        );
        assert!(s32 > 0.9, "MAJ3@32 should be strong, got {s32}");
    }

    #[test]
    fn success_ordering_maj3_to_maj9() {
        let mut s = setup();
        let mut rng = Rng::seed_from_u64(6);
        let g = group(&s, 32, 4);
        let cfg = MajConfig::default();
        let t = ApaTiming::best_for_majx();
        let mut rates = Vec::new();
        for x in [3usize, 5, 7, 9] {
            rates
                .push(majx_success(&mut s, &g, x, t, DataPattern::Random, &cfg, &mut rng).unwrap());
        }
        assert!(
            rates[0] > rates[1] && rates[1] > rates[2] && rates[2] > rates[3],
            "{rates:?}"
        );
    }

    #[test]
    fn exec_majx_computes_clear_majorities() {
        let mut s = setup();
        let mut rng = Rng::seed_from_u64(7);
        let g = group(&s, 32, 5);
        let cols = s.module().geometry().cols_per_row as usize;
        // All-equal operands: the majority is unambiguous everywhere.
        let ones = vec![BitRow::ones(cols); 3];
        let out = exec_majx(&mut s, &g, &ones, ApaTiming::best_for_majx(), &mut rng).unwrap();
        assert!(out.count_ones() as f64 / cols as f64 > 0.99);
    }

    #[test]
    fn exec_majx_rejects_width_mismatch() {
        let mut s = setup();
        let mut rng = Rng::seed_from_u64(8);
        let g = group(&s, 8, 6);
        let bad = vec![BitRow::ones(3); 3];
        assert!(matches!(
            exec_majx(&mut s, &g, &bad, ApaTiming::best_for_majx(), &mut rng),
            Err(PudError::InputWidth { .. })
        ));
    }

    #[test]
    fn consecutive_timing_is_rejected() {
        let mut s = setup();
        let mut rng = Rng::seed_from_u64(9);
        let g = group(&s, 8, 7);
        let err = majx_success(
            &mut s,
            &g,
            3,
            ApaTiming::row_clone(),
            DataPattern::Solid,
            &MajConfig::default(),
            &mut rng,
        )
        .unwrap_err();
        assert!(matches!(err, PudError::UnexpectedActivation { .. }));
    }

    #[test]
    fn fixed_pattern_beats_random() {
        let mut s = setup();
        let mut rng = Rng::seed_from_u64(10);
        let g = group(&s, 32, 8);
        let t = ApaTiming::best_for_majx();
        let cfg = MajConfig::default();
        let solid = majx_success(&mut s, &g, 5, t, DataPattern::Solid, &cfg, &mut rng).unwrap();
        let random = majx_success(&mut s, &g, 5, t, DataPattern::Random, &cfg, &mut rng).unwrap();
        assert!(solid >= random, "solid {solid} vs random {random}");
    }
}
