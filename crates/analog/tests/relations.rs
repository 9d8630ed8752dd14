//! Metamorphic relations of the analog model.
//!
//! The kernel's unit tests pin absolute values on ideal planes, and
//! `hotpath_identity.rs` pins the batched kernel to the scalar one.
//! Neither says how the output must move when the *input* moves. These
//! relations do, with no reference values at all:
//!
//! - inverting every opened row's data negates every bitline delta;
//! - two rows holding one operand at weight `w` are one row at `2w` —
//!   the input-replication identity behind the MAJX results (Fig. 6's
//!   replication sweep; the Boolean-logic sibling paper, arXiv
//!   2402.18736, builds on the same identity);
//! - a Frac neutral row, parked at ½ V, only adds its capacitance to the
//!   bitline — the neutral row the sibling paper's Boolean operations
//!   open next to their operands.
//!
//! Each case draws from its own `Rng::seed_from_u64(case)`.

use simra_analog::charge::bitline_deltas_batch_into;
use simra_analog::{ApaEngine, CircuitParams, OperatingConditions, SenseBatch};
use simra_dram::subarray::VariationParams;
use simra_dram::{ApaTiming, BitRow, Rng, Subarray};

/// Cases per relation.
const CASES: u64 = 256;

/// `n` distinct rows of a `rows`-row subarray, in random order (a
/// partial Fisher–Yates shuffle).
fn distinct_rows(n: usize, rows: u32, rng: &mut Rng) -> Vec<u32> {
    let mut pool: Vec<u32> = (0..rows).collect();
    for i in 0..n {
        let j = rng.gen_range(i..pool.len());
        pool.swap(i, j);
    }
    pool.truncate(n);
    pool
}

/// Writing the complement of every opened row's image negates every
/// column's delta, whatever the variation planes, R_F, timing,
/// operating point or amplifier bias. Cells sit on the 0/1 rails, so
/// `v − ½` is exactly `±½` and the negation is exact; deltas compare as
/// `f64` values, so `+0` equals `−0`.
#[test]
fn inverting_the_data_negates_the_deltas() {
    const WIDTHS: [usize; 3] = [64, 256, 512];
    const GROUPS: [usize; 5] = [2, 4, 8, 16, 32];
    const SUBARRAY_ROWS: u32 = 64;
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(case);
        let cols = WIDTHS[rng.gen_range(0..WIDTHS.len())];
        let n = GROUPS[rng.gen_range(0..GROUPS.len())];
        let seed = rng.gen_range(0..1u64 << 48);
        let rows = distinct_rows(n, SUBARRAY_ROWS, &mut rng);
        let first_row = rows[rng.gen_range(0..n)];
        let timing = [
            ApaTiming::best_for_majx(),
            ApaTiming::best_for_activation(),
            ApaTiming::from_ns(1.5, 1.5),
        ][rng.gen_range(0..3usize)];
        let cond = [
            OperatingConditions::nominal(),
            OperatingConditions::with_temperature(90.0),
            OperatingConditions::with_vpp(2.1),
        ][rng.gen_range(0..3usize)];
        let biased = rng.gen::<bool>();
        let at = format!(
            "case {case}: cols {cols}, seed {seed}, rows {rows:?}, R_F {first_row}, \
             {timing:?}, {cond:?}, biased {biased}"
        );

        let mut sa = Subarray::new(SUBARRAY_ROWS, cols as u32, VariationParams::default(), seed);
        let images: Vec<BitRow> = (0..n).map(|_| BitRow::random(&mut rng, cols)).collect();
        let complements: Vec<BitRow> = images.iter().map(BitRow::complement).collect();
        let mut batch = SenseBatch::new(&rows, cols);
        for set in [&images, &complements] {
            for (&row, image) in rows.iter().zip(set) {
                sa.write_row(row, image).unwrap();
            }
            batch.snapshot_trial(&sa);
        }
        let engine = ApaEngine::new(CircuitParams::calibrated(), cond, biased);
        let results = engine.sense_batch(&sa, &batch, first_row, timing);
        assert_eq!(results.len(), 2, "{at}");
        let (data, inverted) = (&results[0].deltas, &results[1].deltas);
        assert_eq!(inverted.len(), cols, "{at}");
        for (c, (&d, &i)) in data.iter().zip(inverted).enumerate() {
            assert!(i == -d, "{at}, column {c}: delta {d}, inverted {i}");
        }
    }
}

/// On zero-variation planes, a list that opens two rows holding one
/// image at weight `w` produces the same kernel output, bit for bit,
/// as the list that opens one row holding that image at weight `2w`,
/// next to 1–7 other rows with their own data. The replicated operand
/// leads both lists, so its contribution enters the accumulator as
/// `(0 + x) + x` against `0 + 2x`, equal in floating point, and the
/// other rows then add the same terms in the same order.
#[test]
fn replicating_a_row_equals_doubling_its_weight() {
    const WIDTHS: [usize; 6] = [1, 7, 64, 65, 129, 256];
    const SUBARRAY_ROWS: u32 = 16;
    let ideal = VariationParams {
        cell_cap_sigma: 0.0,
        cell_strength_sigma: 0.0,
        sense_offset_sigma: 0.0,
    };
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(case);
        let cols = WIDTHS[rng.gen_range(0..WIDTHS.len())];
        let others = rng.gen_range(1usize..=7);
        let w = [1.0, 1.5, 2.0][rng.gen_range(0..3usize)];
        let trials = rng.gen_range(1usize..=3);
        let transfer_amp = rng.gen_range(1.0..30.0);
        let assertion = rng.gen_range(0.5..1.5);
        let beta = rng.gen_range(2.0..8.0);
        let rows = distinct_rows(2 + others, SUBARRAY_ROWS, &mut rng);
        let at = format!("case {case}: cols {cols}, w {w}, rows {rows:?}, {trials} trials");

        // `rows[0]` and `rows[1]` hold the replicated operand.
        let rest = rows[2..].iter().map(|&r| (r, 1.0));
        let replicated: Vec<(u32, f64)> = [(rows[0], w), (rows[1], w)]
            .into_iter()
            .chain(rest.clone())
            .collect();
        let doubled: Vec<(u32, f64)> = std::iter::once((rows[0], 2.0 * w)).chain(rest).collect();

        let mut sa = Subarray::new(SUBARRAY_ROWS, cols as u32, ideal, case);
        let (mut v_replicated, mut v_doubled) = (Vec::new(), Vec::new());
        for _ in 0..trials {
            let operand = BitRow::random(&mut rng, cols);
            sa.write_row(rows[0], &operand).unwrap();
            sa.write_row(rows[1], &operand).unwrap();
            for &row in &rows[2..] {
                sa.write_row(row, &BitRow::random(&mut rng, cols)).unwrap();
            }
            for (list, voltages) in [(&replicated, &mut v_replicated), (&doubled, &mut v_doubled)] {
                for &(row, _) in list.iter() {
                    voltages.extend_from_slice(&sa.row_voltages(row)[..cols]);
                }
            }
        }
        let kernel = |list: &[(u32, f64)], voltages: &[f32]| {
            let (mut cap, mut out) = (Vec::new(), Vec::new());
            #[rustfmt::skip]
            bitline_deltas_batch_into(
                &sa, list, voltages, trials, transfer_amp, assertion, beta, &mut cap, &mut out,
            );
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            (bits(&out), bits(&cap))
        };
        let (out_r, cap_r) = kernel(&replicated, &v_replicated);
        let (out_d, cap_d) = kernel(&doubled, &v_doubled);
        assert_eq!(out_r.len(), trials * cols, "{at}");
        assert_eq!(out_r, out_d, "{at}: deltas");
        assert_eq!(cap_r, cap_d, "{at}: capacitance sums");
    }
}

/// On zero-variation planes, a row parked at exactly ½ V (Frac's target
/// level with no residual) moves no charge: opening it at weight `w`
/// next to 1–31 rows of random data gives the same deltas, bit for bit,
/// as the list without it at bitline capacitance `β + w`. The parked
/// row's term `w · (½ − ½)` is `+0`, which leaves the accumulator
/// unchanged wherever the row sits in the list, and with `β` and every
/// weight a multiple of ½ each capacitance sum is exact in either
/// grouping.
#[test]
fn a_neutral_row_only_adds_capacitance() {
    const WIDTHS: [usize; 6] = [1, 7, 64, 65, 129, 256];
    const SUBARRAY_ROWS: u32 = 32;
    let ideal = VariationParams {
        cell_cap_sigma: 0.0,
        cell_strength_sigma: 0.0,
        sense_offset_sigma: 0.0,
    };
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(case);
        let cols = WIDTHS[rng.gen_range(0..WIDTHS.len())];
        let others = rng.gen_range(1usize..=31);
        let w = [1.0, 1.5, 2.0][rng.gen_range(0..3usize)];
        let beta = [2.0, 6.0, 7.5][rng.gen_range(0..3usize)];
        let trials = rng.gen_range(1usize..=3);
        let transfer_amp = rng.gen_range(1.0..30.0);
        let assertion = rng.gen_range(0.5..1.5);
        let rows = distinct_rows(1 + others, SUBARRAY_ROWS, &mut rng);
        let slot = rng.gen_range(0..=others);
        let at = format!(
            "case {case}: cols {cols}, w {w}, beta {beta}, rows {rows:?}, \
             neutral at {slot}, {trials} trials"
        );

        // `rows[0]` is the neutral row; the rest hold data at weight 1.
        let (neutral, data) = (rows[0], &rows[1..]);
        let without: Vec<(u32, f64)> = data.iter().map(|&r| (r, 1.0)).collect();
        let mut with = without.clone();
        with.insert(slot, (neutral, w));

        let mut sa = Subarray::new(SUBARRAY_ROWS, cols as u32, ideal, case);
        sa.set_row_voltage(neutral, 0.5).unwrap();
        let (mut v_with, mut v_without) = (Vec::new(), Vec::new());
        for _ in 0..trials {
            for &row in data {
                sa.write_row(row, &BitRow::random(&mut rng, cols)).unwrap();
            }
            for (list, voltages) in [(&with, &mut v_with), (&without, &mut v_without)] {
                for &(row, _) in list.iter() {
                    voltages.extend_from_slice(&sa.row_voltages(row)[..cols]);
                }
            }
        }
        let kernel = |list: &[(u32, f64)], voltages: &[f32], beta: f64| {
            let (mut cap, mut out) = (Vec::new(), Vec::new());
            #[rustfmt::skip]
            bitline_deltas_batch_into(
                &sa, list, voltages, trials, transfer_amp, assertion, beta, &mut cap, &mut out,
            );
            out.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        };
        let out_with = kernel(&with, &v_with, beta);
        let out_without = kernel(&without, &v_without, beta + w);
        assert_eq!(out_with.len(), trials * cols, "{at}");
        assert_eq!(out_with, out_without, "{at}: deltas");
    }
}
