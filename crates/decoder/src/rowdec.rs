//! The hierarchical row decoder: GWLD + two-stage LWLD with latching
//! predecoders, and the APA resolution logic built on top of it.

use simra_dram::ApaTiming;

use crate::apa::ApaOutcome;
use crate::predecoder::{paper_groups, PredecoderGroup, MAX_PREDECODERS};

/// `t2` at or below this keeps the predecoder latches set, producing
/// simultaneous activation; above it the wordline of `R_F` de-asserts and
/// the second `ACT` is a *consecutive* activation (RowClone). The paper
/// finds the boundary between 3 ns (Multi-RowCopy) and 6 ns (RowClone).
pub const SIMULTANEOUS_T2_MAX_NS: f64 = 3.0;

/// The row decoder of one subarray's LWLD.
///
/// Stateless with respect to experiments: [`RowDecoder::resolve_apa`]
/// resolves one APA sequence from a clean (precharged) state, which is
/// how every experiment in the paper begins. Building one allocates
/// nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowDecoder {
    /// The predecoder bit groups; the first `group_count` are used.
    groups: [PredecoderGroup; MAX_PREDECODERS],
    group_count: usize,
    subarray_rows: u32,
}

impl RowDecoder {
    /// A decoder for a subarray with `rows` rows (512, 640, or 1024 in the
    /// tested parts).
    ///
    /// # Panics
    ///
    /// Panics if `rows < 32` (fewer rows than the decoder has wordline
    /// combinations for a full 5-group split).
    pub fn for_subarray_rows(rows: u32) -> Self {
        assert!(
            rows >= 32,
            "subarray must have at least 32 rows, got {rows}"
        );
        let mut bits = 0;
        while (1u32 << bits) < rows {
            bits += 1;
        }
        let (groups, group_count) = paper_groups(bits);
        RowDecoder {
            groups,
            group_count,
            subarray_rows: rows,
        }
    }

    /// The predecoder bit groups, from the low address bits up.
    pub fn groups(&self) -> &[PredecoderGroup] {
        &self.groups[..self.group_count]
    }

    /// Rows in the subarray this decoder drives.
    pub fn subarray_rows(&self) -> u32 {
        self.subarray_rows
    }

    /// In how many predecoder groups two local row addresses differ.
    pub fn differing_groups(&self, a: u32, b: u32) -> u32 {
        self.groups()
            .iter()
            .filter(|g| g.output_for(a) != g.output_for(b))
            .count() as u32
    }

    /// Number of wordlines an APA targeting `(r_f, r_s)` would assert
    /// simultaneously, before clipping to the subarray size: `2^d`.
    pub fn activation_count(&self, r_f: u32, r_s: u32) -> u32 {
        1 << self.differing_groups(r_f, r_s)
    }

    /// The full set of local rows asserted when both addresses' predecode
    /// signals are latched: the Cartesian product of the latched outputs,
    /// clipped to rows that physically exist (640-row subarrays decode 10
    /// bits but only populate 640 wordlines). Ascending, with exactly the
    /// capacity it needs.
    pub fn simultaneous_rows(&self, r_f: u32, r_s: u32) -> Vec<u32> {
        // Each predecoder holds R_F's output and R_S's: one output where
        // they agree, two where they differ. Start from the row that takes
        // the lower output everywhere; the j-th differing predecoder then
        // doubles the set by flipping its field to the higher output.
        let mut lowest = 0;
        let mut flips = [0u32; MAX_PREDECODERS];
        let mut differing = 0;
        for g in self.groups() {
            let (f, s) = (g.output_for(r_f) << g.shift, g.output_for(r_s) << g.shift);
            lowest |= f.min(s);
            if f != s {
                flips[differing] = f ^ s;
                differing += 1;
            }
        }
        // Bit j of a row's index says whether it takes the higher output
        // of the j-th differing predecoder. Predecoders run from the low
        // address bits up, so the rows ascend with their index.
        let mut rows = [lowest; 1 << MAX_PREDECODERS];
        for (j, flip) in flips[..differing].iter().enumerate() {
            let (done, rest) = rows.split_at_mut(1 << j);
            for (row, below) in rest.iter_mut().zip(done.iter()) {
                *row = below ^ flip;
            }
        }
        let rows = &rows[..1 << differing];
        rows[..rows.partition_point(|&r| r < self.subarray_rows)].to_vec()
    }

    /// Resolves an APA sequence from a precharged bank.
    ///
    /// `guard` models the Samsung internal circuitry that ignores the
    /// timing-violating command pair (§9 Limitation 1).
    ///
    /// Callers must ensure `r_f` and `r_s` are within the subarray; this is
    /// validated here.
    ///
    /// # Panics
    ///
    /// Panics if either row is outside the subarray.
    pub fn resolve_apa(&self, r_f: u32, r_s: u32, timing: ApaTiming, guard: bool) -> ApaOutcome {
        assert!(
            r_f < self.subarray_rows && r_s < self.subarray_rows,
            "rows ({r_f}, {r_s}) outside subarray of {} rows",
            self.subarray_rows
        );
        if guard {
            return ApaOutcome::GuardedSingle { row: r_s };
        }
        if timing.t2.as_ns() <= SIMULTANEOUS_T2_MAX_NS {
            ApaOutcome::Simultaneous {
                rows: self.simultaneous_rows(r_f, r_s),
            }
        } else {
            ApaOutcome::Consecutive {
                first: r_f,
                second: r_s,
            }
        }
    }

    /// One-shot [`RowDecoder::resolve_apa`] for a subarray of `rows`
    /// rows — the single authority on APA row resolution. Everything
    /// that resolves an APA sequence against local row indices (the
    /// `simra-core` ops via the sequencer, the bender interpreter)
    /// funnels through this so the address-mapping model can never fork.
    ///
    /// # Panics
    ///
    /// Panics if either row is outside the subarray.
    pub fn resolve_in_subarray(
        rows: u32,
        r_f: u32,
        r_s: u32,
        timing: ApaTiming,
        guard: bool,
    ) -> ApaOutcome {
        Self::for_subarray_rows(rows).resolve_apa(r_f, r_s, timing, guard)
    }

    /// Finds a partner row for `r_f` such that APA activates exactly `n`
    /// rows (n must be a power of two ≤ 32): flips the lowest address bit
    /// of `log2(n)` distinct predecoder groups. Returns `None` if the
    /// resulting partner or any row of the product would fall outside the
    /// subarray (possible only for non-power-of-two subarrays) or if `n`
    /// exceeds the decoder's reach.
    pub fn partner_for_count(&self, r_f: u32, n: u32) -> Option<u32> {
        if !n.is_power_of_two() || n > (1 << self.group_count) {
            return None;
        }
        let d = n.trailing_zeros();
        let mut r_s = r_f;
        for g in self.groups().iter().take(d as usize) {
            r_s ^= 1 << g.shift;
        }
        if r_s >= self.subarray_rows {
            return None;
        }
        let rows = self.simultaneous_rows(r_f, r_s);
        (rows.len() == n as usize).then_some(r_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dec() -> RowDecoder {
        RowDecoder::for_subarray_rows(512)
    }

    #[test]
    fn same_row_apa_activates_one_row() {
        let rows = dec().simultaneous_rows(5, 5);
        assert_eq!(rows, vec![5]);
    }

    #[test]
    fn fig14_walkthrough_act0_act7() {
        // The paper's worked example: rows {0, 1, 6, 7}.
        assert_eq!(dec().simultaneous_rows(0, 7), vec![0, 1, 6, 7]);
    }

    #[test]
    fn act127_act128_opens_32_rows() {
        // The paper's 32-row example: 127 = 0b0_0111_1111 and
        // 128 = 0b0_1000_0000 differ in all five groups.
        let d = dec();
        assert_eq!(d.differing_groups(127, 128), 5);
        let rows = d.simultaneous_rows(127, 128);
        assert_eq!(rows.len(), 32);
        assert!(rows.contains(&127) && rows.contains(&128));
    }

    /// [`RowDecoder::simultaneous_rows`] as it was when each predecoder
    /// was simulated as a latch: `ACT R_F` and `ACT R_S` each latch one
    /// output, and the product grows group by group from the low address
    /// bits up. Frozen as the oracle for the bit arithmetic.
    fn latch_loop(d: &RowDecoder, r_f: u32, r_s: u32) -> Vec<u32> {
        let mut rows = vec![0u32];
        for g in d.groups() {
            let latched = 1u64 << g.output_for(r_f) | 1 << g.output_for(r_s);
            let base = rows.len();
            let mut outputs = (0..g.outputs()).filter(|&out| latched & 1 << out != 0);
            let lowest = outputs.next().expect("an ACT latches one output");
            for out in outputs {
                for i in 0..base {
                    rows.push(rows[i] | (out << g.shift));
                }
            }
            for row in &mut rows[..base] {
                *row |= lowest << g.shift;
            }
        }
        rows.retain(|r| *r < d.subarray_rows());
        rows
    }

    #[test]
    fn simultaneous_rows_equals_the_latch_loop() {
        // The tested parts' heights never reach past their last populated
        // row; 600 rows populate only part of their top predecoder block,
        // so the clip shows there.
        for rows in [64u32, 128, 256, 512, 600, 640, 1024] {
            let d = RowDecoder::for_subarray_rows(rows);
            for r_f in 0..rows {
                for r_s in 0..rows {
                    let set = d.simultaneous_rows(r_f, r_s);
                    assert_eq!(set, latch_loop(&d, r_f, r_s), "({r_f}, {r_s}) of {rows}");
                    assert_eq!(set.capacity(), set.len(), "({r_f}, {r_s}) of {rows}");
                }
            }
        }
    }

    #[test]
    fn counts_are_powers_of_two_only() {
        // The §7.1 law over every (R_F, R_S) pair: an APA opens 2^d rows,
        // d = the predecoder groups whose latched outputs differ, clipped
        // to the populated rows of a 640-row subarray; the set is
        // symmetric in (R_F, R_S) and closed under pairing its extreme
        // rows; the Samsung guard reduces every pair to R_S alone.
        let timing = ApaTiming::from_ns(3.0, 3.0);
        for rows in [64u32, 128, 256, 512, 640, 1024] {
            let d = RowDecoder::for_subarray_rows(rows);
            let unclipped = RowDecoder::for_subarray_rows(rows.next_power_of_two());
            let mut seen = std::collections::BTreeSet::new();
            // agree[a][r]: bit i set iff rows a and r assert the same
            // output of predecoder i.
            let all_groups = (1u8 << d.groups().len()) - 1;
            let agree: Vec<Vec<u8>> = (0..rows)
                .map(|a| {
                    (0..rows)
                        .map(|r| {
                            d.groups()
                                .iter()
                                .enumerate()
                                .filter(|(_, g)| g.output_for(a) == g.output_for(r))
                                .fold(0u8, |mask, (i, _)| mask | 1 << i)
                        })
                        .collect()
                })
                .collect();
            for r_f in 0..rows {
                for r_s in 0..rows {
                    let set = d.simultaneous_rows(r_f, r_s);
                    let n = 1usize << d.differing_groups(r_f, r_s);
                    let expected = if rows.is_power_of_two() {
                        n
                    } else {
                        unclipped
                            .simultaneous_rows(r_f, r_s)
                            .into_iter()
                            .filter(|&r| r < rows)
                            .count()
                    };
                    assert_eq!(set.len(), expected, "({r_f}, {r_s}) of {rows}");
                    // The set itself, in ascending order: row r opens iff
                    // every predecoder group's output for r is the one
                    // R_F or R_S latched.
                    let (from_f, from_s) = (&agree[r_f as usize], &agree[r_s as usize]);
                    let oracle: Vec<u32> = (0..rows)
                        .filter(|&r| from_f[r as usize] | from_s[r as usize] == all_groups)
                        .collect();
                    assert_eq!(set, oracle, "({r_f}, {r_s}) of {rows}");
                    assert!(set.contains(&r_f) && set.contains(&r_s));
                    assert!(set.iter().all(|&r| r < rows));
                    assert_eq!(
                        set,
                        d.simultaneous_rows(r_s, r_f),
                        "({r_f}, {r_s}) of {rows}: not symmetric"
                    );
                    let inner = d.simultaneous_rows(set[0], set[set.len() - 1]);
                    assert!(
                        inner.iter().all(|r| set.contains(r)),
                        "({r_f}, {r_s}) of {rows}: not closed under pairing"
                    );
                    assert_eq!(
                        d.resolve_apa(r_f, r_s, timing, true),
                        ApaOutcome::GuardedSingle { row: r_s }
                    );
                    seen.insert(n);
                }
            }
            // Limitation 2: only powers of two up to 2^groups ≤ 32 are
            // reachable (subarrays under 256 rows have four predecoders).
            assert_eq!(
                seen.into_iter().collect::<Vec<_>>(),
                (0..=d.groups().len()).map(|k| 1 << k).collect::<Vec<_>>(),
                "{rows}-row subarray"
            );
            assert!(1 << d.groups().len() <= 32, "{rows}-row subarray");
        }
    }

    #[test]
    fn partner_for_count_hits_every_n() {
        let d = dec();
        for n in [1u32, 2, 4, 8, 16, 32] {
            let r_s = d.partner_for_count(200, n).unwrap();
            assert_eq!(d.simultaneous_rows(200, r_s).len(), n as usize);
        }
        assert_eq!(d.partner_for_count(200, 64), None);
        assert_eq!(d.partner_for_count(200, 3), None);
    }

    #[test]
    fn product_always_contains_both_targets() {
        let d = dec();
        for (a, b) in [(0u32, 511u32), (13, 200), (400, 401), (255, 256)] {
            let rows = d.simultaneous_rows(a, b);
            assert!(rows.contains(&a), "missing {a}");
            assert!(rows.contains(&b), "missing {b}");
            assert_eq!(rows.len(), d.activation_count(a, b) as usize);
        }
    }

    #[test]
    fn timing_selects_outcome() {
        let d = dec();
        let sim = d.resolve_apa(0, 7, ApaTiming::from_ns(3.0, 3.0), false);
        assert!(matches!(sim, ApaOutcome::Simultaneous { .. }));
        let cons = d.resolve_apa(0, 7, ApaTiming::row_clone(), false);
        assert_eq!(
            cons,
            ApaOutcome::Consecutive {
                first: 0,
                second: 7
            }
        );
    }

    #[test]
    fn guard_degenerates_to_single() {
        let out = dec().resolve_apa(0, 7, ApaTiming::from_ns(3.0, 3.0), true);
        assert_eq!(out, ApaOutcome::GuardedSingle { row: 7 });
    }

    #[test]
    fn non_power_of_two_subarray_clips_product() {
        // 640-row subarray decodes 10 bits; products can fall in the
        // unpopulated 640..1024 range and must be clipped.
        let d = RowDecoder::for_subarray_rows(640);
        let rows = d.simultaneous_rows(0, 639);
        assert!(rows.iter().all(|r| *r < 640));
        assert!(rows.len() <= 32);
    }

    #[test]
    #[should_panic(expected = "outside subarray")]
    fn out_of_subarray_rows_panic() {
        dec().resolve_apa(0, 512, ApaTiming::from_ns(3.0, 3.0), false);
    }

    #[test]
    fn micron_1024_row_subarray_reaches_32() {
        let d = RowDecoder::for_subarray_rows(1024);
        // Find some pair differing in all five groups.
        let r_s = d.partner_for_count(0, 32).unwrap();
        assert_eq!(d.simultaneous_rows(0, r_s).len(), 32);
    }
}
