//! The predecoders of LWLD Stage 1 (the paper's `P` signals): which
//! row-address bits each one decodes. A predecoder latches the output its
//! address asserts until a properly timed precharge clears it, so after
//! an APA it holds `R_F`'s output and `R_S`'s; [`crate::RowDecoder`]
//! computes the rows those outputs open from the two addresses directly.

/// A contiguous group of row-address bits handled by one predecoder.
///
/// The paper's Fig. 14 example implies the first predecoder (A) covers one
/// address bit (two outputs `P_A0`, `P_A1`) and the others cover two bits
/// each (four outputs): row 0 asserts `{P_A0, P_B0}`, row 7 = `0b111`
/// asserts `{P_A1, P_B3}`, and the product is rows {0, 1, 6, 7} — exactly
/// what the paper reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PredecoderGroup {
    /// Lowest row-address bit this predecoder decodes.
    pub shift: u32,
    /// Number of bits (⇒ `2^width` one-hot outputs).
    pub width: u32,
}

impl PredecoderGroup {
    /// The one-hot output index this group asserts for `addr`.
    pub fn output_for(&self, addr: u32) -> u32 {
        (addr >> self.shift) & ((1 << self.width) - 1)
    }

    /// Number of one-hot outputs.
    pub fn outputs(&self) -> u32 {
        1 << self.width
    }
}

/// Most predecoders a subarray's decoder has ([`paper_groups`] never
/// returns more), so APA opens at most `2^MAX_PREDECODERS` = 32 rows.
pub const MAX_PREDECODERS: usize = 5;

/// Splits `bits` row-address bits into the five predecoder groups of the
/// hypothesised design: 1-bit group A, then 2-bit groups, with the last
/// group absorbing any remainder (e.g. 10-bit Micron subarrays get a 3-bit
/// group E). Five predecoders bound simultaneous activation at 2^5 = 32
/// rows, matching the paper's hypothesis.
///
/// Returns the groups in a fixed array and how many of its leading
/// entries are used; the rest are zero-width.
pub fn paper_groups(bits: u32) -> ([PredecoderGroup; MAX_PREDECODERS], usize) {
    assert!(
        (5..=13).contains(&bits),
        "in-subarray address must be 5..=13 bits, got {bits}"
    );
    // One 1-bit group, then 2-bit groups, with the fifth (last) group
    // absorbing whatever remains. Subarrays smaller than 2^8 rows simply
    // get fewer predecoders (and a lower simultaneous-activation bound).
    let mut groups = [PredecoderGroup { shift: 0, width: 0 }; MAX_PREDECODERS];
    groups[0].width = 1;
    let (mut len, mut shift) = (1, 1);
    while shift < bits && len < MAX_PREDECODERS {
        let width = if len == MAX_PREDECODERS - 1 {
            bits - shift
        } else {
            2.min(bits - shift)
        };
        groups[len] = PredecoderGroup { shift, width };
        len += 1;
        shift += width;
    }
    (groups, len)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_for_extracts_bit_group() {
        let g = PredecoderGroup { shift: 1, width: 2 };
        assert_eq!(g.output_for(0b000), 0);
        assert_eq!(g.output_for(0b111), 3);
        assert_eq!(g.output_for(0b101), 2);
        assert_eq!(g.outputs(), 4);
    }

    #[test]
    fn paper_groups_cover_all_bits_disjointly() {
        for bits in [9u32, 10, 11] {
            let (groups, len) = paper_groups(bits);
            assert_eq!(len, 5, "five predecoders for real subarray sizes");
            let covered: u32 = groups.iter().map(|g| g.width).sum();
            assert_eq!(covered, bits);
            // Disjoint and contiguous.
            let mut shift = 0;
            for g in &groups {
                assert_eq!(g.shift, shift);
                shift += g.width;
            }
        }
    }

    #[test]
    fn fig14_signal_assignment() {
        // Row 0 → {P_A0, P_B0}; Row 7 → {P_A1, P_B3} per the paper.
        let (groups, _) = paper_groups(9);
        assert_eq!(groups[0].output_for(0), 0);
        assert_eq!(groups[1].output_for(0), 0);
        assert_eq!(groups[0].output_for(7), 1);
        assert_eq!(groups[1].output_for(7), 3);
    }

    #[test]
    fn small_subarrays_get_fewer_predecoders() {
        // 64-row (6-bit) synthetic subarrays: 1 + 2 + 2 + 1 bits.
        let (groups, len) = paper_groups(6);
        assert_eq!(len, 4);
        assert_eq!(groups.iter().map(|g| g.width).sum::<u32>(), 6);
        assert_eq!(groups[len].width, 0, "unused entries are zero-width");
        // 5-bit: 1 + 2 + 2.
        assert_eq!(paper_groups(5).1, 3);
    }

    #[test]
    #[should_panic(expected = "in-subarray address")]
    fn too_few_bits_rejected() {
        paper_groups(3);
    }
}
