//! RowClone: in-DRAM row-to-row copy via *consecutive* activation
//! (§2.2). The first ACT latches the source into the sense amplifiers;
//! after a full tRAS and a partially-elapsed precharge, the second ACT
//! connects the destination row, which the amps overwrite.

use simra_bender::TestSetup;
use simra_decoder::ApaOutcome;
use simra_dram::{ApaTiming, BankId, RowAddr};

use crate::error::PudError;

/// Functionally copies `src` onto `dst` (both bank-level addresses in the
/// same subarray). Returns the number of destination cells that failed to
/// take the copy (0 in the overwhelmingly common case).
///
/// # Errors
///
/// Cross-subarray pairs and address errors; `UnexpectedActivation` if the
/// decoder did not produce a consecutive activation.
pub fn exec_rowclone(
    setup: &mut TestSetup,
    bank: BankId,
    src: RowAddr,
    dst: RowAddr,
) -> Result<usize, PudError> {
    let timing = ApaTiming::row_clone();
    let (sa, outcome) = setup.resolve_apa(bank, src, dst, timing)?;
    let geometry = *setup.module().geometry();
    let (_, dst_local) = geometry.split_row(dst)?;
    match outcome {
        ApaOutcome::Consecutive { second, .. } if second == dst_local => {}
        other => {
            return Err(PudError::UnexpectedActivation {
                expected: "consecutive activation (RowClone)".into(),
                got: format!("{other:?}"),
            })
        }
    }
    // The amps latched the source during the fully-timed first activation.
    let source_image = setup.read_row(bank, src)?;
    let engine = setup.engine();
    let restore = engine.params().restore_strength(timing, setup.conditions());
    let latch_q = engine.params().mrc_latch_quality(timing.t1.as_ns());
    debug_assert!(
        latch_q >= 1.0,
        "RowClone waits out tRAS; the latch is clean"
    );
    let subarray = setup.module_mut().bank_mut(bank)?.subarray(sa);
    Ok(engine.commit(subarray, &[dst_local], &source_image, restore))
}

#[cfg(test)]
mod tests {
    use super::*;
    use simra_dram::{BitRow, DataPattern, Rng, VendorProfile};

    #[test]
    fn clone_copies_data_within_subarray() {
        let mut s = TestSetup::new(VendorProfile::mfr_h_m_die(), 33);
        let cols = s.module().geometry().cols_per_row as usize;
        let mut rng = Rng::seed_from_u64(1);
        let img = DataPattern::Random.row_image(0, cols, &mut rng);
        let bank = BankId::new(0);
        let src = RowAddr::new(17);
        let dst = RowAddr::new(101);
        s.init_row(bank, src, &img).unwrap();
        s.init_row(bank, dst, &BitRow::zeros(cols)).unwrap();
        let failures = exec_rowclone(&mut s, bank, src, dst).unwrap();
        assert_eq!(failures, 0);
        assert_eq!(s.read_row(bank, dst).unwrap(), img);
        // Source is untouched.
        assert_eq!(s.read_row(bank, src).unwrap(), img);
    }

    #[test]
    fn clone_across_subarrays_fails() {
        let mut s = TestSetup::new(VendorProfile::mfr_h_m_die(), 33);
        let err =
            exec_rowclone(&mut s, BankId::new(0), RowAddr::new(0), RowAddr::new(600)).unwrap_err();
        assert!(matches!(err, PudError::Sequencer(_)));
    }

    #[test]
    fn samsung_guard_blocks_rowclone() {
        let mut s = TestSetup::new(VendorProfile::mfr_s(), 33);
        let err =
            exec_rowclone(&mut s, BankId::new(0), RowAddr::new(0), RowAddr::new(9)).unwrap_err();
        assert!(matches!(err, PudError::UnexpectedActivation { .. }));
    }
}
