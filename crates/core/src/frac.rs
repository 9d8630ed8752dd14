//! The Frac operation (FracDRAM): parking a row's cells at VDD/2 so they
//! contribute (almost) nothing to a later charge-sharing operation.
//!
//! On real chips Frac interrupts a precharge mid-flight so the cell is
//! restored to the half-rail level; the result carries a per-cell residual
//! that our model draws from the calibrated `frac_residual_sigma`.
//! Mfr. M parts do not support Frac (footnote 5); callers emulate neutral
//! rows there with complementary all-0/all-1 pairs instead
//! ([`neutral_plan`]).

use simra_bender::TestSetup;
use simra_dram::{BankId, BitRow, Rng, RowAddr};

use crate::error::PudError;

/// How an operation should initialise its neutral rows on this part.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NeutralPlan {
    /// Frac every neutral row to VDD/2 (Mfr. H parts).
    Frac,
    /// Alternate all-0 / all-1 rows; the biased sense amplifiers make the
    /// leftovers resolve deterministically (Mfr. M parts, footnote 5).
    ComplementPairs,
}

/// Chooses the neutral-row strategy for the mounted module.
pub fn neutral_plan(setup: &TestSetup) -> NeutralPlan {
    if setup.module().profile().supports_frac {
        NeutralPlan::Frac
    } else {
        NeutralPlan::ComplementPairs
    }
}

/// Executes a Frac operation on one row: every cell is parked at VDD/2
/// plus a per-cell residual, clamped to the rails. Stuck cells of an
/// installed fault overlay keep their rail.
///
/// # Errors
///
/// Device errors for bad addresses; [`PudError::UnexpectedActivation`] if
/// the part does not support Frac.
pub fn frac_row(
    setup: &mut TestSetup,
    bank: BankId,
    row: RowAddr,
    rng: &mut Rng,
) -> Result<(), PudError> {
    if !setup.module().profile().supports_frac {
        return Err(PudError::UnexpectedActivation {
            expected: "a Frac-capable part (Mfr. H)".into(),
            got: format!("{}", setup.module().profile().manufacturer),
        });
    }
    let sigma = setup.engine().params().frac_residual_sigma;
    let geometry = *setup.module().geometry();
    let (sa_id, local) = geometry.split_row(row)?;
    let sa = setup.module_mut().bank_mut(bank)?.subarray(sa_id);
    let row = sa.row_voltages_mut(local);
    rng.fill_normals_f32(sigma, row);
    for v in row {
        *v = (0.5 + *v).clamp(0.0, 1.0);
    }
    sa.pin_row_faults(local);
    Ok(())
}

/// Initialises `rows` as neutral rows according to `plan`.
///
/// # Errors
///
/// Propagates device / capability errors.
pub fn init_neutral_rows(
    setup: &mut TestSetup,
    bank: BankId,
    rows: &[RowAddr],
    plan: NeutralPlan,
    rng: &mut Rng,
) -> Result<(), PudError> {
    match plan {
        NeutralPlan::Frac => {
            for &row in rows {
                frac_row(setup, bank, row, rng)?;
            }
        }
        NeutralPlan::ComplementPairs => {
            let cols = setup.module().geometry().cols_per_row as usize;
            for (i, &row) in rows.iter().enumerate() {
                let img = if i % 2 == 0 {
                    BitRow::zeros(cols)
                } else {
                    BitRow::ones(cols)
                };
                setup.init_row(bank, row, &img)?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use simra_analog::CircuitParams;
    use simra_dram::{CellFaultSpec, VendorProfile};

    #[test]
    fn frac_parks_cells_near_half_rail() {
        let mut setup = TestSetup::new(VendorProfile::mfr_h_m_die(), 1);
        let mut rng = Rng::seed_from_u64(0);
        let bank = BankId::new(0);
        let row = RowAddr::new(10);
        frac_row(&mut setup, bank, row, &mut rng).unwrap();
        let geometry = *setup.module().geometry();
        let (sa_id, local) = geometry.split_row(row).unwrap();
        let sa = setup.module_mut().bank_mut(bank).unwrap().subarray(sa_id);
        let volts = sa.row_voltages(local);
        let near = volts
            .iter()
            .filter(|&&v| (v - 0.5).abs() <= 3.5 * 0.12)
            .count();
        // Essentially all cells within 3.5 residual sigmas of VDD/2, and
        // none parked at a rail.
        assert!(near as f64 / sa.cols() as f64 > 0.99);
        for (col, &v) in volts.iter().enumerate() {
            assert!(v > 0.01 && v < 0.99, "cell {col} at rail: {v}");
        }
    }

    /// `frac_row`'s per-cell loop before residuals were drawn in
    /// batches, frozen as its oracle.
    fn frac_row_oracle(setup: &mut TestSetup, bank: BankId, row: RowAddr, rng: &mut Rng) {
        let sigma = setup.engine().params().frac_residual_sigma;
        let geometry = *setup.module().geometry();
        let (sa_id, local) = geometry.split_row(row).unwrap();
        let sa = setup.module_mut().bank_mut(bank).unwrap().subarray(sa_id);
        for v in sa.row_voltages_mut(local) {
            let residual = rng.standard_normal() * sigma;
            *v = (0.5 + residual as f32).clamp(0.0, 1.0);
        }
        sa.pin_row_faults(local);
    }

    #[test]
    fn frac_row_matches_the_per_cell_oracle() {
        let bank = BankId::new(0);
        let stuck = CellFaultSpec {
            seed: 9,
            stuck_per_million: 200_000.0,
            ..Default::default()
        };
        // The calibrated residual, and one wide enough to hit the clamp.
        for sigma in [None, Some(2.0)] {
            for faults in [None, Some(stuck)] {
                let setups: [TestSetup; 2] = std::array::from_fn(|_| {
                    let mut setup = TestSetup::new(VendorProfile::mfr_h_m_die(), 1);
                    setup.set_circuit_params(sigma.map(|frac_residual_sigma| CircuitParams {
                        frac_residual_sigma,
                        ..CircuitParams::calibrated()
                    }));
                    setup.module_mut().set_fault_spec(faults);
                    setup
                });
                let [mut batched, mut oracle] = setups;
                let (mut rng, mut oracle_rng) = (Rng::seed_from_u64(11), Rng::seed_from_u64(11));
                for row in [10, 11, 700, 1500] {
                    let row = RowAddr::new(row);
                    frac_row(&mut batched, bank, row, &mut rng).unwrap();
                    frac_row_oracle(&mut oracle, bank, row, &mut oracle_rng);
                    let bits = |setup: &mut TestSetup| -> Vec<u32> {
                        let geometry = *setup.module().geometry();
                        let (sa_id, local) = geometry.split_row(row).unwrap();
                        let sa = setup.module_mut().bank_mut(bank).unwrap().subarray(sa_id);
                        sa.row_voltages(local).iter().map(|v| v.to_bits()).collect()
                    };
                    let at = format!("sigma {sigma:?}, faults {faults:?}, {row:?}");
                    assert!(bits(&mut batched) == bits(&mut oracle), "{at}");
                }
                assert_eq!(rng.next_u64(), oracle_rng.next_u64(), "stream position");
            }
        }
    }

    #[test]
    fn frac_keeps_stuck_cells_on_their_rail_and_clamps_the_rest() {
        let bank = BankId::new(0);
        let row = RowAddr::new(10);
        // The calibrated residual, then one wide enough that many cells
        // land outside [0, 1] before the clamp.
        for sigma in [None, Some(2.0)] {
            let mut setup = TestSetup::new(VendorProfile::mfr_h_m_die(), 1);
            setup.set_circuit_params(sigma.map(|frac_residual_sigma| CircuitParams {
                frac_residual_sigma,
                ..CircuitParams::calibrated()
            }));
            let geometry = *setup.module().geometry();
            let (sa_id, local) = geometry.split_row(row).unwrap();
            let sa = setup.module_mut().bank_mut(bank).unwrap().subarray(sa_id);
            let overlay = CellFaultSpec {
                seed: 9,
                stuck_per_million: 200_000.0,
                ..Default::default()
            }
            .derive(sa.rows(), sa.cols(), 7);
            let stuck = overlay.stuck_in_row(local).to_vec();
            assert!(stuck.len() > 10, "the overlay must be dense");
            sa.set_faults(overlay);

            frac_row(&mut setup, bank, row, &mut Rng::seed_from_u64(4)).unwrap();
            let sa = setup.module_mut().bank_mut(bank).unwrap().subarray(sa_id);
            let volts = sa.row_voltages(local);
            for &(col, bit) in &stuck {
                let rail = if bit { 1.0 } else { 0.0 };
                assert_eq!(volts[col as usize], rail, "stuck cell {col} left its rail");
            }
            assert!(volts.iter().all(|v| (0.0..=1.0).contains(v)));
            if sigma.is_some() {
                let healthy_on_rails = (0..volts.len())
                    .filter(|&c| stuck.iter().all(|&(col, _)| col as usize != c))
                    .filter(|&c| volts[c] == 0.0 || volts[c] == 1.0)
                    .count();
                assert!(
                    healthy_on_rails > 10,
                    "the wide residual must hit the clamp"
                );
            }
        }
    }

    #[test]
    fn a_reset_module_after_frac_matches_a_fresh_one() {
        use simra_dram::DramModule;
        let bank = BankId::new(3);
        let spec = CellFaultSpec {
            seed: 5,
            stuck_per_million: 20_000.0,
            ..Default::default()
        };
        for faults in [None, Some(spec)] {
            let mut setup = TestSetup::new(VendorProfile::mfr_h_m_die(), 1);
            setup.module_mut().set_fault_spec(faults);
            let mut rng = Rng::seed_from_u64(6);
            for round in 0..2 {
                for row in [10, 11, 700, 1500] {
                    frac_row(&mut setup, bank, RowAddr::new(row), &mut rng).unwrap();
                }
                setup.module_mut().reset_for_reuse();
                let mut fresh = DramModule::new(VendorProfile::mfr_h_m_die(), 1);
                fresh.set_fault_spec(faults);
                let geometry = *fresh.geometry();
                let used = setup.module().bank(bank).unwrap();
                let fresh = fresh.bank_mut(bank).unwrap();
                for id in (0..geometry.subarrays_per_bank).map(simra_dram::SubarrayId::new) {
                    let Some(sa) = used.subarray_if_materialized(id) else {
                        continue;
                    };
                    let expected = fresh.subarray(id);
                    for row in 0..sa.rows() {
                        let bits = |sa: &simra_dram::Subarray| -> Vec<u32> {
                            sa.row_voltages(row).iter().map(|v| v.to_bits()).collect()
                        };
                        assert!(
                            bits(sa) == bits(expected),
                            "faults {faults:?}, round {round}, {id:?} row {row}"
                        );
                    }
                }
                assert_eq!(used.materialized_subarrays(), 3);
            }
        }
    }

    #[test]
    fn frac_rejected_on_non_frac_parts() {
        let mut setup = TestSetup::new(VendorProfile::mfr_m_e_die(), 1);
        let mut rng = Rng::seed_from_u64(0);
        let err = frac_row(&mut setup, BankId::new(0), RowAddr::new(0), &mut rng).unwrap_err();
        assert!(matches!(err, PudError::UnexpectedActivation { .. }));
    }

    #[test]
    fn plan_follows_vendor_capability() {
        let h = TestSetup::new(VendorProfile::mfr_h_m_die(), 1);
        let m = TestSetup::new(VendorProfile::mfr_m_e_die(), 1);
        assert_eq!(neutral_plan(&h), NeutralPlan::Frac);
        assert_eq!(neutral_plan(&m), NeutralPlan::ComplementPairs);
    }

    #[test]
    fn complement_pairs_alternate() {
        let mut setup = TestSetup::new(VendorProfile::mfr_m_e_die(), 1);
        let mut rng = Rng::seed_from_u64(0);
        let bank = BankId::new(0);
        let rows = [RowAddr::new(0), RowAddr::new(1), RowAddr::new(2)];
        init_neutral_rows(
            &mut setup,
            bank,
            &rows,
            NeutralPlan::ComplementPairs,
            &mut rng,
        )
        .unwrap();
        let cols = setup.module().geometry().cols_per_row as usize;
        assert_eq!(setup.read_row(bank, rows[0]).unwrap().count_ones(), 0);
        assert_eq!(setup.read_row(bank, rows[1]).unwrap().count_ones(), cols);
        assert_eq!(setup.read_row(bank, rows[2]).unwrap().count_ones(), 0);
    }

    #[test]
    fn frac_residual_is_seed_deterministic() {
        let run = |seed| {
            let mut setup = TestSetup::new(VendorProfile::mfr_h_m_die(), 1);
            let mut rng = Rng::seed_from_u64(seed);
            frac_row(&mut setup, BankId::new(0), RowAddr::new(5), &mut rng).unwrap();
            let geometry = *setup.module().geometry();
            let (sa_id, local) = geometry.split_row(RowAddr::new(5)).unwrap();
            let sa = setup
                .module_mut()
                .bank_mut(BankId::new(0))
                .unwrap()
                .subarray(sa_id);
            sa.row_voltages(local)[..8].to_vec()
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }
}
