//! The DRAM module: a vendor profile plus a set of banks.
//!
//! Ranks and chips are collapsed: the paper's per-chip results are
//! per-bank/per-subarray statistics, and lockstep chips behave identically
//! at the abstraction level of this model. A "module" here is the unit the
//! tester plugs in and sweeps.

use crate::bank::Bank;
use crate::error::DramError;
use crate::faults::CellFaultSpec;
use crate::geometry::{BankId, Geometry};
use crate::subarray::VariationParams;
use crate::vendor::VendorProfile;

/// A modelled DDR4 module.
#[derive(Debug, Clone, PartialEq)]
pub struct DramModule {
    profile: VendorProfile,
    seed: u64,
    banks: Vec<Bank>,
}

impl DramModule {
    /// Creates a module with the given vendor `profile`; `seed` stamps the
    /// process variation of every subarray in the module.
    pub fn new(profile: VendorProfile, seed: u64) -> Self {
        let variation = VariationParams {
            cell_cap_sigma: VariationParams::default().cell_cap_sigma
                * profile.cell_variation_scale,
            cell_strength_sigma: VariationParams::default().cell_strength_sigma
                * profile.cell_variation_scale,
            sense_offset_sigma: VariationParams::default().sense_offset_sigma
                * profile.sense_offset_scale,
        };
        let banks = (0..profile.geometry.banks)
            .map(|b| {
                let bank_seed = seed
                    .wrapping_mul(0xD1B5_4A32_D192_ED03)
                    .wrapping_add(b as u64 + 1);
                Bank::new(profile.geometry, variation, bank_seed)
            })
            .collect();
        DramModule {
            profile,
            seed,
            banks,
        }
    }

    /// The module's vendor profile.
    pub fn profile(&self) -> &VendorProfile {
        &self.profile
    }

    /// The module's geometry (shortcut for `profile().geometry`).
    pub fn geometry(&self) -> &Geometry {
        &self.profile.geometry
    }

    /// The seed this module's silicon was stamped from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of banks.
    pub fn bank_count(&self) -> u16 {
        self.banks.len() as u16
    }

    /// Immutable access to a bank.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::BankOutOfRange`] for a bad bank id.
    pub fn bank(&self, id: BankId) -> Result<&Bank, DramError> {
        self.banks
            .get(id.raw() as usize)
            .ok_or(DramError::BankOutOfRange {
                bank: id,
                banks: self.bank_count(),
            })
    }

    /// Mutable access to a bank.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::BankOutOfRange`] for a bad bank id.
    pub fn bank_mut(&mut self, id: BankId) -> Result<&mut Bank, DramError> {
        let banks = self.bank_count();
        self.banks
            .get_mut(id.raw() as usize)
            .ok_or(DramError::BankOutOfRange { bank: id, banks })
    }

    /// Iterates over bank ids.
    pub fn bank_ids(&self) -> impl Iterator<Item = BankId> {
        (0..self.bank_count()).map(BankId::new)
    }

    /// Returns every bank to its exact just-constructed state while
    /// keeping the materialised subarrays (and their fault overlays)
    /// alive, so a pooled module rig can be reused across sweep points
    /// without re-allocating voltage planes or re-deriving overlays.
    /// After this call the module is observationally identical to a fresh
    /// [`DramModule::new`] with the same `(profile, seed)` and fault spec.
    pub fn reset_for_reuse(&mut self) {
        for bank in &mut self.banks {
            bank.reset_for_reuse();
        }
    }

    /// Installs (or, with `None`, clears) a cell-fault spec on every bank
    /// of the module. Defect positions are keyed by each subarray's
    /// silicon seed, so the same `(module seed, spec)` pair always grows
    /// the same defects — and the derivation draws from a dedicated
    /// stream, leaving all fault-free RNG streams untouched.
    pub fn set_fault_spec(&mut self, spec: Option<CellFaultSpec>) {
        for bank in &mut self.banks {
            bank.set_fault_spec(spec);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vendor::VendorProfile;

    #[test]
    fn module_has_profile_bank_count() {
        let m = DramModule::new(VendorProfile::mfr_h_m_die(), 1);
        assert_eq!(m.bank_count(), 16);
        assert_eq!(m.bank_ids().count(), 16);
    }

    #[test]
    fn bank_access_bounds_checked() {
        let mut m = DramModule::new(VendorProfile::mfr_h_m_die(), 1);
        assert!(m.bank(BankId::new(15)).is_ok());
        assert!(m.bank(BankId::new(16)).is_err());
        assert!(m.bank_mut(BankId::new(16)).is_err());
    }

    #[test]
    fn module_silicon_is_seed_deterministic() {
        let mut a = DramModule::new(VendorProfile::mfr_h_m_die(), 77);
        let mut b = DramModule::new(VendorProfile::mfr_h_m_die(), 77);
        let sa_a = a
            .bank_mut(BankId::new(0))
            .unwrap()
            .subarray(crate::geometry::SubarrayId::new(0))
            .clone();
        let sa_b = b
            .bank_mut(BankId::new(0))
            .unwrap()
            .subarray(crate::geometry::SubarrayId::new(0))
            .clone();
        assert_eq!(sa_a, sa_b);
    }

    #[test]
    fn different_banks_different_silicon() {
        let mut m = DramModule::new(VendorProfile::mfr_h_m_die(), 77);
        let s0 = m
            .bank_mut(BankId::new(0))
            .unwrap()
            .subarray(crate::geometry::SubarrayId::new(0))
            .silicon()
            .value_bits();
        let s1 = m
            .bank_mut(BankId::new(1))
            .unwrap()
            .subarray(crate::geometry::SubarrayId::new(0))
            .silicon()
            .value_bits();
        assert_ne!(s0, s1);
    }

    #[test]
    fn reset_for_reuse_matches_fresh_module() {
        use crate::data::BitRow;
        use crate::geometry::RowAddr;
        let mut used = DramModule::new(VendorProfile::mfr_h_m_die(), 77);
        let cols = used.geometry().cols_per_row as usize;
        used.bank_mut(BankId::new(2))
            .unwrap()
            .write_row_nominal(RowAddr::new(600), &BitRow::ones(cols))
            .unwrap();
        used.reset_for_reuse();
        let mut fresh = DramModule::new(VendorProfile::mfr_h_m_die(), 77);
        let sa_id = crate::geometry::SubarrayId::new(1);
        assert_eq!(
            used.bank_mut(BankId::new(2)).unwrap().subarray(sa_id),
            fresh.bank_mut(BankId::new(2)).unwrap().subarray(sa_id),
        );
    }

    #[test]
    fn reuse_matches_fresh_module_bit_for_bit() {
        use crate::data::BitRow;
        use crate::geometry::{RowAddr, SubarrayId};
        use crate::Rng;
        let spec = CellFaultSpec {
            seed: 0xFA,
            stuck_per_million: 10_000.0,
            sense_offset_shift: 0.005,
        };
        let mut rng = Rng::seed_from_u64(41);
        let mut used = DramModule::new(VendorProfile::mfr_h_m_die(), 77);
        let cols = used.geometry().cols_per_row as usize;
        let rows = used.geometry().rows_per_bank();
        for (round, faults) in [None, Some(spec), Some(spec), None].into_iter().enumerate() {
            used.set_fault_spec(faults);
            for bank in [0u16, 5, 15] {
                let bank = used.bank_mut(BankId::new(bank)).unwrap();
                for _ in 0..4 {
                    let row = RowAddr::new(rng.gen_range(0..rows));
                    let img = BitRow::random(&mut rng, cols);
                    bank.write_row_nominal(row, &img).unwrap();
                }
                bank.subarray(SubarrayId::new(1))
                    .set_row_voltage(9, 0.5)
                    .unwrap();
            }
            used.reset_for_reuse();
            let mut fresh = DramModule::new(VendorProfile::mfr_h_m_die(), 77);
            fresh.set_fault_spec(faults);
            for bank in used.bank_ids() {
                let used_bank = used.bank(bank).unwrap();
                let fresh_bank = fresh.bank_mut(bank).unwrap();
                for id in (0..used_bank.geometry().subarrays_per_bank).map(SubarrayId::new) {
                    let Some(sa) = used_bank.subarray_if_materialized(id) else {
                        continue;
                    };
                    assert!(
                        sa.voltage_bits() == fresh_bank.subarray(id).voltage_bits(),
                        "round {round}, bank {bank:?}, subarray {id:?}"
                    );
                }
            }
            assert!(used == fresh, "round {round}");
        }
    }

    #[test]
    fn fault_spec_reaches_every_bank() {
        let mut m = DramModule::new(VendorProfile::mfr_h_m_die(), 9);
        m.set_fault_spec(Some(CellFaultSpec {
            seed: 0xFA,
            stuck_per_million: 10_000.0,
            sense_offset_shift: 0.0,
        }));
        for b in [0u16, 7, 15] {
            let sa = m
                .bank_mut(BankId::new(b))
                .unwrap()
                .subarray(crate::geometry::SubarrayId::new(0));
            assert!(
                sa.faults().is_some_and(|f| f.stuck_count() > 0),
                "bank {b} missing its overlay"
            );
        }
    }

    #[test]
    fn vendor_variation_scales_apply() {
        // Mfr. M has a larger sense-offset scale; check it propagates by
        // comparing offset magnitudes statistically.
        let mut h = DramModule::new(VendorProfile::mfr_h_m_die(), 5);
        let mut m = DramModule::new(VendorProfile::mfr_m_e_die(), 5);
        let sum_abs = |module: &mut DramModule| -> f32 {
            let bank = module.bank_mut(BankId::new(0)).unwrap();
            let sa = bank.subarray(crate::geometry::SubarrayId::new(0));
            (0..sa.cols())
                .map(|c| sa.sense_offset(c).abs())
                .sum::<f32>()
                / sa.cols() as f32
        };
        let h_avg = sum_abs(&mut h);
        let m_avg = sum_abs(&mut m);
        assert!(
            m_avg > h_avg,
            "Mfr. M offsets ({m_avg}) should exceed Mfr. H ({h_avg})"
        );
    }
}
