//! The DRAM module: a vendor profile plus a set of banks.
//!
//! Ranks and chips are collapsed: the paper's per-chip results are
//! per-bank/per-subarray statistics, and lockstep chips behave identically
//! at the abstraction level of this model. A "module" here is the unit the
//! tester plugs in and sweeps.
//!
//! A module's cell defects are part of what it is, like its seed: they are
//! fixed when it is built ([`DramModule::with_faults`]) and no call
//! installs, replaces or clears them afterwards.

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
    /// Creates a healthy module with the given vendor `profile`; `seed`
    /// stamps the process variation of every subarray in the module.
    pub fn new(profile: VendorProfile, seed: u64) -> Self {
        Self::with_faults(profile, seed, None)
    }

    /// Creates a module whose every subarray carries the overlay `faults`
    /// derives for it. Defect positions are keyed by each subarray's
    /// silicon seed, so the same `(seed, faults)` pair always grows the
    /// same defects, and the derivation draws from a dedicated stream,
    /// leaving every fault-free RNG stream untouched.
    pub fn with_faults(profile: VendorProfile, seed: u64, faults: Option<CellFaultSpec>) -> Self {
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
                Bank::new(profile.geometry, variation, bank_seed, faults)
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

    /// Returns every bank to its exact just-constructed state while
    /// keeping the materialised subarrays (and their fault overlays)
    /// alive, so a pooled module rig can be reused across sweep points
    /// without re-allocating voltage planes or re-deriving overlays.
    /// After this call the module is observationally identical to a fresh
    /// [`DramModule::with_faults`] with the same `(profile, seed, faults)`.
    pub fn reset_for_reuse(&mut self) {
        for bank in &mut self.banks {
            bank.reset_for_reuse();
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
        for faults in [None, Some(spec)] {
            let mut used = DramModule::with_faults(VendorProfile::mfr_h_m_die(), 77, faults);
            let cols = used.geometry().cols_per_row as usize;
            let rows = used.geometry().rows_per_bank();
            for round in 0..2 {
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
                let mut fresh = DramModule::with_faults(VendorProfile::mfr_h_m_die(), 77, faults);
                for bank in (0..used.bank_count()).map(BankId::new) {
                    let used_bank = used.bank(bank).unwrap();
                    let fresh_bank = fresh.bank_mut(bank).unwrap();
                    for id in (0..used_bank.geometry().subarrays_per_bank).map(SubarrayId::new) {
                        let Some(sa) = used_bank.subarray_if_materialized(id) else {
                            continue;
                        };
                        assert!(
                            sa.voltage_bits() == fresh_bank.subarray(id).voltage_bits(),
                            "faults {faults:?}, round {round}, bank {bank:?}, subarray {id:?}"
                        );
                    }
                }
                assert!(used == fresh, "faults {faults:?}, round {round}");
            }
        }
    }

    #[test]
    fn every_materialised_subarray_carries_its_derived_overlay() {
        use crate::geometry::SubarrayId;
        let dense = CellFaultSpec {
            seed: 0xFA,
            stuck_per_million: 10_000.0,
            sense_offset_shift: 0.005,
        };
        for spec in [dense, CellFaultSpec::default()] {
            let mut m = DramModule::with_faults(VendorProfile::mfr_h_m_die(), 9, Some(spec));
            let geometry = *m.geometry();
            let (rows, cols) = (geometry.rows_per_subarray, geometry.cols_per_row);
            let last = geometry.subarrays_per_bank - 1;
            for b in [0u16, 7, 15] {
                let bank = m.bank_mut(BankId::new(b)).unwrap();
                // Materialise in descending order on odd banks: the
                // overlay must not depend on it.
                let ids = if b % 2 == 0 { [0, last] } else { [last, 0] };
                for id in ids.map(SubarrayId::new) {
                    let sa = bank.subarray(id);
                    let expected =
                        (!spec.is_empty()).then(|| spec.derive(rows, cols, sa.silicon().seed()));
                    assert_eq!(sa.faults(), expected.as_ref(), "bank {b}, {id:?}");
                    let stuck = sa.faults().map_or(0, |f| f.stuck_count());
                    assert_eq!(stuck > 0, !spec.is_empty(), "bank {b}, {id:?}");
                }
                assert_eq!(bank.materialized_subarrays(), 2);
            }
            let shift = |m: &mut DramModule| {
                m.bank_mut(BankId::new(7))
                    .unwrap()
                    .subarray(SubarrayId::new(last))
                    .sense_offset(3)
            };
            let healthy = shift(&mut DramModule::new(VendorProfile::mfr_h_m_die(), 9));
            assert_eq!(shift(&mut m), healthy + spec.sense_offset_shift);
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
