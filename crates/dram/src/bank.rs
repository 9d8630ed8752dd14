//! The DRAM bank: lazily materialised subarrays.
//!
//! Banks instantiate subarrays on first touch — a 16-bank module has up to
//! 128 subarrays but a characterization run only ever opens a handful, and
//! lazy materialisation keeps memory proportional to what is tested.

use std::collections::BTreeMap;

use crate::data::BitRow;
use crate::error::DramError;
use crate::faults::CellFaultSpec;
use crate::geometry::{Geometry, RowAddr, SubarrayId};
use crate::subarray::{Subarray, VariationParams};

/// A DRAM bank.
#[derive(Debug, Clone, PartialEq)]
pub struct Bank {
    geometry: Geometry,
    variation: VariationParams,
    seed: u64,
    subarrays: BTreeMap<SubarrayId, Subarray>,
    /// Cell-fault spec applied to every subarray (present and future).
    fault_spec: Option<CellFaultSpec>,
}

impl Bank {
    /// Creates a bank whose subarrays will be stamped from `seed`.
    pub fn new(geometry: Geometry, variation: VariationParams, seed: u64) -> Self {
        Bank {
            geometry,
            variation,
            seed,
            subarrays: BTreeMap::new(),
            fault_spec: None,
        }
    }

    /// Deterministic per-subarray silicon seed (also keys the fault
    /// overlay's dedicated stream).
    fn subarray_seed(seed: u64, id: SubarrayId) -> u64 {
        // Mix the subarray id into the seed so every subarray gets
        // distinct but reproducible silicon.
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(id.raw() as u64 + 1)
    }

    /// Installs (or, with `None`, clears) the cell-fault spec: every
    /// already-materialised subarray gets its overlay re-derived, and
    /// every future materialisation applies it automatically.
    pub fn set_fault_spec(&mut self, spec: Option<CellFaultSpec>) {
        self.fault_spec = spec;
        let seed = self.seed;
        for (id, sa) in self.subarrays.iter_mut() {
            match spec {
                Some(s) if !s.is_empty() => {
                    sa.set_faults(s.derive(sa.rows(), sa.cols(), Self::subarray_seed(seed, *id)));
                }
                _ => sa.clear_faults(),
            }
        }
    }

    /// The installed cell-fault spec, if any.
    pub fn fault_spec(&self) -> Option<&CellFaultSpec> {
        self.fault_spec.as_ref()
    }

    /// Returns the bank to its exact just-constructed state without
    /// dropping any materialised silicon: every materialised subarray
    /// zeroes the rows written since the last reset and re-pins their
    /// faulted cells ([`Subarray::reset_voltages`]); a subarray nothing
    /// wrote resets in O(1). A reused bank is indistinguishable from a
    /// fresh [`Bank::new`] because fresh subarrays also start with an
    /// all-zero plane and materialisation is a pure function of
    /// `(geometry, variation, seed, fault_spec)`.
    pub fn reset_for_reuse(&mut self) {
        for sa in self.subarrays.values_mut() {
            sa.reset_voltages();
        }
    }

    /// The bank's geometry.
    pub fn geometry(&self) -> &Geometry {
        &self.geometry
    }

    /// Returns the subarray, materialising it on first touch (applying
    /// the bank's fault spec, if one is installed).
    pub fn subarray(&mut self, id: SubarrayId) -> &mut Subarray {
        let geometry = self.geometry;
        let variation = self.variation;
        let seed = self.seed;
        let fault_spec = self.fault_spec;
        self.subarrays.entry(id).or_insert_with(|| {
            let sa_seed = Self::subarray_seed(seed, id);
            let mut sa = Subarray::new(
                geometry.rows_per_subarray,
                geometry.cols_per_row,
                variation,
                sa_seed,
            );
            if let Some(spec) = fault_spec {
                if !spec.is_empty() {
                    sa.set_faults(spec.derive(sa.rows(), sa.cols(), sa_seed));
                }
            }
            sa
        })
    }

    /// Read-only view of an already-materialised subarray.
    pub fn subarray_if_materialized(&self, id: SubarrayId) -> Option<&Subarray> {
        self.subarrays.get(&id)
    }

    /// Number of materialised subarrays (memory accounting / tests).
    pub fn materialized_subarrays(&self) -> usize {
        self.subarrays.len()
    }

    /// Writes a digital image to a bank-level row address, respecting
    /// nominal timings (i.e. bypassing the analog path — used for test
    /// initialisation, exactly like the paper initialising rows "while
    /// adhering to the nominal timing parameters").
    ///
    /// # Errors
    ///
    /// Propagates geometry and width errors.
    pub fn write_row_nominal(&mut self, row: RowAddr, image: &BitRow) -> Result<(), DramError> {
        let (sa, local) = self.geometry.split_row(row)?;
        self.subarray(sa).write_row(local, image)
    }

    /// Reads a bank-level row address with nominal timings.
    ///
    /// # Errors
    ///
    /// Propagates geometry errors.
    pub fn read_row_nominal(&mut self, row: RowAddr) -> Result<BitRow, DramError> {
        let (sa, local) = self.geometry.split_row(row)?;
        self.subarray(sa).read_row(local)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::DataPattern;
    use crate::Rng;

    fn bank() -> Bank {
        Bank::new(Geometry::default(), VariationParams::default(), 11)
    }

    #[test]
    fn lazy_materialisation() {
        let mut b = bank();
        assert_eq!(b.materialized_subarrays(), 0);
        let _ = b.subarray(SubarrayId::new(3));
        assert_eq!(b.materialized_subarrays(), 1);
        let _ = b.subarray(SubarrayId::new(3));
        assert_eq!(b.materialized_subarrays(), 1);
    }

    #[test]
    fn nominal_write_read_via_bank_address() {
        let mut b = bank();
        let cols = b.geometry().cols_per_row as usize;
        let mut rng = Rng::seed_from_u64(5);
        let img = DataPattern::Random.row_image(0, cols, &mut rng);
        // Row 600 lives in subarray 1 (512-row subarrays).
        let row = RowAddr::new(600);
        b.write_row_nominal(row, &img).unwrap();
        assert_eq!(b.read_row_nominal(row).unwrap(), img);
        assert!(b.subarray_if_materialized(SubarrayId::new(1)).is_some());
        assert!(b.subarray_if_materialized(SubarrayId::new(0)).is_none());
    }

    #[test]
    fn different_subarrays_get_different_silicon() {
        let mut b = bank();
        let s0 = b.subarray(SubarrayId::new(0)).silicon().value_bits();
        let s1 = b.subarray(SubarrayId::new(1)).silicon().value_bits();
        assert_ne!(s0, s1);
    }

    #[test]
    fn out_of_range_row_rejected() {
        let mut b = bank();
        let img = BitRow::zeros(b.geometry().cols_per_row as usize);
        let bad = RowAddr::new(b.geometry().rows_per_bank());
        assert!(b.write_row_nominal(bad, &img).is_err());
    }

    fn dense_spec() -> CellFaultSpec {
        CellFaultSpec {
            seed: 0xFA,
            stuck_per_million: 10_000.0,
            sense_offset_shift: 0.0,
        }
    }

    #[test]
    fn fault_spec_applies_to_existing_and_future_subarrays() {
        let mut b = bank();
        let _ = b.subarray(SubarrayId::new(0));
        b.set_fault_spec(Some(dense_spec()));
        let existing_faults = b.subarray(SubarrayId::new(0)).faults().cloned();
        let future_faults = b.subarray(SubarrayId::new(1)).faults().cloned();
        assert!(existing_faults.is_some_and(|f| f.stuck_count() > 0));
        assert!(future_faults.is_some_and(|f| f.stuck_count() > 0));
        b.set_fault_spec(None);
        assert!(b.subarray(SubarrayId::new(0)).faults().is_none());
        assert!(b.subarray(SubarrayId::new(2)).faults().is_none());
    }

    #[test]
    fn reset_for_reuse_restores_the_fresh_state() {
        let mut used = bank();
        let cols = used.geometry().cols_per_row as usize;
        let mut rng = Rng::seed_from_u64(5);
        let img = DataPattern::Random.row_image(0, cols, &mut rng);
        used.write_row_nominal(RowAddr::new(600), &img).unwrap();
        used.reset_for_reuse();
        // The dirtied subarray must match a freshly materialised one.
        let mut fresh = bank();
        assert_eq!(
            used.subarray(SubarrayId::new(1)),
            fresh.subarray(SubarrayId::new(1))
        );
    }

    #[test]
    fn reset_for_reuse_across_shifting_subarray_sets_matches_fresh() {
        // A reused rig accumulates materialised subarrays across sweep
        // points that each touch a different one; every reset must leave
        // each of them (touched this point or long ago) equal to fresh.
        let mut used = bank();
        let cols = used.geometry().cols_per_row as usize;
        for id in [0u16, 1, 2] {
            used.subarray(SubarrayId::new(id))
                .write_row(5, &BitRow::ones(cols))
                .unwrap();
            used.reset_for_reuse();
        }
        let mut fresh = bank();
        for id in [0u16, 1, 2] {
            assert_eq!(
                used.subarray(SubarrayId::new(id)),
                fresh.subarray(SubarrayId::new(id)),
                "subarray {id} diverged from fresh after targeted resets"
            );
        }
    }

    #[test]
    fn reset_for_reuse_keeps_fault_overlays_pinned() {
        let mut b = bank();
        b.set_fault_spec(Some(dense_spec()));
        let before = b.subarray(SubarrayId::new(0)).clone();
        let cols = b.geometry().cols_per_row as usize;
        b.write_row_nominal(RowAddr::new(3), &BitRow::ones(cols))
            .unwrap();
        b.reset_for_reuse();
        assert_eq!(*b.subarray(SubarrayId::new(0)), before);
    }

    /// Asserts that every subarray `used` materialised matches, bit for
    /// bit, the same subarray of a fresh bank with `used`'s fault spec.
    fn assert_fresh(used: &Bank, context: &str) {
        let mut fresh = bank();
        fresh.set_fault_spec(used.fault_spec().copied());
        let mut compared = 0;
        for id in (0..used.geometry().subarrays_per_bank).map(SubarrayId::new) {
            let Some(sa) = used.subarray_if_materialized(id) else {
                continue;
            };
            let expected = fresh.subarray(id);
            assert!(
                sa.voltage_bits() == expected.voltage_bits(),
                "subarray {id:?}: {context}"
            );
            assert_eq!(sa.faults(), expected.faults(), "{context}");
            compared += 1;
        }
        assert_eq!(compared, used.materialized_subarrays());
        assert!(*used == fresh, "PartialEq: {context}");
    }

    #[test]
    fn reuse_matches_fresh_over_random_interleavings() {
        let mut rng = Rng::seed_from_u64(31);
        let specs = [
            Some(dense_spec()),
            Some(CellFaultSpec {
                seed: 0x51,
                stuck_per_million: 2_000.0,
                sense_offset_shift: 0.01,
            }),
            None,
        ];
        for sequence in 0..12 {
            let mut b = bank();
            let cols = b.geometry().cols_per_row as usize;
            let rows = b.geometry().rows_per_subarray;
            for step in 0..32 {
                let id = SubarrayId::new(rng.gen_range(0u16..3));
                let row = rng.gen_range(0..rows);
                match rng.gen_range(0u32..12) {
                    0 => b.set_fault_spec(specs[rng.gen_range(0..specs.len())]),
                    1 | 2 => {
                        b.reset_for_reuse();
                        assert_fresh(&b, &format!("sequence {sequence}, step {step}"));
                    }
                    3 | 4 => {
                        let img = BitRow::random(&mut rng, cols);
                        let addr = RowAddr::new(u32::from(id.raw()) * rows + row);
                        b.write_row_nominal(addr, &img).unwrap();
                    }
                    5 | 6 => b.subarray(id).set_row_voltage(row, 0.6).unwrap(),
                    7 | 8 => {
                        let sa = b.subarray(id);
                        let (volts, _, strengths) = sa.row_split_mut(row);
                        for (v, &s) in volts.iter_mut().zip(strengths) {
                            *v = 0.4 * s;
                        }
                        sa.pin_row_faults(row);
                    }
                    9 | 10 => {
                        let sa = b.subarray(id);
                        sa.row_voltages_mut(row).fill(0.3);
                        sa.pin_row_faults(row);
                    }
                    // A read materialises without writing.
                    _ => {
                        let _ = b.subarray(id).read_row(row).unwrap();
                    }
                }
            }
            b.reset_for_reuse();
            assert_fresh(&b, &format!("sequence {sequence}, end"));
        }
    }

    #[test]
    fn reset_after_a_cleared_spec_drops_its_pins() {
        let mut b = bank();
        let _ = b.subarray(SubarrayId::new(2));
        b.set_fault_spec(Some(dense_spec()));
        b.reset_for_reuse();
        assert_fresh(&b, "installed");
        b.set_fault_spec(None);
        b.reset_for_reuse();
        assert_fresh(&b, "cleared");
    }

    #[test]
    fn fault_overlay_is_the_same_either_side_of_materialisation() {
        // Installing the spec before or after a subarray materialises
        // must derive the identical overlay (both go through the same
        // per-subarray seed).
        let mut before = bank();
        before.set_fault_spec(Some(dense_spec()));
        let f_before = before.subarray(SubarrayId::new(3)).faults().cloned();
        let mut after = bank();
        let _ = after.subarray(SubarrayId::new(3));
        after.set_fault_spec(Some(dense_spec()));
        let f_after = after.subarray(SubarrayId::new(3)).faults().cloned();
        assert_eq!(f_before, f_after);
    }
}
