//! The DRAM bank: lazily materialised subarrays.
//!
//! Banks instantiate subarrays on first touch — a 16-bank module has up to
//! 128 subarrays but a characterization run only ever opens a handful, and
//! lazy materialisation keeps memory proportional to what is tested. A
//! bank is built with its cell-fault spec, and each subarray gets the
//! overlay derived for its seed when it materialises.

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
    /// Cell-fault spec every subarray derives its overlay from.
    fault_spec: Option<CellFaultSpec>,
}

impl Bank {
    /// Creates a bank whose subarrays will be stamped from `seed` and
    /// carry the overlay `fault_spec` derives for each of them.
    pub fn new(
        geometry: Geometry,
        variation: VariationParams,
        seed: u64,
        fault_spec: Option<CellFaultSpec>,
    ) -> Self {
        Bank {
            geometry,
            variation,
            seed,
            subarrays: BTreeMap::new(),
            fault_spec,
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

    /// Returns the bank to its exact just-constructed state without
    /// dropping any materialised silicon: every materialised subarray
    /// zeroes the rows written since the last reset and re-pins their
    /// faulted cells ([`Subarray::reset_voltages`]); a subarray nothing
    /// wrote resets in O(1). A reused bank is indistinguishable from a
    /// fresh [`Bank::new`] because fresh subarrays also start with an
    /// all-zero plane, stuck cells pinned, and materialisation is a pure
    /// function of `(geometry, variation, seed, fault_spec)`.
    pub fn reset_for_reuse(&mut self) {
        for sa in self.subarrays.values_mut() {
            sa.reset_voltages();
        }
    }

    /// The bank's geometry.
    pub fn geometry(&self) -> &Geometry {
        &self.geometry
    }

    /// Returns the subarray, materialising it on first touch with the
    /// overlay the bank's fault spec derives for its seed (none for an
    /// empty spec).
    pub fn subarray(&mut self, id: SubarrayId) -> &mut Subarray {
        let (variation, seed, fault_spec) = (self.variation, self.seed, self.fault_spec);
        let (rows, cols) = (self.geometry.rows_per_subarray, self.geometry.cols_per_row);
        self.subarrays.entry(id).or_insert_with(|| {
            let sa_seed = Self::subarray_seed(seed, id);
            let faults = fault_spec
                .filter(|spec| !spec.is_empty())
                .map(|spec| spec.derive(rows, cols, sa_seed));
            Subarray::with_faults(rows, cols, variation, sa_seed, faults)
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
        bank_with(None)
    }

    fn bank_with(fault_spec: Option<CellFaultSpec>) -> Bank {
        Bank::new(
            Geometry::default(),
            VariationParams::default(),
            11,
            fault_spec,
        )
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
        let mut b = bank_with(Some(dense_spec()));
        let before = b.subarray(SubarrayId::new(0)).clone();
        let cols = b.geometry().cols_per_row as usize;
        b.write_row_nominal(RowAddr::new(3), &BitRow::ones(cols))
            .unwrap();
        b.reset_for_reuse();
        assert_eq!(*b.subarray(SubarrayId::new(0)), before);
    }

    /// Asserts that every subarray `used` materialised matches, bit for
    /// bit, the same subarray of a fresh bank built with `fault_spec`.
    fn assert_fresh(used: &Bank, fault_spec: Option<CellFaultSpec>, context: &str) {
        let mut fresh = bank_with(fault_spec);
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
            let spec = specs[sequence % specs.len()];
            let mut b = bank_with(spec);
            let cols = b.geometry().cols_per_row as usize;
            let rows = b.geometry().rows_per_subarray;
            for step in 0..32 {
                let id = SubarrayId::new(rng.gen_range(0u16..3));
                let row = rng.gen_range(0..rows);
                match rng.gen_range(0u32..11) {
                    0 | 1 => {
                        b.reset_for_reuse();
                        let context = format!("sequence {sequence}, step {step}");
                        assert_fresh(&b, spec, &context);
                    }
                    2 | 3 => {
                        let img = BitRow::random(&mut rng, cols);
                        let addr = RowAddr::new(u32::from(id.raw()) * rows + row);
                        b.write_row_nominal(addr, &img).unwrap();
                    }
                    4 | 5 => b.subarray(id).set_row_voltage(row, 0.6).unwrap(),
                    6 | 7 => {
                        let sa = b.subarray(id);
                        let (volts, _, strengths) = sa.row_split_mut(row);
                        for (v, &s) in volts.iter_mut().zip(strengths) {
                            *v = 0.4 * s;
                        }
                        sa.pin_row_faults(row);
                    }
                    8 | 9 => {
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
            assert_fresh(&b, spec, &format!("sequence {sequence}, end"));
        }
    }
}
