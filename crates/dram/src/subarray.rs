//! The DRAM subarray: a 2-D grid of cells sharing bitlines and sense
//! amplifiers.
//!
//! Process variation is a pure function of a deterministic seed:
//! per-cell capacitance/strength factors and a per-column sense-amplifier
//! offset, each row's factors stamped the first time the row is read.
//! The same (module-seed, bank, subarray) triple always produces the
//! same silicon, which is what lets the paper-style "cell is unstable"
//! classification be meaningful across repeated trials.
//!
//! State is stored structure-of-arrays: the immutable variation planes
//! live in an [`Arc<SiliconPlanes>`] shared through the silicon cache
//! (see [`crate::silicon`]), while the mutable per-cell voltage plane is
//! owned. The per-row slice accessors ([`Subarray::row_voltages`] and
//! friends) are what the charge-sharing hot loops iterate — contiguous,
//! bounds-checked once per row instead of once per cell. The mutating
//! ones also mark their row written, which is what lets
//! [`Subarray::reset_voltages`] zero only those rows.
//!
//! A subarray's fault overlay, if any, is fixed when it is built
//! ([`Subarray::with_faults`]): its stuck cells start pinned and stay
//! pinned through every write, restore and reset, so the rows written
//! are the only rows that can leave the fresh state.
//!
//! A cell's state is a *normalized* capacitor voltage in `[0, 1]`
//! (1.0 = VDD, 0.5 = the precharge level VDD/2), which keeps the
//! charge-sharing arithmetic in `simra-analog` independent of the rail
//! voltage; VPP and temperature enter through factors on transfer
//! strength, not through the stored value. Each cell's capacitance and
//! access-strength factors are what make some cells "unstable" for PUD
//! in the paper's sense: their margins are systematically worse, so
//! they fail in every trial batch.

use std::sync::Arc;

use crate::data::BitRow;
use crate::error::DramError;
use crate::faults::SubarrayFaults;
use crate::silicon::{stamped_planes, SiliconPlanes};

/// Construction parameters for a subarray's process variation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariationParams {
    /// Sigma of the per-cell capacitance factor (around 1.0).
    pub cell_cap_sigma: f32,
    /// Sigma of the per-cell access-strength factor (around 1.0).
    pub cell_strength_sigma: f32,
    /// Sigma of the per-column sense-amplifier offset, in normalized
    /// bitline-voltage units (fraction of VDD).
    pub sense_offset_sigma: f32,
}

impl Default for VariationParams {
    fn default() -> Self {
        // Calibrated jointly with `simra_analog::params::calibrated()`.
        VariationParams {
            cell_cap_sigma: 0.07,
            cell_strength_sigma: 0.05,
            sense_offset_sigma: 0.0035,
        }
    }
}

/// A subarray's fault overlay plus caches derived from it. Boxed so the
/// overwhelmingly common fault-free subarray pays one pointer.
#[derive(Debug, Clone, PartialEq)]
struct FaultState {
    overlay: SubarrayFaults,
    /// Sense offsets with the overlay's shift applied, replacing the
    /// silicon plane reads. `None` when the overlay does not shift
    /// offsets.
    shifted_offsets: Option<Vec<f32>>,
}

/// Rows whose voltages may differ from the fresh state (all zero, the
/// overlay's stuck cells pinned): every row a mutating accessor handed
/// out since the last [`Subarray::reset_voltages`].
#[derive(Debug, Clone)]
struct WrittenRows {
    /// The marked rows.
    rows: Vec<u32>,
    /// `marked[row]` iff `row` is in `rows`.
    marked: Vec<bool>,
}

impl WrittenRows {
    #[inline]
    fn mark(&mut self, row: u32) {
        let marked = &mut self.marked[row as usize];
        if !*marked {
            *marked = true;
            self.rows.push(row);
        }
    }
}

/// A DRAM subarray with analog cell state.
///
/// Equality compares the planes (voltages, silicon, fault overlay),
/// never which rows were written: a reset subarray equals a fresh one.
#[derive(Debug, Clone)]
pub struct Subarray {
    rows: u32,
    cols: u32,
    /// Mutable per-cell normalized voltage plane, row-major.
    voltage: Vec<f32>,
    /// Shared immutable variation planes (the "silicon").
    silicon: Arc<SiliconPlanes>,
    /// Optional defect overlay (stuck cells, shifted sense offsets),
    /// fixed at construction.
    faults: Option<Box<FaultState>>,
    /// What [`Subarray::reset_voltages`] has to zero.
    written: WrittenRows,
}

impl PartialEq for Subarray {
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self.voltage == other.voltage
            && self.silicon == other.silicon
            && self.faults == other.faults
    }
}

impl Subarray {
    /// Builds a healthy subarray with process variation drawn from `seed`.
    /// The variation planes come from the silicon cache: repeated
    /// construction with the same inputs shares one stamp.
    pub fn new(rows: u32, cols: u32, variation: VariationParams, seed: u64) -> Self {
        Self::with_faults(rows, cols, variation, seed, None)
    }

    /// Builds a subarray that carries `faults` for its whole life: stuck
    /// cells and a sense-offset shift, typically derived from a
    /// [`CellFaultSpec`](crate::faults::CellFaultSpec). Stuck cells start
    /// pinned and are re-asserted after every write, restore and reset;
    /// the shared silicon planes are untouched.
    pub fn with_faults(
        rows: u32,
        cols: u32,
        variation: VariationParams,
        seed: u64,
        faults: Option<SubarrayFaults>,
    ) -> Self {
        let silicon = stamped_planes(rows, cols, variation, seed);
        let mut voltage = vec![0.0; rows as usize * cols as usize];
        let faults = faults.map(|overlay| {
            // Pinned cells are part of the fresh state: no row is marked.
            for (&row, cells) in overlay.stuck_rows() {
                let start = row as usize * cols as usize;
                for &(col, bit) in cells {
                    voltage[start + col as usize] = if bit { 1.0 } else { 0.0 };
                }
            }
            let shifted_offsets = (overlay.sense_offset_shift != 0.0).then(|| {
                silicon
                    .sense_offsets()
                    .iter()
                    .map(|&o| o + overlay.sense_offset_shift)
                    .collect()
            });
            Box::new(FaultState {
                overlay,
                shifted_offsets,
            })
        });
        Subarray {
            rows,
            cols,
            voltage,
            silicon,
            faults,
            written: WrittenRows {
                rows: Vec::new(),
                marked: vec![false; rows as usize],
            },
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// Number of columns (modelled bitlines).
    pub fn cols(&self) -> u32 {
        self.cols
    }

    #[inline]
    fn check_row(&self, row: u32) {
        assert!(
            row < self.rows,
            "row {row} out of range ({} rows)",
            self.rows
        );
    }

    #[inline]
    fn row_range(&self, row: u32) -> std::ops::Range<usize> {
        let start = row as usize * self.cols as usize;
        start..start + self.cols as usize
    }

    /// One row's voltage plane.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    #[inline]
    pub fn row_voltages(&self, row: u32) -> &[f32] {
        self.check_row(row);
        &self.voltage[self.row_range(row)]
    }

    /// One row's voltage plane, mutably. Writes through this accessor are
    /// *not* clamped or pinned; callers own the physics, including
    /// re-asserting stuck cells with [`Subarray::pin_row_faults`].
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn row_voltages_mut(&mut self, row: u32) -> &mut [f32] {
        self.check_row(row);
        self.written.mark(row);
        let range = self.row_range(row);
        &mut self.voltage[range]
    }

    /// One row's capacitance-factor plane.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    #[inline]
    pub fn row_cap_factors(&self, row: u32) -> &[f32] {
        self.check_row(row);
        self.silicon.row_factors(row).0
    }

    /// One row's strength-factor plane.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    #[inline]
    pub fn row_strength_factors(&self, row: u32) -> &[f32] {
        self.check_row(row);
        self.silicon.row_factors(row).1
    }

    /// Splits one row into `(voltages mut, cap factors, strength factors)`
    /// — the mutable voltage slice and the immutable silicon slices borrow
    /// disjoint fields, so restore loops can read variation while writing
    /// charge. As with [`Subarray::row_voltages_mut`], callers own the
    /// physics of those writes.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn row_split_mut(&mut self, row: u32) -> (&mut [f32], &[f32], &[f32]) {
        self.check_row(row);
        self.written.mark(row);
        let range = self.row_range(row);
        let (caps, strengths) = self.silicon.row_factors(row);
        (&mut self.voltage[range], caps, strengths)
    }

    /// Per-column sense-amplifier offset (shifted when the fault overlay
    /// shifts offsets).
    pub fn sense_offset(&self, col: u32) -> f32 {
        self.sense_offsets()[col as usize]
    }

    /// Deterministic resolve direction for dead-even bitlines (Mfr. M).
    pub fn bias_direction(&self, col: u32) -> bool {
        self.silicon.bias_directions()[col as usize]
    }

    /// All per-column sense-amplifier offsets (shifted when the fault
    /// overlay shifts offsets).
    pub fn sense_offsets(&self) -> &[f32] {
        match self.faults.as_deref() {
            Some(state) => state
                .shifted_offsets
                .as_deref()
                .unwrap_or_else(|| self.silicon.sense_offsets()),
            None => self.silicon.sense_offsets(),
        }
    }

    /// All per-column dead-even resolve directions.
    pub fn bias_directions(&self) -> &[bool] {
        self.silicon.bias_directions()
    }

    /// The shared silicon planes (for cache accounting / tests).
    pub fn silicon(&self) -> &Arc<SiliconPlanes> {
        &self.silicon
    }

    /// The defect overlay, if the subarray was built with one.
    pub fn faults(&self) -> Option<&SubarrayFaults> {
        self.faults.as_deref().map(|state| &state.overlay)
    }

    /// Re-asserts the overlay's stuck cells in one row. Called after any
    /// write/restore touching the row; a no-op without an overlay.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn pin_row_faults(&mut self, row: u32) {
        self.check_row(row);
        let start = row as usize * self.cols as usize;
        let Some(state) = self.faults.as_deref() else {
            return;
        };
        let voltage = &mut self.voltage;
        for &(col, bit) in state.overlay.stuck_in_row(row) {
            voltage[start + col as usize] = if bit { 1.0 } else { 0.0 };
        }
    }

    /// Discharges every cell to 0 V, keeping the silicon: the cheap way to
    /// reuse a subarray for a fresh sweep point. Stuck cells re-assert
    /// their pinned value.
    ///
    /// Zeroes, in place, only the rows written since the last reset
    /// (those [`Subarray::row_voltages_mut`], [`Subarray::row_split_mut`],
    /// [`Subarray::write_row`] and [`Subarray::set_row_voltage`] handed
    /// out), then re-pins their stuck cells; every other row is already
    /// in the fresh state. A sweep point writes a few groups of at most
    /// 32 rows, so this costs O(rows written), and a subarray nothing
    /// wrote resets in O(1). On a 2-core x86-64 host, zeroing 128 written rows of a
    /// 1 MB plane takes 9–10 µs; swapping in a freshly zeroed plane, as
    /// this did before, took 37–40 µs, because the allocator clears the
    /// whole plane once a freed plane has raised its mmap threshold.
    pub fn reset_voltages(&mut self) {
        while let Some(row) = self.written.rows.pop() {
            self.written.marked[row as usize] = false;
            let range = self.row_range(row);
            self.voltage[range].fill(0.0);
            self.pin_row_faults(row);
        }
    }

    /// Fully writes a digital image into a row (rail-to-rail restore).
    ///
    /// # Errors
    ///
    /// Returns [`DramError::WidthMismatch`] if the image width differs from
    /// the subarray width, or [`DramError::RowOutOfRange`] for a bad row.
    pub fn write_row(&mut self, row: u32, image: &BitRow) -> Result<(), DramError> {
        if row >= self.rows {
            return Err(DramError::RowOutOfRange {
                row: crate::geometry::RowAddr::new(row),
                rows_in_bank: self.rows,
            });
        }
        if image.len() != self.cols as usize {
            return Err(DramError::WidthMismatch {
                got: image.len(),
                expected: self.cols as usize,
            });
        }
        // One image word per 64 cells: a set bit is the 1.0 rail.
        self.written.mark(row);
        let range = self.row_range(row);
        for (cells, &word) in self.voltage[range].chunks_mut(64).zip(image.words()) {
            for (bit, v) in cells.iter_mut().enumerate() {
                *v = ((word >> bit) & 1) as f32;
            }
        }
        // Stuck cells ignore even a nominal-timing write.
        self.pin_row_faults(row);
        Ok(())
    }

    /// Every cell's voltage bits, row-major. Tests compare these where
    /// `==` would take −0.0 for +0.0.
    #[cfg(test)]
    pub(crate) fn voltage_bits(&self) -> Vec<u32> {
        self.voltage.iter().map(|v| v.to_bits()).collect()
    }

    /// Digital read-out of a row (each cell thresholded at VDD/2).
    ///
    /// # Errors
    ///
    /// Returns [`DramError::RowOutOfRange`] for a bad row.
    pub fn read_row(&self, row: u32) -> Result<BitRow, DramError> {
        if row >= self.rows {
            return Err(DramError::RowOutOfRange {
                row: crate::geometry::RowAddr::new(row),
                rows_in_bank: self.rows,
            });
        }
        Ok(BitRow::from_bits(
            self.voltage[self.row_range(row)].iter().map(|&v| v > 0.5),
        ))
    }

    /// Parks every cell of a row at an exact analog voltage (Frac support).
    ///
    /// # Errors
    ///
    /// Returns [`DramError::RowOutOfRange`] for a bad row.
    pub fn set_row_voltage(&mut self, row: u32, voltage: f32) -> Result<(), DramError> {
        if row >= self.rows {
            return Err(DramError::RowOutOfRange {
                row: crate::geometry::RowAddr::new(row),
                rows_in_bank: self.rows,
            });
        }
        let clamped = voltage.clamp(0.0, 1.0);
        self.written.mark(row);
        let range = self.row_range(row);
        self.voltage[range].fill(clamped);
        self.pin_row_faults(row);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::DataPattern;
    use crate::faults::CellFaultSpec;
    use crate::Rng;

    fn small() -> Subarray {
        Subarray::new(16, 64, VariationParams::default(), 42)
    }

    /// [`small`], built with `faults`.
    fn small_with(faults: Option<SubarrayFaults>) -> Subarray {
        Subarray::with_faults(16, 64, VariationParams::default(), 42, faults)
    }

    #[test]
    fn write_read_roundtrip() {
        let mut sa = small();
        let mut rng = Rng::seed_from_u64(1);
        let img = DataPattern::Random.row_image(0, 64, &mut rng);
        sa.write_row(3, &img).unwrap();
        assert_eq!(sa.read_row(3).unwrap(), img);
    }

    #[test]
    fn construction_is_seed_deterministic() {
        let a = Subarray::new(8, 32, VariationParams::default(), 7);
        let b = Subarray::new(8, 32, VariationParams::default(), 7);
        assert_eq!(a, b);
        let c = Subarray::new(8, 32, VariationParams::default(), 8);
        assert_ne!(a.silicon().value_bits(), c.silicon().value_bits());
    }

    #[test]
    fn same_seed_shares_silicon() {
        let a = Subarray::new(8, 32, VariationParams::default(), 7);
        let b = Subarray::new(8, 32, VariationParams::default(), 7);
        assert!(
            Arc::ptr_eq(a.silicon(), b.silicon()),
            "twin subarrays must share one silicon stamp"
        );
    }

    #[test]
    fn variation_statistics_roughly_match_sigma() {
        let sa = Subarray::new(64, 256, VariationParams::default(), 3);
        let mut sum = 0.0f64;
        let mut sum2 = 0.0f64;
        let n = (sa.rows() * sa.cols()) as f64;
        for r in 0..sa.rows() {
            for &v in sa.row_cap_factors(r) {
                sum += v as f64;
                sum2 += v as f64 * v as f64;
            }
        }
        let mean = sum / n;
        let var = sum2 / n - mean * mean;
        assert!((mean - 1.0).abs() < 0.01, "mean {mean}");
        assert!((var.sqrt() - 0.07).abs() < 0.01, "sigma {}", var.sqrt());
    }

    #[test]
    fn width_mismatch_rejected() {
        let mut sa = small();
        let img = BitRow::zeros(32);
        assert!(matches!(
            sa.write_row(0, &img),
            Err(DramError::WidthMismatch { .. })
        ));
    }

    #[test]
    fn row_out_of_range_rejected() {
        let mut sa = small();
        let img = BitRow::zeros(64);
        assert!(sa.write_row(16, &img).is_err());
        assert!(sa.read_row(16).is_err());
        assert!(sa.set_row_voltage(16, 0.5).is_err());
    }

    #[test]
    fn set_row_voltage_parks_cells() {
        let mut sa = small();
        sa.set_row_voltage(2, 0.5).unwrap();
        assert!(sa.row_voltages(2).iter().all(|&v| (v - 0.5).abs() <= 1e-6));
    }

    #[test]
    fn row_split_mut_agrees_with_the_row_accessors() {
        let mut sa = small();
        sa.write_row(5, &BitRow::ones(64)).unwrap();
        let volts = sa.row_voltages(5).to_vec();
        let caps = sa.row_cap_factors(5).to_vec();
        let strengths = sa.row_strength_factors(5).to_vec();
        let (v_mut, caps2, strengths2) = sa.row_split_mut(5);
        assert_eq!(v_mut, &volts[..]);
        assert_eq!(caps2, &caps[..]);
        assert_eq!(strengths2, &strengths[..]);
    }

    #[test]
    fn reset_voltages_keeps_silicon() {
        let mut sa = small();
        sa.write_row(0, &BitRow::ones(64)).unwrap();
        let caps_before = sa.row_cap_factors(0).to_vec();
        sa.reset_voltages();
        assert_eq!(sa.read_row(0).unwrap().count_ones(), 0);
        assert_eq!(sa.row_cap_factors(0), &caps_before[..]);
    }

    #[test]
    #[should_panic(expected = "row 16 out of range")]
    fn out_of_range_row_slice_panics() {
        let _ = small().row_voltages(16).len();
    }

    fn dense_faults() -> SubarrayFaults {
        CellFaultSpec {
            seed: 0xF00D,
            stuck_per_million: 20_000.0,
            sense_offset_shift: 0.01,
        }
        .derive(16, 64, 42)
    }

    #[test]
    fn stuck_cells_ignore_writes() {
        let overlay = dense_faults();
        assert!(overlay.stuck_count() > 0, "spec dense enough to test");
        let mut sa = small_with(Some(overlay.clone()));
        let pinned = sa.read_row(0).unwrap();
        for &(col, bit) in overlay.stuck_in_row(0) {
            assert_eq!(
                pinned.get(col as usize),
                bit,
                "stuck cell ({col}) starts pinned"
            );
        }
        sa.write_row(0, &BitRow::ones(64)).unwrap();
        let written = sa.read_row(0).unwrap();
        for &(col, bit) in overlay.stuck_in_row(0) {
            assert_eq!(
                written.get(col as usize),
                bit,
                "stuck cell ({col}) must keep its pinned value"
            );
        }
        sa.reset_voltages();
        let reset = sa.read_row(0).unwrap();
        for &(col, bit) in overlay.stuck_in_row(0) {
            assert_eq!(reset.get(col as usize), bit);
        }
    }

    #[test]
    fn write_row_matches_a_per_bit_write_then_pin() {
        let mut rng = Rng::seed_from_u64(11);
        let stuck = CellFaultSpec {
            seed: 3,
            stuck_per_million: 200_000.0,
            ..Default::default()
        };
        for cols in [1u32, 63, 64, 65, 129, 256] {
            for faulted in [false, true] {
                let overlay = faulted.then(|| stuck.derive(8, cols, 42));
                let mut sa =
                    Subarray::with_faults(8, cols, VariationParams::default(), 42, overlay);
                for row in 0..8 {
                    // Off-rail start, so every cell must be overwritten.
                    sa.set_row_voltage(row, 0.37).unwrap();
                }
                let mut reference = sa.clone();
                for row in 0..8 {
                    let img = BitRow::random(&mut rng, cols as usize);
                    sa.write_row(row, &img).unwrap();
                    for (col, v) in reference.row_voltages_mut(row).iter_mut().enumerate() {
                        *v = if img.get(col) { 1.0 } else { 0.0 };
                    }
                    reference.pin_row_faults(row);
                    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        bits(sa.row_voltages(row)),
                        bits(reference.row_voltages(row)),
                        "cols {cols}, faulted {faulted}, row {row}"
                    );
                }
                assert!(matches!(
                    sa.write_row(0, &BitRow::zeros(cols as usize + 1)),
                    Err(DramError::WidthMismatch { .. })
                ));
                assert!(matches!(
                    sa.write_row(8, &BitRow::zeros(cols as usize)),
                    Err(DramError::RowOutOfRange { .. })
                ));
            }
        }
        let overlay = stuck.derive(8, 256, 42);
        assert!(overlay.stuck_count() > 64, "the overlay must be dense");
    }

    /// Asserts that `sa` matches, bit for bit, a fresh [`small`] subarray
    /// built with its overlay.
    fn assert_fresh(sa: &Subarray, context: &str) {
        let fresh = small_with(sa.faults().cloned());
        assert!(
            sa.voltage_bits() == fresh.voltage_bits(),
            "voltages differ from fresh: {context}"
        );
        let offset_bits = |sa: &Subarray| sa.sense_offsets().iter().map(|o| o.to_bits()).collect();
        let offsets: Vec<u32> = offset_bits(sa);
        assert_eq!(offsets, offset_bits(&fresh), "sense offsets: {context}");
        assert_eq!(sa.silicon(), fresh.silicon(), "silicon: {context}");
        assert!(*sa == fresh, "PartialEq: {context}");
    }

    /// Writes `row` through mutating path `path` (0–3: `row_voltages_mut`,
    /// `row_split_mut`, `write_row`, `set_row_voltage`) with values a
    /// fresh plane never holds, pinning stuck cells as real callers do.
    fn write_through(sa: &mut Subarray, path: u32, row: u32, rng: &mut Rng) {
        match path {
            0 => {
                for v in sa.row_voltages_mut(row) {
                    *v = 0.1 + 0.8 * rng.gen::<f64>() as f32;
                }
                sa.pin_row_faults(row);
            }
            1 => {
                let (volts, caps, _) = sa.row_split_mut(row);
                for (v, &cap) in volts.iter_mut().zip(caps) {
                    *v = 0.5 * cap;
                }
                sa.pin_row_faults(row);
            }
            2 => {
                let cols = sa.cols() as usize;
                sa.write_row(row, &BitRow::random(rng, cols)).unwrap();
            }
            _ => sa.set_row_voltage(row, 0.75).unwrap(),
        }
    }

    #[test]
    fn reset_after_each_mutating_accessor_matches_fresh() {
        let mut rng = Rng::seed_from_u64(21);
        for path in 0..4 {
            for faulted in [false, true] {
                let mut sa = small_with(faulted.then(dense_faults));
                for round in 0..3 {
                    for row in [0, 7, 7, 15] {
                        write_through(&mut sa, path, row, &mut rng);
                    }
                    assert!(sa.voltage_bits().iter().any(|&b| b != 0));
                    sa.reset_voltages();
                    assert_fresh(
                        &sa,
                        &format!("path {path}, faulted {faulted}, round {round}"),
                    );
                }
            }
        }
    }

    #[test]
    fn reuse_matches_fresh_over_random_interleavings() {
        let mut rng = Rng::seed_from_u64(23);
        let sparse = CellFaultSpec {
            seed: 0xBEEF,
            stuck_per_million: 8_000.0,
            sense_offset_shift: -0.02,
        }
        .derive(16, 64, 42);
        let overlays = [
            Some(dense_faults()),
            Some(sparse),
            Some(SubarrayFaults::default()),
            None,
        ];
        for sequence in 0..64 {
            let mut sa = small_with(overlays[sequence % overlays.len()].clone());
            for step in 0..48 {
                match rng.gen_range(0u32..8) {
                    0 => {
                        sa.reset_voltages();
                        assert_fresh(&sa, &format!("sequence {sequence}, step {step}"));
                    }
                    _ => {
                        let (path, row) = (rng.gen_range(0u32..4), rng.gen_range(0..sa.rows()));
                        write_through(&mut sa, path, row, &mut rng);
                    }
                }
            }
            sa.reset_voltages();
            assert_fresh(&sa, &format!("sequence {sequence}, end"));
        }
    }

    #[test]
    fn a_row_is_marked_once_and_reset_clears_the_marks() {
        let mut sa = small();
        sa.set_row_voltage(4, 0.5).unwrap();
        sa.row_voltages_mut(4)[0] = 1.0;
        sa.write_row(2, &BitRow::ones(64)).unwrap();
        assert_eq!(
            sa.written.rows,
            [4, 2],
            "each row once, in first-write order"
        );
        sa.reset_voltages();
        assert!(sa.written.rows.is_empty());
        assert!(sa.written.marked.iter().all(|&m| !m));
        // Reading marks nothing.
        let _ = sa.row_voltages(4);
        let _ = sa.read_row(2).unwrap();
        assert!(sa.written.rows.is_empty());
    }

    #[test]
    fn sense_offsets_are_shifted_under_faults() {
        let healthy = small();
        let sa = small_with(Some(dense_faults()));
        for (col, &h) in healthy.sense_offsets().iter().enumerate() {
            assert!((sa.sense_offset(col as u32) - (h + 0.01)).abs() < 1e-7);
        }
        assert!(
            Arc::ptr_eq(sa.silicon(), healthy.silicon()),
            "the shared planes stay healthy"
        );
    }

    #[test]
    fn empty_overlay_changes_nothing() {
        let mut faulted = small_with(Some(SubarrayFaults::default()));
        let healthy = small();
        faulted.write_row(2, &BitRow::ones(64)).unwrap();
        let mut h = healthy;
        h.write_row(2, &BitRow::ones(64)).unwrap();
        assert_eq!(faulted.row_voltages(2), h.row_voltages(2));
        assert_eq!(faulted.sense_offsets(), h.sense_offsets());
    }
}
