//! Deterministic cell-fault overlays.
//!
//! Real modules are not pristine: the paper's reliability sweeps run on
//! chips with stuck cells and sense amplifiers whose offset drifted from
//! the fab's corner. This module models those defects as a seed-driven
//! *overlay* on top of the healthy silicon planes:
//! [`CellFaultSpec`] describes defect densities, and [`CellFaultSpec::derive`]
//! expands them into the concrete per-subarray defect map
//! ([`SubarrayFaults`]) from a **dedicated RNG stream**.
//!
//! Like a chip's real defects, an overlay is part of what a module is: a
//! module takes its spec when it is built
//! ([`DramModule::with_faults`](crate::DramModule::with_faults)), each
//! subarray derives its overlay when it materialises, and nothing
//! installs, replaces or clears one afterwards.
//!
//! The stream isolation is the load-bearing guarantee: fault derivation
//! never touches the silicon-stamping stream
//! ([`crate::silicon::SiliconPlanes::stamp`]) or any experiment stream, so
//! a module built with an *empty* spec (or none) runs every fault-free
//! experiment byte-identically — the golden tests of the fleet rely on it.

use std::collections::BTreeMap;

use crate::Rng;

/// Domain-separation constant mixed into every fault stream so a fault
/// seed that happens to equal a silicon seed still draws independently.
const FAULT_STREAM_SALT: u64 = 0xFA17_FA17_FA17_FA17;

/// Seed-driven specification of cell-level defects, applied uniformly to
/// every subarray of a module (each subarray expands it with its own
/// silicon seed, so defect *positions* differ per subarray while the
/// *densities* match).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CellFaultSpec {
    /// Seed of the dedicated fault stream.
    pub seed: u64,
    /// Expected stuck-at cells per million (each stuck at 0 or 1 with
    /// equal probability).
    pub stuck_per_million: f64,
    /// Additive shift applied to every sense-amplifier offset in the
    /// subarray (normalized bitline-voltage units, like the offsets
    /// themselves) — models a module whose amps drifted off-corner.
    pub sense_offset_shift: f32,
}

impl CellFaultSpec {
    /// Whether the spec injects nothing (deriving it yields an overlay
    /// with no observable effect).
    pub fn is_empty(&self) -> bool {
        self.stuck_per_million <= 0.0 && self.sense_offset_shift == 0.0
    }

    /// Expands the spec into one subarray's concrete defect map. Pure
    /// function of `(self, rows, cols, subarray_seed)`: the same subarray
    /// always grows the same defects, independently of every other RNG
    /// stream in the model.
    pub fn derive(&self, rows: u32, cols: u32, subarray_seed: u64) -> SubarrayFaults {
        let mut rng =
            Rng::seed_from_u64(self.seed ^ subarray_seed.rotate_left(23) ^ FAULT_STREAM_SALT);
        let n_cells = rows as u64 * cols as u64;
        let mut stuck_cells: BTreeMap<(u32, u32), bool> = BTreeMap::new();
        for _ in 0..deterministic_count(n_cells, self.stuck_per_million, &mut rng) {
            let row = rng.gen_range(0..rows);
            let col = rng.gen_range(0..cols);
            let bit = rng.gen::<bool>();
            stuck_cells.entry((row, col)).or_insert(bit);
        }
        let mut stuck: BTreeMap<u32, Vec<(u32, bool)>> = BTreeMap::new();
        for ((row, col), bit) in stuck_cells {
            stuck.entry(row).or_default().push((col, bit));
        }
        SubarrayFaults {
            stuck,
            sense_offset_shift: self.sense_offset_shift,
        }
    }
}

/// Rounds an expected defect count to an integer deterministically: the
/// integer part always, plus one more with probability equal to the
/// fractional part (drawn from the fault stream).
fn deterministic_count(n_cells: u64, per_million: f64, rng: &mut Rng) -> u64 {
    let expected = n_cells as f64 * per_million.max(0.0) / 1e6;
    if expected <= 0.0 {
        return 0;
    }
    let base = expected.floor();
    let fract = expected - base;
    base as u64 + u64::from(fract > 0.0 && rng.gen_bool(fract.min(1.0)))
}

/// One subarray's concrete defect map, as derived from a
/// [`CellFaultSpec`]. Rows are keyed so the write and restore hot paths
/// can re-assert defects per touched row without scanning the plane.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SubarrayFaults {
    /// Stuck-at cells per row: `(column, stuck value)`.
    stuck: BTreeMap<u32, Vec<(u32, bool)>>,
    /// Additive shift on every sense-amplifier offset.
    pub sense_offset_shift: f32,
}

impl SubarrayFaults {
    /// Whether the overlay has no observable effect.
    pub fn is_empty(&self) -> bool {
        self.stuck.is_empty() && self.sense_offset_shift == 0.0
    }

    /// Stuck cells in one row: `(column, stuck value)` pairs.
    pub fn stuck_in_row(&self, row: u32) -> &[(u32, bool)] {
        self.stuck.get(&row).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Iterates rows that contain stuck cells.
    pub fn stuck_rows(&self) -> impl Iterator<Item = (&u32, &Vec<(u32, bool)>)> {
        self.stuck.iter()
    }

    /// Total stuck cells.
    pub fn stuck_count(&self) -> usize {
        self.stuck.values().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense_spec() -> CellFaultSpec {
        CellFaultSpec {
            seed: 0xBAD,
            stuck_per_million: 5_000.0,
            sense_offset_shift: 0.002,
        }
    }

    #[test]
    fn derivation_is_seed_deterministic() {
        let spec = dense_spec();
        let a = spec.derive(512, 256, 77);
        let b = spec.derive(512, 256, 77);
        assert_eq!(a, b);
        let c = spec.derive(512, 256, 78);
        assert_ne!(a, c, "different subarrays must grow different defects");
    }

    #[test]
    fn densities_roughly_match_spec() {
        let spec = dense_spec();
        let f = spec.derive(512, 256, 1);
        let cells = 512.0 * 256.0;
        let expected = cells * 5_000.0 / 1e6;
        let stuck = f.stuck_count() as f64;
        // Dedup can only lose a handful of colliding positions.
        assert!(
            (stuck - expected).abs() < expected * 0.05,
            "stuck {stuck} vs expected {expected}"
        );
    }

    #[test]
    fn empty_spec_derives_empty_overlay() {
        let spec = CellFaultSpec::default();
        assert!(spec.is_empty());
        let f = spec.derive(512, 256, 3);
        assert!(f.is_empty());
        assert_eq!(f.stuck_count(), 0);
    }

    #[test]
    fn row_lookup_matches_totals() {
        let f = dense_spec().derive(64, 64, 9);
        let by_rows: usize = (0..64).map(|r| f.stuck_in_row(r).len()).sum();
        assert_eq!(by_rows, f.stuck_count());
        assert_eq!(f.stuck_in_row(64), &[], "out-of-range row has no defects");
    }

    #[test]
    fn fault_stream_is_independent_of_silicon_stream() {
        // Stamping silicon before or after deriving faults must not
        // change either result: the streams share no state.
        let spec = dense_spec();
        let v = crate::subarray::VariationParams::default();
        let f_before = spec.derive(32, 32, 5);
        let s = crate::silicon::SiliconPlanes::stamp(32, 32, v, 5).value_bits();
        let f_after = spec.derive(32, 32, 5);
        let s_again = crate::silicon::SiliconPlanes::stamp(32, 32, v, 5).value_bits();
        assert_eq!(f_before, f_after);
        assert_eq!(s, s_again);
    }
}
