//! Immutable process-variation planes ("silicon") and the silicon cache.
//!
//! A subarray's analog state splits cleanly in two: the *silicon* —
//! per-cell capacitance/strength factors, per-column sense-amplifier
//! offsets and bias directions, all fixed at manufacture time — and the
//! *charge* — the per-cell voltage plane, which every operation mutates.
//! The silicon is a pure function of `(geometry, variation, seed)`, so it
//! can be stamped once and shared via [`Arc`] across every module instance
//! a characterization sweep builds: sweeping a new timing/pattern/N point
//! resets voltage state instead of re-deriving thousands of Gaussians.
//!
//! [`stamped_planes`] is the cached entry point; [`SiliconPlanes::stamp`]
//! is the uncached constructor. The stamping RNG order is load-bearing:
//! per-cell cap then strength factors (row-major), then per-column sense
//! offsets, then per-column bias directions — the same draw order the
//! original `Subarray::new` used, so stamped silicon is bit-identical to
//! the pre-cache model. A cell takes four draws (two Box–Muller
//! Gaussians, through [`Rng::fill_normals_f32`]), so row `r` owns draws
//! `[4·r·cols, 4·(r+1)·cols)` and the column planes start at draw
//! `4·rows·cols`. [`Rng::jump`] reaches any of them in O(1), which is
//! what lets a row be stamped on its first read instead of with the
//! whole plane: most rows of a subarray are never opened by a
//! campaign. Fault injection (see [`crate::faults`]) never draws from
//! this stream: defect overlays come from a dedicated, salted stream so
//! faulty and fault-free silicon share one stamp.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock};

use crate::Rng;

use crate::subarray::VariationParams;

/// Draws per cell: a capacitance and a strength Gaussian of two each.
const DRAWS_PER_CELL: u64 = 4;

/// Cells per [`Rng::fill_normals_f32`] call when stamping a row: two
/// Gaussians each, so one call fills one stack chunk of 64.
const CELLS_PER_FILL: usize = 32;

/// The immutable variation planes of one subarray, stored structure-of-
/// arrays so the charge-sharing inner loops run over contiguous `f32`
/// slices.
///
/// The per-column planes are stamped at construction; each row's cell
/// factors are stamped the first time a reader asks for that row, once,
/// even when several threads ask at the same time. Which rows have been
/// read is invisible: two planes are equal exactly when they were stamped
/// from the same inputs, and `Debug` prints those inputs.
pub struct SiliconPlanes {
    rows: u32,
    cols: u32,
    variation: VariationParams,
    seed: u64,
    /// Per row: `cols` capacitance factors (multiples of nominal), then
    /// `cols` access-transistor strength factors.
    row_factors: Box<[OnceLock<Box<[f32]>>]>,
    /// Per-column sense-amplifier input-referred offset (fraction of VDD).
    sense_offsets: Vec<f32>,
    /// Per-column deterministic bias direction used when a bitline resolves
    /// dead-even on biased-sense-amp parts (Mfr. M).
    bias_direction: Vec<bool>,
}

impl SiliconPlanes {
    /// Stamps the per-column planes from `seed` and readies every row to
    /// be stamped on its first read (uncached).
    ///
    /// Factors are clamped to `[0.05, 4.0]`; a zero or negative capacitance
    /// is physically meaningless and would poison the charge arithmetic.
    pub fn stamp(rows: u32, cols: u32, variation: VariationParams, seed: u64) -> Self {
        let mut rng = Rng::seed_from_u64(seed);
        rng.jump(DRAWS_PER_CELL * rows as u64 * cols as u64);
        let mut sense_offsets = vec![0.0; cols as usize];
        rng.fill_normals_f32(1.0, &mut sense_offsets);
        for offset in &mut sense_offsets {
            *offset *= variation.sense_offset_sigma;
        }
        let bias_direction = (0..cols).map(|_| rng.gen()).collect();
        SiliconPlanes {
            rows,
            cols,
            variation,
            seed,
            row_factors: (0..rows).map(|_| OnceLock::new()).collect(),
            sense_offsets,
            bias_direction,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> u32 {
        self.cols
    }

    /// One row's `(capacitance factors, strength factors)`, stamped on the
    /// row's first read.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    #[inline]
    pub fn row_factors(&self, row: u32) -> (&[f32], &[f32]) {
        self.row_factors[row as usize]
            .get_or_init(|| self.stamp_row(row))
            .split_at(self.cols as usize)
    }

    fn stamp_row(&self, row: u32) -> Box<[f32]> {
        let cols = self.cols as usize;
        let mut rng = Rng::seed_from_u64(self.seed);
        rng.jump(DRAWS_PER_CELL * row as u64 * cols as u64);
        let mut factors = vec![0.0; 2 * cols];
        let (caps, strengths) = factors.split_at_mut(cols);
        // Each cell draws its capacitance Gaussian, then its strength one.
        let mut gaussians = [0.0; 2 * CELLS_PER_FILL];
        for (caps, strengths) in caps
            .chunks_mut(CELLS_PER_FILL)
            .zip(strengths.chunks_mut(CELLS_PER_FILL))
        {
            let gaussians = &mut gaussians[..2 * caps.len()];
            rng.fill_normals_f32(1.0, gaussians);
            for ((cap, strength), g) in caps.iter_mut().zip(strengths).zip(gaussians.chunks(2)) {
                *cap = (1.0 + g[0] * self.variation.cell_cap_sigma).clamp(0.05, 4.0);
                *strength = (1.0 + g[1] * self.variation.cell_strength_sigma).clamp(0.05, 4.0);
            }
        }
        factors.into_boxed_slice()
    }

    /// Per-column sense-amplifier offsets.
    pub fn sense_offsets(&self) -> &[f32] {
        &self.sense_offsets
    }

    /// Per-column dead-even resolve directions.
    pub fn bias_directions(&self) -> &[bool] {
        &self.bias_direction
    }

    fn key(&self) -> SiliconKey {
        SiliconKey::new(self.rows, self.cols, self.variation, self.seed)
    }

    /// How many rows have been stamped so far.
    #[cfg(test)]
    fn stamped_rows(&self) -> usize {
        self.row_factors
            .iter()
            .filter(|r| r.get().is_some())
            .count()
    }

    /// The bits of every stamped value: each row's factors in row order
    /// (reading, so stamping, every row), then the sense offsets and bias
    /// directions. Tests compare these where `==` compares only inputs.
    #[cfg(test)]
    pub(crate) fn value_bits(&self) -> Vec<u32> {
        (0..self.rows)
            .flat_map(|row| {
                let (caps, strengths) = self.row_factors(row);
                caps.iter().chain(strengths)
            })
            .chain(&self.sense_offsets)
            .map(|x| x.to_bits())
            .chain(self.bias_direction.iter().map(|&b| b as u32))
            .collect()
    }
}

impl PartialEq for SiliconPlanes {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl fmt::Debug for SiliconPlanes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SiliconPlanes")
            .field("rows", &self.rows)
            .field("cols", &self.cols)
            .field("variation", &self.variation)
            .field("seed", &self.seed)
            .finish_non_exhaustive()
    }
}

/// Cache key: the complete input set of [`SiliconPlanes::stamp`]. Sigmas
/// are keyed by bit pattern (they come from a fixed calibration table, so
/// bitwise equality is the right notion).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct SiliconKey {
    rows: u32,
    cols: u32,
    cap_sigma_bits: u32,
    strength_sigma_bits: u32,
    offset_sigma_bits: u32,
    seed: u64,
}

impl SiliconKey {
    fn new(rows: u32, cols: u32, variation: VariationParams, seed: u64) -> Self {
        SiliconKey {
            rows,
            cols,
            cap_sigma_bits: variation.cell_cap_sigma.to_bits(),
            strength_sigma_bits: variation.cell_strength_sigma.to_bits(),
            offset_sigma_bits: variation.sense_offset_sigma.to_bits(),
            seed,
        }
    }
}

/// Upper bound on cached planes. Every (module, N) group draw picks 3 of
/// a bank's 8 subarrays afresh, so at paper scale fig3's draws alone
/// touch 2 096 distinct planes and read 83 % of their rows: a plane the
/// paper fleet touches ends up mostly stamped (1.2 MB on average), and
/// holding all of them would keep 2.4 GB. At this cap the cache keeps
/// about 1.2 GB there and clears when full; a cleared plane restamps only
/// the rows read again. The cap also stops pathological seed churn (e.g.
/// fuzzing) from growing the cache without bound.
const SILICON_CACHE_CAP: usize = 1024;

static SILICON_CACHE: OnceLock<Mutex<HashMap<SiliconKey, Arc<SiliconPlanes>>>> = OnceLock::new();

/// Returns the (possibly cached) silicon planes for the given stamp
/// inputs. Every call with the same inputs returns a clone of the same
/// `Arc`, so a fleet sweep stamps each row's Gaussians at most once.
pub fn stamped_planes(
    rows: u32,
    cols: u32,
    variation: VariationParams,
    seed: u64,
) -> Arc<SiliconPlanes> {
    let key = SiliconKey::new(rows, cols, variation, seed);
    let mut map = SILICON_CACHE
        .get_or_init(Mutex::default)
        .lock()
        .expect("silicon cache poisoned");
    if map.len() >= SILICON_CACHE_CAP && !map.contains_key(&key) {
        // Dropping everything is safe: stamping is deterministic, evicted
        // entries are simply re-derived on next touch.
        map.clear();
    }
    // Constructing under the lock is cheap: it stamps only the column
    // planes.
    let planes = map
        .entry(key)
        .or_insert_with(|| Arc::new(SiliconPlanes::stamp(rows, cols, variation, seed)));
    Arc::clone(planes)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The eager whole-plane stamp loop the lazy rows replaced, with its
    /// inline libm Box–Muller, frozen as their oracle: `(cap factors,
    /// strength factors)` row-major, then sense offsets and bias
    /// directions.
    fn eager_stamp(
        rows: u32,
        cols: u32,
        variation: VariationParams,
        seed: u64,
    ) -> (Vec<f32>, Vec<f32>, Vec<f32>, Vec<bool>) {
        fn gaussian(rng: &mut Rng) -> f32 {
            let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            ((-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()) as f32
        }
        let mut rng = Rng::seed_from_u64(seed);
        let n = rows as usize * cols as usize;
        let mut cap_factor = Vec::with_capacity(n);
        let mut strength_factor = Vec::with_capacity(n);
        for _ in 0..n {
            let cap = 1.0 + gaussian(&mut rng) * variation.cell_cap_sigma;
            let strength = 1.0 + gaussian(&mut rng) * variation.cell_strength_sigma;
            cap_factor.push(cap.clamp(0.05, 4.0));
            strength_factor.push(strength.clamp(0.05, 4.0));
        }
        let sense_offsets = (0..cols)
            .map(|_| gaussian(&mut rng) * variation.sense_offset_sigma)
            .collect();
        let bias_direction = (0..cols).map(|_| rng.gen()).collect();
        (cap_factor, strength_factor, sense_offsets, bias_direction)
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// `0..rows` in a Fisher–Yates order drawn from `seed`.
    fn shuffled_rows(rows: u32, seed: u64) -> Vec<u32> {
        let mut rng = Rng::seed_from_u64(seed);
        let mut order: Vec<u32> = (0..rows).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        order
    }

    fn wild() -> VariationParams {
        VariationParams {
            cell_cap_sigma: 50.0,
            cell_strength_sigma: 50.0,
            sense_offset_sigma: 0.0,
        }
    }

    #[test]
    fn lazy_rows_match_the_eager_oracle() {
        let shapes = [
            (1, 1),
            (7, 65),
            (64, 256),
            (512, 256),
            (640, 256),
            (1024, 256),
        ];
        for (i, &(rows, cols)) in shapes.iter().enumerate() {
            for variation in [VariationParams::default(), wild()] {
                let seed = 0x5EED_0000 + i as u64;
                let (caps, strengths, offsets, bias) = eager_stamp(rows, cols, variation, seed);
                let planes = SiliconPlanes::stamp(rows, cols, variation, seed);
                assert_eq!(bits(planes.sense_offsets()), bits(&offsets));
                assert_eq!(planes.bias_directions(), &bias[..]);
                for row in shuffled_rows(rows, seed) {
                    let (cap, strength) = planes.row_factors(row);
                    let cells = row as usize * cols as usize..(row as usize + 1) * cols as usize;
                    let at = format!("{rows}×{cols}, row {row}");
                    assert_eq!(bits(cap), bits(&caps[cells.clone()]), "{at}");
                    assert_eq!(bits(strength), bits(&strengths[cells]), "{at}");
                }
                assert_eq!(planes.stamped_rows(), rows as usize);
            }
        }
    }

    #[test]
    fn threads_reading_one_plane_see_identical_rows() {
        let (rows, cols, seed) = (256, 64, 0x7EAD);
        let v = VariationParams::default();
        let planes = SiliconPlanes::stamp(rows, cols, v, seed);
        // All four start reading at once, so first reads race.
        let start = std::sync::Barrier::new(4);
        let seen: Vec<Vec<(u32, Vec<u32>)>> = std::thread::scope(|s| {
            let readers: Vec<_> = (0..4)
                .map(|t| {
                    let (planes, start) = (&planes, &start);
                    s.spawn(move || {
                        start.wait();
                        let mut seen: Vec<_> = shuffled_rows(rows, t)
                            .into_iter()
                            .map(|row| {
                                let (cap, strength) = planes.row_factors(row);
                                (row, [bits(cap), bits(strength)].concat())
                            })
                            .collect();
                        seen.sort_unstable_by_key(|&(row, _)| row);
                        seen
                    })
                })
                .collect();
            readers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        let (caps, strengths, _, _) = eager_stamp(rows, cols, v, seed);
        for (row, factors) in &seen[0] {
            let cells = *row as usize * cols as usize..(*row as usize + 1) * cols as usize;
            let expected = [bits(&caps[cells.clone()]), bits(&strengths[cells])].concat();
            assert_eq!(factors, &expected, "row {row}");
        }
        assert!(seen.iter().all(|s| *s == seen[0]));
    }

    #[test]
    fn only_read_rows_are_stamped() {
        let v = VariationParams::default();
        let planes = SiliconPlanes::stamp(16, 8, v, 9);
        let untouched = SiliconPlanes::stamp(16, 8, v, 9);
        assert_eq!(planes.stamped_rows(), 0);
        for row in [3, 7, 3] {
            planes.row_factors(row);
        }
        assert_eq!(planes.stamped_rows(), 2);
        // Neither equality nor Debug can tell which rows were read.
        assert_eq!(planes, untouched);
        assert_eq!(format!("{planes:?}"), format!("{untouched:?}"));
    }

    #[test]
    fn stamping_is_seed_deterministic() {
        let v = VariationParams::default();
        let a = SiliconPlanes::stamp(8, 16, v, 42);
        let b = SiliconPlanes::stamp(8, 16, v, 42);
        assert_eq!(a.value_bits(), b.value_bits());
        let c = SiliconPlanes::stamp(8, 16, v, 43);
        assert_ne!(a.value_bits(), c.value_bits());
    }

    #[test]
    fn planes_have_expected_shapes() {
        let p = SiliconPlanes::stamp(4, 8, VariationParams::default(), 1);
        assert_eq!(p.rows(), 4);
        assert_eq!(p.cols(), 8);
        for row in 0..4 {
            let (cap, strength) = p.row_factors(row);
            assert_eq!((cap.len(), strength.len()), (8, 8));
        }
        assert_eq!(p.sense_offsets().len(), 8);
        assert_eq!(p.bias_directions().len(), 8);
    }

    #[test]
    fn factors_are_clamped() {
        let p = SiliconPlanes::stamp(16, 16, wild(), 3);
        for row in 0..16 {
            let (cap, strength) = p.row_factors(row);
            for &f in cap.iter().chain(strength) {
                assert!((0.05..=4.0).contains(&f), "factor {f} escaped the clamp");
            }
        }
    }

    #[test]
    fn cache_shares_identical_stamps() {
        let v = VariationParams::default();
        // A seed no other test uses, so the entry is ours.
        let a = stamped_planes(8, 8, v, 0xCAFE_0001);
        let b = stamped_planes(8, 8, v, 0xCAFE_0001);
        assert!(Arc::ptr_eq(&a, &b), "same inputs must share one stamp");
        let c = stamped_planes(8, 8, v, 0xCAFE_0002);
        assert!(!Arc::ptr_eq(&a, &c));
        assert_ne!(*a, *c);
    }
}
