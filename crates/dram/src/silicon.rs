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
//! the pre-cache model. Fault injection (see [`crate::faults`]) never
//! draws from this stream: defect overlays come from a dedicated,
//! salted stream so faulty and fault-free silicon share one stamp.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use crate::Rng;

use crate::subarray::VariationParams;

/// Gaussian sample via Box–Muller; avoids pulling in a distributions crate.
fn gaussian(rng: &mut Rng) -> f32 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    ((-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()) as f32
}

/// The immutable variation planes of one subarray, stored structure-of-
/// arrays so the charge-sharing inner loops run over contiguous `f32`
/// slices (row-major, `rows × cols`).
#[derive(Debug, Clone, PartialEq)]
pub struct SiliconPlanes {
    rows: u32,
    cols: u32,
    /// Per-cell capacitance factor (multiple of nominal), row-major.
    cap_factor: Vec<f32>,
    /// Per-cell access-transistor strength factor, row-major.
    strength_factor: Vec<f32>,
    /// Per-column sense-amplifier input-referred offset (fraction of VDD).
    sense_offsets: Vec<f32>,
    /// Per-column deterministic bias direction used when a bitline resolves
    /// dead-even on biased-sense-amp parts (Mfr. M).
    bias_direction: Vec<bool>,
}

impl SiliconPlanes {
    /// Stamps the variation planes from `seed` (uncached).
    ///
    /// Factors are clamped to `[0.05, 4.0]`; a zero or negative capacitance
    /// is physically meaningless and would poison the charge arithmetic.
    pub fn stamp(rows: u32, cols: u32, variation: VariationParams, seed: u64) -> Self {
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
        SiliconPlanes {
            rows,
            cols,
            cap_factor,
            strength_factor,
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

    /// The full per-cell capacitance-factor plane, row-major.
    #[inline]
    pub fn cap_factors(&self) -> &[f32] {
        &self.cap_factor
    }

    /// The full per-cell strength-factor plane, row-major.
    #[inline]
    pub fn strength_factors(&self) -> &[f32] {
        &self.strength_factor
    }

    /// Per-column sense-amplifier offsets.
    pub fn sense_offsets(&self) -> &[f32] {
        &self.sense_offsets
    }

    /// Per-column dead-even resolve directions.
    pub fn bias_directions(&self) -> &[bool] {
        &self.bias_direction
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

/// Upper bound on cached planes. The paper-scale fleet touches at most
/// 18 modules × 16 banks × 3 subarrays = 864 distinct planes (~1 MB each
/// at the default 512 × 256 geometry); the cap only exists so pathological
/// seed churn (e.g. fuzzing) cannot grow the cache without bound.
const SILICON_CACHE_CAP: usize = 1024;

static SILICON_CACHE: OnceLock<Mutex<HashMap<SiliconKey, Arc<SiliconPlanes>>>> = OnceLock::new();

fn cache() -> &'static Mutex<HashMap<SiliconKey, Arc<SiliconPlanes>>> {
    SILICON_CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Returns the (possibly cached) silicon planes for the given stamp
/// inputs. Every call with the same inputs returns a clone of the same
/// `Arc`, so a fleet sweep stamps each subarray's Gaussians exactly once.
pub fn stamped_planes(
    rows: u32,
    cols: u32,
    variation: VariationParams,
    seed: u64,
) -> Arc<SiliconPlanes> {
    let key = SiliconKey {
        rows,
        cols,
        cap_sigma_bits: variation.cell_cap_sigma.to_bits(),
        strength_sigma_bits: variation.cell_strength_sigma.to_bits(),
        offset_sigma_bits: variation.sense_offset_sigma.to_bits(),
        seed,
    };
    if let Some(hit) = cache().lock().expect("silicon cache poisoned").get(&key) {
        return Arc::clone(hit);
    }
    // Stamp outside the lock: the Box–Muller pass over the whole plane is
    // the expensive part and other threads may want unrelated entries.
    let fresh = Arc::new(SiliconPlanes::stamp(rows, cols, variation, seed));
    let mut map = cache().lock().expect("silicon cache poisoned");
    if map.len() >= SILICON_CACHE_CAP {
        // Dropping everything is safe: stamping is deterministic, evicted
        // entries are simply re-derived on next touch.
        map.clear();
    }
    Arc::clone(map.entry(key).or_insert(fresh))
}

/// Number of currently cached planes (memory accounting / tests).
pub fn silicon_cache_len() -> usize {
    cache().lock().expect("silicon cache poisoned").len()
}

/// Drops every cached plane. Purely a memory-release lever; subsequent
/// [`stamped_planes`] calls re-derive identical silicon.
pub fn silicon_cache_clear() {
    cache().lock().expect("silicon cache poisoned").clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamping_is_seed_deterministic() {
        let v = VariationParams::default();
        let a = SiliconPlanes::stamp(8, 16, v, 42);
        let b = SiliconPlanes::stamp(8, 16, v, 42);
        assert_eq!(a, b);
        let c = SiliconPlanes::stamp(8, 16, v, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn planes_have_expected_shapes() {
        let p = SiliconPlanes::stamp(4, 8, VariationParams::default(), 1);
        assert_eq!(p.rows(), 4);
        assert_eq!(p.cols(), 8);
        assert_eq!(p.cap_factors().len(), 32);
        assert_eq!(p.strength_factors().len(), 32);
        assert_eq!(p.sense_offsets().len(), 8);
        assert_eq!(p.bias_directions().len(), 8);
    }

    #[test]
    fn factors_are_clamped() {
        let wild = VariationParams {
            cell_cap_sigma: 50.0,
            cell_strength_sigma: 50.0,
            sense_offset_sigma: 0.0,
        };
        let p = SiliconPlanes::stamp(16, 16, wild, 3);
        for &f in p.cap_factors().iter().chain(p.strength_factors()) {
            assert!((0.05..=4.0).contains(&f), "factor {f} escaped the clamp");
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

    #[test]
    fn cache_clear_restamps_identically() {
        let v = VariationParams::default();
        let before = stamped_planes(8, 8, v, 0xCAFE_0003);
        silicon_cache_clear();
        let after = stamped_planes(8, 8, v, 0xCAFE_0003);
        assert_eq!(*before, *after, "restamped silicon must be identical");
    }
}
