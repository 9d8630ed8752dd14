//! The workspace's one random-number generator.
//!
//! Every figure the reproduction prints is a statistic over randomly
//! sampled row groups and random data, so every figure is a function of
//! this stream. It is splitmix64 (Steele, Lea & Flood, OOPSLA 2014),
//! owned here so that the values cannot move under a dependency upgrade.
//! Changing any method below re-baselines every golden; the vector test
//! pins the stream.
//!
//! The methods are the ones call sites use, with these exact reductions:
//! `f64` is `(x >> 11)·2⁻⁵³`, `bool` is `x >> 63`, an integer range is
//! `start + x mod span`, a float range is `start + (end − start)·f64`,
//! and `gen_bool(p)` is `f64 < p`. `jump(k)` skips `k` draws in O(1),
//! because the state is a counter stepped by one constant. They are
//! `#[inline]` because they are not generic over the generator, so they
//! would not inline across crates on their own.
//!
//! Normal draws have one convention, [`box_muller`] of the pair
//! `gen_range(EPSILON..1.0)`, `gen_range(0.0..1.0)`:
//! [`Rng::standard_normal`] returns it in `f64`, and
//! [`Rng::fill_normals_f32`] stores it rounded to `f32`, bit for bit
//! as libm would, through a guarded polynomial kernel.

use std::f64::consts::{FRAC_2_PI, LN_2, TAU};
use std::ops::{Range, RangeInclusive};

/// splitmix64's increment: the state after `k` draws is `seed + k·GAMMA`.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// A splitmix64 stream: the whole state is one `u64`, and equal seeds
/// replay equal streams.
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// A stream starting at `seed`.
    #[inline]
    pub fn seed_from_u64(seed: u64) -> Self {
        Rng { state: seed }
    }

    /// The next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GAMMA);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Skips `draws` outputs in O(1): the same state as `draws` calls of
    /// [`Rng::next_u64`], counted modulo 2⁶⁴ (the stream's period).
    #[inline]
    pub fn jump(&mut self, draws: u64) {
        self.state = self.state.wrapping_add(draws.wrapping_mul(GAMMA));
    }

    /// One uniform value of `T`: any `u64`, an `f64` in `[0, 1)`, or a
    /// fair `bool`.
    #[inline]
    pub fn gen<T: Standard>(&mut self) -> T {
        T::draw(self)
    }

    /// One value from an unsigned-integer `a..b` or `a..=b` range, or from
    /// an `f64` `a..b` range. Panics on an empty range.
    #[inline]
    pub fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample(self)
    }

    /// `true` with probability `p`.
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen::<f64>() < p
    }

    /// One standard normal sample, [`box_muller`] of exactly two draws:
    /// `gen_range(EPSILON..1.0)`, then `gen_range(0.0..1.0)`.
    #[inline]
    pub fn standard_normal(&mut self) -> f64 {
        let u1 = self.gen_range(f64::EPSILON..1.0);
        let u2 = self.gen_range(0.0..1.0);
        box_muller(u1, u2)
    }

    /// Fills `out` with `(box_muller(u1, u2) * scale) as f32`, element `i`
    /// drawing the pair the `i`-th of `out.len()` [`Rng::standard_normal`]
    /// calls would, so the stream ends where `2·out.len()` draws leave
    /// it. `scale` must be finite.
    ///
    /// Every value equals libm's to the bit, at about half its cost: a
    /// vectorised polynomial kernel computes each stack chunk of 64, and
    /// libm recomputes the rare value whose `f32` rounding the kernel's
    /// proven error bound cannot vouch for (the bound is written out
    /// beside the guard, in this module's source).
    pub fn fill_normals_f32(&mut self, scale: f64, out: &mut [f32]) {
        for out in out.chunks_mut(CHUNK) {
            // Lanes past a short chunk's end hold the harmless pair (1, 0).
            let mut u1 = [1.0; CHUNK];
            let mut u2 = [0.0; CHUNK];
            for (u1, u2) in u1.iter_mut().zip(&mut u2).take(out.len()) {
                *u1 = self.gen_range(f64::EPSILON..1.0);
                *u2 = self.gen_range(0.0..1.0);
            }
            normals_f32(&u1, &u2, scale, out);
        }
    }
}

/// One Box–Muller transform through libm's `ln` and `cos`: maps uniforms
/// `u1 ∈ (0, 1]` and `u2 ∈ [0, 1)` to a standard normal sample.
///
/// Every normal draw of the workspace is this transform:
/// [`Rng::standard_normal`] for `f64` consumers, [`Rng::fill_normals_f32`]
/// for the `f32` planes, and keyed streams that draw their own uniforms.
#[inline]
pub fn box_muller(u1: f64, u2: f64) -> f64 {
    (-2.0 * u1.ln()).sqrt() * (TAU * u2).cos()
}

/// Lanes per stack chunk of [`Rng::fill_normals_f32`].
const CHUNK: usize = 64;

/// `out[i] = (box_muller(u1[i], u2[i]) * scale) as f32` for the first
/// `out.len()` lanes: all 64 lanes through the kernel, in a loop without
/// branches the compiler vectorises, then libm for each lane the guard
/// rejects.
fn normals_f32(u1: &[f64; CHUNK], u2: &[f64; CHUNK], scale: f64, out: &mut [f32]) {
    let mut fast = [0.0; CHUNK];
    let mut keep = [false; CHUNK];
    for i in 0..CHUNK {
        (fast[i], keep[i]) = guarded_box_muller(u1[i], u2[i], scale);
    }
    for (i, out) in out.iter_mut().enumerate() {
        *out = if keep[i] {
            fast[i] as f32
        } else {
            (box_muller(u1[i], u2[i]) * scale) as f32
        };
    }
}

/// Relative half-width of the guard interval: 2⁻³⁶.
const GUARD: f64 = 1.0 / (1u64 << 36) as f64;
/// √½, whose bits mark where [`guarded_box_muller`] splits the mantissa.
const SQRT_HALF_BITS: u64 = 0x3FE6_A09E_667F_3BCD;
const ONE_BITS: u64 = 0x3FF0_0000_0000_0000;
const MANTISSA: u64 = (1 << 52) - 1;
/// 2⁵²: OR-ing a small integer into its mantissa and subtracting it back
/// converts the integer to `f64` without an integer-to-float instruction.
const TWO_52: f64 = 4_503_599_627_370_496.0;
/// 1.5·2⁵²: adding it rounds a small non-negative `f64` to the nearest
/// integer, which lands in the sum's low mantissa bits.
const ROUND: f64 = 6_755_399_441_055_744.0;
/// π/2 in two parts (fdlibm's `pio2_1`, `pio2_1t`): the first has 22
/// trailing zero bits, so `k·PIO2_HI` is exact for `k ≤ 4`.
const PIO2_HI: f64 = f64::from_bits(0x3FF9_21FB_5440_0000);
const PIO2_LO: f64 = f64::from_bits(0x3DD0_B461_1A62_6331);
/// `atanh(s)/s − 1 = s²·Σ s²ʲ/(2j + 3)`, through s¹⁵.
const ATANH: [f64; 7] = [
    1.0 / 3.0,
    1.0 / 5.0,
    1.0 / 7.0,
    1.0 / 9.0,
    1.0 / 11.0,
    1.0 / 13.0,
    1.0 / 15.0,
];
/// `cos r − 1 = r²·Σ (−1)ʲ⁺¹ r²ʲ/(2j + 2)!`, through r¹⁴.
const COS: [f64; 7] = [
    -1.0 / 2.0,
    1.0 / 24.0,
    -1.0 / 720.0,
    1.0 / 40_320.0,
    -1.0 / 3_628_800.0,
    1.0 / 479_001_600.0,
    -1.0 / 87_178_291_200.0,
];
/// `sin r − r = r³·Σ (−1)ʲ⁺¹ r²ʲ/(2j + 3)!`, through r¹⁵.
const SIN: [f64; 7] = [
    -1.0 / 6.0,
    1.0 / 120.0,
    -1.0 / 5_040.0,
    1.0 / 362_880.0,
    -1.0 / 39_916_800.0,
    1.0 / 6_227_020_800.0,
    -1.0 / 1_307_674_368_000.0,
];

/// `Σ c[j]·xʲ` by Estrin's scheme, given `x²` and `x⁴`: three
/// multiply-adds deep where Horner's rule is six.
#[inline(always)]
fn estrin(x: f64, x2: f64, x4: f64, c: &[f64; 7]) -> f64 {
    ((c[0] + c[1] * x) + x2 * (c[2] + c[3] * x)) + x4 * ((c[4] + c[5] * x) + x2 * c[6])
}

/// `v ≈ box_muller(u1, u2) * scale` by polynomials, and whether
/// `v as f32` is certainly `(box_muller(u1, u2) * scale) as f32`.
///
/// - `ln u1`: `u1 = m·2ᵉ` with `m ∈ [√½, √2)`, and
///   `ln m = 2·atanh(s)`, `s = (m − 1)/(m + 1)`, `|s| ≤ 0.1716`. The
///   series stops at s¹⁵, so it is short by less than
///   `s¹⁶/17/(1 − s²) < 2⁻⁴⁴` relative. For `e ≠ 0`, `|ln m| ≤ |ln u1|`,
///   so the sum `e·ln 2 + ln m` keeps that bound.
/// - `cos a` at libm's own argument `a = 2π·u2 ∈ [0, 2π)`:
///   `k = round(a·2/π) ≤ 4` and `r = (a − k·PIO2_HI) − k·PIO2_LO`.
///   `k·PIO2_HI` is exact and so, by Sterbenz, is `a − k·PIO2_HI`, since
///   `a` lies within a factor of 2 of it; the rest of `r` adds one
///   rounding and at most 2⁻⁸⁴ absolute. `cos a` is `±cos r` or `±sin r` by `k`, each
///   a Taylor sum on `|r| ≤ π/4` (through r¹⁴ and r¹⁵) that is short by
///   less than 2⁻⁴⁹ relative (`r¹⁶/16!/cos(π/4)`, `r¹⁶/17!`).
/// - Rounding in the kernel adds under 2⁻⁴⁸, and libm's `ln` and `cos`
///   are within 1 ulp, so `|v − v_libm| ≤ 2⁻⁴²·|v|`.
///
/// The guard keeps `v` only when `v ± 2⁻³⁶·|v|` round to the same `f32`:
/// `v_libm` lies inside that interval with 64× slack, and rounding
/// `f64 → f32` is monotone, so it rounds to the same `f32` as `v`. The
/// proof holds lane by lane, at any vector width. It does not cover `r`
/// near 0, where 2⁻⁸⁴ is no longer small against `r`, nor `ln u1` near 0;
/// `|r| < 1e-9` or `|ln u1| < 1e-12` comes about once in 10⁹ pairs, and
/// the guard sends it to libm.
#[inline(always)]
fn guarded_box_muller(u1: f64, u2: f64, scale: f64) -> (f64, bool) {
    // u1 ∈ [EPSILON, 1) is normal and positive; the add moves mantissas
    // at or above √2's into the next binade (musl's `log` split).
    let ix = u1.to_bits() + (ONE_BITS - SQRT_HALF_BITS);
    let e = f64::from_bits(TWO_52.to_bits() | ix >> 52) - (TWO_52 + 1023.0);
    let m = f64::from_bits((ix & MANTISSA) + SQRT_HALF_BITS);
    let s = (m - 1.0) / (m + 1.0);
    let s2 = s * s;
    let s4 = s2 * s2;
    let ln_u1 = e * LN_2 + 2.0 * s * (1.0 + s2 * estrin(s2, s4, s4 * s4, &ATANH));

    let a = TAU * u2;
    let rounded = a * FRAC_2_PI + ROUND;
    let k = rounded - ROUND;
    let quadrant = rounded.to_bits();
    let r = (a - k * PIO2_HI) - k * PIO2_LO;
    let r2 = r * r;
    let r4 = r2 * r2;
    let r8 = r4 * r4;
    let cos_r = 1.0 + r2 * estrin(r2, r4, r8, &COS);
    let sin_r = r + r * r2 * estrin(r2, r4, r8, &SIN);
    // cos(r + k·π/2) is cos r, −sin r, −cos r, sin r for k mod 4 = 0..3.
    let c = if quadrant & 1 == 0 { cos_r } else { sin_r };
    let c = f64::from_bits(c.to_bits() ^ ((quadrant + 1) & 2) << 62);

    let v = (-2.0 * ln_u1).sqrt() * c * scale;
    let margin = v.abs() * GUARD;
    let keep =
        (v - margin) as f32 == (v + margin) as f32 && r.abs() >= 1e-9 && ln_u1.abs() >= 1e-12;
    (v, keep)
}

/// The types [`Rng::gen`] draws.
pub trait Standard {
    /// One uniform value from `rng`.
    fn draw(rng: &mut Rng) -> Self;
}

impl Standard for u64 {
    #[inline]
    fn draw(rng: &mut Rng) -> Self {
        rng.next_u64()
    }
}

impl Standard for f64 {
    #[inline]
    fn draw(rng: &mut Rng) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for bool {
    #[inline]
    fn draw(rng: &mut Rng) -> Self {
        rng.next_u64() >> 63 == 1
    }
}

/// The ranges [`Rng::gen_range`] samples from.
pub trait SampleRange<T> {
    /// One value of the range, drawn from `rng`.
    fn sample(self, rng: &mut Rng) -> T;
}

macro_rules! unsigned_ranges {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            #[inline]
            fn sample(self, rng: &mut Rng) -> $t {
                assert!(self.start < self.end, "empty gen_range");
                let span = (self.end - self.start) as u64;
                self.start + (rng.next_u64() % span) as $t
            }
        }

        impl SampleRange<$t> for RangeInclusive<$t> {
            #[inline]
            fn sample(self, rng: &mut Rng) -> $t {
                let (lo, hi) = self.into_inner();
                assert!(lo <= hi, "empty gen_range");
                match ((hi - lo) as u64).checked_add(1) {
                    Some(span) => lo + (rng.next_u64() % span) as $t,
                    None => rng.next_u64() as $t,
                }
            }
        }
    )*};
}

unsigned_ranges!(u16, u32, u64, usize);

impl SampleRange<f64> for Range<f64> {
    #[inline]
    fn sample(self, rng: &mut Rng) -> f64 {
        assert!(self.start < self.end, "empty gen_range");
        self.start + (self.end - self.start) * rng.gen::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_matches_published_splitmix64_vectors() {
        let mut rng = Rng::seed_from_u64(1_234_567);
        let got: Vec<u64> = (0..5).map(|_| rng.next_u64()).collect();
        assert_eq!(
            got,
            [
                6_457_827_717_110_365_317,
                3_203_168_211_198_807_973,
                9_817_491_932_198_370_423,
                4_593_380_528_125_082_431,
                16_408_922_859_458_223_821,
            ]
        );
    }

    #[test]
    fn jump_equals_sequential_draws() {
        // The last seed wraps the state within the first draws.
        for seed in [0, 1_234_567, u64::MAX - 2] {
            for k in [0u64, 1, 7, 4 * 1024 * 256] {
                let mut walked = Rng::seed_from_u64(seed);
                for _ in 0..k {
                    walked.next_u64();
                }
                let mut jumped = Rng::seed_from_u64(seed);
                jumped.jump(k);
                assert_eq!(jumped.next_u64(), walked.next_u64(), "seed {seed}, k {k}");
            }
            // u64::MAX draws are one short of the period: the jump lands
            // one draw before the start, so the second draw after it is
            // the stream's first.
            let mut jumped = Rng::seed_from_u64(seed);
            jumped.jump(u64::MAX);
            jumped.next_u64();
            assert_eq!(jumped.next_u64(), Rng::seed_from_u64(seed).next_u64());
        }
    }

    #[test]
    fn draws_reduce_one_output_each() {
        let x = Rng::seed_from_u64(9).next_u64();
        let fresh = || Rng::seed_from_u64(9);
        assert_eq!(fresh().gen::<u64>(), x);
        assert_eq!(fresh().gen::<f64>(), (x >> 11) as f64 / (1u64 << 53) as f64);
        assert_eq!(fresh().gen::<bool>(), x >> 63 == 1);
        assert_eq!(fresh().gen_range(10u32..17), 10 + (x % 7) as u32);
        assert_eq!(fresh().gen_range(10usize..=16), 10 + (x % 7) as usize);
        assert_eq!(fresh().gen_range(0..=u64::MAX), x);
        let u = fresh().gen::<f64>();
        assert_eq!(fresh().gen_range(2.0..5.0), 2.0 + 3.0 * u);
        assert_eq!(fresh().gen_bool(0.5), u < 0.5);
    }

    #[test]
    #[should_panic(expected = "empty gen_range")]
    fn empty_range_panics() {
        Rng::seed_from_u64(0).gen_range(4u32..4);
    }

    #[test]
    fn box_muller_known_points() {
        // u2 = 0.25 → cos(π/2) ≈ 0 (exactly 0 up to cos rounding).
        assert!(box_muller(1.0, 0.25).abs() < 1e-15);
        // u1 = e^{-1/2} → radius 1; u2 = 0 → cos(0) = 1.
        assert!((box_muller((-0.5f64).exp(), 0.0) - 1.0).abs() < 1e-12);
        // u2 = 0.5 flips the sign.
        assert!((box_muller((-0.5f64).exp(), 0.5) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn box_muller_is_bit_identical_to_the_inline_form() {
        // Call sites once spelled `2.0 * PI`; doubling PI is exact, so
        // `TAU` must agree to the last bit for arbitrary uniforms.
        let mut u = 0.123_456_789_f64;
        for _ in 0..1000 {
            let u1 = u.max(f64::EPSILON);
            let u2 = (u * 7.77).fract();
            let inline = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            assert_eq!(inline.to_bits(), box_muller(u1, u2).to_bits());
            u = (u * 997.0).fract();
        }
    }

    #[test]
    fn standard_normal_pins_the_draw_convention() {
        let mut a = Rng::seed_from_u64(42);
        let mut b = Rng::seed_from_u64(42);
        for _ in 0..64 {
            let z = a.standard_normal();
            let u1 = b.gen_range(f64::EPSILON..1.0);
            let u2 = b.gen_range(0.0..1.0);
            assert_eq!(z.to_bits(), box_muller(u1, u2).to_bits());
        }
        assert_eq!(a.next_u64(), b.next_u64(), "same residual stream");
    }

    /// The scales the `f32` consumers use: silicon factors (1.0), the
    /// calibrated Frac residual σ (0.12) and the clamp-heavy Frac test's
    /// σ (2.0).
    const SCALES: [f64; 3] = [1.0, 0.12, 2.0];

    #[test]
    fn fill_normals_f32_stores_libm_values_and_draws_two_per_value() {
        for (i, scale) in SCALES.into_iter().enumerate() {
            for len in [0, 1, 63, 64, 65, 256, 512] {
                let seed = 1000 * i as u64 + len as u64;
                let mut filled = Rng::seed_from_u64(seed);
                let mut out = vec![f32::NAN; len];
                filled.fill_normals_f32(scale, &mut out);
                let mut scalar = Rng::seed_from_u64(seed);
                for (j, got) in out.iter().enumerate() {
                    let want = (scalar.standard_normal() * scale) as f32;
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "scale {scale}, len {len}, #{j}"
                    );
                }
                let mut jumped = Rng::seed_from_u64(seed);
                jumped.jump(2 * len as u64);
                let next = filled.next_u64();
                assert_eq!(next, jumped.next_u64(), "scale {scale}, len {len}");
                assert_eq!(next, scalar.next_u64(), "scale {scale}, len {len}");
            }
        }
    }

    /// Fills `pairs` normals per scale from `seed`, 512 at a time, and
    /// compares each with the libm value of the same draws.
    fn assert_fill_matches_libm(seed: u64, pairs: usize) {
        let mut out = [0.0; 512];
        for scale in SCALES {
            let mut filled = Rng::seed_from_u64(seed);
            let mut scalar = Rng::seed_from_u64(seed);
            for _ in 0..pairs / out.len() {
                filled.fill_normals_f32(scale, &mut out);
                for got in out {
                    let want = (scalar.standard_normal() * scale) as f32;
                    assert_eq!(got.to_bits(), want.to_bits(), "seed {seed}, scale {scale}");
                }
            }
        }
    }

    #[test]
    fn fill_normals_f32_matches_libm_on_2_22_pairs_per_scale() {
        assert_fill_matches_libm(0x5EED_F111, 1 << 22);
    }

    #[test]
    #[ignore = "2²⁸ pairs per scale, about half a minute in release"]
    fn fill_normals_f32_matches_libm_on_2_28_pairs_per_scale() {
        // Eight seeds of 2²⁵ pairs, on two threads.
        std::thread::scope(|s| {
            for first in 0..2 {
                s.spawn(move || {
                    for seed in (first..8).step_by(2) {
                        assert_fill_matches_libm(0x10_0000 + seed, 1 << 25);
                    }
                });
            }
        });
    }

    /// Runs `pairs` through the chunk kernel, checks every stored value
    /// against libm, and counts the pairs the guard sent to libm.
    fn kernel_vs_libm(pairs: &[(f64, f64)], scale: f64) -> usize {
        let mut fallbacks = 0;
        for chunk in pairs.chunks(CHUNK) {
            let (mut u1, mut u2) = ([1.0; CHUNK], [0.0; CHUNK]);
            for (i, &pair) in chunk.iter().enumerate() {
                (u1[i], u2[i]) = pair;
            }
            let mut out = [0.0; CHUNK];
            normals_f32(&u1, &u2, scale, &mut out[..chunk.len()]);
            for (&(u1, u2), got) in chunk.iter().zip(out) {
                let want = (box_muller(u1, u2) * scale) as f32;
                let at = format!("u1 {u1:e}, u2 {u2:e}, scale {scale}");
                assert_eq!(got.to_bits(), want.to_bits(), "{at}");
                fallbacks += usize::from(!guarded_box_muller(u1, u2, scale).1);
            }
        }
        fallbacks
    }

    #[test]
    fn u2_near_the_quadrant_points_gets_libm_values() {
        let mut u2s = Vec::new();
        for center in [0.0f64, 0.25, 0.5, 0.75] {
            // The 2¹⁶ doubles on each side (above only, for 0).
            let bits = center.to_bits();
            u2s.push(center);
            for k in 1..=1 << 16 {
                u2s.push(f64::from_bits(bits + k));
                if center > 0.0 {
                    u2s.push(f64::from_bits(bits - k));
                }
            }
            // Offsets 2⁻⁵³ … 2⁻³ cross the kernel's |r| < 1e-9 cut.
            for j in 3..=53 {
                let d = 0.5f64.powi(j);
                u2s.extend([center - d, center + d].into_iter().filter(|u| *u >= 0.0));
            }
        }
        let mut rng = Rng::seed_from_u64(0x0002);
        let pairs: Vec<_> = u2s
            .into_iter()
            .map(|u2| (rng.gen_range(f64::EPSILON..1.0), u2))
            .collect();
        for scale in SCALES {
            kernel_vs_libm(&pairs, scale);
        }
    }

    #[test]
    fn u1_at_epsilon_and_just_below_one_gets_libm_values() {
        let mut u1s = vec![f64::EPSILON];
        u1s.extend((1..=1 << 16).map(|k| f64::from_bits(1.0f64.to_bits() - k)));
        let mut rng = Rng::seed_from_u64(0x0001);
        let pairs: Vec<_> = u1s
            .into_iter()
            .map(|u1| (u1, rng.gen_range(0.0..1.0)))
            .collect();
        for scale in SCALES {
            // The 9 007 doubles closest to 1 have |ln u1| < 1e-12.
            assert!(kernel_vs_libm(&pairs, scale) >= 9_007, "scale {scale}");
        }
    }

    /// Seeded pairs whose libm value lies within 2⁻³⁸ of an `f32` rounding
    /// midpoint, as `(u1 bits, u2 bits, scale)`, found by searching 2³¹
    /// pairs at each scale. On the first twelve, the kernel's unguarded
    /// value rounds to another `f32` than libm's (glibc's `log` and `cos`
    /// on x86-64); the comment gives the libm value's distance from the
    /// midpoint, relative.
    const NEAR_MIDPOINT: [(u64, u64, f64); 16] = [
        (0x3FE7_084B_6939_323C, 0x3FC2_3C54_EDEC_9E3C, 0.12), // 2⁻⁴⁸·⁰
        (0x3FE6_B05D_B953_4A2D, 0x3FE9_708E_E86C_E333, 0.12), // 2⁻⁴⁶·⁹
        (0x3FE6_B09E_5F23_F5BC, 0x3FE5_9BDF_6036_1BBC, 0.12), // 2⁻⁴⁸·²
        (0x3FE6_6793_4523_1761, 0x3FD5_F4D5_EB79_1652, 0.12), // 2⁻⁴⁶·⁹
        (0x3FA5_815E_457E_040F, 0x3FE8_31B9_3C35_8963, 0.12), // 2⁻⁵²·⁶
        (0x3FE6_460E_9884_14C7, 0x3FDC_D621_2834_3360, 1.0),  // 2⁻⁴⁷·¹
        (0x3FE6_699D_0CB6_E206, 0x3FCA_189F_0E78_9A68, 1.0),  // 2⁻⁴⁸·²
        (0x3FE6_F492_7642_89D3, 0x3FE3_56F2_6F8E_DE6B, 1.0),  // 2⁻⁴⁷·⁷
        (0x3FD5_C3B7_0093_2F35, 0x3FD4_58C8_6F7C_0DD4, 1.0),  // 2⁻⁵⁰·³
        (0x3FE7_0538_00EC_A86C, 0x3FD0_9BCB_35C0_F992, 2.0),  // 2⁻⁴⁸·¹
        (0x3FE7_431F_AF99_8733, 0x3FC5_5C0E_08A3_9440, 2.0),  // 2⁻⁴⁸·²
        (0x3FE5_E937_570D_3117, 0x3FD4_17E7_7207_A53E, 2.0),  // 2⁻⁵⁰·¹
        (0x3FCD_C106_9E68_B126, 0x3FE3_724C_6760_D825, 0.12), // 2⁻³⁸·⁸
        (0x3FED_0B02_D9FC_372A, 0x3FDB_0E0D_820D_D0E8, 0.12), // 2⁻⁴⁰·³
        (0x3FB2_962F_66A9_4A67, 0x3FBD_66B8_18BD_3B48, 1.0),  // 2⁻³⁸·²
        (0x3FCF_A0E5_1E0B_2A2E, 0x3FEE_1576_F4A9_EC1C, 2.0),  // 2⁻³⁸·⁴
    ];

    #[test]
    fn the_guard_sends_near_midpoint_pairs_to_libm() {
        for &(u1, u2, scale) in &NEAR_MIDPOINT {
            let pair = (f64::from_bits(u1), f64::from_bits(u2));
            assert_eq!(kernel_vs_libm(&[pair], scale), 1, "{pair:?}, scale {scale}");
        }
    }
}
