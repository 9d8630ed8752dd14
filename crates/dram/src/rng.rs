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
}
