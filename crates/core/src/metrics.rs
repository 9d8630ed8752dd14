//! The success-rate metric and distribution summaries for the paper's
//! box-and-whiskers plots.

/// Five-number summary plus mean, as the paper's box plots report
/// (box = Q1..Q3, whiskers = min/max).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoxStats {
    /// Minimum.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Maximum.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Number of samples summarised.
    pub count: usize,
}

impl BoxStats {
    /// Summarises a sample set: [`BoxStats::from_parts`] of one part.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or contains non-finite values.
    pub fn from_samples(samples: &[f64]) -> Self {
        BoxStats::from_parts(&[samples])
    }

    /// Summarises the concatenation of `parts` without building it: a
    /// sweep point's samples are one part per module that completed, and
    /// a figure cell reads them where the sweep left them.
    ///
    /// Sorts total-order integer keys (`order_key`), built straight from
    /// the parts, without keeping equal keys in input order: equal keys
    /// are equal bit patterns, so every statistic read from the sorted
    /// keys is bit-identical to a stable `partial_cmp` sort's of the
    /// concatenation, whatever the split. The one exception is +0.0
    /// beside −0.0, which compare equal but sort apart here; no backend
    /// emits −0.0, and debug builds assert that.
    ///
    /// # Panics
    ///
    /// Panics if every part is empty or any sample is non-finite.
    pub fn from_parts(parts: &[&[f64]]) -> Self {
        let count: usize = parts.iter().map(|part| part.len()).sum();
        assert!(count > 0, "cannot summarise an empty sample set");
        let mut keys: Vec<u64> = Vec::with_capacity(count);
        for part in parts {
            keys.extend(part.iter().map(|&x| {
                assert!(x.is_finite(), "samples must be finite");
                order_key(x)
            }));
        }
        keys.sort_unstable();
        let at = |i: usize| from_order_key(keys[i]);
        debug_assert!(
            (1..count).all(|i| at(i - 1) < at(i) || at(i - 1).to_bits() == at(i).to_bits()),
            "+0.0 and -0.0 in one sample set sort apart from the stable order"
        );
        let q = |p: f64| -> f64 {
            // Linear interpolation between closest ranks.
            let pos = p * (count - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            if lo == hi {
                at(lo)
            } else {
                at(lo) + (at(hi) - at(lo)) * (pos - lo as f64)
            }
        };
        BoxStats {
            min: at(0),
            q1: q(0.25),
            median: q(0.5),
            q3: q(0.75),
            max: at(count - 1),
            mean: keys.iter().map(|&key| from_order_key(key)).sum::<f64>() / count as f64,
            count,
        }
    }

    /// Like [`BoxStats::from_samples`], but an empty set summarises to
    /// NaN: [`BoxStats::from_parts_or_nan`] of one part.
    pub fn from_samples_or_nan(samples: &[f64]) -> Self {
        BoxStats::from_parts_or_nan(&[samples])
    }

    /// Like [`BoxStats::from_parts`], but parts that are all empty — a
    /// sweep point whose every module failed — summarise to NaN in every
    /// statistic (with `count == 0`), as [`mean_of_parts`] does, instead
    /// of panicking.
    pub fn from_parts_or_nan(parts: &[&[f64]]) -> Self {
        if parts.iter().all(|part| part.is_empty()) {
            return BoxStats {
                min: f64::NAN,
                q1: f64::NAN,
                median: f64::NAN,
                q3: f64::NAN,
                max: f64::NAN,
                mean: f64::NAN,
                count: 0,
            };
        }
        BoxStats::from_parts(parts)
    }

    /// Inter-quartile range (the box height).
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }
}

impl std::fmt::Display for BoxStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "min {:6.2} | q1 {:6.2} | med {:6.2} | q3 {:6.2} | max {:6.2} | mean {:6.2}",
            self.min, self.q1, self.median, self.q3, self.max, self.mean
        )
    }
}

/// A key whose integer order is the numeric order of finite `x`
/// (−0.0 just below +0.0): the sign bit flipped for positives, every
/// bit flipped for negatives.
fn order_key(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// The inverse of [`order_key`].
fn from_order_key(key: u64) -> f64 {
    let bits = if key >> 63 == 1 {
        key & !(1 << 63)
    } else {
        !key
    };
    f64::from_bits(bits)
}

/// Mean of a slice (success rates are usually averaged across groups).
pub fn mean(samples: &[f64]) -> f64 {
    mean_of_parts(&[samples])
}

/// [`mean`] of the concatenation of `parts`, summed part by part in
/// order: the same fold over the same values, so the same bits, without
/// building the concatenation. NaN when every part is empty.
pub fn mean_of_parts(parts: &[&[f64]]) -> f64 {
    let count: usize = parts.iter().map(|part| part.len()).sum();
    if count == 0 {
        return f64::NAN;
    }
    parts.iter().copied().flatten().sum::<f64>() / count as f64
}

/// Converts a 0–1 fraction to percent.
pub fn pct(fraction: f64) -> f64 {
    fraction * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn five_number_summary() {
        let s = BoxStats::from_samples(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.q1, 2.0);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.q3, 4.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.count, 5);
        assert_eq!(s.iqr(), 2.0);
    }

    #[test]
    fn interpolated_quartiles() {
        let s = BoxStats::from_samples(&[0.0, 1.0]);
        assert_eq!(s.q1, 0.25);
        assert_eq!(s.median, 0.5);
        assert_eq!(s.q3, 0.75);
    }

    #[test]
    fn single_sample() {
        let s = BoxStats::from_samples(&[7.0]);
        assert_eq!(s.min, 7.0);
        assert_eq!(s.max, 7.0);
        assert_eq!(s.median, 7.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_rejected() {
        BoxStats::from_samples(&[]);
    }

    #[test]
    fn empty_quorum_summarises_to_nan() {
        let empty: [&[f64]; 3] = [&[], &[], &[]];
        for s in [
            BoxStats::from_samples_or_nan(&[]),
            BoxStats::from_parts_or_nan(&[]),
            BoxStats::from_parts_or_nan(&empty),
        ] {
            assert_eq!(s.count, 0);
            assert!([s.min, s.q1, s.median, s.q3, s.max, s.mean]
                .iter()
                .all(|v| v.is_nan()));
        }
        assert!(mean_of_parts(&empty).is_nan());
        assert_eq!(
            BoxStats::from_samples_or_nan(&[1.0, 2.0]),
            BoxStats::from_samples(&[1.0, 2.0])
        );
        assert_eq!(
            BoxStats::from_parts_or_nan(&[&[], &[1.0], &[], &[2.0]]),
            BoxStats::from_samples(&[1.0, 2.0])
        );
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn all_empty_parts_rejected() {
        BoxStats::from_parts(&[&[], &[], &[]]);
    }

    #[test]
    #[should_panic(expected = "samples must be finite")]
    fn non_finite_sample_in_a_later_part_rejected() {
        BoxStats::from_parts_or_nan(&[&[0.5, 1.0], &[], &[0.25, f64::NAN]]);
    }

    #[test]
    #[should_panic(expected = "samples must be finite")]
    fn nan_sample_rejected_loudly() {
        // A NaN sample must trip the finite-samples invariant before the
        // sort, not silently poison the quartiles.
        BoxStats::from_samples(&[1.0, f64::NAN, 2.0]);
    }

    /// The summary as it was computed before the sort keys: a stable
    /// `partial_cmp` sort of a copy.
    fn stable_sort_summary(samples: &[f64]) -> BoxStats {
        let mut s = samples.to_vec();
        s.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let q = |p: f64| {
            let pos = p * (s.len() - 1) as f64;
            let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
            if lo == hi {
                s[lo]
            } else {
                s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
            }
        };
        BoxStats {
            min: s[0],
            q1: q(0.25),
            median: q(0.5),
            q3: q(0.75),
            max: s[s.len() - 1],
            mean: s.iter().sum::<f64>() / s.len() as f64,
            count: s.len(),
        }
    }

    /// `len` seeded samples shaped like success rates: the rails 0.0 and
    /// 1.0, a few repeated levels, arbitrary fractions, and some
    /// negatives for the order key's other half.
    fn rate_like_samples(rng: &mut simra_dram::Rng, len: usize) -> Vec<f64> {
        (0..len)
            .map(|_| match rng.gen_range(0u32..5) {
                0 => 0.0,
                1 => 1.0,
                2 => f64::from(rng.gen_range(0u32..8)) / 8.0,
                3 => rng.gen::<f64>(),
                _ => -rng.gen::<f64>() * 1e3,
            })
            .collect()
    }

    /// Every statistic's bits, `count` aside.
    fn bits(s: BoxStats) -> [u64; 6] {
        [s.min, s.q1, s.median, s.q3, s.max, s.mean].map(f64::to_bits)
    }

    #[test]
    fn key_sort_matches_the_stable_sort_bit_for_bit() {
        let mut rng = simra_dram::Rng::seed_from_u64(0xB0C5);
        for len in [1usize, 2, 3, 4, 5, 7, 8, 64, 999, 4096] {
            for _ in 0..16 {
                let samples = rate_like_samples(&mut rng, len);
                let summary = BoxStats::from_samples(&samples);
                let oracle = stable_sort_summary(&samples);
                assert_eq!(bits(summary), bits(oracle), "{len} samples");
                assert_eq!(summary.count, oracle.count);
            }
        }
    }

    #[test]
    fn every_split_into_parts_summarises_like_the_whole() {
        // Short sets are cut at every pair of cut points, equal and end
        // cuts included (empty parts); long ones at seeded random cuts,
        // with empty parts spliced in. Every split must summarise, and
        // average, bit for bit like the whole set.
        let mut rng = simra_dram::Rng::seed_from_u64(0xB0C5);
        for len in [1usize, 2, 3, 4, 5, 7, 8, 64, 999, 4096] {
            for _ in 0..4 {
                let samples = rate_like_samples(&mut rng, len);
                let whole = BoxStats::from_samples(&samples);
                let whole_mean = mean(&samples).to_bits();
                let check = |cuts: &[usize]| {
                    let mut parts: Vec<&[f64]> = Vec::new();
                    let mut start = 0;
                    for &cut in cuts.iter().chain([&len]) {
                        parts.push(&samples[start..cut]);
                        start = cut;
                    }
                    for summary in [
                        BoxStats::from_parts(&parts),
                        BoxStats::from_parts_or_nan(&parts),
                    ] {
                        assert_eq!(bits(summary), bits(whole), "{len} samples cut at {cuts:?}");
                        assert_eq!(summary.count, len);
                    }
                    let mean = mean_of_parts(&parts).to_bits();
                    assert_eq!(mean, whole_mean, "{len} samples cut at {cuts:?}");
                };
                if len <= 8 {
                    for a in 0..=len {
                        for b in a..=len {
                            check(&[a, b]);
                        }
                    }
                } else {
                    for _ in 0..32 {
                        let mut cuts: Vec<usize> = (0..rng.gen_range(1usize..20))
                            .map(|_| rng.gen_range(0..len + 1))
                            .collect();
                        cuts.sort_unstable();
                        // Repeat some cuts: an empty part between them.
                        let repeats: Vec<usize> =
                            cuts.iter().copied().filter(|_| rng.gen::<bool>()).collect();
                        cuts.extend(repeats);
                        cuts.sort_unstable();
                        check(&cuts);
                    }
                }
            }
        }
    }

    #[test]
    fn order_keys_sort_like_the_values() {
        let values = [
            f64::MIN,
            -1.0,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            5e-324,
            0.5,
            1.0,
            f64::MAX,
        ];
        for pair in values.windows(2) {
            assert!(order_key(pair[0]) < order_key(pair[1]), "{pair:?}");
        }
        for v in values {
            assert_eq!(from_order_key(order_key(v)).to_bits(), v.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "samples must be finite")]
    fn infinite_sample_rejected() {
        BoxStats::from_samples(&[1.0, f64::INFINITY]);
    }

    #[test]
    #[should_panic(expected = "samples must be finite")]
    fn negative_infinite_sample_rejected() {
        BoxStats::from_samples(&[f64::NEG_INFINITY, 1.0]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "sort apart from the stable order")]
    fn mixed_signed_zeros_trip_the_debug_assertion() {
        BoxStats::from_samples(&[0.0, -0.0, 1.0]);
    }

    #[test]
    fn helpers() {
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
        assert!(mean(&[]).is_nan());
        assert!((pct(0.9985) - 99.85).abs() < 1e-9);
    }

    #[test]
    fn display_contains_all_fields() {
        let s = BoxStats::from_samples(&[1.0, 2.0, 3.0]);
        let out = s.to_string();
        assert!(out.contains("med") && out.contains("mean"));
    }
}
