//! The SPICE-equivalent Monte-Carlo study (§3.5, §7.2, Fig. 15).
//!
//! The paper runs LTspice with the Rambus 55 nm array model scaled to
//! 22 nm, varying capacitor and transistor parameters by 10–40 % over 10⁴
//! Monte-Carlo iterations, and reports (a) the bitline perturbation right
//! before sensing for MAJ3(1,1,0) under N-row activation and (b) the MAJ3
//! success rate. This module reproduces both with the same
//! charge-conservation arithmetic as the live engine, standalone from any
//! `Subarray` (the SPICE deck knows nothing of our modelled silicon
//! either).

use simra_dram::Rng;

use crate::params::CircuitParams;

/// VDD used to convert normalized perturbations to millivolts in reports.
pub const VDD_VOLTS: f64 = 1.2;

/// Configuration of one Monte-Carlo experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonteCarloConfig {
    /// Number of independent cell sets per (N, variation) point
    /// (the paper uses 1000 sets; Fig. 15 also cites 10⁴ iterations).
    pub sets: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for MonteCarloConfig {
    fn default() -> Self {
        MonteCarloConfig {
            sets: 1000,
            seed: 0x51CE,
        }
    }
}

/// Distribution summary of the bitline perturbation (in mV) plus the MAJ3
/// success rate for one (N, variation) point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonteCarloPoint {
    /// Number of simultaneously activated rows.
    pub n_rows: u32,
    /// Component variation in percent (10–40).
    pub variation_pct: u32,
    /// Mean perturbation (mV).
    pub mean_mv: f64,
    /// First quartile (mV).
    pub q1_mv: f64,
    /// Median (mV).
    pub median_mv: f64,
    /// Third quartile (mV).
    pub q3_mv: f64,
    /// Minimum (mV).
    pub min_mv: f64,
    /// Maximum (mV).
    pub max_mv: f64,
    /// Fraction of sets whose perturbation clears the sensing dead zone in
    /// the correct (positive) direction — the MAJ3 success rate.
    pub success_rate: f64,
}

/// Cell voltages for MAJ3(1, 1, 0) under `n`-row activation: each operand
/// replicated `⌊n/3⌋` times, remainder rows neutral at VDD/2. For `n = 1`
/// a single fully charged cell (the single-row activation baseline box of
/// Fig. 15a).
pub fn maj3_110_voltages(n: u32) -> Vec<f64> {
    if n == 1 {
        return vec![1.0];
    }
    let r = (n / 3) as usize;
    let mut v = Vec::with_capacity(n as usize);
    v.extend(std::iter::repeat_n(1.0, 2 * r)); // operands A = B = 1
    v.extend(std::iter::repeat_n(0.0, r)); // operand C = 0
    v.extend(std::iter::repeat_n(0.5, n as usize - 3 * r)); // neutral
    v
}

/// Sets evaluated together by the batched [`run_point`] path: the normal
/// draws for a whole block are buffered up front and the independent
/// per-set accumulators then run as fixed-width lanes the compiler can
/// vectorize.
const SET_LANES: usize = 8;

/// Runs the Monte-Carlo study for one (N, variation) point.
///
/// Sets are independent, so they are evaluated `SET_LANES` at a time:
/// each block draws its normals into a buffer in the exact scalar order
/// (set-major; capacitor before transistor per voltage) and then sweeps
/// the voltage ladder once with per-set lane accumulators. Bit-identical
/// to the frozen [`run_point_scalar`] — same draws, same per-set
/// accumulation order, same expression shapes — which this module's
/// tests enforce.
pub fn run_point(
    params: &CircuitParams,
    n_rows: u32,
    variation_pct: u32,
    config: MonteCarloConfig,
) -> MonteCarloPoint {
    let voltages = maj3_110_voltages(n_rows);
    let sigma = variation_pct as f64 / 100.0;
    // Distinct stream per point so points are independently reproducible.
    let mut rng = Rng::seed_from_u64(config.seed ^ ((n_rows as u64) << 32) ^ variation_pct as u64);
    // A zero-set study has no distribution to summarise; clamp rather
    // than panic on the degenerate configuration.
    let sets = config.sets.max(1);
    let mut perturbations = Vec::with_capacity(sets);
    let mut successes = 0usize;
    let draws_per_set = 2 * voltages.len();
    let mut normals = vec![0.0f64; draws_per_set * SET_LANES];
    let mut base = 0;
    while base < sets {
        let width = SET_LANES.min(sets - base);
        let block = &mut normals[..draws_per_set * width];
        for z in block.iter_mut() {
            *z = rng.standard_normal();
        }
        let mut num = [0.0f64; SET_LANES];
        let mut cap_sum = [0.0f64; SET_LANES];
        for (i, &v) in voltages.iter().enumerate() {
            for (lane, (num, cap_sum)) in num.iter_mut().zip(&mut cap_sum).enumerate().take(width) {
                // Capacitor and transistor parameters each varied by
                // ±sigma, drawn in the scalar order within the lane.
                let z_cap = block[lane * draws_per_set + 2 * i];
                let z_xfer = block[lane * draws_per_set + 2 * i + 1];
                let cap = (1.0 + z_cap * sigma).max(0.05);
                let xfer = (1.0 + z_xfer * sigma).max(0.0);
                *num += cap * xfer * (v - 0.5);
                *cap_sum += cap;
            }
        }
        for lane in 0..width {
            let delta = num[lane] / (params.beta + cap_sum[lane]);
            perturbations.push(delta * VDD_VOLTS * 1000.0);
            if delta > params.sense_deadzone {
                successes += 1;
            }
        }
        base += width;
    }
    summarize(n_rows, variation_pct, perturbations, successes, sets)
}

/// Frozen scalar reference for [`run_point`]: the pre-batching set loop,
/// kept verbatim as the bit-identity contract of the vectorized path.
pub fn run_point_scalar(
    params: &CircuitParams,
    n_rows: u32,
    variation_pct: u32,
    config: MonteCarloConfig,
) -> MonteCarloPoint {
    let voltages = maj3_110_voltages(n_rows);
    let sigma = variation_pct as f64 / 100.0;
    let mut rng = Rng::seed_from_u64(config.seed ^ ((n_rows as u64) << 32) ^ variation_pct as u64);
    let sets = config.sets.max(1);
    let mut perturbations = Vec::with_capacity(sets);
    let mut successes = 0usize;
    for _ in 0..sets {
        let mut num = 0.0;
        let mut cap_sum = 0.0;
        for &v in &voltages {
            // Capacitor and transistor parameters each varied by ±sigma.
            let cap = (1.0 + rng.standard_normal() * sigma).max(0.05);
            let xfer = (1.0 + rng.standard_normal() * sigma).max(0.0);
            num += cap * xfer * (v - 0.5);
            cap_sum += cap;
        }
        let delta = num / (params.beta + cap_sum);
        perturbations.push(delta * VDD_VOLTS * 1000.0);
        if delta > params.sense_deadzone {
            successes += 1;
        }
    }
    summarize(n_rows, variation_pct, perturbations, successes, sets)
}

/// Shared distribution summary of a point's perturbation samples.
fn summarize(
    n_rows: u32,
    variation_pct: u32,
    mut perturbations: Vec<f64>,
    successes: usize,
    sets: usize,
) -> MonteCarloPoint {
    perturbations.sort_by(f64::total_cmp);
    let q = |p: f64| -> f64 {
        let idx = ((perturbations.len() - 1) as f64 * p).round() as usize;
        perturbations[idx]
    };
    MonteCarloPoint {
        n_rows,
        variation_pct,
        mean_mv: perturbations.iter().sum::<f64>() / perturbations.len() as f64,
        q1_mv: q(0.25),
        median_mv: q(0.5),
        q3_mv: q(0.75),
        min_mv: perturbations[0],
        max_mv: *perturbations.last().expect("sets >= 1 guarantees a sample"),
        success_rate: successes as f64 / sets as f64,
    }
}

/// Runs the full Fig. 15 grid: N ∈ {1, 4, 8, 16, 32} ×
/// variation ∈ {10, 20, 30, 40} %.
pub fn run_fig15(params: &CircuitParams, config: MonteCarloConfig) -> Vec<MonteCarloPoint> {
    let mut out = Vec::new();
    for &n in &[1u32, 4, 8, 16, 32] {
        for &pct in &[10u32, 20, 30, 40] {
            out.push(run_point(params, n, pct, config));
        }
    }
    out
}

/// The z value of a two-sided 95 % confidence interval — the default
/// confidence level of the hybrid backend's sequential early-stop rule.
pub const Z_95: f64 = 1.959_963_984_540_054;

/// Wilson score interval for `successes` out of `trials` Bernoulli
/// draws at critical value `z` (e.g. [`Z_95`]).
///
/// Unlike the naive Wald interval, the Wilson interval stays inside
/// `[0, 1]` and behaves sensibly at the extremes (all successes / all
/// failures), which is exactly where the characterization spends most
/// of its trials. Weighted (fractional) counts are accepted: a trial
/// that reports a success *fraction* over `w` columns contributes
/// `fraction · w` successes out of `w` pseudo-trials.
///
/// With `trials == 0` the interval is the vacuous `(0, 1)` — never NaN
/// — so callers can evaluate the rule before the first observation.
pub fn wilson_interval(successes: f64, trials: f64, z: f64) -> (f64, f64) {
    if trials.is_nan() || trials <= 0.0 {
        return (0.0, 1.0);
    }
    let n = trials;
    let p = (successes / n).clamp(0.0, 1.0);
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let center = (p + z2 / (2.0 * n)) / denom;
    let half = z / denom * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
    ((center - half).max(0.0), (center + half).min(1.0))
}

/// Half the width of [`wilson_interval`] — the convergence measure of
/// the sequential early-stop rule (`0.5` while no trials were observed).
pub fn wilson_half_width(successes: f64, trials: f64, z: f64) -> f64 {
    let (lo, hi) = wilson_interval(successes, trials, z);
    (hi - lo) / 2.0
}

/// A sequential success-rate estimate over weighted Bernoulli evidence:
/// the accumulator behind the hybrid backend's per-point early-stop
/// rule. Every update is a success *fraction* with a weight (the
/// effective independent-column count of one analog trial); the
/// estimate exposes its Wilson interval and the three predicates the
/// decision rule combines.
///
/// All methods are NaN-free at zero observations: the mean defaults to
/// the midpoint `0.5` and the interval to the vacuous `(0, 1)`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SequentialEstimate {
    weighted_successes: f64,
    weighted_trials: f64,
    samples: u32,
}

impl SequentialEstimate {
    /// A fresh estimate with no evidence.
    pub fn new() -> Self {
        SequentialEstimate::default()
    }

    /// Folds in one observed success fraction with `weight`
    /// pseudo-trials. Non-positive weights and non-finite fractions are
    /// ignored (the estimate only ever aggregates real evidence).
    pub fn observe(&mut self, fraction: f64, weight: f64) {
        if weight.is_nan() || weight <= 0.0 || !fraction.is_finite() {
            return;
        }
        self.weighted_successes += fraction.clamp(0.0, 1.0) * weight;
        self.weighted_trials += weight;
        self.samples += 1;
    }

    /// Number of observations folded in (unweighted).
    pub fn samples(&self) -> u32 {
        self.samples
    }

    /// Point estimate of the success rate; `0.5` (the interval
    /// midpoint) while no evidence was observed.
    pub fn mean(&self) -> f64 {
        if self.weighted_trials > 0.0 {
            (self.weighted_successes / self.weighted_trials).clamp(0.0, 1.0)
        } else {
            0.5
        }
    }

    /// Wilson score interval of the evidence at critical value `z`.
    pub fn interval(&self, z: f64) -> (f64, f64) {
        wilson_interval(self.weighted_successes, self.weighted_trials, z)
    }

    /// Half-width of [`SequentialEstimate::interval`].
    pub fn half_width(&self, z: f64) -> f64 {
        wilson_half_width(self.weighted_successes, self.weighted_trials, z)
    }

    /// Whether the estimate has converged: at least one observation and
    /// an interval half-width of at most `epsilon`.
    pub fn converged(&self, epsilon: f64, z: f64) -> bool {
        self.samples > 0 && self.half_width(z) <= epsilon
    }

    /// Whether the interval is decisively clear of every threshold in
    /// `thresholds` — no threshold falls inside the (closed) interval.
    /// Vacuously true for an empty threshold list.
    pub fn clear_of(&self, thresholds: &[f64], z: f64) -> bool {
        let (lo, hi) = self.interval(z);
        thresholds.iter().all(|&t| t < lo || t > hi)
    }

    /// Whether an external probability `p` (e.g. a calibrated table
    /// entry) is consistent with the evidence: inside the interval
    /// widened by `slack` on both sides. A non-finite `p` is never
    /// consistent.
    pub fn consistent_with(&self, p: f64, slack: f64, z: f64) -> bool {
        if !p.is_finite() {
            return false;
        }
        let (lo, hi) = self.interval(z);
        p >= lo - slack && p <= hi + slack
    }

    /// Posterior mean blending the evidence with a prior probability of
    /// weight `prior_weight` pseudo-trials — the answer a decided point
    /// reports: anchored to the observed trials, pulled toward the
    /// calibrated table only as far as the prior weight justifies.
    /// With no evidence this is exactly `prior` (NaN-free for finite
    /// inputs); with no prior weight it is the empirical mean.
    pub fn posterior_mean(&self, prior: f64, prior_weight: f64) -> f64 {
        let w0 = prior_weight.max(0.0);
        let denom = w0 + self.weighted_trials;
        if denom <= 0.0 {
            return 0.5;
        }
        ((w0 * prior.clamp(0.0, 1.0) + self.weighted_successes) / denom).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operand_layout_matches_replication_rule() {
        // N = 32 ⇒ 10 copies of each of 3 operands + 2 neutral rows.
        let v = maj3_110_voltages(32);
        assert_eq!(v.len(), 32);
        assert_eq!(v.iter().filter(|x| **x == 1.0).count(), 20);
        assert_eq!(v.iter().filter(|x| **x == 0.0).count(), 10);
        assert_eq!(v.iter().filter(|x| **x == 0.5).count(), 2);
        // N = 4 ⇒ one copy each + 1 neutral.
        let v4 = maj3_110_voltages(4);
        assert_eq!(v4.iter().filter(|x| **x == 0.5).count(), 1);
    }

    #[test]
    fn perturbation_grows_with_n() {
        let p = CircuitParams::calibrated();
        let cfg = MonteCarloConfig { sets: 400, seed: 7 };
        let p4 = run_point(&p, 4, 20, cfg);
        let p32 = run_point(&p, 32, 20, cfg);
        assert!(
            p32.mean_mv > p4.mean_mv * 1.5,
            "{} vs {}",
            p32.mean_mv,
            p4.mean_mv
        );
        // Paper: 32-row has ~159 % higher perturbation than 4-row; with the
        // calibrated β the model lands at ~+90 % (same direction, smaller
        // factor — recorded in EXPERIMENTS.md).
        let gain = p32.mean_mv / p4.mean_mv - 1.0;
        assert!(gain > 0.5 && gain < 2.5, "gain {gain}");
    }

    #[test]
    fn success_collapses_with_variation_at_n4_but_not_n32() {
        let p = CircuitParams::calibrated();
        let cfg = MonteCarloConfig { sets: 600, seed: 9 };
        let n4_low = run_point(&p, 4, 10, cfg).success_rate;
        let n4_high = run_point(&p, 4, 40, cfg).success_rate;
        let n32_low = run_point(&p, 32, 10, cfg).success_rate;
        let n32_high = run_point(&p, 32, 40, cfg).success_rate;
        assert!(
            n4_low - n4_high > 0.1,
            "N=4 should degrade: {n4_low} → {n4_high}"
        );
        assert!(
            n32_low - n32_high < 0.02,
            "N=32 should hold: {n32_low} → {n32_high}"
        );
        assert!(n32_high > 0.97);
    }

    #[test]
    fn grid_covers_the_figure() {
        let p = CircuitParams::calibrated();
        let pts = run_fig15(&p, MonteCarloConfig { sets: 50, seed: 1 });
        assert_eq!(pts.len(), 20);
    }

    #[test]
    fn points_are_reproducible() {
        let p = CircuitParams::calibrated();
        let cfg = MonteCarloConfig { sets: 100, seed: 5 };
        assert_eq!(run_point(&p, 8, 20, cfg), run_point(&p, 8, 20, cfg));
    }

    #[test]
    fn batched_point_matches_the_frozen_scalar_reference() {
        let p = CircuitParams::calibrated();
        // Set counts straddling the lane width, incl. a partial block.
        for sets in [1usize, 7, 8, 9, 100] {
            let cfg = MonteCarloConfig { sets, seed: 5 };
            for n in [1u32, 4, 32] {
                assert_eq!(
                    run_point(&p, n, 30, cfg),
                    run_point_scalar(&p, n, 30, cfg),
                    "sets={sets} n={n}"
                );
            }
        }
    }

    #[test]
    fn quartiles_are_ordered() {
        let p = CircuitParams::calibrated();
        let pt = run_point(&p, 16, 30, MonteCarloConfig { sets: 500, seed: 2 });
        assert!(pt.min_mv <= pt.q1_mv);
        assert!(pt.q1_mv <= pt.median_mv);
        assert!(pt.median_mv <= pt.q3_mv);
        assert!(pt.q3_mv <= pt.max_mv);
    }

    // --- Wilson interval + sequential early-stop rule ---

    fn assert_close(actual: (f64, f64), expected: (f64, f64), label: &str) {
        assert!(
            (actual.0 - expected.0).abs() < 1e-3 && (actual.1 - expected.1).abs() < 1e-3,
            "{label}: got ({:.4}, {:.4}), expected ({:.4}, {:.4})",
            actual.0,
            actual.1,
            expected.0,
            expected.1
        );
    }

    #[test]
    fn wilson_matches_known_vectors() {
        // Classic textbook values at 95 % confidence.
        assert_close(wilson_interval(5.0, 10.0, Z_95), (0.2366, 0.7634), "5/10");
        assert_close(wilson_interval(0.0, 10.0, Z_95), (0.0000, 0.2775), "0/10");
        assert_close(wilson_interval(10.0, 10.0, Z_95), (0.7225, 1.0000), "10/10");
        assert_close(wilson_interval(9.0, 10.0, Z_95), (0.5958, 0.9821), "9/10");
        assert_close(
            wilson_interval(90.0, 100.0, Z_95),
            (0.8255, 0.9445),
            "90/100",
        );
    }

    #[test]
    fn wilson_is_nan_free_and_bounded_at_the_edges() {
        let (lo, hi) = wilson_interval(0.0, 0.0, Z_95);
        assert_eq!((lo, hi), (0.0, 1.0), "zero trials = vacuous interval");
        assert_eq!(wilson_half_width(0.0, 0.0, Z_95), 0.5);
        // Out-of-range success counts are clamped, never NaN.
        let (lo, hi) = wilson_interval(20.0, 10.0, Z_95);
        assert!(lo.is_finite() && hi.is_finite() && lo <= hi && hi <= 1.0);
        let (lo, hi) = wilson_interval(-5.0, 10.0, Z_95);
        assert!(lo.is_finite() && (0.0..=1.0).contains(&lo) && hi >= lo);
        // Negative trial counts behave like zero.
        assert_eq!(wilson_interval(1.0, -3.0, Z_95), (0.0, 1.0));
    }

    #[test]
    fn wilson_narrows_with_evidence() {
        let mut last = 0.5;
        for n in [10.0, 100.0, 1000.0, 10_000.0] {
            let hw = wilson_half_width(0.9 * n, n, Z_95);
            assert!(hw < last, "half-width must shrink: {hw} at n={n}");
            last = hw;
        }
        assert!(last < 0.01, "10⁴ trials pin p to within a point: {last}");
    }

    #[test]
    fn estimate_starts_vacuous_and_nan_free() {
        let e = SequentialEstimate::new();
        assert_eq!(e.samples(), 0);
        assert_eq!(e.mean(), 0.5);
        assert_eq!(e.interval(Z_95), (0.0, 1.0));
        assert_eq!(e.half_width(Z_95), 0.5);
        assert!(!e.converged(0.02, Z_95), "no evidence is never converged");
        assert!(
            !e.converged(0.6, Z_95),
            "even a huge epsilon needs a sample"
        );
        assert!(e.clear_of(&[], Z_95), "no thresholds = vacuously clear");
        assert!(!e.clear_of(&[0.5], Z_95), "vacuous interval contains 0.5");
        assert!(e.posterior_mean(0.97, 32.0).is_finite());
        assert_eq!(e.posterior_mean(0.97, 32.0), 0.97, "prior only");
        assert_eq!(e.posterior_mean(0.97, 0.0), 0.5, "no prior, no evidence");
    }

    #[test]
    fn estimate_aggregates_weighted_fractions() {
        let mut e = SequentialEstimate::new();
        e.observe(1.0, 128.0);
        e.observe(0.5, 128.0);
        assert_eq!(e.samples(), 2);
        assert!((e.mean() - 0.75).abs() < 1e-12);
        let (lo, hi) = e.interval(Z_95);
        assert_close((lo, hi), wilson_interval(192.0, 256.0, Z_95), "weighted");
        // Ignored updates: zero/negative weight, non-finite fraction.
        e.observe(1.0, 0.0);
        e.observe(1.0, -5.0);
        e.observe(f64::NAN, 128.0);
        assert_eq!(e.samples(), 2, "bogus evidence is not evidence");
    }

    #[test]
    fn convergence_tracks_epsilon() {
        let mut e = SequentialEstimate::new();
        e.observe(1.0, 128.0);
        // All-success at n=128: half-width ≈ 0.0146.
        assert!(e.converged(0.02, Z_95));
        assert!(!e.converged(0.01, Z_95), "tighter epsilon needs more");
        // A transition-region estimate stays unconverged far longer.
        let mut mid = SequentialEstimate::new();
        mid.observe(0.5, 128.0);
        assert!(!mid.converged(0.02, Z_95));
        for _ in 0..20 {
            mid.observe(0.5, 128.0);
        }
        assert!(
            mid.converged(0.02, Z_95),
            "n=2688 at p=0.5: hw {:.4}",
            mid.half_width(Z_95)
        );
    }

    #[test]
    fn threshold_clearance_and_consistency() {
        let mut e = SequentialEstimate::new();
        e.observe(1.0, 128.0);
        e.observe(1.0, 128.0);
        // Interval ≈ (0.985, 1.0): clear of 0.5, not of 0.99.
        assert!(e.clear_of(&[0.5], Z_95));
        assert!(!e.clear_of(&[0.99], Z_95));
        assert!(e.consistent_with(0.999, 0.0, Z_95));
        assert!(e.consistent_with(0.97, 0.02, Z_95), "slack widens the band");
        assert!(
            !e.consistent_with(0.8, 0.02, Z_95),
            "a biased table is caught"
        );
        assert!(!e.consistent_with(f64::NAN, 1.0, Z_95));
    }

    #[test]
    fn posterior_blends_prior_toward_evidence() {
        let mut e = SequentialEstimate::new();
        e.observe(0.2, 128.0);
        e.observe(0.2, 128.0);
        // A badly biased prior (the Obs. 8 MAJ7 case: table says ~0.01,
        // silicon says ~0.2) is pulled to the evidence.
        let p = e.posterior_mean(0.01, 32.0);
        assert!((0.15..=0.2).contains(&p), "posterior {p}");
        // An agreeing prior barely moves the answer.
        let q = e.posterior_mean(0.21, 32.0);
        assert!((q - 0.2).abs() < 0.01, "posterior {q}");
        // Degenerate prior weights are safe.
        assert!((e.posterior_mean(0.5, -1.0) - 0.2).abs() < 1e-12);
    }
}
