//! Figures 10–12: Multi-RowCopy robustness under timing, data pattern,
//! temperature, and wordline voltage.
//!
//! Each figure submits its whole (timing, pattern, operating-point,
//! destination-count) grid as one [`run_sweep`](crate::fleet::run_sweep) call; rows are assembled
//! from the per-point sample sets, which arrive in the enumeration order
//! of the points.
//!
//! Per-trial Multi-RowCopy success evaluation rides the fused analog
//! reductions in `simra_core::multirowcopy` (per-column latch mask
//! hashed once, `commit_survival_into` with a reused buffer) rather than
//! re-deriving per-cell state here.

use simra_core::metrics::{mean, pct, BoxStats};
use simra_dram::ApaTiming;
use simra_exec::{MrcSource, TrialSpec};

use crate::backend::sweep_trial_samples;
use crate::fleet::SweepPoint;
use crate::report::Table;
use crate::session::Session;

/// Destination counts of §6 (N-row activation copies to N − 1 rows).
pub const DEST_COUNTS: [u32; 5] = [1, 3, 7, 15, 31];
/// t1 grid of Fig. 10 (ns) — 36 ns ≈ tRAS is the paper's best.
pub const FIG10_T1: [f64; 4] = [1.5, 3.0, 6.0, 36.0];
/// t2 grid of Fig. 10 (ns).
pub const FIG10_T2: [f64; 2] = [1.5, 3.0];

/// Source-data patterns of Fig. 11.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MrcPattern {
    /// All zeros.
    AllZeros,
    /// All ones (the pattern that dips at 31 destinations, Obs. 16).
    AllOnes,
    /// Uniform random.
    Random,
}

impl std::fmt::Display for MrcPattern {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            MrcPattern::AllZeros => "all-0s",
            MrcPattern::AllOnes => "all-1s",
            MrcPattern::Random => "random",
        };
        f.write_str(s)
    }
}

impl MrcPattern {
    /// The backend-level source this pattern names. The random pattern
    /// draws its image bit by bit ([`MrcSource::RandomBits`]), matching
    /// the figure runners' historical RNG stream.
    pub fn source(self) -> MrcSource {
        match self {
            MrcPattern::AllZeros => MrcSource::AllZeros,
            MrcPattern::AllOnes => MrcSource::AllOnes,
            MrcPattern::Random => MrcSource::RandomBits,
        }
    }
}

/// One Multi-RowCopy sweep point. The activated row count on the
/// enclosing [`SweepPoint`] is `dests + 1` (source + destinations).
fn mrc_point(
    dests: u32,
    timing: ApaTiming,
    pattern: MrcPattern,
    temperature_c: Option<f64>,
    vpp_v: Option<f64>,
) -> SweepPoint<TrialSpec> {
    let mut spec = TrialSpec::multirowcopy(timing, pattern.source());
    if let Some(t) = temperature_c {
        spec = spec.at_temperature(t);
    }
    if let Some(v) = vpp_v {
        spec = spec.at_vpp(v);
    }
    SweepPoint::new(dests + 1, spec)
}

/// Fig. 10: Multi-RowCopy success distribution vs (t1, t2) per
/// destination count. Values in percent.
pub fn fig10_mrc_timing(session: &Session) -> Table {
    session.run_figure("fig10", |session| {
        let config = session.config();
        let columns = DEST_COUNTS.iter().map(|d| format!("dests={d}")).collect();
        let mut table = Table::new(
            "Fig. 10: Multi-RowCopy success vs (t1, t2) and destination count",
            config.describe_scale(),
            columns,
        );
        let points: Vec<SweepPoint<TrialSpec>> = FIG10_T1
            .iter()
            .flat_map(|&t1| {
                FIG10_T2.iter().flat_map(move |&t2| {
                    let timing = ApaTiming::from_ns(t1, t2);
                    DEST_COUNTS
                        .iter()
                        .map(move |&d| mrc_point(d, timing, MrcPattern::Random, None, None))
                })
            })
            .collect();
        let mut sweeps = sweep_trial_samples(session, &points).into_iter();
        for &t1 in &FIG10_T1 {
            for &t2 in &FIG10_T2 {
                let mut means = Vec::new();
                let mut mins = Vec::new();
                for _ in &DEST_COUNTS {
                    let samples = sweeps.next().expect("one sample set per sweep point");
                    let stats = BoxStats::from_samples_or_nan(&samples);
                    means.push(pct(stats.mean));
                    mins.push(pct(stats.min));
                }
                table.push_row(format!("t1={t1} t2={t2} mean"), means);
                table.push_row(format!("t1={t1} t2={t2} min"), mins);
            }
        }
        table
    })
}

/// Fig. 11: Multi-RowCopy success per source data pattern (best timing).
/// Values in percent.
pub fn fig11_mrc_patterns(session: &Session) -> Table {
    session.run_figure("fig11", |session| {
        let config = session.config();
        let columns = DEST_COUNTS.iter().map(|d| format!("dests={d}")).collect();
        let mut table = Table::new(
            "Fig. 11: Multi-RowCopy data-pattern dependence",
            config.describe_scale(),
            columns,
        );
        let patterns = [
            MrcPattern::AllZeros,
            MrcPattern::AllOnes,
            MrcPattern::Random,
        ];
        let points: Vec<SweepPoint<TrialSpec>> = patterns
            .iter()
            .flat_map(|&pattern| {
                DEST_COUNTS.iter().map(move |&d| {
                    mrc_point(d, ApaTiming::best_for_multi_row_copy(), pattern, None, None)
                })
            })
            .collect();
        let mut sweeps = sweep_trial_samples(session, &points).into_iter();
        for pattern in patterns {
            let values = DEST_COUNTS
                .iter()
                .map(|_| {
                    let samples = sweeps.next().expect("one sample set per sweep point");
                    pct(mean(&samples))
                })
                .collect();
            table.push_row(pattern.to_string(), values);
        }
        table
    })
}

/// Fig. 12a: Multi-RowCopy success vs temperature (random source data).
/// Values in percent.
pub fn fig12a_mrc_temperature(session: &Session) -> Table {
    session.run_figure("fig12a", |session| {
        let config = session.config();
        let temps = crate::activation::TEMPERATURES_C;
        let columns = DEST_COUNTS.iter().map(|d| format!("dests={d}")).collect();
        let mut table = Table::new(
            "Fig. 12a: Multi-RowCopy success vs temperature",
            config.describe_scale(),
            columns,
        );
        let points: Vec<SweepPoint<TrialSpec>> = temps
            .iter()
            .flat_map(|&t| {
                DEST_COUNTS.iter().map(move |&d| {
                    mrc_point(
                        d,
                        ApaTiming::best_for_multi_row_copy(),
                        MrcPattern::Random,
                        Some(t),
                        None,
                    )
                })
            })
            .collect();
        let mut sweeps = sweep_trial_samples(session, &points).into_iter();
        for &t in &temps {
            let values = DEST_COUNTS
                .iter()
                .map(|_| {
                    let samples = sweeps.next().expect("one sample set per sweep point");
                    pct(mean(&samples))
                })
                .collect();
            table.push_row(format!("{t} C"), values);
        }
        table
    })
}

/// Fig. 12b: Multi-RowCopy success vs wordline voltage (random source
/// data). Values in percent.
pub fn fig12b_mrc_voltage(session: &Session) -> Table {
    session.run_figure("fig12b", |session| {
        let config = session.config();
        let vpps = crate::activation::VPP_LEVELS_V;
        let columns = DEST_COUNTS.iter().map(|d| format!("dests={d}")).collect();
        let mut table = Table::new(
            "Fig. 12b: Multi-RowCopy success vs wordline voltage",
            config.describe_scale(),
            columns,
        );
        let points: Vec<SweepPoint<TrialSpec>> = vpps
            .iter()
            .flat_map(|&v| {
                DEST_COUNTS.iter().map(move |&d| {
                    mrc_point(
                        d,
                        ApaTiming::best_for_multi_row_copy(),
                        MrcPattern::Random,
                        None,
                        Some(v),
                    )
                })
            })
            .collect();
        let mut sweeps = sweep_trial_samples(session, &points).into_iter();
        for &v in &vpps {
            let values = DEST_COUNTS
                .iter()
                .map(|_| {
                    let samples = sweeps.next().expect("one sample set per sweep point");
                    pct(mean(&samples))
                })
                .collect();
            table.push_row(format!("{v} V"), values);
        }
        table
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExperimentConfig;

    fn quick_session() -> Session {
        Session::new(ExperimentConfig::quick())
    }

    #[test]
    fn fig10_best_timing_is_nearly_perfect_and_t1_min_halves() {
        let t = fig10_mrc_timing(&quick_session());
        let mut p = crate::observations::SeriesProbe::default();
        let best = p.get(&t, "t1=36 t2=3 mean", "dests=31");
        let bad = p.get(&t, "t1=1.5 t2=3 mean", "dests=31");
        assert!(p.missing().is_empty(), "missing series: {:?}", p.missing());
        assert!(best > 99.5, "Obs. 14: {best}");
        assert!(
            bad < best - 30.0,
            "Obs. 15: t1=1.5 ns collapse, {bad} vs {best}"
        );
    }

    #[test]
    fn fig11_all_ones_dips_at_31() {
        let t = fig11_mrc_patterns(&quick_session());
        let mut p = crate::observations::SeriesProbe::default();
        let ones = p.get(&t, "all-1s", "dests=31");
        let zeros = p.get(&t, "all-0s", "dests=31");
        assert!(p.missing().is_empty(), "missing series: {:?}", p.missing());
        assert!(zeros >= ones, "Obs. 16: {zeros} vs {ones}");
        assert!(zeros - ones < 3.0, "but only slightly (paper 0.79 %)");
    }

    #[test]
    fn fig12_env_effects_are_small() {
        let session = quick_session();
        let temp = fig12a_mrc_temperature(&session);
        let d = "dests=15";
        let mut p = crate::observations::SeriesProbe::default();
        let t50 = p.get(&temp, "50 C", d);
        let t90 = p.get(&temp, "90 C", d);
        let volt = fig12b_mrc_voltage(&session);
        let v25 = p.get(&volt, "2.5 V", d);
        let v21 = p.get(&volt, "2.1 V", d);
        assert!(p.missing().is_empty(), "missing series: {:?}", p.missing());
        assert!((t50 - t90).abs() < 1.0, "Obs. 17: {t50} vs {t90}");
        assert!(
            v25 - v21 >= 0.0 && v25 - v21 < 3.0,
            "Obs. 18: {v25} vs {v21}"
        );
    }
}
