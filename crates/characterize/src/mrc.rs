//! Figures 10–12: Multi-RowCopy robustness under timing, data pattern,
//! temperature, and wordline voltage.
//!
//! Each figure declares its table as blocks of rows over one (timing,
//! pattern, operating-point) sweep point per destination-count column;
//! the crate-private `figure_table` in [`crate::backend`] submits the
//! distinct points of its cells as one
//! [`run_sweep`](crate::fleet::run_sweep) grid and fills each row from
//! its cells' sample sets.
//!
//! Per-trial Multi-RowCopy success evaluation rides the fused analog
//! reductions in `simra_core::multirowcopy` (per-column latch mask
//! hashed once, `commit_survival_into` with a reused buffer) rather than
//! re-deriving per-cell state here.

use simra_dram::ApaTiming;
use simra_exec::{MrcSource, TrialSpec};

use crate::activation::{TEMPERATURES_C, VPP_LEVELS_V};
use crate::backend::{figure_table, RowBlock, Stat};
use crate::fleet::SweepPoint;
use crate::report::Table;
use crate::session::Session;

/// Destination counts of §6 (N-row activation copies to N − 1 rows).
pub const DEST_COUNTS: [u32; 5] = [1, 3, 7, 15, 31];
/// t1 grid of Fig. 10 (ns) — 36 ns ≈ tRAS is the paper's best.
pub const FIG10_T1: [f64; 4] = [1.5, 3.0, 6.0, 36.0];
/// t2 grid of Fig. 10 (ns).
pub const FIG10_T2: [f64; 2] = [1.5, 3.0];

/// The `dests=…` column headers of every Multi-RowCopy figure.
fn dest_columns() -> Vec<String> {
    DEST_COUNTS.iter().map(|d| format!("dests={d}")).collect()
}

/// One point per [`DEST_COUNTS`] column, all running `spec`. A point
/// activates the source row plus its destinations.
fn dest_points(spec: TrialSpec) -> [SweepPoint<TrialSpec>; 5] {
    DEST_COUNTS.map(|d| SweepPoint::new(d + 1, spec))
}

/// Multi-RowCopy of random source data at the best timing, the spec of
/// Fig. 12's operating-point sweeps. The figures draw the random image
/// bit by bit ([`MrcSource::RandomBits`]).
fn random_mrc() -> TrialSpec {
    TrialSpec::multirowcopy(ApaTiming::best_for_multi_row_copy(), MrcSource::RandomBits)
}

/// Fig. 10: Multi-RowCopy success distribution vs (t1, t2) per
/// destination count. Values in percent.
pub fn fig10_mrc_timing(session: &Session) -> Table {
    let blocks = FIG10_T1
        .iter()
        .flat_map(|&t1| {
            FIG10_T2.iter().map(move |&t2| {
                let timing = ApaTiming::from_ns(t1, t2);
                RowBlock::new(
                    [
                        (format!("t1={t1} t2={t2} mean"), Stat::BoxMean),
                        (format!("t1={t1} t2={t2} min"), Stat::BoxMin),
                    ],
                    dest_points(TrialSpec::multirowcopy(timing, MrcSource::RandomBits)),
                )
            })
        })
        .collect();
    figure_table(
        session,
        "fig10",
        "Fig. 10: Multi-RowCopy success vs (t1, t2) and destination count",
        dest_columns(),
        blocks,
    )
}

/// Fig. 11: Multi-RowCopy success per source data pattern (best timing).
/// Values in percent.
pub fn fig11_mrc_patterns(session: &Session) -> Table {
    let patterns = [
        ("all-0s", MrcSource::AllZeros),
        ("all-1s", MrcSource::AllOnes),
        ("random", MrcSource::RandomBits),
    ];
    let blocks = patterns
        .iter()
        .map(|&(label, source)| {
            let spec = TrialSpec::multirowcopy(ApaTiming::best_for_multi_row_copy(), source);
            RowBlock::new([(label.to_string(), Stat::Mean)], dest_points(spec))
        })
        .collect();
    figure_table(
        session,
        "fig11",
        "Fig. 11: Multi-RowCopy data-pattern dependence",
        dest_columns(),
        blocks,
    )
}

/// Fig. 12a: Multi-RowCopy success vs temperature (random source data).
/// Values in percent.
pub fn fig12a_mrc_temperature(session: &Session) -> Table {
    let blocks = TEMPERATURES_C
        .iter()
        .map(|&t| {
            RowBlock::new(
                [(format!("{t} C"), Stat::Mean)],
                dest_points(random_mrc().at_temperature(t)),
            )
        })
        .collect();
    figure_table(
        session,
        "fig12a",
        "Fig. 12a: Multi-RowCopy success vs temperature",
        dest_columns(),
        blocks,
    )
}

/// Fig. 12b: Multi-RowCopy success vs wordline voltage (random source
/// data). Values in percent.
pub fn fig12b_mrc_voltage(session: &Session) -> Table {
    let blocks = VPP_LEVELS_V
        .iter()
        .map(|&v| {
            RowBlock::new(
                [(format!("{v} V"), Stat::Mean)],
                dest_points(random_mrc().at_vpp(v)),
            )
        })
        .collect();
    figure_table(
        session,
        "fig12b",
        "Fig. 12b: Multi-RowCopy success vs wordline voltage",
        dest_columns(),
        blocks,
    )
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
