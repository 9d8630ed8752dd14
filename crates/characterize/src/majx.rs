//! Figures 6–9: MAJX robustness under timing, data pattern, temperature,
//! and wordline voltage.
//!
//! Each figure declares its table as blocks of rows over one (X, N,
//! timing, pattern, operating-point) sweep point per column; the
//! crate-private `figure_table` in [`crate::backend`] submits the
//! distinct points of its cells as one
//! [`run_sweep`](crate::fleet::run_sweep) grid and fills each row from
//! its cells' sample sets.
//!
//! MAJX trial batches execute on the batched sense rig
//! ([`simra_analog::SenseBatch`] → `sense_batch`/`margins_batch` inside
//! `simra_core::maj`): operand images for a whole batch are written and
//! snapshotted first, then sensed in one batched kernel pass.

use simra_dram::{ApaTiming, DataPattern};
use simra_exec::TrialSpec;

use crate::activation::{TEMPERATURES_C, VPP_LEVELS_V};
use crate::backend::{figure_table, RowBlock, Stat};
use crate::fleet::SweepPoint;
use crate::report::Table;
use crate::session::Session;

/// The MAJX operand counts characterized (§5).
pub const MAJ_XS: [usize; 4] = [3, 5, 7, 9];
/// t1 grid of Fig. 6 (ns).
pub const FIG6_T1: [f64; 3] = [1.5, 3.0, 6.0];
/// t2 grid of Fig. 6 (ns).
pub const FIG6_T2: [f64; 2] = [1.5, 3.0];

/// N values on which MAJX is feasible (N ≥ X, N a reachable power of two).
pub fn feasible_ns(x: usize) -> Vec<u32> {
    [4u32, 8, 16, 32]
        .into_iter()
        .filter(|n| *n as usize >= x)
        .collect()
}

/// Random-pattern MAJX at the best MAJX timing, the spec of Figs. 7–9's
/// replication and operating-point sweeps.
fn random_majx(x: usize) -> TrialSpec {
    TrialSpec::majx(x, ApaTiming::best_for_majx(), DataPattern::Random)
}

/// Fig. 6: MAJ3 success distribution vs (t1, t2) and N ∈ {4, 8, 16, 32}.
/// Values in percent.
pub fn fig6_maj3_timing(session: &Session) -> Table {
    let ns = feasible_ns(3);
    let blocks = FIG6_T1
        .iter()
        .flat_map(|&t1| {
            let ns = &ns;
            FIG6_T2.iter().map(move |&t2| {
                let spec = TrialSpec::majx(3, ApaTiming::from_ns(t1, t2), DataPattern::Random);
                RowBlock::new(
                    [
                        (format!("t1={t1} t2={t2} mean"), Stat::BoxMean),
                        (format!("t1={t1} t2={t2} median"), Stat::BoxMedian),
                    ],
                    ns.iter().map(|&n| SweepPoint::new(n, spec)),
                )
            })
        })
        .collect();
    figure_table(
        session,
        "fig6",
        "Fig. 6: MAJ3 success vs (t1, t2) and row count (input replication)",
        ns.iter().map(|n| format!("N={n}")).collect(),
        blocks,
    )
}

/// Fig. 7: MAJX success per data pattern, at the best MAJX timing,
/// with the maximum feasible replication (N = 32). Values in percent.
pub fn fig7_majx_patterns(session: &Session) -> Table {
    let timing = ApaTiming::best_for_majx();
    let mut blocks: Vec<RowBlock> = DataPattern::ALL
        .iter()
        .map(|&pattern| {
            RowBlock::new(
                [(pattern.to_string(), Stat::Mean)],
                MAJ_XS.map(|x| SweepPoint::new(32, TrialSpec::majx(x, timing, pattern))),
            )
        })
        .collect();
    // The replication sweep of Fig. 7's x-axis: random pattern per N.
    // Each row measures only its MAJX column; the rest is NaN
    // (infeasible/not measured here).
    for (column, &x) in MAJ_XS.iter().enumerate() {
        for n in feasible_ns(x) {
            blocks.push(RowBlock::single(
                format!("random N={n} MAJ{x}"),
                Stat::Mean,
                MAJ_XS.len(),
                column,
                SweepPoint::new(n, random_majx(x)),
            ));
        }
    }
    figure_table(
        session,
        "fig7",
        "Fig. 7: MAJX success per data pattern (N = 32, best timing)",
        MAJ_XS.iter().map(|x| format!("MAJ{x}")).collect(),
        blocks,
    )
}

/// Fig. 8: MAJX success vs temperature (random pattern, N = 32 and the
/// no-replication N = 4 for MAJ3, to show Obs. 12). Values in percent.
pub fn fig8_majx_temperature(session: &Session) -> Table {
    let row = |x: usize, n: u32| {
        RowBlock::new(
            [(format!("MAJ{x} N={n}"), Stat::Mean)],
            TEMPERATURES_C.map(|t| SweepPoint::new(n, random_majx(x).at_temperature(t))),
        )
    };
    let mut blocks: Vec<RowBlock> = MAJ_XS.iter().map(|&x| row(x, 32)).collect();
    blocks.push(row(3, 4));
    figure_table(
        session,
        "fig8",
        "Fig. 8: MAJX success vs temperature",
        TEMPERATURES_C.iter().map(|t| format!("{t}C")).collect(),
        blocks,
    )
}

/// Fig. 9: MAJX success vs wordline voltage (random pattern, N = 32).
/// Values in percent.
pub fn fig9_majx_voltage(session: &Session) -> Table {
    let blocks = MAJ_XS
        .iter()
        .map(|&x| {
            RowBlock::new(
                [(format!("MAJ{x} N=32"), Stat::Mean)],
                VPP_LEVELS_V.map(|v| SweepPoint::new(32, random_majx(x).at_vpp(v))),
            )
        })
        .collect();
    figure_table(
        session,
        "fig9",
        "Fig. 9: MAJX success vs wordline voltage",
        VPP_LEVELS_V.iter().map(|v| format!("{v}V")).collect(),
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
    fn feasible_ns_respects_x() {
        assert_eq!(feasible_ns(3), vec![4, 8, 16, 32]);
        assert_eq!(feasible_ns(5), vec![8, 16, 32]);
        assert_eq!(feasible_ns(9), vec![16, 32]);
    }

    #[test]
    fn fig7_success_ordering_and_feasibility() {
        let t = fig7_majx_patterns(&quick_session());
        let mut p = crate::observations::SeriesProbe::default();
        let maj3 = p.get(&t, "random", "MAJ3");
        let maj5 = p.get(&t, "random", "MAJ5");
        let maj7 = p.get(&t, "random", "MAJ7");
        let maj9 = p.get(&t, "random", "MAJ9");
        assert!(p.missing().is_empty(), "missing series: {:?}", p.missing());
        assert!(
            maj3 > maj5 && maj5 > maj7 && maj7 > maj9,
            "{maj3} {maj5} {maj7} {maj9}"
        );
        assert!(maj3 > 95.0, "Obs. 7 ballpark (paper 99.0), got {maj3}");
        assert!(maj9 < 25.0, "Obs. 8 ballpark (paper 5.91), got {maj9}");
    }

    #[test]
    fn fig7_random_is_worst_pattern() {
        let t = fig7_majx_patterns(&quick_session());
        let mut p = crate::observations::SeriesProbe::default();
        for x in ["MAJ5", "MAJ7"] {
            let random = p.get(&t, "random", x);
            let solid = p.get(&t, "0x00/0xFF", x);
            assert!(p.missing().is_empty(), "missing series: {:?}", p.missing());
            assert!(
                solid >= random,
                "Obs. 9: {x} solid {solid} ≥ random {random}"
            );
        }
    }

    #[test]
    fn fig6_replication_beats_no_replication() {
        let t = fig6_maj3_timing(&quick_session());
        let mut p = crate::observations::SeriesProbe::default();
        let n32 = p.get(&t, "t1=1.5 t2=3 mean", "N=32");
        let n4 = p.get(&t, "t1=1.5 t2=3 mean", "N=4");
        // Obs. 7: (1.5, 3) beats (3, 3) clearly at N = 32.
        let t33 = p.get(&t, "t1=3 t2=3 mean", "N=32");
        assert!(p.missing().is_empty(), "missing series: {:?}", p.missing());
        assert!(n32 - n4 > 10.0, "Obs. 6: {n32} vs {n4}");
        assert!(n32 - t33 > 20.0, "Obs. 7: {n32} vs {t33}");
    }
}
