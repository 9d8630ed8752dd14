//! Figures 6–9: MAJX robustness under timing, data pattern, temperature,
//! and wordline voltage.
//!
//! Each figure submits its whole (X, N, timing, pattern, operating-point)
//! grid as one [`run_sweep`](crate::fleet::run_sweep) call; rows are assembled from the per-point
//! sample sets, which arrive in the enumeration order of the points.
//!
//! MAJX trial batches execute on the batched sense rig
//! ([`simra_analog::SenseBatch`] → `sense_batch`/`margins_batch` inside
//! `simra_core::maj`): operand images for a whole batch are written and
//! snapshotted first, then sensed in one batched kernel pass.

use simra_core::metrics::{mean, pct, BoxStats};
use simra_dram::{ApaTiming, DataPattern};
use simra_exec::TrialSpec;

use crate::backend::sweep_trial_samples;
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

fn maj_point(
    n: u32,
    x: usize,
    timing: ApaTiming,
    pattern: DataPattern,
    temperature_c: Option<f64>,
    vpp_v: Option<f64>,
) -> SweepPoint<TrialSpec> {
    let mut spec = TrialSpec::majx(x, timing, pattern);
    if let Some(t) = temperature_c {
        spec = spec.at_temperature(t);
    }
    if let Some(v) = vpp_v {
        spec = spec.at_vpp(v);
    }
    SweepPoint::new(n, spec)
}

/// Fig. 6: MAJ3 success distribution vs (t1, t2) and N ∈ {4, 8, 16, 32}.
/// Values in percent.
pub fn fig6_maj3_timing(session: &Session) -> Table {
    session.run_figure("fig6", |session| {
        let config = session.config();
        let ns = feasible_ns(3);
        let columns = ns.iter().map(|n| format!("N={n}")).collect();
        let mut table = Table::new(
            "Fig. 6: MAJ3 success vs (t1, t2) and row count (input replication)",
            config.describe_scale(),
            columns,
        );
        let points: Vec<SweepPoint<TrialSpec>> = FIG6_T1
            .iter()
            .flat_map(|&t1| {
                let ns = &ns;
                FIG6_T2.iter().flat_map(move |&t2| {
                    let timing = ApaTiming::from_ns(t1, t2);
                    ns.iter()
                        .map(move |&n| maj_point(n, 3, timing, DataPattern::Random, None, None))
                })
            })
            .collect();
        let mut sweeps = sweep_trial_samples(session, &points).into_iter();
        for &t1 in &FIG6_T1 {
            for &t2 in &FIG6_T2 {
                let mut means = Vec::new();
                let mut medians = Vec::new();
                for _ in &ns {
                    let samples = sweeps.next().expect("one sample set per sweep point");
                    let stats = BoxStats::from_samples_or_nan(&samples);
                    means.push(pct(stats.mean));
                    medians.push(pct(stats.median));
                }
                table.push_row(format!("t1={t1} t2={t2} mean"), means);
                table.push_row(format!("t1={t1} t2={t2} median"), medians);
            }
        }
        table
    })
}

/// Fig. 7: MAJX success per data pattern, at the best MAJX timing,
/// with the maximum feasible replication (N = 32). Values in percent.
pub fn fig7_majx_patterns(session: &Session) -> Table {
    session.run_figure("fig7", |session| {
        let config = session.config();
        let columns = MAJ_XS.iter().map(|x| format!("MAJ{x}")).collect();
        let mut table = Table::new(
            "Fig. 7: MAJX success per data pattern (N = 32, best timing)",
            config.describe_scale(),
            columns,
        );
        let timing = ApaTiming::best_for_majx();
        let mut points: Vec<SweepPoint<TrialSpec>> = DataPattern::ALL
            .iter()
            .flat_map(|&pattern| {
                MAJ_XS
                    .iter()
                    .map(move |&x| maj_point(32, x, timing, pattern, None, None))
            })
            .collect();
        // The replication sweep of Fig. 7's x-axis: random pattern per N.
        points.extend(MAJ_XS.iter().flat_map(|&x| {
            feasible_ns(x)
                .into_iter()
                .map(move |n| maj_point(n, x, timing, DataPattern::Random, None, None))
        }));
        let mut sweeps = sweep_trial_samples(session, &points).into_iter();
        for pattern in DataPattern::ALL {
            let values = MAJ_XS
                .iter()
                .map(|_| {
                    let samples = sweeps.next().expect("one sample set per sweep point");
                    pct(mean(&samples))
                })
                .collect();
            table.push_row(pattern.to_string(), values);
        }
        for &x in &MAJ_XS {
            for n in feasible_ns(x) {
                let samples = sweeps.next().expect("one sample set per sweep point");
                let s = pct(mean(&samples));
                // Per-N sweep rows carry one value in the matching MAJX
                // column; the rest is NaN (infeasible/not measured here).
                let mut row = vec![f64::NAN; MAJ_XS.len()];
                let xi = MAJ_XS.iter().position(|v| *v == x).expect("x from MAJ_XS");
                row[xi] = s;
                table.push_row(format!("random N={n} MAJ{x}"), row);
            }
        }
        table
    })
}

/// Fig. 8: MAJX success vs temperature (random pattern, N = 32 and the
/// no-replication N = 4 for MAJ3, to show Obs. 12). Values in percent.
pub fn fig8_majx_temperature(session: &Session) -> Table {
    session.run_figure("fig8", |session| {
        let config = session.config();
        let temps = crate::activation::TEMPERATURES_C;
        let columns = temps.iter().map(|t| format!("{t}C")).collect();
        let mut table = Table::new(
            "Fig. 8: MAJX success vs temperature",
            config.describe_scale(),
            columns,
        );
        let timing = ApaTiming::best_for_majx();
        let mut points: Vec<SweepPoint<TrialSpec>> = MAJ_XS
            .iter()
            .flat_map(|&x| {
                temps
                    .iter()
                    .map(move |&t| maj_point(32, x, timing, DataPattern::Random, Some(t), None))
            })
            .collect();
        points.extend(
            temps
                .iter()
                .map(|&t| maj_point(4, 3, timing, DataPattern::Random, Some(t), None)),
        );
        let mut sweeps = sweep_trial_samples(session, &points).into_iter();
        for &x in &MAJ_XS {
            let values = temps
                .iter()
                .map(|_| {
                    let samples = sweeps.next().expect("one sample set per sweep point");
                    pct(mean(&samples))
                })
                .collect();
            table.push_row(format!("MAJ{x} N=32"), values);
        }
        let maj3_n4 = temps
            .iter()
            .map(|_| {
                let samples = sweeps.next().expect("one sample set per sweep point");
                pct(mean(&samples))
            })
            .collect();
        table.push_row("MAJ3 N=4", maj3_n4);
        table
    })
}

/// Fig. 9: MAJX success vs wordline voltage (random pattern, N = 32).
/// Values in percent.
pub fn fig9_majx_voltage(session: &Session) -> Table {
    session.run_figure("fig9", |session| {
        let config = session.config();
        let vpps = crate::activation::VPP_LEVELS_V;
        let columns = vpps.iter().map(|v| format!("{v}V")).collect();
        let mut table = Table::new(
            "Fig. 9: MAJX success vs wordline voltage",
            config.describe_scale(),
            columns,
        );
        let timing = ApaTiming::best_for_majx();
        let points: Vec<SweepPoint<TrialSpec>> = MAJ_XS
            .iter()
            .flat_map(|&x| {
                vpps.iter()
                    .map(move |&v| maj_point(32, x, timing, DataPattern::Random, None, Some(v)))
            })
            .collect();
        let mut sweeps = sweep_trial_samples(session, &points).into_iter();
        for &x in &MAJ_XS {
            let values = vpps
                .iter()
                .map(|_| {
                    let samples = sweeps.next().expect("one sample set per sweep point");
                    pct(mean(&samples))
                })
                .collect();
            table.push_row(format!("MAJ{x} N=32"), values);
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
