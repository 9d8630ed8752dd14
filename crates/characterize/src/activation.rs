//! Figures 3 and 4: robustness of simultaneous many-row activation under
//! timing, temperature, and wordline voltage.
//!
//! Each figure declares its table as blocks of rows over one sweep point
//! per column (N); the crate-private `figure_table` in
//! [`crate::backend`] submits the distinct points of its cells as one
//! [`run_sweep`](crate::fleet::run_sweep) grid, so the fleet walks every
//! (module, point) task without per-point thread spawns or module
//! rebuilds, and fills each row from its cells' sample sets.
//!
//! The per-trial analog work dispatched by these points runs on the
//! batched hot path (`simra_analog::charge`,
//! [`ApaEngine::commit_survival_sum`]-style fused reductions) via the
//! core ops behind [`crate::backend`] — the figure code itself never
//! touches the kernel.
//!
//! [`ApaEngine::commit_survival_sum`]: simra_analog::ApaEngine::commit_survival_sum

use simra_dram::ApaTiming;
use simra_exec::TrialSpec;

use crate::backend::{figure_table, RowBlock, Stat};
use crate::fleet::SweepPoint;
use crate::report::Table;
use crate::session::Session;

/// Row counts swept for activation experiments (the only N values COTS
/// chips can produce — Limitation 2).
pub const ACTIVATION_NS: [u32; 5] = [2, 4, 8, 16, 32];
/// t1 values of the Fig. 3 grid (ns).
pub const FIG3_T1: [f64; 3] = [1.5, 3.0, 6.0];
/// t2 values of the Fig. 3 grid (ns); larger t2 leaves the simultaneous
/// regime entirely (footnote 6).
pub const FIG3_T2: [f64; 2] = [1.5, 3.0];
/// Temperature sweep of Fig. 4a (°C).
pub const TEMPERATURES_C: [f64; 5] = [50.0, 60.0, 70.0, 80.0, 90.0];
/// V_PP sweep of Fig. 4b (V).
pub const VPP_LEVELS_V: [f64; 5] = [2.5, 2.4, 2.3, 2.2, 2.1];

/// The `N=…` column headers of every activation figure.
fn n_columns() -> Vec<String> {
    ACTIVATION_NS.iter().map(|n| format!("N={n}")).collect()
}

/// One point per [`ACTIVATION_NS`] column, all running `spec`.
fn n_points(spec: TrialSpec) -> [SweepPoint<TrialSpec>; 5] {
    ACTIVATION_NS.map(|n| SweepPoint::new(n, spec))
}

/// Fig. 3: success-rate distribution of N-row activation for every (t1,
/// t2) combination. Rows are `(t1, t2)` pairs plus the distribution
/// statistic; columns are N. Values in percent.
pub fn fig3_activation_timing(session: &Session) -> Table {
    let blocks = FIG3_T1
        .iter()
        .flat_map(|&t1| {
            FIG3_T2.iter().map(move |&t2| {
                RowBlock::new(
                    [
                        (format!("t1={t1} t2={t2} mean"), Stat::BoxMean),
                        (format!("t1={t1} t2={t2} min"), Stat::BoxMin),
                    ],
                    n_points(TrialSpec::activation(ApaTiming::from_ns(t1, t2))),
                )
            })
        })
        .collect();
    figure_table(
        session,
        "fig3",
        "Fig. 3: simultaneous many-row activation success vs (t1, t2)",
        n_columns(),
        blocks,
    )
}

/// Fig. 4a: average activation success vs temperature (rows) per N
/// (columns), in percent.
pub fn fig4a_activation_temperature(session: &Session) -> Table {
    let spec = TrialSpec::activation(ApaTiming::best_for_activation());
    let blocks = TEMPERATURES_C
        .iter()
        .map(|&t| {
            RowBlock::new(
                [(format!("{t} C"), Stat::Mean)],
                n_points(spec.at_temperature(t)),
            )
        })
        .collect();
    figure_table(
        session,
        "fig4a",
        "Fig. 4a: many-row activation success vs temperature",
        n_columns(),
        blocks,
    )
}

/// Fig. 4b: average activation success vs V_PP (rows) per N (columns),
/// in percent.
pub fn fig4b_activation_voltage(session: &Session) -> Table {
    let spec = TrialSpec::activation(ApaTiming::best_for_activation());
    let blocks = VPP_LEVELS_V
        .iter()
        .map(|&v| RowBlock::new([(format!("{v} V"), Stat::Mean)], n_points(spec.at_vpp(v))))
        .collect();
    figure_table(
        session,
        "fig4b",
        "Fig. 4b: many-row activation success vs wordline voltage",
        n_columns(),
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
    fn fig3_best_timing_is_high_and_weak_timing_is_lower() {
        let t = fig3_activation_timing(&quick_session());
        let best = t.get("t1=3 t2=3 mean", "N=32").unwrap();
        let weak = t.get("t1=1.5 t2=1.5 mean", "N=32").unwrap();
        assert!(best > 99.0, "Obs. 1: best timing ≥ 99.85 %, got {best}");
        assert!(
            best - weak > 5.0,
            "Obs. 2: grid-minimum drop, {best} vs {weak}"
        );
    }

    #[test]
    fn fig4a_temperature_effect_is_small() {
        let t = fig4a_activation_temperature(&quick_session());
        for n in ACTIVATION_NS {
            let col = format!("N={n}");
            let at50 = t.get("50 C", &col).unwrap();
            let at90 = t.get("90 C", &col).unwrap();
            assert!(
                (at50 - at90).abs() < 1.0,
                "Obs. 3: small temp effect, {at50} vs {at90}"
            );
        }
    }

    #[test]
    fn fig4b_voltage_effect_is_small_and_monotone() {
        let t = fig4b_activation_voltage(&quick_session());
        let at25 = t.get("2.5 V", "N=32").unwrap();
        let at21 = t.get("2.1 V", "N=32").unwrap();
        assert!(at25 >= at21, "lower V_PP cannot help");
        assert!(
            at25 - at21 < 2.0,
            "Obs. 4: ≤ ~0.41 % drop, got {}",
            at25 - at21
        );
    }
}
