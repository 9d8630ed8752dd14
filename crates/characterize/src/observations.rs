//! Programmatic evaluation of the paper's 18 observations.
//!
//! Each observation is re-stated as a measurable predicate over the
//! figure tables of a [`FigureSet`] — the fig 3–12 tables a campaign
//! computes once and prints — and the result records what was measured
//! so the repro binary can print a paper-vs-model scoreboard (the data
//! behind EXPERIMENTS.md). [`check_observations`] is a pure function of
//! those tables: it runs no sweep.
//!
//! Lookups go through `SeriesProbe` so a series missing from a figure
//! table is reported as such (`data_missing = true`, counted separately
//! in the scoreboard) instead of silently comparing against NaN.

use simra_telemetry::{Counter, Recorder};

use crate::activation::{
    fig3_activation_timing, fig4a_activation_temperature, fig4b_activation_voltage,
};
use crate::majx::{fig6_maj3_timing, fig7_majx_patterns, fig8_majx_temperature, fig9_majx_voltage};
use crate::mrc::{
    fig10_mrc_timing, fig11_mrc_patterns, fig12a_mrc_temperature, fig12b_mrc_voltage,
};
use crate::power::fig5_power;
use crate::report::Table;
use crate::session::Session;

/// The 12 figure tables the observations read, each computed once per
/// campaign.
#[derive(Debug)]
pub struct FigureSet {
    /// [`fig3_activation_timing`].
    pub fig3: Table,
    /// [`fig4a_activation_temperature`].
    pub fig4a: Table,
    /// [`fig4b_activation_voltage`].
    pub fig4b: Table,
    /// [`fig5_power`].
    pub fig5: Table,
    /// [`fig6_maj3_timing`].
    pub fig6: Table,
    /// [`fig7_majx_patterns`].
    pub fig7: Table,
    /// [`fig8_majx_temperature`].
    pub fig8: Table,
    /// [`fig9_majx_voltage`].
    pub fig9: Table,
    /// [`fig10_mrc_timing`].
    pub fig10: Table,
    /// [`fig11_mrc_patterns`].
    pub fig11: Table,
    /// [`fig12a_mrc_temperature`].
    pub fig12a: Table,
    /// [`fig12b_mrc_voltage`].
    pub fig12b: Table,
}

impl FigureSet {
    /// Runs the 12 figure runners once each against `session`, in print
    /// order. Each runner is handed to `stage` with its label (`"fig3"`
    /// … `"fig12b"`); `stage` must call it and return its table. `repro`
    /// times and prints each table there; `|_, run| run()` just
    /// collects.
    pub fn compute(
        session: &Session,
        mut stage: impl FnMut(&'static str, &dyn Fn() -> Table) -> Table,
    ) -> FigureSet {
        let mut run = |label, runner: fn(&Session) -> Table| stage(label, &|| runner(session));
        // Struct fields evaluate in the order written: this is the print order.
        FigureSet {
            fig3: run("fig3", fig3_activation_timing),
            fig4a: run("fig4a", fig4a_activation_temperature),
            fig4b: run("fig4b", fig4b_activation_voltage),
            fig5: run("fig5", fig5_power),
            fig6: run("fig6", fig6_maj3_timing),
            fig7: run("fig7", fig7_majx_patterns),
            fig8: run("fig8", fig8_majx_temperature),
            fig9: run("fig9", fig9_majx_voltage),
            fig10: run("fig10", fig10_mrc_timing),
            fig11: run("fig11", fig11_mrc_patterns),
            fig12a: run("fig12a", fig12a_mrc_temperature),
            fig12b: run("fig12b", fig12b_mrc_voltage),
        }
    }
}

/// One evaluated observation.
#[derive(Debug, Clone, PartialEq)]
pub struct ObservationReport {
    /// Observation number (1–18).
    pub id: u8,
    /// The paper's claim, condensed.
    pub claim: String,
    /// What this model measured.
    pub measured: String,
    /// Whether the claim holds in the model.
    pub holds: bool,
    /// True when the verdict could not be measured because one or more
    /// input series were missing from the figure tables. Such reports
    /// always have `holds == false` and are counted separately from
    /// genuine mismatches in the scoreboard.
    pub data_missing: bool,
}

impl std::fmt::Display for ObservationReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let verdict = if self.data_missing {
            "??"
        } else if self.holds {
            "ok"
        } else {
            "XX"
        };
        write!(
            f,
            "Obs. {:>2} [{}] {} — measured: {}",
            self.id, verdict, self.claim, self.measured
        )
    }
}

/// Collects the series lookups behind one observation (or one figure
/// test), recording any that are missing from their table. Shared with
/// the figure runners' tests, which used to `.unwrap()` lookups and
/// panic with no hint of *which* series vanished.
pub(crate) struct SeriesProbe {
    missing: Vec<String>,
    data_missing: Counter,
}

impl Default for SeriesProbe {
    /// A probe reporting misses to a fresh, disabled recorder — what
    /// the figure tests construct.
    fn default() -> Self {
        SeriesProbe::recorded_by(&Recorder::new())
    }
}

impl SeriesProbe {
    /// A probe whose `observations/data_missing` counter reports to
    /// `recorder` — one per observation in [`check_observations`].
    pub(crate) fn recorded_by(recorder: &Recorder) -> Self {
        SeriesProbe {
            missing: Vec::new(),
            data_missing: recorder.counter("observations", "data_missing"),
        }
    }

    /// Looks up one cell. A hit returns the value; a miss records the
    /// series, ticks the `observations/data_missing` telemetry counter,
    /// and returns NaN (the verdict is discarded in that case).
    pub(crate) fn get(&mut self, table: &Table, row: &str, col: &str) -> f64 {
        match table.get(row, col) {
            Some(v) => v,
            None => {
                self.data_missing.incr();
                self.missing.push(format!("series '{row}'/'{col}' missing"));
                f64::NAN
            }
        }
    }

    /// Every miss recorded so far, in lookup order.
    pub(crate) fn missing(&self) -> &[String] {
        &self.missing
    }

    /// Seals one observation. If any lookup missed, the report fails
    /// closed: `measured` names the missing series, `holds` is false,
    /// and `data_missing` is set so the scoreboard can count it apart
    /// from genuine mismatches.
    fn report(self, id: u8, claim: &str, measured: String, holds: bool) -> ObservationReport {
        let (measured, holds, data_missing) = if self.missing().is_empty() {
            (measured, holds, false)
        } else {
            (self.missing.join("; "), false, true)
        };
        ObservationReport {
            id,
            claim: claim.into(),
            measured,
            holds,
            data_missing,
        }
    }
}

/// Evaluates all 18 observations on a campaign's figure tables. Pure:
/// it reads the tables and runs nothing; `recorder` only receives the
/// `observations/data_missing` counter.
pub fn check_observations(figures: &FigureSet, recorder: &Recorder) -> Vec<ObservationReport> {
    let probe = || SeriesProbe::recorded_by(recorder);
    let FigureSet {
        fig3,
        fig4a,
        fig4b,
        fig5,
        fig6,
        fig7,
        fig8,
        fig9,
        fig10,
        fig11,
        fig12a,
        fig12b,
    } = figures;
    let mut out = Vec::with_capacity(18);

    // Figs. 3/4: activation.
    {
        let mut p = probe();
        let best32 = p.get(fig3, "t1=3 t2=3 mean", "N=32");
        out.push(p.report(
            1,
            "up to 32 rows activate simultaneously at very high success",
            format!("{best32:.2} % at N=32, best timing"),
            best32 > 99.0,
        ));
    }
    {
        let mut p = probe();
        let best32 = p.get(fig3, "t1=3 t2=3 mean", "N=32");
        let weak32 = p.get(fig3, "t1=1.5 t2=1.5 mean", "N=32");
        out.push(p.report(
            2,
            "t1 or t2 below 3 ns drastically lowers activation success",
            format!("{weak32:.2} % at t1=t2=1.5 ns vs {best32:.2} %"),
            best32 - weak32 > 10.0,
        ));
    }
    {
        let mut p = probe();
        let t50 = p.get(fig4a, "50 C", "N=32");
        let t90 = p.get(fig4a, "90 C", "N=32");
        out.push(p.report(
            3,
            "temperature up to 90 °C barely moves activation success",
            format!("{t50:.2} % → {t90:.2} %"),
            (t90 - t50).abs() < 1.0,
        ));
    }
    {
        let mut p = probe();
        let v25 = p.get(fig4b, "2.5 V", "N=32");
        let v21 = p.get(fig4b, "2.1 V", "N=32");
        out.push(p.report(
            4,
            "V_PP underscaling barely moves activation success",
            format!("{v25:.2} % → {v21:.2} %"),
            v25 - v21 >= 0.0 && v25 - v21 < 1.0,
        ));
    }

    // Fig. 5: power.
    {
        let mut p = probe();
        let p32 = p.get(fig5, "32-row ACT", "pct_of_REF");
        out.push(p.report(
            5,
            "32-row activation draws less power than a refresh",
            format!("{p32:.1} % of REF"),
            p32 < 100.0,
        ));
    }

    // Figs. 6/7: MAJX.
    {
        let mut p = probe();
        let maj3_32 = p.get(fig6, "t1=1.5 t2=3 mean", "N=32");
        let maj3_4 = p.get(fig6, "t1=1.5 t2=3 mean", "N=4");
        out.push(p.report(
            6,
            "input replication drastically raises MAJ3 success",
            format!("{maj3_32:.2} % @32 rows vs {maj3_4:.2} % @4 rows"),
            maj3_32 - maj3_4 > 10.0,
        ));
    }
    {
        let mut p = probe();
        let maj3_32 = p.get(fig6, "t1=1.5 t2=3 mean", "N=32");
        let maj3_33 = p.get(fig6, "t1=3 t2=3 mean", "N=32");
        out.push(p.report(
            7,
            "APA timing strongly moves MAJ3 ((1.5,3) best)",
            format!("{maj3_32:.2} % at (1.5,3) vs {maj3_33:.2} % at (3,3)"),
            maj3_32 - maj3_33 > 20.0,
        ));
    }
    {
        let mut p = probe();
        let m5 = p.get(fig7, "random", "MAJ5");
        let m7 = p.get(fig7, "random", "MAJ7");
        let m9 = p.get(fig7, "random", "MAJ9");
        out.push(p.report(
            8,
            "MAJ5, MAJ7, MAJ9 are all feasible",
            format!("{m5:.1} / {m7:.1} / {m9:.1} %"),
            m5 > 30.0 && m7 > 5.0 && m9 > 1.0,
        ));
    }
    {
        let mut p = probe();
        let m5 = p.get(fig7, "random", "MAJ5");
        let solid5 = p.get(fig7, "0x00/0xFF", "MAJ5");
        out.push(p.report(
            9,
            "data pattern matters: random is the worst for MAJX",
            format!("MAJ5 solid {solid5:.1} % vs random {m5:.1} %"),
            solid5 > m5,
        ));
    }
    {
        let mut p = probe();
        let m5 = p.get(fig7, "random", "MAJ5");
        let m5_n8 = p.get(fig7, "random N=8 MAJ5", "MAJ5");
        out.push(p.report(
            10,
            "replication helps MAJ5/7/9 too, not just MAJ3",
            format!("MAJ5: {m5_n8:.1} % @8 rows → {m5:.1} % @32 rows"),
            m5 > m5_n8,
        ));
    }

    // Figs. 8/9: MAJX environment.
    {
        let mut p = probe();
        let maj5_t50 = p.get(fig8, "MAJ5 N=32", "50C");
        let maj5_t90 = p.get(fig8, "MAJ5 N=32", "90C");
        out.push(p.report(
            11,
            "temperature only slightly moves MAJX (warmer a bit better)",
            format!("MAJ5: {maj5_t50:.2} % → {maj5_t90:.2} %"),
            (maj5_t90 - maj5_t50).abs() < 10.0 && maj5_t90 >= maj5_t50,
        ));
    }
    {
        let mut p = probe();
        let maj3n4_t50 = p.get(fig8, "MAJ3 N=4", "50C");
        let maj3n4_t90 = p.get(fig8, "MAJ3 N=4", "90C");
        let maj3n32_t50 = p.get(fig8, "MAJ3 N=32", "50C");
        let maj3n32_t90 = p.get(fig8, "MAJ3 N=32", "90C");
        out.push(p.report(
            12,
            "replication damps MAJX's temperature sensitivity",
            format!(
                "MAJ3@4: {:.2} pp vs MAJ3@32: {:.2} pp",
                (maj3n4_t90 - maj3n4_t50).abs(),
                (maj3n32_t90 - maj3n32_t50).abs()
            ),
            (maj3n4_t90 - maj3n4_t50).abs() > (maj3n32_t90 - maj3n32_t50).abs(),
        ));
    }
    {
        let mut p = probe();
        let maj5_v25 = p.get(fig9, "MAJ5 N=32", "2.5V");
        let maj5_v21 = p.get(fig9, "MAJ5 N=32", "2.1V");
        out.push(p.report(
            13,
            "V_PP only slightly moves MAJX",
            format!("MAJ5: {maj5_v25:.2} % → {maj5_v21:.2} %"),
            (maj5_v25 - maj5_v21).abs() < 5.0,
        ));
    }

    // Figs. 10–12: Multi-RowCopy.
    {
        let mut p = probe();
        let mrc31 = p.get(fig10, "t1=36 t2=3 mean", "dests=31");
        out.push(p.report(
            14,
            "one row copies to up to 31 rows at very high success",
            format!("{mrc31:.2} % at best timing"),
            mrc31 > 99.0,
        ));
    }
    {
        let mut p = probe();
        let mrc31 = p.get(fig10, "t1=36 t2=3 mean", "dests=31");
        let mrc31_bad = p.get(fig10, "t1=1.5 t2=3 mean", "dests=31");
        out.push(p.report(
            15,
            "t1 = 1.5 ns collapses Multi-RowCopy",
            format!("{mrc31_bad:.2} % vs {mrc31:.2} %"),
            mrc31 - mrc31_bad > 30.0,
        ));
    }
    {
        let mut p = probe();
        let ones31 = p.get(fig11, "all-1s", "dests=31");
        let zeros31 = p.get(fig11, "all-0s", "dests=31");
        out.push(p.report(
            16,
            "all-1s to 31 rows dips slightly below other patterns",
            format!("all-1s {ones31:.2} % vs all-0s {zeros31:.2} %"),
            zeros31 >= ones31 && zeros31 - ones31 < 5.0,
        ));
    }
    {
        let mut p = probe();
        let mrc_t50 = p.get(fig12a, "50 C", "dests=31");
        let mrc_t90 = p.get(fig12a, "90 C", "dests=31");
        out.push(p.report(
            17,
            "temperature barely moves Multi-RowCopy",
            format!("{mrc_t50:.2} % → {mrc_t90:.2} %"),
            (mrc_t90 - mrc_t50).abs() < 1.0,
        ));
    }
    {
        let mut p = probe();
        let mrc_v25 = p.get(fig12b, "2.5 V", "dests=31");
        let mrc_v21 = p.get(fig12b, "2.1 V", "dests=31");
        out.push(p.report(
            18,
            "V_PP underscaling barely moves Multi-RowCopy",
            format!("{mrc_v25:.2} % → {mrc_v21:.2} %"),
            mrc_v25 - mrc_v21 >= 0.0 && mrc_v25 - mrc_v21 < 2.0,
        ));
    }

    out
}

/// One quick campaign — a session on a private, enabled recorder, and
/// its figures — computed once per test binary and shared by the
/// observation and takeaway tests.
#[cfg(test)]
pub(crate) fn quick_campaign() -> &'static (Session, FigureSet) {
    static QUICK: std::sync::OnceLock<(Session, FigureSet)> = std::sync::OnceLock::new();
    QUICK.get_or_init(|| {
        let recorder = Recorder::new();
        recorder.enable();
        let session = Session::recorded_by(crate::config::ExperimentConfig::quick(), recorder);
        let figures = FigureSet::compute(&session, |_, run| run());
        (session, figures)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExperimentConfig;

    #[test]
    fn all_observations_hold_at_quick_scale() {
        let (session, figures) = quick_campaign();
        let reports = check_observations(figures, session.recorder());
        assert_eq!(reports.len(), 18);
        let failing: Vec<&ObservationReport> = reports.iter().filter(|r| !r.holds).collect();
        assert!(
            failing.is_empty(),
            "observations not reproduced:\n{}",
            failing
                .iter()
                .map(|r| r.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }

    #[test]
    fn quick_scale_has_no_missing_series() {
        let (session, figures) = quick_campaign();
        let reports = check_observations(figures, session.recorder());
        assert!(reports.iter().all(|r| !r.data_missing));
    }

    #[test]
    fn checking_observations_runs_no_sweep() {
        let (session, figures) = quick_campaign();
        let recorder = session.recorder();
        let grid_tasks = || recorder.counter("fleet", "grid_tasks").get();
        let group_draws = || recorder.counter("fleet", "group_draws").get();
        let figure_spans = || {
            let mut spans: Vec<(String, u64)> = recorder
                .snapshot()
                .spans
                .into_iter()
                .filter(|s| s.module == "figure")
                .map(|s| (s.name, s.count))
                .collect();
            spans.sort();
            spans
        };
        let (tasks_before, spans_before) = (grid_tasks(), figure_spans());
        let draws_before = group_draws();
        // One task per distinct point of quick's one module: fig3 30,
        // fig4a 25, fig4b 25, fig6 24, fig7 28, fig8 25, fig9 20,
        // fig10 40, fig11 15, fig12a 25, fig12b 25. A point swept twice
        // replays the same stream, so only this count can see it.
        assert_eq!(tasks_before, 282);
        // The session keeps its one module's group draws across the
        // eleven sweeps: one per distinct N, N ∈ {2, 4, 8, 16, 32}. Each
        // sweep drawing afresh would draw 46 times: fig3 5, fig4a 5,
        // fig4b 5, fig6 4, fig7 4, fig8 2, fig9 1, fig10 5, fig11 5,
        // fig12a 5, fig12b 5.
        assert_eq!(draws_before, 5);
        check_observations(figures, recorder);
        assert_eq!(grid_tasks(), tasks_before);
        assert_eq!(group_draws(), draws_before);
        assert_eq!(figure_spans(), spans_before);
        assert_eq!(spans_before.len(), 12);
        assert!(
            spans_before.iter().all(|(_, count)| *count == 1),
            "each figure runs once: {spans_before:?}"
        );
        // The coverage the `--faults` footer prints counts each module
        // task once.
        assert_eq!(session.take_coverage().0.tasks as u64, tasks_before);
    }

    /// `(figure, row, column, value)`: one synthetic table cell.
    type Cell = (&'static str, &'static str, &'static str, f64);

    /// Every cell the 18 observations read, each just past its
    /// observation's threshold.
    const PASSING: &[Cell] = &[
        ("fig3", "t1=3 t2=3 mean", "N=32", 99.5),
        ("fig3", "t1=1.5 t2=1.5 mean", "N=32", 89.0),
        ("fig4a", "50 C", "N=32", 99.0),
        ("fig4a", "90 C", "N=32", 99.5),
        ("fig4b", "2.5 V", "N=32", 99.5),
        ("fig4b", "2.1 V", "N=32", 99.0),
        ("fig5", "32-row ACT", "pct_of_REF", 99.5),
        ("fig6", "t1=1.5 t2=3 mean", "N=32", 60.5),
        ("fig6", "t1=1.5 t2=3 mean", "N=4", 50.0),
        ("fig6", "t1=3 t2=3 mean", "N=32", 40.0),
        ("fig7", "random", "MAJ5", 30.5),
        ("fig7", "random", "MAJ7", 5.5),
        ("fig7", "random", "MAJ9", 1.5),
        ("fig7", "0x00/0xFF", "MAJ5", 31.0),
        ("fig7", "random N=8 MAJ5", "MAJ5", 30.0),
        ("fig8", "MAJ5 N=32", "50C", 50.0),
        ("fig8", "MAJ5 N=32", "90C", 50.5),
        ("fig8", "MAJ3 N=4", "50C", 40.0),
        ("fig8", "MAJ3 N=4", "90C", 41.0),
        ("fig8", "MAJ3 N=32", "50C", 60.0),
        ("fig8", "MAJ3 N=32", "90C", 60.5),
        ("fig9", "MAJ5 N=32", "2.5V", 50.0),
        ("fig9", "MAJ5 N=32", "2.1V", 45.5),
        ("fig10", "t1=36 t2=3 mean", "dests=31", 99.5),
        ("fig10", "t1=1.5 t2=3 mean", "dests=31", 69.0),
        ("fig11", "all-1s", "dests=31", 95.5),
        ("fig11", "all-0s", "dests=31", 100.0),
        ("fig12a", "50 C", "dests=31", 99.0),
        ("fig12a", "90 C", "dests=31", 99.5),
        ("fig12b", "2.5 V", "dests=31", 99.5),
        ("fig12b", "2.1 V", "dests=31", 98.0),
    ];

    /// Per observation, the cells that move its inputs just across its
    /// threshold. A cell two observations read moves together with the
    /// other one's second input, so that observation keeps its margin.
    const FLIPS: [(u8, &[Cell]); 18] = [
        (
            1,
            &[
                ("fig3", "t1=3 t2=3 mean", "N=32", 98.5),
                ("fig3", "t1=1.5 t2=1.5 mean", "N=32", 88.0),
            ],
        ),
        (2, &[("fig3", "t1=1.5 t2=1.5 mean", "N=32", 90.0)]),
        (3, &[("fig4a", "90 C", "N=32", 100.5)]),
        (4, &[("fig4b", "2.1 V", "N=32", 98.0)]),
        (5, &[("fig5", "32-row ACT", "pct_of_REF", 100.5)]),
        (6, &[("fig6", "t1=1.5 t2=3 mean", "N=4", 51.0)]),
        (7, &[("fig6", "t1=3 t2=3 mean", "N=32", 41.0)]),
        (8, &[("fig7", "random", "MAJ9", 0.5)]),
        (9, &[("fig7", "0x00/0xFF", "MAJ5", 30.0)]),
        (10, &[("fig7", "random N=8 MAJ5", "MAJ5", 31.0)]),
        (11, &[("fig8", "MAJ5 N=32", "90C", 49.5)]),
        (12, &[("fig8", "MAJ3 N=4", "90C", 40.25)]),
        (13, &[("fig9", "MAJ5 N=32", "2.1V", 44.5)]),
        (
            14,
            &[
                ("fig10", "t1=36 t2=3 mean", "dests=31", 98.5),
                ("fig10", "t1=1.5 t2=3 mean", "dests=31", 68.0),
            ],
        ),
        (15, &[("fig10", "t1=1.5 t2=3 mean", "dests=31", 70.0)]),
        (16, &[("fig11", "all-1s", "dests=31", 94.5)]),
        (17, &[("fig12a", "90 C", "dests=31", 100.5)]),
        (18, &[("fig12b", "2.1 V", "dests=31", 97.0)]),
    ];

    /// A figure set holding only `cells`, built through the one
    /// constructor with a stage that ignores the runners (no sweep
    /// runs). Cells a table lacks are NaN.
    fn synthetic(cells: &[Cell]) -> FigureSet {
        FigureSet::compute(&Session::new(ExperimentConfig::quick()), |label, _| {
            let cells: Vec<&Cell> = cells.iter().filter(|c| c.0 == label).collect();
            let mut rows: Vec<&str> = Vec::new();
            let mut columns: Vec<String> = Vec::new();
            for &&(_, row, column, _) in &cells {
                if !rows.contains(&row) {
                    rows.push(row);
                }
                if !columns.iter().any(|c| c == column) {
                    columns.push(column.into());
                }
            }
            let mut table = Table::new(label, "", columns.clone());
            for row in rows {
                let values = columns
                    .iter()
                    .map(|column| {
                        cells
                            .iter()
                            .find(|c| c.1 == row && c.2 == column)
                            .map_or(f64::NAN, |c| c.3)
                    })
                    .collect();
                table.push_row(row, values);
            }
            table
        })
    }

    /// [`PASSING`] with `overrides` replacing the cells they name.
    fn passing_with(overrides: &[Cell]) -> Vec<Cell> {
        PASSING
            .iter()
            .map(|&cell| {
                overrides
                    .iter()
                    .copied()
                    .find(|o| (o.0, o.1, o.2) == (cell.0, cell.1, cell.2))
                    .unwrap_or(cell)
            })
            .collect()
    }

    #[test]
    fn synthetic_tables_just_past_every_threshold_hold_all_18() {
        let reports = check_observations(&synthetic(PASSING), &Recorder::new());
        assert_eq!(reports.len(), 18);
        for r in &reports {
            assert!(r.holds && !r.data_missing, "{r}");
        }
    }

    #[test]
    fn moving_one_observations_inputs_flips_only_its_verdict() {
        for (id, overrides) in FLIPS {
            let reports =
                check_observations(&synthetic(&passing_with(overrides)), &Recorder::new());
            for r in &reports {
                assert_eq!(r.holds, r.id != id, "flipping Obs. {id}: {r}");
                assert!(!r.data_missing, "{r}");
            }
        }
    }

    #[test]
    fn a_deleted_series_marks_exactly_its_readers_data_missing() {
        // (figure, series, observations reading it, lookups that miss).
        for (figure, series, readers, misses) in [
            ("fig3", "t1=3 t2=3 mean", &[1u8, 2][..], 2),
            ("fig7", "random", &[8, 9, 10], 5),
            ("fig8", "MAJ3 N=4", &[12], 2),
            ("fig10", "t1=36 t2=3 mean", &[14, 15], 2),
            ("fig12b", "2.1 V", &[18], 1),
        ] {
            let cells: Vec<Cell> = PASSING
                .iter()
                .copied()
                .filter(|c| (c.0, c.1) != (figure, series))
                .collect();
            let recorder = Recorder::new();
            recorder.enable();
            let reports = check_observations(&synthetic(&cells), &recorder);
            for r in &reports {
                let reads = readers.contains(&r.id);
                assert_eq!(r.data_missing, reads, "deleting {figure}/{series}: {r}");
                assert_eq!(r.holds, !reads, "deleting {figure}/{series}: {r}");
            }
            assert_eq!(
                recorder.counter("observations", "data_missing").get(),
                misses
            );
        }
    }

    #[test]
    fn report_display_carries_the_verdict() {
        let probe = SeriesProbe::default();
        let r = probe.report(1, "claim", "measured".into(), true);
        let s = r.to_string();
        assert!(s.contains("Obs.  1") && s.contains("[ok]"));
        let bad = SeriesProbe::default().report(2, "claim", "measured".into(), false);
        assert!(bad.to_string().contains("[XX]"));
    }

    #[test]
    fn missing_series_is_reported_not_nan() {
        let table = Table::new("Fig. T", "", vec!["N=32".into()]);
        let mut p = SeriesProbe::default();
        let v = p.get(&table, "t1=3 t2=3 mean", "N=32");
        assert!(v.is_nan());
        // Even a verdict that a NaN comparison would let pass is
        // overridden: the report fails closed and names the series.
        let r = p.report(1, "claim", format!("{v:.2} %"), true);
        assert!(!r.holds);
        assert!(r.data_missing);
        assert_eq!(r.measured, "series 't1=3 t2=3 mean'/'N=32' missing");
        assert!(r.to_string().contains("[??]"));
    }

    #[test]
    fn missing_series_ticks_the_data_missing_counter() {
        let recorder = Recorder::new();
        recorder.enable();
        let table = Table::new("Fig. T", "", vec!["N=32".into()]);
        let mut p = SeriesProbe::recorded_by(&recorder);
        assert!(p.get(&table, "nope", "N=32").is_nan());
        assert_eq!(
            recorder.counter("observations", "data_missing").get(),
            1,
            "a probe miss must tick observations/data_missing"
        );
        assert_eq!(p.missing().len(), 1);
    }

    #[test]
    fn probe_hit_preserves_the_verdict() {
        let mut table = Table::new("Fig. T", "", vec!["N=32".into()]);
        table.push_row("t1=3 t2=3 mean", vec![99.5]);
        let mut p = SeriesProbe::default();
        let v = p.get(&table, "t1=3 t2=3 mean", "N=32");
        let r = p.report(1, "claim", format!("{v:.2} %"), v > 99.0);
        assert!(r.holds);
        assert!(!r.data_missing);
        assert_eq!(r.measured, "99.50 %");
    }
}
