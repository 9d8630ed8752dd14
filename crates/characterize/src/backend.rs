//! Backend dispatch for the characterization layer.
//!
//! Every figure runner describes its trials as [`TrialSpec`] values and
//! submits them to the fleet as [`SweepPoint<TrialSpec>`]s. A campaign
//! runs one backend, the one its config names, so each sweep resolves it
//! from the [`Session`] once and runs every trial through it.
//!
//! The sweep-backed runners (Figs. 3–12) declare their tables as blocks
//! of rows, every row one statistic of one point per column, and the
//! crate-private `figure_table` sweeps the distinct points of those
//! cells as one grid and fills the rows. The declaration is the figure's
//! cell→point map. A cell reads its point's samples where the sweep left
//! them, in each completed module's slot of the point's
//! [`FleetOutcome`]: nothing copies them into one list first.
//! [`sweep_trial_samples`] is the same sweep with each point's samples
//! flattened into one list, for callers that want the list.
//!
//! The backends live in the session: the surrogate and the hybrid share
//! the session's one calibration table, which stays warm for the whole
//! campaign — a key one figure probed is a cache hit for every later
//! figure — while two concurrent sessions keep fully separate tables.

use std::sync::OnceLock;

use simra_core::metrics::{mean_of_parts, pct, BoxStats};
use simra_exec::TrialSpec;

use crate::fleet::{executor_threads, run_chunked_sweep, FleetOutcome, SweepPoint};
use crate::pool::FleetPool;
use crate::report::Table;
use crate::session::Session;

/// The figures' sweep, each point's outcome flattened into its
/// surviving samples (module order, then group order) by
/// [`FleetOutcome::into_samples`]. The samples are those of
/// [`run_sweep`](crate::fleet::run_sweep) with
/// [`PudBackend::run_trial`](simra_exec::PudBackend::run_trial) as the
/// op.
pub fn sweep_trial_samples(session: &Session, points: &[SweepPoint<TrialSpec>]) -> Vec<Vec<f64>> {
    sweep_trials(session, points)
        .into_iter()
        .map(FleetOutcome::into_samples)
        .collect()
}

/// A sweep over trial specs — the one sweep every figure runs. Every
/// trial runs through the session's backend for `config.backend`, which
/// gets each task's groups through
/// [`PudBackend::run_trials`](simra_exec::PudBackend::run_trials): in
/// one call, or one group per call where the fleet has per-group hooks
/// to run between them.
fn sweep_trials(session: &Session, points: &[SweepPoint<TrialSpec>]) -> Vec<FleetOutcome> {
    let backend = session.dispatch(session.config().backend);
    run_chunked_sweep(session, points, |spec, setup, groups, rng, samples| {
        backend.run_trials(spec, setup, groups, rng, samples)
    })
}

/// The statistic a figure row prints of each cell's samples, in percent.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Stat {
    /// [`mean_of_parts`] of the samples.
    Mean,
    /// The mean of the cell's [`BoxStats`]. It sums the *sorted*
    /// samples, so it can differ from [`Stat::Mean`] in the last bits.
    BoxMean,
    /// The minimum of the cell's [`BoxStats`].
    BoxMin,
    /// The median of the cell's [`BoxStats`].
    BoxMedian,
}

impl Stat {
    /// Whether this statistic reads the cell's [`BoxStats`].
    fn boxed(self) -> bool {
        !matches!(self, Stat::Mean)
    }

    /// This statistic of the samples in `parts`; `summary` is their
    /// [`BoxStats`], present whenever [`Stat::boxed`] holds.
    fn of(self, parts: &[&[f64]], summary: Option<&BoxStats>) -> f64 {
        let boxed = || summary.expect("box cells are summarised before the rows fill");
        pct(match self {
            Stat::Mean => mean_of_parts(parts),
            Stat::BoxMean => boxed().mean,
            Stat::BoxMin => boxed().min,
            Stat::BoxMedian => boxed().median,
        })
    }
}

/// Rows of a figure table that read the same points: each row prints
/// its [`Stat`] of every column's point.
pub(crate) struct RowBlock {
    rows: Vec<(String, Stat)>,
    /// One point per column; `None` leaves the cell NaN (not measured).
    points: Vec<Option<SweepPoint<TrialSpec>>>,
}

impl RowBlock {
    /// Rows labelled and summarised by `rows`, over one point per column.
    pub(crate) fn new(
        rows: impl IntoIterator<Item = (String, Stat)>,
        points: impl IntoIterator<Item = SweepPoint<TrialSpec>>,
    ) -> Self {
        RowBlock {
            rows: rows.into_iter().collect(),
            points: points.into_iter().map(Some).collect(),
        }
    }

    /// One row of `width` cells that measures only `column`, at `point`.
    pub(crate) fn single(
        label: String,
        stat: Stat,
        width: usize,
        column: usize,
        point: SweepPoint<TrialSpec>,
    ) -> Self {
        let mut points = vec![None; width];
        points[column] = Some(point);
        RowBlock {
            rows: vec![(label, stat)],
            points,
        }
    }
}

/// Runs figure `name` under its `figure/<name>` span: sweeps the
/// distinct points of every block's cells as one grid (in first-use
/// order: block order, then column order), summarises the points its
/// box statistics read as one [`FleetPool`] job, and returns the table
/// whose rows those blocks declare, in order. Every cell reads its
/// point's samples in place, as the completed modules' slots of the
/// point's [`FleetOutcome`], in module order; a point with no completed
/// module prints NaN.
pub(crate) fn figure_table(
    session: &Session,
    name: &str,
    title: &str,
    columns: Vec<String>,
    blocks: Vec<RowBlock>,
) -> Table {
    session.run_figure(name, |session| {
        // Each cell's index into the swept point list. Cells that name
        // equal points share one swept point: equal points replay one
        // stream, so sweeping a point twice only repeats its work.
        let mut points: Vec<SweepPoint<TrialSpec>> = Vec::new();
        let mut index_of = |point: SweepPoint<TrialSpec>| {
            points.iter().position(|p| *p == point).unwrap_or_else(|| {
                points.push(point);
                points.len() - 1
            })
        };
        let cells: Vec<Vec<Option<usize>>> = blocks
            .iter()
            .map(|block| {
                block
                    .points
                    .iter()
                    .map(|point| point.map(&mut index_of))
                    .collect()
            })
            .collect();
        let outcomes = sweep_trials(session, &points);
        let parts: Vec<Vec<&[f64]>> = outcomes
            .iter()
            .map(|outcome| outcome.completed_samples().collect())
            .collect();
        // Every point a box statistic reads, summarised once. A paper-scale
        // box cell holds 86 400 samples, so the sorts run as one fleet job.
        let mut boxed: Vec<usize> = blocks
            .iter()
            .zip(&cells)
            .filter(|(block, _)| block.rows.iter().any(|(_, stat)| stat.boxed()))
            .flat_map(|(_, cells)| cells.iter().flatten().copied())
            .collect();
        boxed.sort_unstable();
        boxed.dedup();
        let summaries: Vec<OnceLock<BoxStats>> = points.iter().map(|_| OnceLock::new()).collect();
        let verdict =
            FleetPool::global().run_tasks(boxed.len(), executor_threads(boxed.len()), |i| {
                let point = boxed[i];
                summaries[point].get_or_init(|| BoxStats::from_parts_or_nan(&parts[point]));
            });
        if let Err(err) = verdict {
            panic!("{err}");
        }
        let mut table = Table::new(title, session.config().describe_scale(), columns);
        for (block, cells) in blocks.iter().zip(&cells) {
            for (label, stat) in &block.rows {
                let values = cells
                    .iter()
                    .map(|cell| {
                        cell.map_or(f64::NAN, |point| {
                            stat.of(&parts[point], summaries[point].get())
                        })
                    })
                    .collect();
                table.push_row(label.clone(), values);
            }
        }
        table
    })
}

#[cfg(test)]
mod tests {
    use simra_bender::setup::TEMPERATURE_RANGE_C;
    use simra_core::metrics::mean;
    use simra_dram::{ApaTiming, DataPattern};
    use simra_exec::MrcSource;
    use simra_faults::{FaultPlan, ModuleFault, ModuleFaultKind};
    use simra_telemetry::Recorder;

    use super::*;
    use crate::config::ExperimentConfig;
    use crate::fleet::ModuleResult;

    #[test]
    fn each_cell_reads_its_statistic_of_one_distinct_point() {
        let recorder = Recorder::new();
        recorder.enable();
        let session = Session::recorded_by(ExperimentConfig::quick(), recorder.clone());
        let weak = SweepPoint::new(2, TrialSpec::activation(ApaTiming::from_ns(1.5, 1.5)));
        let best = SweepPoint::new(8, TrialSpec::activation(ApaTiming::best_for_activation()));
        let maj3 = TrialSpec::majx(3, ApaTiming::best_for_majx(), DataPattern::Random);
        let maj3 = SweepPoint::new(4, maj3);
        let copy =
            TrialSpec::multirowcopy(ApaTiming::best_for_multi_row_copy(), MrcSource::AllOnes);
        let copy = SweepPoint::new(8, copy);
        let blocks = vec![
            RowBlock::new(
                [("mean".into(), Stat::BoxMean), ("min".into(), Stat::BoxMin)],
                [weak, best],
            ),
            RowBlock::new([("avg".into(), Stat::Mean)], [maj3, copy]),
            RowBlock::single("again".into(), Stat::Mean, 2, 1, weak),
        ];
        let columns = vec!["a".into(), "b".into()];
        let table = figure_table(&session, "figtest", "Fig. T", columns, blocks);
        let grid_tasks = recorder.counter("fleet", "grid_tasks").get();
        assert_eq!(grid_tasks, 4, "one quick-scale task per distinct point");
        let labels: Vec<&str> = table.rows.iter().map(|r| r.label.as_str()).collect();
        assert_eq!(labels, ["mean", "min", "avg", "again"]);

        let samples = sweep_trial_samples(&session, &[weak, best, maj3, copy]);
        assert!(
            samples.iter().all(|s| !s.is_empty()),
            "every point measured"
        );
        let boxed = |i: usize| BoxStats::from_samples(&samples[i]);
        let expected = [
            [pct(boxed(0).mean), pct(boxed(1).mean)],
            [pct(boxed(0).min), pct(boxed(1).min)],
            [pct(mean(&samples[2])), pct(mean(&samples[3]))],
            [f64::NAN, pct(mean(&samples[0]))],
        ];
        let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (row, want) in table.rows.iter().zip(&expected) {
            assert_eq!(bits(&row.values), bits(want), "row {}", row.label);
        }
    }

    #[test]
    fn cells_read_only_the_modules_that_completed() {
        // Reduced scale mounts two Mfr. H modules, then two Mfr. M ones,
        // which have no MAJ9 (footnote 11: they complete with no
        // samples). The plan drops module 1 out at its first group on
        // every point. A trial outside the temperature range panics on
        // every attempt, so the hot MAJ9 point fails the other Mfr. H
        // module too, and the hot activation point fails every module.
        let mut config = ExperimentConfig::reduced();
        config.faults = Some(FaultPlan {
            modules: vec![ModuleFault {
                module_index: 1,
                kind: ModuleFaultKind::Dropout {
                    at_group: 0,
                    recover_after_attempts: None,
                },
            }],
            ..FaultPlan::default()
        });
        let session = Session::new(config);
        let hot = TEMPERATURE_RANGE_C.1 + 10.0;
        let weak = TrialSpec::activation(ApaTiming::from_ns(1.5, 1.5));
        let maj9 = TrialSpec::majx(9, ApaTiming::best_for_majx(), DataPattern::Random);
        let best = TrialSpec::activation(ApaTiming::best_for_activation());
        let points = [
            SweepPoint::new(2, weak),
            SweepPoint::new(16, maj9),
            SweepPoint::new(16, maj9.at_temperature(hot)),
            SweepPoint::new(8, best.at_temperature(hot)),
        ];
        let completed = |outcome: &FleetOutcome| -> Vec<Option<bool>> {
            let slot = |slot: &ModuleResult| match slot {
                ModuleResult::Completed { samples, .. } => Some(!samples.is_empty()),
                ModuleResult::Failed { .. } => None,
            };
            outcome.slots.iter().map(slot).collect()
        };
        let fates: Vec<_> = sweep_trials(&session, &points)
            .iter()
            .map(completed)
            .collect();
        let (full, empty) = (Some(true), Some(false));
        assert_eq!(
            fates,
            [
                [full, None, full, full],
                [full, None, empty, empty],
                [None, None, empty, empty],
                [None; 4],
            ],
            "each module's fate at each point: samples, none, or failed"
        );

        let rows = [
            ("mean", Stat::Mean),
            ("box mean", Stat::BoxMean),
            ("min", Stat::BoxMin),
            ("median", Stat::BoxMedian),
        ];
        let blocks = vec![RowBlock::new(
            rows.map(|(label, stat)| (label.to_string(), stat)),
            points,
        )];
        let columns = ["weak", "maj9", "hot maj9", "hot"]
            .map(String::from)
            .to_vec();
        let table = figure_table(&session, "figfaults", "Fig. F", columns, blocks);

        let samples = sweep_trial_samples(&session, &points);
        for (row, (label, stat)) in table.rows.iter().zip(rows) {
            let want: Vec<f64> = samples
                .iter()
                .map(|samples| {
                    let boxed = BoxStats::from_samples_or_nan(samples);
                    pct(match stat {
                        Stat::Mean => mean(samples),
                        Stat::BoxMean => boxed.mean,
                        Stat::BoxMin => boxed.min,
                        Stat::BoxMedian => boxed.median,
                    })
                })
                .collect();
            let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&row.values), bits(&want), "row {label}");
            assert!(row.values[..2].iter().all(|v| !v.is_nan()), "row {label}");
            assert!(row.values[2..].iter().all(|v| v.is_nan()), "row {label}");
        }
    }
}
