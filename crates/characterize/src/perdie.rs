//! Per-die-revision breakdown (extended-version style): the headline
//! operations measured separately for each Table-1 profile, exposing the
//! Mfr. H vs Mfr. M differences (Frac support, biased amps, variation
//! scales) the fleet averages blur together.
//!
//! The four profiles are independent measurements (each mounts its own
//! module and seeds its own RNG stream), so they run as one four-task
//! [`FleetPool`] job; rows are still emitted in Table-1 order, so the
//! table is byte-identical to the sequential loop.

use std::sync::Mutex;

use simra_bender::TestSetup;
use simra_core::metrics::{mean, pct};
use simra_core::rowgroup::sample_groups;
use simra_dram::vendor::paper_fleet;
use simra_dram::{ApaTiming, DataPattern, DramModule, Rng, VendorProfile};
use simra_exec::{MrcSource, TrialSpec};

use crate::fleet::executor_threads;
use crate::pool::FleetPool;
use crate::report::Table;
use crate::session::Session;

/// One profile's row: mount the profile, draw its group sample, and
/// measure every headline operation on the shared per-profile stream.
fn per_die_row(session: &Session, profile: &VendorProfile) -> Vec<f64> {
    let config = session.config();
    // The fresh mount carries no backend state, so stateful backends
    // (hybrid) start clean whatever this thread ran before: the row is
    // scheduling-independent.
    let mut setup = TestSetup::with_module(DramModule::new(profile.clone(), 4242));
    setup.set_engine_counters(session.engine_counters().clone());
    let mut rng = Rng::seed_from_u64(config.seed ^ 0xD1E);
    let groups = sample_groups(
        setup.module().geometry(),
        32,
        config.banks,
        config.subarrays_per_bank,
        config.groups_per_subarray,
        &mut rng,
    );
    let backend = session.dispatch(config.backend);

    // Each operation's samples, all from one stream in column order.
    let mut samples_of = |spec: &TrialSpec| {
        let mut samples = Vec::with_capacity(groups.len());
        backend.run_trials(spec, &mut setup, &groups, &mut rng, &mut samples);
        samples
    };
    let act = samples_of(&TrialSpec::activation(ApaTiming::best_for_activation()));
    let mut row = vec![pct(mean(&act))];
    for x in [3usize, 5, 7, 9] {
        let spec = TrialSpec::majx(x, ApaTiming::best_for_majx(), DataPattern::Random);
        if spec.unsupported_on(profile) {
            row.push(f64::NAN);
            continue;
        }
        row.push(pct(mean(&samples_of(&spec))));
    }
    // Historically the per-die MRC image was drawn word-at-a-time
    // (`BitRow::random`), unlike the figure runners' bit-at-a-time
    // convention — `RandomRow` keeps that stream.
    let mrc_spec =
        TrialSpec::multirowcopy(ApaTiming::best_for_multi_row_copy(), MrcSource::RandomRow);
    row.push(pct(mean(&samples_of(&mrc_spec))));
    row
}

/// Per-die table: one row per Table-1 profile, columns for 32-row
/// activation, MAJ3/5/7/9 @32 (random pattern), and Multi-RowCopy @31
/// destinations, all in percent (NaN where the part cannot perform the
/// operation, e.g. MAJ9 on Mfr. M).
pub fn per_die_breakdown(session: &Session) -> Table {
    session.run_figure("per_die_breakdown", |session| {
        let columns = vec![
            "ACT32".to_string(),
            "MAJ3".into(),
            "MAJ5".into(),
            "MAJ7".into(),
            "MAJ9".into(),
            "MRC31".into(),
        ];
        let mut table = Table::new(
            "Per-die breakdown: headline operations per Table-1 profile",
            session.config().describe_scale(),
            columns,
        );
        let profiles: Vec<VendorProfile> = paper_fleet().into_iter().map(|e| e.profile).collect();
        let rows: Vec<Mutex<Option<Vec<f64>>>> =
            profiles.iter().map(|_| Mutex::new(None)).collect();
        let verdict =
            FleetPool::global().run_tasks(profiles.len(), executor_threads(profiles.len()), |i| {
                *rows[i].lock().unwrap_or_else(|e| e.into_inner()) =
                    Some(per_die_row(session, &profiles[i]));
            });
        for (profile, slot) in profiles.iter().zip(rows) {
            // A panicking row task (reported via `verdict`, never
            // expected from this pure computation) degrades its row to
            // NaNs — the same rendering as an infeasible cell — instead
            // of aborting.
            let row = slot
                .into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .unwrap_or_else(|| {
                    debug_assert!(verdict.is_err(), "row missing without a task panic");
                    vec![f64::NAN; 6]
                });
            table.push_row(profile.label(), row);
        }
        table
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExperimentConfig;

    #[test]
    fn per_die_table_shows_vendor_differences() {
        let mut config = ExperimentConfig::quick();
        config.groups_per_subarray = 3;
        let t = per_die_breakdown(&Session::new(config));
        assert_eq!(t.rows.len(), 4, "one row per Table-1 profile");
        let mut p = crate::observations::SeriesProbe::default();
        // Mfr. M has no MAJ9 column; Mfr. H does.
        let m_e = "Mfr. M (E die, 16Gb x16)";
        let h_m = "Mfr. H (M die, 4Gb x8)";
        let m_e_maj9 = p.get(&t, m_e, "MAJ9");
        let h_m_maj9 = p.get(&t, h_m, "MAJ9");
        // MAJ7 exists on both vendors (vendor *ordering* needs more than
        // a quick-scale sample — the group spread dominates 3 groups).
        let h_m_maj7 = p.get(&t, h_m, "MAJ7");
        let m_e_maj7 = p.get(&t, m_e, "MAJ7");
        assert!(p.missing().is_empty(), "missing series: {:?}", p.missing());
        assert!(m_e_maj9.is_nan(), "Mfr. M MAJ9 must be infeasible");
        assert!(!h_m_maj9.is_nan(), "Mfr. H MAJ9 must be measured");
        assert!(h_m_maj7.is_finite());
        assert!(m_e_maj7.is_finite());
        // Everyone activates and copies well.
        for r in &t.rows {
            let act = r.values[0];
            let mrc = r.values[5];
            assert!(act > 97.0, "{}: ACT32 {act}", r.label);
            assert!(mrc > 97.0, "{}: MRC31 {mrc}", r.label);
        }
    }

    #[test]
    fn per_die_table_is_deterministic() {
        // The four profile tasks run in parallel on the pool; the table
        // must come out identical run to run regardless of scheduling.
        let mut config = ExperimentConfig::quick();
        config.groups_per_subarray = 3;
        let session = Session::new(config);
        let a = per_die_breakdown(&session);
        let b = per_die_breakdown(&session);
        for (ra, rb) in a.rows.iter().zip(&b.rows) {
            assert_eq!(ra.label, rb.label);
            let same = ra
                .values
                .iter()
                .zip(&rb.values)
                .all(|(x, y)| (x.is_nan() && y.is_nan()) || x == y);
            assert!(
                same,
                "row {} differs: {:?} vs {:?}",
                ra.label, ra.values, rb.values
            );
        }
    }
}
