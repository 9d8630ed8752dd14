//! Backend dispatch for the characterization layer.
//!
//! Every figure runner describes its trials as [`TrialSpec`] values and
//! submits them to the fleet as [`SweepPoint<TrialSpec>`]s. A campaign
//! runs one backend, the one its config names, so
//! [`sweep_trial_samples`] resolves it from the [`Session`] once per
//! sweep and runs every trial through it.
//!
//! The backends live in the session: the surrogate and the hybrid share
//! the session's one calibration table, which stays warm for the whole
//! campaign — a key one figure probed is a cache hit for every later
//! figure — while two concurrent sessions keep fully separate tables.

use simra_exec::TrialSpec;

use crate::fleet::{run_sweep, FleetOutcome, SweepPoint};
use crate::session::Session;

/// [`run_sweep`] over trial specs, each point's outcome reduced to its
/// surviving samples (module order, then group order) — the one entry
/// point every figure runner sweeps through. Every trial runs through
/// the session's backend for `config.backend`.
pub fn sweep_trial_samples(session: &Session, points: &[SweepPoint<TrialSpec>]) -> Vec<Vec<f64>> {
    let backend = session.dispatch(session.config().backend);
    run_sweep(session, points, |spec, setup, group, rng| {
        backend.run_trial(spec, setup, group, rng)
    })
    .into_iter()
    .map(FleetOutcome::into_samples)
    .collect()
}
