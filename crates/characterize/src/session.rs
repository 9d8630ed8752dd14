//! The characterization session: one campaign's execution context as
//! an owned value.
//!
//! [`Session`] is the one owner of every piece of campaign state: the
//! [`ExperimentConfig`] (seed, backend choice, fault plan — fixed for
//! the whole campaign), the telemetry [`Recorder`], the engine
//! op-counter handles every rig reports through, one
//! [`HybridBackend`] whose surrogate is the session's only calibration
//! table, an optional armed [`CheckpointSession`], and the
//! fleet-coverage accumulator the `--faults` footer reports.
//!
//! Two sessions can therefore run concurrently in one process — each
//! sweep on its own scoped threads — with different seeds,
//! backends, and fault plans, and each produces output byte-identical
//! to running alone: telemetry and counters never touch an RNG stream,
//! each session's calibration table and hybrid slot state are
//! instance-owned, and every (module, point) task seeds its own stream
//! from a pure function of the session's config
//! (`module_stream_seed`). `crates/characterize/tests/sessions.rs`
//! asserts exactly that.
//!
//! [`Session::new`] binds to a fresh, disabled recorder;
//! [`Session::recorded_by`] takes the caller's recorder — what the
//! `repro` CLI does, and what embedders running several campaigns side
//! by side do.

use std::fmt;
use std::path::Path;
use std::sync::{Mutex, OnceLock};

use simra_analog::EngineCounters;
use simra_exec::{AnalogBackend, BackendChoice, HybridBackend, PudBackend, ShardSpec};
use simra_telemetry::Recorder;

use crate::checkpoint::{CheckpointError, CheckpointSession};
use crate::config::ExperimentConfig;
use crate::fleet::{FleetCoverage, FleetOutcome, ModuleResult};

/// Cap on retained failure lines — coverage must not grow without bound
/// under a pathological fault plan.
const FAILURE_LINE_CAP: usize = 32;

/// Coverage accounting across every fleet run of one session.
#[derive(Default)]
struct CoverageState {
    coverage: FleetCoverage,
    failures: Vec<String>,
}

/// One characterization campaign's owned execution context. See the
/// module docs for the isolation and determinism contract.
pub struct Session {
    config: ExperimentConfig,
    recorder: Recorder,
    engine_counters: EngineCounters,
    hybrid: HybridBackend,
    checkpoint: OnceLock<CheckpointSession>,
    coverage: Mutex<CoverageState>,
}

impl fmt::Debug for Session {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Session")
            .field("config", &self.config)
            .field("hybrid", &self.hybrid)
            .field("checkpointed", &self.checkpoint.get().is_some())
            .finish_non_exhaustive()
    }
}

impl Session {
    /// A session reporting to a fresh, disabled recorder.
    pub fn new(config: ExperimentConfig) -> Self {
        Session::recorded_by(config, Recorder::new())
    }

    /// A session with a private recorder (enable it with
    /// [`Recorder::enable`] if its snapshots should carry data).
    pub fn recorded_by(config: ExperimentConfig, recorder: Recorder) -> Self {
        let hybrid = HybridBackend::new(&recorder);
        let engine_counters = EngineCounters::recorded_by(&recorder);
        Session {
            config,
            recorder,
            engine_counters,
            hybrid,
            checkpoint: OnceLock::new(),
            coverage: Mutex::new(CoverageState::default()),
        }
    }

    /// The campaign configuration.
    pub fn config(&self) -> &ExperimentConfig {
        &self.config
    }

    /// The session's telemetry recorder.
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// The backend a choice names. The surrogate is the hybrid's own,
    /// so both share the session's one calibration table.
    pub fn dispatch(&self, choice: BackendChoice) -> &dyn PudBackend {
        match choice {
            BackendChoice::Analog => &AnalogBackend,
            BackendChoice::Surrogate => self.hybrid.surrogate(),
            BackendChoice::Hybrid => &self.hybrid,
        }
    }

    /// The engine op-counter handles this session's rigs report through.
    pub fn engine_counters(&self) -> &EngineCounters {
        &self.engine_counters
    }

    /// Runs one figure body under its telemetry span — the shared
    /// boilerplate of every `figNN_*` runner: open `figure/<name>`,
    /// run `f` against this session, close the span on the way out.
    pub fn run_figure<T>(&self, name: &str, f: impl FnOnce(&Session) -> T) -> T {
        let _span = self.recorder().span("figure", name);
        f(self)
    }

    /// Arms checkpointing for this session: every subsequent
    /// [`run_sweep_on`](crate::fleet::run_sweep_on) (or
    /// [`run_sweep`](crate::fleet::run_sweep)) call on it journals into
    /// `dir` (see [`CheckpointSession::arm`] for the fresh/resume
    /// rules). Arming is once per session; a second call is
    /// [`CheckpointError::AlreadyArmed`].
    pub fn arm_checkpoints(&self, dir: &Path, resume: bool) -> Result<(), CheckpointError> {
        self.arm(dir, resume, None)
    }

    /// Arms a *shard-worker* checkpoint session: like
    /// [`Session::arm_checkpoints`], but every sweep's journal owns only
    /// the slots [`slot_shard`](crate::checkpoint::slot_shard) assigns
    /// to `shard`, so only those run.
    pub fn arm_sharded_checkpoints(
        &self,
        dir: &Path,
        resume: bool,
        shard: ShardSpec,
    ) -> Result<(), CheckpointError> {
        self.arm(dir, resume, Some(shard))
    }

    fn arm(
        &self,
        dir: &Path,
        resume: bool,
        shard: Option<ShardSpec>,
    ) -> Result<(), CheckpointError> {
        let armed = CheckpointSession::arm(dir, &self.config, resume, shard)?;
        self.checkpoint
            .set(armed)
            .map_err(|_| CheckpointError::AlreadyArmed)
    }

    /// The armed checkpoint session, if any.
    pub fn checkpoint(&self) -> Option<&CheckpointSession> {
        self.checkpoint.get()
    }

    /// Records one fleet outcome into the session's coverage
    /// accounting. [`run_sweep_on`](crate::fleet::run_sweep_on) calls
    /// this once per assembled outcome (journal-replayed slots plus
    /// freshly executed ones), so a resumed run's coverage footer
    /// counts every module task exactly once — byte-identical to an
    /// uninterrupted run.
    pub(crate) fn record_coverage(&self, outcome: &FleetOutcome) {
        let mut state = self.coverage.lock().expect("session coverage poisoned");
        for (index, slot) in outcome.slots.iter().enumerate() {
            state.coverage.tasks += 1;
            match slot {
                ModuleResult::Completed { attempts, .. } => {
                    state.coverage.completed += 1;
                    if *attempts > 1 {
                        state.coverage.retried += 1;
                    }
                }
                ModuleResult::Failed { attempts, cause } => {
                    state.coverage.failed += 1;
                    if state.failures.len() < FAILURE_LINE_CAP {
                        state.failures.push(format!(
                            "module {index}: {cause} after {attempts} attempt(s)"
                        ));
                    }
                }
            }
        }
    }

    /// Returns and resets this session's accumulated coverage counters
    /// plus the retained failure lines (capped at 32).
    pub fn take_coverage(&self) -> (FleetCoverage, Vec<String>) {
        let mut state = self.coverage.lock().expect("session coverage poisoned");
        let coverage = std::mem::take(&mut state.coverage);
        let failures = std::mem::take(&mut state.failures);
        (coverage, failures)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simra_bender::TestSetup;
    use simra_core::rowgroup::random_group;
    use simra_dram::{ApaTiming, BankId, DramModule, Rng, SubarrayId, VendorProfile};
    use simra_exec::TrialSpec;

    #[test]
    fn run_figure_opens_exactly_one_span() {
        let recorder = Recorder::new();
        recorder.enable();
        let session = Session::recorded_by(ExperimentConfig::quick(), recorder.clone());
        let out = session.run_figure("figtest", |s| s.config().seed);
        assert_eq!(out, session.config().seed);
        let spans = recorder.snapshot().spans;
        let span = spans
            .iter()
            .find(|s| s.module == "figure" && s.name == "figtest")
            .expect("figure span recorded");
        assert_eq!(span.count, 1);
    }

    #[test]
    fn coverage_is_per_session_and_resets_on_take() {
        let session = Session::recorded_by(ExperimentConfig::quick(), Recorder::new());
        let other = Session::recorded_by(ExperimentConfig::quick(), Recorder::new());
        session.record_coverage(&FleetOutcome {
            slots: vec![
                ModuleResult::Completed {
                    samples: vec![1.0],
                    attempts: 2,
                },
                ModuleResult::Failed {
                    attempts: 3,
                    cause: crate::fleet::FailureCause::Dropout { at_group: 0 },
                },
            ],
        });
        let (coverage, failures) = session.take_coverage();
        assert_eq!(coverage.tasks, 2);
        assert_eq!(coverage.completed, 1);
        assert_eq!(coverage.retried, 1);
        assert_eq!(coverage.failed, 1);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("dropped out"), "{}", failures[0]);
        // Taking drained it; the sibling session never saw anything.
        assert_eq!(session.take_coverage().0, FleetCoverage::default());
        assert_eq!(other.take_coverage().0, FleetCoverage::default());
    }

    #[test]
    fn second_arm_is_a_typed_error() {
        let session = Session::recorded_by(ExperimentConfig::quick(), Recorder::new());
        let dir = std::env::temp_dir().join(format!("simra-session-arm-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        session.arm_checkpoints(&dir, false).expect("first arm");
        assert!(session.checkpoint().is_some());
        match session.arm_checkpoints(&dir, true) {
            Err(CheckpointError::AlreadyArmed) => {}
            other => panic!("expected AlreadyArmed, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Runs `trials` best-timing 32-row activation trials through the
    /// session's `choice` backend on one freshly mounted rig.
    fn run_trials(session: &Session, choice: BackendChoice, trials: usize) {
        let mut setup = TestSetup::with_module(DramModule::new(VendorProfile::mfr_h_m_die(), 7));
        setup.set_engine_counters(session.engine_counters().clone());
        let mut rng = Rng::seed_from_u64(21);
        let group = random_group(
            setup.module().geometry(),
            BankId::new(0),
            SubarrayId::new(0),
            32,
            &mut rng,
        )
        .expect("subarray hosts the group");
        let spec = TrialSpec::activation(ApaTiming::best_for_activation());
        let backend = session.dispatch(choice);
        for _ in 0..trials {
            assert!(backend
                .run_trial(&spec, &mut setup, &group, &mut rng)
                .is_some());
        }
    }

    fn counter(recorder: &Recorder, module: &str, name: &str) -> u64 {
        recorder
            .snapshot()
            .counters
            .iter()
            .find(|c| c.module == module && c.name == name)
            .map_or(0, |c| c.value)
    }

    fn enabled_session(config: ExperimentConfig) -> (Session, Recorder) {
        let recorder = Recorder::new();
        recorder.enable();
        (Session::recorded_by(config, recorder.clone()), recorder)
    }

    #[test]
    fn dispatch_names_match_choices() {
        let session = Session::new(ExperimentConfig::quick());
        assert_eq!(session.dispatch(BackendChoice::Analog).name(), "analog");
        assert_eq!(
            session.dispatch(BackendChoice::Surrogate).name(),
            "surrogate"
        );
        assert_eq!(session.dispatch(BackendChoice::Hybrid).name(), "hybrid");
    }

    #[test]
    fn surrogate_and_hybrid_share_one_calibration_table() {
        let (session, recorder) = enabled_session(ExperimentConfig::quick());
        run_trials(&session, BackendChoice::Surrogate, 1);
        run_trials(&session, BackendChoice::Hybrid, 1);
        assert_eq!(
            counter(&recorder, "surrogate", "calibration_probes"),
            1,
            "the hybrid reads the key the surrogate trial calibrated"
        );
    }
}
