//! Parallel execution of experiments across the module fleet, scheduled
//! as a *sweep grid*.
//!
//! A paper figure is a sweep: the same operation at many parameter
//! points (timings, temperatures, V_PP levels, row counts N) over the
//! same module fleet. [`run_sweep`] takes the whole point list at once
//! and builds one task *chain* per module: the chain walks its module
//! through every sweep point sequentially on a single reused rig, and
//! the chains themselves run in parallel as one [`FleetPool`] job. The
//! consequences:
//!
//! * **no per-point barrier** — a slow module still working point k does
//!   not stop fast modules from moving on to point k+1; the figure's
//!   wall-clock is the longest chain, not the sum of per-point maxima;
//! * **no per-point setup cost** — worker threads are spawned and joined
//!   once per sweep, not once per point, and each chain's `DramModule`
//!   rig is reset (`reset_for_reuse`, an exact reinitialisation) instead
//!   of rebuilt, so voltage planes and fault overlays are allocated once
//!   per module per figure;
//! * **no per-sweep group draw** — the [`Session`] keeps each module's
//!   row groups, drawn once per distinct N as compact
//!   [`GroupPick`]s, for every later point, retry and sweep at that N,
//!   with the stream's backend-state slot, which the module's chain
//!   lends to each of those tasks' rigs (the surrogate keeps the
//!   stream's trial noise there, so each position's noise is computed
//!   once per session instead of once per point);
//! * **no per-group dispatch** — a task without per-group hooks (a
//!   module fault, a V_PP droop, a deadline) hands its whole draw to the
//!   op in one call, so a figure sweep calls the backend's
//!   [`run_trials`](simra_exec::PudBackend::run_trials) once per task.
//!
//! # Entry points
//!
//! `run_chunked_sweep_on` is the only code that schedules a sweep, on an
//! explicit pool, retry policy, clock and worker count, for unarmed,
//! fresh, resumed and shard-worker sessions alike. Its op runs a slice
//! of one task's groups per call: the whole draw, or one group at a
//! time where the fleet runs hooks between groups. [`run_sweep_on`] is
//! it with a per-group op, applied to each group of the slice in turn;
//! [`run_sweep`] and the crate's `run_chunked_sweep` are those two with
//! the session's defaults. On a session with an
//! armed checkpoint context (see [`crate::checkpoint`]) it first opens
//! the sweep's journal, which hands back the slots already replayed
//! from disk and says which slots this process owns; it then runs only
//! the slots still owed, appends each fresh result to the journal as it
//! lands, assembles the outcomes and records coverage once, and has
//! the journal compact itself. Figure runners reach it through the
//! crate's `figure_table`, which passes the session backend's
//! `run_trials` as the op and reads each cell's samples in place, from
//! the completed modules' slots of the point's outcome. A fleet run at
//! a single N is a one-point sweep. [`collect_group_samples_serial`] is
//! the serial reference the identity tests compare against.
//!
//! # Determinism
//!
//! Scheduling freedom never changes results. A module's stream at N is
//! seeded from `module_stream_seed``(config, module, index, n)` — a pure
//! function that does not involve other points — and its group sample
//! is drawn from it. The session draws once per (module, N), on the
//! first task at that N that any of its sweeps runs, and keeps the
//! groups together with the stream right after the draw; every
//! (module, point) task at that N then hands `op` its groups in order,
//! in one slice or one by one, on a clone of that post-draw stream: the
//! exact sequential semantics of seeding and drawing per task, since
//! faults never consume the stream, `op` never mutates a group, a pick
//! resolves to exactly the group the draw made, and a backend's
//! `run_trials` equals its per-group `run_trial` loop bit for bit. The
//! draw's lent state slot holds only a cache of stream positions, which
//! the serial reference never lends, so it changes no result. A module
//! chain holds its module's draws while it runs; a chain lost to a
//! panic drops them, and the next sweep draws them again, identically.
//! Results land in slots indexed by (point, module), so [`run_sweep`]
//! output is **byte-identical** to running each point as its own
//! one-point sweep, which in turn is bit-identical to the serial
//! reference ([`collect_group_samples_serial`]), for every worker count
//! and interleaving. The rig pool is invisible for the same reason: a reset
//! module is observationally identical to a fresh one (asserted by
//! tests here and in `tests/faults.rs`).
//!
//! # Hardening
//!
//! A real 18-module rig loses modules mid-sweep: a DIMM drops off the
//! bus, a harness script crashes, a thermal chamber stalls. Every
//! (module, point) task models all three through
//! [`simra_faults::FaultPlan`] and survives them:
//!
//! * **panic isolation** — each attempt runs under `catch_unwind`, so
//!   one module's crash can neither poison a worker thread nor take the
//!   fleet down (a panicked attempt forfeits its pooled rig; the retry
//!   mounts a fresh one);
//! * **bounded retry** — failed attempts are retried up to
//!   [`FleetPolicy::max_attempts`], with exponential backoff *charged*
//!   to the task's time budget (never slept: determinism over realism);
//! * **deadlines** — an optional per-task wall-clock budget is checked
//!   between row groups against a [`FleetClock`] (the injectable
//!   [`MockClock`] makes deadline outcomes deterministic in tests), and
//!   before each retry against the backoff charged so far; blowing the
//!   budget is fatal, not retried;
//! * **graceful degradation** — every sweep point yields a
//!   [`FleetOutcome`] with one [`ModuleResult`] slot per module,
//!   completed or failed, so reports can compute statistics over the
//!   surviving quorum and say exactly which modules dropped and why.
//!
//! An empty (or absent) fault plan takes the exact fault-free code path:
//! the attempt body is one unified function
//! (`run_point_attempt`) whose fault hooks all collapse to no-ops, so
//! no fault RNG stream is ever consulted and output stays byte-identical
//! to builds that predate fault injection.
//!
//! # Telemetry
//!
//! Every run reports to its [`Session`]'s recorder: task lifecycle
//! (started/retried/completed/failed/panicked, deadline trips,
//! charged backoff, attempts per task), the grid shape
//! (`grid_tasks` = points × modules), the group draws (`group_draws`,
//! one per (module, N) per session: a sweep draws only the Ns the
//! session has not drawn for that module yet), and the rig pool
//! (`pool_hit` / `pool_miss`). Events are a pure function of the
//! session's sweeps so far — `(config, points, policy)` of each —
//! never of scheduling, so all values are identical across worker
//! counts (asserted by `crates/characterize/tests/telemetry.rs`).

use std::num::NonZeroUsize;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use simra_analog::params::NOMINAL_VPP;
use simra_bender::setup::VPP_RANGE_V;
use simra_bender::{StateSlot, TestSetup};
use simra_core::rowgroup::{assert_group_size, sample_groups, GroupPick, GroupSpec};
use simra_dram::{DramModule, Rng};
use simra_faults::{FaultPlan, ModuleFaultKind};
use simra_telemetry::{Counter, Histogram, Recorder};

use crate::checkpoint::{CheckpointError, CheckpointSession, SweepJournal};
use crate::config::{ExperimentConfig, ModuleUnderTest};
use crate::pool::{panic_message, FleetPool};
use crate::session::Session;

/// Seed of the per-(module, N) stream that draws the module's groups and
/// then feeds `op` for every group. The module *index* is mixed in on top
/// of the module's silicon seed: two modules deliberately configured with
/// twinned silicon (same `m.seed`) must still draw distinct groups and
/// data, or the fleet would test the same thing twice and report it as
/// two samples. Index 0 contributes nothing, preserving the historical
/// single-module (quick-scale) streams bit-for-bit. Sweep parameters
/// other than `n` contribute nothing either: two points at the same N
/// replay the same stream, exactly as the per-point loop did.
fn module_stream_seed(
    config: &ExperimentConfig,
    module: &ModuleUnderTest,
    index: usize,
    n: u32,
) -> u64 {
    config.seed
        ^ module.seed.rotate_left(17)
        ^ ((n as u64) << 48)
        ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// A time source for deadline enforcement. [`SystemClock`] is the real
/// thing; [`MockClock`] never advances unless told to, which makes
/// deadline outcomes identical across machines, worker counts, and runs.
pub trait FleetClock: Sync {
    /// Milliseconds since some fixed origin.
    fn now_ms(&self) -> f64;
}

/// Wall-clock time, measured from construction.
#[derive(Debug)]
pub struct SystemClock(Instant);

impl Default for SystemClock {
    fn default() -> Self {
        SystemClock(Instant::now())
    }
}

impl FleetClock for SystemClock {
    fn now_ms(&self) -> f64 {
        self.0.elapsed().as_secs_f64() * 1e3
    }
}

/// A manually advanced clock (microsecond resolution). Time stands still
/// until a test calls [`MockClock::advance_ms`], so only *charged* time —
/// backoff and injected stalls — can ever trip a deadline.
#[derive(Debug, Default)]
pub struct MockClock(AtomicU64);

impl MockClock {
    /// A clock frozen at zero.
    pub fn new() -> Self {
        MockClock::default()
    }

    /// Moves time forward by `ms` milliseconds.
    pub fn advance_ms(&self, ms: f64) {
        self.0.fetch_add((ms * 1e3) as u64, Ordering::Relaxed);
    }
}

impl FleetClock for MockClock {
    fn now_ms(&self) -> f64 {
        self.0.load(Ordering::Relaxed) as f64 / 1e3
    }
}

/// Retry and deadline policy for module tasks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetPolicy {
    /// Attempts per module task (first try included). Minimum 1.
    pub max_attempts: u32,
    /// Base of the exponential backoff charged before retry `k`:
    /// `backoff_base_ms · 2^(k−2)` for k ≥ 2. The charge counts against
    /// the deadline budget but is never actually slept, so retries stay
    /// deterministic and fast.
    pub backoff_base_ms: f64,
    /// Per-task wall-clock budget (ms); `None` disables deadlines.
    pub deadline_ms: Option<f64>,
}

impl Default for FleetPolicy {
    fn default() -> Self {
        FleetPolicy {
            max_attempts: 3,
            backoff_base_ms: 10.0,
            deadline_ms: None,
        }
    }
}

/// Why a module task ultimately failed.
#[derive(Debug, Clone, PartialEq)]
pub enum FailureCause {
    /// The task panicked on its final attempt; payload message attached.
    Panic(String),
    /// The module stopped responding at the given group index.
    Dropout {
        /// Group index at which the module went silent.
        at_group: usize,
    },
    /// The task blew its wall-clock budget. Fatal on first occurrence —
    /// retrying a task that is already over budget only digs the hole
    /// deeper.
    DeadlineExceeded {
        /// The configured budget (ms).
        budget_ms: f64,
        /// Time charged when the check fired (ms). Includes real elapsed
        /// time, so it varies between identical runs: it is journaled
        /// but never rendered.
        spent_ms: f64,
    },
}

impl std::fmt::Display for FailureCause {
    /// Renders only deterministic fields, so the `--faults` footer is
    /// byte-identical across identical runs.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FailureCause::Panic(msg) => write!(f, "panicked: {msg}"),
            FailureCause::Dropout { at_group } => {
                write!(f, "dropped out at group {at_group}")
            }
            FailureCause::DeadlineExceeded { budget_ms, .. } => {
                write!(f, "exceeded deadline ({budget_ms:.1} ms budget)")
            }
        }
    }
}

/// The fate of one module's task at one sweep point.
#[derive(Debug, Clone, PartialEq)]
pub enum ModuleResult {
    /// The task produced its samples (possibly after retries).
    Completed {
        /// Per-group success rates, in group order.
        samples: Vec<f64>,
        /// Attempts consumed (1 = first try succeeded).
        attempts: u32,
    },
    /// The task was given up on.
    Failed {
        /// Attempts consumed.
        attempts: u32,
        /// Terminal failure cause.
        cause: FailureCause,
    },
}

/// Per-module results of one sweep point, indexed by module position. No
/// slot is ever lost: a module that failed is *reported* failed, not
/// silently dropped.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetOutcome {
    /// One result per configured module, in `config.modules` order.
    pub slots: Vec<ModuleResult>,
}

impl FleetOutcome {
    /// The samples of each completed module, in module order, where the
    /// sweep left them: one slice per module, none for a failed one.
    pub(crate) fn completed_samples(&self) -> impl Iterator<Item = &[f64]> {
        self.slots.iter().filter_map(|slot| match slot {
            ModuleResult::Completed { samples, .. } => Some(samples.as_slice()),
            ModuleResult::Failed { .. } => None,
        })
    }

    /// All samples from completed modules, ordered by module then group:
    /// each completed slot's samples, concatenated.
    pub fn samples(&self) -> Vec<f64> {
        self.completed_samples().collect::<Vec<_>>().concat()
    }

    /// Consuming variant of [`FleetOutcome::samples`].
    pub fn into_samples(self) -> Vec<f64> {
        self.samples()
    }

    /// Number of modules that completed.
    pub fn ok_modules(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| matches!(s, ModuleResult::Completed { .. }))
            .count()
    }

    /// One-line summary naming every failed module and its cause.
    pub fn describe(&self) -> String {
        let mut s = format!(
            "{}/{} modules completed",
            self.ok_modules(),
            self.slots.len()
        );
        for (index, slot) in self.slots.iter().enumerate() {
            if let ModuleResult::Failed { attempts, cause } = slot {
                s.push_str(&format!(
                    "; module {index} {cause} after {attempts} attempts"
                ));
            }
        }
        s
    }
}

/// One point of a sweep grid: the row count `n` (which selects the RNG
/// stream and group sample) plus arbitrary figure-specific parameters
/// handed to the op (timing, temperature, V_PP, data pattern, …).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint<P> {
    /// Rows activated simultaneously at this point.
    pub n: u32,
    /// Figure-specific parameters, passed to the op by reference.
    pub params: P,
}

impl<P> SweepPoint<P> {
    /// A sweep point at `n` simultaneously activated rows.
    pub fn new(n: u32, params: P) -> Self {
        SweepPoint { n, params }
    }
}

/// Telemetry series for the executor's task lifecycle, the grid shape,
/// and the rig pool, reported to the session's recorder. Every event is
/// a deterministic function of the run's `(config, points, policy)` —
/// never of scheduling — so values are identical across worker counts
/// (asserted by `crates/characterize/tests/telemetry.rs`).
struct FleetTelemetry {
    task_started: Counter,
    task_retried: Counter,
    task_completed: Counter,
    task_failed: Counter,
    task_panicked: Counter,
    /// Module chains lost to a panic that escaped the per-slot
    /// catch_unwind (e.g. from the clock); the slots they never
    /// finished degrade to per-slot failures.
    chain_panicked: Counter,
    deadline_tripped: Counter,
    /// (module × point) tasks submitted as one grid.
    grid_tasks: Counter,
    /// Group samples drawn: one per (module, N) per session.
    group_draws: Counter,
    /// Module rig acquisitions satisfied by resetting a pooled rig.
    pool_hit: Counter,
    /// Module rig acquisitions that had to construct a fresh rig.
    pool_miss: Counter,
    backoff_charged_ms: Histogram,
    attempts: Histogram,
}

impl FleetTelemetry {
    fn new(recorder: &Recorder) -> Self {
        FleetTelemetry {
            task_started: recorder.counter("fleet", "task_started"),
            task_retried: recorder.counter("fleet", "task_retried"),
            task_completed: recorder.counter("fleet", "task_completed"),
            task_failed: recorder.counter("fleet", "task_failed"),
            task_panicked: recorder.counter("fleet", "task_panicked"),
            chain_panicked: recorder.counter("fleet", "chain_panicked"),
            deadline_tripped: recorder.counter("fleet", "deadline_tripped"),
            grid_tasks: recorder.counter("fleet", "grid_tasks"),
            group_draws: recorder.counter("fleet", "group_draws"),
            pool_hit: recorder.counter("fleet", "pool_hit"),
            pool_miss: recorder.counter("fleet", "pool_miss"),
            backoff_charged_ms: recorder.histogram("fleet", "backoff_charged_ms"),
            attempts: recorder.histogram("fleet", "attempts_per_task"),
        }
    }
}

/// Everything a sweep chain needs, shared read-only across workers.
struct SweepCtx<'a, P, F> {
    session: &'a Session,
    config: &'a ExperimentConfig,
    plan: &'a FaultPlan,
    policy: FleetPolicy,
    clock: &'a dyn FleetClock,
    points: &'a [SweepPoint<P>],
    op: &'a F,
    telemetry: &'a FleetTelemetry,
    /// The sweep's journal on an armed session: each fresh result is
    /// appended the moment its slot completes.
    journal: Option<&'a SweepJournal>,
}

/// One module's group draw at `n`: the groups [`sample_groups`] drew
/// from the module's [`module_stream_seed`] stream, as compact picks,
/// that stream right after the draw, and the stream's backend-state
/// slot. The [`Session`] keeps every module's draws for the whole
/// campaign (`Session::take_draws`), so each (module, N) is drawn once
/// per session, not once per sweep. Pushed only once complete, and its
/// groups and stream are never mutated, so a panicked attempt leaves
/// its chain's draws consistent for the retry.
///
/// Every task at `n` replays the same stream, so the chain lends `state`
/// to each task's rig ([`TestSetup::lend_stream_state`]) and takes it
/// back with the rig. A backend may keep only a cache of stream
/// positions there (the surrogate's trial noise): a panicked attempt
/// drops the slot with its rig, and the retry starts an empty one.
pub(crate) struct GroupDraw {
    n: u32,
    groups: Vec<GroupPick>,
    rng: Rng,
    state: StateSlot,
}

/// Runs one module's task at one point on the serial reference path:
/// mount a fresh module, seed its stream, sample its groups, and run
/// `op` over them sequentially on that stream. No fault machinery at
/// all — this is the baseline `run_point_attempt` must match bit for
/// bit when the plan is empty.
fn run_module<F>(config: &ExperimentConfig, index: usize, n: u32, op: &F) -> Vec<f64>
where
    F: Fn(&mut TestSetup, &GroupSpec, &mut Rng) -> Option<f64>,
{
    let module = &config.modules[index];
    let mut setup = TestSetup::with_module(DramModule::new(module.profile.clone(), module.seed));
    let geometry = *setup.module().geometry();
    let mut rng = Rng::seed_from_u64(module_stream_seed(config, module, index, n));
    let groups = sample_groups(
        &geometry,
        n,
        config.banks,
        config.subarrays_per_bank,
        config.groups_per_subarray,
        &mut rng,
    );
    let mut samples = Vec::with_capacity(groups.len());
    for pick in &groups {
        if let Some(sample) = op(&mut setup, &pick.resolve(&geometry), &mut rng) {
            samples.push(sample);
        }
    }
    samples
}

/// One attempt at one (module, point) task. This is the *single* setup
/// path for faulted and fault-free runs alike. The chunk op runs a
/// slice of the task's groups per call: one group at a time when the
/// module has a per-group hook (a module fault, the plan's V_PP droop,
/// the policy's deadline), else the whole draw at once. Either way it
/// sees every group in order on one stream, so an op that is a per-group
/// loop ([`run_sweep_on`]'s adapter, a backend's
/// [`run_trials`](simra_exec::PudBackend::run_trials)) degenerates, with
/// an empty plan, to exactly [`run_module`]'s loop. The group sample and
/// RNG stream are identical to [`run_module`]: the chain's `draws` hold
/// the sample at `point.n` and the stream right after it (drawn here on
/// the session's first task at that (module, N)), and the attempt runs
/// on a clone of that stream. Faults only ever *interrupt* the stream
/// (dropout, panic, deadline) or perturb the rig (cell overlay, V_PP
/// droop), never consume from it.
///
/// Takes the mounted rig by value and hands it back with the verdict so
/// the chain can return it to the rig pool; a panic (injected or real)
/// unwinds past the return and forfeits the rig instead.
#[allow(clippy::too_many_arguments)]
fn run_point_attempt<P, F>(
    ctx: &SweepCtx<'_, P, F>,
    index: usize,
    point: &SweepPoint<P>,
    dram: DramModule,
    draws: &mut Vec<GroupDraw>,
    attempt: u32,
    carried_ms: f64,
    started_ms: f64,
) -> (Result<Vec<f64>, FailureCause>, DramModule)
where
    F: Fn(&P, &mut TestSetup, &[GroupPick], &mut Rng, &mut Vec<f64>),
{
    let config = ctx.config;
    let module = &config.modules[index];
    // Every attempt mounts a fresh rig with empty backend state: the
    // hybrid's per-point history starts here and drops with the rig, so
    // a retry replays the exact same escalation decisions and worker
    // scheduling cannot leak state between tasks. The rig borrows the
    // chain's stream slot at `point.n` and hands it back below; a panic
    // drops it with the rig.
    let mut setup = TestSetup::with_module(dram);
    setup.set_engine_counters(ctx.session.engine_counters().clone());
    let at = match draws.iter().position(|draw| draw.n == point.n) {
        Some(at) => at,
        None => {
            let mut rng = Rng::seed_from_u64(module_stream_seed(config, module, index, point.n));
            let groups = sample_groups(
                setup.module().geometry(),
                point.n,
                config.banks,
                config.subarrays_per_bank,
                config.groups_per_subarray,
                &mut rng,
            );
            ctx.telemetry.group_draws.incr();
            draws.push(GroupDraw {
                n: point.n,
                groups,
                rng,
                state: StateSlot::default(),
            });
            draws.len() - 1
        }
    };
    let GroupDraw {
        groups, rng, state, ..
    } = &mut draws[at];
    let mut rng = rng.clone();
    setup.lend_stream_state(std::mem::take(state));
    let faults = ctx.plan.module_faults(index);
    // Every module fault fires at a group, the droop window spans
    // groups, and the deadline is checked between them: with any of
    // these the op takes one group per call, and otherwise the whole
    // draw in one.
    let per_group =
        !faults.is_empty() || ctx.plan.vpp_droop.is_some() || ctx.policy.deadline_ms.is_some();
    let stride = if per_group { 1 } else { groups.len().max(1) };
    let mut samples = Vec::with_capacity(groups.len());
    let mut stalled_ms = 0.0;
    let mut failure = None;
    'groups: for (chunk_index, chunk) in groups.chunks(stride).enumerate() {
        let group_index = chunk_index * stride;
        for kind in &faults {
            match *kind {
                ModuleFaultKind::Dropout {
                    at_group,
                    recover_after_attempts,
                } if group_index == at_group => {
                    let still_faulty = match recover_after_attempts {
                        Some(k) => attempt <= k,
                        None => true,
                    };
                    if still_faulty {
                        failure = Some(FailureCause::Dropout { at_group });
                        break 'groups;
                    }
                }
                ModuleFaultKind::PanicAt { at_group }
                    if group_index == at_group && attempt == 1 =>
                {
                    panic!("injected fault: module {index} panicked at group {at_group}");
                }
                ModuleFaultKind::Hang { at_group, stall_ms } if group_index == at_group => {
                    // Charged, not slept: the stall counts against the
                    // deadline budget without making the test suite wait.
                    stalled_ms += stall_ms;
                }
                _ => {}
            }
        }
        if let Some(budget_ms) = ctx.policy.deadline_ms {
            let spent_ms = carried_ms + stalled_ms + (ctx.clock.now_ms() - started_ms);
            if spent_ms > budget_ms {
                failure = Some(FailureCause::DeadlineExceeded {
                    budget_ms,
                    spent_ms,
                });
                break 'groups;
            }
        }
        if let Some(droop) = ctx.plan.vpp_droop {
            let vpp = if (droop.from_group..droop.to_group).contains(&group_index) {
                // `.max`/`.min`, not `clamp`: a NaN sag lands on the
                // floor instead of propagating into `set_vpp`.
                (NOMINAL_VPP - droop.delta_v)
                    .max(VPP_RANGE_V.0)
                    .min(VPP_RANGE_V.1)
            } else {
                NOMINAL_VPP
            };
            setup
                .set_vpp(vpp)
                .expect("droop voltage is clamped into the supply range");
        }
        (ctx.op)(&point.params, &mut setup, chunk, &mut rng, &mut samples);
    }
    *state = setup.take_stream_state();
    let dram = setup.into_module();
    match failure {
        Some(cause) => (Err(cause), dram),
        None => (Ok(samples), dram),
    }
}

/// Largest exponent the backoff charge may reach: the charge saturates
/// at `backoff_base_ms · 2^30` (~12 days at the default 10 ms base) so
/// huge attempt counts can neither overflow a shift nor push the charge
/// to infinity.
const BACKOFF_EXPONENT_CAP: u32 = 30;

/// Exponential backoff charged before retry `attempt` (≥ 2):
/// `base · 2^(attempt − 2)`, saturating at 2^[`BACKOFF_EXPONENT_CAP`].
/// The previous `f64::from(1u32 << (attempt − 2))` panicked in debug
/// builds (and wrapped the shift in release) once `attempt ≥ 34`.
pub(crate) fn backoff_charge_ms(base_ms: f64, attempt: u32) -> f64 {
    let exponent = attempt.saturating_sub(2).min(BACKOFF_EXPONENT_CAP);
    base_ms * 2f64.powi(exponent as i32)
}

/// Drives one (module, point) task to a terminal [`ModuleResult`]:
/// acquire a rig from the chain's pool slot, attempt, isolate panics,
/// retry with charged backoff, give up on deadline or attempt
/// exhaustion. The rig returns to `rig` after every non-panicking
/// attempt (reset on next acquisition); a panicked attempt loses it, so
/// the retry — and only the retry — pays a fresh construction
/// (`pool_miss`), deterministically. Every attempt reads its groups
/// from the chain's `draws`, so a retry never redraws them.
fn run_slot<P, F>(
    ctx: &SweepCtx<'_, P, F>,
    index: usize,
    point: &SweepPoint<P>,
    rig: &mut Option<DramModule>,
    draws: &mut Vec<GroupDraw>,
) -> ModuleResult
where
    F: Fn(&P, &mut TestSetup, &[GroupPick], &mut Rng, &mut Vec<f64>),
{
    let mut carried_ms = 0.0;
    let mut attempt = 1u32;
    loop {
        if attempt > 1 {
            let charge = backoff_charge_ms(ctx.policy.backoff_base_ms, attempt);
            carried_ms += charge;
            ctx.telemetry.task_retried.incr();
            ctx.telemetry.backoff_charged_ms.observe(charge);
            // A task already over budget only gets further over: fail
            // before mounting a rig, whatever the attempt would hit first.
            if let Some(budget_ms) = ctx.policy.deadline_ms.filter(|&b| carried_ms > b) {
                ctx.telemetry.deadline_tripped.incr();
                ctx.telemetry.task_failed.incr();
                ctx.telemetry.attempts.observe(f64::from(attempt));
                return ModuleResult::Failed {
                    attempts: attempt,
                    cause: FailureCause::DeadlineExceeded {
                        budget_ms,
                        spent_ms: carried_ms,
                    },
                };
            }
        }
        ctx.telemetry.task_started.incr();
        let started_ms = ctx.clock.now_ms();
        let pooled = rig.take();
        if pooled.is_some() {
            ctx.telemetry.pool_hit.incr();
        } else {
            ctx.telemetry.pool_miss.incr();
        }
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            let dram = match pooled {
                Some(mut dram) => {
                    dram.reset_for_reuse();
                    dram
                }
                None => {
                    let module = &ctx.config.modules[index];
                    DramModule::with_faults(
                        module.profile.clone(),
                        module.seed,
                        ctx.plan.cell_spec(),
                    )
                }
            };
            run_point_attempt(
                ctx, index, point, dram, draws, attempt, carried_ms, started_ms,
            )
        }));
        let cause = match outcome {
            Ok((result, dram)) => {
                *rig = Some(dram);
                match result {
                    Ok(samples) => {
                        ctx.telemetry.task_completed.incr();
                        ctx.telemetry.attempts.observe(f64::from(attempt));
                        return ModuleResult::Completed {
                            samples,
                            attempts: attempt,
                        };
                    }
                    Err(cause) => {
                        if matches!(cause, FailureCause::DeadlineExceeded { .. }) {
                            ctx.telemetry.deadline_tripped.incr();
                        }
                        cause
                    }
                }
            }
            Err(payload) => {
                ctx.telemetry.task_panicked.incr();
                FailureCause::Panic(panic_message(payload.as_ref()))
            }
        };
        let fatal = matches!(cause, FailureCause::DeadlineExceeded { .. });
        if fatal || attempt >= ctx.policy.max_attempts.max(1) {
            ctx.telemetry.task_failed.incr();
            ctx.telemetry.attempts.observe(f64::from(attempt));
            return ModuleResult::Failed {
                attempts: attempt,
                cause,
            };
        }
        attempt += 1;
    }
}

/// One module's chain: every point it still owes (`owed[k]`), in order,
/// on one pooled rig and the module's list of group draws, at most one
/// per distinct N. The list belongs to the session: the chain takes it
/// when it starts and puts it back when it ends, so a later sweep reuses
/// every draw, and a chain lost to a panic drops it, so the next sweep
/// draws again. Each fresh result goes to the journal, if any, and then
/// into `slots[k]`, so a lost chain keeps the slots it finished.
/// Skipping is invisible to the points that do run: a draw is a pure
/// function of `(config, module, N)` ([`module_stream_seed`]), made
/// lazily by the first scheduled task at its N, so a masked chain
/// produces bit-identical results for the slots it executes and draws
/// nothing at an N it never runs.
fn run_chain<P, F>(
    ctx: &SweepCtx<'_, P, F>,
    index: usize,
    owed: &[bool],
    slots: &Mutex<Vec<Option<ModuleResult>>>,
) where
    F: Fn(&P, &mut TestSetup, &[GroupPick], &mut Rng, &mut Vec<f64>),
{
    let mut rig: Option<DramModule> = None;
    let mut draws = ctx.session.take_draws(index);
    for (point_index, point) in ctx.points.iter().enumerate() {
        if !owed[point_index] {
            continue;
        }
        let result = run_slot(ctx, index, point, &mut rig, &mut draws);
        if let Some(journal) = ctx.journal {
            journal.append(index, point_index, &result);
        }
        slots.lock().unwrap_or_else(PoisonError::into_inner)[point_index] = Some(result);
    }
    ctx.session.put_draws(index, draws);
}

/// Resolves the worker count from an (injected) `SIMRA_THREADS` value:
/// a parseable override is clamped to ≥ 1, anything else falls back to
/// one worker per core; never more than there are module chains. Pure so
/// tests can cover every branch without mutating process-global
/// environment state (`set_var`/`remove_var` race with the parallel test
/// harness).
fn worker_count_from(var: Option<&str>, tasks: usize) -> usize {
    var.and_then(|v| v.trim().parse::<usize>().ok())
        .map(|v| v.max(1))
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1)
        })
        .min(tasks)
        .max(1)
}

/// Worker count: `SIMRA_THREADS` if set (clamped to ≥ 1), else one per
/// core; never more than there are module chains.
pub(crate) fn executor_threads(tasks: usize) -> usize {
    let var = std::env::var("SIMRA_THREADS").ok();
    worker_count_from(var.as_deref(), tasks)
}

/// Session-wide coverage accounting: how many module tasks ran, completed,
/// needed retries, or failed — across every fleet run of one session.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FleetCoverage {
    /// Module tasks executed.
    pub tasks: usize,
    /// Tasks that completed (any number of attempts).
    pub completed: usize,
    /// Completed tasks that needed more than one attempt.
    pub retried: usize,
    /// Tasks given up on.
    pub failed: usize,
}

impl FleetCoverage {
    /// One-line summary for run footers.
    pub fn describe(&self) -> String {
        format!(
            "{}/{} module tasks completed ({} retried, {} failed)",
            self.completed, self.tasks, self.retried, self.failed
        )
    }
}

/// The placeholder filling the outcome slots a shard worker does not
/// own. It is never journaled (only fresh results of owned slots are
/// appended); its only job is to keep the outcome grid rectangular so
/// the worker's figure runners — each run once, as in any campaign —
/// can digest the sweep. Their tables are garbage for unowned slots,
/// but a worker's stdout is discarded, and it exits after the last
/// figure sweep: only its journal matters. The sample must be finite:
/// a figure cell reads each completed slot in place, and a non-finite
/// sample would trip the finite-samples check in `BoxStats::from_parts`.
/// The `attempts: 0` marker distinguishes it from any real result.
fn unowned_slot() -> ModuleResult {
    ModuleResult::Completed {
        samples: vec![0.0],
        attempts: 0,
    }
}

/// Ends the process on a checkpoint failure, with the typed error's
/// message and code 2: the user asked for durable checkpoints, and
/// carrying on without them would silently break the resume contract.
fn checkpoint_failure(sweep_id: &str, e: CheckpointError) -> ! {
    eprintln!("error: checkpoint failure in {sweep_id}: {e}");
    std::process::exit(2);
}

/// The one sweep entry point: runs `op` on every group of the whole
/// (module × point) grid, submitted at once as one chain per module, on
/// at most `workers` threads (calling thread included) within `pool`'s
/// helper-thread budget.
/// Returns one [`FleetOutcome`] per point, in point order.
///
/// When the session has an armed checkpoint context
/// ([`Session::arm_checkpoints`]), the sweep's journal is opened first:
/// the slots it replays do not run again, and on a shard-worker session
/// the slots other shards own do not run at all (their outcome slots
/// hold an inert placeholder). Every fresh result is journaled as it
/// lands, and the journal is compacted once the outcomes are assembled.
/// A checkpoint failure exits the process with the typed error's
/// message and code 2. The `P: Debug` bound exists for the checkpoint
/// manifest, which fingerprints each point's parameters.
///
/// Task telemetry counts *scheduled* slots only: a resume that owes
/// three tasks queues three, and one that owes none registers no
/// `fleet/*` series. Session coverage is recorded once per outcome,
/// replayed and fresh slots alike, except on a shard worker, whose
/// outcomes are scaffolding; the coordinator's merged replay records
/// the coverage.
///
/// The outcome is identical for identical `(config, points, policy)`
/// regardless of `pool`, `workers`, scheduling, or checkpointing — and
/// byte-identical to running each point as its own one-point sweep.
///
/// # Panics
///
/// Panics before scheduling anything if a point's `n` is not a power of
/// two ≤ 32: a bad grid is the caller's bug, not a module failure to
/// retry and report.
pub fn run_sweep_on<P, F>(
    pool: &FleetPool,
    session: &Session,
    points: &[SweepPoint<P>],
    policy: FleetPolicy,
    clock: &dyn FleetClock,
    workers: usize,
    op: F,
) -> Vec<FleetOutcome>
where
    P: Sync + std::fmt::Debug,
    F: Fn(&P, &mut TestSetup, &GroupSpec, &mut Rng) -> Option<f64> + Send + Sync,
{
    run_chunked_sweep_on(
        pool,
        session,
        points,
        policy,
        clock,
        workers,
        each_group(op),
    )
}

/// A per-group op as a chunk op: `op` on each pick of the chunk in
/// turn, resolved on the mounted module's geometry, keeping its `Some`
/// samples.
fn each_group<P, F>(
    op: F,
) -> impl Fn(&P, &mut TestSetup, &[GroupPick], &mut Rng, &mut Vec<f64>) + Send + Sync
where
    F: Fn(&P, &mut TestSetup, &GroupSpec, &mut Rng) -> Option<f64> + Send + Sync,
{
    move |params, setup, picks, rng, samples| {
        let geometry = *setup.module().geometry();
        samples.extend(
            picks
                .iter()
                .filter_map(|pick| op(params, setup, &pick.resolve(&geometry), rng)),
        );
    }
}

/// The body of [`run_sweep_on`], which schedules every sweep: the same
/// grid, with a chunk op that runs a slice of one task's groups per
/// call and appends their samples (see `run_point_attempt` for the
/// slices). Figure sweeps pass a backend's
/// [`run_trials`](simra_exec::PudBackend::run_trials) here, so a task
/// without per-group hooks is one backend call.
pub(crate) fn run_chunked_sweep_on<P, F>(
    pool: &FleetPool,
    session: &Session,
    points: &[SweepPoint<P>],
    policy: FleetPolicy,
    clock: &dyn FleetClock,
    workers: usize,
    op: F,
) -> Vec<FleetOutcome>
where
    P: Sync + std::fmt::Debug,
    F: Fn(&P, &mut TestSetup, &[GroupPick], &mut Rng, &mut Vec<f64>) + Send + Sync,
{
    for point in points {
        assert_group_size(point.n);
    }
    let config = session.config();
    let modules = config.modules.len();
    // [module][point], holding every replayed result from the start.
    let (journal, mut slots) = match session.checkpoint() {
        Some(checkpoint) => {
            let sweep_id = checkpoint.next_sweep_id();
            let (journal, replayed) = checkpoint
                .open_sweep(sweep_id.clone(), config, session.recorder(), points)
                .unwrap_or_else(|e| checkpoint_failure(&sweep_id, e));
            (Some(journal), replayed)
        }
        None => (None, vec![vec![None; points.len()]; modules]),
    };
    // A slot is owed unless it was replayed or another shard owns it.
    let owed: Vec<Vec<bool>> = (0..modules)
        .map(|m| {
            let owns = |p| journal.as_ref().is_none_or(|j| j.owns(m, p));
            (0..points.len())
                .map(|p| slots[m][p].is_none() && owns(p))
                .collect()
        })
        .collect();
    let scheduled = owed.iter().flatten().filter(|&&owed| owed).count();
    if scheduled > 0 {
        let telemetry = FleetTelemetry::new(session.recorder());
        telemetry.grid_tasks.add(scheduled as u64);
        let fault_free = FaultPlan::default();
        let ctx = SweepCtx {
            session,
            config,
            plan: config.faults.as_ref().unwrap_or(&fault_free),
            policy,
            clock,
            points,
            op: &op,
            telemetry: &telemetry,
            journal: journal.as_ref(),
        };
        // A chain locks only its own row, and only to store one result,
        // so a poisoned row is still whole.
        let rows: Vec<Mutex<Vec<Option<ModuleResult>>>> =
            slots.into_iter().map(Mutex::new).collect();
        let verdict = pool.run_tasks(modules, workers, |index| {
            run_chain(&ctx, index, &owed[index], &rows[index]);
        });
        slots = rows
            .into_iter()
            .map(|row| row.into_inner().unwrap_or_else(PoisonError::into_inner))
            .collect();
        if let Err(lost) = verdict {
            // A chain panicked outside `run_slot`'s catch_unwind. Degrade
            // the slots it never finished to panic failures instead of
            // aborting the sweep: the other chains' results are intact,
            // and these were never journaled, so a checkpointed run
            // re-runs them on resume.
            let message = lost.to_string();
            for (row, owed) in slots.iter_mut().zip(&owed) {
                let mut chain_lost = false;
                for (slot, _) in row.iter_mut().zip(owed).filter(|(s, &o)| o && s.is_none()) {
                    chain_lost = true;
                    *slot = Some(ModuleResult::Failed {
                        attempts: 1,
                        cause: FailureCause::Panic(message.clone()),
                    });
                }
                if chain_lost {
                    telemetry.chain_panicked.incr();
                }
            }
        }
    }
    let outcomes: Vec<FleetOutcome> = (0..points.len())
        .map(|point| FleetOutcome {
            slots: slots
                .iter_mut()
                .map(|row| row[point].take().unwrap_or_else(unowned_slot))
                .collect(),
        })
        .collect();
    // A shard worker's outcomes are scaffolding around the slots it
    // owns; the coordinator's merged replay records the coverage.
    let worker = session.checkpoint().and_then(CheckpointSession::shard);
    if worker.is_none() {
        for outcome in &outcomes {
            session.record_coverage(outcome);
        }
    }
    if let Some(journal) = journal {
        let sweep_id = journal.sweep_id().to_owned();
        journal
            .compact()
            .unwrap_or_else(|e| checkpoint_failure(&sweep_id, e));
    }
    outcomes
}

/// [`run_sweep_on`] with the session's defaults: the uncapped
/// [`FleetPool::global`] budget, the default retry policy with the config's
/// fault-plan deadline (if any), the system clock, and the default worker
/// count (`SIMRA_THREADS`, else one per core). Returns one
/// [`FleetOutcome`] per point, in point order.
pub fn run_sweep<P, F>(session: &Session, points: &[SweepPoint<P>], op: F) -> Vec<FleetOutcome>
where
    P: Sync + std::fmt::Debug,
    F: Fn(&P, &mut TestSetup, &GroupSpec, &mut Rng) -> Option<f64> + Send + Sync,
{
    run_chunked_sweep(session, points, each_group(op))
}

/// [`run_chunked_sweep_on`] with the session's defaults, as
/// [`run_sweep`] is [`run_sweep_on`] with them.
pub(crate) fn run_chunked_sweep<P, F>(
    session: &Session,
    points: &[SweepPoint<P>],
    op: F,
) -> Vec<FleetOutcome>
where
    P: Sync + std::fmt::Debug,
    F: Fn(&P, &mut TestSetup, &[GroupPick], &mut Rng, &mut Vec<f64>) + Send + Sync,
{
    let config = session.config();
    let policy = FleetPolicy {
        deadline_ms: config.faults.as_ref().and_then(|plan| plan.deadline_ms),
        ..FleetPolicy::default()
    };
    run_chunked_sweep_on(
        FleetPool::global(),
        session,
        points,
        policy,
        &SystemClock::default(),
        executor_threads(config.modules.len()),
        op,
    )
}

/// The serial reference implementation: same module tasks, same RNG
/// streams, executed on the calling thread with no fault machinery, no
/// pool, and no rig reuse at all. Exists so tests (and sceptical
/// readers) can check the grid scheduler changes nothing but wall-clock.
pub fn collect_group_samples_serial<F>(config: &ExperimentConfig, n: u32, op: F) -> Vec<f64>
where
    F: Fn(&mut TestSetup, &GroupSpec, &mut Rng) -> Option<f64>,
{
    (0..config.modules.len())
        .flat_map(|index| run_module(config, index, n, &op))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::sweep_trial_samples;
    use simra_faults::{ModuleFault, VppDroop};

    /// A session over `config` with a fresh, disabled recorder — the
    /// shortest path from the historical config-taking call sites.
    fn session_for(config: &ExperimentConfig) -> Session {
        Session::new(config.clone())
    }

    /// Samples of a one-point sweep at `n` rows with the session's
    /// defaults: a fleet run is a one-point sweep.
    fn one_point_samples<F>(session: &Session, n: u32, op: F) -> Vec<f64>
    where
        F: Fn(&mut TestSetup, &GroupSpec, &mut Rng) -> Option<f64> + Send + Sync,
    {
        run_sweep(session, &[SweepPoint::new(n, ())], |_, s, g, r| op(s, g, r))
            .remove(0)
            .into_samples()
    }

    /// A one-point sweep at `n` rows with an explicit policy, clock and
    /// worker count on the global budget.
    fn one_point<F>(
        session: &Session,
        n: u32,
        policy: FleetPolicy,
        clock: &dyn FleetClock,
        workers: usize,
        op: F,
    ) -> FleetOutcome
    where
        F: Fn(&mut TestSetup, &GroupSpec, &mut Rng) -> Option<f64> + Send + Sync,
    {
        let point = [SweepPoint::new(n, ())];
        run_sweep_on(
            FleetPool::global(),
            session,
            &point,
            policy,
            clock,
            workers,
            |_, s, g, r| op(s, g, r),
        )
        .remove(0)
    }

    #[test]
    fn samples_cover_all_modules_and_groups() {
        let mut config = ExperimentConfig::quick();
        config.modules.push(crate::config::ModuleUnderTest {
            profile: simra_dram::VendorProfile::mfr_h_a_die(),
            seed: 8,
        });
        let samples =
            one_point_samples(&session_for(&config), 4, |_, g, _| Some(g.n_rows() as f64));
        assert_eq!(samples.len(), 2 * config.groups_per_module());
        assert!(samples.iter().all(|s| *s == 4.0));
    }

    #[test]
    fn results_are_deterministic() {
        let session = session_for(&ExperimentConfig::quick());
        let a = one_point_samples(&session, 8, |_, g, _| Some(g.local_rows[0] as f64));
        let b = one_point_samples(&session, 8, |_, g, _| Some(g.local_rows[0] as f64));
        assert_eq!(a, b);
    }

    #[test]
    fn none_results_are_skipped() {
        let config = ExperimentConfig::quick();
        let samples = one_point_samples(&session_for(&config), 2, |_, g, _| {
            (g.local_rows[0] % 2 == 0).then_some(1.0)
        });
        assert!(samples.len() < config.groups_per_module());
    }

    #[test]
    fn parallel_matches_serial_reference() {
        let mut config = ExperimentConfig::quick();
        config.modules.push(crate::config::ModuleUnderTest {
            profile: simra_dram::VendorProfile::mfr_m_e_die(),
            seed: 9,
        });
        // The op consumes RNG state and reads module identity, so any
        // stream or scheduling difference would show.
        let op = |setup: &mut TestSetup, g: &GroupSpec, rng: &mut Rng| {
            let first = g.local_rows[0] as f64;
            Some(first + rng.gen::<f64>() + setup.module().seed() as f64 * 1e-6)
        };
        let parallel = one_point_samples(&session_for(&config), 8, op);
        let serial = collect_group_samples_serial(&config, 8, op);
        assert_eq!(parallel, serial);
        assert!(!parallel.is_empty());
    }

    #[test]
    fn identical_module_seeds_draw_distinct_streams() {
        // Regression: two modules with the same silicon seed used to get
        // identical RNG streams (and therefore identical samples).
        let mut config = ExperimentConfig::quick();
        let twin = config.modules[0].clone();
        config.modules.push(twin);
        let samples =
            one_point_samples(&session_for(&config), 4, |_, _, rng| Some(rng.gen::<f64>()));
        let per_module = config.groups_per_module();
        assert_eq!(samples.len(), 2 * per_module);
        assert_ne!(
            samples[..per_module],
            samples[per_module..],
            "twin modules must not replay the same stream"
        );
    }

    #[test]
    fn module_index_zero_preserves_historical_stream() {
        let config = ExperimentConfig::quick();
        let m = &config.modules[0];
        let legacy = config.seed ^ m.seed.rotate_left(17) ^ ((8u64) << 48);
        assert_eq!(module_stream_seed(&config, m, 0, 8), legacy);
        assert_ne!(module_stream_seed(&config, m, 1, 8), legacy);
    }

    /// An op that exercises RNG state, group identity, and module
    /// identity — any stream divergence shows in the samples.
    fn probe_op(setup: &mut TestSetup, g: &GroupSpec, rng: &mut Rng) -> Option<f64> {
        Some(g.local_rows[0] as f64 + rng.gen::<f64>() + setup.module().seed() as f64 * 1e-6)
    }

    /// The sweep-shaped probe op: folds the point parameter in, so a
    /// point receiving the wrong parameters shows in the samples.
    fn sweep_probe_op(
        scale: &f64,
        setup: &mut TestSetup,
        g: &GroupSpec,
        rng: &mut Rng,
    ) -> Option<f64> {
        probe_op(setup, g, rng).map(|s| s * scale)
    }

    /// A two-module quick-scale config (quick itself has one module,
    /// which never leaves the calling thread).
    fn two_module_config() -> ExperimentConfig {
        let mut config = ExperimentConfig::quick();
        config.modules.push(crate::config::ModuleUnderTest {
            profile: simra_dram::VendorProfile::mfr_m_e_die(),
            seed: 21,
        });
        config
    }

    /// A fresh path under the system temp dir for one test's checkpoint
    /// directory.
    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("simra-fleet-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A clock whose `panic_at`-th reading panics. `run_slot` reads the
    /// clock once per attempt, outside its catch_unwind, so the panic
    /// takes the whole chain down: the one failure per-slot isolation
    /// cannot catch.
    struct FailingClock {
        reads: AtomicU64,
        panic_at: u64,
    }

    impl FailingClock {
        fn at(panic_at: u64) -> Self {
            FailingClock {
                reads: AtomicU64::new(0),
                panic_at,
            }
        }
    }

    impl FleetClock for FailingClock {
        fn now_ms(&self) -> f64 {
            let read = self.reads.fetch_add(1, Ordering::Relaxed) + 1;
            if read == self.panic_at {
                panic!("clock failed at read {read}");
            }
            0.0
        }
    }

    #[test]
    fn panicking_clock_degrades_one_chain_and_spares_the_rest() {
        // A panic that escapes `run_slot`'s catch_unwind used to abort
        // the whole process via the pool's re-raise. Now it degrades the
        // slots its chain never finished to panic failures while the
        // other chains complete. One worker runs module 0's chain first,
        // so the clock's first reading takes module 0 down before it
        // finishes any slot.
        let points: Vec<SweepPoint<f64>> =
            [2u32, 4].iter().map(|&n| SweepPoint::new(n, 1.0)).collect();
        let pool = FleetPool::new(2);
        let recorder = Recorder::new();
        recorder.enable();
        let session = Session::recorded_by(two_module_config(), recorder.clone());
        let outcomes = run_sweep_on(
            &pool,
            &session,
            &points,
            FleetPolicy::default(),
            &FailingClock::at(1),
            1,
            sweep_probe_op,
        );
        assert_eq!(outcomes.len(), 2);
        for outcome in &outcomes {
            match &outcome.slots[0] {
                ModuleResult::Failed {
                    attempts: 1,
                    cause: FailureCause::Panic(msg),
                } => assert!(msg.contains("clock failed at read 1"), "{msg}"),
                other => panic!("module 0 must degrade to panic failures, got {other:?}"),
            }
            assert!(
                matches!(outcome.slots[1], ModuleResult::Completed { .. }),
                "module 1 must complete despite module 0's chain panic: {:?}",
                outcome.slots[1]
            );
        }
        assert_eq!(recorder.counter("fleet", "chain_panicked").get(), 1);
        // A later job on the same budget still runs.
        pool.run_tasks(3, 2, |_| {})
            .expect("pool usable after a chain panic");
    }

    #[test]
    fn a_lost_chain_stays_out_of_the_journal_and_reruns_on_resume() {
        // One worker: module 0's chain reads the clock four times (one
        // attempt per point), module 1's first slot reads it a fifth time
        // and completes, and the sixth reading takes module 1's chain
        // down with three slots unfinished. Those three degrade to panic
        // failures in this run's outcomes but never reach the journal,
        // so a resume re-runs them to the unarmed outcome.
        let config = two_module_config();
        let points: Vec<SweepPoint<f64>> = [2u32, 4, 8, 4]
            .iter()
            .map(|&n| SweepPoint::new(n, f64::from(n) * 0.5))
            .collect();
        let sweep = |session: &Session, clock: &dyn FleetClock, workers: usize| {
            run_sweep_on(
                FleetPool::global(),
                session,
                &points,
                FleetPolicy::default(),
                clock,
                workers,
                sweep_probe_op,
            )
        };
        let unarmed = sweep(&session_for(&config), &MockClock::new(), 2);
        let dir = scratch("lost-chain");
        let armed = session_for(&config);
        armed
            .arm_checkpoints(&dir, false)
            .expect("arm a fresh session");
        let lost = sweep(&armed, &FailingClock::at(6), 1);
        for (k, (lost, unarmed)) in lost.iter().zip(&unarmed).enumerate() {
            assert_eq!(lost.slots[0], unarmed.slots[0], "point {k}");
            if k == 0 {
                assert_eq!(lost.slots[1], unarmed.slots[1]);
            } else {
                assert!(
                    matches!(
                        &lost.slots[1],
                        ModuleResult::Failed {
                            cause: FailureCause::Panic(_),
                            ..
                        }
                    ),
                    "point {k}: {:?}",
                    lost.slots[1]
                );
            }
        }
        let journal = std::fs::read_to_string(dir.join("sweep-0000.journal")).unwrap();
        assert_eq!(
            journal.lines().count(),
            1 + 5,
            "manifest + the 5 finished slots"
        );
        assert!(!journal.contains("\"failed\""), "{journal}");
        let recorder = Recorder::new();
        recorder.enable();
        let resumed = Session::recorded_by(config, recorder.clone());
        resumed
            .arm_checkpoints(&dir, true)
            .expect("resume the session");
        assert_eq!(sweep(&resumed, &MockClock::new(), 2), unarmed);
        assert_eq!(recorder.counter("fleet", "grid_tasks").get(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sweep_grid_matches_per_point_fleet_runs() {
        // The whole grid at once — pooled rigs, no per-point barrier —
        // must be byte-identical to one one-point sweep per point (fresh
        // rigs every time), which in turn matches the serial reference.
        let config = two_module_config();
        let points: Vec<SweepPoint<f64>> = [2u32, 4, 8, 4]
            .iter()
            .map(|&n| SweepPoint::new(n, f64::from(n) * 0.5))
            .collect();
        let clock = MockClock::new();
        let session = session_for(&config);
        for workers in [1usize, 2, 4] {
            let sweep = run_sweep_on(
                FleetPool::global(),
                &session,
                &points,
                FleetPolicy::default(),
                &clock,
                workers,
                sweep_probe_op,
            );
            assert_eq!(sweep.len(), points.len());
            for (point, outcome) in points.iter().zip(&sweep) {
                let scale = point.params;
                let fresh = one_point(
                    &session,
                    point.n,
                    FleetPolicy::default(),
                    &clock,
                    workers,
                    |s: &mut TestSetup, g: &GroupSpec, r: &mut Rng| sweep_probe_op(&scale, s, g, r),
                );
                assert_eq!(outcome, &fresh, "workers={workers} n={}", point.n);
                let serial: Vec<f64> = collect_group_samples_serial(&config, point.n, |s, g, r| {
                    sweep_probe_op(&scale, s, g, r)
                });
                assert_eq!(outcome.samples(), serial);
            }
        }
    }

    #[test]
    fn sweep_repeats_same_n_with_identical_streams() {
        // Two points at the same N replay the same per-module stream —
        // the exact behaviour of the historical per-point loop.
        let config = two_module_config();
        let points = [SweepPoint::new(4, ()), SweepPoint::new(4, ())];
        let outcomes = run_sweep_on(
            FleetPool::global(),
            &session_for(&config),
            &points,
            FleetPolicy::default(),
            &MockClock::new(),
            2,
            |_: &(), s: &mut TestSetup, g: &GroupSpec, r: &mut Rng| probe_op(s, g, r),
        );
        assert_eq!(outcomes[0], outcomes[1]);
    }

    #[test]
    fn each_chain_draws_its_groups_once_per_n() {
        // Module 0 runs N ∈ {2, 4, 8} (3 draws); module 1's only N = 8
        // point is replayed from its journal, so its masked chain draws
        // at N ∈ {2, 4} alone (2). An injected panic makes every module-0
        // task retry, and the retry must rerun the groups its first
        // attempt drew, not draw again. The session keeps every draw:
        // the next sweep of the same points draws only module 1's N = 8,
        // the one after that nothing, and a sweep with one new N one
        // group sample per module.
        let points = |ns: &[u32]| -> Vec<SweepPoint<f64>> {
            ns.iter()
                .enumerate()
                .map(|(k, &n)| SweepPoint::new(n, 1.0 + k as f64))
                .collect()
        };
        let sweep = |session: &Session, points: &[SweepPoint<f64>]| {
            run_sweep_on(
                FleetPool::global(),
                session,
                points,
                FleetPolicy::default(),
                &MockClock::new(),
                2,
                sweep_probe_op,
            )
        };
        let grid = points(&[2, 4, 2, 8, 4]);
        for (tag, faults) in [
            ("draws", None),
            ("draws-retried", Some(panic_on_module_0())),
        ] {
            let mut config = two_module_config();
            config.faults = faults;
            let retried = config.faults.is_some();
            // Journal the whole grid, then keep the manifest and module
            // 1's N = 8 record alone (records are in (module, point)
            // order): the journal of a run killed right after that slot.
            let dir = scratch(tag);
            let fresh = session_for(&config);
            fresh
                .arm_checkpoints(&dir, false)
                .expect("arm a fresh session");
            sweep(&fresh, &grid);
            let path = dir.join("sweep-0000.journal");
            let journal = std::fs::read_to_string(&path).unwrap();
            let lines: Vec<&str> = journal.lines().collect();
            let kept = format!("{}\n{}\n", lines[0], lines[1 + grid.len() + 3]);
            std::fs::write(&path, kept).unwrap();
            let recorder = Recorder::new();
            recorder.enable();
            let session = Session::recorded_by(config.clone(), recorder.clone());
            session
                .arm_checkpoints(&dir, true)
                .expect("resume the session");
            let per_module = config.groups_per_module();
            let draws = || recorder.counter("fleet", "group_draws").get();
            let widened = points(&[2, 4, 16, 8]);
            // (points, grid tasks and draws after the sweep)
            for (round, (points, tasks, drawn)) in [
                (&grid, 9, 5),
                (&grid, 19, 6),
                (&grid, 29, 6),
                (&widened, 37, 8),
            ]
            .into_iter()
            .enumerate()
            {
                let outcomes = sweep(&session, points);
                let at = format!("round {round} (retried: {retried})");
                assert_eq!(recorder.counter("fleet", "grid_tasks").get(), tasks, "{at}");
                assert_eq!(draws(), drawn, "{at}");
                for (k, (point, outcome)) in points.iter().zip(&outcomes).enumerate() {
                    let serial = collect_group_samples_serial(&config, point.n, |s, g, r| {
                        sweep_probe_op(&point.params, s, g, r)
                    });
                    for (module, slot) in outcome.slots.iter().enumerate() {
                        let attempts = if retried && module == 0 { 2 } else { 1 };
                        assert_eq!(
                            slot,
                            &ModuleResult::Completed {
                                samples: serial[module * per_module..][..per_module].to_vec(),
                                attempts,
                            },
                            "module {module} point {k}, {at}"
                        );
                    }
                }
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn a_lost_chain_costs_only_its_own_modules_draws() {
        // Both chains draw at N ∈ {2, 4} (4 draws). Then a clock that
        // panics on its first reading takes module 0's chain down outside
        // the per-slot catch_unwind: its list of draws drops with it,
        // while module 1 completes on the draws the session kept. The
        // next sweep draws module 0's two samples again, and nothing for
        // module 1, and matches the serial reference.
        let config = two_module_config();
        let points: Vec<SweepPoint<f64>> =
            [2u32, 4].iter().map(|&n| SweepPoint::new(n, 1.0)).collect();
        let recorder = Recorder::new();
        recorder.enable();
        let session = Session::recorded_by(config.clone(), recorder.clone());
        let sweep = |clock: &dyn FleetClock| {
            run_sweep_on(
                FleetPool::global(),
                &session,
                &points,
                FleetPolicy::default(),
                clock,
                1,
                sweep_probe_op,
            )
        };
        let draws = || recorder.counter("fleet", "group_draws").get();
        let reference = sweep(&MockClock::new());
        assert_eq!(draws(), 4);
        let lost = sweep(&FailingClock::at(1));
        assert_eq!(recorder.counter("fleet", "chain_panicked").get(), 1);
        assert_eq!(draws(), 4, "module 1 reran its kept draws");
        for (lost, reference) in lost.iter().zip(&reference) {
            assert!(matches!(lost.slots[0], ModuleResult::Failed { .. }));
            assert_eq!(lost.slots[1], reference.slots[1]);
        }
        let again = sweep(&MockClock::new());
        assert_eq!(draws(), 6, "only module 0 drew again");
        assert_eq!(again, reference);
        for (point, outcome) in points.iter().zip(&again) {
            let serial = collect_group_samples_serial(&config, point.n, |s, g, r| {
                sweep_probe_op(&point.params, s, g, r)
            });
            assert_eq!(outcome.samples(), serial, "n = {}", point.n);
        }
    }

    /// Module 0 panics at group 1 on the first attempt of every task.
    fn panic_on_module_0() -> FaultPlan {
        FaultPlan {
            modules: vec![ModuleFault {
                module_index: 0,
                kind: ModuleFaultKind::PanicAt { at_group: 1 },
            }],
            ..FaultPlan::default()
        }
    }

    #[test]
    fn a_chain_lends_each_draws_stream_slot_to_every_task_at_its_n() {
        // The op counts the trials its stream slot has seen. Every task
        // at one (module, N) borrows the session's slot for that N, so
        // the second N = 4 point counts on from the first, and a second
        // sweep on the session counts on from the first sweep; a panicked
        // attempt drops the slot with its rig, so its retry counts from 1
        // again.
        let points = [4u32, 8, 4].map(|n| SweepPoint::new(n, ()));
        let count = |_: &(), s: &mut TestSetup, _: &GroupSpec, _: &mut Rng| {
            *s.stream_state::<u32>() += 1;
            Some(f64::from(*s.stream_state::<u32>()))
        };
        for faults in [None, Some(panic_on_module_0())] {
            let mut config = two_module_config();
            config.faults = faults;
            let per_module = config.groups_per_module() as u32;
            let session = session_for(&config);
            // Tasks each (module, N) slot has served so far.
            let mut served = std::collections::HashMap::new();
            for round in 0..2 {
                let outcomes = run_sweep_on(
                    FleetPool::global(),
                    &session,
                    &points,
                    FleetPolicy::default(),
                    &MockClock::new(),
                    2,
                    count,
                );
                for (k, (point, outcome)) in points.iter().zip(&outcomes).enumerate() {
                    let served = served.entry(point.n).or_insert(0);
                    for (module, slot) in outcome.slots.iter().enumerate() {
                        let panicked = config.faults.is_some() && module == 0;
                        let first = if panicked { 0 } else { *served * per_module };
                        let want: Vec<f64> =
                            (first + 1..=first + per_module).map(f64::from).collect();
                        let attempts = if panicked { 2 } else { 1 };
                        assert_eq!(
                            slot,
                            &ModuleResult::Completed {
                                samples: want,
                                attempts
                            },
                            "round {round}, module {module} point {k} (panicked: {panicked})"
                        );
                    }
                    *served += 1;
                }
            }
        }
    }

    #[test]
    fn trial_sweeps_match_the_serial_reference_at_every_stride() {
        // Figure sweeps hand each task's groups to `run_trials`: the whole
        // draw in one call on a clean module, one group per call on a
        // faulted one or under a droop or a deadline. Three points at
        // N = 4 share each chain's noise memo; the serial reference lends
        // none and calls `run_trial` per group. A panicked first attempt
        // drops the memo and the hybrid's history, and the retry still
        // matches.
        use simra_dram::{ApaTiming, DataPattern};
        use simra_exec::{BackendChoice, TrialSpec};
        let maj3 = TrialSpec::majx(3, ApaTiming::best_for_majx(), DataPattern::Random);
        let maj7 = TrialSpec::majx(7, ApaTiming::best_for_majx(), DataPattern::Random);
        let points = [
            SweepPoint::new(4, maj3.at_temperature(50.0)),
            SweepPoint::new(8, TrialSpec::activation(ApaTiming::best_for_activation())),
            SweepPoint::new(4, maj3.at_temperature(70.0)),
            // The hybrid's table is wrong here: up to eight escalations.
            SweepPoint::new(32, maj7),
            SweepPoint::new(4, maj3.at_vpp(2.3)),
        ];
        let droop = VppDroop {
            delta_v: 0.2,
            from_group: 1,
            to_group: 4,
        };
        let plans = [
            FaultPlan::default(),
            panic_on_module_0(),
            FaultPlan {
                deadline_ms: Some(1e9),
                ..FaultPlan::default()
            },
            FaultPlan {
                vpp_droop: Some(droop),
                ..FaultPlan::default()
            },
        ];
        for backend in [BackendChoice::Surrogate, BackendChoice::Hybrid] {
            for plan in &plans {
                let mut config = two_module_config();
                config.groups_per_subarray = 6;
                config.backend = backend;
                config.faults = Some(plan.clone());
                let session = session_for(&config);
                let swept = sweep_trial_samples(&session, &points);
                let trials = session.dispatch(backend);
                let per_module = config.groups_per_module();
                for (k, (point, samples)) in points.iter().zip(&swept).enumerate() {
                    // The reference droops the rig where the fleet does.
                    let group = std::cell::Cell::new(0);
                    let serial = collect_group_samples_serial(&config, point.n, |s, g, r| {
                        if let Some(d) = plan.vpp_droop {
                            let at = group.replace(group.get() + 1) % per_module;
                            let sag = (d.from_group..d.to_group).contains(&at);
                            let vpp = if sag {
                                NOMINAL_VPP - d.delta_v
                            } else {
                                NOMINAL_VPP
                            };
                            s.set_vpp(vpp).unwrap();
                        }
                        trials.run_trial(&point.params, s, g, r)
                    });
                    let label = format!("{backend} point {k} under {}", plan.describe());
                    assert_eq!(samples.len(), 2 * per_module, "{label}");
                    assert_eq!(samples, &serial, "{label}");
                }
            }
        }
    }

    #[test]
    fn a_deadline_alone_is_checked_between_groups() {
        // No module fault and no droop: the deadline alone makes the op
        // take one group per call, so the budget trips at the first group
        // boundary past it, not after the whole draw.
        let mut config = ExperimentConfig::quick();
        config.groups_per_subarray = 6;
        let clock = MockClock::new();
        let policy = FleetPolicy {
            deadline_ms: Some(2.5),
            ..FleetPolicy::default()
        };
        let outcome = one_point(&session_for(&config), 4, policy, &clock, 1, |s, g, r| {
            clock.advance_ms(1.0);
            probe_op(s, g, r)
        });
        assert_eq!(
            outcome.slots[0],
            ModuleResult::Failed {
                attempts: 1,
                cause: FailureCause::DeadlineExceeded {
                    budget_ms: 2.5,
                    spent_ms: 3.0,
                },
            }
        );
    }

    #[test]
    fn empty_sweep_shapes() {
        let config = two_module_config();
        let none: [SweepPoint<()>; 0] = [];
        let outcomes = run_sweep(&session_for(&config), &none, |_, s, g, r| probe_op(s, g, r));
        assert!(outcomes.is_empty());
    }

    #[test]
    #[should_panic(expected = "n must be a power of two ≤ 32, got 6")]
    fn a_bad_sweep_point_panics_in_the_caller() {
        let points = [SweepPoint::new(4, ()), SweepPoint::new(6, ())];
        run_sweep(&session_for(&two_module_config()), &points, |_, s, g, r| {
            probe_op(s, g, r)
        });
    }

    #[test]
    fn empty_plan_outcome_matches_baseline() {
        let mut config = ExperimentConfig::quick();
        let baseline = collect_group_samples_serial(&config, 8, probe_op);
        config.faults = Some(FaultPlan::default());
        let clock = MockClock::new();
        let session = session_for(&config);
        let outcome = one_point(&session, 8, FleetPolicy::default(), &clock, 2, probe_op);
        assert_eq!(outcome.ok_modules(), 1);
        assert_eq!(outcome.into_samples(), baseline);
        assert_eq!(one_point_samples(&session, 8, probe_op), baseline);
    }

    #[test]
    fn retry_on_reused_rig_replays_baseline_samples() {
        // Regression for the unified setup path: a retry after a
        // transient fault runs on the *reused* rig — dirtied by the
        // partial first attempt — and must still produce byte-identical
        // samples, because reset_for_reuse restores the fresh state and
        // the fault-free retry takes the exact baseline code path (the
        // plan is empty apart from the transient module event).
        let mut config = ExperimentConfig::quick();
        let baseline = collect_group_samples_serial(&config, 4, probe_op);
        config.faults = Some(FaultPlan {
            modules: vec![ModuleFault {
                module_index: 0,
                kind: ModuleFaultKind::Dropout {
                    // Trip *after* group 1 ran, so the first attempt has
                    // written real voltage state into the rig.
                    at_group: 1,
                    recover_after_attempts: Some(1),
                },
            }],
            ..FaultPlan::default()
        });
        let clock = MockClock::new();
        let outcome = one_point(
            &session_for(&config),
            4,
            FleetPolicy::default(),
            &clock,
            1,
            probe_op,
        );
        match &outcome.slots[0] {
            ModuleResult::Completed { samples, attempts } => {
                assert_eq!(*attempts, 2);
                assert_eq!(
                    samples[..],
                    baseline[..],
                    "reused rig must replay the stream"
                );
            }
            other => panic!("transient dropout must heal on retry, got {other:?}"),
        }
    }

    #[test]
    fn dropout_module_degrades_gracefully() {
        let mut config = ExperimentConfig::quick();
        config.modules.push(crate::config::ModuleUnderTest {
            profile: simra_dram::VendorProfile::mfr_h_a_die(),
            seed: 8,
        });
        let baseline = collect_group_samples_serial(&config, 4, probe_op);
        let per_module = config.groups_per_module();
        let mut faulted = config.clone();
        faulted.faults = Some(FaultPlan {
            modules: vec![ModuleFault {
                module_index: 1,
                kind: ModuleFaultKind::Dropout {
                    at_group: 0,
                    recover_after_attempts: None,
                },
            }],
            ..FaultPlan::default()
        });
        let clock = MockClock::new();
        let session = session_for(&faulted);
        for workers in [1, 2] {
            let outcome = one_point(
                &session,
                4,
                FleetPolicy::default(),
                &clock,
                workers,
                probe_op,
            );
            assert_eq!(outcome.slots.len(), 2);
            match &outcome.slots[0] {
                ModuleResult::Completed { samples, attempts } => {
                    assert_eq!(*attempts, 1);
                    assert_eq!(samples[..], baseline[..per_module]);
                }
                other => panic!("healthy module must complete, got {other:?}"),
            }
            match &outcome.slots[1] {
                ModuleResult::Failed { attempts, cause } => {
                    assert_eq!(*attempts, 3, "permanent dropout exhausts all attempts");
                    assert_eq!(*cause, FailureCause::Dropout { at_group: 0 });
                }
                other => panic!("dropped module must fail, got {other:?}"),
            }
            assert_eq!(
                outcome.describe(),
                "1/2 modules completed; module 1 dropped out at group 0 after 3 attempts"
            );
            assert_eq!(outcome.samples(), baseline[..per_module]);
        }
    }

    #[test]
    fn a_surge_is_clamped_to_the_supply_ceiling() {
        // A negative sag asks for 2.6 V inside the window; the clamp
        // holds the rig at the supply's 2.5 V ceiling, so the module
        // completes on its first attempt instead of panicking in every
        // one.
        let mut config = ExperimentConfig::quick();
        config.faults = Some(FaultPlan {
            vpp_droop: Some(simra_faults::VppDroop {
                delta_v: -0.1,
                from_group: 0,
                to_group: 2,
            }),
            ..FaultPlan::default()
        });
        let session = session_for(&config);
        let outcome = one_point(
            &session,
            4,
            FleetPolicy::default(),
            &MockClock::new(),
            1,
            |s: &mut TestSetup, g: &GroupSpec, r: &mut Rng| {
                assert_eq!(s.conditions().vpp_v, VPP_RANGE_V.1);
                probe_op(s, g, r)
            },
        );
        match &outcome.slots[0] {
            ModuleResult::Completed { attempts, .. } => assert_eq!(*attempts, 1),
            other => panic!("the surge must be clamped, got {other:?}"),
        }
    }

    #[test]
    fn injected_panic_is_isolated_and_retried() {
        let mut config = ExperimentConfig::quick();
        let baseline = collect_group_samples_serial(&config, 4, probe_op);
        config.faults = Some(FaultPlan {
            modules: vec![ModuleFault {
                module_index: 0,
                kind: ModuleFaultKind::PanicAt { at_group: 1 },
            }],
            ..FaultPlan::default()
        });
        let clock = MockClock::new();
        let outcome = one_point(
            &session_for(&config),
            4,
            FleetPolicy::default(),
            &clock,
            1,
            probe_op,
        );
        match &outcome.slots[0] {
            ModuleResult::Completed { samples, attempts } => {
                assert_eq!(*attempts, 2, "first attempt panics, second completes");
                assert_eq!(samples[..], baseline[..], "retry replays the same stream");
            }
            other => panic!("panic must heal on retry, got {other:?}"),
        }
    }

    #[test]
    fn transient_dropout_recovers_after_configured_attempts() {
        let mut config = ExperimentConfig::quick();
        let baseline = collect_group_samples_serial(&config, 4, probe_op);
        config.faults = Some(FaultPlan {
            modules: vec![ModuleFault {
                module_index: 0,
                kind: ModuleFaultKind::Dropout {
                    at_group: 1,
                    recover_after_attempts: Some(2),
                },
            }],
            ..FaultPlan::default()
        });
        let clock = MockClock::new();
        let outcome = one_point(
            &session_for(&config),
            4,
            FleetPolicy::default(),
            &clock,
            1,
            probe_op,
        );
        match &outcome.slots[0] {
            ModuleResult::Completed { samples, attempts } => {
                assert_eq!(*attempts, 3);
                assert_eq!(samples[..], baseline[..]);
            }
            other => panic!("transient dropout must heal, got {other:?}"),
        }
    }

    #[test]
    fn deadline_is_fatal_not_retried() {
        let mut config = ExperimentConfig::quick();
        config.faults = Some(FaultPlan {
            modules: vec![ModuleFault {
                module_index: 0,
                kind: ModuleFaultKind::Hang {
                    at_group: 0,
                    stall_ms: 10.0,
                },
            }],
            deadline_ms: Some(5.0),
            ..FaultPlan::default()
        });
        let policy = FleetPolicy {
            deadline_ms: Some(5.0),
            ..FleetPolicy::default()
        };
        // The mock clock never moves: only the *charged* stall can trip
        // the deadline, so the outcome is deterministic.
        let clock = MockClock::new();
        let outcome = one_point(&session_for(&config), 2, policy, &clock, 1, probe_op);
        match &outcome.slots[0] {
            ModuleResult::Failed { attempts, cause } => {
                assert_eq!(*attempts, 1, "a blown deadline must not be retried");
                match cause {
                    FailureCause::DeadlineExceeded {
                        budget_ms,
                        spent_ms,
                    } => {
                        assert_eq!(*budget_ms, 5.0);
                        assert!(*spent_ms >= 10.0);
                    }
                    other => panic!("expected a deadline failure, got {other:?}"),
                }
            }
            other => panic!("hang past the budget must fail the task, got {other:?}"),
        }
    }

    #[test]
    fn deadline_display_omits_the_wall_clock_dependent_spend() {
        let cause = |spent_ms| FailureCause::DeadlineExceeded {
            budget_ms: 600.0,
            spent_ms,
        };
        assert_eq!(cause(600.0).to_string(), cause(602.0).to_string());
        assert_eq!(
            cause(600.0).to_string(),
            "exceeded deadline (600.0 ms budget)"
        );
    }

    #[test]
    fn backoff_is_charged_against_the_deadline() {
        let mut config = ExperimentConfig::quick();
        // A permanent dropout forces retries; each retry's backoff charge
        // accumulates until the 25 ms budget bursts (10 + 20 > 25 on the
        // third attempt) even though no wall-clock time passes.
        config.faults = Some(FaultPlan {
            modules: vec![ModuleFault {
                module_index: 0,
                kind: ModuleFaultKind::Dropout {
                    at_group: 0,
                    recover_after_attempts: Some(9),
                },
            }],
            ..FaultPlan::default()
        });
        let policy = FleetPolicy {
            max_attempts: 10,
            backoff_base_ms: 10.0,
            deadline_ms: Some(25.0),
        };
        let clock = MockClock::new();
        let outcome = one_point(&session_for(&config), 2, policy, &clock, 1, probe_op);
        match &outcome.slots[0] {
            ModuleResult::Failed { attempts, cause } => {
                assert_eq!(*attempts, 3);
                assert!(matches!(cause, FailureCause::DeadlineExceeded { .. }));
            }
            other => panic!("accumulated backoff must trip the deadline, got {other:?}"),
        }
    }

    #[test]
    fn worker_count_override_clamps() {
        // Pure-function coverage of the SIMRA_THREADS resolution; no
        // process-global env mutation (which races with the parallel
        // test harness).
        assert_eq!(worker_count_from(Some("3"), 8), 3);
        assert_eq!(
            worker_count_from(Some("3"), 2),
            2,
            "never more workers than tasks"
        );
        assert_eq!(
            worker_count_from(Some("0"), 8),
            1,
            "zero clamps to one worker"
        );
        assert_eq!(worker_count_from(Some(" 4 "), 8), 4, "whitespace trimmed");
        assert!(
            worker_count_from(Some("not-a-number"), 8) >= 1,
            "junk falls back to core count"
        );
        assert!(worker_count_from(None, 8) >= 1);
        assert_eq!(worker_count_from(None, 0), 1);
        assert_eq!(worker_count_from(Some("99"), 0), 1);
    }

    #[test]
    fn backoff_charge_grows_then_saturates() {
        assert_eq!(backoff_charge_ms(10.0, 2), 10.0);
        assert_eq!(backoff_charge_ms(10.0, 3), 20.0);
        assert_eq!(backoff_charge_ms(10.0, 4), 40.0);
        assert_eq!(backoff_charge_ms(10.0, 31), 10.0 * 2f64.powi(29));
        // At and beyond the cap the charge saturates instead of
        // overflowing the old `1u32 << (attempt - 2)` shift (attempt 34)
        // or racing to infinity.
        let cap = 10.0 * 2f64.powi(BACKOFF_EXPONENT_CAP as i32);
        assert_eq!(backoff_charge_ms(10.0, 32), cap);
        assert_eq!(backoff_charge_ms(10.0, 34), cap);
        assert_eq!(backoff_charge_ms(10.0, 64), cap);
        assert_eq!(backoff_charge_ms(10.0, u32::MAX), cap);
        assert!(backoff_charge_ms(10.0, u32::MAX).is_finite());
    }

    #[test]
    fn many_attempts_do_not_overflow_the_backoff_shift() {
        // Regression: with max_attempts = 64 a permanent dropout used to
        // reach attempt 34, where `1u32 << 32` panicked in debug builds
        // and wrapped (collapsing the charge) in release builds.
        let mut config = ExperimentConfig::quick();
        config.faults = Some(FaultPlan {
            modules: vec![ModuleFault {
                module_index: 0,
                kind: ModuleFaultKind::Dropout {
                    at_group: 0,
                    recover_after_attempts: None,
                },
            }],
            ..FaultPlan::default()
        });
        let policy = FleetPolicy {
            max_attempts: 64,
            backoff_base_ms: 10.0,
            deadline_ms: None,
        };
        let clock = MockClock::new();
        let outcome = one_point(&session_for(&config), 2, policy, &clock, 1, probe_op);
        match &outcome.slots[0] {
            ModuleResult::Failed { attempts, cause } => {
                assert_eq!(*attempts, 64, "all attempts consumed, none overflowed");
                assert_eq!(*cause, FailureCause::Dropout { at_group: 0 });
            }
            other => panic!("permanent dropout must exhaust retries, got {other:?}"),
        }
    }

    #[test]
    fn session_coverage_accumulates_and_resets() {
        let mut config = two_module_config();
        config.faults = Some(FaultPlan {
            modules: vec![ModuleFault {
                module_index: 0,
                kind: ModuleFaultKind::Dropout {
                    at_group: 0,
                    recover_after_attempts: None,
                },
            }],
            ..FaultPlan::default()
        });
        let clock = MockClock::new();
        let session = session_for(&config);
        one_point(&session, 2, FleetPolicy::default(), &clock, 1, probe_op);
        // Coverage is per-session now, so the counts are exact even with
        // other tests running fleets concurrently in this process.
        let (coverage, failures) = session.take_coverage();
        assert_eq!(coverage.tasks, 2);
        assert_eq!(coverage.completed, 1);
        assert_eq!(coverage.failed, 1);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("dropped out"), "{}", failures[0]);
        assert!(coverage.describe().contains("module tasks completed"));
        // Taking resets the accumulator.
        let (reset, none) = session.take_coverage();
        assert_eq!(reset, FleetCoverage::default());
        assert!(none.is_empty());
    }

    #[test]
    fn sweep_under_chaotic_faults_matches_per_point_runs() {
        // Rig reuse must stay invisible when every fault class is armed:
        // cell overlays (reused overlays vs freshly derived ones),
        // transient dropouts (retry on a dirty rig), panics (rig
        // forfeiture), hangs and deadlines (charged time).
        let mut config = two_module_config();
        config.faults = Some(FaultPlan {
            seed: 0xC0C0,
            cells: Some(simra_faults::CellFaultSpec {
                seed: 0xC0C0,
                stuck_per_million: 80.0,
                sense_offset_shift: 0.0,
            }),
            modules: vec![
                ModuleFault {
                    module_index: 0,
                    kind: ModuleFaultKind::PanicAt { at_group: 1 },
                },
                ModuleFault {
                    module_index: 1,
                    kind: ModuleFaultKind::Dropout {
                        at_group: 2,
                        recover_after_attempts: Some(1),
                    },
                },
            ],
            vpp_droop: None,
            deadline_ms: None,
        });
        let points: Vec<SweepPoint<()>> = [4u32, 8, 4]
            .iter()
            .map(|&n| SweepPoint::new(n, ()))
            .collect();
        let clock = MockClock::new();
        let op = |_: &(), s: &mut TestSetup, g: &GroupSpec, r: &mut Rng| probe_op(s, g, r);
        let session = session_for(&config);
        let reference = run_sweep_on(
            FleetPool::global(),
            &session,
            &points,
            FleetPolicy::default(),
            &clock,
            1,
            op,
        );
        for workers in [2usize, 4] {
            let sweep = run_sweep_on(
                FleetPool::global(),
                &session,
                &points,
                FleetPolicy::default(),
                &clock,
                workers,
                op,
            );
            assert_eq!(sweep, reference, "workers={workers}");
        }
        for (point, outcome) in points.iter().zip(&reference) {
            let fresh = one_point(
                &session,
                point.n,
                FleetPolicy::default(),
                &clock,
                2,
                probe_op,
            );
            assert_eq!(outcome, &fresh, "n={}", point.n);
        }
    }
}
