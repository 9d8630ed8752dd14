//! The adaptive hybrid backend: confidence-gated escalation with
//! sequential early stopping.
//!
//! # Decision rule
//!
//! The analog backend is exact but slow; the surrogate is fast but
//! trusts its calibrated table blindly — and the table, probed on
//! `CAL_GROUPS` narrow-rig groups, carries a few percentage points of
//! absolute error that can flip a threshold-based observation (at quick
//! scale it misreports MAJ7@32 as 0.8 % where the analog core measures
//! 19.9 %, flipping Obs. 8). The hybrid spends analog trials *only
//! where they buy certainty*:
//!
//! For each operating point (the surrogate's calibration key) on a rig
//! mount it maintains a [`SequentialEstimate`] — a Wilson-score interval
//! over the analog success fractions observed so far, each weighted by
//! `SAMPLE_WEIGHT` pseudo-trials. Per trial it either **answers from
//! the table** (two RNG draws, no analog work — byte-identical in form
//! to a surrogate answer) or **escalates** (runs the real
//! [`AnalogBackend`] trial and folds the result into the estimate).
//! A point starts answering once all three predicates hold:
//!
//! 1. **converged** — the interval half-width is ≤ `EPSILON` (0.02 at
//!    95 % confidence),
//! 2. **consistent** — the calibrated table probability lies within the
//!    interval widened by `TABLE_ERROR_BAND` (otherwise the table is
//!    *wrong here* and every remaining trial escalates, up to the budget
//!    ceiling; this is what rescues Obs. 8),
//! 3. **clear** — the interval contains none of the observation
//!    thresholds the point's operation feeds
//!    (`decision_thresholds`).
//!
//! A floor/ceiling trial budget clamps the sequential rule: at least
//! `FLOOR` analog trials are always spent (the consistency check needs
//! evidence), and a point that is still ambiguous after `CEILING`
//! analog trials answers anyway from its posterior. The high-confidence
//! bars of Obs. 1/14 (≥ 99 %) are deliberately *not* in the threshold
//! sets: a small-sample Wilson interval can never separate 99.9 % from
//! 99 %, so gating on them would force near-saturated points — the vast
//! majority — to deep-sample forever. Those observations are protected
//! by the consistency gate plus posterior anchoring instead: an answer
//! is the evidence-weighted blend of the observed trials with the
//! (consistency-checked) table prior, so a table entry a hair below a
//! 99 % bar cannot drag a saturated point under it.
//!
//! # Determinism
//!
//! Escalation decisions are a pure function of (spec, observation
//! history on the mount): the decision for trial *k* of a point depends
//! only on the outcomes of that point's earlier analog trials *on the
//! same rig mount*, which are themselves pure functions of the mount's
//! seeded RNG stream. The history lives in the mount's
//! [`TestSetup::backend_state`], and the executor mounts a fresh rig
//! for every (module, point, attempt) task, so the history starts empty
//! with the task and drops with its rig. Worker count, scheduling,
//! interleaving, retries, checkpoint resume and sharding therefore
//! cannot leak history between tasks — two same-seed runs are
//! byte-identical — and the backend instance itself keeps no per-mount
//! state. Answer samples consume exactly two uniforms (the surrogate's
//! noise shape, read from the stream's noise memo like a surrogate
//! answer, which changes no value) and escalated trials consume exactly
//! the analog backend's draws, so a decided point's stream position
//! matches what a
//! pure table (resp. pure analog) run would produce — and paired same-N
//! sweep points that decide after the same trial count replay identical
//! noise, preserving the paired-observation cancellation the scoreboard
//! relies on.
//!
//! # Dispatch
//!
//! The fleet hands each task's groups to [`PudBackend::run_trials`] in
//! one call, or one group per call where it runs fault, droop or
//! deadline hooks between groups. Either way the point's state leaves
//! the mount's map once per call (per run of equal-N groups), every
//! group is decided from it in turn exactly as a lone
//! [`PudBackend::run_trial`] decides one, and it goes back after the
//! run. So a task costs one map lookup, not two per trial, and the
//! decisions, samples and counters are those of the per-trial loop.
//! The groups arrive as compact picks, and a table answer reads no row,
//! so a pick is resolved to its rows only when its trial escalates.

use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;

use simra_analog::montecarlo::{SequentialEstimate, Z_95};
use simra_bender::TestSetup;
use simra_core::rowgroup::{GroupPick, GroupSpec};
use simra_dram::Rng;
use simra_telemetry::{Counter, Histogram, Recorder};

use crate::surrogate::{noisy_success_sample, CalKey};
use crate::{AnalogBackend, PudBackend, SurrogateBackend, TrialOp, TrialSpec};

/// Pseudo-trials one analog success fraction is worth in the Wilson
/// estimate. An analog trial averages over every column of the group
/// (512–1024 Bernoulli outcomes), so it carries far more evidence than
/// a single coin flip; 512 discounts the raw column count for the
/// per-group strength correlation (columns of one group share a
/// strength factor, so they are not fully independent) while still
/// letting an unambiguous near-saturated point converge after one
/// trial at `EPSILON`.
const SAMPLE_WEIGHT: f64 = 512.0;

/// Target half-width of the 95 % Wilson interval: a point stops
/// escalating once its estimate is at least this tight (and consistent
/// with the table, and clear of every observation threshold).
const EPSILON: f64 = 0.02;

/// Minimum analog trials per point before the table may answer: the
/// consistency check needs evidence.
const FLOOR: u32 = 1;

/// Maximum analog trials per point; a still-ambiguous point answers
/// from its posterior once the ceiling is reached.
const CEILING: u32 = 8;

/// Pseudo-trial weight of the calibrated table prior in a decided
/// point's posterior answer — a quarter of one analog trial, so the
/// observed evidence dominates as soon as it exists.
const PRIOR_WEIGHT: f64 = 32.0;

/// Documented absolute error band of the calibrated table (the
/// surrogate's `CAL_GROUPS`-group probe carries a few percentage points
/// of group-selection spread; see `surrogate`'s module docs). The
/// consistency check widens the Wilson interval by this band, which
/// exceeds `EPSILON`: a table entry within its own error band of the
/// evidence is *agreeing*, not wrong — demanding `EPSILON`-level
/// agreement from a ±5 pp table would escalate half the fleet for no
/// information gain. A genuinely wrong entry (Obs. 8's MAJ7: table
/// 0.8 % vs measured ~20 %) still fails the widened check by a wide
/// margin.
const TABLE_ERROR_BAND: f64 = 0.05;

/// The observation thresholds a trial of `op` can feed: the success-rate
/// bars the scoreboard compares figures against, plus the 50 % transition
/// midpoint every monotone sweep crosses. An interval straddling one of
/// these must keep sampling; bars ≥ 99 % are intentionally absent (see
/// the module docs).
fn decision_thresholds(op: &TrialOp) -> &'static [f64] {
    match op {
        TrialOp::Activation { .. } => &[0.5],
        // Obs. 8 compares MAJX rates against 1 % / 5 % / 30 % bars.
        TrialOp::Majx { .. } => &[0.01, 0.05, 0.30, 0.5],
        TrialOp::MultiRowCopy { .. } => &[0.5],
    }
}

/// Per-point escalation state on one rig mount.
#[derive(Default)]
struct PointState {
    /// The calibrated table probability; `NaN` marks an infeasible
    /// configuration.
    p_cal: f64,
    estimate: SequentialEstimate,
    analog_trials: u32,
    /// Once decided: the probability every remaining trial answers with.
    answer: Option<f64>,
}

/// A mount's escalation state, one entry per point, kept in the
/// mount's [`TestSetup::backend_state`].
type Points = HashMap<CalKey, PointState>;

/// What the next trial of a point should do, computed *before* any RNG
/// consumption.
enum Action {
    Answer(f64),
    Escalate,
}

struct HybridCounters {
    table_hits: Counter,
    escalations: Counter,
    early_stops: Counter,
    budget_capped: Counter,
    analog_trials_per_point: Histogram,
}

impl HybridCounters {
    fn recorded_by(recorder: &Recorder) -> Self {
        HybridCounters {
            table_hits: recorder.counter("hybrid", "table_hits"),
            escalations: recorder.counter("hybrid", "escalations"),
            early_stops: recorder.counter("hybrid", "early_stops"),
            budget_capped: recorder.counter("hybrid", "budget_capped"),
            analog_trials_per_point: recorder.histogram("hybrid", "analog_trials_per_point"),
        }
    }
}

/// The adaptive hybrid backend. See the module docs for the decision
/// rule and the determinism argument.
///
/// One instance lives for a whole session, and its surrogate is the
/// session's only calibration table, warm for every figure; the
/// escalation state, by contrast, belongs to the rig mount it was
/// measured on and drops with it.
pub struct HybridBackend {
    surrogate: SurrogateBackend,
    counters: HybridCounters,
}

impl fmt::Debug for HybridBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HybridBackend")
            .field("surrogate", &self.surrogate)
            .finish_non_exhaustive()
    }
}

impl HybridBackend {
    /// A hybrid backend with an empty calibration table, reporting its
    /// decision telemetry (and its surrogate's calibration cost) to
    /// `recorder`.
    pub fn new(recorder: &Recorder) -> Self {
        HybridBackend {
            surrogate: SurrogateBackend::recorded_by(recorder),
            counters: HybridCounters::recorded_by(recorder),
        }
    }

    /// The surrogate whose calibrated table this backend answers from.
    pub fn surrogate(&self) -> &SurrogateBackend {
        &self.surrogate
    }

    /// Decides the current trial of a point from its history on the
    /// mount. Pure in (p_cal, op, history); consumes no RNG.
    fn decide(&self, state: &mut PointState, op: &TrialOp) -> Action {
        let counters = &self.counters;
        if let Some(p) = state.answer {
            counters.table_hits.incr();
            return Action::Answer(p);
        }
        if state.analog_trials < FLOOR {
            counters.escalations.incr();
            return Action::Escalate;
        }
        let est = state.estimate;
        let trusted = est.consistent_with(state.p_cal, TABLE_ERROR_BAND, Z_95);
        let decided = (est.converged(EPSILON, Z_95)
            && trusted
            && est.clear_of(decision_thresholds(op), Z_95))
            || state.analog_trials >= CEILING;
        if !decided {
            counters.escalations.incr();
            return Action::Escalate;
        }
        if state.analog_trials >= CEILING {
            counters.budget_capped.incr();
        } else {
            counters.early_stops.incr();
        }
        counters
            .analog_trials_per_point
            .observe(state.analog_trials as f64);
        // Anchor the answer to the evidence; pull toward the table
        // only when the table agrees with what was measured.
        let prior_weight = if trusted { PRIOR_WEIGHT } else { 0.0 };
        let p = est.posterior_mean(state.p_cal, prior_weight);
        state.answer = Some(p);
        counters.table_hits.incr();
        Action::Answer(p)
    }
}

impl PudBackend for HybridBackend {
    fn name(&self) -> &'static str {
        "hybrid"
    }

    fn run_trial(
        &self,
        spec: &TrialSpec,
        setup: &mut TestSetup,
        group: &GroupSpec,
        rng: &mut Rng,
    ) -> Option<f64> {
        let (n, mut sample) = (group.n_rows() as u32, None);
        let group = |_| Cow::Borrowed(group);
        self.run_point(spec, setup, n, 1, group, rng, |s| sample = Some(s));
        sample
    }

    fn run_trials(
        &self,
        spec: &TrialSpec,
        setup: &mut TestSetup,
        groups: &[GroupPick],
        rng: &mut Rng,
        samples: &mut Vec<f64>,
    ) {
        let geometry = *setup.module().geometry();
        for run in groups.chunk_by(|a, b| a.n_rows() == b.n_rows()) {
            let group = |i: usize| Cow::Owned(run[i].resolve(&geometry));
            let n = run[0].n_rows() as u32;
            self.run_point(spec, setup, n, run.len(), group, rng, |s| samples.push(s));
        }
    }
}

impl HybridBackend {
    /// `trials` trials at `n` rows, and so at one point, passing each
    /// sample to `emit`: the body of both entry points. The point's state
    /// leaves the mount's [`Points`] for the run, each trial is decided
    /// from it in turn, and it goes back afterwards; the mount's first
    /// trial of a point resolves its table entry. Only an escalated trial
    /// asks `group` for its group, the `i`-th of the run.
    #[allow(clippy::too_many_arguments)]
    fn run_point<'g>(
        &self,
        spec: &TrialSpec,
        setup: &mut TestSetup,
        n: u32,
        trials: usize,
        group: impl Fn(usize) -> Cow<'g, GroupSpec>,
        rng: &mut Rng,
        mut emit: impl FnMut(f64),
    ) {
        let profile = setup.module().profile();
        if spec.unsupported_on(profile) {
            return;
        }
        let key = CalKey::new(profile, spec, n);
        let mut state = match setup.backend_state::<Points>().remove(&key) {
            Some(state) => state,
            None => PointState {
                p_cal: self
                    .surrogate
                    .probability(key, setup.module().profile(), spec),
                ..PointState::default()
            },
        };
        if !state.p_cal.is_nan() {
            for i in 0..trials {
                match self.decide(&mut state, &spec.op) {
                    Action::Answer(p) => emit(noisy_success_sample(p, setup.stream_state(), rng)),
                    Action::Escalate => {
                        if let Some(s) = AnalogBackend.run_trial(spec, setup, &group(i), rng) {
                            state.estimate.observe(s, SAMPLE_WEIGHT);
                            state.analog_trials += 1;
                            emit(s);
                        }
                    }
                }
            }
        }
        setup.backend_state::<Points>().insert(key, state);
    }
}

/// The analog trials `setup`'s mount has spent on `spec`'s point at `n`
/// rows (0 when the point has no state).
#[cfg(test)]
pub(crate) fn analog_trials_spent(setup: &mut TestSetup, spec: &TrialSpec, n: u32) -> u32 {
    let key = CalKey::new(setup.module().profile(), spec, n);
    setup
        .backend_state::<Points>()
        .get(&key)
        .map_or(0, |state| state.analog_trials)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simra_core::rowgroup::random_group;
    use simra_dram::{ApaTiming, BankId, DataPattern, DramModule, SubarrayId, VendorProfile};

    fn rig(profile: VendorProfile, seed: u64) -> (TestSetup, Rng) {
        (
            TestSetup::with_module(DramModule::new(profile, seed)),
            Rng::seed_from_u64(21),
        )
    }

    fn hybrid() -> HybridBackend {
        HybridBackend::new(&Recorder::new())
    }

    fn group_of(setup: &TestSetup, n: u32, rng: &mut Rng) -> GroupSpec {
        random_group(
            setup.module().geometry(),
            BankId::new(0),
            SubarrayId::new(0),
            n,
            rng,
        )
        .expect("subarray hosts the group")
    }

    /// Runs `trials` hybrid trials of one spec on a freshly mounted rig
    /// and returns (samples, analog trials spent on the point).
    fn run_mount(
        backend: &HybridBackend,
        spec: &TrialSpec,
        n: u32,
        trials: usize,
    ) -> (Vec<Option<f64>>, u32) {
        let (mut setup, mut rng) = rig(VendorProfile::mfr_h_m_die(), 7);
        let group = group_of(&setup, n, &mut rng);
        let samples: Vec<_> = (0..trials)
            .map(|_| backend.run_trial(spec, &mut setup, &group, &mut rng))
            .collect();
        let spent = analog_trials_spent(&mut setup, spec, n);
        (samples, spent)
    }

    #[test]
    fn unambiguous_points_early_stop_after_the_floor() {
        // Best-timing 32-row activation: ≈ 100 % success, table agrees,
        // interval clear of 0.5 after one weighted trial → exactly one
        // analog trial, the rest answered from the table.
        let backend = hybrid();
        let spec = TrialSpec::activation(ApaTiming::best_for_activation());
        let (samples, spent) = run_mount(&backend, &spec, 32, 6);
        assert_eq!(spent, 1, "floor trial only");
        for s in &samples {
            assert!(s.expect("feasible") > 0.9);
        }
    }

    #[test]
    fn table_inconsistency_forces_escalation() {
        // MAJ7 @ 32 rows on Mfr. H: the calibrated table reads ≈ 0.8 %
        // but the analog core measures ≈ 20 % — the consistency gate
        // must refuse to answer from the table and spend the whole
        // budget on analog trials (this is the Obs. 8 rescue).
        let backend = hybrid();
        let spec = TrialSpec::majx(7, ApaTiming::best_for_majx(), DataPattern::Random);
        let trials = CEILING as usize + 4;
        let (samples, spent) = run_mount(&backend, &spec, 32, trials);
        // The ceiling is pinned by value: 8 analog trials per point.
        assert_eq!(spent, 8, "inconsistent table → analog until the cap");
        // Once capped, the answer is the empirical mean (untrusted
        // table gets zero prior weight): far from the table's 0.8 %.
        let last = samples.last().unwrap().expect("feasible");
        assert!(last > 0.05, "capped answer follows the evidence: {last}");
    }

    #[test]
    fn decisions_are_byte_identical_across_instances_and_replays() {
        let spec = TrialSpec::majx(5, ApaTiming::best_for_majx(), DataPattern::Random);
        let (a, _) = run_mount(&hybrid(), &spec, 32, 10);
        let (b, _) = run_mount(&hybrid(), &spec, 32, 10);
        assert_eq!(a, b, "same seed, fresh mount → identical samples");
    }

    #[test]
    fn a_new_mount_starts_a_clean_history() {
        let backend = hybrid();
        let spec = TrialSpec::activation(ApaTiming::best_for_activation());
        let (first, spent_first) = run_mount(&backend, &spec, 32, 4);
        // A later mount on the same thread must not inherit the decided
        // state: it re-spends the floor trial and replays identically.
        let (second, spent_second) = run_mount(&backend, &spec, 32, 4);
        assert_eq!(spent_first, spent_second, "state reset with the mount");
        assert_eq!(first, second, "replay is exact despite a warm table");
    }

    #[test]
    fn interleaved_mounts_decide_as_when_run_alone() {
        // One backend, two mounts whose trials alternate on one thread:
        // each mount keeps its own history, so each takes exactly the
        // decisions (and draws exactly the samples) it takes alone.
        let act = TrialSpec::activation(ApaTiming::best_for_activation());
        let maj = TrialSpec::majx(5, ApaTiming::best_for_majx(), DataPattern::Random);
        let trials = 6;
        let (act_alone, act_spent) = run_mount(&hybrid(), &act, 32, trials);
        let (maj_alone, maj_spent) = run_mount(&hybrid(), &maj, 32, trials);
        let backend = hybrid();
        let (mut rig_a, mut rng_a) = rig(VendorProfile::mfr_h_m_die(), 7);
        let group_a = group_of(&rig_a, 32, &mut rng_a);
        let (mut rig_b, mut rng_b) = rig(VendorProfile::mfr_h_m_die(), 7);
        let group_b = group_of(&rig_b, 32, &mut rng_b);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for _ in 0..trials {
            a.push(backend.run_trial(&act, &mut rig_a, &group_a, &mut rng_a));
            b.push(backend.run_trial(&maj, &mut rig_b, &group_b, &mut rng_b));
        }
        assert_eq!(a, act_alone);
        assert_eq!(b, maj_alone);
        assert_eq!(analog_trials_spent(&mut rig_a, &act, 32), act_spent);
        assert_eq!(analog_trials_spent(&mut rig_b, &maj, 32), maj_spent);
        assert!(
            act_spent < trials as u32,
            "the activation point decides early"
        );
    }

    #[test]
    fn infeasible_configurations_return_none_without_state() {
        let backend = hybrid();
        let (mut setup, mut rng) = rig(VendorProfile::mfr_m_e_die(), 3);
        let group = group_of(&setup, 16, &mut rng);
        let spec = TrialSpec::majx(9, ApaTiming::best_for_majx(), DataPattern::Random);
        assert_eq!(backend.run_trial(&spec, &mut setup, &group, &mut rng), None);
        assert_eq!(
            backend.surrogate().calibrated_points(),
            0,
            "guard precedes probe"
        );
    }
}
