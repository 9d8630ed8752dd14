//! The calibrated fast surrogate backend.
//!
//! # Model
//!
//! The analog pipeline spends its time simulating per-column charge
//! sharing and sense amplification for every (group, trial). The
//! surrogate observes that every figure consumes only the *success
//! fraction* of a trial, and that at the paper's 10⁴ trials per group
//! the observed fraction is a `Binomial(T, p)/T` average — fully
//! characterized by the underlying success probability `p` plus
//! sampling noise.
//!
//! So the surrogate runs the real analog operation **once per distinct
//! configuration** — keyed by (vendor profile, operation, X, N, timing,
//! pattern, temperature, V_PP) — on a small dedicated calibration rig,
//! caches the resulting probability, and per trial returns
//! `clamp(p + σ·z, 0, 1)` with `σ = sqrt(p(1−p)/T)` and `z` a
//! standard normal drawn from the trial's own RNG stream.
//!
//! # Lookup cost
//!
//! The key (`CalKey`) is a `Copy` value built from the trial spec and
//! the profile fields a probe reads, so building it allocates nothing.
//! The lookup is per task, not per trial: the fleet hands each
//! (module, point) task's groups to [`PudBackend::run_trials`] in one
//! call, which builds the key, resolves `p` and borrows the stream's
//! noise memo once per run of equal-N groups, then only samples. A
//! [`PudBackend::run_trial`] caller (a probe that times single trials,
//! a test) resolves per call, so each rig mount also remembers the last
//! `key → p` it resolved, in its [`TestSetup::backend_state`]: only the
//! first trial of a mount reaches the shared, locked table, and only a
//! table miss runs a probe.
//!
//! # Noise cost
//!
//! A trial's noise `z` is a function of the stream position it starts
//! from, and every sweep point at one (module, N) replays one stream.
//! So the surrogate keeps each position's `z` in a bounded `NoiseMemo`
//! in the mount's [`TestSetup::stream_state`]. The fleet keeps that slot
//! with the session's draw of the stream and lends it to every task at
//! that (module, N), in every sweep: a stream's positions are computed
//! once per session, not once per point. `repro paper --backend
//! surrogate` asks for 24.0 M noise values over 5 076 tasks and computes
//! 0.54 M of them (90 draws × 4 800 positions, plus the calibration,
//! per-die and Fig. 16 rigs, which keep their own). A hit advances the
//! stream by the same two draws, so no sample and no stream position
//! changes. The hybrid's table answers read the same memo.
//!
//! # Why paired observations survive
//!
//! Two properties are load-bearing for the observation scoreboard:
//!
//! 1. **Fixed per-trial draw count.** Every surrogate trial consumes
//!    exactly two uniforms (one Box–Muller normal), regardless of
//!    parameters. The fleet seeds each (module, point) task's stream
//!    from `(config, module, index, N)` only — so two sweep points at
//!    the same N replay *identical* noise, which cancels exactly in
//!    every paired comparison (the temperature/voltage/pattern
//!    observations 3, 4, 9, 11, 13, 16, 17, 18 all compare points at
//!    equal N).
//! 2. **Shared calibration sample.** The calibration rig's RNG is
//!    seeded from the key *without* the pattern, temperature, and V_PP
//!    components, so paired operating points calibrate on the same
//!    groups and the cached probabilities differ only by physics, not
//!    by group-selection luck.
//!
//! # Error band
//!
//! Calibration measures `CAL_GROUPS` groups at `CAL_COLS` columns
//! instead of the full population, so absolute success rates carry a
//! group-to-group spread of a few percentage points (the analog model's
//! per-group strength factor spans roughly ±10 %). Paired deltas at
//! equal N are exact up to trial noise (σ ≤ 0.5 pp, ≈ 0.1 pp at
//! p ≈ 0.99). The documented tolerance band for the scoreboard is
//! therefore: **≥ 16 of 18 observations hold** under the surrogate at
//! quick scale — the margin-based observations (1, 2, 6, 7, 8, 10, 14,
//! 15) have ≥ 10 pp slack against a ≤ 5 pp absolute error, and the
//! paired observations see only cancelled noise. CI enforces exactly
//! this band (`.github/workflows/ci.yml`, `repro-surrogate`).

use std::collections::HashMap;
use std::fmt;
use std::sync::Mutex;

use simra_analog::EngineCounters;
use simra_bender::TestSetup;
use simra_core::rowgroup::{sample_groups, GroupPick, GroupSpec};
use simra_dram::{
    DataPattern, DieRevision, DramModule, Geometry, Manufacturer, Rng, VendorProfile,
};
use simra_telemetry::Recorder;

use crate::{AnalogBackend, MrcSource, PudBackend, TrialOp, TrialSpec};

/// Groups measured per calibration key (averaged).
const CAL_GROUPS: usize = 2;
/// Columns on the calibration rig. Success is a per-column average, so
/// narrowing the rig shrinks calibration cost without biasing the mean.
const CAL_COLS: u32 = 64;
/// Silicon seed of the calibration rig (shared by every key so repeated
/// calibrations of one profile reuse the same virtual module).
const CAL_RIG_SEED: u64 = 0xCA11_B8A7;
/// Trials per group modelled by the noise term (the paper's 10⁴).
/// Shared with the hybrid backend so its table answers carry the same
/// noise model as pure surrogate answers.
pub(crate) const TRIALS_PER_GROUP: f64 = 10_000.0;

/// The vendor-profile fields a calibration probe reads: the label's
/// manufacturer, die, density and organization (the label seeds the
/// probe), the whole geometry, and every physics flag and scale the
/// analog trial path consults. `timing` is absent because the trial
/// path takes its APA timing from the spec, never from the speed bin.
/// Two profiles with one label but different subarray heights (the
/// 512- and 640-row Mfr. H M-die parts) are therefore distinct keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct ProfileKey {
    manufacturer: Manufacturer,
    die: DieRevision,
    density_gbit: u8,
    geometry: Geometry,
    supports_frac: bool,
    biased_sense_amps: bool,
    apa_guard: bool,
    /// Exact f32 bit patterns.
    sense_offset_bits: u32,
    cell_variation_bits: u32,
}

impl ProfileKey {
    fn new(profile: &VendorProfile) -> Self {
        ProfileKey {
            manufacturer: profile.manufacturer,
            die: profile.die,
            density_gbit: profile.density_gbit,
            geometry: profile.geometry,
            supports_frac: profile.supports_frac,
            biased_sense_amps: profile.biased_sense_amps,
            apa_guard: profile.apa_guard,
            sense_offset_bits: profile.sense_offset_scale.to_bits(),
            cell_variation_bits: profile.cell_variation_scale.to_bits(),
        }
    }
}

/// Cache key: everything the calibrated probability depends on. Also
/// used by the hybrid backend as its per-point state key — a "point"
/// for escalation accounting is exactly a distinct calibration key.
/// `Copy` and allocation-free, so a trial builds it for free.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct CalKey {
    profile: ProfileKey,
    /// Operation discriminant (0 = activation, 1 = MAJX, 2 = MRC).
    op: u8,
    /// MAJX operand count; 0 for other ops.
    x: u8,
    /// Simultaneously activated rows.
    n: u32,
    /// Timing, exact ns bit patterns (timings are grid-snapped).
    t1_bits: u64,
    t2_bits: u64,
    /// Data pattern / source discriminant.
    pattern: u8,
    /// Operating point, exact f64 bit patterns (sweep values are
    /// grid-snapped by their figure loops); [`NOMINAL_BITS`] encodes
    /// "nominal" (no override). Exact bits matter: if two distinct
    /// operating points ever shared a key, the cached probability would
    /// depend on which caller probed first — and shard workers and
    /// journal-replay processes probe keys in a different order than a
    /// monolithic run.
    temp_bits: u64,
    vpp_bits: u64,
}

fn pattern_code(p: DataPattern) -> u8 {
    match p {
        DataPattern::Solid => 0,
        DataPattern::Checkered => 1,
        DataPattern::ColStripe2 => 2,
        DataPattern::ColStripe2Shifted => 3,
        DataPattern::Random => 4,
    }
}

fn source_code(s: MrcSource) -> u8 {
    match s {
        MrcSource::AllZeros => 0,
        MrcSource::AllOnes => 1,
        // Both random conventions draw from the same distribution; they
        // share a calibrated probability.
        MrcSource::RandomBits | MrcSource::RandomRow => 2,
    }
}

/// Sentinel for "no operating-point override" — an all-ones bit
/// pattern, which is a NaN no sweep ever carries as a real value.
const NOMINAL_BITS: u64 = u64::MAX;

fn op_point_bits(v: Option<f64>) -> u64 {
    match v {
        Some(v) => v.to_bits(),
        None => NOMINAL_BITS,
    }
}

impl CalKey {
    pub(crate) fn new(profile: &VendorProfile, spec: &TrialSpec, n: u32) -> Self {
        let (op, x, t1, t2, pattern) = match spec.op {
            TrialOp::Activation { timing, pattern } => {
                (0u8, 0u8, timing.t1, timing.t2, pattern_code(pattern))
            }
            TrialOp::Majx { x, timing, pattern } => {
                (1, x as u8, timing.t1, timing.t2, pattern_code(pattern))
            }
            TrialOp::MultiRowCopy { timing, source } => {
                (2, 0, timing.t1, timing.t2, source_code(source))
            }
        };
        CalKey {
            profile: ProfileKey::new(profile),
            op,
            x,
            n,
            t1_bits: t1.as_ns().to_bits(),
            t2_bits: t2.as_ns().to_bits(),
            pattern,
            temp_bits: op_point_bits(spec.temperature_c),
            vpp_bits: op_point_bits(spec.vpp_v),
        }
    }

    /// Seed of the calibration stream: the profile's `label` folded
    /// with the operation, X and N. Deliberately *excludes* the pattern
    /// and operating-point components so paired sweep points calibrate
    /// on identical groups (see the module docs); the FNV-1a fold keeps
    /// it stable across processes and Rust releases. Only a table miss
    /// formats the label.
    fn physics_seed(&self, label: &str) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut fold = |byte: u8| {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x1000_0000_01b3);
        };
        for b in label.bytes() {
            fold(b);
        }
        fold(self.op);
        fold(self.x);
        for b in self.n.to_le_bytes() {
            fold(b);
        }
        h
    }

    /// The spec the calibration probe actually runs: `spec` with the
    /// one component the key still *collapses* — the two random MRC
    /// source conventions — snapped to a canonical representative.
    /// Two specs that share a key can differ in that component, and the
    /// probe must not depend on which caller gets there first: a shard
    /// worker or a journal-replay process probes keys in a different
    /// order than a monolithic run, and the cached probability has to
    /// come out identical everywhere. Snapping to `RandomBits` is safe
    /// because the two conventions draw from the same distribution
    /// (that is why they share a key at all).
    fn canonical_spec(&self, spec: &TrialSpec) -> TrialSpec {
        let mut canonical = *spec;
        if let TrialOp::MultiRowCopy { source, .. } = &mut canonical.op {
            if *source == MrcSource::RandomRow {
                *source = MrcSource::RandomBits;
            }
        }
        canonical
    }
}

/// The calibrated fast surrogate backend. See the module docs for the
/// model, the calibration procedure, and the error band.
///
/// One instance should live for a whole session (a session's hybrid
/// backend owns it) so the calibration cache stays warm across
/// figures — a key one figure probed is a cache hit for every later
/// figure. The cache contents are deterministic in
/// the key (the probe rig and its RNG are seeded from the key alone),
/// so a fresh instance recalibrating from scratch lands on identical
/// probabilities — sessions never need to share a table to agree.
#[derive(Debug)]
pub struct SurrogateBackend {
    calibration: Mutex<HashMap<CalKey, f64>>,
    counters: CalCounters,
    /// Counter handles the calibration rig reports engine ops to, so a
    /// session's probe cost lands in that session's recorder.
    engine_counters: EngineCounters,
}

/// A mount's last resolved `key → p`, kept in its
/// [`TestSetup::backend_state`]. It only ever holds a copy of an entry
/// the table already holds, and table entries are never replaced, so a
/// hit returns exactly what the table would: the memo changes no
/// result, no probe count and no RNG draw.
#[derive(Default)]
struct LastResolved(Option<(CalKey, f64)>);

impl Default for SurrogateBackend {
    fn default() -> Self {
        SurrogateBackend::new()
    }
}

impl SurrogateBackend {
    /// A fresh surrogate with an empty calibration cache, reporting to
    /// a fresh, disabled recorder.
    pub fn new() -> Self {
        SurrogateBackend::recorded_by(&Recorder::new())
    }

    /// A fresh surrogate reporting its calibration cost (and the probe
    /// rig's engine ops) to `recorder`.
    pub fn recorded_by(recorder: &Recorder) -> Self {
        SurrogateBackend {
            calibration: Mutex::new(HashMap::new()),
            counters: CalCounters::recorded_by(recorder),
            engine_counters: EngineCounters::recorded_by(recorder),
        }
    }

    /// Number of calibrated configurations currently cached.
    pub fn calibrated_points(&self) -> usize {
        self.calibration
            .lock()
            .expect("surrogate calibration cache poisoned")
            .len()
    }

    /// The calibrated success probability of `key`, the key of `spec`
    /// on `profile`, from the table, probing the analog core on a table
    /// miss. `NaN` marks an infeasible configuration (every probe
    /// returned `None`).
    pub(crate) fn probability(
        &self,
        key: CalKey,
        profile: &VendorProfile,
        spec: &TrialSpec,
    ) -> f64 {
        let mut cache = self
            .calibration
            .lock()
            .expect("surrogate calibration cache poisoned");
        *cache.entry(key).or_insert_with(|| {
            self.counters.probes.incr();
            self.counters.probe_groups.add(CAL_GROUPS as u64);
            calibrate(
                profile,
                &key.canonical_spec(spec),
                key.n,
                key.physics_seed(&profile.label()),
                &self.engine_counters,
            )
        })
    }
}

/// Telemetry counters for calibration cost. Every cache miss is one
/// probe (mount rig, sample groups, run `CAL_GROUPS` analog trials), so
/// `calibration_probes × CAL_GROUPS = calibration_probe_groups` analog
/// group-trials were spent building the table — the denominator for any
/// "is the surrogate actually cheaper" accounting. The cache mutex is
/// held across the probe, so each key is counted exactly once no matter
/// how many worker threads race on it.
struct CalCounters {
    probes: simra_telemetry::Counter,
    probe_groups: simra_telemetry::Counter,
}

impl CalCounters {
    fn recorded_by(recorder: &Recorder) -> Self {
        CalCounters {
            probes: recorder.counter("surrogate", "calibration_probes"),
            probe_groups: recorder.counter("surrogate", "calibration_probe_groups"),
        }
    }
}

impl fmt::Debug for CalCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CalCounters")
            .field("probes", &self.probes.get())
            .field("probe_groups", &self.probe_groups.get())
            .finish()
    }
}

/// One calibration probe: mount a narrow rig of the profile, draw the
/// key's deterministic group sample, and run the *analog* backend over
/// it — the surrogate is calibrated by the very code it replaces.
/// Because the probe goes through [`AnalogBackend`], calibration rides
/// the batched analog hot path for free (batched MAJX senses,
/// fused commit-survival reductions) without any code here changing.
fn calibrate(
    profile: &VendorProfile,
    spec: &TrialSpec,
    n: u32,
    seed: u64,
    engine_counters: &EngineCounters,
) -> f64 {
    let mut cal_profile = profile.clone();
    cal_profile.geometry.cols_per_row = CAL_COLS.min(cal_profile.geometry.cols_per_row);
    let mut setup = TestSetup::with_module(DramModule::new(cal_profile, CAL_RIG_SEED));
    setup.set_engine_counters(engine_counters.clone());
    let mut rng = Rng::seed_from_u64(seed);
    let groups = sample_groups(setup.module().geometry(), n, 1, 1, CAL_GROUPS, &mut rng);
    let mut samples = Vec::with_capacity(groups.len());
    AnalogBackend.run_trials(spec, &mut setup, &groups, &mut rng, &mut samples);
    if samples.is_empty() {
        f64::NAN
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

impl PudBackend for SurrogateBackend {
    fn name(&self) -> &'static str {
        "surrogate"
    }

    fn run_trial(
        &self,
        spec: &TrialSpec,
        setup: &mut TestSetup,
        group: &GroupSpec,
        rng: &mut Rng,
    ) -> Option<f64> {
        let mut sample = None;
        self.run_point(spec, setup, group.n_rows() as u32, 1, rng, |s| {
            sample = Some(s)
        });
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
        for run in groups.chunk_by(|a, b| a.n_rows() == b.n_rows()) {
            let n = run[0].n_rows() as u32;
            self.run_point(spec, setup, n, run.len(), rng, |s| samples.push(s));
        }
    }
}

impl SurrogateBackend {
    /// `trials` trials at `n` rows, and so at one key, passing each
    /// sample to `emit`: the body of both entry points. A table answer
    /// reads no row of its group, so the body takes only N and the count.
    /// The key and its probability are resolved once, from the mount's
    /// last resolved entry or else the table, and the stream's noise memo
    /// is borrowed once.
    fn run_point(
        &self,
        spec: &TrialSpec,
        setup: &mut TestSetup,
        n: u32,
        trials: usize,
        rng: &mut Rng,
        mut emit: impl FnMut(f64),
    ) {
        let profile = setup.module().profile();
        if spec.unsupported_on(profile) {
            return;
        }
        let key = CalKey::new(profile, spec, n);
        let p = match setup.backend_state::<LastResolved>().0 {
            Some((last, p)) if last == key => p,
            _ => {
                let p = self.probability(key, setup.module().profile(), spec);
                setup.backend_state::<LastResolved>().0 = Some((key, p));
                p
            }
        };
        if p.is_nan() {
            return;
        }
        let memo = setup.stream_state::<NoiseMemo>();
        memo.reserve(rng, trials);
        for _ in 0..trials {
            emit(noisy_success_sample(p, memo, rng));
        }
    }
}

/// One table-backed trial sample: `clamp(p + σ·z, 0, 1)` with σ the
/// paper-scale binomial noise for `p`. Consumes exactly two uniforms —
/// never more, never fewer — so same-N sweep points replay identical
/// noise (module docs). Shared with the hybrid backend, whose table
/// answers must be byte-identical to what the surrogate would emit for
/// the same probability at the same stream position.
///
/// `z` depends on the stream position alone, so `memo` (the
/// [`TestSetup::stream_state`] of the mount's stream) supplies it when
/// an earlier trial at that position computed it; the stream then
/// advances by the same two draws.
pub(crate) fn noisy_success_sample(p: f64, memo: &mut NoiseMemo, rng: &mut Rng) -> f64 {
    let z = memo.z(rng);
    let sigma = (p * (1.0 - p) / TRIALS_PER_GROUP).max(0.0).sqrt();
    (p + sigma * z).clamp(0.0, 1.0)
}

/// The standard normal of [`noisy_success_sample`], from the next two
/// draws.
fn trial_noise(rng: &mut Rng) -> f64 {
    let u1: f64 = rng.gen();
    let u2: f64 = rng.gen();
    (-2.0 * (1.0 - u1).max(f64::MIN_POSITIVE).ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Trial positions a [`NoiseMemo`] holds: the paper's 16 × 3 × 100 =
/// 4 800 groups per (module, N) fit, at 8 bytes each.
const MEMO_POSITIONS: u64 = 8_192;

/// The trial noise computed so far on one RNG stream, kept in the
/// stream's [`TestSetup::stream_state`]. Every sweep point at one
/// (module, N) replays the same stream, so each position's `z` is
/// computed once per session instead of once per point.
///
/// A position is the stream state a trial starts from; the memo names it
/// by its distance in draws from `origin`, the state of its first trial.
/// Positions at an even distance below `2 · MEMO_POSITIONS` are kept;
/// any other (a hybrid answer after an escalation's odd draw count, a
/// position before `origin`) is computed without being kept. The state
/// fixes both draws, so a kept `z` is exactly the one the trial would
/// compute.
#[derive(Debug, Default)]
pub(crate) struct NoiseMemo {
    origin: Option<Rng>,
    /// `z` of the position `2i` draws past `origin`; NaN where no trial
    /// has run yet (a `z` is always finite).
    z: Vec<f64>,
}

impl NoiseMemo {
    /// Makes room for a run of `trials` trials starting at `rng`'s
    /// position: the memo grows once, to the `min(offset + trials,
    /// MEMO_POSITIONS)` positions the run can keep (exactly that many
    /// when it was empty), instead of doubling as the trials reach them.
    fn reserve(&mut self, rng: &Rng, trials: usize) {
        let offset = rng.draws_since(self.origin.get_or_insert_with(|| rng.clone()));
        if offset.is_multiple_of(2) && offset / 2 < MEMO_POSITIONS {
            let end = (offset / 2)
                .saturating_add(trials as u64)
                .min(MEMO_POSITIONS);
            if end as usize > self.z.len() {
                self.z.resize(end as usize, f64::NAN);
            }
        }
    }

    /// The `z` of the trial starting at `rng`'s position, advancing `rng`
    /// past its two draws.
    fn z(&mut self, rng: &mut Rng) -> f64 {
        let offset = rng.draws_since(self.origin.get_or_insert_with(|| rng.clone()));
        if !offset.is_multiple_of(2) || offset / 2 >= MEMO_POSITIONS {
            return trial_noise(rng);
        }
        let at = (offset / 2) as usize;
        if at >= self.z.len() {
            self.z.resize(at + 1, f64::NAN);
        }
        let z = &mut self.z[at];
        if z.is_nan() {
            *z = trial_noise(rng);
        } else {
            rng.jump(2);
        }
        *z
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simra_bender::StateSlot;
    use simra_core::rowgroup::random_group;
    use simra_dram::{ApaTiming, BankId, SubarrayId};

    fn rig(profile: VendorProfile, seed: u64) -> (TestSetup, Rng) {
        (
            TestSetup::with_module(DramModule::new(profile, seed)),
            Rng::seed_from_u64(21),
        )
    }

    /// A random `n`-row group in bank 0, subarray 0, redrawing the
    /// draws the clipped top of a 640-row subarray cannot host.
    fn group_of(setup: &TestSetup, n: u32, rng: &mut Rng) -> GroupSpec {
        let geometry = setup.module().geometry();
        loop {
            if let Some(g) = random_group(geometry, BankId::new(0), SubarrayId::new(0), n, rng) {
                return g;
            }
        }
    }

    fn probability_of(
        surrogate: &SurrogateBackend,
        profile: &VendorProfile,
        spec: &TrialSpec,
        n: u32,
    ) -> f64 {
        surrogate.probability(CalKey::new(profile, spec, n), profile, spec)
    }

    fn recorded() -> (SurrogateBackend, simra_telemetry::Counter) {
        let recorder = Recorder::new();
        recorder.enable();
        let probes = recorder.counter("surrogate", "calibration_probes");
        (SurrogateBackend::recorded_by(&recorder), probes)
    }

    #[test]
    fn surrogate_tracks_the_analog_probability() {
        let surrogate = SurrogateBackend::new();
        let (mut setup, mut rng) = rig(VendorProfile::mfr_h_m_die(), 7);
        let group = group_of(&setup, 32, &mut rng);
        let spec = TrialSpec::activation(ApaTiming::best_for_activation());
        let s = surrogate
            .run_trial(&spec, &mut setup, &group, &mut rng)
            .expect("feasible trial");
        // Best-timing 32-row activation is near-perfect on the analog
        // core; the calibrated surrogate must land in the same regime.
        assert!(s > 0.95, "surrogate activation success {s}");
        assert_eq!(surrogate.calibrated_points(), 1);
        // Second trial of the same configuration: cache hit.
        let _ = surrogate.run_trial(&spec, &mut setup, &group, &mut rng);
        assert_eq!(surrogate.calibrated_points(), 1);
    }

    #[test]
    fn surrogate_is_deterministic_per_stream() {
        let spec = TrialSpec::majx(3, ApaTiming::best_for_majx(), DataPattern::Random);
        let sample = |surrogate: &SurrogateBackend| {
            let (mut setup, mut rng) = rig(VendorProfile::mfr_h_m_die(), 7);
            let group = group_of(&setup, 32, &mut rng);
            surrogate.run_trial(&spec, &mut setup, &group, &mut rng)
        };
        let a = sample(&SurrogateBackend::new());
        let b = sample(&SurrogateBackend::new());
        assert_eq!(a, b, "fresh caches, same stream → same sample");
    }

    #[test]
    fn infeasible_configurations_return_none() {
        let surrogate = SurrogateBackend::new();
        // MAJ9 on Mfr. M: guarded before calibration.
        let (mut setup, mut rng) = rig(VendorProfile::mfr_m_e_die(), 3);
        let group = group_of(&setup, 16, &mut rng);
        let spec = TrialSpec::majx(9, ApaTiming::best_for_majx(), DataPattern::Random);
        assert_eq!(
            surrogate.run_trial(&spec, &mut setup, &group, &mut rng),
            None
        );
        assert_eq!(surrogate.calibrated_points(), 0, "guard precedes probe");
        // N < X: the analog probe fails every group → NaN → None.
        let (mut setup, mut rng) = rig(VendorProfile::mfr_h_m_die(), 7);
        let group = group_of(&setup, 4, &mut rng);
        let spec = TrialSpec::majx(7, ApaTiming::best_for_majx(), DataPattern::Random);
        assert_eq!(
            surrogate.run_trial(&spec, &mut setup, &group, &mut rng),
            None
        );
    }

    #[test]
    fn paired_operating_points_share_trial_noise() {
        // The same stream position at two temperatures must produce
        // samples whose difference is purely the calibrated physics
        // delta — the noise term cancels.
        let surrogate = SurrogateBackend::new();
        let spec_cold =
            TrialSpec::activation(ApaTiming::best_for_activation()).at_temperature(50.0);
        let spec_hot = TrialSpec::activation(ApaTiming::best_for_activation()).at_temperature(90.0);
        let profile = VendorProfile::mfr_h_m_die();
        let p_cold = probability_of(&surrogate, &profile, &spec_cold, 32);
        let p_hot = probability_of(&surrogate, &profile, &spec_hot, 32);
        let sample = |spec: &TrialSpec| {
            let (mut setup, mut rng) = rig(VendorProfile::mfr_h_m_die(), 7);
            let group = group_of(&setup, 32, &mut rng);
            surrogate
                .run_trial(spec, &mut setup, &group, &mut rng)
                .unwrap()
        };
        let s_cold = sample(&spec_cold);
        let s_hot = sample(&spec_hot);
        // Unclamped samples differ exactly by the probability delta up
        // to the (tiny) sigma difference; allow the clamp some slack.
        assert!(
            ((s_hot - s_cold) - (p_hot - p_cold)).abs() < 5e-3,
            "noise must cancel: Δsample {} vs Δp {}",
            s_hot - s_cold,
            p_hot - p_cold
        );
    }

    #[test]
    fn subarray_height_is_part_of_the_key() {
        // The 512- and 640-row Mfr. H M-die parts share a label; a probe
        // of one must never answer for the other, whichever came first.
        let spec = TrialSpec::majx(7, ApaTiming::best_for_majx(), DataPattern::Random);
        let trial = |surrogate: &SurrogateBackend, profile: VendorProfile| {
            let (mut setup, mut rng) = rig(profile, 7);
            let group = group_of(&setup, 32, &mut rng);
            surrogate.run_trial(&spec, &mut setup, &group, &mut rng)
        };
        let alone = trial(&SurrogateBackend::new(), VendorProfile::mfr_h_m_die_640());
        let surrogate = SurrogateBackend::new();
        trial(&surrogate, VendorProfile::mfr_h_m_die());
        let after_512 = trial(&surrogate, VendorProfile::mfr_h_m_die_640());
        assert_eq!(alone, after_512, "640-row sample depends on probe order");
        assert_eq!(surrogate.calibrated_points(), 2);
    }

    /// Five distinct calibration keys on Mfr. H.
    fn race_keys() -> Vec<(TrialSpec, u32)> {
        let act = TrialSpec::activation(ApaTiming::best_for_activation());
        let maj3 = TrialSpec::majx(3, ApaTiming::best_for_majx(), DataPattern::Random);
        vec![(act, 2), (act, 8), (act, 32), (maj3, 4), (maj3, 16)]
    }

    #[test]
    fn racing_threads_probe_each_key_once() {
        let (surrogate, probes) = recorded();
        let profile = VendorProfile::mfr_h_m_die();
        let keys = race_keys();
        // Both threads ask for every key at once: the barrier releases
        // them together before each lookup.
        let start = std::sync::Barrier::new(2);
        let read = || {
            let mut p = Vec::new();
            for _ in 0..2 {
                for (spec, n) in &keys {
                    start.wait();
                    p.push(probability_of(&surrogate, &profile, spec, *n).to_bits());
                }
            }
            p
        };
        let (a, b) = std::thread::scope(|s| {
            let a = s.spawn(read);
            let b = s.spawn(read);
            (a.join().unwrap(), b.join().unwrap())
        });
        assert_eq!(a, b, "both threads read the same table");
        assert_eq!(probes.get(), keys.len() as u64);
        assert_eq!(surrogate.calibrated_points(), keys.len());
    }

    #[test]
    fn the_noise_memo_answers_as_the_stream_would() {
        // Trials start at scattered positions around the memo's origin:
        // even and odd distances, positions before it and past its
        // bound. Each returns the stream's own z and advances two draws.
        let base = Rng::seed_from_u64(77);
        let mut walk = Rng::seed_from_u64(5);
        let mut memo = NoiseMemo::default();
        // The first trial puts the origin at `base`.
        memo.z(&mut base.clone());
        for k in 0..4_000u64 {
            let mut at = base.clone();
            at.jump(match k % 4 {
                0 => walk.gen_range(0..64u64),
                1 => walk.gen_range(0..4 * MEMO_POSITIONS).wrapping_sub(8),
                _ => 2 * walk.gen_range(0..48u64),
            });
            let mut plain = at.clone();
            let z = memo.z(&mut at);
            assert_eq!(z.to_bits(), trial_noise(&mut plain).to_bits(), "trial {k}");
            assert_eq!(at.next_u64(), plain.next_u64(), "trial {k}");
        }
        let kept = memo.z.iter().filter(|z| !z.is_nan()).count();
        assert!(
            kept >= 48,
            "the first 48 even positions were hit repeatedly"
        );
        assert!(memo.z.len() as u64 <= MEMO_POSITIONS);
    }

    #[test]
    fn a_run_sizes_the_noise_memo_to_its_positions() {
        // The paper's 4 800 groups per (module, N) as one run: the fresh
        // memo grows once, to exactly those positions, and a replay of
        // the run from the same stream finds them all and grows nothing.
        let surrogate = SurrogateBackend::new();
        let spec = TrialSpec::activation(ApaTiming::best_for_activation());
        let (mut setup, rng) = rig(VendorProfile::mfr_h_m_die(), 7);
        for _ in 0..2 {
            surrogate.run_point(&spec, &mut setup, 8, 4_800, &mut rng.clone(), |_| {});
            let memo = setup.stream_state::<NoiseMemo>();
            assert_eq!(memo.z.len(), 4_800);
            assert_eq!(memo.z.capacity(), 4_800);
            assert!(memo.z.iter().all(|z| !z.is_nan()), "every position kept");
        }
    }

    /// Runs `count` trials of `spec` from `rng` on a fresh mount lent
    /// `slot`: the samples' bits, the stream's next draw, and the slot.
    fn run_lent(
        backend: &dyn PudBackend,
        spec: &TrialSpec,
        group: &GroupSpec,
        slot: StateSlot,
        mut rng: Rng,
        count: usize,
    ) -> (Vec<Option<u64>>, u64, StateSlot) {
        let (mut setup, _) = rig(VendorProfile::mfr_h_m_die(), 7);
        setup.lend_stream_state(slot);
        let samples = (0..count)
            .map(|_| {
                backend
                    .run_trial(spec, &mut setup, group, &mut rng)
                    .map(f64::to_bits)
            })
            .collect();
        (samples, rng.next_u64(), setup.take_stream_state())
    }

    /// How many positions the noise memo in `slot` keeps.
    fn kept_positions(slot: &mut StateSlot) -> usize {
        let (mut probe, _) = rig(VendorProfile::mfr_h_m_die(), 7);
        probe.lend_stream_state(std::mem::take(slot));
        let kept = probe
            .stream_state::<NoiseMemo>()
            .z
            .iter()
            .filter(|z| !z.is_nan())
            .count();
        *slot = probe.take_stream_state();
        kept
    }

    #[test]
    fn a_prefilled_stream_slot_changes_no_sample_or_stream_position() {
        // Earlier mounts fill the slot from other offsets of the stream,
        // and from MAJ5, which escalates longer on the hybrid, so the
        // activation's table answers sit at off-canonical offsets from
        // the memo's origin. The last fill replays the measured run.
        let act = TrialSpec::activation(ApaTiming::best_for_activation());
        let maj = TrialSpec::majx(5, ApaTiming::best_for_majx(), DataPattern::Random);
        let surrogate = SurrogateBackend::new();
        let hybrid = crate::HybridBackend::new(&Recorder::new());
        let (setup, mut rng) = rig(VendorProfile::mfr_h_m_die(), 7);
        let group = group_of(&setup, 32, &mut rng);
        for backend in [&surrogate as &dyn PudBackend, &hybrid] {
            let name = backend.name();
            let (want, want_next, _) =
                run_lent(backend, &act, &group, StateSlot::default(), rng.clone(), 12);
            let mut slot = StateSlot::default();
            for (spec, skip) in [(&maj, 0), (&act, 2), (&act, 1), (&act, 0)] {
                let mut start = rng.clone();
                start.jump(skip);
                slot = run_lent(backend, spec, &group, slot, start, 12).2;
            }
            let filled = kept_positions(&mut slot);
            let (got, got_next, mut slot) = run_lent(backend, &act, &group, slot, rng.clone(), 12);
            assert_eq!(got, want, "{name}");
            assert_eq!(got_next, want_next, "{name}");
            assert!(filled > 0, "{name}: the fills kept no noise");
            assert_eq!(
                kept_positions(&mut slot),
                filled,
                "{name}: the replay found its positions kept"
            );
        }
    }

    #[test]
    fn alternating_instances_on_their_own_mounts_probe_each_key_once() {
        // Two instances take turns on one thread, each on its own mount:
        // a memo lives on its mount, so neither instance's memo answers
        // for the other, and each probes every key once.
        let keys = race_keys();
        let (a, a_probes) = recorded();
        let (b, b_probes) = recorded();
        let (mut rig_a, mut rng_a) = rig(VendorProfile::mfr_h_m_die(), 7);
        let (mut rig_b, mut rng_b) = rig(VendorProfile::mfr_h_m_die(), 7);
        let mut draws = Rng::seed_from_u64(5);
        let groups: Vec<GroupSpec> = keys
            .iter()
            .map(|(_, n)| group_of(&rig_a, *n, &mut draws))
            .collect();
        for _ in 0..2 {
            for ((spec, _), group) in keys.iter().zip(&groups) {
                let sa = a.run_trial(spec, &mut rig_a, group, &mut rng_a);
                let sb = b.run_trial(spec, &mut rig_b, group, &mut rng_b);
                assert_eq!(sa, sb, "both instances read the same physics");
            }
        }
        assert_eq!(a_probes.get(), keys.len() as u64);
        assert_eq!(b_probes.get(), keys.len() as u64);
    }
}
