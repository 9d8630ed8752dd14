//! # simra-exec
//!
//! The execution layer between the PUD operations ([`simra_core`]) and
//! everything that sweeps them (`simra-characterize`, `simra-casestudy`,
//! the `repro` CLI): a single [`PudBackend`] trait that executes one
//! activation / MAJX / Multi-RowCopy trial against a mounted module, and
//! three implementations of it.
//!
//! * [`AnalogBackend`] runs the full analog pipeline — the trial spec is
//!   translated into exactly the `simra_core` op calls (and RNG draws)
//!   the figure runners used to make inline, so a sweep dispatched
//!   through the trait is **byte-identical** to the pre-trait code.
//! * [`SurrogateBackend`] replaces the per-trial cell physics with a
//!   success-probability table calibrated *once* from the analog core
//!   per vendor profile — keyed by (operation, N, timing, pattern,
//!   operating point) — and samples a cheap normal-approximated
//!   Bernoulli average per trial, whose noise it keeps once per stream
//!   position in the stream's [`TestSetup::stream_state`]. Orders of
//!   magnitude faster; see the module docs of [`surrogate`] for the
//!   calibration procedure and the documented error band.
//! * [`HybridBackend`] keeps per-point Wilson-score confidence
//!   intervals over observed analog trials and answers from the
//!   surrogate's table only once a point's estimate has converged, is
//!   consistent with the table, and is decisively clear of every
//!   observation threshold — escalating ambiguous points to the analog
//!   core with sequential early stopping. It owns the surrogate it
//!   answers from, and keeps its escalation state on the rig mount it
//!   measures ([`TestSetup::backend_state`]). Module docs of [`hybrid`]
//!   give the decision rule and the determinism argument.
//!
//! A characterization session holds one [`HybridBackend`]: its
//! surrogate is the session's only calibration table, and the analog
//! backend is stateless. [`manifest`] fingerprints a sweep for the
//! checkpoint journals.
//!
//! The trait's contract mirrors the fleet executor's op signature
//! (`Fn(&P, &mut TestSetup, &GroupSpec, &mut Rng) -> Option<f64>`),
//! so a backend drops into `run_sweep` as a closure capture; the row
//! count N still lives on the sweep point and arrives here via the
//! [`GroupSpec`]. [`PudBackend::run_trials`] takes a whole task's groups
//! in one call, as the compact [`GroupPick`]s the session drew, which is
//! how the figure sweeps dispatch: the surrogate reads only N and the
//! count from them, the hybrid resolves a pick's rows only when it
//! escalates that group, and the analog backend keeps the default loop,
//! which resolves every pick.

#![forbid(unsafe_code)]

pub mod hybrid;
pub mod manifest;
pub mod surrogate;

use simra_bender::TestSetup;
use simra_core::act::activation_success;
use simra_core::maj::{majx_success, MajConfig};
use simra_core::multirowcopy::multirowcopy_success;
use simra_core::rowgroup::{GroupPick, GroupSpec};
use simra_dram::{ApaTiming, BitRow, DataPattern, Manufacturer, Rng, VendorProfile};

pub use hybrid::HybridBackend;
pub use manifest::{
    stable_digest, ManifestError, PointDigest, ShardSpec, SweepManifest,
    SWEEP_MANIFEST_SCHEMA_VERSION,
};
pub use surrogate::SurrogateBackend;

/// Which backend executes a trial. One per campaign: read from the
/// experiment config, which `repro --backend` sets.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum BackendChoice {
    /// The full analog pipeline (the reference; byte-identical output).
    #[default]
    Analog,
    /// The calibrated fast surrogate.
    Surrogate,
    /// Confidence-gated adaptive mix: table answers where certain,
    /// analog escalation where ambiguous.
    Hybrid,
}

impl std::fmt::Display for BackendChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            BackendChoice::Analog => "analog",
            BackendChoice::Surrogate => "surrogate",
            BackendChoice::Hybrid => "hybrid",
        })
    }
}

impl std::str::FromStr for BackendChoice {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "analog" => Ok(BackendChoice::Analog),
            "surrogate" => Ok(BackendChoice::Surrogate),
            "hybrid" => Ok(BackendChoice::Hybrid),
            other => Err(format!(
                "unknown backend: {other:?} (expected analog | surrogate | hybrid)"
            )),
        }
    }
}

/// Source image for a Multi-RowCopy trial.
///
/// The two random variants exist because the pre-trait code had two
/// RNG-consumption conventions and byte-identity requires preserving
/// both: the figure runners drew one `bool` per column
/// ([`MrcSource::RandomBits`]), while the per-die table drew packed
/// 64-bit words ([`MrcSource::RandomRow`]). The distributions are the
/// same; the stream positions are not.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MrcSource {
    /// All zeros.
    AllZeros,
    /// All ones (the pattern that dips at 31 destinations, Obs. 16).
    AllOnes,
    /// Uniform random, drawn bit by bit (one `bool` per column).
    RandomBits,
    /// Uniform random, drawn word by word (`BitRow::random`).
    RandomRow,
}

impl MrcSource {
    /// Materializes the source image, consuming `rng` exactly as the
    /// pre-trait call sites did.
    pub fn image(self, cols: usize, rng: &mut Rng) -> BitRow {
        match self {
            MrcSource::AllZeros => BitRow::zeros(cols),
            MrcSource::AllOnes => BitRow::ones(cols),
            MrcSource::RandomBits => BitRow::from_bits((0..cols).map(|_| rng.gen())),
            MrcSource::RandomRow => BitRow::random(rng, cols),
        }
    }
}

/// The operation a trial performs. The simultaneously activated row
/// count N is *not* here — it lives on the sweep point / group spec.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TrialOp {
    /// N-row activation success (§4).
    Activation {
        /// APA timing pair.
        timing: ApaTiming,
        /// Data pattern written before the activation.
        pattern: DataPattern,
    },
    /// MAJX with input replication (§5).
    Majx {
        /// Operand count (3, 5, 7, 9).
        x: usize,
        /// APA timing pair.
        timing: ApaTiming,
        /// Operand data pattern.
        pattern: DataPattern,
    },
    /// Multi-RowCopy to N − 1 destinations (§6).
    MultiRowCopy {
        /// APA timing pair.
        timing: ApaTiming,
        /// Source-row image.
        source: MrcSource,
    },
}

/// One trial to execute: the operation plus optional operating-point
/// overrides (`None` = the rig's nominal 50 °C / 2.5 V).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrialSpec {
    /// The operation under test.
    pub op: TrialOp,
    /// Ambient temperature override (°C).
    pub temperature_c: Option<f64>,
    /// Wordline voltage override (V).
    pub vpp_v: Option<f64>,
}

impl TrialSpec {
    /// An activation trial with random data at nominal conditions.
    pub fn activation(timing: ApaTiming) -> Self {
        TrialSpec {
            op: TrialOp::Activation {
                timing,
                pattern: DataPattern::Random,
            },
            temperature_c: None,
            vpp_v: None,
        }
    }

    /// A MAJX trial at nominal conditions.
    pub fn majx(x: usize, timing: ApaTiming, pattern: DataPattern) -> Self {
        TrialSpec {
            op: TrialOp::Majx { x, timing, pattern },
            temperature_c: None,
            vpp_v: None,
        }
    }

    /// A Multi-RowCopy trial at nominal conditions.
    pub fn multirowcopy(timing: ApaTiming, source: MrcSource) -> Self {
        TrialSpec {
            op: TrialOp::MultiRowCopy { timing, source },
            temperature_c: None,
            vpp_v: None,
        }
    }

    /// The same trial at an ambient temperature (°C).
    pub fn at_temperature(mut self, t: f64) -> Self {
        self.temperature_c = Some(t);
        self
    }

    /// The same trial at a wordline voltage (V).
    pub fn at_vpp(mut self, v: f64) -> Self {
        self.vpp_v = Some(v);
        self
    }

    /// Whether a `profile` part cannot perform this trial at all.
    /// Footnote 11: MAJ9 and wider never work on Mfr. M parts, and the
    /// paper omits those points. Every backend asks this first, before
    /// the operating point is set, the stream is drawn or a calibration
    /// probe runs.
    pub fn unsupported_on(&self, profile: &VendorProfile) -> bool {
        matches!(self.op, TrialOp::Majx { x, .. } if x >= 9)
            && profile.manufacturer == Manufacturer::M
    }
}

/// The single contract for executing a PUD trial against a mounted
/// module: everything above this trait (figure runners, the fleet
/// scheduler, case studies, the CLI) is backend-generic.
///
/// A trial returns the success fraction in `[0, 1]`, or `None` when the
/// part cannot perform the operation (MAJ9 on Mfr. M, N < X, a guarded
/// Samsung APA) — exactly the convention of the fleet executor's op
/// closures, whose samples skip `None`.
///
/// [`run_trials`](Self::run_trials) runs a whole list of groups in one
/// call — what the fleet hands a backend per (module, point) task, and
/// what a per-profile table or a throughput probe measures. It takes the
/// groups as drawn, compact [`GroupPick`]s, and its result is, bit for
/// bit, that of the [`run_trial`](Self::run_trial) loop over the
/// resolved groups; an override only does once per call (or per run of
/// equal-N groups) what the loop would redo per trial, and resolves a
/// pick only where a trial reads its rows.
pub trait PudBackend: Send + Sync {
    /// Short stable name (`"analog"` / `"surrogate"`), for reports.
    fn name(&self) -> &'static str;

    /// Executes one trial on `group` of the mounted module.
    fn run_trial(
        &self,
        spec: &TrialSpec,
        setup: &mut TestSetup,
        group: &GroupSpec,
        rng: &mut Rng,
    ) -> Option<f64>;

    /// Executes one trial on each of `groups` in order, on one stream,
    /// and appends the `Some` results to `samples`: exactly the loop of
    /// [`run_trial`](Self::run_trial) calls on the groups resolved on the
    /// mounted module's geometry, which is the default.
    fn run_trials(
        &self,
        spec: &TrialSpec,
        setup: &mut TestSetup,
        groups: &[GroupPick],
        rng: &mut Rng,
        samples: &mut Vec<f64>,
    ) {
        let geometry = *setup.module().geometry();
        samples.extend(
            groups
                .iter()
                .filter_map(|pick| self.run_trial(spec, setup, &pick.resolve(&geometry), rng)),
        );
    }
}

/// The reference backend: the full analog pipeline, dispatched through
/// the trait.
///
/// Byte-identity contract: for every [`TrialOp`] this performs the same
/// calls, in the same order, with the same RNG consumption, as the
/// closures the figure runners inlined before the trait existed —
/// operating-point overrides are applied temperature first, then V_PP,
/// and the Mfr. M MAJ9 guard returns before anything is touched. The
/// golden tests in `tests/backend_identity.rs` pin this down.
#[derive(Debug, Clone, Copy, Default)]
pub struct AnalogBackend;

impl PudBackend for AnalogBackend {
    fn name(&self) -> &'static str {
        "analog"
    }

    fn run_trial(
        &self,
        spec: &TrialSpec,
        setup: &mut TestSetup,
        group: &GroupSpec,
        rng: &mut Rng,
    ) -> Option<f64> {
        if spec.unsupported_on(setup.module().profile()) {
            return None;
        }
        match spec.op {
            TrialOp::Activation { timing, pattern } => {
                apply_operating_point(spec, setup);
                activation_success(setup, group, timing, pattern, rng).ok()
            }
            TrialOp::Majx { x, timing, pattern } => {
                apply_operating_point(spec, setup);
                let maj_config = MajConfig::default();
                majx_success(setup, group, x, timing, pattern, &maj_config, rng).ok()
            }
            TrialOp::MultiRowCopy { timing, source } => {
                apply_operating_point(spec, setup);
                let cols = setup.module().geometry().cols_per_row as usize;
                let img = source.image(cols, rng);
                multirowcopy_success(setup, group, timing, &img).ok()
            }
        }
    }
}

/// Applies a spec's operating-point overrides to the rig, temperature
/// first — the order every pre-trait op closure used.
fn apply_operating_point(spec: &TrialSpec, setup: &mut TestSetup) {
    if let Some(t) = spec.temperature_c {
        setup
            .set_temperature(t)
            .expect("swept temperature is in range");
    }
    if let Some(v) = spec.vpp_v {
        setup.set_vpp(v).expect("swept V_PP is in range");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simra_analog::EngineCounters;
    use simra_bender::StateSlot;
    use simra_core::rowgroup::{random_group, sample_groups};
    use simra_dram::{BankId, SubarrayId, VendorProfile};
    use simra_telemetry::{CounterSnapshot, HistogramSnapshot, Recorder};

    fn rig(profile: VendorProfile, seed: u64) -> (TestSetup, Rng) {
        (
            TestSetup::with_module(simra_dram::DramModule::new(profile, seed)),
            Rng::seed_from_u64(11),
        )
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

    #[test]
    fn backend_choice_round_trips_display_and_parse() {
        for choice in [
            BackendChoice::Analog,
            BackendChoice::Surrogate,
            BackendChoice::Hybrid,
        ] {
            let parsed: BackendChoice = choice.to_string().parse().unwrap();
            assert_eq!(parsed, choice);
        }
        assert!("fast".parse::<BackendChoice>().is_err());
        assert_eq!(BackendChoice::default(), BackendChoice::Analog);
    }

    #[test]
    fn analog_backend_matches_direct_op_calls() {
        // The trait dispatch must consume the stream exactly like the
        // direct call, so identical seeds give identical samples.
        let (mut setup_a, mut rng_a) = rig(VendorProfile::mfr_h_m_die(), 7);
        let (mut setup_b, mut rng_b) = rig(VendorProfile::mfr_h_m_die(), 7);
        let group_a = group_of(&setup_a, 32, &mut rng_a);
        let group_b = group_of(&setup_b, 32, &mut rng_b);
        assert_eq!(group_a, group_b);

        let spec = TrialSpec::activation(ApaTiming::best_for_activation());
        let via_trait = AnalogBackend.run_trial(&spec, &mut setup_a, &group_a, &mut rng_a);
        let direct = activation_success(
            &mut setup_b,
            &group_b,
            ApaTiming::best_for_activation(),
            DataPattern::Random,
            &mut rng_b,
        )
        .ok();
        assert_eq!(via_trait, direct);

        let spec = TrialSpec::majx(3, ApaTiming::best_for_majx(), DataPattern::Random)
            .at_temperature(70.0);
        let via_trait = AnalogBackend.run_trial(&spec, &mut setup_a, &group_a, &mut rng_a);
        setup_b.set_temperature(70.0).unwrap();
        let direct = majx_success(
            &mut setup_b,
            &group_b,
            3,
            ApaTiming::best_for_majx(),
            DataPattern::Random,
            &MajConfig::default(),
            &mut rng_b,
        )
        .ok();
        assert_eq!(via_trait, direct);
        // Identical residual stream state after the calls.
        assert_eq!(rng_a.gen::<u64>(), rng_b.gen::<u64>());
    }

    #[test]
    fn maj9_on_mfr_m_is_refused_without_touching_the_stream() {
        let (mut setup, mut rng) = rig(VendorProfile::mfr_m_e_die(), 3);
        let group = group_of(&setup, 16, &mut rng);
        let mut probe = rng.clone();
        let spec = TrialSpec::majx(9, ApaTiming::best_for_majx(), DataPattern::Random)
            .at_temperature(90.0);
        assert_eq!(
            AnalogBackend.run_trial(&spec, &mut setup, &group, &mut rng),
            None
        );
        assert_eq!(rng.gen::<u64>(), probe.gen::<u64>(), "stream untouched");
    }

    /// A fresh instance of the backend `name`s, reporting to `recorder`.
    fn fresh_backend(name: &str, recorder: &Recorder) -> Box<dyn PudBackend> {
        match name {
            "analog" => Box::new(AnalogBackend),
            "surrogate" => Box::new(SurrogateBackend::recorded_by(recorder)),
            _ => Box::new(HybridBackend::new(recorder)),
        }
    }

    /// Group lists run in turn on one mount, all from one stream.
    struct Case {
        label: &'static str,
        profile: VendorProfile,
        spec: TrialSpec,
        calls: Vec<Vec<GroupPick>>,
        /// Whether any trial returns a sample; if none does, none may
        /// draw from the stream either.
        measured: bool,
        /// A point whose trials another mount ran on the same stream
        /// first, filling the slot this case's mount borrows.
        prefill: Option<TrialSpec>,
    }

    /// What a case leaves behind on one backend.
    #[derive(Debug, PartialEq)]
    struct Trace {
        samples: Vec<u64>,
        next_draw: u64,
        /// Every counter and histogram of the backend and the mount's
        /// engine: calibration probes, the hybrid's decisions, sense ops.
        counters: Vec<CounterSnapshot>,
        histograms: Vec<HistogramSnapshot>,
        /// The hybrid's analog trials on each N of the case (0 elsewhere).
        analog_trials_spent: Vec<u32>,
    }

    const STREAM_SEED: u64 = 11;

    /// Runs the case's calls of `spec` on a fresh mount of its profile
    /// lent `slot`, through a fresh `name` backend's `run_trials` on the
    /// picks when `batched`, else through its `run_trial` loop on the
    /// resolved groups. Returns what the mount, the recorder and the
    /// stream hold afterwards, and the slot.
    fn run_case(
        name: &str,
        case: &Case,
        spec: &TrialSpec,
        batched: bool,
        slot: StateSlot,
    ) -> (Trace, StateSlot) {
        let recorder = Recorder::new();
        recorder.enable();
        let backend = fresh_backend(name, &recorder);
        let module = simra_dram::DramModule::new(case.profile.clone(), 7);
        let mut setup = TestSetup::with_module(module);
        setup.set_engine_counters(EngineCounters::recorded_by(&recorder));
        setup.lend_stream_state(slot);
        let mut rng = Rng::seed_from_u64(STREAM_SEED);
        let mut samples = Vec::new();
        for groups in &case.calls {
            if batched {
                backend.run_trials(spec, &mut setup, groups, &mut rng, &mut samples);
            } else {
                for pick in groups {
                    let group = pick.resolve(&case.profile.geometry);
                    samples.extend(backend.run_trial(spec, &mut setup, &group, &mut rng));
                }
            }
        }
        let mut ns: Vec<u32> = case
            .calls
            .iter()
            .flatten()
            .map(|g| g.n_rows() as u32)
            .collect();
        ns.sort_unstable();
        ns.dedup();
        let snapshot = recorder.snapshot();
        let trace = Trace {
            samples: samples.into_iter().map(f64::to_bits).collect(),
            next_draw: rng.next_u64(),
            counters: snapshot.counters,
            histograms: snapshot.histograms,
            analog_trials_spent: ns
                .iter()
                .map(|&n| hybrid::analog_trials_spent(&mut setup, spec, n))
                .collect(),
        };
        (trace, setup.take_stream_state())
    }

    #[test]
    fn run_trials_equals_the_run_trial_loop_on_every_backend() {
        let h = VendorProfile::mfr_h_m_die();
        let m = VendorProfile::mfr_m_e_die();
        let groups = |profile: &VendorProfile, ns: &[u32]| -> Vec<GroupPick> {
            let geometry = profile.geometry;
            let mut draw = Rng::seed_from_u64(5);
            ns.iter()
                .map(|&n| sample_groups(&geometry, n, 1, 1, 1, &mut draw).remove(0))
                .collect()
        };
        let act = TrialSpec::activation(ApaTiming::best_for_activation());
        let maj = |x| TrialSpec::majx(x, ApaTiming::best_for_majx(), DataPattern::Random);
        let mrc =
            TrialSpec::multirowcopy(ApaTiming::best_for_multi_row_copy(), MrcSource::RandomBits);
        let case = |label, profile: &VendorProfile, spec, calls: Vec<Vec<u32>>| Case {
            label,
            profile: profile.clone(),
            spec,
            calls: calls.iter().map(|ns| groups(profile, ns)).collect(),
            measured: true,
            prefill: None,
        };
        let cases = [
            case("activation", &h, act, vec![vec![8; 12]]),
            case("MAJ5", &h, maj(5), vec![vec![16; 12]]),
            case("Multi-RowCopy", &h, mrc, vec![vec![8; 12]]),
            Case {
                measured: false,
                ..case("MAJ9 on Mfr. M", &m, maj(9), vec![vec![16; 6]])
            },
            Case {
                measured: false,
                ..case("MAJ7 at N = 4", &h, maj(7), vec![vec![4; 6]])
            },
            Case {
                measured: false,
                ..case("an empty slice", &h, act, vec![vec![]])
            },
            case("mixed N", &h, maj(3), vec![vec![4, 4, 8, 8, 8, 4, 8, 4, 4]]),
            Case {
                prefill: Some(act.at_temperature(70.0)),
                ..case("a pre-filled slot", &h, act, vec![vec![8; 12]])
            },
            case("a decided point", &h, act, vec![vec![8; 6], vec![8; 6]]),
        ];
        let untouched = Rng::seed_from_u64(STREAM_SEED).next_u64();
        for case in &cases {
            for name in ["analog", "surrogate", "hybrid"] {
                let label = format!("{name}: {}", case.label);
                let slot = || match &case.prefill {
                    Some(other) => run_case(name, case, other, false, StateSlot::default()).1,
                    None => StateSlot::default(),
                };
                let (want, _) = run_case(name, case, &case.spec, false, slot());
                let (got, _) = run_case(name, case, &case.spec, true, slot());
                assert_eq!(got, want, "{label}");
                assert_eq!(!got.samples.is_empty(), case.measured, "{label}");
                if !case.measured {
                    assert_eq!(got.next_draw, untouched, "{label}: the stream moved");
                }
                if name == "hybrid" && case.label == "a decided point" {
                    // One floor trial decides the point in the first call,
                    // so the second call answers every trial from it.
                    assert_eq!(got.analog_trials_spent, [1], "{label}");
                }
            }
        }
    }

    #[test]
    fn mrc_sources_cover_both_random_conventions() {
        let mut rng_bits = Rng::seed_from_u64(5);
        let mut rng_row = Rng::seed_from_u64(5);
        let bits = MrcSource::RandomBits.image(128, &mut rng_bits);
        let row = MrcSource::RandomRow.image(128, &mut rng_row);
        assert_eq!(bits.len(), 128);
        assert_eq!(row.len(), 128);
        // Same seed, different conventions — different stream positions.
        assert_ne!(rng_bits.gen::<u64>(), rng_row.gen::<u64>());
        assert_eq!(MrcSource::AllZeros.image(64, &mut rng_bits).count_ones(), 0);
        assert_eq!(MrcSource::AllOnes.image(64, &mut rng_bits).count_ones(), 64);
    }
}
