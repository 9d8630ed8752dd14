//! The experimental rig: module under test + temperature controller +
//! programmable V_PP supply (Fig. 2 components 3–6).
//!
//! One [`TestSetup`] is one mount: one module clamped in the rig for one
//! measurement (§3.1 of the paper). A stateful backend keeps what it
//! learns during the measurement in the mount's
//! [`backend_state`](TestSetup::backend_state), which drops with it, and
//! what it knows of the RNG stream the measurement replays in its
//! [`stream_state`](TestSetup::stream_state). A campaign replays one
//! stream at every sweep point of one (module, N), so the fleet keeps
//! that stream's slot for the campaign, lends it to each of those
//! mounts and takes it back with the rig.

use std::any::Any;

use simra_analog::{ApaEngine, CircuitParams, EngineCounters, OperatingConditions};
use simra_dram::{DramModule, VendorProfile};

/// Temperature range of the MaxWell FT200 controller as used in the paper.
pub const TEMPERATURE_RANGE_C: (f64, f64) = (50.0, 90.0);
/// V_PP range swept in the paper with the TTi PL068-P supply.
pub const VPP_RANGE_V: (f64, f64) = (2.1, 2.5);
/// The supply's setting precision (±1 mV).
pub const VPP_PRECISION_V: f64 = 0.001;

/// Errors from configuring the rig.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SetupError {
    /// Requested temperature is outside the controller's range.
    TemperatureOutOfRange(f64),
    /// Requested V_PP is outside the supply's safe range.
    VppOutOfRange(f64),
}

impl std::fmt::Display for SetupError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SetupError::TemperatureOutOfRange(t) => {
                write!(f, "temperature {t} °C outside controller range 50–90 °C")
            }
            SetupError::VppOutOfRange(v) => {
                write!(f, "V_PP {v} V outside supply range 2.1–2.5 V")
            }
        }
    }
}

impl std::error::Error for SetupError {}

/// What a backend keeps between trials: empty until first use, then one
/// value of the type last asked for.
#[derive(Debug, Default)]
pub struct StateSlot(Option<Box<dyn Any + Send + Sync>>);

impl StateSlot {
    /// The slot's `T`, created as `T::default()` on first use; a request
    /// for another type replaces the value with a fresh default.
    fn get<T: Any + Default + Send + Sync>(&mut self) -> &mut T {
        let state = self.0.get_or_insert_with(|| Box::<T>::default());
        if !state.is::<T>() {
            *state = Box::<T>::default();
        }
        state.downcast_mut().expect("the slot holds a T")
    }
}

/// One DRAM module clamped in the rig, at a controlled operating point.
///
/// Not `Clone`: every mount is its own measurement, and its
/// [`backend_state`](Self::backend_state) belongs to that one alone.
#[derive(Debug)]
pub struct TestSetup {
    module: DramModule,
    conditions: OperatingConditions,
    /// Circuit-parameter override for ablation studies (None = the
    /// calibrated defaults).
    params_override: Option<CircuitParams>,
    /// Engine op-counter handles every [`engine`](Self::engine) call
    /// inherits. Observational only (never compared): a freshly mounted
    /// rig counts into a fresh, disabled recorder until a session
    /// re-binds it with [`set_engine_counters`](Self::set_engine_counters).
    engine_counters: EngineCounters,
    /// What a stateful backend keeps for this mount (see
    /// [`backend_state`](Self::backend_state)). Never compared.
    backend_state: StateSlot,
    /// What a backend keeps for the RNG stream this mount replays,
    /// lent by the caller or the mount's own (see
    /// [`stream_state`](Self::stream_state)). Never compared.
    stream_state: StateSlot,
}

/// Rigs compare by experimental state (module, operating point, param
/// override); the telemetry destination and the backend and stream
/// state are not part of it.
impl PartialEq for TestSetup {
    fn eq(&self, other: &Self) -> bool {
        self.module == other.module
            && self.conditions == other.conditions
            && self.params_override == other.params_override
    }
}

impl TestSetup {
    /// Mounts a fresh module (vendor `profile`, silicon stamped from
    /// `seed`) at the nominal operating point (50 °C, 2.5 V).
    pub fn new(profile: VendorProfile, seed: u64) -> Self {
        TestSetup::with_module(DramModule::new(profile, seed))
    }

    /// Mounts an existing module, with no backend or stream state yet.
    pub fn with_module(module: DramModule) -> Self {
        TestSetup {
            module,
            conditions: OperatingConditions::nominal(),
            params_override: None,
            engine_counters: EngineCounters::default(),
            backend_state: StateSlot::default(),
            stream_state: StateSlot::default(),
        }
    }

    /// The state a stateful backend keeps for this mount, created as
    /// `T::default()` on first use. A mount serves one backend, so a
    /// request for another type replaces the state with a fresh default.
    /// It drops with the mount: a new mount of the module starts clean.
    pub fn backend_state<T: Any + Default + Send + Sync>(&mut self) -> &mut T {
        self.backend_state.get()
    }

    /// What a backend keeps about the RNG stream this mount's trials
    /// replay, created as `T::default()` on first use like
    /// [`backend_state`](Self::backend_state). It must be a pure cache of
    /// stream positions: the slot may have served other mounts that
    /// replayed the same stream, and a lender may drop it at any time.
    /// Without a [`lend_stream_state`](Self::lend_stream_state) it is the
    /// mount's own and drops with it.
    pub fn stream_state<T: Any + Default + Send + Sync>(&mut self) -> &mut T {
        self.stream_state.get()
    }

    /// Lends this mount the stream slot of the stream its trials replay,
    /// in place of its own.
    pub fn lend_stream_state(&mut self, slot: StateSlot) {
        self.stream_state = slot;
    }

    /// Takes the stream slot back, leaving the mount an empty one of its
    /// own. A panic before this drops the lent slot with the rig.
    pub fn take_stream_state(&mut self) -> StateSlot {
        std::mem::take(&mut self.stream_state)
    }

    /// Redirects the op counters of every engine this rig builds (e.g.
    /// into a session-owned recorder).
    pub fn set_engine_counters(&mut self, counters: EngineCounters) {
        self.engine_counters = counters;
    }

    /// Overrides the analog circuit parameters — the hook for ablation
    /// studies (e.g. "what if the first row did not over-share?").
    /// Pass `None` to restore the calibrated defaults.
    pub fn set_circuit_params(&mut self, params: Option<CircuitParams>) {
        self.params_override = params;
    }

    /// The module under test.
    pub fn module(&self) -> &DramModule {
        &self.module
    }

    /// Mutable access to the module under test.
    pub fn module_mut(&mut self) -> &mut DramModule {
        &mut self.module
    }

    /// Unmounts the module from the rig, consuming the setup and
    /// dropping its backend and stream state. The fleet's rig pool uses
    /// this to carry one `DramModule` across sweep points instead of
    /// rebuilding it per point.
    pub fn into_module(self) -> DramModule {
        self.module
    }

    /// Current operating conditions.
    pub fn conditions(&self) -> OperatingConditions {
        self.conditions
    }

    /// Sets the chip temperature (clamped heater, §3.1).
    ///
    /// # Errors
    ///
    /// Returns [`SetupError::TemperatureOutOfRange`] outside 50–90 °C.
    pub fn set_temperature(&mut self, celsius: f64) -> Result<(), SetupError> {
        if !(TEMPERATURE_RANGE_C.0..=TEMPERATURE_RANGE_C.1).contains(&celsius) {
            return Err(SetupError::TemperatureOutOfRange(celsius));
        }
        self.conditions.temperature_c = celsius;
        Ok(())
    }

    /// Sets the wordline voltage, quantised to the supply's ±1 mV
    /// precision.
    ///
    /// # Errors
    ///
    /// Returns [`SetupError::VppOutOfRange`] outside 2.1–2.5 V.
    pub fn set_vpp(&mut self, volts: f64) -> Result<(), SetupError> {
        if !(VPP_RANGE_V.0..=VPP_RANGE_V.1).contains(&volts) {
            return Err(SetupError::VppOutOfRange(volts));
        }
        self.conditions.vpp_v = (volts / VPP_PRECISION_V).round() * VPP_PRECISION_V;
        Ok(())
    }

    /// An analog engine bound to the mounted module's vendor quirks and
    /// the rig's current operating point, reporting to the rig's
    /// counter handles.
    pub fn engine(&self) -> ApaEngine {
        let params = self
            .params_override
            .unwrap_or_else(CircuitParams::calibrated);
        ApaEngine::with_counters(
            params,
            self.conditions,
            self.module.profile().biased_sense_amps,
            self.engine_counters.clone(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::AssertUnwindSafe;
    use std::sync::Arc;

    #[test]
    fn conditions_round_trip() {
        let mut s = TestSetup::new(VendorProfile::mfr_h_m_die(), 3);
        s.set_temperature(70.0).unwrap();
        s.set_vpp(2.3).unwrap();
        assert_eq!(s.conditions().temperature_c, 70.0);
        assert!((s.conditions().vpp_v - 2.3).abs() < 1e-9);
    }

    /// Backend state that counts its live copies through the `Arc`.
    type Held = Option<Arc<()>>;

    #[test]
    fn backend_state_lives_and_dies_with_the_mount() {
        let held = Arc::new(());
        let mut a = TestSetup::new(VendorProfile::mfr_h_m_die(), 3);
        *a.backend_state::<Held>() = Some(held.clone());
        *a.backend_state::<Held>() = Some(held.clone());
        assert_eq!(Arc::strong_count(&held), 2, "one state per mount");
        let b = TestSetup::with_module(a.module().clone());
        assert_eq!(a, b, "backend state is not experimental state");
        // Unmounting drops the state; a remount of the module starts clean.
        let mut remount = TestSetup::with_module(a.into_module());
        assert_eq!(Arc::strong_count(&held), 1);
        assert!(remount.backend_state::<Held>().is_none());
        // Asking for another type replaces the state.
        *remount.backend_state::<Held>() = Some(held.clone());
        assert_eq!(*remount.backend_state::<u32>(), 0);
        assert_eq!(Arc::strong_count(&held), 1);
        // A panic mid-measurement drops it with the rig.
        let unwound = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let mut rig = TestSetup::with_module(b.into_module());
            *rig.backend_state::<Held>() = Some(held.clone());
            panic!("measurement failed");
        }));
        assert!(unwound.is_err());
        assert_eq!(Arc::strong_count(&held), 1);
    }

    #[test]
    fn a_lent_stream_slot_serves_each_borrower_and_drops_on_a_panic() {
        let held = Arc::new(());
        let mut a = TestSetup::new(VendorProfile::mfr_h_m_die(), 3);
        *a.stream_state::<Held>() = Some(held.clone());
        assert!(a.backend_state::<Held>().is_none(), "two separate slots");
        // Taken back, the slot carries its state to the next mount.
        let slot = a.take_stream_state();
        assert!(
            a.stream_state::<Held>().is_none(),
            "the lender left it empty"
        );
        let mut b = TestSetup::with_module(a.into_module());
        b.lend_stream_state(slot);
        assert!(b.stream_state::<Held>().is_some());
        assert_eq!(Arc::strong_count(&held), 2);
        // A panic mid-measurement drops the lent slot with the rig.
        let unwound = std::panic::catch_unwind(AssertUnwindSafe(move || {
            let _rig = b;
            panic!("measurement failed");
        }));
        assert!(unwound.is_err());
        assert_eq!(Arc::strong_count(&held), 1);
    }

    #[test]
    fn into_module_round_trips_the_mounted_module() {
        let module = DramModule::new(VendorProfile::mfr_m_e_die(), 42);
        let expected = module.clone();
        let s = TestSetup::with_module(module);
        assert_eq!(s.into_module(), expected);
    }

    #[test]
    fn ranges_enforced() {
        let mut s = TestSetup::new(VendorProfile::mfr_h_m_die(), 3);
        assert!(s.set_temperature(25.0).is_err());
        assert!(s.set_temperature(95.0).is_err());
        assert!(s.set_vpp(1.8).is_err());
        assert!(s.set_vpp(2.6).is_err());
    }

    #[test]
    fn vpp_quantised_to_millivolts() {
        let mut s = TestSetup::new(VendorProfile::mfr_h_m_die(), 3);
        s.set_vpp(2.34567).unwrap();
        assert!((s.conditions().vpp_v - 2.346).abs() < 1e-9);
    }

    #[test]
    fn circuit_param_override_is_honoured() {
        let mut s = TestSetup::new(VendorProfile::mfr_h_m_die(), 3);
        let mut p = CircuitParams::calibrated();
        p.overshare_per_ns = 0.0;
        s.set_circuit_params(Some(p));
        assert_eq!(s.engine().params().overshare_per_ns, 0.0);
        s.set_circuit_params(None);
        assert!(s.engine().params().overshare_per_ns > 0.0);
    }

    #[test]
    fn engine_reflects_conditions() {
        let mut s = TestSetup::new(VendorProfile::mfr_m_e_die(), 3);
        s.set_temperature(90.0).unwrap();
        let e = s.engine();
        assert!(e.biased_amps());
        assert_eq!(e.conditions().temperature_c, 90.0);
    }
}
