//! # simra-characterize
//!
//! Experiment runners that regenerate every table and figure of the
//! paper's evaluation (§4–§7): one public `figNN_*` function per figure,
//! each returning a [`report::Table`] whose rows/series match what the
//! paper plots, printed the way the paper reports them.
//!
//! Scale: the paper tests 24 K row groups per module across 18 modules
//! with 10⁴ trials each. [`config::ExperimentConfig::default`] uses a
//! reduced but statistically adequate population and *reports the
//! reduction* via [`config::ExperimentConfig::describe_scale`]; nothing is
//! silently truncated. `paper_scale()` reproduces the full population for
//! long runs.
//!
//! # Example
//!
//! Every figure runner executes against a [`session::Session`] — the
//! owned context carrying the campaign's config, telemetry recorder,
//! backends, and checkpoint state. Sessions are isolated: several can
//! run concurrently in one process, each byte-identical to running
//! alone.
//!
//! ```no_run
//! use simra_characterize::config::ExperimentConfig;
//! use simra_characterize::majx::fig7_majx_patterns;
//! use simra_characterize::Session;
//!
//! let session = Session::new(ExperimentConfig::quick());
//! let table = fig7_majx_patterns(&session);
//! println!("{table}");
//! ```

#![forbid(unsafe_code)]

pub mod activation;
pub mod backend;
pub mod checkpoint;
pub mod config;
pub mod fleet;
pub mod majx;
pub mod mrc;
pub mod observations;
pub mod perdie;
pub mod pool;
pub mod power;
pub mod report;
pub mod session;
pub mod shard;
pub mod spice;
pub mod takeaways;

pub use activation::{
    fig3_activation_timing, fig4a_activation_temperature, fig4b_activation_voltage,
};
pub use backend::sweep_trial_samples;
pub use checkpoint::{merge_sweep_journals, slot_shard, CheckpointError, CheckpointSession};
pub use config::ExperimentConfig;
pub use fleet::{
    collect_group_samples_serial, run_sweep, run_sweep_on, FailureCause, FleetClock, FleetCoverage,
    FleetOutcome, FleetPolicy, MockClock, ModuleResult, SweepPoint, SystemClock,
};
pub use majx::{fig6_maj3_timing, fig7_majx_patterns, fig8_majx_temperature, fig9_majx_voltage};
pub use mrc::{fig10_mrc_timing, fig11_mrc_patterns, fig12a_mrc_temperature, fig12b_mrc_voltage};
pub use observations::{check_observations, FigureSet, ObservationReport};
pub use perdie::per_die_breakdown;
pub use power::fig5_power;
pub use report::Table;
pub use session::Session;
pub use shard::{MergeReport, ShardCoordinator, ShardError};
pub use spice::fig15_spice;
pub use takeaways::{derive_takeaways, scoreboard_quorum, TakeawayReport};
