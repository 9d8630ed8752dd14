//! # simra-dram
//!
//! Behavioural DDR4 device model: the storage substrate for the
//! SiMRA-DRAM reproduction.
//!
//! The paper characterizes 120 real DDR4 chips; this crate provides the
//! synthetic stand-in — a module/bank/subarray/cell hierarchy with
//! *analog* per-cell state (stored voltage, capacitance variation,
//! access-transistor strength) so that the charge-sharing model in
//! `simra-analog` can compute bitline perturbations the same way the
//! silicon does.
//!
//! What lives here:
//! * [`geometry`] — typed addresses and chip organisation,
//! * [`timing`] — JEDEC DDR4 timing parameters and the 1.5 ns issue grid,
//! * [`command`] — the DDR command vocabulary,
//! * [`data`] — data patterns and packed row images,
//! * [`subarray`], [`bank`], [`module`] — the storage hierarchy,
//! * [`silicon`] — shared immutable variation planes, each row stamped on
//!   its first read, + the silicon cache,
//! * [`faults`] — deterministic cell-defect overlays (stuck cells,
//!   sense-offset drift) drawn from a dedicated RNG stream,
//! * [`protocol`] — a JEDEC checker that names each violated timing rule,
//! * [`rng`] — the workspace's one random-number generator ([`Rng`],
//!   splitmix64), which every sampled group and data pattern draws from,
//! * [`vendor`] — manufacturer profiles (Mfr. H, Mfr. M, Mfr. S) matching
//!   Table 1/2 of the paper.
//!
//! # Example
//!
//! ```
//! use simra_dram::vendor::VendorProfile;
//! use simra_dram::module::DramModule;
//!
//! let module = DramModule::new(VendorProfile::mfr_h_m_die(), 7);
//! assert_eq!(module.geometry().rows_per_subarray, 512);
//! ```

#![forbid(unsafe_code)]

pub mod bank;
pub mod command;
pub mod data;
pub mod error;
pub mod faults;
pub mod geometry;
pub mod module;
pub mod protocol;
pub mod rng;
pub mod silicon;
pub mod subarray;
pub mod timing;
pub mod vendor;

pub use bank::Bank;
pub use command::{ApaTiming, Command};
pub use data::{BitRow, DataPattern};
pub use error::DramError;
pub use faults::{CellFaultSpec, SubarrayFaults};
pub use geometry::{BankId, ColAddr, Geometry, RowAddr, SubarrayId};
pub use module::DramModule;
pub use protocol::{ProtocolChecker, TimingRule, Violation};
pub use rng::Rng;
pub use silicon::SiliconPlanes;
pub use subarray::Subarray;
pub use timing::TimingParams;
pub use vendor::{DieRevision, Manufacturer, VendorProfile};
