//! # simra-core
//!
//! The paper's contribution, as a library: Processing-Using-DRAM
//! operations on commodity (modelled) DDR4 — simultaneous many-row
//! activation, majority-of-X with input replication, Frac, RowClone, and
//! Multi-RowCopy — plus the methodology pieces around them (row-group
//! sampling, subarray-boundary reverse engineering, the success-rate
//! metric).
//!
//! Operations come in two flavours:
//!
//! * **characterization** entry points return the paper's *success rate*
//!   (expected fraction of cells correct across all trials), computed
//!   analytically from sensing/restore margins — smooth, fast, and
//!   deterministic;
//! * **functional** entry points (`exec_*`) actually mutate the module,
//!   for the case studies and examples that compute with DRAM.
//!
//! # Example
//!
//! ```
//! use simra_bender::TestSetup;
//! use simra_core::rowgroup::sample_groups;
//! use simra_core::maj::{majx_success, MajConfig};
//! use simra_dram::{ApaTiming, DataPattern, Rng, VendorProfile};
//!
//! let mut setup = TestSetup::new(VendorProfile::mfr_h_m_die(), 7);
//! let mut rng = Rng::seed_from_u64(1);
//! let geometry = *setup.module().geometry();
//! let group = sample_groups(&geometry, 32, 1, 1, 1, &mut rng)[0].resolve(&geometry);
//! let s = majx_success(
//!     &mut setup,
//!     &group,
//!     3,
//!     ApaTiming::best_for_majx(),
//!     DataPattern::Solid,
//!     &MajConfig::default(),
//!     &mut rng,
//! ).unwrap();
//! assert!(s > 0.5, "MAJ3 with full replication should mostly work, got {s}");
//! ```

#![forbid(unsafe_code)]

pub mod act;
pub mod boundary;
pub mod error;
pub mod frac;
pub mod maj;
pub mod metrics;
pub mod multirowcopy;
pub mod rowclone;
pub mod rowgroup;
pub mod trng;

pub use error::PudError;
pub use metrics::BoxStats;
pub use rowgroup::GroupSpec;
