//! # simra-bender
//!
//! The DRAM-Bender-equivalent testing infrastructure (Fig. 2 of the
//! paper): a command sequencer with 1.5 ns issue granularity driving the
//! modelled module through the row decoder and the analog engine, plus the
//! rig around it — temperature controller, programmable V_PP supply, and
//! an IDD-based power meter.
//!
//! The real infrastructure is an Alveo U200 FPGA + host; ours is a struct.
//! What matters for the reproduction is that every experiment is phrased
//! against the same abstraction the paper uses: *schedule DRAM commands
//! with exact (violated) timings, then read back and count*.
//!
//! # Example
//!
//! ```
//! use simra_bender::TestSetup;
//! use simra_dram::{ApaTiming, BankId, RowAddr, VendorProfile};
//!
//! let mut setup = TestSetup::new(VendorProfile::mfr_h_m_die(), 1);
//! let (sa, outcome) = setup
//!     .resolve_apa(BankId::new(0), RowAddr::new(0), RowAddr::new(7), ApaTiming::from_ns(3.0, 3.0))
//!     .unwrap();
//! assert_eq!(outcome.open_row_count(), 4);
//! assert_eq!(sa.raw(), 0);
//! ```

#![forbid(unsafe_code)]

pub mod interpreter;
pub mod power;
pub mod program;
pub mod sequencer;
pub mod setup;

pub use interpreter::ProgramRun;
pub use power::PowerModel;
pub use program::{BenderInstr, BenderProgram};
pub use sequencer::SequencerError;
pub use setup::{StateSlot, TestSetup};
