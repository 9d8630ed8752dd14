//! # simra-decoder
//!
//! An executable implementation of the paper's *hypothetical hierarchical
//! row decoder* (§7.1): a Global Wordline Decoder (GWLD) that selects a
//! subarray, and a two-stage Local Wordline Decoder (LWLD) whose first
//! stage is five *latching predecoders*.
//!
//! The key mechanism: a `PRE` issued with a greatly violated `tRP` does not
//! de-assert the predecoder latches before the second `ACT` arrives, so
//! after an `ACT R_F → PRE → ACT R_S` (APA) sequence *both* addresses'
//! predecoded signals are latched. Stage 2 of the LWLD asserts every local
//! wordline whose predecode signals are all latched — the Cartesian product
//! of the latched outputs. If `R_F` and `R_S` differ in `d` of the five
//! predecoder groups, exactly `2^d` rows activate simultaneously
//! (`d ∈ {0..5}` ⇒ N ∈ {1, 2, 4, 8, 16, 32}), which is precisely the set of
//! N values the paper observes (Limitation 2).
//!
//! # Example
//!
//! ```
//! use simra_decoder::{ApaOutcome, RowDecoder};
//! use simra_dram::ApaTiming;
//!
//! let dec = RowDecoder::for_subarray_rows(512);
//! // The paper's Fig. 14 walk-through: ACT 0 → PRE → ACT 7 opens 4 rows.
//! let outcome = dec.resolve_apa(0, 7, ApaTiming::from_ns(3.0, 3.0), false);
//! assert_eq!(outcome, ApaOutcome::Simultaneous { rows: vec![0, 1, 6, 7] });
//! ```

#![forbid(unsafe_code)]

pub mod apa;
pub mod predecoder;
pub mod rowdec;

pub use apa::ApaOutcome;
pub use predecoder::{PredecoderGroup, MAX_PREDECODERS};
pub use rowdec::RowDecoder;
