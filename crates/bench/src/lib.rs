//! Support crate for the `repro` and `calibrate` binaries: [`cli`]
//! argument parsing and the [`metrics`] JSON document written by
//! `repro --metrics-out`.

#![forbid(unsafe_code)]

pub mod cli;
pub mod metrics;
