//! # simra-casestudy
//!
//! The paper's §8 case studies:
//!
//! 1. **Majority-based computation** ([`microbench`], Fig. 16): seven
//!    arithmetic & logic microbenchmarks (AND, OR, XOR, ADD, SUB, MUL,
//!    DIV) on 32-bit elements, implemented from majority-logic
//!    constructions, with execution time modelled from measured PUD
//!    operation latencies and empirical success rates — exactly the
//!    paper's methodology ("we analytically model the execution time
//!    using the highest throughput values").
//! 2. **Cold-boot-attack prevention** ([`coldboot`], Fig. 17): content
//!    destruction of a whole bank by RowClone, Frac, or Multi-RowCopy,
//!    compared by total wipe time.
//!
//! [`bitwise`] grounds case study 1 functionally: it actually runs
//! majority-based AND/OR/XOR on the modelled DRAM and checks the result
//! against a scalar reference.

#![forbid(unsafe_code)]

pub mod bitwise;
pub mod coldboot;
pub mod microbench;
pub mod throughput;

pub use coldboot::fig17_coldboot;
pub use microbench::{fig16_microbenchmarks, fig16_microbenchmarks_on};
