//! # byzreg-storebench
//!
//! The repository benchmark. One load generator process drives
//! `byzreg_store::ByzStore` through its public API from two client threads
//! (a writer `p1` and a reader `p2`; `p4` is declared Byzantine and silent),
//! checks every result against the value it knows was written, and reports
//! end-to-end metrics from an untraced run or per-layer metrics from a
//! traced one. See `README.md` next to this crate for the workloads, the
//! metrics and how each layer is measured.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gen;
pub mod procstat;
pub mod run;
pub mod stats;
pub mod trace;
