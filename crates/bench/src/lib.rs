//! # mdd-bench
//!
//! The experiment harness: one module per paper table/figure, shared by
//! the binaries in `src/bin/` (full scale, or `--fast` / `--smoke`).
//! Every function is deterministic given its configuration, prints the
//! same rows/series the paper reports, and returns structured results so
//! tests can assert on them. Performance is measured by the repository
//! benchmark, `mddbench/`, not here.

#![warn(missing_docs)]

pub mod cli;
pub mod experiments;

pub use experiments::*;
