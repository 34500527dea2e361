//! # mdd-bench
//!
//! The experiment harness: every paper table/figure as a function that
//! returns its rows ([`experiments::figure`]), driven by `mdd-figures`
//! (full scale, or `--fast` / `--smoke`), plus the shared CLI of the
//! binaries in `src/bin/`. Every figure is deterministic given its
//! scale, so tests can assert on its rows. Performance is measured by
//! the repository benchmark, `mddbench/`, not here.

#![warn(missing_docs)]

pub mod cli;
pub mod experiments;

pub use experiments::*;
