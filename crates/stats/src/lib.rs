//! # mdd-stats
//!
//! Measurement substrate: online scalar accumulators, histograms,
//! latency/throughput collection, Burton-Normal-Form performance curves
//! (the paper plots throughput on x and average latency on y for increasing
//! applied load, Section 4.3.1), deadlock-frequency normalization, and
//! plain-text table rendering used by the experiment harness.

#![warn(missing_docs)]

mod accum;
mod bnf;
mod histogram;
mod plot;
mod quantile;
mod table;

pub use accum::OnlineStats;
pub use bnf::{BnfCurve, BnfPoint};
pub use histogram::Histogram;
pub use plot::render_bnf;
pub use quantile::{LatencyQuantiles, P2Quantile};
pub use table::Table;

#[cfg(test)]
mod tests;
