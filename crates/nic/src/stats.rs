//! Per-NIC measurement counters.

use mdd_stats::{LatencyQuantiles, OnlineStats};

/// Counters and accumulators maintained by each NIC.
#[derive(Clone, Debug, Default)]
pub struct NicStats {
    /// End-to-end message latency (creation to consumption/sink), cycles.
    pub msg_latency: OnlineStats,
    /// Streaming latency quantiles (p50/p95/p99) for the same samples.
    pub msg_latency_quantiles: LatencyQuantiles,
    /// Messages consumed at this NIC (sunk or serviced).
    pub messages_consumed: u64,
    /// Transactions completed with this NIC as requester.
    pub transactions_completed: u64,
    /// Potential message-dependent deadlocks detected here.
    pub deadlocks_detected: u64,
    /// Deflective backoff replies generated here (DR).
    pub deflections: u64,
    /// Messages rescued over the recovery lane from here (PR).
    pub rescues: u64,
    /// Cycles the memory controller spent busy.
    pub mc_busy_cycles: u64,
}

impl NicStats {
    /// Merge another NIC's stats (for whole-network aggregation).
    pub fn merge(&mut self, other: &NicStats) {
        self.msg_latency.merge(&other.msg_latency);
        // Quantile sketches are not mergeable; whole-network quantiles are
        // re-estimated from one NIC's sketch being fed all samples when
        // needed. Merging keeps the larger sketch as an approximation.
        if other.msg_latency_quantiles.count() > self.msg_latency_quantiles.count() {
            self.msg_latency_quantiles = other.msg_latency_quantiles.clone();
        }
        self.messages_consumed += other.messages_consumed;
        self.transactions_completed += other.transactions_completed;
        self.deadlocks_detected += other.deadlocks_detected;
        self.deflections += other.deflections;
        self.rescues += other.rescues;
        self.mc_busy_cycles += other.mc_busy_cycles;
    }

    /// Aggregate a sequence of per-NIC stats in the given order.
    ///
    /// The Welford merge inside [`OnlineStats`] is exact but *not
    /// associative in floating point*: merging A into B then C gives a
    /// bit-different mean/M2 than merging (A,B) and (B,C) partials. Any
    /// whole-network aggregation that must be reproducible therefore goes
    /// through this single seam with the NICs in linear index order, never
    /// through pre-reduced partials.
    pub fn merge_all<'a>(parts: impl IntoIterator<Item = &'a NicStats>) -> NicStats {
        let mut agg = NicStats::default();
        for p in parts {
            agg.merge(p);
        }
        agg
    }
}
