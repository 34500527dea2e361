//! The traffic-source abstraction the simulator drives.

use mdd_protocol::{IdAlloc, MessageStore, MsgHandle};
use mdd_topology::NicId;

/// A source of original request messages. The simulator calls [`tick`]
/// once per cycle, then moves messages from each node's source queue into
/// the NIC as MSHRs/queue space permit (open-loop: the source queue is
/// unbounded, so applied load is independent of acceptance).
///
/// Generated messages live in the simulation's [`MessageStore`]; the
/// source queues hold only their handles.
///
/// [`tick`]: TrafficSource::tick
pub trait TrafficSource: Send {
    /// Generate this cycle's new requests into per-node source queues,
    /// inserting each message into `store`.
    fn tick(&mut self, cycle: u64, ids: &mut IdAlloc, store: &mut MessageStore);

    /// Peek the head of `nic`'s source queue.
    fn pending_head(&self, nic: NicId) -> Option<MsgHandle>;

    /// Pop the head of `nic`'s source queue.
    fn pop_pending(&mut self, nic: NicId) -> Option<MsgHandle>;

    /// Total requests waiting in source queues.
    fn backlog(&self) -> usize;

    /// Fill `out` (cleared first) with every NIC whose source queue is
    /// non-empty, in ascending NIC order, and return `true`. The default
    /// returns `false` with `out` untouched, meaning the source does not
    /// track queue occupancy and the caller must poll every NIC's
    /// [`TrafficSource::pending_head`] densely. An override must report
    /// exactly the set the dense poll would find non-empty, so issue
    /// order (and with it all downstream state) is bit-identical.
    fn pending_sources(&self, out: &mut Vec<NicId>) -> bool {
        let _ = out;
        false
    }

    /// Transactions generated so far.
    fn generated(&self) -> u64;

    /// Earliest cycle `>= from` at which [`TrafficSource::tick`] might
    /// generate a request. Unused by the simulator, which ticks the
    /// source every cycle while generation is on; kept, with its default of `from`, because the
    /// frozen benchmark's timing wrappers forward it.
    fn next_arrival_cycle(&self, from: u64) -> u64 {
        from
    }
}
