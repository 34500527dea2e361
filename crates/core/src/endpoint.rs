//! Adapter presenting the NIC array to the network as an
//! [`mdd_router::EjectControl`], one view per shard of the network step.

use mdd_nic::Nic;
use mdd_protocol::{MessageStore, MsgHandle};
use mdd_router::{EjectControl, ShardPlan};
use mdd_topology::NicId;

/// One shard's slice of the NIC array for the network step.
///
/// Each shard owns the NICs of its router range exclusively (`nics` is a
/// disjoint sub-slice; `base` is its first global NIC index), so the
/// ejection callbacks run lock-free in parallel. The one shared structure
/// — the idle-skip schedule — cannot be written from worker threads, so
/// packet-delivery wakes are *deferred*: indices are recorded in `wakes`
/// and the simulator applies them (in shard order, then record order)
/// after the network step returns. Exact because nothing reads the
/// schedule during the network phase, at most one packet completes per
/// NIC per cycle, and `set(i, 0)` is idempotent.
pub(crate) struct NicShard<'a> {
    store: &'a MessageStore,
    nics: &'a mut [Nic],
    /// Global NIC index of `nics[0]`.
    base: u32,
    /// Global NIC indices whose schedule entry must be zeroed after the
    /// step (one per completed packet delivery, in delivery order).
    wakes: &'a mut Vec<u32>,
}

impl<'a> NicShard<'a> {
    /// One view per shard of `plan`, in shard order: shard `s` gets the
    /// NICs of its router range (`bristle` per router) and `wakes[s]`.
    pub fn split(
        store: &'a MessageStore,
        nics: &'a mut [Nic],
        plan: &'a ShardPlan,
        bristle: u32,
        wakes: &'a mut [Vec<u32>],
    ) -> impl Iterator<Item = NicShard<'a>> {
        let mut rest = nics;
        wakes.iter_mut().enumerate().map(move |(s, wakes)| {
            let (lo, hi) = plan.range(s);
            let cnt = ((hi - lo) * bristle) as usize;
            let (nics, next) = std::mem::take(&mut rest).split_at_mut(cnt);
            rest = next;
            NicShard {
                store,
                nics,
                base: lo * bristle,
                wakes,
            }
        })
    }
}

impl EjectControl for NicShard<'_> {
    fn can_accept(&mut self, nic: NicId, msg: MsgHandle, _cycle: u64) -> bool {
        self.nics[nic.index() - self.base as usize].can_accept(self.store.get(msg))
    }

    fn deliver_flit(&mut self, nic: NicId, _msg: MsgHandle, _cycle: u64) {
        self.nics[nic.index() - self.base as usize].on_flit();
    }

    fn deliver_packet(&mut self, nic: NicId, msg: MsgHandle, _injected_at: u64, _cycle: u64) {
        self.nics[nic.index() - self.base as usize].on_packet(msg, self.store.get(msg));
        // A new message is queued at this endpoint: cancel its idle-skip.
        self.wakes.push(nic.index() as u32);
    }
}
