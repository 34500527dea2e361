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
/// admission questions run lock-free in parallel. Admission is the only
/// call the network makes into the endpoints: the packets a step
/// delivered come back as [`mdd_router::Network::delivered`], and the
/// simulator queues them after the step.
pub(crate) struct NicShard<'a> {
    store: &'a MessageStore,
    nics: &'a mut [Nic],
    /// Global NIC index of `nics[0]`.
    base: u32,
}

impl<'a> NicShard<'a> {
    /// One view per shard of `plan`, in shard order: shard `s` gets the
    /// NICs of its router range (`bristle` per router).
    pub fn split(
        store: &'a MessageStore,
        nics: &'a mut [Nic],
        plan: &'a ShardPlan,
        bristle: u32,
    ) -> impl Iterator<Item = NicShard<'a>> {
        let mut rest = nics;
        (0..plan.shards()).map(move |s| {
            let (lo, hi) = plan.range(s);
            let cnt = ((hi - lo) * bristle) as usize;
            let (nics, next) = std::mem::take(&mut rest).split_at_mut(cnt);
            rest = next;
            NicShard {
                store,
                nics,
                base: lo * bristle,
            }
        })
    }
}

impl EjectControl for NicShard<'_> {
    fn can_accept(&mut self, nic: NicId, msg: MsgHandle, _cycle: u64) -> bool {
        self.nics[nic.index() - self.base as usize].can_accept(self.store.get(msg))
    }
}
