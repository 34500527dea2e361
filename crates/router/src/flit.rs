//! Flits and in-flight packet routing state.

use mdd_protocol::{MsgHandle, MsgType};
use mdd_topology::{NicId, NodeId};

/// One flow-control unit. Packets (== messages, paper footnote 1) are
/// segmented into `length_flits` flits numbered `0..length`; flit 0 is the
/// head (it carries routing information), the last flit is the tail (it
/// releases virtual channels as it passes).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Flit {
    /// Handle of the packet this flit belongs to.
    pub msg: MsgHandle,
    /// Sequence number within the packet (0 = head). Message types are
    /// at most `u16::MAX` flits long (`mdd_protocol::ProtocolSpec::try_new`
    /// rejects longer ones), so a flit is 8 bytes in release builds.
    pub seq: u16,
    /// True for the final flit.
    pub is_tail: bool,
}

// Flit storage is the largest router-state array (DESIGN.md §13.1).
#[cfg(not(debug_assertions))]
const _: () = assert!(std::mem::size_of::<Flit>() == 8);

impl Flit {
    /// True for the routing (first) flit.
    #[inline]
    pub fn is_head(&self) -> bool {
        self.seq == 0
    }
}

/// State of one in-flight packet: a handle to the store-owned message plus
/// the routing-relevant message fields (cached at injection so the hot
/// routing path never resolves the store) and mutable routing bookkeeping
/// updated as the head flit advances.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PacketState {
    /// Handle of the message being carried.
    pub msg: MsgHandle,
    /// Message type (cached — drives VC-class selection).
    pub mtype: MsgType,
    /// Source NIC (cached — rescue fallback origin).
    pub src: NicId,
    /// Destination NIC (cached — selects the local ejection port).
    pub dst: NicId,
    /// Destination router (where the destination NIC attaches).
    pub dst_router: NodeId,
    /// Per-dimension dateline-crossing bits: bit `d` is set once the head
    /// flit has traversed the wraparound link of dimension `d`. Determines
    /// the escape-channel class under dimension-order routing.
    pub crossed_dateline: u8,
}

/// Registry of in-flight packets: a slab indexed by the message handle's
/// store slot, so lookup is a bounds-checked `Vec` index instead of a hash.
///
/// Because each live message owns exactly one store slot, the slot is a
/// collision-free dense key for its packet state. Lookups return `Option`
/// (no panicking accessors); under `debug_assertions` the full stored
/// handle — including its generation tag — is compared against the query,
/// so a stale handle whose slot was recycled fails loudly.
#[derive(Default, Debug, PartialEq)]
pub struct PacketTable {
    slots: Vec<Option<PacketState>>,
    live: usize,
}

impl Clone for PacketTable {
    fn clone(&self) -> Self {
        PacketTable {
            slots: self.slots.clone(),
            live: self.live,
        }
    }

    /// Allocation-free when `self` already has capacity — the debug shadow
    /// snapshot runs this every cycle.
    fn clone_from(&mut self, src: &Self) {
        self.slots.clone_from(&src.slots);
        self.live = src.live;
    }
}

impl PacketTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a packet at injection time.
    pub fn insert(&mut self, state: PacketState) {
        let i = state.msg.slot() as usize;
        if i >= self.slots.len() {
            self.slots.resize(i + 1, None);
        }
        debug_assert!(
            self.slots[i].is_none(),
            "packet {:?} registered twice",
            state.msg
        );
        self.slots[i] = Some(state);
        self.live += 1;
    }

    #[inline]
    fn check(&self, h: MsgHandle, st: &PacketState) {
        debug_assert_eq!(st.msg, h, "stale MsgHandle queried against PacketTable");
    }

    /// Routing state of packet `h`, or `None` if it is not in flight.
    #[inline]
    pub fn get(&self, h: MsgHandle) -> Option<&PacketState> {
        let st = self.slots.get(h.slot() as usize)?.as_ref()?;
        self.check(h, st);
        Some(st)
    }

    /// Mutable routing state of packet `h`, or `None` if not in flight.
    #[inline]
    pub fn get_mut(&mut self, h: MsgHandle) -> Option<&mut PacketState> {
        let st = self.slots.get_mut(h.slot() as usize)?.as_mut()?;
        debug_assert_eq!(st.msg, h, "stale MsgHandle queried against PacketTable");
        Some(st)
    }

    /// Remove a packet once its tail has been delivered (or it has been
    /// extracted for rescue). Returns its state.
    pub fn remove(&mut self, h: MsgHandle) -> Option<PacketState> {
        let st = self.slots.get_mut(h.slot() as usize)?.take()?;
        self.check(h, &st);
        self.live -= 1;
        Some(st)
    }

    /// Number of in-flight packets.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if no packets are in flight.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }
}
