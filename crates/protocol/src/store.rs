//! Single-owner storage for live messages.
//!
//! Every [`Message`] in a simulation is owned by exactly one
//! [`MessageStore`] slab from generation until consumption (or until a
//! memory controller takes it over for service). Everything else — NIC
//! queues, in-flight packet state, recovery records — holds a
//! [`MsgHandle`]: a dense slot index resolved by `Vec` indexing, never by
//! hashing and never by cloning the message.
//!
//! Slots are recycled through a free list. Under `debug_assertions` each
//! handle additionally carries the slot's generation tag, so resolving a
//! stale handle (one whose message was already removed and whose slot was
//! reused) fails loudly in debug builds; release builds pay nothing for
//! the tag and a stale handle can never alias a *dead* slot silently —
//! [`MessageStore::try_get`] reports vacancy, and the panicking accessors
//! are bounds-checked.

use crate::message::Message;

/// A copy-free reference to a live message owned by a [`MessageStore`].
///
/// Four bytes in release builds (the slot index); debug builds add the
/// slot generation for stale-handle detection.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct MsgHandle {
    slot: u32,
    #[cfg(debug_assertions)]
    gen: u32,
}

impl MsgHandle {
    /// The dense slot index (stable for the message's whole lifetime).
    #[inline]
    pub fn slot(&self) -> u32 {
        self.slot
    }

    /// A placeholder handle for structure-of-arrays slots whose validity is
    /// tracked by an external occupancy mask. It resolves to nothing (the
    /// store never hands out slot `u32::MAX`) and must never be dereferenced;
    /// it only exists so flat `Vec<MsgHandle>` state can be densely
    /// initialized without the per-element overhead of `Option`.
    ///
    /// ```
    /// use mdd_protocol::MsgHandle;
    /// let h = MsgHandle::dangling();
    /// assert_eq!(h.slot(), u32::MAX);
    /// ```
    #[inline]
    pub const fn dangling() -> Self {
        MsgHandle {
            slot: u32::MAX,
            #[cfg(debug_assertions)]
            gen: u32::MAX,
        }
    }
}

#[derive(Clone, Debug)]
struct Slot {
    msg: Option<Message>,
    /// Bumped on every removal, so recycled slots invalidate old handles
    /// (checked under `debug_assertions`).
    gen: u32,
}

/// Slab of live messages with free-list slot reuse.
#[derive(Clone, Debug, Default)]
pub struct MessageStore {
    slots: Vec<Slot>,
    free: Vec<u32>,
    live: usize,
}

impl MessageStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty store with room for `cap` messages before reallocating.
    pub fn with_capacity(cap: usize) -> Self {
        MessageStore {
            slots: Vec::with_capacity(cap),
            free: Vec::new(),
            live: 0,
        }
    }

    /// Take ownership of `msg`, returning its handle.
    pub fn insert(&mut self, msg: Message) -> MsgHandle {
        self.live += 1;
        match self.free.pop() {
            Some(slot) => {
                let s = &mut self.slots[slot as usize];
                debug_assert!(s.msg.is_none(), "free-list slot still occupied");
                s.msg = Some(msg);
                MsgHandle {
                    slot,
                    #[cfg(debug_assertions)]
                    gen: s.gen,
                }
            }
            None => {
                let slot = self.slots.len() as u32;
                self.slots.push(Slot {
                    msg: Some(msg),
                    gen: 0,
                });
                MsgHandle {
                    slot,
                    #[cfg(debug_assertions)]
                    gen: 0,
                }
            }
        }
    }

    #[cfg(debug_assertions)]
    #[inline]
    fn check_gen(&self, h: MsgHandle) {
        debug_assert_eq!(
            self.slots[h.slot as usize].gen, h.gen,
            "stale MsgHandle: slot {} was recycled",
            h.slot
        );
    }

    #[cfg(not(debug_assertions))]
    #[inline]
    fn check_gen(&self, _h: MsgHandle) {}

    /// Resolve `h`. Panics on a vacant slot; debug builds also reject
    /// stale handles via the generation tag.
    #[inline]
    pub fn get(&self, h: MsgHandle) -> &Message {
        self.check_gen(h);
        self.slots[h.slot as usize]
            .msg
            .as_ref()
            .expect("MsgHandle resolves to a vacant slot")
    }

    /// Mutably resolve `h` (same checks as [`MessageStore::get`]).
    #[inline]
    pub fn get_mut(&mut self, h: MsgHandle) -> &mut Message {
        self.check_gen(h);
        self.slots[h.slot as usize]
            .msg
            .as_mut()
            .expect("MsgHandle resolves to a vacant slot")
    }

    /// Resolve `h` without panicking on vacancy (stale handles still
    /// fail the debug generation check — a `None` here means the slot is
    /// genuinely empty, not reused).
    #[inline]
    pub fn try_get(&self, h: MsgHandle) -> Option<&Message> {
        self.check_gen(h);
        self.slots.get(h.slot as usize).and_then(|s| s.msg.as_ref())
    }

    /// Remove and return the message, retiring the slot to the free list
    /// and invalidating all outstanding copies of `h`.
    pub fn remove(&mut self, h: MsgHandle) -> Message {
        self.check_gen(h);
        let s = &mut self.slots[h.slot as usize];
        let msg = s.msg.take().expect("removing from a vacant slot");
        s.gen = s.gen.wrapping_add(1);
        self.free.push(h.slot);
        self.live -= 1;
        msg
    }

    /// Live messages currently owned by the store.
    #[inline]
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when the store owns no messages.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{MessageId, TransactionId};
    use crate::pattern::ShapeId;
    use crate::types::MsgType;
    use mdd_topology::NicId;
    use proptest::prelude::*;
    use std::collections::HashMap;

    fn msg(id: u64) -> Message {
        Message {
            id: MessageId(id),
            txn: TransactionId(id),
            mtype: MsgType(0),
            shape: ShapeId(0),
            chain_pos: 0,
            src: NicId(0),
            dst: NicId(1),
            requester: NicId(0),
            home: NicId(1),
            owner: NicId(1),
            length_flits: 4,
            created: 0,
            is_backoff: false,
            rescued: false,
            sharers: 0,
        }
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut store = MessageStore::new();
        let a = store.insert(msg(1));
        let b = store.insert(msg(2));
        assert_eq!(store.len(), 2);
        assert_eq!(store.get(a).id, MessageId(1));
        assert_eq!(store.get(b).id, MessageId(2));
        let out = store.remove(a);
        assert_eq!(out.id, MessageId(1));
        assert_eq!(store.len(), 1);
        // Slot reuse: the freed slot is recycled for the next insert.
        let c = store.insert(msg(3));
        assert_eq!(c.slot(), a.slot());
        assert_eq!(store.get(c).id, MessageId(3));
        assert_eq!(store.get(b).id, MessageId(2));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "stale MsgHandle")]
    fn stale_handle_is_rejected_after_reuse() {
        let mut store = MessageStore::new();
        let a = store.insert(msg(1));
        store.remove(a);
        let _b = store.insert(msg(2)); // reuses a's slot with a new generation
        let _ = store.get(a);
    }

    proptest! {
        /// Random insert/remove interleavings: every live handle keeps
        /// resolving to exactly the message it was created for (slot
        /// reuse never aliases two live messages onto one slot), and the
        /// live count tracks the shadow model exactly.
        #[test]
        fn slot_reuse_never_aliases_live_messages(
            ops in proptest::collection::vec((0u8..4, 0usize..16), 1..200)
        ) {
            let mut store = MessageStore::new();
            // Shadow model: handle -> the message id it must resolve to.
            let mut live: Vec<(MsgHandle, u64)> = Vec::new();
            let mut next_id = 0u64;
            for (op, pick) in ops {
                if op == 0 && !live.is_empty() {
                    // Remove a pseudo-randomly chosen live message.
                    let (h, want) = live.swap_remove(pick % live.len());
                    let got = store.remove(h);
                    prop_assert_eq!(got.id.0, want);
                } else {
                    next_id += 1;
                    let h = store.insert(msg(next_id));
                    // The new handle's slot must not collide with any
                    // live handle's slot.
                    for (other, _) in &live {
                        prop_assert_ne!(other.slot(), h.slot());
                    }
                    live.push((h, next_id));
                }
                prop_assert_eq!(store.len(), live.len());
                prop_assert_eq!(store.is_empty(), live.is_empty());
                // Every live handle still resolves to its own message.
                for (h, want) in &live {
                    prop_assert_eq!(store.get(*h).id.0, *want);
                    prop_assert_eq!(store.try_get(*h).map(|m| m.id.0), Some(*want));
                }
            }
            // Slots are recycled: total slots never exceed peak liveness
            // plus the messages still live (free list keeps it dense).
            let mut dense = HashMap::new();
            for (h, id) in &live {
                prop_assert_eq!(dense.insert(h.slot(), *id), None);
            }
        }
    }
}
