//! Finite message queues with reservation accounting.
//!
//! Queues store [`MsgHandle`]s — the messages themselves stay in the
//! simulation's `MessageStore` until consumed.

use mdd_protocol::MsgHandle;
use std::collections::VecDeque;

/// A finite FIFO message queue with two kinds of reservations:
///
/// * *in-flight* reservations, made when a packet is accepted for ejection
///   (or when the memory controller commits to producing a subordinate),
///   converted to real occupancy when the message materializes;
/// * *earmarked* slots, preallocated for the terminating replies of
///   outstanding requests so replies are guaranteed to sink (the
///   avoidance-side technique of Section 2.1 / the Origin2000 reply
///   network).
#[derive(Clone, Debug)]
pub struct MsgQueue {
    q: VecDeque<MsgHandle>,
    cap: u32,
    inflight: u32,
    earmarked: u32,
}

impl MsgQueue {
    /// An empty queue of `cap` messages. Storage grows on first use, so
    /// building a NIC whose queues stay empty allocates nothing here.
    pub fn new(cap: u32) -> Self {
        assert!(cap >= 1);
        MsgQueue {
            q: VecDeque::new(),
            cap,
            inflight: 0,
            earmarked: 0,
        }
    }

    /// Messages currently enqueued.
    #[inline]
    pub fn len(&self) -> usize {
        self.q.len()
    }

    /// True if no messages are enqueued (reservations may still exist).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.q.is_empty()
    }

    /// Capacity in messages.
    #[inline]
    pub fn capacity(&self) -> u32 {
        self.cap
    }

    /// Committed occupancy: enqueued + reserved + earmarked.
    #[inline]
    pub fn committed(&self) -> u32 {
        self.q.len() as u32 + self.inflight + self.earmarked
    }

    /// Uncommitted slots: how many more messages could be admitted.
    #[inline]
    pub fn free(&self) -> u32 {
        self.cap.saturating_sub(self.committed())
    }

    /// True if a *new* (non-earmarked) message could be admitted.
    #[inline]
    pub fn has_space(&self) -> bool {
        self.committed() < self.cap
    }

    /// True if the queue is completely committed — the detector's
    /// "fills up beyond a threshold" condition.
    #[inline]
    pub fn is_full(&self) -> bool {
        !self.has_space()
    }

    /// Reserve `n` slots for incoming/forthcoming messages, all or none.
    /// Returns false (reserving nothing) if fewer than `n` are free.
    pub fn reserve(&mut self, n: u32) -> bool {
        if self.free() >= n {
            self.inflight += n;
            true
        } else {
            false
        }
    }

    /// Materialize a previously reserved message at the tail.
    pub fn push_reserved(&mut self, msg: MsgHandle) {
        debug_assert!(self.inflight > 0, "push_reserved without reservation");
        self.inflight -= 1;
        self.q.push_back(msg);
    }

    /// Admit a new message without prior reservation (used by request
    /// issue). Returns false (message given back via the Result) if full.
    pub fn push_new(&mut self, msg: MsgHandle) -> Result<(), MsgHandle> {
        if self.has_space() {
            self.q.push_back(msg);
            Ok(())
        } else {
            Err(msg)
        }
    }

    /// Earmark one slot for a future terminating reply. Returns false if
    /// no space remains.
    pub fn earmark(&mut self) -> bool {
        if self.has_space() {
            self.earmarked += 1;
            true
        } else {
            false
        }
    }

    /// Convert one earmarked slot into an in-flight reservation (the
    /// earmarked reply has arrived at the router and begins ejecting).
    /// Returns false if nothing was earmarked.
    pub fn claim_earmark(&mut self) -> bool {
        if self.earmarked > 0 {
            self.earmarked -= 1;
            self.inflight += 1;
            true
        } else {
            false
        }
    }

    /// Outstanding earmarked slots.
    #[inline]
    pub fn earmarked(&self) -> u32 {
        self.earmarked
    }

    /// Outstanding in-flight reservations.
    #[inline]
    pub fn inflight(&self) -> u32 {
        self.inflight
    }

    /// Handle of the head message.
    #[inline]
    pub fn front(&self) -> Option<&MsgHandle> {
        self.q.front()
    }

    /// Remove and return the head message handle.
    pub fn pop(&mut self) -> Option<MsgHandle> {
        self.q.pop_front()
    }

    /// Iterate over enqueued message handles front to back.
    pub fn iter(&self) -> impl Iterator<Item = &MsgHandle> {
        self.q.iter()
    }
}
