//! The recovery lane: exclusive pipelined transport over the ring of
//! deadlock buffers.

use mdd_protocol::MsgHandle;
use mdd_topology::{NodeId, RecoveryRing};

/// A completed lane transfer: the rescued message has fully arrived in the
/// destination NIC's deadlock message buffer.
#[derive(Clone, Copy, Debug)]
pub struct LaneDelivery {
    /// Handle of the rescued message (still owned by the store).
    pub msg: MsgHandle,
    /// Cycle at which the tail reached the destination DMB.
    pub arrived_at: u64,
}

/// The deadlock-buffer lane. At most one rescued packet occupies the lane
/// at any time (guaranteed by the token); a transfer of `L` flits over `d`
/// forward ring hops completes after `d·hop_latency + L` cycles.
#[derive(Debug)]
pub struct RecoveryLane {
    ring: RecoveryRing,
    hop_latency: u64,
    active: Option<(MsgHandle, NodeId, u64)>,
    /// Transfers completed over the lane's lifetime.
    pub transfers: u64,
    /// Total flits carried.
    pub flits_carried: u64,
}

impl RecoveryLane {
    /// Build a lane over `ring` with `hop_latency` cycles per ring hop
    /// (1 models a dedicated flit-wide lane; larger values model the token
    /// and rescued flits multiplexing over shared link bandwidth — the A3
    /// ablation).
    pub fn new(ring: RecoveryRing, hop_latency: u64) -> Self {
        assert!(hop_latency >= 1);
        RecoveryLane {
            ring,
            hop_latency,
            active: None,
            transfers: 0,
            flits_carried: 0,
        }
    }

    /// The ring order used by the lane (shared with the token tour).
    pub fn ring(&self) -> &RecoveryRing {
        &self.ring
    }

    /// Per-hop latency.
    pub fn hop_latency(&self) -> u64 {
        self.hop_latency
    }

    /// True while a transfer is in progress.
    pub fn busy(&self) -> bool {
        self.active.is_some()
    }

    /// Launch a transfer of `length_flits` flits from `src` to `dst` at
    /// cycle `now`; returns the arrival cycle. Panics if the lane is busy
    /// (the token excludes concurrent rescues).
    pub fn send(
        &mut self,
        msg: MsgHandle,
        length_flits: u32,
        src: NodeId,
        dst: NodeId,
        now: u64,
    ) -> u64 {
        assert!(self.active.is_none(), "recovery lane is exclusive");
        let d = self.ring.ring_distance(src, dst) as u64;
        let arrive = now + d * self.hop_latency + length_flits as u64;
        self.flits_carried += length_flits as u64;
        self.active = Some((msg, dst, arrive));
        arrive
    }

    /// Poll for arrival: returns the delivery once `now` reaches the
    /// arrival cycle.
    pub fn poll(&mut self, now: u64) -> Option<LaneDelivery> {
        match &self.active {
            Some((_, _, arrive)) if *arrive <= now => {
                let (msg, _, arrive) = self.active.take().unwrap();
                self.transfers += 1;
                Some(LaneDelivery {
                    msg,
                    arrived_at: arrive,
                })
            }
            _ => None,
        }
    }

    /// Latency for a control message (the token itself, 1 flit) from `a`
    /// to `b` along the ring.
    pub fn control_delay(&self, a: NodeId, b: NodeId) -> u64 {
        self.ring.ring_distance(a, b) as u64 * self.hop_latency + 1
    }
}
