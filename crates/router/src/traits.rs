//! Pluggable policy interfaces: routing functions and endpoint ejection
//! control.

use crate::flit::PacketState;
use mdd_protocol::MsgHandle;
use mdd_topology::{NicId, NodeId, PortId, Topology};

/// One admissible `(output port, output virtual channel)` choice for a
/// packet at a router. Candidates are tried in order by the VC allocator,
/// so adaptive choices should precede the escape choice (Duato's protocol).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RouteCandidate {
    /// Output port (network or local).
    pub port: PortId,
    /// Virtual channel index on that port (ignored for local ports).
    pub vc: u8,
}

/// A routing function: fills `out` with the admissible next-hop virtual
/// channels for `pkt` currently at router `node`.
///
/// Implementations must return at least one candidate whenever
/// `node != pkt.dst_router` (progress requires an admissible hop) and must
/// return only local-port candidates when `node == pkt.dst_router`.
/// `rr_hint` is a deterministic per-(router, cycle) salt implementations
/// may use to rotate equally preferred adaptive candidates.
///
/// All routing-relevant message fields (`mtype`, `dst`) are cached inside
/// [`PacketState`], so implementations never resolve the message store.
pub trait Routing {
    /// Compute candidates, most preferred first. `out` arrives empty.
    fn candidates(
        &self,
        topo: &Topology,
        node: NodeId,
        pkt: &PacketState,
        rr_hint: u64,
        out: &mut Vec<RouteCandidate>,
    );

    /// The virtual channels on which a packet of `pkt`'s type may be
    /// injected into the network.
    fn injection_vcs(&self, pkt: &PacketState, out: &mut Vec<u8>);

    /// Can this routing function's candidates for type `mtype` ever
    /// depend on `PacketState::crossed_dateline`? Defaults to `true`
    /// (conservative). Implementations that provably never consult the
    /// dateline mask for a type (e.g. a fully adaptive VC map with no
    /// dateline-classed escape set) may return `false`, which lets the
    /// static analyzer collapse its per-mask state split for that type.
    fn dateline_sensitive(&self, mtype: mdd_protocol::MsgType) -> bool {
        let _ = mtype;
        true
    }
}

/// Endpoint admission, asked by [`crate::Network::step`].
///
/// Admission is the one endpoint decision inside a network cycle:
/// `can_accept` is asked when a packet's head flit requests the local
/// output port, and returning `true` must *reserve* whatever endpoint
/// resources guarantee the rest of the packet can drain (a message-queue
/// slot plus a reassembly buffer). The admitted packet's flits then drain
/// unconditionally, and the step reports every packet whose tail ejected
/// through [`crate::Network::delivered`] — a delivery is data handed back
/// to the caller, not a call into the endpoint.
///
/// The hook receives the message *handle*; implementations resolve it
/// against the simulation's `MessageStore` when they need message fields.
/// Ownership of the message never moves — it stays in the store.
pub trait EjectControl {
    /// May packet `msg` begin ejecting at `nic`? Must reserve resources on
    /// success. May be re-asked on later cycles after refusal.
    fn can_accept(&mut self, nic: NicId, msg: MsgHandle, cycle: u64) -> bool;
}

impl<T: EjectControl + ?Sized> EjectControl for &mut T {
    fn can_accept(&mut self, nic: NicId, msg: MsgHandle, cycle: u64) -> bool {
        (**self).can_accept(nic, msg, cycle)
    }
}

/// An [`EjectControl`] that accepts everything, for tests and drain-only
/// scenarios.
#[derive(Clone, Copy, Debug)]
pub struct AcceptAll;

impl EjectControl for AcceptAll {
    fn can_accept(&mut self, _nic: NicId, _msg: MsgHandle, _cycle: u64) -> bool {
        true
    }
}
