//! Static channel-dependency-graph construction.
//!
//! The graph is expressed as *occupant classes* over the shared
//! [`ResourceLayout`] vertex set. A class describes one way a resource can
//! be held — a packet of some (type, destination, dateline-mask) in a
//! router VC, a transaction-chain head in an endpoint input queue, a
//! generated message awaiting injection in an output queue — together
//! with the OR-wait candidate set the holder needs progress on. Distinct
//! classes occupying the same vertex are AND-composed: the vertex is only
//! guaranteed to drain when *every* class that can occupy it drains.
//!
//! Router-VC classes are enumerated by a breadth-first sweep per (message
//! type, destination NIC) over `(router, dateline mask)` states that
//! invokes the scheme's real [`Routing`] implementation, so the static
//! graph contains exactly the dependencies the configured routing function
//! can produce at run time — including the dateline-class escape
//! structure that makes Duato-style peeling succeed.
//!
//! Construction is *segmented*: each (type, destination) sweep produces an
//! independent [`Segment`] with local class ids, and [`assemble`]
//! concatenates segments into a [`StaticCdg`]. [`cdg`] is the one builder
//! every analysis uses — pristine or degraded, full or folded topology;
//! `crate::incremental::verify_faulted` keeps its own underived loop as
//! the reference it is checked against.
//!
//! Deflective-recovery preallocation is modelled faithfully: message
//! types whose every chain occurrence is covered by an input-queue
//! earmark (terminating replies at their requester, return replies at
//! the servicing node) are *guaranteed ejection* — their delivery edge is
//! a sink rather than a wait on the destination queue. This is what makes
//! DR's reply network statically safe, mirroring `mdd-nic`'s
//! `can_accept`.

use crate::VerifyInput;
use mdd_deadlock::ResourceLayout;
use mdd_protocol::{
    HopTarget, IdAlloc, Message, MessageStore, MsgKind, MsgType, ShapeId, TransactionId,
};
use mdd_router::{PacketState, RouteCandidate, Routing};
use mdd_routing::Scheme;
use mdd_topology::{NicId, NodeId};

/// One way a resource vertex can be occupied, for witness rendering.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ClassKind {
    /// A packet in a router input VC (or being injected on a local port).
    Packet {
        /// Message type of the packet.
        mtype: MsgType,
        /// Destination NIC.
        dst: NicId,
        /// Dateline-crossing mask accumulated so far (bit per dimension).
        mask: u8,
    },
    /// A chain head at an endpoint input queue awaiting MC service.
    InHead {
        /// Transaction shape the head belongs to.
        shape: ShapeId,
        /// Chain position of the head.
        pos: usize,
    },
    /// An MC service additionally awaiting the return-reply earmark slot
    /// (deflective recovery's second preallocation).
    EarmarkWait {
        /// Transaction shape being serviced.
        shape: ShapeId,
        /// Chain position being serviced.
        pos: usize,
    },
    /// A generated message at an endpoint output queue awaiting one
    /// specific injection VC.
    OutHead {
        /// Message type awaiting injection.
        mtype: MsgType,
        /// The injection VC this class waits on.
        vc: u8,
    },
}

/// An independently-built slice of the static CDG: classes with *local*
/// ids (0-based within the segment), candidate vertices in the shared
/// [`ResourceLayout`] numbering, and (local class, vertex) memberships.
///
/// Candidates and memberships are stored flat (CSR for the candidates,
/// class-sorted pairs for the memberships), per-class sorted and
/// deduplicated by [`Segment::finalize`]. Flat storage keeps segments
/// allocation-light and makes [`assemble`] a pure concatenation — one
/// `Vec` per class dominated the degraded re-verdict wall time once a
/// few hundred thousand classes were live.
///
/// Equality is derived and byte-exact: a retyped segment
/// ([`retype_segment`]) must be *identical* to what a from-scratch build
/// of its type would have produced.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Segment {
    /// Class descriptors, by local class id.
    pub kind: Vec<ClassKind>,
    /// Per-class unconditional-escape flag.
    pub sink: Vec<bool>,
    /// CSR offsets into `cands`, length `kind.len() + 1`.
    pub cands_off: Vec<u32>,
    /// Flat OR-wait candidate vertices, grouped by class.
    pub cands: Vec<u32>,
    /// (local class, vertex) occupancy pairs, sorted and deduplicated.
    pub membership: Vec<(u32, u32)>,
    /// Deflection-credit overlay: extra `(local class, candidate vertex)`
    /// OR-wait edges the graph gains when deflective recovery is credited
    /// (a blocked head whose subordinate is a request may instead convert
    /// into a backoff reply and wait on its output queue). Kept out of
    /// `cands` so one assembled graph serves both peels.
    pub deflection_extra: Vec<(u32, u32)>,
}

impl Default for Segment {
    fn default() -> Self {
        Segment {
            kind: Vec::new(),
            sink: Vec::new(),
            cands_off: vec![0],
            cands: Vec::new(),
            membership: Vec::new(),
            deflection_extra: Vec::new(),
        }
    }
}

/// The static CDG: occupant classes over the shared resource vertex set.
/// All per-class / per-vertex lists are CSR-flattened; use the accessor
/// methods.
#[derive(Debug)]
pub(crate) struct StaticCdg<'a> {
    pub layout: ResourceLayout,
    pub input: VerifyInput<'a>,
    /// Class descriptors (for witness notes).
    pub kind: Vec<ClassKind>,
    /// True when the class has an unconditional escape (guaranteed
    /// consumption / terminating sink): it is safe by itself.
    pub sink: Vec<bool>,
    /// CSR offsets into `cands`, length `num_classes() + 1`.
    cands_off: Vec<u32>,
    /// Flat OR-wait candidate vertices, grouped by class (deduplicated).
    cands: Vec<u32>,
    /// CSR offsets into `members`, length `num_classes() + 1`.
    members_off: Vec<u32>,
    /// Flat vertices each class can occupy (deduplicated).
    members: Vec<u32>,
    /// CSR offsets into `vclasses`, length `num_vertices() + 1`.
    vclasses_off: Vec<u32>,
    /// Flat classes that can occupy each vertex (deduplicated).
    vclasses: Vec<u32>,
    /// Deflection-credit overlay edges `(class, candidate vertex)`, in the
    /// global class numbering (see [`Segment::deflection_extra`]). The
    /// credited peel is the base peel with these OR-wait edges added.
    pub deflection_extra: Vec<(u32, u32)>,
}

impl StaticCdg<'_> {
    /// Number of occupant classes.
    pub fn num_classes(&self) -> usize {
        self.kind.len()
    }

    /// Number of resource vertices.
    pub fn num_vertices(&self) -> usize {
        self.vclasses_off.len() - 1
    }

    /// OR-wait candidate vertices of `class`.
    pub fn cands(&self, class: u32) -> &[u32] {
        let (a, b) = (
            self.cands_off[class as usize],
            self.cands_off[class as usize + 1],
        );
        &self.cands[a as usize..b as usize]
    }

    /// Vertices `class` can occupy.
    pub fn members(&self, class: u32) -> &[u32] {
        let (a, b) = (
            self.members_off[class as usize],
            self.members_off[class as usize + 1],
        );
        &self.members[a as usize..b as usize]
    }

    /// Classes that can occupy `vertex`.
    pub fn classes_at(&self, vertex: u32) -> &[u32] {
        let (a, b) = (
            self.vclasses_off[vertex as usize],
            self.vclasses_off[vertex as usize + 1],
        );
        &self.vclasses[a as usize..b as usize]
    }
}

impl StaticCdg<'_> {
    /// Witness note for one class: the blocked occupant, in the mnemonic
    /// vocabulary of the protocol spec.
    pub fn note(&self, class: u32) -> String {
        let proto = self.input.pattern.protocol();
        match self.kind[class as usize] {
            ClassKind::Packet { mtype, dst, mask } => {
                let name = proto.spec(mtype).name;
                if mask == 0 {
                    format!("{name} to nic {}", dst.index())
                } else {
                    format!("{name} to nic {} (crossed dateline)", dst.index())
                }
            }
            ClassKind::InHead { shape, pos } => {
                let s = self.input.pattern.shape(shape);
                let head = proto.spec(s.mtype(pos)).name;
                let sub = proto.spec(s.mtype(pos + 1)).name;
                format!("head {head} -> {sub}")
            }
            ClassKind::EarmarkWait { shape, pos } => {
                let s = self.input.pattern.shape(shape);
                let head = proto.spec(s.mtype(pos)).name;
                let ret = proto.spec(s.mtype(pos + 2)).name;
                format!("{head} service awaiting {ret} earmark")
            }
            ClassKind::OutHead { mtype, vc } => {
                format!("{} awaiting injection vc {vc}", proto.spec(mtype).name)
            }
        }
    }
}

/// Message types under deflective recovery whose delivery is guaranteed
/// by input-queue earmarks (see `mdd-nic::Nic::can_accept`): the backoff
/// type sinks unconditionally; a terminating reply claims the slot
/// preallocated at request issue provided every chain occurrence is
/// delivered to the requester; a non-terminating reply claims the slot
/// preallocated at its grandparent's service provided it returns to the
/// servicing node.
pub(crate) fn guaranteed_ejection(input: &VerifyInput<'_>) -> Vec<bool> {
    let proto = input.pattern.protocol();
    let n = proto.num_types();
    let mut out = vec![false; n];
    if !matches!(input.scheme, Scheme::DeflectiveRecovery) {
        return out;
    }
    for t in proto.msg_types() {
        if Some(t) == proto.backoff_type() {
            out[t.index()] = true;
            continue;
        }
        let mut occurs = false;
        let mut covered = true;
        for sid in active_shapes(input) {
            let shape = input.pattern.shape(sid);
            for pos in 0..shape.len() {
                if shape.mtype(pos) != t {
                    continue;
                }
                occurs = true;
                let ok = if proto.is_terminating(t) {
                    shape.target(pos) == HopTarget::Requester
                } else {
                    proto.kind(t) == MsgKind::Reply
                        && pos >= 2
                        && shape.target(pos) == shape.target(pos - 2)
                };
                covered &= ok;
            }
        }
        out[t.index()] = occurs && covered;
    }
    out
}

/// Shape ids with positive workload weight.
fn active_shapes<'i>(input: &VerifyInput<'i>) -> impl Iterator<Item = ShapeId> + 'i {
    let pattern = input.pattern;
    (0..pattern.num_shapes())
        .map(|i| ShapeId(i as u16))
        .filter(move |&sid| pattern.weight(sid) > 0.0)
}

/// Message types that can appear in the network: every type of an active
/// chain, plus — under deflective recovery only — the backoff type (it is
/// generated exclusively by deflection, so including it under SA/PR would
/// fabricate dependencies that cannot occur).
pub(crate) fn net_types(input: &VerifyInput<'_>) -> Vec<MsgType> {
    let proto = input.pattern.protocol();
    let mut types: Vec<MsgType> = Vec::new();
    for sid in active_shapes(input) {
        let shape = input.pattern.shape(sid);
        for pos in 0..shape.len() {
            let t = shape.mtype(pos);
            if !types.contains(&t) {
                types.push(t);
            }
        }
    }
    if matches!(input.scheme, Scheme::DeflectiveRecovery) {
        if let Some(b) = proto.backoff_type() {
            if !types.contains(&b) {
                types.push(b);
            }
        }
    }
    types
}

/// A scratch message store so the routing trait can be driven without a
/// simulator: only the packet-state fields matter.
fn scratch_packet(t: MsgType) -> (MessageStore, PacketState) {
    let mut store = MessageStore::new();
    let mut ids = IdAlloc::new();
    let scratch = store.insert(Message {
        id: ids.next_msg(),
        txn: TransactionId(0),
        mtype: MsgType(0),
        shape: ShapeId(0),
        chain_pos: 0,
        src: NicId(0),
        dst: NicId(0),
        requester: NicId(0),
        home: NicId(0),
        owner: NicId(0),
        length_flits: 1,
        created: 0,
        is_backoff: false,
        rescued: false,
        sharers: 0,
    });
    let pkt = PacketState {
        msg: scratch,
        mtype: t,
        src: NicId(0),
        dst: NicId(0),
        dst_router: NodeId(0),
        crossed_dateline: 0,
    };
    (store, pkt)
}

/// The static CDG of `input` over `routing`: every (net type,
/// destination) packet segment, type-major, then the endpoint segment,
/// assembled. `routing` is the scheme's base function for a pristine
/// analysis or a fault-steered `DegradedRouting` for a degraded one.
///
/// A type routing-interchangeable with an earlier one
/// ([`interchangeable_earlier_type`]) skips its BFS: each of its segments
/// is the earlier type's, retyped ([`retype_segment`]). This is the only
/// construction the analyses run; `verify_faulted` builds every segment
/// underived and the agreement tests hold the two equal.
pub(crate) fn cdg<'a>(input: &VerifyInput<'a>, routing: &dyn Routing) -> StaticCdg<'a> {
    let layout = crate::layout_for(input);
    let types = net_types(input);
    let guaranteed = guaranteed_ejection(input);
    let nnics = input.topo.num_nics() as usize;
    let mut packet: Vec<Segment> = Vec::with_capacity(types.len() * nnics);
    for (ti, &t) in types.iter().enumerate() {
        let twin = interchangeable_earlier_type(input, &types[..ti], t, &guaranteed);
        for (di, dst) in input.topo.nics().enumerate() {
            let seg = match twin {
                Some((t0i, t0)) => retype_segment(
                    &packet[t0i * nnics + di],
                    t,
                    eject_patch(input, &layout, t0, t, dst),
                ),
                None => packet_segment(input, routing, &layout, t, dst, guaranteed[t.index()]),
            };
            packet.push(seg);
        }
    }
    let endpoint = endpoint_segment(input, &layout);
    assemble(input, packet.iter().chain(std::iter::once(&endpoint)))
}

/// The earliest already-built net type whose packet segments can stand in
/// for `t`'s via [`retype_segment`]: identical [`mdd_routing::TypeVcs`]
/// (the BFS visits the same states and emits the same candidate VCs, both
/// pristine and degraded — `DegradedRouting` consults only the type's VC
/// set) and identical guaranteed-ejection status (same sink structure).
/// Under PR's uniform fully adaptive map every type collapses onto the
/// first; partitioned maps (SA, DR) never match.
fn interchangeable_earlier_type(
    input: &VerifyInput<'_>,
    earlier: &[MsgType],
    t: MsgType,
    guaranteed: &[bool],
) -> Option<(usize, MsgType)> {
    let map = input.routing.map();
    earlier.iter().copied().enumerate().find(|&(_, t0)| {
        guaranteed[t0.index()] == guaranteed[t.index()] && *map.for_type(t0) == *map.for_type(t)
    })
}

/// The ejection-wait vertex substitution between two interchangeable
/// types' segments for `dst` (`None` when the queue organization maps
/// both types to the same destination input queue).
fn eject_patch(
    input: &VerifyInput<'_>,
    layout: &ResourceLayout,
    t0: MsgType,
    t: MsgType,
    dst: NicId,
) -> Option<(u32, u32)> {
    let proto = input.pattern.protocol();
    let q0 = input.queue_org.queue_index(proto, t0);
    let q1 = input.queue_org.queue_index(proto, t);
    (q0 != q1).then(|| {
        (
            layout.in_queue_vertex(dst, q0),
            layout.in_queue_vertex(dst, q1),
        )
    })
}

/// Router-VC classes for one (message type, destination NIC): the BFS per
/// `(router, dateline mask)` state driving `routing`'s real candidate
/// function. `routing` is the scheme's base function for a pristine
/// analysis, or a fault-steered `DegradedRouting` for a degraded one.
///
/// A reachable state whose candidate set comes back *empty* (stranded
/// mid-route by the fault set) is kept as a non-sink class with no
/// candidates — the classifier turns it into an `Unsafe` verdict.
pub(crate) fn packet_segment(
    input: &VerifyInput<'_>,
    routing: &dyn Routing,
    layout: &ResourceLayout,
    t: MsgType,
    dst: NicId,
    guaranteed_t: bool,
) -> Segment {
    let topo = input.topo;
    let proto = input.pattern.protocol();
    assert!(topo.dims() <= 8, "dateline masks are one bit per dimension");
    let qi = input.queue_org.queue_index(proto, t);
    let dst_router = topo.nic_router(dst);
    let mut seg = Segment::default();

    let (_store, mut pkt) = scratch_packet(t);
    let mut inj_buf: Vec<u8> = Vec::new();
    routing.injection_vcs(&pkt, &mut inj_buf);
    pkt.dst = dst;
    pkt.dst_router = dst_router;

    let nr = topo.num_routers() as usize;
    // When the routing function can never consult the dateline mask for
    // this type (no multi-class escape set: PR's fully adaptive map, a
    // degraded map's truncated escape set), states differing only in mask
    // have identical candidate structure — fold them into one class
    // instead of sweeping `2^dims` copies of every router.
    let masks = if routing.dateline_sensitive(t) {
        1usize << topo.dims()
    } else {
        1
    };
    let mut state_class: Vec<u32> = vec![u32::MAX; nr * masks];
    // One class per BFS state at most; reserving that bound (and a
    // small multiple for the edge lists) saves the growth reallocations
    // that cost an 8×8 frontier sweep about a tenth of its time.
    seg.kind.reserve(nr * masks);
    seg.sink.reserve(nr * masks);
    seg.membership.reserve(2 * nr * masks);
    let mut stack: Vec<(NodeId, u8)> = Vec::new();
    let mut rc_buf: Vec<RouteCandidate> = Vec::new();
    let mut cand_pairs: Vec<(u32, u32)> = Vec::with_capacity(2 * nr * masks);

    // Seed: injections from every other endpoint, occupying the
    // local-port VCs the routing function admits at injection.
    for src in topo.nics() {
        if src == dst {
            continue;
        }
        let r = topo.nic_router(src);
        let c = intern_state(&mut state_class, &mut stack, &mut seg, masks, r, 0, t, dst);
        let lp = topo.local_port(topo.nic_local_index(src));
        for &v in &inj_buf {
            seg.membership.push((c, layout.vc_vertex(r, lp, v)));
        }
    }

    while let Some((node, mask)) = stack.pop() {
        let c = state_class[node.index() * masks + mask as usize];
        pkt.crossed_dateline = mask;
        rc_buf.clear();
        routing.candidates(topo, node, &pkt, 0, &mut rc_buf);
        for rc in &rc_buf {
            match topo.port_dim_dir(rc.port) {
                Some((d, dir)) => {
                    let down = topo.neighbor(node, d, dir);
                    let dport = topo.port(d, dir.opposite());
                    let mask2 = if masks > 1 && topo.crosses_dateline(node, d, dir) {
                        mask | (1 << d)
                    } else {
                        mask
                    };
                    let vtx = layout.vc_vertex(down, dport, rc.vc);
                    cand_pairs.push((c, vtx));
                    let c2 = intern_state(
                        &mut state_class,
                        &mut stack,
                        &mut seg,
                        masks,
                        down,
                        mask2,
                        t,
                        dst,
                    );
                    seg.membership.push((c2, vtx));
                }
                None => {
                    // Ejection at the destination router: either
                    // consumption is guaranteed by an earmark (sink) or
                    // the packet waits on the destination input queue.
                    if guaranteed_t {
                        seg.sink[c as usize] = true;
                    } else {
                        cand_pairs.push((c, layout.in_queue_vertex(dst, qi)));
                    }
                }
            }
        }
    }
    seg.finalize(cand_pairs);
    seg
}

/// Endpoint classes: the paper's `≺` edges (chain heads in input queues
/// waiting on their subordinate's output queue, plus DR's earmark
/// AND-waits) followed by output-queue injection waits. Deflective recovery's credit edges are returned alongside as the
/// segment's `deflection_extra` overlay rather than baked into `cands`.
pub(crate) fn endpoint_segment(input: &VerifyInput<'_>, layout: &ResourceLayout) -> Segment {
    let topo = input.topo;
    let proto = input.pattern.protocol();
    let org = input.queue_org;
    let dr = matches!(input.scheme, Scheme::DeflectiveRecovery);
    let bkf = proto.backoff_type();
    let mut seg = Segment::default();
    let mut cand_pairs: Vec<(u32, u32)> = Vec::new();

    // --- Endpoint input-queue classes. A non-terminating, non-final head
    // --- waits on its subordinate's output queue; terminating heads sink
    // --- (no class needed).
    for sid in active_shapes(input) {
        let shape = input.pattern.shape(sid);
        for pos in 0..shape.len() {
            let t = shape.mtype(pos);
            if proto.is_terminating(t) || shape.is_last(pos) {
                continue;
            }
            let sub = shape.mtype(pos + 1);
            let qi = org.queue_index(proto, t);
            let sub_q = org.queue_index(proto, sub);
            let deflectable = dr && proto.kind(sub) == MsgKind::Request;
            for nic in topo.nics() {
                let vtx = layout.in_queue_vertex(nic, qi);
                let c = seg.push_class(ClassKind::InHead { shape: sid, pos });
                cand_pairs.push((c, layout.out_queue_vertex(nic, sub_q)));
                if deflectable {
                    if let Some(b) = bkf {
                        seg.deflection_extra
                            .push((c, layout.out_queue_vertex(nic, org.queue_index(proto, b))));
                    }
                }
                seg.membership.push((c, vtx));
                // Deflective recovery's return-reply earmark: servicing
                // additionally needs a preallocatable slot in the return
                // reply's own input queue (an AND-wait, hence a second
                // class on the same vertex).
                if dr && pos + 2 < shape.len() {
                    let ret_q = org.queue_index(proto, shape.mtype(pos + 2));
                    let c2 = seg.push_class(ClassKind::EarmarkWait { shape: sid, pos });
                    cand_pairs.push((c2, layout.in_queue_vertex(nic, ret_q)));
                    seg.membership.push((c2, vtx));
                }
            }
        }
    }

    // --- Endpoint output-queue classes: a generated message awaits
    // --- injection. One class per admissible injection VC (AND-composed:
    // --- packetization may bind any one of them, so the queue is only
    // --- guaranteed to drain when each admissible channel drains).
    let mut inj_buf: Vec<u8> = Vec::new();
    for t in net_types(input) {
        let (_store, pkt) = scratch_packet(t);
        inj_buf.clear();
        input.routing.injection_vcs(&pkt, &mut inj_buf);
        let oq = org.queue_index(proto, t);
        for nic in topo.nics() {
            let r = topo.nic_router(nic);
            let lp = topo.local_port(topo.nic_local_index(nic));
            let vtx = layout.out_queue_vertex(nic, oq);
            for &v in &inj_buf {
                let c = seg.push_class(ClassKind::OutHead { mtype: t, vc: v });
                cand_pairs.push((c, layout.vc_vertex(r, lp, v)));
                seg.membership.push((c, vtx));
            }
        }
    }
    seg.finalize(cand_pairs);
    seg
}

/// Concatenate segments (local class ids shifted onto one global
/// numbering, in segment order) and finalize the dedicated occupancy
/// indexes. The result is identical to building the whole graph in one
/// pass as long as the segments are supplied in the canonical order:
/// packet segments type-major/destination-minor, then the endpoint
/// segment.
pub(crate) fn assemble<'a, 'i>(
    input: &VerifyInput<'a>,
    segments: impl IntoIterator<Item = &'i Segment>,
) -> StaticCdg<'a> {
    let layout = crate::layout_for(input);
    let nv = layout.num_vertices();
    let segments: Vec<&Segment> = segments.into_iter().collect();
    let total_classes: usize = segments.iter().map(|s| s.kind.len()).sum();
    let total_cands: usize = segments.iter().map(|s| s.cands.len()).sum();
    let total_members: usize = segments.iter().map(|s| s.membership.len()).sum();
    let mut kind: Vec<ClassKind> = Vec::with_capacity(total_classes);
    let mut sink: Vec<bool> = Vec::with_capacity(total_classes);
    let mut cands_off: Vec<u32> = Vec::with_capacity(total_classes + 1);
    cands_off.push(0);
    let mut cands: Vec<u32> = Vec::with_capacity(total_cands);
    let mut membership: Vec<(u32, u32)> = Vec::with_capacity(total_members);
    let mut deflection_extra: Vec<(u32, u32)> = Vec::new();
    for seg in segments {
        let off = kind.len() as u32;
        kind.extend_from_slice(&seg.kind);
        sink.extend_from_slice(&seg.sink);
        let cbase = *cands_off.last().expect("offsets start at 0");
        cands_off.extend(seg.cands_off[1..].iter().map(|&o| cbase + o));
        cands.extend_from_slice(&seg.cands);
        // Finalized segments carry sorted, deduplicated memberships, and
        // class ids are disjoint across segments, so plain concatenation
        // with the offset shift keeps the global pair list class-major
        // sorted with no duplicates.
        membership.extend(seg.membership.iter().map(|&(c, v)| (off + c, v)));
        deflection_extra.extend(seg.deflection_extra.iter().map(|&(c, v)| (off + c, v)));
    }
    debug_assert!(membership.windows(2).all(|w| w[0] < w[1]));
    let mut members_off: Vec<u32> = vec![0; kind.len() + 1];
    for &(c, _) in &membership {
        members_off[c as usize + 1] += 1;
    }
    for i in 1..members_off.len() {
        members_off[i] += members_off[i - 1];
    }
    let members: Vec<u32> = membership.iter().map(|&(_, v)| v).collect();
    let mut vclasses_off: Vec<u32> = vec![0; nv + 1];
    for &(_, v) in &membership {
        vclasses_off[v as usize + 1] += 1;
    }
    for i in 1..vclasses_off.len() {
        vclasses_off[i] += vclasses_off[i - 1];
    }
    // Filling in pair order (class-ascending) leaves each vertex's class
    // list sorted, matching the per-class candidate ordering above.
    let mut fill = vclasses_off.clone();
    let mut vclasses: Vec<u32> = vec![0; membership.len()];
    for &(c, v) in &membership {
        vclasses[fill[v as usize] as usize] = c;
        fill[v as usize] += 1;
    }
    StaticCdg {
        layout,
        input: *input,
        kind,
        sink,
        cands_off,
        cands,
        members_off,
        members,
        vclasses_off,
        vclasses,
        deflection_extra,
    }
}

/// Derive the packet segment of message type `to_t` from the segment of a
/// *routing-interchangeable* type for the same destination: identical
/// `TypeVcs` (so the BFS visits the same states and emits the same
/// candidate VCs) and identical guaranteed-ejection status. The derived
/// segment differs from `seg` only in the type recorded in its class
/// descriptors and — when `eject` is `Some((old, new))` — in the
/// destination input-queue vertex its ejection classes wait on. [`cdg`]
/// uses this to skip the second BFS per destination under PR's uniform
/// fully adaptive map; `verify_faulted` never does, so the agreement
/// checks validate every derivation against an honest from-scratch build.
fn retype_segment(seg: &Segment, to_t: MsgType, eject: Option<(u32, u32)>) -> Segment {
    let mut out = seg.clone();
    for k in &mut out.kind {
        if let ClassKind::Packet { mtype, .. } = k {
            *mtype = to_t;
        }
    }
    if let Some((old_ej, new_ej)) = eject {
        if old_ej != new_ej {
            for c in 0..out.kind.len() {
                let (a, b) = (out.cands_off[c] as usize, out.cands_off[c + 1] as usize);
                let range = &mut out.cands[a..b];
                if let Some(slot) = range.iter_mut().find(|v| **v == old_ej) {
                    *slot = new_ej;
                    // Queue vertices never collide with VC vertices, so
                    // re-sorting restores the per-class invariant without
                    // introducing duplicates.
                    range.sort_unstable();
                }
            }
        }
    }
    out
}

impl Segment {
    fn push_class(&mut self, k: ClassKind) -> u32 {
        let id = self.kind.len() as u32;
        self.kind.push(k);
        self.sink.push(false);
        id
    }

    /// Build the candidate CSR from the `(class, vertex)` pairs
    /// accumulated during construction and sort/dedup the membership.
    /// Called exactly once, after the last class is pushed.
    fn finalize(&mut self, mut cand_pairs: Vec<(u32, u32)>) {
        cand_pairs.sort_unstable();
        cand_pairs.dedup();
        self.cands_off = vec![0; self.kind.len() + 1];
        for &(c, _) in &cand_pairs {
            self.cands_off[c as usize + 1] += 1;
        }
        for i in 1..self.cands_off.len() {
            self.cands_off[i] += self.cands_off[i - 1];
        }
        self.cands = cand_pairs.into_iter().map(|(_, v)| v).collect();
        self.membership.sort_unstable();
        self.membership.dedup();
    }
}

/// Get-or-create the packet class for BFS state `(node, mask)`; newly
/// created states are pushed on the BFS stack.
#[allow(clippy::too_many_arguments)]
fn intern_state(
    state_class: &mut [u32],
    stack: &mut Vec<(NodeId, u8)>,
    seg: &mut Segment,
    masks: usize,
    node: NodeId,
    mask: u8,
    mtype: MsgType,
    dst: NicId,
) -> u32 {
    let slot = node.index() * masks + mask as usize;
    if state_class[slot] == u32::MAX {
        let c = seg.push_class(ClassKind::Packet { mtype, dst, mask });
        state_class[slot] = c;
        stack.push((node, mask));
    }
    state_class[slot]
}
