//! Ground-truth deadlock detection: building the extended channel
//! wait-for graph (CWG) from live simulator state.
//!
//! This mirrors FlexSim 1.2's CWG-based detection, augmented (as in
//! Section 4.1) with message-level activities at network interfaces:
//! besides the virtual channels, the graph contains a vertex per endpoint
//! input queue and output queue, so message-dependent cycles that close
//! through the endpoints are visible.
//!
//! Vertex ids follow [`mdd_deadlock::ResourceLayout`], the same layout the
//! static verifier (`mdd-verify`) uses, so a runtime deadlock trace from
//! [`deadlock_witness`] and a static cycle witness name resources
//! identically.
//!
//! Edge rules (OR-wait semantics — a vertex with no out-edges can make
//! progress and is an escape):
//! * a routed input VC waits on its allocated downstream VC; an unrouted
//!   head waits on every routing candidate (downstream VCs, or the
//!   destination NIC input queue for local candidates);
//! * an input queue waits on what [`mdd_nic::Nic::head_blocker`] says
//!   its head waits on, the one rule that memory-controller service, the
//!   detectors, deflection and rescue also read: the output queue of the
//!   head's subordinate type ([`Blocker::Output`]), or the input queue in
//!   which its returning reply must earmark a slot ([`Blocker::Earmark`]).
//!   A head that can start, or that sinks, gets no out-edge (backoff
//!   replies never enter an input queue: they sink at ejection). An input
//!   queue holding only earmarks has no head and so stays an escape,
//!   though it waits on the transactions that hold the earmarks: an
//!   under-approximation, never a false deadlock (the edge to the
//!   earmark-holding transaction is ROADMAP item 1's);
//! * an output queue with a head waits on the injection VC it is bound to
//!   (if packetization started) or on every injection VC its head may use.

use crate::sim::Simulator;
use mdd_deadlock::{Resource, ResourceLayout, WaitForGraph};
use mdd_nic::Blocker;
use mdd_router::{RouteCandidate, Routing};
use mdd_topology::PortId;

/// The shared vertex layout for the simulator's configuration.
pub(crate) fn resource_layout(sim: &Simulator) -> ResourceLayout {
    let nq = sim.nics()[0].num_queues();
    ResourceLayout::new(sim.topo(), sim.network().vcs() as usize, nq)
}

/// Build the extended CWG for the simulator's current state.
pub fn build_waitfor_graph(sim: &Simulator) -> WaitForGraph {
    let topo = sim.topo();
    let net = sim.network();
    let nics = sim.nics();
    let store = sim.store();
    let pattern = sim.config().pattern.clone();
    let proto = pattern.protocol();

    let layout = resource_layout(sim);
    let ports = topo.ports_per_router();
    let vcs = net.vcs() as usize;
    let nr = topo.num_routers() as usize;
    let nq = nics[0].num_queues();
    let mut g = WaitForGraph::new(layout.num_vertices());
    let org = sim.config().effective_queue_org();

    // Router VCs.
    let mut cands: Vec<RouteCandidate> = Vec::new();
    for r in 0..nr {
        let node = mdd_topology::NodeId(r as u32);
        let router = net.router(node);
        for p in 0..ports {
            for v in 0..vcs {
                let vc = router.vc(PortId(p as u8), v as u8);
                let Some(front) = vc.front() else { continue };
                let src_vertex = layout.vc_vertex(node, PortId(p as u8), v as u8);
                let Some(pkt) = net.packets().get(front.msg) else {
                    continue;
                };
                let add_target = |g: &mut WaitForGraph, port: PortId, ovc: u8| {
                    if let Some((d, dir)) = topo.port_dim_dir(port) {
                        let down = topo.neighbor(node, d, dir).expect("link exists");
                        let dport = topo.port(d, dir.opposite());
                        g.add_edge(src_vertex, layout.vc_vertex(down, dport, ovc));
                    } else {
                        // Local port: waits on destination input queue —
                        // only when that queue is actually full (otherwise
                        // acceptance is imminent: progress, no wait).
                        let local = topo.port_local_index(port).expect("local port");
                        let nic = topo.nic_at(node, local);
                        let qi = org.queue_index(proto, pkt.mtype);
                        if nics[nic.index()].in_queue(qi).is_full() {
                            g.add_edge(src_vertex, layout.in_queue_vertex(nic, qi));
                        }
                    }
                };
                match vc.route() {
                    Some((op, ov)) => {
                        // A granted local route has a reservation: progress
                        // is guaranteed, no wait edge.
                        if topo.port_dim_dir(op).is_some() {
                            add_target(&mut g, op, ov);
                        }
                    }
                    None => {
                        if front.is_head() {
                            cands.clear();
                            sim.routing().candidates(topo, node, pkt, 0, &mut cands);
                            for c in &cands {
                                add_target(&mut g, c.port, c.vc);
                            }
                        }
                    }
                }
            }
        }
    }

    // Endpoint queues.
    for nic in nics {
        let nid = nic.id();
        for q in 0..nq {
            // Input queue head waits on what keeps it from starting.
            if let Some(blocker) = nic.head_blocker(q, store) {
                let to = match blocker {
                    Blocker::Output { sub, .. } => {
                        layout.out_queue_vertex(nid, org.queue_index(proto, sub))
                    }
                    Blocker::Earmark { rq } => layout.in_queue_vertex(nid, rq),
                };
                g.add_edge(layout.in_queue_vertex(nid, q), to);
            }
            // Output queue head waits on injection VCs.
            if let Some(&h) = nic.out_queue(q).front() {
                let head = store.get(h);
                let my_router = topo.nic_router(nid);
                let local_port = topo.local_port(topo.nic_local_index(nid));
                match nic.active_injection_vc(h) {
                    Some(v) => {
                        g.add_edge(
                            layout.out_queue_vertex(nid, q),
                            layout.vc_vertex(my_router, local_port, v),
                        );
                    }
                    None => {
                        let pkt = mdd_router::PacketState {
                            msg: h,
                            mtype: head.mtype,
                            src: head.src,
                            dst: head.dst,
                            dst_router: topo.nic_router(head.dst),
                            crossed_dateline: 0,
                        };
                        let mut vcs_buf = Vec::new();
                        sim.routing().injection_vcs(&pkt, &mut vcs_buf);
                        for v in vcs_buf {
                            g.add_edge(
                                layout.out_queue_vertex(nid, q),
                                layout.vc_vertex(my_router, local_port, v),
                            );
                        }
                    }
                }
            }
        }
    }
    g
}

/// If the simulator is deadlocked *right now* (the CWG holds a knot),
/// return a human-readable trace of one cycle inside the first knot,
/// annotated with the message type blocked at each resource. Uses the
/// same [`ResourceLayout`] naming as `mdd-verify`'s static witnesses.
pub fn deadlock_witness(sim: &Simulator) -> Option<String> {
    let g = build_waitfor_graph(sim);
    let knot = g.knots().into_iter().next()?;
    let cycle = g.cycle_in_component(&knot);
    if cycle.is_empty() {
        return None;
    }
    let layout = resource_layout(sim);
    let store = sim.store();
    let net = sim.network();
    let proto = sim.config().pattern.protocol();
    let notes: Vec<String> = cycle
        .iter()
        .map(|&v| {
            let head = match layout.resource(v) {
                Resource::ChannelVc { router, port, vc } => {
                    net.router(router).vc(port, vc).front().map(|f| f.msg)
                }
                Resource::InputQueue { nic, queue } => {
                    sim.nics()[nic.index()].in_queue(queue).front().copied()
                }
                Resource::OutputQueue { nic, queue } => {
                    sim.nics()[nic.index()].out_queue(queue).front().copied()
                }
            };
            head.and_then(|h| store.try_get(h))
                .map(|m| format!("{} to nic {}", proto.spec(m.mtype).name, m.dst.index()))
                .unwrap_or_default()
        })
        .collect();
    Some(layout.format_cycle(&cycle, &notes))
}
