//! Trace recording and replay.
//!
//! The paper's methodology (Section 4.2.1) gathers each application's data
//! accesses "into a trace file along with timing information in order to
//! preserve traffic burstiness", then drives the network simulator from
//! the trace. [`record_app_trace`] produces such a trace from an
//! application model; [`TraceReplayTraffic`] replays one through the MSI
//! directory engine as a [`TrafficSource`].

use crate::engine::CoherenceEngine;
use mdd_protocol::{IdAlloc, MessageStore, MsgHandle};
use mdd_topology::NicId;
use mdd_traffic::{AppModel, TraceEvent, TraceLog, TrafficSource};
use rand::Rng;
use std::collections::VecDeque;

/// Record `horizon` cycles of `app`'s access stream for `nprocs`
/// processors into a timing-preserving trace.
///
/// The access intensity follows the application's load schedule using the
/// same first-order rate estimate the live source starts from; replaying
/// the trace through [`TraceReplayTraffic`] reproduces the same bursts at
/// the same cycles, deterministically.
pub fn record_app_trace(app: &AppModel, nprocs: u32, horizon: u64, seed: u64) -> TraceLog {
    let mut rng = app.rng(seed);
    let mut log = TraceLog::new();
    // Static estimate: roughly a third of accesses miss and cost ~24
    // injected flits (matches CoherentTraffic's initial controller guess).
    for cycle in 0..horizon {
        let progress = cycle as f64 / horizon as f64;
        let rate = (app.load_at(progress) / (0.33 * 24.0)).clamp(0.0, 1.0);
        for proc in 0..nprocs {
            if rng.random::<f64>() < rate {
                let (addr, write) = app.sample_access(proc, nprocs, &mut rng);
                log.push(TraceEvent {
                    cycle,
                    proc,
                    addr,
                    write,
                });
            }
        }
    }
    log
}

/// A [`TrafficSource`] replaying a recorded access trace through the MSI
/// directory engine, issuing the resulting network transactions at the
/// recorded cycles.
#[derive(Debug)]
pub struct TraceReplayTraffic {
    engine: CoherenceEngine,
    log: TraceLog,
    next_event: usize,
    pending: Vec<VecDeque<MsgHandle>>,
    generated_txns: u64,
}

impl TraceReplayTraffic {
    /// Replay `log` over `nprocs` processors.
    pub fn new(log: TraceLog, nprocs: u32, seed: u64) -> Self {
        TraceReplayTraffic {
            engine: CoherenceEngine::new(nprocs, 0.05, seed),
            log,
            next_event: 0,
            pending: (0..nprocs).map(|_| VecDeque::new()).collect(),
            generated_txns: 0,
        }
    }

    /// The coherence engine (for Table 1-style statistics).
    pub fn engine(&self) -> &CoherenceEngine {
        &self.engine
    }

    /// Events not yet replayed.
    pub fn remaining_events(&self) -> usize {
        self.log.len() - self.next_event
    }
}

impl TrafficSource for TraceReplayTraffic {
    fn tick(&mut self, cycle: u64, ids: &mut IdAlloc, store: &mut MessageStore) {
        while self.next_event < self.log.len() {
            let ev = self.log.events()[self.next_event];
            if ev.cycle > cycle {
                break;
            }
            self.next_event += 1;
            if let Some(acc) = self.engine.access(ev.proc, ev.addr, ev.write, cycle, ids) {
                self.pending[ev.proc as usize].push_back(store.insert(acc.request));
                self.generated_txns += 1;
            }
        }
    }

    fn pending_head(&self, nic: NicId) -> Option<MsgHandle> {
        self.pending[nic.index()].front().copied()
    }

    fn pop_pending(&mut self, nic: NicId) -> Option<MsgHandle> {
        self.pending[nic.index()].pop_front()
    }

    fn backlog(&self) -> usize {
        self.pending.iter().map(VecDeque::len).sum()
    }

    fn generated(&self) -> u64 {
        self.generated_txns
    }
}
