//! Open-loop synthetic request generation.

use crate::source::TrafficSource;
use mdd_protocol::{IdAlloc, Message, MessageStore, MsgHandle, PatternSpec};
use mdd_topology::NicId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::sync::Arc;

/// Destination selection for original requests (the home node of the
/// transaction). The paper evaluates `Random` (Table 2); `Neighbor`
/// drives the scale ladder and `Hotspot` the 64×64 rescue-episode tests.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DestPattern {
    /// Uniform random over all other nodes.
    Random,
    /// Ring successor in NIC index order (`src + 1 mod N`): a
    /// locality-preserving permutation whose hop count stays constant as
    /// the network scales — the scale ladder's fixed-per-node-activity
    /// pattern. (Uniform random traffic grows its average path length
    /// with the radix, so the same per-node injection rate loads a large
    /// torus far more heavily per link.)
    Neighbor,
    /// Uniform random, except a `fraction` of requests target one hotspot
    /// node.
    Hotspot {
        /// The favoured node.
        node: u32,
        /// Per-mille of requests directed at the hotspot.
        permille: u16,
    },
}

/// Per-node Bernoulli request generator with unbounded source queues
/// (open-loop: applied load is independent of network acceptance, the
/// standard Burton-Normal-Form methodology).
///
/// ```
/// use mdd_traffic::{SyntheticTraffic, DestPattern, TrafficSource};
/// use mdd_protocol::{PatternSpec, IdAlloc};
/// use std::sync::Arc;
/// let pat = Arc::new(PatternSpec::pat100()); // 24 flits per transaction
/// let mut tr = SyntheticTraffic::new(pat, 64, 0.24, DestPattern::Random, 7);
/// assert!((tr.txn_rate() - 0.01).abs() < 1e-12);
/// let mut ids = IdAlloc::new();
/// let mut store = mdd_protocol::MessageStore::new();
/// for c in 0..100 { tr.tick(c, &mut ids, &mut store); }
/// assert!(tr.generated() > 0);
/// ```
#[derive(Debug)]
pub struct SyntheticTraffic {
    pattern: Arc<PatternSpec>,
    txn_rate: f64,
    dest: DestPattern,
    rng: StdRng,
    pending: Vec<VecDeque<MsgHandle>>,
    num_nics: u32,
    /// Sparse-arrival event queue: `Some` holds `(next arrival cycle,
    /// src)` entries, one per node, ordered so same-cycle arrivals pop in
    /// ascending source order. `None` is the dense per-cycle Bernoulli
    /// mode (one RNG draw per node per cycle — the original, golden-
    /// pinned stream).
    arrivals: Option<std::collections::BinaryHeap<std::cmp::Reverse<(u64, u32)>>>,
    /// Occupancy bitmap over `pending`: bit `i` set ⟺ queue `i` is
    /// non-empty. Lets the simulator's issue loop visit only NICs with
    /// queued requests instead of polling all of them every cycle.
    pending_bits: Vec<u64>,
    /// Transactions generated so far.
    pub generated: u64,
}

impl SyntheticTraffic {
    /// A generator over `num_nics` nodes at `load` flits/node/cycle of
    /// applied traffic (counting all messages of each transaction).
    pub fn new(
        pattern: Arc<PatternSpec>,
        num_nics: u32,
        load: f64,
        dest: DestPattern,
        seed: u64,
    ) -> Self {
        assert!(num_nics >= 2, "traffic needs at least two endpoints");
        let txn_rate = load / pattern.flits_per_txn();
        SyntheticTraffic {
            pattern,
            txn_rate,
            dest,
            rng: StdRng::seed_from_u64(seed),
            pending: (0..num_nics).map(|_| VecDeque::new()).collect(),
            num_nics,
            arrivals: None,
            pending_bits: vec![0; (num_nics as usize).div_ceil(64)],
            generated: 0,
        }
    }

    /// Queue one generated request at `src`, keeping the occupancy bitmap
    /// in sync.
    fn queue_pending(&mut self, src: u32, h: MsgHandle) {
        self.pending[src as usize].push_back(h);
        self.pending_bits[src as usize / 64] |= 1 << (src % 64);
        self.generated += 1;
    }

    /// Switch to sparse event-driven arrivals: per-node inter-arrival
    /// gaps are sampled geometrically (the same Bernoulli process, drawn
    /// as waiting times), so generation costs O(arrivals) per cycle
    /// instead of one RNG draw per node per cycle. The realized arrival
    /// *process* has the same distribution as the dense mode but a
    /// different RNG stream, so results are reproducible per mode, not
    /// across modes; golden-pinned configurations keep the dense default.
    pub fn sparse_arrivals(mut self) -> Self {
        let mut heap = std::collections::BinaryHeap::with_capacity(self.num_nics as usize);
        for src in 0..self.num_nics {
            let gap = self.sample_gap();
            heap.push(std::cmp::Reverse((gap, src)));
        }
        self.arrivals = Some(heap);
        self
    }

    /// Cycles until the next arrival of one node's Bernoulli(`txn_rate`)
    /// process: a geometric waiting time (0 = fires on the very next
    /// opportunity; `u64::MAX`, never due, at rate 0).
    fn sample_gap(&mut self) -> u64 {
        if self.txn_rate >= 1.0 {
            return 0;
        }
        if self.txn_rate <= 0.0 {
            return u64::MAX;
        }
        let u: f64 = self.rng.random();
        // ln(1-u) ∈ (-inf, 0]; ln(1-p) < 0. u ∈ [0, 1) keeps both finite.
        let gap = ((1.0 - u).ln() / (1.0 - self.txn_rate).ln()).floor();
        if gap >= u64::MAX as f64 {
            u64::MAX
        } else {
            gap as u64
        }
    }

    /// Transactions per node per cycle implied by the applied load.
    pub fn txn_rate(&self) -> f64 {
        self.txn_rate
    }

    /// Generate this cycle's new requests into the per-node source queues.
    pub fn tick(&mut self, cycle: u64, ids: &mut IdAlloc, store: &mut MessageStore) {
        if self.arrivals.is_some() {
            // Pop every arrival due by now (ascending source order within
            // a cycle); entries stranded in the past by a generation
            // pause fire once immediately.
            while let Some(&std::cmp::Reverse((due, src))) =
                self.arrivals.as_ref().expect("checked above").peek()
            {
                if due > cycle {
                    break;
                }
                self.arrivals.as_mut().expect("checked above").pop();
                let msg = self.make_request(NicId(src), cycle, ids);
                let h = store.insert(msg);
                self.queue_pending(src, h);
                let gap = self.sample_gap();
                self.arrivals
                    .as_mut()
                    .expect("checked above")
                    .push(std::cmp::Reverse((cycle + 1 + gap, src)));
            }
            return;
        }
        if self.txn_rate <= 0.0 {
            return;
        }
        for src in 0..self.num_nics {
            if self.rng.random::<f64>() >= self.txn_rate {
                continue;
            }
            let msg = self.make_request(NicId(src), cycle, ids);
            let h = store.insert(msg);
            self.queue_pending(src, h);
        }
    }

    /// Build one original request from `src` at `cycle`.
    pub fn make_request(&mut self, src: NicId, cycle: u64, ids: &mut IdAlloc) -> Message {
        // Field-disjoint borrows (pattern shared, rng mutable) make the
        // old defensive `Arc` clone unnecessary; RNG draw order (shape,
        // home, owner) is load-bearing for reproducibility.
        let shape_id = self.pattern.sample_shape(&mut self.rng);
        let uses_owner = self.pattern.shape(shape_id).uses_owner();
        let home = self.pick_dest(src);
        let owner = if uses_owner {
            self.pick_third(src, home)
        } else {
            home
        };
        let mtype = self.pattern.shape(shape_id).mtype(0);
        Message {
            id: ids.next_msg(),
            txn: ids.next_txn(),
            mtype,
            shape: shape_id,
            chain_pos: 0,
            src,
            dst: home,
            requester: src,
            home,
            owner,
            length_flits: self.pattern.protocol().length(mtype),
            created: cycle,
            is_backoff: false,
            rescued: false,
            sharers: 0,
        }
    }

    fn pick_dest(&mut self, src: NicId) -> NicId {
        let n = self.num_nics;
        match self.dest {
            DestPattern::Random => {
                let mut d = self.rng.random_range(0..n - 1);
                if d >= src.0 {
                    d += 1;
                }
                NicId(d)
            }
            DestPattern::Neighbor => NicId((src.0 + 1) % n),
            DestPattern::Hotspot { node, permille } => {
                if self.rng.random_range(0..1000) < permille as u32 && node != src.0 {
                    NicId(node)
                } else {
                    let mut d = self.rng.random_range(0..n - 1);
                    if d >= src.0 {
                        d += 1;
                    }
                    NicId(d)
                }
            }
        }
    }

    fn pick_third(&mut self, a: NicId, b: NicId) -> NicId {
        let n = self.num_nics;
        if n <= 2 {
            return b;
        }
        loop {
            let d = NicId(self.rng.random_range(0..n));
            if d != a && d != b {
                return d;
            }
        }
    }
}

impl TrafficSource for SyntheticTraffic {
    fn tick(&mut self, cycle: u64, ids: &mut IdAlloc, store: &mut MessageStore) {
        SyntheticTraffic::tick(self, cycle, ids, store);
    }

    fn pending_head(&self, nic: NicId) -> Option<MsgHandle> {
        self.pending[nic.index()].front().copied()
    }

    fn pop_pending(&mut self, nic: NicId) -> Option<MsgHandle> {
        let h = self.pending[nic.index()].pop_front();
        if self.pending[nic.index()].is_empty() {
            self.pending_bits[nic.index() / 64] &= !(1 << (nic.0 % 64));
        }
        h
    }

    fn backlog(&self) -> usize {
        self.pending.iter().map(VecDeque::len).sum()
    }

    fn pending_sources(&self, out: &mut Vec<NicId>) -> bool {
        out.clear();
        for (w, &word) in self.pending_bits.iter().enumerate() {
            let mut word = word;
            while word != 0 {
                out.push(NicId((w * 64) as u32 + word.trailing_zeros()));
                word &= word - 1;
            }
        }
        true
    }

    fn generated(&self) -> u64 {
        self.generated
    }
}
