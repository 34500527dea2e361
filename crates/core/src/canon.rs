//! Canonical serialization and content-addressing of [`SimConfig`].
//!
//! The engine's result cache (`mdd-engine`) keys every simulated point by
//! a stable hash of its full configuration, so a point re-runs exactly
//! when something that could change its result changed. The canonical
//! form therefore covers every *semantic* field — topology, scheme,
//! queue organization (as resolved by [`SimConfig::effective_queue_org`],
//! so an explicit override equal to the scheme default hashes like the
//! default), the complete transaction pattern (protocol message types,
//! dependency edges, backoff type, shapes and weights), destination
//! pattern, timing parameters, seed, windows, load and the CWG oracle
//! period — and deliberately excludes `obs_sample_every`, which only
//! controls observability gauge sampling and cannot affect a
//! [`SimResult`](crate::SimResult)'s measured fields, and the inert
//! `shards`, which nothing reads.
//!
//! The encoding is a fixed-order `key=value` line list: the order in
//! which a config's fields were assigned cannot influence it, and floats are written in Rust's shortest
//! round-trip form so equal values always encode identically.

use crate::config::{topo_spec, SimConfig};
use mdd_protocol::{MsgKind, PatternSpec, ProtocolSpec};
use mdd_traffic::DestPattern;
use std::fmt::Write as _;

impl SimConfig {
    /// The canonical, construction-order-independent text form of every
    /// semantic field. Two configurations with equal canonical strings
    /// produce bit-identical simulation results.
    pub fn canonical_string(&self) -> String {
        let mut s = String::with_capacity(512);
        // Version tag: bump when the encoding itself changes so stale
        // cache entries invalidate wholesale.
        s.push_str("v=1\n");
        let _ = writeln!(s, "radix={}", topo_spec(&self.radix));
        // Fixed: the topology is always a torus, but every committed
        // `config` key in `results/*.json` and `results/smoke/`, and every
        // on-disk cache entry, hashes this line, so it stays byte for byte
        // rather than bumping `v=` and orphaning them all.
        s.push_str("mesh=false\n");
        let _ = writeln!(s, "bristle={}", self.bristle);
        let _ = writeln!(s, "vcs={}", self.vcs);
        let _ = writeln!(s, "flit_buf={}", self.flit_buf);
        let _ = writeln!(s, "scheme={}", self.scheme.cli_name());
        let _ = writeln!(s, "queue_org={}", self.effective_queue_org().cli_name());
        let _ = writeln!(s, "pattern={}", canon_pattern(&self.pattern));
        let _ = writeln!(s, "queue_capacity={}", self.queue_capacity);
        let _ = writeln!(s, "service_time={}", self.service_time);
        let _ = writeln!(s, "mshr_limit={}", self.mshr_limit);
        let _ = writeln!(s, "detect_threshold={}", self.detect_threshold);
        let _ = writeln!(s, "router_block_threshold={}", self.router_block_threshold);
        let _ = writeln!(s, "token_hop={}", self.token_hop);
        let _ = writeln!(s, "lane_hop={}", self.lane_hop);
        let _ = writeln!(s, "dest={}", canon_dest(self.dest));
        // Written only when enabled so every pre-existing dense-mode
        // cache key (and its stored results) stays valid.
        if self.sparse_arrivals {
            let _ = writeln!(s, "sparse_arrivals=true");
        }
        let _ = writeln!(s, "seed={}", self.seed);
        let _ = writeln!(s, "warmup={}", self.warmup);
        let _ = writeln!(s, "measure={}", self.measure);
        let _ = writeln!(s, "load={:?}", self.load);
        let _ = match self.cwg_interval {
            None => writeln!(s, "cwg_interval=none"),
            Some(k) => writeln!(s, "cwg_interval={k}"),
        };
        s
    }

    /// FNV-1a hash of [`SimConfig::canonical_string`] — the cache key of
    /// this configuration.
    pub fn content_hash(&self) -> u64 {
        fnv1a(self.canonical_string().as_bytes())
    }

    /// [`SimConfig::content_hash`] as the fixed-width lowercase hex the
    /// cache files use.
    pub fn content_hash_hex(&self) -> String {
        format!("{:016x}", self.content_hash())
    }
}

/// 64-bit FNV-1a (the same hash the proptest shim uses for seeding; tiny,
/// stable, dependency-free — cryptographic strength is not needed for a
/// local result cache).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn canon_dest(d: DestPattern) -> String {
    match d {
        DestPattern::Random => "random".into(),
        DestPattern::Neighbor => "neighbor".into(),
        DestPattern::Hotspot { node, permille } => format!("hotspot:{node}:{permille}"),
    }
}

fn canon_protocol(p: &ProtocolSpec) -> String {
    let mut s = String::new();
    let _ = write!(s, "{}[", p.name());
    for t in p.msg_types() {
        let spec = p.spec(t);
        let kind = match spec.kind {
            MsgKind::Request => "rq",
            MsgKind::Reply => "rp",
        };
        let term = if spec.terminating { "T" } else { "_" };
        let _ = write!(s, "{}:{kind}:{}:{term},", spec.name, spec.length_flits);
    }
    s.push_str("deps=");
    for a in p.msg_types() {
        for &b in p.subordinates(a) {
            let _ = write!(s, "{}>{},", a.index(), b.index());
        }
    }
    match p.backoff_type() {
        None => s.push_str("backoff=none"),
        Some(t) => {
            let _ = write!(s, "backoff={}", t.index());
        }
    }
    s.push(']');
    s
}

fn canon_pattern(pat: &PatternSpec) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{}{{proto={};shapes=[",
        pat.name(),
        canon_protocol(pat.protocol())
    );
    for i in 0..pat.num_shapes() {
        let id = mdd_protocol::ShapeId(i as u16);
        let shape = pat.shape(id);
        let chain = shape
            .chain
            .iter()
            .map(|t| t.index().to_string())
            .collect::<Vec<_>>()
            .join("-");
        let targets = shape
            .targets
            .iter()
            .map(|t| match t {
                mdd_protocol::HopTarget::Home => "H",
                mdd_protocol::HopTarget::Owner => "O",
                mdd_protocol::HopTarget::Requester => "R",
            })
            .collect::<Vec<_>>()
            .join("-");
        let mc = match shape.multicast_at {
            None => "_".to_string(),
            Some(pos) => pos.to_string(),
        };
        let _ = write!(
            s,
            "(w={:?},chain={chain},targets={targets},mc={mc})",
            pat.weight(id)
        );
    }
    s.push_str("]}");
    s
}
