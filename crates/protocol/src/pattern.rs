//! The synthetic message-type distributions of Table 3.

use crate::shape::{HopTarget, TransactionShape};
use crate::spec::ProtocolSpec;
use crate::types::MsgType;
use rand::Rng;

/// Index of a transaction shape within a [`PatternSpec`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ShapeId(pub u16);

impl ShapeId {
    /// Raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A data-transaction pattern: a protocol plus a probability distribution
/// over transaction shapes (dependency chains). The five patterns of
/// Table 3 are provided as constructors.
#[derive(Clone, Debug)]
pub struct PatternSpec {
    name: &'static str,
    protocol: ProtocolSpec,
    shapes: Vec<TransactionShape>,
    weights: Vec<f64>,
    cumulative: Vec<f64>,
}

impl PatternSpec {
    /// Build a pattern from weighted shapes; weights are normalized.
    pub fn new(
        name: &'static str,
        protocol: ProtocolSpec,
        weighted_shapes: Vec<(f64, TransactionShape)>,
    ) -> Self {
        assert!(!weighted_shapes.is_empty(), "pattern needs shapes");
        let total: f64 = weighted_shapes.iter().map(|(w, _)| *w).sum();
        assert!(total > 0.0, "pattern weights must be positive");
        let mut shapes = Vec::with_capacity(weighted_shapes.len());
        let mut weights = Vec::with_capacity(weighted_shapes.len());
        let mut cumulative = Vec::with_capacity(weighted_shapes.len());
        let mut acc = 0.0;
        for (w, s) in weighted_shapes {
            for &t in &s.chain {
                assert!(
                    t.index() < protocol.num_types(),
                    "shape references unknown message type"
                );
            }
            acc += w / total;
            shapes.push(s);
            weights.push(w / total);
            cumulative.push(acc);
        }
        *cumulative.last_mut().unwrap() = 1.0;
        PatternSpec {
            name,
            protocol,
            shapes,
            weights,
            cumulative,
        }
    }

    /// The Table 3 pattern a command-line name selects: `pat100`,
    /// `pat721`, `pat451`, `pat271` or `pat280`.
    pub fn from_cli_name(name: &str) -> Option<Self> {
        Some(match name {
            "pat100" => Self::pat100(),
            "pat721" => Self::pat721(),
            "pat451" => Self::pat451(),
            "pat271" => Self::pat271(),
            "pat280" => Self::pat280(),
            _ => return None,
        })
    }

    /// PAT100: chain length 2 always (pure request/reply). Representative
    /// of message-passing systems and of the first three Splash-2
    /// applications (chain length 2 for 95–99% of transactions).
    pub fn pat100() -> Self {
        let p = ProtocolSpec::two_type();
        PatternSpec::new(
            "PAT100",
            p,
            vec![(
                1.0,
                TransactionShape::new(
                    vec![MsgType(0), MsgType(1)],
                    vec![HopTarget::Home, HopTarget::Requester],
                ),
            )],
        )
    }

    /// PAT721: 70% chain-2, 20% chain-3, 10% chain-4 on the generic
    /// protocol.
    pub fn pat721() -> Self {
        Self::generic_mix("PAT721", 0.7, 0.2, 0.1)
    }

    /// PAT451: 40% chain-2, 50% chain-3, 10% chain-4.
    pub fn pat451() -> Self {
        Self::generic_mix("PAT451", 0.4, 0.5, 0.1)
    }

    /// PAT271: 20% chain-2, 70% chain-3, 10% chain-4. Closest to the
    /// Water benchmark's behaviour.
    pub fn pat271() -> Self {
        Self::generic_mix("PAT271", 0.2, 0.7, 0.1)
    }

    /// PAT280: Origin2000-like — 20% chain-2 (`ORQ→TRP`) and 80% chain-3
    /// (`ORQ→FRQ→TRP`); chain length 4 occurs only via backoff recovery.
    pub fn pat280() -> Self {
        let p = ProtocolSpec::origin2000();
        let (orq, frq, trp) = (MsgType(0), MsgType(2), MsgType(3));
        PatternSpec::new(
            "PAT280",
            p,
            vec![
                (
                    0.2,
                    TransactionShape::new(
                        vec![orq, trp],
                        vec![HopTarget::Home, HopTarget::Requester],
                    ),
                ),
                (
                    0.8,
                    TransactionShape::new(
                        vec![orq, frq, trp],
                        vec![HopTarget::Home, HopTarget::Owner, HopTarget::Requester],
                    ),
                ),
            ],
        )
    }

    /// The chain-length mixes of the PATx21 family on the S-1 generic
    /// protocol: chain-2 `RQ→RP`, chain-3 `RQ→FRQ→RP` (owner replies
    /// directly), chain-4 `RQ→FRQ→FRP→RP` (owner replies through home).
    /// This is the unique shape assignment consistent with Table 3's
    /// printed type distributions (see DESIGN.md §6).
    pub fn generic_mix(name: &'static str, p2: f64, p3: f64, p4: f64) -> Self {
        let p = ProtocolSpec::s1_generic();
        let (rq, frq, frp, rp) = (MsgType(0), MsgType(1), MsgType(2), MsgType(3));
        PatternSpec::new(
            name,
            p,
            vec![
                (
                    p2,
                    TransactionShape::new(
                        vec![rq, rp],
                        vec![HopTarget::Home, HopTarget::Requester],
                    ),
                ),
                (
                    p3,
                    TransactionShape::new(
                        vec![rq, frq, rp],
                        vec![HopTarget::Home, HopTarget::Owner, HopTarget::Requester],
                    ),
                ),
                (
                    p4,
                    TransactionShape::new(
                        vec![rq, frq, frp, rp],
                        vec![
                            HopTarget::Home,
                            HopTarget::Owner,
                            HopTarget::Home,
                            HopTarget::Requester,
                        ],
                    ),
                ),
            ],
        )
    }

    /// All five Table 3 patterns, in the paper's order.
    pub fn all_paper_patterns() -> Vec<PatternSpec> {
        vec![
            Self::pat100(),
            Self::pat721(),
            Self::pat451(),
            Self::pat271(),
            Self::pat280(),
        ]
    }

    /// Pattern name (e.g. `"PAT271"`).
    #[inline]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The underlying protocol.
    #[inline]
    pub fn protocol(&self) -> &ProtocolSpec {
        &self.protocol
    }

    /// Number of shapes.
    #[inline]
    pub fn num_shapes(&self) -> usize {
        self.shapes.len()
    }

    /// The shape with the given id.
    #[inline]
    pub fn shape(&self, id: ShapeId) -> &TransactionShape {
        &self.shapes[id.index()]
    }

    /// The normalized weight of shape `id`.
    #[inline]
    pub fn weight(&self, id: ShapeId) -> f64 {
        self.weights[id.index()]
    }

    /// Sample a shape according to the pattern's distribution.
    pub fn sample_shape<R: Rng + ?Sized>(&self, rng: &mut R) -> ShapeId {
        let x: f64 = rng.random();
        let idx = self
            .cumulative
            .iter()
            .position(|&c| x < c)
            .unwrap_or(self.shapes.len() - 1);
        ShapeId(idx as u16)
    }

    /// Expected messages per transaction (the denominator of the Table 3
    /// type-frequency arithmetic).
    pub fn avg_messages_per_txn(&self) -> f64 {
        self.shapes
            .iter()
            .zip(&self.weights)
            .map(|(s, w)| w * s.len() as f64)
            .sum()
    }

    /// Expected chain length, weighted by shape probability.
    pub fn avg_chain_length(&self) -> f64 {
        self.avg_messages_per_txn()
    }

    /// Expected fraction of network messages of each type — the "Message
    /// Type Distribution" columns of Table 3.
    pub fn type_distribution(&self) -> Vec<f64> {
        let mut per_type = vec![0.0; self.protocol.num_types()];
        for (s, w) in self.shapes.iter().zip(&self.weights) {
            for &t in &s.chain {
                per_type[t.index()] += w;
            }
        }
        let total: f64 = per_type.iter().sum();
        for v in &mut per_type {
            *v /= total;
        }
        per_type
    }

    /// Expected fraction of *flits* injected per message type, used to
    /// convert an applied flit load into a request injection rate.
    pub fn flits_per_txn(&self) -> f64 {
        self.shapes
            .iter()
            .zip(&self.weights)
            .map(|(s, w)| {
                w * s
                    .chain
                    .iter()
                    .map(|&t| self.protocol.length(t) as f64)
                    .sum::<f64>()
            })
            .sum()
    }
}
