//! Protocol descriptions: the set of message types and the `≺` dependency
//! partial order between them.

use crate::types::{MsgKind, MsgType, MsgTypeSpec};
use std::fmt;

/// Why a protocol description is invalid ([`ProtocolSpec::validate`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProtocolError {
    /// The protocol has no message types.
    NoTypes,
    /// The protocol does not have exactly one terminating type.
    Terminators(usize),
    /// A terminating type generates subordinates.
    TerminatingGenerates(&'static str),
    /// A non-terminating type has no subordinates, so its chains never
    /// end.
    DeadEnd(&'static str),
    /// A dependency or the backoff type names a type index past the type
    /// list.
    UnknownType(usize),
    /// The dependency relation has a cycle.
    Cyclic,
    /// The backoff type is not a reply.
    BackoffNotReply,
    /// The backoff type is terminating (it must generate the deflected
    /// request).
    BackoffTerminating,
    /// A message type's length is outside `1..=u16::MAX` flits: a flit
    /// numbers itself within its packet in 16 bits.
    Length {
        /// The type's mnemonic.
        name: &'static str,
        /// Its declared length in flits.
        flits: u32,
    },
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::NoTypes => write!(f, "protocol has no message types"),
            ProtocolError::Terminators(n) => write!(
                f,
                "protocol must have exactly one terminating type, not {n}"
            ),
            ProtocolError::TerminatingGenerates(name) => {
                write!(f, "terminating type {name} must not generate subordinates")
            }
            ProtocolError::DeadEnd(name) => write!(
                f,
                "non-terminating type {name} has no subordinates; its chains never end"
            ),
            ProtocolError::UnknownType(i) => write!(f, "type index {i} is past the type list"),
            ProtocolError::Cyclic => write!(f, "dependency relation is cyclic"),
            ProtocolError::BackoffNotReply => write!(f, "backoff type must be a reply"),
            ProtocolError::BackoffTerminating => write!(
                f,
                "backoff type must be non-terminating (it generates the deflected request)"
            ),
            ProtocolError::Length { name, flits } => write!(
                f,
                "type {name} is {flits} flits long; lengths must lie in 1..={}",
                u16::MAX
            ),
        }
    }
}

impl std::error::Error for ProtocolError {}

/// A communication protocol: message types plus the direct dependency
/// relation `mi ≺ mj` ("a node receiving `mi` may generate `mj`").
///
/// The relation must be acyclic and every maximal chain must end in a
/// terminating type; [`ProtocolSpec::validate`] checks this (it is enforced
/// by the provided constructors).
///
/// ```
/// use mdd_protocol::{ProtocolSpec, MsgType};
/// let p = ProtocolSpec::s1_generic();
/// assert_eq!(p.chain_length(), 4);
/// assert!(p.may_generate(MsgType(0), MsgType(1))); // RQ ≺ FRQ
/// assert!(p.is_terminating(p.terminating_type()));
/// assert_eq!(p.enumerate_chains().len(), 3);
/// ```
#[derive(Clone, Debug)]
pub struct ProtocolSpec {
    name: &'static str,
    types: Vec<MsgTypeSpec>,
    /// `subordinates[i]` lists the types directly generable from type `i`.
    subordinates: Vec<Vec<MsgType>>,
    /// The backoff-reply type used by deflective recovery, if the protocol
    /// defines one (Origin2000's `BRP`; the generic protocol's `BKF`).
    backoff: Option<MsgType>,
}

impl ProtocolSpec {
    /// Build a protocol from parts. Panics if the description is invalid
    /// (see [`ProtocolSpec::try_new`]).
    pub fn new(
        name: &'static str,
        types: Vec<MsgTypeSpec>,
        deps: &[(usize, usize)],
        backoff: Option<MsgType>,
    ) -> Self {
        Self::try_new(name, types, deps, backoff).expect("invalid protocol description")
    }

    /// Build a protocol from parts, or say why the description is invalid
    /// (see [`ProtocolSpec::validate`]).
    ///
    /// ```
    /// use mdd_protocol::{MsgTypeSpec, ProtocolError, ProtocolSpec};
    /// let huge = MsgTypeSpec::reply("RP").terminating().with_length(70_000);
    /// let err = ProtocolSpec::try_new("big", vec![MsgTypeSpec::request("RQ"), huge], &[(0, 1)], None);
    /// assert_eq!(err.unwrap_err(), ProtocolError::Length { name: "RP", flits: 70_000 });
    /// ```
    pub fn try_new(
        name: &'static str,
        types: Vec<MsgTypeSpec>,
        deps: &[(usize, usize)],
        backoff: Option<MsgType>,
    ) -> Result<Self, ProtocolError> {
        let n = types.len();
        let mut subordinates = vec![Vec::new(); n];
        for &(a, b) in deps {
            if let Some(&bad) = [a, b].iter().find(|&&i| i >= n) {
                return Err(ProtocolError::UnknownType(bad));
            }
            subordinates[a].push(MsgType(b as u8));
        }
        if let Some(b) = backoff.filter(|b| b.index() >= n) {
            return Err(ProtocolError::UnknownType(b.index()));
        }
        let spec = ProtocolSpec {
            name,
            types,
            subordinates,
            backoff,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// A plain two-type request/reply protocol — message-passing style, or
    /// a shared-memory protocol in which every block is home-owned. This is
    /// the protocol behind pattern PAT100.
    pub fn two_type() -> Self {
        ProtocolSpec::new(
            "REQ-RP",
            vec![
                MsgTypeSpec::request("REQ"),
                MsgTypeSpec::reply("RP").terminating(),
            ],
            &[(0, 1)],
            None,
        )
    }

    /// The generic four-type protocol of Figure 7 with the S-1 /
    /// Censier-Feautrier mapping: `RQ ≺ FRQ ≺ FRP ≺ RP`, where `RQ` and
    /// `FRQ` are short requests and `FRP`/`RP` are long data replies. A
    /// fifth short backoff-reply type `BKF` exists solely for deflective
    /// recovery (`BKF ≺ FRQ`): it converts home-side forwarding into
    /// requester-side forwarding, mirroring the Origin2000 backoff
    /// mechanism on the generic chain.
    pub fn s1_generic() -> Self {
        ProtocolSpec::new(
            "S1-generic",
            vec![
                MsgTypeSpec::request("RQ"),
                MsgTypeSpec::request("FRQ"),
                MsgTypeSpec::reply("FRP"),
                MsgTypeSpec::reply("RP").terminating(),
                // Backoff reply: short control reply carrying owner info.
                MsgTypeSpec {
                    name: "BKF",
                    kind: MsgKind::Reply,
                    terminating: false,
                    length_flits: 4,
                },
            ],
            &[
                (0, 1), // RQ  ≺ FRQ
                (0, 3), // RQ  ≺ RP   (direct reply, chain length 2)
                (1, 2), // FRQ ≺ FRP
                (1, 3), // FRQ ≺ RP   (owner replies directly, chain length 3)
                (2, 3), // FRP ≺ RP
                (4, 1), // BKF ≺ FRQ  (deflective recovery only)
            ],
            Some(MsgType(4)),
        )
    }

    /// The MSI directory protocol used for the trace-driven
    /// characterization (Figure 5). Structurally identical to the S-1
    /// generic protocol; the coherence engine distinguishes the lowercase
    /// sub-types (read/write requests, invalidations vs forwards) which, as
    /// the paper notes (footnote 2), create the same dependency classes.
    pub fn msi() -> Self {
        let mut p = Self::s1_generic();
        p.name = "MSI";
        p
    }

    /// The Origin2000 protocol of Figure 2: `ORQ ≺ FRQ ≺ TRP` in the
    /// absence of deadlock, with the backoff reply `BRP` inserted
    /// (`ORQ ≺ BRP ≺ FRQ ≺ TRP`) only during deflective recovery.
    pub fn origin2000() -> Self {
        ProtocolSpec::new(
            "Origin2000",
            vec![
                MsgTypeSpec::request("ORQ"),
                MsgTypeSpec {
                    name: "BRP",
                    kind: MsgKind::Reply,
                    terminating: false,
                    length_flits: 4,
                },
                MsgTypeSpec::request("FRQ"),
                MsgTypeSpec::reply("TRP").terminating(),
            ],
            &[
                (0, 3), // ORQ ≺ TRP (direct reply, chain length 2)
                (0, 2), // ORQ ≺ FRQ (forwarding, chain length 3)
                (1, 2), // BRP ≺ FRQ (recovery)
                (2, 3), // FRQ ≺ TRP
            ],
            Some(MsgType(1)),
        )
    }

    /// Protocol name.
    #[inline]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Number of message types (including any recovery-only backoff type).
    #[inline]
    pub fn num_types(&self) -> usize {
        self.types.len()
    }

    /// Number of message types participating in deadlock-free-routing
    /// resource partitioning. The backoff type shares the reply network of
    /// the terminating type (as in the Origin2000) and therefore does not
    /// count toward the strict-avoidance partition.
    pub fn num_partition_types(&self) -> usize {
        match self.backoff {
            Some(_) => self.types.len() - 1,
            None => self.types.len(),
        }
    }

    /// Static attributes of `t`.
    #[inline]
    pub fn spec(&self, t: MsgType) -> &MsgTypeSpec {
        &self.types[t.index()]
    }

    /// Message length of `t` in flits.
    #[inline]
    pub fn length(&self, t: MsgType) -> u32 {
        self.types[t.index()].length_flits
    }

    /// Request/reply classification of `t`.
    #[inline]
    pub fn kind(&self, t: MsgType) -> MsgKind {
        self.types[t.index()].kind
    }

    /// True if `t` is a terminating type.
    #[inline]
    pub fn is_terminating(&self, t: MsgType) -> bool {
        self.types[t.index()].terminating
    }

    /// The types directly generable from `t` (direct `≺` successors).
    #[inline]
    pub fn subordinates(&self, t: MsgType) -> &[MsgType] {
        &self.subordinates[t.index()]
    }

    /// True if `a ≺ b` directly.
    pub fn may_generate(&self, a: MsgType, b: MsgType) -> bool {
        self.subordinates[a.index()].contains(&b)
    }

    /// The backoff-reply type used by deflective recovery, if defined.
    #[inline]
    pub fn backoff_type(&self) -> Option<MsgType> {
        self.backoff
    }

    /// Iterate over all message types.
    pub fn msg_types(&self) -> impl Iterator<Item = MsgType> {
        (0..self.types.len() as u8).map(MsgType)
    }

    /// All types subordinate to `t` (transitive closure of `≺`).
    pub fn subordinate_closure(&self, t: MsgType) -> Vec<MsgType> {
        let mut seen = vec![false; self.types.len()];
        let mut stack = vec![t];
        let mut out = Vec::new();
        while let Some(cur) = stack.pop() {
            for &s in &self.subordinates[cur.index()] {
                if !seen[s.index()] {
                    seen[s.index()] = true;
                    out.push(s);
                    stack.push(s);
                }
            }
        }
        out.sort();
        out
    }

    /// The message dependency chain length `L`: the number of types on the
    /// longest `≺` chain (e.g. 2 for request/reply, 4 for the generic
    /// protocol). The backoff type is excluded, matching the paper ("the
    /// maximum chain length is three" for the Origin2000 absent deadlock).
    pub fn chain_length(&self) -> usize {
        let n = self.types.len();
        // Longest path in the DAG via memoized DFS, skipping the backoff
        // type as a chain head or member.
        let mut memo = vec![0usize; n];
        let mut done = vec![false; n];
        fn longest(
            spec: &ProtocolSpec,
            t: usize,
            memo: &mut [usize],
            done: &mut [bool],
            skip: Option<usize>,
        ) -> usize {
            if done[t] {
                return memo[t];
            }
            let mut best = 0;
            for &s in &spec.subordinates[t] {
                if Some(s.index()) == skip {
                    continue;
                }
                best = best.max(longest(spec, s.index(), memo, done, skip));
            }
            memo[t] = best + 1;
            done[t] = true;
            memo[t]
        }
        let skip = self.backoff.map(MsgType::index);
        (0..n)
            .filter(|&t| Some(t) != skip)
            .map(|t| longest(self, t, &mut memo, &mut done, skip))
            .max()
            .unwrap_or(0)
    }

    /// The logical-network index of `t` under strict avoidance: one
    /// partition per message type, with the backoff type sharing the
    /// partition of the terminating reply type (Origin2000 behaviour:
    /// "BRP messages use the same reply network as TRP messages").
    pub fn sa_partition(&self, t: MsgType) -> usize {
        if Some(t) == self.backoff {
            // Share the terminating reply's partition.
            return self.sa_partition(self.terminating_type());
        }
        let idx = t.index();
        match self.backoff {
            Some(b) if idx > b.index() => idx - 1,
            _ => idx,
        }
    }

    /// The logical-network index of `t` under deflective recovery:
    /// network 0 = request network, network 1 = reply network.
    pub fn dr_network(&self, t: MsgType) -> usize {
        match self.kind(t) {
            MsgKind::Request => 0,
            MsgKind::Reply => 1,
        }
    }

    /// The (unique, by construction) terminating message type.
    pub fn terminating_type(&self) -> MsgType {
        self.msg_types()
            .find(|&t| self.is_terminating(t))
            .expect("validated protocols have a terminating type")
    }

    /// Check structural invariants; returns the first violation found.
    pub fn validate(&self) -> Result<(), ProtocolError> {
        let n = self.types.len();
        if n == 0 {
            return Err(ProtocolError::NoTypes);
        }
        let terminators = self.types.iter().filter(|t| t.terminating).count();
        if terminators != 1 {
            return Err(ProtocolError::Terminators(terminators));
        }
        for t in &self.types {
            if !(1..=u32::from(u16::MAX)).contains(&t.length_flits) {
                return Err(ProtocolError::Length {
                    name: t.name,
                    flits: t.length_flits,
                });
            }
        }
        for (i, subs) in self.subordinates.iter().enumerate() {
            let t = MsgType(i as u8);
            if self.is_terminating(t) && !subs.is_empty() {
                return Err(ProtocolError::TerminatingGenerates(self.types[i].name));
            }
            if !self.is_terminating(t) && subs.is_empty() {
                return Err(ProtocolError::DeadEnd(self.types[i].name));
            }
        }
        // Acyclicity by DFS coloring.
        #[derive(Clone, Copy, PartialEq)]
        enum Color {
            White,
            Gray,
            Black,
        }
        fn dfs(spec: &ProtocolSpec, t: usize, color: &mut [Color]) -> bool {
            color[t] = Color::Gray;
            for &s in &spec.subordinates[t] {
                match color[s.index()] {
                    Color::Gray => return false,
                    Color::White => {
                        if !dfs(spec, s.index(), color) {
                            return false;
                        }
                    }
                    Color::Black => {}
                }
            }
            color[t] = Color::Black;
            true
        }
        let mut color = vec![Color::White; n];
        for t in 0..n {
            if color[t] == Color::White && !dfs(self, t, &mut color) {
                return Err(ProtocolError::Cyclic);
            }
        }
        if let Some(b) = self.backoff {
            if self.kind(b) != MsgKind::Reply {
                return Err(ProtocolError::BackoffNotReply);
            }
            if self.is_terminating(b) {
                return Err(ProtocolError::BackoffTerminating);
            }
        }
        Ok(())
    }
}
