//! Message type identifiers and per-type static attributes.

use std::fmt;

/// Index of a message type within a [`crate::ProtocolSpec`] (0-based; the
/// paper's `m1` is `MsgType(0)`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct MsgType(pub u8);

impl MsgType {
    /// Raw index for vector access.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for MsgType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0 + 1)
    }
}

/// Coarse classification of a message type, used by the deflective-recovery
/// scheme's two-logical-network split (request network vs reply network)
/// and to pick the paper's 4-flit vs 20-flit message length (Table 2).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum MsgKind {
    /// Command-carrying messages (original requests, forwarded requests,
    /// invalidations): short, 4 flits by default.
    Request,
    /// Data- or acknowledgement-carrying messages: long, 20 flits by
    /// default (cache-line payload); short control replies such as the
    /// Origin2000 backoff reply override the length.
    Reply,
}

/// Static attributes of one message type within a protocol.
#[derive(Clone, Debug)]
pub struct MsgTypeSpec {
    /// Human-readable mnemonic (e.g. `"ORQ"`, `"FRQ"`, `"TRP"`).
    pub name: &'static str,
    /// Request/reply classification.
    pub kind: MsgKind,
    /// True if messages of this type always sink on arrival (no subordinate
    /// is ever generated from them). Every dependency chain ends in a
    /// terminating type.
    pub terminating: bool,
    /// Message length in flits, `1..=u16::MAX` in a valid protocol.
    pub length_flits: u32,
}

impl MsgTypeSpec {
    /// A short (4-flit) request type.
    pub fn request(name: &'static str) -> Self {
        MsgTypeSpec {
            name,
            kind: MsgKind::Request,
            terminating: false,
            length_flits: 4,
        }
    }

    /// A long (20-flit) data reply type.
    pub fn reply(name: &'static str) -> Self {
        MsgTypeSpec {
            name,
            kind: MsgKind::Reply,
            terminating: false,
            length_flits: 20,
        }
    }

    /// Mark the type terminating (builder style).
    pub fn terminating(mut self) -> Self {
        self.terminating = true;
        self
    }

    /// Override the flit length (builder style).
    pub fn with_length(mut self, flits: u32) -> Self {
        self.length_flits = flits;
        self
    }
}
