//! Protocol analysis utilities: chain enumeration, resource-requirement
//! calculators (the paper's Section 2.1 arithmetic) and Graphviz export
//! for documentation.

use crate::spec::ProtocolSpec;
use crate::types::MsgType;
use std::fmt::Write as _;

impl ProtocolSpec {
    /// Enumerate every maximal dependency chain (path from a chain head to
    /// the terminating type), excluding the recovery-only backoff type —
    /// the "message dependency chains allowed by the communication
    /// protocol".
    pub fn enumerate_chains(&self) -> Vec<Vec<MsgType>> {
        let skip = self.backoff_type();
        // Heads: types with no predecessor among non-backoff types.
        let mut has_pred = vec![false; self.num_types()];
        for t in self.msg_types() {
            if Some(t) == skip {
                continue;
            }
            for &s in self.subordinates(t) {
                has_pred[s.index()] = true;
            }
        }
        let mut out = Vec::new();
        let mut path = Vec::new();
        for t in self.msg_types() {
            if Some(t) == skip || has_pred[t.index()] {
                continue;
            }
            self.dfs_chains(t, skip, &mut path, &mut out);
        }
        out
    }

    fn dfs_chains(
        &self,
        t: MsgType,
        skip: Option<MsgType>,
        path: &mut Vec<MsgType>,
        out: &mut Vec<Vec<MsgType>>,
    ) {
        path.push(t);
        let subs: Vec<MsgType> = self
            .subordinates(t)
            .iter()
            .copied()
            .filter(|&s| Some(s) != skip)
            .collect();
        if subs.is_empty() {
            out.push(path.clone());
        } else {
            for s in subs {
                self.dfs_chains(s, skip, path, out);
            }
        }
        path.pop();
    }

    /// `E_m`: the minimum escape channels needed to strictly avoid
    /// message-dependent deadlock, `L · E_r` (Section 2.1).
    pub fn min_escape_channels(&self, escape_per_network: usize) -> usize {
        self.num_partition_types() * escape_per_network
    }

    /// The paper's channel-availability formula for plain partitioned
    /// strict avoidance: `1 + (C/L − E_r)` when `C ≥ E_m`, else `None`.
    pub fn sa_availability(&self, channels: usize, escape_per_network: usize) -> Option<usize> {
        let l = self.num_partition_types();
        if channels < self.min_escape_channels(escape_per_network) {
            return None;
        }
        Some(1 + (channels / l - escape_per_network))
    }

    /// The improved availability with a shared adaptive pool (\[21\]):
    /// `1 + (C − E_m)`.
    pub fn sa_shared_availability(
        &self,
        channels: usize,
        escape_per_network: usize,
    ) -> Option<usize> {
        let em = self.min_escape_channels(escape_per_network);
        if channels < em {
            return None;
        }
        Some(1 + (channels - em))
    }

    /// Render the dependency relation as a Graphviz digraph (for
    /// documentation; `dot -Tpng`-ready).
    pub fn to_dot(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "digraph {} {{", self.name().replace('-', "_"));
        let _ = writeln!(s, "  rankdir=LR;");
        for t in self.msg_types() {
            let spec = self.spec(t);
            let shape = if spec.terminating {
                "doublecircle"
            } else if Some(t) == self.backoff_type() {
                "diamond"
            } else {
                "circle"
            };
            let _ = writeln!(
                s,
                "  {} [shape={shape}, label=\"{}\\n{:?}/{}f\"];",
                spec.name, spec.name, spec.kind, spec.length_flits
            );
        }
        for t in self.msg_types() {
            for &sub in self.subordinates(t) {
                let _ = writeln!(s, "  {} -> {};", self.spec(t).name, self.spec(sub).name);
            }
        }
        s.push_str("}\n");
        s
    }
}
