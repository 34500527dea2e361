//! Minimal-VC synthesis: the smallest VC budget a scheme needs.
//!
//! The verifier answers "is this configuration safe?"; synthesis inverts
//! the question into "what is the *cheapest* safe configuration?" by
//! probing [`verify`](crate::verify) over the VC
//! budget. Verdict rank is monotone in the budget for the paper's schemes
//! (more virtual channels only ever add escape/adaptive structure), so a
//! binary search finds the frontier in `O(log max)` probes — but because
//! monotonicity is an empirical property of the routing schemes rather
//! than a theorem of this code, the search *verifies* the boundary it
//! found (the candidate must be safe and its predecessor unsafe) and
//! falls back to a linear scan when the probes turn out non-monotone.

use crate::{verify, Verdict, VerifyInput};
use mdd_protocol::{PatternSpec, QueueOrg};
use mdd_routing::{Scheme, SchemeRouting, VcMap};
use mdd_topology::Topology;

/// The outcome of a minimal-VC search.
#[derive(Clone, Debug)]
pub struct MinVcReport {
    /// Smallest per-channel VC count whose static verdict is not
    /// `Unsafe`, within the probed budget; `None` when even the maximum
    /// budget is unsafe.
    pub min_vcs: Option<u8>,
    /// The verdict at `min_vcs`.
    pub verdict: Option<Verdict>,
    /// `(vcs, verdict name)` for every probe performed, in probe order —
    /// the search's audit trail.
    pub probes: Vec<(u8, &'static str)>,
}

/// Probe one VC budget: build the scheme's degraded-fallback VC map (the
/// infallible constructor, so undersized budgets yield their real —
/// typically unsafe — verdict rather than a configuration error) and
/// classify it.
fn probe(
    topo: &Topology,
    scheme: Scheme,
    pattern: &PatternSpec,
    queue_org: QueueOrg,
    vcs: u8,
) -> Verdict {
    let map = VcMap::build_degraded(scheme, pattern.protocol(), vcs);
    let routing = SchemeRouting::new(map);
    let input = VerifyInput {
        topo,
        scheme,
        routing: &routing,
        pattern,
        queue_org,
    };
    verify(&input)
}

/// Find the smallest VC count in `1..=max_vcs` whose static verdict is
/// not `Unsafe` (i.e. `ProvenFree` or `RecoverableCycles`).
pub fn min_safe_vcs(
    topo: &Topology,
    scheme: Scheme,
    pattern: &PatternSpec,
    queue_org: QueueOrg,
    max_vcs: u8,
) -> MinVcReport {
    let mut report = MinVcReport {
        min_vcs: None,
        verdict: None,
        probes: Vec::new(),
    };
    if max_vcs == 0 {
        return report;
    }
    let probe_at = |vcs: u8, report: &mut MinVcReport| -> Verdict {
        let v = probe(topo, scheme, pattern, queue_org, vcs);
        report.probes.push((vcs, v.name()));
        v
    };

    // The budget itself must be safe for any answer to exist.
    let at_max = probe_at(max_vcs, &mut report);
    if at_max.is_unsafe() {
        return report;
    }

    // Binary search for the smallest safe budget, assuming monotonicity.
    let (mut lo, mut hi) = (1u8, max_vcs); // invariant: hi is safe
    let mut best = at_max;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        let v = probe_at(mid, &mut report);
        if v.is_unsafe() {
            lo = mid + 1;
        } else {
            best = v;
            hi = mid;
        }
    }

    // Verify the boundary: `hi` is known safe; its predecessor must be
    // unsafe (or nonexistent). If it is not, the verdicts are not
    // monotone in the budget — rescan linearly for the true minimum.
    if hi > 1 && !probe_at(hi - 1, &mut report).is_unsafe() {
        for vcs in 1..hi {
            let v = probe_at(vcs, &mut report);
            if !v.is_unsafe() {
                report.min_vcs = Some(vcs);
                report.verdict = Some(v);
                return report;
            }
        }
    }
    report.min_vcs = Some(hi);
    report.verdict = Some(best);
    report
}
