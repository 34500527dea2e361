//! Static pre-flight verification of a [`SimConfig`].
//!
//! Thin adapters from the simulator's configuration surface to
//! `mdd-verify`'s [`VerifyInput`]: they construct the same topology and
//! routing function `Simulator::new` would, then run the static analysis
//! — no simulator, no traffic. Used by the experiment engine's
//! per-point pre-flight and by `mddsim --verify`; a caller that wants to
//! refuse statically unsafe configurations checks
//! [`Verdict::is_unsafe`] on [`verify_config`]'s answer.

use crate::config::SimConfig;
use mdd_routing::{SchemeConfigError, SchemeRouting, VcMap};
use mdd_verify::{AnalysisConfig, MinVcReport, Verdict, VerifyInput};

/// Statically classify `cfg`, or fail with the same feasibility error the
/// simulator constructor would raise (too few VCs and the like).
pub fn verify_config(cfg: &SimConfig) -> Result<Verdict, SchemeConfigError> {
    Ok(verify_with_map(cfg, cfg.vc_map()?))
}

/// Statically classify `cfg` even when it is infeasible for the scheme:
/// an infeasible VC budget falls back to the *degraded* map
/// ([`VcMap::build_degraded`] — merged partitions, truncated escape
/// sets), so the verdict explains with a concrete cycle witness what
/// would go wrong on the hardware the configuration actually describes.
pub fn verify_config_degraded(cfg: &SimConfig) -> Verdict {
    verify_with_map(cfg, cfg.degraded_vc_map())
}

/// Bundle `cfg` into the analysis engine's owned [`AnalysisConfig`] —
/// the entry point for fault re-verdicts and fault-frontier
/// sweeps over a simulator configuration. Fails exactly when
/// [`verify_config`] would (infeasible VC budget for the scheme).
pub fn analysis_config(cfg: &SimConfig) -> Result<AnalysisConfig, SchemeConfigError> {
    Ok(AnalysisConfig::new(
        cfg.topology(),
        cfg.scheme,
        SchemeRouting::new(cfg.vc_map()?),
        (*cfg.pattern).clone(),
        cfg.effective_queue_org(),
    ))
}

/// Probe for the smallest per-link VC budget that makes `cfg`'s scheme
/// statically safe on its topology and pattern, searching `1..=max`
/// where `max` is the largest budget the 128-slot router occupancy
/// masks admit (`(2·dims + bristle) · vcs ≤ 128`). The configuration's
/// own `vcs` value does not bound the search — this is the diagnostic
/// behind the strict builder's "how many VCs would fix it" hint.
pub fn min_safe_vcs(cfg: &SimConfig) -> MinVcReport {
    let ports = 2 * cfg.radix.len() + cfg.bristle as usize;
    let max = (128 / ports).min(u8::MAX as usize) as u8;
    mdd_verify::min_safe_vcs(
        &cfg.topology(),
        cfg.scheme,
        &cfg.pattern,
        cfg.effective_queue_org(),
        max,
    )
}

fn verify_with_map(cfg: &SimConfig, map: VcMap) -> Verdict {
    let topo = cfg.topology();
    let routing = SchemeRouting::new(map);
    mdd_verify::verify(&VerifyInput {
        topo: &topo,
        scheme: cfg.scheme,
        routing: &routing,
        pattern: &cfg.pattern,
        queue_org: cfg.effective_queue_org(),
    })
}
