//! Escape peeling and witness extraction over the static CDG.
//!
//! The peel is a least-fixpoint computation of Duato's sufficient
//! condition generalized to occupant classes: a class is *safe* when it
//! sinks unconditionally or any of its OR-wait candidate vertices is
//! safe; a vertex is safe when every class that can occupy it is safe
//! (vacuously, when nothing can occupy it). Safety only ever grows, so a
//! worklist over per-vertex unsafe-class counts reaches the fixpoint in
//! time linear in the graph. If every vertex ends safe, no reachable
//! placement of occupants can sustain a cyclic wait — the configuration
//! is proven deadlock-free. Anything left over necessarily contains a
//! dependency cycle, which [`witness`] extracts via the Tarjan SCC
//! machinery shared with the runtime detector.

use crate::cdg::StaticCdg;
use crate::CycleWitness;
use mdd_deadlock::WaitForGraph;

/// Fixpoint result of one peel pass.
pub(crate) struct PeelOutcome {
    /// Per-vertex safety (drains under every reachable occupancy).
    pub vertex_safe: Vec<bool>,
    /// Per-class safety.
    pub class_safe: Vec<bool>,
    /// True when every vertex peeled: deadlock freedom is proven.
    pub all_safe: bool,
}

/// Run the escape-peel fixpoint over `cdg`.
pub(crate) fn peel(cdg: &StaticCdg<'_>) -> PeelOutcome {
    peel_with(cdg, &[])
}

/// Run the peel with extra OR-wait candidate edges `(class, vertex)`
/// overlaid on the graph — the deflection-credited pass reuses the one
/// assembled graph this way instead of assembling a second copy.
pub(crate) fn peel_with(cdg: &StaticCdg<'_>, extra: &[(u32, u32)]) -> PeelOutcome {
    let nv = cdg.num_vertices();
    let nc = cdg.num_classes();

    // Reverse index (CSR): candidate vertex -> classes OR-waiting on it.
    let mut rev_off: Vec<u32> = vec![0; nv + 1];
    for c in 0..nc as u32 {
        for &v in cdg.cands(c) {
            rev_off[v as usize + 1] += 1;
        }
    }
    for &(_, v) in extra {
        rev_off[v as usize + 1] += 1;
    }
    for i in 1..rev_off.len() {
        rev_off[i] += rev_off[i - 1];
    }
    let mut fill = rev_off.clone();
    let mut rev: Vec<u32> = vec![0; rev_off[nv] as usize];
    for c in 0..nc as u32 {
        for &v in cdg.cands(c) {
            rev[fill[v as usize] as usize] = c;
            fill[v as usize] += 1;
        }
    }
    for &(c, v) in extra {
        rev[fill[v as usize] as usize] = c;
        fill[v as usize] += 1;
    }

    let mut class_safe = cdg.sink.clone();
    let mut remaining: Vec<u32> = (0..nv)
        .map(|v| cdg.classes_at(v as u32).len() as u32)
        .collect();
    let mut vertex_safe = vec![false; nv];

    // Seed the worklists: sink classes, and vertices nothing can occupy.
    let mut cwork: Vec<u32> = (0..nc as u32).filter(|&c| class_safe[c as usize]).collect();
    let mut vwork: Vec<u32> = Vec::new();
    for v in 0..nv {
        if remaining[v] == 0 {
            vertex_safe[v] = true;
            vwork.push(v as u32);
        }
    }

    loop {
        while let Some(c) = cwork.pop() {
            for &m in cdg.members(c) {
                let m = m as usize;
                remaining[m] -= 1;
                if remaining[m] == 0 {
                    vertex_safe[m] = true;
                    vwork.push(m as u32);
                }
            }
        }
        match vwork.pop() {
            None => break,
            Some(v) => {
                let (a, b) = (rev_off[v as usize], rev_off[v as usize + 1]);
                for &c in &rev[a as usize..b as usize] {
                    if !class_safe[c as usize] {
                        class_safe[c as usize] = true;
                        cwork.push(c);
                    }
                }
            }
        }
    }

    let all_safe = vertex_safe.iter().all(|&s| s);
    PeelOutcome {
        vertex_safe,
        class_safe,
        all_safe,
    }
}

/// Extract a minimal cycle witness from the unsafe residue of `outcome`,
/// the result of [`peel_with`] over the same `extra` OR-wait edges: they
/// must shape the residual graph too, or the cycle shown could be one the
/// overlaid peel already discharged.
///
/// The residual graph keeps only unsafe vertices; each unsafe class
/// contributes arcs from every vertex it can occupy to each of its (still
/// unsafe) candidates. The first cyclic SCC yields a simple cycle, which
/// is rendered through the shared [`ResourceLayout`] trace format with
/// one occupant note per resource.
pub(crate) fn witness(
    cdg: &StaticCdg<'_>,
    outcome: &PeelOutcome,
    extra: &[(u32, u32)],
) -> Option<CycleWitness> {
    let nv = cdg.num_vertices();
    let mut g = WaitForGraph::new(nv);
    for v in 0..nv {
        if outcome.vertex_safe[v] {
            continue;
        }
        for &c in cdg.classes_at(v as u32) {
            if outcome.class_safe[c as usize] {
                continue;
            }
            for &w in cdg.cands(c) {
                if !outcome.vertex_safe[w as usize] {
                    g.add_edge(v as u32, w);
                }
            }
        }
    }
    for &(c, w) in extra {
        if outcome.class_safe[c as usize] || outcome.vertex_safe[w as usize] {
            continue;
        }
        for &v in cdg.members(c) {
            if !outcome.vertex_safe[v as usize] {
                g.add_edge(v, w);
            }
        }
    }

    for comp in g.sccs() {
        let cycle = g.cycle_in_component(&comp);
        if cycle.is_empty() {
            continue;
        }
        let notes: Vec<String> = cycle
            .iter()
            .map(|&v| {
                cdg.classes_at(v)
                    .iter()
                    .find(|&&c| !outcome.class_safe[c as usize])
                    .map_or_else(String::new, |&c| cdg.note(c))
            })
            .collect();
        let rendered = cdg.layout.format_cycle(&cycle, &notes);
        return Some(CycleWitness {
            vertices: cycle,
            rendered,
        });
    }
    None
}
