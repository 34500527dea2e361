//! Wait-for graph construction and knot detection.
//!
//! Vertices are abstract resource ids supplied by the caller (the
//! simulator maps virtual channels, message queues and memory controllers
//! onto them). An edge `a → b` means "the agent holding `a` waits for
//! `b`". Following the formal model of Warnakulasuriya & Pinkston, a
//! deadlock corresponds to a *knot*: a strongly connected component
//! containing a cycle from which no arc escapes — every resource reachable
//! from the component leads back into it.
//!
//! The graph is sized for every resource of a network but, in a live
//! network, only a few of them wait on anything. Arcs therefore live in
//! one array, chained per source, beside the list of vertices that have
//! one; the search starts only at those, and its per-vertex state is
//! reset only where it was written. A query costs O(arcs), not
//! O(vertices), and [`WaitForGraph::clear`] readies the graph for a
//! refill without giving up its buffers.

/// No arc (the end of a chain); an unvisited vertex; a vertex whose SCC
/// is still on the stack.
const NONE: u32 = u32::MAX;

/// A directed wait-for graph over `n` resource vertices.
///
/// ```
/// use mdd_deadlock::WaitForGraph;
/// let mut g = WaitForGraph::new(3);
/// g.add_edge(0, 1);
/// g.add_edge(1, 0);
/// assert!(g.has_deadlock(), "a closed cycle is a knot");
/// g.add_edge(1, 2); // 2 is free: an escape
/// assert!(!g.has_deadlock());
/// g.clear();
/// g.add_edge(2, 2);
/// assert_eq!(g.knots(), vec![vec![2]]);
/// ```
#[derive(Clone, Debug)]
pub struct WaitForGraph {
    /// Per vertex: its first and last out-arc (`first` is `NONE` when it
    /// has none, and `last` is then stale).
    first: Vec<u32>,
    last: Vec<u32>,
    /// Per arc, in the order added: its target and the next arc from the
    /// same source (`NONE` at the end of the chain).
    arcs: Vec<(u32, u32)>,
    /// The vertices with an out-arc.
    sources: Vec<u32>,
    tarjan: Tarjan,
}

/// Scratch for Tarjan's search. Between searches every `index` and `comp`
/// entry is `NONE` and the lists are empty.
#[derive(Clone, Debug)]
struct Tarjan {
    /// Per vertex: visit order, `NONE` while unvisited.
    index: Vec<u32>,
    lowlink: Vec<u32>,
    /// Per vertex: its SCC (the root's index) once popped, `NONE` before.
    comp: Vec<u32>,
    /// The vertices visited, in visit order (`index` inverted).
    visited: Vec<u32>,
    stack: Vec<u32>,
    /// The DFS: `(vertex, next arc to follow)`.
    call: Vec<(u32, u32)>,
}

impl WaitForGraph {
    /// An edgeless graph with `n` vertices.
    pub fn new(n: usize) -> Self {
        WaitForGraph {
            first: vec![NONE; n],
            last: vec![NONE; n],
            arcs: Vec::new(),
            sources: Vec::new(),
            tarjan: Tarjan {
                index: vec![NONE; n],
                lowlink: vec![0; n],
                comp: vec![NONE; n],
                visited: Vec::new(),
                stack: Vec::new(),
                call: Vec::new(),
            },
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn len(&self) -> usize {
        self.first.len()
    }

    /// True if the graph has no vertices.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.first.is_empty()
    }

    /// Number of edges added.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.arcs.len()
    }

    /// Remove every arc, keeping the vertices and the buffers' capacity.
    /// O(vertices with an out-arc).
    pub fn clear(&mut self) {
        for &v in &self.sources {
            self.first[v as usize] = NONE;
        }
        self.sources.clear();
        self.arcs.clear();
    }

    /// Add the wait-for arc `a → b`. O(1) amortized.
    pub fn add_edge(&mut self, a: u32, b: u32) {
        debug_assert!((a as usize) < self.len() && (b as usize) < self.len());
        let e = self.arcs.len() as u32;
        self.arcs.push((b, NONE));
        let a = a as usize;
        if self.first[a] == NONE {
            self.first[a] = e;
            self.sources.push(a as u32);
        } else {
            self.arcs[self.last[a] as usize].1 = e;
        }
        self.last[a] = e;
    }

    /// True if the arc `a → b` was added. O(out-degree of `a`).
    pub fn has_edge(&self, a: u32, b: u32) -> bool {
        self.successors(a).any(|w| w == b)
    }

    /// The targets of `v`'s out-arcs, in the order they were added (a
    /// parallel arc appears once per copy).
    pub fn successors(&self, v: u32) -> impl Iterator<Item = u32> + '_ {
        out(&self.first, &self.arcs, v)
    }

    /// Strongly connected components, in reverse topological order, each
    /// in the order Tarjan's stack pops it; vertices without any arc come
    /// last, one per component. O(vertices + arcs).
    pub fn sccs(&mut self) -> Vec<Vec<u32>> {
        let mut out: Vec<Vec<u32>> = Vec::new();
        self.search(false, |scc| {
            out.push(scc.iter().rev().copied().collect());
            false
        });
        let mut seen = vec![false; self.len()];
        for &v in out.iter().flatten() {
            seen[v as usize] = true;
        }
        out.extend(
            (0..self.len() as u32)
                .filter(|&v| !seen[v as usize])
                .map(|v| vec![v]),
        );
        out
    }

    /// The knots: the SCCs that contain a cycle (more than one vertex, or
    /// a self-loop) and that no arc leaves. Resources in a knot can never
    /// be released: they are deadlocked. Each knot is sorted, and the
    /// knots come in reverse topological order (possibly none).
    /// O(arcs + vertices with an arc).
    pub fn knots(&mut self) -> Vec<Vec<u32>> {
        let mut out = Vec::new();
        self.search(true, |knot| {
            let mut k = knot.to_vec();
            k.sort_unstable();
            out.push(k);
            false
        });
        out
    }

    /// True if any knot (deadlock) exists. Stops at the first knot, and
    /// allocates nothing once the graph has been searched at this size.
    /// O(arcs + vertices with an arc).
    pub fn has_deadlock(&mut self) -> bool {
        self.search(true, |_| true)
    }

    /// Tarjan's algorithm, iterative, the one SCC routine behind
    /// [`sccs`](Self::sccs), [`knots`](Self::knots) and
    /// [`has_deadlock`](Self::has_deadlock). Roots are the vertices with an
    /// out-arc, ascending: a vertex without one is a trivial SCC that can
    /// never be in a knot, visited only when an arc reaches it. Each SCC is
    /// handed to `on_scc` as it pops (reverse topological order) — with
    /// `knots_only`, only if it is a knot, tested then: by that time every
    /// vertex it reaches has its component. The search stops at the first
    /// call that returns true, and reports whether one did. Only the
    /// per-vertex state it wrote is reset on the way out.
    fn search(&mut self, knots_only: bool, mut on_scc: impl FnMut(&[u32]) -> bool) -> bool {
        let WaitForGraph {
            first,
            arcs,
            sources,
            tarjan: t,
            ..
        } = self;
        sources.sort_unstable();
        let mut stopped = false;
        'roots: for &root in sources.iter() {
            if t.index[root as usize] != NONE {
                continue;
            }
            t.open(root, first);
            while let Some(&(v, e)) = t.call.last() {
                let vs = v as usize;
                if e != NONE {
                    let (w, next) = arcs[e as usize];
                    t.call.last_mut().expect("frame").1 = next;
                    let w = w as usize;
                    if t.index[w] == NONE {
                        t.open(w as u32, first);
                    } else if t.comp[w] == NONE {
                        // On the stack: in the SCC being built.
                        t.lowlink[vs] = t.lowlink[vs].min(t.index[w]);
                    }
                    continue;
                }
                t.call.pop();
                if let Some(&(parent, _)) = t.call.last() {
                    let p = parent as usize;
                    t.lowlink[p] = t.lowlink[p].min(t.lowlink[vs]);
                }
                if t.lowlink[vs] != t.index[vs] {
                    continue;
                }
                let start = t
                    .stack
                    .iter()
                    .rposition(|&w| w == v)
                    .expect("root on stack");
                let c = t.index[vs];
                for &w in &t.stack[start..] {
                    t.comp[w as usize] = c;
                }
                let scc = &t.stack[start..];
                // A knot: the SCC has an arc (a self-loop if it is one
                // vertex) and none leaves it.
                let report = !knots_only
                    || (first[vs] != NONE
                        && scc
                            .iter()
                            .all(|&w| out(first, arcs, w).all(|x| t.comp[x as usize] == c)));
                if report && on_scc(scc) {
                    stopped = true;
                    break 'roots;
                }
                t.stack.truncate(start);
            }
        }
        for &v in &t.visited {
            t.index[v as usize] = NONE;
            t.comp[v as usize] = NONE;
        }
        t.visited.clear();
        t.stack.clear();
        t.call.clear();
        stopped
    }

    /// Extract one simple cycle lying entirely inside `comp` (the vertex
    /// set of a cyclic SCC, as returned by [`WaitForGraph::sccs`] or
    /// [`WaitForGraph::knots`]). Returns an empty vector if `comp` holds
    /// no cycle (a trivial SCC without a self-loop).
    ///
    /// The walk follows, from each vertex, its first out-arc that stays
    /// inside the component; because every vertex of a cyclic SCC has such
    /// an arc, the walk must revisit a vertex, and the portion from the
    /// first revisit onward is a simple cycle — the witness printed for
    /// deadlock traces. O(vertices + arcs).
    pub fn cycle_in_component(&self, comp: &[u32]) -> Vec<u32> {
        if comp.is_empty() {
            return Vec::new();
        }
        if comp.len() == 1 {
            let v = comp[0];
            return if self.has_edge(v, v) {
                vec![v]
            } else {
                Vec::new()
            };
        }
        let mut inside = vec![false; self.len()];
        for &v in comp {
            inside[v as usize] = true;
        }
        // Walk first-inside-arcs until a vertex repeats.
        let mut seen_at = vec![usize::MAX; self.len()];
        let mut path: Vec<u32> = Vec::new();
        let mut v = comp[0];
        loop {
            if seen_at[v as usize] != usize::MAX {
                return path[seen_at[v as usize]..].to_vec();
            }
            seen_at[v as usize] = path.len();
            path.push(v);
            match self.successors(v).find(|&w| inside[w as usize]) {
                Some(w) => v = w,
                // Unreachable for a genuine SCC; bail out defensively.
                None => return Vec::new(),
            }
        }
    }
}

impl Tarjan {
    /// Visit `v`: number it, push it, and open its DFS frame.
    fn open(&mut self, v: u32, first: &[u32]) {
        let i = self.visited.len() as u32;
        self.index[v as usize] = i;
        self.lowlink[v as usize] = i;
        self.visited.push(v);
        self.stack.push(v);
        self.call.push((v, first[v as usize]));
    }
}

/// The targets of `v`'s out-arcs in the order added, walking its chain
/// (`NONE` indexes past every arc, so the walk ends there).
fn out<'a>(first: &[u32], arcs: &'a [(u32, u32)], v: u32) -> impl Iterator<Item = u32> + 'a {
    let mut e = first[v as usize];
    std::iter::from_fn(move || {
        let (w, next) = *arcs.get(e as usize)?;
        e = next;
        Some(w)
    })
}
