//! Wait-for graph construction and knot detection.
//!
//! Vertices are abstract resource ids supplied by the caller (the
//! simulator maps virtual channels, message queues and memory controllers
//! onto them). An edge `a → b` means "the agent holding `a` waits for
//! `b`". Following the formal model of Warnakulasuriya & Pinkston, a
//! deadlock corresponds to a *knot*: a strongly connected component
//! containing a cycle from which no arc escapes — every resource reachable
//! from the component leads back into it.

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
/// ```
#[derive(Clone, Debug)]
pub struct WaitForGraph {
    n: usize,
    adj: Vec<Vec<u32>>,
    edges: usize,
}

impl WaitForGraph {
    /// An edgeless graph with `n` vertices.
    pub fn new(n: usize) -> Self {
        WaitForGraph {
            n,
            adj: vec![Vec::new(); n],
            edges: 0,
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// True if the graph has no vertices.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of edges added.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges
    }

    /// Add the wait-for arc `a → b`.
    pub fn add_edge(&mut self, a: u32, b: u32) {
        debug_assert!((a as usize) < self.n && (b as usize) < self.n);
        self.adj[a as usize].push(b);
        self.edges += 1;
    }

    /// True if the arc `a → b` was added.
    pub fn has_edge(&self, a: u32, b: u32) -> bool {
        self.adj[a as usize].contains(&b)
    }

    /// Strongly connected components (Tarjan, iterative), in reverse
    /// topological order.
    pub fn sccs(&self) -> Vec<Vec<u32>> {
        #[derive(Clone, Copy)]
        struct VState {
            index: u32,
            lowlink: u32,
            on_stack: bool,
            visited: bool,
        }
        let mut st = vec![
            VState {
                index: 0,
                lowlink: 0,
                on_stack: false,
                visited: false,
            };
            self.n
        ];
        let mut next_index = 0u32;
        let mut stack: Vec<u32> = Vec::new();
        let mut sccs: Vec<Vec<u32>> = Vec::new();
        // Explicit DFS stack: (vertex, child iterator position).
        let mut call: Vec<(u32, usize)> = Vec::new();
        for root in 0..self.n as u32 {
            if st[root as usize].visited {
                continue;
            }
            call.push((root, 0));
            st[root as usize].visited = true;
            st[root as usize].index = next_index;
            st[root as usize].lowlink = next_index;
            next_index += 1;
            st[root as usize].on_stack = true;
            stack.push(root);
            while let Some(&mut (v, ref mut ci)) = call.last_mut() {
                let vs = v as usize;
                if *ci < self.adj[vs].len() {
                    let w = self.adj[vs][*ci];
                    *ci += 1;
                    let ws = w as usize;
                    if !st[ws].visited {
                        st[ws].visited = true;
                        st[ws].index = next_index;
                        st[ws].lowlink = next_index;
                        next_index += 1;
                        st[ws].on_stack = true;
                        stack.push(w);
                        call.push((w, 0));
                    } else if st[ws].on_stack {
                        st[vs].lowlink = st[vs].lowlink.min(st[ws].index);
                    }
                } else {
                    call.pop();
                    if let Some(&(parent, _)) = call.last() {
                        let lp = st[parent as usize].lowlink.min(st[vs].lowlink);
                        st[parent as usize].lowlink = lp;
                    }
                    if st[vs].lowlink == st[vs].index {
                        let mut comp = Vec::new();
                        loop {
                            let w = stack.pop().expect("tarjan stack invariant");
                            st[w as usize].on_stack = false;
                            comp.push(w);
                            if w == v {
                                break;
                            }
                        }
                        sccs.push(comp);
                    }
                }
            }
        }
        sccs
    }

    /// True if `comp` (one SCC) contains a cycle: more than one vertex, or
    /// a self-loop.
    fn has_cycle(&self, comp: &[u32]) -> bool {
        comp.len() > 1 || self.adj[comp[0] as usize].contains(&comp[0])
    }

    /// Detect knots: cyclic SCCs from which no arc escapes to a vertex
    /// outside every knot... precisely: an SCC `K` is *locally* a knot when
    /// every arc leaving a vertex of `K` stays within `K`. Resources in
    /// such components can never be released: they are deadlocked.
    ///
    /// Returns the deadlocked vertex sets (possibly empty).
    pub fn knots(&self) -> Vec<Vec<u32>> {
        let sccs = self.sccs();
        let mut comp_of = vec![u32::MAX; self.n];
        for (ci, comp) in sccs.iter().enumerate() {
            for &v in comp {
                comp_of[v as usize] = ci as u32;
            }
        }
        let mut out = Vec::new();
        'scc: for (ci, comp) in sccs.iter().enumerate() {
            if !self.has_cycle(comp) {
                continue;
            }
            for &v in comp {
                for &w in &self.adj[v as usize] {
                    if comp_of[w as usize] != ci as u32 {
                        continue 'scc; // an escape arc exists
                    }
                }
            }
            let mut k = comp.clone();
            k.sort_unstable();
            out.push(k);
        }
        out
    }

    /// Convenience: true if any knot (deadlock) exists.
    pub fn has_deadlock(&self) -> bool {
        !self.knots().is_empty()
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
    /// deadlock traces.
    pub fn cycle_in_component(&self, comp: &[u32]) -> Vec<u32> {
        if comp.is_empty() {
            return Vec::new();
        }
        if comp.len() == 1 {
            let v = comp[0];
            return if self.adj[v as usize].contains(&v) {
                vec![v]
            } else {
                Vec::new()
            };
        }
        let mut inside = vec![false; self.n];
        for &v in comp {
            inside[v as usize] = true;
        }
        // Walk first-inside-arcs until a vertex repeats.
        let mut seen_at = vec![usize::MAX; self.n];
        let mut path: Vec<u32> = Vec::new();
        let mut v = comp[0];
        loop {
            if seen_at[v as usize] != usize::MAX {
                return path[seen_at[v as usize]..].to_vec();
            }
            seen_at[v as usize] = path.len();
            path.push(v);
            match self.adj[v as usize].iter().find(|&&w| inside[w as usize]) {
                Some(&w) => v = w,
                // Unreachable for a genuine SCC; bail out defensively.
                None => return Vec::new(),
            }
        }
    }
}
