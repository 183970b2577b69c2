//! Strong connectivity: Tarjan's components and a linear-time yes/no check.
//!
//! [`is_strongly_connected`] answers the yes/no question with two
//! reachability passes over a compressed-sparse-row digraph; [`tarjan_scc`]
//! computes the components themselves. Both take adjacency lists.

/// Compute the strongly connected components of a digraph given as adjacency
/// lists. Components are returned in **reverse topological order** (Tarjan's
/// natural output order): every edge between components points from a later
/// component in the returned list to an earlier one.
///
/// An iterative implementation is used so that the deep recursions arising
/// from long level chains cannot overflow the stack.
pub fn tarjan_scc(adj: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let n = adj.len();
    const UNSET: usize = usize::MAX;
    let mut index = vec![UNSET; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut comps: Vec<Vec<usize>> = Vec::new();

    // Explicit DFS stack: (node, next child position).
    let mut call: Vec<(usize, usize)> = Vec::new();

    for start in 0..n {
        if index[start] != UNSET {
            continue;
        }
        call.push((start, 0));
        index[start] = next_index;
        low[start] = next_index;
        next_index += 1;
        stack.push(start);
        on_stack[start] = true;

        while let Some(&mut (v, ref mut child)) = call.last_mut() {
            if *child < adj[v].len() {
                let w = adj[v][*child];
                *child += 1;
                if index[w] == UNSET {
                    index[w] = next_index;
                    low[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    call.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                call.pop();
                if let Some(&(parent, _)) = call.last() {
                    low[parent] = low[parent].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut comp = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w] = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    comps.push(comp);
                }
            }
        }
    }
    comps
}

/// True if the digraph is strongly connected (one component, or empty).
pub fn is_strongly_connected(adj: &[Vec<usize>]) -> bool {
    CsrDigraph::from_adjacency(adj).is_strongly_connected()
}

/// A digraph in compressed sparse row (CSR) form: the out-neighbours of
/// vertex `v` are `targets[offsets[v]..offsets[v + 1]]`.
///
/// Filled vertex by vertex: [`push_edge`](Self::push_edge) adds an edge out
/// of the vertex being filled, [`end_vertex`](Self::end_vertex) closes it
/// and moves on to the next. Edges may point at vertices not yet filled.
#[derive(Debug, Clone)]
struct CsrDigraph {
    offsets: Vec<usize>,
    targets: Vec<usize>,
}

impl CsrDigraph {
    /// An empty digraph with room for `vertices` vertices and `edges` edges.
    fn with_capacity(vertices: usize, edges: usize) -> CsrDigraph {
        let mut offsets = Vec::with_capacity(vertices + 1);
        offsets.push(0);
        CsrDigraph {
            offsets,
            targets: Vec::with_capacity(edges),
        }
    }

    /// The digraph of adjacency lists `adj`.
    fn from_adjacency(adj: &[Vec<usize>]) -> CsrDigraph {
        let edges = adj.iter().map(Vec::len).sum();
        let mut g = CsrDigraph::with_capacity(adj.len(), edges);
        for out in adj {
            for &w in out {
                g.push_edge(w);
            }
            g.end_vertex();
        }
        g
    }

    /// Add the edge `v → to` out of the vertex `v` being filled.
    fn push_edge(&mut self, to: usize) {
        self.targets.push(to);
    }

    /// Close the vertex being filled; later edges leave the next vertex.
    fn end_vertex(&mut self) {
        self.offsets.push(self.targets.len());
    }

    /// Number of closed vertices.
    fn vertex_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True if every vertex reaches vertex 0 and vertex 0 reaches every
    /// vertex — strong connectivity, in `O(V + E)` time (empty counts as
    /// connected, like [`is_strongly_connected`]).
    ///
    /// # Panics
    /// If an edge points at a vertex that was never closed.
    fn is_strongly_connected(&self) -> bool {
        let n = self.vertex_count();
        n == 0 || (self.reach_count() == n && self.transpose().reach_count() == n)
    }

    /// Number of vertices reachable from vertex 0, itself included.
    fn reach_count(&self) -> usize {
        let mut seen = vec![false; self.vertex_count()];
        seen[0] = true;
        let mut stack = vec![0usize];
        let mut count = 1;
        while let Some(v) = stack.pop() {
            for &w in &self.targets[self.offsets[v]..self.offsets[v + 1]] {
                if !seen[w] {
                    seen[w] = true;
                    count += 1;
                    stack.push(w);
                }
            }
        }
        count
    }

    /// The reversed digraph, by a counting sort of the edges on target.
    fn transpose(&self) -> CsrDigraph {
        let n = self.vertex_count();
        let mut offsets = vec![0usize; n + 1];
        for &w in &self.targets {
            offsets[w + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let mut next = offsets[..n].to_vec();
        let mut targets = vec![0usize; self.targets.len()];
        for v in 0..n {
            for &w in &self.targets[self.offsets[v]..self.offsets[v + 1]] {
                targets[next[w]] = v;
                next[w] += 1;
            }
        }
        CsrDigraph { offsets, targets }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt as _, SeedableRng};

    #[test]
    fn single_cycle_is_one_component() {
        let adj = vec![vec![1], vec![2], vec![0]];
        assert!(is_strongly_connected(&adj));
        assert_eq!(tarjan_scc(&adj).len(), 1);
    }

    #[test]
    fn chain_is_n_components() {
        let adj = vec![vec![1], vec![2], vec![]];
        let comps = tarjan_scc(&adj);
        assert_eq!(comps.len(), 3);
        assert!(!is_strongly_connected(&adj));
        // Reverse topological: sink component first.
        assert_eq!(comps[0], vec![2]);
    }

    #[test]
    fn two_cycles_bridge() {
        // 0<->1, 2<->3, edge 1->2.
        let adj = vec![vec![1], vec![0, 2], vec![3], vec![2]];
        let comps: Vec<Vec<usize>> = tarjan_scc(&adj)
            .into_iter()
            .map(|mut comp| {
                comp.sort_unstable();
                comp
            })
            .collect();
        // Reverse topological order: the sink component {2, 3} comes first.
        assert_eq!(comps, [vec![2, 3], vec![0, 1]]);
    }

    #[test]
    fn self_loops_ignored_gracefully() {
        let adj = vec![vec![0, 1], vec![1, 0]];
        assert!(is_strongly_connected(&adj));
    }

    #[test]
    fn empty_graph() {
        assert!(is_strongly_connected(&[]));
        assert_eq!(tarjan_scc(&[]).len(), 0);
    }

    #[test]
    fn singleton() {
        let adj = vec![vec![]];
        assert!(is_strongly_connected(&adj));
    }

    #[test]
    fn deep_chain_no_stack_overflow() {
        // 100k-node cycle: recursion would overflow, iteration must not.
        let n = 100_000;
        let adj: Vec<Vec<usize>> = (0..n).map(|i| vec![(i + 1) % n]).collect();
        assert!(is_strongly_connected(&adj));
    }

    /// Seeded random digraph on `n` vertices: a directed cycle through all
    /// vertices (irreducible) or none, plus `extra` random edges.
    fn random_digraph(rng: &mut StdRng, n: usize, cycle: bool, extra: usize) -> Vec<Vec<usize>> {
        let mut adj = vec![Vec::new(); n];
        if cycle {
            for (v, out) in adj.iter_mut().enumerate() {
                out.push((v + 1) % n);
            }
        }
        for _ in 0..extra {
            let v = rng.random_below(n as u64) as usize;
            let w = rng.random_below(n as u64) as usize;
            adj[v].push(w);
        }
        adj
    }

    #[test]
    fn csr_check_agrees_with_tarjan_on_random_digraphs() {
        let mut rng = StdRng::seed_from_u64(0x5cc);
        let (mut connected, mut split) = (0, 0);
        for trial in 0..600 {
            let n = 1 + rng.random_below(40) as usize;
            let cycle = trial % 3 == 0;
            let extra = rng.random_below(4 * n as u64) as usize;
            let adj = random_digraph(&mut rng, n, cycle, extra);
            let want = tarjan_scc(&adj).len() == 1;
            let csr = CsrDigraph::from_adjacency(&adj);
            assert_eq!(csr.vertex_count(), n);
            assert_eq!(csr.is_strongly_connected(), want, "trial {trial}: {adj:?}");
            assert_eq!(is_strongly_connected(&adj), want, "trial {trial}");
            if want {
                connected += 1;
            } else {
                split += 1;
            }
        }
        // Both verdicts are well represented.
        assert!(connected > 150 && split > 150, "{connected} vs {split}");
    }

    #[test]
    fn csr_filled_vertex_by_vertex_matches_adjacency() {
        // 0 -> 2 is a forward edge to a vertex not yet filled.
        let mut g = CsrDigraph::with_capacity(3, 3);
        g.push_edge(2);
        g.end_vertex();
        g.push_edge(0);
        g.end_vertex();
        g.end_vertex();
        assert_eq!(g.vertex_count(), 3);
        assert!(!g.is_strongly_connected()); // 2 has no way back
        let mut g = CsrDigraph::from_adjacency(&[vec![2], vec![0], vec![1]]);
        assert!(g.is_strongly_connected());
        g.end_vertex(); // an isolated fourth vertex
        assert!(!g.is_strongly_connected());
    }

    #[test]
    fn disconnected_components_counted() {
        let adj = vec![vec![1], vec![0], vec![3], vec![2], vec![]];
        let comps = tarjan_scc(&adj);
        assert_eq!(comps.len(), 3);
    }
}
