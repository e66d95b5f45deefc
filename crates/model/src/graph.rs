//! Directed and undirected graph utilities shared by the analyses.
//!
//! These are deliberately small, dense-index graphs: every algorithm in the
//! paper works on graphs whose vertices are transaction nodes or
//! transactions, which we always number densely.

use crate::bitset::{BitMatrix, BitSet};
use std::ops::ControlFlow;

/// A directed graph over vertices `0..n` with adjacency lists.
#[derive(Debug, Clone)]
pub struct DiGraph {
    succ: Vec<Vec<u32>>,
    pred: Vec<Vec<u32>>,
}

impl DiGraph {
    /// Creates a graph with `n` vertices and no arcs.
    pub fn new(n: usize) -> Self {
        Self {
            succ: vec![Vec::new(); n],
            pred: vec![Vec::new(); n],
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn len(&self) -> usize {
        self.succ.len()
    }

    /// Whether the graph has no vertices.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.succ.is_empty()
    }

    /// Adds the arc `u → v`. Parallel arcs are permitted but never needed by
    /// callers; they do not affect any algorithm here.
    pub fn add_arc(&mut self, u: usize, v: usize) {
        self.succ[u].push(v as u32);
        self.pred[v].push(u as u32);
    }

    /// Successors of `u`.
    #[inline]
    pub fn successors(&self, u: usize) -> &[u32] {
        &self.succ[u]
    }

    /// Predecessors of `u`.
    #[inline]
    pub fn predecessors(&self, u: usize) -> &[u32] {
        &self.pred[u]
    }

    /// Total number of arcs.
    pub fn arc_count(&self) -> usize {
        self.succ.iter().map(Vec::len).sum()
    }

    /// Returns the vertices in some topological order, or `None` if the
    /// graph has a cycle (Kahn's algorithm).
    pub fn topo_order(&self) -> Option<Vec<usize>> {
        let n = self.len();
        let mut indeg: Vec<usize> = (0..n).map(|v| self.pred[v].len()).collect();
        let mut queue: Vec<usize> = (0..n).filter(|&v| indeg[v] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(v) = queue.pop() {
            order.push(v);
            for &w in &self.succ[v] {
                indeg[w as usize] -= 1;
                if indeg[w as usize] == 0 {
                    queue.push(w as usize);
                }
            }
        }
        (order.len() == n).then_some(order)
    }

    /// Whether the graph contains a directed cycle.
    pub fn has_cycle(&self) -> bool {
        self.topo_order().is_none()
    }

    /// Returns some directed cycle as a vertex sequence `v0 → v1 → … → v0`
    /// (without repeating `v0` at the end), or `None` if the graph is
    /// acyclic. Iterative DFS with colors; the cycle is recovered from the
    /// DFS stack when a back edge is found.
    pub fn find_cycle(&self) -> Option<Vec<usize>> {
        const WHITE: u8 = 0;
        const GRAY: u8 = 1;
        const BLACK: u8 = 2;
        let n = self.len();
        let mut color = vec![WHITE; n];
        let mut stack: Vec<(usize, usize)> = Vec::new(); // (vertex, next succ idx)
        for start in 0..n {
            if color[start] != WHITE {
                continue;
            }
            color[start] = GRAY;
            stack.push((start, 0));
            while let Some(&mut (v, ref mut i)) = stack.last_mut() {
                if *i < self.succ[v].len() {
                    let w = self.succ[v][*i] as usize;
                    *i += 1;
                    match color[w] {
                        WHITE => {
                            color[w] = GRAY;
                            stack.push((w, 0));
                        }
                        GRAY => {
                            // Back edge v → w: the cycle is the stack suffix
                            // starting at w.
                            let pos = stack.iter().position(|&(x, _)| x == w).expect("on stack");
                            return Some(stack[pos..].iter().map(|&(x, _)| x).collect());
                        }
                        _ => {}
                    }
                } else {
                    color[v] = BLACK;
                    stack.pop();
                }
            }
        }
        None
    }

    /// Strict transitive closure: `result.get(u, v)` ⇔ there is a nonempty
    /// path `u → … → v`. Requires the graph to be acyclic.
    ///
    /// # Panics
    /// Panics if the graph has a cycle.
    pub fn transitive_closure(&self) -> BitMatrix {
        let order = self
            .topo_order()
            .expect("transitive_closure requires a DAG");
        let mut m = BitMatrix::new(self.len());
        // Process in reverse topological order so each vertex's row is final
        // before its predecessors consume it.
        for &v in order.iter().rev() {
            for &w in &self.succ[v] {
                m.set(v, w as usize);
                m.union_row_into(w as usize, v);
            }
        }
        m
    }

    /// Transitive reduction (Hasse diagram) of a DAG: keeps arc `u → v` only
    /// if no intermediate successor of `u` reaches `v`. Used for rendering.
    pub fn transitive_reduction(&self) -> DiGraph {
        let closure = self.transitive_closure();
        let mut g = DiGraph::new(self.len());
        for u in 0..self.len() {
            for &v in &self.succ[u] {
                let v = v as usize;
                let redundant = self.succ[u]
                    .iter()
                    .any(|&w| (w as usize) != v && closure.get(w as usize, v));
                if !redundant && !g.succ[u].contains(&(v as u32)) {
                    g.add_arc(u, v);
                }
            }
        }
        g
    }

    /// The set of vertices reachable from `start` (excluding `start` itself
    /// unless it lies on a cycle through itself). Works on any digraph.
    pub fn reachable_from(&self, start: usize) -> BitSet {
        let mut seen = BitSet::new(self.len());
        let mut stack = vec![start];
        while let Some(v) = stack.pop() {
            for &w in &self.succ[v] {
                if seen.insert(w as usize) {
                    stack.push(w as usize);
                }
            }
        }
        seen
    }
}

/// An undirected graph over vertices `0..n`, used for the *interaction
/// graph* `G(A)` of a transaction system (§5 of the paper).
#[derive(Debug, Clone)]
pub struct UnGraph {
    adj: Vec<Vec<u32>>,
}

impl UnGraph {
    /// Creates a graph with `n` vertices and no edges.
    pub fn new(n: usize) -> Self {
        Self {
            adj: vec![Vec::new(); n],
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn len(&self) -> usize {
        self.adj.len()
    }

    /// Whether the graph has no vertices.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// Adds the undirected edge `{u, v}` if not already present.
    pub fn add_edge(&mut self, u: usize, v: usize) {
        if u == v {
            return;
        }
        if !self.adj[u].contains(&(v as u32)) {
            self.adj[u].push(v as u32);
            self.adj[v].push(u as u32);
        }
    }

    /// Neighbours of `u`.
    #[inline]
    pub fn neighbours(&self, u: usize) -> &[u32] {
        &self.adj[u]
    }

    /// Whether `{u, v}` is an edge.
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.adj[u].contains(&(v as u32))
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.adj.iter().map(Vec::len).sum::<usize>() / 2
    }

    /// Visits every simple cycle of length ≥ `min_len` (≥ 3 enforced)
    /// exactly once, as a vertex sequence, without materialising the list;
    /// `visit` returning `Break` stops the enumeration and is passed out.
    ///
    /// Each cycle is produced in canonical form: it starts at its smallest
    /// vertex and its second vertex is smaller than its last, which fixes
    /// one of the two traversal directions. Callers that need both
    /// directions and all rotations (Theorem 4 does) expand them
    /// themselves.
    pub fn try_for_each_simple_cycle<B>(
        &self,
        min_len: usize,
        mut visit: impl FnMut(&[usize]) -> ControlFlow<B>,
    ) -> ControlFlow<B> {
        let min_len = min_len.max(3);
        // Classic smallest-vertex-rooted enumeration: a cycle is reported
        // exactly when closing back to the root `s`, with all path vertices
        // > s, and direction canonicalized via path[1] < path.last().
        // `next[i]` is the neighbour index `path[i]` resumes from.
        let mut path: Vec<usize> = Vec::new();
        let mut next: Vec<usize> = Vec::new();
        let mut on_path = vec![false; self.len()];
        for s in 0..self.len() {
            path.push(s);
            next.push(0);
            while let (Some(&v), Some(i)) = (path.last(), next.last_mut()) {
                let Some(&w) = self.adj[v].get(*i) else {
                    on_path[v] = false;
                    path.pop();
                    next.pop();
                    continue;
                };
                *i += 1;
                let w = w as usize;
                if w == s {
                    if path.len() >= min_len && path[1] < v {
                        visit(&path)?;
                    }
                } else if w > s && !on_path[w] {
                    on_path[w] = true;
                    path.push(w);
                    next.push(0);
                }
            }
        }
        ControlFlow::Continue(())
    }

    /// Collects the first `limit` cycles of
    /// [`try_for_each_simple_cycle`](Self::try_for_each_simple_cycle).
    ///
    /// The number of simple cycles can be exponential; Theorem 4's runtime
    /// is polynomial *in that number*, so a limit is the honest interface.
    pub fn simple_cycles(&self, min_len: usize, limit: usize) -> Vec<Vec<usize>> {
        let mut cycles = Vec::new();
        if limit > 0 {
            let _ = self.try_for_each_simple_cycle(min_len, |cycle| {
                cycles.push(cycle.to_vec());
                if cycles.len() < limit {
                    ControlFlow::Continue(())
                } else {
                    ControlFlow::Break(())
                }
            });
        }
        cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> DiGraph {
        // 0 → 1 → 3, 0 → 2 → 3
        let mut g = DiGraph::new(4);
        g.add_arc(0, 1);
        g.add_arc(0, 2);
        g.add_arc(1, 3);
        g.add_arc(2, 3);
        g
    }

    #[test]
    fn topo_on_dag() {
        let g = diamond();
        let order = g.topo_order().unwrap();
        let pos: Vec<usize> = {
            let mut p = vec![0; 4];
            for (i, &v) in order.iter().enumerate() {
                p[v] = i;
            }
            p
        };
        assert!(pos[0] < pos[1] && pos[0] < pos[2] && pos[1] < pos[3] && pos[2] < pos[3]);
        assert!(!g.has_cycle());
        assert!(g.find_cycle().is_none());
    }

    #[test]
    fn cycle_detection_and_recovery() {
        let mut g = DiGraph::new(4);
        g.add_arc(0, 1);
        g.add_arc(1, 2);
        g.add_arc(2, 1);
        assert!(g.has_cycle());
        let cyc = g.find_cycle().unwrap();
        assert_eq!(cyc.len(), 2);
        let set: std::collections::HashSet<_> = cyc.into_iter().collect();
        assert_eq!(set, [1usize, 2].into_iter().collect());
    }

    #[test]
    fn self_loop_is_a_cycle() {
        let mut g = DiGraph::new(2);
        g.add_arc(1, 1);
        let cyc = g.find_cycle().unwrap();
        assert_eq!(cyc, vec![1]);
    }

    #[test]
    fn closure_of_diamond() {
        let m = diamond().transitive_closure();
        assert!(m.get(0, 3) && m.get(0, 1) && m.get(0, 2));
        assert!(m.get(1, 3) && m.get(2, 3));
        assert!(!m.get(3, 0) && !m.get(1, 2) && !m.get(0, 0));
    }

    #[test]
    fn closure_of_chain() {
        let mut g = DiGraph::new(5);
        for i in 0..4 {
            g.add_arc(i, i + 1);
        }
        let m = g.transitive_closure();
        for i in 0..5 {
            for j in 0..5 {
                assert_eq!(m.get(i, j), i < j, "({i},{j})");
            }
        }
    }

    #[test]
    fn reduction_removes_transitive_arc() {
        let mut g = DiGraph::new(3);
        g.add_arc(0, 1);
        g.add_arc(1, 2);
        g.add_arc(0, 2); // transitive
        let r = g.transitive_reduction();
        assert_eq!(r.successors(0), &[1]);
        assert_eq!(r.successors(1), &[2]);
        assert_eq!(r.arc_count(), 2);
    }

    #[test]
    fn reachability() {
        let g = diamond();
        let r = g.reachable_from(0);
        assert_eq!(r.iter().collect::<Vec<_>>(), vec![1, 2, 3]);
        assert!(g.reachable_from(3).is_empty());
    }

    #[test]
    fn ungraph_edges_dedup() {
        let mut g = UnGraph::new(3);
        g.add_edge(0, 1);
        g.add_edge(1, 0);
        g.add_edge(1, 1);
        assert_eq!(g.edge_count(), 1);
        assert!(g.has_edge(0, 1) && g.has_edge(1, 0));
        assert!(!g.has_edge(0, 2));
    }

    #[test]
    fn triangle_has_one_cycle() {
        let mut g = UnGraph::new(3);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(2, 0);
        let cycles = g.simple_cycles(3, 100);
        assert_eq!(cycles, vec![vec![0, 1, 2]]);
    }

    #[test]
    fn k4_cycle_census() {
        // K4 has 3 four-cycles and 4 three-cycles = 7 simple cycles.
        let mut g = UnGraph::new(4);
        for u in 0..4 {
            for v in (u + 1)..4 {
                g.add_edge(u, v);
            }
        }
        let cycles = g.simple_cycles(3, 100);
        assert_eq!(cycles.len(), 7);
        let tri = cycles.iter().filter(|c| c.len() == 3).count();
        let quad = cycles.iter().filter(|c| c.len() == 4).count();
        assert_eq!((tri, quad), (4, 3));
        // All canonical: start at min, second < last.
        for c in &cycles {
            assert_eq!(*c.iter().min().unwrap(), c[0]);
            assert!(c[1] < *c.last().unwrap());
        }
    }

    #[test]
    fn cycle_limit_respected() {
        let mut g = UnGraph::new(4);
        for u in 0..4 {
            for v in (u + 1)..4 {
                g.add_edge(u, v);
            }
        }
        assert_eq!(g.simple_cycles(3, 2).len(), 2);
    }

    #[test]
    fn visitor_streams_in_collector_order_and_stops_on_break() {
        let mut g = UnGraph::new(5);
        for u in 0..5 {
            for v in (u + 1)..5 {
                g.add_edge(u, v);
            }
        }
        let all = g.simple_cycles(3, usize::MAX);
        assert_eq!(all.len(), 37); // K5: 10 + 15 + 12
        let mut seen = Vec::new();
        let stopped = g.try_for_each_simple_cycle(3, |c| {
            seen.push(c.to_vec());
            if seen.len() == 5 {
                ControlFlow::Break(c.len())
            } else {
                ControlFlow::Continue(())
            }
        });
        assert_eq!(stopped, ControlFlow::Break(all[4].len()));
        assert_eq!(seen, all[..5]);
        assert!(g.simple_cycles(3, 0).is_empty());
    }

    #[test]
    fn min_len_filters_triangles() {
        let mut g = UnGraph::new(4);
        for u in 0..4 {
            for v in (u + 1)..4 {
                g.add_edge(u, v);
            }
        }
        let cycles = g.simple_cycles(4, 100);
        assert!(cycles.iter().all(|c| c.len() >= 4));
        assert_eq!(cycles.len(), 3);
    }

    #[test]
    fn acyclic_ungraph_has_no_cycles() {
        let mut g = UnGraph::new(4);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(2, 3);
        assert!(g.simple_cycles(3, 100).is_empty());
    }
}
