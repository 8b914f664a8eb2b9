//! Node connectivity (vertex-disjoint paths) and degree connectivity.

use crate::algo::AlgoScratch;
use crate::view::{Adjacency, GraphView};
use crate::DiGraph;

/// Local node connectivity between `s` and `t` on an undirected simple
/// adjacency: the maximum number of internally vertex-disjoint `s`–`t`
/// paths (equivalently, by Menger's theorem, the minimum vertex cut).
///
/// Computed as unit-capacity max-flow on the vertex-split digraph: every
/// node `v` becomes `v_in → v_out` with capacity 1, every undirected
/// edge `{u,v}` becomes `u_out → v_in` and `v_out → u_in`, and the flow
/// runs from `s_out` to `t_in`. (`s_in → s_out` and `t_in → t_out` can
/// never cross an `s_out`/`t_in` cut forwards, so their capacity does
/// not matter.)
///
/// Adjacent `s`, `t` still yield finite values (the direct edge counts as
/// one disjoint path).
///
/// # Panics
///
/// Panics when `s == t`, or when `adj` is not symmetric.
pub fn local_node_connectivity<A: Adjacency + ?Sized>(adj: &A, s: usize, t: usize) -> usize {
    local_node_connectivity_scratch(adj, s, t, &mut AlgoScratch::new())
}

/// [`local_node_connectivity`] reusing `scratch`'s component labels,
/// residual graph, parent table, and BFS queue — no allocation once
/// they have grown to their working size.
pub fn local_node_connectivity_scratch<A: Adjacency + ?Sized>(
    adj: &A,
    s: usize,
    t: usize,
    scratch: &mut AlgoScratch,
) -> usize {
    assert_ne!(s, t, "local connectivity requires distinct endpoints");
    let mut kernel = Kernel::new(adj, scratch);
    kernel.pair(s, t)
}

/// Per-graph node-connectivity state over a scratch: component labels
/// up front, the residual graph on first demand, then any number of
/// pairs.
///
/// Every pair is exact. The adjacency is simple (deduplicated, no
/// self-loops), so a flow leaving `s_out` uses distinct arcs, one per
/// neighbour, and κ(s,t) ≤ min(deg s, deg t). Hence κ = 0 when that
/// bound is 0 or `s` and `t` lie in different components, κ = 1 when the
/// bound is 1 and a path exists, and otherwise Edmonds–Karp stops as
/// soon as the flow reaches the bound instead of running the final
/// failing search.
struct Kernel<'a, A: ?Sized> {
    adj: &'a A,
    scratch: &'a mut AlgoScratch,
    residual_built: bool,
}

/// `parent` marker: residual node not reached by the current search.
const UNSEEN: usize = usize::MAX;
/// `parent` marker for the search root.
const ROOT: usize = usize::MAX - 1;

impl<'a, A: Adjacency + ?Sized> Kernel<'a, A> {
    fn new(adj: &'a A, scratch: &'a mut AlgoScratch) -> Self {
        let n = adj.order();
        let AlgoScratch { component, queue, .. } = &mut *scratch;
        component.clear();
        component.resize(n, UNSEEN);
        for root in 0..n {
            if component[root] != UNSEEN {
                continue;
            }
            component[root] = root;
            queue.clear();
            queue.push_back(root);
            while let Some(u) = queue.pop_front() {
                for &v in adj.neighbors(u) {
                    if component[v] == UNSEEN {
                        component[v] = root;
                        queue.push_back(v);
                    }
                }
            }
        }
        Kernel { adj, scratch, residual_built: false }
    }

    fn pair(&mut self, s: usize, t: usize) -> usize {
        let bound = self.adj.neighbors(s).len().min(self.adj.neighbors(t).len());
        if bound == 0 || self.scratch.component[s] != self.scratch.component[t] {
            return 0;
        }
        if bound == 1 {
            return 1;
        }
        if !self.residual_built {
            self.build_residual();
            self.residual_built = true;
        }
        let scratch = &mut *self.scratch;
        scratch.flow_cap.copy_from_slice(&scratch.flow_base);
        let (source, sink) = (2 * s + 1, 2 * t);
        let mut flow = 0;
        while flow < bound && augment(scratch, source, sink) {
            flow += 1;
        }
        flow
    }

    /// Lays out the vertex-split residual graph: node `v_in = 2v` and
    /// `v_out = 2v + 1` each get a row of `1 + deg v` arcs. Slot 0 is
    /// the split arc (forward in `v_in`'s row, reverse in `v_out`'s);
    /// slot `1 + k` pairs `v_out → u_in` for `u`, the `k`-th neighbour
    /// of `v`, with its reverse arc in `u_in`'s row at `v`'s position
    /// among `u`'s (sorted) neighbours.
    fn build_residual(&mut self) {
        let adj = self.adj;
        let n = adj.order();
        let AlgoScratch { flow_start, flow_arcs, flow_cap, flow_base, .. } = &mut *self.scratch;
        flow_start.clear();
        flow_start.push(0);
        for row in 0..2 * n {
            let next = flow_start[row] + 1 + adj.neighbors(row / 2).len();
            flow_start.push(next);
        }
        let arcs = flow_start[2 * n];
        flow_arcs.clear();
        flow_arcs.resize(arcs, (0, 0));
        flow_base.clear();
        flow_base.resize(arcs, 0);
        flow_cap.clear();
        flow_cap.resize(arcs, 0);
        for v in 0..n {
            let (v_in, v_out) = (flow_start[2 * v], flow_start[2 * v + 1]);
            flow_arcs[v_in] = (2 * v + 1, v_out);
            flow_base[v_in] = 1;
            flow_arcs[v_out] = (2 * v, v_in);
            for (k, &u) in adj.neighbors(v).iter().enumerate() {
                let j = adj
                    .neighbors(u)
                    .binary_search(&v)
                    .expect("undirected adjacency is symmetric");
                let (fwd, back) = (v_out + 1 + k, flow_start[2 * u] + 1 + j);
                flow_arcs[fwd] = (2 * u, back);
                flow_base[fwd] = 1;
                flow_arcs[back] = (2 * v + 1, fwd);
            }
        }
    }
}

/// One Edmonds–Karp round: a BFS over positive-capacity residual arcs
/// from `source`, stopping as soon as `sink` is labelled, then a unit
/// augmentation along the found path. `false` when no path is left.
fn augment(scratch: &mut AlgoScratch, source: usize, sink: usize) -> bool {
    let AlgoScratch { flow_start, flow_arcs, flow_cap, parent, queue, .. } = scratch;
    parent.clear();
    parent.resize(flow_start.len() - 1, UNSEEN);
    parent[source] = ROOT;
    queue.clear();
    queue.push_back(source);
    'search: while let Some(u) = queue.pop_front() {
        for arc in flow_start[u]..flow_start[u + 1] {
            let v = flow_arcs[arc].0;
            if flow_cap[arc] > 0 && parent[v] == UNSEEN {
                parent[v] = arc;
                if v == sink {
                    break 'search;
                }
                queue.push_back(v);
            }
        }
    }
    if parent[sink] == UNSEEN {
        return false;
    }
    let mut v = sink;
    while v != source {
        let arc = parent[v];
        let rev = flow_arcs[arc].1;
        flow_cap[arc] -= 1;
        flow_cap[rev] += 1;
        v = flow_arcs[rev].0;
    }
    true
}

/// Average node connectivity: the mean of local node connectivity over
/// node pairs (feature f20, Fig. 7's "average node connectivity").
///
/// For graphs with more than `sample_limit` nodes an exact all-pairs
/// computation is quadratic in pairs times a max-flow each; we then fall
/// back to a deterministic stride-sample of pairs, which preserves the
/// estimator's mean on these small-world conversation graphs.
pub fn average_node_connectivity<N, E>(g: &DiGraph<N, E>) -> f64 {
    average_node_connectivity_with_limit(g, 64)
}

/// See [`average_node_connectivity`]; `sample_limit` bounds the node count
/// above which pair sampling kicks in.
pub fn average_node_connectivity_with_limit<N, E>(g: &DiGraph<N, E>, sample_limit: usize) -> f64 {
    average_node_connectivity_in(&g.undirected_adjacency(), sample_limit)
}

/// [`average_node_connectivity`] over a prebuilt view.
pub fn average_node_connectivity_view(view: &GraphView) -> f64 {
    average_node_connectivity_in(view.undirected(), 64)
}

fn average_node_connectivity_in<A: Adjacency + ?Sized>(adj: &A, sample_limit: usize) -> f64 {
    average_node_connectivity_scratch_in(adj, sample_limit, &mut AlgoScratch::new())
}

/// [`average_node_connectivity_view`] reusing `scratch`'s pair list and
/// max-flow buffers.
pub fn average_node_connectivity_view_scratch(
    view: &GraphView,
    scratch: &mut AlgoScratch,
) -> f64 {
    average_node_connectivity_scratch_in(view.undirected(), 64, scratch)
}

fn average_node_connectivity_scratch_in<A: Adjacency + ?Sized>(
    adj: &A,
    sample_limit: usize,
    scratch: &mut AlgoScratch,
) -> f64 {
    let n = adj.order();
    if n < 2 {
        return 0.0;
    }
    let mut pairs = std::mem::take(&mut scratch.pairs);
    pairs.clear();
    for s in 0..n {
        for t in (s + 1)..n {
            pairs.push((s, t));
        }
    }
    if n > sample_limit {
        let target = sample_limit * (sample_limit - 1) / 2;
        let stride = (pairs.len() / target).max(1);
        // In-place stride sample: keep indices 0, stride, 2·stride, …
        // exactly as `step_by(stride)` would.
        let mut w = 0usize;
        let mut r = 0usize;
        while r < pairs.len() {
            pairs[w] = pairs[r];
            w += 1;
            r += stride;
        }
        pairs.truncate(w);
    }
    // Integer per-pair values summed, then one division: the mean does
    // not depend on how each pair's value was found.
    let mut kernel = Kernel::new(adj, scratch);
    let total: usize = pairs.iter().map(|&(s, t)| kernel.pair(s, t)).sum();
    let mean = total as f64 / pairs.len() as f64;
    scratch.pairs = pairs;
    mean
}

/// Average degree over non-isolated nodes (feature f23, "average degree
/// for connected nodes"). Parallel edges are counted, matching the degree
/// definition used elsewhere.
pub fn avg_degree_connectivity<N, E>(g: &DiGraph<N, E>) -> f64 {
    // Integer running sums — exactly the value the collected-vector
    // version produced, with no per-call allocation.
    let mut sum = 0usize;
    let mut connected = 0usize;
    for v in g.node_ids() {
        let d = g.degree(v);
        if d > 0 {
            sum += d;
            connected += 1;
        }
    }
    if connected == 0 {
        0.0
    } else {
        sum as f64 / connected as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn complete(n: usize) -> DiGraph<(), ()> {
        let mut g = DiGraph::new();
        let nodes: Vec<_> = (0..n).map(|_| g.add_node(())).collect();
        for i in 0..n {
            for j in (i + 1)..n {
                g.add_edge(nodes[i], nodes[j], ());
            }
        }
        g
    }

    #[test]
    fn path_connectivity_is_one() {
        let mut g = DiGraph::new();
        let n: Vec<_> = (0..3).map(|_| g.add_node(())).collect();
        g.add_edge(n[0], n[1], ());
        g.add_edge(n[1], n[2], ());
        let adj = g.undirected_adjacency();
        assert_eq!(local_node_connectivity(&adj, 0, 2), 1);
    }

    #[test]
    fn complete_graph_connectivity() {
        let g = complete(5);
        let adj = g.undirected_adjacency();
        // K5: connectivity between any pair = 4 (direct edge + 3 via others).
        assert_eq!(local_node_connectivity(&adj, 0, 4), 4);
        assert!((average_node_connectivity(&g) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn cycle_connectivity_is_two() {
        let mut g = DiGraph::new();
        let n: Vec<_> = (0..5).map(|_| g.add_node(())).collect();
        for i in 0..5 {
            g.add_edge(n[i], n[(i + 1) % 5], ());
        }
        let adj = g.undirected_adjacency();
        assert_eq!(local_node_connectivity(&adj, 0, 2), 2);
        assert!((average_node_connectivity(&g) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn disconnected_pair_connectivity_is_zero() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        g.add_node(());
        g.add_node(());
        let adj = g.undirected_adjacency();
        assert_eq!(local_node_connectivity(&adj, 0, 1), 0);
        assert_eq!(average_node_connectivity(&g), 0.0);
    }

    #[test]
    fn cut_vertex_limits_connectivity() {
        // Two triangles sharing node 2 (bowtie): connectivity(0, 4) = 1.
        let mut g = DiGraph::new();
        let n: Vec<_> = (0..5).map(|_| g.add_node(())).collect();
        for &(a, b) in &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)] {
            g.add_edge(n[a], n[b], ());
        }
        let adj = g.undirected_adjacency();
        assert_eq!(local_node_connectivity(&adj, 0, 4), 1);
        assert_eq!(local_node_connectivity(&adj, 0, 1), 2);
    }

    #[test]
    fn sampling_matches_exact_on_regular_graph() {
        let g = complete(10);
        let exact = average_node_connectivity_with_limit(&g, 1000);
        let sampled = average_node_connectivity_with_limit(&g, 4);
        assert!((exact - sampled).abs() < 1e-12); // all pairs identical in K10
    }

    #[test]
    fn degree_connectivity_ignores_isolated() {
        let mut g = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_node(()); // isolated
        g.add_edge(a, b, ());
        // Degrees: 1, 1, 0 → mean over connected = 1.
        assert!((avg_degree_connectivity(&g) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn degree_connectivity_empty() {
        let g: DiGraph<(), ()> = DiGraph::new();
        assert_eq!(avg_degree_connectivity(&g), 0.0);
    }
}
