//! Reusable scratch buffers for the algorithm suite.
//!
//! The `*_scratch` entry points in the sibling modules thread an
//! [`AlgoScratch`] through every traversal, so a long-lived caller (the
//! feature extractor classifying thousands of conversations) performs no
//! steady-state heap allocation: buffers grow to the largest graph seen
//! and are reused from then on. Results are bit-identical to the
//! allocating one-shot entry points — the scratch variants run the same
//! loops over the same buffers in the same order; only the buffers'
//! provenance differs.

use std::collections::VecDeque;

/// Scratch space shared by the scratch-taking algorithm variants.
///
/// One instance serves every algorithm; the fields are partitioned by
/// phase (BFS, Brandes, PageRank, max-flow) and a traversal never runs
/// concurrently with another on the same scratch, so sharing the BFS
/// queue between plain BFS and Edmonds–Karp is safe.
#[derive(Debug, Default)]
pub struct AlgoScratch {
    /// BFS distances (`usize::MAX` = unreached).
    pub(crate) dist: Vec<usize>,
    /// BFS / Edmonds–Karp work queue.
    pub(crate) queue: VecDeque<usize>,
    /// Brandes visitation order.
    pub(crate) order: Vec<usize>,
    /// Brandes shortest-path predecessor lists. Rows keep their capacity
    /// across sources and calls — the Vec-pool that makes the fused
    /// betweenness/load pass allocation-free in steady state.
    pub(crate) preds: Vec<Vec<usize>>,
    /// Brandes path counts.
    pub(crate) sigma: Vec<f64>,
    /// Brandes dependency accumulator.
    pub(crate) delta: Vec<f64>,
    /// Load back-propagation units.
    pub(crate) between: Vec<f64>,
    /// Primary per-node output buffer (betweenness).
    pub(crate) values_a: Vec<f64>,
    /// Secondary per-node output buffer (load).
    pub(crate) values_b: Vec<f64>,
    /// PageRank double buffers, swapped each power iteration.
    pub(crate) rank: Vec<f64>,
    pub(crate) rank_next: Vec<f64>,
    /// Undirected component label per node (node connectivity).
    pub(crate) component: Vec<usize>,
    /// Vertex-split residual graph for unit-capacity max-flow, built
    /// once per graph: row offsets into the arc arrays.
    pub(crate) flow_start: Vec<usize>,
    /// Residual arcs `(head, reverse arc index)`.
    pub(crate) flow_arcs: Vec<(usize, usize)>,
    /// Residual capacities, reset from `flow_base` per pair.
    pub(crate) flow_cap: Vec<u8>,
    /// Capacities of the empty flow.
    pub(crate) flow_base: Vec<u8>,
    /// Max-flow BFS parents: the arc each residual node was reached by.
    pub(crate) parent: Vec<usize>,
    /// Sampled node pairs for average connectivity.
    pub(crate) pairs: Vec<(usize, usize)>,
}

impl AlgoScratch {
    /// A fresh scratch with empty buffers; the first use sizes them.
    pub fn new() -> Self {
        Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::{
        centrality, clustering, connectivity, mean, pagerank, paths,
    };
    use crate::view::GraphView;
    use crate::DiGraph;

    fn star(leaves: usize) -> DiGraph<(), ()> {
        let mut g = DiGraph::new();
        let c = g.add_node(());
        for _ in 0..leaves {
            let leaf = g.add_node(());
            g.add_edge(c, leaf, ());
        }
        g
    }

    fn bowtie() -> DiGraph<(), ()> {
        let mut g = DiGraph::new();
        let n: Vec<_> = (0..5).map(|_| g.add_node(())).collect();
        for &(a, b) in &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)] {
            g.add_edge(n[a], n[b], ());
        }
        g
    }

    /// Every scratch variant must agree bit-for-bit with its allocating
    /// counterpart, including when one scratch is reused across graphs
    /// of different sizes (stale buffer contents must not leak).
    #[test]
    fn scratch_variants_bit_identical_across_reuse() {
        let graphs = [star(6), bowtie(), star(1), DiGraph::<(), ()>::new()];
        let mut scratch = AlgoScratch::new();
        for g in &graphs {
            let view = GraphView::of(g);
            assert_eq!(
                paths::diameter_view_scratch(&view, &mut scratch),
                paths::diameter_view(&view),
            );
            assert_eq!(
                paths::avg_nodes_within_distance_view_scratch(&view, 2, &mut scratch)
                    .to_bits(),
                paths::avg_nodes_within_distance_view(&view, 2).to_bits(),
            );
            assert_eq!(
                centrality::closeness_centrality_mean_scratch(&view, &mut scratch).to_bits(),
                mean(&centrality::closeness_centrality_view(&view)).to_bits(),
            );
            let (b, l) = centrality::betweenness_and_load_means_scratch(&view, &mut scratch);
            let (bv, lv) = centrality::betweenness_and_load_view(&view);
            assert_eq!(b.to_bits(), mean(&bv).to_bits());
            assert_eq!(l.to_bits(), mean(&lv).to_bits());
            assert_eq!(
                connectivity::average_node_connectivity_view_scratch(&view, &mut scratch)
                    .to_bits(),
                connectivity::average_node_connectivity_view(&view).to_bits(),
            );
            assert_eq!(
                clustering::clustering_coefficient_mean_view(&view).to_bits(),
                mean(&clustering::clustering_coefficients_view(&view)).to_bits(),
            );
            assert_eq!(
                clustering::neighbor_degree_mean_view(&view).to_bits(),
                mean(&clustering::neighbor_degrees_view(&view)).to_bits(),
            );
            let (d, t, i) = (
                pagerank::DEFAULT_DAMPING,
                pagerank::DEFAULT_TOL,
                pagerank::DEFAULT_MAX_ITER,
            );
            assert_eq!(
                pagerank::pagerank_mean_scratch(&view, d, t, i, &mut scratch).to_bits(),
                mean(&pagerank::pagerank_view(&view, d, t, i)).to_bits(),
            );
        }
    }

    /// The pair-sampling path (n > limit) must match the allocating
    /// `step_by` sampler.
    #[test]
    fn sampled_connectivity_matches_allocating_sampler() {
        let mut g = DiGraph::new();
        let n: Vec<_> = (0..12).map(|_| g.add_node(())).collect();
        for i in 0..12 {
            g.add_edge(n[i], n[(i + 1) % 12], ());
        }
        let adj = g.undirected_adjacency();
        let mut scratch = AlgoScratch::new();
        for s in 0..12 {
            for t in (s + 1)..12 {
                assert_eq!(
                    connectivity::local_node_connectivity_scratch(&adj, s, t, &mut scratch),
                    connectivity::local_node_connectivity(&adj, s, t),
                );
            }
        }
    }
}
