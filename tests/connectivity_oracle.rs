//! Average node connectivity (feature f20) against a plain reference.
//!
//! The production kernel short-cuts pairs whose connectivity the degree
//! bound and the component labels already decide, stops Edmonds–Karp
//! once the flow reaches min(deg s, deg t), and lays the residual graph
//! out once per graph. The reference below does none of that: it
//! rebuilds the vertex-split residual graph for every pair and runs
//! Edmonds–Karp until no augmenting path is left, over a pair list
//! sampled with `step_by`. The two must agree on every pair and, as
//! `f64` bits, on every mean.

use proptest::collection::vec;
use proptest::prelude::*;

use dynaminer::wcg::Wcg;
use wcgraph::algo::connectivity::{
    average_node_connectivity_view_scratch, average_node_connectivity_with_limit,
    local_node_connectivity,
};
use wcgraph::algo::AlgoScratch;
use wcgraph::view::GraphView;
use wcgraph::DiGraph;

/// Pair-sampling threshold of the feature (f20).
const SAMPLE_LIMIT: usize = 64;

/// Unit-capacity max-flow from `s_out` to `t_in` on the vertex-split
/// digraph, rebuilt from scratch, run until no augmenting path is left.
fn reference_local(adj: &[Vec<usize>], s: usize, t: usize) -> usize {
    let n = adj.len();
    // (head, capacity, reverse index) rows; v_in = 2v, v_out = 2v + 1.
    let mut graph: Vec<Vec<(usize, i32, usize)>> = vec![Vec::new(); 2 * n];
    let mut add = |u: usize, v: usize, cap: i32| {
        let (ru, rv) = (graph[u].len(), graph[v].len());
        graph[u].push((v, cap, rv));
        graph[v].push((u, 0, ru));
    };
    for v in 0..n {
        let cap = if v == s || v == t { i32::MAX / 2 } else { 1 };
        add(2 * v, 2 * v + 1, cap);
    }
    for (u, neighbors) in adj.iter().enumerate() {
        for &v in neighbors {
            if u < v {
                add(2 * u + 1, 2 * v, 1);
                add(2 * v + 1, 2 * u, 1);
            }
        }
    }
    let (source, sink) = (2 * s + 1, 2 * t);
    let mut flow = 0;
    loop {
        let mut parent: Vec<Option<(usize, usize)>> = vec![None; 2 * n];
        parent[source] = Some((source, usize::MAX));
        let mut queue = std::collections::VecDeque::from([source]);
        while let Some(u) = queue.pop_front() {
            for (i, &(v, cap, _)) in graph[u].iter().enumerate() {
                if cap > 0 && parent[v].is_none() {
                    parent[v] = Some((u, i));
                    queue.push_back(v);
                }
            }
        }
        if parent[sink].is_none() {
            return flow;
        }
        let mut v = sink;
        while v != source {
            let (u, i) = parent[v].expect("on the path");
            graph[u][i].1 -= 1;
            let rev = graph[u][i].2;
            graph[v][rev].1 += 1;
            v = u;
        }
        flow += 1;
    }
}

fn reference_average(adj: &[Vec<usize>], sample_limit: usize) -> f64 {
    let n = adj.len();
    if n < 2 {
        return 0.0;
    }
    let all: Vec<(usize, usize)> =
        (0..n).flat_map(|s| ((s + 1)..n).map(move |t| (s, t))).collect();
    let pairs: Vec<(usize, usize)> = if n > sample_limit {
        let target = sample_limit * (sample_limit - 1) / 2;
        all.iter().copied().step_by((all.len() / target).max(1)).collect()
    } else {
        all
    };
    let total: usize = pairs.iter().map(|&(s, t)| reference_local(adj, s, t)).sum();
    total as f64 / pairs.len() as f64
}

fn graph_of(n: usize, edges: &[(usize, usize)]) -> DiGraph<(), ()> {
    let mut g = DiGraph::new();
    let ids: Vec<_> = (0..n).map(|_| g.add_node(())).collect();
    for &(a, b) in edges {
        g.add_edge(ids[a % n], ids[b % n], ());
    }
    g
}

/// Random graphs of four shapes: sparse (mostly disconnected), dense
/// (most pairs adjacent, high connectivity), leaf-heavy (a random tree
/// plus a few chords), and larger than the sampling threshold.
fn arb_graph() -> impl Strategy<Value = DiGraph<(), ()>> {
    let sparse = (2usize..24)
        .prop_flat_map(|n| vec((0..n, 0..n), 0..n).prop_map(move |e| graph_of(n, &e)));
    let dense = (3usize..14)
        .prop_flat_map(|n| vec((0..n, 0..n), n * 2..n * n).prop_map(move |e| graph_of(n, &e)));
    let leafy = (3usize..40).prop_flat_map(|n| {
        (vec(0usize..1 << 16, n - 1), vec((0..n, 0..n), 0..4)).prop_map(move |(parents, chords)| {
            let mut edges: Vec<(usize, usize)> =
                parents.iter().enumerate().map(|(i, p)| (p % (i + 1), i + 1)).collect();
            edges.extend(chords);
            graph_of(n, &edges)
        })
    });
    let sampled = (SAMPLE_LIMIT + 1..SAMPLE_LIMIT + 30)
        .prop_flat_map(|n| vec((0..n, 0..n), n..n * 3).prop_map(move |e| graph_of(n, &e)));
    prop_oneof![sparse, dense, leafy, sampled]
}

proptest! {
    #[test]
    fn average_matches_reference_bit_for_bit(g in arb_graph()) {
        let adj = g.undirected_adjacency();
        let want = reference_average(&adj, SAMPLE_LIMIT);
        let got = average_node_connectivity_with_limit(&g, SAMPLE_LIMIT);
        prop_assert_eq!(got.to_bits(), want.to_bits(), "{} nodes: {} vs {}", adj.len(), got, want);
    }

    #[test]
    fn every_pair_matches_reference(g in arb_graph()) {
        let adj = g.undirected_adjacency();
        let n = adj.len().min(24);
        for s in 0..n {
            for t in (s + 1)..n {
                prop_assert_eq!(
                    local_node_connectivity(&adj, s, t),
                    reference_local(&adj, s, t),
                    "pair ({}, {})", s, t
                );
            }
        }
    }
}

/// Every WCG of two corpora at two seeds, through the scratch path the
/// feature extractor uses (one scratch reused across all graphs, so
/// buffers left by a larger graph are exercised too).
#[test]
fn every_corpus_wcg_matches_reference() {
    let mut scratch = AlgoScratch::new();
    let mut view = GraphView::new();
    let mut checked = 0usize;
    let mut sampled = 0usize;
    for seed in [1u64, 2] {
        let episodes = synthtraffic::wire::wire_episode_set(seed, 1056, 1344)
            .into_iter()
            .chain(synthtraffic::ground_truth(seed, 1.0));
        for episode in episodes {
            let wcg = Wcg::from_transactions(&episode.transactions);
            view.load(&wcg.graph);
            let got = average_node_connectivity_view_scratch(&view, &mut scratch);
            let adj = wcg.graph.undirected_adjacency();
            let want = reference_average(&adj, SAMPLE_LIMIT);
            assert_eq!(got.to_bits(), want.to_bits(), "seed {seed}: {got} vs {want}");
            checked += 1;
            sampled += usize::from(adj.len() > SAMPLE_LIMIT);
        }
    }
    assert!(checked > 8000, "{checked} WCGs");
    eprintln!("{checked} WCGs, {sampled} above the sampling threshold");
}
