//! Everything a run feeds the program, made from the seed alone: the
//! graph, the pair streams, the update batches — and the BFS oracle the
//! answers are checked against.

use crate::frozen;
use crate::{BenchError, Result};
use pll_graph::gen::rng::Xoshiro256pp;
use pll_graph::traversal::bfs::BfsEngine;
use pll_graph::CsrGraph;
use std::collections::HashSet;

/// A vertex pair.
pub type Pair = (u32, u32);

/// An independent generator per input kind, so adding draws to one input
/// never shifts another.
fn rng(seed: u64, stream: u64) -> Xoshiro256pp {
    Xoshiro256pp::seed_from_u64(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// The one input graph: the repo's social-network stand-in, without its
/// trailing isolated vertices — a SNAP edge list carries no vertex count,
/// so `pll build` sizes the index by the largest id that has an edge, and
/// the pairs drawn here must stay inside that.
pub fn graph(n: usize, seed: u64) -> Result<CsrGraph> {
    let err = |e| BenchError::Input(format!("chung_lu(n={n}, seed={seed}): {e}"));
    let g = pll_graph::gen::chung_lu(n, frozen::GRAPH_GAMMA, frozen::GRAPH_AVG_DEGREE, seed)
        .map_err(err)?;
    let used = (0..g.num_vertices())
        .rposition(|v| g.degree(v as u32) > 0)
        .map_or(0, |v| v + 1);
    if used == g.num_vertices() {
        return Ok(g);
    }
    let edges: Vec<Pair> = g.edges().collect();
    CsrGraph::from_edges(used, &edges).map_err(err)
}

/// `count` distinct uniform pairs with `s != t`.
pub fn distinct_pairs(n: usize, count: usize, seed: u64, stream: u64) -> Vec<Pair> {
    let mut rng = rng(seed, stream);
    let mut seen = HashSet::with_capacity(count * 2);
    let mut pairs = Vec::with_capacity(count);
    while pairs.len() < count {
        let s = rng.next_index(n) as u32;
        let t = rng.next_index(n) as u32;
        if s != t && seen.insert((s, t)) {
            pairs.push((s, t));
        }
    }
    pairs
}

/// `len` indices into a pool of `pool` items, item `i` drawn with
/// probability ∝ 1/(i+1)^theta.
pub fn zipf_indices(pool: usize, theta: f64, len: usize, seed: u64, stream: u64) -> Vec<u32> {
    let mut cdf = Vec::with_capacity(pool);
    let mut acc = 0.0f64;
    for i in 0..pool {
        acc += 1.0 / ((i + 1) as f64).powf(theta);
        cdf.push(acc);
    }
    let mut rng = rng(seed, stream);
    (0..len)
        .map(|_| {
            let x = rng.next_f64() * acc;
            cdf.partition_point(|&c| c <= x).min(pool - 1) as u32
        })
        .collect()
}

/// `batches` batches of `per_batch` edges that are not in `g`, not loops
/// and not repeated: one endpoint uniform, the other degree-proportional
/// (an endpoint of a uniformly drawn existing edge), the way new links
/// attach in a social graph.
pub fn update_batches(
    g: &CsrGraph,
    batches: usize,
    per_batch: usize,
    seed: u64,
    stream: u64,
) -> Result<Vec<Vec<Pair>>> {
    let n = g.num_vertices();
    let (_, targets) = g.as_parts();
    if n < 2 || targets.is_empty() {
        return Err(BenchError::Input("graph too small for updates".into()));
    }
    let mut rng = rng(seed, stream);
    let mut chosen: HashSet<Pair> = HashSet::with_capacity(batches * per_batch * 2);
    let mut out = Vec::with_capacity(batches);
    for _ in 0..batches {
        let mut batch = Vec::with_capacity(per_batch);
        while batch.len() < per_batch {
            let u = rng.next_index(n) as u32;
            // A uniform slot of the adjacency array is an endpoint drawn
            // in proportion to its degree.
            let v = targets[rng.next_index(targets.len())];
            let key = (u.min(v), u.max(v));
            if u != v && !g.has_edge(u, v) && chosen.insert(key) {
                batch.push((u, v));
            }
        }
        out.push(batch);
    }
    Ok(out)
}

/// `g` plus `extra` edges (the graph after the acked updates).
pub fn with_edges(g: &CsrGraph, extra: &[Pair]) -> Result<CsrGraph> {
    let mut edges: Vec<Pair> = g.edges().collect();
    edges.extend_from_slice(extra);
    CsrGraph::from_edges(g.num_vertices(), &edges)
        .map_err(|e| BenchError::Input(format!("graph ∪ acked edges: {e}")))
}

/// Checks `answer(s, t)` against BFS for `sources` seeded sources ×
/// `targets_per_source` targets each (`None` = every vertex). Returns
/// `(checked, mismatches)`; the first few mismatches are described in
/// `examples`.
pub fn check_against_bfs(
    g: &CsrGraph,
    sources: usize,
    targets_per_source: Option<usize>,
    seed: u64,
    stream: u64,
    examples: &mut Vec<String>,
    mut answer: impl FnMut(&[Pair]) -> Result<Vec<Option<u64>>>,
) -> Result<(u64, u64)> {
    let n = g.num_vertices();
    let mut rng = rng(seed, stream);
    let mut bfs = BfsEngine::new(n);
    let (mut checked, mut wrong) = (0u64, 0u64);
    for _ in 0..sources {
        let s = rng.next_index(n) as u32;
        let targets: Vec<u32> = match targets_per_source {
            None => (0..n as u32).collect(),
            Some(k) => (0..k).map(|_| rng.next_index(n) as u32).collect(),
        };
        let pairs: Vec<Pair> = targets.iter().map(|&t| (s, t)).collect();
        let got = answer(&pairs)?;
        let truth = bfs.run(g, s);
        for (&(s, t), got) in pairs.iter().zip(got) {
            let want = Some(truth[t as usize])
                .filter(|&d| d != pll_graph::INF_U32)
                .map(u64::from);
            checked += 1;
            if got != want {
                wrong += 1;
                if examples.len() < 5 {
                    examples.push(format!("d({s},{t}) = {got:?}, BFS says {want:?}"));
                }
            }
        }
    }
    Ok((checked, wrong))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_repeat_for_a_seed_and_differ_across_seeds() {
        assert_eq!(distinct_pairs(100, 50, 3, 1), distinct_pairs(100, 50, 3, 1));
        assert_ne!(distinct_pairs(100, 50, 3, 1), distinct_pairs(100, 50, 4, 1));
        assert_ne!(distinct_pairs(100, 50, 3, 1), distinct_pairs(100, 50, 3, 2));
        let z = zipf_indices(1000, 0.99, 10_000, 3, 1);
        assert_eq!(z, zipf_indices(1000, 0.99, 10_000, 3, 1));
        let head = z.iter().filter(|&&i| i < 10).count();
        assert!(head > 2_000, "Zipf head too light: {head} of 10000");
    }

    #[test]
    fn update_edges_are_new_and_distinct() {
        let g = graph(500, 1).unwrap();
        let batches = update_batches(&g, 10, 16, 1, 9).unwrap();
        let all: Vec<Pair> = batches.concat();
        assert_eq!(all.len(), 160);
        assert!(all.iter().all(|&(u, v)| u != v && !g.has_edge(u, v)));
        let grown = with_edges(&g, &all).unwrap();
        assert_eq!(grown.num_edges(), g.num_edges() + 160);
    }

    #[test]
    fn oracle_counts_wrong_answers() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2)]).unwrap();
        let mut examples = Vec::new();
        let (checked, wrong) = check_against_bfs(&g, 3, None, 1, 1, &mut examples, |pairs| {
            Ok(pairs.iter().map(|_| Some(1)).collect())
        })
        .unwrap();
        assert_eq!(checked, 12);
        assert!(wrong >= 6, "constant answers must mostly be wrong");
        assert!(!examples.is_empty());
    }
}
