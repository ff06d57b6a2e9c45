//! Weighted pruned landmark labeling via pruned Dijkstra (§6, "Weighted
//! Graphs").
//!
//! "The only necessary change is to perform pruned Dijkstra's algorithm
//! instead of pruned BFSs. Bit-parallel labeling cannot be used for weighted
//! graphs." Distances are 32-bit in labels (accumulated in 64-bit during
//! search); the pruning test runs at *settle* time, when a vertex's distance
//! from the root is final.
//!
//! The pruned Dijkstra runs through the driver of [`crate::par`] at every
//! thread count, written once and generic over where its label entries
//! go. At [`WeightedIndexBuilder::threads`]`(1)` each root's search
//! appends straight to the labels, checking the `u32` label width as it
//! appends. At `k > 1` threads, batches of roots run relaxed searches
//! concurrently (thread-local binary heap, lazily-reset 64-bit `dist`
//! scratch), and the batch barrier commits entries in rank order with the
//! same-batch re-prune; the width check runs there, on exactly the entries
//! that are labeled — so the index is byte-identical at every thread
//! count *including* its error behaviour; see [`crate::par`].

use crate::error::{PllError, Result};
use crate::order::OrderingStrategy;
use crate::par::{
    commit_entries, resolve_threads, run_batched, Buffer, DijkstraScratch, InPlace, LabelSink,
    LabelVecs, PrunedSearch, RootCommit,
};
use crate::stats::ConstructionStats;
use crate::storage::{LabelStorage, OwnedLabels, SectionSlice, ViewLabels};
use crate::types::{Rank, Vertex, WDist, RANK_SENTINEL};
use pll_graph::reorder::inverse_permutation;
use pll_graph::wgraph::WeightedGraph;
use pll_graph::{Xoshiro256pp, INF_U64};
use std::cmp::Reverse;
use std::time::Instant;

/// Configures construction of a [`WeightedPllIndex`].
#[derive(Clone, Debug)]
pub struct WeightedIndexBuilder {
    ordering: OrderingStrategy,
    seed: u64,
    threads: usize,
}

impl Default for WeightedIndexBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl WeightedIndexBuilder {
    /// Default configuration: Degree ordering.
    pub fn new() -> Self {
        WeightedIndexBuilder {
            ordering: OrderingStrategy::Degree,
            seed: 0x5EED_1A5E,
            threads: 1,
        }
    }

    /// Sets the number of worker threads for construction (see
    /// [`crate::par`]): `1` (default) runs every pruned Dijkstra on the
    /// calling thread in rank order, `k > 1` runs batches of them
    /// concurrently on `k` threads with a byte-identical index (including
    /// [`PllError::WeightedDistanceOverflow`] behaviour: the `u32` label
    /// check runs on exactly the entries that are labeled), and `0`
    /// auto-detects one thread per CPU. The Degree ordering and the label
    /// flatten ride the same knob, output-identically at any thread count.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the ordering strategy (`Degree`, `Random` or `Custom`;
    /// `Closeness` is unsupported for weighted graphs).
    pub fn ordering(mut self, strategy: OrderingStrategy) -> Self {
        self.ordering = strategy;
        self
    }

    /// Seed for the Random ordering.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    fn compute_order(&self, g: &WeightedGraph, threads: usize) -> Result<Vec<Vertex>> {
        let n = g.num_vertices();
        match &self.ordering {
            OrderingStrategy::Degree => Ok(crate::order::order_by_key_desc(n, threads, |v| {
                g.degree(v) as u64
            })),
            OrderingStrategy::Random => {
                let mut order: Vec<Vertex> = (0..n as Vertex).collect();
                Xoshiro256pp::seed_from_u64(self.seed).shuffle(&mut order);
                Ok(order)
            }
            OrderingStrategy::Custom(order) => {
                if order.len() != n {
                    return Err(PllError::InvalidOrder {
                        message: format!("order has {} entries for {} vertices", order.len(), n),
                    });
                }
                let mut seen = vec![false; n];
                for &v in order {
                    if (v as usize) >= n || seen[v as usize] {
                        return Err(PllError::InvalidOrder {
                            message: format!("order entry {v} repeated or out of range"),
                        });
                    }
                    seen[v as usize] = true;
                }
                Ok(order.clone())
            }
            OrderingStrategy::Closeness { .. } | OrderingStrategy::Degeneracy => {
                Err(PllError::IncompatibleOptions {
                    message: format!(
                        "{} ordering is not supported for weighted indices",
                        self.ordering.name()
                    ),
                })
            }
        }
    }

    /// Builds the weighted index with pruned Dijkstra searches.
    pub fn build(&self, g: &WeightedGraph) -> Result<WeightedPllIndex> {
        let n = g.num_vertices();
        let threads = resolve_threads(self.threads);
        let t0 = Instant::now();
        let order = self.compute_order(g, threads)?;
        let order_seconds = t0.elapsed().as_secs_f64();
        let tr = Instant::now();
        let inv = inverse_permutation(&order);
        // Relabel into rank space (sequential: the edge translation
        // streams through `from_edges`, which owns the CSR scatter).
        let rank_edges: Vec<(Vertex, Vertex, u32)> = g
            .edges()
            .map(|(u, v, w)| (inv[u as usize], inv[v as usize], w))
            .collect();
        let h = WeightedGraph::from_edges(n, &rank_edges)?;
        let relabel_seconds = tr.elapsed().as_secs_f64();

        let t1 = Instant::now();
        let mut stats = ConstructionStats {
            order_seconds,
            relabel_seconds,
            threads,
            ..Default::default()
        };
        let mut labels = LabelVecs::new(n);
        let roots: Vec<Rank> = (0..n as Rank).collect();
        let search = WeightedSearch { h: &h };
        run_batched(
            &search,
            &mut labels,
            &roots,
            threads,
            &mut stats,
            None,
            |_, _, _| Ok(()),
        )?;
        stats.pruned_seconds = t1.elapsed().as_secs_f64();

        let tf = Instant::now();
        let (offsets, ranks, dists) = flatten_weighted(&labels.ranks, &labels.dists, threads)?;
        stats.flatten_seconds = tf.elapsed().as_secs_f64();
        Ok(WeightedPllIndex {
            order,
            inv,
            labels: OwnedLabels {
                offsets,
                ranks,
                dists,
                parents: None,
            },
            stats,
        })
    }
}

/// Flattens per-vertex weighted labels into the sentinel-terminated arena
/// layout (§4.5 "Sentinel"), shared by both weighted variants. Offsets are a
/// checked `u64` prefix sum and the label chunks are copied from `threads`
/// scoped workers over disjoint arena slices, so the result is identical
/// at any thread count.
///
/// # Errors
///
/// Returns [`PllError::TooLarge`] when the arena (sentinels included)
/// would exceed `u32::MAX` entries.
pub(crate) fn flatten_weighted(
    label_ranks: &[Vec<Rank>],
    label_dists: &[Vec<WDist>],
    threads: usize,
) -> Result<(Vec<u32>, Vec<Rank>, Vec<WDist>)> {
    let offsets = crate::label::checked_offsets(label_ranks.iter().map(Vec::len))?;
    let total = *offsets.last().unwrap() as usize;
    let mut ranks = vec![0 as Rank; total];
    let mut dists = vec![0 as WDist; total];
    crate::label::scatter_with_sentinel(label_ranks, RANK_SENTINEL, &offsets, &mut ranks, threads);
    crate::label::scatter_with_sentinel(label_dists, WDist::MAX, &offsets, &mut dists, threads);
    Ok((offsets, ranks, dists))
}

/// The `u32` label check of the weighted variants, run as an entry is
/// appended to a label — by the in-place search as it settles the vertex,
/// and at commit on the buffered entries that survive the re-prune. Both
/// are exactly the labeled entries, so
/// [`PllError::WeightedDistanceOverflow`] fires on the same input at
/// every thread count.
pub(crate) fn check_label_overflow(d: u64) -> Result<WDist> {
    if d > WDist::MAX as u64 - 1 {
        return Err(PllError::WeightedDistanceOverflow);
    }
    Ok(d as WDist)
}

/// Buffered output of one relaxed pruned Dijkstra: `(vertex, distance)`
/// candidates in settle order (distances still in 64-bit scratch space;
/// the `u32` check happens at commit, on entries that survive the
/// re-prune).
struct WeightedRun {
    entries: Vec<(Rank, u64)>,
    visited: u32,
    pruned: u32,
}

/// The weighted [`PrunedSearch`]: one pruned Dijkstra per root, pruning
/// at settle time against the labels.
struct WeightedSearch<'g> {
    h: &'g WeightedGraph,
}

impl PrunedSearch for WeightedSearch<'_> {
    type State = LabelVecs<WDist>;
    type Scratch = DijkstraScratch;
    type Run = WeightedRun;

    fn new_scratch(&self) -> DijkstraScratch {
        DijkstraScratch::new(self.h.num_vertices())
    }

    fn search_in_place(
        &self,
        labels: &mut LabelVecs<WDist>,
        r: Rank,
        ws: &mut DijkstraScratch,
    ) -> Result<RootCommit> {
        let mut sink = InPlace::new(r, labels);
        let (visited, pruned) = pruned_dijkstra(self.h, r, ws, &mut sink)?;
        Ok(RootCommit::new(r, visited, pruned, 0))
    }

    fn search(
        &self,
        labels: &LabelVecs<WDist>,
        r: Rank,
        ws: &mut DijkstraScratch,
    ) -> Result<WeightedRun> {
        let mut sink = Buffer::new(labels);
        let (visited, pruned) = pruned_dijkstra(self.h, r, ws, &mut sink)?;
        Ok(WeightedRun {
            entries: sink.entries,
            visited,
            pruned,
        })
    }

    fn commit(
        &self,
        labels: &mut LabelVecs<WDist>,
        batch_first: Rank,
        r: Rank,
        run: WeightedRun,
    ) -> Result<RootCommit> {
        let mut repruned = 0u32;
        let mut sink = InPlace::new(r, labels);
        commit_entries(&run.entries, &mut sink, None, batch_first, &mut repruned)?;
        Ok(RootCommit::new(r, run.visited, run.pruned, repruned))
    }
}

/// The pruned Dijkstra from `r`, returning its `(visited, pruned)` counts.
/// The prune test runs at settle time, when the distance from the root is
/// final, against the temp array of `L(r)` (§4.5 "Querying"); labels are
/// read and written through `sink`. The scratch is reset lazily — also on
/// the error path, since it is reused for the next root.
fn pruned_dijkstra<K: LabelSink<WDist, u64>>(
    h: &WeightedGraph,
    r: Rank,
    ws: &mut DijkstraScratch,
    sink: &mut K,
) -> Result<(u32, u32)> {
    let (lr, ld) = sink.label(r);
    for (&w, &d) in lr.iter().zip(ld) {
        ws.temp[w as usize] = d as u64;
    }
    ws.heap.clear();
    ws.touched.clear();
    ws.tentative[r as usize] = 0;
    ws.touched.push(r);
    ws.heap.push(Reverse((0, r)));
    let mut visited = 0u32;
    let mut pruned = 0u32;
    let mut outcome = Ok(());

    while let Some(Reverse((d, u))) = ws.heap.pop() {
        if d > ws.tentative[u as usize] {
            continue; // stale heap entry
        }
        visited += 1;

        let (ur, ud) = sink.label(u);
        let prune = ur.iter().zip(ud).any(|(&w, &dw)| {
            let tw = ws.temp[w as usize];
            tw != INF_U64 && tw + dw as u64 <= d
        });
        if prune {
            pruned += 1;
            continue;
        }
        if let Err(e) = sink.emit(u, d) {
            outcome = Err(e);
            break;
        }

        for (w, wt) in h.neighbors(u) {
            let nd = d + wt as u64;
            if nd < ws.tentative[w as usize] {
                if ws.tentative[w as usize] == INF_U64 {
                    ws.touched.push(w);
                }
                ws.tentative[w as usize] = nd;
                ws.heap.push(Reverse((nd, w)));
            }
        }
    }
    for &v in &ws.touched {
        ws.tentative[v as usize] = INF_U64;
    }
    for &w in sink.label(r).0 {
        ws.temp[w as usize] = INF_U64;
    }
    outcome.map(|()| (visited, pruned))
}

/// An exact distance index over a positively-weighted undirected graph.
///
/// Generic over its [`LabelStorage`] backend (`u32` distances), like
/// [`crate::PllIndex`]: the default owns its arenas,
/// [`WeightedPllIndexView`] runs the same merge-join zero-copy over a v2
/// index buffer.
#[derive(Clone, Debug)]
pub struct WeightedPllIndex<O = Vec<Vertex>, S = OwnedLabels<WDist>> {
    order: O,
    inv: O,
    labels: S,
    stats: ConstructionStats,
}

/// Zero-copy [`WeightedPllIndex`] over a v2 index buffer.
pub type WeightedPllIndexView = WeightedPllIndex<SectionSlice<u32>, ViewLabels<WDist>>;

impl<O, S> WeightedPllIndex<O, S>
where
    O: AsRef<[u32]>,
    S: LabelStorage<Dist = WDist>,
{
    /// Assembles an index from any backend (inputs pre-validated).
    pub(crate) fn assemble(order: O, inv: O, labels: S, stats: ConstructionStats) -> Self {
        WeightedPllIndex {
            order,
            inv,
            labels,
            stats,
        }
    }

    /// Number of indexed vertices.
    pub fn num_vertices(&self) -> usize {
        self.order.as_ref().len()
    }

    #[inline]
    fn label(&self, v: Rank) -> (&[Rank], &[WDist]) {
        let offsets = self.labels.offsets();
        let s = offsets[v as usize] as usize;
        let e = offsets[v as usize + 1] as usize;
        (&self.labels.ranks()[s..e], &self.labels.dists()[s..e])
    }

    /// Exact weighted distance between `u` and `v`; `None` when
    /// disconnected.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range.
    pub fn distance(&self, u: Vertex, v: Vertex) -> Option<u64> {
        assert!(
            (u as usize) < self.num_vertices(),
            "vertex {u} out of range"
        );
        assert!(
            (v as usize) < self.num_vertices(),
            "vertex {v} out of range"
        );
        if u == v {
            return Some(0);
        }
        let (ar, ad) = self.label(self.inv.as_ref()[u as usize]);
        let (br, bd) = self.label(self.inv.as_ref()[v as usize]);
        let best = crate::label::merge_query_weighted(ar, ad, br, bd);
        (best != u64::MAX).then_some(best)
    }

    /// Hints the CPU to pull both endpoints' label slices toward cache
    /// ahead of a [`WeightedPllIndex::distance`] call for the same
    /// pair. Advisory: out-of-range vertices are ignored.
    pub fn prefetch_query(&self, u: Vertex, v: Vertex) {
        let n = self.num_vertices();
        for x in [u, v] {
            if (x as usize) < n {
                let (r, d) = self.label(self.inv.as_ref()[x as usize]);
                crate::kernel::prefetch_read(r);
                crate::kernel::prefetch_read(d);
            }
        }
    }

    /// Checked variant of [`WeightedPllIndex::distance`].
    pub fn try_distance(&self, u: Vertex, v: Vertex) -> Result<Option<u64>> {
        let n = self.num_vertices();
        for x in [u, v] {
            if x as usize >= n {
                return Err(PllError::VertexOutOfRange {
                    vertex: x,
                    num_vertices: n,
                });
            }
        }
        Ok(self.distance(u, v))
    }

    /// Average label entries per vertex.
    pub fn avg_label_size(&self) -> f64 {
        if self.num_vertices() == 0 {
            0.0
        } else {
            (self.labels.ranks().len() - self.num_vertices()) as f64 / self.num_vertices() as f64
        }
    }

    /// Construction statistics.
    pub fn stats(&self) -> &ConstructionStats {
        &self.stats
    }

    /// Total index bytes.
    pub fn memory_bytes(&self) -> usize {
        self.labels.memory_bytes() + self.order.as_ref().len() * 8
    }
}

impl WeightedPllIndex {
    /// Raw parts for serialisation:
    /// `(order, inv, offsets, ranks, dists)`.
    #[allow(clippy::type_complexity)]
    pub(crate) fn as_raw(&self) -> (&[Vertex], &[Rank], &[u32], &[Rank], &[WDist]) {
        (
            &self.order,
            &self.inv,
            self.labels.offsets(),
            self.labels.ranks(),
            self.labels.dists(),
        )
    }

    /// Reassembles from raw parts (deserialisation; inputs pre-validated).
    pub(crate) fn from_raw(
        order: Vec<Vertex>,
        inv: Vec<Rank>,
        offsets: Vec<u32>,
        ranks: Vec<Rank>,
        dists: Vec<WDist>,
    ) -> Self {
        WeightedPllIndex {
            order,
            inv,
            labels: OwnedLabels {
                offsets,
                ranks,
                dists,
                parents: None,
            },
            stats: ConstructionStats::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pll_graph::traversal::dijkstra;
    use pll_graph::{gen, CsrGraph};

    fn random_weighted(n: usize, m: usize, max_w: u32, seed: u64) -> WeightedGraph {
        let g = gen::erdos_renyi_gnm(n, m, seed).unwrap();
        let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 0xABCD);
        let edges: Vec<(Vertex, Vertex, u32)> = g
            .edges()
            .map(|(u, v)| (u, v, rng.next_below(max_w as u64) as u32 + 1))
            .collect();
        WeightedGraph::from_edges(n, &edges).unwrap()
    }

    fn check_exact(g: &WeightedGraph, builder: &WeightedIndexBuilder) {
        let idx = builder.build(g).unwrap();
        let n = g.num_vertices() as Vertex;
        for s in 0..n {
            let d = dijkstra::distances(g, s);
            for t in 0..n {
                let expect = (d[t as usize] != INF_U64).then_some(d[t as usize]);
                assert_eq!(idx.distance(s, t), expect, "pair ({s}, {t})");
            }
        }
    }

    #[test]
    fn exact_on_weighted_triangle() {
        let g = WeightedGraph::from_edges(3, &[(0, 1, 1), (1, 2, 1), (0, 2, 5)]).unwrap();
        let idx = WeightedIndexBuilder::new().build(&g).unwrap();
        assert_eq!(idx.distance(0, 2), Some(2)); // via vertex 1, not the direct edge
        check_exact(&g, &WeightedIndexBuilder::new());
    }

    #[test]
    fn exact_on_random_weighted_graphs() {
        for seed in [1, 5, 9] {
            let g = random_weighted(50, 150, 20, seed);
            check_exact(&g, &WeightedIndexBuilder::new());
            check_exact(
                &g,
                &WeightedIndexBuilder::new()
                    .ordering(OrderingStrategy::Random)
                    .seed(seed),
            );
        }
    }

    #[test]
    fn parallel_equals_sequential_weighted() {
        for seed in [2u64, 6, 13] {
            let g = random_weighted(120, 360, 16, seed);
            for builder in [
                WeightedIndexBuilder::new(),
                WeightedIndexBuilder::new()
                    .ordering(OrderingStrategy::Random)
                    .seed(seed),
            ] {
                let seq = builder.clone().threads(1).build(&g).unwrap();
                for k in [2usize, 3, 4, 8] {
                    let par = builder.clone().threads(k).build(&g).unwrap();
                    assert_eq!(
                        seq.as_raw(),
                        par.as_raw(),
                        "weighted label arena diverged at threads={k}, seed={seed}"
                    );
                    assert_eq!(par.stats().threads, k);
                    assert!(par.stats().parallel_batches > 0);
                    assert_eq!(par.stats().total_labeled, seq.stats().total_labeled);
                }
            }
        }
    }

    #[test]
    fn parallel_weighted_is_exact() {
        let g = random_weighted(60, 180, 12, 3);
        check_exact(&g, &WeightedIndexBuilder::new().threads(4));
    }

    #[test]
    fn parallel_overflow_detected_like_sequential() {
        let g =
            WeightedGraph::from_edges(3, &[(0, 1, u32::MAX - 1), (1, 2, u32::MAX - 1)]).unwrap();
        let err = WeightedIndexBuilder::new()
            .ordering(OrderingStrategy::Custom(vec![0, 1, 2]))
            .threads(4)
            .build(&g)
            .unwrap_err();
        assert!(matches!(err, PllError::WeightedDistanceOverflow));
    }

    #[test]
    fn unit_weights_match_unweighted_semantics() {
        let base = gen::barabasi_albert(80, 2, 4).unwrap();
        let g = WeightedGraph::from_unweighted(&base);
        check_exact(&g, &WeightedIndexBuilder::new());
    }

    #[test]
    fn disconnected_weighted() {
        let g = WeightedGraph::from_edges(4, &[(0, 1, 3), (2, 3, 4)]).unwrap();
        let idx = WeightedIndexBuilder::new().build(&g).unwrap();
        assert_eq!(idx.distance(0, 3), None);
        assert_eq!(idx.distance(2, 3), Some(4));
    }

    #[test]
    fn large_weights_handled_via_u64_accumulation() {
        let g =
            WeightedGraph::from_edges(3, &[(0, 1, u32::MAX - 1), (1, 2, u32::MAX - 1)]).unwrap();
        // Degree order roots the middle vertex first, so every label stays
        // within u32 and the (u64) query sums correctly.
        let idx = WeightedIndexBuilder::new().build(&g).unwrap();
        assert_eq!(idx.distance(0, 2), Some(2 * (u32::MAX as u64 - 1)));

        // A custom order rooted at an endpoint must *label* vertex 2 at a
        // distance exceeding the u32 representation: that is an error, not a
        // silent wrap.
        let err = WeightedIndexBuilder::new()
            .ordering(OrderingStrategy::Custom(vec![0, 1, 2]))
            .build(&g)
            .unwrap_err();
        assert!(matches!(err, PllError::WeightedDistanceOverflow));
    }

    #[test]
    fn closeness_rejected_and_custom_validated() {
        let g = random_weighted(10, 20, 5, 2);
        assert!(matches!(
            WeightedIndexBuilder::new()
                .ordering(OrderingStrategy::Closeness { samples: 2 })
                .build(&g),
            Err(PllError::IncompatibleOptions { .. })
        ));
        assert!(matches!(
            WeightedIndexBuilder::new()
                .ordering(OrderingStrategy::Custom(vec![0, 0, 1]))
                .build(&g),
            Err(PllError::InvalidOrder { .. })
        ));
    }

    #[test]
    fn try_distance_and_stats() {
        let g = random_weighted(30, 60, 10, 7);
        let idx = WeightedIndexBuilder::new().build(&g).unwrap();
        assert!(idx.try_distance(0, 29).is_ok());
        assert!(matches!(
            idx.try_distance(0, 31),
            Err(PllError::VertexOutOfRange { .. })
        ));
        assert!(idx.avg_label_size() > 0.0);
        assert!(idx.memory_bytes() > 0);
        assert_eq!(idx.stats().pruned_roots, 30);
    }

    #[test]
    fn high_diameter_graph_is_fine_weighted() {
        // The u8 limit of the unweighted index does not apply here.
        let base = gen::path(1000).unwrap();
        let g = WeightedGraph::from_unweighted(&base);
        let idx = WeightedIndexBuilder::new().build(&g).unwrap();
        assert_eq!(idx.distance(0, 999), Some(999));
    }

    #[test]
    fn empty_weighted_graph() {
        let g = WeightedGraph::from_unweighted(&CsrGraph::empty(0));
        let idx = WeightedIndexBuilder::new().build(&g).unwrap();
        assert_eq!(idx.num_vertices(), 0);
    }
}
