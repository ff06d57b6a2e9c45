//! Weighted *and* directed pruned landmark labeling — the combined §6
//! variant ("directed and/or weighted graphs").
//!
//! Combines the two mechanics: IN/OUT label sides like the directed
//! variant, and pruned *Dijkstra* searches with 32-bit label distances
//! like the weighted variant. Per root, a forward pruned Dijkstra over
//! out-arcs computes `d(r, u)` and fills `L_IN(u)`; a backward pruned
//! Dijkstra over in-arcs computes `d(u, r)` and fills `L_OUT(u)`.
//!
//! Both searches of a root run through the driver of [`crate::par`] at
//! every thread count, written once and generic over where their label
//! entries go — the directed scheme (IN entries before OUT entries) with
//! the weighted one (64-bit lazily-reset `dist` scratch, the `u32` label
//! check as an entry is appended). At
//! [`WeightedDirectedIndexBuilder::threads`]`(1)` each root's pair appends
//! in place; at `k > 1` threads batches of roots run relaxed pairs
//! concurrently and commit them in rank order with the same-batch
//! re-prune. The result is byte-identical at every thread count; see
//! [`crate::par`].

use crate::error::{PllError, Result};
use crate::order::OrderingStrategy;
use crate::par::{
    commit_entries, resolve_threads, run_batched, Buffer, DijkstraScratch, InPlace, LabelSink,
    LabelVecs, PrunedSearch, RootCommit,
};
use crate::stats::ConstructionStats;
use crate::storage::{LabelStorage, OwnedLabels, SectionSlice, ViewLabels};
use crate::types::{Rank, Vertex, WDist};
use crate::weighted::flatten_weighted;
use pll_graph::reorder::inverse_permutation;
use pll_graph::wdigraph::WeightedDigraph;
use pll_graph::{Xoshiro256pp, INF_U64};
use std::cmp::Reverse;
use std::time::Instant;

/// Configures construction of a [`WeightedDirectedPllIndex`].
#[derive(Clone, Debug)]
pub struct WeightedDirectedIndexBuilder {
    ordering: OrderingStrategy,
    seed: u64,
    threads: usize,
}

impl Default for WeightedDirectedIndexBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl WeightedDirectedIndexBuilder {
    /// Default configuration: Degree ordering (total degree, in + out).
    pub fn new() -> Self {
        WeightedDirectedIndexBuilder {
            ordering: OrderingStrategy::Degree,
            seed: 0x5EED_1A5E,
            threads: 1,
        }
    }

    /// Sets the number of worker threads for construction (see
    /// [`crate::par`]): `1` (default) runs each root's forward/backward
    /// pruned Dijkstra pair on the calling thread in rank order, `k > 1`
    /// runs batches of those pairs concurrently on `k` threads with
    /// byte-identical output (including
    /// [`PllError::WeightedDistanceOverflow`] behaviour), and `0`
    /// auto-detects one thread per CPU. The Degree ordering and the label
    /// flatten ride the same knob, output-identically at any thread count.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the ordering strategy (`Degree`, `Random` or `Custom`).
    pub fn ordering(mut self, strategy: OrderingStrategy) -> Self {
        self.ordering = strategy;
        self
    }

    /// Seed for the Random ordering.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    fn compute_order(&self, g: &WeightedDigraph, threads: usize) -> Result<Vec<Vertex>> {
        let n = g.num_vertices();
        match &self.ordering {
            OrderingStrategy::Degree => Ok(crate::order::order_by_key_desc(n, threads, |v| {
                (g.out_degree(v) + g.in_degree(v)) as u64
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
            other => Err(PllError::IncompatibleOptions {
                message: format!(
                    "{} ordering is not supported for weighted directed indices",
                    other.name()
                ),
            }),
        }
    }

    /// Builds the index with two pruned Dijkstra searches per root.
    pub fn build(&self, g: &WeightedDigraph) -> Result<WeightedDirectedPllIndex> {
        let n = g.num_vertices();
        let threads = resolve_threads(self.threads);
        let t0 = Instant::now();
        let order = self.compute_order(g, threads)?;
        let order_seconds = t0.elapsed().as_secs_f64();
        let tr = Instant::now();
        let inv = inverse_permutation(&order);
        // Relabel arcs into rank space (sequential: the arc translation
        // streams through `from_edges`, which owns the CSR scatter).
        let rank_arcs: Vec<(Vertex, Vertex, u32)> = g
            .arcs()
            .map(|(u, v, w)| (inv[u as usize], inv[v as usize], w))
            .collect();
        let h = WeightedDigraph::from_edges(n, &rank_arcs)?;
        let relabel_seconds = tr.elapsed().as_secs_f64();

        let t1 = Instant::now();
        let mut stats = ConstructionStats {
            order_seconds,
            relabel_seconds,
            threads,
            ..Default::default()
        };
        let mut state = WeightedDirectedState {
            inn: LabelVecs::new(n),
            out: LabelVecs::new(n),
        };
        let roots: Vec<Rank> = (0..n as Rank).collect();
        let search = WeightedDirectedSearch { h: &h };
        run_batched(
            &search,
            &mut state,
            &roots,
            threads,
            &mut stats,
            None,
            |_, _, _| Ok(()),
        )?;
        stats.pruned_seconds = t1.elapsed().as_secs_f64();

        let tf = Instant::now();
        let side = |labels: &LabelVecs<WDist>| -> Result<OwnedLabels<WDist>> {
            let (offsets, ranks, dists) = flatten_weighted(&labels.ranks, &labels.dists, threads)?;
            Ok(OwnedLabels {
                offsets,
                ranks,
                dists,
                parents: None,
            })
        };
        let side_in = side(&state.inn)?;
        let side_out = side(&state.out)?;
        stats.flatten_seconds = tf.elapsed().as_secs_f64();
        Ok(WeightedDirectedPllIndex {
            order,
            inv,
            side_in,
            side_out,
            stats,
        })
    }
}

/// Two-sided label state of the weighted directed build.
struct WeightedDirectedState {
    /// `L_IN`: hubs `w` with `d(w → v)`, filled by forward searches.
    inn: LabelVecs<WDist>,
    /// `L_OUT`: hubs `w` with `d(v → w)`, filled by backward searches.
    out: LabelVecs<WDist>,
}

/// Buffered output of one root's forward/backward relaxed Dijkstra pair
/// (distances still in 64-bit scratch space until the commit-time `u32`
/// check).
struct WeightedDirectedRun {
    /// Forward entries `(u, d(r → u))` destined for `L_IN(u)`.
    in_entries: Vec<(Rank, u64)>,
    /// Backward entries `(u, d(u → r))` destined for `L_OUT(u)`.
    out_entries: Vec<(Rank, u64)>,
    visited: u32,
    pruned: u32,
}

/// The weighted directed [`PrunedSearch`]: per root, a forward pruned
/// Dijkstra over out-arcs followed by the mirrored backward Dijkstra, each
/// with settle-time pruning.
struct WeightedDirectedSearch<'g> {
    h: &'g WeightedDigraph,
}

impl PrunedSearch for WeightedDirectedSearch<'_> {
    type State = WeightedDirectedState;
    type Scratch = DijkstraScratch;
    type Run = WeightedDirectedRun;

    fn new_scratch(&self) -> DijkstraScratch {
        DijkstraScratch::new(self.h.num_vertices())
    }

    fn search_in_place(
        &self,
        state: &mut WeightedDirectedState,
        r: Rank,
        ws: &mut DijkstraScratch,
    ) -> Result<RootCommit> {
        let mut sink = InPlace::new(r, &mut state.inn);
        let (vf, pf) = pruned_dijkstra(self.h, r, true, &state.out, ws, &mut sink)?;
        let mut sink = InPlace::new(r, &mut state.out);
        let (vb, pb) = pruned_dijkstra(self.h, r, false, &state.inn, ws, &mut sink)?;
        Ok(RootCommit::new(r, vf + vb, pf + pb, 0))
    }

    fn search(
        &self,
        state: &WeightedDirectedState,
        r: Rank,
        ws: &mut DijkstraScratch,
    ) -> Result<WeightedDirectedRun> {
        let mut fwd = Buffer::new(&state.inn);
        let (vf, pf) = pruned_dijkstra(self.h, r, true, &state.out, ws, &mut fwd)?;
        let mut bwd = Buffer::new(&state.out);
        let (vb, pb) = pruned_dijkstra(self.h, r, false, &state.inn, ws, &mut bwd)?;
        Ok(WeightedDirectedRun {
            in_entries: fwd.entries,
            out_entries: bwd.entries,
            visited: vf + vb,
            pruned: pf + pb,
        })
    }

    fn commit(
        &self,
        state: &mut WeightedDirectedState,
        batch_first: Rank,
        r: Rank,
        run: WeightedDirectedRun,
    ) -> Result<RootCommit> {
        let mut repruned = 0u32;
        // IN entries first, then OUT, matching the in-place
        // forward-then-backward order; overflow is checked on survivors
        // only, which are exactly the in-place search's labeled entries.
        let mut sink = InPlace::new(r, &mut state.inn);
        commit_entries(
            &run.in_entries,
            &mut sink,
            Some(&state.out),
            batch_first,
            &mut repruned,
        )?;
        let mut sink = InPlace::new(r, &mut state.out);
        commit_entries(
            &run.out_entries,
            &mut sink,
            Some(&state.inn),
            batch_first,
            &mut repruned,
        )?;
        Ok(RootCommit::new(r, run.visited, run.pruned, repruned))
    }
}

/// One pruned Dijkstra from `r` in a fixed direction, with settle-time
/// pruning against `root_side` and the label of `u` read through `sink`;
/// `forward = true` explores out-arcs, computes `d(r, u)` and labels
/// `L_IN(u)`, pruning against `L_OUT(r) ∩ L_IN(u)`. Returns its
/// `(visited, pruned)` counts; the scratch is reset lazily, also on the error
/// path.
fn pruned_dijkstra<K: LabelSink<WDist, u64>>(
    h: &WeightedDigraph,
    r: Rank,
    forward: bool,
    root_side: &LabelVecs<WDist>,
    ws: &mut DijkstraScratch,
    sink: &mut K,
) -> Result<(u32, u32)> {
    let (lr, ld) = root_side.label(r);
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
            continue; // stale entry
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

        let mut relax = |w: Rank, wt: u32| {
            let nd = d + wt as u64;
            if nd < ws.tentative[w as usize] {
                if ws.tentative[w as usize] == INF_U64 {
                    ws.touched.push(w);
                }
                ws.tentative[w as usize] = nd;
                ws.heap.push(Reverse((nd, w)));
            }
        };
        if forward {
            for (w, wt) in h.out_neighbors(u) {
                relax(w, wt);
            }
        } else {
            for (w, wt) in h.in_neighbors(u) {
                relax(w, wt);
            }
        }
    }
    for &v in ws.touched.iter() {
        ws.tentative[v as usize] = INF_U64;
    }
    for &w in lr {
        ws.temp[w as usize] = INF_U64;
    }
    outcome.map(|()| (visited, pruned))
}

/// Exact distance index over a positively-weighted digraph.
///
/// Generic over the [`crate::storage::LabelStorage`] backend of its two
/// label sides (`u32` distances): the default owns its arenas,
/// [`WeightedDirectedPllIndexView`] runs the same merge-join zero-copy
/// over a v2 index buffer.
#[derive(Clone, Debug)]
pub struct WeightedDirectedPllIndex<O = Vec<Vertex>, S = OwnedLabels<WDist>> {
    order: O,
    inv: O,
    side_in: S,
    side_out: S,
    stats: ConstructionStats,
}

/// Zero-copy [`WeightedDirectedPllIndex`] over a v2 index buffer.
pub type WeightedDirectedPllIndexView =
    WeightedDirectedPllIndex<SectionSlice<u32>, ViewLabels<WDist>>;

impl<O, S> WeightedDirectedPllIndex<O, S>
where
    O: AsRef<[u32]>,
    S: LabelStorage<Dist = WDist>,
{
    /// Assembles an index from any backend (inputs pre-validated).
    pub(crate) fn assemble(
        order: O,
        inv: O,
        side_in: S,
        side_out: S,
        stats: ConstructionStats,
    ) -> Self {
        WeightedDirectedPllIndex {
            order,
            inv,
            side_in,
            side_out,
            stats,
        }
    }

    /// Number of indexed vertices.
    pub fn num_vertices(&self) -> usize {
        self.order.as_ref().len()
    }

    #[inline]
    fn side_label(side: &S, v: usize) -> (&[Rank], &[WDist]) {
        let offsets = side.offsets();
        let s = offsets[v] as usize;
        let e = offsets[v + 1] as usize;
        (&side.ranks()[s..e], &side.dists()[s..e])
    }

    /// Exact weighted distance from `s` to `t`; `None` if unreachable.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range.
    pub fn distance(&self, s: Vertex, t: Vertex) -> Option<u64> {
        assert!(
            (s as usize) < self.num_vertices(),
            "vertex {s} out of range"
        );
        assert!(
            (t as usize) < self.num_vertices(),
            "vertex {t} out of range"
        );
        if s == t {
            return Some(0);
        }
        let rs = self.inv.as_ref()[s as usize] as usize;
        let rt = self.inv.as_ref()[t as usize] as usize;
        let (ar, ad) = Self::side_label(&self.side_out, rs);
        let (br, bd) = Self::side_label(&self.side_in, rt);
        let best = crate::label::merge_query_weighted(ar, ad, br, bd);
        (best != u64::MAX).then_some(best)
    }

    /// Hints the CPU to pull the OUT label of `s` and the IN label of
    /// `t` toward cache ahead of a
    /// [`WeightedDirectedPllIndex::distance`] call for the same pair.
    /// Advisory: out-of-range vertices are ignored.
    pub fn prefetch_query(&self, s: Vertex, t: Vertex) {
        let n = self.num_vertices();
        if (s as usize) < n {
            let (r, d) = Self::side_label(&self.side_out, self.inv.as_ref()[s as usize] as usize);
            crate::kernel::prefetch_read(r);
            crate::kernel::prefetch_read(d);
        }
        if (t as usize) < n {
            let (r, d) = Self::side_label(&self.side_in, self.inv.as_ref()[t as usize] as usize);
            crate::kernel::prefetch_read(r);
            crate::kernel::prefetch_read(d);
        }
    }

    /// Checked variant of [`WeightedDirectedPllIndex::distance`].
    pub fn try_distance(&self, s: Vertex, t: Vertex) -> Result<Option<u64>> {
        let n = self.num_vertices();
        for x in [s, t] {
            if x as usize >= n {
                return Err(PllError::VertexOutOfRange {
                    vertex: x,
                    num_vertices: n,
                });
            }
        }
        Ok(self.distance(s, t))
    }

    /// Average of (|L_IN| + |L_OUT|) per vertex.
    pub fn avg_label_size(&self) -> f64 {
        if self.num_vertices() == 0 {
            return 0.0;
        }
        ((self.side_in.ranks().len() + self.side_out.ranks().len()) as f64
            - 2.0 * self.num_vertices() as f64)
            / self.num_vertices() as f64
    }

    /// Construction statistics.
    pub fn stats(&self) -> &ConstructionStats {
        &self.stats
    }

    /// Total index bytes.
    pub fn memory_bytes(&self) -> usize {
        self.side_in.memory_bytes() + self.side_out.memory_bytes() + self.order.as_ref().len() * 8
    }
}

impl WeightedDirectedPllIndex {
    /// Raw parts for serialisation: `(order, inv, IN side, OUT side)`
    /// where each side is `(offsets, ranks, dists)`.
    #[allow(clippy::type_complexity)]
    pub(crate) fn as_raw(
        &self,
    ) -> (
        &[Vertex],
        &[Rank],
        (&[u32], &[Rank], &[WDist]),
        (&[u32], &[Rank], &[WDist]),
    ) {
        (
            &self.order,
            &self.inv,
            (
                self.side_in.offsets(),
                self.side_in.ranks(),
                self.side_in.dists(),
            ),
            (
                self.side_out.offsets(),
                self.side_out.ranks(),
                self.side_out.dists(),
            ),
        )
    }

    /// Reassembles from raw parts (deserialisation; inputs pre-validated).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_raw(
        order: Vec<Vertex>,
        inv: Vec<Rank>,
        in_offsets: Vec<u32>,
        in_ranks: Vec<Rank>,
        in_dists: Vec<WDist>,
        out_offsets: Vec<u32>,
        out_ranks: Vec<Rank>,
        out_dists: Vec<WDist>,
    ) -> Self {
        WeightedDirectedPllIndex {
            order,
            inv,
            side_in: OwnedLabels {
                offsets: in_offsets,
                ranks: in_ranks,
                dists: in_dists,
                parents: None,
            },
            side_out: OwnedLabels {
                offsets: out_offsets,
                ranks: out_ranks,
                dists: out_dists,
                parents: None,
            },
            stats: ConstructionStats::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BinaryHeap;

    /// Directed Dijkstra over out-arcs for ground truth.
    fn dijkstra_directed(g: &WeightedDigraph, s: Vertex) -> Vec<u64> {
        let n = g.num_vertices();
        let mut dist = vec![INF_U64; n];
        let mut heap = BinaryHeap::new();
        dist[s as usize] = 0;
        heap.push(Reverse((0u64, s)));
        while let Some(Reverse((d, u))) = heap.pop() {
            if d > dist[u as usize] {
                continue;
            }
            for (w, wt) in g.out_neighbors(u) {
                let nd = d + wt as u64;
                if nd < dist[w as usize] {
                    dist[w as usize] = nd;
                    heap.push(Reverse((nd, w)));
                }
            }
        }
        dist
    }

    fn check_exact(g: &WeightedDigraph, builder: &WeightedDirectedIndexBuilder) {
        let idx = builder.build(g).unwrap();
        let n = g.num_vertices() as Vertex;
        for s in 0..n {
            let d = dijkstra_directed(g, s);
            for t in 0..n {
                let expect = (d[t as usize] != INF_U64).then_some(d[t as usize]);
                assert_eq!(idx.distance(s, t), expect, "pair ({s} -> {t})");
            }
        }
    }

    fn random_weighted_digraph(n: usize, m: usize, max_w: u32, seed: u64) -> WeightedDigraph {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let mut arcs = std::collections::HashMap::new();
        while arcs.len() < m {
            let u = rng.next_below(n as u64) as Vertex;
            let v = rng.next_below(n as u64) as Vertex;
            if u != v {
                arcs.entry((u, v))
                    .or_insert_with(|| rng.next_below(max_w as u64) as u32 + 1);
            }
        }
        let mut list: Vec<(Vertex, Vertex, u32)> =
            arcs.into_iter().map(|((u, v), w)| (u, v, w)).collect();
        list.sort_unstable();
        WeightedDigraph::from_edges(n, &list).unwrap()
    }

    #[test]
    fn exact_on_weighted_dag() {
        // Heavy direct arc loses to the light two-hop path, directionally.
        let g =
            WeightedDigraph::from_edges(4, &[(0, 1, 1), (1, 3, 1), (0, 3, 5), (3, 2, 2)]).unwrap();
        let idx = WeightedDirectedIndexBuilder::new().build(&g).unwrap();
        assert_eq!(idx.distance(0, 3), Some(2));
        assert_eq!(idx.distance(3, 0), None);
        assert_eq!(idx.distance(0, 2), Some(4));
        check_exact(&g, &WeightedDirectedIndexBuilder::new());
    }

    #[test]
    fn exact_on_random_weighted_digraphs() {
        for seed in [1, 2, 3] {
            let g = random_weighted_digraph(50, 200, 12, seed);
            check_exact(&g, &WeightedDirectedIndexBuilder::new());
            check_exact(
                &g,
                &WeightedDirectedIndexBuilder::new()
                    .ordering(OrderingStrategy::Random)
                    .seed(seed),
            );
        }
    }

    #[test]
    fn parallel_equals_sequential_weighted_directed() {
        for seed in [1u64, 5, 12] {
            let g = random_weighted_digraph(100, 420, 14, seed);
            for builder in [
                WeightedDirectedIndexBuilder::new(),
                WeightedDirectedIndexBuilder::new()
                    .ordering(OrderingStrategy::Random)
                    .seed(seed),
            ] {
                let seq = builder.clone().threads(1).build(&g).unwrap();
                for k in [2usize, 3, 4, 8] {
                    let par = builder.clone().threads(k).build(&g).unwrap();
                    assert_eq!(
                        seq.as_raw(),
                        par.as_raw(),
                        "label arenas diverged at threads={k}, seed={seed}"
                    );
                    assert_eq!(par.stats().threads, k);
                    assert!(par.stats().parallel_batches > 0);
                    assert_eq!(par.stats().total_labeled, seq.stats().total_labeled);
                }
            }
        }
    }

    #[test]
    fn parallel_weighted_directed_is_exact() {
        let g = random_weighted_digraph(60, 240, 9, 4);
        check_exact(&g, &WeightedDirectedIndexBuilder::new().threads(4));
    }

    #[test]
    fn parallel_overflow_detected() {
        let g =
            WeightedDigraph::from_edges(3, &[(0, 1, u32::MAX - 1), (1, 2, u32::MAX - 1)]).unwrap();
        let err = WeightedDirectedIndexBuilder::new()
            .ordering(OrderingStrategy::Custom(vec![0, 1, 2]))
            .threads(4)
            .build(&g)
            .unwrap_err();
        assert!(matches!(err, PllError::WeightedDistanceOverflow));
    }

    #[test]
    fn asymmetric_weights_respected() {
        let g = WeightedDigraph::from_edges(2, &[(0, 1, 3), (1, 0, 9)]).unwrap();
        let idx = WeightedDirectedIndexBuilder::new().build(&g).unwrap();
        assert_eq!(idx.distance(0, 1), Some(3));
        assert_eq!(idx.distance(1, 0), Some(9));
    }

    #[test]
    fn unsupported_orderings_rejected() {
        let g = WeightedDigraph::from_edges(2, &[(0, 1, 1)]).unwrap();
        for strategy in [
            OrderingStrategy::Closeness { samples: 4 },
            OrderingStrategy::Degeneracy,
        ] {
            assert!(matches!(
                WeightedDirectedIndexBuilder::new()
                    .ordering(strategy)
                    .build(&g),
                Err(PllError::IncompatibleOptions { .. })
            ));
        }
    }

    #[test]
    fn try_distance_and_stats() {
        let g = random_weighted_digraph(30, 100, 8, 9);
        let idx = WeightedDirectedIndexBuilder::new().build(&g).unwrap();
        assert!(idx.try_distance(0, 29).is_ok());
        assert!(matches!(
            idx.try_distance(0, 30),
            Err(PllError::VertexOutOfRange { .. })
        ));
        assert!(idx.avg_label_size() > 0.0);
        assert!(idx.memory_bytes() > 0);
        assert_eq!(idx.stats().pruned_roots, 30);
    }

    #[test]
    fn overflow_detected() {
        let g =
            WeightedDigraph::from_edges(3, &[(0, 1, u32::MAX - 1), (1, 2, u32::MAX - 1)]).unwrap();
        let err = WeightedDirectedIndexBuilder::new()
            .ordering(OrderingStrategy::Custom(vec![0, 1, 2]))
            .build(&g)
            .unwrap_err();
        assert!(matches!(err, PllError::WeightedDistanceOverflow));
    }
}
