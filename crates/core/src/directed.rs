//! Directed pruned landmark labeling (§6, "Directed Graphs").
//!
//! Each vertex stores two labels: `L_OUT(v)` holds pairs `(w, d(v, w))` and
//! `L_IN(v)` holds pairs `(w, d(w, v))`. A query `s → t` merges `L_OUT(s)`
//! with `L_IN(t)`. Construction runs *two* pruned BFSs per root — one over
//! out-edges (filling `L_IN` of reached vertices) and one over in-edges
//! (filling `L_OUT`) — pruning each against the labels accumulated so far.
//!
//! Both searches of a root run through the driver of [`crate::par`] at
//! every thread count, written once and generic over where their label
//! entries go. At [`DirectedIndexBuilder::threads`]`(1)` each root's
//! forward/backward BFS pair appends straight to the two label sides (the
//! backward BFS sees the forward BFS's entries). At `k > 1` threads,
//! batches of roots run their pairs concurrently against the committed
//! two-sided label state, and the batch barrier commits both sides in
//! rank order (IN entries before OUT entries, matching the
//! forward-then-backward order), re-pruning each entry against the
//! same-batch hubs its search could not see. The result is byte-identical
//! at every thread count; see [`crate::par`].

use crate::error::{PllError, Result};
use crate::label::{merge_query, LabelSet};
use crate::order::OrderingStrategy;
use crate::par::{
    commit_entries, resolve_threads, run_batched, BfsScratch, Buffer, InPlace, LabelSink,
    LabelVecs, PrunedSearch, RootCommit,
};
use crate::stats::ConstructionStats;
use crate::storage::{LabelStorage, OwnedLabels, SectionSlice, ViewLabels};
use crate::types::{Dist, Rank, Vertex, INF8, INF_QUERY, MAX_DIST};
use pll_graph::reorder::inverse_permutation;
use pll_graph::{CsrDigraph, Xoshiro256pp};
use std::time::Instant;

/// Configures construction of a [`DirectedPllIndex`].
#[derive(Clone, Debug)]
pub struct DirectedIndexBuilder {
    ordering: OrderingStrategy,
    seed: u64,
    threads: usize,
}

impl Default for DirectedIndexBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl DirectedIndexBuilder {
    /// Default configuration: Degree ordering (by total degree, in + out).
    pub fn new() -> Self {
        DirectedIndexBuilder {
            ordering: OrderingStrategy::Degree,
            seed: 0x5EED_1A5E,
            threads: 1,
        }
    }

    /// Sets the number of worker threads for construction (see
    /// [`crate::par`]): `1` (default) runs each root's forward/backward
    /// pruned BFS pair on the calling thread in rank order (§6), `k > 1`
    /// runs batches of those pairs concurrently on `k` threads with a
    /// `LabelSet` pair byte-identical to `threads(1)`, and `0` auto-detects
    /// one thread per CPU. The Degree ordering and the label flatten ride
    /// the same knob, output-identically at any thread count. As with the
    /// undirected builder, a multi-threaded build may surface
    /// [`PllError::DiameterTooLarge`] on a graph whose single-threaded
    /// build prunes every search short of the 8-bit ceiling.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the ordering strategy. `Degree` orders by `in + out` degree;
    /// `Closeness` is not supported for digraphs.
    pub fn ordering(mut self, strategy: OrderingStrategy) -> Self {
        self.ordering = strategy;
        self
    }

    /// Seed for the Random ordering.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    fn compute_order(&self, g: &CsrDigraph, threads: usize) -> Result<Vec<Vertex>> {
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
            OrderingStrategy::Closeness { .. } | OrderingStrategy::Degeneracy => {
                Err(PllError::IncompatibleOptions {
                    message: format!(
                        "{} ordering is not supported for directed indices",
                        self.ordering.name()
                    ),
                })
            }
        }
    }

    /// Builds the directed index.
    pub fn build(&self, g: &CsrDigraph) -> Result<DirectedPllIndex> {
        let n = g.num_vertices();
        let threads = resolve_threads(self.threads);
        let t0 = Instant::now();
        let order = self.compute_order(g, threads)?;
        let order_seconds = t0.elapsed().as_secs_f64();
        let tr = Instant::now();
        let inv = inverse_permutation(&order);
        // Relabel arcs into rank space (sequential: the arc translation
        // streams through `from_edges`, which owns the CSR scatter).
        let rank_edges: Vec<(Vertex, Vertex)> = g
            .arcs()
            .map(|(u, v)| (inv[u as usize], inv[v as usize]))
            .collect();
        let h = CsrDigraph::from_edges(n, &rank_edges)?;
        let relabel_seconds = tr.elapsed().as_secs_f64();

        let t1 = Instant::now();
        let mut stats = ConstructionStats {
            order_seconds,
            relabel_seconds,
            threads,
            ..Default::default()
        };
        let mut state = DirectedState {
            inn: LabelVecs::new(n),
            out: LabelVecs::new(n),
        };
        let roots: Vec<Rank> = (0..n as Rank).collect();
        let search = DirectedSearch { h: &h };
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
        let labels_in = LabelSet::from_vecs(&state.inn.ranks, &state.inn.dists, None, threads)?;
        let labels_out = LabelSet::from_vecs(&state.out.ranks, &state.out.dists, None, threads)?;
        stats.flatten_seconds = tf.elapsed().as_secs_f64();
        Ok(DirectedPllIndex {
            order,
            inv,
            labels_in,
            labels_out,
            stats,
        })
    }
}

/// Two-sided label state of the directed build.
struct DirectedState {
    /// `L_IN`: hubs `w` with `d(w → v)`, filled by forward searches.
    inn: LabelVecs<Dist>,
    /// `L_OUT`: hubs `w` with `d(v → w)`, filled by backward searches.
    out: LabelVecs<Dist>,
}

/// Buffered output of one root's forward/backward relaxed BFS pair.
struct DirectedRun {
    /// Forward entries `(u, d(r → u))` destined for `L_IN(u)`.
    in_entries: Vec<(Rank, Dist)>,
    /// Backward entries `(u, d(u → r))` destined for `L_OUT(u)`.
    out_entries: Vec<(Rank, Dist)>,
    visited: u32,
    pruned: u32,
}

/// The directed [`PrunedSearch`]: per root, a forward pruned BFS over
/// out-arcs (filling `L_IN`, pruning against `L_OUT(r) ∩ L_IN(u)`)
/// followed by the mirrored backward BFS.
struct DirectedSearch<'g> {
    h: &'g CsrDigraph,
}

impl PrunedSearch for DirectedSearch<'_> {
    type State = DirectedState;
    type Scratch = BfsScratch;
    type Run = DirectedRun;

    fn new_scratch(&self) -> BfsScratch {
        BfsScratch::new(self.h.num_vertices())
    }

    fn search_in_place(
        &self,
        state: &mut DirectedState,
        r: Rank,
        ws: &mut BfsScratch,
    ) -> Result<RootCommit> {
        let mut sink = InPlace::new(r, &mut state.inn);
        let (vf, pf) = pruned_bfs(self.h, r, true, &state.out, ws, &mut sink)?;
        let mut sink = InPlace::new(r, &mut state.out);
        let (vb, pb) = pruned_bfs(self.h, r, false, &state.inn, ws, &mut sink)?;
        Ok(RootCommit::new(r, vf + vb, pf + pb, 0))
    }

    fn search(&self, state: &DirectedState, r: Rank, ws: &mut BfsScratch) -> Result<DirectedRun> {
        let mut fwd = Buffer::new(&state.inn);
        let (vf, pf) = pruned_bfs(self.h, r, true, &state.out, ws, &mut fwd)?;
        let mut bwd = Buffer::new(&state.out);
        let (vb, pb) = pruned_bfs(self.h, r, false, &state.inn, ws, &mut bwd)?;
        Ok(DirectedRun {
            in_entries: fwd.entries,
            out_entries: bwd.entries,
            visited: vf + vb,
            pruned: pf + pb,
        })
    }

    fn commit(
        &self,
        state: &mut DirectedState,
        batch_first: Rank,
        r: Rank,
        run: DirectedRun,
    ) -> Result<RootCommit> {
        let mut repruned = 0u32;
        // IN entries first, then OUT — the in-place forward BFS fully
        // commits before the backward BFS starts. A forward entry
        // `(r, u, d(r→u))` is certified by a same-batch hub
        // `x ∈ L_OUT(r) ∩ L_IN(u)` with `d(r→x) + d(x→u) ≤ d`; the
        // backward side mirrors it.
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

/// One pruned BFS from `r` in a fixed direction. `forward = true` explores
/// out-arcs: it computes `d(r, u)` and labels `L_IN(u)` through `sink`,
/// pruning against `root_side` = `L_OUT(r)` ∩ `L_IN(u)`; `forward = false`
/// mirrors everything. Returns its `(visited, pruned)` counts. The temp
/// array and lazy resets are those of the undirected search (§4.5); the
/// scratch is reset on the error path too, since it is reused.
fn pruned_bfs<K: LabelSink<Dist, Dist>>(
    h: &CsrDigraph,
    r: Rank,
    forward: bool,
    root_side: &LabelVecs<Dist>,
    ws: &mut BfsScratch,
    sink: &mut K,
) -> Result<(u32, u32)> {
    // temp[w] = distance between w and r on the root's side.
    let (lr, ld) = root_side.label(r);
    for (&w, &d) in lr.iter().zip(ld) {
        ws.temp[w as usize] = d;
    }
    ws.queue.clear();
    ws.queue.push(r);
    ws.tentative[r as usize] = 0;
    let mut head = 0usize;
    let mut visited = 0u32;
    let mut pruned = 0u32;
    let mut outcome = Ok(());

    'bfs: while head < ws.queue.len() {
        let u = ws.queue[head];
        head += 1;
        let d = ws.tentative[u as usize];
        visited += 1;

        let (ur, ud) = sink.label(u);
        let prune = ur.iter().zip(ud).any(|(&w, &dw)| {
            let tw = ws.temp[w as usize];
            tw != INF8 && tw as u32 + dw as u32 <= d as u32
        });
        if prune {
            pruned += 1;
            continue;
        }
        if let Err(e) = sink.emit(u, d) {
            outcome = Err(e);
            break;
        }

        let neighbors = if forward {
            h.out_neighbors(u)
        } else {
            h.in_neighbors(u)
        };
        for &w in neighbors {
            if ws.tentative[w as usize] == INF8 {
                if d >= MAX_DIST {
                    outcome = Err(PllError::DiameterTooLarge { root_rank: r });
                    break 'bfs;
                }
                ws.tentative[w as usize] = d + 1;
                ws.queue.push(w);
            }
        }
    }

    for &v in ws.queue.iter() {
        ws.tentative[v as usize] = INF8;
    }
    for &w in lr {
        ws.temp[w as usize] = INF8;
    }
    outcome.map(|()| (visited, pruned))
}

/// An exact distance index over a directed, unweighted graph.
///
/// Generic over the [`crate::storage::LabelStorage`] backend of its two
/// label sides, like [`crate::PllIndex`]: the default owns its arenas,
/// [`DirectedPllIndexView`] runs the same merge-join zero-copy over a v2
/// index buffer.
#[derive(Clone, Debug)]
pub struct DirectedPllIndex<O = Vec<Vertex>, S = OwnedLabels<Dist>> {
    order: O,
    inv: O,
    labels_in: LabelSet<S>,
    labels_out: LabelSet<S>,
    stats: ConstructionStats,
}

/// Zero-copy [`DirectedPllIndex`] over a v2 index buffer.
pub type DirectedPllIndexView = DirectedPllIndex<SectionSlice<u32>, ViewLabels<Dist>>;

impl<O, S> DirectedPllIndex<O, S>
where
    O: AsRef<[u32]>,
    S: LabelStorage<Dist = Dist>,
{
    /// Assembles an index from any backend (inputs pre-validated).
    pub(crate) fn assemble(
        order: O,
        inv: O,
        labels_in: LabelSet<S>,
        labels_out: LabelSet<S>,
        stats: ConstructionStats,
    ) -> Self {
        DirectedPllIndex {
            order,
            inv,
            labels_in,
            labels_out,
            stats,
        }
    }

    /// Number of indexed vertices.
    pub fn num_vertices(&self) -> usize {
        self.order.as_ref().len()
    }

    /// Exact directed distance from `s` to `t`; `None` if `t` is not
    /// reachable from `s`.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range.
    pub fn distance(&self, s: Vertex, t: Vertex) -> Option<u32> {
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
        let rs = self.inv.as_ref()[s as usize];
        let rt = self.inv.as_ref()[t as usize];
        let (sr, sd) = self.labels_out.label(rs);
        let (tr, td) = self.labels_in.label(rt);
        let best = merge_query(sr, sd, tr, td);
        (best != INF_QUERY).then_some(best)
    }

    /// Hints the CPU to pull the OUT label of `s` and the IN label of
    /// `t` toward cache ahead of a [`DirectedPllIndex::distance`] call
    /// for the same pair. Advisory: out-of-range vertices are ignored.
    pub fn prefetch_query(&self, s: Vertex, t: Vertex) {
        let n = self.num_vertices();
        if (s as usize) < n {
            let (r, d) = self.labels_out.label(self.inv.as_ref()[s as usize]);
            crate::kernel::prefetch_read(r);
            crate::kernel::prefetch_read(d);
        }
        if (t as usize) < n {
            let (r, d) = self.labels_in.label(self.inv.as_ref()[t as usize]);
            crate::kernel::prefetch_read(r);
            crate::kernel::prefetch_read(d);
        }
    }

    /// Checked variant of [`DirectedPllIndex::distance`].
    pub fn try_distance(&self, s: Vertex, t: Vertex) -> Result<Option<u32>> {
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

    /// OUT-label store (hubs reachable *from* each vertex).
    pub fn labels_out(&self) -> &LabelSet<S> {
        &self.labels_out
    }

    /// IN-label store (hubs that reach each vertex).
    pub fn labels_in(&self) -> &LabelSet<S> {
        &self.labels_in
    }

    /// Construction statistics.
    pub fn stats(&self) -> &ConstructionStats {
        &self.stats
    }

    /// Average of (|L_IN| + |L_OUT|) per vertex.
    pub fn avg_label_size(&self) -> f64 {
        self.labels_in.avg_label_size() + self.labels_out.avg_label_size()
    }

    /// Total index bytes.
    pub fn memory_bytes(&self) -> usize {
        self.labels_in.memory_bytes()
            + self.labels_out.memory_bytes()
            + self.order.as_ref().len() * 8
    }
}

impl DirectedPllIndex {
    /// Raw parts for serialisation: `(order, inv, labels_in,
    /// labels_out)`.
    pub(crate) fn as_raw(&self) -> (&[Vertex], &[Rank], &LabelSet, &LabelSet) {
        (&self.order, &self.inv, &self.labels_in, &self.labels_out)
    }

    /// Reassembles from raw parts (deserialisation; inputs pre-validated).
    pub(crate) fn from_raw(
        order: Vec<Vertex>,
        inv: Vec<Rank>,
        labels_in: LabelSet,
        labels_out: LabelSet,
    ) -> Self {
        DirectedPllIndex {
            order,
            inv,
            labels_in,
            labels_out,
            stats: ConstructionStats::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pll_graph::{CsrDigraph, Xoshiro256pp, INF_U32};

    /// Plain directed BFS for ground truth.
    fn bfs_directed(g: &CsrDigraph, s: Vertex) -> Vec<u32> {
        let n = g.num_vertices();
        let mut dist = vec![INF_U32; n];
        let mut queue = vec![s];
        dist[s as usize] = 0;
        let mut head = 0;
        while head < queue.len() {
            let u = queue[head];
            head += 1;
            for &w in g.out_neighbors(u) {
                if dist[w as usize] == INF_U32 {
                    dist[w as usize] = dist[u as usize] + 1;
                    queue.push(w);
                }
            }
        }
        dist
    }

    fn check_exact(g: &CsrDigraph, builder: &DirectedIndexBuilder) {
        let idx = builder.build(g).unwrap();
        let n = g.num_vertices() as Vertex;
        for s in 0..n {
            let d = bfs_directed(g, s);
            for t in 0..n {
                let expect = (d[t as usize] != INF_U32).then_some(d[t as usize]);
                assert_eq!(idx.distance(s, t), expect, "pair ({s} -> {t})");
            }
        }
    }

    fn random_digraph(n: usize, m: usize, seed: u64) -> CsrDigraph {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let mut arcs = std::collections::HashSet::new();
        while arcs.len() < m {
            let u = rng.next_below(n as u64) as Vertex;
            let v = rng.next_below(n as u64) as Vertex;
            if u != v {
                arcs.insert((u, v));
            }
        }
        let mut list: Vec<_> = arcs.into_iter().collect();
        list.sort_unstable();
        CsrDigraph::from_edges(n, &list).unwrap()
    }

    #[test]
    fn exact_on_dag() {
        // 0 -> 1 -> 3, 0 -> 2 -> 3, 3 -> 4; nothing returns.
        let g = CsrDigraph::from_edges(5, &[(0, 1), (1, 3), (0, 2), (2, 3), (3, 4)]).unwrap();
        check_exact(&g, &DirectedIndexBuilder::new());
        let idx = DirectedIndexBuilder::new().build(&g).unwrap();
        assert_eq!(idx.distance(0, 4), Some(3));
        assert_eq!(idx.distance(4, 0), None); // asymmetry
    }

    #[test]
    fn exact_on_directed_cycle() {
        let g = CsrDigraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]).unwrap();
        let idx = DirectedIndexBuilder::new().build(&g).unwrap();
        assert_eq!(idx.distance(0, 4), Some(4));
        assert_eq!(idx.distance(4, 0), Some(1));
        check_exact(&g, &DirectedIndexBuilder::new());
    }

    #[test]
    fn exact_on_random_digraphs() {
        for seed in [1, 2, 3] {
            let g = random_digraph(60, 240, seed);
            check_exact(&g, &DirectedIndexBuilder::new());
            check_exact(
                &g,
                &DirectedIndexBuilder::new()
                    .ordering(OrderingStrategy::Random)
                    .seed(seed),
            );
        }
    }

    #[test]
    fn antiparallel_pair() {
        let g = CsrDigraph::from_edges(3, &[(0, 1), (1, 0), (1, 2)]).unwrap();
        let idx = DirectedIndexBuilder::new().build(&g).unwrap();
        assert_eq!(idx.distance(0, 2), Some(2));
        assert_eq!(idx.distance(2, 0), None);
        assert_eq!(idx.distance(1, 0), Some(1));
    }

    #[test]
    fn parallel_equals_sequential_directed() {
        for seed in [1u64, 4, 11] {
            let g = random_digraph(120, 480, seed);
            for builder in [
                DirectedIndexBuilder::new(),
                DirectedIndexBuilder::new()
                    .ordering(OrderingStrategy::Random)
                    .seed(seed),
            ] {
                let seq = builder.clone().threads(1).build(&g).unwrap();
                for k in [2usize, 3, 4, 8] {
                    let par = builder.clone().threads(k).build(&g).unwrap();
                    assert_eq!(
                        seq.labels_in(),
                        par.labels_in(),
                        "L_IN diverged at threads={k}, seed={seed}"
                    );
                    assert_eq!(
                        seq.labels_out(),
                        par.labels_out(),
                        "L_OUT diverged at threads={k}, seed={seed}"
                    );
                    assert_eq!(par.stats().threads, k);
                    assert!(par.stats().parallel_batches > 0);
                    assert_eq!(
                        par.stats().total_labeled,
                        seq.stats().total_labeled,
                        "label volume diverged at threads={k}, seed={seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_directed_is_exact() {
        let g = random_digraph(80, 320, 7);
        let idx = DirectedIndexBuilder::new().threads(4).build(&g).unwrap();
        let n = g.num_vertices() as Vertex;
        for s in 0..n {
            let d = bfs_directed(&g, s);
            for t in 0..n {
                let expect = (d[t as usize] != INF_U32).then_some(d[t as usize]);
                assert_eq!(idx.distance(s, t), expect, "pair ({s} -> {t})");
            }
        }
    }

    #[test]
    fn closeness_rejected() {
        let g = CsrDigraph::from_edges(2, &[(0, 1)]).unwrap();
        let err = DirectedIndexBuilder::new()
            .ordering(OrderingStrategy::Closeness { samples: 4 })
            .build(&g)
            .unwrap_err();
        assert!(matches!(err, PllError::IncompatibleOptions { .. }));
    }

    #[test]
    fn try_distance_checks_range() {
        let g = CsrDigraph::from_edges(2, &[(0, 1)]).unwrap();
        let idx = DirectedIndexBuilder::new().build(&g).unwrap();
        assert!(idx.try_distance(0, 1).unwrap().is_some());
        assert!(matches!(
            idx.try_distance(0, 7),
            Err(PllError::VertexOutOfRange { .. })
        ));
    }

    #[test]
    fn label_stats_accessible() {
        let g = random_digraph(50, 150, 9);
        let idx = DirectedIndexBuilder::new().build(&g).unwrap();
        assert!(idx.avg_label_size() > 0.0);
        assert!(idx.memory_bytes() > 0);
        assert_eq!(idx.stats().pruned_roots, 50);
        assert!(idx.labels_in().num_vertices() == 50);
        assert!(idx.labels_out().num_vertices() == 50);
    }
}
