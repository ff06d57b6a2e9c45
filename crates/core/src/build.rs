//! Index construction: the pruned landmark labeling algorithm.
//!
//! The build pipeline follows §4.2, §4.5 and §5.4 of the paper, in four
//! phases that [`ConstructionStats`] times individually
//! (`order_seconds` / `relabel_seconds` / `bp_seconds` +
//! `pruned_seconds` / `flatten_seconds`):
//!
//! 1. **Phase 0a — ordering**: compute the vertex order (§4.4);
//! 2. **Phase 0b — relabelling**: relabel the graph so vertex `i` *is*
//!    rank `i` — labels then store ranks and are implicitly sorted (§4.5
//!    "Sorting Labels");
//! 3. **searches**: run `t` *bit-parallel* BFSs without pruning from the
//!    highest-priority unused vertices, each absorbing the root and up to
//!    64 of its highest-priority unused neighbours (§5.4), then a
//!    *pruned* BFS (Algorithm 1) from every remaining vertex in rank
//!    order. A visit of `u` at distance `d` is pruned when the distance
//!    is already answerable: either a bit-parallel label pair certifies
//!    `dist ≤ d`, or the temp-array query over `L(u)` does (§4.5
//!    "Querying" — `O(|L(u)|)` per test instead of a two-sided merge);
//! 4. **flatten**: copy the per-vertex label vectors into the flat
//!    sentinel-terminated arena of [`LabelSet`].
//!
//! Engineering notes honoured from §4.5: the tentative-distance array and
//! temp array are 8-bit and reset lazily (touched entries only), labels are
//! appended in rank order, and the final arena adds sentinels (§4.5
//! "Sentinel").
//!
//! # One search at every thread count
//!
//! The pruned searches run through the driver of [`crate::par`]
//! ([`crate::par::run_batched`]) at every [`IndexBuilder::threads`] value.
//! `pruned_bfs` is written once, generic over where its label entries
//! go. At `threads(1)` every root is its own batch and its search appends
//! straight to the labels (and to the parent pointers, with
//! [`IndexBuilder::store_parents`]) — Algorithm 1 itself. At `threads(k)`
//! the head of the order runs the same way; later roots run in
//! rank-ordered batches whose searches run concurrently on worker threads
//! with thread-local 8-bit tentative/temp scratch, each buffering its
//! would-be entries against the labels committed before the batch. At the
//! batch barrier the buffers are committed in rank order, and a cheap
//! re-prune removes every buffered entry that a same-batch hub certifies,
//! which restores the canonical labeling. The result is **byte-identical
//! at every thread count** — see the determinism argument in
//! [`crate::par`]'s module docs. The directed, weighted and
//! weighted-directed builders use the same driver (via the
//! [`crate::par::PrunedSearch`] trait).
//!
//! The non-search phases honour the same `threads` knob with the same
//! byte-identical guarantee: the ordering fans out over the workers
//! ([`crate::order::compute_order_threaded`]), the relabelling translates
//! disjoint rank chunks in parallel
//! ([`pll_graph::reorder::apply_order_threaded`]), the bit-parallel BFSs
//! run one per worker, and the flatten copies label chunks into the arena
//! from the workers ([`LabelSet`]`::from_vecs`) — removing the serial
//! prefix/suffix that would otherwise floor the parallel build's speedup
//! (Amdahl).

use crate::bp::{level_sync_bfs, select_bp_roots, BitParallelLabels, BpEntry, BpScratch};
use crate::error::{PllError, Result};
use crate::index::PllIndex;
use crate::label::LabelSet;
use crate::order::{compute_order_threaded, OrderingStrategy};
use crate::par::{
    commit_entries, resolve_threads, run_batched, BfsScratch, Buffer, InPlace, LabelSink,
    LabelVecs, Parents, PrunedSearch, RootCommit,
};
use crate::stats::{ConstructionStats, RootStats};
use crate::types::{Dist, Rank, INF8, INF_QUERY, MAX_DIST, RANK_SENTINEL};
use pll_graph::reorder::{apply_order_threaded, inverse_permutation};
use pll_graph::{CsrGraph, Vertex};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// Configures and runs index construction.
///
/// ```
/// use pll_core::{IndexBuilder, OrderingStrategy};
/// use pll_graph::gen;
///
/// let g = gen::barabasi_albert(500, 3, 7).unwrap();
/// let index = IndexBuilder::new()
///     .ordering(OrderingStrategy::Degree)
///     .bit_parallel_roots(8)
///     .build(&g)
///     .unwrap();
/// assert_eq!(index.distance(3, 3), Some(0));
/// ```
#[derive(Clone, Debug)]
pub struct IndexBuilder {
    pub(crate) ordering: OrderingStrategy,
    pub(crate) bp_roots: usize,
    pub(crate) store_parents: bool,
    pub(crate) seed: u64,
    pub(crate) record_root_stats: bool,
    pub(crate) abort_avg_label: Option<f64>,
    pub(crate) abort_seconds: Option<f64>,
    pub(crate) threads: usize,
}

impl Default for IndexBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl IndexBuilder {
    /// Default configuration: Degree ordering (the paper's default), 16
    /// bit-parallel roots (the paper's setting for its smaller datasets),
    /// no parent pointers.
    pub fn new() -> Self {
        IndexBuilder {
            ordering: OrderingStrategy::Degree,
            bp_roots: 16,
            store_parents: false,
            seed: 0x5EED_1A5E,
            record_root_stats: false,
            abort_avg_label: None,
            abort_seconds: None,
            threads: 1,
        }
    }

    /// Sets the number of worker threads for construction (see the module
    /// docs and [`crate::par`]).
    ///
    /// * `1` (the default) — every pruned BFS runs on the calling thread in
    ///   rank order and appends its entries in place: Algorithm 1;
    /// * `k > 1` — the same driver, with rank-ordered batches of concurrent
    ///   searches on `k` threads (clamped to [`crate::par::max_threads`])
    ///   after a head of one-root batches, producing a [`LabelSet`]
    ///   byte-identical to `threads(1)` — successful builds return
    ///   identical indices at every thread count;
    /// * `0` — auto-detect: one thread per available CPU.
    ///
    /// Incompatible with [`IndexBuilder::store_parents`]: parent pointers
    /// depend on BFS queue order, which in-batch searches do not
    /// reproduce. (Checked against the requested value, so
    /// `threads(0)` + `store_parents(true)` fails on every host.)
    ///
    /// Two error-path behaviours differ from `threads(1)`, by design:
    /// a multi-threaded build can return [`PllError::DiameterTooLarge`]
    /// on a graph whose single-threaded build prunes every search short
    /// of the 8-bit ceiling (its relaxed in-batch BFSs explore further;
    /// such graphs need the weighted index either way), and
    /// [`IndexBuilder::abort_after_seconds`] is checked at batch rather
    /// than per-root granularity.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the vertex ordering strategy (§4.4).
    pub fn ordering(mut self, strategy: OrderingStrategy) -> Self {
        self.ordering = strategy;
        self
    }

    /// Sets `t`, the number of bit-parallel BFSs run before the pruned
    /// phase (§5.4). `0` disables bit-parallel labels entirely.
    pub fn bit_parallel_roots(mut self, t: usize) -> Self {
        self.bp_roots = t;
        self
    }

    /// Stores parent pointers for shortest-*path* reconstruction (§6).
    /// Incompatible with bit-parallel roots (BP labels carry no parents);
    /// set `bit_parallel_roots(0)` as well.
    pub fn store_parents(mut self, yes: bool) -> Self {
        self.store_parents = yes;
        self
    }

    /// Seed for the Random/Closeness ordering strategies.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Records per-root visit/label/prune counts (Figures 3 and 4).
    pub fn record_root_stats(mut self, yes: bool) -> Self {
        self.record_root_stats = yes;
        self
    }

    /// Aborts construction with [`PllError::LabelBudgetExceeded`] once the
    /// average normal-label size exceeds `budget` — the Table 5 harness uses
    /// this to report DNF for orderings that explode.
    pub fn abort_if_avg_label_exceeds(mut self, budget: f64) -> Self {
        self.abort_avg_label = Some(budget);
        self
    }

    /// Aborts construction with [`PllError::TimeBudgetExceeded`] once the
    /// pruned phase's wall clock passes `seconds` (checked after every
    /// batch of pruned BFSs: every BFS at `threads(1)`) — the
    /// harness's bounded version of the paper's "did not finish in one
    /// day".
    pub fn abort_after_seconds(mut self, seconds: f64) -> Self {
        self.abort_seconds = Some(seconds);
        self
    }

    /// Builds the index.
    pub fn build(&self, g: &CsrGraph) -> Result<PllIndex> {
        self.build_with_observer(g, &mut NoopObserver)
    }

    /// Builds the index, invoking `observer` after the bit-parallel phase
    /// and after every pruned BFS with a queryable view of the partial
    /// index. Figure 4 (pair coverage against the number of performed BFSs)
    /// is measured through this hook.
    pub fn build_with_observer(
        &self,
        g: &CsrGraph,
        observer: &mut dyn BuildObserver,
    ) -> Result<PllIndex> {
        if self.store_parents && self.bp_roots > 0 {
            return Err(PllError::IncompatibleOptions {
                message: "store_parents(true) requires bit_parallel_roots(0): bit-parallel \
                          labels carry no parent pointers"
                    .into(),
            });
        }
        // Validate the *requested* combination, not the resolved thread
        // count: `threads(0)` (auto) may resolve to 1 on a single-core
        // host, and `store_parents` must not succeed or fail depending on
        // the machine it runs on.
        if self.store_parents && self.threads != 1 {
            return Err(PllError::IncompatibleOptions {
                message: "store_parents(true) requires threads(1): parent pointers \
                          depend on BFS queue order, which in-batch searches do not \
                          reproduce"
                    .into(),
            });
        }
        let threads = resolve_threads(self.threads);
        let n = g.num_vertices();
        if n > u32::MAX as usize - 1 {
            return Err(PllError::Graph(pll_graph::GraphError::TooLarge {
                what: "vertex count",
            }));
        }

        // Phase 0: ordering + relabelling (§4.4, §4.5 "Sorting Labels"),
        // fanned out over the workers with output identical at any thread
        // count.
        let t0 = Instant::now();
        let order = compute_order_threaded(g, &self.ordering, self.seed, threads)?;
        let order_seconds = t0.elapsed().as_secs_f64();
        let tr = Instant::now();
        let inv = inverse_permutation(&order);
        let h = apply_order_threaded(g, &order, threads)?; // rank-space graph
        let relabel_seconds = tr.elapsed().as_secs_f64();

        let mut stats = ConstructionStats {
            order_seconds,
            relabel_seconds,
            threads,
            per_root: self.record_root_stats.then(Vec::new),
            ..Default::default()
        };

        // usd[v]: v is covered as a BP root / BP neighbour and must not
        // root a pruned search.
        let mut usd = vec![false; n];

        // Phase 1: bit-parallel BFSs from the highest-priority unused
        // vertices (§5.4).
        let t1 = Instant::now();
        let (bp, bp_roots_used) = bit_parallel_phase(&h, &mut usd, self.bp_roots, threads)?;
        stats.bp_roots_used = bp_roots_used;
        stats.bp_seconds = t1.elapsed().as_secs_f64();

        // Phase 2: a pruned BFS from every remaining vertex in rank order.
        let t2 = Instant::now();
        let label_budget_entries = self.abort_avg_label.map(|b| (b * n as f64).ceil() as u64);
        let mut state = UndirectedState {
            labels: LabelVecs::new(n),
            parents: self.store_parents.then(|| Parents::new(n)),
        };
        observer.after_bp_phase(&PartialIndex::new(&state.labels, &bp, &inv));

        let roots: Vec<Rank> = (0..n as Rank).filter(|&r| !usd[r as usize]).collect();
        let search = UndirectedSearch { h: &h, bp: &bp };
        run_batched(
            &search,
            &mut state,
            &roots,
            threads,
            &mut stats,
            self.abort_seconds,
            |st, root_stats, stats| {
                if let Some(per_root) = &mut stats.per_root {
                    per_root.push(*root_stats);
                }
                observer.after_root(
                    stats.pruned_roots,
                    root_stats,
                    &PartialIndex::new(&st.labels, &bp, &inv),
                );
                if let Some(budget) = label_budget_entries {
                    if stats.total_labeled > budget {
                        return Err(PllError::LabelBudgetExceeded {
                            budget: self.abort_avg_label.unwrap_or_default(),
                        });
                    }
                }
                Ok(())
            },
        )?;
        stats.pruned_seconds = t2.elapsed().as_secs_f64();

        let tf = Instant::now();
        let labels = LabelSet::from_vecs(
            &state.labels.ranks,
            &state.labels.dists,
            state.parents.as_ref().map(|p| &p.labels[..]),
            threads,
        )?;
        stats.flatten_seconds = tf.elapsed().as_secs_f64();
        Ok(PllIndex::from_parts(order, inv, labels, bp, stats))
    }
}

/// The bit-parallel phase (§5.4): selects up to `t` roots (marking them and
/// their absorbed neighbours in `usd`) and runs their BFSs, returning the
/// labels and the number of roots used.
///
/// Root/neighbour selection is sequential (it only manipulates `usd`); the
/// BFSs fan out over `threads` workers, each with its own [`BpScratch`],
/// and each worker commits its slot straight into the arena under a lock.
/// Slots are disjoint, so commit order cannot change a byte; the lowest
/// failing slot's error is returned, the one a single worker stops at. One
/// worker runs on the calling thread.
fn bit_parallel_phase(
    h: &CsrGraph,
    usd: &mut [bool],
    t: usize,
    threads: usize,
) -> Result<(BitParallelLabels, usize)> {
    let n = h.num_vertices();
    let specs = select_bp_roots(h, usd, t);
    let mut bp = BitParallelLabels::new(n, t);
    let workers = threads.min(specs.len());
    let cursor = AtomicUsize::new(0);
    let arena = Mutex::new(&mut bp);
    let worker = || {
        let mut scratch = BpScratch::new(n);
        loop {
            // ORDERING: Relaxed — work-stealing cursor; the scope join
            // orders the results.
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let (root, sub) = specs.get(i)?;
            // Slots are claimed in increasing order, so every lower slot
            // is already on some worker and every later one here would
            // rank higher: stop at this worker's first error.
            if let Err(e) = level_sync_bfs(h, *root, sub, &mut scratch) {
                return Some((i, e));
            }
            arena
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .commit_root(i, *root, &scratch);
        }
    };
    let first_error = match workers {
        0 => None,
        1 => worker(),
        _ => std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers).map(|_| scope.spawn(worker)).collect();
            handles
                .into_iter()
                .filter_map(|handle| handle.join().expect("bit-parallel worker panicked"))
                .min_by_key(|&(i, _)| i)
        }),
    };
    if let Some((_, e)) = first_error {
        return Err(e);
    }
    Ok((bp, specs.len()))
}

/// Label state of the undirected build: one label side, plus parent
/// pointers when [`IndexBuilder::store_parents`] is set.
struct UndirectedState {
    labels: LabelVecs<Dist>,
    parents: Option<Parents>,
}

/// Buffered output of one relaxed pruned BFS: `(vertex, distance)` label
/// candidates in visit order, plus the visit/prune counters.
struct UndirectedRun {
    entries: Vec<(Rank, Dist)>,
    visited: u32,
    pruned: u32,
}

/// The undirected unweighted [`PrunedSearch`]: one pruned BFS per root,
/// pruning against the labels and the fixed bit-parallel labels.
struct UndirectedSearch<'g> {
    h: &'g CsrGraph,
    bp: &'g BitParallelLabels,
}

impl PrunedSearch for UndirectedSearch<'_> {
    type State = UndirectedState;
    type Scratch = BfsScratch;
    type Run = UndirectedRun;

    fn new_scratch(&self) -> BfsScratch {
        BfsScratch::new(self.h.num_vertices())
    }

    fn search_in_place(
        &self,
        state: &mut UndirectedState,
        r: Rank,
        ws: &mut BfsScratch,
    ) -> Result<RootCommit> {
        let mut sink = InPlace::new(r, &mut state.labels).with_parents(state.parents.as_mut());
        let (visited, pruned) = pruned_bfs(self.h, self.bp, r, ws, &mut sink)?;
        Ok(RootCommit::new(r, visited, pruned, 0))
    }

    fn search(
        &self,
        state: &UndirectedState,
        r: Rank,
        ws: &mut BfsScratch,
    ) -> Result<UndirectedRun> {
        let mut sink = Buffer::new(&state.labels);
        let (visited, pruned) = pruned_bfs(self.h, self.bp, r, ws, &mut sink)?;
        Ok(UndirectedRun {
            entries: sink.entries,
            visited,
            pruned,
        })
    }

    fn commit(
        &self,
        state: &mut UndirectedState,
        batch_first: Rank,
        r: Rank,
        run: UndirectedRun,
    ) -> Result<RootCommit> {
        let mut repruned = 0u32;
        let mut sink = InPlace::new(r, &mut state.labels);
        commit_entries(&run.entries, &mut sink, None, batch_first, &mut repruned)?;
        Ok(RootCommit::new(r, run.visited, run.pruned, repruned))
    }
}

/// The pruned BFS of Algorithm 1 from `r`, returning its `(visited,
/// pruned)` counts. Labels are read and written through `sink`: in place
/// for a one-root batch, buffered against the committed labels for an
/// in-batch relaxed search. The prune test is [`prune_test`] with the
/// temp array of §4.5 "Querying", and the scratch is reset lazily (§4.5
/// "Initialization") — also on the error path, since it is reused for the
/// next root.
fn pruned_bfs<K: LabelSink<Dist, Dist>>(
    h: &CsrGraph,
    bp: &BitParallelLabels,
    r: Rank,
    ws: &mut BfsScratch,
    sink: &mut K,
) -> Result<(u32, u32)> {
    // Slices, not the scratch's `Vec`s: the hot loops then index through
    // pointers held in registers instead of reloading each `Vec` after
    // the queue's growth calls.
    let BfsScratch {
        tentative,
        temp,
        queue,
    } = ws;
    let (tentative, temp) = (&mut tentative[..], &mut temp[..]);

    // Prepare the temp array from L(r): T[w] = d(w, r).
    let (lr, ld) = sink.label(r);
    for (&w, &d) in lr.iter().zip(ld) {
        temp[w as usize] = d;
    }
    let root_bp = bp.entries_of(r);

    queue.clear();
    queue.push(r);
    tentative[r as usize] = 0;
    sink.reach(r, RANK_SENTINEL);
    let mut head = 0usize;
    let mut visited = 0u32;
    let mut pruned = 0u32;
    let mut outcome = Ok(());

    'bfs: while head < queue.len() {
        let u = queue[head];
        head += 1;
        let d = tentative[u as usize];
        visited += 1;

        let (ur, ud) = sink.label(u);
        if prune_test(root_bp, bp.entries_of(u), ur, ud, temp, d) {
            pruned += 1;
            continue;
        }
        if let Err(e) = sink.emit(u, d) {
            outcome = Err(e);
            break;
        }

        for &w in h.neighbors(u) {
            if tentative[w as usize] == INF8 {
                if d >= MAX_DIST {
                    outcome = Err(PllError::DiameterTooLarge { root_rank: r });
                    break 'bfs;
                }
                tentative[w as usize] = d + 1;
                sink.reach(w, u);
                queue.push(w);
            }
        }
    }

    for &v in queue.iter() {
        tentative[v as usize] = INF8;
    }
    for &w in sink.label(r).0 {
        temp[w as usize] = INF8;
    }
    outcome.map(|()| (visited, pruned))
}

/// The pruning test of Algorithm 1 line 7 for a visit of `u` at distance
/// `d` from the current root: first against bit-parallel labels (§5.4) —
/// `root_bp`/`u_bp` are the root's and `u`'s BP entries, with the
/// δ̃−2 / δ̃−1 / δ̃ case analysis of §5.3 — then against normal labels via
/// the temp array (`temp[w] = d(w, root)`, §4.5 "Querying").
#[inline]
fn prune_test(
    root_bp: &[BpEntry],
    u_bp: &[BpEntry],
    u_label_ranks: &[Rank],
    u_label_dists: &[Dist],
    temp: &[Dist],
    d: Dist,
) -> bool {
    for (a, b) in root_bp.iter().zip(u_bp.iter()) {
        if a.dist == INF8 || b.dist == INF8 {
            continue;
        }
        let mut td = a.dist as u32 + b.dist as u32;
        if td.saturating_sub(2) <= d as u32 {
            if a.set_minus1 & b.set_minus1 != 0 {
                td -= 2;
            } else if (a.set_minus1 & b.set_zero) | (a.set_zero & b.set_minus1) != 0 {
                td -= 1;
            }
            if td <= d as u32 {
                return true;
            }
        }
    }
    for (idx, &w) in u_label_ranks.iter().enumerate() {
        let tw = temp[w as usize];
        if tw != INF8 && tw as u32 + u_label_dists[idx] as u32 <= d as u32 {
            return true;
        }
    }
    false
}

/// Hook into construction progress; see
/// [`IndexBuilder::build_with_observer`].
pub trait BuildObserver {
    /// Called once, after the bit-parallel phase and before the first pruned
    /// BFS.
    fn after_bp_phase(&mut self, _view: &PartialIndex<'_>) {}
    /// Called after the `k`-th pruned BFS (`k` counts from 1).
    fn after_root(&mut self, _k: usize, _stats: &RootStats, _view: &PartialIndex<'_>) {}
}

/// The do-nothing observer used by [`IndexBuilder::build`].
struct NoopObserver;
impl BuildObserver for NoopObserver {}

/// A queryable snapshot of the index mid-construction. Distances returned
/// are upper bounds that become exact once the covering root has been
/// processed (Theorem 4.1's invariant) — exactly the "covered pairs"
/// semantics of Figure 4.
pub struct PartialIndex<'a> {
    pub(crate) label_ranks: &'a [Vec<Rank>],
    pub(crate) label_dists: &'a [Vec<Dist>],
    pub(crate) bp: &'a BitParallelLabels,
    pub(crate) inv: &'a [Vertex],
}

impl<'a> PartialIndex<'a> {
    fn new(labels: &'a LabelVecs<Dist>, bp: &'a BitParallelLabels, inv: &'a [Vertex]) -> Self {
        PartialIndex {
            label_ranks: &labels.ranks,
            label_dists: &labels.dists,
            bp,
            inv,
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.label_ranks.len()
    }

    /// Current 2-hop upper bound between *original* vertices `u` and `v`
    /// (`None` = not yet covered / disconnected).
    pub fn distance(&self, u: Vertex, v: Vertex) -> Option<u32> {
        if u == v {
            return Some(0);
        }
        let (ru, rv) = (self.inv[u as usize], self.inv[v as usize]);
        let mut best = self.bp.query(ru, rv);
        let (ar, ad) = (
            &self.label_ranks[ru as usize],
            &self.label_dists[ru as usize],
        );
        let (br, bd) = (
            &self.label_ranks[rv as usize],
            &self.label_dists[rv as usize],
        );
        let (mut i, mut j) = (0usize, 0usize);
        while i < ar.len() && j < br.len() {
            if ar[i] == br[j] {
                let d = ad[i] as u32 + bd[j] as u32;
                if d < best {
                    best = d;
                }
                i += 1;
                j += 1;
            } else if ar[i] < br[j] {
                i += 1;
            } else {
                j += 1;
            }
        }
        (best != INF_QUERY).then_some(best)
    }

    /// Total label entries so far.
    pub fn total_label_entries(&self) -> usize {
        self.label_ranks.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pll_graph::gen;
    use pll_graph::traversal::bfs::BfsEngine;

    fn check_exact(g: &CsrGraph, builder: &IndexBuilder) {
        let idx = builder.build(g).unwrap();
        let n = g.num_vertices();
        let mut engine = BfsEngine::new(n);
        for s in 0..n as Vertex {
            let d = engine.run(g, s).to_vec();
            for t in 0..n as Vertex {
                let expect = (d[t as usize] != u32::MAX).then_some(d[t as usize]);
                assert_eq!(idx.distance(s, t), expect, "pair ({s}, {t})");
            }
        }
    }

    #[test]
    fn exact_on_small_graphs_no_bp() {
        let b = IndexBuilder::new().bit_parallel_roots(0);
        check_exact(&gen::path(12).unwrap(), &b);
        check_exact(&gen::cycle(9).unwrap(), &b);
        check_exact(&gen::star(15).unwrap(), &b);
        check_exact(&gen::grid(5, 6).unwrap(), &b);
        check_exact(&gen::complete(8).unwrap(), &b);
        check_exact(&gen::balanced_tree(3, 3).unwrap(), &b);
    }

    #[test]
    fn exact_on_small_graphs_with_bp() {
        let b = IndexBuilder::new().bit_parallel_roots(4);
        check_exact(&gen::path(12).unwrap(), &b);
        check_exact(&gen::grid(6, 5).unwrap(), &b);
        check_exact(&gen::erdos_renyi_gnm(80, 160, 3).unwrap(), &b);
        check_exact(&gen::barabasi_albert(90, 2, 5).unwrap(), &b);
    }

    #[test]
    fn exact_with_bp_saturation() {
        // More BP roots than vertices: everything is covered by phase 1.
        let g = gen::erdos_renyi_gnm(40, 100, 9).unwrap();
        let b = IndexBuilder::new().bit_parallel_roots(64);
        check_exact(&g, &b);
    }

    #[test]
    fn exact_on_disconnected_graph() {
        let g = CsrGraph::from_edges(7, &[(0, 1), (1, 2), (3, 4), (5, 6)]).unwrap();
        check_exact(&g, &IndexBuilder::new().bit_parallel_roots(0));
        check_exact(&g, &IndexBuilder::new().bit_parallel_roots(2));
    }

    #[test]
    fn all_orderings_give_exact_indices() {
        let g = gen::barabasi_albert(120, 3, 11).unwrap();
        for strat in [
            OrderingStrategy::Degree,
            OrderingStrategy::Random,
            OrderingStrategy::Closeness { samples: 8 },
        ] {
            let b = IndexBuilder::new().ordering(strat).bit_parallel_roots(2);
            check_exact(&g, &b);
        }
    }

    #[test]
    fn custom_order_is_respected() {
        let g = gen::path(6).unwrap();
        let order: Vec<Vertex> = vec![5, 4, 3, 2, 1, 0];
        let idx = IndexBuilder::new()
            .ordering(OrderingStrategy::Custom(order.clone()))
            .bit_parallel_roots(0)
            .build(&g)
            .unwrap();
        assert_eq!(idx.order(), &order[..]);
        assert_eq!(idx.distance(0, 5), Some(5));
    }

    #[test]
    fn parents_require_no_bp() {
        let g = gen::path(4).unwrap();
        let err = IndexBuilder::new()
            .store_parents(true)
            .bit_parallel_roots(4)
            .build(&g)
            .unwrap_err();
        assert!(matches!(err, PllError::IncompatibleOptions { .. }));
        let ok = IndexBuilder::new()
            .store_parents(true)
            .bit_parallel_roots(0)
            .build(&g)
            .unwrap();
        assert!(ok.has_parents());
    }

    #[test]
    fn diameter_overflow_is_reported() {
        let g = gen::path(300).unwrap();
        let err = IndexBuilder::new()
            .bit_parallel_roots(0)
            .build(&g)
            .unwrap_err();
        assert!(matches!(err, PllError::DiameterTooLarge { .. }));
    }

    #[test]
    fn label_budget_abort() {
        let g = gen::erdos_renyi_gnm(200, 600, 1).unwrap();
        let err = IndexBuilder::new()
            .ordering(OrderingStrategy::Random)
            .bit_parallel_roots(0)
            .abort_if_avg_label_exceeds(0.5)
            .build(&g)
            .unwrap_err();
        assert!(matches!(err, PllError::LabelBudgetExceeded { .. }));
    }

    #[test]
    fn empty_and_singleton_graphs() {
        let empty = CsrGraph::empty(0);
        let idx = IndexBuilder::new().build(&empty).unwrap();
        assert_eq!(idx.num_vertices(), 0);

        let single = CsrGraph::empty(1);
        let idx = IndexBuilder::new().build(&single).unwrap();
        assert_eq!(idx.distance(0, 0), Some(0));
    }

    #[test]
    fn observer_sees_monotone_progress() {
        struct Probe {
            roots_seen: usize,
            entries_last: usize,
            bp_called: bool,
        }
        impl BuildObserver for Probe {
            fn after_bp_phase(&mut self, view: &PartialIndex<'_>) {
                self.bp_called = true;
                assert_eq!(view.total_label_entries(), 0);
            }
            fn after_root(&mut self, k: usize, stats: &RootStats, view: &PartialIndex<'_>) {
                self.roots_seen += 1;
                assert_eq!(k, self.roots_seen);
                assert_eq!(stats.visited, stats.labeled + stats.pruned);
                let entries = view.total_label_entries();
                assert!(entries >= self.entries_last);
                self.entries_last = entries;
            }
        }
        let g = gen::barabasi_albert(80, 2, 2).unwrap();
        let mut probe = Probe {
            roots_seen: 0,
            entries_last: 0,
            bp_called: false,
        };
        let idx = IndexBuilder::new()
            .bit_parallel_roots(2)
            .build_with_observer(&g, &mut probe)
            .unwrap();
        assert!(probe.bp_called);
        assert_eq!(probe.roots_seen, idx.stats().pruned_roots);
    }

    #[test]
    fn observer_partial_distances_are_upper_bounds() {
        let g = gen::erdos_renyi_gnm(60, 140, 4).unwrap();
        struct Check<'g> {
            g: &'g CsrGraph,
        }
        impl BuildObserver for Check<'_> {
            fn after_root(&mut self, k: usize, _s: &RootStats, view: &PartialIndex<'_>) {
                if !k.is_multiple_of(10) {
                    return;
                }
                let mut engine = BfsEngine::new(self.g.num_vertices());
                for (s, t) in [(0u32, 5u32), (3, 59), (10, 20)] {
                    if let Some(ub) = view.distance(s, t) {
                        let exact = engine.distance(self.g, s, t).unwrap();
                        assert!(ub >= exact, "upper bound {ub} < exact {exact}");
                    }
                }
            }
        }
        IndexBuilder::new()
            .bit_parallel_roots(0)
            .build_with_observer(&g, &mut Check { g: &g })
            .unwrap();
    }

    #[test]
    fn stats_are_populated() {
        let g = gen::barabasi_albert(150, 3, 8).unwrap();
        let idx = IndexBuilder::new()
            .bit_parallel_roots(4)
            .record_root_stats(true)
            .build(&g)
            .unwrap();
        let s = idx.stats();
        assert_eq!(s.bp_roots_used, 4);
        assert!(s.pruned_roots > 0);
        assert_eq!(
            s.per_root.as_ref().unwrap().len(),
            s.pruned_roots,
            "one record per pruned root"
        );
        assert_eq!(s.total_visited, s.total_labeled + s.total_pruned);
        assert!(s.total_seconds() >= 0.0);
    }
}
