//! Batch-parallel index construction with deterministic, sequential-equal
//! output — for **all four** graph variants.
//!
//! The paper's Algorithm 1 is inherently sequential: one pruned search per
//! vertex, in rank order, each relying on the labels of every earlier
//! root. Follow-up work (notably the PSL labelling of Li et al., *"A
//! Highly Scalable Labelling Approach for Exact Distance Queries in
//! Complex Networks"*) observed that the rank-order dependency can be
//! relaxed: searches whose roots are *adjacent in rank* barely prune each
//! other, so they can run concurrently as long as the result is fixed up
//! to match the canonical labeling. This module implements that idea as a
//! variant-generic batched root-parallel substrate:
//!
//! 1. **Batching.** Remaining roots are processed in rank-ordered batches.
//!    The first few roots run in singleton batches (they are the
//!    high-degree hubs whose labels do nearly all later pruning, and their
//!    searches would pollute each other); batch capacity then grows
//!    geometrically up to a multiple of the thread count.
//! 2. **Concurrent relaxed searches.** Each batch's pruned searches run on
//!    worker threads (std scoped threads; roots are pulled from a shared
//!    atomic cursor so slow roots don't straggle a static partition). A
//!    worker owns thread-local lazily-reset scratch (§4.5) and runs the
//!    variant's per-root search — one pruned BFS for the undirected
//!    unweighted index, a forward/backward pruned BFS *pair* for the
//!    directed index, a pruned Dijkstra with a thread-local binary heap
//!    for the weighted index, and a forward/backward pruned Dijkstra pair
//!    for the weighted directed index. The search prunes against the
//!    *committed* labels (all batches before this one) and **buffers** its
//!    would-be label entries instead of publishing them.
//! 3. **Rank-order commit + re-prune.** At the batch barrier the buffered
//!    entries are committed strictly in rank order. An in-batch search
//!    from root `r` could not see labels produced by same-batch roots
//!    `x < r`, so it may have buffered entries the sequential build would
//!    have pruned. Before appending an entry `(r, u, d)`, a merge-join
//!    over the *fresh* (same-batch, already-committed) suffixes of the two
//!    relevant labels checks for a hub `x` with `d(x→u) + d(r→x) ≤ d`
//!    (sides oriented per variant); certified entries are dropped.
//!    Per-thread visit counters are merged into [`ConstructionStats`] at
//!    the same barrier.
//!
//! The pruned searches are not the only parallel piece: Phase 0 and the
//! final flatten ride the same thread count, so the parallel build has no
//! sequential Amdahl floor beyond the per-root commits. The ordering fans
//! out over the workers ([`crate::order::compute_order_threaded`]: chunked
//! degree-key extraction + chunk sort + k-way merge, or the sampled
//! closeness BFSs one-per-worker), the relabelling translates disjoint
//! rank chunks after a checked sequential prefix sum
//! ([`pll_graph::reorder::apply_order_threaded`]), and the flatten copies
//! label chunks into disjoint arena slices ([`LabelSet`]`::from_vecs`).
//! Each of those is *output-identical* at any thread count (total
//! comparators, associative `u64` reductions, disjoint writes), so the
//! byte-identical guarantee below is preserved end to end.
//!
//! The bit-parallel phase fans its `t` BFSs out the same way: each worker
//! runs `bp::level_sync_bfs` into its own `BpScratch` and commits the slot
//! straight into the shared arena of 17-byte `BpEntry`s under a lock.
//! Slots are disjoint, so the arena is identical whatever the commit
//! order, and no per-root column is ever buffered: the phase peaks at the
//! arena plus one scratch (17 B per vertex) per worker, as the sequential
//! build does with one.
//!
//! The mechanics above — batching, fan-out, commit discipline — are shared
//! across variants through the [`PrunedSearch`] trait and the
//! [`run_batched`] driver; each variant contributes only its relaxed
//! per-root search and its commit-time re-prune. The undirected
//! implementation lives here; the directed, weighted and weighted-directed
//! implementations live with their sequential builders in
//! [`crate::directed`], [`crate::weighted`] and
//! [`crate::weighted_directed`].
//!
//! # Why the output is byte-identical to the sequential build
//!
//! The pruned labeling is *canonical*: whether `(r, u, d(r,u))` is in the
//! label set depends only on the vertex order, through the recursive (in
//! rank) characterisation — `(r, u)` is labeled iff the bit-parallel bound
//! does not certify `d(r,u)` and no hub `x < r` with `(x,r)` and `(x,u)`
//! both labeled has `d(x,u) + d(x,r) ≤ d(r,u)`. Relative to the
//! sequential run, an in-batch search only *weakens* pruning (it misses
//! same-batch certificates), so it buffers a superset of the sequential
//! entries with identical distances. The commit-time re-prune applies
//! exactly the missing same-batch certificates, in rank order, against
//! already-canonical earlier labels — restoring the characterisation
//! batch by batch, by induction. Two standard lemmas close the argument
//! for vertices the sequential search never visited: certificates
//! propagate down shortest paths (if `x` certifies a cut ancestor of `u'`,
//! it certifies `u'`), and for the minimal-rank true-distance certificate
//! `x`, either `x` labels both endpoints or a bit-parallel root already
//! certifies the pair — so every extra visit is caught by the search's own
//! BP/committed-label tests or by the re-prune join. Both lemmas use only
//! the (directed) triangle inequality and the 2-hop cover invariant, so
//! the argument carries verbatim to the directed variants (with the two
//! label sides oriented along the search direction) and to the weighted
//! variants (with additive edge weights and settle-time pruning).
//!
//! Two deliberate deviations from bit-exactness, both documented on
//! [`IndexBuilder::threads`]: graphs whose pruned searches would exceed
//! the 8-bit distance ceiling can surface [`PllError::DiameterTooLarge`]
//! on a root the sequential build would have pruned short of the ceiling
//! (the error is still correct — such graphs need the weighted index),
//! and `abort_after_seconds` triggers at batch rather than root
//! granularity. `abort_if_avg_label_exceeds` fires at exactly the same
//! root as the sequential build, because committed totals match after
//! every root. The weighted variants have no such caveat: their searches
//! accumulate distances in 64-bit scratch and the `u32` label-overflow
//! check runs at *commit* time on entries that survive the re-prune —
//! exactly the entries the sequential build labels — so
//! [`PllError::WeightedDistanceOverflow`] fires iff the sequential build
//! fires it.

use crate::bp::{level_sync_bfs, select_bp_roots, BitParallelLabels, BpScratch};
use crate::build::{prune_test, BuildObserver, IndexBuilder, PartialIndex};
use crate::error::{PllError, Result};
use crate::index::PllIndex;
use crate::label::LabelSet;
use crate::order::compute_order_threaded;
use crate::stats::{ConstructionStats, RootStats};
use crate::types::{Dist, Rank, INF8, MAX_DIST};
use pll_graph::reorder::{apply_order_threaded, inverse_permutation};
use pll_graph::CsrGraph;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// Number of leading pruned-search roots processed in singleton batches.
/// The head of the order is the set of hubs whose labels do nearly all
/// later pruning; running them concurrently would buffer (and then
/// re-prune) label entries for a large fraction of the graph per root.
const SEQUENTIAL_HEAD_ROOTS: usize = 32;

/// Batch capacity cap, as a multiple of the thread count. Large batches
/// amortise the barrier; too-large batches weaken in-batch pruning and
/// inflate the re-prune pass.
const MAX_BATCH_PER_THREAD: usize = 32;

/// Resolves the user-facing thread knob: `0` means one thread per
/// available CPU; other values are clamped to [`max_threads`]. The output
/// is identical at any thread count, so clamping never changes results —
/// it only bounds the per-thread scratch allocation (O(n) bytes each) and
/// spawn count that an absurd request would otherwise attempt.
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism().map_or(1, |p| p.get())
    } else {
        requested.min(max_threads())
    }
}

/// Upper bound on worker threads: four per available CPU (oversubscription
/// beyond that only adds scheduler churn), and never below 16 so
/// determinism tests can exercise multi-worker schedules on small hosts.
pub fn max_threads() -> usize {
    std::thread::available_parallelism().map_or(16, |p| p.get().saturating_mul(4).max(16))
}

/// One graph variant's contribution to the batch-parallel substrate: a
/// relaxed per-root pruned search plus its commit-time re-prune.
///
/// The [`run_batched`] driver owns everything else — rank-ordered
/// batching with a sequential head, the worker fan-out over scoped
/// threads, the thread-local scratch pool, and the strict rank-order
/// commit at each batch barrier. An implementation must uphold two
/// contracts for the driver's sequential-identical guarantee to hold:
///
/// * [`search`](PrunedSearch::search) reads **only** committed label
///   state (plus immutable per-variant context such as the rank-space
///   graph) and buffers its label candidates into the returned
///   [`Run`](PrunedSearch::Run) instead of publishing them. It must visit
///   a superset of the sequential search's labeled vertices, at identical
///   distances — which relaxing the prune tests (by missing same-batch
///   hubs) guarantees for the pruned BFS/Dijkstra family.
/// * [`commit`](PrunedSearch::commit) appends the run's surviving entries
///   to the label state exactly as the sequential build would, dropping
///   every entry certified by a same-batch hub `x` with
///   `batch_first ≤ x < r` (see [`fresh_certificate`]), and returns the
///   root's counters; the driver folds them into [`ConstructionStats`]
///   (`pruned_roots`, `total_visited`, `total_labeled`, `total_pruned`,
///   `repruned`), so no implementation touches the totals itself.
///
/// Invoked in rank order, the two methods therefore reproduce the
/// sequential recursion batch by batch; see the module docs for the full
/// determinism argument.
pub trait PrunedSearch: Sync {
    /// Committed label state: read (shared) by in-flight searches, written
    /// only at the batch barrier by [`commit`](PrunedSearch::commit).
    type State: Sync;
    /// Thread-local scratch (tentative/temp arrays, queue or heap),
    /// allocated once per worker and lazily reset between roots (§4.5).
    type Scratch: Send;
    /// Buffered output of one root's search(es): label candidates in
    /// visit order plus visit/prune counters.
    type Run: Send;

    /// Allocates one worker's scratch.
    fn new_scratch(&self) -> Self::Scratch;

    /// Runs the relaxed pruned search(es) from `r` against the committed
    /// state, buffering label candidates into the returned run.
    fn search(
        &self,
        state: &Self::State,
        r: Rank,
        scratch: &mut Self::Scratch,
    ) -> Result<Self::Run>;

    /// Commits `run` at the batch barrier: re-prunes each buffered entry
    /// against the same-batch hubs in `batch_first..r` and appends the
    /// survivors in the sequential build's order. Returns the root's
    /// counters; the driver folds them into [`ConstructionStats`].
    fn commit(
        &self,
        state: &mut Self::State,
        batch_first: Rank,
        r: Rank,
        run: Self::Run,
    ) -> Result<RootCommit>;
}

/// Per-root outcome of a [`PrunedSearch::commit`], folded into
/// [`ConstructionStats`] by the [`run_batched`] driver.
pub struct RootCommit {
    /// The root's visit/label/prune counters (`pruned` already includes
    /// the commit-time `repruned` entries, preserving
    /// `visited = labeled + pruned`).
    pub stats: RootStats,
    /// Entries buffered by the relaxed search but removed by the
    /// commit-time re-prune (also counted inside `stats.pruned`).
    pub repruned: u32,
}

/// The variant-generic batch-parallel driver: processes `roots` (already
/// in rank order) in growing batches, fanning each batch's searches out
/// over `threads` workers and committing results in rank order at the
/// batch barrier.
///
/// `after_commit` runs after every root's commit with the committed state
/// and that root's stats — the undirected path uses it for build
/// observers and the label-budget abort; an `Err` aborts construction.
/// `abort_seconds` is checked at batch granularity against the driver's
/// own start time.
pub fn run_batched<S: PrunedSearch>(
    search: &S,
    state: &mut S::State,
    roots: &[Rank],
    threads: usize,
    stats: &mut ConstructionStats,
    abort_seconds: Option<f64>,
    mut after_commit: impl FnMut(&S::State, &RootStats, &mut ConstructionStats) -> Result<()>,
) -> Result<()> {
    let started = Instant::now();
    let mut scratches: Vec<S::Scratch> = (0..threads).map(|_| search.new_scratch()).collect();

    let mut pos = 0usize;
    let mut batch_cap = threads;
    while pos < roots.len() {
        let cap = if pos < SEQUENTIAL_HEAD_ROOTS {
            1
        } else {
            batch_cap
        };
        let batch = &roots[pos..(pos + cap).min(roots.len())];
        let batch_first = batch[0];

        // Fan out: workers pull roots from the shared cursor and buffer
        // their label candidates against the committed (pre-batch) state.
        let workers = threads.min(batch.len());
        let cursor = AtomicUsize::new(0);
        let worker_outputs: Vec<Vec<(usize, Result<S::Run>)>> = std::thread::scope(|scope| {
            let cursor = &cursor;
            let state: &S::State = state;
            let handles: Vec<_> = scratches
                .iter_mut()
                .take(workers)
                .map(|ws| {
                    scope.spawn(move || {
                        let mut out = Vec::new();
                        loop {
                            // ORDERING: Relaxed — work-stealing cursor;
                            // fetch_add is already atomic, and the scope
                            // join below orders the results.
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            if i >= batch.len() {
                                break;
                            }
                            out.push((i, search.search(state, batch[i], ws)));
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|handle| handle.join().expect("pruned-search worker panicked"))
                .collect()
        });
        let mut runs: Vec<Option<Result<S::Run>>> = (0..batch.len()).map(|_| None).collect();
        for (i, run) in worker_outputs.into_iter().flatten() {
            runs[i] = Some(run);
        }

        // Barrier: commit in rank order, re-pruning each entry against the
        // same-batch hubs its search could not see. Errors are surfaced
        // for the lowest-ranked failing root, like the sequential build.
        for (k, run) in runs.into_iter().enumerate() {
            let r = batch[k];
            let run = run.expect("every batch slot is claimed by exactly one worker")?;
            let committed = search.commit(state, batch_first, r, run)?;
            stats.pruned_roots += 1;
            stats.total_visited += committed.stats.visited as u64;
            stats.total_labeled += committed.stats.labeled as u64;
            stats.total_pruned += committed.stats.pruned as u64;
            stats.repruned += committed.repruned as u64;
            after_commit(state, &committed.stats, stats)?;
        }
        stats.parallel_batches += 1;

        if let Some(seconds) = abort_seconds {
            if started.elapsed().as_secs_f64() > seconds {
                return Err(PllError::TimeBudgetExceeded { seconds });
            }
        }

        pos += batch.len();
        if pos >= SEQUENTIAL_HEAD_ROOTS {
            batch_cap = (batch_cap * 2).min(threads * MAX_BATCH_PER_THREAD);
        }
    }
    Ok(())
}

/// The commit-time re-prune test for a buffered entry `(r, u, d)`: is
/// there a hub `x` from this batch (`batch_first ≤ x < r`) present in
/// both labels with `dist_u(x) + dist_r(x) ≤ d`? `(lu, du)` is the label
/// that receives the entry (the one of `u`, on the side being filled) and
/// `(lr, dr)` the root-side label of `r`; for undirected variants the two
/// sides coincide. Labels are sorted by rank, so the fresh suffixes start
/// at `partition_point` and a short merge-join decides it. Hubs
/// `< batch_first` were already applied by the search's own prune test
/// against the committed labels. Distances are compared in `u64`, which
/// both the 8-bit unweighted and 32-bit weighted label distances embed
/// into losslessly.
pub fn fresh_certificate<D: Copy + Into<u64>>(
    lu: &[Rank],
    du: &[D],
    lr: &[Rank],
    dr: &[D],
    batch_first: Rank,
    r: Rank,
    d: u64,
) -> bool {
    let mut i = lu.partition_point(|&x| x < batch_first);
    let mut j = lr.partition_point(|&x| x < batch_first);
    while i < lu.len() && j < lr.len() {
        let (a, b) = (lu[i], lr[j]);
        if a >= r || b >= r {
            break;
        }
        if a == b {
            if du[i].into() + dr[j].into() <= d {
                return true;
            }
            i += 1;
            j += 1;
        } else if a < b {
            i += 1;
        } else {
            j += 1;
        }
    }
    false
}

/// A borrowed label side: per-vertex rank and distance vectors.
pub(crate) type LabelSideRef<'a, D> = (&'a [Vec<Rank>], &'a [Vec<D>]);

/// Commits one label side's buffered entries for root `r`: each `(u, d)`
/// is dropped if a same-batch hub certifies it ([`fresh_certificate`]
/// over the fill-side label of `u` and the root-side label of `r`),
/// otherwise converted by `convert` (identity for 8-bit BFS distances;
/// the `u32` overflow check for the weighted variants) and appended to
/// `u`'s fill-side label. `root_side` is `None` when the root-side label
/// lives in the same (mutably borrowed) arrays as the fill side — the
/// single-label undirected/weighted variants — and `Some` for the
/// two-sided directed variants. Increments `labeled`/`repruned` so the
/// caller can fold both sides of a root into one [`RootCommit`].
///
/// Shared by every [`PrunedSearch::commit`] implementation so the
/// re-prune/append discipline cannot drift between variants.
#[allow(clippy::too_many_arguments)]
pub(crate) fn commit_entries<D, E>(
    entries: &[(Rank, E)],
    fill_ranks: &mut [Vec<Rank>],
    fill_dists: &mut [Vec<D>],
    root_side: Option<LabelSideRef<'_, D>>,
    batch_first: Rank,
    r: Rank,
    convert: impl Fn(u64) -> Result<D>,
    labeled: &mut u32,
    repruned: &mut u32,
) -> Result<()>
where
    D: Copy + Into<u64>,
    E: Copy + Into<u64>,
{
    for &(u, d) in entries {
        let d: u64 = d.into();
        let certified = {
            let (rr, rd) = match root_side {
                Some((rr, rd)) => (&rr[r as usize], &rd[r as usize]),
                // Entries this loop already appended to the root's own
                // label all carry rank `r` itself, which the merge-join's
                // `x < r` window excludes — reading the live label is
                // equivalent to a pre-loop snapshot.
                None => (&fill_ranks[r as usize], &fill_dists[r as usize]),
            };
            fresh_certificate(
                &fill_ranks[u as usize],
                &fill_dists[u as usize],
                rr,
                rd,
                batch_first,
                r,
                d,
            )
        };
        if certified {
            *repruned += 1;
            continue;
        }
        fill_ranks[u as usize].push(r);
        fill_dists[u as usize].push(convert(d)?);
        *labeled += 1;
    }
    Ok(())
}

/// Per-worker scratch for relaxed pruned BFSs: the 8-bit tentative (`P`)
/// and temp (`T`) arrays of §4.5, reset lazily between roots, plus the
/// reusable queue. Shared by the undirected and directed BFS variants.
pub(crate) struct BfsScratch {
    pub(crate) tentative: Vec<Dist>,
    pub(crate) temp: Vec<Dist>,
    pub(crate) queue: Vec<Rank>,
}

impl BfsScratch {
    pub(crate) fn new(n: usize) -> Self {
        BfsScratch {
            tentative: vec![INF8; n],
            temp: vec![INF8; n],
            queue: Vec::new(),
        }
    }
}

/// Per-worker scratch for relaxed pruned Dijkstra searches: 64-bit
/// tentative/temp arrays (weighted distances accumulate in `u64` before
/// the `u32` label check), the touched-vertex list driving the lazy
/// reset, and a reusable binary heap. Shared by the weighted and
/// weighted-directed Dijkstra variants.
pub(crate) struct DijkstraScratch {
    pub(crate) tentative: Vec<u64>,
    pub(crate) temp: Vec<u64>,
    pub(crate) touched: Vec<Rank>,
    pub(crate) heap: std::collections::BinaryHeap<std::cmp::Reverse<(u64, Rank)>>,
}

impl DijkstraScratch {
    pub(crate) fn new(n: usize) -> Self {
        DijkstraScratch {
            tentative: vec![pll_graph::INF_U64; n],
            temp: vec![pll_graph::INF_U64; n],
            touched: Vec::new(),
            heap: std::collections::BinaryHeap::new(),
        }
    }
}

/// Output of one relaxed pruned BFS: buffered `(vertex, distance)` label
/// candidates in visit order, plus the visit/prune counters.
struct RootRun {
    entries: Vec<(Rank, Dist)>,
    visited: u32,
    pruned: u32,
}

/// Committed label state of the undirected build (one label side).
struct UndirectedState {
    label_ranks: Vec<Vec<Rank>>,
    label_dists: Vec<Vec<Dist>>,
}

/// The undirected unweighted [`PrunedSearch`]: one relaxed pruned BFS per
/// root, pruning against committed labels and the fixed bit-parallel
/// labels.
struct UndirectedSearch<'g> {
    h: &'g CsrGraph,
    bp: &'g BitParallelLabels,
}

impl PrunedSearch for UndirectedSearch<'_> {
    type State = UndirectedState;
    type Scratch = BfsScratch;
    type Run = RootRun;

    fn new_scratch(&self) -> BfsScratch {
        BfsScratch::new(self.h.num_vertices())
    }

    fn search(&self, state: &UndirectedState, r: Rank, ws: &mut BfsScratch) -> Result<RootRun> {
        relaxed_pruned_bfs(
            self.h,
            self.bp,
            &state.label_ranks,
            &state.label_dists,
            r,
            ws,
        )
    }

    fn commit(
        &self,
        state: &mut UndirectedState,
        batch_first: Rank,
        r: Rank,
        run: RootRun,
    ) -> Result<RootCommit> {
        let mut labeled = 0u32;
        let mut repruned = 0u32;
        commit_entries(
            &run.entries,
            &mut state.label_ranks,
            &mut state.label_dists,
            None,
            batch_first,
            r,
            |d| Ok(d as Dist),
            &mut labeled,
            &mut repruned,
        )?;
        Ok(RootCommit {
            stats: RootStats {
                rank: r,
                visited: run.visited,
                labeled,
                pruned: run.pruned + repruned,
            },
            repruned,
        })
    }
}

/// The batch-parallel construction path behind
/// [`IndexBuilder::threads`]`(k)` for `k > 1`. `threads` is already
/// resolved (> 1) and `store_parents` has been rejected by the caller.
pub(crate) fn build_parallel(
    builder: &IndexBuilder,
    g: &CsrGraph,
    observer: &mut dyn BuildObserver,
    threads: usize,
) -> Result<PllIndex> {
    let n = g.num_vertices();
    if n > u32::MAX as usize - 1 {
        return Err(PllError::Graph(pll_graph::GraphError::TooLarge {
            what: "vertex count",
        }));
    }

    // Phase 0: ordering + relabelling, output-identical to the
    // sequential path but fanned out over the workers (parallel degree
    // key extraction / chunk sort / closeness BFS sampling, then the
    // two-pass chunked relabelling).
    let t0 = Instant::now();
    let order = compute_order_threaded(g, &builder.ordering, builder.seed, threads)?;
    let order_seconds = t0.elapsed().as_secs_f64();
    let tr = Instant::now();
    let inv = inverse_permutation(&order);
    let h = apply_order_threaded(g, &order, threads)?; // rank-space graph
    let relabel_seconds = tr.elapsed().as_secs_f64();

    let mut stats = ConstructionStats {
        order_seconds,
        relabel_seconds,
        threads,
        per_root: builder.record_root_stats.then(Vec::new),
        ..Default::default()
    };

    let mut usd = vec![false; n];

    // Phase 1: bit-parallel BFSs. Root/neighbour selection is sequential
    // (it only manipulates `usd`); the BFSs fan out over the workers, each
    // with its own BpScratch, and each worker commits its slot straight
    // into the arena under a lock. Slots are disjoint, so commit order
    // cannot change a byte; the lowest failing slot's error is returned,
    // exactly the one the sequential build stops at.
    let t1 = Instant::now();
    let t = builder.bp_roots;
    let specs = select_bp_roots(&h, &mut usd, t);
    let mut bp = BitParallelLabels::new(n, t);
    if !specs.is_empty() {
        let workers = threads.min(specs.len());
        let cursor = AtomicUsize::new(0);
        let arena = Mutex::new(&mut bp);
        let first_error = std::thread::scope(|scope| {
            let (cursor, arena, specs, h) = (&cursor, &arena, &specs, &h);
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(move || {
                        let mut scratch = BpScratch::new(n);
                        loop {
                            // ORDERING: Relaxed — work-stealing cursor,
                            // as above; scope join orders the results.
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            let (root, sub) = specs.get(i)?;
                            // Slots are claimed in increasing order, so
                            // every lower slot is already on some worker
                            // and every later one here would rank higher:
                            // stop at this worker's first error.
                            if let Err(e) = level_sync_bfs(h, *root, sub, &mut scratch) {
                                return Some((i, e));
                            }
                            arena
                                .lock()
                                .unwrap_or_else(PoisonError::into_inner)
                                .commit_root(i, *root, &scratch);
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .filter_map(|handle| handle.join().expect("bit-parallel worker panicked"))
                .min_by_key(|&(i, _)| i)
        });
        if let Some((_, e)) = first_error {
            return Err(e);
        }
        stats.bp_roots_used = specs.len();
    }
    stats.bp_seconds = t1.elapsed().as_secs_f64();

    // Phase 2: batch-parallel pruned BFSs over the generic driver.
    let t2 = Instant::now();
    let label_budget_entries = builder
        .abort_avg_label
        .map(|b| (b * n as f64).ceil() as u64);

    let mut state = UndirectedState {
        label_ranks: vec![Vec::new(); n],
        label_dists: vec![Vec::new(); n],
    };
    observer.after_bp_phase(&PartialIndex {
        label_ranks: &state.label_ranks,
        label_dists: &state.label_dists,
        bp: &bp,
        inv: &inv,
    });

    let roots: Vec<Rank> = (0..n as Rank).filter(|&r| !usd[r as usize]).collect();
    let search = UndirectedSearch { h: &h, bp: &bp };
    run_batched(
        &search,
        &mut state,
        &roots,
        threads,
        &mut stats,
        builder.abort_seconds,
        |st, root_stats, stats| {
            if let Some(per_root) = &mut stats.per_root {
                per_root.push(*root_stats);
            }
            observer.after_root(
                stats.pruned_roots,
                root_stats,
                &PartialIndex {
                    label_ranks: &st.label_ranks,
                    label_dists: &st.label_dists,
                    bp: &bp,
                    inv: &inv,
                },
            );
            if let Some(budget) = label_budget_entries {
                if stats.total_labeled > budget {
                    return Err(PllError::LabelBudgetExceeded {
                        budget: builder.abort_avg_label.unwrap_or_default(),
                    });
                }
            }
            Ok(())
        },
    )?;
    stats.pruned_seconds = t2.elapsed().as_secs_f64();

    let tf = Instant::now();
    let labels = LabelSet::from_vecs(&state.label_ranks, &state.label_dists, None, threads)?;
    stats.flatten_seconds = tf.elapsed().as_secs_f64();
    Ok(PllIndex::from_parts(order, inv, labels, bp, stats))
}

/// One pruned BFS from `r` against the committed label state, buffering
/// label candidates instead of publishing them. Identical to the
/// sequential inner loop of Algorithm 1 except that label writes go to the
/// returned buffer — the pruning predicate is literally shared
/// ([`prune_test`]) and the lazy scratch resets match §4.5 exactly.
fn relaxed_pruned_bfs(
    h: &CsrGraph,
    bp: &BitParallelLabels,
    label_ranks: &[Vec<Rank>],
    label_dists: &[Vec<Dist>],
    r: Rank,
    ws: &mut BfsScratch,
) -> Result<RootRun> {
    // Prepare the temp array from the committed L(r): T[w] = d(w, r).
    {
        let lr = &label_ranks[r as usize];
        let ld = &label_dists[r as usize];
        for (idx, &w) in lr.iter().enumerate() {
            ws.temp[w as usize] = ld[idx];
        }
    }
    let root_bp = bp.entries_of(r);

    ws.queue.clear();
    ws.queue.push(r);
    ws.tentative[r as usize] = 0;
    let mut head = 0usize;
    let mut visited = 0u32;
    let mut pruned = 0u32;
    let mut entries: Vec<(Rank, Dist)> = Vec::new();
    let mut error = None;

    'bfs: while head < ws.queue.len() {
        let u = ws.queue[head];
        head += 1;
        let d = ws.tentative[u as usize];
        visited += 1;

        let prune = prune_test(
            root_bp,
            bp.entries_of(u),
            &label_ranks[u as usize],
            &label_dists[u as usize],
            &ws.temp,
            d,
        );
        if prune {
            pruned += 1;
            continue;
        }

        entries.push((u, d));

        for &w in h.neighbors(u) {
            if ws.tentative[w as usize] == INF8 {
                if d >= MAX_DIST {
                    error = Some(PllError::DiameterTooLarge { root_rank: r });
                    break 'bfs;
                }
                ws.tentative[w as usize] = d + 1;
                ws.queue.push(w);
            }
        }
    }

    // Lazy reset of the touched entries (§4.5 "Initialization") — also on
    // the error path, since the scratch is reused for the next root.
    for &v in &ws.queue {
        ws.tentative[v as usize] = INF8;
    }
    for &w in label_ranks[r as usize].iter() {
        ws.temp[w as usize] = INF8;
    }

    match error {
        Some(e) => Err(e),
        None => Ok(RootRun {
            entries,
            visited,
            pruned,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::order::OrderingStrategy;
    use pll_graph::gen;

    fn assert_equal_builds(g: &CsrGraph, base: IndexBuilder) {
        let seq = base.clone().threads(1).build(g).unwrap();
        for k in [2usize, 3, 4, 8] {
            let par = base.clone().threads(k).build(g).unwrap();
            assert_eq!(
                seq.labels(),
                par.labels(),
                "LabelSet diverged at threads={k}"
            );
            assert_eq!(
                seq.bit_parallel(),
                par.bit_parallel(),
                "BP labels diverged at threads={k}"
            );
            assert_eq!(seq.order(), par.order(), "order diverged at threads={k}");
            assert_eq!(par.stats().threads, k);
            assert!(par.stats().parallel_batches > 0);
        }
    }

    #[test]
    fn parallel_equals_sequential_on_models() {
        for seed in [1u64, 7, 23] {
            assert_equal_builds(
                &gen::barabasi_albert(600, 3, seed).unwrap(),
                IndexBuilder::new().bit_parallel_roots(4),
            );
            assert_equal_builds(
                &gen::erdos_renyi_gnm(400, 1200, seed).unwrap(),
                IndexBuilder::new().bit_parallel_roots(2),
            );
            assert_equal_builds(
                &gen::forest_fire(300, 0.3, seed).unwrap(),
                IndexBuilder::new().bit_parallel_roots(0),
            );
        }
    }

    #[test]
    fn parallel_equals_sequential_across_orderings() {
        let g = gen::barabasi_albert(400, 2, 11).unwrap();
        for strat in [
            OrderingStrategy::Degree,
            OrderingStrategy::Random,
            OrderingStrategy::Closeness { samples: 8 },
        ] {
            assert_equal_builds(
                &g,
                IndexBuilder::new().ordering(strat).bit_parallel_roots(2),
            );
        }
    }

    #[test]
    fn parallel_on_disconnected_and_tiny_graphs() {
        let g = CsrGraph::from_edges(7, &[(0, 1), (1, 2), (3, 4), (5, 6)]).unwrap();
        assert_equal_builds(&g, IndexBuilder::new().bit_parallel_roots(0));
        assert_equal_builds(&g, IndexBuilder::new().bit_parallel_roots(2));

        let empty = CsrGraph::empty(0);
        let idx = IndexBuilder::new().threads(4).build(&empty).unwrap();
        assert_eq!(idx.num_vertices(), 0);

        let single = CsrGraph::empty(1);
        let idx = IndexBuilder::new().threads(4).build(&single).unwrap();
        assert_eq!(idx.distance(0, 0), Some(0));
    }

    #[test]
    fn parallel_is_exact() {
        use pll_graph::traversal::bfs::BfsEngine;
        let g = gen::erdos_renyi_gnm(150, 400, 5).unwrap();
        let idx = IndexBuilder::new()
            .bit_parallel_roots(2)
            .threads(4)
            .build(&g)
            .unwrap();
        let n = g.num_vertices();
        let mut engine = BfsEngine::new(n);
        for s in 0..n as Rank {
            let d = engine.run(&g, s).to_vec();
            for t in 0..n as Rank {
                let expect = (d[t as usize] != u32::MAX).then_some(d[t as usize]);
                assert_eq!(idx.distance(s, t), expect, "pair ({s}, {t})");
            }
        }
    }

    #[test]
    fn parallel_stats_are_consistent() {
        let g = gen::barabasi_albert(500, 3, 9).unwrap();
        let par = IndexBuilder::new()
            .bit_parallel_roots(4)
            .threads(4)
            .record_root_stats(true)
            .build(&g)
            .unwrap();
        let s = par.stats();
        assert_eq!(s.threads, 4);
        assert_eq!(s.bp_roots_used, 4);
        assert!(s.parallel_batches > 0);
        assert_eq!(s.total_visited, s.total_labeled + s.total_pruned);
        assert_eq!(s.per_root.as_ref().unwrap().len(), s.pruned_roots);
        for rs in s.per_root.as_ref().unwrap() {
            assert_eq!(rs.visited, rs.labeled + rs.pruned);
        }
        // The committed label volume matches the sequential build exactly.
        let seq = IndexBuilder::new().bit_parallel_roots(4).build(&g).unwrap();
        assert_eq!(s.total_labeled, seq.stats().total_labeled);
    }

    #[test]
    fn parallel_rejects_parent_tracking() {
        let g = gen::path(6).unwrap();
        for threads in [2usize, 0] {
            // threads(0) must fail on every host, even one whose single
            // CPU would resolve "auto" to the sequential path.
            let err = IndexBuilder::new()
                .bit_parallel_roots(0)
                .store_parents(true)
                .threads(threads)
                .build(&g)
                .unwrap_err();
            assert!(
                matches!(err, PllError::IncompatibleOptions { .. }),
                "threads({threads})"
            );
        }
    }

    #[test]
    fn parallel_label_budget_aborts_like_sequential() {
        let g = gen::erdos_renyi_gnm(200, 600, 1).unwrap();
        let err = IndexBuilder::new()
            .ordering(OrderingStrategy::Random)
            .bit_parallel_roots(0)
            .abort_if_avg_label_exceeds(0.5)
            .threads(4)
            .build(&g)
            .unwrap_err();
        assert!(matches!(err, PllError::LabelBudgetExceeded { .. }));
    }

    #[test]
    fn parallel_observer_sees_rank_ordered_commits() {
        struct Probe {
            last_rank: Option<Rank>,
            roots_seen: usize,
        }
        impl BuildObserver for Probe {
            fn after_root(&mut self, k: usize, stats: &RootStats, _view: &PartialIndex<'_>) {
                self.roots_seen += 1;
                assert_eq!(k, self.roots_seen);
                if let Some(last) = self.last_rank {
                    assert!(stats.rank > last, "commits must be rank-ordered");
                }
                self.last_rank = Some(stats.rank);
            }
        }
        let g = gen::barabasi_albert(300, 2, 4).unwrap();
        let mut probe = Probe {
            last_rank: None,
            roots_seen: 0,
        };
        let idx = IndexBuilder::new()
            .bit_parallel_roots(2)
            .threads(4)
            .build_with_observer(&g, &mut probe)
            .unwrap();
        assert_eq!(probe.roots_seen, idx.stats().pruned_roots);
    }

    #[test]
    fn resolve_threads_auto_detects_and_clamps() {
        assert_eq!(resolve_threads(1), 1);
        assert_eq!(resolve_threads(7), 7);
        assert!(resolve_threads(0) >= 1);
        assert!(resolve_threads(usize::MAX) <= max_threads());
        assert!(max_threads() >= 16);
    }

    #[test]
    fn fresh_certificate_respects_batch_window() {
        // u's label: hubs 2 (d=1), 5 (d=1); r's label: hubs 2 (d=1), 5 (d=2).
        let lu = vec![2u32, 5];
        let du = vec![1u8, 1];
        let lr = vec![2u32, 5];
        let dr = vec![1u8, 2];
        // Hub 2 certifies d=2 when the batch window includes it...
        assert!(fresh_certificate(&lu, &du, &lr, &dr, 0, 10, 2));
        // ...but not when the window starts after it (hub 5 needs d ≥ 3).
        assert!(!fresh_certificate(&lu, &du, &lr, &dr, 3, 10, 2));
        assert!(fresh_certificate(&lu, &du, &lr, &dr, 3, 10, 3));
        // Hubs at or above the committing root never certify.
        assert!(!fresh_certificate(&lu, &du, &lr, &dr, 0, 2, 9));
    }
}
