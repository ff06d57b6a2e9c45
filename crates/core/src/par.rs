//! Batch-parallel index construction with deterministic output — the one
//! search driver of **all four** graph variants, at every thread count.
//!
//! The paper's Algorithm 1 is inherently sequential: one pruned search per
//! vertex, in rank order, each relying on the labels of every earlier
//! root. Farhan, Wang, Lin and McKay (*"A Highly Scalable Labelling
//! Approach for Exact Distance Queries in Complex Networks"*, arXiv
//! 1812.02363) observed that the rank-order dependency can be relaxed:
//! searches whose roots are *adjacent in rank* barely prune each other, so
//! they can run concurrently as long as the result is fixed up to match
//! the canonical labeling. This module implements that idea as a
//! variant-generic batched root-parallel substrate:
//!
//! 1. **Batching.** Remaining roots are processed in rank-ordered batches.
//!    The first few roots run in singleton batches (they are the
//!    high-degree hubs whose labels do nearly all later pruning, and their
//!    searches would pollute each other); batch capacity then grows
//!    geometrically up to a multiple of the thread count. At one thread
//!    every batch holds one root.
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
//!    `x < r`, so it may have buffered entries Algorithm 1 would have
//!    pruned. Before appending an entry `(r, u, d)`, a merge-join over the
//!    *fresh* (same-batch, already-committed) suffixes of the two relevant
//!    labels checks for a hub `x` with `d(x→u) + d(r→x) ≤ d` (sides
//!    oriented per variant); certified entries are dropped. Per-root
//!    visit counters are merged into [`ConstructionStats`] at the same
//!    barrier.
//!
//! # One search, two sinks
//!
//! Each variant writes its pruned search once, generic over where the
//! entries it does not prune go (a `LabelSink`, which is also how the
//! search reads the label side it fills). The *buffer* sink reads the
//! committed labels and collects `(u, d)` candidates: that is the relaxed
//! in-batch search of step 2, whose output [`PrunedSearch::commit`]
//! re-prunes and appends. The *in-place* sink appends each entry straight
//! to the committed labels as the search makes it — with its BFS parent,
//! for an undirected build that stores parents — so later visits of the
//! same search prune against it, exactly as Algorithm 1 does.
//! [`run_batched`] runs every one-root batch through
//! [`PrunedSearch::search_in_place`] on the calling thread: no spawn, no
//! buffer, no re-prune. A `threads(1)` build is therefore this driver
//! with one-root batches throughout, not a separate loop, and a `k > 1`
//! build runs its head of hubs the same way.
//!
//! The pruned searches are not the only parallel piece: Phase 0 and the
//! final flatten ride the same thread count, so the parallel build has no
//! sequential Amdahl floor beyond the per-root commits. The ordering fans
//! out over the workers ([`crate::order::compute_order_threaded`]: chunked
//! degree-key extraction + chunk sort + k-way merge, or the sampled
//! closeness BFSs one-per-worker), the relabelling translates disjoint
//! rank chunks after a checked sequential prefix sum
//! ([`pll_graph::reorder::apply_order_threaded`]), and the flatten copies
//! label chunks into disjoint arena slices
//! ([`LabelSet`](crate::label::LabelSet)`::from_vecs`). Each of those is
//! *output-identical* at any thread count (total comparators, associative
//! `u64` reductions, disjoint writes), so the byte-identical guarantee
//! below is preserved end to end.
//!
//! The bit-parallel phase of the undirected build fans its `t` BFSs out
//! the same way: each worker runs `bp::level_sync_bfs` into its own
//! `BpScratch` and commits the slot straight into the shared arena of
//! 17-byte `BpEntry`s under a lock. Slots are disjoint, so the arena is
//! identical whatever the commit order, and no per-root column is ever
//! buffered: the phase peaks at the arena plus one scratch (17 B per
//! vertex) per worker. At one thread the worker is the calling thread.
//!
//! The mechanics above — batching, fan-out, commit discipline — are shared
//! across variants through the [`PrunedSearch`] trait and the
//! [`run_batched`] driver; each variant contributes only its one pruned
//! search and its commit-time re-prune, and both live with its builder in
//! [`crate::build`], [`crate::directed`], [`crate::weighted`] and
//! [`crate::weighted_directed`].
//!
//! # Why the output is the same at every thread count
//!
//! The pruned labeling is *canonical*: whether `(r, u, d(r,u))` is in the
//! label set depends only on the vertex order, through the recursive (in
//! rank) characterisation — `(r, u)` is labeled iff the bit-parallel bound
//! does not certify `d(r,u)` and no hub `x < r` with `(x,r)` and `(x,u)`
//! both labeled has `d(x,u) + d(x,r) ≤ d(r,u)`. A one-root batch is
//! Algorithm 1's own step. Relative to it, an in-batch search only
//! *weakens* pruning (it misses same-batch certificates), so it buffers a
//! superset of Algorithm 1's entries with identical distances. The
//! commit-time re-prune applies exactly the missing same-batch
//! certificates, in rank order, against already-canonical earlier labels
//! — restoring the characterisation batch by batch, by induction. Two
//! standard lemmas close the argument for vertices Algorithm 1's search
//! never visited: certificates propagate down shortest paths (if `x`
//! certifies a cut ancestor of `u'`, it certifies `u'`), and for the
//! minimal-rank true-distance certificate `x`, either `x` labels both
//! endpoints or a bit-parallel root already certifies the pair — so every
//! extra visit is caught by the search's own BP/committed-label tests or
//! by the re-prune join. Both lemmas use only the (directed) triangle
//! inequality and the 2-hop cover invariant, so the argument carries
//! verbatim to the directed variants (with the two label sides oriented
//! along the search direction) and to the weighted variants (with
//! additive edge weights and settle-time pruning).
//!
//! Two deliberate deviations from bit-exactness at `k > 1` threads, both
//! documented on [`IndexBuilder::threads`](crate::IndexBuilder::threads):
//! graphs whose pruned searches would exceed the 8-bit distance ceiling
//! can surface [`PllError::DiameterTooLarge`] on a root that Algorithm 1
//! would have pruned short of the ceiling (the error is still correct —
//! such graphs need the weighted index), and `abort_after_seconds`
//! triggers at batch rather than root granularity.
//! `abort_if_avg_label_exceeds` fires at exactly the same root at every
//! thread count, because committed totals match after every root. The
//! weighted variants have no such caveat: their relaxed searches
//! accumulate distances in 64-bit scratch and the `u32` label-overflow
//! check runs when an entry is appended — at commit time on entries that
//! survive the re-prune, which are exactly Algorithm 1's entries — so
//! [`PllError::WeightedDistanceOverflow`] fires on the same input at every
//! thread count.

use crate::error::{PllError, Result};
use crate::stats::{ConstructionStats, RootStats};
use crate::types::{Dist, Rank, WDist, INF8};
use std::sync::atomic::{AtomicUsize, Ordering};
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

/// One graph variant's contribution to the batch-parallel substrate: its
/// pruned search, run either in place or relaxed and buffered, plus the
/// commit-time re-prune of the buffered form.
///
/// The [`run_batched`] driver owns everything else — rank-ordered
/// batching with a singleton head, the worker fan-out over scoped
/// threads, the thread-local scratch pool, and the strict rank-order
/// commit at each batch barrier. An implementation must uphold three
/// contracts for the driver's thread-count-independent output to hold:
///
/// * [`search_in_place`](PrunedSearch::search_in_place) is Algorithm 1's
///   step for root `r`: it prunes against the live label state and
///   appends every surviving entry to it as the search makes it.
/// * [`search`](PrunedSearch::search) runs the same search against
///   **only** committed label state (plus immutable per-variant context
///   such as the rank-space graph) and buffers its label candidates into
///   the returned [`Run`](PrunedSearch::Run) instead of publishing them.
///   It must visit a superset of the in-place search's labeled vertices,
///   at identical distances — which relaxing the prune tests (by missing
///   same-batch hubs) guarantees for the pruned BFS/Dijkstra family.
/// * [`commit`](PrunedSearch::commit) appends the run's surviving entries
///   to the label state exactly as the in-place search would, dropping
///   every entry certified by a same-batch hub `x` with
///   `batch_first ≤ x < r` (see [`fresh_certificate`]).
///
/// Both write paths return the root's counters as a [`RootCommit`]; the
/// driver folds them into [`ConstructionStats`] (`pruned_roots`,
/// `total_visited`, `total_labeled`, `total_pruned`, `repruned`), so no
/// implementation touches the totals itself. Invoked in rank order, they
/// reproduce Algorithm 1 batch by batch; see the module docs for the full
/// determinism argument.
pub trait PrunedSearch: Sync {
    /// Committed label state: read (shared) by in-flight searches, written
    /// by in-place searches and, at the batch barrier, by
    /// [`commit`](PrunedSearch::commit).
    type State: Sync;
    /// Thread-local scratch (tentative/temp arrays, queue or heap),
    /// allocated once per worker and lazily reset between roots (§4.5).
    type Scratch: Send;
    /// Buffered output of one root's search(es): label candidates in
    /// visit order plus visit/prune counters.
    type Run: Send;

    /// Allocates one worker's scratch.
    fn new_scratch(&self) -> Self::Scratch;

    /// Runs the pruned search(es) from `r` in place: every entry that
    /// survives the prune test is appended to `state` at once. Used for
    /// every one-root batch, on the calling thread.
    fn search_in_place(
        &self,
        state: &mut Self::State,
        r: Rank,
        scratch: &mut Self::Scratch,
    ) -> Result<RootCommit>;

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
    /// survivors in the in-place search's order.
    fn commit(
        &self,
        state: &mut Self::State,
        batch_first: Rank,
        r: Rank,
        run: Self::Run,
    ) -> Result<RootCommit>;
}

/// Per-root outcome of a [`PrunedSearch`] write, folded into
/// [`ConstructionStats`] by the [`run_batched`] driver.
pub struct RootCommit {
    /// The root's visit/label/prune counters (`pruned` already includes
    /// the commit-time `repruned` entries, preserving
    /// `visited = labeled + pruned`).
    pub stats: RootStats,
    /// Entries buffered by the relaxed search but removed by the
    /// commit-time re-prune (also counted inside `stats.pruned`); 0 for an
    /// in-place search.
    pub repruned: u32,
}

impl RootCommit {
    /// Counters of root `r`: of its `visited` vertices, the search pruned
    /// `pruned` and the commit-time re-prune dropped `repruned`; every
    /// other visit was labeled.
    pub(crate) fn new(r: Rank, visited: u32, pruned: u32, repruned: u32) -> Self {
        RootCommit {
            stats: RootStats {
                rank: r,
                visited,
                labeled: visited - pruned - repruned,
                pruned: pruned + repruned,
            },
            repruned,
        }
    }
}

/// The variant-generic construction driver: processes `roots` (already in
/// rank order) in growing batches, running one-root batches in place on
/// the calling thread and fanning larger batches' searches out over
/// `threads` workers with a rank-order commit at the batch barrier. At
/// `threads == 1` every batch has one root.
///
/// `after_commit` runs after every root with the committed state and that
/// root's stats — the undirected build uses it for build observers and
/// the label-budget abort; an `Err` aborts construction. `abort_seconds`
/// is checked after every batch against the driver's own start time.
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
    let mut fold = |state: &S::State, committed: RootCommit, stats: &mut ConstructionStats| {
        stats.pruned_roots += 1;
        stats.total_visited += committed.stats.visited as u64;
        stats.total_labeled += committed.stats.labeled as u64;
        stats.total_pruned += committed.stats.pruned as u64;
        stats.repruned += committed.repruned as u64;
        after_commit(state, &committed.stats, stats)
    };

    let mut pos = 0usize;
    let mut batch_cap = threads;
    while pos < roots.len() {
        let cap = if threads == 1 || pos < SEQUENTIAL_HEAD_ROOTS {
            1
        } else {
            batch_cap
        };
        let batch = &roots[pos..(pos + cap).min(roots.len())];

        if let [r] = *batch {
            // Algorithm 1's own step: no spawn, no buffer, no re-prune.
            let committed = search.search_in_place(state, r, &mut scratches[0])?;
            fold(state, committed, stats)?;
        } else {
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

            // Barrier: commit in rank order, re-pruning each entry against
            // the same-batch hubs its search could not see. Errors are
            // surfaced for the lowest-ranked failing root, as one root at a
            // time would surface them.
            for (k, run) in runs.into_iter().enumerate() {
                let run = run.expect("every batch slot is claimed by exactly one worker")?;
                let committed = search.commit(state, batch[0], batch[k], run)?;
                fold(state, committed, stats)?;
            }
        }
        if threads > 1 {
            stats.parallel_batches += 1;
        }

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

/// A label distance: 8-bit hops ([`Dist`]) or 32-bit weighted distances
/// ([`WDist`]), narrowed from the search's distance when an entry is
/// appended.
pub(crate) trait LabelDist: Copy + Into<u64> {
    /// `d` at label width, or the build's error when it does not fit.
    fn narrow(d: u64) -> Result<Self>;
}

impl LabelDist for Dist {
    /// Pruned BFSs stop at the 8-bit ceiling themselves.
    #[inline]
    fn narrow(d: u64) -> Result<Dist> {
        Ok(d as Dist)
    }
}

impl LabelDist for WDist {
    #[inline]
    fn narrow(d: u64) -> Result<WDist> {
        crate::weighted::check_label_overflow(d)
    }
}

/// One label side under construction: per-vertex hub ranks and
/// distances, each list in rank order.
pub(crate) struct LabelVecs<D> {
    pub(crate) ranks: Vec<Vec<Rank>>,
    pub(crate) dists: Vec<Vec<D>>,
}

impl<D: Copy> LabelVecs<D> {
    pub(crate) fn new(n: usize) -> Self {
        LabelVecs {
            ranks: vec![Vec::new(); n],
            dists: vec![Vec::new(); n],
        }
    }

    #[inline]
    pub(crate) fn label(&self, v: Rank) -> (&[Rank], &[D]) {
        (&self.ranks[v as usize], &self.dists[v as usize])
    }
}

/// Where a pruned search sends the entries `(r, u, d)` it does not prune,
/// and through which it reads the label side it fills. `D` is the label
/// distance, `E` the search's own (8-bit for BFS, 64-bit for Dijkstra).
pub(crate) trait LabelSink<D, E> {
    /// The fill-side label of `u`, as this search's prune test sees it.
    fn label(&self, u: Rank) -> (&[Rank], &[D]);
    /// Records that `u` is labeled with the root at distance `d`.
    fn emit(&mut self, u: Rank, d: E) -> Result<()>;
    /// Records that the search reached `w` from `from` (`RANK_SENTINEL`
    /// for the root); only a sink that stores parents keeps it.
    #[inline]
    fn reach(&mut self, _w: Rank, _from: Rank) {}
}

/// The sink of a relaxed in-batch search: reads the committed labels,
/// collects candidates for [`PrunedSearch::commit`].
pub(crate) struct Buffer<'a, D, E> {
    side: &'a LabelVecs<D>,
    pub(crate) entries: Vec<(Rank, E)>,
}

impl<'a, D, E> Buffer<'a, D, E> {
    pub(crate) fn new(side: &'a LabelVecs<D>) -> Self {
        Buffer {
            side,
            entries: Vec::new(),
        }
    }
}

impl<D: Copy, E> LabelSink<D, E> for Buffer<'_, D, E> {
    #[inline(always)]
    fn label(&self, u: Rank) -> (&[Rank], &[D]) {
        self.side.label(u)
    }

    #[inline(always)]
    fn emit(&mut self, u: Rank, d: E) -> Result<()> {
        self.entries.push((u, d));
        Ok(())
    }
}

/// Parent pointers of an undirected build that stores them (§6): one per
/// label entry, plus the current search's BFS tree.
pub(crate) struct Parents {
    pub(crate) labels: Vec<Vec<Rank>>,
    tree: Vec<Rank>,
}

impl Parents {
    pub(crate) fn new(n: usize) -> Self {
        Parents {
            labels: vec![Vec::new(); n],
            tree: vec![crate::types::RANK_SENTINEL; n],
        }
    }
}

/// The sink that appends to the committed labels of root `r` directly:
/// the in-place search of a one-root batch, and the append step of
/// [`commit_entries`]. Narrows each distance to label width on the way
/// in, so the weighted `u32` overflow check fires on exactly the entries
/// that are labeled.
pub(crate) struct InPlace<'a, D> {
    r: Rank,
    side: &'a mut LabelVecs<D>,
    parents: Option<&'a mut Parents>,
}

impl<'a, D: LabelDist> InPlace<'a, D> {
    pub(crate) fn new(r: Rank, side: &'a mut LabelVecs<D>) -> Self {
        InPlace {
            r,
            side,
            parents: None,
        }
    }

    /// Also appends each entry's BFS parent to `parents`.
    pub(crate) fn with_parents(mut self, parents: Option<&'a mut Parents>) -> Self {
        self.parents = parents;
        self
    }

    #[inline(always)]
    fn label(&self, u: Rank) -> (&[Rank], &[D]) {
        self.side.label(u)
    }

    #[inline(always)]
    fn push(&mut self, u: Rank, d: u64) -> Result<()> {
        let d = D::narrow(d)?;
        self.side.ranks[u as usize].push(self.r);
        self.side.dists[u as usize].push(d);
        if let Some(p) = &mut self.parents {
            p.labels[u as usize].push(p.tree[u as usize]);
        }
        Ok(())
    }
}

// The sinks' methods are forced inline: left to the compiler, `emit`
// stayed an out-of-line call in the `pll` binary, and the threads(1)
// search phase measured ~6% slower than with the append inlined.
impl<D: LabelDist, E: Into<u64>> LabelSink<D, E> for InPlace<'_, D> {
    #[inline(always)]
    fn label(&self, u: Rank) -> (&[Rank], &[D]) {
        InPlace::label(self, u)
    }

    #[inline(always)]
    fn emit(&mut self, u: Rank, d: E) -> Result<()> {
        self.push(u, d.into())
    }

    #[inline(always)]
    fn reach(&mut self, w: Rank, from: Rank) {
        if let Some(p) = &mut self.parents {
            p.tree[w as usize] = from;
        }
    }
}

/// Commits one label side's buffered entries through `sink`: each `(u,
/// d)` is dropped if a same-batch hub certifies it ([`fresh_certificate`]
/// over the fill-side label of `u` and the root-side label of the sink's
/// root), otherwise appended. `root_side` is `None` when the root-side
/// label is the fill side itself — the single-label undirected/weighted
/// variants — and `Some` for the two-sided directed variants. Counts
/// drops in `repruned`.
///
/// Shared by every [`PrunedSearch::commit`] implementation so the
/// re-prune/append discipline cannot drift between variants.
pub(crate) fn commit_entries<D: LabelDist, E: Copy + Into<u64>>(
    entries: &[(Rank, E)],
    sink: &mut InPlace<'_, D>,
    root_side: Option<&LabelVecs<D>>,
    batch_first: Rank,
    repruned: &mut u32,
) -> Result<()> {
    let r = sink.r;
    for &(u, d) in entries {
        let (lu, du) = sink.label(u);
        // Entries this loop already appended to the root's own label all
        // carry rank `r` itself, which the merge-join's `x < r` window
        // excludes — reading the live label is equivalent to a snapshot.
        let (lr, dr) = root_side.map_or_else(|| sink.label(r), |side| side.label(r));
        if fresh_certificate(lu, du, lr, dr, batch_first, r, d.into()) {
            *repruned += 1;
        } else {
            sink.push(u, d.into())?;
        }
    }
    Ok(())
}

/// Per-worker scratch for pruned BFSs: the 8-bit tentative (`P`) and temp
/// (`T`) arrays of §4.5, reset lazily between roots, plus the reusable
/// queue. Shared by the undirected and directed BFS variants.
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

/// Per-worker scratch for pruned Dijkstra searches: 64-bit tentative/temp
/// arrays (weighted distances accumulate in `u64` before the `u32` label
/// check), the touched-vertex list driving the lazy reset, and a reusable
/// binary heap. Shared by the weighted and weighted-directed Dijkstra
/// variants.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{BuildObserver, IndexBuilder, PartialIndex};
    use crate::order::OrderingStrategy;
    use pll_graph::{gen, CsrGraph};

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
        let seq = IndexBuilder::new().bit_parallel_roots(4).build(&g).unwrap();
        for threads in [1usize, 2, 4] {
            let par = IndexBuilder::new()
                .bit_parallel_roots(4)
                .threads(threads)
                .record_root_stats(true)
                .build(&g)
                .unwrap();
            let s = par.stats();
            assert_eq!(s.threads, threads);
            assert_eq!(s.bp_roots_used, 4);
            if threads == 1 {
                // Every batch is one root searched in place: nothing is
                // counted as a parallel batch, buffered or re-pruned.
                assert_eq!(s.parallel_batches, 0);
                assert_eq!(s.repruned, 0);
            } else {
                assert!(s.parallel_batches > 0);
            }
            assert_eq!(s.total_visited, s.total_labeled + s.total_pruned);
            assert_eq!(s.per_root.as_ref().unwrap().len(), s.pruned_roots);
            for rs in s.per_root.as_ref().unwrap() {
                assert_eq!(rs.visited, rs.labeled + rs.pruned);
            }
            // The committed label volume is the same at every thread count.
            assert_eq!(s.total_labeled, seq.stats().total_labeled);
        }
    }

    #[test]
    fn parallel_rejects_parent_tracking() {
        let g = gen::path(6).unwrap();
        for threads in [2usize, 0] {
            // threads(0) must fail on every host, even one whose single
            // CPU would resolve "auto" to one thread.
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
