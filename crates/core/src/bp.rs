//! Bit-parallel labeling (§5 of the paper).
//!
//! A bit-parallel BFS runs from a root `r` *and* up to 64 of its neighbours
//! `S_r` simultaneously: alongside the ordinary BFS distance `d(r, v)`, two
//! 64-bit masks per vertex record
//!
//! * `S⁻¹_r(v) = { u ∈ S_r | d(u, v) = d(r, v) − 1 }` and
//! * `S⁰_r(v)  = { u ∈ S_r | d(u, v) = d(r, v) }`
//!
//! (Algorithm 3). Because every `u ∈ S_r` is a neighbour of `r`, the
//! distance via `u` differs from `d(s,r) + d(r,t)` by at most 2, and two
//! AND operations recover the exact correction (§5.3) — a 65-source
//! distance oracle in `O(1)` per label pair.

use crate::error::{PllError, Result};
use crate::storage::{BpStorage, OwnedBp, ViewBp};
use crate::types::{Dist, Rank, BP_WIDTH, INF8, INF_QUERY, MAX_DIST};
use pll_graph::CsrGraph;

/// One bit-parallel label entry: distance from the root plus the two masks.
///
/// Packed to the paper's 17 bytes (§5): the owned arena holds `n × t` of
/// these, and natural alignment would pad each to 24. Fields are read by
/// value; a reference to a mask would be unaligned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(C, packed)]
pub struct BpEntry {
    /// `d(r, v)`, or [`INF8`] if unreachable.
    pub dist: Dist,
    /// Bit `k` set iff the `k`-th vertex of `S_r` is in `S⁻¹_r(v)`
    /// (computed exactly by the level-synchronous DP).
    pub set_minus1: u64,
    /// Bit `k` set iff the `k`-th vertex of `S_r` is in `S⁰_r(v)` — *or*,
    /// occasionally, in `S⁻¹_r(v)`: the S⁰ recurrence of §5.2 propagates
    /// along child edges whose endpoint turns out to be one closer to the
    /// sub-root via another path. The overlap is harmless: `set_minus1` is
    /// exact and the query tests the −2 case first, so results are still
    /// exact upper bounds (see `query`).
    pub set_zero: u64,
}

const _: () = assert!(std::mem::size_of::<BpEntry>() == 17);

impl BpEntry {
    const UNREACHED: BpEntry = BpEntry {
        dist: INF8,
        set_minus1: 0,
        set_zero: 0,
    };
}

/// Bit-parallel labels for all vertices: `t` entries per vertex, stored
/// row-major (entry `v * t + i` is vertex `v`'s entry for BP root `i`).
///
/// Generic over its [`BpStorage`] backend: the default is the heap-owned
/// array-of-structs arena the builders fill in place;
/// [`BitParallelLabelsView`] reads the v2 format's structure-of-arrays
/// sections zero-copy. The query kernel is implemented once, on the
/// generic type.
#[derive(Clone, Debug)]
pub struct BitParallelLabels<S = OwnedBp> {
    num_roots: usize,
    num_vertices: usize,
    store: S,
}

/// Zero-copy [`BitParallelLabels`] over a v2 index buffer.
pub type BitParallelLabelsView = BitParallelLabels<ViewBp>;

/// Backends compare equal iff they hold the same roots and entries.
impl<S1: BpStorage, S2: BpStorage> PartialEq<BitParallelLabels<S2>> for BitParallelLabels<S1> {
    fn eq(&self, other: &BitParallelLabels<S2>) -> bool {
        self.num_roots == other.num_roots
            && self.num_vertices == other.num_vertices
            && self.store.roots() == other.store.roots()
            && self.store.entry_count() == other.store.entry_count()
            && (0..self.store.entry_count()).all(|i| self.store.entry(i) == other.store.entry(i))
    }
}

impl<S: BpStorage> Eq for BitParallelLabels<S> {}

impl BitParallelLabels {
    /// Creates empty labels for `n` vertices and `t` roots (all entries
    /// unreached until [`commit_root`](Self::commit_root) fills them).
    pub(crate) fn new(n: usize, t: usize) -> Self {
        BitParallelLabels {
            num_roots: t,
            num_vertices: n,
            store: OwnedBp {
                entries: vec![BpEntry::UNREACHED; n * t],
                roots: vec![u32::MAX; t],
            },
        }
    }

    /// Reassembles from raw parts (deserialisation).
    pub(crate) fn from_raw(num_vertices: usize, roots: Vec<Rank>, entries: Vec<BpEntry>) -> Self {
        BitParallelLabels {
            num_roots: roots.len(),
            num_vertices,
            store: OwnedBp { entries, roots },
        }
    }

    /// All `t` entries of vertex `v` (owned backend only: the views store
    /// entries as structure-of-arrays and assemble them via
    /// [`BitParallelLabels::entry`]).
    #[inline]
    pub fn entries_of(&self, v: Rank) -> &[BpEntry] {
        &self.store.entries[v as usize * self.num_roots..(v as usize + 1) * self.num_roots]
    }

    /// Writes the BFS that [`level_sync_bfs`] left in `scratch` into slot
    /// `i`. Untouched vertices keep their `UNREACHED` entries, and slots
    /// are disjoint, so commits of different slots commute.
    pub(crate) fn commit_root(&mut self, i: usize, root: Rank, scratch: &BpScratch) {
        let t = self.num_roots;
        self.store.roots[i] = root;
        for &v in scratch.visited.iter() {
            self.store.entries[v as usize * t + i] = BpEntry {
                dist: scratch.dist[v as usize],
                set_minus1: scratch.set_minus1[v as usize],
                set_zero: scratch.set_zero[v as usize],
            };
        }
    }

    /// Raw views for serialisation.
    pub(crate) fn as_raw(&self) -> (&[Rank], &[BpEntry]) {
        (&self.store.roots, &self.store.entries)
    }
}

impl<S: BpStorage> BitParallelLabels<S> {
    /// Wraps a storage backend (used by the zero-copy v2 opener).
    pub(crate) fn from_store(num_vertices: usize, num_roots: usize, store: S) -> Self {
        BitParallelLabels {
            num_roots,
            num_vertices,
            store,
        }
    }

    /// Number of bit-parallel roots `t` (including exhausted slots).
    pub fn num_roots(&self) -> usize {
        self.num_roots
    }

    /// Ranks used as BP roots (exhausted slots are `u32::MAX`).
    pub fn roots(&self) -> &[Rank] {
        self.store.roots()
    }

    /// Entry of vertex `v` for root slot `i`.
    #[inline]
    pub fn entry(&self, v: Rank, i: usize) -> BpEntry {
        self.store.entry(v as usize * self.num_roots + i)
    }

    /// Upper bound on `d(s, t)` via every BP root: for each root `r`,
    /// `min over u ∈ {r} ∪ S_r of d(s,u) + d(u,t)`, computed with the δ̃ − 2 /
    /// δ̃ − 1 / δ̃ case analysis of §5.3. Returns [`INF_QUERY`] if no root
    /// reaches both endpoints. Exact when some shortest `s`–`t` path meets
    /// `{r} ∪ S_r`.
    #[inline]
    pub fn query(&self, s: Rank, t: Rank) -> u32 {
        let mut best = INF_QUERY;
        let t_roots = self.num_roots;
        let sb = s as usize * t_roots;
        let tb = t as usize * t_roots;
        for i in 0..t_roots {
            let a = self.store.entry(sb + i);
            let b = self.store.entry(tb + i);
            if a.dist == INF8 || b.dist == INF8 {
                continue;
            }
            let mut td = a.dist as u32 + b.dist as u32;
            if td.saturating_sub(2) < best {
                if a.set_minus1 & b.set_minus1 != 0 {
                    td -= 2;
                } else if (a.set_minus1 & b.set_zero) | (a.set_zero & b.set_minus1) != 0 {
                    td -= 1;
                }
                if td < best {
                    best = td;
                }
            }
        }
        best
    }

    /// Whether some structure reaches both `s` and `t` — a sufficient
    /// same-component certificate in `O(t)` with no distance math (any
    /// root with two finite δ̃ entries connects the pair through
    /// itself).
    #[inline]
    pub fn co_reachable(&self, s: Rank, t: Rank) -> bool {
        let t_roots = self.num_roots;
        let sb = s as usize * t_roots;
        let tb = t as usize * t_roots;
        (0..t_roots)
            .any(|i| self.store.entry(sb + i).dist != INF8 && self.store.entry(tb + i).dist != INF8)
    }

    /// Bytes used by the BP arena (heap bytes for the owned backend,
    /// section bytes for a view).
    pub fn memory_bytes(&self) -> usize {
        self.store.memory_bytes()
    }

    /// Average per-vertex BP label size measured in *normal-label
    /// equivalents* for the paper's "LN" column: each BP entry covers a root
    /// plus 64 neighbours but costs 17 bytes; the paper reports it
    /// separately, so we report the raw count `t`.
    pub fn entries_per_vertex(&self) -> usize {
        self.num_roots
    }

    /// Number of vertices covered.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }
}

/// The level-synchronous BFS of Algorithm 3, leaving per-vertex distances,
/// masks and the touched-vertex list in `scratch` for
/// [`BitParallelLabels::commit_root`]. It only touches `scratch`, so the
/// parallel build runs it on workers that each own a [`BpScratch`].
pub(crate) fn level_sync_bfs(
    g: &CsrGraph,
    root: Rank,
    sub: &[Rank],
    scratch: &mut BpScratch,
) -> Result<()> {
    debug_assert!(sub.len() <= BP_WIDTH);
    scratch.reset();
    let BpScratch {
        dist,
        set_minus1,
        set_zero,
        visited,
        sibling_edges,
        child_edges,
    } = scratch;

    // Level 0: the root. Level 1 (pre-seeded): the selected neighbours,
    // each owning one bit of the masks.
    dist[root as usize] = 0;
    visited.push(root);
    let mut current: Vec<Rank> = vec![root];
    let mut next: Vec<Rank> = Vec::new();
    for (k, &v) in sub.iter().enumerate() {
        debug_assert!(g.has_edge(root, v), "S_r must be neighbours of the root");
        dist[v as usize] = 1;
        set_minus1[v as usize] = 1u64 << k;
        visited.push(v);
        next.push(v);
    }

    let mut level: u32 = 0;
    while !current.is_empty() {
        sibling_edges.clear();
        child_edges.clear();
        for &v in current.iter() {
            for &u in g.neighbors(v) {
                let du = dist[u as usize];
                if du == INF8 {
                    if level as u8 >= MAX_DIST {
                        return Err(PllError::DiameterTooLarge { root_rank: root });
                    }
                    dist[u as usize] = level as u8 + 1;
                    visited.push(u);
                    next.push(u);
                    child_edges.push((v, u));
                } else if du as u32 == level + 1 {
                    child_edges.push((v, u));
                } else if du as u32 == level {
                    sibling_edges.push((v, u));
                }
            }
        }
        // Propagate masks: siblings first (S⁰ ← S⁻¹ of same level), then
        // children (S⁻¹ ← S⁻¹, S⁰ ← S⁰ of previous level). Matches the
        // E0/E1 passes of Algorithm 3.
        for &(v, u) in sibling_edges.iter() {
            set_zero[u as usize] |= set_minus1[v as usize];
        }
        for &(v, u) in child_edges.iter() {
            set_minus1[u as usize] |= set_minus1[v as usize];
            set_zero[u as usize] |= set_zero[v as usize];
        }
        std::mem::swap(&mut current, &mut next);
        next.clear();
        level += 1;
    }
    Ok(())
}

/// Selects the `t` bit-parallel roots and their neighbour sets exactly as
/// §5.4 prescribes — highest-priority unused vertex plus up to 64 of its
/// highest-priority unused neighbours — marking every chosen vertex in
/// `usd`. Selection only reads and writes `usd` (never the BFS results), so
/// the sequential and batch-parallel builds share it and pick identical
/// roots.
pub(crate) fn select_bp_roots(g: &CsrGraph, usd: &mut [bool], t: usize) -> Vec<(Rank, Vec<Rank>)> {
    let n = g.num_vertices();
    let mut specs = Vec::with_capacity(t);
    let mut cursor = 0usize;
    for _ in 0..t {
        while cursor < n && usd[cursor] {
            cursor += 1;
        }
        if cursor >= n {
            break; // remaining slots stay exhausted
        }
        let root = cursor as Rank;
        usd[cursor] = true;
        let mut sub: Vec<Rank> = Vec::new();
        // Neighbours are sorted by rank, i.e. highest priority first.
        for &v in g.neighbors(root) {
            if !usd[v as usize] {
                usd[v as usize] = true;
                sub.push(v);
                if sub.len() == BP_WIDTH {
                    break;
                }
            }
        }
        specs.push((root, sub));
    }
    specs
}

/// Reusable scratch buffers for bit-parallel BFSs.
#[derive(Clone, Debug)]
pub(crate) struct BpScratch {
    dist: Vec<Dist>,
    set_minus1: Vec<u64>,
    set_zero: Vec<u64>,
    visited: Vec<Rank>,
    sibling_edges: Vec<(Rank, Rank)>,
    child_edges: Vec<(Rank, Rank)>,
}

impl BpScratch {
    pub(crate) fn new(n: usize) -> Self {
        BpScratch {
            dist: vec![INF8; n],
            set_minus1: vec![0; n],
            set_zero: vec![0; n],
            visited: Vec::new(),
            sibling_edges: Vec::new(),
            child_edges: Vec::new(),
        }
    }

    fn reset(&mut self) {
        for &v in &self.visited {
            self.dist[v as usize] = INF8;
            self.set_minus1[v as usize] = 0;
            self.set_zero[v as usize] = 0;
        }
        self.visited.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pll_graph::gen;
    use pll_graph::traversal::bfs;

    /// Builds BP labels with a single root (rank space == vertex space).
    fn bp_single_root(g: &CsrGraph, root: Rank, sub: &[Rank]) -> BitParallelLabels {
        let mut bp = BitParallelLabels::new(g.num_vertices(), 1);
        let mut scratch = BpScratch::new(g.num_vertices());
        level_sync_bfs(g, root, sub, &mut scratch).unwrap();
        bp.commit_root(0, root, &scratch);
        bp
    }

    #[test]
    fn masks_match_definition_on_small_graph() {
        // Star-of-paths: root 0 with neighbours 1, 2; 3 hangs off 1; 4 off 2;
        // extra edge 3-4 creates sibling structure.
        let g = CsrGraph::from_edges(5, &[(0, 1), (0, 2), (1, 3), (2, 4), (3, 4)]).unwrap();
        let sub = vec![1, 2];
        let bp = bp_single_root(&g, 0, &sub);
        let dist_from = |v: Rank| bfs::distances(&g, v);
        let d_root = dist_from(0);
        let d_sub: Vec<Vec<u32>> = sub.iter().map(|&u| dist_from(u)).collect();
        for v in 0..5u32 {
            let e = bp.entry(v, 0);
            assert_eq!(e.dist as u32, d_root[v as usize], "dist of {v}");
            for (k, du) in d_sub.iter().enumerate() {
                let diff = du[v as usize] as i64 - d_root[v as usize] as i64;
                let in_minus1 = e.set_minus1 >> k & 1 == 1;
                let in_zero = e.set_zero >> k & 1 == 1;
                assert_eq!(in_minus1, diff == -1, "S^-1 bit {k} of vertex {v}");
                assert_eq!(in_zero, diff == 0, "S^0 bit {k} of vertex {v}");
            }
        }
    }

    #[test]
    fn query_is_exact_min_via_root_and_sub() {
        let g = gen::erdos_renyi_gnm(60, 150, 3).unwrap();
        // Root: highest degree vertex; sub: all its neighbours.
        let root = (0..60u32).max_by_key(|&v| g.degree(v)).unwrap();
        let sub: Vec<Rank> = g.neighbors(root).iter().copied().take(64).collect();
        let bp = bp_single_root(&g, root, &sub);

        let mut sources = vec![root];
        sources.extend_from_slice(&sub);
        let dists: Vec<Vec<u32>> = sources.iter().map(|&u| bfs::distances(&g, u)).collect();
        for s in 0..60u32 {
            for t in 0..60u32 {
                let expected = dists
                    .iter()
                    .map(|d| d[s as usize].saturating_add(d[t as usize]))
                    .min()
                    .unwrap();
                let expected = if expected == INF_QUERY {
                    INF_QUERY
                } else {
                    expected
                };
                assert_eq!(bp.query(s, t), expected, "pair ({s}, {t})");
            }
        }
    }

    #[test]
    fn unreachable_vertices_stay_inf() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        let bp = bp_single_root(&g, 0, &[1]);
        assert_eq!(bp.entry(2, 0).dist, INF8);
        assert_eq!(bp.query(2, 3), INF_QUERY);
        assert_eq!(bp.query(0, 2), INF_QUERY);
        assert_eq!(bp.query(0, 1), 1);
    }

    #[test]
    fn empty_sub_is_plain_bfs_oracle() {
        let g = gen::path(6).unwrap();
        let bp = bp_single_root(&g, 0, &[]);
        // Only the root contributes: d(s,0) + d(0,t).
        assert_eq!(bp.query(2, 4), 6);
        assert_eq!(bp.query(0, 5), 5);
    }

    #[test]
    fn exhausted_slots_answer_inf() {
        let bp = BitParallelLabels::new(3, 2);
        assert_eq!(bp.query(0, 2), INF_QUERY);
        assert_eq!(bp.roots(), &[u32::MAX, u32::MAX]);
    }

    #[test]
    fn diameter_overflow_detected() {
        let g = gen::path(300).unwrap();
        let mut scratch = BpScratch::new(300);
        let err = level_sync_bfs(&g, 0, &[], &mut scratch).unwrap_err();
        assert!(matches!(err, PllError::DiameterTooLarge { .. }));
    }

    #[test]
    fn memory_accounting() {
        let bp = BitParallelLabels::new(10, 2);
        assert_eq!(
            bp.memory_bytes(),
            10 * 2 * std::mem::size_of::<BpEntry>() + 2 * 4
        );
        assert_eq!(bp.entries_per_vertex(), 2);
        assert_eq!(bp.num_vertices(), 10);
    }
}
