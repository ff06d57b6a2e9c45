//! Equivalence suite for the merge-join query kernels.
//!
//! The branchless kernels (and the Dist8 escape-sidecar kernel) must
//! answer **byte-identically** to the scalar reference kernel, and every
//! storage backend must answer like a graph search. Two layers:
//!
//! * direct kernel calls on synthetic sentinel-terminated labels
//!   (proptest-driven), branchless against scalar;
//! * end-to-end `distance` on all four index variants: the owned index,
//!   its zero-copy (v2) reopening and, for weighted, both distance-arena
//!   widths answer every sampled pair exactly as BFS, Dijkstra or their
//!   plain directed forms do.

use proptest::prelude::*;
use pruned_landmark_labeling::graph::traversal::{bfs, dijkstra};
use pruned_landmark_labeling::graph::wdigraph::WeightedDigraph;
use pruned_landmark_labeling::graph::{gen, CsrDigraph, CsrGraph, Xoshiro256pp, INF_U32, INF_U64};
use pruned_landmark_labeling::pll::kernel::{
    merge_query_branchless, merge_query_scalar, merge_query_weighted_branchless,
    merge_query_weighted_dist8_branchless, merge_query_weighted_dist8_scalar,
    merge_query_weighted_scalar,
};
use pruned_landmark_labeling::pll::types::RANK_SENTINEL;
use pruned_landmark_labeling::pll::v2::{
    open_v2_bytes, save_v2_directed_index, save_v2_index, save_v2_weighted_directed_index,
    save_v2_weighted_index_with,
};
use pruned_landmark_labeling::pll::weighted_dist8::encode_dist8;
use pruned_landmark_labeling::pll::{
    AlignedBytes, AnyIndex, DirectedIndexBuilder, IndexBuilder, WeightedDirectedIndexBuilder,
    WeightedDist8Index, WeightedIndexBuilder,
};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;

/// Collects `distance` over the sampled pairs: every source, every
/// third target.
fn sample(n: u32, mut distance: impl FnMut(u32, u32) -> Option<u64>) -> Vec<Option<u64>> {
    let mut out = Vec::new();
    for s in 0..n {
        for t in (0..n).step_by(3) {
            out.push(distance(s, t));
        }
    }
    out
}

/// The sampled pairs' answers from one single-source search per source;
/// `search(s)` returns every vertex's distance from `s`, [`INF_U64`]
/// where unreachable.
fn oracle(n: u32, mut search: impl FnMut(u32) -> Vec<u64>) -> Vec<Option<u64>> {
    let mut from = (u32::MAX, Vec::new());
    sample(n, |s, t| {
        if from.0 != s {
            from = (s, search(s));
        }
        Some(from.1[t as usize]).filter(|&d| d != INF_U64)
    })
}

/// Undirected BFS distances from `s`, widened to the oracle's `u64`.
fn bfs_from(g: &CsrGraph, s: u32) -> Vec<u64> {
    bfs::distances(g, s)
        .into_iter()
        .map(|d| if d == INF_U32 { INF_U64 } else { u64::from(d) })
        .collect()
}

/// Plain directed BFS over out-arcs.
fn directed_bfs(g: &CsrDigraph, s: u32) -> Vec<u64> {
    let mut dist = vec![INF_U64; g.num_vertices()];
    dist[s as usize] = 0;
    let mut queue = VecDeque::from([s]);
    while let Some(u) = queue.pop_front() {
        for &w in g.out_neighbors(u) {
            if dist[w as usize] == INF_U64 {
                dist[w as usize] = dist[u as usize] + 1;
                queue.push_back(w);
            }
        }
    }
    dist
}

/// Plain directed Dijkstra over weighted out-arcs.
fn directed_dijkstra(g: &WeightedDigraph, s: u32) -> Vec<u64> {
    let mut dist = vec![INF_U64; g.num_vertices()];
    dist[s as usize] = 0;
    let mut heap = BinaryHeap::from([Reverse((0u64, s))]);
    while let Some(Reverse((d, u))) = heap.pop() {
        if d > dist[u as usize] {
            continue;
        }
        for (w, weight) in g.out_neighbors(u) {
            let via = d + u64::from(weight);
            if via < dist[w as usize] {
                dist[w as usize] = via;
                heap.push(Reverse((via, w)));
            }
        }
    }
    dist
}

/// Asserts that every backend answers the sampled pairs exactly as the
/// oracle does (and therefore identically to one another).
fn assert_backends_match(backends: &[(&str, AnyIndex)], n: u32, want: &[Option<u64>]) {
    for (label, any) in backends {
        assert_eq!(
            sample(n, |s, t| any.distance(s, t)),
            want,
            "{label} diverged from the graph-search oracle"
        );
    }
}

fn reopen(bytes: &[u8]) -> AnyIndex {
    open_v2_bytes(Arc::new(AlignedBytes::from_bytes(bytes))).expect("reopen v2 buffer")
}

#[test]
fn undirected_kernels_agree_owned_and_zero_copy() {
    let g = gen::barabasi_albert(90, 3, 7).unwrap();
    let idx = IndexBuilder::new().bit_parallel_roots(4).build(&g).unwrap();
    let mut buf = Vec::new();
    save_v2_index(&idx, &mut buf).unwrap();
    let backends = [
        ("owned undirected", AnyIndex::Undirected(idx)),
        ("zero-copy undirected", reopen(&buf)),
    ];
    assert_backends_match(&backends, 90, &oracle(90, |s| bfs_from(&g, s)));
}

#[test]
fn directed_kernels_agree_owned_and_zero_copy() {
    let g = gen::barabasi_albert(80, 3, 11).unwrap();
    let dg = pll_bench::derive_digraph(&g, 13);
    let idx = DirectedIndexBuilder::new().build(&dg).unwrap();
    let mut buf = Vec::new();
    save_v2_directed_index(&idx, &mut buf).unwrap();
    let backends = [
        ("owned directed", AnyIndex::Directed(idx)),
        ("zero-copy directed", reopen(&buf)),
    ];
    assert_backends_match(&backends, 80, &oracle(80, |s| directed_bfs(&dg, s)));
}

#[test]
fn weighted_kernels_agree_across_all_backends_and_arena_widths() {
    let g = gen::barabasi_albert(80, 3, 17).unwrap();
    // Weights to 256 put label distances on both sides of the Dist8
    // escape threshold, so the sidecar path is part of the comparison.
    let wg = pll_bench::derive_weighted(&g, 19, 256);
    let idx = WeightedIndexBuilder::new().build(&wg).unwrap();
    let mut u32_file = Vec::new();
    save_v2_weighted_index_with(&idx, &mut u32_file, false).unwrap();
    let mut u8_file = Vec::new();
    save_v2_weighted_index_with(&idx, &mut u8_file, true).unwrap();
    let owned_u8 = WeightedDist8Index::from_weighted(&idx).expect("profitable");
    assert!(owned_u8.escape_count() > 0, "fixture must exercise escapes");
    let u8_view = reopen(&u8_file);
    assert!(
        matches!(u8_view, AnyIndex::WeightedDist8View(_)),
        "narrowed file must reopen as Dist8"
    );

    let mut engine = dijkstra::DijkstraEngine::new(80);
    let want = oracle(80, |s| engine.run(&wg, s).to_vec());
    // The owned Dist8 index has no AnyIndex variant (narrowing is a
    // file-format concern), so sample it directly.
    assert_eq!(
        sample(80, |s, t| owned_u8.distance(s, t)),
        want,
        "owned Dist8 diverged from the graph-search oracle"
    );

    let backends = [
        ("owned weighted u32", AnyIndex::Weighted(idx)),
        ("zero-copy weighted u32", reopen(&u32_file)),
        ("zero-copy weighted u8", u8_view),
    ];
    assert_backends_match(&backends, 80, &want);
}

#[test]
fn weighted_directed_kernels_agree_owned_and_zero_copy() {
    let g = gen::barabasi_albert(70, 3, 23).unwrap();
    let wd = pll_bench::derive_weighted_digraph(&g, 29, 64);
    let idx = WeightedDirectedIndexBuilder::new().build(&wd).unwrap();
    let mut buf = Vec::new();
    save_v2_weighted_directed_index(&idx, &mut buf).unwrap();
    let backends = [
        ("owned weighted-directed", AnyIndex::WeightedDirected(idx)),
        ("zero-copy weighted-directed", reopen(&buf)),
    ];
    assert_backends_match(&backends, 70, &oracle(70, |s| directed_dijkstra(&wd, s)));
}

// ---------------------------------------------------------------------------
// Direct kernel-level properties
// ---------------------------------------------------------------------------

/// Builds one sentinel-terminated label from proptest-chosen entries:
/// ranks strictly ascending, dists arbitrary.
fn build_label(entries: &[(u32, u8)]) -> (Vec<u32>, Vec<u8>) {
    let mut ranks = Vec::with_capacity(entries.len() + 1);
    let mut dists = Vec::with_capacity(entries.len() + 1);
    let mut r = 0u32;
    for &(gap, d) in entries {
        r = r.saturating_add(1 + (gap % 64));
        ranks.push(r);
        dists.push(d);
    }
    ranks.push(RANK_SENTINEL);
    dists.push(u8::MAX);
    (ranks, dists)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Unweighted: branchless equals scalar on arbitrary well-formed
    /// labels.
    #[test]
    fn unweighted_kernels_equal_scalar(
        a in proptest::collection::vec((0u32..64, any::<u8>()), 0..40),
        b in proptest::collection::vec((0u32..64, any::<u8>()), 0..40),
    ) {
        let (ur, ud) = build_label(&a);
        let (vr, vd) = build_label(&b);
        let want = merge_query_scalar(&ur, &ud, &vr, &vd);
        prop_assert_eq!(merge_query_branchless(&ur, &ud, &vr, &vd), want);
    }

    /// Weighted: same property over u32 distance arenas.
    #[test]
    fn weighted_kernels_equal_scalar(
        a in proptest::collection::vec((0u32..64, 0u32..1_000_000), 0..40),
        b in proptest::collection::vec((0u32..64, 0u32..1_000_000), 0..40),
    ) {
        let widen = |entries: &[(u32, u32)]| {
            let bytes: Vec<(u32, u8)> = entries.iter().map(|&(g, _)| (g, 0)).collect();
            let (r, _) = build_label(&bytes);
            let mut d: Vec<u32> = entries.iter().map(|&(_, w)| w).collect();
            d.push(u32::MAX);
            (r, d)
        };
        let (ar, ad) = widen(&a);
        let (br, bd) = widen(&b);
        let want = merge_query_weighted_scalar(&ar, &ad, &br, &bd);
        prop_assert_eq!(merge_query_weighted_branchless(&ar, &ad, &br, &bd), want);
    }

    /// Dist8: narrowing a u32 arena and querying through the escape
    /// sidecar answers exactly like the scalar u32 kernel on the
    /// original arena, for both Dist8 kernels.
    #[test]
    fn dist8_kernels_equal_u32_scalar(
        a in proptest::collection::vec((0u32..64, 0u32..400), 1..40),
        b in proptest::collection::vec((0u32..64, 0u32..400), 1..40),
    ) {
        let widen = |entries: &[(u32, u32)]| {
            let bytes: Vec<(u32, u8)> = entries.iter().map(|&(g, _)| (g, 0)).collect();
            let (r, _) = build_label(&bytes);
            let mut d: Vec<u32> = entries.iter().map(|&(_, w)| w).collect();
            d.push(u32::MAX);
            (r, d)
        };
        let (ar, ad) = widen(&a);
        let (br, bd) = widen(&b);
        // One shared arena: label A at position 0, label B after it.
        let offsets = vec![0u32, ar.len() as u32, (ar.len() + br.len()) as u32];
        let mut dists = ad.clone();
        dists.extend_from_slice(&bd);
        // All-escaping arenas refuse to narrow: nothing to compare.
        let Some(enc) = encode_dist8(&offsets, &dists) else {
            return Ok(());
        };
        let (a8, b8) = enc.dists8.split_at(ar.len());
        let want = merge_query_weighted_scalar(&ar, &ad, &br, &bd);
        let b_base = ar.len() as u32;
        prop_assert_eq!(
            merge_query_weighted_dist8_scalar(
                &ar, a8, 0, &br, b8, b_base, &enc.esc_pos, &enc.esc_val
            ),
            want
        );
        prop_assert_eq!(
            merge_query_weighted_dist8_branchless(
                &ar, a8, 0, &br, b8, b_base, &enc.esc_pos, &enc.esc_val
            ),
            want
        );
    }
}

/// Randomised end-to-end agreement on a structured graph family, with a
/// deterministic seeded sweep (cheap enough to run exhaustively).
#[test]
fn random_graphs_agree_end_to_end() {
    let mut rng = Xoshiro256pp::seed_from_u64(99);
    for round in 0..4 {
        let n = 30 + 10 * round;
        let g = gen::erdos_renyi_gnm(n, n * 3, rng.next_below(1 << 30)).unwrap();
        let idx = IndexBuilder::new()
            .bit_parallel_roots((round % 3) * 2)
            .build(&g)
            .unwrap();
        let mut buf = Vec::new();
        save_v2_index(&idx, &mut buf).unwrap();
        let backends = [
            ("owned", AnyIndex::Undirected(idx)),
            ("zero-copy", reopen(&buf)),
        ];
        let n = n as u32;
        assert_backends_match(&backends, n, &oracle(n, |s| bfs_from(&g, s)));
    }
}
