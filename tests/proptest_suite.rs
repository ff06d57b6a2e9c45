//! Property-based tests over randomly generated graphs (proptest drives
//! the shape, sizes and seeds; BFS/Dijkstra provide ground truth).

use proptest::prelude::*;
use pruned_landmark_labeling::graph::traversal::{bfs, dijkstra};
use pruned_landmark_labeling::graph::wgraph::WeightedGraph;
use pruned_landmark_labeling::graph::{gen, CsrGraph, GraphBuilder};
use pruned_landmark_labeling::pll::{
    paths, serialize, types::RANK_SENTINEL, IndexBuilder, OrderingStrategy,
};

/// Strategy: an arbitrary simple graph from a raw edge list.
fn arb_graph(max_n: usize, max_m: usize) -> impl Strategy<Value = CsrGraph> {
    (2..max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..max_m).prop_map(move |edges| {
            let mut b = GraphBuilder::new(n);
            b.extend_edges(edges);
            b.build().expect("builder normalises raw edges")
        })
    })
}

/// Strategy: one of the named generator families with random parameters.
fn arb_model_graph() -> impl Strategy<Value = CsrGraph> {
    prop_oneof![
        (20usize..120, 1usize..4, any::<u64>())
            .prop_map(|(n, m, s)| gen::barabasi_albert(n, m, s).unwrap()),
        (20usize..120, 40usize..200, any::<u64>()).prop_map(|(n, m, s)| gen::erdos_renyi_gnm(
            n,
            m.min(n * (n - 1) / 2),
            s
        )
        .unwrap()),
        (20usize..120, any::<u64>()).prop_map(|(n, s)| gen::copying_model(n, 3, 0.8, s).unwrap()),
        (3usize..12, 3usize..12).prop_map(|(r, c)| gen::grid(r, c).unwrap()),
        (20usize..200, any::<u64>()).prop_map(|(n, s)| gen::random_tree(n, s).unwrap()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The index answers exactly like BFS on arbitrary simple graphs.
    #[test]
    fn index_matches_bfs(g in arb_graph(60, 150), t in 0usize..8, seed in any::<u64>()) {
        let idx = IndexBuilder::new()
            .bit_parallel_roots(t)
            .seed(seed)
            .build(&g)
            .unwrap();
        let n = g.num_vertices();
        let mut engine = bfs::BfsEngine::new(n);
        for s in 0..n as u32 {
            let d = engine.run(&g, s).to_vec();
            for u in 0..n as u32 {
                let expect = (d[u as usize] != u32::MAX).then_some(d[u as usize]);
                prop_assert_eq!(idx.distance(s, u), expect);
            }
        }
    }

    /// Same, over the structured generator families with Random ordering.
    #[test]
    fn index_matches_bfs_on_models(g in arb_model_graph(), seed in any::<u64>()) {
        let idx = IndexBuilder::new()
            .ordering(OrderingStrategy::Random)
            .seed(seed)
            .bit_parallel_roots(2)
            .build(&g)
            .unwrap();
        let n = g.num_vertices();
        let mut engine = bfs::BfsEngine::new(n);
        for s in (0..n as u32).step_by(5) {
            let d = engine.run(&g, s).to_vec();
            for u in (0..n as u32).step_by(3) {
                let expect = (d[u as usize] != u32::MAX).then_some(d[u as usize]);
                prop_assert_eq!(idx.distance(s, u), expect);
            }
        }
    }

    /// Structural invariants: labels strictly sorted by rank, sentinel
    /// terminated, self-hub distance zero.
    #[test]
    fn label_invariants(g in arb_graph(60, 150)) {
        let idx = IndexBuilder::new().bit_parallel_roots(0).build(&g).unwrap();
        for r in 0..g.num_vertices() as u32 {
            let (ranks, dists) = idx.labels().label(r);
            prop_assert_eq!(*ranks.last().unwrap(), RANK_SENTINEL);
            let body = &ranks[..ranks.len() - 1];
            prop_assert!(body.windows(2).all(|w| w[0] < w[1]));
            // Every hub rank is at most this vertex's rank (hubs are
            // processed earlier or are the vertex itself).
            prop_assert!(body.iter().all(|&h| h <= r));
            if let Ok(i) = body.binary_search(&r) {
                prop_assert_eq!(dists[i], 0);
            }
        }
    }

    /// Serialisation round-trips bit-exactly on query behaviour.
    #[test]
    fn serialization_roundtrip(g in arb_graph(50, 120), t in 0usize..4) {
        let idx = IndexBuilder::new().bit_parallel_roots(t).build(&g).unwrap();
        let mut buf = Vec::new();
        serialize::save_index(&idx, &mut buf).unwrap();
        let loaded = serialize::load_index(buf.as_slice()).unwrap();
        for s in 0..g.num_vertices() as u32 {
            for u in (0..g.num_vertices() as u32).step_by(3) {
                prop_assert_eq!(idx.distance(s, u), loaded.distance(s, u));
            }
        }
    }

    /// Path reconstruction yields adjacent-step paths of exactly the
    /// reported length.
    #[test]
    fn path_reconstruction_is_valid(g in arb_graph(40, 100)) {
        let idx = IndexBuilder::new()
            .bit_parallel_roots(0)
            .store_parents(true)
            .build(&g)
            .unwrap();
        let n = g.num_vertices() as u32;
        for s in 0..n {
            for u in (0..n).step_by(7) {
                match paths::shortest_path(&idx, s, u).unwrap() {
                    Some(p) => {
                        prop_assert_eq!(p.len() as u32, idx.distance(s, u).unwrap() + 1);
                        prop_assert_eq!(p[0], s);
                        prop_assert_eq!(*p.last().unwrap(), u);
                        for w in p.windows(2) {
                            prop_assert!(g.has_edge(w[0], w[1]));
                        }
                    }
                    None => prop_assert_eq!(idx.distance(s, u), None),
                }
            }
        }
    }

    /// Weighted index agrees with Dijkstra on random weighted graphs.
    #[test]
    fn weighted_index_matches_dijkstra(
        g in arb_graph(40, 100),
        weights_seed in any::<u64>(),
    ) {
        use pruned_landmark_labeling::graph::Xoshiro256pp;
        use pruned_landmark_labeling::pll::WeightedIndexBuilder;
        let mut rng = Xoshiro256pp::seed_from_u64(weights_seed);
        let edges: Vec<(u32, u32, u32)> = g
            .edges()
            .map(|(u, v)| (u, v, rng.next_below(30) as u32 + 1))
            .collect();
        let w = WeightedGraph::from_edges(g.num_vertices(), &edges).unwrap();
        let idx = WeightedIndexBuilder::new().build(&w).unwrap();
        let mut engine = dijkstra::DijkstraEngine::new(w.num_vertices());
        for s in (0..w.num_vertices() as u32).step_by(3) {
            for u in (0..w.num_vertices() as u32).step_by(5) {
                prop_assert_eq!(idx.distance(s, u), engine.distance(&w, s, u));
            }
        }
    }

    /// Bit-parallel invariants: unreached vertices carry empty masks, the
    /// root's own entry has distance 0 and empty masks (its neighbours are
    /// all in S⁺¹), and the per-root BP bound never undercuts the true
    /// distance. (Note: `set_minus1 & set_zero` may overlap — the S⁰
    /// recurrence of §5.2 overapproximates harmlessly; see `BpEntry`.)
    #[test]
    fn bp_entry_invariants(g in arb_graph(60, 150), t in 1usize..6) {
        use pruned_landmark_labeling::pll::types::INF8;
        let idx = IndexBuilder::new().bit_parallel_roots(t).build(&g).unwrap();
        let bp = idx.bit_parallel();
        for v in 0..g.num_vertices() as u32 {
            for e in bp.entries_of(v) {
                // `BpEntry` is packed: copy fields out before borrowing.
                if e.dist == INF8 {
                    prop_assert_eq!({ e.set_minus1 }, 0);
                    prop_assert_eq!({ e.set_zero }, 0);
                }
            }
        }
        for (i, &root) in bp.roots().iter().enumerate() {
            if root != u32::MAX {
                let e = bp.entry(root, i);
                prop_assert_eq!({ e.dist }, 0);
                prop_assert_eq!({ e.set_minus1 }, 0);
                prop_assert_eq!({ e.set_zero }, 0);
            }
        }
        // The BP query alone is an upper bound on the true distance.
        let mut engine = bfs::BfsEngine::new(g.num_vertices());
        for s in (0..g.num_vertices() as u32).step_by(5) {
            let d = engine.run(&g, s).to_vec();
            for u in (0..g.num_vertices() as u32).step_by(3) {
                let (rs, ru) = (idx.rank_of(s), idx.rank_of(u));
                let bound = bp.query(rs, ru);
                if bound != u32::MAX {
                    prop_assert!(bound >= d[u as usize], "BP bound under true distance");
                }
            }
        }
    }

    /// Deserialising arbitrary bytes must fail gracefully, never panic.
    #[test]
    fn serializer_rejects_garbage(mut bytes in proptest::collection::vec(any::<u8>(), 0..4096)) {
        // Unprefixed garbage.
        prop_assert!(serialize::load_index(bytes.as_slice()).is_err());
        // Garbage behind a valid magic: still an error, never a panic.
        let mut with_magic = b"PLLIDX01".to_vec();
        with_magic.append(&mut bytes);
        let _ = serialize::load_index(with_magic.as_slice());
    }

    /// Truncating a valid serialised index at ANY byte boundary must fail
    /// gracefully (or, for payload-preserving cuts, keep answers intact).
    #[test]
    fn serializer_survives_truncation(g in arb_graph(30, 60), cut in 0usize..200) {
        let idx = IndexBuilder::new().bit_parallel_roots(1).build(&g).unwrap();
        let mut buf = Vec::new();
        serialize::save_index(&idx, &mut buf).unwrap();
        let cut = cut.min(buf.len());
        let truncated = &buf[..buf.len() - cut];
        match serialize::load_index(truncated) {
            Ok(loaded) => {
                prop_assert_eq!(cut, 0, "only the untruncated buffer may load");
                prop_assert_eq!(loaded.distance(0, 1), idx.distance(0, 1));
            }
            Err(_) => prop_assert!(cut > 0),
        }
    }

    /// The batch-parallel build answers exactly like BFS on arbitrary
    /// simple graphs, and its labels equal the sequential build's.
    #[test]
    fn parallel_index_matches_bfs(
        g in arb_graph(60, 150),
        t in 0usize..6,
        threads in 2usize..6,
        seed in any::<u64>(),
    ) {
        let par = IndexBuilder::new()
            .bit_parallel_roots(t)
            .seed(seed)
            .threads(threads)
            .build(&g)
            .unwrap();
        let seq = IndexBuilder::new()
            .bit_parallel_roots(t)
            .seed(seed)
            .build(&g)
            .unwrap();
        prop_assert_eq!(seq.labels(), par.labels());
        let n = g.num_vertices();
        let mut engine = bfs::BfsEngine::new(n);
        for s in 0..n as u32 {
            let d = engine.run(&g, s).to_vec();
            for u in 0..n as u32 {
                let expect = (d[u as usize] != u32::MAX).then_some(d[u as usize]);
                prop_assert_eq!(par.distance(s, u), expect);
            }
        }
    }

    /// The batch-parallel directed build serializes byte-identically to
    /// the sequential build on arbitrary digraphs (derived from arbitrary
    /// simple graphs by seeded arc orientation).
    #[test]
    fn parallel_directed_matches_sequential(
        g in arb_graph(60, 150),
        orient_seed in any::<u64>(),
        threads in 2usize..6,
    ) {
        use pruned_landmark_labeling::pll::DirectedIndexBuilder;
        let dg = pll_bench::derive_digraph(&g, orient_seed);
        let seq = DirectedIndexBuilder::new().build(&dg).unwrap();
        let par = DirectedIndexBuilder::new().threads(threads).build(&dg).unwrap();
        prop_assert_eq!(seq.labels_in(), par.labels_in());
        prop_assert_eq!(seq.labels_out(), par.labels_out());
        let mut a = Vec::new();
        let mut b = Vec::new();
        serialize::save_directed_index(&seq, &mut a).unwrap();
        serialize::save_directed_index(&par, &mut b).unwrap();
        prop_assert_eq!(a, b);
    }

    /// The batch-parallel weighted build serializes byte-identically to
    /// the sequential build, and answers exactly like Dijkstra.
    #[test]
    fn parallel_weighted_matches_sequential(
        g in arb_graph(50, 120),
        weights_seed in any::<u64>(),
        threads in 2usize..6,
    ) {
        use pruned_landmark_labeling::pll::WeightedIndexBuilder;
        let w = pll_bench::derive_weighted(&g, weights_seed, 30);
        let seq = WeightedIndexBuilder::new().build(&w).unwrap();
        let par = WeightedIndexBuilder::new().threads(threads).build(&w).unwrap();
        let mut a = Vec::new();
        let mut b = Vec::new();
        serialize::save_weighted_index(&seq, &mut a).unwrap();
        serialize::save_weighted_index(&par, &mut b).unwrap();
        prop_assert_eq!(a, b);
        let mut engine = dijkstra::DijkstraEngine::new(w.num_vertices());
        for s in (0..w.num_vertices() as u32).step_by(4) {
            for u in (0..w.num_vertices() as u32).step_by(6) {
                prop_assert_eq!(par.distance(s, u), engine.distance(&w, s, u));
            }
        }
    }

    /// The batch-parallel weighted directed build serializes
    /// byte-identically to the sequential build.
    #[test]
    fn parallel_weighted_directed_matches_sequential(
        g in arb_graph(50, 120),
        seed in any::<u64>(),
        threads in 2usize..6,
    ) {
        use pruned_landmark_labeling::pll::WeightedDirectedIndexBuilder;
        let wd = pll_bench::derive_weighted_digraph(&g, seed, 30);
        let seq = WeightedDirectedIndexBuilder::new().build(&wd).unwrap();
        let par = WeightedDirectedIndexBuilder::new().threads(threads).build(&wd).unwrap();
        let mut a = Vec::new();
        let mut b = Vec::new();
        serialize::save_weighted_directed_index(&seq, &mut a).unwrap();
        serialize::save_weighted_directed_index(&par, &mut b).unwrap();
        prop_assert_eq!(a, b);
    }

    /// Phase 0 in isolation: the parallel ordering and relabelling
    /// reproduce the sequential outputs on arbitrary model graphs, at
    /// arbitrary thread counts — independent of the search phase.
    #[test]
    fn phase0_parallelism_is_deterministic(
        g in arb_model_graph(),
        seed in any::<u64>(),
        threads in 2usize..9,
    ) {
        use pruned_landmark_labeling::graph::reorder::{apply_order, apply_order_threaded};
        use pruned_landmark_labeling::pll::order::{compute_order, compute_order_threaded};
        for strat in [
            OrderingStrategy::Degree,
            OrderingStrategy::Closeness { samples: 6 },
            OrderingStrategy::Degeneracy,
        ] {
            let seq = compute_order(&g, &strat, seed).unwrap();
            let par = compute_order_threaded(&g, &strat, seed, threads).unwrap();
            prop_assert_eq!(&seq, &par, "{} order diverged", strat.name());
            let hs = apply_order(&g, &seq).unwrap();
            let hp = apply_order_threaded(&g, &seq, threads).unwrap();
            prop_assert_eq!(hs, hp, "relabelled graph diverged");
        }
    }

    /// The merge-join query is symmetric.
    #[test]
    fn query_symmetry(g in arb_model_graph()) {
        let idx = IndexBuilder::new().bit_parallel_roots(2).build(&g).unwrap();
        let n = g.num_vertices() as u32;
        for s in (0..n).step_by(7) {
            for u in (0..n).step_by(11) {
                prop_assert_eq!(idx.distance(s, u), idx.distance(u, s));
            }
        }
    }

    /// A v2 zero-copy view answers byte-identically to the owned index it
    /// was serialised from, on arbitrary model graphs with arbitrary
    /// bit-parallel root counts and parent storage.
    #[test]
    fn v2_view_matches_owned_index(g in arb_model_graph(), t in 0usize..6, parents in any::<bool>()) {
        use pruned_landmark_labeling::pll::{v2, AlignedBytes, AnyIndex};
        let mut builder = IndexBuilder::new();
        if parents {
            // Parent pointers are incompatible with bit-parallel roots.
            builder = builder.bit_parallel_roots(0).store_parents(true);
        } else {
            builder = builder.bit_parallel_roots(t);
        }
        let idx = builder.build(&g).unwrap();
        let mut bytes = Vec::new();
        v2::save_v2_index(&idx, &mut bytes).unwrap();
        let view = v2::open_v2_bytes(std::sync::Arc::new(AlignedBytes::from_bytes(&bytes)))
            .expect("zero-copy open");
        prop_assert!(matches!(view, AnyIndex::UndirectedView(_)));
        let n = g.num_vertices() as u32;
        for s in 0..n {
            for u in (0..n).step_by(3) {
                prop_assert_eq!(
                    view.distance(s, u),
                    idx.distance(s, u).map(u64::from),
                    "pair ({}, {})", s, u
                );
            }
        }
    }

    /// Triangle inequality holds for all indexed distances.
    /// Incremental updates: splitting a random model graph's edges into
    /// a base and a random insertion sequence, the [`DynamicIndex`] must
    /// answer byte-equal (as an answer stream) to a from-scratch rebuild
    /// of the updated graph after every batch — over both the owned and
    /// the zero-copy base representation.
    #[test]
    fn dynamic_updates_match_rebuild(
        g in arb_model_graph(),
        keep_permille in 300u32..950,
        batch in 1usize..9,
        t in 0usize..5,
    ) {
        use pruned_landmark_labeling::pll::{dynamic::DynamicIndex, v2, AlignedBytes, AnyIndex};
        use std::sync::Arc;
        let n = g.num_vertices();
        let all: Vec<(u32, u32)> = g.edges().collect();
        let keep = (all.len() as u64 * keep_permille as u64 / 1000) as usize;
        let base_graph = CsrGraph::from_edges(n, &all[..keep]).unwrap();
        let base_idx = IndexBuilder::new()
            .bit_parallel_roots(t)
            .build(&base_graph)
            .unwrap();
        let mut buf = Vec::new();
        v2::save_v2_index(&base_idx, &mut buf).unwrap();
        let view = v2::open_v2_bytes(Arc::new(AlignedBytes::from_bytes(&buf))).unwrap();
        for base in [Arc::new(AnyIndex::Undirected(base_idx)), Arc::new(view)] {
            let mut dyn_idx = DynamicIndex::new(base, &base_graph).unwrap();
            let mut applied = all[..keep].to_vec();
            for chunk in all[keep..].chunks(batch) {
                dyn_idx.apply(chunk).unwrap();
                applied.extend_from_slice(chunk);
                let rebuilt = IndexBuilder::new()
                    .bit_parallel_roots(t)
                    .build(&CsrGraph::from_edges(n, &applied).unwrap())
                    .unwrap();
                for s in 0..n as u32 {
                    for u in 0..n as u32 {
                        prop_assert_eq!(
                            dyn_idx.distance(s, u),
                            rebuilt.distance(s, u),
                            "pair ({}, {})", s, u
                        );
                    }
                }
            }
            // The flattened owned index answers identically too.
            let flat = dyn_idx.flatten(1).unwrap();
            for s in (0..n as u32).step_by(3) {
                for u in (0..n as u32).step_by(5) {
                    prop_assert_eq!(flat.distance(s, u), dyn_idx.distance(s, u));
                }
            }
        }
    }

    /// Incremental bit-parallel repair: after every insertion batch, the
    /// effective BP columns (base plus copy-on-write overrides) must be
    /// **word-identical** to a from-scratch 65-source BFS over the
    /// updated adjacency — not just answer-equal. This is the invariant
    /// that makes overlay-direct serving and the background flatten
    /// byte-reproducible.
    #[test]
    fn incremental_bp_repair_is_word_identical(
        g in arb_model_graph(),
        keep_permille in 300u32..950,
        batch in 1usize..9,
        t in 1usize..6,
    ) {
        use pruned_landmark_labeling::pll::{dynamic::DynamicIndex, AnyIndex};
        use std::sync::Arc;
        let n = g.num_vertices();
        let all: Vec<(u32, u32)> = g.edges().collect();
        let keep = (all.len() as u64 * keep_permille as u64 / 1000) as usize;
        let base_graph = CsrGraph::from_edges(n, &all[..keep]).unwrap();
        let base_idx = IndexBuilder::new()
            .bit_parallel_roots(t)
            .build(&base_graph)
            .unwrap();
        let mut dyn_idx =
            DynamicIndex::new(Arc::new(AnyIndex::Undirected(base_idx)), &base_graph).unwrap();
        for chunk in all[keep..].chunks(batch) {
            dyn_idx.apply(chunk).unwrap();
            prop_assert!(
                dyn_idx.bp_columns_word_identical().unwrap(),
                "a repaired BP column diverged from the full recompute"
            );
        }
    }

    #[test]
    fn triangle_inequality(g in arb_model_graph()) {
        let idx = IndexBuilder::new().bit_parallel_roots(2).build(&g).unwrap();
        let n = g.num_vertices() as u32;
        let probe: Vec<u32> = (0..n).step_by((n as usize / 8).max(1)).collect();
        for &s in &probe {
            for &u in &probe {
                for &v in &probe {
                    if let (Some(a), Some(b), Some(c)) = (
                        idx.distance(s, u),
                        idx.distance(u, v),
                        idx.distance(s, v),
                    ) {
                        prop_assert!(c <= a + b, "d({s},{v})={c} > {a}+{b}");
                    }
                }
            }
        }
    }
}
