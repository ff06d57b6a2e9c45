//! Integration tests for the batch-parallel construction path: the
//! parallel build must be *byte-identical* to the sequential build — same
//! `LabelSet` (`PartialEq` covers offsets, ranks, dists and sentinels),
//! same bit-parallel labels, same vertex order — across graph families,
//! seeds and thread counts, for **all four** index variants (the
//! directed/weighted cases compare the full serialized byte streams,
//! which is exactly what the CI determinism matrix asserts on a
//! multi-core runner).

use pll_bench::{derive_digraph, derive_weighted, derive_weighted_digraph};
use pruned_landmark_labeling::graph::reorder::{apply_order, apply_order_threaded};
use pruned_landmark_labeling::graph::{gen, CsrGraph};
use pruned_landmark_labeling::pll::{
    order::{compute_order, compute_order_threaded},
    serialize, DirectedIndexBuilder, IndexBuilder, OrderingStrategy, PllError,
    WeightedDirectedIndexBuilder, WeightedIndexBuilder,
};

fn assert_threads_agree(g: &CsrGraph, base: &IndexBuilder, label: &str) {
    let seq = base.clone().threads(1).build(g).unwrap();
    for k in [2usize, 4, 8] {
        let par = base.clone().threads(k).build(g).unwrap();
        assert_eq!(
            seq.labels(),
            par.labels(),
            "{label}: LabelSet diverged at threads={k}"
        );
        assert_eq!(
            seq.bit_parallel(),
            par.bit_parallel(),
            "{label}: bit-parallel labels diverged at threads={k}"
        );
        assert_eq!(
            seq.order(),
            par.order(),
            "{label}: vertex order diverged at threads={k}"
        );
    }
}

#[test]
fn parallel_build_matches_sequential_on_ba() {
    for seed in [3u64, 17, 91] {
        let g = gen::barabasi_albert(800, 3, seed).unwrap();
        assert_threads_agree(
            &g,
            &IndexBuilder::new().bit_parallel_roots(8),
            &format!("BA seed {seed}"),
        );
    }
}

#[test]
fn parallel_build_matches_sequential_on_er() {
    for seed in [5u64, 29, 77] {
        let g = gen::erdos_renyi_gnm(500, 1500, seed).unwrap();
        assert_threads_agree(
            &g,
            &IndexBuilder::new().bit_parallel_roots(4),
            &format!("ER seed {seed}"),
        );
    }
}

#[test]
fn parallel_build_matches_sequential_on_forest_fire() {
    for seed in [2u64, 13, 55] {
        let g = gen::forest_fire(400, 0.35, seed).unwrap();
        assert_threads_agree(
            &g,
            &IndexBuilder::new().bit_parallel_roots(0),
            &format!("forest-fire seed {seed}"),
        );
    }
}

#[test]
fn parallel_build_matches_sequential_without_degree_order() {
    let g = gen::barabasi_albert(400, 2, 8).unwrap();
    for (name, strat) in [
        ("random", OrderingStrategy::Random),
        ("closeness", OrderingStrategy::Closeness { samples: 8 }),
    ] {
        assert_threads_agree(
            &g,
            &IndexBuilder::new().ordering(strat).bit_parallel_roots(2),
            name,
        );
    }
}

#[test]
fn parallel_queries_are_exact() {
    use pruned_landmark_labeling::graph::traversal::bfs::BfsEngine;
    let g = gen::erdos_renyi_gnm(250, 700, 41).unwrap();
    let idx = IndexBuilder::new()
        .bit_parallel_roots(4)
        .threads(4)
        .build(&g)
        .unwrap();
    let n = g.num_vertices();
    let mut engine = BfsEngine::new(n);
    for s in (0..n as u32).step_by(3) {
        let d = engine.run(&g, s).to_vec();
        for t in 0..n as u32 {
            let expect = (d[t as usize] != u32::MAX).then_some(d[t as usize]);
            assert_eq!(idx.distance(s, t), expect, "pair ({s}, {t})");
        }
    }
}

#[test]
fn parallel_build_matches_sequential_directed() {
    for seed in [3u64, 21, 64] {
        let base = gen::barabasi_albert(500, 3, seed).unwrap();
        let g = derive_digraph(&base, seed);
        for (oname, ordering) in [
            ("degree", OrderingStrategy::Degree),
            ("random", OrderingStrategy::Random),
        ] {
            let builder = DirectedIndexBuilder::new().ordering(ordering).seed(seed);
            let seq = builder.clone().threads(1).build(&g).unwrap();
            let mut seq_bytes = Vec::new();
            serialize::save_directed_index(&seq, &mut seq_bytes).unwrap();
            for k in [2usize, 4, 8] {
                let par = builder.clone().threads(k).build(&g).unwrap();
                assert_eq!(
                    seq.labels_in(),
                    par.labels_in(),
                    "directed/{oname} seed {seed}: L_IN diverged at threads={k}"
                );
                assert_eq!(
                    seq.labels_out(),
                    par.labels_out(),
                    "directed/{oname} seed {seed}: L_OUT diverged at threads={k}"
                );
                let mut par_bytes = Vec::new();
                serialize::save_directed_index(&par, &mut par_bytes).unwrap();
                assert_eq!(
                    seq_bytes, par_bytes,
                    "directed/{oname} seed {seed}: serialized bytes diverged at threads={k}"
                );
            }
        }
    }
}

#[test]
fn parallel_build_matches_sequential_weighted() {
    for (family, seed) in [("ba", 5u64), ("ba", 31), ("er", 9)] {
        let base = match family {
            "ba" => gen::barabasi_albert(400, 3, seed).unwrap(),
            _ => gen::erdos_renyi_gnm(350, 1100, seed).unwrap(),
        };
        let g = derive_weighted(&base, seed, 24);
        for (oname, ordering) in [
            ("degree", OrderingStrategy::Degree),
            ("random", OrderingStrategy::Random),
        ] {
            let builder = WeightedIndexBuilder::new().ordering(ordering).seed(seed);
            let seq = builder.clone().threads(1).build(&g).unwrap();
            let mut seq_bytes = Vec::new();
            serialize::save_weighted_index(&seq, &mut seq_bytes).unwrap();
            for k in [2usize, 4, 8] {
                let par = builder.clone().threads(k).build(&g).unwrap();
                let mut par_bytes = Vec::new();
                serialize::save_weighted_index(&par, &mut par_bytes).unwrap();
                assert_eq!(
                    seq_bytes, par_bytes,
                    "weighted/{family}/{oname} seed {seed}: serialized bytes diverged at \
                     threads={k}"
                );
            }
        }
    }
}

#[test]
fn parallel_build_matches_sequential_weighted_directed() {
    for seed in [2u64, 18, 47] {
        let base = gen::barabasi_albert(350, 3, seed).unwrap();
        let g = derive_weighted_digraph(&base, seed, 20);
        for (oname, ordering) in [
            ("degree", OrderingStrategy::Degree),
            ("random", OrderingStrategy::Random),
        ] {
            let builder = WeightedDirectedIndexBuilder::new()
                .ordering(ordering)
                .seed(seed);
            let seq = builder.clone().threads(1).build(&g).unwrap();
            let mut seq_bytes = Vec::new();
            serialize::save_weighted_directed_index(&seq, &mut seq_bytes).unwrap();
            for k in [2usize, 4, 8] {
                let par = builder.clone().threads(k).build(&g).unwrap();
                let mut par_bytes = Vec::new();
                serialize::save_weighted_directed_index(&par, &mut par_bytes).unwrap();
                assert_eq!(
                    seq_bytes, par_bytes,
                    "weighted-directed/{oname} seed {seed}: serialized bytes diverged at \
                     threads={k}"
                );
            }
        }
    }
}

#[test]
fn parallel_variant_queries_are_exact() {
    // Spot-check exactness of the parallel variant builds against plain
    // BFS/Dijkstra ground truth through the public query API.
    use pruned_landmark_labeling::graph::traversal::dijkstra;
    let base = gen::erdos_renyi_gnm(150, 450, 8).unwrap();

    let dg = derive_digraph(&base, 8);
    let didx = DirectedIndexBuilder::new().threads(4).build(&dg).unwrap();
    // Directed ground truth: BFS over out-arcs.
    let n = dg.num_vertices();
    for s in (0..n as u32).step_by(7) {
        let mut dist = vec![u32::MAX; n];
        let mut queue = vec![s];
        dist[s as usize] = 0;
        let mut head = 0;
        while head < queue.len() {
            let u = queue[head];
            head += 1;
            for &w in dg.out_neighbors(u) {
                if dist[w as usize] == u32::MAX {
                    dist[w as usize] = dist[u as usize] + 1;
                    queue.push(w);
                }
            }
        }
        for t in 0..n as u32 {
            let expect = (dist[t as usize] != u32::MAX).then_some(dist[t as usize]);
            assert_eq!(didx.distance(s, t), expect, "directed pair ({s} -> {t})");
        }
    }

    let wg = derive_weighted(&base, 8, 12);
    let widx = WeightedIndexBuilder::new().threads(4).build(&wg).unwrap();
    let mut engine = dijkstra::DijkstraEngine::new(wg.num_vertices());
    for s in (0..n as u32).step_by(11) {
        for t in (0..n as u32).step_by(5) {
            assert_eq!(
                widx.distance(s, t),
                engine.distance(&wg, s, t),
                "weighted pair ({s}, {t})"
            );
        }
    }
}

#[test]
fn phase0_parallelism_alone_is_output_invariant() {
    // Phase 0 in isolation: with the searches out of the picture, the
    // parallel ordering (chunk sort + merge, closeness BFS fan-out) and
    // the parallel relabelling (chunked translation into disjoint CSR
    // slices) must reproduce their sequential outputs exactly. n is
    // large enough that the chunked paths actually engage.
    for (label, g) in [
        ("ba", gen::barabasi_albert(2500, 3, 13).unwrap()),
        ("er", gen::erdos_renyi_gnm(2000, 6000, 29).unwrap()),
    ] {
        for strat in [
            OrderingStrategy::Degree,
            OrderingStrategy::Closeness { samples: 12 },
            OrderingStrategy::Random,
            OrderingStrategy::Degeneracy,
        ] {
            let seq = compute_order(&g, &strat, 7).unwrap();
            for threads in [2usize, 4, 8] {
                assert_eq!(
                    seq,
                    compute_order_threaded(&g, &strat, 7, threads).unwrap(),
                    "{label}: {} order diverged at threads={threads}",
                    strat.name()
                );
            }
        }
        let order = compute_order(&g, &OrderingStrategy::Degree, 7).unwrap();
        let seq = apply_order(&g, &order).unwrap();
        for threads in [2usize, 4, 8] {
            assert_eq!(
                seq,
                apply_order_threaded(&g, &order, threads).unwrap(),
                "{label}: relabelled graph diverged at threads={threads}"
            );
        }
    }
}

#[test]
fn pinned_order_isolates_relabel_and_flatten_parallelism() {
    // With a Custom order the Phase-0a output is fixed by construction,
    // so a threads sweep over the full build exercises the parallel
    // relabelling, searches and flatten against the same rank space —
    // byte-equality of the serialized index pins all three.
    let g = gen::barabasi_albert(1500, 3, 99).unwrap();
    let mut order: Vec<u32> = (0..1500).collect();
    order.sort_by_key(|&v| (v as u64 * 2_654_435_761) % 1500);
    let base = IndexBuilder::new()
        .ordering(OrderingStrategy::Custom(order))
        .bit_parallel_roots(4);
    let seq = base.clone().threads(1).build(&g).unwrap();
    let mut seq_bytes = Vec::new();
    serialize::save_index(&seq, &mut seq_bytes).unwrap();
    for threads in [2usize, 4, 8] {
        let par = base.clone().threads(threads).build(&g).unwrap();
        let mut par_bytes = Vec::new();
        serialize::save_index(&par, &mut par_bytes).unwrap();
        assert_eq!(
            seq_bytes, par_bytes,
            "custom-order build diverged at threads={threads}"
        );
    }
}

#[test]
fn per_phase_stats_are_populated_on_both_paths() {
    let g = gen::barabasi_albert(1200, 3, 3).unwrap();
    for threads in [1usize, 4] {
        let idx = IndexBuilder::new()
            .bit_parallel_roots(4)
            .threads(threads)
            .build(&g)
            .unwrap();
        let s = idx.stats();
        for (phase, secs) in [
            ("order", s.order_seconds),
            ("relabel", s.relabel_seconds),
            ("search", s.search_seconds()),
            ("flatten", s.flatten_seconds),
        ] {
            assert!(
                secs > 0.0,
                "threads={threads}: phase '{phase}' reported no elapsed time"
            );
        }
        assert!(s.total_seconds() >= s.order_seconds + s.flatten_seconds);
    }
}

#[test]
fn parallel_serialization_roundtrip_matches_sequential_bytes() {
    let g = gen::barabasi_albert(300, 3, 6).unwrap();
    let seq = IndexBuilder::new().bit_parallel_roots(4).build(&g).unwrap();
    let par = IndexBuilder::new()
        .bit_parallel_roots(4)
        .threads(4)
        .build(&g)
        .unwrap();
    let mut seq_bytes = Vec::new();
    let mut par_bytes = Vec::new();
    serialize::save_index(&seq, &mut seq_bytes).unwrap();
    serialize::save_index(&par, &mut par_bytes).unwrap();
    assert_eq!(
        seq_bytes, par_bytes,
        "serialised indices must be byte-identical"
    );
}

#[test]
fn bit_parallel_phase_errors_are_deterministic() {
    // Every BP BFS on a 300-vertex path from a vertex near an end runs past
    // the 8-bit distance ceiling. Several slots fail at once on the
    // parallel path; it must report the lowest one, as the sequential
    // build (which stops at the first) does.
    let g = gen::path(300).unwrap();
    for t in [1usize, 4] {
        let errors: Vec<PllError> = [1usize, 2, 4]
            .iter()
            .map(|&threads| {
                IndexBuilder::new()
                    .bit_parallel_roots(t)
                    .threads(threads)
                    .build(&g)
                    .unwrap_err()
            })
            .collect();
        assert!(
            matches!(errors[0], PllError::DiameterTooLarge { .. }),
            "t={t}: unexpected error {:?}",
            errors[0]
        );
        for (e, threads) in errors.iter().zip([1, 2, 4]) {
            assert_eq!(
                format!("{e:?}"),
                format!("{:?}", errors[0]),
                "t={t}: threads={threads} reported a different error"
            );
        }
    }
}
