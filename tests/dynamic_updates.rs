//! Integration tests for the incremental-update subsystem
//! (`pll_core::dynamic`): after any sequence of edge insertions the
//! [`DynamicIndex`] must answer **exactly** like a from-scratch rebuild
//! of the updated graph, over both storage backends, with and without
//! bit-parallel labels, and through the flatten → v2 → reopen cycle.

use pruned_landmark_labeling::graph::{gen, CsrGraph};
use pruned_landmark_labeling::pll::{
    dynamic::DynamicIndex, v2, AlignedBytes, AnyIndex, IndexBuilder,
};
use std::sync::Arc;

type Edge = (u32, u32);

fn rebuild(n: usize, edges: &[Edge], bp_roots: usize) -> pruned_landmark_labeling::pll::PllIndex {
    let g = CsrGraph::from_edges(n, edges).unwrap();
    IndexBuilder::new()
        .bit_parallel_roots(bp_roots)
        .build(&g)
        .unwrap()
}

/// Answer-stream equality: the required "byte-equal to a
/// from-scratch rebuild", rendered as the exact text `pll query` would
/// print for every pair.
fn assert_answers_match(dyn_idx: &DynamicIndex, rebuilt: &pruned_landmark_labeling::pll::PllIndex) {
    let n = dyn_idx.num_vertices();
    let mut online = String::new();
    let mut offline = String::new();
    for s in 0..n as u32 {
        for t in 0..n as u32 {
            use std::fmt::Write;
            match dyn_idx.distance(s, t) {
                Some(d) => writeln!(online, "{s}\t{t}\t{d}").unwrap(),
                None => writeln!(online, "{s}\t{t}\tunreachable").unwrap(),
            }
            match rebuilt.distance(s, t) {
                Some(d) => writeln!(offline, "{s}\t{t}\t{d}").unwrap(),
                None => writeln!(offline, "{s}\t{t}\tunreachable").unwrap(),
            }
        }
    }
    assert_eq!(online, offline, "answer streams diverge");
}

/// Builds the base over `keep` edges, applies the rest in `batch`-sized
/// chunks through both the owned and the zero-copy backend, comparing
/// against a rebuild after every chunk.
fn drive(full: &CsrGraph, keep: usize, batch: usize, bp_roots: usize) {
    let n = full.num_vertices();
    let all: Vec<Edge> = full.edges().collect();
    assert!(keep <= all.len(), "test misconfigured");
    let base_graph = CsrGraph::from_edges(n, &all[..keep]).unwrap();
    let base_idx = IndexBuilder::new()
        .bit_parallel_roots(bp_roots)
        .build(&base_graph)
        .unwrap();
    // Owned backend and zero-copy v2 view of the very same index.
    let mut buf = Vec::new();
    v2::save_v2_index(&base_idx, &mut buf).unwrap();
    let view = v2::open_v2_bytes(Arc::new(AlignedBytes::from_bytes(&buf))).unwrap();
    assert!(view.is_zero_copy());
    for base in [Arc::new(AnyIndex::Undirected(base_idx)), Arc::new(view)] {
        let mut dyn_idx = DynamicIndex::new(base, &base_graph).unwrap();
        let mut applied = all[..keep].to_vec();
        for chunk in all[keep..].chunks(batch.max(1)) {
            dyn_idx.apply(chunk).unwrap();
            applied.extend_from_slice(chunk);
            let rebuilt = rebuild(n, &applied, bp_roots);
            assert_answers_match(&dyn_idx, &rebuilt);
        }
    }
}

#[test]
fn incremental_equals_rebuild_er() {
    let full = gen::erdos_renyi_gnm(70, 180, 21).unwrap();
    drive(&full, 120, 10, 0);
    drive(&full, 120, 10, 4);
}

#[test]
fn incremental_equals_rebuild_ba() {
    let full = gen::barabasi_albert(80, 3, 17).unwrap();
    let m = full.num_edges();
    drive(&full, m * 2 / 3, 7, 2);
}

#[test]
fn incremental_equals_rebuild_sparse_to_dense_grid() {
    // A grid growing diagonal shortcuts: many distance changes per edge.
    let full = {
        let grid = gen::grid(6, 6).unwrap();
        let mut edges: Vec<Edge> = grid.edges().collect();
        for r in 0..5u32 {
            for c in 0..5u32 {
                edges.push((r * 6 + c, (r + 1) * 6 + c + 1));
            }
        }
        CsrGraph::from_edges(36, &edges).unwrap()
    };
    let keep = gen::grid(6, 6).unwrap().num_edges();
    drive(&full, keep, 4, 1);
}

#[test]
fn component_merges_stay_exact() {
    // Three separate clusters bridged one edge at a time.
    let mut edges: Vec<Edge> = Vec::new();
    for c in 0..3u32 {
        let base = c * 10;
        for i in 0..9 {
            edges.push((base + i, base + i + 1));
            if i % 3 == 0 {
                edges.push((base + i, base + (i + 4) % 10));
            }
        }
    }
    let keep = edges.len();
    edges.push((5, 15));
    edges.push((17, 25));
    edges.push((3, 29));
    let full = CsrGraph::from_edges(30, &edges).unwrap();
    drive(&full, keep, 1, 0);
    drive(&full, keep, 1, 8);
}

#[test]
fn flatten_roundtrips_through_v2_and_matches_rebuild() {
    let full = gen::erdos_renyi_gnm(60, 160, 33).unwrap();
    let all: Vec<Edge> = full.edges().collect();
    let keep = 100;
    let base_graph = CsrGraph::from_edges(60, &all[..keep]).unwrap();
    let base = IndexBuilder::new()
        .bit_parallel_roots(3)
        .build(&base_graph)
        .unwrap();
    let mut dyn_idx = DynamicIndex::new(Arc::new(AnyIndex::Undirected(base)), &base_graph).unwrap();
    dyn_idx.apply(&all[keep..]).unwrap();

    // Flatten with the parallel scatter engaged (threads = 0 → auto).
    let flat = dyn_idx.flatten(0).unwrap();
    let mut buf = Vec::new();
    v2::save_v2_index(&flat, &mut buf).unwrap();
    let reopened = v2::open_v2_bytes(Arc::new(AlignedBytes::from_bytes(&buf))).unwrap();
    let rebuilt = rebuild(60, &all, 3);
    for s in 0..60u32 {
        for t in 0..60u32 {
            let expect = rebuilt.distance(s, t).map(u64::from);
            assert_eq!(reopened.distance(s, t), expect, "reopened pair ({s}, {t})");
            assert_eq!(
                dyn_idx.distance(s, t).map(u64::from),
                expect,
                "dynamic pair ({s}, {t})"
            );
        }
    }
    // And the flattened file is a valid base for further updates.
    let updated_graph = CsrGraph::from_edges(60, &all).unwrap();
    let next = DynamicIndex::new(Arc::new(reopened), &updated_graph).unwrap();
    assert_eq!(next.epoch(), 0);
    assert_eq!(next.delta_entries(), 0);
}

#[test]
fn connected_tracks_insertions() {
    let g = CsrGraph::from_edges(10, &[(0, 1), (1, 2), (3, 4), (5, 6), (6, 7), (8, 9)]).unwrap();
    let idx = IndexBuilder::new().bit_parallel_roots(2).build(&g).unwrap();
    let mut dyn_idx = DynamicIndex::new(Arc::new(AnyIndex::Undirected(idx)), &g).unwrap();
    assert!(!dyn_idx.connected(0, 9));
    assert!(!dyn_idx.connected(2, 3));
    dyn_idx.apply(&[(2, 3)]).unwrap();
    assert!(dyn_idx.connected(0, 4));
    assert!(!dyn_idx.connected(0, 9));
    dyn_idx.apply(&[(4, 5), (7, 8)]).unwrap();
    assert!(dyn_idx.connected(0, 9));
    assert_eq!(dyn_idx.epoch(), 2);
}
