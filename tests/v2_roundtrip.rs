//! v2 round-trip coverage across all four index variants: build → write
//! v2 → zero-copy open → queries **byte-identical** to the owned
//! in-memory index, plus v1 compatibility and cross-generation
//! agreement. (The per-label-allocation proof lives in
//! `tests/zero_copy_alloc.rs`, alone in its binary so a global
//! allocation counter isn't polluted by parallel tests.)

use pll_bench::{derive_digraph, derive_weighted, derive_weighted_digraph};
use pruned_landmark_labeling::graph::gen;
use pruned_landmark_labeling::pll::{
    serialize, v2, AlignedBytes, AnyIndex, DirectedIndexBuilder, IndexBuilder,
    WeightedDirectedIndexBuilder, WeightedIndexBuilder,
};
use std::sync::Arc;

/// Fixed pair set the round-trip equality quantifies over.
fn fixed_pairs(n: u32) -> Vec<(u32, u32)> {
    let mut pairs = Vec::new();
    for i in 0..n {
        pairs.push((i, (i * 7 + 3) % n));
        pairs.push(((i * 13 + 1) % n, (i * 31 + 17) % n));
        pairs.push((i, i)); // self pairs
    }
    pairs
}

/// Encodes a distance sequence as raw little-endian bytes, so the
/// owned-vs-view comparison is literally byte-for-byte.
fn answer_bytes(answers: impl Iterator<Item = Option<u64>>) -> Vec<u8> {
    let mut out = Vec::new();
    for a in answers {
        out.extend_from_slice(&a.unwrap_or(u64::MAX).to_le_bytes());
    }
    out
}

fn open_view(bytes: &[u8]) -> AnyIndex {
    v2::open_v2_bytes(Arc::new(AlignedBytes::from_bytes(bytes))).expect("open v2 buffer zero-copy")
}

#[test]
fn undirected_owned_and_view_answers_are_byte_identical() {
    for (store_parents, bp_roots) in [(false, 4), (true, 0)] {
        let g = gen::barabasi_albert(300, 3, 11).unwrap();
        let idx = IndexBuilder::new()
            .bit_parallel_roots(bp_roots)
            .store_parents(store_parents)
            .build(&g)
            .unwrap();
        let mut buf = Vec::new();
        v2::save_v2_index(&idx, &mut buf).unwrap();
        let view = open_view(&buf);
        assert!(view.is_zero_copy());
        let pairs = fixed_pairs(300);
        let owned_bytes = answer_bytes(
            pairs
                .iter()
                .map(|&(s, t)| idx.distance(s, t).map(u64::from)),
        );
        let view_bytes = answer_bytes(pairs.iter().map(|&(s, t)| view.distance(s, t)));
        assert_eq!(
            owned_bytes, view_bytes,
            "undirected (parents={store_parents}) view answers diverge"
        );
        // The persisted stats match what the builder reported.
        assert_eq!(view.stats().total_labeled, idx.stats().total_labeled);
        assert_eq!(view.stats().threads, idx.stats().threads);
        assert!(view.stats().total_seconds() > 0.0);
    }
}

#[test]
fn directed_owned_and_view_answers_are_byte_identical() {
    let g = gen::barabasi_albert(250, 3, 5).unwrap();
    let dg = derive_digraph(&g, 77);
    let idx = DirectedIndexBuilder::new().build(&dg).unwrap();
    let mut buf = Vec::new();
    v2::save_v2_directed_index(&idx, &mut buf).unwrap();
    let view = open_view(&buf);
    let pairs = fixed_pairs(250);
    assert_eq!(
        answer_bytes(
            pairs
                .iter()
                .map(|&(s, t)| idx.distance(s, t).map(u64::from))
        ),
        answer_bytes(pairs.iter().map(|&(s, t)| view.distance(s, t))),
        "directed view answers diverge"
    );
}

#[test]
fn weighted_owned_and_view_answers_are_byte_identical() {
    let g = gen::erdos_renyi_gnm(200, 600, 9).unwrap();
    let wg = derive_weighted(&g, 21, 9);
    let idx = WeightedIndexBuilder::new().build(&wg).unwrap();
    let mut buf = Vec::new();
    v2::save_v2_weighted_index(&idx, &mut buf).unwrap();
    let view = open_view(&buf);
    let pairs = fixed_pairs(200);
    assert_eq!(
        answer_bytes(pairs.iter().map(|&(s, t)| idx.distance(s, t))),
        answer_bytes(pairs.iter().map(|&(s, t)| view.distance(s, t))),
        "weighted view answers diverge"
    );
}

#[test]
fn weighted_directed_owned_and_view_answers_are_byte_identical() {
    let g = gen::erdos_renyi_gnm(150, 450, 3).unwrap();
    let wdg = derive_weighted_digraph(&g, 33, 9);
    let idx = WeightedDirectedIndexBuilder::new().build(&wdg).unwrap();
    let mut buf = Vec::new();
    v2::save_v2_weighted_directed_index(&idx, &mut buf).unwrap();
    let view = open_view(&buf);
    let pairs = fixed_pairs(150);
    assert_eq!(
        answer_bytes(pairs.iter().map(|&(s, t)| idx.distance(s, t))),
        answer_bytes(pairs.iter().map(|&(s, t)| view.distance(s, t))),
        "weighted directed view answers diverge"
    );
}

#[test]
fn v1_files_still_load_and_agree_with_v2() {
    // The v1 readers stay supported: the same index written in both
    // generations must answer identically through AnyIndex.
    let dir = std::env::temp_dir();
    let pid = std::process::id();

    let g = gen::barabasi_albert(150, 3, 4).unwrap();
    let idx = IndexBuilder::new().bit_parallel_roots(3).build(&g).unwrap();
    let v1_path = dir.join(format!("pll_rt_u_v1_{pid}.idx"));
    let v2_path = dir.join(format!("pll_rt_u_v2_{pid}.idx"));
    serialize::save_index(&idx, std::fs::File::create(&v1_path).unwrap()).unwrap();
    v2::save_v2_index(&idx, std::fs::File::create(&v2_path).unwrap()).unwrap();
    let v1 = AnyIndex::open(&v1_path).unwrap();
    let v2i = AnyIndex::open(&v2_path).unwrap();
    assert_eq!(v1.format_version(), 1);
    assert_eq!(v2i.format_version(), 2);
    let pairs = fixed_pairs(150);
    assert_eq!(
        answer_bytes(pairs.iter().map(|&(s, t)| v1.distance(s, t))),
        answer_bytes(pairs.iter().map(|&(s, t)| v2i.distance(s, t))),
    );
    std::fs::remove_file(&v1_path).ok();
    std::fs::remove_file(&v2_path).ok();

    let wg = derive_weighted(&g, 8, 7);
    let widx = WeightedIndexBuilder::new().build(&wg).unwrap();
    let v1_path = dir.join(format!("pll_rt_w_v1_{pid}.idx"));
    let v2_path = dir.join(format!("pll_rt_w_v2_{pid}.idx"));
    serialize::save_weighted_index(&widx, std::fs::File::create(&v1_path).unwrap()).unwrap();
    v2::save_v2_weighted_index(&widx, std::fs::File::create(&v2_path).unwrap()).unwrap();
    let v1 = AnyIndex::open(&v1_path).unwrap();
    let v2i = AnyIndex::open(&v2_path).unwrap();
    assert_eq!(
        answer_bytes(pairs.iter().map(|&(s, t)| v1.distance(s, t))),
        answer_bytes(pairs.iter().map(|&(s, t)| v2i.distance(s, t))),
    );
    std::fs::remove_file(&v1_path).ok();
    std::fs::remove_file(&v2_path).ok();
}

#[test]
fn magic_sniffing_distinguishes_all_eight_magics() {
    use pruned_landmark_labeling::pll::{FormatVersion, IndexFormat};
    for (magic, format, version) in [
        (b"PLLIDX01", IndexFormat::Undirected, FormatVersion::V1),
        (b"PLLDIDX1", IndexFormat::Directed, FormatVersion::V1),
        (b"PLLWIDX1", IndexFormat::Weighted, FormatVersion::V1),
        (
            b"PLLWDID1",
            IndexFormat::WeightedDirected,
            FormatVersion::V1,
        ),
        (b"PLLIDX02", IndexFormat::Undirected, FormatVersion::V2),
        (b"PLLDIDX2", IndexFormat::Directed, FormatVersion::V2),
        (b"PLLWIDX2", IndexFormat::Weighted, FormatVersion::V2),
        (
            b"PLLWDID2",
            IndexFormat::WeightedDirected,
            FormatVersion::V2,
        ),
    ] {
        let (f, v) = serialize::detect_format_versioned(magic).unwrap();
        assert_eq!((f, v), (format, version), "magic {magic:?}");
        assert_eq!(serialize::detect_format(magic).unwrap(), format);
    }
    assert!(serialize::detect_format(b"PLLIDX03").is_err());
}
