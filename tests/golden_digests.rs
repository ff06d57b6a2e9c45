//! Golden digests of single-threaded v2 index images, one per variant,
//! graph family and ordering.
//!
//! The batch-parallel tests compare every thread count against
//! `threads(1)`; these constants pin `threads(1)` itself, so a change to
//! the one pruned search cannot move both sides of those comparisons at
//! once. Each case serialises the index to a v2 image, zeroes the bytes
//! that vary run to run — the header checksum (56..64) and the five
//! persisted phase timings (64..104) — and hashes the rest with 64-bit
//! FNV-1a. Everything else is pinned: the header, the persisted counters
//! (visited / labeled / pruned totals, `threads`, `parallel_batches`,
//! `repruned`), the section table and every label section.
//!
//! A mismatch prints every case's digest, so an intended format change
//! can re-pin the table in one run.

use pll_bench::{derive_digraph, derive_weighted, derive_weighted_digraph};
use pruned_landmark_labeling::graph::gen::{self, RmatParams};
use pruned_landmark_labeling::graph::CsrGraph;
use pruned_landmark_labeling::pll::{
    v2, DirectedIndexBuilder, IndexBuilder, OrderingStrategy, WeightedDirectedIndexBuilder,
    WeightedIndexBuilder,
};

/// `(case, digest)` of every pinned build, in the order [`images`] makes
/// them.
const GOLDEN: &[(&str, u64)] = &[
    ("undirected/ba/degree", 0x51b3047b3a4b8601),
    ("directed/ba/degree", 0xf2abae7a7c98885b),
    ("weighted/ba/degree", 0x8503f8af53aa19e1),
    ("weighted-directed/ba/degree", 0xcdac0a14fd26001c),
    ("undirected/ba/random", 0x315299fff10240f7),
    ("directed/ba/random", 0xe9b0cf8b230d0173),
    ("weighted/ba/random", 0x28957f8c5d3e3050),
    ("weighted-directed/ba/random", 0xc8bf17e0bf7a1d36),
    ("undirected/rmat/degree", 0x00e92623a255a518),
    ("directed/rmat/degree", 0x2ed854bdc3cd7e52),
    ("weighted/rmat/degree", 0x49721e34206e2445),
    ("weighted-directed/rmat/degree", 0x2cb95e6e1c60300d),
    ("undirected/rmat/random", 0xaa81f350252909c3),
    ("directed/rmat/random", 0xaaa666353f8b5d3a),
    ("weighted/rmat/random", 0x2592be8ca06c66f3),
    ("weighted-directed/rmat/random", 0x7a9059277bea9b35),
    ("undirected-parents/ba/degree", 0x435c37afa04bf2ef),
];

/// Header checksum and persisted timings: the only bytes that differ
/// between two runs of the same build.
const VOLATILE: std::ops::Range<usize> = 56..104;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn digest(mut image: Vec<u8>) -> u64 {
    image[VOLATILE].fill(0);
    fnv1a(&image)
}

fn graphs() -> [(&'static str, CsrGraph); 2] {
    [
        ("ba", gen::barabasi_albert(400, 3, 17).unwrap()),
        ("rmat", gen::rmat(8, 6, RmatParams::GRAPH500, 5).unwrap()),
    ]
}

/// Every pinned build at `threads(1)`, as `(case, v2 image)`.
fn images() -> Vec<(String, Vec<u8>)> {
    let mut out = Vec::new();
    for (family, g) in graphs() {
        for (oname, ordering) in [
            ("degree", OrderingStrategy::Degree),
            ("random", OrderingStrategy::Random),
        ] {
            let case = |variant: &str| format!("{variant}/{family}/{oname}");
            let seed = 29;

            let idx = IndexBuilder::new()
                .ordering(ordering.clone())
                .seed(seed)
                .bit_parallel_roots(4)
                .threads(1)
                .build(&g)
                .unwrap();
            let mut image = Vec::new();
            v2::save_v2_index(&idx, &mut image).unwrap();
            out.push((case("undirected"), image));

            let dg = derive_digraph(&g, seed);
            let idx = DirectedIndexBuilder::new()
                .ordering(ordering.clone())
                .seed(seed)
                .threads(1)
                .build(&dg)
                .unwrap();
            let mut image = Vec::new();
            v2::save_v2_directed_index(&idx, &mut image).unwrap();
            out.push((case("directed"), image));

            let wg = derive_weighted(&g, seed, 24);
            let idx = WeightedIndexBuilder::new()
                .ordering(ordering.clone())
                .seed(seed)
                .threads(1)
                .build(&wg)
                .unwrap();
            let mut image = Vec::new();
            v2::save_v2_weighted_index(&idx, &mut image).unwrap();
            out.push((case("weighted"), image));

            let wdg = derive_weighted_digraph(&g, seed, 20);
            let idx = WeightedDirectedIndexBuilder::new()
                .ordering(ordering)
                .seed(seed)
                .threads(1)
                .build(&wdg)
                .unwrap();
            let mut image = Vec::new();
            v2::save_v2_weighted_directed_index(&idx, &mut image).unwrap();
            out.push((case("weighted-directed"), image));
        }
    }

    // Parent pointers ride the same search; pin one build that stores them.
    let g = gen::barabasi_albert(400, 3, 17).unwrap();
    let idx = IndexBuilder::new()
        .bit_parallel_roots(0)
        .store_parents(true)
        .threads(1)
        .build(&g)
        .unwrap();
    assert!(idx.has_parents());
    let mut image = Vec::new();
    v2::save_v2_index(&idx, &mut image).unwrap();
    out.push(("undirected-parents/ba/degree".into(), image));
    out
}

#[test]
fn single_threaded_v2_images_match_their_golden_digests() {
    let got: Vec<(String, u64)> = images()
        .into_iter()
        .map(|(case, image)| (case, digest(image)))
        .collect();
    let want: Vec<(String, u64)> = GOLDEN
        .iter()
        .map(|&(case, d)| (case.to_string(), d))
        .collect();
    if got != want {
        let table: String = got
            .iter()
            .map(|(case, d)| format!("    (\"{case}\", {d:#018x}),\n"))
            .collect();
        panic!("threads(1) v2 images moved; digests of this build:\n{table}");
    }
}

#[test]
fn volatile_bytes_are_the_only_run_to_run_difference() {
    // Two builds of the same case differ at most in the zeroed window, so
    // the digests above cannot flake on timing.
    let (a, b) = (images(), images());
    for ((case, x), (_, y)) in a.iter().zip(&b) {
        assert_eq!(x.len(), y.len(), "{case}: image length");
        let differs: Vec<usize> = (0..x.len()).filter(|&i| x[i] != y[i]).collect();
        assert!(
            differs.iter().all(|i| VOLATILE.contains(i)),
            "{case}: bytes outside {VOLATILE:?} differ: {differs:?}"
        );
    }
}
