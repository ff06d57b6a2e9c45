//! CI determinism check: for one `(variant, threads)` cell of the
//! determinism matrix, build each test graph sequentially and with
//! `--threads k`, serialize both indices, and assert the bytes are
//! identical. The dev container has two cores, too few to shake out
//! schedule races, so this binary is the piece that proves the
//! batch-parallel commit discipline on a machine with more concurrency
//! (the CI runner).
//!
//! ```text
//! determinism_matrix --variant undirected|directed|weighted|weighted-directed
//!                    [--threads k] [--n N]
//! ```
//!
//! Exit status 0 means every graph family × seed produced byte-identical
//! serialized labels; any divergence aborts with a diff summary on
//! stderr and exit status 1. Each cell also asserts that the parallel
//! build really ran on the requested thread count with every
//! construction phase reporting elapsed time — `threads > 1` drives the
//! parallel ordering and label flatten on every variant (and the
//! parallel chunked relabelling on the undirected builder; the variant
//! builders translate arcs sequentially) through the same knob as the
//! pruned searches, so a green cell proves byte-equality *with the
//! parallel Phase 0 and flatten active*.

use pll_bench::{derive_digraph, derive_weighted, derive_weighted_digraph, reference_graphs, time};
use pll_core::{
    serialize, ConstructionStats, DirectedIndexBuilder, IndexBuilder, OrderingStrategy,
    WeightedDirectedIndexBuilder, WeightedIndexBuilder,
};

struct Options {
    variant: String,
    threads: usize,
    n: usize,
}

fn parse_args() -> Options {
    let mut opts = Options {
        variant: String::new(),
        threads: 4,
        n: 2_000,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let value = |i: &mut usize| -> String {
            *i += 1;
            args.get(*i)
                .unwrap_or_else(|| {
                    eprintln!("missing value after {}", args[*i - 1]);
                    std::process::exit(2);
                })
                .clone()
        };
        match args[i].as_str() {
            "--variant" => opts.variant = value(&mut i),
            "--threads" => opts.threads = value(&mut i).parse().expect("--threads"),
            "--n" => opts.n = value(&mut i).parse().expect("--n"),
            "--help" | "-h" => {
                eprintln!(
                    "determinism_matrix --variant undirected|directed|weighted|weighted-directed \
                     [--threads k] [--n N]"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown option {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    if opts.variant.is_empty() {
        eprintln!("--variant is required");
        std::process::exit(2);
    }
    opts
}

fn check(name: &str, threads: usize, seq_bytes: &[u8], par_bytes: &[u8], seq_s: f64, par_s: f64) {
    if seq_bytes != par_bytes {
        let first_diff = seq_bytes
            .iter()
            .zip(par_bytes.iter())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| seq_bytes.len().min(par_bytes.len()));
        eprintln!(
            "DETERMINISM VIOLATION: {name}: threads={threads} serialization diverges from \
             threads=1 ({} vs {} bytes, first difference at byte {first_diff})",
            seq_bytes.len(),
            par_bytes.len(),
        );
        std::process::exit(1);
    }
    eprintln!(
        "ok: {name}: threads={threads} byte-identical to sequential \
         ({} bytes; {seq_s:.2}s seq, {par_s:.2}s par)",
        seq_bytes.len(),
    );
}

/// Asserts the build actually exercised what the matrix cell claims to
/// prove: the requested thread count was used (threads > 1 drives the
/// parallel ordering and flatten — plus the undirected builder's
/// parallel relabelling — through the same knob as the pruned searches),
/// and the per-phase breakdown is populated — a zero phase timing would
/// mean a phase silently skipped its work.
fn check_phases(name: &str, threads: usize, stats: &ConstructionStats) {
    assert_eq!(
        stats.threads, threads,
        "{name}: build did not use the requested {threads} threads"
    );
    for (phase, secs) in [
        ("order", stats.order_seconds),
        ("relabel", stats.relabel_seconds),
        ("search", stats.search_seconds()),
        ("flatten", stats.flatten_seconds),
    ] {
        assert!(
            secs > 0.0,
            "{name}: phase '{phase}' reported no elapsed time — per-phase stats not populated"
        );
    }
}

/// One matrix cell for one graph: build at threads=1 and threads=k via
/// `build`, serialize both via `save`, byte-compare, and assert the
/// parallel build's per-phase stats show the parallel Phase 0 / flatten
/// path was active (`stats` projects each index to its
/// `ConstructionStats`). Shared by every variant arm so the check
/// protocol cannot drift between them.
fn cell<I>(
    name: &str,
    threads: usize,
    build: impl Fn(usize) -> I,
    save: impl Fn(&I, &mut Vec<u8>),
    stats: impl Fn(&I) -> &ConstructionStats,
) {
    let (seq, seq_s) = time(|| build(1));
    let (par, par_s) = time(|| build(threads));
    check_phases(name, 1, stats(&seq));
    check_phases(name, threads, stats(&par));
    let mut seq_bytes = Vec::new();
    let mut par_bytes = Vec::new();
    save(&seq, &mut seq_bytes);
    save(&par, &mut par_bytes);
    check(name, threads, &seq_bytes, &par_bytes, seq_s, par_s);
}

fn main() {
    let opts = parse_args();
    let threads = opts.threads;
    let orderings = [
        ("degree", OrderingStrategy::Degree),
        ("random", OrderingStrategy::Random),
    ];

    for (gname, g) in reference_graphs(opts.n) {
        for (oname, ordering) in &orderings {
            let name = format!("{}/{gname}/{oname}", opts.variant);
            match opts.variant.as_str() {
                "undirected" => {
                    let builder = IndexBuilder::new()
                        .ordering(ordering.clone())
                        .bit_parallel_roots(16);
                    cell(
                        &name,
                        threads,
                        |k| builder.clone().threads(k).build(&g).expect("build"),
                        |i, buf| serialize::save_index(i, buf).expect("serialize"),
                        |i| i.stats(),
                    );
                }
                "directed" => {
                    let dg = derive_digraph(&g, 7);
                    let builder = DirectedIndexBuilder::new().ordering(ordering.clone());
                    cell(
                        &name,
                        threads,
                        |k| builder.clone().threads(k).build(&dg).expect("build"),
                        |i, buf| serialize::save_directed_index(i, buf).expect("serialize"),
                        |i| i.stats(),
                    );
                }
                "weighted" => {
                    let wg = derive_weighted(&g, 7, 16);
                    let builder = WeightedIndexBuilder::new().ordering(ordering.clone());
                    cell(
                        &name,
                        threads,
                        |k| builder.clone().threads(k).build(&wg).expect("build"),
                        |i, buf| serialize::save_weighted_index(i, buf).expect("serialize"),
                        |i| i.stats(),
                    );
                }
                "weighted-directed" => {
                    let wd = derive_weighted_digraph(&g, 7, 16);
                    let builder = WeightedDirectedIndexBuilder::new().ordering(ordering.clone());
                    cell(
                        &name,
                        threads,
                        |k| builder.clone().threads(k).build(&wd).expect("build"),
                        |i, buf| {
                            serialize::save_weighted_directed_index(i, buf).expect("serialize")
                        },
                        |i| i.stats(),
                    );
                }
                other => {
                    eprintln!("unknown variant {other}");
                    std::process::exit(2);
                }
            }
        }
    }
    eprintln!(
        "determinism matrix cell passed: variant={}, threads={threads}",
        opts.variant
    );
}
