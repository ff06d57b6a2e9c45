//! Shared harness utilities for the table/figure binaries.
//!
//! Every binary in this crate regenerates one table or figure of the paper
//! (see DESIGN.md §4 for the full index). Common knobs:
//!
//! * `--scale-mult <k>` — multiply every dataset's default scale divisor by
//!   `k` (larger ⇒ smaller graphs ⇒ faster runs);
//! * `--queries <q>` — number of random query pairs for timing (default
//!   100 000; the paper uses 1 000 000);
//! * `--datasets a,b,c` — restrict to named datasets.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use pll_datasets::DatasetSpec;
use pll_graph::{CsrGraph, Vertex, Xoshiro256pp};
use std::time::Instant;

/// Parsed command-line options shared by the harness binaries.
#[derive(Clone, Debug)]
pub struct HarnessConfig {
    /// Multiplier on each dataset's default scale divisor.
    pub scale_mult: u32,
    /// Number of random query pairs for query-time measurement.
    pub queries: usize,
    /// Restrict to these dataset names (empty = all the binary covers).
    pub datasets: Vec<String>,
    /// Run expensive baselines even past their cost caps.
    pub full: bool,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig {
            scale_mult: 1,
            queries: 100_000,
            datasets: Vec::new(),
            full: false,
        }
    }
}

impl HarnessConfig {
    /// Parses `std::env::args()`; unknown flags abort with a usage message.
    pub fn from_env() -> HarnessConfig {
        let mut cfg = HarnessConfig::default();
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < args.len() {
            let take_value = |i: &mut usize| -> String {
                *i += 1;
                args.get(*i)
                    .unwrap_or_else(|| {
                        eprintln!("missing value after {}", args[*i - 1]);
                        std::process::exit(2);
                    })
                    .clone()
            };
            match args[i].as_str() {
                "--scale-mult" => {
                    cfg.scale_mult = take_value(&mut i).parse().unwrap_or_else(|e| {
                        eprintln!("bad --scale-mult: {e}");
                        std::process::exit(2);
                    });
                }
                "--queries" => {
                    cfg.queries = take_value(&mut i).parse().unwrap_or_else(|e| {
                        eprintln!("bad --queries: {e}");
                        std::process::exit(2);
                    });
                }
                "--datasets" => {
                    cfg.datasets = take_value(&mut i)
                        .split(',')
                        .map(|s| s.trim().to_string())
                        .filter(|s| !s.is_empty())
                        .collect();
                }
                "--full" => cfg.full = true,
                "--help" | "-h" => {
                    eprintln!(
                        "options: [--scale-mult k] [--queries q] [--datasets a,b,c] [--full]"
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
        cfg
    }

    /// Effective scale divisor for a dataset.
    pub fn scale_for(&self, spec: &DatasetSpec) -> u32 {
        spec.default_scale.saturating_mul(self.scale_mult).max(1)
    }

    /// Whether the dataset is selected by `--datasets` (empty = all).
    pub fn selected(&self, spec: &DatasetSpec) -> bool {
        self.datasets.is_empty()
            || self
                .datasets
                .iter()
                .any(|d| d.eq_ignore_ascii_case(spec.name))
    }
}

/// Wall-clock timing of a closure.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// `count` random vertex pairs over `n` vertices.
pub fn random_pairs(n: usize, count: usize, seed: u64) -> Vec<(Vertex, Vertex)> {
    assert!(n > 0, "graph must have vertices");
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            (
                rng.next_below(n as u64) as Vertex,
                rng.next_below(n as u64) as Vertex,
            )
        })
        .collect()
}

/// Average seconds per query of `f` over the pairs. A checksum of the
/// answers is accumulated and returned to keep the optimiser honest.
pub fn measure_avg_query_seconds(
    pairs: &[(Vertex, Vertex)],
    mut f: impl FnMut(Vertex, Vertex) -> Option<u32>,
) -> (f64, u64) {
    let start = Instant::now();
    let mut sink = 0u64;
    for &(s, t) in pairs {
        sink = sink.wrapping_add(f(s, t).map_or(u32::MAX, |d| d) as u64);
    }
    let total = start.elapsed().as_secs_f64();
    (total / pairs.len().max(1) as f64, sink)
}

/// Formats a duration like the paper ("61 s", "0.5 s", "15,164 s").
pub fn fmt_secs(secs: f64) -> String {
    if secs >= 100.0 {
        format!("{} s", group_thousands(secs.round() as u64))
    } else if secs >= 1.0 {
        format!("{secs:.1} s")
    } else if secs >= 1e-3 {
        format!("{:.0} ms", secs * 1e3)
    } else {
        format!("{:.2} ms", secs * 1e3)
    }
}

/// Formats a per-query time like the paper ("0.6 µs", "15.6 µs", "1.2 s").
pub fn fmt_query_time(secs: f64) -> String {
    if secs >= 1.0 {
        format!("{secs:.1} s")
    } else if secs >= 1e-3 {
        format!("{:.1} ms", secs * 1e3)
    } else {
        format!("{:.1} µs", secs * 1e6)
    }
}

/// Formats byte counts ("209 MB", "12 GB").
pub fn fmt_bytes(bytes: usize) -> String {
    const KB: f64 = 1024.0;
    let b = bytes as f64;
    if b >= KB * KB * KB {
        format!("{:.1} GB", b / (KB * KB * KB))
    } else if b >= KB * KB {
        format!("{:.0} MB", b / (KB * KB))
    } else if b >= KB {
        format!("{:.0} KB", b / KB)
    } else {
        format!("{bytes} B")
    }
}

/// Formats counts like Table 4 ("63 K", "2.4 M", "194 M").
pub fn fmt_count(x: usize) -> String {
    if x >= 10_000_000 {
        format!("{:.0} M", x as f64 / 1e6)
    } else if x >= 1_000_000 {
        format!("{:.1} M", x as f64 / 1e6)
    } else if x >= 1_000 {
        format!("{:.0} K", x as f64 / 1e3)
    } else {
        x.to_string()
    }
}

fn group_thousands(mut x: u64) -> String {
    let mut parts = Vec::new();
    loop {
        if x < 1000 {
            parts.push(x.to_string());
            break;
        }
        parts.push(format!("{:03}", x % 1000));
        x /= 1000;
    }
    parts.reverse();
    parts.join(",")
}

/// Generates a dataset, printing progress to stderr.
pub fn load_dataset(spec: &DatasetSpec, scale: u32) -> CsrGraph {
    eprintln!(
        "[gen] {} at scale 1/{scale} ({} vertices)…",
        spec.name,
        fmt_count(spec.scaled_vertices(scale))
    );
    let (g, secs) = time(|| spec.generate(scale).expect("dataset generation"));
    eprintln!(
        "[gen] {}: |V| = {}, |E| = {} ({})",
        spec.name,
        fmt_count(g.num_vertices()),
        fmt_count(g.num_edges()),
        fmt_secs(secs)
    );
    g
}

/// The construction-benchmark reference graphs: one scale-free
/// (Barabási–Albert, n vertices, degree 3, seed 42) and one
/// heavy-tailed-but-diffuse (R-MAT at the nearest power-of-two scale at
/// or above `n`, GRAPH500 parameters, seed 42), so both pruning regimes
/// (hub-dominated and diffuse) are exercised. Shared by the perf
/// harness and the CI determinism matrix so the matrix always proves
/// determinism on the graphs the bench measures.
pub fn reference_graphs(n: usize) -> Vec<(String, CsrGraph)> {
    let rmat_scale = (n.max(2) as f64).log2().ceil() as u32;
    vec![
        (
            format!("barabasi_albert(n={n})"),
            pll_graph::gen::barabasi_albert(n, 3, 42).expect("BA generator"),
        ),
        (
            format!("rmat(scale={rmat_scale})"),
            pll_graph::gen::rmat(rmat_scale, 8, pll_graph::gen::RmatParams::GRAPH500, 42)
                .expect("R-MAT generator"),
        ),
    ]
}

/// Derives a simple digraph from an undirected graph by keeping every
/// edge as a forward arc `u -> v` (with `u < v` as the generator emits
/// them) and adding the reverse arc for roughly one edge in four, seeded
/// — the asymmetry makes reachability genuinely directional, which is
/// what the directed index variants must get right. Deterministic in
/// `(g, seed)`.
pub fn derive_digraph(g: &CsrGraph, seed: u64) -> pll_graph::CsrDigraph {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let mut arcs: Vec<(Vertex, Vertex)> = Vec::new();
    for (u, v) in g.edges() {
        arcs.push((u, v));
        if rng.next_below(4) == 0 {
            arcs.push((v, u));
        }
    }
    arcs.sort_unstable();
    pll_graph::CsrDigraph::from_edges(g.num_vertices(), &arcs).expect("derived digraph")
}

/// Attaches seeded integer weights in `1..=max_w` to an undirected
/// graph's edges. Deterministic in `(g, seed, max_w)`.
pub fn derive_weighted(g: &CsrGraph, seed: u64, max_w: u32) -> pll_graph::wgraph::WeightedGraph {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let edges: Vec<(Vertex, Vertex, u32)> = g
        .edges()
        .map(|(u, v)| (u, v, rng.next_below(max_w as u64) as u32 + 1))
        .collect();
    pll_graph::wgraph::WeightedGraph::from_edges(g.num_vertices(), &edges)
        .expect("derived weighted graph")
}

/// Combines [`derive_digraph`] and [`derive_weighted`]: directional arcs
/// with seeded weights in `1..=max_w`. Deterministic in
/// `(g, seed, max_w)`.
pub fn derive_weighted_digraph(
    g: &CsrGraph,
    seed: u64,
    max_w: u32,
) -> pll_graph::wdigraph::WeightedDigraph {
    let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);
    let d = derive_digraph(g, seed);
    let arcs: Vec<(Vertex, Vertex, u32)> = d
        .arcs()
        .map(|(u, v)| (u, v, rng.next_below(max_w as u64) as u32 + 1))
        .collect();
    pll_graph::wdigraph::WeightedDigraph::from_edges(g.num_vertices(), &arcs)
        .expect("derived weighted digraph")
}

/// Log-spaced checkpoints `1, 2, 4, …` up to `max` (inclusive), always
/// ending with `max`.
pub fn log_checkpoints(max: usize) -> Vec<usize> {
    let mut out = Vec::new();
    let mut k = 1usize;
    while k < max {
        out.push(k);
        k *= 2;
    }
    if max > 0 {
        out.push(max);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting() {
        assert_eq!(fmt_secs(15164.0), "15,164 s");
        assert_eq!(fmt_secs(61.4), "61.4 s");
        assert_eq!(fmt_secs(0.5), "500 ms");
        assert_eq!(fmt_query_time(15.6e-6), "15.6 µs");
        assert_eq!(fmt_query_time(1.2), "1.2 s");
        assert_eq!(fmt_bytes(209 * 1024 * 1024), "209 MB");
        assert_eq!(fmt_bytes(12 * 1024 * 1024 * 1024), "12.0 GB");
        assert_eq!(fmt_count(63_000), "63 K");
        assert_eq!(fmt_count(2_400_000), "2.4 M");
        assert_eq!(fmt_count(194_000_000), "194 M");
        assert_eq!(fmt_count(512), "512");
    }

    #[test]
    fn pairs_and_checkpoints() {
        let pairs = random_pairs(100, 50, 3);
        assert_eq!(pairs.len(), 50);
        assert!(pairs.iter().all(|&(s, t)| s < 100 && t < 100));
        assert_eq!(log_checkpoints(10), vec![1, 2, 4, 8, 10]);
        assert_eq!(log_checkpoints(8), vec![1, 2, 4, 8]);
        assert_eq!(log_checkpoints(1), vec![1]);
    }

    #[test]
    fn measure_runs_all_pairs() {
        let pairs = random_pairs(10, 100, 1);
        let (avg, sink) = measure_avg_query_seconds(&pairs, |s, t| Some(s + t));
        assert!(avg >= 0.0);
        assert!(sink > 0);
    }

    #[test]
    fn derived_variant_graphs_are_deterministic() {
        let g = pll_graph::gen::barabasi_albert(120, 2, 3).unwrap();
        let d1 = derive_digraph(&g, 7);
        let d2 = derive_digraph(&g, 7);
        assert_eq!(d1.num_edges(), d2.num_edges());
        assert!(d1.num_edges() >= g.num_edges()); // forward arcs all kept
        let w1 = derive_weighted(&g, 7, 16);
        let w2 = derive_weighted(&g, 7, 16);
        for (u, v, w) in w1.edges() {
            assert_eq!(w2.edge_weight(u, v), Some(w));
            assert!((1..=16).contains(&w));
        }
        let wd = derive_weighted_digraph(&g, 7, 16);
        assert_eq!(wd.num_edges(), d1.num_edges());
    }

    #[test]
    fn config_scale() {
        let cfg = HarnessConfig::default();
        let spec = pll_datasets::by_name("Gnutella").unwrap();
        assert_eq!(cfg.scale_for(spec), 8);
        let mut cfg2 = cfg.clone();
        cfg2.scale_mult = 4;
        assert_eq!(cfg2.scale_for(spec), 32);
        assert!(cfg.selected(spec));
        cfg2.datasets = vec!["epinions".into()];
        assert!(!cfg2.selected(spec));
    }
}
