//! The repo-wide benchmark: five named workloads, five bounded end-to-end
//! metrics, and the traced run's per-layer and per-workload attribution
//! (see `README.md` beside this crate and `BENCHMARK.json` at the repo
//! root).
//!
//! Everything in this library and in the `pll-benchmark` binary touches
//! the system only the way a user does: the `pll` CLI as a child process,
//! the wire client `pll_server::protocol::Client`,
//! `pll_core::AnyIndex::{open, distance, num_vertices}`, and `pll_graph`
//! for inputs and the BFS oracle. Names of builders, kernels, label
//! stores, the dynamic overlay, the WAL, the answer cache and the frame
//! codec appear only in `src/bin/pll-benchmark-trace/layers.rs`, so a
//! refactor of those layers cannot break the numbers PRs are judged by.

pub mod args;
pub mod compare;
pub mod error;
pub mod inputs;
pub mod json;
pub mod load;
pub mod proc;
pub mod record;
pub mod stages;
pub mod stats;

pub use error::BenchError;

/// Result alias used across the harness.
pub type Result<T> = std::result::Result<T, BenchError>;

/// The constants every run uses, frozen here and echoed into every record.
///
/// `BENCHMARK.json` may carry only the keys the driver's schema allows,
/// so the sizes the issue asks to freeze there live in this one table
/// instead.
pub mod frozen {
    /// Vertices of the Chung–Lu input graph. The issue sized the graph at
    /// 200 000 for one ~110 s command; the driver runs 114 separate
    /// processes inside 3420 s, each with its own set-up, so the graph
    /// is a quarter of that (18 MB index, still 9× a core's 2 MiB L2).
    pub const GRAPH_N: usize = 50_000;
    /// Vertices under `--quick` (the self-test size).
    pub const QUICK_N: usize = 20_000;
    /// Power-law exponent of the expected degrees.
    pub const GRAPH_GAMMA: f64 = 2.3;
    /// Average degree.
    pub const GRAPH_AVG_DEGREE: f64 = 12.0;
    /// `pll build --bp-roots`.
    pub const BP_ROOTS: usize = 16;
    /// Set-ups (generate, write, `pll build`) per run; `setup_s` is their
    /// median. Each leaves a fresh index file — other physical pages, so
    /// another cache layout — which `open_ms` and `query_ns` are then
    /// sampled on: between layouts the same binary's `query_ns` differs
    /// by up to ±9% here, and one layout a run would carry that into the
    /// run-to-run spread.
    pub const SETUPS: usize = 5;
    /// `AnyIndex::open` calls timed after each set-up's build.
    pub const OPENS_PER_SETUP: usize = 3;
    /// Untimed seconds of queries after each set-up's opens: faults the
    /// mapped file in.
    pub const QUERY_WARM_S: f64 = 0.1;
    /// Timed seconds of queries after each set-up's warm-up: one
    /// `query_ns` sample.
    pub const QUERY_TRIAL_S: f64 = 0.3;
    /// Default `--seconds`, and `run_seconds` in `BENCHMARK.json`: the
    /// measured time of the three serve stages together, split by the
    /// `*_SHARE` constants below. (The set-ups take their own ~7 s.)
    pub const RUN_SECONDS: f64 = 10.0;
    /// `--seconds` under `--quick`.
    pub const QUICK_SECONDS: f64 = 3.0;
    /// Share of `--seconds` for `serve_point`'s closed loop.
    pub const POINT_CLOSED_SHARE: f64 = 0.15;
    /// Share of `--seconds` for `serve_point`'s open loop.
    pub const POINT_OPEN_SHARE: f64 = 0.15;
    /// Share of `--seconds` for `serve_batch`.
    pub const BATCH_SHARE: f64 = 0.15;
    /// Share of `--seconds` for `update_mix`: one ack per
    /// [`UPDATE_PACE_MS`] needs the time to gather samples.
    pub const UPDATE_SHARE: f64 = 0.55;
    /// Timed trials per window, after one warm-up trial of the same
    /// length; every reported value is the median over trials.
    pub const TRIALS: usize = 5;
    /// BFS sources checked against the index (× all targets).
    pub const ORACLE_SOURCES: usize = 20;
    /// Distinct uniform pairs behind the `query`, `serve_point` and
    /// `update_mix` streams (256× the 1024-slot answer cache).
    pub const UNIFORM_POOL: usize = 1 << 18;
    /// Open-loop arrival rate per connection on `serve_point`, requests
    /// per second: about a quarter of one connection's closed-loop rate
    /// on the 2-core box this was sized on.
    pub const OPEN_RATE_PER_CONN: u64 = 5_000;
    /// A send counts as late when it starts more than this share of the
    /// arrival interval after it was due: by then the generator has
    /// slipped a whole slot of its schedule.
    pub const LATE_TOLERANCE: f64 = 1.0;
    /// Pairs per `BATCH` frame on `serve_batch`.
    pub const BATCH_PAIRS: usize = 64;
    /// Distinct pairs in the `serve_batch` pool: 64× the 1024-slot
    /// per-worker cache.
    pub const ZIPF_POOL: usize = 65_536;
    /// Zipf skew of `serve_batch` draws from the pool.
    pub const ZIPF_THETA: f64 = 0.99;
    /// Length of the pre-drawn Zipf index stream (cycled).
    pub const ZIPF_STREAM: usize = 1 << 22;
    /// Edges per `UPDATE` frame on `update_mix`.
    pub const UPDATE_EDGES: usize = 16;
    /// Milliseconds between `UPDATE` frames (open loop).
    pub const UPDATE_PACE_MS: u64 = 50;
    /// Pairs per `BATCH` frame of the reader beside the updater.
    pub const UPDATE_READ_BATCH: usize = 32;
    /// `pll serve --threads` on `update_mix` (one updater, one reader).
    pub const UPDATE_SERVER_THREADS: usize = 2;
    /// `pll serve --flatten-threshold` on `update_mix`: a flatten pass
    /// every ~5 batches (~20 in a window). At 2048–8192 a pass comes
    /// every 1–4 s and the reader's median flips between the two modes of
    /// the served snapshot (~34 µs and ~68 µs per BATCH-32), so `p50_us`
    /// could not repeat; at 512 it holds.
    pub const FLATTEN_THRESHOLD: u64 = 512;
    /// Pairs checked against BFS over graph ∪ acked edges, before the
    /// kill and again after recovery.
    pub const UPDATE_CHECK_PAIRS: usize = 2000;
    /// `SIGKILL` → restart cycles per run; `recovery_s` is their median.
    pub const RECOVERIES: usize = 2;
    /// A child that has not printed `listening on` after this long is a
    /// failure.
    pub const LISTEN_TIMEOUT_S: u64 = 30;
    /// The whole run is abandoned (children killed, nonzero exit) after
    /// this long: the driver allows 180 s.
    pub const RUN_DEADLINE_S: u64 = 160;
    /// Calls per stopwatch pair in timed inner loops, so the timer stays
    /// under 1% of sub-microsecond operations.
    pub const BLOCK: usize = 1024;
    /// Requests whose spans the traced run keeps in memory per workload.
    pub const TRACE_SPAN_REQUESTS: usize = 100_000;
}
