//! Per-worker service metrics: lock-free counters plus a log-linear
//! latency histogram, aggregated into a summary at shutdown and
//! exposed live through the [`pll_obs::Registry`].
//!
//! This module is the audited home for every serve-side `AtomicU64`
//! (the `metrics-hygiene` rule in `pll-audit` flags scalar atomics
//! declared anywhere else in the server crate): per-worker shards in
//! [`WorkerMetrics`], process-wide serve counters in [`ServeCounters`],
//! and the per-vertex cache generations via `generation_counters`.
//! Hot paths pay one relaxed `fetch_add` per event; the registry reads
//! the shards with scrape-time collector closures, so scrapes cost the
//! scraper, not the request path.

use pll_obs::latency;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Latency bucket count, shared with `pll-obs`: 4 log-linear
/// sub-buckets per power of two across 48 powers, so a percentile read
/// from a bucket upper bound overstates by at most ~25% (a pure log₂
/// histogram allowed 2×).
const BUCKETS: usize = latency::BUCKETS;

/// Adds `n` to a statistics counter.
#[inline]
pub(crate) fn add(counter: &AtomicU64, n: u64) {
    // ORDERING: Relaxed — plain statistics counters: nothing is
    // published through them; shutdown summaries read after joining
    // the writer threads and live scrapes tolerate any interleaving.
    counter.fetch_add(n, Ordering::Relaxed);
}

/// Reads a statistics counter.
#[inline]
pub(crate) fn get(counter: &AtomicU64) -> u64 {
    // ORDERING: Relaxed — scrape-time read of a statistics counter;
    // see `add`.
    counter.load(Ordering::Relaxed)
}

/// Builds the per-vertex answer-cache generation array (see the
/// `cache` module for the invalidation protocol). Not metrics, but the
/// same relaxed-atomic species — constructed here so the
/// `metrics-hygiene` audit keeps one audited home for serve-side
/// atomics.
pub(crate) fn generation_counters(n: usize) -> Vec<AtomicU64> {
    let mut gens = Vec::with_capacity(n);
    gens.resize_with(n, AtomicU64::default);
    gens
}

/// Counters owned by one worker thread (written with relaxed atomics —
/// each worker writes only its own, readers aggregate at shutdown or
/// sum across workers at scrape time).
#[derive(Debug)]
pub struct WorkerMetrics {
    /// Individual distance queries answered (batch members count each).
    pub queries: AtomicU64,
    /// Request frames served (a batch is one request).
    pub requests: AtomicU64,
    /// Error responses sent.
    pub errors: AtomicU64,
    /// UPDATE batches applied (hot-swaps performed by this worker).
    pub updates: AtomicU64,
    /// Connections fully served.
    pub connections: AtomicU64,
    /// Distance answers served from the per-worker answer cache.
    pub cache_hits: AtomicU64,
    /// Distance answers that missed the cache and ran the label merge.
    pub cache_misses: AtomicU64,
    /// Live cache entries overwritten by a different pair (direct-mapped
    /// slot collisions; high rates mean the cache is undersized).
    pub cache_evictions: AtomicU64,
    /// Nanoseconds spent servicing requests.
    pub busy_nanos: AtomicU64,
    latency: [AtomicU64; BUCKETS],
}

impl Default for WorkerMetrics {
    fn default() -> Self {
        WorkerMetrics {
            queries: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            updates: AtomicU64::new(0),
            connections: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            cache_evictions: AtomicU64::new(0),
            busy_nanos: AtomicU64::new(0),
            latency: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl WorkerMetrics {
    /// Records one serviced request of `nanos` wall time covering
    /// `queries` distance answers.
    pub fn record_request(&self, nanos: u64, queries: u64) {
        // ORDERING: Relaxed — each worker increments only its own
        // counters on the hot path; nothing is published through them,
        // and summarize() only reads after joining the worker threads
        // (the join is the happens-before edge). Live scrapes read the
        // same cells relaxed and tolerate mid-request interleavings.
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.queries.fetch_add(queries, Ordering::Relaxed);
        self.busy_nanos.fetch_add(nanos, Ordering::Relaxed);
        self.latency[latency::bucket_index(nanos)].fetch_add(1, Ordering::Relaxed);
    }
}

/// Process-wide serve counters that are not per-worker: the flatten
/// pipeline, overload shedding, the WAL, and the dynamic apply path.
/// All written through `add` (one relaxed `fetch_add` per event) and
/// exposed by `register_server_metrics`.
#[derive(Debug, Default)]
pub struct ServeCounters {
    /// Background flatten generations completed (the INFO `flattens`
    /// field).
    pub flattens: AtomicU64,
    /// Connections shed with `STATUS_BUSY` (bounded work queue full).
    pub sheds: AtomicU64,
    /// Worker panics caught and survived.
    pub panics: AtomicU64,
    /// Requests slower than the configured slow-request threshold.
    pub slow_requests: AtomicU64,
    /// Nanoseconds spent journaling UPDATE records on the request path.
    pub journal_nanos: AtomicU64,
    /// Nanoseconds spent applying resumed-BFS deltas on the request path.
    pub apply_nanos: AtomicU64,
    /// Nanoseconds spent snapshotting + swapping in new epochs
    /// (includes journaling the commit marker).
    pub publish_nanos: AtomicU64,
    /// Nanoseconds the background flattener spent rebuilding flat bases
    /// (off the request path).
    pub flatten_nanos: AtomicU64,
    /// Nanoseconds the flattener held the updater lock to rebase and
    /// swap a finished flatten in.
    pub swap_nanos: AtomicU64,
    /// WAL records appended (update + commit + compaction markers).
    pub wal_appends: AtomicU64,
    /// Bytes appended to the WAL.
    pub wal_bytes: AtomicU64,
    /// Nanoseconds spent in WAL fsyncs.
    pub wal_fsync_nanos: AtomicU64,
    /// WAL records replayed during startup recovery.
    pub wal_recovered_records: AtomicU64,
    /// 1 when startup recovery degraded to the base snapshot because
    /// the WAL could not be replayed (the served answers are stale
    /// until re-updated).
    pub wal_recovery_degraded: AtomicU64,
    /// Edges inserted by UPDATE batches.
    pub edges_applied: AtomicU64,
    /// UPDATE edges skipped (self-loops, already present).
    pub edges_skipped: AtomicU64,
    /// Pruned BFS roots resumed across all applies.
    pub roots_resumed: AtomicU64,
    /// Vertices visited by resumed BFSs.
    pub vertices_visited: AtomicU64,
    /// Delta label entries added to the overlay.
    pub delta_entries_added: AtomicU64,
    /// Bit-parallel columns repaired in place.
    pub bp_repairs: AtomicU64,
}

/// Registers every worker-sharded and serve-level counter into
/// `registry` as scrape-time collectors. The closures are wait-free
/// relaxed-load sums, per the `pll-obs` collector contract.
pub(crate) fn register_server_metrics(
    registry: &pll_obs::Registry,
    workers: &Arc<Vec<WorkerMetrics>>,
    counters: &Arc<ServeCounters>,
) {
    let sum = |workers: &Arc<Vec<WorkerMetrics>>, field: fn(&WorkerMetrics) -> &AtomicU64| {
        let w = workers.clone();
        move || w.iter().map(|m| get(field(m))).sum()
    };
    registry.counter_fn(
        "pll_requests_total",
        "Request frames served (a batch is one request)",
        sum(workers, |w| &w.requests),
    );
    registry.counter_fn(
        "pll_queries_total",
        "Individual distance queries answered (batch members count each)",
        sum(workers, |w| &w.queries),
    );
    registry.counter_fn(
        "pll_errors_total",
        "Error responses sent (bad request, query error, unsupported op)",
        sum(workers, |w| &w.errors),
    );
    registry.counter_fn(
        "pll_updates_total",
        "UPDATE batches applied and hot-swapped",
        sum(workers, |w| &w.updates),
    );
    registry.counter_fn(
        "pll_connections_total",
        "Connections fully served",
        sum(workers, |w| &w.connections),
    );
    registry.counter_fn(
        "pll_cache_hits_total",
        "Distance answers served from the per-worker answer cache",
        sum(workers, |w| &w.cache_hits),
    );
    registry.counter_fn(
        "pll_cache_misses_total",
        "Distance answers that missed the cache and ran the label merge",
        sum(workers, |w| &w.cache_misses),
    );
    registry.counter_fn(
        "pll_cache_evictions_total",
        "Live cache entries overwritten by a colliding pair (undersized cache signal)",
        sum(workers, |w| &w.cache_evictions),
    );
    registry.counter_fn(
        "pll_request_busy_nanos_total",
        "Nanoseconds workers spent servicing requests",
        sum(workers, |w| &w.busy_nanos),
    );
    {
        let w = workers.clone();
        registry.histogram_fn(
            "pll_request_duration_seconds",
            "Request service time distribution (log-linear nanosecond buckets, exposed in seconds)",
            move || {
                let mut buckets = vec![0u64; BUCKETS];
                let (mut count, mut sum) = (0u64, 0u64);
                for m in w.iter() {
                    count += get(&m.requests);
                    sum += get(&m.busy_nanos);
                    for (merged, shard) in buckets.iter_mut().zip(&m.latency) {
                        *merged += get(shard);
                    }
                }
                pll_obs::HistogramSnapshot {
                    count,
                    sum,
                    buckets,
                }
            },
        );
    }

    let c = |counters: &Arc<ServeCounters>, field: fn(&ServeCounters) -> &AtomicU64| {
        let s = counters.clone();
        move || get(field(&s))
    };
    registry.counter_fn(
        "pll_flatten_passes_total",
        "Background flatten generations completed",
        c(counters, |s| &s.flattens),
    );
    registry.counter_fn(
        "pll_sheds_total",
        "Connections shed with STATUS_BUSY because the bounded work queue was full",
        c(counters, |s| &s.sheds),
    );
    registry.counter_fn(
        "pll_worker_panics_total",
        "Worker panics caught and survived",
        c(counters, |s| &s.panics),
    );
    registry.counter_fn(
        "pll_slow_requests_total",
        "Requests slower than the slow-request threshold (each is a flight-recorder event)",
        c(counters, |s| &s.slow_requests),
    );
    registry.counter_fn(
        "pll_update_journal_nanos_total",
        "Nanoseconds spent journaling UPDATE records on the request path",
        c(counters, |s| &s.journal_nanos),
    );
    registry.counter_fn(
        "pll_update_apply_nanos_total",
        "Nanoseconds spent applying resumed-BFS deltas on the request path",
        c(counters, |s| &s.apply_nanos),
    );
    registry.counter_fn(
        "pll_update_publish_nanos_total",
        "Nanoseconds spent snapshotting and swapping in new epochs",
        c(counters, |s| &s.publish_nanos),
    );
    registry.counter_fn(
        "pll_flatten_nanos_total",
        "Nanoseconds the background flattener spent rebuilding flat bases",
        c(counters, |s| &s.flatten_nanos),
    );
    registry.counter_fn(
        "pll_flatten_swap_nanos_total",
        "Nanoseconds the flattener held the updater lock to rebase and swap",
        c(counters, |s| &s.swap_nanos),
    );
    registry.counter_fn(
        "pll_wal_appends_total",
        "WAL records appended (update, commit and compaction markers)",
        c(counters, |s| &s.wal_appends),
    );
    registry.counter_fn(
        "pll_wal_bytes_total",
        "Bytes appended to the WAL",
        c(counters, |s| &s.wal_bytes),
    );
    registry.counter_fn(
        "pll_wal_fsync_nanos_total",
        "Nanoseconds spent in WAL fsyncs",
        c(counters, |s| &s.wal_fsync_nanos),
    );
    registry.counter_fn(
        "pll_wal_recovered_records_total",
        "WAL records replayed during startup recovery",
        c(counters, |s| &s.wal_recovered_records),
    );
    registry.gauge_fn(
        "pll_wal_recovery_degraded",
        "1 when startup recovery degraded to the base snapshot (WAL unreplayable)",
        c(counters, |s| &s.wal_recovery_degraded),
    );
    registry.counter_fn(
        "pll_apply_edges_applied_total",
        "Edges inserted into the served graph by UPDATE batches",
        c(counters, |s| &s.edges_applied),
    );
    registry.counter_fn(
        "pll_apply_edges_skipped_total",
        "UPDATE edges skipped as self-loops or already present",
        c(counters, |s| &s.edges_skipped),
    );
    registry.counter_fn(
        "pll_apply_roots_resumed_total",
        "Pruned BFS roots resumed by the dynamic apply path",
        c(counters, |s| &s.roots_resumed),
    );
    registry.counter_fn(
        "pll_apply_vertices_visited_total",
        "Vertices visited by resumed pruned BFSs",
        c(counters, |s| &s.vertices_visited),
    );
    registry.counter_fn(
        "pll_apply_delta_entries_total",
        "Delta label entries added to the overlay by applies",
        c(counters, |s| &s.delta_entries_added),
    );
    registry.counter_fn(
        "pll_apply_bp_repairs_total",
        "Bit-parallel columns repaired in place by applies",
        c(counters, |s| &s.bp_repairs),
    );
}

/// One worker's aggregated numbers in a [`ServerSummary`].
#[derive(Clone, Debug)]
pub struct WorkerSummary {
    /// Distance queries answered by this worker.
    pub queries: u64,
    /// Request frames served by this worker.
    pub requests: u64,
    /// Error responses sent by this worker.
    pub errors: u64,
    /// UPDATE batches applied by this worker.
    pub updates: u64,
    /// Connections fully served by this worker.
    pub connections: u64,
    /// Answer-cache hits on this worker.
    pub cache_hits: u64,
    /// Answer-cache misses on this worker.
    pub cache_misses: u64,
    /// Seconds this worker spent servicing requests.
    pub busy_seconds: f64,
}

/// Shutdown-time metrics of a whole server run.
#[derive(Clone, Debug)]
pub struct ServerSummary {
    /// Wall-clock seconds between start and shutdown.
    pub elapsed_seconds: f64,
    /// Per-worker breakdown.
    pub workers: Vec<WorkerSummary>,
    /// Total distance queries answered.
    pub queries: u64,
    /// Total request frames served.
    pub requests: u64,
    /// Total error responses.
    pub errors: u64,
    /// Total UPDATE batches applied.
    pub updates: u64,
    /// Served index epoch at shutdown (0 = never swapped).
    pub final_epoch: u64,
    /// Total answer-cache hits across workers.
    pub cache_hits: u64,
    /// Total answer-cache misses across workers (hit rate =
    /// `hits / (hits + misses)`; generation keying keeps untouched pairs
    /// hot across epochs, see the `cache` module).
    pub cache_misses: u64,
    /// Connections shed with `STATUS_BUSY` because the bounded work
    /// queue was full (overload protection, not an error).
    pub sheds: u64,
    /// Worker panics caught and survived (each also drops the panicking
    /// connection).
    pub panics: u64,
    /// Queries per wall-clock second.
    pub qps: f64,
    /// Median request service time (µs, log-linear-bucket upper bound,
    /// within ~25% of the true percentile).
    pub p50_us: f64,
    /// 99th-percentile request service time (µs, log-linear-bucket
    /// upper bound, within ~25% of the true percentile).
    pub p99_us: f64,
}

/// Aggregates worker metrics into a [`ServerSummary`];
/// `final_epoch` is the swap cell's epoch at shutdown, `sheds` the
/// overload-shed connection count and `panics` the caught worker panics.
pub fn summarize(
    workers: &[WorkerMetrics],
    elapsed_seconds: f64,
    final_epoch: u64,
    sheds: u64,
    panics: u64,
) -> ServerSummary {
    let mut merged = vec![0u64; BUCKETS];
    let mut per_worker = Vec::with_capacity(workers.len());
    let (mut queries, mut requests, mut errors, mut updates) = (0u64, 0u64, 0u64, 0u64);
    let (mut cache_hits, mut cache_misses) = (0u64, 0u64);
    for w in workers {
        let q = get(&w.queries);
        let r = get(&w.requests);
        let e = get(&w.errors);
        let u = get(&w.updates);
        let h = get(&w.cache_hits);
        let m = get(&w.cache_misses);
        queries += q;
        requests += r;
        errors += e;
        updates += u;
        cache_hits += h;
        cache_misses += m;
        for (merged, b) in merged.iter_mut().zip(&w.latency) {
            *merged += get(b);
        }
        per_worker.push(WorkerSummary {
            queries: q,
            requests: r,
            errors: e,
            updates: u,
            connections: get(&w.connections),
            cache_hits: h,
            cache_misses: m,
            busy_seconds: get(&w.busy_nanos) as f64 / 1e9,
        });
    }
    ServerSummary {
        elapsed_seconds,
        workers: per_worker,
        queries,
        requests,
        errors,
        updates,
        final_epoch,
        cache_hits,
        cache_misses,
        sheds,
        panics,
        qps: if elapsed_seconds > 0.0 {
            queries as f64 / elapsed_seconds
        } else {
            0.0
        },
        p50_us: latency::percentile_nanos(&merged, requests, 0.50) as f64 / 1_000.0,
        p99_us: latency::percentile_nanos(&merged, requests, 0.99) as f64 / 1_000.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_summarize() {
        let workers = vec![WorkerMetrics::default(), WorkerMetrics::default()];
        // Worker 0: 99 fast requests (~1 µs), worker 1: one slow (~1 ms).
        for _ in 0..99 {
            workers[0].record_request(1_000, 2);
        }
        workers[1].record_request(1_000_000, 1);
        workers[1].connections.fetch_add(1, Ordering::Relaxed);
        workers[0].cache_hits.fetch_add(7, Ordering::Relaxed);
        workers[1].cache_misses.fetch_add(3, Ordering::Relaxed);
        let s = summarize(&workers, 2.0, 3, 4, 1);
        assert_eq!(s.requests, 100);
        assert_eq!(s.cache_hits, 7);
        assert_eq!(s.cache_misses, 3);
        assert_eq!(s.workers[0].cache_hits, 7);
        assert_eq!(s.workers[1].cache_misses, 3);
        assert_eq!(s.sheds, 4);
        assert_eq!(s.panics, 1);
        assert_eq!(s.queries, 199);
        assert_eq!(s.errors, 0);
        assert_eq!(s.updates, 0);
        assert_eq!(s.final_epoch, 3);
        assert!((s.qps - 99.5).abs() < 1e-9);
        // Log-linear buckets pin both percentiles within 25% of the
        // recorded 1 µs value (the log₂ histogram allowed ≤ 2.048 µs).
        assert!(s.p50_us >= 1.0 && s.p50_us <= 1.25, "p50 {} µs", s.p50_us);
        assert!(s.p99_us >= 1.0 && s.p99_us <= 1.25, "p99 {} µs", s.p99_us);
        assert_eq!(s.workers[1].connections, 1);
        assert!(s.workers[1].busy_seconds > 0.0);
    }

    #[test]
    fn percentile_tracks_the_slow_tail_within_25_percent() {
        let w = WorkerMetrics::default();
        w.record_request(1_000_000, 1); // ~1 ms
        let s = summarize(std::slice::from_ref(&w), 1.0, 0, 0, 0);
        // The old log₂ upper bound reported 2097.152 µs for a 1 ms
        // observation; the log-linear bound must stay within 25%.
        assert!(
            s.p50_us >= 1_000.0 && s.p50_us <= 1_250.0,
            "p50 {} µs",
            s.p50_us
        );
    }

    #[test]
    fn empty_summary_is_zeroed() {
        let s = summarize(&[], 0.0, 0, 0, 0);
        assert_eq!(s.queries, 0);
        assert_eq!(s.sheds, 0);
        assert_eq!(s.qps, 0.0);
        assert_eq!(s.p50_us, 0.0);
    }

    #[test]
    fn extreme_latencies_clamp_to_last_bucket() {
        let w = WorkerMetrics::default();
        w.record_request(u64::MAX, 1);
        w.record_request(0, 1); // clamps to bucket 0 via max(1)
        let s = summarize(std::slice::from_ref(&w), 1.0, 0, 0, 0);
        assert_eq!(s.requests, 2);
        assert!(s.p99_us > 0.0);
    }

    #[test]
    fn registered_metrics_expose_worker_sums_and_serve_counters() {
        let registry = pll_obs::Registry::new();
        let workers = Arc::new(vec![WorkerMetrics::default(), WorkerMetrics::default()]);
        let counters = Arc::new(ServeCounters::default());
        register_server_metrics(&registry, &workers, &counters);
        workers[0].record_request(1_000, 2);
        workers[1].record_request(2_000, 3);
        add(&counters.sheds, 5);
        add(&counters.wal_bytes, 123);
        let snap = registry.snapshot();
        assert_eq!(snap.value("pll_requests_total"), Some(2));
        assert_eq!(snap.value("pll_queries_total"), Some(5));
        assert_eq!(snap.value("pll_sheds_total"), Some(5));
        assert_eq!(snap.value("pll_wal_bytes_total"), Some(123));
        match snap.get("pll_request_duration_seconds") {
            Some(pll_obs::SampleValue::Histogram(h)) => {
                assert_eq!(h.count, 2);
                assert_eq!(h.sum, 3_000);
                assert_eq!(h.buckets.iter().sum::<u64>(), 2);
            }
            other => panic!("unexpected sample {other:?}"),
        }
        // Counters keep moving after registration (collectors are live).
        workers[0].record_request(1_000, 1);
        assert_eq!(registry.snapshot().value("pll_requests_total"), Some(3));
    }

    #[test]
    fn generation_counters_are_zeroed() {
        let gens = generation_counters(4);
        assert_eq!(gens.len(), 4);
        assert!(gens.iter().all(|g| get(g) == 0));
    }
}
