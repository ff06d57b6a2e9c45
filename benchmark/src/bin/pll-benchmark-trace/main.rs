//! The traced run (`--trace 1`): the per-layer numbers.
//!
//! Runs the same pipeline as the end-to-end binary (so it has the same
//! servers to take `STATS` snapshots from, before and after each one's
//! load), then replays the same seeded inputs in process through each
//! layer's public functions — see `layers.rs`, the only file that names
//! them — with a span around every call or block of calls. Spans are kept
//! in memory and written to `<out-dir>/trace-<workload>.jsonl` when the
//! run ends. End-to-end numbers are never taken from this run.

mod layers;
mod spans;

use pll_benchmark::args::{self, Command, Options, Workload};
use pll_benchmark::json::{obj, Json};
use pll_benchmark::proc::{self, Server};
use pll_benchmark::stages::{Observer, Phase, Session, StageReport};
use pll_benchmark::{frozen, record, BenchError, Result};
use spans::Tracer;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

/// Every per-layer metric, in the order of `BENCHMARK.json`: name, unit,
/// which way is better, and the workload's metric (`metric@workload`:
/// end-to-end where `BENCHMARK.json` bounds it, else one of the
/// `<workload>.<metric>` rows at the end) it should move.
#[rustfmt::skip] // one row per metric reads as the table it is
const PER_LAYER: &[(&str, &str, &str, &str)] = &[
    ("graph.ingest_s", "s", "lower", "build_s@build"),
    ("order.compute_s", "s", "lower", "build_s@build"),
    ("graph.relabel_s", "s", "lower", "build_s@build"),
    ("bp.build_s", "s", "lower", "build_s@build"),
    ("bp.roots_used", "count", "higher", "index_bytes_per_vertex@build, query_ns@query"),
    ("build.pruned_s", "s", "lower", "build_s@build"),
    ("build.visited", "count", "lower", "build_s@build"),
    ("build.labeled", "count", "lower", "index_bytes_per_vertex@build, rss_mb, query_ns@query"),
    ("build.prune_rate", "ratio", "higher", "build_s@build"),
    ("build.repruned", "count", "lower", "build_s@build (the parallel path's wasted work)"),
    ("build.batches", "count", "lower", "build_s@build"),
    ("label.flatten_s", "s", "lower", "build_s@build"),
    ("label.entries_per_vertex", "count", "lower", "index_bytes_per_vertex@build, rss_mb, query_ns@query, qps@serve_batch"),
    ("v2.save_s", "s", "lower", "build_s@build"),
    ("v2.file_bytes", "B", "lower", "index_bytes_per_vertex@build"),
    ("v2.open_ms", "ms", "lower", "open_ms@query, recovery_s@update_mix"),
    ("cli.overhead_s", "s", "lower", "build_s@build"),
    ("index.rank_map_ns", "ns", "lower", "query_ns@query"),
    ("bp.probe_ns", "ns", "lower", "query_ns@query, qps@serve_batch; nothing on serve_point"),
    ("bp.decided_frac", "ratio", "higher", "query_ns@query"),
    ("label.merge_ns", "ns", "lower", "query_ns@query, qps@serve_batch; nothing on serve_point"),
    ("label.entries_scanned", "count", "lower", "query_ns@query"),
    ("kernel.ns_per_entry", "ns", "lower", "query_ns@query, qps@serve_batch"),
    ("index.distance_ns", "ns", "lower", "the engine's share of p50_us: most of serve_batch, <5% of serve_point"),
    ("protocol.decode_ns", "ns", "lower", "p50_us, open_p50_us, qps@serve_point"),
    ("protocol.encode_ns", "ns", "lower", "p50_us, open_p50_us, qps@serve_point"),
    ("cache.probe_ns", "ns", "lower", "qps@serve_batch if hits pay; pure cost on serve_point, update_mix"),
    ("cache.hit_ratio", "ratio", "higher", "qps@serve_batch"),
    ("cache.evictions_per_probe", "ratio", "lower", "qps@serve_batch"),
    ("cache.server_hit_ratio", "ratio", "higher", "cross-check of cache.hit_ratio against the STATS delta"),
    ("server.transport_us", "us", "lower", "p50_us, open_p50_us@serve_point"),
    ("server.sheds", "count", "lower", "ops_failed"),
    ("server.slow_requests", "count", "lower", "p95_us"),
    ("obs.stats_ms", "ms", "lower", "the cost of observability itself"),
    ("loadgen.late_frac", "ratio", "lower", "validity of open_* and update_ack_*"),
    ("loadgen.max_lag_us", "us", "lower", "validity of open_* and update_ack_*"),
    ("wal.append_ms", "ms", "lower", "update_ack_p50_ms@update_mix"),
    ("wal.bytes_per_edge", "B", "lower", "update_ack_p50_ms, recovery_s@update_mix"),
    ("dynamic.apply_ms", "ms", "lower", "update_ack_p50_ms, update_ack_p80_ms, recovery_s@update_mix"),
    ("dynamic.visited_per_edge", "count", "lower", "update_ack_p50_ms@update_mix"),
    ("dynamic.delta_entries_per_edge", "count", "lower", "update_ack_p50_ms, p50_us@update_mix"),
    ("dynamic.snapshot_ms", "ms", "lower", "update_ack_p50_ms@update_mix"),
    ("server.publish_ms", "ms", "lower", "update_ack_p50_ms@update_mix"),
    ("dynamic.flatten_ms", "ms", "lower", "p95_us, qps@update_mix, not the ack path"),
    ("dynamic.rebase_ms", "ms", "lower", "update_ack_p80_ms@update_mix (runs under the updater lock)"),
    ("dynamic.flatten_passes", "count", "lower", "p95_us, qps@update_mix"),
    ("dynamic.overlay_entries", "count", "lower", "p50_us, qps@update_mix"),
    ("wal.recover_ms", "ms", "lower", "recovery_s@update_mix"),
    ("trace_overhead_frac", "ratio", "lower", "how far the traced timings overstate the untraced ones"),
    // `<workload>.<metric>`: the stages' own metrics that are not
    // end-to-end metrics. The issue listed them as such, but between runs
    // of one commit on the host this was sized on they spread wider than
    // the tenth it allows a bound.
    ("build.build_s", "s", "lower", "the paper's indexing-time column; the sum of the build layers above; setup_s"),
    ("query.query_ns", "ns", "lower", "the paper's query-time column; the sum of the query-path layers above"),
    ("serve_point.qps", "1/s", "higher", "what transport work must raise and kernel work must not move"),
    ("serve_point.p50_us", "us", "lower", "as serve_point.qps"),
    ("serve_point.p95_us", "us", "lower", "server.slow_requests; queueing inside the server"),
    ("serve_point.open_p50_us", "us", "lower", "as serve_point.p50_us, at a fixed arrival rate"),
    ("serve_point.open_p95_us", "us", "lower", "queueing the closed loop hides"),
    ("serve_batch.qps", "1/s", "higher", "where the answer cache and BATCH prefetch must earn their keep"),
    ("serve_batch.p50_us", "us", "lower", "as serve_batch.qps"),
    ("serve_batch.p95_us", "us", "lower", "as serve_batch.qps"),
    ("update_mix.qps", "1/s", "higher", "reads beside writes: overlay-direct queries, CPU the flattener takes"),
    ("update_mix.p50_us", "us", "lower", "as update_mix.qps"),
    ("update_mix.p95_us", "us", "lower", "reader stalls under flatten and publish"),
    ("update_mix.update_ack_p50_ms", "ms", "lower", "journal + apply + publish; trades against update_mix.qps"),
    ("update_mix.update_ack_p80_ms", "ms", "lower", "as update_mix.update_ack_p50_ms, plus rebase under the updater lock"),
    ("update_mix.recovery_s", "s", "lower", "SIGKILL to the first correct answer at the pre-kill epoch"),
    ("update_mix.rss_mb", "MB", "lower", "base index + overlay + the snapshots a flatten keeps alive"),
];

/// Counters and gauges read from each `STATS` snapshot.
const STATS_NAMES: [&str; 7] = [
    "pll_cache_hits_total",
    "pll_cache_misses_total",
    "pll_cache_evictions_total",
    "pll_sheds_total",
    "pll_slow_requests_total",
    "pll_flatten_passes_total",
    "pll_overlay_delta_entries",
];

/// One `STATS` snapshot before and one after each server's load.
#[derive(Default)]
struct StatsObserver {
    snapshots: BTreeMap<(Workload, bool), BTreeMap<&'static str, u64>>,
    round_trip_ms: Vec<f64>,
}

impl Observer for StatsObserver {
    fn server(&mut self, stage: Workload, phase: Phase, server: &Server) -> Result<()> {
        let mut client = server.connect()?;
        let started = Instant::now();
        let snapshot = client
            .stats()
            .map_err(|e| BenchError::protocol("STATS", e))?;
        self.round_trip_ms
            .push(started.elapsed().as_secs_f64() * 1e3);
        let values = STATS_NAMES
            .iter()
            .map(|&name| (name, snapshot.value(name).unwrap_or(0)))
            .collect();
        self.snapshots
            .insert((stage, phase == Phase::After), values);
        Ok(())
    }
}

impl StatsObserver {
    fn at(&self, stage: Workload, after: bool, name: &str) -> f64 {
        self.snapshots
            .get(&(stage, after))
            .and_then(|s| s.get(name))
            .map_or(0.0, |&v| v as f64)
    }

    fn after(&self, stage: Workload, name: &str) -> f64 {
        self.at(stage, true, name)
    }

    fn delta(&self, stage: Workload, name: &str) -> f64 {
        self.at(stage, true, name) - self.at(stage, false, name)
    }
}

fn report(reports: &[StageReport], stage: Workload) -> Result<&StageReport> {
    reports
        .iter()
        .find(|r| r.stage == stage)
        .ok_or_else(|| BenchError::Check(format!("stage {} did not run", stage.name())))
}

fn metric(reports: &[StageReport], stage: Workload, name: &str) -> Result<f64> {
    report(reports, stage)?
        .get(name)
        .map(|s| s.median)
        .ok_or_else(|| BenchError::Check(format!("{} did not report {name}", stage.name())))
}

fn note(reports: &[StageReport], stage: Workload, key: &str) -> f64 {
    report(reports, stage)
        .ok()
        .and_then(|r| r.note(key))
        .unwrap_or(0.0)
}

/// Traced over untraced cost of the same in-process query loop, minus
/// one: the same uniform pairs through `AnyIndex::distance`, with a span
/// per block here and none in the `query` stage.
fn trace_overhead(session: &Session<'_>, untraced_query_ns: f64) -> f64 {
    let mut t = Tracer::new(u64::MAX);
    for (block, pairs) in session.uniform.chunks(frozen::BLOCK).enumerate() {
        let span = t.open("overhead", None, (block * frozen::BLOCK) as u64);
        for &(s, d) in pairs {
            std::hint::black_box(session.index.distance(s, d));
        }
        t.close(span, pairs.len() as u64, None);
    }
    t.ns_per_call("overhead") / untraced_query_ns - 1.0
}

fn run(opts: &Options) -> Result<bool> {
    proc::start_deadline();
    let mut session = Session::set_up(opts)?;
    let mut stats = StatsObserver::default();
    let reports = session.run(&mut stats)?;

    // The serve stage whose traffic the request path is replayed with:
    // the named workload's if it serves, else serve_point's.
    let serve = opts
        .workload
        .filter(|w| {
            matches!(
                w,
                Workload::ServePoint | Workload::ServeBatch | Workload::UpdateMix
            )
        })
        .unwrap_or(Workload::ServePoint);
    let mut tracer = Tracer::new(frozen::TRACE_SPAN_REQUESTS as u64);
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();

    let scratch = proc::TempDir::create(&opts.out_dir)?;
    values.extend(layers::construction(
        &mut tracer,
        &session.edges_path,
        &scratch.path().join("layers.idx"),
        session.build_threads,
    )?);
    let build_layers: f64 = [
        "graph.ingest_s",
        "order.compute_s",
        "graph.relabel_s",
        "bp.build_s",
        "build.pruned_s",
        "label.flatten_s",
        "v2.save_s",
    ]
    .iter()
    .map(|name| values[name])
    .sum();
    values.insert(
        "cli.overhead_s",
        metric(&reports, Workload::Build, "build_s")? - build_layers,
    );

    let frame_pairs = match serve {
        Workload::ServeBatch => frozen::BATCH_PAIRS,
        Workload::UpdateMix => frozen::UPDATE_READ_BATCH,
        _ => 1,
    };
    let (request_values, in_process_ns_per_frame) = {
        let index = pll_core::AnyIndex::open(&session.index_path)
            .map_err(|e| BenchError::Index(format!("open: {e}")))?;
        let stream = match serve {
            Workload::ServeBatch => session.zipf_stream(),
            _ => session.uniform_stream(),
        };
        layers::request_path(&mut tracer, &index, stream, frame_pairs)?
    };
    values.extend(request_values);
    values.insert(
        "server.transport_us",
        metric(&reports, serve, "p50_us")? - in_process_ns_per_frame / 1e3,
    );

    values.extend(layers::update_path(
        &mut tracer,
        &session.index_path,
        &session.graph,
        &session.update_batches,
        &scratch.path().join("layers.wal"),
        session.build_threads,
        frozen::FLATTEN_THRESHOLD,
    )?);

    let probes =
        stats.delta(serve, "pll_cache_hits_total") + stats.delta(serve, "pll_cache_misses_total");
    values.insert(
        "cache.server_hit_ratio",
        if probes > 0.0 {
            stats.delta(serve, "pll_cache_hits_total") / probes
        } else {
            0.0
        },
    );
    values.insert("server.sheds", stats.delta(serve, "pll_sheds_total"));
    values.insert(
        "server.slow_requests",
        stats.delta(serve, "pll_slow_requests_total"),
    );
    let stats_ms =
        pll_benchmark::stats::Summary::of(&stats.round_trip_ms).map_or(0.0, |s| s.median);
    values.insert("obs.stats_ms", stats_ms);
    let (late_stage, late_key, lag_key) = if serve == Workload::UpdateMix {
        (Workload::UpdateMix, "update_late_frac", "update_max_lag_us")
    } else {
        (Workload::ServePoint, "open_late_frac", "open_max_lag_us")
    };
    values.insert("loadgen.late_frac", note(&reports, late_stage, late_key));
    values.insert("loadgen.max_lag_us", note(&reports, late_stage, lag_key));
    values.insert(
        "dynamic.flatten_passes",
        stats.delta(Workload::UpdateMix, "pll_flatten_passes_total"),
    );
    values.insert(
        "dynamic.overlay_entries",
        stats.after(Workload::UpdateMix, "pll_overlay_delta_entries"),
    );
    values.insert(
        "trace_overhead_frac",
        trace_overhead(&session, metric(&reports, Workload::Query, "query_ns")?),
    );

    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit, _, _)| {
            let of_stage = name.split_once('.').and_then(|(workload, metric)| {
                let stage = reports.iter().find(|r| r.stage.name() == workload)?;
                stage.get(metric).map(|s| s.median)
            });
            let value = values
                .get(name)
                .copied()
                .or(of_stage)
                .filter(|v| v.is_finite())
                .ok_or_else(|| BenchError::Check(format!("no finite value for {name}")))?;
            Ok((name.to_string(), unit.to_string(), value))
        })
        .collect::<Result<Vec<_>>>()?;

    let trace_path = opts
        .out_dir
        .join(format!("trace-{}.jsonl", opts.workload_name()));
    tracer.write_jsonl(&trace_path)?;
    let extra = vec![
        ("active_kernel", Json::from(layers::active_kernel())),
        ("replayed_serve_stage", serve.name().into()),
        ("layers", tracer.totals_json()),
        ("spans_kept", tracer.spans_kept().into()),
        (
            "spans_file",
            trace_path.to_string_lossy().into_owned().into(),
        ),
        (
            "should_move",
            obj(PER_LAYER
                .iter()
                .map(|&(name, _, _, moves)| (name, Json::from(moves)))),
        ),
    ];
    let rec = record::assemble(opts, "per_layer", &reports, &metrics, extra);
    let path = record::write(opts, "trace-record", &rec)?;
    for (name, unit, value) in &metrics {
        println!("  {name:<32} {value:>16.4} {unit}");
    }
    println!(
        "spans: {} ({} kept)",
        trace_path.display(),
        tracer.spans_kept()
    );
    println!("record: {}", path.display());
    println!("{}", rec.result_line.compact());
    Ok(rec.correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args::parse(&argv) {
        Ok(Command::Run(opts)) => run(&opts),
        Ok(Command::Compare { .. }) => Err(BenchError::Usage(
            "--compare belongs to pll-benchmark, not the traced binary".into(),
        )),
        Err(e) => Err(e),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("error: answers disagreed with the oracle");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}
