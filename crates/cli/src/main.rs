//! `pll` — build, query, inspect and *serve* pruned landmark labeling
//! indices from the command line.
//!
//! ```text
//! pll build <edges.txt> <out.idx> [--format undirected|directed|weighted|weighted-directed]
//!           [--order degree|random|closeness] [--bp-roots t] [--seed s] [--threads k]
//! pll query <index.idx> <s> <t> [...more pairs]
//! pll query <index.idx> -              # stream `s t` pairs from stdin
//! pll stats <index.idx>
//! pll bench <index.idx> [--queries q] [--seed s]
//! pll serve --index <index.idx> [--addr host:port] [--threads k]
//!           [--graph <edges.txt>] [--wal <journal.wal>] [--snapshot-every n]
//!           [--max-pending n]
//! pll update <index.idx> <graph.txt> <updates.txt> -o <out.idx>
//! pll wal <journal.wal>
//! ```
//!
//! `build` reads a SNAP-style edge list (whitespace separated, `#`
//! comments; `u v` per line for the unweighted formats, `u v w` for the
//! weighted ones), constructs the requested index variant — `--threads`
//! selects batch-parallel construction for **every** format, with output
//! byte-identical to `--threads 1` — and writes the zero-copy v2
//! format of `pll_core::v2` (construction statistics included). `query`,
//! `stats`, `bench` and `serve` open any index via
//! [`pll_core::AnyIndex`]: v1 files parse into owned indices as before,
//! v2 files open with a single read, one checksum pass and a structural
//! scan, and are queried in place.
//!
//! `serve` starts the `pll-server` TCP query service over the shared
//! read-only index and blocks until a client sends the SHUTDOWN opcode
//! (e.g. `serve_load --shutdown`), then prints the per-worker
//! QPS/latency summary.

// The CLI is pure orchestration — all unsafe lives behind pll-core's
// audited storage/kernel modules (`pll-audit` rule unsafe-confinement).
#![forbid(unsafe_code)]

use pll_core::{
    dynamic::DynamicIndex, v2, AnyIndex, ConstructionStats, DirectedIndexBuilder, IndexBuilder,
    IndexFormat, OrderingStrategy, WeightedDirectedIndexBuilder, WeightedIndexBuilder,
};
use pll_graph::{edgelist, CsrGraph, Xoshiro256pp};
use pll_server::protocol::answers;
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

mod args;
use args::{ArgError, PairSource, Parsed, QueryMode, StatsTarget};

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("{}", args::USAGE);
            ExitCode::from(2)
        }
    }
}

fn run(argv: &[String]) -> Result<(), String> {
    let parsed = Parsed::parse(argv).map_err(|e| match e {
        ArgError::Usage(msg) => msg,
    })?;
    match parsed {
        Parsed::Build {
            edges,
            output,
            format,
            order,
            bp_roots,
            seed,
            threads,
            store_parents,
        } => build(
            &edges,
            &output,
            format,
            order,
            bp_roots,
            seed,
            threads,
            store_parents,
        ),
        Parsed::Query { index, mode, pairs } => query(&index, mode, &pairs),
        Parsed::Stats { target } => match target {
            StatsTarget::File(index) => stats(&index),
            StatsTarget::Server(addr) => stats_remote(&addr),
        },
        Parsed::Bench {
            index,
            queries,
            seed,
        } => bench(&index, queries, seed),
        Parsed::Serve {
            index,
            graph,
            addr,
            threads,
            wal,
            snapshot_every,
            max_pending,
            flatten_threshold,
            metrics_addr,
            trace_log,
        } => serve(
            &index,
            graph.as_deref(),
            &addr,
            threads,
            wal.as_deref(),
            snapshot_every,
            max_pending,
            flatten_threshold,
            metrics_addr.as_deref(),
            trace_log.as_deref(),
        ),
        Parsed::Update {
            index,
            graph,
            updates,
            output,
            threads,
        } => update(&index, &graph, &updates, &output, threads),
        Parsed::Wal { wal } => wal_dump(&wal),
    }
}

fn open_any(path: &str) -> Result<AnyIndex, String> {
    AnyIndex::open(std::path::Path::new(path)).map_err(|e| format!("cannot load {path}: {e}"))
}

#[allow(clippy::too_many_arguments)]
fn build(
    edges: &str,
    output: &str,
    format: IndexFormat,
    order: OrderingStrategy,
    bp_roots: usize,
    seed: u64,
    threads: usize,
    store_parents: bool,
) -> Result<(), String> {
    let file = File::open(edges).map_err(|e| format!("cannot open {edges}: {e}"))?;
    let reader = BufReader::new(file);
    let parse_started = Instant::now();

    // One arm per format; everything but the reader, builder and save
    // function is shared. The output file is created only after a
    // successful build, so a parse or construction failure never
    // clobbers a pre-existing index at that path.
    macro_rules! build_arm {
        ($read:path, $builder:expr, $save:path, $bp_extra:expr) => {{
            let graph = $read(reader).map_err(|e| format!("cannot parse {edges}: {e}"))?;
            eprintln!(
                "graph: {} vertices, {} edges ({:.2} s)",
                graph.num_vertices(),
                graph.num_edges(),
                parse_started.elapsed().as_secs_f64()
            );
            let started = Instant::now();
            let index = $builder
                .build(&graph)
                .map_err(|e| format!("construction failed: {e}"))?;
            let threads_used = index.stats().threads;
            eprintln!(
                "index: avg label {:.1} entries, {} bytes ({:.2} s, {} thread{})",
                index.avg_label_size() + $bp_extra,
                index.memory_bytes(),
                started.elapsed().as_secs_f64(),
                threads_used,
                if threads_used == 1 { "" } else { "s" },
            );
            eprintln!("{}", phase_breakdown(index.stats()));
            // Crash-atomic: the index lands via tmp-file + fsync + rename,
            // so an interrupted write never leaves a truncated index (or
            // clobbers a pre-existing one) at `output`.
            pll_core::wal::atomic_write_with(std::path::Path::new(output), |w| $save(&index, w))
                .map_err(|e| format!("cannot write {output}: {e}"))?;
        }};
    }
    match format {
        IndexFormat::Undirected => build_arm!(
            edgelist::read_text,
            IndexBuilder::new()
                .ordering(order)
                .bit_parallel_roots(bp_roots)
                .store_parents(store_parents)
                .seed(seed)
                .threads(threads),
            v2::save_v2_index,
            bp_roots as f64
        ),
        IndexFormat::Directed => build_arm!(
            edgelist::read_directed_text,
            DirectedIndexBuilder::new()
                .ordering(order)
                .seed(seed)
                .threads(threads),
            v2::save_v2_directed_index,
            0.0
        ),
        IndexFormat::Weighted => build_arm!(
            edgelist::read_weighted_text,
            WeightedIndexBuilder::new()
                .ordering(order)
                .seed(seed)
                .threads(threads),
            v2::save_v2_weighted_index,
            0.0
        ),
        IndexFormat::WeightedDirected => build_arm!(
            edgelist::read_weighted_directed_text,
            WeightedDirectedIndexBuilder::new()
                .ordering(order)
                .seed(seed)
                .threads(threads),
            v2::save_v2_weighted_directed_index,
            0.0
        ),
    }
    eprintln!("wrote {output} ({} format, v2)", format.name());
    Ok(())
}

/// The per-phase timing line shared by `pll build` and `pll stats`: the
/// Amdahl accounting of construction (ordering → relabelling → searches →
/// label flatten).
fn phase_breakdown(stats: &ConstructionStats) -> String {
    format!(
        "phases: order {:.3} s, relabel {:.3} s, search {:.3} s, flatten {:.3} s",
        stats.order_seconds,
        stats.relabel_seconds,
        stats.search_seconds(),
        stats.flatten_seconds,
    )
}

/// `pll stats` variant of the phase line. v2 indices persist their
/// construction statistics, so loaded indices report the real phase
/// timings; v1 files never stored them, so the fallback tells the user
/// exactly how to get the numbers.
fn phase_stats_lines(stats: &ConstructionStats) -> Vec<String> {
    if stats.total_seconds() > 0.0 {
        vec![
            format!("construction {}", phase_breakdown(stats)),
            format!(
                "built with:          {} thread(s), {} batches, {} repruned",
                stats.threads, stats.parallel_batches, stats.repruned
            ),
        ]
    } else {
        vec![
            "construction phases: not recorded (v1 file; rebuild with `pll build` \
             to write a v2 index that persists timings)"
                .to_string(),
        ]
    }
}

fn print_phase_stats(stats: &ConstructionStats) {
    for line in phase_stats_lines(stats) {
        println!("{line}");
    }
}

fn print_answer(s: u32, t: u32, d: Option<u64>) {
    println!("{}", answers::distance_line(s, t, d));
}

// The answer-line formats live in `pll_server::protocol::answers`,
// shared with `serve_load --answers-out`, so the smoke tests'
// online-vs-offline byte-diff contract holds by construction.
fn answer_one(index: &AnyIndex, mode: QueryMode, s: u32, t: u32) -> Result<(), String> {
    match mode {
        QueryMode::Distance => {
            let d = index.try_distance(s, t).map_err(|e| e.to_string())?;
            print_answer(s, t, d);
        }
        QueryMode::Path => {
            let p = index.shortest_path(s, t).map_err(|e| e.to_string())?;
            println!("{}", answers::path_line(s, t, p.as_deref()));
        }
        QueryMode::Connected => {
            let c = index.try_connected(s, t).map_err(|e| e.to_string())?;
            println!("{}", answers::connected_line(s, t, c));
        }
    }
    Ok(())
}

fn query(index_path: &str, mode: QueryMode, pairs: &PairSource) -> Result<(), String> {
    let index = open_any(index_path)?;
    match pairs {
        PairSource::Args(pairs) => {
            for &(s, t) in pairs {
                answer_one(&index, mode, s, t)?;
            }
        }
        PairSource::Stdin => {
            // Stream `s t` lines (whitespace separated, `#` comments) so
            // arbitrarily long pair files never materialise in memory —
            // this is what the serve smoke test byte-diffs the online
            // answers against.
            let stdin = std::io::stdin();
            for (lineno, line) in stdin.lock().lines().enumerate() {
                let line = line.map_err(|e| format!("stdin: {e}"))?;
                let Some((s, t)) = parse_pair_line(&line, lineno)? else {
                    continue;
                };
                answer_one(&index, mode, s, t)?;
            }
        }
    }
    Ok(())
}

/// Parses one `s t` line (whitespace separated, `#` comments); `None`
/// for blank/comment lines.
fn parse_pair_line(line: &str, lineno: usize) -> Result<Option<(u32, u32)>, String> {
    let body = line.split('#').next().unwrap_or("").trim();
    if body.is_empty() {
        return Ok(None);
    }
    let mut it = body.split_whitespace();
    let (s, t) = match (it.next(), it.next(), it.next()) {
        (Some(s), Some(t), None) => (s, t),
        _ => return Err(format!("line {}: expected `s t`, got {body:?}", lineno + 1)),
    };
    let s: u32 = s
        .parse()
        .map_err(|e| format!("line {}: bad vertex {s:?}: {e}", lineno + 1))?;
    let t: u32 = t
        .parse()
        .map_err(|e| format!("line {}: bad vertex {t:?}: {e}", lineno + 1))?;
    Ok(Some((s, t)))
}

fn stats(index_path: &str) -> Result<(), String> {
    let index = open_any(index_path)?;
    println!("format:              {}", index.format().name());
    println!(
        "file format:         v{}{}",
        index.format_version(),
        if index.is_zero_copy() {
            " (zero-copy)"
        } else {
            " (parsed)"
        }
    );
    let header = pll_core::v2::read_header_checksum(std::path::Path::new(index_path));
    if let Some(header) = header.map_err(|e| e.to_string())? {
        println!(
            "header version:      {} (checksum {} {:016x})",
            header.version, header.kind, header.value
        );
    }
    println!("vertices:            {}", index.num_vertices());
    // Family-specific detail: the undirected index additionally reports
    // its bit-parallel roots and label-size distribution; the two-sided
    // variants report IN/OUT entry counts.
    macro_rules! undirected_detail {
        ($idx:expr) => {{
            let ls = $idx.label_size_stats();
            println!("bit-parallel roots:  {}", $idx.bit_parallel().num_roots());
            println!("label entries:       {}", ls.total_entries);
            println!("avg label size:      {:.2}", ls.mean);
            println!("label size min/max:  {} / {}", ls.min, ls.max);
            println!(
                "label size p50/p90/p99: {} / {} / {}",
                ls.percentiles[3], ls.percentiles[5], ls.percentiles[6]
            );
            println!("parents stored:      {}", $idx.has_parents());
        }};
    }
    macro_rules! directed_detail {
        ($idx:expr) => {{
            println!(
                "label entries:       {} IN + {} OUT",
                $idx.labels_in().total_entries(),
                $idx.labels_out().total_entries()
            );
            println!("avg label size:      {:.2}", $idx.avg_label_size());
        }};
    }
    match &index {
        AnyIndex::Undirected(idx) => undirected_detail!(idx),
        AnyIndex::UndirectedView(idx) => undirected_detail!(idx),
        AnyIndex::Directed(idx) => directed_detail!(idx),
        AnyIndex::DirectedView(idx) => directed_detail!(idx),
        _ => println!("avg label size:      {:.2}", index.avg_label_size()),
    }
    println!("index bytes:         {}", index.memory_bytes());
    print_phase_stats(index.stats());
    Ok(())
}

/// `pll stats --addr`: an INFO + STATS round-trip against a running
/// server — the live view (epoch, uptime, overlay delta entries,
/// flatten generation, metric registry) that a file inspection cannot
/// give.
fn stats_remote(addr: &str) -> Result<(), String> {
    let mut client = pll_server::protocol::Client::connect(addr)
        .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let info = client.info().map_err(|e| format!("INFO {addr}: {e}"))?;
    // Inverse of protocol::format_code (the wire carries the code).
    let format = match info.format {
        0 => "undirected",
        1 => "directed",
        2 => "weighted",
        3 => "weighted-directed",
        _ => "unknown",
    };
    println!("server:              {addr}");
    println!("format:              {format}");
    println!("file format:         v{}", info.format_version);
    println!("vertices:            {}", info.num_vertices);
    println!("uptime:              {} s", info.uptime_seconds);
    println!("epoch:               {}", info.epoch);
    println!(
        "dynamic updates:     {}",
        if info.dynamic { "enabled" } else { "disabled" }
    );
    println!("overlay entries:     {}", info.overlay_entries);
    println!("flatten generation:  {}", info.flattens);
    match info.flatten_threshold {
        0 => println!("flatten threshold:   n/a (static server)"),
        u64::MAX => println!("flatten threshold:   never"),
        t => println!("flatten threshold:   {t}"),
    }
    let snapshot = client.stats().map_err(|e| format!("STATS {addr}: {e}"))?;
    println!();
    println!("live metrics ({}):", snapshot.samples.len());
    for sample in &snapshot.samples {
        match &sample.value {
            pll_obs::SampleValue::Counter(v) | pll_obs::SampleValue::Gauge(v) => {
                println!("  {:<40} {v}", sample.name);
            }
            pll_obs::SampleValue::Histogram(h) => {
                println!(
                    "  {:<40} count {} p50 {:.1} µs p99 {:.1} µs",
                    sample.name,
                    h.count,
                    h.percentile_nanos(0.50) as f64 / 1_000.0,
                    h.percentile_nanos(0.99) as f64 / 1_000.0,
                );
            }
        }
    }
    Ok(())
}

fn bench(index_path: &str, queries: usize, seed: u64) -> Result<(), String> {
    let index = open_any(index_path)?;
    let n = index.num_vertices();
    if n == 0 {
        return Err("index is empty".into());
    }
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let pairs: Vec<(u32, u32)> = (0..queries)
        .map(|_| {
            (
                rng.next_below(n as u64) as u32,
                rng.next_below(n as u64) as u32,
            )
        })
        .collect();
    let started = Instant::now();
    let mut sink = 0u64;
    let mut connected = 0usize;
    for &(s, t) in &pairs {
        if let Some(d) = index.distance(s, t) {
            sink = sink.wrapping_add(d);
            connected += 1;
        }
    }
    let total = started.elapsed().as_secs_f64();
    println!(
        "{} queries in {:.3} s ({:.2} µs/query, {:.1}% connected, checksum {sink})",
        queries,
        total,
        total / queries.max(1) as f64 * 1e6,
        100.0 * connected as f64 / queries.max(1) as f64,
    );
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn serve(
    index_path: &str,
    graph_path: Option<&str>,
    addr: &str,
    threads: usize,
    wal_path: Option<&str>,
    snapshot_every: u64,
    max_pending: usize,
    flatten_threshold: Option<u64>,
    metrics_addr: Option<&str>,
    trace_log: Option<&str>,
) -> Result<(), String> {
    let index = Arc::new(open_any(index_path)?);
    eprintln!(
        "index: {} format, v{}{}, {} vertices, {} bytes",
        index.format().name(),
        index.format_version(),
        if index.is_zero_copy() {
            " zero-copy"
        } else {
            ""
        },
        index.num_vertices(),
        index.memory_bytes(),
    );
    let graph = match graph_path {
        Some(path) => {
            let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
            let g = edgelist::read_text(BufReader::new(file))
                .map_err(|e| format!("cannot parse {path}: {e}"))?;
            eprintln!(
                "graph: {} vertices, {} edges — dynamic updates enabled",
                g.num_vertices(),
                g.num_edges()
            );
            Some(g)
        }
        None => None,
    };
    let wal = wal_path.map(|path| pll_server::WalConfig {
        wal_path: path.into(),
        index_path: index_path.into(),
        snapshot_every,
    });
    let defaults = pll_server::ServerConfig::default();
    let handle = pll_server::serve_dynamic(
        index,
        graph.as_ref(),
        &pll_server::ServerConfig {
            addr: addr.to_string(),
            threads,
            max_pending,
            wal,
            flatten_threshold: flatten_threshold.or(defaults.flatten_threshold),
            metrics_addr: metrics_addr.map(str::to_string),
            trace_log: trace_log.map(std::path::PathBuf::from),
            ..defaults
        },
    )
    .map_err(|e| e.to_string())?;
    if let Some(r) = handle.recovery() {
        // The crash smoke script greps this exact line to verify replay.
        eprintln!(
            "wal recovery: epoch {}, {} batches replayed ({} edges, {} uncommitted), \
             {} rebase edges, {} torn bytes truncated, {:.3} s",
            r.recovered_epoch,
            r.replayed_batches,
            r.replayed_edges,
            r.uncommitted_batches,
            r.rebase_edges,
            r.truncated_bytes,
            r.seconds,
        );
        if let Some(err) = &r.replay_error {
            eprintln!("warning: degraded recovery: {err}");
        }
    }
    // The smoke script greps this exact line to learn the bound port.
    println!("listening on {}", handle.local_addr());
    if let Some(m) = handle.metrics_addr() {
        // The metrics smoke script greps this exact line for the port.
        println!("metrics on http://{m}/metrics");
    }
    eprintln!(
        "{} worker thread(s), UPDATE {}; send the SHUTDOWN opcode (serve_load --shutdown) to stop",
        handle.num_workers(),
        if handle.is_dynamic() {
            "enabled"
        } else {
            "disabled (start with --graph to enable)"
        },
    );
    let summary = handle.join();
    let cache_total = summary.cache_hits + summary.cache_misses;
    eprintln!(
        "served {} queries in {} requests over {:.2} s ({:.0} qps, p50 {:.1} µs, p99 {:.1} µs, \
         {} errors, {} updates, final epoch {}, cache hit rate {:.1}%, {} shed, {} panics)",
        summary.queries,
        summary.requests,
        summary.elapsed_seconds,
        summary.qps,
        summary.p50_us,
        summary.p99_us,
        summary.errors,
        summary.updates,
        summary.final_epoch,
        if cache_total > 0 {
            100.0 * summary.cache_hits as f64 / cache_total as f64
        } else {
            0.0
        },
        summary.sheds,
        summary.panics,
    );
    for (i, w) in summary.workers.iter().enumerate() {
        eprintln!(
            "  worker {i}: {} queries, {} requests, {} connections, {} updates, \
             {} cache hits / {} misses, busy {:.3} s, {} errors",
            w.queries,
            w.requests,
            w.connections,
            w.updates,
            w.cache_hits,
            w.cache_misses,
            w.busy_seconds,
            w.errors
        );
    }
    Ok(())
}

/// `pll update`: apply edge insertions to an opened index through the
/// dynamic overlay (resumed pruned BFSs — no rebuild) and persist the
/// flattened result as a v2 index.
fn update(
    index_path: &str,
    graph_path: &str,
    updates_path: &str,
    output: &str,
    threads: usize,
) -> Result<(), String> {
    let index = open_any(index_path)?;
    let file = File::open(graph_path).map_err(|e| format!("cannot open {graph_path}: {e}"))?;
    let graph: CsrGraph = edgelist::read_text(BufReader::new(file))
        .map_err(|e| format!("cannot parse {graph_path}: {e}"))?;
    let updates = read_pair_file(updates_path)?;
    eprintln!(
        "index: {} vertices; graph: {} edges; applying {} insertions",
        index.num_vertices(),
        graph.num_edges(),
        updates.len()
    );
    let mut dynamic =
        DynamicIndex::new(Arc::new(index), &graph).map_err(|e| format!("cannot wrap: {e}"))?;
    let stats = dynamic
        .apply(&updates)
        .map_err(|e| format!("update failed: {e}"))?;
    eprintln!(
        "applied {} edges ({} skipped) in {:.3} s: {} resumed roots, {} delta entries, \
         {} bit-parallel columns repaired, {} vertices visited",
        stats.edges_applied,
        stats.edges_skipped,
        stats.seconds,
        stats.roots_resumed,
        stats.entries_added,
        stats.bp_columns_repaired,
        stats.vertices_visited,
    );
    let started = Instant::now();
    let flat = dynamic
        .flatten(threads)
        .map_err(|e| format!("flatten failed: {e}"))?;
    eprintln!(
        "flattened to {} label entries in {:.3} s",
        flat.labels().total_entries(),
        started.elapsed().as_secs_f64()
    );
    // Crash-atomic, like `pll build`: a crash mid-write never replaces a
    // pre-existing index at `output` with a truncated file.
    pll_core::wal::atomic_write_with(std::path::Path::new(output), |w| {
        v2::save_v2_index(&flat, w)
    })
    .map_err(|e| format!("cannot write {output}: {e}"))?;
    eprintln!(
        "wrote {output} (undirected format, v2, epoch {})",
        dynamic.epoch()
    );
    Ok(())
}

/// `pll wal`: dump a server write-ahead log. Stdout gets one `u v` line
/// per journaled edge in replay order (rebase records first, then update
/// batches) — exactly the `<updates.txt>` format of `pll update`, which
/// is how the crash smoke test rebuilds the server's recovered state
/// offline. Stderr gets the journal's header and record statistics.
fn wal_dump(path: &str) -> Result<(), String> {
    use pll_core::wal::{read_wal, WalRecord};
    use std::io::Write;
    let contents = read_wal(std::path::Path::new(path))
        .map_err(|e| format!("cannot read {path}: {e}"))?
        .ok_or_else(|| format!("cannot read {path}: no such file"))?;
    eprintln!(
        "header: fingerprint {:016x}, prev {:016x}, base epoch {}",
        contents.header.fingerprint, contents.header.prev_fingerprint, contents.header.base_epoch
    );
    let (mut updates, mut commits, mut rebases, mut edges) = (0u64, 0u64, 0u64, 0u64);
    let stdout = std::io::stdout();
    let mut out = BufWriter::new(stdout.lock());
    for record in &contents.records {
        let es = match record {
            WalRecord::Rebase { edges } => {
                rebases += 1;
                edges
            }
            WalRecord::Update { edges, .. } => {
                updates += 1;
                edges
            }
            WalRecord::Commit { .. } => {
                commits += 1;
                continue;
            }
        };
        edges += es.len() as u64;
        for (u, v) in es {
            writeln!(out, "{u} {v}").map_err(|e| format!("stdout: {e}"))?;
        }
    }
    out.flush().map_err(|e| format!("stdout: {e}"))?;
    eprintln!(
        "{updates} update records ({commits} committed), {rebases} rebase records, \
         {edges} edges, {} torn bytes truncated",
        contents.truncated_bytes
    );
    Ok(())
}

/// Reads a whole `s t` pair file (used for update batches; query pairs
/// stream instead).
fn read_pair_file(path: &str) -> Result<Vec<(u32, u32)>, String> {
    let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let mut pairs = Vec::new();
    for (lineno, line) in BufReader::new(file).lines().enumerate() {
        let line = line.map_err(|e| format!("{path}: {e}"))?;
        if let Some(pair) = parse_pair_line(&line, lineno).map_err(|e| format!("{path}: {e}"))? {
            pairs.push(pair);
        }
    }
    Ok(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_stats_report_recorded_timings() {
        let stats = ConstructionStats {
            order_seconds: 0.5,
            relabel_seconds: 0.25,
            pruned_seconds: 1.0,
            flatten_seconds: 0.125,
            threads: 4,
            parallel_batches: 7,
            repruned: 3,
            ..Default::default()
        };
        let lines = phase_stats_lines(&stats);
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("order 0.500 s"), "{}", lines[0]);
        assert!(lines[1].contains("4 thread(s), 7 batches, 3 repruned"));
    }

    #[test]
    fn phase_stats_on_v1_point_at_the_v2_rebuild() {
        // A v1 load reports default (all-zero) stats; the fallback line
        // must name the command that persists timings.
        let lines = phase_stats_lines(&ConstructionStats::default());
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("not recorded"), "{}", lines[0]);
        assert!(lines[0].contains("`pll build`"), "{}", lines[0]);
    }
}
