//! The five workloads as stages of one pipeline.
//!
//! The driver wants every end-to-end metric from every run, so every run
//! walks every stage, for the same windows whichever workload it names:
//! the set-ups (which are `build`'s samples, and after each of which
//! `query` takes its own), `serve_point`, `serve_batch`, `update_mix`.
//! The named workload only decides which stage a metric several of them
//! report is taken from (see `record::end_to_end`).

use crate::args::{Options, Workload};
use crate::inputs::{self, Pair};
use crate::json::Json;
use crate::load::{drive, score, Driven, Merged, Outcome, Schedule, Stream};
use crate::proc::{run_to_success, Exit, Pinned, Server, TempDir};
use crate::stats::Summary;
use crate::{frozen, BenchError, Result};
use pll_core::AnyIndex;
use pll_graph::CsrGraph;
use pll_server::protocol::Client;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Input streams, one tag per kind (see [`inputs`]).
mod stream {
    pub const UNIFORM: u64 = 1;
    pub const ZIPF_POOL: u64 = 2;
    pub const ZIPF_ORDER: u64 = 3;
    pub const UPDATES: u64 = 4;
    pub const ORACLE: u64 = 5;
    pub const UPDATE_CHECK: u64 = 6;
}

/// What one stage measured.
#[derive(Clone, Debug)]
pub struct StageReport {
    /// Which workload this stage is.
    pub stage: Workload,
    /// `(metric name, unit, summary over trials)`.
    pub metrics: Vec<(&'static str, &'static str, Summary)>,
    /// Operations attempted (requests, builds, checked answers).
    pub attempted: u64,
    /// Operations that failed: no answer (shed, transport or protocol
    /// error) or a wrong one.
    pub failed: u64,
    /// Everything else worth keeping: sample counts, validity flags.
    pub notes: Vec<(&'static str, Json)>,
}

impl StageReport {
    fn new(stage: Workload) -> StageReport {
        StageReport {
            stage,
            metrics: Vec::new(),
            attempted: 0,
            failed: 0,
            notes: Vec::new(),
        }
    }

    fn metric(
        &mut self,
        name: &'static str,
        unit: &'static str,
        summary: Option<Summary>,
    ) -> Result<()> {
        let summary = summary.ok_or_else(|| {
            BenchError::Check(format!(
                "{}: no finite samples for {name}",
                self.stage.name()
            ))
        })?;
        self.metrics.push((name, unit, summary));
        Ok(())
    }

    /// The numeric note `key`, if this stage left one.
    pub fn note(&self, key: &str) -> Option<f64> {
        self.notes
            .iter()
            .find(|(k, _)| *k == key)
            .and_then(|(_, v)| v.as_f64())
    }

    /// The summary of metric `name`, if this stage reported it.
    pub fn get(&self, name: &str) -> Option<&Summary> {
        self.metrics
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|(_, _, s)| s)
    }
}

/// When an [`Observer`] is shown a server.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Listening, no load sent yet.
    Before,
    /// Load finished, not yet stopped.
    After,
}

/// Sees every `pll serve` child before and after its load. The traced
/// run takes its `STATS` snapshots here; the end-to-end run passes
/// [`NoObserver`].
pub trait Observer {
    /// Called with the live server.
    fn server(&mut self, stage: Workload, phase: Phase, server: &Server) -> Result<()>;
}

/// Observes nothing.
pub struct NoObserver;

impl Observer for NoObserver {
    fn server(&mut self, _: Workload, _: Phase, _: &Server) -> Result<()> {
        Ok(())
    }
}

/// Threads for `pll build` and connections/workers for the read-only
/// serve stages, from the core count.
pub fn sizing() -> (usize, usize, usize) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    (nproc, nproc.min(4), (nproc / 2).max(1))
}

/// The inputs and files every stage shares, made by the set-ups.
pub struct Session<'a> {
    /// The run's options.
    pub opts: &'a Options,
    /// `pll build --threads`.
    pub build_threads: usize,
    /// Server workers = client connections on the read-only stages.
    pub conns: usize,
    dir: TempDir,
    /// The input graph.
    pub graph: CsrGraph,
    /// Its SNAP edge list.
    pub edges_path: PathBuf,
    /// The v2 index the last set-up's `pll build` wrote.
    pub index_path: PathBuf,
    /// That index opened in process (the reference for served answers).
    pub index: AnyIndex,
    /// The uniform pair pool.
    pub uniform: Vec<Pair>,
    /// In-process answers to [`Session::uniform`].
    pub uniform_expected: Vec<Option<u64>>,
    /// `0..uniform.len()`: the uniform stream's order.
    pub identity: Vec<u32>,
    /// The `serve_batch` pool, its answers and its Zipf order.
    zipf: ZipfInputs,
    /// The `update_mix` batches.
    pub update_batches: Vec<Vec<Pair>>,
    /// One sample per set-up, or per open or query trial after it.
    samples: SetupSamples,
}

/// What the set-ups measured.
#[derive(Default)]
struct SetupSamples {
    setup_s: Vec<f64>,
    builds: Vec<Exit>,
    open_ms: Vec<f64>,
    query_ns: Vec<f64>,
    queries: u64,
    checksum: u64,
}

/// The `serve_batch` pool, its in-process answers, and the Zipf order
/// the pool is drawn in.
struct ZipfInputs {
    pool: Vec<Pair>,
    expected: Vec<Option<u64>>,
    order: Vec<u32>,
}

fn path_arg(path: &std::path::Path) -> String {
    path.to_string_lossy().into_owned()
}

/// In-process `distance` over `pairs`, cyclically from `*at`, on this
/// thread for `seconds`, in blocks of [`frozen::BLOCK`] per stopwatch
/// reading: `(queries, nanoseconds, sum of the answers)`.
fn query_for(index: &AnyIndex, pairs: &[Pair], at: &mut usize, seconds: f64) -> (u64, f64, u64) {
    let window = Duration::from_secs_f64(seconds);
    let (mut count, mut checksum) = (0u64, 0u64);
    let started = Instant::now();
    while started.elapsed() < window {
        for _ in 0..frozen::BLOCK {
            let (s, t) = pairs[*at];
            *at = (*at + 1) % pairs.len();
            checksum = checksum
                .wrapping_add(std::hint::black_box(index.distance(s, t)).map_or(u64::MAX, |d| d));
        }
        count += frozen::BLOCK as u64;
    }
    (count, started.elapsed().as_nanos() as f64, checksum)
}

impl<'a> Session<'a> {
    /// Sets up [`frozen::SETUPS`] times — generate the graph, write the
    /// edge list, `pll build` the index — and after each, on the file it
    /// left, times `AnyIndex::open` and a trial of in-process queries:
    /// the `build` and `query` stages' samples.
    pub fn set_up(opts: &'a Options) -> Result<Session<'a>> {
        let (_, build_threads, conns) = sizing();
        std::fs::create_dir_all(&opts.out_dir)
            .map_err(|e| BenchError::io(format!("create {}", opts.out_dir.display()), e))?;
        let dir = TempDir::create(&opts.out_dir)?;
        let edges_path = dir.path().join("edges.txt");
        let index_path = dir.path().join("graph.idx");
        let n = opts.graph_n();
        let (shrink, scale) = if opts.quick { (8, 0.2) } else { (1, 1.0) };
        let mut samples = SetupSamples::default();
        let mut uniform = Vec::new();
        let mut at = 0usize;
        let mut last = None;
        for _ in 0..frozen::SETUPS {
            let started = Instant::now();
            let graph = inputs::graph(n, opts.seed)?;
            let file = std::fs::File::create(&edges_path)
                .map_err(|e| BenchError::io(format!("create {}", edges_path.display()), e))?;
            pll_graph::edgelist::write_text(&graph, file)
                .map_err(|e| BenchError::Input(format!("write edge list: {e}")))?;
            samples
                .builds
                .push(build_once(opts, build_threads, &edges_path, &index_path)?);
            samples.setup_s.push(started.elapsed().as_secs_f64());

            // `open_ms` is defined on the warm file: the first open of the
            // one the build just wrote is not timed.
            let mut index = open_index(&index_path)?;
            for _ in 0..frozen::OPENS_PER_SETUP {
                let started = Instant::now();
                index = open_index(&index_path)?;
                samples.open_ms.push(started.elapsed().as_secs_f64() * 1e3);
            }
            if uniform.is_empty() {
                uniform = inputs::distinct_pairs(
                    graph.num_vertices(),
                    frozen::UNIFORM_POOL / shrink,
                    opts.seed,
                    stream::UNIFORM,
                );
            }
            query_for(&index, &uniform, &mut at, frozen::QUERY_WARM_S * scale);
            let (count, ns, checksum) =
                query_for(&index, &uniform, &mut at, frozen::QUERY_TRIAL_S * scale);
            samples.query_ns.push(ns / count as f64);
            samples.queries += count;
            samples.checksum = samples.checksum.wrapping_add(checksum);
            last = Some((graph, index));
        }
        let (graph, index) = last.ok_or_else(|| BenchError::Input("no set-up ran".into()))?;
        if index.num_vertices() != graph.num_vertices() {
            return Err(BenchError::Check(format!(
                "index has {} vertices, graph {}",
                index.num_vertices(),
                graph.num_vertices()
            )));
        }
        let uniform_expected = uniform.iter().map(|&(s, t)| index.distance(s, t)).collect();
        let pool = inputs::distinct_pairs(
            graph.num_vertices(),
            frozen::ZIPF_POOL,
            opts.seed,
            stream::ZIPF_POOL,
        );
        let zipf = ZipfInputs {
            expected: pool.iter().map(|&(s, t)| index.distance(s, t)).collect(),
            pool,
            order: inputs::zipf_indices(
                frozen::ZIPF_POOL,
                frozen::ZIPF_THETA,
                frozen::ZIPF_STREAM / shrink,
                opts.seed,
                stream::ZIPF_ORDER,
            ),
        };
        Ok(Session {
            opts,
            build_threads,
            conns,
            dir,
            graph,
            edges_path,
            index_path,
            index,
            identity: (0..uniform.len() as u32).collect(),
            uniform,
            uniform_expected,
            zipf,
            update_batches: Vec::new(),
            samples,
        })
    }

    /// The uniform stream with known answers.
    pub fn uniform_stream(&self) -> Stream<'_> {
        Stream {
            pool: &self.uniform,
            expected: Some(&self.uniform_expected),
            order: &self.identity,
        }
    }

    /// The Zipf stream of `serve_batch` with known answers.
    pub fn zipf_stream(&self) -> Stream<'_> {
        Stream {
            pool: &self.zipf.pool,
            expected: Some(&self.zipf.expected),
            order: &self.zipf.order,
        }
    }

    /// Stage `build`: the `pll build` child of every set-up.
    pub fn build(&self) -> Result<StageReport> {
        let builds = &self.samples.builds;
        let of = |f: fn(&Exit) -> f64| Summary::of(&builds.iter().map(f).collect::<Vec<_>>());
        let mut report = StageReport::new(Workload::Build);
        let bytes = std::fs::metadata(&self.index_path)
            .map_err(|e| BenchError::io(format!("stat {}", self.index_path.display()), e))?
            .len();
        let per_vertex = bytes as f64 / self.graph.num_vertices() as f64;
        report.metric("setup_s", "s", Summary::of(&self.samples.setup_s))?;
        report.metric("build_s", "s", of(|e| e.wall_s))?;
        report.metric("rss_mb", "MB", of(|e| e.rss_mb))?;
        report.metric("index_bytes_per_vertex", "B", Summary::of(&[per_vertex]))?;
        report.attempted = builds.len() as u64;
        report.notes.push(("index_bytes", bytes.into()));
        report.notes.push(("threads", self.build_threads.into()));
        Ok(report)
    }

    /// Stage `query`: the opens and in-process query trials of every
    /// set-up; the index is checked against BFS here, for `build` and
    /// `query` both.
    pub fn query(&self) -> Result<StageReport> {
        let samples = &self.samples;
        let mut report = StageReport::new(Workload::Query);
        let index = &self.index;
        let mut examples = Vec::new();
        let (checked, wrong) = inputs::check_against_bfs(
            &self.graph,
            frozen::ORACLE_SOURCES,
            None,
            self.opts.seed,
            stream::ORACLE,
            &mut examples,
            |pairs| Ok(pairs.iter().map(|&(s, t)| index.distance(s, t)).collect()),
        )?;
        for example in &examples {
            eprintln!("query: wrong answer: {example}");
        }
        report.metric("open_ms", "ms", Summary::of(&samples.open_ms))?;
        report.metric("query_ns", "ns", Summary::of(&samples.query_ns))?;
        report.attempted = samples.queries + checked;
        report.failed = wrong;
        report.notes.push(("queries_timed", samples.queries.into()));
        report
            .notes
            .push(("answers_checked_against_bfs", checked.into()));
        report
            .notes
            .push(("checksum", format!("{:016x}", samples.checksum).into()));
        Ok(report)
    }

    /// A `pll serve` on the index with `workers` threads, for the
    /// read-only stages: it and this process's threads (the clients) are
    /// kept to `workers` CPUs each for as long as the guard lives — see
    /// [`Pinned`].
    fn static_server(&self, workers: usize) -> Result<(Server, Option<Pinned>)> {
        Pinned::apart(workers, || {
            Server::start(
                &self.opts.pll,
                &[
                    "--index".into(),
                    path_arg(&self.index_path),
                    "--threads".into(),
                    workers.to_string(),
                ],
            )
        })
    }

    fn trial_len(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.opts.seconds * share / (frozen::TRIALS + 1) as f64)
    }

    /// Stage `serve_point`: single-pair `QUERY` frames over uniform
    /// pairs; a closed loop, then an open loop at the frozen rate.
    pub fn serve_point(&mut self, observer: &mut dyn Observer) -> Result<StageReport> {
        let mut report = StageReport::new(Workload::ServePoint);
        let interval = Duration::from_secs_f64(1.0 / frozen::OPEN_RATE_PER_CONN as f64);
        let (server, pinned) = self.static_server(self.conns)?;
        observer.server(Workload::ServePoint, Phase::Before, &server)?;
        let (stream, conns) = (self.uniform_stream(), self.conns);
        let mut closed = read_load(
            &server,
            conns,
            stream,
            1,
            Schedule::Closed,
            self.trial_len(frozen::POINT_CLOSED_SHARE),
        )?;
        let mut open = read_load(
            &server,
            conns,
            stream,
            1,
            Schedule::Every(interval),
            self.trial_len(frozen::POINT_OPEN_SHARE),
        )?;
        observer.server(Workload::ServePoint, Phase::After, &server)?;
        let exit = server.stop()?;
        report.metric("qps", "1/s", closed.rate())?;
        report.metric("p50_us", "us", closed.latency(0.50, 1e3))?;
        report.metric("p95_us", "us", closed.latency(0.95, 1e3))?;
        report.metric("open_p50_us", "us", open.latency(0.50, 1e3))?;
        report.metric("open_p95_us", "us", open.latency(0.95, 1e3))?;
        report.metric("rss_mb", "MB", Summary::of(&[exit.rss_mb]))?;
        report.attempted = closed.attempted + open.attempted;
        report.failed = closed.failed + open.failed;
        report.notes.push(("connections", self.conns.into()));
        report.notes.push(("pinned", pinned.is_some().into()));
        report
            .notes
            .push(("closed_samples_per_trial", closed.min_samples().into()));
        report
            .notes
            .push(("open_samples_per_trial", open.min_samples().into()));
        report.notes.push((
            "open_rate_per_connection",
            frozen::OPEN_RATE_PER_CONN.into(),
        ));
        push_loadgen_notes(
            &mut report,
            ["open_late_frac", "open_max_lag_us", "open_loop_valid"],
            &open,
        );
        Ok(report)
    }

    /// Stage `serve_batch`: `BATCH` frames of 64 pairs drawn Zipf from a
    /// pool 64× the per-worker cache, closed loop.
    pub fn serve_batch(&mut self, observer: &mut dyn Observer) -> Result<StageReport> {
        let mut report = StageReport::new(Workload::ServeBatch);
        let conns = self.conns;
        let (server, pinned) = self.static_server(conns)?;
        observer.server(Workload::ServeBatch, Phase::Before, &server)?;
        let mut closed = read_load(
            &server,
            conns,
            self.zipf_stream(),
            frozen::BATCH_PAIRS,
            Schedule::Closed,
            self.trial_len(frozen::BATCH_SHARE),
        )?;
        observer.server(Workload::ServeBatch, Phase::After, &server)?;
        let exit = server.stop()?;
        report.metric("qps", "1/s", closed.rate())?;
        report.metric("p50_us", "us", closed.latency(0.50, 1e3))?;
        report.metric("p95_us", "us", closed.latency(0.95, 1e3))?;
        report.attempted = closed.attempted;
        report.failed = closed.failed;
        report.notes.push(("connections", conns.into()));
        report.notes.push(("pinned", pinned.is_some().into()));
        report
            .notes
            .push(("closed_samples_per_trial", closed.min_samples().into()));
        report.notes.push(("server_rss_mb", exit.rss_mb.into()));
        Ok(report)
    }

    /// Stage `update_mix`: paced `UPDATE`s beside a closed-loop `BATCH`
    /// reader on a journaling server; then `SIGKILL`, restart on the same
    /// WAL, and check the recovered state.
    ///
    /// Measured once, whatever happens in it. The updater waits for every
    /// ack, so a loop that ran late ([`push_loadgen_notes`]) was held up
    /// by the program's own apply, flatten or fsync as likely as by the
    /// host, and the ack percentiles are there to show exactly that.
    pub fn update_mix(&mut self, observer: &mut dyn Observer) -> Result<StageReport> {
        let window = self.opts.seconds * frozen::UPDATE_SHARE;
        let mut report = StageReport::new(Workload::UpdateMix);
        let trials = frozen::TRIALS + 1;
        let trial_len = self.trial_len(frozen::UPDATE_SHARE);
        let pace = Duration::from_millis(frozen::UPDATE_PACE_MS);
        let wanted = (window / pace.as_secs_f64()).ceil() as usize + 1;
        self.update_batches = inputs::update_batches(
            &self.graph,
            wanted,
            frozen::UPDATE_EDGES,
            self.opts.seed,
            stream::UPDATES,
        )?;
        let batches = &self.update_batches;
        let wal_path = self.dir.path().join("journal.wal");
        let args = [
            "--index".to_string(),
            path_arg(&self.index_path),
            "--graph".into(),
            path_arg(&self.edges_path),
            "--wal".into(),
            path_arg(&wal_path),
            "--threads".into(),
            frozen::UPDATE_SERVER_THREADS.to_string(),
            "--flatten-threshold".into(),
            frozen::FLATTEN_THRESHOLD.to_string(),
        ];
        let server = Server::start(&self.opts.pll, &args)?;
        observer.server(Workload::UpdateMix, Phase::Before, &server)?;

        let reads = Stream {
            expected: None,
            ..self.uniform_stream()
        };
        let start = Instant::now() + Duration::from_millis(5);
        let mut updater = server.connect()?;
        let mut reader = server.connect()?;
        let (updates, queries) = std::thread::scope(|scope| {
            let updates = scope.spawn(|| {
                // The batches that were acked, in order: the oracle graph
                // is the input plus exactly these.
                let mut acked: Vec<usize> = Vec::new();
                let mut epoch = 0u64;
                let driven = drive(Schedule::Every(pace), start, trial_len, trials, |k| {
                    let batch = batches.get(k as usize).ok_or_else(|| {
                        BenchError::Input(format!("update stream ran out at batch {k}"))
                    })?;
                    let ack = match updater.update(batch) {
                        Ok(ack) => ack,
                        Err(e) => {
                            // Whether the server applied it is unknown;
                            // the epoch check below decides.
                            eprintln!("update_mix: UPDATE {k} got no answer: {e}");
                            updater = server.connect()?;
                            return Ok(Outcome::ERRORED);
                        }
                    };
                    // Every edge is new, so every batch applies whole
                    // and bumps the epoch by one.
                    let ok = ack.applied as usize == batch.len() && ack.epoch == epoch + 1;
                    epoch = ack.epoch;
                    acked.push(k as usize);
                    Ok(Outcome {
                        good: u64::from(ok),
                        wrong: u64::from(!ok),
                        errored: false,
                    })
                })?;
                Ok((driven, acked))
            });
            let queries = scope.spawn(|| {
                read_loop(
                    &server,
                    &mut reader,
                    reads,
                    0,
                    frozen::UPDATE_READ_BATCH,
                    Schedule::Closed,
                    start,
                    trial_len,
                )
            });
            (join(updates), join(queries))
        });
        let (updates, acked) = updates?;
        let sent = acked.len();
        let acks = Merged::of(vec![updates], trial_len);
        let mut reads = Merged::of(vec![queries?], trial_len);

        let acked: Vec<Pair> = acked
            .iter()
            .flat_map(|&k| batches[k].iter().copied())
            .collect();
        let grown = inputs::with_edges(&self.graph, &acked)?;
        let mut examples = Vec::new();
        let check = |client: &mut Client, examples: &mut Vec<String>| {
            let info = client.info().map_err(|e| BenchError::protocol("INFO", e))?;
            if info.epoch != sent as u64 {
                return Err(BenchError::Check(format!(
                    "server is at epoch {}, {} batches were acked",
                    info.epoch, sent
                )));
            }
            let per_source = 50;
            inputs::check_against_bfs(
                &grown,
                frozen::UPDATE_CHECK_PAIRS / per_source,
                Some(per_source),
                self.opts.seed,
                stream::UPDATE_CHECK,
                examples,
                |pairs| {
                    client
                        .batch(pairs)
                        .map_err(|e| BenchError::protocol("BATCH", e))
                },
            )
            .map(|counts| (counts, info))
        };
        let ((checked_before, wrong_before), info) = check(&mut reader, &mut examples)?;
        // Both workers are pinned by these two connections; free them
        // before anyone else (the observer, SHUTDOWN) connects.
        drop((updater, reader));
        observer.server(Workload::UpdateMix, Phase::After, &server)?;

        // The durability check: SIGKILL (the OS cache survives, so this
        // is a crash test, not a power-loss test), restart on the same
        // WAL, and time until the first correct answer at the pre-kill
        // epoch.
        // The first acked edge: its endpoints are at distance 1 only in
        // the updated graph, so a correct answer proves the WAL replayed.
        let &probe = acked
            .first()
            .ok_or_else(|| BenchError::Check("no update batch was acked".into()))?;
        let mut server = server;
        let mut first_exit = None;
        let mut recovery_s = Vec::with_capacity(frozen::RECOVERIES);
        for _ in 0..frozen::RECOVERIES {
            let exit = server.crash()?;
            let killed = Instant::now();
            first_exit.get_or_insert(exit);
            server = Server::start(&self.opts.pll, &args)?;
            let mut client = server.connect()?;
            let epoch = client
                .info()
                .map_err(|e| BenchError::protocol("INFO", e))?
                .epoch;
            let got = client
                .query(probe.0, probe.1)
                .map_err(|e| BenchError::protocol("QUERY", e))?;
            recovery_s.push(killed.elapsed().as_secs_f64());
            if epoch != sent as u64 || got != Some(1) {
                return Err(BenchError::Check(format!(
                    "after recovery: epoch {epoch} (acked {sent}), d{probe:?} = {got:?} (an acked edge)"
                )));
            }
        }
        let mut client = server.connect()?;
        let ((checked_after, wrong_after), _) = check(&mut client, &mut examples)?;
        drop(client);
        server.stop()?;
        for example in &examples {
            eprintln!("update_mix: wrong answer: {example}");
        }

        report.metric("qps", "1/s", reads.rate())?;
        report.metric("p50_us", "us", reads.latency(0.50, 1e3))?;
        report.metric("p95_us", "us", reads.latency(0.95, 1e3))?;
        // A trial holds too few acks for a tail (one per 50 ms): the ack
        // percentiles pool the timed trials, and the 80th is the highest
        // with ten or more of the ~90 samples beyond it.
        report.metric("update_ack_p50_ms", "ms", acks.pooled_latency(0.50, 1e6))?;
        report.metric("update_ack_p80_ms", "ms", acks.pooled_latency(0.80, 1e6))?;
        report.metric("recovery_s", "s", Summary::of(&recovery_s))?;
        let rss = first_exit.map_or(f64::NAN, |e| e.rss_mb);
        report.metric("rss_mb", "MB", Summary::of(&[rss]))?;
        report.attempted = reads.attempted + acks.attempted + checked_before + checked_after;
        report.failed = reads.failed + acks.failed + wrong_before + wrong_after;
        report.notes.push(("durability_check", "sigkill".into()));
        report.notes.push(("batches_acked", sent.into()));
        report.notes.push(("recovered_epoch", sent.into()));
        report
            .notes
            .push(("ack_samples_pooled", acks.attempted.into()));
        report
            .notes
            .push(("read_samples_per_trial", reads.min_samples().into()));
        report.notes.push(("flatten_passes", info.flattens.into()));
        report
            .notes
            .push(("overlay_entries_at_end", info.overlay_entries.into()));
        report.notes.push((
            "answers_checked_against_bfs",
            (checked_before + checked_after).into(),
        ));
        push_loadgen_notes(
            &mut report,
            ["update_late_frac", "update_max_lag_us", "update_loop_valid"],
            &acks,
        );
        Ok(report)
    }

    /// Runs every stage, in pipeline order.
    pub fn run(&mut self, observer: &mut dyn Observer) -> Result<Vec<StageReport>> {
        Ok(vec![
            self.build()?,
            self.query()?,
            self.serve_point(observer)?,
            self.serve_batch(observer)?,
            self.update_mix(observer)?,
        ])
    }
}

fn build_once(
    opts: &Options,
    threads: usize,
    edges: &std::path::Path,
    out: &std::path::Path,
) -> Result<Exit> {
    let mut cmd = Command::new(&opts.pll);
    cmd.arg("build")
        .arg(edges)
        .arg(out)
        .args(["--threads", &threads.to_string()])
        .args(["--bp-roots", &frozen::BP_ROOTS.to_string()])
        .stdin(Stdio::null())
        .stdout(Stdio::null());
    run_to_success(&mut cmd, "pll build")
}

fn open_index(path: &std::path::Path) -> Result<AnyIndex> {
    AnyIndex::open(path).map_err(|e| BenchError::Index(format!("open {}: {e}", path.display())))
}

fn join<T>(handle: std::thread::ScopedJoinHandle<'_, Result<T>>) -> Result<T> {
    handle
        .join()
        .unwrap_or_else(|_| Err(BenchError::Check("a load thread panicked".into())))
}

/// One connection's read loop: frames of `frame_pairs` pairs of `stream`
/// from position `offset` on (one pair is a `QUERY`, more a `BATCH`),
/// every answer scored against the stream's known answers. A request
/// that gets no answer is counted as failed and the loop goes on over a
/// new connection to `server`; only when none can be made does it end
/// the run.
#[allow(clippy::too_many_arguments)]
fn read_loop(
    server: &Server,
    client: &mut Client,
    stream: Stream<'_>,
    offset: u64,
    frame_pairs: usize,
    schedule: Schedule,
    start: Instant,
    trial_len: Duration,
) -> Result<Driven> {
    let (mut pairs, mut want) = (Vec::new(), Vec::new());
    drive(schedule, start, trial_len, frozen::TRIALS + 1, |k| {
        let at = offset + k * frame_pairs as u64;
        stream.fill(at, frame_pairs, &mut pairs, &mut want);
        let answer = if let [(s, t)] = pairs[..] {
            client.query(s, t).map(|d| vec![d])
        } else {
            client.batch(&pairs)
        };
        match answer {
            Ok(got) => Ok(score(&got, &want)),
            Err(e) => {
                eprintln!("request {k} got no answer: {e}");
                *client = server.connect()?;
                Ok(Outcome::ERRORED)
            }
        }
    })
}

/// `conns` connections, a thread each, running [`read_loop`] over its own
/// stretch of `stream`; their trials merged.
fn read_load(
    server: &Server,
    conns: usize,
    stream: Stream<'_>,
    frame_pairs: usize,
    schedule: Schedule,
    trial_len: Duration,
) -> Result<Merged> {
    let mut clients = (0..conns)
        .map(|_| server.connect())
        .collect::<Result<Vec<_>>>()?;
    let start = Instant::now() + Duration::from_millis(5);
    let driven = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let offset = (c * stream.order.len() / conns) as u64;
                scope.spawn(move || {
                    read_loop(
                        server,
                        client,
                        stream,
                        offset,
                        frame_pairs,
                        schedule,
                        start,
                        trial_len,
                    )
                })
            })
            .collect();
        handles.into_iter().map(join).collect::<Result<Vec<_>>>()
    })?;
    Ok(Merged::of(driven, trial_len))
}

/// Notes how late an open-loop generator ran, under the three `keys`
/// (late share, longest lag, validity).
fn push_loadgen_notes(report: &mut StageReport, keys: [&'static str; 3], merged: &Merged) {
    let late = merged.late_frac();
    let [late_key, lag_key, valid_key] = keys;
    report.notes.push((late_key, late.into()));
    report
        .notes
        .push((lag_key, (merged.max_lag_ns as f64 / 1e3).into()));
    // A generator that ran late did not offer the load it claims: the
    // latencies are reported but flagged invalid, not slow.
    report.notes.push((valid_key, (late <= 0.01).into()));
    if late > 0.01 {
        eprintln!(
            "warning: {}: the open loop sent {:.2}% of requests late; its latencies are invalid",
            report.stage.name(),
            late * 100.0
        );
    }
}
