//! What a run leaves behind: the end-to-end metrics picked from
//! the stages that own them, the machine fingerprint, the JSON record
//! file, and the one result line the driver reads.

use crate::args::{Options, Workload};
use crate::json::{obj, Json};
use crate::stages::{sizing, StageReport};
use crate::stats::Summary;
use crate::{frozen, BenchError, Result};
use std::path::PathBuf;

/// One end-to-end metric: its name and unit (as in `BENCHMARK.json`) and
/// the stages that report it.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// The stages that measure it, in pipeline order. A run reports the
    /// named workload's value when it is an owner, else the first
    /// owner's.
    pub owners: &'static [Workload],
}

use Workload::{Build, Query, ServePoint};

/// The end-to-end metrics: of the issue's fourteen, the three that repeat
/// within a tenth between runs on the host this was sized on, and
/// `setup_s`, which does not but which the driver requires. The issue's
/// rule — a metric that cannot is not an end-to-end metric — moved the
/// other ten (`build_s`, `query_ns`, `qps`, `p50_us`, the tails, the open
/// loop, the `UPDATE` acks, `recovery_s`) to the traced run's list under
/// the name of their workload; the stages still measure and print them
/// in every run (see the README for the spreads).
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        owners: &[Build],
    },
    EndToEnd {
        name: "rss_mb",
        unit: "MB",
        owners: &[Build, ServePoint],
    },
    EndToEnd {
        name: "index_bytes_per_vertex",
        unit: "B",
        owners: &[Build],
    },
    EndToEnd {
        name: "open_ms",
        unit: "ms",
        owners: &[Query],
    },
];

/// The value of each end-to-end metric for a run that named `named`,
/// with the stage it came from.
pub fn end_to_end(
    reports: &[StageReport],
    named: Option<Workload>,
) -> Result<Vec<(&'static EndToEnd, Workload, Summary)>> {
    END_TO_END
        .iter()
        .map(|metric| {
            let from = |stage: Workload| {
                reports
                    .iter()
                    .find(|r| r.stage == stage)
                    .and_then(|r| r.get(metric.name))
                    .map(|s| (metric, stage, *s))
            };
            named
                .filter(|w| metric.owners.contains(w))
                .and_then(from)
                .or_else(|| metric.owners.iter().copied().find_map(from))
                .ok_or_else(|| BenchError::Check(format!("no stage reported {}", metric.name)))
        })
        .collect()
}

fn first_line_of(path: &str, prefix: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()?
        .lines()
        .find(|l| l.starts_with(prefix))
        .map(|l| l.split_once(':').map_or(l, |(_, v)| v).trim().to_string())
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .stdin(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

/// Where and with what the numbers were measured. `kernel` is the query
/// kernel as the user chose it (`PLL_KERNEL`); the traced record adds
/// what the library resolved it to.
pub fn fingerprint() -> Json {
    let (nproc, build_threads, conns) = sizing();
    let unknown = || "unknown".to_string();
    obj([
        ("nproc", Json::from(nproc)),
        (
            "cpu_model",
            first_line_of("/proc/cpuinfo", "model name")
                .unwrap_or_else(unknown)
                .into(),
        ),
        (
            "kernel_release",
            std::fs::read_to_string("/proc/sys/kernel/osrelease")
                .map_or_else(|_| unknown(), |s| s.trim().to_string())
                .into(),
        ),
        (
            "rustc",
            std::env::var("PLL_BENCH_RUSTC")
                .ok()
                .or_else(|| command_line("rustc", &["-V"]))
                .unwrap_or_else(unknown)
                .into(),
        ),
        (
            "git_rev",
            command_line("git", &["rev-parse", "HEAD"])
                .unwrap_or_else(unknown)
                .into(),
        ),
        (
            "kernel",
            std::env::var("PLL_KERNEL")
                .unwrap_or_else(|_| "default".into())
                .into(),
        ),
        ("T", build_threads.into()),
        ("W", conns.into()),
        // One core: every multi-thread or multi-connection number is a
        // floor, not a measurement of parallel behaviour.
        ("floor", (nproc == 1).into()),
    ])
}

/// The frozen constants, echoed so a record explains itself.
pub fn constants(opts: &Options) -> Json {
    obj([
        ("graph", Json::from("chung_lu")),
        ("n", opts.graph_n().into()),
        ("gamma", frozen::GRAPH_GAMMA.into()),
        ("avg_degree", frozen::GRAPH_AVG_DEGREE.into()),
        ("bp_roots", frozen::BP_ROOTS.into()),
        ("setups", frozen::SETUPS.into()),
        ("trials", frozen::TRIALS.into()),
        ("oracle_sources", frozen::ORACLE_SOURCES.into()),
        ("uniform_pool", frozen::UNIFORM_POOL.into()),
        (
            "open_rate_per_connection",
            frozen::OPEN_RATE_PER_CONN.into(),
        ),
        ("late_tolerance", frozen::LATE_TOLERANCE.into()),
        ("batch_pairs", frozen::BATCH_PAIRS.into()),
        ("zipf_pool", frozen::ZIPF_POOL.into()),
        ("zipf_theta", frozen::ZIPF_THETA.into()),
        ("update_edges", frozen::UPDATE_EDGES.into()),
        ("update_pace_ms", frozen::UPDATE_PACE_MS.into()),
        ("update_read_batch", frozen::UPDATE_READ_BATCH.into()),
        (
            "update_server_threads",
            frozen::UPDATE_SERVER_THREADS.into(),
        ),
        ("flatten_threshold", frozen::FLATTEN_THRESHOLD.into()),
        ("update_check_pairs", frozen::UPDATE_CHECK_PAIRS.into()),
        ("recoveries", frozen::RECOVERIES.into()),
        ("opens_per_setup", frozen::OPENS_PER_SETUP.into()),
        ("query_warm_s", frozen::QUERY_WARM_S.into()),
        ("query_trial_s", frozen::QUERY_TRIAL_S.into()),
        ("point_closed_share", frozen::POINT_CLOSED_SHARE.into()),
        ("point_open_share", frozen::POINT_OPEN_SHARE.into()),
        ("batch_share", frozen::BATCH_SHARE.into()),
        ("update_share", frozen::UPDATE_SHARE.into()),
    ])
}

/// A finished run.
pub struct Record {
    /// The whole record, as written to the record file.
    pub json: Json,
    /// The line the driver reads.
    pub result_line: Json,
    /// Whether every answer was right.
    pub correct: bool,
}

/// Assembles the record of a run. `metrics` are the driver-facing
/// metrics (`(name, unit, value)`): the end-to-end ones for an untraced
/// run, the per-layer ones for a traced run, which also passes its
/// `extra` sections.
pub fn assemble(
    opts: &Options,
    kind: &str,
    reports: &[StageReport],
    metrics: &[(String, String, f64)],
    extra: Vec<(&'static str, Json)>,
) -> Record {
    let attempted: u64 = reports.iter().map(|r| r.attempted).sum();
    let failed: u64 = reports.iter().map(|r| r.failed).sum();
    let correct = failed == 0;
    let result_line = obj([
        ("correct", Json::from(correct)),
        ("attempted", attempted.max(1).into()),
        ("failed", failed.into()),
        (
            "metrics",
            obj(metrics.iter().map(|(name, unit, value)| {
                (
                    name.as_str(),
                    obj([("value", Json::Num(*value)), ("unit", unit.as_str().into())]),
                )
            })),
        ),
    ]);
    let stages = obj(reports.iter().map(|r| {
        (
            r.stage.name(),
            obj([
                ("ops_attempted", r.attempted.into()),
                ("ops_failed", r.failed.into()),
                (
                    "metrics",
                    obj(r
                        .metrics
                        .iter()
                        .map(|(name, unit, s)| (*name, s.to_json(unit)))),
                ),
                ("notes", obj(r.notes.iter().map(|(k, v)| (*k, v.clone())))),
            ]),
        )
    }));
    let mut fields = vec![
        ("schema", Json::from(1u64)),
        ("kind", kind.into()),
        ("workload", opts.workload_name().into()),
        ("seed", opts.seed.into()),
        ("seconds", opts.seconds.into()),
        ("quick", opts.quick.into()),
        ("fingerprint", fingerprint()),
        ("constants", constants(opts)),
        ("result", result_line.clone()),
        ("stages", stages),
    ];
    fields.extend(extra);
    Record {
        json: obj(fields),
        result_line,
        correct,
    }
}

/// Writes the record to `<out-dir>/<kind>-<workload>-<seed>.json` and
/// returns the path.
pub fn write(opts: &Options, kind: &str, record: &Record) -> Result<PathBuf> {
    let path = opts.out_dir.join(format!(
        "{kind}-{}-{}.json",
        opts.workload_name(),
        opts.seed
    ));
    std::fs::write(&path, record.json.pretty())
        .map_err(|e| BenchError::io(format!("write {}", path.display()), e))?;
    Ok(path)
}

/// Prints every metric of every stage by name with its unit, for a human.
pub fn print_table(reports: &[StageReport]) {
    for r in reports {
        println!(
            "{:<12} ops_attempted {}  ops_failed {}",
            r.stage.name(),
            r.attempted,
            r.failed
        );
        for (name, unit, s) in &r.metrics {
            println!(
                "  {name:<24} {:>14.4} {unit:<4} (min {:.4}, max {:.4}, n {})",
                s.median, s.min, s.max, s.n
            );
        }
    }
}
