//! Command line of both binaries.
//!
//! ```text
//! pll-benchmark[-trace] [--workload build|query|serve_point|serve_batch|update_mix|all]
//!                       [--seed N] [--seconds S] [--trace 0|1] [--quick]
//!                       [--pll PATH] [--out-dir DIR] [--bench-json PATH]
//! pll-benchmark --compare A.json B.json [--bench-json PATH]
//! ```

use crate::{BenchError, Result};
use std::path::PathBuf;

/// The five workloads, in pipeline order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Workload {
    /// `pll build` as a child, repeatedly.
    Build,
    /// In-process `AnyIndex::distance` over uniform pairs.
    Query,
    /// Single-pair `QUERY` frames, closed then open loop.
    ServePoint,
    /// Zipf `BATCH`-64 frames, closed loop.
    ServeBatch,
    /// Paced `UPDATE`s beside a closed-loop reader, then kill + recover.
    UpdateMix,
}

impl Workload {
    /// All five, in the order a run walks them.
    pub const ALL: [Workload; 5] = [
        Workload::Build,
        Workload::Query,
        Workload::ServePoint,
        Workload::ServeBatch,
        Workload::UpdateMix,
    ];

    /// The name used on the command line, in `BENCHMARK.json` and in
    /// records.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Build => "build",
            Workload::Query => "query",
            Workload::ServePoint => "serve_point",
            Workload::ServeBatch => "serve_batch",
            Workload::UpdateMix => "update_mix",
        }
    }

    fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What to do.
#[derive(Clone, Debug)]
pub enum Command {
    /// Run the pipeline.
    Run(Options),
    /// Compare two records.
    Compare {
        /// The baseline record.
        a: PathBuf,
        /// The candidate record.
        b: PathBuf,
        /// Where the bounds are.
        bench_json: PathBuf,
    },
}

/// Options of a run.
#[derive(Clone, Debug)]
pub struct Options {
    /// The workload whose row this run fills: a metric several stages
    /// report (`qps`, `rss_mb`, …) is taken from this one when it is among
    /// them. `None` (`all`) takes the first stage that reports it. Every
    /// run walks every stage for the same windows either way.
    pub workload: Option<Workload>,
    /// Seed of every generated input.
    pub seed: u64,
    /// Measured time of the three serve stages together, seconds.
    pub seconds: f64,
    /// Small graph and short windows (the self-test).
    pub quick: bool,
    /// The `pll` binary to run as a child.
    pub pll: PathBuf,
    /// Where records, traces and temporary files go.
    pub out_dir: PathBuf,
    /// The repo's `BENCHMARK.json` (metric lists and bounds).
    pub bench_json: PathBuf,
}

impl Options {
    /// Vertices of the input graph.
    pub fn graph_n(&self) -> usize {
        if self.quick {
            crate::frozen::QUICK_N
        } else {
            crate::frozen::GRAPH_N
        }
    }

    /// The named workload's name, `all` when none is.
    pub fn workload_name(&self) -> &'static str {
        self.workload.map_or("all", Workload::name)
    }
}

fn default_pll() -> PathBuf {
    // Both binaries and `pll` land in the same `release/` directory.
    std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(|dir| dir.join("pll")))
        .unwrap_or_else(|| PathBuf::from("pll"))
}

/// Parses `argv` (without the program name).
pub fn parse(argv: &[String]) -> Result<Command> {
    let usage = |m: String| BenchError::Usage(m);
    let mut opts = Options {
        workload: None,
        seed: 1,
        seconds: crate::frozen::RUN_SECONDS,
        quick: false,
        pll: default_pll(),
        out_dir: PathBuf::from("benchmark/out"),
        bench_json: PathBuf::from("BENCHMARK.json"),
    };
    let mut seconds_given = false;
    let mut compare: Option<(PathBuf, PathBuf)> = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| usage(format!("{flag} needs {what}")))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                opts.workload = match name.as_str() {
                    "all" => None,
                    other => Some(
                        Workload::from_name(other)
                            .ok_or_else(|| usage(format!("unknown workload {other:?}")))?,
                    ),
                };
            }
            "--seed" => {
                let v = value("a number")?;
                opts.seed = v
                    .parse()
                    .map_err(|e| usage(format!("bad --seed {v:?}: {e}")))?;
            }
            "--seconds" => {
                let v = value("a number")?;
                opts.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| usage(format!("bad --seconds {v:?}")))?;
                seconds_given = true;
            }
            // Which binary runs is run.sh's choice; accept the driver's
            // flag so both binaries take the same command line.
            "--trace" => {
                let v = value("0 or 1")?;
                if v != "0" && v != "1" {
                    return Err(usage(format!("bad --trace {v:?}")));
                }
            }
            "--quick" => opts.quick = true,
            "--pll" => opts.pll = PathBuf::from(value("a path")?),
            "--out-dir" => opts.out_dir = PathBuf::from(value("a path")?),
            "--bench-json" => opts.bench_json = PathBuf::from(value("a path")?),
            "--compare" => {
                let a = PathBuf::from(value("two record paths")?);
                let b = it
                    .next()
                    .map(PathBuf::from)
                    .ok_or_else(|| usage("--compare needs two record paths".into()))?;
                compare = Some((a, b));
            }
            other => return Err(usage(format!("unknown option {other:?}"))),
        }
    }
    if opts.quick && !seconds_given {
        opts.seconds = crate::frozen::QUICK_SECONDS;
    }
    Ok(match compare {
        Some((a, b)) => Command::Compare {
            a,
            b,
            bench_json: opts.bench_json,
        },
        None => Command::Run(opts),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn parses_the_drivers_command_line() {
        let cmd = parse(&argv(&[
            "--workload",
            "serve_batch",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "0",
        ]))
        .unwrap();
        let Command::Run(o) = cmd else {
            panic!("expected a run")
        };
        assert_eq!(o.workload, Some(Workload::ServeBatch));
        assert_eq!((o.seed, o.seconds), (7, 10.0));
    }

    #[test]
    fn defaults_to_all_workloads_for_the_frozen_window_and_quick_shortens_it() {
        let Command::Run(o) = parse(&[]).unwrap() else {
            panic!("expected a run")
        };
        assert_eq!((o.workload, o.seed), (None, 1));
        assert_eq!(o.seconds, crate::frozen::RUN_SECONDS);
        let Command::Run(o) = parse(&argv(&["--quick"])).unwrap() else {
            panic!("expected a run")
        };
        assert_eq!(o.seconds, crate::frozen::QUICK_SECONDS);
        let Command::Run(o) = parse(&argv(&["--quick", "--seconds", "2"])).unwrap() else {
            panic!("expected a run")
        };
        assert_eq!(o.seconds, 2.0);
    }

    #[test]
    fn rejects_bad_flags() {
        for bad in [
            &["--workload", "nope"][..],
            &["--seconds", "0"],
            &["--seed"],
            &["--trace", "2"],
            &["--compare", "a.json"],
            &["--frobnicate"],
        ] {
            assert!(matches!(parse(&argv(bad)), Err(BenchError::Usage(_))));
        }
    }
}
