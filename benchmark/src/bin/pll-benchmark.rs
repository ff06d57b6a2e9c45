//! The end-to-end benchmark (`--trace 0`): runs the pipeline with tracing
//! off, checks every answer, prints every metric by name with its unit,
//! writes one JSON record, and ends with the driver's result line. Also
//! hosts `--compare`.
//!
//! Touches the system only as a user does — see the crate docs.

use pll_benchmark::args::{self, Command};
use pll_benchmark::stages::{NoObserver, Session};
use pll_benchmark::{compare, proc, record, BenchError, Result};
use std::process::ExitCode;

fn run() -> Result<()> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let opts = match args::parse(&argv)? {
        Command::Compare { a, b, bench_json } => {
            return match compare::compare(&a, &b, &bench_json)? {
                0 => Ok(()),
                worse => Err(BenchError::Worse(worse)),
            };
        }
        Command::Run(opts) => opts,
    };
    proc::start_deadline();
    let reports = Session::set_up(&opts)?.run(&mut NoObserver)?;
    let metrics: Vec<(String, String, f64)> = record::end_to_end(&reports, opts.workload)?
        .into_iter()
        .map(|(m, _, s)| (m.name.to_string(), m.unit.to_string(), s.median))
        .collect();
    let rec = record::assemble(&opts, "end_to_end", &reports, &metrics, Vec::new());
    let path = record::write(&opts, "record", &rec)?;
    record::print_table(&reports);
    println!("record: {}", path.display());
    println!("{}", rec.result_line.compact());
    if rec.correct {
        Ok(())
    } else {
        Err(BenchError::Check(
            "answers disagreed with the oracle".into(),
        ))
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}
