//! One typed error for every way a run can fail; `main` maps it to a
//! nonzero exit code and never prints a result line after it.

use pll_server::protocol::ProtocolError;

/// Why a benchmark run (or `--compare`) failed.
#[derive(Debug)]
pub enum BenchError {
    /// Bad command line (exit code 2).
    Usage(String),
    /// File or pipe I/O, with what was being done.
    Io {
        /// The action that failed.
        what: String,
        /// The OS error.
        source: std::io::Error,
    },
    /// Generating inputs or the oracle failed.
    Input(String),
    /// A child process failed to start, exited badly or never listened.
    Child(String),
    /// A request to a `pll serve` child failed in transport or protocol.
    Protocol {
        /// The request that failed.
        what: String,
        /// The client's error.
        source: ProtocolError,
    },
    /// Opening or querying the index in process failed.
    Index(String),
    /// A record or `BENCHMARK.json` could not be parsed or lacks a field.
    Json(String),
    /// An answer disagreed with the oracle, or an invariant of the run
    /// (recovered epoch, late share) did not hold.
    Check(String),
    /// `--compare` found a metric worse than its bound (exit code 3).
    Worse(usize),
}

impl BenchError {
    /// Shorthand for [`BenchError::Io`].
    pub fn io(what: impl Into<String>, source: std::io::Error) -> BenchError {
        BenchError::Io {
            what: what.into(),
            source,
        }
    }

    /// Shorthand for [`BenchError::Protocol`].
    pub fn protocol(what: impl Into<String>, source: ProtocolError) -> BenchError {
        BenchError::Protocol {
            what: what.into(),
            source,
        }
    }

    /// Process exit code for this failure.
    pub fn exit_code(&self) -> u8 {
        match self {
            BenchError::Usage(_) => 2,
            BenchError::Worse(_) => 3,
            _ => 1,
        }
    }
}

impl std::fmt::Display for BenchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BenchError::Usage(m) => write!(f, "usage: {m}"),
            BenchError::Io { what, source } => write!(f, "{what}: {source}"),
            BenchError::Input(m) => write!(f, "input generation: {m}"),
            BenchError::Child(m) => write!(f, "child process: {m}"),
            BenchError::Protocol { what, source } => write!(f, "{what}: {source}"),
            BenchError::Index(m) => write!(f, "index: {m}"),
            BenchError::Json(m) => write!(f, "json: {m}"),
            BenchError::Check(m) => write!(f, "check failed: {m}"),
            BenchError::Worse(k) => write!(f, "{k} metric(s) worse than their bound"),
        }
    }
}

impl std::error::Error for BenchError {}
