//! Child processes and temporary directories with guards: every `pll`
//! child is killed and reaped, and every temporary directory removed, on
//! every exit path — normal return, early error, panic unwind, or the
//! run deadline.

use crate::{frozen, BenchError, Result};
use pll_server::protocol::Client;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Children not yet reaped and directories not yet removed, so the
/// deadline thread can clean up what the guards on the main thread own.
static LIVE: Mutex<Live> = Mutex::new(Live {
    children: Vec::new(),
    dirs: Vec::new(),
});

struct Live {
    children: Vec<Arc<Mutex<Child>>>,
    dirs: Vec<PathBuf>,
}

/// Locks ignoring poison: a panic elsewhere leaves a `Child` handle or
/// plain vectors behind, valid at every step, and cleaning up must go on.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// How a reaped child ended.
#[derive(Clone, Copy, Debug)]
pub struct Exit {
    /// Exit code, or `None` when a signal ended it.
    pub code: Option<i32>,
    /// Peak resident set, megabytes: the last `VmHWM` read from
    /// `/proc/<pid>/status` before the child ended (polled every
    /// [`RSS_POLL`]; the high-water mark only grows, so the last reading
    /// misses at most what the final poll interval added).
    pub rss_mb: f64,
    /// Spawn to reaped, seconds.
    pub wall_s: f64,
}

/// How often a waited-for child's `VmHWM` is sampled (and its exit
/// checked).
const RSS_POLL: Duration = Duration::from_millis(2);

fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// A spawned child that is killed and reaped when dropped.
pub struct Proc {
    child: Arc<Mutex<Child>>,
    pid: u32,
    started: Instant,
    what: String,
    rss_mb: f64,
    reaped: bool,
}

impl Proc {
    /// Spawns `cmd`; `what` names it in errors. Returns the child's
    /// stdout when `cmd` piped it.
    pub fn spawn(
        cmd: &mut Command,
        what: &str,
    ) -> Result<(Proc, Option<std::process::ChildStdout>)> {
        let started = Instant::now();
        // Register under the lock so the deadline thread never misses a
        // child spawned while it sweeps.
        let mut live = lock(&LIVE);
        let mut child = cmd
            .spawn()
            .map_err(|e| BenchError::Child(format!("cannot start {what}: {e}")))?;
        let stdout = child.stdout.take();
        let pid = child.id();
        let child = Arc::new(Mutex::new(child));
        live.children.push(Arc::clone(&child));
        drop(live);
        Ok((
            Proc {
                child,
                pid,
                started,
                what: what.to_string(),
                rss_mb: 0.0,
                reaped: false,
            },
            stdout,
        ))
    }

    /// Sends `SIGKILL` (the durability check's crash).
    pub fn kill(&mut self) {
        if !self.reaped {
            self.sample_rss();
            // Fails only if the child is already gone.
            let _ = lock(&self.child).kill();
        }
    }

    fn sample_rss(&mut self) {
        if let Some(mb) = peak_rss_mb(self.pid) {
            self.rss_mb = mb;
        }
    }

    /// Blocks until the child ends and returns how.
    pub fn wait(mut self) -> Result<Exit> {
        self.reap()
    }

    fn reap(&mut self) -> Result<Exit> {
        let status = loop {
            // The lock is released between polls so the deadline thread
            // can get in and kill.
            let polled = lock(&self.child).try_wait();
            match polled {
                Ok(Some(status)) => break Ok(status),
                Ok(None) => {
                    self.sample_rss();
                    std::thread::sleep(RSS_POLL);
                }
                Err(e) => break Err(e),
            }
        };
        lock(&LIVE)
            .children
            .retain(|c| !Arc::ptr_eq(c, &self.child));
        self.reaped = true;
        let status =
            status.map_err(|e| BenchError::Child(format!("waiting for {}: {e}", self.what)))?;
        Ok(Exit {
            code: status.code(),
            rss_mb: self.rss_mb,
            wall_s: self.started.elapsed().as_secs_f64(),
        })
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        if !self.reaped {
            self.kill();
            let _ = self.reap();
        }
    }
}

/// Runs `cmd` to completion and fails unless it exits with code 0.
pub fn run_to_success(cmd: &mut Command, what: &str) -> Result<Exit> {
    let (proc, _) = Proc::spawn(cmd, what)?;
    let exit = proc.wait()?;
    match exit.code {
        Some(0) => Ok(exit),
        Some(code) => Err(BenchError::Child(format!("{what} exited with code {code}"))),
        None => Err(BenchError::Child(format!("{what} was killed by a signal"))),
    }
}

/// The CPUs this process may run on (`Cpus_allowed_list` of
/// `/proc/self/status`, e.g. `0-3,8`), in ascending order.
pub fn allowed_cpus() -> Option<Vec<usize>> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    let mut cpus = Vec::new();
    for range in list.trim().split(',') {
        let (lo, hi) = range.split_once('-').unwrap_or((range, range));
        cpus.extend(lo.parse::<usize>().ok()?..=hi.parse().ok()?);
    }
    Some(cpus)
}

/// While alive, this process's threads (the clients) and the server
/// spawned under it run on disjoint CPUs; the former set is restored on
/// drop.
///
/// The read-only serve stages run under it. Left alone, the scheduler
/// flips a one-connection loop between two modes — client and worker
/// taking turns on one CPU (7–9 µs a round trip on the 2-vCPU box this
/// was sized on), or each on its own and waking the other's idle vCPU
/// (48 µs) — a fivefold swing in `qps` that no statistic over trials
/// removes. Sharing one CPU is no way out: there the wake-up preemption
/// settles into a 7 µs or a 9 µs mode for a whole run. Done with
/// `taskset(1)`, because the affinity system call needs `unsafe`, which
/// this repo confines to two modules.
pub struct Pinned {
    restore: String,
}

fn taskset(cpus: &str) -> bool {
    Command::new("taskset")
        .args(["-a", "-cp", cpus, &std::process::id().to_string()])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .is_ok_and(|s| s.success())
}

fn cpu_list(cpus: &[usize]) -> String {
    let words: Vec<String> = cpus.iter().map(usize::to_string).collect();
    words.join(",")
}

impl Pinned {
    /// Calls `spawn` — which starts the server — with this process (and
    /// so the child) pinned to `per_side` of the allowed CPUs, then pins
    /// this process to `per_side` others. Nothing is pinned (`None`) when
    /// fewer than two CPUs are allowed, the allowed set cannot be read,
    /// or `taskset` is missing.
    pub fn apart<T>(
        per_side: usize,
        spawn: impl FnOnce() -> Result<T>,
    ) -> Result<(T, Option<Pinned>)> {
        let all = allowed_cpus().unwrap_or_default();
        let per_side = per_side.clamp(1, (all.len() / 2).max(1));
        if all.len() < 2 || !taskset(&cpu_list(&all[per_side..2 * per_side])) {
            return Ok((spawn()?, None));
        }
        let pinned = Pinned {
            restore: cpu_list(&all),
        };
        let spawned = spawn()?;
        taskset(&cpu_list(&all[..per_side]));
        Ok((spawned, Some(pinned)))
    }
}

impl Drop for Pinned {
    fn drop(&mut self) {
        taskset(&self.restore);
    }
}

/// A `pll serve` child and the address it listens on.
pub struct Server {
    proc: Proc,
    addr: String,
    reader: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Starts `pll serve <args> --addr 127.0.0.1:0` and waits (with a
    /// timeout) for its `listening on <addr>` line. The child's stderr is
    /// this process's, so a child that fails says why.
    pub fn start(pll: &Path, args: &[String]) -> Result<Server> {
        let mut cmd = Command::new(pll);
        cmd.arg("serve")
            .args(args)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped());
        let (proc, stdout) = Proc::spawn(&mut cmd, "pll serve")?;
        let stdout = stdout.ok_or_else(|| BenchError::Child("pll serve has no stdout".into()))?;
        let (tx, rx) = mpsc::channel();
        // Keeps draining after the address line so the child never blocks
        // on a full pipe; ends at EOF, i.e. when the child has exited.
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(|l| l.ok()) {
                if let Some(addr) = line.strip_prefix("listening on ") {
                    let _ = tx.send(addr.trim().to_string());
                }
            }
        });
        let mut server = Server {
            proc,
            addr: String::new(),
            reader: Some(reader),
        };
        server.addr = rx
            .recv_timeout(Duration::from_secs(frozen::LISTEN_TIMEOUT_S))
            .map_err(|_| {
                BenchError::Child(format!(
                    "pll serve {} did not print `listening on` within {} s",
                    args.join(" "),
                    frozen::LISTEN_TIMEOUT_S
                ))
            })?;
        Ok(server)
    }

    /// `host:port` the child listens on.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Connects a client.
    pub fn connect(&self) -> Result<Client> {
        Client::connect(&self.addr)
            .map_err(|e| BenchError::protocol(format!("connect {}", self.addr), e))
    }

    /// Asks the server to shut down and reaps it.
    pub fn stop(mut self) -> Result<Exit> {
        self.proc.sample_rss();
        self.connect()?
            .shutdown_server()
            .map_err(|e| BenchError::protocol("SHUTDOWN", e))?;
        self.finish()
    }

    /// `SIGKILL`s the server and reaps it.
    pub fn crash(mut self) -> Result<Exit> {
        self.proc.kill();
        self.finish()
    }

    fn finish(&mut self) -> Result<Exit> {
        let exit = self.proc.reap();
        if let Some(reader) = self.reader.take() {
            // The pipe closed with the child, so the thread is at EOF.
            let _ = reader.join();
        }
        exit
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if !self.proc.reaped {
            self.proc.kill();
            let _ = self.finish();
        }
    }
}

/// A directory removed (with its contents) when dropped.
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Creates `parent/tmp-<pid>-<nanos>`.
    pub fn create(parent: &Path) -> Result<TempDir> {
        let unique = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.subsec_nanos());
        let path = parent.join(format!("tmp-{}-{unique}", std::process::id()));
        std::fs::create_dir_all(&path)
            .map_err(|e| BenchError::io(format!("create {}", path.display()), e))?;
        lock(&LIVE).dirs.push(path.clone());
        Ok(TempDir { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        lock(&LIVE).dirs.retain(|d| d != &self.path);
    }
}

/// Starts the run deadline: if the process is still alive after
/// [`frozen::RUN_DEADLINE_S`], every child is killed, every temporary
/// directory removed, and the process exits with code 1 without a result
/// line. A request to a hung child would otherwise block forever — the
/// wire client has no timeout of its own.
pub fn start_deadline() {
    std::thread::spawn(|| {
        std::thread::sleep(Duration::from_secs(frozen::RUN_DEADLINE_S));
        eprintln!(
            "error: run exceeded its {} s deadline; killing children",
            frozen::RUN_DEADLINE_S
        );
        let live = lock(&LIVE);
        for child in &live.children {
            let mut child = lock(child);
            let _ = child.kill();
            let _ = child.wait();
        }
        for dir in &live.dirs {
            let _ = std::fs::remove_dir_all(dir);
        }
        // The lock is held until exit so no new child can start.
        std::process::exit(1);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reaps_children_and_reports_their_exit() {
        let exit = run_to_success(Command::new("true").stdin(Stdio::null()), "true").unwrap();
        assert_eq!(exit.code, Some(0));
        assert!(exit.rss_mb > 0.0);
        assert!(run_to_success(&mut Command::new("false"), "false").is_err());
        assert!(Proc::spawn(&mut Command::new("/nonexistent/pll"), "missing").is_err());
    }

    #[test]
    fn dropping_a_running_child_kills_it() {
        let (proc, _) = Proc::spawn(Command::new("sleep").arg("60"), "sleep").unwrap();
        let child = Arc::clone(&proc.child);
        drop(proc);
        assert!(!lock(&LIVE).children.iter().any(|c| Arc::ptr_eq(c, &child)));
        assert!(matches!(lock(&child).try_wait(), Ok(Some(_))), "reaped");
        let (mut proc, _) = Proc::spawn(Command::new("sleep").arg("60"), "sleep").unwrap();
        proc.kill();
        assert_eq!(proc.wait().unwrap().code, None);
    }

    #[test]
    fn pinning_sets_server_and_clients_apart_and_drop_restores_them() {
        let before = allowed_cpus().expect("/proc/self/status lists the allowed CPUs");
        assert!(!before.is_empty());
        let (servers, pinned) = Pinned::apart(1, || Ok(allowed_cpus().unwrap())).unwrap();
        // With one CPU, or without taskset(1), nothing is pinned and
        // nothing may change.
        match &pinned {
            Some(_) => {
                assert_eq!(servers, before[1..2]);
                assert_eq!(allowed_cpus().unwrap(), before[..1]);
            }
            None => assert_eq!(servers, before),
        }
        drop(pinned);
        assert_eq!(allowed_cpus().unwrap(), before);
    }

    #[test]
    fn temp_dir_is_removed_on_drop() {
        let parent = std::env::temp_dir();
        let dir = TempDir::create(&parent).unwrap();
        let path = dir.path().to_path_buf();
        std::fs::write(path.join("f"), b"x").unwrap();
        drop(dir);
        assert!(!path.exists());
    }
}
