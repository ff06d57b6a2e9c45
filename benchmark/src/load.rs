//! Load generation: one loop that issues requests either back to back
//! (closed loop) or on a fixed schedule (open loop), sorts each request's
//! latency into the trial it was due in, and counts what failed.

use crate::frozen;
use crate::inputs::Pair;
use crate::stats::{percentile, Summary};
use crate::Result;
use std::time::{Duration, Instant};

/// When the next request is issued.
#[derive(Clone, Copy, Debug)]
pub enum Schedule {
    /// As soon as the previous reply arrived: callers that each wait for
    /// a reply.
    Closed,
    /// Every `interval`, whether or not the previous reply arrived in
    /// time; latency is timed from the moment the request was *due*, so
    /// a stall charges every request queued behind it.
    Every(Duration),
}

/// What one request did.
#[derive(Clone, Copy, Debug, Default)]
pub struct Outcome {
    /// Distance answers (or applied update batches) that were correct.
    pub good: u64,
    /// Answers that were wrong.
    pub wrong: u64,
    /// The request got no answer: shed with BUSY, a transport or protocol
    /// error, a timeout.
    pub errored: bool,
}

impl Outcome {
    /// A request that got no answer.
    pub const ERRORED: Outcome = Outcome {
        good: 0,
        wrong: 0,
        errored: true,
    };
}

/// One trial's raw results from one connection.
#[derive(Clone, Debug, Default)]
pub struct Trial {
    /// Latency of each request, nanoseconds; `u64::MAX` for one that got
    /// no answer, so that it misses any latency limit.
    pub lat_ns: Vec<u64>,
    /// Correct answers.
    pub good: u64,
    /// Requests issued.
    pub attempted: u64,
    /// Requests that got no answer or a wrong one.
    pub failed: u64,
}

/// Everything one connection's loop measured.
#[derive(Clone, Debug, Default)]
pub struct Driven {
    /// Per trial, warm-up first.
    pub trials: Vec<Trial>,
    /// Open loop: sends that started more than
    /// [`frozen::LATE_TOLERANCE`] of an interval after they were due.
    pub late: u64,
    /// Open loop: the longest a send started after it was due.
    pub max_lag_ns: u64,
}

/// Waits until `due`: sleeps while far away, spins the last stretch —
/// a sleep alone overshoots by more than a 100 µs arrival interval.
fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_micros(300) {
            std::thread::sleep(left - Duration::from_micros(200));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Issues requests from `start` for `trials` windows of `trial_len` each
/// (the first is the warm-up), calling `op(k)` for the `k`-th request.
/// A request that gets no answer is `op`'s to count ([`Outcome::ERRORED`])
/// after it has a working connection again; an error from `op` means it
/// has none, and ends the run.
pub fn drive(
    schedule: Schedule,
    start: Instant,
    trial_len: Duration,
    trials: usize,
    mut op: impl FnMut(u64) -> Result<Outcome>,
) -> Result<Driven> {
    let mut out = Driven {
        trials: vec![Trial::default(); trials],
        ..Driven::default()
    };
    let end = start + trial_len * trials as u32;
    wait_until(start);
    let mut k = 0u64;
    loop {
        let due = match schedule {
            Schedule::Closed => Instant::now(),
            Schedule::Every(interval) => start + interval.mul_f64(k as f64),
        };
        if due >= end {
            return Ok(out);
        }
        if let Schedule::Every(interval) = schedule {
            wait_until(due);
            let lag = Instant::now() - due;
            out.max_lag_ns = out.max_lag_ns.max(lag.as_nanos() as u64);
            if lag > interval.mul_f64(frozen::LATE_TOLERANCE) {
                out.late += 1;
            }
        }
        let outcome = op(k)?;
        let latency = if outcome.errored {
            u64::MAX
        } else {
            (Instant::now() - due).as_nanos() as u64
        };
        let slot = ((due - start).as_nanos() / trial_len.as_nanos()) as usize;
        let trial = &mut out.trials[slot.min(trials - 1)];
        trial.lat_ns.push(latency);
        trial.good += outcome.good;
        trial.attempted += 1;
        trial.failed += u64::from(outcome.errored || outcome.wrong > 0);
        k += 1;
    }
}

/// The merged, per-trial view of several connections' loops, warm-up
/// dropped.
pub struct Merged {
    trials: Vec<Trial>,
    trial_len: Duration,
    /// Requests issued in the timed trials.
    pub attempted: u64,
    /// Requests without an answer or with a wrong one in the timed trials.
    pub failed: u64,
    /// Sends in every trial, warm-up included (the base of `late`).
    pub sends: u64,
    /// Late sends (open loop).
    pub late: u64,
    /// Longest lag of a send, nanoseconds (open loop).
    pub max_lag_ns: u64,
}

impl Merged {
    /// Merges the connections' results trial by trial.
    pub fn of(driven: Vec<Driven>, trial_len: Duration) -> Merged {
        let trials = driven.first().map_or(0, |d| d.trials.len());
        let mut merged = vec![Trial::default(); trials.saturating_sub(1)];
        let (mut sends, mut late, mut max_lag_ns) = (0, 0, 0);
        for d in driven {
            late += d.late;
            max_lag_ns = max_lag_ns.max(d.max_lag_ns);
            for (i, t) in d.trials.into_iter().enumerate() {
                sends += t.attempted;
                if let Some(m) = i.checked_sub(1).and_then(|i| merged.get_mut(i)) {
                    m.lat_ns.extend(t.lat_ns);
                    m.good += t.good;
                    m.attempted += t.attempted;
                    m.failed += t.failed;
                }
            }
        }
        Merged {
            attempted: merged.iter().map(|t| t.attempted).sum(),
            failed: merged.iter().map(|t| t.failed).sum(),
            trials: merged,
            trial_len,
            sends,
            late,
            max_lag_ns,
        }
    }

    /// Correct answers per second, per trial.
    pub fn rate(&self) -> Option<Summary> {
        let len = self.trial_len.as_secs_f64();
        Summary::of(
            &self
                .trials
                .iter()
                .map(|t| t.good as f64 / len)
                .collect::<Vec<_>>(),
        )
    }

    /// The `p`-th latency percentile per trial, in units of `unit_ns`
    /// nanoseconds.
    pub fn latency(&mut self, p: f64, unit_ns: f64) -> Option<Summary> {
        let per_trial: Vec<f64> = self
            .trials
            .iter_mut()
            .filter(|t| !t.lat_ns.is_empty())
            .map(|t| percentile(&mut t.lat_ns, p) as f64 / unit_ns)
            .collect();
        // A trial with no completed request would silently drop out of
        // the median; report nothing instead.
        (per_trial.len() == self.trials.len())
            .then(|| Summary::of(&per_trial))
            .flatten()
    }

    /// The `p`-th latency percentile over all timed trials pooled, in
    /// units of `unit_ns` nanoseconds: for streams too slow to give each
    /// trial enough samples for a tail.
    pub fn pooled_latency(&self, p: f64, unit_ns: f64) -> Option<Summary> {
        let mut all: Vec<u64> = self
            .trials
            .iter()
            .flat_map(|t| t.lat_ns.iter().copied())
            .collect();
        (!all.is_empty())
            .then(|| Summary::of(&[percentile(&mut all, p) as f64 / unit_ns]))
            .flatten()
    }

    /// Fewest latency samples in any timed trial.
    pub fn min_samples(&self) -> usize {
        self.trials
            .iter()
            .map(|t| t.lat_ns.len())
            .min()
            .unwrap_or(0)
    }

    /// Share of sends that were late.
    pub fn late_frac(&self) -> f64 {
        if self.sends == 0 {
            0.0
        } else {
            self.late as f64 / self.sends as f64
        }
    }
}

/// A cyclic stream of pairs drawn from a pool, with the answer each pair
/// must get (when it can be known ahead of the run).
#[derive(Clone, Copy)]
pub struct Stream<'a> {
    /// The distinct pairs.
    pub pool: &'a [Pair],
    /// `expected[i]` answers `pool[i]`; `None` when answers change while
    /// the stream runs (`update_mix`).
    pub expected: Option<&'a [Option<u64>]>,
    /// Indices into `pool`, in request order; cycled.
    pub order: &'a [u32],
}

impl Stream<'_> {
    /// Fills `pairs` with the `count` pairs starting at stream position
    /// `at`, and `want` with their expected answers (if known).
    pub fn fill(&self, at: u64, count: usize, pairs: &mut Vec<Pair>, want: &mut Vec<Option<u64>>) {
        pairs.clear();
        want.clear();
        let len = self.order.len() as u64;
        for j in 0..count as u64 {
            let i = self.order[((at + j) % len) as usize] as usize;
            pairs.push(self.pool[i]);
            if let Some(expected) = self.expected {
                want.push(expected[i]);
            }
        }
    }
}

/// Scores `got` against `want` (no expectation: every answer counts).
pub fn score(got: &[Option<u64>], want: &[Option<u64>]) -> Outcome {
    if want.is_empty() {
        return Outcome {
            good: got.len() as u64,
            ..Outcome::default()
        };
    }
    let good = got.iter().zip(want).filter(|(g, w)| g == w).count() as u64;
    Outcome {
        good,
        wrong: got.len() as u64 - good,
        errored: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_loop_sorts_requests_into_trials_and_drops_the_warm_up() {
        let len = Duration::from_millis(20);
        let driven = drive(Schedule::Closed, Instant::now(), len, 3, |_| {
            std::thread::sleep(Duration::from_millis(1));
            Ok(Outcome {
                good: 2,
                ..Outcome::default()
            })
        })
        .unwrap();
        assert_eq!(driven.trials.len(), 3);
        assert!(driven.trials.iter().all(|t| t.attempted >= 5));
        let mut merged = Merged::of(vec![driven.clone(), driven], len);
        assert_eq!(merged.trials.len(), 2);
        assert_eq!(merged.failed, 0);
        assert!(merged.rate().unwrap().median >= 2.0 * 2.0 * 5.0 / 0.02);
        let p50 = merged.latency(0.5, 1e6).unwrap().median;
        assert!((1.0..10.0).contains(&p50), "p50 {p50} ms");
    }

    #[test]
    fn open_loop_times_from_the_due_instant_and_counts_late_sends() {
        let interval = Duration::from_millis(2);
        let len = Duration::from_millis(40);
        // The third request stalls for 10 ms: the four queued behind it
        // start late and inherit the wait.
        let driven = drive(Schedule::Every(interval), Instant::now(), len, 2, |k| {
            if k == 2 {
                std::thread::sleep(Duration::from_millis(10));
            }
            Ok(Outcome {
                good: 1,
                ..Outcome::default()
            })
        })
        .unwrap();
        assert!(driven.late >= 3, "late {}", driven.late);
        assert!(driven.max_lag_ns >= 5_000_000);
        let worst = driven
            .trials
            .iter()
            .flat_map(|t| &t.lat_ns)
            .max()
            .copied()
            .unwrap();
        assert!(worst >= 10_000_000);
        let sent: u64 = driven.trials.iter().map(|t| t.attempted).sum();
        assert_eq!(sent, 40, "an open loop sends on schedule, stall or not");
    }

    #[test]
    fn a_request_without_an_answer_fails_and_misses_every_latency_limit() {
        let len = Duration::from_millis(10);
        let driven = drive(Schedule::Closed, Instant::now(), len, 2, |k| {
            std::thread::sleep(Duration::from_micros(200));
            Ok(if k % 2 == 0 {
                Outcome::ERRORED
            } else {
                Outcome {
                    good: 1,
                    ..Outcome::default()
                }
            })
        })
        .unwrap();
        let mut merged = Merged::of(vec![driven], len);
        assert!(merged.attempted >= 4);
        assert!(merged.failed >= merged.attempted / 2 - 1 && merged.failed < merged.attempted);
        assert_eq!(merged.latency(0.95, 1.0).unwrap().median, u64::MAX as f64);
        assert!(merged.latency(0.25, 1e3).unwrap().median < 10_000.0);
    }

    #[test]
    fn wrong_answers_fail_the_request() {
        let o = score(&[Some(1), None, Some(3)], &[Some(1), None, Some(4)]);
        assert_eq!((o.good, o.wrong), (2, 1));
        let o = score(&[Some(1), None], &[]);
        assert_eq!((o.good, o.wrong), (2, 0));
    }

    #[test]
    fn stream_cycles_through_its_order() {
        let pool = [(0, 1), (2, 3), (4, 5)];
        let expected = [Some(1), None, Some(2)];
        let order = [2, 0];
        let s = Stream {
            pool: &pool,
            expected: Some(&expected),
            order: &order,
        };
        let (mut pairs, mut want) = (Vec::new(), Vec::new());
        s.fill(1, 3, &mut pairs, &mut want);
        assert_eq!(pairs, vec![(0, 1), (4, 5), (0, 1)]);
        assert_eq!(want, vec![Some(1), Some(2), Some(1)]);
    }
}
