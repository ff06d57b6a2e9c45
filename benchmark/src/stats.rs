//! Order statistics: percentiles of latency samples inside a trial, and
//! the median / quartile summary over trials that every metric reports.

use crate::json::{obj, Json};

/// Nearest-rank percentile (`p` in `[0, 1]`) of unsorted samples; 0 when
/// there are none. Reorders `samples`.
pub fn percentile(samples: &mut [u64], p: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let rank = ((samples.len() as f64 * p).ceil() as usize).clamp(1, samples.len());
    *samples.select_nth_unstable(rank - 1).1
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method the driver uses for spreads). Needs ≥ 2 values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let at = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    Some((at(1), at(2), at(3)))
}

/// What a metric reports: the median over trials plus the spread around
/// it and the number of trials.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Median over trials — the reported value.
    pub median: f64,
    /// Smallest trial.
    pub min: f64,
    /// Largest trial.
    pub max: f64,
    /// First quartile over trials (`min` with fewer than two trials).
    pub q1: f64,
    /// Third quartile over trials (`max` with fewer than two trials).
    pub q3: f64,
    /// Number of trials.
    pub n: usize,
}

impl Summary {
    /// Summarises per-trial values; `None` when there are none or one is
    /// not finite.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() || values.iter().any(|v| !v.is_finite()) {
            return None;
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let median = if n % 2 == 1 {
            sorted[n / 2]
        } else {
            (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
        };
        let (q1, q3) = match quartiles(&sorted) {
            Some((q1, _, q3)) => (q1, q3),
            None => (sorted[0], sorted[n - 1]),
        };
        Some(Summary {
            median,
            min: sorted[0],
            max: sorted[n - 1],
            q1,
            q3,
            n,
        })
    }

    /// Interquartile range as a share of the median (the driver's
    /// definition of spread); 0 for a zero median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }

    /// The record form: `{value, unit, min, max, q1, q3, n}`.
    pub fn to_json(&self, unit: &str) -> Json {
        obj([
            ("value", Json::Num(self.median)),
            ("unit", unit.into()),
            ("min", Json::Num(self.min)),
            ("max", Json::Num(self.max)),
            ("q1", Json::Num(self.q1)),
            ("q3", Json::Num(self.q3)),
            ("n", self.n.into()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut v, 0.5), 50);
        assert_eq!(percentile(&mut v, 0.99), 99);
        assert_eq!(percentile(&mut v, 1.0), 100);
        assert_eq!(percentile(&mut [], 0.5), 0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
    }

    #[test]
    fn summary_reports_median_and_spread() {
        let s = Summary::of(&[3.0, 1.0, 2.0, 5.0, 4.0]).unwrap();
        assert_eq!((s.median, s.min, s.max, s.n), (3.0, 1.0, 5.0, 5));
        assert_eq!((s.q1, s.q3), (1.5, 4.5));
        assert_eq!(s.spread(), 1.0);
        assert!(Summary::of(&[]).is_none());
        assert!(Summary::of(&[1.0, f64::NAN]).is_none());
    }
}
