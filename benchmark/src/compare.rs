//! `pll-benchmark --compare A.json B.json`: the regression gate.
//!
//! For every workload × metric both records hold, the relative change of
//! B against A is set against the metric's bound from `BENCHMARK.json`:
//! `ok`, `worse` (beyond the bound), or `unresolved` (the spread of
//! either side's value is wider than the bound, so the difference cannot
//! be told from noise — unless every trial of B beats every trial of A).
//! A side's value is the median of its n trials, so its spread is taken
//! as the trials' interquartile range over √n, as a share of the median:
//! what one run can know of it. What the host adds between runs comes on
//! top, which is why a claimed gain needs ten alternating pairs of runs
//! and not one pair of records. Any `worse` makes the exit code nonzero; `unresolved` rows are
//! named again after the table, because they are not `ok`: the pair says
//! nothing about them, and more runs must. A stage's metrics that are not
//! end-to-end are listed too, with B's plain change against A and no
//! verdict.

use crate::json::Json;
use crate::record::END_TO_END;
use crate::{BenchError, Result};
use std::path::Path;

/// Verdict on one workload × metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Ok,
    /// Worse than the bound allows.
    Worse,
    /// Spread wider than the bound.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side's view of a metric.
#[derive(Clone, Copy, Debug)]
pub struct Side {
    /// Median over trials.
    pub value: f64,
    /// Best-to-worst range over trials.
    pub min: f64,
    /// See `min`.
    pub max: f64,
    /// Spread of `value`: the trials' interquartile range over √n, as a
    /// share of the median.
    pub spread: f64,
}

fn side(metric: &Json) -> Result<Side> {
    let num = |key: &str| {
        metric
            .field(key)?
            .as_f64()
            .ok_or_else(|| BenchError::Json(format!("{key} is not a number")))
    };
    let value = num("value")?;
    let spread = if value == 0.0 {
        0.0
    } else {
        (num("q3")? - num("q1")?) / value.abs() / num("n")?.max(1.0).sqrt()
    };
    Ok(Side {
        value,
        min: num("min")?,
        max: num("max")?,
        spread,
    })
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
pub fn worsening(a: f64, b: f64, lower_is_better: bool) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    let change = (b - a) / a.abs();
    if lower_is_better {
        change
    } else {
        -change
    }
}

/// The verdict for one metric.
pub fn judge(a: Side, b: Side, bound: f64, lower_is_better: bool) -> Verdict {
    let delta = worsening(a.value, b.value, lower_is_better);
    let b_always_better = if lower_is_better {
        b.max < a.min
    } else {
        b.min > a.max
    };
    if a.spread.max(b.spread) > bound && !b_always_better {
        Verdict::Unresolved
    } else if delta > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// `name → (bound, lower_is_better)` from `BENCHMARK.json`.
fn bounds(bench: &Json) -> Result<Vec<(String, f64, bool)>> {
    bench
        .field("end_to_end")?
        .as_array()
        .ok_or_else(|| BenchError::Json("end_to_end is not an array".into()))?
        .iter()
        .map(|m| {
            let text = |key: &str| {
                m.field(key)?
                    .as_str()
                    .map(str::to_string)
                    .ok_or_else(|| BenchError::Json(format!("{key} is not a string")))
            };
            let bound = m
                .field("bound")?
                .as_f64()
                .ok_or_else(|| BenchError::Json("bound is not a number".into()))?;
            Ok((text("name")?, bound, text("better")? == "lower"))
        })
        .collect()
}

/// Compares record `b` against record `a`; returns the number of `worse`
/// verdicts after printing one row per workload × metric.
pub fn compare(a: &Path, b: &Path, bench_json: &Path) -> Result<usize> {
    let bounds = bounds(&Json::read_file(bench_json)?)?;
    let (ra, rb) = (Json::read_file(a)?, Json::read_file(b)?);
    // Every run walks every stage for windows its `--seconds` and
    // `--quick` fix; only like is compared with like.
    for key in ["seconds", "quick"] {
        if ra.field(key)? != rb.field(key)? {
            return Err(BenchError::Json(format!(
                "the two records were run with different `{key}`"
            )));
        }
    }
    let stages = |r: &Json| -> Result<Vec<(String, Json)>> {
        Ok(r.field("stages")?
            .as_object()
            .ok_or_else(|| BenchError::Json("stages is not an object".into()))?
            .to_vec())
    };
    let (sa, sb) = (stages(&ra)?, stages(&rb)?);
    println!("A = {}\nB = {}", a.display(), b.display());
    println!(
        "{:<12} {:<24} {:>13} {:>13} {:>8} {:>7} {:>8} {:>8}  verdict",
        "workload", "metric", "A", "B", "worse%", "bound%", "spreadA%", "spreadB%"
    );
    let (mut worse, mut rows) = (0usize, 0usize);
    let mut unresolved = Vec::new();
    for (stage, a_stage) in &sa {
        let Some((_, b_stage)) = sb.iter().find(|(name, _)| name == stage) else {
            continue;
        };
        let (Some(a_metrics), Some(b_metrics)) = (
            a_stage.get("metrics").and_then(Json::as_object),
            b_stage.get("metrics"),
        ) else {
            continue;
        };
        for (name, a_metric) in a_metrics {
            let Some(b_metric) = b_metrics.get(name) else {
                continue;
            };
            let (sa, sb) = (side(a_metric)?, side(b_metric)?);
            // A bound holds where the metric is end-to-end: on the stages
            // that own it. Elsewhere the number is shown, not judged.
            let owned = END_TO_END
                .iter()
                .any(|m| m.name == name && m.owners.iter().any(|w| w.name() == stage));
            let Some((_, bound, lower)) = bounds.iter().find(|(n, _, _)| owned && n == name) else {
                println!(
                    "{stage:<12} {name:<24} {:>13.4} {:>13.4} {:>+8.2} {:>7} {:>8.2} {:>8.2}  no bound",
                    sa.value,
                    sb.value,
                    (sb.value - sa.value) / sa.value.abs().max(f64::MIN_POSITIVE) * 100.0,
                    "-",
                    sa.spread * 100.0,
                    sb.spread * 100.0,
                );
                continue;
            };
            let verdict = judge(sa, sb, *bound, *lower);
            worse += usize::from(verdict == Verdict::Worse);
            if verdict == Verdict::Unresolved {
                unresolved.push(format!("{name}@{stage}"));
            }
            rows += 1;
            println!(
                "{stage:<12} {name:<24} {:>13.4} {:>13.4} {:>+8.2} {:>7.1} {:>8.2} {:>8.2}  {}",
                sa.value,
                sb.value,
                worsening(sa.value, sb.value, *lower) * 100.0,
                bound * 100.0,
                sa.spread * 100.0,
                sb.spread * 100.0,
                verdict.name()
            );
        }
    }
    if rows == 0 {
        return Err(BenchError::Json(
            "the two records share no workload × metric".into(),
        ));
    }
    println!(
        "{rows} rows, {worse} worse, {} unresolved",
        unresolved.len()
    );
    if !unresolved.is_empty() {
        println!(
            "unresolved (a side's spread is wider than the bound; NOT shown unchanged): {}",
            unresolved.join(", ")
        );
    }
    Ok(worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(value: f64, min: f64, max: f64, spread: f64) -> Side {
        Side {
            value,
            min,
            max,
            spread,
        }
    }

    #[test]
    fn direction_decides_what_worse_means() {
        assert!((worsening(100.0, 110.0, true) - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, false) + 0.10).abs() < 1e-12);
        assert_eq!(worsening(0.0, 5.0, true), 0.0);
    }

    #[test]
    fn verdicts() {
        let tight = |v: f64| s(v, v * 0.99, v * 1.01, 0.01);
        assert_eq!(judge(tight(100.0), tight(104.0), 0.05, true), Verdict::Ok);
        assert_eq!(
            judge(tight(100.0), tight(106.0), 0.05, true),
            Verdict::Worse
        );
        assert_eq!(
            judge(tight(100.0), tight(94.0), 0.05, false),
            Verdict::Worse
        );
        assert_eq!(judge(tight(100.0), tight(50.0), 0.05, true), Verdict::Ok);
        // A noisy side cannot carry a verdict either way …
        let noisy = s(100.0, 80.0, 120.0, 0.2);
        assert_eq!(judge(noisy, tight(120.0), 0.05, true), Verdict::Unresolved);
        assert_eq!(judge(noisy, tight(100.0), 0.05, true), Verdict::Unresolved);
        // … unless every trial of B beats every trial of A.
        assert_eq!(judge(noisy, tight(70.0), 0.05, true), Verdict::Ok);
    }
}
