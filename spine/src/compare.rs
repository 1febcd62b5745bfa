//! `spine --compare A B`: are two sets of runs the same, by the
//! benchmark's own bounds?
//!
//! Each file holds the output of any number of runs (the detail line of
//! each is read, everything else skipped). For every workload and
//! end-to-end metric the two medians are compared against the bound in
//! `BENCHMARK.json`: `worse` when B's median is worse than A's by more
//! than the bound, `unresolved` when either side's own run-to-run spread
//! is wider than the bound (so the comparison cannot tell), `ok`
//! otherwise.

use crate::stats::{median, spread};
use prague_obs::json::{self, Value};
use std::collections::BTreeMap;

/// workload → metric → one value per run.
type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

struct Bound {
    lower_is_better: bool,
    bound: f64,
}

fn read_runs(path: &str) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut runs = Runs::new();
    for line in text
        .lines()
        .filter(|l| l.starts_with("{\"spine\":\"detail\""))
    {
        let v = json::parse(line).map_err(|e| format!("{path}: {e}"))?;
        if v.get("trace").and_then(Value::as_f64) != Some(0.0) {
            continue;
        }
        let workload = v
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{path}: a detail line without a workload"))?;
        let metrics = v
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or_else(|| format!("{path}: a detail line without metrics"))?;
        for (name, m) in metrics {
            if let Some(value) = m.get("value").and_then(Value::as_f64) {
                runs.entry(workload.to_owned())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(value);
            }
        }
    }
    if runs.is_empty() {
        return Err(format!("{path}: no end-to-end detail lines"));
    }
    Ok(runs)
}

fn read_bounds(path: &str) -> Result<BTreeMap<String, Bound>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let v = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let list = v
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{path}: no end_to_end list"))?;
    list.iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .ok_or_else(|| format!("{path}: a metric without {k}"))
            };
            let name = field("name")?.as_str().unwrap_or_default().to_owned();
            let bound = Bound {
                lower_is_better: field("better")?.as_str() == Some("lower"),
                bound: field("bound")?.as_f64().unwrap_or(0.0),
            };
            Ok((name, bound))
        })
        .collect()
}

/// `ok`, `worse` or `unresolved` for one metric of one workload.
fn verdict(a: &[f64], b: &[f64], bound: &Bound) -> (&'static str, f64) {
    let (ma, mb) = (median(a).unwrap_or(0.0), median(b).unwrap_or(0.0));
    let ratio = if ma != 0.0 { mb / ma } else { f64::NAN };
    let worse_by = if bound.lower_is_better {
        ratio - 1.0
    } else {
        1.0 - ratio
    };
    let too_wide = |v: &[f64]| spread(v).is_some_and(|s| s > bound.bound);
    let word = if too_wide(a) || too_wide(b) {
        "unresolved"
    } else if worse_by > bound.bound || ratio.is_nan() {
        "worse"
    } else {
        "ok"
    };
    (word, ratio)
}

pub fn main(mut args: impl Iterator<Item = String>) -> Result<bool, String> {
    let usage = "--compare needs two result files";
    let a_path = args.next().ok_or(usage)?;
    let b_path = args.next().ok_or(usage)?;
    let bounds_path = match args.next().as_deref() {
        Some("--bounds") => args.next().ok_or("--bounds needs a file")?,
        Some(other) => return Err(format!("unknown argument '{other}'")),
        None => "BENCHMARK.json".to_owned(),
    };
    let (a, b) = (read_runs(&a_path)?, read_runs(&b_path)?);
    let bounds = read_bounds(&bounds_path)?;
    println!(
        "{:<12} {:<20} {:>14} {:>14} {:>8} {:>7} {:>9} {:>9}  verdict",
        "workload", "metric", "A median", "B median", "B/A", "bound", "A spread", "B spread"
    );
    let mut all_ok = true;
    for (workload, a_metrics) in &a {
        for (name, bound) in &bounds {
            let (Some(av), Some(bv)) = (
                a_metrics.get(name),
                b.get(workload).and_then(|m| m.get(name)),
            ) else {
                println!("{workload:<12} {name:<20} missing on one side  worse");
                all_ok = false;
                continue;
            };
            let (word, ratio) = verdict(av, bv, bound);
            all_ok &= word != "worse";
            let pct = |s: Option<f64>| s.map_or("-".to_owned(), |s| format!("{:.1}%", s * 100.0));
            println!(
                "{workload:<12} {name:<20} {:>14.4} {:>14.4} {ratio:>8.4} {:>6.0}% {:>9} {:>9}  {word}",
                median(av).unwrap_or(0.0),
                median(bv).unwrap_or(0.0),
                bound.bound * 100.0,
                pct(spread(av)),
                pct(spread(bv)),
            );
        }
    }
    println!(
        "ratios are B's median over A's ({} over {})",
        b_path, a_path
    );
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let lower = Bound {
            lower_is_better: true,
            bound: 0.1,
        };
        let higher = Bound {
            lower_is_better: false,
            bound: 0.1,
        };
        let steady = [10.0, 10.1, 9.9, 10.0];
        assert_eq!(verdict(&steady, &[10.5, 10.5, 10.6, 10.4], &lower).0, "ok");
        assert_eq!(
            verdict(&steady, &[11.5, 11.5, 11.6, 11.4], &lower).0,
            "worse"
        );
        assert_eq!(verdict(&steady, &[11.5, 11.5, 11.6, 11.4], &higher).0, "ok");
        assert_eq!(verdict(&steady, &[8.5, 8.5, 8.6, 8.4], &higher).0, "worse");
        // A side whose own runs differ by more than the bound decides nothing.
        assert_eq!(
            verdict(&[5.0, 10.0, 15.0, 20.0], &steady, &lower).0,
            "unresolved"
        );
        // One run a side has no spread: the medians alone decide.
        assert_eq!(verdict(&[10.0], &[10.5], &lower).0, "ok");
    }
}
