//! `--compare A B`: is run set B worse than run set A by more than the
//! bounds in `BENCHMARK.json`?
//!
//! A run set is a directory of `<workload>.jsonl` files as `--out`
//! appends them: one result line per untraced run. Each (workload,
//! end-to-end metric) pair gets a row — both medians with quartiles, the
//! ratio B/A, the bound and a verdict: `regressed` (B's median is worse
//! than A's by more than the bound), `unresolved` (a set's own quartile
//! spread is wider than the bound, so the comparison decides nothing) or
//! `ok`.

use crate::spec::{BenchSpec, MetricSpec};
use crate::stats::{median, quartiles};
use famg_check::benchjson::JsonValue;
use std::path::Path;

/// Values of `metric` over the runs recorded in `dir/<workload>.jsonl`.
fn values(dir: &Path, workload: &str, metric: &str) -> Result<Vec<f64>, String> {
    let path = dir.join(format!("{workload}.jsonl"));
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|line| {
            JsonValue::parse(line)
                .ok()
                .as_ref()
                .and_then(|run| run.get("metrics")?.get(metric)?.get("value")?.num())
                .ok_or_else(|| format!("{}: a run lacks `{metric}`", path.display()))
        })
        .collect()
}

/// Median, quartile spread as a share of the median, and a printable form.
fn summary(v: &[f64]) -> (f64, f64, String) {
    let med = median(v);
    let (q1, q3) = if v.len() >= 2 {
        quartiles(v)
    } else {
        (med, med)
    };
    let spread = if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    };
    (
        med,
        spread,
        format!("{med:.6} [{q1:.6}, {q3:.6}] n={}", v.len()),
    )
}

/// The verdict for one row, given both sets' medians and spreads.
fn verdict(m: &MetricSpec, a: (f64, f64), b: (f64, f64)) -> &'static str {
    let bound = m.bound.unwrap_or(0.0);
    let worse = if m.lower_is_better {
        b.0 > a.0 * (1.0 + bound)
    } else {
        b.0 < a.0 * (1.0 - bound)
    };
    if worse {
        "regressed"
    } else if a.1 > bound || b.1 > bound {
        "unresolved"
    } else {
        "ok"
    }
}

/// Prints the table; `Ok(true)` when some row regressed.
pub fn compare(spec: &BenchSpec, a: &Path, b: &Path) -> Result<bool, String> {
    println!(
        "{:<16} {:<12} {:<44} {:<44} {:>9} {:>6}  verdict",
        "workload", "metric", "A: median [q1, q3]", "B: median [q1, q3]", "B/A", "bound"
    );
    let mut regressed = false;
    for w in &spec.workloads {
        for m in &spec.end_to_end {
            let (am, aspread, atext) = summary(&values(a, w, &m.name)?);
            let (bm, bspread, btext) = summary(&values(b, w, &m.name)?);
            let v = verdict(m, (am, aspread), (bm, bspread));
            regressed |= v == "regressed";
            println!(
                "{w:<16} {:<12} {atext:<44} {btext:<44} {:>9.4} {:>6.2}  {v}",
                m.name,
                bm / am,
                m.bound.unwrap_or(0.0),
            );
        }
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(lower: bool) -> MetricSpec {
        MetricSpec {
            name: "m".into(),
            unit: "s".into(),
            lower_is_better: lower,
            bound: Some(0.1),
        }
    }

    #[test]
    fn verdicts() {
        assert_eq!(verdict(&spec(true), (1.0, 0.01), (1.05, 0.01)), "ok");
        assert_eq!(verdict(&spec(true), (1.0, 0.01), (1.2, 0.01)), "regressed");
        assert_eq!(verdict(&spec(true), (1.0, 0.3), (1.05, 0.01)), "unresolved");
        assert_eq!(verdict(&spec(false), (1.0, 0.01), (0.8, 0.01)), "regressed");
        assert_eq!(verdict(&spec(false), (1.0, 0.01), (1.5, 0.01)), "ok");
    }
}
