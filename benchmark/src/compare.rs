//! `benchmark compare A B`: two sets of repeated runs, metric by metric.
//!
//! Each side is a directory holding `results.json` files (at any depth),
//! one per run. For every end-to-end metric on every workload the two
//! medians are compared against the bound `BENCHMARK.json` fixes. A pair
//! is `unresolved` when either side's spread (interquartile distance over
//! median) exceeds the bound, and `differs` when the medians are further
//! apart than the bound, which makes the command exit nonzero.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use bc_benchcheck::json::{parse, Json};

use crate::report::Report;
use crate::stats::{median, quartiles};

/// Runs a side needs before its spread means anything.
pub const MIN_RUNS: usize = 5;

/// One end-to-end metric's regression bound.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub bound: f64,
    pub higher_is_better: bool,
}

/// Values per `(workload, metric)`, one per run.
pub type Samples = BTreeMap<(String, String), Vec<f64>>;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Differs,
    Unresolved,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: Summary,
    pub b: Summary,
    /// `(b − a) / a`, signed.
    pub change: f64,
    pub bound: f64,
    /// True when the change is in the metric's worse direction.
    pub worse: bool,
    pub verdict: Verdict,
}

#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Summary {
    pub runs: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Summary {
    fn of(values: &[f64]) -> Summary {
        let median = median(values);
        let (q1, q3) = quartiles(values).unwrap_or((median, median));
        Summary {
            runs: values.len(),
            median,
            q1,
            q3,
        }
    }

    /// Interquartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        relative(self.q3 - self.q1, self.median)
    }
}

fn relative(delta: f64, base: f64) -> f64 {
    if delta == 0.0 {
        0.0
    } else if base == 0.0 {
        f64::INFINITY
    } else {
        delta / base.abs()
    }
}

/// Compares every bounded metric present on either side.
pub fn compare(bounds: &[Bound], a: &Samples, b: &Samples) -> Vec<Row> {
    let mut keys: Vec<&(String, String)> = a.keys().chain(b.keys()).collect();
    keys.sort();
    keys.dedup();
    keys.into_iter()
        .filter_map(|key| {
            let spec = bounds.iter().find(|m| m.name == key.1)?;
            let empty = Vec::new();
            let a = Summary::of(a.get(key).unwrap_or(&empty));
            let b = Summary::of(b.get(key).unwrap_or(&empty));
            let change = relative(b.median - a.median, a.median);
            let worse = if spec.higher_is_better {
                change < 0.0
            } else {
                change > 0.0
            };
            let verdict = if a.runs < MIN_RUNS
                || b.runs < MIN_RUNS
                || a.spread() > spec.bound
                || b.spread() > spec.bound
            {
                Verdict::Unresolved
            } else if change.abs() > spec.bound {
                Verdict::Differs
            } else {
                Verdict::Same
            };
            Some(Row {
                workload: key.0.clone(),
                metric: key.1.clone(),
                a,
                b,
                change,
                bound: spec.bound,
                worse,
                verdict,
            })
        })
        .collect()
}

/// Reads the end-to-end bounds from `BENCHMARK.json`.
pub fn read_bounds(path: &Path) -> Result<Vec<Bound>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let doc = parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let Some(Json::Arr(metrics)) = doc.get("end_to_end") else {
        return Err(format!("{}: no end_to_end list", path.display()));
    };
    metrics
        .iter()
        .map(|m| match (m.get("name"), m.get("bound"), m.get("better")) {
            (Some(Json::Str(name)), Some(Json::Num(bound)), Some(Json::Str(better))) => Ok(Bound {
                name: name.clone(),
                bound: *bound,
                higher_is_better: better == "higher",
            }),
            _ => Err(format!("{}: malformed end_to_end entry", path.display())),
        })
        .collect()
}

fn find_results(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("reading {}: {e}", dir.display()))?;
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            find_results(&path, out)?;
        } else if path.file_name().is_some_and(|n| n == "results.json") {
            out.push(path);
        }
    }
    Ok(())
}

/// Collects the untraced end-to-end values of every run under `dir`.
pub fn read_side(dir: &Path) -> Result<Samples, String> {
    let mut files = Vec::new();
    find_results(dir, &mut files)?;
    if files.is_empty() {
        return Err(format!("no results.json under {}", dir.display()));
    }
    files.sort();
    let mut samples = Samples::new();
    for file in files {
        let text = std::fs::read_to_string(&file)
            .map_err(|e| format!("reading {}: {e}", file.display()))?;
        let doc = parse(&text).map_err(|e| format!("{}: {e}", file.display()))?;
        let Some(Json::Arr(workloads)) = doc.get("workloads") else {
            return Err(format!("{}: no workloads list", file.display()));
        };
        for w in workloads {
            let report = Report::from_doc(w).map_err(|e| format!("{}: {e}", file.display()))?;
            if report.traced {
                continue;
            }
            for (name, value) in report.metrics {
                if let Some(v) = value {
                    samples
                        .entry((report.workload.clone(), name))
                        .or_default()
                        .push(v);
                }
            }
        }
    }
    Ok(samples)
}

/// Prints the comparison table; `Ok(true)` when no medians differ.
pub fn run(a: &Path, b: &Path, spec: &Path) -> Result<bool, String> {
    let bounds = read_bounds(spec)?;
    let rows = compare(&bounds, &read_side(a)?, &read_side(b)?);
    println!(
        "{:<12} {:<17} {:>28} {:>28} {:>8} {:>6}  verdict",
        "workload", "metric", "A median [q1, q3] (n)", "B median [q1, q3] (n)", "change", "bound"
    );
    let side = |s: &Summary| format!("{:.4} [{:.4}, {:.4}] ({})", s.median, s.q1, s.q3, s.runs);
    for row in &rows {
        let verdict = match row.verdict {
            Verdict::Same => "same",
            Verdict::Differs if row.worse => "differs (worse)",
            Verdict::Differs => "differs (better)",
            Verdict::Unresolved => "unresolved",
        };
        println!(
            "{:<12} {:<17} {:>28} {:>28} {:>+7.2}% {:>5.1}%  {verdict}",
            row.workload,
            row.metric,
            side(&row.a),
            side(&row.b),
            row.change * 100.0,
            row.bound * 100.0,
        );
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} pairs: {} same, {} differ, {} unresolved",
        rows.len(),
        count(Verdict::Same),
        count(Verdict::Differs),
        count(Verdict::Unresolved)
    );
    Ok(count(Verdict::Differs) == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn side(values: &[f64]) -> Samples {
        let mut s = Samples::new();
        s.insert(("plan-dense".into(), "p50_ms".into()), values.to_vec());
        s
    }

    fn bounds() -> Vec<Bound> {
        vec![Bound {
            name: "p50_ms".into(),
            bound: 0.1,
            higher_is_better: false,
        }]
    }

    #[test]
    fn verdicts_follow_spread_and_bound() {
        let steady = side(&[100.0, 101.0, 99.0, 100.0, 100.5]);
        let rows = compare(&bounds(), &steady, &steady);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].verdict, Verdict::Same);

        let slower = side(&[120.0, 121.0, 119.0, 120.0, 120.5]);
        let row = &compare(&bounds(), &steady, &slower)[0];
        assert_eq!(row.verdict, Verdict::Differs);
        assert!(row.worse);
        assert!((row.change - 0.2).abs() < 1e-9);

        let noisy = side(&[60.0, 100.0, 140.0, 80.0, 120.0]);
        assert_eq!(
            compare(&bounds(), &steady, &noisy)[0].verdict,
            Verdict::Unresolved
        );

        let few = side(&[100.0, 100.0]);
        assert_eq!(
            compare(&bounds(), &steady, &few)[0].verdict,
            Verdict::Unresolved
        );
    }

    #[test]
    fn unbounded_metrics_are_skipped() {
        let mut s = side(&[1.0; 5]);
        s.insert(("plan-dense".into(), "serve.max_rps".into()), vec![80.0; 5]);
        assert_eq!(compare(&bounds(), &s, &s).len(), 1);
    }

    #[test]
    fn declared_bounds_parse() {
        let path = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"));
        let bounds = read_bounds(path).unwrap();
        assert_eq!(bounds.len(), crate::spec::END_TO_END.len());
    }
}
