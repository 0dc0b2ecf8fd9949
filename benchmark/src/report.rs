//! One workload run's outcome, and its JSON form.
//!
//! A workload child prints its [`Report`] as the last line of its
//! standard output; the parent parses it back, prints the metric lines
//! and writes `results.json`.

use std::collections::BTreeMap;

use bc_benchcheck::json::{parse, Json};
use bc_obs::json::{escape_into, number_into};
use bc_obs::provenance::Provenance;

use crate::spec::{self, MetricSpec};
use crate::stats::{median, tail};

/// What one workload run measured and checked.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    /// Operations attempted (plans, requests, campaign seeds).
    pub attempted: u64,
    /// Operations that failed or returned an invalid result.
    pub failed: u64,
    /// One message per failed correctness check.
    pub failures: Vec<String>,
    /// Measured metrics; `None` where a value is undefined on this
    /// machine (a parallel speed-up on one core).
    pub metrics: BTreeMap<String, Option<f64>>,
    /// Context for the metrics: input sizes, sample counts, the
    /// percentile a tail was read at.
    pub notes: BTreeMap<String, f64>,
    /// Worker threads the workload runs its parallel work on.
    pub workers: Option<usize>,
    /// Wall time of the whole workload process, set-up included.
    pub wall_s: f64,
}

impl Report {
    pub fn new(workload: &str, seed: u64, seconds: u64, traced: bool) -> Self {
        Report {
            workload: workload.to_owned(),
            seed,
            seconds,
            traced,
            ..Report::default()
        }
    }

    /// Records a metric declared in [`spec`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.set_opt(name, Some(value));
    }

    pub fn set_opt(&mut self, name: &'static str, value: Option<f64>) {
        debug_assert!(spec::find(name).is_some(), "undeclared metric {name}");
        self.metrics
            .insert(name.to_owned(), value.filter(|v| v.is_finite()));
    }

    pub fn note(&mut self, key: &str, value: f64) {
        self.notes.insert(key.to_owned(), value);
    }

    /// Notes the distribution of the run's operation wall times: median,
    /// tail (the highest percentile with at least ten samples beyond it,
    /// and which percentile that was) and sample count.
    pub fn note_wall_times(&mut self, ms: &[f64]) {
        if let Some((q, tail_ms)) = tail(ms) {
            self.note("wall_ms.p50", median(ms));
            self.note("wall_ms.tail", tail_ms);
            self.note("wall_ms.tail_quantile", q);
            self.note("samples", ms.len() as f64);
        }
    }

    /// Records a failed correctness check.
    pub fn fail(&mut self, msg: impl Into<String>) {
        self.failures.push(msg.into());
    }

    /// Fails the run unless `ok`.
    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        if !ok {
            self.fail(msg());
        }
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.failed == 0
    }

    /// The metrics this run must emit: the per-layer list when traced,
    /// the end-to-end list otherwise.
    pub fn declared(&self) -> &'static [MetricSpec] {
        if self.traced {
            spec::PER_LAYER
        } else {
            spec::END_TO_END
        }
    }

    /// Completes the metric set: a layer the workload never entered
    /// reads 0, and a missing end-to-end metric fails the run.
    pub fn finish(&mut self) {
        for m in self.declared() {
            if !self.metrics.contains_key(m.name) {
                if self.traced {
                    self.metrics.insert(m.name.to_owned(), Some(0.0));
                } else {
                    self.failures
                        .push(format!("metric {} was not measured", m.name));
                }
            }
        }
    }

    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"workload\":");
        escape_into(&mut out, &self.workload);
        out.push_str(&format!(
            ",\"seed\":{},\"seconds\":{},\"traced\":{},\"attempted\":{},\"failed\":{},\"wall_s\":",
            self.seed, self.seconds, self.traced, self.attempted, self.failed
        ));
        number_into(&mut out, self.wall_s);
        let provenance = Provenance::capture();
        out.push_str(",\"provenance\":");
        out.push_str(
            &match self.workers {
                Some(w) => provenance.with_workers(w),
                None => provenance,
            }
            .to_json(),
        );
        out.push_str(",\"failures\":[");
        for (i, f) in self.failures.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            escape_into(&mut out, f);
        }
        out.push_str("],\"metrics\":{");
        for (i, (name, value)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            escape_into(&mut out, name);
            out.push_str(":{\"value\":");
            match value {
                Some(v) => number_into(&mut out, *v),
                None => out.push_str("null"),
            }
            out.push_str(",\"unit\":");
            escape_into(&mut out, spec::find(name).map_or("", |m| m.unit));
            out.push('}');
        }
        out.push_str("},\"notes\":{");
        for (i, (k, v)) in self.notes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            escape_into(&mut out, k);
            out.push(':');
            number_into(&mut out, *v);
        }
        out.push_str("}}");
        out
    }

    pub fn from_json(text: &str) -> Result<Report, String> {
        Report::from_doc(&parse(text).map_err(|e| e.to_string())?)
    }

    pub fn from_doc(doc: &Json) -> Result<Report, String> {
        let num = |key: &str| match doc.get(key) {
            Some(Json::Num(v)) => Ok(*v),
            other => Err(format!("{key}: expected a number, got {other:?}")),
        };
        let count = |key: &str| num(key).map(|v| v as u64);
        let mut report = Report {
            workload: match doc.get("workload") {
                Some(Json::Str(s)) => s.clone(),
                other => return Err(format!("workload: expected a string, got {other:?}")),
            },
            seed: count("seed")?,
            seconds: count("seconds")?,
            traced: matches!(doc.get("traced"), Some(Json::Bool(true))),
            attempted: count("attempted")?,
            failed: count("failed")?,
            wall_s: num("wall_s")?,
            workers: match doc.get("provenance").and_then(|p| p.get("workers")) {
                Some(Json::Num(w)) => Some(*w as usize),
                _ => None,
            },
            ..Report::default()
        };
        if let Some(Json::Arr(items)) = doc.get("failures") {
            for item in items {
                if let Json::Str(s) = item {
                    report.failures.push(s.clone());
                }
            }
        }
        if let Some(Json::Obj(members)) = doc.get("metrics") {
            for (name, m) in members {
                let value = match m.get("value") {
                    Some(Json::Num(v)) => Some(*v),
                    Some(Json::Null) => None,
                    other => return Err(format!("metric {name}: bad value {other:?}")),
                };
                report.metrics.insert(name.clone(), value);
            }
        }
        if let Some(Json::Obj(members)) = doc.get("notes") {
            for (k, v) in members {
                if let Json::Num(v) = v {
                    report.notes.insert(k.clone(), *v);
                }
            }
        }
        Ok(report)
    }
}

/// CPU time used so far by every thread of this process, in seconds.
///
/// The timings the benchmark gates are CPU time, not wall time: on a
/// machine shared with other programs, wall time also counts the time
/// this process waited for a core they held.
pub fn cpu_s() -> f64 {
    use std::os::raw::{c_int, c_long};
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
    }
    const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: on Linux `struct timespec` is two `long`s (time_t is
    // `long`), which `Timespec` mirrors with `repr(C)`; `ts` is a live,
    // writable local, and clock_gettime writes only through the pointer.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is always readable on Linux");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Runs `f`, appending the CPU time it took (all threads, seconds) to
/// `samples`.
pub fn cpu_timed<T>(samples: &mut Vec<f64>, f: impl FnOnce() -> T) -> T {
    let t0 = cpu_s();
    let out = f();
    samples.push(cpu_s() - t0);
    out
}

/// Peak resident set size of this process in MB (`VmHWM`), on Linux.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trips() {
        let mut r = Report::new("plan-dense", 7, 20, false);
        r.attempted = 12;
        r.workers = Some(2);
        r.set("cpu_ms", 812.25);
        r.set_opt("energy_j", None);
        r.note("samples", 12.0);
        r.fail("a \"quoted\" failure");
        let back = Report::from_json(&r.to_json()).unwrap();
        assert_eq!(back, r);
        assert!(!back.correct());
    }

    #[test]
    fn finish_zeroes_unused_layers_but_fails_missing_end_to_end() {
        let mut traced = Report::new("campaign", 1, 20, true);
        traced.finish();
        assert!(traced.correct());
        assert_eq!(traced.metrics.len(), spec::PER_LAYER.len());
        assert_eq!(traced.metrics["serve.max_rps"], Some(0.0));

        let mut untraced = Report::new("campaign", 1, 20, false);
        untraced.finish();
        assert_eq!(untraced.failures.len(), spec::END_TO_END.len());
    }

    #[test]
    fn cpu_time_counts_work() {
        let mut samples = Vec::new();
        let sum = cpu_timed(&mut samples, || {
            (0..20_000_000u64).fold(0u64, |a, i| a.wrapping_add(std::hint::black_box(i)))
        });
        assert!(sum > 0);
        assert!(samples[0] > 0.0 && samples[0] < 60.0, "{samples:?}");
    }

    #[test]
    fn peak_rss_is_read() {
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
    }
}
