//! `benchmark`: end-to-end and per-layer measurements of the planner,
//! the planning service and the campaign engine.
//!
//! ```text
//! benchmark run [--workload W] [--seed S] [--seconds N] [--trace 0|1] [--out DIR]
//! benchmark compare A B
//! ```
//!
//! `run` starts one child process per workload (so peak memory is the
//! workload's own), prints a `workload metric value unit` line per
//! metric, and ends with one JSON line: `correct`, `attempted`,
//! `failed` and `metrics`. With `--trace 0` the metrics are the
//! end-to-end ones; a traced run measures untraced and then traced
//! halves and reports the per-layer ones. `--seed` only feeds the input
//! generators. `--seconds` is the run length: a harness running
//! `BENCHMARK.json`'s `command` appends `--seconds <run_seconds>` to
//! every invocation, and the default equals `run_seconds`. Each workload
//! turns it into a fixed number of operations. With `--out DIR` it
//! writes `DIR/results.json` and, for a traced run,
//! `DIR/<workload>/span_tree.json` and `profile.folded`. The exit code
//! is nonzero when any correctness check fails.
//!
//! See `README.md` beside this package for the workloads, the metric
//! definitions and which layer should move which metric.

#[cfg(not(target_os = "linux"))]
compile_error!("the benchmark reads CPU time and peak memory the way Linux provides them");

mod campaign;
mod compare;
mod plan;
mod report;
mod rng;
mod serve;
mod spec;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use bc_obs::json::{escape_into, number_into};

use report::Report;

const USAGE: &str = "usage: benchmark run [--workload W] [--seed S] [--seconds N] \
                     [--trace 0|1] [--out DIR]\n       \
                     benchmark compare A B";
const DEFAULT_SEED: u64 = 1;
/// `run_seconds` of `BENCHMARK.json` (a unit test keeps them equal).
const DEFAULT_SECONDS: u64 = 20;
/// Set-ups per run; `setup_s` is the median of their CPU times.
const SETUP_REPS: usize = 5;

/// Options of `run` (and of the per-workload child it starts).
#[derive(Debug, Clone)]
pub struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    traced: bool,
    out: Option<PathBuf>,
}

impl Args {
    /// Operations a timed loop runs: `per_s` for each second of the run
    /// length, and at least `min`. The count depends on the arguments
    /// alone, never on how fast the code runs, so two builds of the
    /// program take the same number of samples.
    pub fn ops(&self, per_s: f64, min: usize) -> usize {
        ((self.seconds as f64 * per_s).round() as usize).max(min)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => parse_run(&args[1..]).and_then(|a| run(&a)),
        Some("child") => parse_run(&args[1..]).and_then(|a| child(&a)),
        Some("compare") => parse_compare(&args[1..]),
        _ => Err("expected a subcommand".into()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("error: {msg}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn value<'a>(args: &'a [String], i: &mut usize) -> Result<&'a str, String> {
    *i += 1;
    args.get(*i)
        .map(String::as_str)
        .ok_or_else(|| format!("{} needs a value", args[*i - 1]))
}

fn number(args: &[String], i: &mut usize) -> Result<u64, String> {
    let flag = args[*i].clone();
    value(args, i)?.parse().map_err(|e| format!("{flag}: {e}"))
}

fn parse_run(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        traced: false,
        out: None,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => {
                let w = value(args, &mut i)?;
                if !spec::WORKLOADS.contains(&w) {
                    return Err(format!(
                        "unknown workload {w} (one of {})",
                        spec::WORKLOADS.join(", ")
                    ));
                }
                out.workload = Some(w.to_owned());
            }
            "--seed" => out.seed = number(args, &mut i)?,
            "--seconds" => out.seconds = number(args, &mut i)?,
            "--trace" => {
                out.traced = match value(args, &mut i)? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--out" => out.out = Some(PathBuf::from(value(args, &mut i)?)),
            flag => return Err(format!("unknown flag {flag}")),
        }
        i += 1;
    }
    if out.seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(out)
}

/// `compare A B`, run from the repository root: bounds come from its
/// `BENCHMARK.json`.
fn parse_compare(args: &[String]) -> Result<bool, String> {
    match args {
        [a, b] if !a.starts_with("--") && !b.starts_with("--") => {
            compare::run(Path::new(a), Path::new(b), Path::new("BENCHMARK.json"))
        }
        _ => Err("compare takes two result directories".into()),
    }
}

/// Runs one workload in this process and prints its report as the last
/// line of standard output.
fn child(args: &Args) -> Result<bool, String> {
    let started = Instant::now();
    let workload = args.workload.as_deref().ok_or("child needs --workload")?;
    let mut r = Report::new(workload, args.seed, args.seconds, args.traced);
    match workload {
        "plan-dense" => plan::run(args, plan::DENSE, &mut r),
        "plan-sparse" => plan::run(args, plan::SPARSE, &mut r),
        "serve-open" => serve::run(args, &mut r),
        "campaign" => campaign::run(args, &mut r),
        other => return Err(format!("unknown workload {other}")),
    }
    r.wall_s = started.elapsed().as_secs_f64();
    r.finish();
    println!("{}", r.to_json());
    Ok(true)
}

/// Writes a traced run's span tree under `--out`, when given.
pub fn save_profile(args: &Args, snapshot: &bc_obs::tree::SpanTreeSnapshot, r: &mut Report) {
    if let Some(out) = &args.out {
        if let Err(e) = trace::write_profile(snapshot, &out.join(&r.workload)) {
            r.fail(e);
        }
    }
}

/// Starts the child for one workload and reads back its report. A child
/// that cannot start, dies or prints no report yields a failed report.
fn spawn(args: &Args, workload: &str) -> Report {
    child_report(args, workload).unwrap_or_else(|e| {
        let mut r = Report::new(workload, args.seed, args.seconds, args.traced);
        r.fail(e);
        // The workload itself is the one operation that failed.
        r.attempted = 1;
        r.failed = 1;
        r
    })
}

fn child_report(args: &Args, workload: &str) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the benchmark: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["child", "--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        // Peak RSS must not depend on allocator luck. Left to itself,
        // glibc opens arenas per thread as scheduling happens to fall,
        // and after the first large free it raises its mmap threshold,
        // so whether a freed 13 MB distance matrix goes back to the
        // system varies between runs of one input. One arena and
        // glibc's default threshold, pinned, make the peak repeat.
        .env("MALLOC_ARENA_MAX", "1")
        .env("MALLOC_MMAP_THRESHOLD_", "131072")
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if args.traced {
        cmd.args(["--trace", "1"]);
    }
    if let Some(out) = &args.out {
        cmd.arg("--out").arg(out);
    }
    let output = cmd
        .output()
        .map_err(|e| format!("cannot start the {workload} child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    match stdout.lines().last().map(Report::from_json) {
        Some(Ok(report)) if output.status.success() => Ok(report),
        Some(Err(e)) => Err(format!("unreadable report from the {workload} child: {e}")),
        _ => Err(format!(
            "the {workload} child exited with {}",
            output.status
        )),
    }
}

fn run(args: &Args) -> Result<bool, String> {
    let workloads: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => spec::WORKLOADS.to_vec(),
    };
    let reports: Vec<Report> = workloads.iter().map(|w| spawn(args, w)).collect();
    for r in &reports {
        for m in r.declared() {
            let shown = match r.metrics.get(m.name) {
                Some(Some(v)) => format!("{v}"),
                _ => "null".into(),
            };
            println!("{} {} {shown} {}", r.workload, m.name, m.unit);
        }
        for f in &r.failures {
            println!("{} FAILED {f}", r.workload);
        }
    }
    if let Some(out) = &args.out {
        write_results(out, args, &reports)?;
    }
    println!("{}", summary(&reports));
    Ok(reports.iter().all(Report::correct))
}

fn write_results(dir: &Path, args: &Args, reports: &[Report]) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let mut out = format!(
        "{{\n\"seed\": {},\n\"seconds\": {},\n\"traced\": {},\n\"workloads\": [",
        args.seed, args.seconds, args.traced
    );
    for (i, r) in reports.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&r.to_json());
    }
    out.push_str("\n]\n}\n");
    let path = dir.join("results.json");
    std::fs::write(&path, out).map_err(|e| format!("writing {}: {e}", path.display()))
}

/// The closing JSON line. With several workloads each metric name is
/// prefixed by its workload.
fn summary(reports: &[Report]) -> String {
    let attempted: u64 = reports.iter().map(|r| r.attempted).sum();
    let failed: u64 = reports.iter().map(|r| r.failed).sum();
    let correct = reports.iter().all(Report::correct);
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    let mut first = true;
    for r in reports {
        for m in r.declared() {
            let name = if reports.len() == 1 {
                m.name.to_owned()
            } else {
                format!("{}.{}", r.workload, m.name)
            };
            if !first {
                out.push_str(", ");
            }
            first = false;
            escape_into(&mut out, &name);
            out.push_str(": {\"value\": ");
            match r.metrics.get(m.name) {
                Some(Some(v)) => number_into(&mut out, *v),
                _ => out.push_str("null"),
            }
            out.push_str(", \"unit\": ");
            escape_into(&mut out, m.unit);
            out.push('}');
        }
    }
    out.push_str("}}");
    out
}
