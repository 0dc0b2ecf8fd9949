//! Thin driver for the `bc-lint` workspace scan, invoked as
//! `cargo xtask lint`.
//!
//! All analysis lives in `bc-lint` (the lexer, the rule catalog, the
//! three audit passes, the report renderers and the self-test corpus);
//! this binary only resolves the workspace root, runs
//! [`bc_lint::run_workspace`], and decides where the output goes:
//!
//! * `cargo xtask lint` — compiler-style text to stdout/stderr, exit
//!   code 1 when anything fired;
//! * `cargo xtask lint --json [--out PATH]` — renders the byte-stable
//!   JSON report, cross-validates it with `bc_obs::json` (an
//!   independent parser: the renderer lives in dependency-free
//!   `bc-lint`, so a disagreement means one of them is wrong), writes
//!   it to `PATH` (default `lint_report.json` at the workspace root),
//!   and echoes it to stdout for CI capture.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint(&args[1..]),
        _ => {
            eprintln!("usage: cargo xtask lint [--json] [--out PATH]");
            ExitCode::FAILURE
        }
    }
}

fn lint(flags: &[String]) -> ExitCode {
    let mut json = false;
    let mut out_path: Option<PathBuf> = None;
    let mut it = flags.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--json" => json = true,
            "--out" => match it.next() {
                Some(p) => out_path = Some(PathBuf::from(p)),
                None => {
                    eprintln!("xtask: --out needs a path");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("xtask: unknown flag `{other}`");
                return ExitCode::FAILURE;
            }
        }
    }

    let root = workspace_root();
    let report = match bc_lint::run_workspace(&root) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("xtask: {e}");
            return ExitCode::FAILURE;
        }
    };

    if json {
        let rendered = report.render_json();
        // Independent re-parse: bc-lint hand-renders its JSON without a
        // dependency, so run the document through bc-obs's validator
        // before anything downstream consumes it.
        if let Err(e) = bc_obs::json::validate_line(&rendered) {
            eprintln!("xtask: rendered report failed JSON validation: {e}");
            return ExitCode::FAILURE;
        }
        let path = out_path.unwrap_or_else(|| root.join("lint_report.json"));
        if let Err(e) = std::fs::write(&path, &rendered) {
            eprintln!("xtask: write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        print!("{rendered}");
        eprintln!("xtask: wrote {}", path.display());
    } else {
        print!("{}", report.render_text());
    }

    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Workspace root: the parent of this crate's manifest dir.
fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .map_or(manifest.clone(), Path::to_path_buf)
}
