//! Workspace walking and the whole-tree entry point.
//!
//! Scope: the `src/` trees of the root facade and every `crates/*`
//! member — *including* `crates/xtask` and `crates/lint` themselves,
//! which the old substring scanner had to exempt because their sources
//! quote the banned patterns. Token-aware sanitization blanks those
//! quotes, so the lint stack now lints itself. `vendor/` stubs,
//! `tests/` and `examples/` stay exempt (test and demo code may panic
//! freely; clippy.toml grants unit tests the same exemption).

use crate::manifest;
use crate::report::Report;
use crate::rules::scan_file;
use std::fs;
use std::path::{Path, PathBuf};

/// The crate directories whose `src/` trees are linted: the root facade
/// plus every `crates/*` member.
pub fn crate_dirs(root: &Path) -> Vec<PathBuf> {
    let mut dirs = vec![root.to_path_buf()];
    let Ok(entries) = fs::read_dir(root.join("crates")) else {
        return dirs;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            dirs.push(path);
        }
    }
    dirs.sort();
    dirs
}

/// All `.rs` files under the linted crates' `src/` trees, sorted.
pub fn library_sources(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    for dir in crate_dirs(root) {
        collect_rs(&dir.join("src"), &mut files);
    }
    files.sort();
    files
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Runs every pass against the workspace rooted at `root`.
///
/// # Errors
///
/// The path of the first unreadable source file.
pub fn run_workspace(root: &Path) -> Result<Report, String> {
    let files = library_sources(root);
    let mut diagnostics = Vec::new();
    for file in &files {
        let text = fs::read_to_string(file)
            .map_err(|e| format!("unreadable source file {}: {e}", file.display()))?;
        let label = file
            .strip_prefix(root)
            .unwrap_or(file)
            .display()
            .to_string();
        diagnostics.extend(scan_file(&label, &text));
    }
    diagnostics.extend(manifest::check_lint_table(root));
    diagnostics.extend(manifest::check_crate_lint_optin(root, &crate_dirs(root)));
    diagnostics.extend(manifest::check_registration_completeness(
        root,
        &crate_dirs(root),
    ));
    diagnostics.extend(manifest::check_registered_crates_exist(root));
    Ok(Report::new(files.len(), diagnostics))
}
