//! Manifest-level checks: the workspace clippy lint table and per-crate
//! opt-in. These are file-level findings (line 0), not token scans.

use crate::rules::{Diagnostic, RuleId};
use std::fs;
use std::path::Path;

/// The four clippy lints the workspace must keep denying.
pub const REQUIRED_DENIES: [&str; 4] = [
    "unwrap_used",
    "expect_used",
    "cast_possible_truncation",
    "cast_sign_loss",
];

/// Every `crates/*` member registered with the lint engine. The
/// determinism passes scope rules by crate name, so a crate added to
/// the workspace but missing here would silently escape them;
/// [`check_registration_completeness`] turns that silence into a
/// `lint-table-drift` finding instead, and [`check_registered_crates_exist`]
/// does the same for a name left behind by a deleted crate.
pub const REGISTERED_CRATES: [&str; 16] = [
    "benchcheck",
    "campaign",
    "core",
    "des",
    "geom",
    "lint",
    "obs",
    "serve",
    "setcover",
    "sim",
    "testbed",
    "tsp",
    "units",
    "wpt",
    "wsn",
    "xtask",
];

/// Checks every scanned `crates/*` directory is registered in
/// [`REGISTERED_CRATES`]. `crate_dirs` is the scan set from
/// [`crate::workspace::crate_dirs`]; the root facade entry (not under
/// `crates/`) is skipped.
pub fn check_registration_completeness(
    root: &Path,
    crate_dirs: &[std::path::PathBuf],
) -> Vec<Diagnostic> {
    let crates_root = root.join("crates");
    let mut out = Vec::new();
    for dir in crate_dirs {
        if !dir.starts_with(&crates_root) {
            continue;
        }
        let name = dir
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        if !REGISTERED_CRATES.contains(&name.as_str()) {
            out.push(drift(
                format!("crates/{name}/Cargo.toml"),
                format!(
                    "workspace crate `{name}` is not registered in the bc-lint \
                     manifest (manifest::REGISTERED_CRATES)"
                ),
            ));
        }
    }
    out
}

/// Checks every name in [`REGISTERED_CRATES`] still has a `crates/<name>`
/// directory under `root`, so the manifest cannot outlive a deleted crate.
pub fn check_registered_crates_exist(root: &Path) -> Vec<Diagnostic> {
    let crates_root = root.join("crates");
    REGISTERED_CRATES
        .iter()
        .filter(|name| !crates_root.join(name).is_dir())
        .map(|name| {
            drift(
                format!("crates/{name}"),
                format!(
                    "`{name}` is registered in the bc-lint manifest \
                     (manifest::REGISTERED_CRATES) but has no crates/{name} directory"
                ),
            )
        })
        .collect()
}

/// Checks the root manifest still denies the required clippy lints.
pub fn check_lint_table(root: &Path) -> Vec<Diagnostic> {
    let manifest = root.join("Cargo.toml");
    let Ok(text) = fs::read_to_string(&manifest) else {
        return vec![drift(
            manifest.display().to_string(),
            "root Cargo.toml unreadable".to_string(),
        )];
    };
    lint_table_violations("Cargo.toml", &text)
}

/// Pure core of [`check_lint_table`] for the corpus tests.
pub fn lint_table_violations(label: &str, manifest: &str) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut in_table = false;
    let mut denied: Vec<&str> = Vec::new();
    for line in manifest.lines() {
        let t = line.trim();
        if t.starts_with('[') {
            in_table = t == "[workspace.lints.clippy]";
            continue;
        }
        if in_table {
            if let Some((key, value)) = t.split_once('=') {
                if value.contains("deny") {
                    denied.push(key.trim());
                }
            }
        }
    }
    for lint in REQUIRED_DENIES {
        if !denied.contains(&lint) {
            out.push(drift(
                label.to_string(),
                format!("[workspace.lints.clippy] must deny `{lint}`"),
            ));
        }
    }
    out
}

/// Checks every scanned crate manifest opts into the workspace lints.
pub fn check_crate_lint_optin(root: &Path, crate_dirs: &[std::path::PathBuf]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for dir in crate_dirs {
        let manifest = dir.join("Cargo.toml");
        let label = manifest
            .strip_prefix(root)
            .unwrap_or(&manifest)
            .display()
            .to_string();
        let ok = fs::read_to_string(&manifest).is_ok_and(|text| manifest_opts_into_lints(&text));
        if !ok {
            out.push(drift(
                label,
                "crate must set `[lints] workspace = true`".to_string(),
            ));
        }
    }
    out
}

/// True when a crate manifest contains `[lints] workspace = true`.
pub fn manifest_opts_into_lints(manifest: &str) -> bool {
    let mut in_lints = false;
    for line in manifest.lines() {
        let t = line.trim();
        if t.starts_with('[') {
            in_lints = t == "[lints]";
            continue;
        }
        if in_lints {
            if let Some((key, value)) = t.split_once('=') {
                if key.trim() == "workspace" && value.trim() == "true" {
                    return true;
                }
            }
        }
    }
    false
}

fn drift(file: String, excerpt: String) -> Diagnostic {
    Diagnostic {
        file,
        line: 0,
        col: 0,
        rule: RuleId::LintTableDrift,
        excerpt,
    }
}
