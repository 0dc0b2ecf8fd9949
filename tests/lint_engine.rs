//! Tier-1 wiring for the `bc-lint` engine: the self-test corpus, the
//! whole-workspace cleanliness gate, and the JSON report contract
//! (byte-stable across runs, valid under the independent `bc_obs::json`
//! parser).
//!
//! `cargo test -q` at the workspace root only builds the root package's
//! tests, which is why these live here rather than inside `bc-lint`.

use std::path::Path;

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn corpus_every_rule_positive_negative_escape() {
    if let Err(e) = bc_lint::corpus::verify_all() {
        panic!("lint corpus failures:\n{e}");
    }
}

#[test]
fn workspace_is_clean_under_all_passes() {
    let report = bc_lint::run_workspace(workspace_root()).unwrap();
    assert!(
        report.is_clean(),
        "workspace lint violations:\n{}",
        report.render_text()
    );
    assert!(
        report.files_scanned > 100,
        "scan scope collapsed: {} files",
        report.files_scanned
    );
}

#[test]
fn every_workspace_crate_is_registered_with_the_lint_engine() {
    // The determinism passes scope rules by crate name, so a crate that
    // exists on disk but is missing from the lint manifest silently
    // escapes them. The engine itself reports that as lint-table-drift;
    // this test makes the drift a tier-1 failure and checks the check.
    let dirs = bc_lint::workspace::crate_dirs(workspace_root());
    let missing = bc_lint::manifest::check_registration_completeness(workspace_root(), &dirs);
    assert!(
        missing.is_empty(),
        "crates missing from bc-lint manifest::REGISTERED_CRATES:\n{}",
        missing
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    // And the check actually fires: an unregistered directory under
    // crates/ must produce a lint-table-drift diagnostic.
    let phantom = workspace_root().join("crates/not-a-registered-crate");
    let diags = bc_lint::manifest::check_registration_completeness(workspace_root(), &[phantom]);
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].rule, bc_lint::RuleId::LintTableDrift);
    assert!(diags[0].excerpt.contains("not-a-registered-crate"));
}

#[test]
fn every_registered_crate_exists_on_disk() {
    // The reverse drift: a name left in the lint manifest after its crate
    // was deleted is a lint-table-drift finding too.
    let stale = bc_lint::manifest::check_registered_crates_exist(workspace_root());
    assert!(
        stale.is_empty(),
        "bc-lint manifest::REGISTERED_CRATES names missing crates:\n{}",
        stale
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    // And the check actually fires: under a root with no crates/
    // directory, every registered name is reported.
    let empty_root = workspace_root().join("crates/not-a-workspace-root");
    let diags = bc_lint::manifest::check_registered_crates_exist(&empty_root);
    assert_eq!(diags.len(), bc_lint::manifest::REGISTERED_CRATES.len());
    for (diag, name) in diags.iter().zip(bc_lint::manifest::REGISTERED_CRATES) {
        assert_eq!(diag.rule, bc_lint::RuleId::LintTableDrift);
        assert_eq!(diag.file, format!("crates/{name}"));
        assert!(diag.excerpt.contains(name), "{}", diag.excerpt);
    }
}

#[test]
fn json_report_is_byte_stable_and_validates() {
    let a = bc_lint::run_workspace(workspace_root())
        .unwrap()
        .render_json();
    let b = bc_lint::run_workspace(workspace_root())
        .unwrap()
        .render_json();
    assert_eq!(
        a, b,
        "two runs over the same tree must render identical bytes"
    );
    bc_obs::json::validate_line(&a).unwrap_or_else(|e| panic!("report JSON invalid: {e}"));
    assert!(a.contains("\"schema\": \"bc-lint-report/v1\""));
}

#[test]
fn json_report_is_stable_under_findings_too() {
    // Byte-stability must hold for dirty reports as well as clean ones:
    // seed the same violations twice and compare renderings.
    let seeded = "fn f(n: usize) -> f64 {\n    let t0 = Instant::now();\n    n as f64\n}\n";
    let scan =
        |_: usize| bc_lint::Report::new(1, bc_lint::scan_file("crates/core/src/x.rs", seeded));
    let a = scan(0);
    assert_eq!(a.diagnostics.len(), 2);
    assert_eq!(a.render_json(), scan(1).render_json());
    bc_obs::json::validate_line(&a.render_json())
        .unwrap_or_else(|e| panic!("dirty report JSON invalid: {e}"));
}

#[test]
fn regression_code_after_inline_test_module_is_scanned() {
    // The old substring scanner stopped at the first `#[cfg(test)]`
    // line, leaving library code after an inline test module unscanned.
    let src = "fn f() {}\n\
               #[cfg(test)]\n\
               mod tests {\n\
                   fn g() { h().unwrap(); }\n\
               }\n\
               fn late() {\n\
                   i().unwrap();\n\
               }\n";
    let found = bc_lint::scan_file("crates/core/src/x.rs", src);
    assert_eq!(found.len(), 1, "exactly the post-module unwrap: {found:?}");
    assert_eq!(found[0].line, 7);
    assert_eq!(found[0].rule, bc_lint::RuleId::PanickingExtractor);
}

#[test]
fn regression_patterns_in_literals_and_comments_do_not_fire() {
    let src = "fn f() -> String {\n\
                   let s = \"call .unwrap() and n as f64\".to_string(); // or .expect( it\n\
                   s\n\
               }\n";
    let found = bc_lint::scan_file("crates/core/src/x.rs", src);
    assert!(
        found.is_empty(),
        "literal/comment false positives: {found:?}"
    );
}
