//! Report assembly and rendering.
//!
//! The JSON form is hand-rendered with a fixed field order and
//! pre-sorted findings, so two runs over the same tree produce
//! byte-identical documents — the same determinism discipline the
//! engine enforces on the code it scans. `bc-lint` stays dependency-free
//! (it is below `bc-obs` in the build graph), so it carries its own
//! string escaper; the xtask driver re-validates the rendered document
//! with `bc_obs::json`, which keeps the two implementations honest
//! against each other.

use crate::rules::{Diagnostic, RuleId};
use std::fmt::Write as _;

/// Identifies the report layout for downstream consumers.
pub const SCHEMA: &str = "bc-lint-report/v1";

/// The outcome of a workspace run: what was scanned and what fired.
#[derive(Debug)]
pub struct Report {
    /// Number of source files scanned.
    pub files_scanned: usize,
    /// All findings, sorted by (file, line, col, rule).
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// Builds a report, sorting the findings into canonical order.
    pub fn new(files_scanned: usize, mut diagnostics: Vec<Diagnostic>) -> Report {
        diagnostics.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
        Report {
            files_scanned,
            diagnostics,
        }
    }

    /// True when nothing fired.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Compiler-style text rendering: one line per finding plus a
    /// summary line.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            let _ = writeln!(out, "{d}");
        }
        if self.is_clean() {
            let _ = writeln!(out, "bc-lint: clean ({} files scanned)", self.files_scanned);
        } else {
            let _ = writeln!(
                out,
                "bc-lint: {} violation(s) across {} files scanned",
                self.diagnostics.len(),
                self.files_scanned
            );
        }
        out
    }

    /// Stable pretty-printed JSON document. Field order is fixed,
    /// findings are pre-sorted, and per-rule counts iterate the static
    /// catalog, so the bytes are a pure function of the findings.
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        field_str(&mut out, 1, "tool", "bc-lint");
        out.push_str(",\n");
        field_str(&mut out, 1, "schema", SCHEMA);
        out.push_str(",\n");
        field_usize(&mut out, 1, "files_scanned", self.files_scanned);
        out.push_str(",\n");
        field_usize(&mut out, 1, "total_violations", self.diagnostics.len());
        out.push_str(",\n");

        out.push_str("  \"rules\": [\n");
        for (i, rule) in RuleId::ALL.iter().enumerate() {
            out.push_str("    {");
            key_str(&mut out, "name", rule.name());
            out.push_str(", ");
            key_str(&mut out, "pass", rule.pass());
            out.push_str(", ");
            match rule.escape() {
                Some(m) => key_str(&mut out, "escape", m),
                None => out.push_str("\"escape\": null"),
            }
            out.push_str(", ");
            key_str(&mut out, "scope", rule.scope_doc());
            out.push_str(", ");
            out.push_str("\"count\": ");
            let n = self.diagnostics.iter().filter(|d| d.rule == *rule).count();
            let _ = write!(out, "{n}");
            out.push('}');
            out.push_str(if i + 1 < RuleId::ALL.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ],\n");

        out.push_str("  \"violations\": [\n");
        for (i, d) in self.diagnostics.iter().enumerate() {
            out.push_str("    {");
            key_str(&mut out, "file", &d.file);
            out.push_str(", ");
            let _ = write!(out, "\"line\": {}, \"col\": {}, ", d.line, d.col);
            key_str(&mut out, "rule", d.rule.name());
            out.push_str(", ");
            key_str(&mut out, "excerpt", d.excerpt.trim());
            out.push_str(", ");
            key_str(&mut out, "hint", d.rule.hint());
            out.push('}');
            out.push_str(if i + 1 < self.diagnostics.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]\n");
        out.push_str("}\n");
        out
    }
}

/// Appends `"key": "value"` (both escaped) to `out`.
fn key_str(out: &mut String, key: &str, value: &str) {
    escape_into(out, key);
    out.push_str(": ");
    escape_into(out, value);
}

fn field_str(out: &mut String, indent: usize, key: &str, value: &str) {
    out.push_str(&"  ".repeat(indent));
    key_str(out, key, value);
}

fn field_usize(out: &mut String, indent: usize, key: &str, value: usize) {
    out.push_str(&"  ".repeat(indent));
    escape_into(out, key);
    let _ = write!(out, ": {value}");
}

/// Appends `s` as a JSON string literal (quotes included). Mirrors the
/// escaping rules of `bc_obs::json::escape_into`; the xtask driver
/// cross-validates rendered reports against that crate's parser.
fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}
