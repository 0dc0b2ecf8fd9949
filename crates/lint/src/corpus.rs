//! The seeded self-test corpus: every rule exercised with at least one
//! positive, one negative, and one escape-marker case, plus regression
//! pins for the blind spots that motivated the token-aware engine
//! (string-literal false positives, trailing-comment false positives,
//! library code after an inline test module, markers that only count
//! when they trail real code).
//!
//! The corpus is a public module (not `#[cfg(test)]`) so the root
//! workspace test suite can run it: `cargo test -q` at the workspace
//! root only builds the root package's tests, and the acceptance
//! criterion wants the corpus in tier 1.

use crate::manifest::{lint_table_violations, manifest_opts_into_lints};
use crate::rules::{scan_file, RuleId};

/// One seeded source and the findings it must produce.
#[derive(Debug)]
pub struct Case {
    /// Name shown in failure messages.
    pub name: &'static str,
    /// Workspace-relative label driving the scope predicates.
    pub label: &'static str,
    /// The seeded source.
    pub source: &'static str,
    /// Expected `(rule, line)` pairs in report order.
    pub expect: &'static [(RuleId, usize)],
}

/// The full corpus.
pub const CASES: &[Case] = &[
    // --- unannotated-cast ---------------------------------------------
    Case {
        name: "cast-positive",
        label: "crates/sim/src/x.rs",
        source: "fn f(n: usize) -> f64 {\n    n as f64\n}\n",
        expect: &[(RuleId::UnannotatedCast, 2)],
    },
    Case {
        name: "cast-negative",
        label: "crates/sim/src/x.rs",
        source: "fn f(n: u8) -> f64 {\n    f64::from(n)\n}\n",
        expect: &[],
    },
    Case {
        name: "cast-escape",
        label: "crates/sim/src/x.rs",
        source: "fn f(n: usize) -> f64 {\n    n as f64 // cast-ok: count to float\n}\n",
        expect: &[],
    },
    // --- panicking-extractor ------------------------------------------
    Case {
        name: "panic-positive",
        label: "crates/geom/src/x.rs",
        source: "fn f() {\n    g().unwrap();\n    h().expect(\"h\");\n}\n",
        expect: &[(RuleId::PanickingExtractor, 2), (RuleId::PanickingExtractor, 3)],
    },
    Case {
        name: "panic-negative",
        label: "crates/geom/src/x.rs",
        source: "fn f() {\n    let x = g().unwrap_or_else(|_| 0);\n    let y = h().unwrap_or(1);\n}\n",
        expect: &[],
    },
    Case {
        name: "panic-escape",
        label: "crates/geom/src/x.rs",
        source: "fn f() {\n    g().unwrap(); // panic-ok: invariant upheld by caller\n}\n",
        expect: &[],
    },
    // --- raw-quantity-field -------------------------------------------
    Case {
        name: "unit-positive",
        label: "crates/core/src/plan.rs",
        source: "pub struct S {\n    pub total_energy_j: f64,\n    pub count: usize,\n}\n",
        expect: &[(RuleId::RawQuantityField, 2)],
    },
    Case {
        name: "unit-negative-typed-and-out-of-scope",
        label: "crates/core/src/plan.rs",
        source: "pub struct S {\n    pub total_energy_j: Joules,\n    pub efficiency: f64,\n}\n",
        expect: &[],
    },
    Case {
        name: "unit-escape",
        label: "crates/core/src/plan.rs",
        source: "pub struct S {\n    pub total_energy_j: f64, // unit-ok: serde wire format\n}\n",
        expect: &[],
    },
    // --- context-bypass -----------------------------------------------
    Case {
        name: "context-positive",
        label: "crates/sim/src/x.rs",
        source: "fn f(net: &Network) {\n    let fam = CandidateFamily::pair_intersection_par(net, 10.0, 4);\n    let one = CandidateFamily::pair_intersection(net, 10.0);\n}\n",
        expect: &[(RuleId::ContextBypass, 2), (RuleId::ContextBypass, 3)],
    },
    Case {
        name: "context-negative-exempt-module",
        label: "crates/core/src/candidates.rs",
        source: "fn f(net: &Network) { let fam = CandidateFamily::pair_intersection(net, 10.0); }\n",
        expect: &[],
    },
    Case {
        name: "context-escape",
        label: "crates/core/src/terrain.rs",
        source: "fn f(net: &Network) {\n    let fam = CandidateFamily::pair_intersection(net, 10.0); // context-ok: one-off family\n}\n",
        expect: &[],
    },
    // --- raw-time ------------------------------------------------------
    Case {
        name: "time-positive",
        label: "crates/des/src/engine.rs",
        source: "fn f() {\n    let t = Seconds(3.0);\n    let raw = horizon_s.0;\n    let d = dur.as_secs_f64();\n}\n",
        expect: &[(RuleId::RawTime, 2), (RuleId::RawTime, 3), (RuleId::RawTime, 4)],
    },
    Case {
        name: "time-negative-clock-module",
        label: "crates/des/src/clock.rs",
        source: "fn f() {\n    let t = Seconds(3.0);\n}\n",
        expect: &[],
    },
    Case {
        name: "time-escape",
        label: "crates/des/src/engine.rs",
        source: "fn f() {\n    let t = Seconds(0.0); // time-ok: report boundary\n}\n",
        expect: &[],
    },
    // --- print-ban -----------------------------------------------------
    Case {
        name: "print-positive",
        label: "crates/geom/src/x.rs",
        source: "fn f() {\n    println!(\"x\");\n    eprintln!(\"y\");\n}\n",
        expect: &[(RuleId::PrintBan, 2), (RuleId::PrintBan, 3)],
    },
    Case {
        name: "print-negative-bin-target",
        label: "crates/sim/src/bin/repro.rs",
        source: "fn f() {\n    println!(\"x\");\n}\n",
        expect: &[],
    },
    Case {
        name: "print-escape",
        label: "crates/geom/src/x.rs",
        source: "fn f() {\n    eprintln!(\"x\"); // print-ok: fatal-path diagnostics\n}\n",
        expect: &[],
    },
    // --- naked-lock (outside bc-serve) ---------------------------------
    Case {
        name: "naked-lock-positive",
        label: "crates/geom/src/x.rs",
        source: "fn f() {\n    let a = m.lock().unwrap();\n    let b = rw.read().unwrap();\n    let c = rw.write().expect(\"w\");\n}\n",
        expect: &[
            (RuleId::NakedLock, 2),
            (RuleId::NakedLock, 3),
            (RuleId::NakedLock, 4),
        ],
    },
    Case {
        name: "naked-lock-negative-recover-helper",
        label: "crates/geom/src/x.rs",
        source: "fn f() {\n    let g = lock_recover(&m);\n}\n",
        expect: &[],
    },
    Case {
        name: "naked-lock-escape",
        label: "crates/geom/src/x.rs",
        source: "fn f() {\n    let g = m.lock().unwrap(); // lock-ok: single-threaded setup\n}\n",
        expect: &[],
    },
    Case {
        name: "naked-lock-precedence-plain-unwrap-still-extractor",
        label: "crates/geom/src/x.rs",
        source: "fn f() {\n    g().unwrap();\n}\n",
        expect: &[(RuleId::PanickingExtractor, 2)],
    },
    // --- raw-lock (inside bc-serve) ------------------------------------
    Case {
        name: "raw-lock-positive-even-with-poison-handling",
        label: "crates/serve/src/service.rs",
        source: "fn f() {\n    let g = match m.lock() {\n        Ok(g) => g,\n        Err(p) => p.into_inner(),\n    };\n}\n",
        expect: &[(RuleId::RawLockAcquire, 2)],
    },
    Case {
        name: "raw-lock-negative-sync-module",
        label: "crates/serve/src/sync.rs",
        source: "fn f() {\n    let g = m.lock();\n}\n",
        expect: &[],
    },
    Case {
        name: "raw-lock-escape",
        label: "crates/serve/src/loadgen.rs",
        source: "fn f() {\n    let g = m.lock(); // lock-ok: bench-only fast path\n}\n",
        expect: &[],
    },
    Case {
        name: "raw-lock-serve-plain-unwrap-still-extractor",
        label: "crates/serve/src/service.rs",
        source: "fn f() {\n    g().unwrap();\n}\n",
        expect: &[(RuleId::PanickingExtractor, 2)],
    },
    // --- det-unordered-collection --------------------------------------
    Case {
        // The seeded HashMap *iteration* violation the acceptance
        // criteria call for: plan-affecting fold over unordered entries.
        name: "unordered-positive-iteration",
        label: "crates/core/src/gen.rs",
        source: "use std::collections::HashMap;\nfn total(m: &HashMap<u32, f64>) -> f64 {\n    let mut total = 0.0;\n    for (_k, v) in m.iter() {\n        total += v;\n    }\n    total\n}\n",
        expect: &[
            (RuleId::UnorderedCollection, 1),
            (RuleId::UnorderedCollection, 2),
        ],
    },
    Case {
        name: "unordered-negative-btreemap",
        label: "crates/core/src/gen.rs",
        source: "use std::collections::BTreeMap;\nfn f(m: &BTreeMap<u32, f64>) {}\n",
        expect: &[],
    },
    Case {
        // The substrates fix the radius-query order every plan inherits.
        name: "unordered-positive-substrate",
        label: "crates/wsn/src/network.rs",
        source: "use std::collections::HashMap;\n",
        expect: &[(RuleId::UnorderedCollection, 1)],
    },
    Case {
        name: "unordered-negative-out-of-scope",
        label: "crates/sim/src/x.rs",
        source: "use std::collections::HashMap;\n",
        expect: &[],
    },
    Case {
        name: "unordered-escape",
        label: "crates/core/src/gen.rs",
        source: "use std::collections::HashSet; // det-ok: membership-only, never iterated\n",
        expect: &[],
    },
    // --- det-wall-clock ------------------------------------------------
    Case {
        name: "wall-clock-positive",
        label: "crates/core/src/x.rs",
        source: "fn f() {\n    let t0 = std::time::Instant::now();\n    let w = SystemTime::now();\n}\n",
        expect: &[(RuleId::WallClock, 2), (RuleId::WallClock, 3)],
    },
    Case {
        name: "wall-clock-negative-wall-module",
        label: "crates/obs/src/wall.rs",
        source: "pub fn now() -> std::time::Instant {\n    std::time::Instant::now()\n}\n",
        expect: &[],
    },
    Case {
        name: "wall-clock-negative-bin-target",
        label: "crates/sim/src/bin/repro.rs",
        source: "fn f() {\n    let t0 = std::time::Instant::now();\n}\n",
        expect: &[],
    },
    Case {
        name: "wall-clock-escape",
        label: "crates/serve/src/x.rs",
        source: "fn f() {\n    let t0 = Instant::now(); // det-ok: latency metric only, never plans\n}\n",
        expect: &[],
    },
    // --- det-thread-spawn ----------------------------------------------
    Case {
        name: "thread-spawn-positive",
        label: "crates/serve/src/x.rs",
        source: "fn f() {\n    std::thread::spawn(move || work());\n}\n",
        expect: &[(RuleId::ThreadSpawn, 2)],
    },
    Case {
        name: "thread-spawn-negative-par-module",
        label: "crates/core/src/par.rs",
        source: "fn f() {\n    std::thread::spawn(move || work());\n}\n",
        expect: &[],
    },
    Case {
        name: "thread-spawn-escape",
        label: "crates/serve/src/x.rs",
        source: "fn f() {\n    std::thread::spawn(run); // det-ok: long-lived worker, joined at drop\n}\n",
        expect: &[],
    },
    // --- conc-static-mut -----------------------------------------------
    Case {
        name: "static-mut-positive",
        label: "crates/geom/src/x.rs",
        source: "static mut COUNTER: u32 = 0;\n",
        expect: &[(RuleId::StaticMut, 1)],
    },
    Case {
        name: "static-mut-negative-atomic",
        label: "crates/geom/src/x.rs",
        source: "static COUNTER: AtomicU32 = AtomicU32::new(0);\n",
        expect: &[],
    },
    Case {
        name: "static-mut-escape",
        label: "crates/geom/src/x.rs",
        source: "static mut SCRATCH: [u8; 64] = [0; 64]; // conc-ok: ffi scratch, single-threaded init\n",
        expect: &[],
    },
    // --- stale-escape ---------------------------------------------------
    Case {
        name: "stale-positive",
        label: "crates/core/src/x.rs",
        source: "fn f() -> u32 {\n    1 // cast-ok: nothing is cast here\n}\n",
        expect: &[(RuleId::StaleEscape, 2)],
    },
    Case {
        name: "stale-negative-marker-in-use",
        label: "crates/core/src/x.rs",
        source: "fn f(n: usize) -> f64 {\n    n as f64 // cast-ok: count to float\n}\n",
        expect: &[],
    },
    Case {
        name: "stale-escape-meta-marker",
        label: "crates/core/src/x.rs",
        source: "fn f() -> u32 {\n    1 // cast-ok: dormant until refactor lands; stale-ok: keep\n}\n",
        expect: &[],
    },
    // --- regression pins -------------------------------------------------
    Case {
        // The old scanner stopped at the first `#[cfg(test)]` line;
        // library code after an inline test module went unscanned.
        name: "regression-code-after-inline-test-module",
        label: "crates/core/src/x.rs",
        source: "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn g() { h().unwrap(); }\n}\nfn late() {\n    i().unwrap();\n}\n",
        expect: &[(RuleId::PanickingExtractor, 7)],
    },
    Case {
        name: "regression-cfg-test-on-single-item",
        label: "crates/core/src/x.rs",
        source: "#[cfg(test)]\nfn helper() { x().unwrap(); }\nfn real() { y().unwrap(); }\n",
        expect: &[(RuleId::PanickingExtractor, 3)],
    },
    Case {
        // Patterns inside string literals are not code.
        name: "regression-string-literal-no-false-positive",
        label: "crates/core/src/x.rs",
        source: "fn f() -> String {\n    \"call .unwrap() and n as f64\".to_string()\n}\n",
        expect: &[],
    },
    Case {
        name: "regression-raw-string-no-false-positive",
        label: "crates/core/src/x.rs",
        source: "fn f() -> &'static str {\n    r#\"contains .unwrap() and a \" quote\"#\n}\n",
        expect: &[],
    },
    Case {
        // Patterns inside trailing (or nested block) comments are not code.
        name: "regression-trailing-comment-no-false-positive",
        label: "crates/core/src/x.rs",
        source: "fn f() {\n    g(); // then .unwrap() the result as f64\n}\n",
        expect: &[],
    },
    Case {
        name: "regression-nested-block-comment-no-false-positive",
        label: "crates/core/src/x.rs",
        source: "/* .unwrap() /* as f64 */ .expect( */\nfn f() {\n    g();\n}\n",
        expect: &[],
    },
    Case {
        // A marker only counts when it trails real code in a comment.
        name: "regression-marker-in-string-does-not-suppress",
        label: "crates/sim/src/x.rs",
        source: "fn f(n: usize) -> f64 {\n    let _tag = \"cast-ok: not a marker\";\n    n as f64\n}\n",
        expect: &[(RuleId::UnannotatedCast, 3)],
    },
    Case {
        name: "regression-marker-in-leading-comment-does-not-suppress",
        label: "crates/sim/src/x.rs",
        source: "// cast-ok: leading comments do not attach to the next line\nfn f(n: usize) -> f64 {\n    n as f64\n}\n",
        expect: &[(RuleId::UnannotatedCast, 3)],
    },
];

/// Runs every corpus case plus the manifest-rule positive/negative
/// checks.
///
/// # Errors
///
/// A newline-joined list of every mismatching case.
pub fn verify_all() -> Result<(), String> {
    let mut errors = Vec::new();
    for case in CASES {
        let got: Vec<(RuleId, usize)> = scan_file(case.label, case.source)
            .iter()
            .map(|d| (d.rule, d.line))
            .collect();
        if got != case.expect {
            errors.push(format!(
                "case `{}`: expected {:?}, got {:?}",
                case.name, case.expect, got
            ));
        }
    }

    // lint-table-drift: positive and negative, via the pure manifest core.
    let good = "[workspace.lints.clippy]\n\
                unwrap_used = \"deny\"\n\
                expect_used = \"deny\"\n\
                cast_possible_truncation = \"deny\"\n\
                cast_sign_loss = \"deny\"\n";
    if !lint_table_violations("Cargo.toml", good).is_empty() {
        errors.push("manifest negative: intact lint table reported drift".to_string());
    }
    let drifted = good.replace("expect_used = \"deny\"", "expect_used = \"warn\"");
    let v = lint_table_violations("Cargo.toml", &drifted);
    if v.len() != 1 || !v[0].excerpt.contains("expect_used") {
        errors.push(format!(
            "manifest positive: expected one expect_used drift, got {v:?}"
        ));
    }
    if !manifest_opts_into_lints("[lints]\nworkspace = true\n")
        || manifest_opts_into_lints("[package]\nname = \"x\"\n")
        || manifest_opts_into_lints("[lints]\nworkspace = false\n")
    {
        errors.push("manifest opt-in detection wrong".to_string());
    }

    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors.join("\n"))
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn corpus_passes() {
        if let Err(e) = super::verify_all() {
            panic!("corpus failures:\n{e}");
        }
    }
}
