//! Build/run provenance stamped into every benchmark report, so two
//! reports can be checked for comparability (same cargo profile, same
//! core count) before their metrics are.
//!
//! Lives here because `bc-obs` sits at the bottom of the dependency
//! graph, below every crate that measures anything.

use crate::json::{escape_into, number_into};

/// What produced a report: crate version, build profile, and
/// the machine/run shape that moves timing numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Provenance {
    /// Workspace package version (uniform across crates).
    pub pkg_version: &'static str,
    /// `"release"` or `"debug"` — a debug-profile bench is never
    /// comparable to a release baseline.
    pub profile: &'static str,
    /// Hardware parallelism available to the run.
    pub cores: usize,
    /// Worker threads the harness actually used, when it pins one.
    pub workers: Option<usize>,
}

impl Provenance {
    /// Captures version, profile and core count for the current build.
    #[must_use]
    pub fn capture() -> Self {
        Provenance {
            pkg_version: env!("CARGO_PKG_VERSION"),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            cores: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            workers: None,
        }
    }

    /// Records the worker-thread count the harness used.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers);
        self
    }

    /// Renders the stamp as one compact JSON object, fixed key order —
    /// emitters splice it as the `"provenance"` value of their
    /// hand-rolled bench documents.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"pkg_version\": ");
        escape_into(&mut out, self.pkg_version);
        out.push_str(", \"profile\": ");
        escape_into(&mut out, self.profile);
        out.push_str(", \"cores\": ");
        number_into(&mut out, self.cores as f64); // cast-ok: core count to JSON number
        out.push_str(", \"workers\": ");
        match self.workers {
            Some(w) => number_into(&mut out, w as f64), // cast-ok: worker count to JSON number
            None => out.push_str("null"),
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_reflects_build() {
        let p = Provenance::capture();
        assert_eq!(p.pkg_version, env!("CARGO_PKG_VERSION"));
        assert!(p.cores >= 1);
        assert_eq!(
            p.profile,
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
        );
        assert_eq!(p.workers, None);
    }

    #[test]
    fn json_is_valid_and_carries_options() {
        let p = Provenance::capture().with_workers(4);
        let json = p.to_json();
        crate::json::validate_line(&json).unwrap_or_else(|e| panic!("invalid: {e}\n{json}"));
        assert!(json.contains("\"workers\": 4"), "{json}");
        let bare = Provenance::capture().to_json();
        crate::json::validate_line(&bare).unwrap();
        assert!(bare.contains("\"workers\": null"), "{bare}");
    }
}
