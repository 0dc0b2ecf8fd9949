//! Reproduction self-checks.
//!
//! EXPERIMENTS.md records the paper's qualitative claims per figure; this
//! module re-verifies them programmatically from freshly generated data,
//! so `repro check` gives a one-command PASS/FAIL audit of the
//! reproduction instead of a by-eye comparison of tables.

use crate::figures::{self, ExpConfig};
use crate::Table;

/// Outcome of one named claim.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckResult {
    /// Which figure the claim belongs to.
    pub figure: &'static str,
    /// The claim, in the paper's words (abbreviated).
    pub claim: &'static str,
    /// `Ok(detail)` when the claim holds, `Err(detail)` otherwise.
    pub outcome: Result<String, String>,
}

impl CheckResult {
    /// Whether the claim held.
    pub fn passed(&self) -> bool {
        self.outcome.is_ok()
    }
}

fn col(t: &Table, name: &str) -> Vec<f64> {
    t.column(name)
        .unwrap_or_else(|| panic!("table {} lacks column {name}", t.title))
}

/// Runs every claim check and returns the results in report order.
///
/// Generating the data dominates the cost; with the default
/// [`ExpConfig`] this takes a few minutes of CPU.
pub fn run_all(exp: &ExpConfig) -> Vec<CheckResult> {
    let mut out = Vec::new();

    // Fig. 6: trade-off directions and an interior optimal radius.
    let fig6 = &figures::fig6::tables(exp)[0];
    let tour = col(fig6, "tour_m");
    out.push(CheckResult {
        figure: "fig6",
        claim: "tour length decreases with bundle radius",
        outcome: if tour.last() < tour.first() {
            Ok(format!("{:.0} m -> {:.0} m", tour[0], tour[tour.len() - 1]))
        } else {
            Err(format!("{tour:?}"))
        },
    });
    let r_opt = figures::fig6::optimal_radius(fig6);
    let radii = col(fig6, "radius_m");
    out.push(CheckResult {
        figure: "fig6",
        claim: "total energy has an interior optimal radius",
        outcome: if r_opt > radii[0] && radii.last().is_some_and(|&last| r_opt < last) {
            Ok(format!("optimum at r = {r_opt} m"))
        } else {
            Err(format!("optimum at boundary r = {r_opt} m"))
        },
    });

    // Fig. 11: optimal <= greedy <= grid everywhere.
    for t in figures::fig11::tables(exp) {
        let grid = col(&t, "grid");
        let greedy = col(&t, "greedy");
        let optimal = col(&t, "optimal");
        let ok =
            (0..grid.len()).all(|i| optimal[i] <= greedy[i] + 1e-9 && greedy[i] <= grid[i] + 1e-9);
        out.push(CheckResult {
            figure: "fig11",
            claim: "bundle counts: optimal <= greedy <= grid",
            outcome: if ok {
                Ok(format!("{} rows verified ({})", grid.len(), t.title))
            } else {
                Err(format!("violated in {}", t.title))
            },
        });
    }

    // Fig. 12: BC-OPT best on energy at every radius.
    let fig12 = figures::fig12::tables(exp);
    let energy12 = &fig12[0];
    let sc = col(energy12, "SC");
    let css = col(energy12, "CSS");
    let bc = col(energy12, "BC");
    let opt = col(energy12, "BC-OPT");
    let ok =
        (0..sc.len()).all(|i| opt[i] <= bc[i] + 1e-6 && opt[i] <= css[i] + 1e-6 && opt[i] < sc[i]);
    out.push(CheckResult {
        figure: "fig12",
        claim: "BC-OPT minimises energy across radii",
        outcome: if ok {
            Ok(format!(
                "saves {:.0}% vs SC at the largest radius",
                100.0
                    * (1.0
                        - opt.last().copied().unwrap_or(f64::NAN)
                            / sc.last().copied().unwrap_or(f64::NAN))
            ))
        } else {
            Err("BC-OPT beaten somewhere".into())
        },
    });

    // Fig. 13: BC under ~half of SC at n = 200; SC degrades fastest.
    let fig13 = figures::fig13::tables(exp);
    let energy13 = &fig13[0];
    let sc = col(energy13, "SC");
    let bc = col(energy13, "BC");
    let last = sc.len() - 1;
    out.push(CheckResult {
        figure: "fig13",
        claim: "BC uses less than ~half of SC's energy at n = 200",
        outcome: if bc[last] < 0.55 * sc[last] {
            Ok(format!("BC/SC = {:.1}%", 100.0 * bc[last] / sc[last]))
        } else {
            Err(format!("BC/SC = {:.1}%", 100.0 * bc[last] / sc[last]))
        },
    });
    let tour13 = &fig13[1];
    let sc_t = col(tour13, "SC");
    let opt_t = col(tour13, "BC-OPT");
    out.push(CheckResult {
        figure: "fig13",
        claim: "SC's tour grows fastest with density",
        outcome: {
            let g_sc = sc_t[last] / sc_t[0];
            let g_opt = opt_t[last] / opt_t[0];
            if g_sc > g_opt {
                Ok(format!("growth {:.2}x vs {:.2}x", g_sc, g_opt))
            } else {
                Err(format!("growth {:.2}x vs {:.2}x", g_sc, g_opt))
            }
        },
    });

    // Fig. 14: worst-case-dwell BC has an interior optimum; BC-OPT never
    // worse than BC.
    let fig14 = figures::fig14::tables(exp);
    let b = &fig14[1];
    let radii = col(b, "radius_m");
    let r_wc = figures::fig14::optimal_radius(b, "BC_worstcase_dwell");
    out.push(CheckResult {
        figure: "fig14",
        claim: "optimal radius is interior (worst-case dwell schedule)",
        outcome: if r_wc > radii[0] && radii.last().is_some_and(|&last| r_wc < last) {
            Ok(format!("optimum at r = {r_wc} m"))
        } else {
            Err(format!("optimum at boundary r = {r_wc} m"))
        },
    });
    let bc14 = col(b, "BC");
    let opt14 = col(b, "BC-OPT");
    let ok = (0..bc14.len()).all(|i| opt14[i] <= bc14[i] + 1e-6);
    out.push(CheckResult {
        figure: "fig14",
        claim: "BC-OPT never loses to BC",
        outcome: if ok {
            Ok(format!("{} radii verified", bc14.len()))
        } else {
            Err("BC-OPT above BC somewhere".into())
        },
    });

    // Fig. 16: testbed equal at tiny radius; BC-OPT saves >= ~10% at 1.2 m.
    let fig16 = figures::fig16::tables(exp);
    let e16 = &fig16[0];
    let radii = col(e16, "radius_m");
    let sc16 = col(e16, "SC");
    let bc16 = col(e16, "BC");
    let opt16 = col(e16, "BC-OPT");
    out.push(CheckResult {
        figure: "fig16",
        claim: "all planners coincide at a tiny radius",
        outcome: if (sc16[0] - bc16[0]).abs() / sc16[0] < 0.05 {
            Ok(format!("SC {:.1} J vs BC {:.1} J", sc16[0], bc16[0]))
        } else {
            Err(format!("SC {:.1} J vs BC {:.1} J", sc16[0], bc16[0]))
        },
    });
    let outcome = match radii.iter().position(|&r| (r - 1.2).abs() < 1e-9) {
        Some(i12) => {
            let saving = 1.0 - opt16[i12] / sc16[i12];
            if (0.05..0.35).contains(&saving) {
                Ok(format!("{:.1}% saved", 100.0 * saving))
            } else {
                Err(format!("{:.1}% saved", 100.0 * saving))
            }
        }
        None => Err("no r = 1.2 m row in the fig16 sweep".into()),
    };
    out.push(CheckResult {
        figure: "fig16",
        claim: "BC-OPT saves on the order of 13% at r = 1.2 m",
        outcome,
    });

    out
}

/// Formats the check results as a report, returning `(text, all_passed)`.
pub fn report(results: &[CheckResult]) -> (String, bool) {
    let mut text = String::new();
    let mut all = true;
    for r in results {
        let (mark, detail) = match &r.outcome {
            Ok(d) => ("PASS", d.clone()),
            Err(d) => {
                all = false;
                ("FAIL", d.clone())
            }
        };
        text.push_str(&format!("[{mark}] {:6} {} ({detail})\n", r.figure, r.claim));
    }
    let (passed, total) = (results.iter().filter(|r| r.passed()).count(), results.len());
    text.push_str(&format!("{passed}/{total} claims reproduced\n"));
    (text, all)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_claims_pass_at_quick_settings() {
        let results = run_all(&ExpConfig {
            runs: 2,
            base_seed: 1000,
        });
        let (text, all) = report(&results);
        assert!(all, "some claims failed:\n{text}");
        assert!(results.len() >= 9);
    }

    #[test]
    fn report_formats_failures() {
        let r = vec![CheckResult {
            figure: "figX",
            claim: "demo",
            outcome: Err("nope".into()),
        }];
        let (text, all) = report(&r);
        assert!(!all);
        assert!(text.contains("[FAIL]"));
        assert!(text.contains("0/1"));
    }
}
