//! One module per figure of the paper's evaluation.
//!
//! Each module exposes a `table(s)(&ExpConfig) -> Vec<Table>` function
//! producing exactly the data series the corresponding figure plots. The
//! shared [`ExpConfig`] sets the number of seeded runs per data point
//! (the paper uses 100; the default here is 20 to keep a laptop run
//! short — pass `--runs 100` to the `repro` binary for the full
//! averaging).
//!
//! ## Field density note (see DESIGN.md §4 and EXPERIMENTS.md)
//!
//! Section VI-A states a 1000 m x 1000 m field with 40–200 sensors, but at
//! that density a 5–40 m bundle radius leaves almost every bundle a
//! singleton and none of the published curves can appear under any
//! parameterisation of the charging model. The figures that study
//! bundling (6, 12, 13, 14) therefore run on a 300 m x 300 m field — the
//! same sensor counts at the *dense*-network density the paper's title
//! and motivation assume — while Fig. 11's bundle-counting runs use an
//! intermediate 500 m field where the grid/greedy/optimal gap is
//! clearest.

pub mod ablations;
pub mod faults;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig16;
pub mod fig6;

use bc_core::planner::Algorithm;
use bc_core::{Metrics, PlanContext, PlannerConfig};
use bc_geom::Aabb;
use bc_wsn::deploy;

use crate::{average_metrics, repeat, MetricsSummary};

/// Shared experiment settings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExpConfig {
    /// Seeded runs per data point.
    pub runs: usize,
    /// First seed; run `i` uses `base_seed + i`.
    pub base_seed: u64,
}

impl Default for ExpConfig {
    fn default() -> Self {
        ExpConfig {
            runs: 20,
            base_seed: 1000,
        }
    }
}

impl ExpConfig {
    /// A fast configuration for tests and smoke runs.
    pub fn quick() -> Self {
        ExpConfig {
            runs: 3,
            base_seed: 1000,
        }
    }
}

/// Side length (m) of the dense evaluation field used by Figs. 6, 12, 13
/// and 14.
pub const DENSE_FIELD_SIDE_M: f64 = 300.0;

/// Per-sensor demand (J) of the simulation environment.
pub const SIM_DEMAND_J: f64 = bc_wpt::params::SIM_DELTA_J.0;

/// Runs every algorithm in `algos` on `runs` seeded uniform deployments
/// and averages the metrics per algorithm.
///
/// All algorithms of one seed share a single [`PlanContext`], so the
/// expensive artifacts (candidate family, distance matrix, power table)
/// are built once per deployment instead of once per algorithm — the
/// main saving of the staged pipeline for figure sweeps like Fig. 12.
pub(crate) fn sweep_algorithms(
    n: usize,
    side: f64,
    algos: &[Algorithm],
    cfg: &PlannerConfig,
    exp: &ExpConfig,
) -> Vec<MetricsSummary> {
    let per_seed: Vec<Vec<Metrics>> = repeat(exp.runs, exp.base_seed, |seed| {
        let net = deploy::uniform(n, Aabb::square(side), SIM_DEMAND_J, seed);
        let ctx = PlanContext::new(net, cfg.clone());
        algos
            .iter()
            .map(|&a| {
                ctx.plan(a)
                    .unwrap_or_else(|e| panic!("{a}: {e}"))
                    .metrics(&cfg.energy)
            })
            .collect()
    });
    (0..algos.len())
        .map(|ai| average_metrics(&per_seed.iter().map(|ms| ms[ai]).collect::<Vec<_>>()))
        .collect()
}

/// Runs `algo` on `runs` seeded uniform deployments and averages the
/// metrics.
pub(crate) fn sweep_point(
    n: usize,
    side: f64,
    algo: Algorithm,
    cfg: &PlannerConfig,
    exp: &ExpConfig,
) -> MetricsSummary {
    sweep_algorithms(n, side, &[algo], cfg, exp)
        .pop()
        .unwrap_or_else(|| unreachable!("one algorithm requested"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_point_is_deterministic() {
        let cfg = PlannerConfig::paper_sim(20.0);
        let exp = ExpConfig { runs: 2, base_seed: 5 };
        let a = sweep_point(15, 300.0, Algorithm::Bc, &cfg, &exp);
        let b = sweep_point(15, 300.0, Algorithm::Bc, &cfg, &exp);
        assert_eq!(a.total_energy_j.mean, b.total_energy_j.mean);
        assert_eq!(a.total_energy_j.n, 2);
    }

    #[test]
    fn quick_config_is_small() {
        assert!(ExpConfig::quick().runs < ExpConfig::default().runs);
    }
}
