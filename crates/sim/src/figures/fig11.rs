//! Fig. 11 — bundle generation: grid vs greedy vs optimal.
//!
//! Panel (a) counts the bundles each generator produces as the bundle
//! radius grows; panel (b) fixes the radius and sweeps the sensor count.
//! The paper's observations: greedy tracks the optimal closely, clearly
//! beats the grid baseline at small radii, and approaches the grid
//! solution as the network gets crowded.
//!
//! The "optimal" column is exact only while the branch and bound stays
//! within its 5,000,000-node budget; past it the generator returns the
//! greedy cover and emits a `plan.cover.exact_aborted` counter. At the
//! default 20 runs (seeds 1000–1019) that happens once: panel (b) at
//! n = 50, seed 1008. So that cell's "optimal" mean includes one greedy
//! count.

use bc_core::{generate_bundles, BundleStrategy};
use bc_geom::Aabb;
use bc_wsn::deploy;

use crate::figures::{ExpConfig, SIM_DEMAND_J};
use crate::{repeat, Summary, Table};

/// Field side (m) for the bundle-counting experiments — intermediate
/// density where the generator gap is clearest and the exact cover is
/// still tractable.
pub const FIELD_SIDE_M: f64 = 500.0;

/// Sensor count for panel (a).
pub const N_SENSORS_A: usize = 40;

/// Radii swept in panel (a).
pub const RADII_A: [f64; 6] = [20.0, 30.0, 40.0, 60.0, 80.0, 100.0];

/// Fixed radius for panel (b).
pub const RADIUS_B: f64 = 60.0;

/// Sensor counts swept in panel (b).
pub const SENSORS_B: [usize; 5] = [10, 20, 30, 40, 50];

/// Mean bundle counts for one (n, r) cell across seeded deployments.
fn counts(n: usize, r: f64, strategy: BundleStrategy, exp: &ExpConfig) -> Summary {
    let samples: Vec<f64> = repeat(exp.runs, exp.base_seed, |seed| {
        let net = deploy::uniform(n, Aabb::square(FIELD_SIDE_M), SIM_DEMAND_J, seed);
        generate_bundles(&net, bc_units::Meters(r), strategy).len() as f64 // cast-ok: bundle count to table column
    });
    Summary::of(&samples)
}

/// Generates both panels.
pub fn tables(exp: &ExpConfig) -> Vec<Table> {
    let mut a = Table::new(
        "fig11a_bundles_vs_radius",
        &["radius_m", "grid", "greedy", "optimal"],
    );
    for r in RADII_A {
        a.push_row(&[
            r,
            counts(N_SENSORS_A, r, BundleStrategy::Grid, exp).mean,
            counts(N_SENSORS_A, r, BundleStrategy::Greedy, exp).mean,
            counts(N_SENSORS_A, r, BundleStrategy::Optimal, exp).mean,
        ]);
    }
    let mut b = Table::new(
        "fig11b_bundles_vs_sensors",
        &["n_sensors", "grid", "greedy", "optimal"],
    );
    for n in SENSORS_B {
        b.push_row(&[
            n as f64, // cast-ok: sensor count to table column
            counts(n, RADIUS_B, BundleStrategy::Grid, exp).mean,
            counts(n, RADIUS_B, BundleStrategy::Greedy, exp).mean,
            counts(n, RADIUS_B, BundleStrategy::Optimal, exp).mean,
        ]);
    }
    vec![a, b]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn greedy_between_optimal_and_grid() {
        let exp = ExpConfig::quick();
        let ts = tables(&exp);
        for t in &ts {
            let grid = t.column("grid").unwrap();
            let greedy = t.column("greedy").unwrap();
            let optimal = t.column("optimal").unwrap();
            for i in 0..grid.len() {
                assert!(
                    optimal[i] <= greedy[i] + 1e-9,
                    "{}: optimal {} > greedy {}",
                    t.title,
                    optimal[i],
                    greedy[i]
                );
                assert!(
                    greedy[i] <= grid[i] + 1e-9,
                    "{}: greedy {} > grid {}",
                    t.title,
                    greedy[i],
                    grid[i]
                );
            }
        }
    }

    #[test]
    fn bundle_count_decreases_with_radius() {
        let exp = ExpConfig::quick();
        let a = &tables(&exp)[0];
        let greedy = a.column("greedy").unwrap();
        assert!(greedy.last().unwrap() < greedy.first().unwrap());
    }

    #[test]
    fn bundle_count_increases_with_sensors() {
        let exp = ExpConfig::quick();
        let b = &tables(&exp)[1];
        let greedy = b.column("greedy").unwrap();
        assert!(greedy.last().unwrap() > greedy.first().unwrap());
    }
}
