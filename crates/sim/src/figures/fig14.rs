//! Fig. 14 — the optimal bundle radius at 200 nodes.
//!
//! Sweeps the bundle radius at the evaluation's highest density and
//! reports BC and BC-OPT. Panel (a) carries tour length and charging
//! time; panel (b) total energy, which exhibits the interior optimum for
//! BC. A third energy series runs BC under the radius-worst-case dwell
//! policy (the conservative schedule; see
//! [`bc_core::DwellPolicy::RadiusWorstCase`]), which steepens the
//! post-optimum rise exactly as the published curve does and makes the
//! growing BC-OPT advantage at large radii visible.

use bc_core::planner::Algorithm;
use bc_core::{DwellPolicy, PlannerConfig};

use crate::figures::{sweep_point, ExpConfig, DENSE_FIELD_SIDE_M};
use crate::Table;

/// Sensor count (the paper's densest setting).
pub const N_SENSORS: usize = 200;

/// Radii swept (m).
pub const RADII: [f64; 10] = [5.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 80.0, 100.0, 120.0];

/// Generates both panels.
pub fn tables(exp: &ExpConfig) -> Vec<Table> {
    let mut a = Table::new(
        "fig14a_tour_and_time",
        &[
            "radius_m",
            "bc_tour_m",
            "bcopt_tour_m",
            "bc_charge_s",
            "bcopt_charge_s",
        ],
    );
    let mut b = Table::new(
        "fig14b_total_energy",
        &["radius_m", "BC", "BC-OPT", "BC_worstcase_dwell"],
    );
    for r in RADII {
        let cfg = PlannerConfig::paper_sim(r);
        let bc = sweep_point(N_SENSORS, DENSE_FIELD_SIDE_M, Algorithm::Bc, &cfg, exp);
        let opt = sweep_point(N_SENSORS, DENSE_FIELD_SIDE_M, Algorithm::BcOpt, &cfg, exp);
        let mut wc_cfg = PlannerConfig::paper_sim(r);
        wc_cfg.dwell_policy = DwellPolicy::RadiusWorstCase;
        let wc = sweep_point(N_SENSORS, DENSE_FIELD_SIDE_M, Algorithm::Bc, &wc_cfg, exp);
        a.push_row(&[
            r,
            bc.tour_length_m.mean,
            opt.tour_length_m.mean,
            bc.charge_time_s.mean,
            opt.charge_time_s.mean,
        ]);
        b.push_row(&[
            r,
            bc.total_energy_j.mean,
            opt.total_energy_j.mean,
            wc.total_energy_j.mean,
        ]);
    }
    vec![a, b]
}

/// The radius minimising a named energy column of the panel-(b) table.
pub fn optimal_radius(table: &Table, column: &str) -> f64 {
    let (Some(radii), Some(energy)) = (table.column("radius_m"), table.column(column)) else {
        return f64::NAN; // misnamed column: surfaces as a failed check
    };
    if energy.is_empty() {
        return f64::NAN;
    }
    let mut best = 0usize;
    for i in 1..energy.len() {
        if energy[i] < energy[best] {
            best = i;
        }
    }
    radii[best]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_tables() -> Vec<Table> {
        tables(&ExpConfig {
            runs: 2,
            base_seed: 1000,
        })
    }

    #[test]
    fn interior_optimum_for_worstcase_bc() {
        let b = &quick_tables()[1];
        let r = optimal_radius(b, "BC_worstcase_dwell");
        let radii = b.column("radius_m").unwrap();
        assert!(r > radii[0], "optimum should not be the smallest radius");
        assert!(
            r < *radii.last().unwrap(),
            "optimum should not be the largest radius"
        );
    }

    #[test]
    fn bc_opt_never_worse() {
        let b = &quick_tables()[1];
        let bc = b.column("BC").unwrap();
        let opt = b.column("BC-OPT").unwrap();
        for i in 0..bc.len() {
            assert!(opt[i] <= bc[i] + 1e-6);
        }
    }

    #[test]
    fn tour_shrinks_with_radius() {
        let a = &quick_tables()[0];
        let tour = a.column("bc_tour_m").unwrap();
        assert!(tour.last().unwrap() < tour.first().unwrap());
    }
}
