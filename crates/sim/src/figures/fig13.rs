//! Fig. 13 — SC / CSS / BC / BC-OPT across sensor counts.
//!
//! Three panels over a density sweep at a fixed bundle radius: (a) total
//! energy, (b) tour length, (c) average charging time per sensor. The
//! published shapes: SC degrades fastest as the network densifies (its
//! tour visits every sensor); at n = 200 BC uses under half of SC's
//! energy; BC-OPT stays best throughout; CSS matches the bundle schemes
//! on tour length but pays more charging time.

use bc_core::planner::Algorithm;
use bc_core::PlannerConfig;

use crate::figures::{sweep_algorithms, ExpConfig, DENSE_FIELD_SIDE_M};
use crate::Table;

/// Fixed bundle radius (m).
pub const RADIUS_M: f64 = 30.0;

/// Sensor counts swept.
pub const SENSORS: [usize; 5] = [40, 80, 120, 160, 200];

/// Generates the three panels. Every table has one column per algorithm.
pub fn tables(exp: &ExpConfig) -> Vec<Table> {
    let headers = ["n_sensors", "SC", "CSS", "BC", "BC-OPT"];
    let mut energy = Table::new("fig13a_total_energy", &headers);
    let mut tour = Table::new("fig13b_tour_length", &headers);
    let mut avg_time = Table::new("fig13c_avg_charge_time", &headers);
    let cfg = PlannerConfig::paper_sim(RADIUS_M);
    for n in SENSORS {
        let per_algo = sweep_algorithms(n, DENSE_FIELD_SIDE_M, &Algorithm::ALL, &cfg, exp);
        let x = n as f64; // cast-ok: sensor count to table column
        energy.push_row(&row(x, &per_algo, |s| s.total_energy_j.mean));
        tour.push_row(&row(x, &per_algo, |s| s.tour_length_m.mean));
        avg_time.push_row(&row(x, &per_algo, |s| s.avg_charge_time_per_sensor_s.mean));
    }
    vec![energy, tour, avg_time]
}

fn row(
    x: f64,
    per_algo: &[crate::MetricsSummary],
    f: impl Fn(&crate::MetricsSummary) -> f64,
) -> Vec<f64> {
    let mut r = vec![x];
    r.extend(per_algo.iter().map(f));
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bc_under_half_of_sc_at_peak_density() {
        let exp = ExpConfig::quick();
        let energy = &tables(&exp)[0];
        let sc = energy.column("SC").unwrap();
        let bc = energy.column("BC").unwrap();
        let last = sc.len() - 1; // n = 200
        assert!(
            bc[last] < 0.55 * sc[last],
            "BC {} not under ~half of SC {}",
            bc[last],
            sc[last]
        );
    }

    #[test]
    fn ordering_holds_at_every_density() {
        let exp = ExpConfig::quick();
        let energy = &tables(&exp)[0];
        let sc = energy.column("SC").unwrap();
        let bc = energy.column("BC").unwrap();
        let opt = energy.column("BC-OPT").unwrap();
        for i in 0..sc.len() {
            assert!(opt[i] <= bc[i] + 1e-6);
            assert!(bc[i] < sc[i]);
        }
    }

    #[test]
    fn sc_tour_grows_fastest() {
        let exp = ExpConfig::quick();
        let tour = &tables(&exp)[1];
        let sc = tour.column("SC").unwrap();
        let bc = tour.column("BC").unwrap();
        let growth_sc = sc.last().unwrap() / sc.first().unwrap();
        let growth_bc = bc.last().unwrap() / bc.first().unwrap();
        assert!(growth_sc > growth_bc);
    }
}
