//! Radius tuning: find the optimal charging-bundle radius for a network.
//!
//! Section IV-C of the paper observes that the bundle radius trades
//! charging efficiency against tour length and recommends trying
//! different radii; this example automates that search for a given
//! deployment and prints the full trade-off curve.
//!
//! ```text
//! cargo run --release --example radius_tuning [n_sensors] [field_side_m]
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used)] // demo binary: panics are fine
use bundle_charging::prelude::*;

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args
        .next()
        .map(|a| a.parse().expect("n_sensors must be an integer"))
        .unwrap_or(150);
    let side: f64 = args
        .next()
        .map(|a| a.parse().expect("field_side_m must be a number"))
        .unwrap_or(300.0);

    let net = deploy::uniform(n, Aabb::square(side), 2.0, 99);
    println!(
        "{n} sensors over {side} m x {side} m  (mean neighbours within 30 m: {:.1})\n",
        net.mean_neighbors(30.0)
    );
    println!(
        "{:>8} {:>7} {:>10} {:>10} {:>12}   ",
        "r (m)", "stops", "tour (m)", "charge (s)", "energy (J)"
    );

    let radii = [5.0, 10.0, 15.0, 20.0, 30.0, 40.0, 50.0, 60.0, 80.0, 100.0];
    let mut best: Option<(f64, Joules)> = None;
    let mut rows = Vec::new();
    for r in radii {
        let cfg = PlannerConfig::paper_sim(r);
        let plan =
            planner::try_run(Algorithm::BcOpt, &net, &cfg).expect("planner rejected the input");
        plan.validate(&net, &cfg.charging).expect("feasible plan");
        let m = plan.metrics(&cfg.energy);
        rows.push((r, m));
        if best.is_none_or(|(_, e)| m.total_energy_j < e) {
            best = Some((r, m.total_energy_j));
        }
    }
    let (best_r, _) = best.expect("at least one radius");
    for (r, m) in rows {
        println!(
            "{:>8.1} {:>7} {:>10.1} {:>10.1} {:>12.1}   {}",
            r,
            m.num_stops,
            m.tour_length_m.0,
            m.charge_time_s.0,
            m.total_energy_j.0,
            if r == best_r { "<== optimal" } else { "" }
        );
    }
    println!("\nPick r = {best_r} m for this deployment.");
}
