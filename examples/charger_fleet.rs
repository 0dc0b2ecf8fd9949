//! Charger fleet sizing: makespan vs energy as chargers are added.
//!
//! A single charger's round over a dense network can take hours — too
//! slow when sensors drain fast. This example sizes a fleet: the field
//! is partitioned among k chargers, each plans its region with BC-OPT,
//! and the fleet's makespan (slowest charger) is traded against the
//! extra energy of running several tours.
//!
//! ```text
//! cargo run --release --example charger_fleet [n_sensors]
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used)] // demo binary: panics are fine
use bundle_charging::core::{planner::Algorithm, try_plan_fleet};
use bundle_charging::prelude::*;

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .map(|a| a.parse().expect("n_sensors must be an integer"))
        .unwrap_or(150);
    let net = deploy::uniform(n, Aabb::square(400.0), 2.0, 77);
    let cfg = PlannerConfig::paper_sim(30.0);
    let speed = 1.0; // m/s

    println!("{n} sensors, 400 m x 400 m, bundle radius 30 m, BC-OPT per region\n");
    println!(
        "{:>9} {:>12} {:>14} {:>14} {:>18}",
        "chargers", "makespan", "fleet energy", "vs 1 charger", "per-charger stops"
    );
    let mut baseline: Option<(Seconds, Joules)> = None;
    for k in [1usize, 2, 3, 4, 6, 8] {
        let fleet = try_plan_fleet(&net, &cfg, Algorithm::BcOpt, k).expect("fleet planning");
        fleet
            .validate(&cfg.charging)
            .expect("fleet plans must be feasible");
        let makespan = fleet.makespan_s(speed);
        let energy = fleet.total_energy_j(&cfg.energy);
        let (m0, e0) = *baseline.get_or_insert((makespan, energy));
        let stops: Vec<String> = fleet
            .plans
            .iter()
            .map(|p| p.num_charging_stops().to_string())
            .collect();
        println!(
            "{:>9} {:>10.0} s {:>12.0} J {:>+12.1} % {:>18}",
            fleet.num_chargers(),
            makespan.0,
            energy.0,
            100.0 * (energy / e0 - 1.0),
            stops.join("+"),
        );
        let _ = m0;
    }
    println!(
        "\nMakespan collapses roughly linearly with fleet size while the \
         energy premium stays modest — the knob to turn when recharge \
         deadlines, not joules, are binding."
    );
}
