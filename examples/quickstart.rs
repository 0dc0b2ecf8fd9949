//! Quickstart: deploy a network, plan a bundle-charging tour, inspect it.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used)] // demo binary: panics are fine
use bundle_charging::prelude::*;

fn main() {
    // 60 rechargeable sensors, uniformly deployed over a 300 m x 300 m
    // field, each demanding 2 J per charging round (the paper's
    // simulation setting).
    let net = deploy::uniform(60, Aabb::square(300.0), 2.0, 42);
    println!("deployed: {net}");

    // Configure the planner with the paper's charging and energy models
    // and a 25 m bundle radius.
    let cfg = PlannerConfig::paper_sim(25.0);

    // Compare the naive per-sensor tour with bundle charging.
    for algo in Algorithm::ALL {
        let plan = planner::try_run(algo, &net, &cfg)
            .unwrap_or_else(|e| panic!("{algo}: {e}"));
        plan.validate(&net, &cfg.charging)
            .expect("planner produced an infeasible plan");
        let m = plan.metrics(&cfg.energy);
        println!(
            "{:7}  stops: {:3}  tour: {:7.1} m  charge: {:7.1} s  energy: {:8.1} J",
            algo.name(),
            m.num_stops,
            m.tour_length_m.0,
            m.charge_time_s.0,
            m.total_energy_j.0,
        );
    }

    // Inspect the winning plan's stops.
    let plan = planner::try_run(Algorithm::BcOpt, &net, &cfg).expect("planner rejected the input");
    println!("\nBC-OPT itinerary:");
    for (i, stop) in plan.stops.iter().enumerate() {
        println!(
            "  #{:<2} park at {}  charge {:2} sensor(s) for {:6.1} s",
            i,
            stop.anchor(),
            stop.bundle.len(),
            stop.dwell.0,
        );
    }
}
