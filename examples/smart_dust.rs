//! Smart dust: extreme density, where bundle charging shines.
//!
//! DARPA-style smart dust scatters hundreds of tiny sensors over a small
//! area (the paper's battlefield-monitoring motivation). At this density
//! a per-sensor tour is hopeless; bundle charging collapses hundreds of
//! stops into a handful. This example also demonstrates the lower-level
//! API: generating bundles directly, inspecting them, and assembling a
//! custom plan.
//!
//! ```text
//! cargo run --release --example smart_dust
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used)] // demo binary: panics are fine
use bundle_charging::prelude::*;

fn main() {
    // 300 motes over 120 m x 120 m — a mean of ~20 neighbours within 15 m.
    let net = deploy::uniform(300, Aabb::square(120.0), 2.0, 11);
    println!(
        "{} motes, 120 m x 120 m, mean neighbours within 15 m: {:.1}\n",
        net.len(),
        net.mean_neighbors(15.0)
    );

    // Lower-level API: generate the bundles ourselves and inspect them.
    let r = 15.0;
    let bundles = generate_bundles(&net, Meters(r), BundleStrategy::Greedy);
    let biggest = bundles.iter().map(ChargingBundle::len).max().unwrap();
    println!(
        "greedy bundle generation at r = {r} m: {} bundles (largest holds {} motes)",
        bundles.len(),
        biggest
    );
    let histogram = {
        let mut h = std::collections::BTreeMap::new();
        for b in &bundles {
            *h.entry(b.len()).or_insert(0usize) += 1;
        }
        h
    };
    for (size, count) in histogram {
        println!("  {count:3} bundle(s) with {size:2} mote(s)");
    }

    // Compare against the grid baseline on the same network.
    let grid = generate_bundles(&net, Meters(r), BundleStrategy::Grid);
    println!(
        "grid baseline produces {} bundles ({}% more stops)\n",
        grid.len(),
        100 * (grid.len() - bundles.len()) / bundles.len().max(1)
    );

    // Full planners on the dust field.
    let cfg = PlannerConfig::paper_sim(r);
    for algo in Algorithm::ALL {
        let plan = planner::try_run(algo, &net, &cfg)
            .unwrap_or_else(|e| panic!("{algo}: {e}"));
        plan.validate(&net, &cfg.charging).expect("feasible plan");
        let m = plan.metrics(&cfg.energy);
        println!(
            "{:7}  stops: {:3}  tour: {:7.1} m  energy: {:9.1} J  ({:.0}% of SC)",
            algo.name(),
            m.num_stops,
            m.tour_length_m.0,
            m.total_energy_j.0,
            100.0 * m.total_energy_j
                / planner::try_run(Algorithm::Sc, &net, &cfg)
                    .expect("planner rejected the input")
                    .metrics(&cfg.energy)
                    .total_energy_j,
        );
    }
}
