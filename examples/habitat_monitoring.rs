//! Habitat monitoring: clustered deployments, the workload bundle
//! charging is built for.
//!
//! The paper's introduction motivates dense pockets of sensors (jungle
//! habitat monitoring, DARPA smart dust). Sensors cluster around points
//! of interest — water holes, nests, trails — and a mobile charger
//! refuels them periodically. This example shows how the advantage of
//! bundle charging over per-sensor charging widens as deployments get
//! more clustered.
//!
//! ```text
//! cargo run --release --example habitat_monitoring
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used)] // demo binary: panics are fine
use bundle_charging::prelude::*;

fn main() {
    let field = Aabb::square(600.0);
    let n = 120;
    let demand = 2.0;
    let cfg = PlannerConfig::paper_sim(30.0);

    println!("{n} sensors, 600 m x 600 m reserve, bundle radius 30 m\n");
    println!(
        "{:<28} {:>9} {:>9} {:>10} {:>10} {:>8}",
        "deployment", "SC (J)", "BC-OPT (J)", "saving", "stops", "tour (m)"
    );

    // From fully spread out to tightly clustered around 6 waterholes.
    let scenarios: Vec<(String, Network)> = vec![
        (
            "uniform (spread out)".into(),
            deploy::uniform(n, field, demand, 7),
        ),
        (
            "12 loose clusters".into(),
            deploy::clusters(n, 12, 40.0, field, demand, 7),
        ),
        (
            "6 clusters".into(),
            deploy::clusters(n, 6, 25.0, field, demand, 7),
        ),
        (
            "6 tight clusters".into(),
            deploy::clusters(n, 6, 10.0, field, demand, 7),
        ),
    ];

    for (name, net) in scenarios {
        let sc = planner::try_run(Algorithm::Sc, &net, &cfg).expect("planner rejected the input");
        let opt =
            planner::try_run(Algorithm::BcOpt, &net, &cfg).expect("planner rejected the input");
        opt.validate(&net, &cfg.charging).expect("feasible plan");
        let e_sc = sc.metrics(&cfg.energy).total_energy_j;
        let m = opt.metrics(&cfg.energy);
        println!(
            "{:<28} {:>9.0} {:>9.0} {:>9.1}% {:>7}/{:<3} {:>8.0}",
            name,
            e_sc,
            m.total_energy_j,
            100.0 * (1.0 - m.total_energy_j / e_sc),
            m.num_stops,
            n,
            m.tour_length_m,
        );
    }

    println!(
        "\nThe tighter the clusters, the fewer stops the charger needs and \
         the larger the energy saving over per-sensor charging."
    );
}
