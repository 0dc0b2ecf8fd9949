//! Testbed replay: the Section VII office experiment, end to end.
//!
//! Recreates the paper's physical validation on the simulated rig: a
//! robot car with a 3 W Powercast TX91501 charges six P2110-equipped
//! sensors at the published coordinates of a 5 m x 5 m office. Plans from
//! SC, BC and BC-OPT are *executed* tick by tick — including
//! opportunistic harvesting and optional measurement noise — and the
//! realized ledgers are compared.
//!
//! ```text
//! cargo run --release --example testbed_office
//! ```

use bundle_charging::prelude::*;
use bundle_charging::testbed::{office_network, TestbedRig};

fn main() {
    let net = office_network();
    println!("office testbed: {} sensors in 5 m x 5 m", net.len());
    for s in net.sensors() {
        println!("  {s}");
    }

    println!(
        "\n{:>6} {:>12} {:>12} {:>12} {:>14}",
        "r (m)", "SC (J)", "BC (J)", "BC-OPT (J)", "BC-OPT saving"
    );
    for r in [0.25, 0.5, 0.8, 1.2, 1.6, 2.0] {
        let cfg = PlannerConfig::paper_testbed(r);
        let rig = TestbedRig::new(&net, &cfg);
        let e = |algo: Algorithm| {
            let plan = planner::try_run(algo, &net, &cfg).unwrap_or_else(|e| panic!("{algo}: {e}"));
            let rep = rig.execute(&plan);
            assert!(
                rep.all_fully_charged(),
                "a sensor was left undercharged at r = {r}"
            );
            rep.total_energy_j()
        };
        let sc = e(Algorithm::Sc);
        let bc = e(Algorithm::Bc);
        let opt = e(Algorithm::BcOpt);
        println!(
            "{:>6.2} {:>12.2} {:>12.2} {:>12.2} {:>13.1}%",
            r,
            sc,
            bc,
            opt,
            100.0 * (1.0 - opt / sc)
        );
    }

    // One noisy run: 10 % multiplicative harvest jitter.
    let cfg = PlannerConfig::paper_testbed(1.2);
    let plan =
        planner::try_run(Algorithm::BcOpt, &net, &cfg).unwrap_or_else(|e| panic!("BC-OPT: {e}"));
    let noisy = TestbedRig::new(&net, &cfg)
        .with_noise(0.10, 2024)
        .execute(&plan);
    println!(
        "\nnoisy replay at r = 1.2 m: worst sensor at {:.1}% of demand ({})",
        100.0 * noisy.fraction_charged().min(10.0),
        if noisy.all_fully_charged() {
            "fully charged"
        } else {
            "needs dwell margin"
        }
    );
    for (i, s) in noisy.sensors.iter().enumerate() {
        println!(
            "  s{i}: harvested {:7.4} J (demand {:.4} J)",
            s.harvested_j.0, s.demand_j.0
        );
    }
}
