//! Fault drill: execute one charging round under injected faults.
//!
//! Plans a BC-OPT tour, then steps it through the fault-injecting
//! executor with a mid-range fault rate and compares the three recovery
//! policies on the same fault schedule: what each one costs in extra
//! energy and recovery time, and who gets left behind.
//!
//! ```text
//! cargo run --release --example fault_drill
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used)] // demo binary: panics are fine
use bundle_charging::prelude::*;

fn main() {
    let net = deploy::uniform(40, Aabb::square(300.0), 2.0, 9);
    let cfg = PlannerConfig::paper_sim(20.0);
    let plan = planner::try_run(Algorithm::BcOpt, &net, &cfg).expect("planner rejected the input");
    let nominal = plan.metrics(&cfg.energy);
    println!(
        "40 sensors, 300 m x 300 m; nominal tour: {} stops, {:.0} J\n",
        nominal.num_stops, nominal.total_energy_j.0
    );

    let faults = FaultModel::with_rate(42, 0.3);
    println!(
        "{:>16} {:>11} {:>11} {:>9} {:>8} {:>8} {:>6}",
        "policy", "energy (J)", "extra (J)", "latency", "served", "strand", "dead"
    );
    for policy in RecoveryPolicy::ALL {
        let rep = Executor::new(&net, &cfg)
            .with_policy(policy)
            .execute(&plan, &faults, 0)
            .unwrap_or_else(|e| panic!("{policy}: {e}"));
        println!(
            "{:>16} {:>11.0} {:>11.0} {:>8.0} s {:>8} {:>8} {:>6}",
            policy.name(),
            rep.total_energy_j.0,
            rep.extra_energy_j.0,
            rep.recovery_latency_s.0,
            rep.served.len(),
            rep.stranded.len(),
            rep.fault_deaths.len(),
        );
    }

    // The same schedule always plays out identically — a drill can be
    // replayed exactly for postmortems.
    let again = Executor::new(&net, &cfg)
        .execute(&plan, &faults, 0)
        .unwrap();
    let first = Executor::new(&net, &cfg)
        .execute(&plan, &faults, 0)
        .unwrap();
    assert_eq!(format!("{first:?}"), format!("{again:?}"));
    println!("\nreplay check: same seed, byte-identical report");
}
