//! How many plans a DES run builds.
//!
//! A plan is a pure function of the network and the planner
//! configuration, and the engine's planned network never changes, so a
//! run builds one plan, however many staleness triggers and executor
//! replans `DesReport::replans` counts. Plans are counted as the
//! `plan.run` spans of a `StatsRecorder`.

use std::sync::Arc;

use bundle_charging::core::planner::Algorithm;
use bundle_charging::core::{FaultModel, RecoveryPolicy};
use bundle_charging::des::{clock, run, DesReport, QueueBackend, Scenario};
use bundle_charging::geom::Aabb;
use bundle_charging::obs::recorders::StatsRecorder;
use bundle_charging::wsn::deploy;

/// Runs `sc` under a deterministic stats recorder and returns the report
/// and the number of plans built.
fn plans_built(sc: &Scenario) -> (DesReport, u64) {
    let stats = Arc::new(StatsRecorder::deterministic());
    match bundle_charging::obs::with_local(stats.clone(), || run(sc)) {
        Ok(rep) => (rep, stats.snapshot().span_count("plan.run")),
        Err(e) => panic!("run failed: {e}"),
    }
}

/// The campaign's network and planner (n = 200 in 300 m, BC at
/// r = 10 m, the calendar queue) over one day, long enough to replan.
fn campaign_day(seed: u64) -> Scenario {
    let net = deploy::uniform(200, Aabb::square(300.0), 2.0, seed);
    let mut sc = Scenario::paper_sim(net, 10.0, Algorithm::Bc).with_queue(QueueBackend::Calendar);
    sc.horizon_s = clock::hours(24.0);
    sc
}

#[test]
fn a_clean_run_builds_one_plan() {
    let (rep, plans) = plans_built(&campaign_day(1));
    assert!(rep.replans > 0, "the run must replan");
    assert_eq!(plans, 1, "{} replans rebuilt the plan", rep.replans);
}

/// Every run plans once: the clean campaign day and a faulty one under
/// each recovery policy, on three seeds. The faulty runs lose sensors
/// and count replans, yet build no plan beyond the first.
#[test]
fn every_run_builds_one_plan() {
    for seed in 1..=3u64 {
        let clean = campaign_day(seed);
        let runs = std::iter::once(("clean", clean.clone())).chain(RecoveryPolicy::ALL.map(|p| {
            let sc = clean
                .clone()
                .with_faults(FaultModel::with_rate(seed, 0.2), p);
            (p.name(), sc)
        }));
        for (mode, sc) in runs {
            let (rep, plans) = plans_built(&sc);
            assert!(rep.replans > 0, "seed {seed} {mode}: the run must replan");
            if mode != "clean" {
                assert!(rep.fault_deaths > 0, "seed {seed} {mode}: no sensor died");
            }
            assert_eq!(
                plans, 1,
                "seed {seed} {mode}: {} replans built {plans} plans",
                rep.replans
            );
        }
    }
}
