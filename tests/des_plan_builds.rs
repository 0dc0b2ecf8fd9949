//! How many plans a DES run builds.
//!
//! A plan is a pure function of the network and the planner
//! configuration, so the engine plans afresh only when its context's
//! revision has moved since the held plan was planned fresh. A clean run
//! never moves the revision: it builds one plan, however many staleness
//! triggers `DesReport::replans` counts. A faulty fleet removes dead
//! sensors before it replans, so it builds more, but never more than one
//! per trigger beyond the first plan. Plans are counted as the `plan.run`
//! spans of a `StatsRecorder`.

use std::sync::Arc;

use bundle_charging::core::planner::Algorithm;
use bundle_charging::core::{FaultModel, RecoveryPolicy};
use bundle_charging::des::{clock, run, DesReport, DispatchPolicy, QueueBackend, Scenario};
use bundle_charging::geom::Aabb;
use bundle_charging::obs::recorders::StatsRecorder;
use bundle_charging::units::Seconds;
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
    for fleet in [1usize, 3] {
        let sc = campaign_day(1).with_fleet(fleet, DispatchPolicy::NearestIdle);
        let (rep, plans) = plans_built(&sc);
        assert!(rep.replans > 0, "{fleet} charger(s): the run must replan");
        assert_eq!(
            plans, 1,
            "{fleet} charger(s): {} replans rebuilt the plan",
            rep.replans
        );
    }
}

/// One cell of `FAULTY_FLEET_GOLDEN`'s grid in `tests/des_determinism.rs`:
/// each death moves the revision, so a later trigger plans again.
#[test]
fn a_faulty_fleet_plans_again_after_deaths() {
    let net = deploy::uniform(40, Aabb::square(200.0), 2.0, 1);
    let mut sc = Scenario::paper_sim(net, 25.0, Algorithm::Bc)
        .with_fleet(2, DispatchPolicy::NearestIdle)
        .with_faults(
            FaultModel::with_rate(1, 0.3),
            RecoveryPolicy::SkipAndContinue,
        );
    sc.horizon_s = Seconds(12.0 * 3600.0);
    let (rep, plans) = plans_built(&sc);
    assert!(rep.fault_deaths > 0, "the run must lose sensors");
    let most = u64::try_from(rep.replans).expect("replans fit u64") + 1;
    assert!(
        1 < plans && plans <= most,
        "{plans} plans for {} replans",
        rep.replans
    );
}
