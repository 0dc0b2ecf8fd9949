//! End-to-end pipelines across every crate: deploy -> generate bundles ->
//! plan -> validate -> account energy -> execute on the testbed rig.

use bundle_charging::prelude::*;
use bundle_charging::testbed::TestbedRig;

/// Every algorithm, every deployment style: the plan must be feasible and
/// the metrics self-consistent.
#[test]
fn all_algorithms_feasible_on_varied_deployments() {
    let field = Aabb::square(400.0);
    let nets = [
        deploy::uniform(70, field, 2.0, 1),
        deploy::clusters(70, 5, 15.0, field, 2.0, 2),
        deploy::perturbed_grid(8, 9, field, 10.0, 2.0, 3),
    ];
    for (ni, net) in nets.iter().enumerate() {
        for r in [10.0, 40.0] {
            let cfg = PlannerConfig::paper_sim(r);
            for algo in Algorithm::ALL {
                let plan = planner::try_run(algo, net, &cfg).unwrap();
                plan.validate(net, &cfg.charging)
                    .unwrap_or_else(|e| panic!("net {ni}, r {r}, {algo}: {e}"));
                let m = plan.metrics(&cfg.energy);
                assert!(
                    (m.total_energy_j - m.move_energy_j - m.charge_energy_j).abs() < Joules(1e-6)
                );
                assert!(m.tour_length_m >= Meters(0.0) && m.charge_time_s > Seconds(0.0));
            }
        }
    }
}

/// The paper's headline ordering at the dense evaluation point.
#[test]
fn energy_ordering_at_dense_point() {
    let mut sc_total = Joules(0.0);
    let mut bc_total = Joules(0.0);
    let mut opt_total = Joules(0.0);
    for seed in 0..5u64 {
        let net = deploy::uniform(150, Aabb::square(300.0), 2.0, seed);
        let cfg = PlannerConfig::paper_sim(30.0);
        let e = |a| {
            planner::try_run(a, &net, &cfg).unwrap()
                .metrics(&cfg.energy)
                .total_energy_j
        };
        sc_total += e(Algorithm::Sc);
        bc_total += e(Algorithm::Bc);
        opt_total += e(Algorithm::BcOpt);
    }
    assert!(opt_total <= bc_total + Joules(1e-6), "BC-OPT must not lose to BC");
    assert!(bc_total < sc_total * 0.75, "bundling should save >25% here");
}

/// Plans composed from manually generated bundles match the planner's
/// accounting, exercising the lower-level API the README documents.
#[test]
fn manual_bundle_plan_matches_bc() {
    let net = deploy::uniform(40, Aabb::square(300.0), 2.0, 9);
    let cfg = PlannerConfig::paper_sim(25.0);
    let bundles = generate_bundles(&net, Meters(25.0), BundleStrategy::Greedy);
    let total_sensors: usize = bundles.iter().map(ChargingBundle::len).sum();
    assert_eq!(total_sensors, 40);
    // Dwell of each bundle must charge its farthest member exactly.
    for b in &bundles {
        let dwell = b.dwell_time(&net, &cfg.charging);
        let worst = b
            .sensors
            .iter()
            .map(|&s| b.member_distance(s, &net))
            .fold(Meters(0.0), Meters::max);
        assert!((dwell - cfg.charging.charge_time(worst, Joules(2.0))).abs() < Seconds(1e-9));
    }
}

/// Simulation plans can be executed on the discrete-event rig, and the
/// realized ledger agrees with the planner's prediction.
#[test]
fn rig_execution_matches_plan_prediction() {
    let net = deploy::uniform(25, Aabb::square(100.0), 2.0, 5);
    let cfg = PlannerConfig::paper_sim(20.0);
    let plan = planner::try_run(Algorithm::BcOpt, &net, &cfg).unwrap();
    let report = TestbedRig::new(&net, &cfg).with_tick(0.5).execute(&plan);
    let m = plan.metrics(&cfg.energy);
    assert!((report.driven_m - m.tour_length_m).abs() < Meters(1e-6));
    assert!((report.charge_time_s - m.charge_time_s).abs() < Seconds(1e-6));
    assert!((report.total_energy_j() - m.total_energy_j).abs() < Joules(1e-6));
    assert!(report.all_fully_charged());
}

/// Radius monotonicity: more generous radii never need more greedy
/// bundles, and SC is invariant to the radius.
#[test]
fn radius_monotonicity_and_sc_invariance() {
    let net = deploy::uniform(60, Aabb::square(300.0), 2.0, 13);
    let mut last_stops = usize::MAX;
    let mut sc_energy: Option<Joules> = None;
    for r in [5.0, 15.0, 30.0, 60.0] {
        let cfg = PlannerConfig::paper_sim(r);
        let bc = planner::try_run(Algorithm::Bc, &net, &cfg).unwrap();
        assert!(bc.num_charging_stops() <= last_stops);
        last_stops = bc.num_charging_stops();
        let sc = planner::try_run(Algorithm::Sc, &net, &cfg)
            .unwrap()
            .metrics(&cfg.energy)
            .total_energy_j;
        if let Some(prev) = sc_energy {
            assert!((sc - prev).abs() < Joules(1e-9));
        }
        sc_energy = Some(sc);
    }
}

/// The include_base option adds a way-point without breaking feasibility
/// and never shortens the tour.
#[test]
fn base_station_inclusion() {
    let net = deploy::uniform(30, Aabb::square(300.0), 2.0, 21);
    let cfg = PlannerConfig::paper_sim(25.0);
    let mut with_base = cfg.clone();
    with_base.include_base = true;
    let p0 = planner::try_run(Algorithm::Bc, &net, &cfg).unwrap();
    let p1 = planner::try_run(Algorithm::Bc, &net, &with_base).unwrap();
    assert!(p1.validate(&net, &cfg.charging).is_ok());
    assert_eq!(p1.stops.len(), p0.stops.len() + 1);
    assert_eq!(p1.num_charging_stops(), p0.num_charging_stops());
}
