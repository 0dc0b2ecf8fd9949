//! Degenerate and adversarial inputs: the planner stack must stay
//! correct when geometry collapses.

use bundle_charging::prelude::*;
use bundle_charging::testbed::TestbedRig;

fn assert_all_feasible(net: &Network, cfg: &PlannerConfig) {
    for algo in Algorithm::ALL {
        let plan = planner::try_run(algo, net, cfg)
            .unwrap_or_else(|e| panic!("{algo}: {e}"));
        plan.validate(net, &cfg.charging)
            .unwrap_or_else(|e| panic!("{algo}: {e}"));
    }
}

#[test]
fn single_sensor() {
    let net = deploy::from_coords(&[(50.0, 50.0)], Aabb::square(100.0), 2.0);
    assert_all_feasible(&net, &PlannerConfig::paper_sim(10.0));
}

#[test]
fn two_coincident_sensors() {
    let net = deploy::from_coords(&[(5.0, 5.0), (5.0, 5.0)], Aabb::square(10.0), 2.0);
    let cfg = PlannerConfig::paper_sim(3.0);
    assert_all_feasible(&net, &cfg);
    // They must share one bundle at any positive radius.
    let bundles = generate_bundles(&net, Meters(0.5), BundleStrategy::Greedy);
    assert_eq!(bundles.len(), 1);
}

#[test]
fn many_duplicates() {
    let coords = vec![(10.0, 10.0); 25];
    let net = deploy::from_coords(&coords, Aabb::square(20.0), 2.0);
    let cfg = PlannerConfig::paper_sim(5.0);
    let plan = planner::try_run(Algorithm::Bc, &net, &cfg).unwrap();
    assert_eq!(plan.num_charging_stops(), 1);
    assert!(plan.validate(&net, &cfg.charging).is_ok());
}

#[test]
fn collinear_sensors() {
    let coords: Vec<(f64, f64)> = (0..30).map(|i| (i as f64 * 10.0, 50.0)).collect();
    let net = deploy::from_coords(&coords, Aabb::square(300.0), 2.0);
    for r in [1.0, 12.0, 100.0] {
        assert_all_feasible(&net, &PlannerConfig::paper_sim(r));
    }
}

#[test]
fn sensors_on_field_corners() {
    let net = deploy::from_coords(
        &[(0.0, 0.0), (300.0, 0.0), (0.0, 300.0), (300.0, 300.0)],
        Aabb::square(300.0),
        2.0,
    );
    assert_all_feasible(&net, &PlannerConfig::paper_sim(20.0));
}

#[test]
fn zero_demand_sensors_need_no_dwell() {
    let net = deploy::from_coords(&[(1.0, 1.0), (2.0, 2.0)], Aabb::square(10.0), 0.0);
    let cfg = PlannerConfig::paper_sim(5.0);
    let plan = planner::try_run(Algorithm::Bc, &net, &cfg).unwrap();
    assert!(plan.validate(&net, &cfg.charging).is_ok());
    assert_eq!(plan.total_dwell(), Seconds(0.0));
}

#[test]
fn mixed_demands_respected() {
    // One sensor demands 10x the energy; the shared dwell must cover it.
    let mut sensors = vec![
        Sensor::new(SensorId(0), bundle_charging::geom::Point::new(10.0, 10.0), 2.0),
        Sensor::new(SensorId(1), bundle_charging::geom::Point::new(12.0, 10.0), 20.0),
    ];
    sensors.push(Sensor::new(
        SensorId(2),
        bundle_charging::geom::Point::new(11.0, 11.0),
        0.5,
    ));
    let net = Network::new(sensors, Aabb::square(50.0), bundle_charging::geom::Point::ORIGIN);
    let cfg = PlannerConfig::paper_sim(5.0);
    let plan = planner::try_run(Algorithm::Bc, &net, &cfg).unwrap();
    plan.validate(&net, &cfg.charging).unwrap();
    // The dwell is driven by the heavy sensor, not the average.
    let stop = &plan.stops[0];
    let d = stop.bundle.member_distance(1, &net);
    assert!(cfg.charging.delivered_energy(d, stop.dwell) >= Joules(20.0 - 1e-9));
}

#[test]
fn giant_radius_single_stop() {
    let net = deploy::uniform(50, Aabb::square(100.0), 2.0, 3);
    let cfg = PlannerConfig::paper_sim(1e4);
    let plan = planner::try_run(Algorithm::Bc, &net, &cfg).unwrap();
    assert_eq!(plan.num_charging_stops(), 1);
    assert!(plan.validate(&net, &cfg.charging).is_ok());
}

#[test]
fn noisy_rig_with_dwell_margin_still_charges() {
    // A 15% dwell safety margin absorbs 10% multiplicative noise.
    let net = deploy::uniform(10, Aabb::square(50.0), 2.0, 17);
    let cfg = PlannerConfig::paper_sim(10.0);
    let mut plan = planner::try_run(Algorithm::Bc, &net, &cfg).unwrap();
    for stop in &mut plan.stops {
        stop.dwell = stop.dwell * 1.15;
    }
    let report = TestbedRig::new(&net, &cfg)
        .with_noise(0.10, 99)
        .with_tick(1.0)
        .execute(&plan);
    assert!(
        report.all_fully_charged(),
        "worst fraction {}",
        report.fraction_charged()
    );
}

#[test]
fn css_handles_chain_topology() {
    // A long chain where Combine merges pairs and Skip can fire.
    let coords: Vec<(f64, f64)> = (0..12).map(|i| (i as f64 * 8.0, 0.0)).collect();
    let net = deploy::from_coords(&coords, Aabb::square(100.0), 2.0);
    let cfg = PlannerConfig::paper_sim(9.0);
    let plan = planner::try_run(Algorithm::Css, &net, &cfg).unwrap();
    plan.validate(&net, &cfg.charging).unwrap();
    assert!(plan.num_charging_stops() < 12, "no combining happened");
}

/// Same (plan, fault seed, policy) -> byte-identical execution reports:
/// the fault schedule is a pure function of the seed, never of wall
/// clock or iteration order.
#[test]
fn execution_reports_are_byte_identical() {
    let net = deploy::uniform(30, Aabb::square(200.0), 2.0, 11);
    let cfg = PlannerConfig::paper_sim(20.0);
    let plan = planner::try_run(Algorithm::BcOpt, &net, &cfg).unwrap();
    let faults = FaultModel::with_rate(42, 0.3);
    for policy in RecoveryPolicy::ALL {
        let exec = Executor::new(&net, &cfg).with_policy(policy);
        let a = exec.execute(&plan, &faults, 7).unwrap();
        let b = exec.execute(&plan, &faults, 7).unwrap();
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "{policy} not deterministic");
    }
}

/// Bad inputs surface as typed errors at every layer instead of panics:
/// planner config, per-sensor demand, and the fault model itself.
#[test]
fn bad_inputs_are_typed_errors_at_every_layer() {
    let net = deploy::uniform(10, Aabb::square(100.0), 2.0, 3);
    let cfg = PlannerConfig::paper_sim(15.0);
    let plan = planner::try_run(Algorithm::Bc, &net, &cfg).unwrap();

    let mut bad_cfg = cfg.clone();
    bad_cfg.bundle_radius = Meters(f64::NAN);
    assert!(matches!(
        planner::try_run(Algorithm::Bc, &net, &bad_cfg),
        Err(PlanError::Config(ConfigError::BadBundleRadius { .. }))
    ));
    assert!(matches!(
        Executor::new(&net, &bad_cfg).execute(&plan, &FaultModel::none(), 0),
        Err(ExecError::Config(ConfigError::BadBundleRadius { .. }))
    ));

    let bad_faults = FaultModel {
        death_prob: 1.5,
        ..FaultModel::none()
    };
    let err = Executor::new(&net, &cfg)
        .execute(&plan, &bad_faults, 0)
        .unwrap_err();
    assert!(matches!(err, ExecError::Faults(_)), "got {err}");
    // The messages name the offending field and value.
    assert!(err.to_string().contains("death_prob"), "got {err}");
}

/// A fault-free model reproduces the planner's own metrics exactly, for
/// every algorithm.
#[test]
fn clean_execution_matches_plan_metrics() {
    let net = deploy::uniform(25, Aabb::square(150.0), 2.0, 21);
    let cfg = PlannerConfig::paper_sim(20.0);
    for algo in Algorithm::ALL {
        let plan = planner::try_run(algo, &net, &cfg).unwrap();
        let m = plan.metrics(&cfg.energy);
        let rep = Executor::new(&net, &cfg)
            .execute(&plan, &FaultModel::none(), 0)
            .unwrap();
        assert!(
            (rep.total_energy_j - m.total_energy_j).abs() < Joules(1e-6),
            "{algo}: executed {} vs planned {}",
            rep.total_energy_j,
            m.total_energy_j
        );
        assert!(rep.extra_energy_j.abs() < Joules(1e-9), "{algo}: {}", rep.extra_energy_j);
        assert!(rep.stranded.is_empty() && rep.fault_deaths.is_empty(), "{algo}");
    }
}
