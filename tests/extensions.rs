//! Integration coverage of the beyond-paper extensions working together:
//! tightening + sorties + fleets + replanning + alternative laws +
//! lifetime + self-checks.

use bundle_charging::core::{planner, split_into_sorties, tighten, try_plan_fleet, PlanContext};
use bundle_charging::des::Scenario;
use bundle_charging::prelude::*;
use bundle_charging::wpt::{ChargingModel, Law};

/// Tighten, then split into sorties: the tightened plan's sorties remain
/// within budget and the whole pipeline stays feasible under cross-credit
/// semantics.
#[test]
fn tighten_then_sortie_pipeline() {
    let net = deploy::uniform(80, Aabb::square(250.0), 2.0, 3);
    let cfg = PlannerConfig::paper_sim(25.0);
    let mut plan = planner::try_run(Algorithm::BcOpt, &net, &cfg).unwrap();
    let rep = tighten::tighten_dwells(&mut plan, &net, &cfg.charging, 50);
    assert!(rep.saving() > 0.0);
    tighten::validate_cross_credit(&plan, &net, &cfg.charging).unwrap();

    let single = split_into_sorties(&plan, net.base(), &cfg.energy, f64::MAX / 2.0).unwrap();
    let floor = plan
        .stops
        .iter()
        .map(|s| {
            cfg.energy
                .total_energy(Meters(2.0 * net.base().distance(s.anchor())), s.dwell)
        })
        .fold(Joules(0.0), Joules::max);
    let budget = (single.total_energy_j / 2.0).max(floor * 1.05);
    let sp = split_into_sorties(&plan, net.base(), &cfg.energy, budget.0).unwrap();
    assert!(sp.max_sortie_energy_j() <= budget + Joules(1e-6));
    assert!(!sp.is_empty());
}

/// Fleet planning composes with tightening per region.
#[test]
fn fleet_regions_can_be_tightened() {
    let net = deploy::uniform(90, Aabb::square(300.0), 2.0, 8);
    let cfg = PlannerConfig::paper_sim(25.0);
    let mut fleet = try_plan_fleet(&net, &cfg, Algorithm::Bc, 3).unwrap();
    for (plan, region) in fleet.plans.iter_mut().zip(&fleet.regions) {
        let rep = tighten::tighten_dwells(plan, region, &cfg.charging, 40);
        assert!(rep.dwell_after_s <= rep.dwell_before_s + Seconds(1e-9));
        tighten::validate_cross_credit(plan, region, &cfg.charging).unwrap();
    }
}

/// Replanning churn composed with a different attenuation law.
#[test]
fn replan_under_linear_law() {
    let mut cfg = PlannerConfig::paper_sim(25.0);
    // A linear law with comparable near-field power and 150 m support.
    cfg.charging = ChargingModel::with_law(
        Law::Linear {
            p0: 0.04,
            slope: 0.04 / 150.0,
        },
        1.0,
    );
    let net = deploy::uniform(40, Aabb::square(200.0), 2.0, 5);
    let plan = planner::try_run(Algorithm::Bc, &net, &cfg).unwrap();
    plan.validate(&net, &cfg.charging).unwrap();

    let mut ctx = PlanContext::new(net, cfg.clone());
    let plan2 = ctx.add_sensor(&plan, Point::new(10.0, 10.0), 2.0).unwrap();
    plan2.validate(ctx.network(), &cfg.charging).unwrap();
    let plan3 = ctx.remove_sensor(&plan2, 0).unwrap();
    plan3.validate(ctx.network(), &cfg.charging).unwrap();
    assert_eq!(ctx.network().len(), 40);
}

/// The whole planner stack under a table-calibrated law.
#[test]
fn planners_under_table_law() {
    let mut cfg = PlannerConfig::paper_sim(20.0);
    cfg.charging = ChargingModel::from_table(
        &[(0.0, 0.05), (10.0, 0.02), (50.0, 0.005), (400.0, 0.0005)],
        1.0,
    );
    let net = deploy::uniform(35, Aabb::square(250.0), 2.0, 12);
    for algo in Algorithm::ALL {
        let plan = planner::try_run(algo, &net, &cfg).unwrap();
        plan.validate(&net, &cfg.charging)
            .unwrap_or_else(|e| panic!("{algo} under table law: {e}"));
    }
}

/// BC-OPT under a linear law of 20 m support at r = 10 m: a sweep radius
/// that would carry a member out of reach costs an infinite dwell, and it
/// must offer no relocation rather than panic.
#[test]
fn bc_opt_plans_under_a_finite_support_law() {
    let mut cfg = PlannerConfig::paper_sim(10.0);
    cfg.charging = ChargingModel::linear(0.04, 0.002, 1.0);
    cfg.validate().unwrap();
    let net = deploy::uniform(100, Aabb::square(300.0), 2.0, 5);
    let bc = planner::try_run(Algorithm::Bc, &net, &cfg).unwrap();
    let opt = planner::try_run(Algorithm::BcOpt, &net, &cfg).unwrap();
    opt.validate(&net, &cfg.charging).unwrap();
    let energy = |plan: &ChargingPlan| plan.metrics(&cfg.energy).total_energy_j;
    assert!(
        energy(&opt) <= energy(&bc),
        "{} > {}",
        energy(&opt),
        energy(&bc)
    );
}

/// Lifetime simulation agrees with single-round accounting: one round's
/// charger energy matches the plan metrics (up to the round boundary).
#[test]
fn lifetime_single_round_energy_consistent() {
    let net = deploy::uniform(25, Aabb::square(150.0), 2.0, 9);
    let mut sc = Scenario::paper_sim(net.clone(), 25.0, Algorithm::Bc);
    // Exactly one round fits the horizon: trigger immediately, then end.
    sc.trigger_level_j = sc.battery_j; // everyone is "low" at t = 0
    sc.trigger_count = 1;
    let plan = planner::try_run(
        Algorithm::Bc,
        &{
            let sensors: Vec<_> = net
                .sensors()
                .iter()
                .map(|s| bundle_charging::wsn::Sensor::new(s.id, s.pos, sc.battery_j.0))
                .collect();
            Network::new(sensors, net.field(), net.base())
        },
        &sc.planner,
    )
    .unwrap();
    // End the horizon a hair before the round completes so a second
    // round can never start (the freshly charged network is instantly
    // "low" again at this trigger level).
    let round_time = plan.tour_length() / sc.speed_mps + plan.total_dwell();
    sc.horizon_s = round_time - Seconds(0.5);
    let rep = bundle_charging::des::run(&sc).unwrap();
    assert_eq!(rep.rounds, 1);
    let expected = plan.metrics(&sc.planner.energy).total_energy_j;
    assert!(
        (rep.charger_energy_j - expected).abs() / expected < 0.01,
        "lifetime {} vs plan {}",
        rep.charger_energy_j,
        expected
    );
}

/// SVG and HTML artifact generation work end to end on a real plan.
#[test]
fn artifact_generation() {
    use bundle_charging::sim::{html, svg};
    let net = deploy::uniform(15, Aabb::square(100.0), 2.0, 2);
    let cfg = PlannerConfig::paper_sim(20.0);
    let plan = planner::try_run(Algorithm::Bc, &net, &cfg).unwrap();
    let image = svg::render_scene(&net, Some(&plan), None, &svg::SvgStyle::default());
    let mut table = bundle_charging::sim::Table::new("metrics", &["stops", "energy"]);
    let m = plan.metrics(&cfg.energy);
    table.push_row(&[m.num_stops as f64, m.total_energy_j.0]);
    let page = html::render_report("artifact test", &[table], &[("tour".into(), image)]);
    assert!(page.contains("<svg"));
    assert!(page.contains("metrics"));
}
