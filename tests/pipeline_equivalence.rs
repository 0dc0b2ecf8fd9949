//! Acceptance tests for the staged planning pipeline: the pipeline must
//! reproduce the legacy one-shot planners bit-for-bit on the Section
//! VI-A default scenario, independent of the worker count, and a shared
//! [`PlanContext`] must build each expensive artifact exactly once no
//! matter how many algorithms consume it.

use bundle_charging::core::context::{ContextCache, PlanContext};
use bundle_charging::core::planner::{self, Algorithm};
use bundle_charging::core::{contracts, ChargingPlan, PlannerConfig};
use bundle_charging::geom::Aabb;
use bundle_charging::wsn::{deploy, Network};

/// Section VI-A default scenario: n = 100 sensors on a 300 m dense
/// field (see `bc_sim::figures` for the density note), r = 10 m.
const N_SENSORS: usize = 100;
const FIELD_SIDE_M: f64 = 300.0;
const RADIUS_M: f64 = 10.0;
const BASE_SEED: u64 = 1000;
const SEEDS: u64 = 10;

fn scenario(seed: u64) -> (Network, PlannerConfig) {
    let net = deploy::uniform(N_SENSORS, Aabb::square(FIELD_SIDE_M), 2.0, seed);
    (net, PlannerConfig::paper_sim(RADIUS_M))
}

fn legacy(algo: Algorithm, net: &Network, cfg: &PlannerConfig) -> ChargingPlan {
    match algo {
        Algorithm::Sc => planner::single_charging(net, cfg),
        Algorithm::Css => planner::css(net, cfg),
        Algorithm::Bc => planner::bundle_charging(net, cfg),
        Algorithm::BcOpt => planner::bundle_charging_opt(net, cfg),
    }
}

fn assert_plans_match(algo: Algorithm, seed: u64, reference: &ChargingPlan, got: &ChargingPlan) {
    // Identical stop order, then energy-bearing fields within 1e-9 J.
    assert_eq!(
        reference, got,
        "{algo} seed {seed}: pipeline plan differs from legacy planner"
    );
    for (a, b) in reference.stops.iter().zip(&got.stops) {
        assert!(
            (a.dwell.0 - b.dwell.0).abs() <= 1e-9,
            "{algo} seed {seed}: dwell drift {} vs {}",
            a.dwell.0,
            b.dwell.0
        );
    }
}

/// All four algorithms, ten seeds: the staged pipeline reproduces the
/// legacy planners exactly, with one worker and with many.
#[test]
fn pipeline_matches_legacy_on_default_scenario() {
    for seed in BASE_SEED..BASE_SEED + SEEDS {
        let (net, cfg) = scenario(seed);
        let serial = PlanContext::new(net.clone(), cfg.clone()).with_workers(1);
        let parallel = PlanContext::new(net.clone(), cfg.clone()).with_workers(8);
        for algo in Algorithm::ALL {
            let reference = legacy(algo, &net, &cfg);
            let one = serial.plan(algo).expect("serial pipeline").plan;
            let many = parallel.plan(algo).expect("parallel pipeline").plan;
            assert_plans_match(algo, seed, &reference, &one);
            assert_plans_match(algo, seed, &reference, &many);
        }
    }
}

/// One shared context serving all four algorithms builds the candidate
/// family, the distance matrix and the receive-power table exactly once.
#[test]
fn shared_context_builds_artifacts_once() {
    let (net, cfg) = scenario(BASE_SEED);
    let ctx = PlanContext::new(net, cfg);
    for algo in Algorithm::ALL {
        ctx.plan(algo).expect("pipeline plan");
    }
    assert_eq!(ctx.counters().candidate_builds(), 1, "candidate family rebuilt");
    assert_eq!(ctx.counters().matrix_builds(), 1, "distance matrix rebuilt");
    assert_eq!(ctx.counters().power_table_builds(), 1, "power table rebuilt");
}

/// A [`ContextCache`] advances its revision on every network mutation
/// and its counters accumulate one candidate build per revision that
/// planned a bundle algorithm.
#[test]
fn cache_revisions_track_network_mutations() {
    let (net, cfg) = scenario(BASE_SEED + 1);
    let mut cache = ContextCache::new(net, cfg);
    assert_eq!(cache.revision(), 0);
    let plan = cache.plan(Algorithm::Bc).expect("initial plan").plan;
    assert_eq!(cache.counters().candidate_builds(), 1);
    let plan2 = cache.remove_sensor(&plan, 0).expect("replan after removal");
    assert_eq!(cache.revision(), 1);
    contracts::check_cover(&plan2, cache.network()).expect("replan covers every sensor");
    // The next full plan on the new revision rebuilds once, not twice.
    cache.plan(Algorithm::Bc).expect("replan on revision 1");
    assert_eq!(cache.counters().candidate_builds(), 2);
}

/// The candidate family at n = 1000 on the same 300 m field (seed 1000,
/// r = 10 m): a pinned size, and the same family from one worker and
/// from two. A change to enumeration or domination pruning that alters
/// the family shows here before it shows in any plan.
#[test]
fn candidate_family_at_n1000_is_pinned_and_worker_invariant() {
    let net = deploy::uniform(1000, Aabb::square(FIELD_SIDE_M), 2.0, BASE_SEED);
    let cfg = PlannerConfig::paper_sim(RADIUS_M);
    let serial = PlanContext::new(net.clone(), cfg.clone()).with_workers(1);
    let parallel = PlanContext::new(net, cfg).with_workers(2);
    assert_eq!(serial.candidates().len(), 1298);
    assert_eq!(
        serial.candidates().candidates,
        parallel.candidates().candidates,
        "the family must not depend on the worker count"
    );
}
