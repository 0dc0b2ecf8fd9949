//! Acceptance tests for the staged planning pipeline: the pipeline must
//! reproduce the pinned plans of the retired one-shot planners on the
//! Section VI-A default scenario, independent of the worker count, and a
//! shared [`PlanContext`] must build each expensive artifact exactly once no
//! matter how many algorithms consume it.

use bundle_charging::core::context::{ContextCache, PlanContext};
use bundle_charging::core::planner::Algorithm;
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

/// `seed algorithm stops member_hash total_energy_j tour_length_m` for
/// every seed × algorithm, captured from the one-shot planners
/// (`single_charging`, `css`, `bundle_charging`, `bundle_charging_opt`)
/// before they were retired in favour of the staged pipeline.
const GOLDEN: [&str; 40] = [
    "1000 SC 100 a9392b9fd1b03165 18160.111 2340.807",
    "1000 CSS 63 19e5713d35e20e45 15162.882 1779.294",
    "1000 BC 63 c5975ab390fa5fa3 15740.414 2118.221",
    "1000 BC-OPT 63 c5975ab390fa5fa3 14351.037 1504.992",
    "1001 SC 100 b0d4c04e48937765 17911.302 2296.297",
    "1001 CSS 65 1cf250f3b8a2e0a5 15169.514 1748.554",
    "1001 BC 63 4e6b65531ec2a567 15425.968 2041.766",
    "1001 BC-OPT 63 4e6b65531ec2a567 14048.153 1442.709",
    "1002 SC 100 9276bc8cad47fb25 17728.267 2263.554",
    "1002 CSS 58 c2c20c7b84ff5067 14614.747 1709.332",
    "1002 BC 57 92ea8d52c228c345 14810.407 1967.718",
    "1002 BC-OPT 57 92ea8d52c228c345 13707.581 1485.421",
    "1003 SC 100 3ee3c59e1e2ddf25 19930.268 2657.472",
    "1003 CSS 68 0884eb4df1db4787 17114.051 2040.410",
    "1003 BC 69 a97781d1603783a7 17627.597 2398.434",
    "1003 BC-OPT 69 a97781d1603783a7 16447.004 1830.046",
    "1004 SC 100 6dffbc853a53d4a5 18873.458 2468.418",
    "1004 CSS 70 78db6d6956c98c25 15935.701 1776.277",
    "1004 BC 69 e34d7d0ef9ade7a5 17472.618 2386.912",
    "1004 BC-OPT 69 e34d7d0ef9ade7a5 16033.535 1770.412",
    "1005 SC 100 cacd15b6014f60e5 18787.358 2453.016",
    "1005 CSS 67 c7710546ded524a1 15848.618 1827.412",
    "1005 BC 67 e34b690749f22fa3 16646.943 2259.266",
    "1005 BC-OPT 67 e34b690749f22fa3 15526.920 1731.096",
    "1006 SC 100 a912b007f2f86965 18939.548 2480.241",
    "1006 CSS 68 422586dfbdfb7f05 15462.483 1736.247",
    "1006 BC 68 af3b9e946f925667 16150.506 2161.481",
    "1006 BC-OPT 68 af3b9e946f925667 14768.178 1561.869",
    "1007 SC 100 847d012ded563a65 18283.829 2362.939",
    "1007 CSS 61 37f684b770a94361 15409.899 1810.407",
    "1007 BC 63 82502377ed07e381 16555.390 2254.804",
    "1007 BC-OPT 63 82502377ed07e381 15484.586 1762.824",
    "1008 SC 100 c167035d09fd6925 17695.621 2257.714",
    "1008 CSS 59 9784f1a3f327db63 14671.119 1725.974",
    "1008 BC 59 b8a2a547c2ce5c23 15696.950 2152.940",
    "1008 BC-OPT 59 b8a2a547c2ce5c23 14431.396 1604.532",
    "1009 SC 100 d1e2f008762bd925 18965.242 2484.837",
    "1009 CSS 69 3a0783eeb3baf941 16200.812 1838.751",
    "1009 BC 66 81253b0e1405a125 16587.325 2237.487",
    "1009 BC-OPT 66 81253b0e1405a125 14770.566 1467.555",
];

/// FNV-1a over the plan's stops in visit order: each stop contributes its
/// member count, then its member indices, as little-endian `u64`s.
fn member_hash(plan: &ChargingPlan) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: usize| {
        for b in (v as u64).to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for stop in &plan.stops {
        eat(stop.bundle.sensors.len());
        for &s in &stop.bundle.sensors {
            eat(s);
        }
    }
    h
}

/// The pinned summary of one plan: charging stops, member hash, total
/// energy (J) and tour length (m) to three decimals.
fn summary(plan: &ChargingPlan, cfg: &PlannerConfig) -> String {
    let m = plan.metrics(&cfg.energy);
    format!(
        "{} {:016x} {:.3} {:.3}",
        m.num_stops,
        member_hash(plan),
        m.total_energy_j.0,
        m.tour_length_m.0
    )
}

/// All four algorithms, ten seeds: the staged pipeline reproduces the
/// plans of the retired one-shot planners, pinned as goldens, with one
/// worker and with many, and the two worker counts agree bit-for-bit.
#[test]
fn pipeline_matches_legacy_on_default_scenario() {
    let mut got = Vec::new();
    for seed in BASE_SEED..BASE_SEED + SEEDS {
        let (net, cfg) = scenario(seed);
        let serial = PlanContext::new(net.clone(), cfg.clone()).with_workers(1);
        let parallel = PlanContext::new(net, cfg.clone()).with_workers(8);
        for algo in Algorithm::ALL {
            let one = serial.plan(algo).expect("serial pipeline").plan;
            let many = parallel.plan(algo).expect("parallel pipeline").plan;
            assert_eq!(
                one, many,
                "{algo} seed {seed}: plan depends on the worker count"
            );
            got.push(format!("{seed} {algo} {}", summary(&one, &cfg)));
        }
    }
    assert_eq!(got.len(), GOLDEN.len());
    for (g, want) in got.iter().zip(GOLDEN) {
        assert_eq!(g, want, "pipeline plan differs from the pinned legacy plan");
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
