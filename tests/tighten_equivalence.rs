//! Exactness of BC-OPT's Tighten stage (Algorithm 3). The sweep loop as it
//! stood before it learned to skip repeated sweeps, table its coarse
//! tangency scan and drop its per-anchor fan-out survives here as a
//! test-local oracle: applied to the BC plan of the same context (BC runs
//! BC-OPT's stages minus Tighten), it must rebuild BC-OPT's plan with the
//! same members, anchor bits and dwell bits at every stop, at 1 and 2
//! workers. The BC-OPT plans of the plan-dense and plan-sparse benchmark
//! shapes and under finite-support linear laws are pinned as goldens. The
//! sweep counters show that radii the cost floor rules out are not
//! searched (on the plan-sparse shape) and that searches whose arc floor
//! shows they cannot win are cut (on the plan-dense shape).

use std::sync::Arc;

use bundle_charging::core::context::PlanContext;
use bundle_charging::core::planner::Algorithm;
use bundle_charging::core::{par, ChargingBundle, ChargingPlan, DwellPolicy, PlannerConfig, Stop};
use bundle_charging::geom::tangency::{Tangency, EVALS_PER_SEARCH};
use bundle_charging::geom::{sed, Aabb, Disk, Point, Segment};
use bundle_charging::obs::recorders::StatsRecorder;
use bundle_charging::obs::Recorder;
use bundle_charging::units::{Joules, Meters};
use bundle_charging::wpt::ChargingModel;
use bundle_charging::wsn::{deploy, Network, Sensor};

// ---------------------------------------------------------------------
// The oracle: `optimize_tour_with_workers`, `best_relocation` and
// `tangency::min_focal_sum_on_circle` before the change, copied verbatim
// except for crate paths and the span/counter emission, which never
// touched the result.
// ---------------------------------------------------------------------

const COARSE_SAMPLES: usize = 64;
const REFINE_ITERS: usize = 48;

fn optimize_tour_with_workers(
    plan: &mut ChargingPlan,
    net: &Network,
    cfg: &PlannerConfig,
    workers: usize,
) {
    let n = plan.stops.len();
    if n < 2 {
        return;
    }
    // The relocation circles stay centred on each bundle's original
    // (smallest-enclosing-disk) center, per Theorem 4.
    let centers: Vec<Point> = plan
        .stops
        .iter()
        .map(|s| {
            if s.bundle.is_empty() {
                s.anchor()
            } else {
                let pts: Vec<Point> = s
                    .bundle
                    .sensors
                    .iter()
                    .map(|&i| net.sensor(i).pos)
                    .collect();
                sed::smallest_enclosing_disk(&pts).center
            }
        })
        .collect();

    for _round in 0..8 {
        let mut changed = false;
        #[allow(clippy::needless_range_loop)] // i indexes stops, centers and cyclic neighbours
        for i in 0..n {
            if plan.stops[i].bundle.is_empty() {
                continue; // never move the base way-point
            }
            let prev = plan.stops[(i + n - 1) % n].anchor();
            let next = plan.stops[(i + 1) % n].anchor();
            if let Some((anchor, _gain)) =
                best_relocation(&plan.stops[i], centers[i], prev, next, net, cfg, workers)
            {
                let members = plan.stops[i].bundle.sensors.clone();
                let bundle = ChargingBundle::with_anchor(members, anchor, net);
                plan.stops[i] = Stop::for_bundle(bundle, net, &cfg.charging);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
}

fn best_relocation(
    stop: &Stop,
    center: Point,
    prev: Point,
    next: Point,
    net: &Network,
    cfg: &PlannerConfig,
    workers: usize,
) -> Option<(Point, Joules)> {
    let energy = &cfg.energy;
    let current_legs = prev.distance(stop.anchor()) + stop.anchor().distance(next);
    let current_cost =
        energy.movement_energy(Meters(current_legs)) + energy.charging_energy(stop.dwell);

    // Sweeping past the chord between the neighbours can never help: the
    // movement term is already minimal at the chord's closest approach.
    let d_max = Segment::new(prev, next).distance_to_point(center);
    if d_max <= bundle_charging::geom::EPS {
        return None;
    }
    let steps = 24;
    // Fan out only when one sweep is expensive enough to amortise the
    // thread spawns; the gate changes throughput, never the result.
    let eff_workers = if workers > 1 && stop.bundle.sensors.len() * steps >= 192 {
        workers
    } else {
        1
    };
    let evals: Vec<(Point, Joules)> = par::par_map(steps, eff_workers, |idx| {
        let k = idx + 1;
        let d = d_max * k as f64 / steps as f64;
        let t = min_focal_sum_on_circle(prev, next, &Disk::new(center, d));
        let bundle = ChargingBundle::with_anchor(stop.bundle.sensors.clone(), t.point, net);
        let dwell = bundle.dwell_time(net, &cfg.charging);
        let cost = energy.movement_energy(Meters(t.focal_sum)) + energy.charging_energy(dwell);
        (t.point, cost)
    });
    let mut best: Option<(Point, Joules)> = None;
    for (point, cost) in evals {
        let gain = current_cost - cost;
        if gain > Joules(1e-9) && best.as_ref().is_none_or(|&(_, g)| gain > g) {
            best = Some((point, gain));
        }
    }
    best
}

fn min_focal_sum_on_circle(f1: Point, f2: Point, circle: &Disk) -> Tangency {
    if circle.radius == 0.0 {
        return Tangency {
            point: circle.center,
            theta: 0.0,
            focal_sum: circle.center.distance(f1) + circle.center.distance(f2),
        };
    }
    let g = |theta: f64| {
        let p = circle.boundary_point(theta);
        p.distance(f1) + p.distance(f2)
    };

    // Coarse scan to bracket the global minimum.
    let mut best_i = 0usize;
    let mut best_v = f64::INFINITY;
    let step = std::f64::consts::TAU / COARSE_SAMPLES as f64;
    for i in 0..COARSE_SAMPLES {
        let v = g(i as f64 * step);
        if v < best_v {
            best_v = v;
            best_i = i;
        }
    }
    let mut lo = (best_i as f64 - 1.0) * step;
    let mut hi = (best_i as f64 + 1.0) * step;

    // Golden-section refinement inside the bracket.
    const INV_PHI: f64 = 0.618_033_988_749_894_9;
    let mut x1 = hi - INV_PHI * (hi - lo);
    let mut x2 = lo + INV_PHI * (hi - lo);
    let mut g1 = g(x1);
    let mut g2 = g(x2);
    for _ in 0..REFINE_ITERS {
        if g1 <= g2 {
            hi = x2;
            x2 = x1;
            g2 = g1;
            x1 = hi - INV_PHI * (hi - lo);
            g1 = g(x1);
        } else {
            lo = x1;
            x1 = x2;
            g1 = g2;
            x2 = lo + INV_PHI * (hi - lo);
            g2 = g(x2);
        }
    }
    let theta = if g1 <= g2 { x1 } else { x2 };
    let point = circle.boundary_point(theta);
    Tangency {
        point,
        theta,
        focal_sum: point.distance(f1) + point.distance(f2),
    }
}

// ---------------------------------------------------------------------
// Replays.
// ---------------------------------------------------------------------

/// One stop as bits: members, anchor x and y, dwell, enclosing radius.
fn stop_bits(stop: &Stop) -> (Vec<usize>, u64, u64, u64, u64) {
    (
        stop.bundle.sensors.clone(),
        stop.bundle.anchor.x.to_bits(),
        stop.bundle.anchor.y.to_bits(),
        stop.dwell.0.to_bits(),
        stop.bundle.enclosing_radius.0.to_bits(),
    )
}

/// Plans BC and BC-OPT from one context at 1 and 2 workers, runs the
/// oracle over the BC plan and asserts it lands on BC-OPT's plan stop for
/// stop. Returns how many stops the oracle moved off BC's anchors.
fn assert_replays(label: &str, net: &Network, cfg: &PlannerConfig) -> usize {
    let mut moved = None;
    for workers in [1, 2] {
        let ctx = PlanContext::new(net.clone(), cfg.clone()).with_workers(workers);
        let plan = |algo| {
            ctx.plan(algo)
                .unwrap_or_else(|e| panic!("{label}: {algo} plans at {workers} workers: {e}"))
                .plan
        };
        let bc = plan(Algorithm::Bc);
        let opt = plan(Algorithm::BcOpt);
        let mut want = bc.clone();
        optimize_tour_with_workers(&mut want, ctx.network(), cfg, workers);
        assert_eq!(
            opt.stops.len(),
            want.stops.len(),
            "{label}: stop count at {workers} workers"
        );
        for (i, (got, want)) in opt.stops.iter().zip(&want.stops).enumerate() {
            assert_eq!(
                stop_bits(got),
                stop_bits(want),
                "{label}: stop {i} differs from the oracle at {workers} workers"
            );
        }
        let m = bc
            .stops
            .iter()
            .zip(&want.stops)
            .filter(|(b, w)| stop_bits(b) != stop_bits(w))
            .count();
        assert_eq!(*moved.get_or_insert(m), m, "{label}: moved counts differ");
    }
    moved.unwrap_or(0)
}

fn uniform(n: usize, side: f64, seed: u64) -> Network {
    deploy::uniform(n, Aabb::square(side), 2.0, seed)
}

#[test]
fn tighten_replays_the_oracle_at_default_density() {
    for r in [10.0, 25.0] {
        for seed in [1000, 1001, 1002] {
            let label = format!("r={r} seed={seed}");
            let cfg = PlannerConfig::paper_sim(r);
            let moved = assert_replays(&label, &uniform(100, 300.0, seed), &cfg);
            assert!(moved > 0, "{label}: tighten moved nothing");
        }
    }
}

#[test]
fn tighten_replays_the_oracle_on_large_bundles() {
    // Fig. 10's largest radius: few stops, many members each.
    let cfg = PlannerConfig::paper_sim(60.0);
    assert!(assert_replays("r=60", &uniform(100, 300.0, 7), &cfg) > 0);
}

#[test]
fn tighten_replays_the_oracle_under_worst_case_dwell() {
    // BC stores the radius worst-case dwell, while every sweep step
    // prices the realized one: the first sweep of each stop sees a dwell
    // no relocation reproduces.
    let mut cfg = PlannerConfig::paper_sim(25.0);
    cfg.dwell_policy = DwellPolicy::RadiusWorstCase;
    assert!(assert_replays("worst-case dwell", &uniform(100, 300.0, 11), &cfg) > 0);
}

#[test]
fn tighten_replays_the_oracle_on_a_two_stop_tour() {
    // Each stop's two neighbours are the same anchor.
    let net = deploy::from_coords(&[(0.0, 0.0), (400.0, 0.0)], Aabb::square(1000.0), 2.0);
    let cfg = PlannerConfig::paper_sim(10.0);
    assert!(assert_replays("two stops", &net, &cfg) > 0);
}

#[test]
fn tighten_replays_the_oracle_on_collinear_stops() {
    // Interior stops sit on the chord between their neighbours, so their
    // sweeps are pruned (`d_max <= EPS`); the ends still relocate.
    let coords: Vec<(f64, f64)> = (0..8).map(|i| (f64::from(i) * 120.0, 500.0)).collect();
    let net = deploy::from_coords(&coords, Aabb::square(1000.0), 2.0);
    let cfg = PlannerConfig::paper_sim(10.0);
    let stats = Arc::new(StatsRecorder::new());
    let moved = bundle_charging::obs::with_local(Arc::clone(&stats) as Arc<dyn Recorder>, || {
        assert_replays("collinear", &net, &cfg)
    });
    assert!(moved > 0, "collinear: tighten moved nothing");
    let pruned = stats.snapshot().counter("plan.tighten.anchors_pruned");
    assert!(pruned > 0, "collinear: no sweep was pruned");
}

#[test]
fn tighten_replays_the_oracle_with_heterogeneous_demands() {
    // Demands from 0 to 3.5 J, every fifth sensor asking for nothing: a
    // stop's dwell follows its neediest far member, not its farthest, and
    // a stop of zero-demand members dwells for no time wherever it parks.
    let base = uniform(150, 300.0, 21);
    let sensors = base
        .sensors()
        .iter()
        .zip(0u32..)
        .map(|(s, i)| {
            let demand = if i % 5 == 0 {
                0.0
            } else {
                0.5 * f64::from(i % 8)
            };
            Sensor::new(s.id, s.pos, demand)
        })
        .collect();
    let net = Network::new(sensors, base.field(), base.base());
    for r in [10.0, 25.0] {
        let label = format!("heterogeneous demands r={r}");
        assert!(assert_replays(&label, &net, &PlannerConfig::paper_sim(r)) > 0);
    }
}

#[test]
fn tighten_replays_the_oracle_under_the_testbed_model() {
    // Section VII's law and accounting at the office's scale and demand.
    for (r, seed) in [(0.5, 3), (1.2, 4)] {
        let label = format!("testbed r={r} seed={seed}");
        let net = deploy::uniform(60, Aabb::square(8.0), 0.004, seed);
        let cfg = PlannerConfig::paper_testbed(r);
        assert!(assert_replays(&label, &net, &cfg) > 0);
    }
}

#[test]
fn tighten_replays_the_oracle_under_a_table_law() {
    // A calibrated law whose support (400 m) outreaches every sweep
    // circle plus its bundle's radius, so every step's dwell is finite.
    let mut cfg = PlannerConfig::paper_sim(20.0);
    cfg.charging = ChargingModel::from_table(
        &[
            (0.0, 0.04),
            (10.0, 0.0225),
            (30.0, 0.01),
            (60.0, 0.004),
            (400.0, 0.0005),
        ],
        1.0,
    );
    assert!(assert_replays("table law", &uniform(120, 300.0, 5), &cfg) > 0);
}

#[test]
fn tighten_replays_the_oracle_on_clustered_deployments() {
    // Tight clusters fill stops with many members, so SED centres sit on
    // two- and three-point supports.
    for (r, seed) in [(10.0, 2), (25.0, 3)] {
        let label = format!("clusters r={r} seed={seed}");
        let net = deploy::clusters(160, 6, 12.0, Aabb::square(300.0), 2.0, seed);
        assert!(assert_replays(&label, &net, &PlannerConfig::paper_sim(r)) > 0);
    }
}

#[test]
fn sweep_counters_count_the_searches_run() {
    // On the plan-sparse golden network every sweep counts its 24 radii
    // as candidates, but golden-section work only for the radii whose
    // circle could still beat the sweep's best gain.
    let ctx = PlanContext::new(uniform(2000, 1342.0, 1000), PlannerConfig::paper_sim(10.0));
    let stats = Arc::new(StatsRecorder::new());
    bundle_charging::obs::with_local(Arc::clone(&stats) as Arc<dyn Recorder>, || {
        ctx.plan(Algorithm::BcOpt)
            .unwrap_or_else(|e| panic!("sparse: BC-OPT plans: {e}"))
    });
    let snap = stats.snapshot();
    let sweeps = snap.span_count("plan.tighten.sweep");
    let candidates = snap.counter("plan.tighten.candidates");
    let gs_evals = snap.counter("plan.tighten.gs_evals");
    let per_search = EVALS_PER_SEARCH as u64;
    assert!(sweeps > 0, "no sweep ran");
    assert_eq!(candidates, 24 * sweeps, "{sweeps} sweeps");
    assert_eq!(gs_evals % per_search, 0, "{gs_evals} evaluations");
    assert!(
        gs_evals < candidates * per_search,
        "{gs_evals} evaluations for {candidates} candidates: no radius was skipped"
    );
}

// ---------------------------------------------------------------------
// Goldens at the benchmark's plan shapes.
// ---------------------------------------------------------------------

/// FNV-1a over the plan's stops in visit order: each stop contributes its
/// member count, its member indices, and the bits of its anchor x, anchor
/// y and dwell, as little-endian `u64`s.
fn plan_hash(plan: &ChargingPlan) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for stop in &plan.stops {
        eat(stop.bundle.sensors.len() as u64);
        for &s in &stop.bundle.sensors {
            eat(s as u64);
        }
        eat(stop.bundle.anchor.x.to_bits());
        eat(stop.bundle.anchor.y.to_bits());
        eat(stop.dwell.0.to_bits());
    }
    h
}

/// `shape stops plan_hash` of the BC-OPT plans at the plan-dense shape
/// (n = 1500 in a 300 m square, seed 1000) and the plan-sparse shape
/// (n = 2000 in a 1342 m square, seed 1000), r = 10 m, captured from the
/// sweep the oracle above preserves.
const GOLDEN: [&str; 2] = ["dense 249 789ef6331df7b9c2", "sparse 1272 1618ea478c9c3b95"];

#[test]
fn benchmark_shaped_bc_opt_plans_are_pinned() {
    for ((shape, n, side), want) in [("dense", 1500, 300.0), ("sparse", 2000, 1342.0)]
        .into_iter()
        .zip(GOLDEN)
    {
        let ctx = PlanContext::new(uniform(n, side, 1000), PlannerConfig::paper_sim(10.0));
        let plan = ctx
            .plan(Algorithm::BcOpt)
            .unwrap_or_else(|e| panic!("{shape}: BC-OPT plans: {e}"))
            .plan;
        let got = format!("{shape} {} {:016x}", plan.stops.len(), plan_hash(&plan));
        assert_eq!(got, want, "{shape}: BC-OPT plan moved off the golden");
    }
}

/// `slope r stops plan_hash` of BC-OPT plans under linear laws of finite
/// support (`p0 = 0.04`, so 20 m at slope 0.002 and 26.7 m at 0.0015) on
/// n = 300 in a 300 m square, seed 1000. Some of their sweep radii carry a
/// member beyond the law's support, where the dwell is infinite.
const FINITE_SUPPORT_GOLDEN: [&str; 4] = [
    "0.002 10 125 49a900f7264fcd38",
    "0.002 15 77 394318beb65f14ef",
    "0.0015 10 125 ab631dedf16f3138",
    "0.0015 25 46 0017eeae30fdcbf6",
];

#[test]
fn finite_support_bc_opt_plans_are_pinned() {
    let net = uniform(300, 300.0, 1000);
    for ((slope, r), want) in [(0.002, 10.0), (0.002, 15.0), (0.0015, 10.0), (0.0015, 25.0)]
        .into_iter()
        .zip(FINITE_SUPPORT_GOLDEN)
    {
        let mut cfg = PlannerConfig::paper_sim(r);
        cfg.charging = ChargingModel::linear(0.04, slope, 1.0);
        let plan = PlanContext::new(net.clone(), cfg)
            .plan(Algorithm::BcOpt)
            .unwrap_or_else(|e| panic!("slope {slope} r={r}: BC-OPT plans: {e}"))
            .plan;
        let got = format!("{slope} {r} {} {:016x}", plan.stops.len(), plan_hash(&plan));
        assert_eq!(
            got, want,
            "slope {slope} r={r}: BC-OPT plan moved off the golden"
        );
    }
}

#[test]
fn dense_golden_cuts_searches_that_cannot_win() {
    // On the plan-dense golden network most tangency searches stop once
    // the arc their answer lies on cannot beat the sweep's best gain.
    // `gs_evals` still counts only searches that ran to their end, and
    // the plan is the golden bit for bit.
    let ctx = PlanContext::new(uniform(1500, 300.0, 1000), PlannerConfig::paper_sim(10.0));
    let stats = Arc::new(StatsRecorder::new());
    let plan = bundle_charging::obs::with_local(Arc::clone(&stats) as Arc<dyn Recorder>, || {
        ctx.plan(Algorithm::BcOpt)
            .unwrap_or_else(|e| panic!("dense: BC-OPT plans: {e}"))
            .plan
    });
    let snap = stats.snapshot();
    let candidates = snap.counter("plan.tighten.candidates");
    let gs_evals = snap.counter("plan.tighten.gs_evals");
    let cut = snap.counter("plan.tighten.searches_cut");
    let per_search = EVALS_PER_SEARCH as u64;
    assert!(cut > 0, "no search was cut");
    assert_eq!(gs_evals % per_search, 0, "{gs_evals} evaluations");
    assert!(
        gs_evals / per_search + cut <= candidates,
        "{gs_evals} evaluations and {cut} cut searches for {candidates} candidates"
    );
    let got = format!("dense {} {:016x}", plan.stops.len(), plan_hash(&plan));
    assert_eq!(got, GOLDEN[0], "dense: BC-OPT plan moved off the golden");
}
