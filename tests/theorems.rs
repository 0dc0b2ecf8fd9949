//! Numerical verification of the paper's theorems and analytical claims.

use bundle_charging::geom::{sed, tangency, Disk, Point};
use bundle_charging::prelude::*;
use bundle_charging::setcover::{exact_cover, greedy_cover, BitSet, Instance};

/// Theorem 2: Algorithm 2 (greedy bundle generation) is a `ln n + 1`
/// approximation. Verified across a broad sweep of random geometric
/// instances against the exact optimum.
#[test]
fn theorem2_greedy_approximation_bound() {
    let mut worst_ratio: f64 = 0.0;
    for seed in 0..20u64 {
        for r in [20.0, 40.0, 70.0] {
            let net = deploy::uniform(24, Aabb::square(250.0), 2.0, seed);
            let greedy = generate_bundles(&net, Meters(r), BundleStrategy::Greedy).len() as f64;
            let optimal = generate_bundles(&net, Meters(r), BundleStrategy::Optimal).len() as f64;
            let bound = (24f64).ln() + 1.0;
            assert!(
                greedy <= bound * optimal + 1e-9,
                "seed {seed} r {r}: greedy {greedy} vs optimal {optimal}"
            );
            worst_ratio = worst_ratio.max(greedy / optimal);
        }
    }
    // Empirically greedy is far better than the worst-case bound.
    assert!(worst_ratio < 1.5, "worst observed ratio {worst_ratio}");
}

/// The observation under Definition 2: the smallest-enclosing-disk
/// center minimizes the maximum charging distance — no sampled
/// alternative anchor beats it.
#[test]
fn sed_center_minimizes_worst_distance() {
    let pts: Vec<Point> = (0..12)
        .map(|i| {
            let a = i as f64;
            Point::new((a * 3.1).sin() * 20.0, (a * 1.7).cos() * 15.0)
        })
        .collect();
    let disk = sed::smallest_enclosing_disk(&pts);
    let worst = |anchor: Point| -> f64 {
        pts.iter().map(|p| p.distance(anchor)).fold(0.0, f64::max)
    };
    let at_center = worst(disk.center);
    for gx in -20..=20 {
        for gy in -20..=20 {
            let candidate = disk.center + Point::new(gx as f64 * 1.5, gy as f64 * 1.5);
            assert!(worst(candidate) >= at_center - 1e-9);
        }
    }
}

/// Theorem 4: for a fixed displacement radius `d`, the energy-optimal
/// relocated anchor is the tangency point of the focal ellipse with the
/// displacement circle. Verified by dense sampling of the circle.
#[test]
fn theorem4_tangency_is_circle_optimum() {
    let c_prev = Point::new(-80.0, 5.0);
    let c_next = Point::new(90.0, -12.0);
    let center = Point::new(10.0, 60.0);
    for d in [2.0, 10.0, 25.0] {
        let circle = Disk::new(center, d);
        let t = tangency::min_focal_sum_on_circle(c_prev, c_next, &circle);
        for k in 0..10_000 {
            let p = circle.boundary_point(k as f64 * std::f64::consts::TAU / 10_000.0);
            let s = p.distance(c_prev) + p.distance(c_next);
            assert!(t.focal_sum <= s + 1e-7);
        }
    }
}

/// Theorem 5: at the tangency point, the radius to the bundle center
/// bisects the focal angle (the property that enables the logarithmic
/// search).
#[test]
fn theorem5_bisector_at_optimum() {
    let cases = [
        (Point::new(-50.0, 0.0), Point::new(60.0, 10.0), Point::new(0.0, 40.0), 8.0),
        (Point::new(10.0, -30.0), Point::new(-40.0, 25.0), Point::new(30.0, 30.0), 15.0),
        (Point::new(0.0, 0.0), Point::new(100.0, 0.0), Point::new(50.0, 80.0), 20.0),
    ];
    for (f1, f2, c, r) in cases {
        let circle = Disk::new(c, r);
        let t = tangency::min_focal_sum_on_circle(f1, f2, &circle);
        let residual = tangency::bisector_residual(f1, f2, &circle, t.point);
        assert!(residual < 1e-5, "bisector residual {residual}");
        // And the derivative along the circle vanishes.
        assert!(tangency::focal_sum_derivative(f1, f2, &circle, t.theta).abs() < 1e-6);
    }
}

/// Section V-B's two-bundle analysis (Eqs. 7–8): when movement is costly
/// relative to charging, relocating both anchors toward each other
/// strictly reduces total energy, and BC-OPT finds such a relocation.
#[test]
fn two_bundle_tradeoff_eq7_eq8() {
    let net = deploy::from_coords(&[(0.0, 0.0), (300.0, 0.0)], Aabb::square(400.0), 2.0);
    let cfg = PlannerConfig::paper_sim(10.0);
    let bc = planner::try_run(Algorithm::Bc, &net, &cfg).unwrap();
    let opt = planner::try_run(Algorithm::BcOpt, &net, &cfg).unwrap();
    let e_bc = bc.metrics(&cfg.energy).total_energy_j;
    let e_opt = opt.metrics(&cfg.energy).total_energy_j;
    assert!(e_opt < e_bc, "relocation should pay off: {e_opt} vs {e_bc}");
    // The relocated anchors sit strictly between the sensors.
    for stop in &opt.stops {
        let x = stop.anchor().x;
        assert!(x > -1e-9 && x < 300.0 + 1e-9);
    }
    // And the plan still fully charges both sensors.
    opt.validate(&net, &cfg.charging).unwrap();

    // Conversely, with free movement the optimal anchors stay put.
    let mut free = PlannerConfig::paper_sim(10.0);
    free.energy = bundle_charging::wpt::EnergyModel::new(0.0, free.energy.charge_draw().0);
    let opt_free = planner::try_run(Algorithm::BcOpt, &net, &free).unwrap();
    assert!((opt_free.tour_length() - bc.tour_length()).abs() < Meters(1e-6),
        "with E_m = 0 no relocation should happen");
}

/// Theorem 1's reduction premise: OBG instances really are set-cover
/// instances — the exact cover over the geometric candidate family is a
/// valid cover and no smaller cover exists within the family.
#[test]
fn theorem1_obg_equals_set_cover() {
    let net = deploy::uniform(18, Aabb::square(150.0), 2.0, 2);
    let r = 35.0;
    let fam = bundle_charging::core::CandidateFamily::pair_intersection(&net, r);
    let sets: Vec<BitSet> = fam.candidates.iter().map(|c| c.members.clone()).collect();
    let inst = Instance::new(net.len(), sets).unwrap();
    let exact = exact_cover(&inst, None).unwrap();
    let greedy = greedy_cover(&inst);
    assert!(inst.is_cover(&exact));
    assert!(exact.len() <= greedy.len());
    // Exhaustive check over all subsets up to |exact|-1 of a trimmed
    // family would be exponential; instead verify against the packing
    // lower bound.
    let lb = bundle_charging::core::generation::packing_lower_bound(&net, Meters(r));
    assert!(exact.len() >= lb);
}

/// The `O(log h)` claim of Section V: the fast tangency search touches a
/// bounded number of evaluations yet matches a 20 000-sample sweep. We
/// verify equal quality here (the wall-clock factor is measured in
/// `cargo bench -p bc-bench`, tangency group).
#[test]
fn log_search_matches_dense_sweep_quality() {
    for i in 0..25 {
        let a = i as f64;
        let f1 = Point::new((a * 1.3).sin() * 100.0, (a * 0.7).cos() * 80.0);
        let f2 = Point::new((a * 2.1).cos() * 90.0, (a * 1.9).sin() * 70.0);
        let c = Point::new((a * 0.37).sin() * 60.0, 40.0 + (a * 0.53).cos() * 30.0);
        let circle = Disk::new(c, 3.0 + (i % 7) as f64 * 2.5);
        let fast = tangency::min_focal_sum_on_circle(f1, f2, &circle);
        let slow = tangency::min_focal_sum_on_circle_exhaustive(f1, f2, &circle, 20_000);
        assert!(fast.focal_sum <= slow.focal_sum + 1e-7, "case {i}");
    }
}
