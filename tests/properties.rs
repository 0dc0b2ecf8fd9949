//! Property-based tests of the system's core invariants (proptest).
//!
//! The brute-force smallest enclosing disk lives here as the test-local
//! oracle for Welzl's algorithm (the paper's `MinDisk`), the partition
//! check as the oracle for bundle generation, and the served subplan as
//! the check that an execution charged what it reports.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};

use bundle_charging::geom::{sed, Disk, Point};
use bundle_charging::prelude::*;
use bundle_charging::setcover::{exact_cover, greedy_cover};
use bundle_charging::tsp::{construct, improve};

/// The part of an executed round that can be checked as a plan.
trait ServedSubplan {
    /// Restricts the realized tour to the sensors it actually served and
    /// returns it as a standalone `(Network, ChargingPlan)` pair, with
    /// sensor indices remapped to the subnetwork.
    ///
    /// The pair satisfies [`ChargingPlan::validate`] by construction:
    /// every served sensor sits in exactly one executed stop, and
    /// realized dwells are never below what their members need (recovery
    /// only ever stretches them).
    fn served_subplan(&self, net: &Network) -> (Network, ChargingPlan);
}

impl ServedSubplan for ExecutionReport {
    fn served_subplan(&self, net: &Network) -> (Network, ChargingPlan) {
        let mut sub_idx = vec![usize::MAX; net.len()];
        let sensors: Vec<Sensor> = self
            .served
            .iter()
            .enumerate()
            .map(|(new, &orig)| {
                sub_idx[orig] = new;
                *net.sensor(orig)
            })
            .collect();
        let sub_net = Network::new(sensors, net.field(), net.base());
        let stops: Vec<Stop> = self
            .timeline
            .iter()
            .filter(|e| !e.served.is_empty())
            .map(|e| {
                let members: Vec<usize> = e.served.iter().map(|&s| sub_idx[s]).collect();
                Stop {
                    bundle: ChargingBundle::with_anchor(members, e.anchor, &sub_net),
                    dwell: e.dwell_s,
                }
            })
            .collect();
        let plan = ChargingPlan::new(stops, sub_net.len());
        (sub_net, plan)
    }
}

/// Brute-force reference: tries every disk supported by one, two or three
/// input points and returns the smallest one enclosing all points.
///
/// `O(n^4)`; the oracle the tests below check the fast path against.
fn smallest_enclosing_disk_brute(points: &[Point]) -> Disk {
    match points.len() {
        0 => return Disk::point(Point::ORIGIN),
        1 => return Disk::point(points[0]),
        _ => {}
    }
    let mut best: Option<Disk> = None;
    let mut consider = |d: Disk| {
        if points.iter().all(|&p| d.contains(p)) {
            match best {
                Some(b) if b.radius <= d.radius => {}
                _ => best = Some(d),
            }
        }
    };
    for i in 0..points.len() {
        for j in (i + 1)..points.len() {
            consider(Disk::from_diameter(points[i], points[j]));
            for k in (j + 1)..points.len() {
                if let Some(d) = Disk::circumscribing(points[i], points[j], points[k]) {
                    consider(d);
                }
            }
        }
    }
    best.unwrap_or_else(|| Disk::point(points[0]))
}

/// Whether the selected sets cover `0..universe`.
fn is_cover(universe: usize, sets: &[&[usize]], selection: &[usize]) -> bool {
    let mut covered = vec![false; universe];
    for &i in selection {
        for &e in sets[i] {
            covered[e] = true;
        }
    }
    covered.iter().all(|&c| c)
}

/// Checks that a bundle family is a partition of the network's sensors
/// with every bundle radius at most `r`.
fn is_valid_partition(bundles: &[ChargingBundle], net: &Network, r: Meters) -> bool {
    let mut seen = vec![false; net.len()];
    for b in bundles {
        if b.is_empty() || b.enclosing_radius > r + Meters(1e-6) {
            return false;
        }
        for &s in &b.sensors {
            if s >= net.len() || seen[s] {
                return false;
            }
            seen[s] = true;
        }
    }
    seen.iter().all(|&s| s)
}

#[test]
fn greedy_produces_valid_partition() {
    let net = deploy::uniform(80, Aabb::square(500.0), 2.0, 21);
    let bundles = generate_bundles(&net, Meters(40.0), BundleStrategy::Greedy);
    assert!(is_valid_partition(&bundles, &net, Meters(40.0)));
}

#[test]
fn grid_produces_valid_partition() {
    let net = deploy::uniform(80, Aabb::square(500.0), 2.0, 21);
    let bundles = generate_bundles(&net, Meters(40.0), BundleStrategy::Grid);
    assert!(is_valid_partition(&bundles, &net, Meters(40.0)));
}

#[test]
fn optimal_produces_valid_partition_and_fewest_bundles() {
    let net = deploy::uniform(25, Aabb::square(200.0), 2.0, 4);
    let r = Meters(40.0);
    let greedy = generate_bundles(&net, r, BundleStrategy::Greedy);
    let grid = generate_bundles(&net, r, BundleStrategy::Grid);
    let optimal = generate_bundles(&net, r, BundleStrategy::Optimal);
    assert!(is_valid_partition(&optimal, &net, r));
    assert!(optimal.len() <= greedy.len());
    assert!(optimal.len() <= grid.len());
}

#[test]
fn grid_cells_respect_radius_even_at_boundaries() {
    // Sensors on the exact corners of grid cells.
    let net = deploy::from_coords(
        &[(0.0, 0.0), (14.1, 14.1), (14.2, 14.2), (28.3, 0.1)],
        Aabb::square(100.0),
        2.0,
    );
    let bundles = generate_bundles(&net, Meters(10.0), BundleStrategy::Grid);
    assert!(is_valid_partition(&bundles, &net, Meters(10.0)));
}

fn assert_encloses(d: &Disk, pts: &[Point]) {
    for &p in pts {
        assert!(
            d.contains(p),
            "disk {d} does not contain {p} (dist {})",
            d.center.distance(p)
        );
    }
}

#[test]
fn matches_brute_force_on_random_instances() {
    let mut rng = rand::rngs::SmallRng::seed_from_u64(42);
    for n in [3usize, 4, 5, 8, 12, 20] {
        for _ in 0..20 {
            let pts: Vec<Point> = (0..n)
                .map(|_| Point::new(rng.random_range(-10.0..10.0), rng.random_range(-10.0..10.0)))
                .collect();
            let fast = sed::smallest_enclosing_disk(&pts);
            let brute = smallest_enclosing_disk_brute(&pts);
            assert_encloses(&fast, &pts);
            assert!(
                (fast.radius - brute.radius).abs() < 1e-7,
                "n={n}: fast {} vs brute {}",
                fast.radius,
                brute.radius
            );
        }
    }
}

fn arb_point(range: f64) -> impl Strategy<Value = Point> {
    (-range..range, -range..range).prop_map(|(x, y)| Point::new(x, y))
}

fn arb_points(max_n: usize, range: f64) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec(arb_point(range), 1..max_n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Welzl's disk encloses every input point and matches the brute-force
    /// optimum radius.
    #[test]
    fn sed_encloses_and_is_minimal(pts in arb_points(12, 100.0)) {
        let fast = sed::smallest_enclosing_disk(&pts);
        for &p in &pts {
            prop_assert!(fast.contains(p));
        }
        let brute = smallest_enclosing_disk_brute(&pts);
        prop_assert!((fast.radius - brute.radius).abs() < 1e-6);
    }

    /// The decisional MinDisk agrees with the computed radius.
    #[test]
    fn decisional_mindisk_consistent(pts in arb_points(10, 50.0), slack in 0.01f64..10.0) {
        let d = sed::smallest_enclosing_disk(&pts);
        prop_assert!(sed::fits_in_radius(&pts, d.radius + slack));
        if d.radius > slack {
            prop_assert!(!sed::fits_in_radius(&pts, d.radius - slack));
        }
    }

    /// 2-opt and Or-opt keep the permutation valid, never lengthen the
    /// tour, and keep the cached length consistent.
    #[test]
    fn tour_improvement_invariants(pts in arb_points(30, 200.0)) {
        let line = |i: usize, j: usize| pts[i].distance(pts[j]);
        let mut t = construct::nearest_neighbor(pts.len(), 0, line);
        let before = t.length;
        improve::two_opt(&mut t, line, &pts);
        improve::or_opt(&mut t, line, &pts);
        prop_assert!(t.validate(pts.len()));
        prop_assert!(t.length <= before + 1e-9);
        prop_assert!((t.recompute_length(line) - t.length).abs() < 1e-6);
    }

    /// Greedy cover always covers and respects the ln(n)+1 bound against
    /// the exact optimum.
    #[test]
    fn greedy_cover_bound(seed in 0u64..5000) {
        let universe = 14usize;
        let mut x = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut rnd = move || { x ^= x << 13; x ^= x >> 7; x ^= x << 17; x };
        let mut fam: Vec<Vec<usize>> = (0..10).map(|_| {
            (0..universe).filter(|_| rnd() % 3 == 0).collect()
        }).collect();
        fam.push((0..universe).collect());
        let sets: Vec<&[usize]> = fam.iter().map(Vec::as_slice).collect();
        let g = greedy_cover(universe, &sets).unwrap();
        prop_assert!(is_cover(universe, &sets, &g));
        let e = exact_cover(universe, &sets, None).unwrap();
        prop_assert!(is_cover(universe, &sets, &e));
        prop_assert!(e.len() <= g.len());
        let bound = (universe as f64).ln() + 1.0;
        prop_assert!((g.len() as f64) <= bound * (e.len() as f64) + 1e-9);
    }
}

proptest! {
    // Planner properties are slower: fewer cases.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every planner fully charges every sensor on arbitrary deployments
    /// and radii — the system-level safety property.
    #[test]
    fn planners_always_feasible(seed in 0u64..1000, n in 1usize..40, r in 1.0f64..80.0) {
        let net = deploy::uniform(n, Aabb::square(200.0), 2.0, seed);
        let cfg = PlannerConfig::paper_sim(r);
        for algo in Algorithm::ALL {
            let plan = planner::try_run(algo, &net, &cfg).unwrap();
            prop_assert!(plan.validate(&net, &cfg.charging).is_ok(),
                "{algo} infeasible at n={n} r={r} seed={seed}");
        }
    }

    /// Bundle generation is a partition within the radius for every
    /// strategy.
    #[test]
    fn generation_is_partition(seed in 0u64..1000, n in 1usize..40, r in 1.0f64..80.0) {
        let net = deploy::uniform(n, Aabb::square(200.0), 2.0, seed);
        for s in [BundleStrategy::Greedy, BundleStrategy::Grid, BundleStrategy::Optimal] {
            let bundles = generate_bundles(&net, Meters(r), s);
            prop_assert!(
                is_valid_partition(&bundles, &net, Meters(r)),
                "{s:?} produced an invalid partition"
            );
        }
    }

    /// BC-OPT never increases total energy over BC.
    #[test]
    fn bcopt_dominates_bc(seed in 0u64..1000, n in 2usize..35) {
        let net = deploy::uniform(n, Aabb::square(250.0), 2.0, seed);
        let cfg = PlannerConfig::paper_sim(25.0);
        let bc = planner::try_run(Algorithm::Bc, &net, &cfg).unwrap().metrics(&cfg.energy).total_energy_j;
        let opt = planner::try_run(Algorithm::BcOpt, &net, &cfg).unwrap().metrics(&cfg.energy).total_energy_j;
        prop_assert!(opt <= bc + Joules(1e-6), "BC-OPT {opt} > BC {bc}");
    }
}

/// A BC plan of 45 sensors at r = 30 m, executed under a 0.5 fault rate:
/// under every policy, what the round served validates as a plan.
#[test]
fn served_subplan_validates_under_all_policies() {
    let net = deploy::uniform(45, Aabb::square(300.0), 2.0, 41);
    let cfg = PlannerConfig::paper_sim(30.0);
    let plan = planner::try_run(Algorithm::Bc, &net, &cfg).unwrap();
    let fm = FaultModel::with_rate(9, 0.5);
    for policy in RecoveryPolicy::ALL {
        let exec = Executor::new(&net, &cfg).with_policy(policy);
        let rep = exec.execute(&plan, &fm, 2).unwrap();
        let (sub_net, sub_plan) = rep.served_subplan(&net);
        sub_plan
            .validate(&sub_net, &cfg.charging)
            .unwrap_or_else(|e| panic!("{policy}: served subplan invalid: {e}"));
    }
}

proptest! {
    // Execution runs every algorithm x policy pair per case: few cases.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Under a random fault schedule, every planner x recovery-policy
    /// pair executes without panicking, the plan induced by what was
    /// actually served validates on the surviving network, the energy
    /// ledger stays finite and non-negative, and served / stranded /
    /// dead partition the sensor set.
    #[test]
    fn execution_survives_random_faults(
        seed in 0u64..1000,
        n in 5usize..30,
        rate in 0.0f64..0.5,
    ) {
        let net = deploy::uniform(n, Aabb::square(200.0), 2.0, seed);
        let cfg = PlannerConfig::paper_sim(15.0);
        let faults = FaultModel::with_rate(seed, rate);
        for algo in Algorithm::ALL {
            let plan = planner::try_run(algo, &net, &cfg)
                .unwrap_or_else(|e| panic!("{algo}: {e}"));
            for policy in RecoveryPolicy::ALL {
                let rep = Executor::new(&net, &cfg)
                    .with_policy(policy)
                    .execute(&plan, &faults, seed)
                    .unwrap_or_else(|e| panic!("{algo}/{policy}: {e}"));
                prop_assert!(
                    rep.total_energy_j.is_finite() && rep.total_energy_j >= Joules(0.0),
                    "{algo}/{policy}: bad energy {}", rep.total_energy_j
                );
                prop_assert!(rep.extra_energy_j.is_finite());
                prop_assert!(rep.recovery_latency_s.is_finite() && rep.recovery_latency_s >= Seconds(0.0));
                let (survivors, served) = rep.served_subplan(&net);
                prop_assert!(
                    served.validate(&survivors, &cfg.charging).is_ok(),
                    "{algo}/{policy}: served subplan infeasible"
                );
                let mut seen = vec![0u32; n];
                for &s in rep.served.iter().chain(&rep.stranded) {
                    seen[s] += 1;
                }
                for &s in &rep.fault_deaths {
                    // A sensor charged before dying counts as served.
                    if !rep.served.contains(&s) {
                        seen[s] += 1;
                    }
                }
                prop_assert!(
                    seen.iter().all(|&c| c == 1),
                    "{algo}/{policy}: accounting broken: {seen:?}"
                );
            }
        }
    }
}
