//! Property-based tests of the system's core invariants (proptest).

use proptest::prelude::*;

use bundle_charging::geom::{sed, tangency, Disk, Point};
use bundle_charging::prelude::*;
use bundle_charging::setcover::{exact_cover, greedy_cover, BitSet, Instance};
use bundle_charging::tsp::{construct, improve, DistanceMatrix};

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
        let brute = sed::smallest_enclosing_disk_brute(&pts);
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

    /// The Theorem 4/5 logarithmic tangency search never loses to a dense
    /// exhaustive sweep.
    #[test]
    fn tangency_matches_exhaustive(
        f1 in arb_point(100.0),
        f2 in arb_point(100.0),
        c in arb_point(100.0),
        r in 0.1f64..30.0,
    ) {
        let circle = Disk::new(c, r);
        let fast = tangency::min_focal_sum_on_circle(f1, f2, &circle);
        let slow = tangency::min_focal_sum_on_circle_exhaustive(f1, f2, &circle, 4096);
        prop_assert!(fast.focal_sum <= slow.focal_sum + 1e-6,
            "fast {} vs sweep {}", fast.focal_sum, slow.focal_sum);
    }

    /// 2-opt and Or-opt keep the permutation valid, never lengthen the
    /// tour, and keep the cached length consistent.
    #[test]
    fn tour_improvement_invariants(pts in arb_points(30, 200.0)) {
        let m = DistanceMatrix::from_points(&pts);
        let mut t = construct::nearest_neighbor(&m, 0);
        let before = t.length;
        improve::two_opt(&mut t, &m);
        improve::or_opt(&mut t, &m);
        prop_assert!(t.validate(pts.len()));
        prop_assert!(t.length <= before + 1e-9);
        prop_assert!((t.recompute_length(&m) - t.length).abs() < 1e-6);
    }

    /// Greedy cover always covers and respects the ln(n)+1 bound against
    /// the exact optimum.
    #[test]
    fn greedy_cover_bound(seed in 0u64..5000) {
        let universe = 14usize;
        let mut x = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut rnd = move || { x ^= x << 13; x ^= x >> 7; x ^= x << 17; x };
        let mut sets: Vec<BitSet> = (0..10).map(|_| {
            let members: Vec<usize> = (0..universe).filter(|_| rnd() % 3 == 0).collect();
            BitSet::from_indices(universe, &members)
        }).collect();
        sets.push(BitSet::full(universe));
        let inst = Instance::new(universe, sets).unwrap();
        let g = greedy_cover(&inst);
        prop_assert!(inst.is_cover(&g));
        let e = exact_cover(&inst, None).unwrap();
        prop_assert!(inst.is_cover(&e));
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
                bundle_charging::core::generation::is_valid_partition(&bundles, &net, Meters(r)),
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
