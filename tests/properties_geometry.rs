//! Property tests for the obstacle-routing geometry and the set-algebra
//! substrate, plus idempotence of the dwell tightener.

use proptest::prelude::*;
use std::collections::HashSet;

use bundle_charging::core::{planner, tighten, PlannerConfig};
use bundle_charging::geom::{visibility::VisibilityRouter, Point, Polygon};
use bundle_charging::prelude::*;
use bundle_charging::setcover::BitSet;

fn arb_rect(range: f64) -> impl Strategy<Value = Polygon> {
    (
        -range..range,
        -range..range,
        1.0..range / 2.0,
        1.0..range / 2.0,
    )
        .prop_map(|(x, y, w, h)| {
            Polygon::rectangle(Point::new(x, y), Point::new(x + w, y + h))
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Visibility routing: the shortest path never beats the Euclidean
    /// distance, its reported length equals the sum of its legs, and
    /// every leg is unobstructed (when endpoints are outside obstacles).
    #[test]
    fn visibility_path_invariants(
        rect in arb_rect(50.0),
        ax in -80.0f64..80.0, ay in -80.0f64..80.0,
        bx in -80.0f64..80.0, by in -80.0f64..80.0,
    ) {
        let a = Point::new(ax, ay);
        let b = Point::new(bx, by);
        prop_assume!(!rect.contains(a) && !rect.contains(b));
        let router = VisibilityRouter::new(vec![rect]);
        let (len, path) = router.shortest_path(a, b);
        prop_assert!(len >= a.distance(b) - 1e-9);
        let legs_sum: f64 = path.windows(2).map(|w| w[0].distance(w[1])).sum();
        prop_assert!((legs_sum - len).abs() < 1e-6);
        for w in path.windows(2) {
            prop_assert!(router.visible(w[0], w[1]), "blocked leg {} -> {}", w[0], w[1]);
        }
    }

    /// BitSet behaves exactly like a HashSet model under union,
    /// difference and intersection.
    #[test]
    fn bitset_matches_hashset_model(
        a in prop::collection::vec(0usize..96, 0..40),
        b in prop::collection::vec(0usize..96, 0..40),
    ) {
        let sa = BitSet::from_indices(96, &a);
        let sb = BitSet::from_indices(96, &b);
        let ha: HashSet<usize> = a.iter().copied().collect();
        let hb: HashSet<usize> = b.iter().copied().collect();

        let mut u = sa.clone();
        u.union_with(&sb);
        let hu: HashSet<usize> = ha.union(&hb).copied().collect();
        prop_assert_eq!(u.iter().collect::<HashSet<_>>(), hu.clone());
        prop_assert_eq!(u.count(), hu.len());

        let mut d = sa.clone();
        d.subtract(&sb);
        let hd: HashSet<usize> = ha.difference(&hb).copied().collect();
        prop_assert_eq!(d.iter().collect::<HashSet<_>>(), hd);

        let mut i = sa.clone();
        i.intersect_with(&sb);
        let hi: HashSet<usize> = ha.intersection(&hb).copied().collect();
        prop_assert_eq!(i.iter().collect::<HashSet<_>>(), hi.clone());
        prop_assert_eq!(sa.intersection_count(&sb), hi.len());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Tightening is idempotent: a second pass finds (almost) nothing.
    #[test]
    fn tightening_is_idempotent(seed in 0u64..500, n in 10usize..60) {
        let net = deploy::uniform(n, Aabb::square(220.0), 2.0, seed);
        let cfg = PlannerConfig::paper_sim(25.0);
        let mut plan = planner::try_run(Algorithm::Bc, &net, &cfg).unwrap();
        tighten::tighten_dwells(&mut plan, &net, &cfg.charging, 60);
        let second = tighten::tighten_dwells(&mut plan, &net, &cfg.charging, 60);
        prop_assert!(second.saving() < 1e-6, "second pass saved {}", second.saving());
        prop_assert!(tighten::validate_cross_credit(&plan, &net, &cfg.charging).is_ok());
    }
}
