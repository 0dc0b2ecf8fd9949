//! Property tests of incremental replanning through a mutable
//! [`PlanContext`]: after arbitrary sensor removals and additions, the
//! context's revision path must produce plans that satisfy the same
//! contract catalog as a fresh plan on the mutated network — full cover,
//! bundle radii within `r`, Eq. 1 dwell times — the revision counter
//! must track every mutation, and every algorithm must plan the mutated
//! context exactly as a fresh context over the same network, so no
//! cached artifact survives the reset.

use proptest::prelude::*;

use bundle_charging::core::context::PlanContext;
use bundle_charging::core::planner::Algorithm;
use bundle_charging::core::{contracts, ChargingPlan, PlannerConfig};
use bundle_charging::geom::{Aabb, Point};
use bundle_charging::wsn::{deploy, Network};

fn assert_contracts(plan: &ChargingPlan, net: &Network, cfg: &PlannerConfig, what: &str) {
    contracts::check_cover(plan, net).unwrap_or_else(|v| panic!("{what}: {v}"));
    contracts::check_bundle_radii(plan, net, cfg.bundle_radius)
        .unwrap_or_else(|v| panic!("{what}: {v}"));
    contracts::check_dwell_times(plan, net, cfg).unwrap_or_else(|v| panic!("{what}: {v}"));
}

/// Plans all four algorithms on `ctx` and on a fresh context over the
/// same network, and asserts equal plans. Called before the first
/// mutation it also builds the cached candidate family, so a later call
/// catches a family the mutation failed to reset.
fn assert_plans_match_fresh(ctx: &PlanContext, cfg: &PlannerConfig, what: &str) {
    let fresh = PlanContext::new(ctx.network().clone(), cfg.clone());
    for algo in Algorithm::ALL {
        let plan = |c: &PlanContext| {
            c.plan(algo)
                .unwrap_or_else(|e| panic!("{what} {algo}: {e}"))
        };
        assert_eq!(
            plan(ctx).plan,
            plan(&fresh).plan,
            "{what}: {algo} differs from a fresh context"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Removing a random sensor via the context keeps the incremental
    /// plan inside the contract catalog, bumps the revision, and leaves
    /// the context able to produce a fresh contract-clean plan for the
    /// new network revision.
    #[test]
    fn remove_sensor_replan_stays_contract_clean(
        seed in 0u64..500,
        n in 6usize..30,
        radius in 8.0f64..40.0,
        victim_pick in 0usize..1_000_000,
    ) {
        let net = deploy::uniform(n, Aabb::square(300.0), 2.0, seed);
        let cfg = PlannerConfig::paper_sim(radius);
        let mut ctx = PlanContext::new(net, cfg.clone());
        assert_plans_match_fresh(&ctx, &cfg, "revision 0");
        let plan = ctx.plan(Algorithm::Bc).expect("initial plan").plan;
        assert_contracts(&plan, ctx.network(), &cfg, "initial plan");

        let victim = victim_pick % n;
        let incremental = ctx.remove_sensor(&plan, victim).expect("replan");
        prop_assert_eq!(ctx.revision(), 1);
        prop_assert_eq!(ctx.network().len(), n - 1);
        assert_contracts(&incremental, ctx.network(), &cfg, "incremental replan");
        assert_plans_match_fresh(&ctx, &cfg, "after removal");

        // A fresh plan on the mutated revision goes through the same
        // context and must be contract-clean too.
        let fresh = ctx.plan(Algorithm::Bc).expect("fresh plan on revision 1").plan;
        assert_contracts(&fresh, ctx.network(), &cfg, "fresh plan after removal");
    }

    /// Adding a random sensor via the context: the incremental plan
    /// covers the newcomer and every veteran within the contract catalog,
    /// and the revision advances once per mutation.
    #[test]
    fn add_sensor_replan_stays_contract_clean(
        seed in 0u64..500,
        n in 5usize..25,
        radius in 8.0f64..40.0,
        x in 0.0f64..300.0,
        y in 0.0f64..300.0,
    ) {
        let net = deploy::uniform(n, Aabb::square(300.0), 2.0, seed);
        let cfg = PlannerConfig::paper_sim(radius);
        let mut ctx = PlanContext::new(net, cfg.clone());
        assert_plans_match_fresh(&ctx, &cfg, "revision 0");
        let plan = ctx.plan(Algorithm::Bc).expect("initial plan").plan;

        let incremental = ctx
            .add_sensor(&plan, Point { x, y }, 2.0)
            .expect("replan after addition");
        prop_assert_eq!(ctx.revision(), 1);
        prop_assert_eq!(ctx.network().len(), n + 1);
        assert_contracts(&incremental, ctx.network(), &cfg, "incremental add");
        assert_plans_match_fresh(&ctx, &cfg, "after addition");

        let fresh = ctx.plan(Algorithm::Bc).expect("fresh plan on revision 1").plan;
        assert_contracts(&fresh, ctx.network(), &cfg, "fresh plan after addition");
    }

    /// A remove-then-add sequence advances the revision monotonically
    /// and every intermediate plan stays contract-clean.
    #[test]
    fn mutation_sequence_advances_revisions(
        seed in 0u64..200,
        n in 8usize..20,
        radius in 10.0f64..30.0,
    ) {
        let net = deploy::uniform(n, Aabb::square(300.0), 2.0, seed);
        let cfg = PlannerConfig::paper_sim(radius);
        let mut ctx = PlanContext::new(net, cfg.clone());
        assert_plans_match_fresh(&ctx, &cfg, "revision 0");
        let plan = ctx.plan(Algorithm::Bc).expect("initial plan").plan;

        let after_remove = ctx.remove_sensor(&plan, 0).expect("remove");
        assert_contracts(&after_remove, ctx.network(), &cfg, "after remove");
        assert_plans_match_fresh(&ctx, &cfg, "after remove");
        let after_add = ctx
            .add_sensor(&after_remove, Point { x: 150.0, y: 150.0 }, 2.0)
            .expect("add");
        assert_contracts(&after_add, ctx.network(), &cfg, "after add");
        assert_plans_match_fresh(&ctx, &cfg, "after add");
        prop_assert_eq!(ctx.revision(), 2);
        prop_assert_eq!(ctx.network().len(), n);
    }
}
