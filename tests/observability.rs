//! Contracts of the `bc-obs` observability layer.
//!
//! Instrumentation must be *inert*: with a `NullRecorder` (or no
//! recorder) installed, planning produces bit-identical results. With a
//! `JsonlRecorder`, two same-seed runs must produce byte-identical event
//! streams — every emitted value is a pure function of the seeded inputs
//! (wall-clock durations are masked by default). And the `StageTimings`
//! carried on every `StagedPlan` must agree with the span series the
//! recorder aggregates, because both are views over the same
//! measurement.
//!
//! All tests install recorders with `with_local`, which scopes them to
//! the current thread, so they are safe under the parallel test harness.

use std::sync::Arc;

use bundle_charging::core::context::{ContextCache, PlanContext, StageTimings};
use bundle_charging::core::planner::Algorithm;
use bundle_charging::core::{ChargingPlan, Executor, FaultModel, PlannerConfig, RecoveryPolicy};
use bundle_charging::des::{DispatchPolicy, Scenario};
use bundle_charging::geom::Aabb;
use bundle_charging::obs::recorders::{JsonlRecorder, NullRecorder, StatsRecorder};
use bundle_charging::obs::tree::{SpanTreeRecorder, TreeNode};
use bundle_charging::obs::{Recorder, ScopedSpan};
use bundle_charging::wsn::{deploy, Network};
use proptest::prelude::*;

fn network(n: usize, seed: u64) -> Network {
    deploy::uniform(n, Aabb::square(250.0), 2.0, seed)
}

fn plan_bc_opt(net: &Network, cfg: &PlannerConfig) -> ChargingPlan {
    PlanContext::new(net.clone(), cfg.clone())
        .plan(Algorithm::BcOpt)
        .unwrap_or_else(|e| panic!("BC-OPT plans: {e}"))
        .plan
}

#[test]
fn null_recorder_keeps_plans_bit_identical() {
    let net = network(40, 11);
    let cfg = PlannerConfig::paper_sim(25.0);

    let bare = plan_bc_opt(&net, &cfg);
    let nulled = bundle_charging::obs::with_local(Arc::new(NullRecorder), || {
        assert!(
            !bundle_charging::obs::active(),
            "NullRecorder must keep the emission path disabled"
        );
        let plan = plan_bc_opt(&net, &cfg);
        // Inertness extends to the causal profiler: with emission
        // disabled no span may even push the thread-local stack.
        assert_eq!(bundle_charging::obs::span_stack_depth(), 0);
        plan
    });

    assert_eq!(bare, nulled);
    let (mb, mn) = (bare.metrics(&cfg.energy), nulled.metrics(&cfg.energy));
    assert_eq!(mb, mn);
    // PartialEq compares payloads; pin down bit-level identity too.
    assert_eq!(
        mb.total_energy_j.get().to_bits(),
        mn.total_energy_j.get().to_bits()
    );
    assert_eq!(mb.tour_length_m.get().to_bits(), mn.tour_length_m.get().to_bits());
}

/// The profiler's usefulness floor, on n = 100 sensors in a 300 m field
/// (seed 1000) planned by BC-OPT at r = 25 m under a timing
/// `SpanTreeRecorder`: at least 90% of the tighten stage's wall time
/// lands in named child spans, so a slow tighten can be traced to its
/// rounds and sweeps. The tree's shape and counters are pinned too, and
/// tracing must not change the plan.
#[test]
fn span_tree_attributes_tighten_time_to_named_children() {
    let net = deploy::uniform(100, Aabb::square(300.0), 2.0, 1000);
    let cfg = PlannerConfig::paper_sim(25.0);
    let tree = Arc::new(SpanTreeRecorder::new());
    let traced = bundle_charging::obs::with_local(Arc::clone(&tree) as Arc<dyn Recorder>, || {
        plan_bc_opt(&net, &cfg)
    });
    assert_eq!(traced, plan_bc_opt(&net, &cfg), "tracing changed the plan");

    let snap = tree.snapshot();
    assert_eq!(snap.node_count(), 8, "{}", snap.collapsed());
    assert_eq!(snap.collapsed().lines().count(), snap.node_count());
    assert_eq!(snap.critical_path().first().map(|n| n.name.as_str()), Some("plan.run"));
    let Some(tighten) = snap.node(&["plan.run", "plan.stage.tighten"]) else {
        panic!("no plan.run -> plan.stage.tighten path in\n{}", snap.collapsed())
    };
    let attribution = 1.0 - tighten.self_s / tighten.total_s.max(1e-12);
    assert!(attribution >= 0.90, "tighten attribution {attribution:.4} below 0.90");
    // Work counters attach to the innermost open span (the sweep).
    fn gs_evals(node: &TreeNode) -> u64 {
        node.counters.get("plan.tighten.gs_evals").copied().unwrap_or(0)
            + node.children.iter().map(gs_evals).sum::<u64>()
    }
    assert!(gs_evals(tighten) > 0, "no golden-section evaluations counted");
}

/// Runs the three instrumented subsystems under a thread-local JSONL
/// recorder and returns the raw byte stream.
fn traced_run(seed: u64) -> Vec<u8> {
    let jsonl = Arc::new(JsonlRecorder::new(Vec::new()));
    bundle_charging::obs::with_local(Arc::clone(&jsonl) as Arc<dyn Recorder>, || {
        let net = network(35, seed);
        let cfg = PlannerConfig::paper_sim(25.0);
        let ctx = PlanContext::new(net.clone(), cfg.clone());
        let mut plan = None;
        for algo in Algorithm::ALL {
            plan = Some(ctx.plan(algo).unwrap_or_else(|e| panic!("{algo:?} plans: {e}")).plan);
        }
        let Some(plan) = plan else { panic!("at least one algorithm ran") };

        let executor = Executor::new(&net, &cfg).with_policy(RecoveryPolicy::SkipAndContinue);
        for round in 0..2 {
            let faults = FaultModel::with_rate(seed.wrapping_add(round), 0.1);
            executor
                .execute(&plan, &faults, round)
                .unwrap_or_else(|e| panic!("round {round}: {e:?}"));
        }

        let des_net = network(25, seed.wrapping_mul(3));
        let scenario = Scenario::paper_sim(des_net, 25.0, Algorithm::Bc)
            .with_fleet(2, DispatchPolicy::RoundRobin);
        bundle_charging::des::run(&scenario).unwrap_or_else(|e| panic!("des run: {e:?}"));
    });
    let Ok(jsonl) = Arc::try_unwrap(jsonl) else {
        panic!("JSONL recorder still shared after with_local returned")
    };
    jsonl.into_inner()
}

#[test]
fn jsonl_streams_are_byte_identical_for_equal_seeds() {
    let a = traced_run(42);
    let b = traced_run(42);
    assert!(!a.is_empty(), "the run must emit events");
    assert_eq!(a, b, "same-seed event streams must be byte-identical");

    let text = String::from_utf8(a).expect("JSONL is UTF-8");
    let events = bundle_charging::obs::json::validate_jsonl(&text)
        .expect("every emitted line is valid JSON");
    assert!(events > 0);

    let c = traced_run(43);
    assert_ne!(b, c, "a different seed must change the stream");
}

#[test]
fn stage_timings_accumulate_across_cache_replans() {
    let cfg = PlannerConfig::paper_sim(25.0);
    let mut cache = ContextCache::new(network(30, 5), cfg);

    let mut cumulative = StageTimings::default();
    let mut last_total = 0.0;
    let mut plan = cache.plan(Algorithm::BcOpt).expect("initial plan");
    for step in 0..3 {
        cumulative += plan.timings;
        let total = cumulative.total().get();
        assert!(
            total >= last_total,
            "accumulated total went backwards at step {step}: {total} < {last_total}"
        );
        last_total = total;

        let reduced = cache
            .remove_sensor(&plan.plan, 0)
            .expect("sensor 0 exists at every revision");
        assert_eq!(cache.revision(), step + 1);
        // The splice result is a valid plan; the next full replan runs
        // the staged pipeline again on the mutated network.
        assert!(!reduced.stops.is_empty());
        plan = cache.plan(Algorithm::BcOpt).expect("replan");
    }
    cumulative += plan.timings;

    // The cumulative per-stage fields must sum to the cumulative total
    // (the `Add`/`AddAssign` impls are field-wise, `total()` derives).
    let parts = cumulative.candidates_s + cumulative.cover_s + cumulative.order_s
        + cumulative.tighten_s;
    assert!((parts - cumulative.total()).get().abs() < 1e-12);
    assert!(cumulative.total().get() > 0.0, "four plans cannot take zero time");

    // The operator agrees with scalar addition of totals.
    let doubled = cumulative + cumulative;
    assert!((doubled.total().get() - 2.0 * cumulative.total().get()).abs() < 1e-9);
}

#[test]
fn stats_recorder_spans_mirror_stage_timings() {
    let stats = Arc::new(StatsRecorder::new());
    let mut timings = StageTimings::default();
    bundle_charging::obs::with_local(Arc::clone(&stats) as Arc<dyn Recorder>, || {
        let cfg = PlannerConfig::paper_sim(25.0);
        let mut cache = ContextCache::new(network(30, 9), cfg);
        let staged = cache.plan(Algorithm::BcOpt).expect("plan");
        let reduced = cache.remove_sensor(&staged.plan, 1).expect("remove");
        timings += staged.timings;
        assert!(!reduced.stops.is_empty());
        timings += cache.plan(Algorithm::BcOpt).expect("replan").timings;
    });

    let snap = stats.snapshot();
    // Two staged BC-OPT plans -> two spans per stage.
    for stage in ["stage.candidates", "stage.cover", "stage.order", "stage.tighten"] {
        let key = format!("plan.{stage}");
        assert_eq!(snap.span_count(&key), 2, "{key}");
    }
    // The recorder's span totals and the StagedPlan timings are two views
    // over the same elapsed measurement.
    let span_total = snap.span_total_s("plan.stage.candidates")
        + snap.span_total_s("plan.stage.cover")
        + snap.span_total_s("plan.stage.order")
        + snap.span_total_s("plan.stage.tighten");
    assert!(
        (span_total - timings.total().get()).abs() < 1e-9,
        "span totals {span_total} != timings {}",
        timings.total().get()
    );
    // The second revision rebuilt its artifacts (new network).
    assert!(snap.counter("plan.build.candidates") >= 2);
}

/// A panic inside a nested span must unwind cleanly: the open guards
/// drop in reverse order, the thread-local span stack pops back to the
/// catch point, and spans entered *after* the recovery parent under the
/// still-open ancestor — not under the span that died.
#[test]
fn panicking_span_unwinds_the_stack_and_siblings_reparent() {
    let tree = Arc::new(SpanTreeRecorder::deterministic());
    bundle_charging::obs::with_local(Arc::clone(&tree) as Arc<dyn Recorder>, || {
        let root = ScopedSpan::enter("t", "root");
        assert_eq!(bundle_charging::obs::span_stack_depth(), 1);

        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _outer = ScopedSpan::enter("t", "doomed");
            let _inner = ScopedSpan::enter("t", "inner");
            assert_eq!(bundle_charging::obs::span_stack_depth(), 3);
            panic!("injected");
        }));
        assert!(caught.is_err(), "the panic must propagate to catch_unwind");
        assert_eq!(
            bundle_charging::obs::span_stack_depth(),
            1,
            "unwind must pop both dying guards off the thread-local stack"
        );

        // Work resumes: a sibling span after the recovery point.
        let survivor = ScopedSpan::enter("t", "survivor");
        survivor.finish();
        root.finish();
        assert_eq!(bundle_charging::obs::span_stack_depth(), 0);
    });

    let snap = tree.snapshot();
    // Both dying spans were emitted by their Drop impls mid-unwind, in
    // reverse (inner-first) order, correctly parented.
    assert_eq!(snap.node(&["t.root", "t.doomed", "t.inner"]).map(|n| n.count), Some(1));
    // The survivor is a *sibling* of the doomed span, under the root.
    assert_eq!(snap.node(&["t.root", "t.survivor"]).map(|n| n.count), Some(1));
    assert!(
        snap.node(&["t.root", "t.doomed", "t.survivor"]).is_none(),
        "post-panic spans must not parent under the span that died"
    );
}

/// Builds the masked span-tree snapshot JSON of one BC-OPT plan.
fn span_tree_json(net: &Network, cfg: &PlannerConfig, workers: usize) -> String {
    let tree = Arc::new(SpanTreeRecorder::deterministic());
    bundle_charging::obs::with_local(Arc::clone(&tree) as Arc<dyn Recorder>, || {
        PlanContext::new(net.clone(), cfg.clone())
            .with_workers(workers)
            .plan(Algorithm::BcOpt)
            .unwrap_or_else(|e| panic!("BC-OPT plans at {workers} workers: {e}"));
    });
    tree.snapshot().to_json()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The profiler's determinism contract: with wall durations masked,
    /// the folded span-tree snapshot — structure, fold counts, and every
    /// work-attribution counter — is byte-identical across worker counts,
    /// because all spans and counters are emitted on the single-threaded
    /// orchestrator, never inside worker closures.
    #[test]
    fn span_tree_snapshot_is_byte_identical_across_worker_counts(
        seed in 0u64..500,
        n in 25usize..40,
    ) {
        let net = network(n, seed);
        let cfg = PlannerConfig::paper_sim(25.0);
        let one = span_tree_json(&net, &cfg, 1);
        let two = span_tree_json(&net, &cfg, 2);
        let four = span_tree_json(&net, &cfg, 4);
        prop_assert!(!one.is_empty());
        prop_assert_eq!(&one, &two, "1 vs 2 workers");
        prop_assert_eq!(&two, &four, "2 vs 4 workers");
        // And the snapshot shows the causal chain the profiler exists
        // for: tighten rounds under the stage span, counters attached.
        prop_assert!(one.contains("\"plan.stage.tighten\""), "{}", one);
        prop_assert!(one.contains("\"plan.tighten.gs_evals\""), "{}", one);
    }
}
