//! Contracts of the `bc-obs` observability layer.
//!
//! Instrumentation must be *inert*: with a `NullRecorder` (or no
//! recorder) installed, planning produces bit-identical results. With a
//! `JsonlRecorder`, two same-seed runs must produce byte-identical event
//! streams — every emitted value is a pure function of the seeded inputs
//! (wall-clock durations are masked). And the recorder is the one store
//! of stage times and candidate-family builds: one `plan.stage.*` span
//! per stage run, one `plan.build.candidates` counter per family build,
//! accumulating across network revisions.
//!
//! All tests install recorders with `with_local`, which scopes them to
//! the current thread, so they are safe under the parallel test harness.

use std::sync::Arc;

use bundle_charging::core::context::PlanContext;
use bundle_charging::core::planner::Algorithm;
use bundle_charging::core::{ChargingPlan, Executor, FaultModel, PlannerConfig, RecoveryPolicy};
use bundle_charging::des::Scenario;
use bundle_charging::geom::Aabb;
use bundle_charging::obs::recorders::{JsonlRecorder, NullRecorder, StatsRecorder, StatsSnapshot};
use bundle_charging::obs::tree::{SpanTreeRecorder, TreeNode};
use bundle_charging::obs::{Kind, ObsEvent, Recorder, ScopedSpan, SpanCtx, Value};
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
    assert_eq!(
        mb.tour_length_m.get().to_bits(),
        mn.tour_length_m.get().to_bits()
    );
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
    assert_eq!(
        snap.critical_path().first().map(|n| n.name.as_str()),
        Some("plan.run")
    );
    let Some(tighten) = snap.node(&["plan.run", "plan.stage.tighten"]) else {
        panic!(
            "no plan.run -> plan.stage.tighten path in\n{}",
            snap.collapsed()
        )
    };
    let attribution = 1.0 - tighten.self_s / tighten.total_s.max(1e-12);
    assert!(
        attribution >= 0.90,
        "tighten attribution {attribution:.4} below 0.90"
    );
    // Work counters attach to the innermost open span (the sweep).
    fn total(node: &TreeNode, key: &str) -> u64 {
        node.counters.get(key).copied().unwrap_or(0)
            + node.children.iter().map(|c| total(c, key)).sum::<u64>()
    }
    let gs_evals = total(tighten, "plan.tighten.gs_evals");
    assert!(gs_evals > 0, "no golden-section evaluations counted");
    // Every round accounts for every charging stop exactly once: its
    // sweep ran, was pruned, or was skipped as a provable repeat.
    let spans = |path: &[&str]| snap.node(path).map_or(0, |n| n.count);
    let round = ["plan.run", "plan.stage.tighten", "plan.tighten.round"];
    let rounds = spans(&round);
    let sweeps = spans(&[&round[..], &["plan.tighten.sweep"]].concat());
    let pruned = total(tighten, "plan.tighten.anchors_pruned");
    let skipped = total(tighten, "plan.tighten.sweeps_skipped");
    assert!(skipped > 0, "no sweep was skipped as a repeat");
    let stops = u64::try_from(traced.num_charging_stops()).unwrap_or(u64::MAX);
    assert_eq!(
        sweeps + pruned + skipped,
        rounds * stops,
        "{sweeps} swept + {pruned} pruned + {skipped} skipped, {rounds} rounds of {stops} stops"
    );
    // Or-opt's work lands on the order stage itself, which opens no child.
    let Some(order) = snap.node(&["plan.run", "plan.stage.order"]) else {
        panic!(
            "no plan.run -> plan.stage.order path in\n{}",
            snap.collapsed()
        )
    };
    let or_scored = order
        .counters
        .get("plan.order.or_scored")
        .copied()
        .unwrap_or(0);
    assert!(
        or_scored > 0,
        "no Or-opt insertions counted under the order stage"
    );
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
            plan = Some(
                ctx.plan(algo)
                    .unwrap_or_else(|e| panic!("{algo:?} plans: {e}"))
                    .plan,
            );
        }
        let Some(plan) = plan else {
            panic!("at least one algorithm ran")
        };

        let executor = Executor::new(&net, &cfg).with_policy(RecoveryPolicy::SkipAndContinue);
        for round in 0..2 {
            let faults = FaultModel::with_rate(seed.wrapping_add(round), 0.1);
            executor
                .execute(&plan, &faults, round)
                .unwrap_or_else(|e| panic!("round {round}: {e:?}"));
        }

        let des_net = network(25, seed.wrapping_mul(3));
        let scenario = Scenario::paper_sim(des_net, 25.0, Algorithm::Bc);
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

/// The four `plan.stage.*` span names.
const STAGES: [&str; 4] = [
    "plan.stage.candidates",
    "plan.stage.cover",
    "plan.stage.order",
    "plan.stage.tighten",
];

/// Summed wall time of every stage span recorded so far.
fn stage_total_s(snap: &StatsSnapshot) -> f64 {
    STAGES.iter().map(|key| snap.span_total_s(key)).sum()
}

#[test]
fn stage_timings_accumulate_across_cache_replans() {
    let stats = Arc::new(StatsRecorder::new());
    let mut ctx = PlanContext::new(network(30, 5), PlannerConfig::paper_sim(25.0));
    bundle_charging::obs::with_local(Arc::clone(&stats) as Arc<dyn Recorder>, || {
        let mut last_total = 0.0;
        let mut plan = ctx.plan(Algorithm::BcOpt).expect("initial plan").plan;
        for step in 0..3u64 {
            let snap = stats.snapshot();
            for key in STAGES {
                assert_eq!(snap.span_count(key), step + 1, "{key} after {step} replans");
            }
            let total = stage_total_s(&snap);
            assert!(
                total >= last_total,
                "accumulated total went backwards at step {step}: {total} < {last_total}"
            );
            last_total = total;

            let reduced = ctx
                .remove_sensor(&plan, 0)
                .expect("sensor 0 exists at every revision");
            assert_eq!(ctx.revision(), step + 1);
            // The splice result is a valid plan; the next full replan runs
            // the staged pipeline again on the mutated network.
            assert!(!reduced.stops.is_empty());
            plan = ctx.plan(Algorithm::BcOpt).expect("replan").plan;
        }
    });
    let snap = stats.snapshot();
    for key in STAGES {
        assert_eq!(snap.span_count(key), 4, "{key}");
    }
    assert_eq!(
        snap.counter("plan.build.candidates"),
        4,
        "one family per revision"
    );
    assert!(
        stage_total_s(&snap) > 0.0,
        "four plans cannot take zero time"
    );
}

#[test]
fn stats_recorder_spans_mirror_stage_timings() {
    let stats = Arc::new(StatsRecorder::new());
    bundle_charging::obs::with_local(Arc::clone(&stats) as Arc<dyn Recorder>, || {
        let cfg = PlannerConfig::paper_sim(25.0);
        let mut ctx = PlanContext::new(network(30, 9), cfg);
        let staged = ctx.plan(Algorithm::BcOpt).expect("plan");
        let reduced = ctx.remove_sensor(&staged.plan, 1).expect("remove");
        assert!(!reduced.stops.is_empty());
        ctx.plan(Algorithm::BcOpt).expect("replan");
    });

    let snap = stats.snapshot();
    // Two staged BC-OPT plans -> two spans per stage, each inside its
    // pipeline's `plan.run` span.
    for key in STAGES {
        assert_eq!(snap.span_count(key), 2, "{key}");
    }
    assert_eq!(snap.span_count("plan.run"), 2);
    assert!(
        stage_total_s(&snap) <= snap.span_total_s("plan.run"),
        "stage spans {} outlast their runs {}",
        stage_total_s(&snap),
        snap.span_total_s("plan.run")
    );
    // The second revision rebuilt its candidate family (new network),
    // and nothing else built one.
    assert_eq!(snap.counter("plan.build.candidates"), 2);
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
    assert_eq!(
        snap.node(&["t.root", "t.doomed", "t.inner"])
            .map(|n| n.count),
        Some(1)
    );
    // The survivor is a *sibling* of the doomed span, under the root.
    assert_eq!(
        snap.node(&["t.root", "t.survivor"]).map(|n| n.count),
        Some(1)
    );
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

/// Closes a span of `seconds` straight into `tree` with the context
/// `ctx`, as the dispatch layer does when a guard drops. Lets a test
/// pick exact durations and record a span that carries no id.
fn close_span(
    tree: &SpanTreeRecorder,
    scope: &'static str,
    name: &'static str,
    seconds: f64,
    ctx: SpanCtx,
) {
    let event = ObsEvent {
        scope,
        name,
        kind: Kind::Span,
        value: Value::Wall(seconds),
        fields: &[],
    };
    tree.record(&event, ctx);
}

/// A fixed stream that exercises every folding rule of the tree:
/// repeated rounds, interleaved sibling names, grandchildren spread over
/// several parents (one name first seen under a later parent), spans
/// recorded with no id (one named as an existing sibling, one new), a
/// counter with no open span, and two `(scope, name)` pairs that spell
/// one key, as spans and as counters, at the root and inside a span.
fn golden_stream(tree: &Arc<SpanTreeRecorder>) {
    use bundle_charging::obs::counter;
    bundle_charging::obs::with_local(Arc::clone(tree) as Arc<dyn Recorder>, || {
        counter("obs", "orphan", 1, &[]);
        for run in 0..3u64 {
            let root = ScopedSpan::enter("plan", "run");
            counter("plan", "build.candidates", 1, &[]);
            for stage in ["stage.cover", "stage.order", "stage.cover"] {
                let span = ScopedSpan::enter("plan", stage);
                counter("plan", "work", run + 1, &[]);
                span.finish();
            }
            let tighten = ScopedSpan::enter("plan", "stage.tighten");
            for round in 0..2u64 {
                let r = ScopedSpan::enter("plan", "tighten.round");
                if run == 1 {
                    ScopedSpan::enter("plan", "tighten.late").finish();
                }
                for _ in 0..=(run + round) {
                    let sweep = ScopedSpan::enter("plan", "tighten.sweep");
                    counter("plan", "tighten.gs_evals", 114, &[]);
                    sweep.finish();
                }
                r.finish();
            }
            tighten.finish();
            let parent = SpanCtx {
                id: None,
                parent: root.id(),
                depth: 1,
            };
            close_span(tree, "plan", "stage.cover", 0.0, parent);
            close_span(tree, "plan", "stage.extra", 0.0, parent);
            root.finish();
        }
        let first = ScopedSpan::enter("a.b", "c");
        counter("x.y", "z", 2, &[]);
        ScopedSpan::enter("k", "v").finish();
        counter("x", "y.z", 3, &[]);
        first.finish();
        let second = ScopedSpan::enter("a", "b.c");
        ScopedSpan::enter("k", "v").finish();
        counter("x.y", "z", 5, &[]);
        second.finish();
        counter("a", "b.c", 7, &[]);
        counter("a.b", "c", 11, &[]);
        counter("obs", "orphan", 1, &[]);
    });
}

/// The masked tree of [`golden_stream`], pinned as text: structure, fold
/// counts, first-seen order and counters.
#[test]
fn span_tree_golden_folds_every_shape() {
    let tree = Arc::new(SpanTreeRecorder::deterministic());
    golden_stream(&tree);
    let snap = tree.snapshot();
    assert_eq!(
        snap.to_json(),
        concat!(
            "{\n",
            "  \"roots\": [\n",
            "    {\n",
            "      \"name\": \"plan.run\",\n",
            "      \"count\": 3,\n",
            "      \"total_s\": 0,\n",
            "      \"self_s\": 0,\n",
            "      \"counters\": {\"plan.build.candidates\": 3},\n",
            "      \"children\": [\n",
            "        {\n",
            "          \"name\": \"plan.stage.cover\",\n",
            "          \"count\": 9,\n",
            "          \"total_s\": 0,\n",
            "          \"self_s\": 0,\n",
            "          \"counters\": {\"plan.work\": 12},\n",
            "          \"children\": []\n",
            "        },\n",
            "        {\n",
            "          \"name\": \"plan.stage.order\",\n",
            "          \"count\": 3,\n",
            "          \"total_s\": 0,\n",
            "          \"self_s\": 0,\n",
            "          \"counters\": {\"plan.work\": 6},\n",
            "          \"children\": []\n",
            "        },\n",
            "        {\n",
            "          \"name\": \"plan.stage.tighten\",\n",
            "          \"count\": 3,\n",
            "          \"total_s\": 0,\n",
            "          \"self_s\": 0,\n",
            "          \"counters\": {},\n",
            "          \"children\": [\n",
            "            {\n",
            "              \"name\": \"plan.tighten.round\",\n",
            "              \"count\": 6,\n",
            "              \"total_s\": 0,\n",
            "              \"self_s\": 0,\n",
            "              \"counters\": {},\n",
            "              \"children\": [\n",
            "                {\n",
            "                  \"name\": \"plan.tighten.sweep\",\n",
            "                  \"count\": 15,\n",
            "                  \"total_s\": 0,\n",
            "                  \"self_s\": 0,\n",
            "                  \"counters\": {\"plan.tighten.gs_evals\": 1710},\n",
            "                  \"children\": []\n",
            "                },\n",
            "                {\n",
            "                  \"name\": \"plan.tighten.late\",\n",
            "                  \"count\": 2,\n",
            "                  \"total_s\": 0,\n",
            "                  \"self_s\": 0,\n",
            "                  \"counters\": {},\n",
            "                  \"children\": []\n",
            "                }\n",
            "              ]\n",
            "            }\n",
            "          ]\n",
            "        },\n",
            "        {\n",
            "          \"name\": \"plan.stage.extra\",\n",
            "          \"count\": 3,\n",
            "          \"total_s\": 0,\n",
            "          \"self_s\": 0,\n",
            "          \"counters\": {},\n",
            "          \"children\": []\n",
            "        }\n",
            "      ]\n",
            "    },\n",
            "    {\n",
            "      \"name\": \"a.b.c\",\n",
            "      \"count\": 2,\n",
            "      \"total_s\": 0,\n",
            "      \"self_s\": 0,\n",
            "      \"counters\": {\"x.y.z\": 10},\n",
            "      \"children\": [\n",
            "        {\n",
            "          \"name\": \"k.v\",\n",
            "          \"count\": 2,\n",
            "          \"total_s\": 0,\n",
            "          \"self_s\": 0,\n",
            "          \"counters\": {},\n",
            "          \"children\": []\n",
            "        }\n",
            "      ]\n",
            "    }\n",
            "  ],\n",
            "  \"unattributed\": {\"a.b.c\": 18, \"obs.orphan\": 2}\n",
            "}",
        )
    );
    assert_eq!(
        snap.collapsed(),
        concat!(
            "plan.run 0\n",
            "plan.run;plan.stage.cover 0\n",
            "plan.run;plan.stage.order 0\n",
            "plan.run;plan.stage.tighten 0\n",
            "plan.run;plan.stage.tighten;plan.tighten.round 0\n",
            "plan.run;plan.stage.tighten;plan.tighten.round;plan.tighten.sweep 0\n",
            "plan.run;plan.stage.tighten;plan.tighten.round;plan.tighten.late 0\n",
            "plan.run;plan.stage.extra 0\n",
            "a.b.c 0\n",
            "a.b.c;k.v 0\n",
        )
    );
}

/// Exact binary-fraction durations pin the unmasked sums: `total_s`
/// adds the completions, `self_s` subtracts the folded children's
/// totals, and the critical path follows the heaviest child.
#[test]
fn span_tree_sums_exact_durations() {
    let tree = SpanTreeRecorder::new();
    let ctx = |id, parent, depth| SpanCtx {
        id: Some(id),
        parent,
        depth,
    };
    // p(1) { c(2) { g(3) }, c(4), d(5) }, then p(6) { c(7) }, then q(8).
    close_span(&tree, "t", "g", 0.125, ctx(3, Some(2), 2));
    close_span(&tree, "t", "c", 0.5, ctx(2, Some(1), 1));
    close_span(&tree, "t", "c", 0.25, ctx(4, Some(1), 1));
    close_span(&tree, "t", "d", 0.125, ctx(5, Some(1), 1));
    close_span(&tree, "t", "p", 1.0, ctx(1, None, 0));
    close_span(&tree, "t", "c", 0.25, ctx(7, Some(6), 1));
    close_span(&tree, "t", "p", 0.5, ctx(6, None, 0));
    close_span(&tree, "t", "q", 1.25, ctx(8, None, 0));
    let snap = tree.snapshot();
    let node = |path: &[&str]| {
        let n = snap
            .node(path)
            .unwrap_or_else(|| panic!("no node {path:?} in\n{}", snap.collapsed()));
        (n.count, n.total_s, n.self_s)
    };
    assert_eq!(node(&["t.p"]), (2, 1.5, 0.375));
    assert_eq!(node(&["t.p", "t.c"]), (3, 1.0, 0.875));
    assert_eq!(node(&["t.p", "t.c", "t.g"]), (1, 0.125, 0.125));
    assert_eq!(node(&["t.p", "t.d"]), (1, 0.125, 0.125));
    assert_eq!(node(&["t.q"]), (1, 1.25, 1.25));
    assert_eq!(snap.total_s(), 2.75);
    let path: Vec<&str> = snap
        .critical_path()
        .iter()
        .map(|n| n.name.as_str())
        .collect();
    assert_eq!(path, ["t.p", "t.c", "t.g"]);
    assert_eq!(
        snap.collapsed(),
        "t.p 375000\nt.p;t.c 875000\nt.p;t.c;t.g 125000\nt.p;t.d 125000\nt.q 1250000\n"
    );
}
