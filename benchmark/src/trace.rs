//! The traced half of a run: a process-wide span-tree recorder, and the
//! per-layer metrics folded out of its snapshot.
//!
//! The library already opens spans at each layer boundary (`plan.run`,
//! `plan.stage.*`, `plan.build.*`, `plan.tighten.*`, `serve.request`,
//! `serve.rung`, `des.run`); the benchmark adds its own `bench.*` span
//! around every public call it makes, so a layer's share of an
//! operation is read against the operation the benchmark timed.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

use bc_obs::tree::{SpanTreeRecorder, SpanTreeSnapshot, TreeNode};

use crate::report::Report;

/// A [`SpanTreeRecorder`] installed process-wide, so service worker
/// threads are recorded too.
pub struct Tracer {
    tree: Arc<SpanTreeRecorder>,
}

impl Tracer {
    pub fn install() -> Tracer {
        let tree = Arc::new(SpanTreeRecorder::new());
        bc_obs::install(tree.clone());
        Tracer { tree }
    }

    /// Uninstalls the recorder and folds what it saw.
    pub fn finish(self) -> SpanTreeSnapshot {
        bc_obs::uninstall();
        self.tree.snapshot()
    }
}

/// Writes `span_tree.json` and `profile.folded` under `dir`.
pub fn write_profile(snapshot: &SpanTreeSnapshot, dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    for (file, text) in [
        ("span_tree.json", snapshot.to_json()),
        ("profile.folded", snapshot.collapsed()),
    ] {
        let path = dir.join(file);
        std::fs::write(&path, text).map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok(())
}

/// Summed time and completions of every node with one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NodeSum {
    pub count: u64,
    pub total_s: f64,
    pub self_s: f64,
}

/// The span tree flattened by node name, wherever the node sits.
#[derive(Debug, Default)]
pub struct Layers {
    nodes: BTreeMap<String, NodeSum>,
    counters: BTreeMap<String, u64>,
    /// `plan.build.*` spans inside some `plan.run`: a plan request that
    /// had to build an artifact.
    builds_in_plans: u64,
}

impl Layers {
    pub fn new(snapshot: &SpanTreeSnapshot) -> Layers {
        let mut layers = Layers::default();
        for root in &snapshot.roots {
            layers.add(root, false);
        }
        layers
    }

    fn add(&mut self, node: &TreeNode, in_plan: bool) {
        let sum = self.nodes.entry(node.name.clone()).or_default();
        sum.count += node.count;
        sum.total_s += node.total_s;
        sum.self_s += node.self_s;
        for (k, v) in &node.counters {
            *self.counters.entry(k.clone()).or_default() += v;
        }
        if in_plan && node.name.starts_with("plan.build.") {
            self.builds_in_plans += node.count;
        }
        let in_plan = in_plan || node.name == "plan.run";
        for child in &node.children {
            self.add(child, in_plan);
        }
    }

    pub fn node(&self, name: &str) -> NodeSum {
        self.nodes.get(name).copied().unwrap_or_default()
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64
    }

    /// Records the planner-layer metrics, each per unit operation
    /// (`ops` plans, requests or seeds).
    pub fn record_planner(&self, r: &mut Report, ops: f64) {
        let per_op = |v: f64| if ops > 0.0 { v / ops } else { 0.0 };
        r.set(
            "context.candidate_builds",
            per_op(self.counter("plan.build.candidates")),
        );
        r.set(
            "context.matrix_builds",
            per_op(self.counter("plan.build.matrix")),
        );
        r.set(
            "context.power_table_builds",
            per_op(self.counter("plan.build.power_table")),
        );
        let runs = self.node("plan.run").count as f64;
        if runs > 0.0 {
            r.set(
                "context.hit_ratio",
                1.0 - self.builds_in_plans as f64 / runs,
            );
        }
        r.set(
            "candidates.build_s",
            per_op(self.node("plan.build.candidates").total_s),
        );
        let cover = self.node("plan.stage.cover").total_s;
        let order = self.node("plan.stage.order").total_s;
        let tighten = self.node("plan.stage.tighten").total_s;
        r.set("cover.s", per_op(cover));
        r.set("order.s", per_op(order));
        r.set("tighten.s", per_op(tighten));
        r.set(
            "tighten.rounds",
            per_op(self.node("plan.tighten.round").count as f64),
        );
        r.set(
            "tighten.gs_evals",
            per_op(self.counter("plan.tighten.gs_evals")),
        );
        let relocations = self.counter("plan.tighten.relocations");
        r.set("tighten.relocations", per_op(relocations));
        r.set(
            "tighten.anchors_pruned",
            per_op(self.counter("plan.tighten.anchors_pruned")),
        );
        let examined = self.counter("plan.tighten.candidates");
        if examined > 0.0 {
            r.set("tighten.relocation_ratio", relocations / examined);
        }
        // The four stages against the plan call the benchmark timed, or
        // against the pipeline root where the call is internal (serve,
        // campaign).
        let stages = self.node("plan.stage.candidates").total_s + cover + order + tighten;
        let timed = match self.node("bench.plan").total_s {
            t if t > 0.0 => t,
            _ => self.node("plan.run").total_s,
        };
        if timed > 0.0 {
            r.set("plan.stage_coverage", stages / timed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bc_obs::{counter, with_local, ScopedSpan};

    #[test]
    fn layers_sum_nodes_by_name_and_count_builds_inside_plans() {
        let tree = Arc::new(SpanTreeRecorder::new());
        with_local(tree.clone(), || {
            for built in [true, false] {
                let op = ScopedSpan::enter("bench", "plan");
                let run = ScopedSpan::enter("plan", "run");
                let stage = ScopedSpan::enter("plan", "stage.candidates");
                if built {
                    ScopedSpan::enter("plan", "build.candidates").finish();
                    counter("plan", "build.candidates", 1, &[]);
                }
                stage.finish();
                let tighten = ScopedSpan::enter("plan", "stage.tighten");
                counter("plan", "tighten.candidates", 24, &[]);
                counter("plan", "tighten.relocations", 6, &[]);
                tighten.finish();
                run.finish();
                op.finish();
            }
        });
        let layers = Layers::new(&tree.snapshot());
        assert_eq!(layers.node("plan.run").count, 2);
        assert_eq!(layers.node("plan.build.candidates").count, 1);
        assert_eq!(layers.counter("plan.tighten.candidates"), 48.0);
        let mut r = Report::new("plan-dense", 1, 1, true);
        layers.record_planner(&mut r, 2.0);
        assert_eq!(r.metrics["context.hit_ratio"], Some(0.5));
        assert_eq!(r.metrics["context.candidate_builds"], Some(0.5));
        assert_eq!(r.metrics["tighten.relocation_ratio"], Some(0.25));
        let coverage = r.metrics["plan.stage_coverage"].unwrap();
        assert!(coverage > 0.0 && coverage <= 1.0, "{coverage}");
    }
}
