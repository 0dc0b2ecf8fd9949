//! Causal span-tree profiling: [`SpanTreeRecorder`] folds the
//! [`crate::ScopedSpan`] stream into a deterministic tree snapshot with
//! self-time accounting, critical-path extraction and collapsed-stack
//! (flamegraph-compatible) export.
//!
//! # Model
//!
//! Every completed [`crate::Kind::Span`] carrying a [`crate::SpanCtx`]
//! id is a tree node; its `parent` id says where it hangs. Because span
//! ids are fresh every run they never appear in output — the recorder
//! uses them only to pair children with parents while spans are in
//! flight, then *folds by name*: all completions of `plan.stage.tighten`
//! under the same parent path collapse into one node with a count, a
//! summed total, and merged counters. Counters emitted while a span is
//! open attach to that span (the innermost open one); counters with no
//! open span land in the snapshot's `unattributed` map.
//!
//! # Determinism
//!
//! Instrumented code emits spans and counters on single-threaded
//! orchestrator loops (see the crate docs), so completion order — and
//! with it first-seen child order — is a pure function of the seeded
//! inputs. With [`SpanTreeRecorder::deterministic`] masking wall
//! durations, [`SpanTreeSnapshot::to_json`] is byte-identical across
//! runs and worker counts; the proptest in `tests/observability.rs`
//! pins this across workers {1, 2, 4}.

use crate::json::{escape_into, number_into};
use crate::{Kind, ObsEvent, Recorder, SpanCtx, Value};
use std::collections::BTreeMap;
use std::sync::{Mutex, PoisonError};

/// A span that has completed but whose parent is still open: it waits in
/// the in-flight state, keyed by the parent's id, until the parent
/// closes and adopts it.
#[derive(Debug, Clone)]
struct Pending {
    name: String,
    total_s: f64,
    children: Vec<Pending>,
    counters: BTreeMap<String, u64>,
}

#[derive(Debug, Default)]
struct TreeState {
    /// Completed children waiting for their parent span to close,
    /// keyed by the parent's (run-local) span id, in completion order.
    pending: BTreeMap<u64, Vec<Pending>>,
    /// Counter totals attributed to a still-open span, by its id.
    open_counters: BTreeMap<u64, BTreeMap<String, u64>>,
    /// Completed root spans, in completion order.
    roots: Vec<Pending>,
    /// Counters emitted with no span open anywhere on the stack.
    unattributed: BTreeMap<String, u64>,
}

/// Folds the causal span stream into a [`SpanTreeSnapshot`].
///
/// Only [`Kind::Span`] and [`Kind::Counter`] events shape the tree;
/// histograms and point events pass through untouched (pair this
/// recorder with a [`crate::recorders::StatsRecorder`] in a fanout when
/// you want both views). A span recorded without a [`SpanCtx`] id (by
/// calling [`Recorder::record`] directly) becomes a leaf under the span
/// its context names, or a root.
#[derive(Debug, Default)]
pub struct SpanTreeRecorder {
    state: Mutex<TreeState>,
    mask_wall: bool,
}

impl SpanTreeRecorder {
    /// An empty tree recorder keeping real wall durations.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A tree recorder that masks wall durations to `0.0`, so snapshots
    /// hold only structure, counts and counters — byte-identical across
    /// runs of the same seed.
    #[must_use]
    pub fn deterministic() -> Self {
        SpanTreeRecorder {
            state: Mutex::default(),
            mask_wall: true,
        }
    }

    /// Folds everything recorded so far into a snapshot. Spans still
    /// open (or whose parent never closed) are *not* in the snapshot —
    /// take it after the instrumented region finishes.
    #[must_use]
    pub fn snapshot(&self) -> SpanTreeSnapshot {
        let state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        SpanTreeSnapshot {
            roots: fold_siblings(&state.roots),
            unattributed: state.unattributed.clone(),
        }
    }

    fn record_inner(&self, event: &ObsEvent<'_>, ctx: SpanCtx) {
        match (event.kind, event.value) {
            (Kind::Span, value) => {
                let total_s = match value {
                    Value::Wall(s) if !self.mask_wall => s,
                    _ => 0.0,
                };
                let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
                // A span without an id is a leaf: nothing can have
                // parented under it.
                let node = Pending {
                    name: event.key(),
                    total_s,
                    children: ctx
                        .id
                        .and_then(|id| state.pending.remove(&id))
                        .unwrap_or_default(),
                    counters: ctx
                        .id
                        .and_then(|id| state.open_counters.remove(&id))
                        .unwrap_or_default(),
                };
                match ctx.parent {
                    Some(parent) => state.pending.entry(parent).or_default().push(node),
                    None => state.roots.push(node),
                }
            }
            (Kind::Counter, Value::U64(delta)) => {
                let key = event.key();
                let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
                let sink = match ctx.parent {
                    Some(owner) => state.open_counters.entry(owner).or_default(),
                    None => &mut state.unattributed,
                };
                *sink.entry(key).or_insert(0) += delta;
            }
            _ => {}
        }
    }
}

impl Recorder for SpanTreeRecorder {
    fn record(&self, event: &ObsEvent<'_>) {
        // No causal context available: treat as emitted at the stack
        // root (spans become roots, counters land unattributed).
        self.record_inner(event, SpanCtx::default());
    }

    fn record_ctx(&self, event: &ObsEvent<'_>, ctx: SpanCtx) {
        self.record_inner(event, ctx);
    }
}

/// Groups a completion-ordered sibling list by name (first-seen order)
/// and recurses, so repeated executions of the same logical span — loop
/// rounds, per-anchor sweeps — collapse into one counted node.
fn fold_siblings(siblings: &[Pending]) -> Vec<TreeNode> {
    /// Accumulator for one name group while its siblings stream in.
    #[derive(Default)]
    struct Group<'a> {
        count: u64,
        total_s: f64,
        members: Vec<&'a Pending>,
        counters: BTreeMap<String, u64>,
    }
    let mut order: Vec<&str> = Vec::new();
    let mut groups: BTreeMap<&str, Group<'_>> = BTreeMap::new();
    for p in siblings {
        let entry = groups.entry(p.name.as_str()).or_insert_with(|| {
            order.push(p.name.as_str());
            Group::default()
        });
        entry.count += 1;
        entry.total_s += p.total_s;
        entry.members.push(p);
        for (k, v) in &p.counters {
            *entry.counters.entry(k.clone()).or_insert(0) += v;
        }
    }
    order
        .into_iter()
        .map(|name| {
            let group = &groups[name];
            // Children from every member, in completion order, folded
            // as one sibling list so grandchildren group across rounds.
            let merged: Vec<Pending> = group
                .members
                .iter()
                .flat_map(|m| m.children.iter().cloned())
                .collect();
            let children = fold_siblings(&merged);
            let child_total: f64 = children.iter().map(|c| c.total_s).sum();
            TreeNode {
                name: name.to_string(),
                count: group.count,
                total_s: group.total_s,
                self_s: (group.total_s - child_total).max(0.0),
                counters: group.counters.clone(),
                children,
            }
        })
        .collect()
}

/// One folded node of the span tree.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeNode {
    /// `scope.name` of the spans folded into this node.
    pub name: String,
    /// How many span completions folded in.
    pub count: u64,
    /// Summed wall seconds across them (`0.0` under masking).
    pub total_s: f64,
    /// `total_s` minus the children's totals, floored at zero — the
    /// time this span spent *not* inside a named child.
    pub self_s: f64,
    /// Counter totals attributed to this node (summed across folds).
    pub counters: BTreeMap<String, u64>,
    /// Child nodes, in first-seen completion order.
    pub children: Vec<TreeNode>,
}

impl TreeNode {
    fn render_json(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent);
        let inner = "  ".repeat(indent + 1);
        out.push_str(&pad);
        out.push_str("{\n");
        out.push_str(&inner);
        out.push_str("\"name\": ");
        escape_into(out, &self.name);
        out.push_str(&format!(",\n{inner}\"count\": {},\n", self.count));
        out.push_str(&inner);
        out.push_str("\"total_s\": ");
        number_into(out, self.total_s);
        out.push_str(",\n");
        out.push_str(&inner);
        out.push_str("\"self_s\": ");
        number_into(out, self.self_s);
        out.push_str(",\n");
        out.push_str(&inner);
        out.push_str("\"counters\": {");
        let mut first = true;
        for (k, v) in &self.counters {
            if !first {
                out.push_str(", ");
            }
            first = false;
            escape_into(out, k);
            out.push_str(&format!(": {v}"));
        }
        out.push_str("},\n");
        out.push_str(&inner);
        out.push_str("\"children\": [");
        if self.children.is_empty() {
            out.push_str("]\n");
        } else {
            out.push('\n');
            for (i, c) in self.children.iter().enumerate() {
                c.render_json(out, indent + 2);
                if i + 1 < self.children.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            out.push_str(&inner);
            out.push_str("]\n");
        }
        out.push_str(&pad);
        out.push('}');
    }

    fn render_collapsed(&self, out: &mut String, prefix: &str) {
        let path = if prefix.is_empty() {
            self.name.clone()
        } else {
            format!("{prefix};{}", self.name)
        };
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)] // floored at 0 above
        let self_us = (self.self_s * 1e6).round().max(0.0) as u64; // cast-ok: non-negative rounded microseconds
        out.push_str(&format!("{path} {self_us}\n"));
        for c in &self.children {
            c.render_collapsed(out, &path);
        }
    }
}

/// A point-in-time folded copy of a [`SpanTreeRecorder`]'s tree.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanTreeSnapshot {
    /// Root spans (no parent on the stack), first-seen completion order.
    pub roots: Vec<TreeNode>,
    /// Counter totals emitted with no span open.
    pub unattributed: BTreeMap<String, u64>,
}

impl SpanTreeSnapshot {
    /// Total nodes in the tree (folded, so loop rounds count once).
    #[must_use]
    pub fn node_count(&self) -> usize {
        fn walk(nodes: &[TreeNode]) -> usize {
            nodes.len() + nodes.iter().map(|n| walk(&n.children)).sum::<usize>()
        }
        walk(&self.roots)
    }

    /// Summed wall seconds across all roots.
    #[must_use]
    pub fn total_s(&self) -> f64 {
        self.roots.iter().map(|r| r.total_s).sum()
    }

    /// Descends the tree by node names.
    #[must_use]
    pub fn node(&self, path: &[&str]) -> Option<&TreeNode> {
        let (first, rest) = path.split_first()?;
        let mut node = self.roots.iter().find(|n| n.name == *first)?;
        for name in rest {
            node = node.children.iter().find(|n| n.name == *name)?;
        }
        Some(node)
    }

    /// The chain of heaviest nodes: starts at the root with the largest
    /// `total_s` and follows the heaviest child at each level (ties go
    /// to the earlier sibling). Empty for an empty tree.
    #[must_use]
    pub fn critical_path(&self) -> Vec<&TreeNode> {
        fn heaviest(nodes: &[TreeNode]) -> Option<&TreeNode> {
            nodes
                .iter()
                .reduce(|best, n| if n.total_s > best.total_s { n } else { best })
        }
        let mut path = Vec::new();
        let mut level = self.roots.as_slice();
        while let Some(node) = heaviest(level) {
            path.push(node);
            level = node.children.as_slice();
        }
        path
    }

    /// Renders the snapshot as deterministic pretty JSON with top-level
    /// keys `roots` and `unattributed` — same hand-rendered discipline
    /// as [`crate::recorders::StatsSnapshot::to_json`].
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"roots\": [");
        if self.roots.is_empty() {
            out.push(']');
        } else {
            out.push('\n');
            for (i, r) in self.roots.iter().enumerate() {
                r.render_json(&mut out, 2);
                if i + 1 < self.roots.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            out.push_str("  ]");
        }
        out.push_str(",\n  \"unattributed\": {");
        let mut first = true;
        for (k, v) in &self.unattributed {
            if !first {
                out.push_str(", ");
            }
            first = false;
            escape_into(&mut out, k);
            out.push_str(&format!(": {v}"));
        }
        out.push_str("}\n}");
        out
    }

    /// Collapsed-stack export: one `path;to;node <self_µs>` line per
    /// node, depth-first — the input format of `flamegraph.pl` and
    /// speedscope. Values are self-time microseconds (all zero under
    /// masking, where only the structure is meaningful).
    #[must_use]
    pub fn collapsed(&self) -> String {
        let mut out = String::new();
        for r in &self.roots {
            r.render_collapsed(&mut out, "");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{counter, with_local, ScopedSpan};
    use std::sync::Arc;

    fn build_sample(tree: &Arc<SpanTreeRecorder>) {
        with_local(tree.clone(), || {
            let root = ScopedSpan::enter("plan", "run");
            for _round in 0..3 {
                let stage = ScopedSpan::enter("plan", "stage.tighten");
                counter("plan", "tighten.gs_iters", 112, &[]);
                ScopedSpan::enter("plan", "tighten.sweep").finish();
                stage.finish();
            }
            let other = ScopedSpan::enter("plan", "stage.cover");
            other.finish();
            root.finish();
            counter("plan", "orphan", 1, &[]);
        });
    }

    #[test]
    fn folds_rounds_counters_and_leaves() {
        let tree = Arc::new(SpanTreeRecorder::deterministic());
        build_sample(&tree);
        let snap = tree.snapshot();
        assert_eq!(snap.roots.len(), 1);
        let root = &snap.roots[0];
        assert_eq!(root.name, "plan.run");
        assert_eq!(root.count, 1);
        // Children in first-seen completion order: tighten before cover.
        let names: Vec<&str> = root.children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["plan.stage.tighten", "plan.stage.cover"]);
        let tighten = snap.node(&["plan.run", "plan.stage.tighten"]).unwrap();
        assert_eq!(tighten.count, 3, "three rounds fold into one node");
        assert_eq!(tighten.counters["plan.tighten.gs_iters"], 336);
        let sweep = snap
            .node(&["plan.run", "plan.stage.tighten", "plan.tighten.sweep"])
            .unwrap();
        assert_eq!(sweep.count, 3, "leaf spans fold under the open span");
        assert_eq!(snap.unattributed["plan.orphan"], 1);
        assert_eq!(snap.node_count(), 4);
    }

    #[test]
    fn snapshot_json_is_byte_stable_and_valid() {
        let a = Arc::new(SpanTreeRecorder::deterministic());
        let b = Arc::new(SpanTreeRecorder::deterministic());
        build_sample(&a);
        build_sample(&b);
        let ja = a.snapshot().to_json();
        assert_eq!(ja, b.snapshot().to_json(), "same input, same bytes");
        crate::json::validate_line(&ja).unwrap_or_else(|e| panic!("invalid JSON: {e}\n{ja}"));
        assert!(ja.contains("\"plan.tighten.gs_iters\": 336"), "{ja}");
    }

    #[test]
    fn self_time_subtracts_children() {
        let tree = SpanTreeRecorder::new();
        let parent = Pending {
            name: "p".into(),
            total_s: 1.0,
            children: vec![
                Pending {
                    name: "c".into(),
                    total_s: 0.3,
                    children: Vec::new(),
                    counters: BTreeMap::new(),
                },
                Pending {
                    name: "c".into(),
                    total_s: 0.4,
                    children: Vec::new(),
                    counters: BTreeMap::new(),
                },
            ],
            counters: BTreeMap::new(),
        };
        tree.state.lock().unwrap().roots.push(parent);
        let snap = tree.snapshot();
        let p = snap.node(&["p"]).unwrap();
        assert!(
            (p.self_s - 0.3).abs() < 1e-12,
            "1.0 - (0.3 + 0.4), got {}",
            p.self_s
        );
        let c = snap.node(&["p", "c"]).unwrap();
        assert_eq!(c.count, 2);
        assert!((c.total_s - 0.7).abs() < 1e-12);
        // Critical path descends the heaviest chain.
        let path: Vec<&str> = snap
            .critical_path()
            .iter()
            .map(|n| n.name.as_str())
            .collect();
        assert_eq!(path, ["p", "c"]);
    }

    #[test]
    fn collapsed_stack_lines_are_flamegraph_shaped() {
        let tree = Arc::new(SpanTreeRecorder::deterministic());
        build_sample(&tree);
        let folded = tree.snapshot().collapsed();
        let lines: Vec<&str> = folded.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0], "plan.run 0");
        assert_eq!(lines[1], "plan.run;plan.stage.tighten 0");
        assert_eq!(lines[2], "plan.run;plan.stage.tighten;plan.tighten.sweep 0");
        assert_eq!(lines[3], "plan.run;plan.stage.cover 0");
        for line in lines {
            let (path, value) = line.rsplit_once(' ').unwrap();
            assert!(!path.is_empty());
            value.parse::<u64>().unwrap();
        }
    }

    #[test]
    fn works_behind_a_fanout() {
        use crate::recorders::{FanoutRecorder, StatsRecorder};
        let tree = Arc::new(SpanTreeRecorder::deterministic());
        let stats = Arc::new(StatsRecorder::deterministic());
        let fan = Arc::new(FanoutRecorder::new(vec![
            tree.clone() as Arc<dyn Recorder>,
            stats.clone() as Arc<dyn Recorder>,
        ]));
        with_local(fan, || {
            let root = ScopedSpan::enter("t", "root");
            counter("t", "work", 5, &[]);
            root.finish();
        });
        let snap = tree.snapshot();
        assert_eq!(
            snap.node(&["t.root"]).unwrap().counters["t.work"],
            5,
            "ctx survives fanout"
        );
        assert_eq!(
            stats.snapshot().counter("t.work"),
            5,
            "flat view unaffected"
        );
    }

    #[test]
    fn record_without_ctx_lands_at_the_root() {
        let tree = SpanTreeRecorder::deterministic();
        tree.record(&ObsEvent {
            scope: "t",
            name: "flat",
            kind: Kind::Span,
            value: Value::Wall(0.0),
            fields: &[],
        });
        tree.record(&ObsEvent {
            scope: "t",
            name: "c",
            kind: Kind::Counter,
            value: Value::U64(2),
            fields: &[],
        });
        let snap = tree.snapshot();
        assert_eq!(snap.roots.len(), 1);
        assert_eq!(snap.roots[0].name, "t.flat");
        assert_eq!(snap.unattributed["t.c"], 2);
    }
}
