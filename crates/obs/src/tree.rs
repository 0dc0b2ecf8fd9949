//! Causal span-tree profiling: [`SpanTreeRecorder`] folds the
//! [`crate::ScopedSpan`] stream into a deterministic tree snapshot with
//! self-time accounting, critical-path extraction and collapsed-stack
//! (flamegraph-compatible) export.
//!
//! # Model
//!
//! Every completed [`crate::Kind::Span`] is a tree node, and its
//! [`crate::SpanCtx`] `parent` id says where it hangs. Span ids are fresh
//! every run, so they never appear in output: the recorder uses them only
//! to find the node of a span still open. A span *folds as it closes*:
//! it merges into its parent's child of the same `scope.name` (or into
//! the roots), adding 1 to the count, its time to the total, and its
//! counters and already-folded children to that node's. All completions
//! of `plan.stage.tighten` under one call path are thus one node with a
//! count, a summed total and merged counters, and the recorder keeps one
//! node per distinct call path plus one per open span, never one per
//! completion. Counters emitted while a span is open attach to that span
//! (the innermost open one); counters with no open span land in the
//! snapshot's `unattributed` map.
//!
//! Nodes and counters are kept under the event's `(scope, name)` pair;
//! [`SpanTreeRecorder::snapshot`] spells the `scope.name` keys, and pairs
//! that spell one key (`("a.b", "c")`, `("a", "b.c")`) fold as one.
//!
//! # Determinism
//!
//! Instrumented code emits spans and counters on single-threaded
//! orchestrator loops (see the crate docs), so completion order — and
//! with it first-seen child order — is a pure function of the seeded
//! inputs. With [`SpanTreeRecorder::deterministic`] masking wall
//! durations, [`SpanTreeSnapshot::to_json`] is byte-identical across
//! runs and worker counts; the proptest in `tests/observability.rs`
//! pins this across workers {1, 2, 4}. Unmasked totals are sums of
//! floats: a node's total adds its completions in order, each carrying
//! the children it had already folded, so deep totals are summed per
//! parent completion first and may differ in the last bits from one
//! flat sum over every completion.

use crate::json::{escape_into, number_into};
use crate::{key, same_key, Kind, ObsEvent, Pair, Recorder, SpanCtx, Value};
use std::collections::BTreeMap;
use std::sync::{Mutex, PoisonError};

/// The folded completions of one call path, or one span still open (its
/// children and counters so far; count and total are set as it closes).
#[derive(Debug, Default)]
struct Node {
    /// The first `(scope, name)` pair folded in.
    pair: Pair,
    count: u64,
    total_s: f64,
    /// Counter totals, one entry per spelled key, first-seen order.
    counters: Vec<(Pair, u64)>,
    /// Folded children, first-seen completion order.
    children: Vec<Node>,
}

impl Node {
    /// Merges `other` (same key) into `self`: count, total and counters
    /// add, and `other`'s children fold into `self`'s in their order.
    fn merge(&mut self, other: Node) {
        self.count += other.count;
        self.total_s += other.total_s;
        for (pair, delta) in other.counters {
            add(&mut self.counters, pair, delta);
        }
        for child in other.children {
            fold_into(&mut self.children, child);
        }
    }

    fn snapshot(&self) -> TreeNode {
        let children: Vec<TreeNode> = self.children.iter().map(Node::snapshot).collect();
        let child_total: f64 = children.iter().map(|c| c.total_s).sum();
        TreeNode {
            name: key(self.pair),
            count: self.count,
            total_s: self.total_s,
            self_s: (self.total_s - child_total).max(0.0),
            counters: counter_map(&self.counters),
            children,
        }
    }
}

/// Folds `node` into the sibling whose pair spells the same key, or
/// appends it.
fn fold_into(siblings: &mut Vec<Node>, node: Node) {
    match siblings.iter_mut().find(|s| same_key(s.pair, node.pair)) {
        Some(group) => group.merge(node),
        None => siblings.push(node),
    }
}

/// Adds `delta` to the counter `pair` spells.
fn add(counters: &mut Vec<(Pair, u64)>, pair: Pair, delta: u64) {
    match counters.iter_mut().find(|(p, _)| same_key(*p, pair)) {
        Some((_, total)) => *total += delta,
        None => counters.push((pair, delta)),
    }
}

fn counter_map(counters: &[(Pair, u64)]) -> BTreeMap<String, u64> {
    counters.iter().map(|&(pair, n)| (key(pair), n)).collect()
}

#[derive(Debug, Default)]
struct TreeState {
    /// Open spans that already hold a folded child or a counter, by
    /// their (run-local) span id.
    open: BTreeMap<u64, Node>,
    /// Closed root spans, folded.
    roots: Vec<Node>,
    /// Counters emitted with no span open anywhere on the stack.
    unattributed: Vec<(Pair, u64)>,
}

/// Folds the causal span stream into a [`SpanTreeSnapshot`].
///
/// Only [`Kind::Span`] and [`Kind::Counter`] events shape the tree;
/// histograms and point events pass through untouched (pair this
/// recorder with a [`crate::recorders::StatsRecorder`] in a fanout when
/// you want both views). A span whose [`SpanCtx`] carries no id becomes a
/// leaf under the span its context names, or a root.
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

    /// Copies the folded tree out, spelling its `scope.name` keys. Spans
    /// still open (or whose parent never closed) are *not* in the
    /// snapshot — take it after the instrumented region finishes.
    #[must_use]
    pub fn snapshot(&self) -> SpanTreeSnapshot {
        let state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        SpanTreeSnapshot {
            roots: state.roots.iter().map(Node::snapshot).collect(),
            unattributed: counter_map(&state.unattributed),
        }
    }
}

impl Recorder for SpanTreeRecorder {
    fn record(&self, event: &ObsEvent<'_>, ctx: SpanCtx) {
        let pair = (event.scope, event.name);
        match (event.kind, event.value) {
            (Kind::Span, value) => {
                let total_s = match value {
                    Value::Wall(s) if !self.mask_wall => s,
                    _ => 0.0,
                };
                let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
                // A span without an id is a leaf: nothing can have
                // parented under it.
                let node = Node {
                    pair,
                    count: 1,
                    total_s,
                    ..ctx
                        .id
                        .and_then(|id| state.open.remove(&id))
                        .unwrap_or_default()
                };
                let siblings = match ctx.parent {
                    Some(parent) => &mut state.open.entry(parent).or_default().children,
                    None => &mut state.roots,
                };
                fold_into(siblings, node);
            }
            (Kind::Counter, Value::U64(delta)) => {
                let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
                let counters = match ctx.parent {
                    Some(owner) => &mut state.open.entry(owner).or_default().counters,
                    None => &mut state.unattributed,
                };
                add(counters, pair, delta);
            }
            _ => {}
        }
    }
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
        let close = |name, seconds, id, parent: Option<u64>| {
            let event = ObsEvent {
                scope: "t",
                name,
                kind: Kind::Span,
                value: Value::Wall(seconds),
                fields: &[],
            };
            let depth = usize::from(parent.is_some());
            let ctx = SpanCtx {
                id: Some(id),
                parent,
                depth,
            };
            tree.record(&event, ctx);
        };
        close("c", 0.3, 2, Some(1));
        close("c", 0.4, 3, Some(1));
        close("p", 1.0, 1, None);
        let snap = tree.snapshot();
        let p = snap.node(&["t.p"]).unwrap();
        assert!(
            (p.self_s - 0.3).abs() < 1e-12,
            "1.0 - (0.3 + 0.4), got {}",
            p.self_s
        );
        let c = snap.node(&["t.p", "t.c"]).unwrap();
        assert_eq!(c.count, 2);
        assert!((c.total_s - 0.7).abs() < 1e-12);
        // Critical path descends the heaviest chain.
        let path: Vec<&str> = snap
            .critical_path()
            .iter()
            .map(|n| n.name.as_str())
            .collect();
        assert_eq!(path, ["t.p", "t.c"]);
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
    fn default_ctx_lands_at_the_root() {
        let tree = SpanTreeRecorder::deterministic();
        let record = |name, kind, value| {
            let event = ObsEvent {
                scope: "t",
                name,
                kind,
                value,
                fields: &[],
            };
            tree.record(&event, SpanCtx::default());
        };
        record("flat", Kind::Span, Value::Wall(0.0));
        record("c", Kind::Counter, Value::U64(2));
        let snap = tree.snapshot();
        assert_eq!(snap.roots.len(), 1);
        assert_eq!(snap.roots[0].name, "t.flat");
        assert_eq!(snap.unattributed["t.c"], 2);
    }
}
