//! Built-in [`Recorder`] implementations.
//!
//! * [`NullRecorder`] — keeps the pipeline disabled (its
//!   [`Recorder::enabled`] is `false`), for explicitly silencing a scope
//!   or benchmarking the zero-cost claim;
//! * [`StatsRecorder`] — in-memory aggregation: counters, span totals,
//!   and log2-bucket histograms, with a deterministic [`StatsSnapshot`]
//!   and its JSON rendering;
//! * [`JsonlRecorder`] — one structured JSON object per event, fixed
//!   field order, wall-clock durations masked by default so same-seed
//!   streams are byte-identical;
//! * [`FanoutRecorder`] — duplicates each event to several sinks.

use crate::json::{escape_into, number_into};
use crate::{Kind, ObsEvent, Recorder, SpanCtx, Value};
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::{Mutex, PoisonError};

/// Drops every event and reports itself disabled, so emission helpers
/// skip even building events. Installing it is equivalent to — and
/// measurably indistinguishable from — having no recorder at all, which
/// is exactly what the bit-identity test in `tests/observability.rs`
/// exercises.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    fn record(&self, _event: &ObsEvent<'_>) {}

    fn enabled(&self) -> bool {
        false
    }
}

/// Log2-bucketed summary of one histogram series.
///
/// Buckets are keyed by `floor(log2(sample))` clamped to `[-64, 63]`
/// (samples `<= 0` share the sentinel bucket `i64::MIN`), so the whole
/// dynamic range of a f64 fits in at most 128 buckets while preserving
/// order-of-magnitude shape — enough to tell a 1 ms dwell from a 100 s
/// one without storing samples.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HistogramSummary {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: f64,
    /// Sum of squared samples (with `count` and `sum`, enough for an
    /// exact mean and a population standard deviation, so a mean comes
    /// from these moments, not the log2 buckets).
    pub sum_sq: f64,
    /// Smallest sample (`0.0` when empty).
    pub min: f64,
    /// Largest sample (`0.0` when empty).
    pub max: f64,
    /// `floor(log2(sample))` bucket → occupancy.
    pub buckets: BTreeMap<i64, u64>,
}

impl HistogramSummary {
    fn observe(&mut self, sample: f64) {
        if self.count == 0 {
            self.min = sample;
            self.max = sample;
        } else {
            self.min = self.min.min(sample);
            self.max = self.max.max(sample);
        }
        self.count += 1;
        self.sum += sample;
        self.sum_sq += sample * sample;
        *self.buckets.entry(bucket_of(sample)).or_insert(0) += 1;
    }

    /// Folds `other` into `self`: counts and sums add, min/max widen,
    /// bucket occupancies add. An empty side is the identity. Sums are
    /// floats, so merge *order* matters for the low bits — callers that
    /// need byte-identical merged renderings (the campaign driver) must
    /// fold snapshots in one canonical order.
    pub fn merge(&mut self, other: &HistogramSummary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum += other.sum;
        self.sum_sq += other.sum_sq;
        for (&bucket, &n) in &other.buckets {
            *self.buckets.entry(bucket).or_insert(0) += n;
        }
    }

    /// Arithmetic mean of the samples (`0.0` when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64 // cast-ok: sample count to divisor
        }
    }

    /// Population standard deviation from the exact moments (`0.0` when
    /// empty; the variance is clamped at zero against float rounding).
    #[must_use]
    pub fn stddev(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let n = self.count as f64; // cast-ok: sample count to divisor
        let mean = self.sum / n;
        (self.sum_sq / n - mean * mean).max(0.0).sqrt()
    }

    /// Estimated `q`-quantile (`q` in `[0, 1]`) from the log2 buckets.
    ///
    /// Walks buckets in ascending order until the nearest-rank index
    /// falls inside one, then returns that bucket's geometric midpoint
    /// (`1.5 * 2^k`), clamped to the observed `[min, max]` — so the
    /// estimate is within a factor of 2 of the true quantile, and exact
    /// for single-bucket distributions. `0.0` when empty. The sentinel
    /// bucket (samples `<= 0`) reports `min`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)] // ceil of q*count is non-negative, clamped to count
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count); // cast-ok: rank clamped to [1, count]
        let mut seen = 0u64;
        for (&bucket, &occupancy) in &self.buckets {
            seen += occupancy;
            if seen >= rank {
                if bucket == i64::MIN {
                    return self.min;
                }
                let midpoint = 1.5 * (bucket as f64).exp2(); // cast-ok: bucket exponent to float
                return midpoint.clamp(self.min, self.max);
            }
        }
        self.max
    }
}

/// The log2 bucket a sample falls in (see [`HistogramSummary`]).
#[must_use]
pub fn bucket_of(sample: f64) -> i64 {
    if sample <= 0.0 || !sample.is_finite() {
        return i64::MIN;
    }
    let exp = sample.log2().floor().clamp(-64.0, 63.0);
    #[allow(clippy::cast_possible_truncation)] // clamped to [-64, 63] above
    {
        exp as i64 // cast-ok: clamped exponent to bucket key
    }
}

/// Totals for one span series.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanSummary {
    /// Spans recorded.
    pub count: u64,
    /// Total wall-clock seconds across them.
    pub total_s: f64,
}

impl SpanSummary {
    /// Folds `other` into `self`: counts and totals add. Like
    /// [`HistogramSummary::merge`], the float total is order-sensitive
    /// in the low bits, so canonical-order folding is on the caller.
    pub fn merge(&mut self, other: &SpanSummary) {
        self.count += other.count;
        self.total_s += other.total_s;
    }
}

#[derive(Debug, Default)]
struct Stats {
    counters: BTreeMap<String, u64>,
    spans: BTreeMap<String, SpanSummary>,
    histograms: BTreeMap<String, HistogramSummary>,
    events: BTreeMap<String, u64>,
}

/// Aggregating recorder: counters sum, spans accumulate `(count,
/// total_s)`, histogram samples land in log2 buckets, and plain events
/// are counted. Series are keyed `scope.name`; snapshots iterate them in
/// sorted order, so rendering a snapshot is deterministic.
#[derive(Debug, Default)]
pub struct StatsRecorder {
    stats: Mutex<Stats>,
    mask_wall: bool,
}

impl StatsRecorder {
    /// An empty aggregator.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// An aggregator whose span totals mask wall-clock durations to
    /// `0.0` (span *counts* still accumulate). Snapshots of such a
    /// recorder contain only simulation-determined quantities, so their
    /// JSON rendering is byte-identical across runs — the campaign
    /// driver relies on this for its merged-snapshot stability check.
    #[must_use]
    pub fn deterministic() -> Self {
        StatsRecorder { stats: Mutex::default(), mask_wall: true }
    }

    /// Copies the current aggregates out.
    #[must_use]
    pub fn snapshot(&self) -> StatsSnapshot {
        let stats = self.stats.lock().unwrap_or_else(PoisonError::into_inner);
        StatsSnapshot {
            counters: stats.counters.clone(),
            spans: stats.spans.clone(),
            histograms: stats.histograms.clone(),
            events: stats.events.clone(),
        }
    }
}

impl Recorder for StatsRecorder {
    fn record(&self, event: &ObsEvent<'_>) {
        let key = event.key();
        let mut stats = self.stats.lock().unwrap_or_else(PoisonError::into_inner);
        match (event.kind, event.value) {
            (Kind::Counter, Value::U64(delta)) => {
                *stats.counters.entry(key).or_insert(0) += delta;
            }
            (Kind::Span, Value::Wall(elapsed_s)) => {
                let s = stats.spans.entry(key).or_default();
                s.count += 1;
                s.total_s += if self.mask_wall { 0.0 } else { elapsed_s };
            }
            (Kind::Histogram, Value::F64(sample)) => {
                stats.histograms.entry(key).or_default().observe(sample);
            }
            _ => {
                *stats.events.entry(key).or_insert(0) += 1;
            }
        }
    }
}

/// A point-in-time copy of a [`StatsRecorder`]'s aggregates.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatsSnapshot {
    /// Counter totals by `scope.name`.
    pub counters: BTreeMap<String, u64>,
    /// Span totals by `scope.name`.
    pub spans: BTreeMap<String, SpanSummary>,
    /// Histogram summaries by `scope.name`.
    pub histograms: BTreeMap<String, HistogramSummary>,
    /// Plain event occurrence counts by `scope.name`.
    pub events: BTreeMap<String, u64>,
}

impl StatsSnapshot {
    /// A counter's total (0 when never incremented).
    #[must_use]
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// How many spans a series recorded.
    #[must_use]
    pub fn span_count(&self, key: &str) -> u64 {
        self.spans.get(key).map_or(0, |s| s.count)
    }

    /// Total wall-clock seconds a span series accumulated.
    #[must_use]
    pub fn span_total_s(&self, key: &str) -> f64 {
        self.spans.get(key).map_or(0.0, |s| s.total_s)
    }

    /// How many times a plain event fired (0 when never seen).
    #[must_use]
    pub fn event_count(&self, key: &str) -> u64 {
        self.events.get(key).copied().unwrap_or(0)
    }

    /// How many distinct series the snapshot holds.
    #[must_use]
    pub fn series_count(&self) -> usize {
        self.counters.len() + self.spans.len() + self.histograms.len() + self.events.len()
    }

    /// Folds `other` into `self`, series by series: counters and event
    /// counts add, spans and histograms merge via their own `merge`.
    ///
    /// Merging is commutative on the integer aggregates but only
    /// associative-up-to-float-rounding on `sum`/`total_s`, so callers
    /// that need byte-identical [`StatsSnapshot::to_json`] output across
    /// runs must fold per-source snapshots in one canonical order (the
    /// campaign driver folds in ascending seed-index order).
    pub fn merge(&mut self, other: &StatsSnapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.events {
            *self.events.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.spans {
            self.spans.entry(k.clone()).or_default().merge(v);
        }
        for (k, v) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(v);
        }
    }

    /// Renders the snapshot as a deterministic pretty JSON object with
    /// top-level keys `counters`, `events`, `spans`, `histograms`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"counters\": {");
        join_map(&mut out, &self.counters, |out, v| out.push_str(&v.to_string()));
        out.push_str("},\n  \"events\": {");
        join_map(&mut out, &self.events, |out, v| out.push_str(&v.to_string()));
        out.push_str("},\n  \"spans\": {");
        join_map(&mut out, &self.spans, |out, s| {
            out.push_str(&format!("{{\"count\": {}, \"total_s\": ", s.count));
            number_into(out, s.total_s);
            out.push('}');
        });
        out.push_str("},\n  \"histograms\": {");
        join_map(&mut out, &self.histograms, |out, h| {
            out.push_str(&format!("{{\"count\": {}, \"sum\": ", h.count));
            number_into(out, h.sum);
            out.push_str(", \"min\": ");
            number_into(out, h.min);
            out.push_str(", \"max\": ");
            number_into(out, h.max);
            out.push_str(", \"mean\": ");
            number_into(out, h.mean());
            out.push_str(", \"stddev\": ");
            number_into(out, h.stddev());
            out.push_str(", \"log2_buckets\": {");
            let mut first = true;
            for (b, n) in &h.buckets {
                if !first {
                    out.push_str(", ");
                }
                first = false;
                if *b == i64::MIN {
                    out.push_str(&format!("\"<=0\": {n}"));
                } else {
                    out.push_str(&format!("\"{b}\": {n}"));
                }
            }
            out.push_str("}}");
        });
        out.push_str("}\n}");
        out
    }
}

fn join_map<V>(
    out: &mut String,
    map: &BTreeMap<String, V>,
    mut render: impl FnMut(&mut String, &V),
) {
    let mut first = true;
    for (k, v) in map {
        if !first {
            out.push_str(", ");
        }
        first = false;
        escape_into(out, k);
        out.push_str(": ");
        render(out, v);
    }
}

/// Streams one JSON object per event to a writer, newline-delimited.
///
/// Field order is fixed (`scope`, `name`, `kind`, `value`, then `fields`
/// in emission order). In the default deterministic mode, wall-clock
/// [`Value::Wall`] payloads render as `null`, so two runs of the same
/// seed produce byte-identical streams; [`JsonlRecorder::with_wall_clock`]
/// keeps the real durations for human consumption.
#[derive(Debug)]
pub struct JsonlRecorder<W: Write + Send> {
    sink: Mutex<W>,
    wall_clock: bool,
}

impl<W: Write + Send> JsonlRecorder<W> {
    /// A deterministic stream into `sink` (wall durations masked).
    pub fn new(sink: W) -> Self {
        JsonlRecorder { sink: Mutex::new(sink), wall_clock: false }
    }

    /// A stream that keeps real wall-clock durations (not byte-stable
    /// across runs).
    pub fn with_wall_clock(sink: W) -> Self {
        JsonlRecorder { sink: Mutex::new(sink), wall_clock: true }
    }

    /// Unwraps the sink (flushing is the caller's business).
    pub fn into_inner(self) -> W {
        self.sink.into_inner().unwrap_or_else(PoisonError::into_inner)
    }

    fn render_value(&self, out: &mut String, value: Value) {
        match value {
            Value::None => out.push_str("null"),
            Value::U64(v) => out.push_str(&v.to_string()),
            Value::I64(v) => out.push_str(&v.to_string()),
            Value::F64(v) => number_into(out, v),
            Value::Wall(v) => {
                if self.wall_clock {
                    number_into(out, v);
                } else {
                    out.push_str("null");
                }
            }
            Value::Str(s) => escape_into(out, s),
            Value::Bool(b) => out.push_str(if b { "true" } else { "false" }),
        }
    }
}

impl<W: Write + Send> Recorder for JsonlRecorder<W> {
    fn record(&self, event: &ObsEvent<'_>) {
        let mut line = String::with_capacity(96);
        line.push_str("{\"scope\":");
        escape_into(&mut line, event.scope);
        line.push_str(",\"name\":");
        escape_into(&mut line, event.name);
        line.push_str(",\"kind\":");
        escape_into(&mut line, event.kind.label());
        line.push_str(",\"value\":");
        self.render_value(&mut line, event.value);
        line.push_str(",\"fields\":{");
        for (i, f) in event.fields.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            escape_into(&mut line, f.key);
            line.push(':');
            self.render_value(&mut line, f.value);
        }
        line.push_str("}}\n");
        let mut sink = self.sink.lock().unwrap_or_else(PoisonError::into_inner);
        // A full disk must not abort a simulation; the stream is advisory.
        let _ = sink.write_all(line.as_bytes());
    }
}

/// Duplicates every event to each inner recorder, in order. Enabled when
/// any inner recorder is.
pub struct FanoutRecorder {
    sinks: Vec<std::sync::Arc<dyn Recorder>>,
}

impl FanoutRecorder {
    /// A fanout over `sinks`.
    #[must_use]
    pub fn new(sinks: Vec<std::sync::Arc<dyn Recorder>>) -> Self {
        FanoutRecorder { sinks }
    }
}

impl Recorder for FanoutRecorder {
    fn record(&self, event: &ObsEvent<'_>) {
        for s in &self.sinks {
            if s.enabled() {
                s.record(event);
            }
        }
    }

    // Forwarded explicitly so tree-building sinks behind a fanout still
    // see causality — the default would flatten the ctx away.
    fn record_ctx(&self, event: &ObsEvent<'_>, ctx: SpanCtx) {
        for s in &self.sinks {
            if s.enabled() {
                s.record_ctx(event, ctx);
            }
        }
    }

    fn enabled(&self) -> bool {
        self.sinks.iter().any(|s| s.enabled())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate_jsonl;
    use crate::Field;
    use std::sync::Arc;

    fn ev<'a>(kind: Kind, value: Value, fields: &'a [Field]) -> ObsEvent<'a> {
        ObsEvent { scope: "t", name: "x", kind, value, fields }
    }

    #[test]
    fn histogram_quantile_estimates_within_a_bucket() {
        let mut h = HistogramSummary::default();
        assert_eq!(h.quantile(0.5), 0.0);
        // 90 samples near 1 ms, 10 near 1 s: p50 lands in the low
        // bucket, p99 in the high one, both clamped to observed range.
        for _ in 0..90 {
            h.observe(1.0e-3);
        }
        for _ in 0..10 {
            h.observe(1.0);
        }
        let p50 = h.quantile(0.50);
        assert!((5.0e-4..=2.0e-3).contains(&p50), "p50 {p50}");
        assert_eq!(h.quantile(0.99), 1.0, "p99 clamps to max");
        assert_eq!(h.quantile(1.0), 1.0);
        // Single-bucket distributions are exact at the clamp.
        let mut one = HistogramSummary::default();
        one.observe(7.0);
        assert_eq!(one.quantile(0.5), 7.0);
        // Non-positive samples share the sentinel bucket -> min.
        let mut neg = HistogramSummary::default();
        neg.observe(-2.0);
        neg.observe(-1.0);
        assert_eq!(neg.quantile(0.5), -2.0);
    }

    #[test]
    fn histogram_quantile_edge_cases() {
        // Empty histogram: every q reports 0.0, in and out of range.
        let empty = HistogramSummary::default();
        for q in [-1.0, 0.0, 0.5, 1.0, 2.0] {
            assert_eq!(empty.quantile(q), 0.0, "empty at q={q}");
        }
        // Single bucket: every quantile is the same bucket midpoint,
        // inside the observed range; with one sample the clamp makes it
        // exact.
        let mut one = HistogramSummary::default();
        for s in [4.0, 5.0, 6.0, 7.0] {
            one.observe(s);
        }
        for q in [0.0, 0.5, 1.0] {
            let est = one.quantile(q);
            assert!((4.0..=7.0).contains(&est), "single-bucket q={q} in range, got {est}");
            assert_eq!(est, one.quantile(0.5), "single bucket: all quantiles agree");
        }
        let mut single = HistogramSummary::default();
        single.observe(7.0);
        assert_eq!(single.quantile(0.0), 7.0, "one sample is exact at q=0");
        assert_eq!(single.quantile(1.0), 7.0, "one sample is exact at q=1");
        // Out-of-range q clamps to [0, 1] rather than panicking or
        // walking off the bucket list.
        let mut h = HistogramSummary::default();
        h.observe(1.0e-3);
        h.observe(1.0);
        assert_eq!(h.quantile(-0.5), h.quantile(0.0), "q<0 behaves as q=0");
        assert_eq!(h.quantile(1.5), h.quantile(1.0), "q>1 behaves as q=1");
        assert_eq!(h.quantile(1.0), 1.0);
        // q=0 still reports rank 1 (the smallest sample's bucket).
        let q0 = h.quantile(0.0);
        assert!((5.0e-4..=2.0e-3).contains(&q0), "q=0 in lowest bucket, got {q0}");
    }

    #[test]
    fn stats_aggregate_counters_spans_histograms() {
        let r = StatsRecorder::new();
        r.record(&ev(Kind::Counter, Value::U64(2), &[]));
        r.record(&ev(Kind::Counter, Value::U64(3), &[]));
        r.record(&ev(Kind::Span, Value::Wall(0.5), &[]));
        r.record(&ev(Kind::Span, Value::Wall(0.25), &[]));
        r.record(&ev(Kind::Histogram, Value::F64(4.0), &[]));
        r.record(&ev(Kind::Histogram, Value::F64(5.0), &[]));
        r.record(&ev(Kind::Event, Value::None, &[]));
        let s = r.snapshot();
        assert_eq!(s.counter("t.x"), 5);
        assert_eq!(s.span_count("t.x"), 2);
        assert!((s.span_total_s("t.x") - 0.75).abs() < 1e-12);
        let h = &s.histograms["t.x"];
        assert_eq!(h.count, 2);
        assert_eq!(h.min, 4.0);
        assert_eq!(h.max, 5.0);
        assert_eq!(h.buckets[&2], 2, "4.0 and 5.0 share the [4,8) bucket");
        assert_eq!(s.events["t.x"], 1);
    }

    #[test]
    fn log2_buckets_cover_edge_cases() {
        assert_eq!(bucket_of(1.0), 0);
        assert_eq!(bucket_of(3.9), 1);
        assert_eq!(bucket_of(0.5), -1);
        assert_eq!(bucket_of(0.0), i64::MIN);
        assert_eq!(bucket_of(-2.0), i64::MIN);
        assert_eq!(bucket_of(f64::INFINITY), i64::MIN);
        assert_eq!(bucket_of(f64::MAX), 63);
        assert_eq!(bucket_of(f64::MIN_POSITIVE), -64, "subnormal range clamps");
    }

    #[test]
    fn snapshot_json_is_valid_and_deterministic() {
        let r = StatsRecorder::new();
        r.record(&ev(Kind::Counter, Value::U64(1), &[]));
        r.record(&ev(Kind::Span, Value::Wall(0.1), &[]));
        r.record(&ev(Kind::Histogram, Value::F64(0.0), &[]));
        let a = r.snapshot().to_json();
        let b = r.snapshot().to_json();
        assert_eq!(a, b);
        crate::json::validate_line(&a).unwrap();
        assert!(a.contains("\"<=0\": 1"), "zero sample lands in the sentinel bucket:\n{a}");
    }

    #[test]
    fn jsonl_masks_wall_and_is_parseable() {
        let r = JsonlRecorder::new(Vec::new());
        r.record(&ev(
            Kind::Span,
            Value::Wall(123.456),
            &[Field::new("algo", "bc-opt"), Field::new("stops", 7usize)],
        ));
        r.record(&ev(Kind::Event, Value::None, &[Field::new("ok", true)]));
        let text = String::from_utf8(r.into_inner()).unwrap();
        assert_eq!(validate_jsonl(&text), Ok(2));
        let first = text.lines().next().unwrap();
        assert_eq!(
            first,
            "{\"scope\":\"t\",\"name\":\"x\",\"kind\":\"span\",\"value\":null,\
             \"fields\":{\"algo\":\"bc-opt\",\"stops\":7}}"
        );
        assert!(!text.contains("123.456"), "wall durations must be masked");
    }

    #[test]
    fn jsonl_wall_clock_mode_keeps_durations() {
        let r = JsonlRecorder::with_wall_clock(Vec::new());
        r.record(&ev(Kind::Span, Value::Wall(0.5), &[]));
        let text = String::from_utf8(r.into_inner()).unwrap();
        assert!(text.contains("\"value\":0.5"));
    }

    #[test]
    fn histogram_moments_are_exact_not_bucket_approximated() {
        // 3.0 and 5.0 share the [2,4)/[4,8) log2 buckets with lots of
        // other values; the mean must come from the exact sum, not the
        // bucket midpoints.
        let mut h = HistogramSummary::default();
        for s in [3.0, 5.0, 7.0, 9.0] {
            h.observe(s);
        }
        assert_eq!(h.count, 4);
        assert_eq!(h.sum, 24.0);
        assert_eq!(h.sum_sq, 9.0 + 25.0 + 49.0 + 81.0);
        assert_eq!(h.mean(), 6.0, "mean is exact");
        let expected_var: f64 = (9.0 + 25.0 + 49.0 + 81.0) / 4.0 - 36.0;
        assert!((h.stddev() - expected_var.sqrt()).abs() < 1e-12);
        // Moments survive a merge exactly.
        let mut other = HistogramSummary::default();
        other.observe(11.0);
        h.merge(&other);
        assert_eq!(h.sum, 35.0);
        assert_eq!(h.sum_sq, 9.0 + 25.0 + 49.0 + 81.0 + 121.0);
        assert_eq!(h.mean(), 7.0);
        // And the snapshot JSON carries them.
        let r = StatsRecorder::new();
        r.record(&ev(Kind::Histogram, Value::F64(3.0), &[]));
        r.record(&ev(Kind::Histogram, Value::F64(5.0), &[]));
        let json = r.snapshot().to_json();
        assert!(json.contains("\"sum\": 8"), "exact sum in JSON:\n{json}");
        assert!(json.contains("\"mean\": 4"), "exact mean in JSON:\n{json}");
        assert!(json.contains("\"stddev\": 1"), "exact stddev in JSON:\n{json}");
    }

    #[test]
    fn histogram_merge_widens_and_adds() {
        let mut a = HistogramSummary::default();
        a.observe(1.0e-3);
        a.observe(2.0);
        let mut b = HistogramSummary::default();
        b.observe(8.0);
        b.observe(0.5);
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.count, 4);
        assert_eq!(merged.min, 1.0e-3);
        assert_eq!(merged.max, 8.0);
        assert!((merged.sum - (1.0e-3 + 2.0 + 8.0 + 0.5)).abs() < 1e-12);
        // Merging matches observing the union directly, bucket by bucket.
        let mut direct = HistogramSummary::default();
        for s in [1.0e-3, 2.0, 8.0, 0.5] {
            direct.observe(s);
        }
        assert_eq!(merged.buckets, direct.buckets);
        // Empty sides are identities in both directions.
        let mut empty_lhs = HistogramSummary::default();
        empty_lhs.merge(&a);
        assert_eq!(empty_lhs, a);
        let mut with_empty = a.clone();
        with_empty.merge(&HistogramSummary::default());
        assert_eq!(with_empty, a);
    }

    #[test]
    fn snapshot_merge_combines_all_series() {
        let r1 = StatsRecorder::new();
        r1.record(&ev(Kind::Counter, Value::U64(2), &[]));
        r1.record(&ev(Kind::Histogram, Value::F64(4.0), &[]));
        r1.record(&ev(Kind::Event, Value::None, &[]));
        let r2 = StatsRecorder::new();
        r2.record(&ev(Kind::Counter, Value::U64(3), &[]));
        r2.record(&ev(Kind::Span, Value::Wall(0.5), &[]));
        r2.record(&ev(Kind::Event, Value::None, &[]));
        let mut merged = r1.snapshot();
        merged.merge(&r2.snapshot());
        assert_eq!(merged.counter("t.x"), 5);
        assert_eq!(merged.span_count("t.x"), 1);
        assert_eq!(merged.event_count("t.x"), 2);
        assert_eq!(merged.histograms["t.x"].count, 1);
        crate::json::validate_line(&merged.to_json()).unwrap();
    }

    #[test]
    fn deterministic_recorder_masks_span_wall_time() {
        let r = StatsRecorder::deterministic();
        r.record(&ev(Kind::Span, Value::Wall(123.456), &[]));
        r.record(&ev(Kind::Span, Value::Wall(7.0), &[]));
        let s = r.snapshot();
        assert_eq!(s.span_count("t.x"), 2, "span counts survive masking");
        assert_eq!(s.span_total_s("t.x"), 0.0, "wall totals are masked");
        assert!(!s.to_json().contains("123.456"));
    }

    #[test]
    fn fanout_duplicates_and_skips_disabled() {
        let a = Arc::new(StatsRecorder::new());
        let b = Arc::new(StatsRecorder::new());
        let fan = FanoutRecorder::new(vec![a.clone(), Arc::new(NullRecorder), b.clone()]);
        assert!(fan.enabled());
        fan.record(&ev(Kind::Counter, Value::U64(1), &[]));
        assert_eq!(a.snapshot().counter("t.x"), 1);
        assert_eq!(b.snapshot().counter("t.x"), 1);
        let silent = FanoutRecorder::new(vec![Arc::new(NullRecorder)]);
        assert!(!silent.enabled());
    }
}
