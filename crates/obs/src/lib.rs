//! Unified structured tracing and metrics for the bundle-charging
//! workspace.
//!
//! Every subsystem — the staged planner in `bc-core::context`, the fault
//! executor in `bc-core::execute`, the `bc-des` engine and the `bc-serve`
//! service — emits [`ObsEvent`]s through a single thread-safe
//! [`Recorder`], and what happens to those events (dropped, aggregated,
//! streamed as JSONL, folded into a span tree) is the recorder's choice,
//! not the emitter's. The recorder is the one store of every count and
//! time: planning stage times are the `plan.stage.*` spans and artifact
//! builds the `plan.build.*` counters, with no second copy beside them.
//!
//! # Event model
//!
//! An event is `(scope, name, kind, value, fields)`:
//!
//! * `scope` — the emitting subsystem (`"plan"`, `"exec"`, `"des"`);
//! * `name` — a stable dotted identifier (`"stage.cover"`,
//!   `"battery.invalidate"`);
//! * `kind` — [`Kind::Span`] (a timed region), [`Kind::Counter`] (a
//!   monotone increment), [`Kind::Histogram`] (one sample of a
//!   distribution) or [`Kind::Event`] (a point occurrence);
//! * `value` — the kind's payload ([`Value::Wall`] for wall-clock span
//!   durations, which are *nondeterministic by nature* and therefore a
//!   distinct variant that deterministic sinks can mask);
//! * `fields` — additional structured key/value context.
//!
//! Each event reaches the recorder through its one method,
//! [`Recorder::record`], together with its causal [`SpanCtx`]. The
//! aggregating recorders ([`recorders::StatsRecorder`],
//! [`tree::SpanTreeRecorder`]) keep what they aggregate under the
//! event's `(scope, name)` pair and spell the `scope.name` keys only in
//! their snapshots, so recording an event builds no string.
//!
//! # Zero cost when disabled
//!
//! With no recorder installed, every emission helper is one thread-local
//! flag read plus one relaxed atomic load and an immediate return — no
//! event is built, no field vector allocated. The hot paths additionally
//! guard field construction behind [`active`], so a disabled run does no
//! observability work at all. Installing [`recorders::NullRecorder`]
//! keeps the pipeline disabled (its [`Recorder::enabled`] is `false`),
//! which is what the bit-identity test in `tests/observability.rs`
//! relies on.
//!
//! # Installation
//!
//! Two scopes, local-wins:
//!
//! * [`install`] / [`uninstall`] — a process-wide recorder, for binaries
//!   (the benchmark installs a span-tree recorder for its traced runs);
//! * [`with_local`] — a recorder scoped to the current thread for the
//!   duration of a closure, for tests (parallel test threads cannot see
//!   each other's events).
//!
//! Emissions happen on the thread that runs the planner pipeline, the
//! executor loop and the DES engine loop — all single-threaded
//! orchestrators — so a thread-local recorder observes complete streams
//! even though some *stages* fan work out to scoped worker threads.
//!
//! # Determinism
//!
//! Everything in an event except [`Value::Wall`] durations is a pure
//! function of the (seeded) inputs. [`recorders::JsonlRecorder`] masks
//! `Wall` values, so two runs of the same seed produce
//! byte-identical JSONL streams — the property the determinism test in
//! `tests/observability.rs` pins.
//!
//! # Example
//!
//! ```
//! use bc_obs::{recorders::StatsRecorder, with_local, counter, Field, Value};
//! use std::sync::Arc;
//!
//! let stats = Arc::new(StatsRecorder::new());
//! with_local(stats.clone(), || {
//!     counter("plan", "build.candidates", 1, &[Field::new("n", 40usize)]);
//! });
//! let snap = stats.snapshot();
//! assert_eq!(snap.counter("plan.build.candidates"), 1);
//! ```

#![warn(missing_docs)]

pub mod json;
pub mod provenance;
pub mod recorders;
pub mod tree;
pub mod wall;

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

/// A structured field value.
///
/// Wall-clock durations get their own variant ([`Value::Wall`]) because
/// they are the one nondeterministic quantity the workspace emits;
/// deterministic sinks mask them, aggregating sinks consume them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// No payload (plain point events).
    None,
    /// Unsigned integer (counts, indices, rounds).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Deterministic float (simulated time, energies, distances).
    F64(f64),
    /// Wall-clock duration in seconds — nondeterministic by nature.
    Wall(f64),
    /// Static string (labels: algorithm, policy, event kind).
    Str(&'static str),
    /// Boolean flag.
    Bool(bool),
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        // Lossless everywhere the workspace builds (usize <= 64 bits);
        // saturate rather than truncate if that ever changes.
        Value::U64(u64::try_from(v).unwrap_or(u64::MAX))
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U64(u64::from(v))
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}

impl From<&'static str> for Value {
    fn from(v: &'static str) -> Self {
        Value::Str(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

/// One key/value pair of event context.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Field {
    /// Field name (stable identifier, no escaping needed in practice —
    /// sinks escape anyway).
    pub key: &'static str,
    /// Field value.
    pub value: Value,
}

impl Field {
    /// Builds a field from anything convertible to a [`Value`].
    pub fn new(key: &'static str, value: impl Into<Value>) -> Self {
        Field {
            key,
            value: value.into(),
        }
    }
}

/// What an event measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A timed region; the value is its [`Value::Wall`] duration.
    Span,
    /// A monotone increment; the value is the [`Value::U64`] delta.
    Counter,
    /// One sample of a distribution; the value is the [`Value::F64`]
    /// sample.
    Histogram,
    /// A point occurrence with no measurement.
    Event,
}

impl Kind {
    /// Stable lowercase label used by the JSONL sink.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Kind::Span => "span",
            Kind::Counter => "counter",
            Kind::Histogram => "histogram",
            Kind::Event => "event",
        }
    }
}

/// One structured observability event, borrowed for the duration of a
/// [`Recorder::record`] call (recorders that need to keep it copy the
/// parts they aggregate).
#[derive(Debug, Clone, Copy)]
pub struct ObsEvent<'a> {
    /// Emitting subsystem (`"plan"`, `"exec"`, `"des"`).
    pub scope: &'static str,
    /// Stable dotted event name within the scope.
    pub name: &'static str,
    /// What the event measures.
    pub kind: Kind,
    /// The measurement payload (see [`Kind`]).
    pub value: Value,
    /// Structured context, in emission order (sinks must preserve it —
    /// deterministic field order is part of the JSONL contract).
    pub fields: &'a [Field],
}

/// An emitting site's `(scope, name)`: what the aggregating recorders
/// keep their series under, so that recording an event builds no string.
pub(crate) type Pair = (&'static str, &'static str);

/// Whether two pairs spell the same `scope.name` key, as `("a.b", "c")`
/// and `("a", "b.c")` do. Aggregating recorders file such pairs under
/// one key, exactly as one `scope.name` string would.
pub(crate) fn same_key(a: Pair, b: Pair) -> bool {
    let spelled = |(scope, name): Pair| scope.bytes().chain(Some(b'.')).chain(name.bytes());
    a == b || (a.0.len() + a.1.len() == b.0.len() + b.1.len() && spelled(a).eq(spelled(b)))
}

/// The `scope.name` key a pair spells; snapshots are the only callers.
pub(crate) fn key((scope, name): Pair) -> String {
    format!("{scope}.{name}")
}

/// Causal position of an event relative to the emitting thread's span
/// stack (see [`ScopedSpan`]).
///
/// Span ids are process-global and unique per run — they are *pairing
/// keys* for tree-building recorders, never serialized output (the same
/// logical span gets a different id on every run, so a byte-stable sink
/// must key on names, not ids).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpanCtx {
    /// For a completed [`Kind::Span`] (always opened through
    /// [`ScopedSpan`]): the span's own id. `None` for every other event.
    pub id: Option<u64>,
    /// The innermost span open on this thread when the event was
    /// emitted: a completed span's parent, or the span a counter /
    /// histogram sample is attributed to. `None` at the stack root.
    pub parent: Option<u64>,
    /// Stack depth at emission (0 = no enclosing span).
    pub depth: usize,
}

/// A thread-safe event sink.
///
/// Implementations must be cheap to call from hot loops (the built-in
/// aggregator takes one mutex per event) and must not panic: a recorder
/// failure must never take down a planning or simulation run.
pub trait Recorder: Send + Sync {
    /// Consumes one event together with its causal [`SpanCtx`], the one
    /// entry point the dispatch layer calls. Flat recorders ignore the
    /// context; [`tree::SpanTreeRecorder`] folds spans and counters by
    /// it, and [`recorders::FanoutRecorder`] passes it on.
    fn record(&self, event: &ObsEvent<'_>, ctx: SpanCtx);

    /// Whether this recorder wants events at all. The dispatch layer
    /// caches this at install time: a recorder answering `false` (the
    /// [`recorders::NullRecorder`]) keeps the emission helpers on their
    /// disabled fast path.
    fn enabled(&self) -> bool {
        true
    }
}

static GLOBAL_ACTIVE: AtomicBool = AtomicBool::new(false);
static GLOBAL: RwLock<Option<Arc<dyn Recorder>>> = RwLock::new(None);

thread_local! {
    static LOCAL: RefCell<Option<Arc<dyn Recorder>>> = const { RefCell::new(None) };
    /// Fast-path mirror of `LOCAL`: `Some(true)` = local recorder wants
    /// events, `Some(false)` = local recorder installed but silent
    /// (overrides the global), `None` = no local recorder.
    static LOCAL_STATE: Cell<Option<bool>> = const { Cell::new(None) };
    /// Ids of the spans currently open on this thread, outermost first.
    /// Pushed by [`ScopedSpan::enter`], popped on guard drop (LIFO holds
    /// through panic unwinds because inner guards drop first).
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Process-global span id source. Ids only need to be unique within a
/// run (they pair a completed span with its parent), so a relaxed
/// counter shared by every thread is enough.
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// Depth of the current thread's span stack (0 = no open [`ScopedSpan`]).
/// Instrumented code can assert this returns to its entry value — the
/// unwind-safety tests pin that a panic inside a nested span leaves no
/// orphaned frame behind.
#[must_use]
pub fn span_stack_depth() -> usize {
    SPAN_STACK.with(|s| s.borrow().len())
}

/// The [`SpanCtx`] a non-span event emitted right now would carry.
fn ambient_ctx() -> SpanCtx {
    SPAN_STACK.with(|s| {
        let stack = s.borrow();
        SpanCtx {
            id: None,
            parent: stack.last().copied(),
            depth: stack.len(),
        }
    })
}

/// Installs `recorder` process-wide. Replaces any previous global
/// recorder. Thread-local recorders (see [`with_local`]) take precedence
/// on their thread.
pub fn install(recorder: Arc<dyn Recorder>) {
    let enabled = recorder.enabled();
    let mut slot = GLOBAL.write().unwrap_or_else(PoisonError::into_inner);
    *slot = Some(recorder);
    GLOBAL_ACTIVE.store(enabled, Ordering::Release);
}

/// Removes the process-wide recorder (emission helpers return to their
/// zero-cost disabled path).
pub fn uninstall() {
    let mut slot = GLOBAL.write().unwrap_or_else(PoisonError::into_inner);
    *slot = None;
    GLOBAL_ACTIVE.store(false, Ordering::Release);
}

/// Runs `f` with `recorder` installed for the current thread only,
/// restoring the previous thread-local recorder afterwards (also on
/// panic). A thread-local recorder overrides the global one entirely —
/// including silencing it when the local recorder is a
/// [`recorders::NullRecorder`].
pub fn with_local<R>(recorder: Arc<dyn Recorder>, f: impl FnOnce() -> R) -> R {
    struct Restore {
        prev: Option<Arc<dyn Recorder>>,
        prev_state: Option<bool>,
    }
    impl Drop for Restore {
        fn drop(&mut self) {
            LOCAL.with(|l| *l.borrow_mut() = self.prev.take());
            LOCAL_STATE.with(|s| s.set(self.prev_state));
        }
    }
    let enabled = recorder.enabled();
    let prev = LOCAL.with(|l| l.borrow_mut().replace(recorder));
    let prev_state = LOCAL_STATE.with(|s| s.replace(Some(enabled)));
    let _restore = Restore { prev, prev_state };
    f()
}

/// True when some installed recorder wants events. Hot paths use this to
/// skip building fields entirely; the emission helpers check it again
/// internally, so calling them unguarded is correct, just marginally
/// slower.
#[inline]
pub fn active() -> bool {
    match LOCAL_STATE.with(Cell::get) {
        Some(state) => state,
        None => GLOBAL_ACTIVE.load(Ordering::Acquire),
    }
}

/// The recorder an emission on this thread would reach, if any.
fn current() -> Option<Arc<dyn Recorder>> {
    if LOCAL_STATE.with(Cell::get).is_some() {
        return LOCAL.with(|l| l.borrow().clone());
    }
    GLOBAL
        .read()
        .unwrap_or_else(PoisonError::into_inner)
        .clone()
}

#[inline]
fn dispatch(event: &ObsEvent<'_>, ctx: SpanCtx) {
    if let Some(r) = current() {
        r.record(event, ctx);
    }
}

/// Dispatches a point-in-time event (not a span) under the ambient
/// [`SpanCtx`], when recording is [`active`].
#[inline]
fn emit(scope: &'static str, name: &'static str, kind: Kind, value: Value, fields: &[Field]) {
    if active() {
        let event = ObsEvent {
            scope,
            name,
            kind,
            value,
            fields,
        };
        dispatch(&event, ambient_ctx());
    }
}

/// Emits a counter increment of `delta`.
#[inline]
pub fn counter(scope: &'static str, name: &'static str, delta: u64, fields: &[Field]) {
    emit(scope, name, Kind::Counter, Value::U64(delta), fields);
}

/// Emits one histogram sample.
#[inline]
pub fn histogram(scope: &'static str, name: &'static str, sample: f64, fields: &[Field]) {
    emit(scope, name, Kind::Histogram, Value::F64(sample), fields);
}

/// Emits a point event.
#[inline]
pub fn event(scope: &'static str, name: &'static str, fields: &[Field]) {
    emit(scope, name, Kind::Event, Value::None, fields);
}

/// RAII *causal* span guard: measures from [`ScopedSpan::enter`] to
/// [`ScopedSpan::finish`] (or drop), emits one [`Kind::Span`] event, and
/// joins the thread-local span stack in between, so every event emitted
/// while the guard is open — child spans, counters, histograms — carries
/// this span's id as its [`SpanCtx::parent`].
///
/// The guard is armed only when recording was [`active`] at `enter`
/// time. An unarmed guard is fully inert: it reads no clock, assigns no
/// id, pushes no stack frame and emits nothing — the NullRecorder
/// bit-identity check extends to the span stack through this property.
///
/// Closing pops the stack defensively by searching for the guard's own
/// id from the top (rather than asserting it *is* the top): during a
/// panic unwind inner guards drop first, so LIFO order holds naturally,
/// and the search makes the pop self-healing if an inner guard ever
/// leaked its frame.
///
/// ```
/// let mut outer = bc_obs::ScopedSpan::enter("plan", "run");
/// {
///     let inner = bc_obs::ScopedSpan::enter("plan", "stage.cover");
///     // counters emitted here are attributed to stage.cover
///     inner.finish();
/// }
/// outer.add_field("algo", "bc_opt");
/// outer.finish();
/// ```
#[must_use = "dropping the guard immediately measures nothing"]
pub struct ScopedSpan {
    scope: &'static str,
    name: &'static str,
    fields: Vec<Field>,
    /// Present while the guard is armed (recording was active at enter)
    /// and not yet closed; `None` keeps the guard inert.
    frame: Option<Frame>,
}

/// An armed span's stack position and start time.
#[derive(Clone, Copy)]
struct Frame {
    id: u64,
    parent: Option<u64>,
    depth: usize,
    started: std::time::Instant,
}

impl ScopedSpan {
    /// Starts a causal span now. When recording is [`active`], assigns a
    /// fresh span id, pushes it onto this thread's span stack and reads
    /// the clock; otherwise the guard is inert.
    pub fn enter(scope: &'static str, name: &'static str) -> Self {
        let frame = active().then(|| {
            let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
            let (parent, depth) = SPAN_STACK.with(|s| {
                let mut stack = s.borrow_mut();
                let parent = stack.last().copied();
                let depth = stack.len();
                stack.push(id);
                (parent, depth)
            });
            Frame {
                id,
                parent,
                depth,
                started: crate::wall::now(),
            }
        });
        ScopedSpan {
            scope,
            name,
            fields: Vec::new(),
            frame,
        }
    }

    /// Whether this guard will emit an event on close (recording was
    /// active at `enter`). Callers use this to skip building fields for
    /// an inert guard.
    #[must_use]
    pub fn armed(&self) -> bool {
        self.frame.is_some()
    }

    /// This span's id, when armed. Exposed for tests that pin parentage.
    #[must_use]
    pub fn id(&self) -> Option<u64> {
        self.frame.map(|f| f.id)
    }

    /// Attaches a field to the eventual span event. No-op when unarmed.
    pub fn add_field(&mut self, key: &'static str, value: impl Into<Value>) {
        if self.frame.is_some() {
            self.fields.push(Field::new(key, value));
        }
    }

    /// Ends the span and emits it (when armed); dropping the guard does
    /// the same.
    pub fn finish(self) {
        drop(self);
    }
}

impl Drop for ScopedSpan {
    fn drop(&mut self) {
        let Some(Frame {
            id,
            parent,
            depth,
            started,
        }) = self.frame.take()
        else {
            return;
        };
        let elapsed_s = started.elapsed().as_secs_f64();
        SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if let Some(pos) = stack.iter().rposition(|&open| open == id) {
                stack.truncate(pos);
            }
        });
        dispatch(
            &ObsEvent {
                scope: self.scope,
                name: self.name,
                kind: Kind::Span,
                value: Value::Wall(elapsed_s),
                fields: &self.fields,
            },
            SpanCtx {
                id: Some(id),
                parent,
                depth,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorders::{NullRecorder, StatsRecorder};

    #[test]
    fn disabled_by_default_on_fresh_thread() {
        std::thread::spawn(|| {
            assert!(!active());
            // Emitting while disabled is a no-op, not an error.
            counter("t", "noop", 1, &[]);
            event("t", "noop", &[]);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn with_local_scopes_and_restores() {
        let stats = Arc::new(StatsRecorder::new());
        let inner = Arc::new(StatsRecorder::new());
        with_local(stats.clone(), || {
            assert!(active());
            counter("t", "a", 2, &[]);
            // Nested local recorder shadows, then restores.
            with_local(inner.clone(), || counter("t", "b", 1, &[]));
            counter("t", "a", 3, &[]);
        });
        let snap = stats.snapshot();
        assert_eq!(snap.counter("t.a"), 5);
        assert_eq!(snap.counter("t.b"), 0);
        assert_eq!(inner.snapshot().counter("t.b"), 1);
    }

    #[test]
    fn local_null_recorder_silences_thread() {
        with_local(Arc::new(NullRecorder), || {
            assert!(!active(), "NullRecorder must keep the fast path disabled");
            counter("t", "silent", 1, &[]);
        });
    }

    #[test]
    fn value_conversions() {
        assert_eq!(Value::from(3usize), Value::U64(3));
        assert_eq!(Value::from(3u32), Value::U64(3));
        assert_eq!(Value::from(-3i64), Value::I64(-3));
        assert_eq!(Value::from(1.5f64), Value::F64(1.5));
        assert_eq!(Value::from("x"), Value::Str("x"));
        assert_eq!(Value::from(true), Value::Bool(true));
    }

    #[test]
    fn scoped_span_tracks_stack_and_parent() {
        let stats = Arc::new(StatsRecorder::new());
        with_local(stats.clone(), || {
            assert_eq!(span_stack_depth(), 0);
            let outer = ScopedSpan::enter("t", "outer");
            assert!(outer.armed());
            assert_eq!(span_stack_depth(), 1);
            {
                let inner = ScopedSpan::enter("t", "inner");
                assert_eq!(span_stack_depth(), 2);
                assert!(inner.id() > outer.id());
                inner.finish();
            }
            assert_eq!(span_stack_depth(), 1);
            outer.finish();
            assert_eq!(span_stack_depth(), 0);
        });
        let snap = stats.snapshot();
        assert_eq!(snap.span_count("t.outer"), 1);
        assert_eq!(snap.span_count("t.inner"), 1);
    }

    #[test]
    fn scoped_span_is_inert_when_disabled() {
        std::thread::spawn(|| {
            assert!(!active());
            let mut s = ScopedSpan::enter("t", "inert");
            assert!(!s.armed());
            assert_eq!(s.id(), None);
            assert_eq!(
                span_stack_depth(),
                0,
                "inert guard must not touch the stack"
            );
            s.add_field("k", 1u64);
            s.finish();
            assert_eq!(span_stack_depth(), 0);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn pairs_spelling_one_key_are_one_key() {
        assert_eq!(key(("plan", "stage.cover")), "plan.stage.cover");
        assert!(same_key(("plan", "stage.cover"), ("plan", "stage.cover")));
        assert!(same_key(("a.b", "c"), ("a", "b.c")));
        assert!(!same_key(("a", "b-c"), ("a.b", "c")));
        assert!(!same_key(("ab", "c"), ("a", "bc")), "ab.c is not a.bc");
        assert!(!same_key(("a", "b"), ("a", "bc")));
    }
}
