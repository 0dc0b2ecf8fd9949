//! Shared planning context: one build of the expensive artifacts, a
//! staged pipeline over them, and per-stage wall-clock timing.
//!
//! Every planner entry point used to independently rebuild the same
//! expensive artifacts — the pair-intersection [`CandidateFamily`], the
//! sensor [`DistanceMatrix`], the per-sensor receive-power table. A
//! [`PlanContext`] owns those artifacts behind `OnceLock`s, so a sweep
//! that runs four algorithms on one network builds each artifact at most
//! once, and [`BuildCounters`] makes that reuse observable in tests.
//!
//! The four planners are re-expressed as compositions of [`PlanStage`]s
//! (`Candidates → Cover → Order → Tighten`, see [`stages_for`]); running
//! them through [`PlanContext::plan`] records a [`StageTimings`] that
//! [`StagedPlan::metrics`] surfaces through [`Metrics`].
//!
//! When a [`bc_obs`] recorder is active, each stage also emits a
//! `"plan"`-scoped span carrying the algorithm, a cache hit/miss flag,
//! and the candidate/stop counts — from the *same* measurement that
//! feeds [`StageTimings`], which is therefore a view over the event
//! stream rather than a second clock — and each artifact build co-emits
//! a `plan.build.*` counter event next to its [`BuildCounters`] bump.
//!
//! # Determinism
//!
//! The parallel stages (candidate enumeration, BC-OPT's per-anchor
//! tangency sweep) fan out over index-sharded scoped threads and reduce
//! in index order, so a plan is byte-identical for any worker count —
//! `workers` is a throughput knob, never a semantics knob.
//!
//! # Invalidation
//!
//! A `PlanContext` is immutable: it pins one network revision. Mutation
//! flows through [`ContextCache`], which wraps the churn operations of
//! [`crate::replan`] and swaps in a fresh context (same shared counters,
//! bumped [`ContextCache::revision`]) whenever the network changes.
//!
//! # Example
//!
//! ```
//! use bc_core::context::PlanContext;
//! use bc_core::planner::Algorithm;
//! use bc_core::PlannerConfig;
//! use bc_geom::Aabb;
//! use bc_wsn::deploy;
//!
//! let net = deploy::uniform(40, Aabb::square(300.0), 2.0, 7);
//! let ctx = PlanContext::new(net, PlannerConfig::paper_sim(25.0));
//! let bc = ctx.plan(Algorithm::Bc).unwrap();
//! let opt = ctx.plan(Algorithm::BcOpt).unwrap(); // reuses the candidates
//! assert_eq!(ctx.counters().candidate_builds(), 1);
//! assert!(opt.timings.total() >= bc.timings.candidates_s);
//! ```

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use bc_tsp::DistanceMatrix;
use bc_units::{Joules, Seconds};
use bc_wpt::ReceivePowerTable;
use bc_wsn::Network;

use crate::generation::BundleStrategy;
use crate::planner::Algorithm;
use crate::{CandidateFamily, ChargingBundle, ChargingPlan, Metrics, PlanError, PlannerConfig, Stop};

/// Builds the pair-intersection candidate family serially.
///
/// The single sanctioned construction site outside `PlanContext` itself:
/// [`crate::generate_bundles`] routes through here so the
/// `context-bypass` lint can pin every other direct construction.
pub(crate) fn serial_candidate_family(net: &Network, r: f64) -> CandidateFamily {
    CandidateFamily::pair_intersection(net, r)
}

/// The worker count a [`PlanContext`] uses unless overridden: the
/// machine's available parallelism, or 1 when that cannot be queried.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Build counters for the cached artifacts, shared across every context
/// revision of a [`ContextCache`].
///
/// Each counter increments once per *construction* (never per access), so
/// a test can assert that a four-algorithm sweep built the candidate
/// family exactly once.
#[derive(Debug, Default)]
pub struct BuildCounters {
    candidates: AtomicUsize,
    matrices: AtomicUsize,
    power_tables: AtomicUsize,
}

impl BuildCounters {
    /// Number of candidate-family builds.
    pub fn candidate_builds(&self) -> usize {
        self.candidates.load(Ordering::Relaxed)
    }

    /// Sum of all builds, used to classify a stage as a cache hit or
    /// miss in its span event.
    fn total_builds(&self) -> usize {
        self.candidates.load(Ordering::Relaxed)
            + self.matrices.load(Ordering::Relaxed)
            + self.power_tables.load(Ordering::Relaxed)
    }

    /// Number of sensor distance-matrix builds.
    pub fn matrix_builds(&self) -> usize {
        self.matrices.load(Ordering::Relaxed)
    }

    /// Number of receive-power-table builds.
    pub fn power_table_builds(&self) -> usize {
        self.power_tables.load(Ordering::Relaxed)
    }
}

/// Wall-clock time spent in each pipeline stage of one [`PlanContext::plan`]
/// call.
///
/// A stage that an algorithm does not have (SC and BC have no Tighten)
/// stays at zero. Artifact reuse shows up here directly: the second
/// algorithm to need the candidate family reports a near-zero
/// `candidates_s` because the `OnceLock` already holds it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageTimings {
    /// Time in the Candidates stage (artifact builds / cache hits).
    pub candidates_s: Seconds,
    /// Time in the Cover stage (set cover / combine–skip / singletons).
    pub cover_s: Seconds,
    /// Time in the Order stage (TSP over the stop anchors).
    pub order_s: Seconds,
    /// Time in the Tighten stage (substitute / Algorithm 3 relocation).
    pub tighten_s: Seconds,
}

impl StageTimings {
    /// Sum of all stage times.
    pub fn total(&self) -> Seconds {
        self.candidates_s + self.cover_s + self.order_s + self.tighten_s
    }

    fn add(&mut self, kind: StageKind, dt: Seconds) {
        match kind {
            StageKind::Candidates => self.candidates_s += dt,
            StageKind::Cover => self.cover_s += dt,
            StageKind::Order => self.order_s += dt,
            StageKind::Tighten => self.tighten_s += dt,
        }
    }
}

impl std::ops::Add for StageTimings {
    type Output = StageTimings;

    fn add(self, rhs: StageTimings) -> StageTimings {
        StageTimings {
            candidates_s: self.candidates_s + rhs.candidates_s,
            cover_s: self.cover_s + rhs.cover_s,
            order_s: self.order_s + rhs.order_s,
            tighten_s: self.tighten_s + rhs.tighten_s,
        }
    }
}

impl std::ops::AddAssign for StageTimings {
    fn add_assign(&mut self, rhs: StageTimings) {
        *self = *self + rhs;
    }
}

impl Default for StageTimings {
    fn default() -> Self {
        StageTimings {
            candidates_s: Seconds(0.0),
            cover_s: Seconds(0.0),
            order_s: Seconds(0.0),
            tighten_s: Seconds(0.0),
        }
    }
}

/// A finished plan plus the per-stage wall-times of the pipeline run that
/// produced it.
#[derive(Debug, Clone)]
pub struct StagedPlan {
    /// The charging plan, identical for any worker count.
    pub plan: ChargingPlan,
    /// Per-stage wall-clock times.
    pub timings: StageTimings,
}

impl StagedPlan {
    /// Plan metrics with [`Metrics::stage_timings`] populated.
    pub fn metrics(&self, energy: &bc_wpt::EnergyModel) -> Metrics {
        let mut m = self.plan.metrics(energy);
        m.stage_timings = Some(self.timings);
        m
    }

    /// Unwraps the plan, discarding the timings.
    pub fn into_plan(self) -> ChargingPlan {
        self.plan
    }
}

/// A cooperative cancellation budget for one pipeline run.
///
/// [`PlanContext::plan_budgeted`] consults the budget *between* stages —
/// never inside one — so cancellation can only ever cut a pipeline at a
/// stage boundary, where the working state is either a complete,
/// contract-valid plan (the Order stage has run) or no plan at all.
/// That is the invariant the serving layer's degradation ladder rests
/// on: a deadline can shorten a BC-OPT run to its BC prefix, but can
/// never surface a half-tightened tour.
///
/// Three exhaustion sources compose (any one trips the budget):
///
/// * a wall-clock **deadline** ([`StageBudget::with_deadline`] /
///   [`StageBudget::with_timeout`]) — the production path;
/// * a shared **cancel flag** ([`StageBudget::with_cancel_flag`]) — for
///   external cancellation (shutdown, client gone);
/// * a deterministic **check countdown** ([`StageBudget::after_checks`])
///   — exhausts after a fixed number of boundary checks, so tests can
///   cut a pipeline at an exact stage without racing a clock.
///
/// The default budget ([`StageBudget::none`]) never exhausts.
#[derive(Debug, Clone, Default)]
pub struct StageBudget {
    deadline: Option<Instant>,
    cancel: Option<Arc<AtomicBool>>,
    checks_left: Option<Arc<AtomicUsize>>,
}

impl StageBudget {
    /// A budget that never exhausts: `plan_budgeted` behaves like
    /// [`PlanContext::plan`].
    pub fn none() -> Self {
        StageBudget::default()
    }

    /// Exhausts once `deadline` passes (builder style).
    #[must_use]
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Exhausts `timeout` from now (builder style).
    #[must_use]
    pub fn with_timeout(self, timeout: Duration) -> Self {
        self.with_deadline(bc_obs::wall::now() + timeout)
    }

    /// Exhausts when `flag` is set (builder style). The flag is shared:
    /// the caller keeps a clone and may set it from any thread.
    #[must_use]
    pub fn with_cancel_flag(mut self, flag: Arc<AtomicBool>) -> Self {
        self.cancel = Some(flag);
        self
    }

    /// A deterministic budget that reports exhausted on the `n+1`-th
    /// boundary check: exactly `n` stages run, independent of wall
    /// clock. Intended for tests of the degradation path.
    #[must_use]
    pub fn after_checks(n: usize) -> Self {
        StageBudget {
            checks_left: Some(Arc::new(AtomicUsize::new(n))),
            ..StageBudget::default()
        }
    }

    /// The wall-clock deadline, when one is set.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Whether the budget is spent. Deadline and cancel-flag checks are
    /// pure reads; the check countdown consumes one check per call.
    pub fn exhausted(&self) -> bool {
        if let Some(flag) = &self.cancel {
            if flag.load(Ordering::Acquire) {
                return true;
            }
        }
        if let Some(deadline) = self.deadline {
            if bc_obs::wall::now() >= deadline {
                return true;
            }
        }
        if let Some(left) = &self.checks_left {
            let spent = left
                .fetch_update(Ordering::AcqRel, Ordering::Acquire, |v| v.checked_sub(1))
                .is_err();
            if spent {
                return true;
            }
        }
        false
    }
}

/// Outcome of a budgeted pipeline run ([`PlanContext::plan_budgeted`]).
///
/// `plan` is `Some` whenever the pipeline got through its Order stage
/// before the budget exhausted — such a plan is complete and passes the
/// full planner contract set even when later improvement stages were
/// skipped (a BC-OPT run cut before Tighten is exactly a BC plan). It is
/// `None` when the budget cut the run before a tour existed.
#[derive(Debug, Clone)]
pub struct BudgetedPlan {
    /// The best complete plan the pipeline produced, if any.
    pub plan: Option<StagedPlan>,
    /// Whether every stage of the algorithm's pipeline ran.
    pub completed: bool,
    /// How many stages ran before the budget cut the pipeline.
    pub stages_run: usize,
    /// How many stages the algorithm's pipeline has in total.
    pub stages_total: usize,
}

impl BudgetedPlan {
    /// Number of pipeline stages the budget cut off.
    pub fn stages_skipped(&self) -> usize {
        self.stages_total - self.stages_run
    }
}

/// The pipeline position of a [`PlanStage`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageKind {
    /// Build (or reuse) the shared artifacts the algorithm needs.
    Candidates,
    /// Produce the charging stops (cover / combine–skip / singletons).
    Cover,
    /// Order the stops into a closed tour.
    Order,
    /// Post-ordering improvement (substitute / anchor relocation).
    Tighten,
}

impl StageKind {
    /// The stable event name this stage's span is emitted under (the
    /// `name` of a `"plan"`-scoped [`bc_obs`] span).
    pub fn span_name(self) -> &'static str {
        match self {
            StageKind::Candidates => "stage.candidates",
            StageKind::Cover => "stage.cover",
            StageKind::Order => "stage.order",
            StageKind::Tighten => "stage.tighten",
        }
    }
}

/// Working state threaded through a pipeline run: the Cover stage fills
/// `stops`, the Order stage consumes them into `plan`, and Tighten
/// mutates `plan` in place.
#[derive(Debug, Default)]
pub struct StageState {
    /// Unordered charging stops (output of the Cover stage).
    pub stops: Vec<Stop>,
    /// The ordered plan (output of the Order stage onwards).
    pub plan: Option<ChargingPlan>,
}

/// One stage of the planning pipeline.
///
/// Stages are infallible: input validation happens once in
/// [`PlanContext::plan`] before any stage runs.
pub trait PlanStage {
    /// Which pipeline slot this stage occupies (used for timing).
    fn kind(&self) -> StageKind;
    /// Runs the stage against the shared context.
    fn run(&self, ctx: &PlanContext, state: &mut StageState);
}

/// The stage composition of each algorithm:
///
/// | algorithm | Candidates        | Cover        | Order | Tighten    |
/// |-----------|-------------------|--------------|-------|------------|
/// | SC        | power table       | singletons   | TSP   | —          |
/// | CSS       | sensor matrix     | combine–skip | TSP   | substitute |
/// | BC        | candidate family  | set cover    | TSP   | —          |
/// | BC-OPT    | candidate family  | set cover    | TSP   | Algorithm 3|
pub fn stages_for(algo: Algorithm) -> Vec<Box<dyn PlanStage>> {
    let warm = Box::new(WarmArtifacts { algo });
    match algo {
        Algorithm::Sc => vec![warm, Box::new(ScCover), Box::new(TourOrder)],
        Algorithm::Css => vec![
            warm,
            Box::new(CssCover),
            Box::new(CssOrder),
            Box::new(CssSubstitute),
        ],
        Algorithm::Bc => vec![warm, Box::new(BcCover), Box::new(TourOrder)],
        Algorithm::BcOpt => vec![
            warm,
            Box::new(BcCover),
            Box::new(TourOrder),
            Box::new(BcOptTighten),
        ],
    }
}

/// Candidates stage: warm the artifact the algorithm draws on, so its
/// build cost is attributed to this stage (a reuse hit costs ~nothing).
struct WarmArtifacts {
    algo: Algorithm,
}

impl PlanStage for WarmArtifacts {
    fn kind(&self) -> StageKind {
        StageKind::Candidates
    }

    fn run(&self, ctx: &PlanContext, _state: &mut StageState) {
        match self.algo {
            Algorithm::Sc => {
                let _ = ctx.power_table();
            }
            Algorithm::Css => {
                let _ = ctx.sensor_matrix();
            }
            Algorithm::Bc | Algorithm::BcOpt => {
                if ctx.config().bundle_strategy != BundleStrategy::Grid {
                    let _ = ctx.candidates();
                }
            }
        }
    }
}

/// SC cover: one singleton stop per sensor, dwell from the shared
/// receive-power table (bit-identical to `Stop::for_bundle`, which
/// evaluates the same charging law at the same zero distance).
struct ScCover;

impl PlanStage for ScCover {
    fn kind(&self) -> StageKind {
        StageKind::Cover
    }

    fn run(&self, ctx: &PlanContext, state: &mut StageState) {
        let net = ctx.network();
        let table = ctx.power_table();
        state.stops = (0..net.len())
            .map(|i| Stop {
                bundle: ChargingBundle::from_members(vec![i], net),
                dwell: table.contact_dwell(i),
            })
            .collect();
    }
}

/// CSS cover: sensor-level TSP (solved over the shared sensor matrix —
/// `bc_tsp::solve` is exactly `from_points` + `solve_matrix`), then the
/// Combine and Skip passes.
struct CssCover;

impl PlanStage for CssCover {
    fn kind(&self) -> StageKind {
        StageKind::Cover
    }

    fn run(&self, ctx: &PlanContext, state: &mut StageState) {
        let net = ctx.network();
        if net.is_empty() {
            return;
        }
        let tour = bc_tsp::solve_matrix(ctx.sensor_matrix(), &ctx.config().tsp);
        state.stops = crate::planner::css_combine_skip(net, ctx.config(), &tour.order);
    }
}

/// BC / BC-OPT cover: set cover over the shared candidate family (or the
/// grid partition), then dwell-policy stop construction.
struct BcCover;

impl PlanStage for BcCover {
    fn kind(&self) -> StageKind {
        StageKind::Cover
    }

    fn run(&self, ctx: &PlanContext, state: &mut StageState) {
        let net = ctx.network();
        let cfg = ctx.config();
        let bundles = if net.is_empty() {
            Vec::new()
        } else {
            match cfg.bundle_strategy {
                BundleStrategy::Grid => crate::generation::grid_bundles(net, cfg.bundle_radius),
                BundleStrategy::Greedy => {
                    crate::generation::cover_bundles(net, ctx.candidates(), false)
                }
                BundleStrategy::Optimal => {
                    crate::generation::cover_bundles(net, ctx.candidates(), true)
                }
            }
        };
        state.stops = crate::planner::stops_for_bundles(bundles, net, cfg);
    }
}

/// Shared Order stage: TSP over the stop anchors (plus the optional base
/// way-point).
struct TourOrder;

impl PlanStage for TourOrder {
    fn kind(&self) -> StageKind {
        StageKind::Order
    }

    fn run(&self, ctx: &PlanContext, state: &mut StageState) {
        let stops = std::mem::take(&mut state.stops);
        state.plan = Some(crate::planner::order_into_plan(
            stops,
            ctx.network(),
            &ctx.config().tsp,
            ctx.config().include_base,
        ));
    }
}

/// CSS order: like [`TourOrder`], except an empty network short-circuits
/// to an empty plan, without the base way-point.
struct CssOrder;

impl PlanStage for CssOrder {
    fn kind(&self) -> StageKind {
        StageKind::Order
    }

    fn run(&self, ctx: &PlanContext, state: &mut StageState) {
        if ctx.network().is_empty() {
            state.plan = Some(ChargingPlan::new(Vec::new(), 0));
            return;
        }
        TourOrder.run(ctx, state);
    }
}

/// CSS tighten: the Substitute pass, sliding stops inside their slack
/// disks to shorten the tour.
struct CssSubstitute;

impl PlanStage for CssSubstitute {
    fn kind(&self) -> StageKind {
        StageKind::Tighten
    }

    fn run(&self, ctx: &PlanContext, state: &mut StageState) {
        if let Some(plan) = state.plan.as_mut() {
            crate::planner::css_substitute(plan, ctx.network(), ctx.config());
        }
    }
}

/// BC-OPT tighten: the Algorithm 3 anchor-relocation sweeps, with the
/// per-anchor tangency search fanned out over the context's workers.
struct BcOptTighten;

impl PlanStage for BcOptTighten {
    fn kind(&self) -> StageKind {
        StageKind::Tighten
    }

    fn run(&self, ctx: &PlanContext, state: &mut StageState) {
        if let Some(plan) = state.plan.as_mut() {
            let cfg = ctx.config();
            let before = plan.metrics(&cfg.energy).total_energy_j;
            crate::planner::optimize_tour_with_workers(plan, ctx.network(), cfg, ctx.workers());
            crate::contracts::debug_assert_no_regression(
                before,
                plan.metrics(&cfg.energy).total_energy_j,
            );
        }
    }
}

/// A shared, reusable planning context: one network revision, one
/// configuration, and lazily-built cached artifacts.
///
/// Cheap to create (nothing is built until a stage asks); every artifact
/// is built at most once for the context's lifetime. See the
/// [module docs](self) for the determinism and invalidation rules.
#[derive(Debug)]
pub struct PlanContext {
    net: Arc<Network>,
    cfg: PlannerConfig,
    workers: usize,
    candidates: OnceLock<CandidateFamily>,
    sensor_matrix: OnceLock<DistanceMatrix>,
    power_table: OnceLock<ReceivePowerTable>,
    counters: Arc<BuildCounters>,
}

impl PlanContext {
    /// Creates a context over a network and configuration, with the
    /// worker count defaulting to the machine's available parallelism.
    pub fn new(net: Network, cfg: PlannerConfig) -> Self {
        Self::with_shared(Arc::new(net), cfg, default_workers(), Arc::default())
    }

    fn with_shared(
        net: Arc<Network>,
        cfg: PlannerConfig,
        workers: usize,
        counters: Arc<BuildCounters>,
    ) -> Self {
        PlanContext {
            net,
            cfg,
            workers: workers.max(1),
            candidates: OnceLock::new(),
            sensor_matrix: OnceLock::new(),
            power_table: OnceLock::new(),
            counters,
        }
    }

    /// Sets the worker count for the parallel stages (builder style).
    /// Clamped to at least 1. Changing it never changes any result —
    /// only how fast the parallel stages produce it.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// The network this context plans over.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// The planner configuration.
    pub fn config(&self) -> &PlannerConfig {
        &self.cfg
    }

    /// Worker count used by the parallel stages.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The artifact build counters (shared across [`ContextCache`]
    /// revisions).
    pub fn counters(&self) -> &BuildCounters {
        &self.counters
    }

    /// The pair-intersection candidate family for `cfg.bundle_radius`,
    /// built on first use (in parallel over [`PlanContext::workers`]).
    ///
    /// # Panics
    ///
    /// Panics on first use if the bundle radius is not positive and
    /// finite; [`PlanContext::plan`] validates the configuration first.
    pub fn candidates(&self) -> &CandidateFamily {
        self.candidates.get_or_init(|| {
            self.counters.candidates.fetch_add(1, Ordering::Relaxed);
            let build_span =
                bc_obs::active().then(|| bc_obs::ScopedSpan::enter("plan", "build.candidates"));
            if bc_obs::active() {
                bc_obs::counter(
                    "plan",
                    "build.candidates",
                    1,
                    &[bc_obs::Field::new("sensors", self.net.len())],
                );
            }
            let family = CandidateFamily::pair_intersection_par(
                &self.net,
                self.cfg.bundle_radius.0,
                self.workers,
            );
            if let Some(mut s) = build_span {
                s.add_field("anchors", family.len());
                s.finish();
            }
            family
        })
    }

    /// The pairwise distance matrix over the sensor positions, built on
    /// first use. [`DistanceMatrix::submatrix`] views of it price any
    /// sensor subset without a rebuild.
    pub fn sensor_matrix(&self) -> &DistanceMatrix {
        self.sensor_matrix.get_or_init(|| {
            self.counters.matrices.fetch_add(1, Ordering::Relaxed);
            let build_span =
                bc_obs::active().then(|| bc_obs::ScopedSpan::enter("plan", "build.matrix"));
            if bc_obs::active() {
                bc_obs::counter(
                    "plan",
                    "build.matrix",
                    1,
                    &[bc_obs::Field::new("sensors", self.net.len())],
                );
            }
            let matrix = DistanceMatrix::from_points(self.net.positions());
            if let Some(s) = build_span {
                s.finish();
            }
            matrix
        })
    }

    /// The per-sensor receive-power table for the charging model, built
    /// on first use.
    ///
    /// # Panics
    ///
    /// Panics on first use if some demand is negative or not finite;
    /// [`PlanContext::plan`] validates the demands first.
    pub fn power_table(&self) -> &ReceivePowerTable {
        self.power_table.get_or_init(|| {
            self.counters.power_tables.fetch_add(1, Ordering::Relaxed);
            let build_span =
                bc_obs::active().then(|| bc_obs::ScopedSpan::enter("plan", "build.power_table"));
            if bc_obs::active() {
                bc_obs::counter(
                    "plan",
                    "build.power_table",
                    1,
                    &[bc_obs::Field::new("sensors", self.net.len())],
                );
            }
            let demands: Vec<Joules> = self.net.sensors().iter().map(|s| s.demand).collect();
            let table = ReceivePowerTable::new(&self.cfg.charging, &demands);
            if let Some(s) = build_span {
                s.finish();
            }
            table
        })
    }

    /// Pre-seeds the sensor matrix with an externally built one (e.g. a
    /// [`DistanceMatrix::submatrix`] view from a parent context). Does
    /// not count as a build. No-op if the matrix was already built.
    ///
    /// The caller must guarantee `matrix` equals what
    /// [`PlanContext::sensor_matrix`] would build — entry `(i, j)` is the
    /// distance between sensors `i` and `j` of this context's network.
    pub fn seed_sensor_matrix(&self, matrix: DistanceMatrix) {
        debug_assert_eq!(matrix.len(), self.net.len(), "seed matrix size mismatch");
        let _ = self.sensor_matrix.set(matrix);
    }

    /// Runs the algorithm's stage pipeline over this context.
    ///
    /// Validates the configuration and demands first (same contract as
    /// [`crate::planner::try_run`]), times each stage, and debug-asserts
    /// the planner contracts on the result.
    ///
    /// # Errors
    ///
    /// * [`PlanError::Config`] when the configuration is invalid;
    /// * [`PlanError::InvalidDemand`] when some sensor's demand is
    ///   negative or not finite.
    pub fn plan(&self, algo: Algorithm) -> Result<StagedPlan, PlanError> {
        self.validate_inputs()?;
        let staged = self.run_stages(algo);
        crate::contracts::debug_assert_plan(&staged.plan, &self.net, &self.cfg);
        Ok(staged)
    }

    /// Runs the algorithm's stage pipeline under a cooperative
    /// cancellation budget, checked between stages (see [`StageBudget`]).
    ///
    /// An exhausted budget stops the pipeline at the next stage boundary.
    /// The returned [`BudgetedPlan`] carries a plan whenever the Order
    /// stage got to run — complete and contract-checked even when later
    /// improvement stages were cut — and `None` otherwise. With
    /// [`StageBudget::none`] this is exactly [`PlanContext::plan`].
    ///
    /// # Errors
    ///
    /// Same as [`PlanContext::plan`]. Budget exhaustion is *not* an
    /// error: it is reported through [`BudgetedPlan::completed`].
    pub fn plan_budgeted(
        &self,
        algo: Algorithm,
        budget: &StageBudget,
    ) -> Result<BudgetedPlan, PlanError> {
        self.validate_inputs()?;
        let out = self.run_stages_budgeted(algo, Some(budget));
        if let Some(staged) = &out.plan {
            crate::contracts::debug_assert_plan(&staged.plan, &self.net, &self.cfg);
        }
        Ok(out)
    }

    /// Input validation shared by [`PlanContext::plan`] and
    /// [`PlanContext::plan_budgeted`].
    fn validate_inputs(&self) -> Result<(), PlanError> {
        self.cfg.validate()?;
        for s in self.net.sensors() {
            if !s.demand.is_finite() || s.demand < Joules(0.0) {
                return Err(PlanError::InvalidDemand { value: s.demand });
            }
        }
        Ok(())
    }

    /// Runs the stage pipeline, timing each stage exactly once: the same
    /// measurement feeds the [`StageTimings`] aggregate and the per-stage
    /// `bc_obs` span, so the public timing type is a *view over* the
    /// event stream, never a second clock.
    fn run_stages(&self, algo: Algorithm) -> StagedPlan {
        let out = self.run_stages_budgeted(algo, None);
        match out.plan {
            Some(staged) => staged,
            // Unreachable for the four shipped pipelines (all end with a
            // plan and an unbudgeted run cannot be cut), kept total.
            None => StagedPlan {
                plan: ChargingPlan::new(Vec::new(), self.net.len()),
                timings: StageTimings::default(),
            },
        }
    }

    /// Budget-aware pipeline core: `budget = None` runs every stage
    /// (the [`PlanContext::plan`] path, byte-identical to the historical
    /// behaviour); `Some` checks [`StageBudget::exhausted`] before each
    /// stage and stops at the first exhausted boundary.
    fn run_stages_budgeted(&self, algo: Algorithm, budget: Option<&StageBudget>) -> BudgetedPlan {
        let stages = stages_for(algo);
        let stages_total = stages.len();
        let mut stages_run = 0usize;
        let mut state = StageState::default();
        let mut timings = StageTimings::default();
        // Root of the causal span tree for this pipeline run: the stage
        // spans below become its children, so a tree recorder sees
        // `plan.run -> plan.stage.* -> plan.tighten.round -> ...`. Gated
        // on `active()` so the disabled path stays exactly as cheap as
        // before (the NullRecorder inertness bench).
        let mut run_span = bc_obs::active().then(|| {
            let mut s = bc_obs::ScopedSpan::enter("plan", "run");
            s.add_field("algo", algo.name());
            s.add_field("workers", self.workers);
            s
        });
        for stage in stages {
            if let Some(b) = budget {
                if b.exhausted() {
                    if bc_obs::active() {
                        bc_obs::event(
                            "plan",
                            "budget.exhausted",
                            &[
                                bc_obs::Field::new("algo", algo.name()),
                                bc_obs::Field::new("next_stage", stage.kind().span_name()),
                                bc_obs::Field::new("stages_run", stages_run),
                            ],
                        );
                    }
                    break;
                }
            }
            let builds_before = self.counters.total_builds();
            // A causal guard instead of a bare `wall::now()` pair: the
            // stage span is *open while the stage runs*, so sub-spans
            // (tighten rounds, artifact builds) parent under it. The
            // guard still owns the one elapsed measurement that feeds
            // both the event stream and `StageTimings` — the "one
            // measurement, two views" contract is unchanged.
            let mut stage_span = bc_obs::ScopedSpan::enter("plan", stage.kind().span_name());
            stage.run(self, &mut state);
            if stage_span.armed() {
                let cache = if self.counters.total_builds() > builds_before {
                    "miss"
                } else {
                    "hit"
                };
                let stops = state
                    .plan
                    .as_ref()
                    .map_or(state.stops.len(), ChargingPlan::num_charging_stops);
                stage_span.add_field("algo", algo.name());
                stage_span.add_field("cache", cache);
                stage_span
                    .add_field("candidates", self.candidates.get().map_or(0, CandidateFamily::len));
                stage_span.add_field("stops", stops);
            }
            let elapsed_s = stage_span.finish();
            timings.add(stage.kind(), Seconds(elapsed_s));
            stages_run += 1;
        }
        if let Some(mut s) = run_span.take() {
            s.add_field("stages_run", stages_run);
            s.finish();
        }
        let completed = stages_run == stages_total;
        let plan = match state.plan.take() {
            Some(plan) => Some(StagedPlan { plan, timings }),
            // The historical fallback: a pipeline that ran to the end
            // without an Order stage yields its bare stops. A *cut*
            // pipeline must not — unordered leftovers are not "the best
            // plan completed so far".
            None if completed => Some(StagedPlan {
                plan: ChargingPlan::new(std::mem::take(&mut state.stops), self.net.len()),
                timings,
            }),
            None => None,
        };
        BudgetedPlan {
            plan,
            completed,
            stages_run,
            stages_total,
        }
    }
}

/// A [`PlanContext`] keyed by a network revision: churn operations go
/// through here, and each one installs a fresh context (new `OnceLock`s,
/// same shared [`BuildCounters`]) and bumps [`ContextCache::revision`].
///
/// This is the executor's replacement for carrying a bare `Network`
/// through recovery replans: the cached artifacts can never go stale,
/// because mutating the network *is* the invalidation.
#[derive(Debug)]
pub struct ContextCache {
    ctx: PlanContext,
    revision: u64,
}

impl ContextCache {
    /// Creates a cache at revision 0.
    pub fn new(net: Network, cfg: PlannerConfig) -> Self {
        ContextCache {
            ctx: PlanContext::new(net, cfg),
            revision: 0,
        }
    }

    /// The current context.
    pub fn context(&self) -> &PlanContext {
        &self.ctx
    }

    /// The current network revision's sensors.
    pub fn network(&self) -> &Network {
        self.ctx.network()
    }

    /// The planner configuration (shared by every revision).
    pub fn config(&self) -> &PlannerConfig {
        self.ctx.config()
    }

    /// How many times the network has been mutated.
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// The build counters accumulated across every revision.
    pub fn counters(&self) -> &BuildCounters {
        self.ctx.counters()
    }

    /// Sets the worker count for the current and future revisions.
    pub fn set_workers(&mut self, workers: usize) {
        self.ctx.workers = workers.max(1);
    }

    /// Plans with the current revision's context.
    ///
    /// # Errors
    ///
    /// Same as [`PlanContext::plan`].
    pub fn plan(&self, algo: Algorithm) -> Result<StagedPlan, PlanError> {
        self.ctx.plan(algo)
    }

    /// Plans with the current revision's context under a cooperative
    /// cancellation budget.
    ///
    /// # Errors
    ///
    /// Same as [`PlanContext::plan_budgeted`].
    pub fn plan_budgeted(
        &self,
        algo: Algorithm,
        budget: &StageBudget,
    ) -> Result<BudgetedPlan, PlanError> {
        self.ctx.plan_budgeted(algo, budget)
    }

    /// Removes a sensor ([`crate::replan::remove_sensor`]) and installs
    /// the mutated network as the next revision.
    ///
    /// # Errors
    ///
    /// [`PlanError::SensorOutOfBounds`] if `sensor_idx` does not exist.
    pub fn remove_sensor(
        &mut self,
        plan: &ChargingPlan,
        sensor_idx: usize,
    ) -> Result<ChargingPlan, PlanError> {
        let (net, new_plan) =
            crate::replan::remove_sensor(self.ctx.network(), plan, sensor_idx, self.ctx.config())?;
        self.install(net);
        Ok(new_plan)
    }

    /// Adds a sensor ([`crate::replan::add_sensor`]) and installs the
    /// mutated network as the next revision.
    ///
    /// # Errors
    ///
    /// [`PlanError::InvalidDemand`] if `demand` is negative or not
    /// finite.
    pub fn add_sensor(
        &mut self,
        plan: &ChargingPlan,
        pos: bc_geom::Point,
        demand: f64,
    ) -> Result<ChargingPlan, PlanError> {
        let (net, new_plan) =
            crate::replan::add_sensor(self.ctx.network(), plan, pos, demand, self.ctx.config())?;
        self.install(net);
        Ok(new_plan)
    }

    fn install(&mut self, net: Network) {
        self.ctx = PlanContext::with_shared(
            Arc::new(net),
            self.ctx.cfg.clone(),
            self.ctx.workers,
            Arc::clone(&self.ctx.counters),
        );
        self.revision += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bc_geom::{Aabb, Point};
    use bc_wsn::deploy;

    fn ctx(n: usize, r: f64, seed: u64) -> PlanContext {
        PlanContext::new(
            deploy::uniform(n, Aabb::square(300.0), 2.0, seed),
            PlannerConfig::paper_sim(r),
        )
    }

    #[test]
    fn artifacts_build_once_across_all_algorithms() {
        let ctx = ctx(50, 25.0, 3);
        for algo in Algorithm::ALL {
            let staged = ctx.plan(algo).unwrap();
            assert!(staged.plan.validate(ctx.network(), &ctx.config().charging).is_ok());
        }
        assert_eq!(ctx.counters().candidate_builds(), 1);
        assert_eq!(ctx.counters().matrix_builds(), 1);
        assert_eq!(ctx.counters().power_table_builds(), 1);
    }

    #[test]
    fn worker_count_does_not_change_plans() {
        let net = deploy::uniform(45, Aabb::square(300.0), 2.0, 9);
        let cfg = PlannerConfig::paper_sim(25.0);
        let serial = PlanContext::new(net.clone(), cfg.clone()).with_workers(1);
        let parallel = PlanContext::new(net, cfg).with_workers(7);
        for algo in Algorithm::ALL {
            assert_eq!(
                serial.plan(algo).unwrap().plan,
                parallel.plan(algo).unwrap().plan,
                "{algo}"
            );
        }
    }

    #[test]
    fn empty_network_plans_are_empty() {
        let ctx = ctx(0, 5.0, 0);
        for algo in Algorithm::ALL {
            let staged = ctx.plan(algo).unwrap();
            assert_eq!(staged.plan.num_charging_stops(), 0);
        }
    }

    #[test]
    fn plan_validates_inputs() {
        let net = deploy::uniform(5, Aabb::square(100.0), 2.0, 1);
        let ctx = PlanContext::new(net, PlannerConfig::paper_sim(f64::NAN));
        assert!(matches!(ctx.plan(Algorithm::Bc), Err(PlanError::Config(_))));
    }

    #[test]
    fn timings_are_non_negative_and_total() {
        let ctx = ctx(30, 20.0, 4);
        let staged = ctx.plan(Algorithm::BcOpt).unwrap();
        let t = staged.timings;
        for v in [t.candidates_s, t.cover_s, t.order_s, t.tighten_s] {
            assert!(v >= Seconds(0.0));
        }
        assert!((t.total() - (t.candidates_s + t.cover_s + t.order_s + t.tighten_s)).abs()
            < Seconds(1e-12));
        let m = staged.metrics(&PlannerConfig::paper_sim(20.0).energy);
        assert_eq!(m.stage_timings, Some(t));
    }

    #[test]
    fn cache_revision_bumps_and_counters_accumulate() {
        let net = deploy::uniform(20, Aabb::square(200.0), 2.0, 6);
        let mut cache = ContextCache::new(net, PlannerConfig::paper_sim(20.0));
        let plan = cache.plan(Algorithm::Bc).unwrap().into_plan();
        assert_eq!(cache.revision(), 0);
        assert_eq!(cache.counters().candidate_builds(), 1);

        let plan = cache.remove_sensor(&plan, 3).unwrap();
        assert_eq!(cache.revision(), 1);
        assert_eq!(cache.network().len(), 19);
        plan.validate(cache.network(), &cache.config().charging).unwrap();

        let plan = cache
            .add_sensor(&plan, Point::new(50.0, 50.0), 2.0)
            .unwrap();
        assert_eq!(cache.revision(), 2);
        assert_eq!(cache.network().len(), 20);
        plan.validate(cache.network(), &cache.config().charging).unwrap();

        // A fresh plan on the new revision rebuilds the family once more.
        let _ = cache.plan(Algorithm::Bc).unwrap();
        assert_eq!(cache.counters().candidate_builds(), 2);
    }

    #[test]
    fn unlimited_budget_matches_plan() {
        let ctx = ctx(40, 25.0, 5);
        for algo in Algorithm::ALL {
            let budgeted = ctx.plan_budgeted(algo, &StageBudget::none()).unwrap();
            assert!(budgeted.completed, "{algo}");
            assert_eq!(budgeted.stages_run, budgeted.stages_total);
            assert_eq!(budgeted.stages_skipped(), 0);
            let plan = budgeted.plan.expect("complete run yields a plan").plan;
            assert_eq!(plan, ctx.plan(algo).unwrap().plan, "{algo}");
        }
    }

    #[test]
    fn budget_cut_bc_opt_degrades_to_exact_bc_plan() {
        let ctx = ctx(45, 25.0, 7);
        // BC-OPT's pipeline is Candidates, Cover, Order, Tighten; a
        // budget of three checks cuts exactly the Tighten stage.
        let cut = ctx
            .plan_budgeted(Algorithm::BcOpt, &StageBudget::after_checks(3))
            .unwrap();
        assert!(!cut.completed);
        assert_eq!(cut.stages_run, 3);
        assert_eq!(cut.stages_total, 4);
        let degraded = cut.plan.expect("order stage ran, so a plan exists").plan;
        assert_eq!(degraded, ctx.plan(Algorithm::Bc).unwrap().plan);
    }

    #[test]
    fn budget_cut_before_order_yields_no_plan() {
        let ctx = ctx(30, 20.0, 2);
        for checks in [0usize, 1, 2] {
            let cut = ctx
                .plan_budgeted(Algorithm::BcOpt, &StageBudget::after_checks(checks))
                .unwrap();
            assert!(!cut.completed);
            assert_eq!(cut.stages_run, checks);
            assert!(cut.plan.is_none(), "no tour exists after {checks} stages");
        }
    }

    #[test]
    fn cancel_flag_and_past_deadline_cut_immediately() {
        use std::sync::atomic::AtomicBool;

        let ctx = ctx(20, 20.0, 3);
        let flag = Arc::new(AtomicBool::new(true));
        let cancelled = StageBudget::none().with_cancel_flag(Arc::clone(&flag));
        let out = ctx.plan_budgeted(Algorithm::Bc, &cancelled).unwrap();
        assert_eq!(out.stages_run, 0);
        assert!(out.plan.is_none());

        let expired = StageBudget::none().with_timeout(Duration::ZERO);
        assert!(expired.deadline().is_some());
        let out = ctx.plan_budgeted(Algorithm::Sc, &expired).unwrap();
        assert_eq!(out.stages_run, 0);

        // An unset flag and a generous deadline do not interfere.
        flag.store(false, Ordering::Release);
        let roomy = StageBudget::none()
            .with_cancel_flag(flag)
            .with_timeout(Duration::from_secs(3600));
        let out = ctx.plan_budgeted(Algorithm::Bc, &roomy).unwrap();
        assert!(out.completed);
    }

    #[test]
    fn budgeted_validation_errors_still_surface() {
        let net = deploy::uniform(5, Aabb::square(100.0), 2.0, 1);
        let ctx = PlanContext::new(net, PlannerConfig::paper_sim(f64::NAN));
        assert!(matches!(
            ctx.plan_budgeted(Algorithm::Bc, &StageBudget::none()),
            Err(PlanError::Config(_))
        ));
    }

    #[test]
    fn seeded_matrix_is_reused_not_rebuilt() {
        let net = deploy::uniform(10, Aabb::square(100.0), 2.0, 8);
        let cfg = PlannerConfig::paper_sim(15.0);
        let parent = PlanContext::new(net.clone(), cfg.clone());
        let sub = parent.sensor_matrix().submatrix(&(0..10).collect::<Vec<_>>());
        let child = PlanContext::new(net, cfg);
        child.seed_sensor_matrix(sub);
        let _ = child.plan(Algorithm::Css).unwrap();
        assert_eq!(child.counters().matrix_builds(), 0, "seed must not count");
    }
}
