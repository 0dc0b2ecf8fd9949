//! Shared planning context: one build of the candidate family and a
//! staged pipeline over it.
//!
//! BC and BC-OPT both cover the network from the same pair-intersection
//! [`CandidateFamily`] (Algorithm 2). A [`PlanContext`] owns that family
//! behind a `OnceLock`, so a sweep that runs every algorithm on one
//! network builds it at most once. SC and CSS share nothing with each
//! other or with the bundle planners, so their inputs (contact dwells,
//! the sensor-level tour) are computed inside their own stages and not
//! kept.
//!
//! Each of the four planners is a fixed row of private stages
//! (`Candidates → Cover → Order → Tighten`, tabled on
//! [`PlanContext::plan`]), run in order by [`PlanContext::plan`] and
//! [`PlanContext::plan_budgeted`].
//!
//! # Observability
//!
//! Stage times and family builds are recorded only through [`bc_obs`].
//! When a recorder is active, each pipeline run opens a `plan.run` span,
//! each stage a `plan.stage.*` span under it (fields: the algorithm, a
//! cache hit/miss flag, the candidate and stop counts), and each family
//! build a `plan.build.candidates` span plus a counter of 1. The span's
//! fields count the anchors the build listed (`anchors`), the distinct
//! member sets among them (`distinct`) and the candidates kept
//! (`candidates`).
//!
//! # Determinism
//!
//! A context plans on the caller's thread unless
//! [`PlanContext::with_workers`] asks for more. The one parallel stage,
//! the family build, then fans out over contiguous ranges of sensors on
//! scoped threads and joins the ranges in sensor order, so a plan is
//! byte-identical for any worker count — `workers` is a throughput knob,
//! never a semantics knob. BC-OPT's tighten stage runs serially. Callers
//! that already run plans side by side (the DES engine, the serving
//! registry, the figure sweeps) keep the default of one worker.
//!
//! # Invalidation
//!
//! A `PlanContext` pins one network revision at a time. Mutation goes
//! through [`PlanContext::remove_sensor`] and [`PlanContext::add_sensor`],
//! which update a plan locally for the churn, install the mutated
//! network, reset the cached family and bump [`PlanContext::revision`]:
//! the family never outlives the network it was built for.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//!
//! use bc_core::context::PlanContext;
//! use bc_core::planner::Algorithm;
//! use bc_core::PlannerConfig;
//! use bc_geom::Aabb;
//! use bc_obs::recorders::StatsRecorder;
//! use bc_wsn::deploy;
//!
//! let net = deploy::uniform(40, Aabb::square(300.0), 2.0, 7);
//! let ctx = PlanContext::new(net, PlannerConfig::paper_sim(25.0));
//! let stats = Arc::new(StatsRecorder::new());
//! bc_obs::with_local(stats.clone(), || {
//!     ctx.plan(Algorithm::Bc).unwrap();
//!     ctx.plan(Algorithm::BcOpt).unwrap(); // reuses the candidates
//! });
//! let snap = stats.snapshot();
//! assert_eq!(snap.counter("plan.build.candidates"), 1);
//! assert_eq!(snap.span_count("plan.stage.order"), 2);
//! assert_eq!(snap.span_count("plan.stage.tighten"), 1);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use bc_units::{Joules, Meters};
use bc_wsn::Network;

use crate::planner::Algorithm;
use crate::{CandidateFamily, ChargingBundle, ChargingPlan, PlanError, PlannerConfig, Stop};

/// Builds the pair-intersection candidate family serially.
///
/// The single sanctioned construction site outside `PlanContext` itself:
/// [`crate::generate_bundles`] routes through here so the
/// `context-bypass` lint can pin every other direct construction.
pub(crate) fn serial_candidate_family(net: &Network, r: f64) -> CandidateFamily {
    CandidateFamily::pair_intersection(net, r)
}

/// A finished plan from one pipeline run.
#[derive(Debug, Clone)]
pub struct StagedPlan {
    /// The charging plan, identical for any worker count.
    pub plan: ChargingPlan,
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
/// Two exhaustion sources compose (either one trips the budget):
///
/// * a wall-clock **deadline** ([`StageBudget::with_deadline`] /
///   [`StageBudget::with_timeout`]) — the production path;
/// * a deterministic **check countdown** ([`StageBudget::after_checks`])
///   — exhausts after a fixed number of boundary checks, so tests can
///   cut a pipeline at an exact stage without racing a clock.
///
/// The default budget ([`StageBudget::none`]) never exhausts.
#[derive(Debug, Clone, Default)]
pub struct StageBudget {
    deadline: Option<Instant>,
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

    /// Whether the budget is spent. The deadline check is a pure read;
    /// the check countdown consumes one check per call.
    pub fn exhausted(&self) -> bool {
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

/// One stage of a pipeline. Stages are infallible: input validation
/// happens once in [`PlanContext::plan_budgeted`] before any stage runs.
#[derive(Debug, Clone, Copy)]
enum Stage {
    /// Candidates (BC, BC-OPT): build or reuse the candidate family.
    WarmCandidates,
    /// SC cover: one singleton stop per sensor.
    SingletonCover,
    /// CSS cover: sensor-level tour, then Combine and Skip.
    CombineSkipCover,
    /// BC / BC-OPT cover: greedy set cover over the candidate family.
    SetCover,
    /// Order: TSP over the stop anchors.
    Order,
    /// CSS tighten: the Substitute pass.
    Substitute,
    /// BC-OPT tighten: the Algorithm 3 anchor relocation.
    Relocate,
}

impl Stage {
    /// The name of the `"plan"`-scoped span the stage runs under.
    fn span_name(self) -> &'static str {
        match self {
            Stage::WarmCandidates => "stage.candidates",
            Stage::SingletonCover | Stage::CombineSkipCover | Stage::SetCover => "stage.cover",
            Stage::Order => "stage.order",
            Stage::Substitute | Stage::Relocate => "stage.tighten",
        }
    }
}

/// The stages of each algorithm, in pipeline order. Every pipeline ends
/// in its Order stage or in a Tighten stage right after it.
fn stages(algo: Algorithm) -> &'static [Stage] {
    match algo {
        Algorithm::Sc => &[Stage::SingletonCover, Stage::Order],
        Algorithm::Css => &[Stage::CombineSkipCover, Stage::Order, Stage::Substitute],
        Algorithm::Bc => &[Stage::WarmCandidates, Stage::SetCover, Stage::Order],
        Algorithm::BcOpt => &[
            Stage::WarmCandidates,
            Stage::SetCover,
            Stage::Order,
            Stage::Relocate,
        ],
    }
}

/// What a pipeline run has produced so far: Cover fills `stops`, Order
/// consumes them into `plan`, and Tighten improves `plan` in place.
#[derive(Default)]
struct Work {
    stops: Vec<Stop>,
    plan: Option<ChargingPlan>,
}

/// Work attribution for the ordering hotspot, beside tighten's
/// `gs_evals`: Or-opt moves applied and insertion positions scored,
/// counted on the innermost open span (the stage).
fn count_or_opt(work: bc_tsp::OrOptWork) {
    bc_obs::counter("plan", "order.or_moves", work.moves, &[]);
    bc_obs::counter("plan", "order.or_scored", work.scored, &[]);
}

/// A shared, reusable planning context: one network revision, one
/// configuration, and a lazily-built candidate family.
///
/// Cheap to create (nothing is built until a stage asks); the family is
/// built at most once per network revision. See the
/// [module docs](self) for the determinism and invalidation rules.
#[derive(Debug)]
pub struct PlanContext {
    net: Network,
    cfg: PlannerConfig,
    workers: usize,
    revision: u64,
    candidates: OnceLock<CandidateFamily>,
}

impl PlanContext {
    /// Creates a context at revision 0 over a network and configuration.
    /// It plans on the caller's thread; [`PlanContext::with_workers`]
    /// fans the family build out.
    pub fn new(net: Network, cfg: PlannerConfig) -> Self {
        PlanContext {
            net,
            cfg,
            workers: 1,
            revision: 0,
            candidates: OnceLock::new(),
        }
    }

    /// Sets the worker count for the family build (builder style); the
    /// default is 1. Clamped to at least 1. Changing it never changes any
    /// result — only how fast the build produces it.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// The network this context plans over.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// The planner configuration (shared by every revision).
    pub fn config(&self) -> &PlannerConfig {
        &self.cfg
    }

    /// Worker count used by the parallel stages.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// How many times [`PlanContext::remove_sensor`] and
    /// [`PlanContext::add_sensor`] have changed the network.
    pub fn revision(&self) -> u64 {
        self.revision
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
            let mut span = bc_obs::ScopedSpan::enter("plan", "build.candidates");
            bc_obs::counter(
                "plan",
                "build.candidates",
                1,
                &[bc_obs::Field::new("sensors", self.net.len())],
            );
            let (family, counts) =
                CandidateFamily::build(&self.net, self.cfg.bundle_radius.0, self.workers);
            span.add_field("anchors", counts.anchors);
            span.add_field("distinct", counts.distinct);
            span.add_field("candidates", family.len());
            family
        })
    }

    /// Runs the algorithm's stage pipeline over this context.
    ///
    /// | algorithm | Candidates        | Cover        | Order | Tighten    |
    /// |-----------|-------------------|--------------|-------|------------|
    /// | SC        | —                 | singletons   | TSP   | —          |
    /// | CSS       | —                 | combine–skip | TSP   | substitute |
    /// | BC        | candidate family  | set cover    | TSP   | —          |
    /// | BC-OPT    | candidate family  | set cover    | TSP   | Algorithm 3|
    ///
    /// Validates the configuration and demands first (same contract as
    /// [`crate::planner::try_run`]) and debug-asserts the planner
    /// contracts on the result.
    ///
    /// # Errors
    ///
    /// * [`PlanError::Config`] when the configuration is invalid;
    /// * [`PlanError::InvalidDemand`] when some sensor's demand is
    ///   negative or not finite.
    pub fn plan(&self, algo: Algorithm) -> Result<StagedPlan, PlanError> {
        match self.plan_budgeted(algo, &StageBudget::none())?.plan {
            Some(staged) => Ok(staged),
            None => unreachable!("an unbounded budget runs every stage, Order included"),
        }
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
        self.cfg.validate()?;
        for s in self.net.sensors() {
            if !s.demand.is_finite() || s.demand < Joules(0.0) {
                return Err(PlanError::InvalidDemand { value: s.demand });
            }
        }
        let out = self.run_stages(algo, budget);
        if let Some(staged) = &out.plan {
            crate::contracts::debug_assert_plan(&staged.plan, &self.net, &self.cfg);
        }
        Ok(out)
    }

    /// Runs the algorithm's stages in table order, checking
    /// [`StageBudget::exhausted`] before each one and stopping at the
    /// first exhausted boundary.
    fn run_stages(&self, algo: Algorithm, budget: &StageBudget) -> BudgetedPlan {
        let stages = stages(algo);
        let mut work = Work::default();
        let mut stages_run = 0usize;
        // Root of the causal span tree for this pipeline run: the stage
        // spans below become its children, so a tree recorder sees
        // `plan.run -> plan.stage.* -> plan.tighten.round -> ...`.
        let mut run_span = bc_obs::ScopedSpan::enter("plan", "run");
        run_span.add_field("algo", algo.name());
        run_span.add_field("workers", self.workers);
        for &stage in stages {
            if budget.exhausted() {
                bc_obs::event(
                    "plan",
                    "budget.exhausted",
                    &[
                        bc_obs::Field::new("algo", algo.name()),
                        bc_obs::Field::new("next_stage", stage.span_name()),
                        bc_obs::Field::new("stages_run", stages_run),
                    ],
                );
                break;
            }
            // The stage span is open while the stage runs, so sub-spans
            // (artifact builds, tighten rounds) parent under it.
            let mut span = bc_obs::ScopedSpan::enter("plan", stage.span_name());
            let built = self.run_stage(stage, &mut work);
            if span.armed() {
                let stops = work
                    .plan
                    .as_ref()
                    .map_or(work.stops.len(), ChargingPlan::num_charging_stops);
                span.add_field("algo", algo.name());
                span.add_field("cache", if built { "miss" } else { "hit" });
                span.add_field(
                    "candidates",
                    self.candidates.get().map_or(0, CandidateFamily::len),
                );
                span.add_field("stops", stops);
            }
            span.finish();
            stages_run += 1;
        }
        run_span.add_field("stages_run", stages_run);
        run_span.finish();
        BudgetedPlan {
            // A run cut before its Order stage has unordered stops, not
            // a plan.
            plan: work.plan.map(|plan| StagedPlan { plan }),
            completed: stages_run == stages.len(),
            stages_run,
            stages_total: stages.len(),
        }
    }

    /// Runs one stage over `work`. Returns whether it built the
    /// candidate family, which only the Candidates stage on a cold
    /// context does.
    fn run_stage(&self, stage: Stage, work: &mut Work) -> bool {
        let (net, cfg) = (&self.net, &self.cfg);
        match stage {
            Stage::WarmCandidates => {
                let cold = self.candidates.get().is_none();
                self.candidates();
                return cold;
            }
            // The charging law at contact distance: bit-identical to
            // `Stop::for_bundle`, which evaluates it at the same zero
            // distance.
            Stage::SingletonCover => {
                work.stops = net
                    .sensors()
                    .iter()
                    .enumerate()
                    .map(|(i, s)| Stop {
                        bundle: ChargingBundle::from_members(vec![i], net),
                        dwell: cfg.charging.charge_time(Meters(0.0), s.demand),
                    })
                    .collect();
            }
            // The sensor-level TSP; its Or-opt work is counted as the
            // order stage's is.
            Stage::CombineSkipCover => {
                if !net.is_empty() {
                    let p = net.positions();
                    let (tour, or_work) = bc_tsp::solve(p, |i, j| p[i].distance(p[j]), &cfg.tsp);
                    count_or_opt(or_work);
                    work.stops = crate::planner::css_combine_skip(net, cfg, &tour.order);
                }
            }
            // Algorithm 2's greedy cover, then dwell-policy stops.
            Stage::SetCover => {
                let bundles = if net.is_empty() {
                    Vec::new()
                } else {
                    crate::generation::cover_bundles(net, self.candidates(), false)
                };
                work.stops = crate::planner::stops_for_bundles(bundles, net, cfg);
            }
            // TSP over the stop anchors.
            Stage::Order => {
                let stops = std::mem::take(&mut work.stops);
                let (plan, or_work) = crate::planner::order_into_plan(stops, net, &cfg.tsp);
                count_or_opt(or_work);
                work.plan = Some(plan);
            }
            Stage::Substitute => {
                if let Some(plan) = work.plan.as_mut() {
                    crate::planner::css_substitute(plan, net, cfg);
                }
            }
            // Serial on the planning thread. A sweep whose inputs are
            // unchanged since it last left its stop in place is skipped;
            // its answer would again be "no relocation", so the plan is
            // bit-identical (the argument is on
            // `planner::bc_opt::optimize_tour`).
            Stage::Relocate => {
                if let Some(plan) = work.plan.as_mut() {
                    let before = plan.metrics(&cfg.energy).total_energy_j;
                    crate::planner::optimize_tour(plan, net, cfg);
                    crate::contracts::debug_assert_no_regression(
                        before,
                        plan.metrics(&cfg.energy).total_energy_j,
                    );
                }
            }
        }
        false
    }

    /// Removes a sensor and installs the mutated network as the next
    /// revision, in which the sensors above `sensor_idx` move down one
    /// index. Returns `plan` updated locally: the sensor's bundle shrinks
    /// (anchor recentred, dwell recomputed) or, if it was a singleton,
    /// its stop leaves the tour.
    ///
    /// # Errors
    ///
    /// [`PlanError::SensorOutOfBounds`] if `sensor_idx` does not exist.
    pub fn remove_sensor(
        &mut self,
        plan: &ChargingPlan,
        sensor_idx: usize,
    ) -> Result<ChargingPlan, PlanError> {
        let (net, new_plan) = crate::replan::remove_sensor(&self.net, plan, sensor_idx, &self.cfg)?;
        self.install(net);
        Ok(new_plan)
    }

    /// Adds a sensor at `pos` with the given demand and installs the
    /// mutated network as the next revision. Returns `plan` updated
    /// locally: the sensor joins the stop that can absorb it within the
    /// bundle radius at the least extra energy, or becomes a singleton
    /// stop spliced into the tour at the cheapest position.
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
        let (net, new_plan) = crate::replan::add_sensor(&self.net, plan, pos, demand, &self.cfg)?;
        self.install(net);
        Ok(new_plan)
    }

    /// Installs the next network revision. The one place the cached
    /// family is reset: it is rebuilt for `net` on first use.
    fn install(&mut self, net: Network) {
        self.net = net;
        self.candidates = OnceLock::new();
        self.revision += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bc_geom::{Aabb, Point};
    use bc_obs::recorders::StatsRecorder;
    use bc_wsn::deploy;

    fn ctx(n: usize, r: f64, seed: u64) -> PlanContext {
        PlanContext::new(
            deploy::uniform(n, Aabb::square(300.0), 2.0, seed),
            PlannerConfig::paper_sim(r),
        )
    }

    /// Runs `f` under a local stats recorder and returns the
    /// `plan.build.candidates` counter.
    fn builds(f: impl FnOnce()) -> u64 {
        let stats = Arc::new(StatsRecorder::new());
        bc_obs::with_local(stats.clone(), f);
        stats.snapshot().counter("plan.build.candidates")
    }

    /// The build span counts the anchors listed, the distinct member sets
    /// among them and the candidates kept, in that order.
    #[test]
    fn build_span_fields_count_anchors_sets_and_candidates() {
        let ctx = ctx(120, 25.0, 4);
        let jsonl = Arc::new(bc_obs::recorders::JsonlRecorder::new(Vec::new()));
        bc_obs::with_local(jsonl.clone(), || {
            ctx.candidates();
        });
        let Ok(jsonl) = Arc::try_unwrap(jsonl) else {
            panic!("recorder still shared after with_local returned")
        };
        let text = String::from_utf8(jsonl.into_inner()).unwrap();
        let span = text
            .lines()
            .find(|l| l.contains("\"name\":\"build.candidates\",\"kind\":\"span\""))
            .unwrap_or_else(|| panic!("no build span in:\n{text}"));
        let (family, counts) = CandidateFamily::build(ctx.network(), 25.0, 1);
        assert!(counts.anchors > counts.distinct && counts.distinct > family.len());
        let fields = format!(
            "\"fields\":{{\"anchors\":{},\"distinct\":{},\"candidates\":{}}}",
            counts.anchors,
            counts.distinct,
            family.len()
        );
        assert!(span.contains(&fields), "{span}");
    }

    #[test]
    fn candidates_build_once_across_all_algorithms() {
        let ctx = ctx(50, 25.0, 3);
        let count = builds(|| {
            for algo in Algorithm::ALL {
                let staged = ctx.plan(algo).unwrap();
                assert!(staged
                    .plan
                    .validate(ctx.network(), &ctx.config().charging)
                    .is_ok());
            }
        });
        assert_eq!(count, 1);
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
            let stats = Arc::new(StatsRecorder::new());
            let staged = bc_obs::with_local(stats.clone(), || ctx.plan(algo).unwrap());
            assert_eq!(staged.plan, ChargingPlan::new(Vec::new(), 0), "{algo}");
            // Every pipeline orders its (empty) stops, so each counts its
            // Or-opt work, at zero.
            let snap = stats.snapshot();
            for key in ["plan.order.or_moves", "plan.order.or_scored"] {
                assert_eq!(snap.counters.get(key), Some(&0), "{algo} {key}");
            }
        }
    }

    #[test]
    fn plan_validates_inputs() {
        let net = deploy::uniform(5, Aabb::square(100.0), 2.0, 1);
        let ctx = PlanContext::new(net, PlannerConfig::paper_sim(f64::NAN));
        assert!(matches!(ctx.plan(Algorithm::Bc), Err(PlanError::Config(_))));
    }

    #[test]
    fn revision_bumps_and_each_revision_rebuilds_once() {
        let net = deploy::uniform(20, Aabb::square(200.0), 2.0, 6);
        let mut ctx = PlanContext::new(net, PlannerConfig::paper_sim(20.0));
        let mut plan = None;
        assert_eq!(
            builds(|| plan = Some(ctx.plan(Algorithm::Bc).unwrap().plan)),
            1
        );
        let plan = plan.unwrap();
        assert_eq!(ctx.revision(), 0);

        let plan = ctx.remove_sensor(&plan, 3).unwrap();
        assert_eq!(ctx.revision(), 1);
        assert_eq!(ctx.network().len(), 19);
        plan.validate(ctx.network(), &ctx.config().charging)
            .unwrap();

        let plan = ctx.add_sensor(&plan, Point::new(50.0, 50.0), 2.0).unwrap();
        assert_eq!(ctx.revision(), 2);
        assert_eq!(ctx.network().len(), 20);
        plan.validate(ctx.network(), &ctx.config().charging)
            .unwrap();

        // A fresh plan on the new revision rebuilds the family once more.
        assert_eq!(builds(|| drop(ctx.plan(Algorithm::Bc).unwrap())), 1);
    }

    #[test]
    fn unlimited_budget_matches_plan() {
        let ctx = ctx(40, 25.0, 5);
        for algo in Algorithm::ALL {
            let budgeted = ctx.plan_budgeted(algo, &StageBudget::none()).unwrap();
            assert!(budgeted.completed, "{algo}");
            assert_eq!(budgeted.stages_run, budgeted.stages_total);
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
    fn past_deadline_cuts_immediately() {
        let ctx = ctx(20, 20.0, 3);
        let expired = StageBudget::none().with_timeout(Duration::ZERO);
        assert!(expired.deadline().is_some());
        let out = ctx.plan_budgeted(Algorithm::Sc, &expired).unwrap();
        assert_eq!(out.stages_run, 0);
        assert!(out.plan.is_none());

        // A generous deadline does not interfere.
        let roomy = StageBudget::none().with_timeout(Duration::from_secs(3600));
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
}
