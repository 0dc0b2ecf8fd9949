//! The multi-threaded planning service.
//!
//! [`PlanService`] owns a worker pool draining a bounded queue of
//! [`PlanRequest`]s against a [`NetworkRegistry`]. Four mechanisms keep
//! it available under hostile load:
//!
//! 1. **Deadline + degradation ladder** — each request's remaining time
//!    becomes a [`StageBudget`]; an over-deadline BC-OPT falls back
//!    BC → CSS → SC and returns the best plan completed, tagged with
//!    its [`PlanResponse::degrade_level`]. Non-final rungs get half the
//!    remaining time so a cut rung always leaves budget for a cheaper
//!    one; the candidate family a [`bc_core::PlanContext`] shares
//!    between BC-OPT and BC makes that step of the descent nearly free.
//! 2. **Deterministic retries** — transient failures and panics retry
//!    under [`crate::RetryPolicy`] with seed-jittered backoff.
//! 3. **Panic isolation** — every attempt runs under `catch_unwind`; a
//!    panicking build poisons only its entry's mutex, and the next
//!    holder of that lock rebuilds the entry from its template, exactly
//!    once per panic, instead of wedging waiters.
//! 4. **Admission control + single-flight** — the queue sheds at
//!    capacity, and identical in-flight `(network, generation,
//!    revision, algorithm)` plan requests collapse onto one build.

use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bc_core::planner::Algorithm;
use bc_core::{ChargingPlan, PlannerConfig, StageBudget};
use bc_wsn::Network;

use crate::error::{RetryCause, ServeError};
use crate::faults::{FaultOutcome, ServeFaultModel};
use crate::registry::{NetEntry, NetworkId, NetworkRegistry};
use crate::retry::RetryPolicy;
use crate::stats::{ServeEvent, ServeStats, ServeStatsSnapshot};
use crate::sync::lock_recover;

/// Panic payload used by fault injection, recognized by the panic hook
/// the load generator installs so chaos runs don't spam stderr.
pub(crate) struct InjectedPanic;

/// Service tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Worker threads draining the queue.
    pub workers: usize,
    /// Queue slots; submissions beyond this are shed.
    pub queue_capacity: usize,
    /// Retry budget for transient failures and panics.
    pub retry: RetryPolicy,
    /// Deadline applied when a request does not carry its own.
    pub default_timeout: Option<Duration>,
    /// Fault injection (chaos testing); [`ServeFaultModel::none`] in
    /// production.
    pub faults: ServeFaultModel,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            queue_capacity: 64,
            retry: RetryPolicy::default(),
            default_timeout: None,
            faults: ServeFaultModel::none(),
        }
    }
}

impl ServeConfig {
    /// Validates worker/queue sizing and the fault model.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidConfig`] naming the offending field.
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.workers == 0 {
            return Err(ServeError::InvalidConfig("workers must be >= 1".into()));
        }
        if self.queue_capacity == 0 {
            return Err(ServeError::InvalidConfig(
                "queue_capacity must be >= 1".into(),
            ));
        }
        self.faults.validate()
    }
}

/// What a request asks the service to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestKind {
    /// Plan against the network's current revision.
    Plan,
    /// Remove the given sensor (installing a new revision), then plan.
    RemoveSensor(usize),
}

/// One planning request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanRequest {
    /// Target network (from [`NetworkRegistry::register`]).
    pub network: NetworkId,
    /// Requested algorithm — the top rung of the degradation ladder.
    pub algo: Algorithm,
    /// Per-request deadline; `None` uses the service default.
    pub timeout: Option<Duration>,
    /// Plan or replan.
    pub kind: RequestKind,
}

impl PlanRequest {
    /// A plain plan request with the service's default deadline.
    pub fn plan(network: NetworkId, algo: Algorithm) -> Self {
        PlanRequest {
            network,
            algo,
            timeout: None,
            kind: RequestKind::Plan,
        }
    }

    /// A replan request: remove `sensor`, then plan.
    pub fn remove_sensor(network: NetworkId, algo: Algorithm, sensor: usize) -> Self {
        PlanRequest {
            network,
            algo,
            timeout: None,
            kind: RequestKind::RemoveSensor(sensor),
        }
    }

    /// Overrides the deadline for this request.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }
}

/// A successful (possibly degraded) plan response.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanResponse {
    /// Id assigned at admission.
    pub request_id: u64,
    /// The algorithm the client asked for.
    pub requested: Algorithm,
    /// The ladder rung that produced the plan.
    pub achieved: Algorithm,
    /// Rungs descended from `requested` (0 = served as asked).
    pub degrade_level: u8,
    /// True when the achieved rung itself was cut mid-pipeline by the
    /// deadline. A cut BC-OPT is bit-identical to the BC plan for the
    /// same revision (the tighten pass was skipped).
    pub tighten_cut: bool,
    /// The plan. Always contract-valid: degraded plans are re-checked
    /// against set-cover, Eq. 1 dwell, and bundle-radius contracts
    /// before delivery.
    pub plan: ChargingPlan,
    /// Pipeline stages run across all attempted rungs.
    pub stages_run: usize,
    /// Attempts consumed (1 = no retries needed).
    pub attempts: u32,
    /// True when served from another request's in-flight build.
    pub deduped: bool,
    /// Entry generation the plan was built against.
    pub generation: u64,
    /// Cache revision the plan was built against.
    pub revision: u64,
    /// Queue wait + build time.
    pub latency: Duration,
}

impl PlanResponse {
    /// True when the response is anything less than the requested
    /// algorithm fully run.
    pub fn degraded(&self) -> bool {
        self.degrade_level > 0 || self.tighten_cut
    }
}

/// The shareable part of a response (what single-flight followers copy).
#[derive(Debug, Clone)]
struct FlightResult {
    requested: Algorithm,
    achieved: Algorithm,
    degrade_level: u8,
    tighten_cut: bool,
    plan: ChargingPlan,
    stages_run: usize,
    attempts: u32,
    generation: u64,
    revision: u64,
}

/// One in-flight single-flight computation.
struct Flight {
    slot: Mutex<Option<Result<FlightResult, ServeError>>>,
    cv: Condvar,
}

impl Flight {
    fn new() -> Self {
        Flight {
            slot: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    fn publish(&self, result: Result<FlightResult, ServeError>) {
        *lock_recover(&self.slot) = Some(result);
        self.cv.notify_all();
    }

    /// Waits for the leader's result until `deadline` (forever if
    /// `None`). Returns `None` on timeout.
    fn wait(&self, deadline: Option<Instant>) -> Option<Result<FlightResult, ServeError>> {
        let mut guard = lock_recover(&self.slot);
        loop {
            if let Some(result) = guard.as_ref() {
                return Some(result.clone());
            }
            match deadline {
                None => {
                    guard = self
                        .cv
                        .wait(guard)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                }
                Some(d) => {
                    let now = bc_obs::wall::now();
                    if now >= d {
                        return None;
                    }
                    let (g, timeout) = self
                        .cv
                        .wait_timeout(guard, d - now)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    guard = g;
                    if timeout.timed_out() && guard.is_none() {
                        return None;
                    }
                }
            }
        }
    }
}

type FlightKey = (NetworkId, u64, u64, Algorithm);

/// One queued unit of work.
struct Job {
    id: u64,
    req: PlanRequest,
    deadline: Option<Instant>,
    submitted: Instant,
    slot: Arc<ResponseSlot>,
}

/// Where a job's single response lands.
struct ResponseSlot {
    result: Mutex<Option<Result<PlanResponse, ServeError>>>,
    cv: Condvar,
}

impl ResponseSlot {
    fn new() -> Self {
        ResponseSlot {
            result: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    fn deliver(&self, result: Result<PlanResponse, ServeError>) {
        let mut guard = lock_recover(&self.result);
        debug_assert!(guard.is_none(), "a job must get exactly one response");
        *guard = Some(result);
        self.cv.notify_all();
    }
}

/// Handle to a submitted request; [`Ticket::wait`] blocks until the
/// service delivers the response (workers always deliver, including at
/// shutdown, so this cannot block forever).
pub struct Ticket {
    id: u64,
    slot: Arc<ResponseSlot>,
}

impl Ticket {
    /// The request id assigned at admission.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Blocks until the response arrives.
    pub fn wait(self) -> Result<PlanResponse, ServeError> {
        let mut guard = lock_recover(&self.slot.result);
        loop {
            if let Some(result) = guard.take() {
                return result;
            }
            guard = self
                .slot
                .cv
                .wait(guard)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }
}

struct QueueState {
    jobs: VecDeque<Job>,
    closed: bool,
}

struct Shared {
    cfg: ServeConfig,
    registry: NetworkRegistry,
    queue: Mutex<QueueState>,
    queue_cv: Condvar,
    inflight: Mutex<BTreeMap<FlightKey, Arc<Flight>>>,
    stats: ServeStats,
    next_request: AtomicU64,
}

/// The service: a registry, a bounded queue, and a worker pool.
pub struct PlanService {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl PlanService {
    /// Validates `cfg`, spawns the worker pool, and returns the running
    /// service.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidConfig`] from [`ServeConfig::validate`].
    pub fn start(cfg: ServeConfig) -> Result<Self, ServeError> {
        cfg.validate()?;
        let shared = Arc::new(Shared {
            cfg,
            registry: NetworkRegistry::new(),
            queue: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                closed: false,
            }),
            queue_cv: Condvar::new(),
            inflight: Mutex::new(BTreeMap::new()),
            stats: ServeStats::default(),
            next_request: AtomicU64::new(0),
        });
        let workers = (0..cfg.workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared)) // det-ok: long-lived worker pool, joined in shutdown
            })
            .collect();
        Ok(PlanService { shared, workers })
    }

    /// The service's network registry.
    pub fn registry(&self) -> &NetworkRegistry {
        &self.shared.registry
    }

    /// Convenience: registers a network + config and returns its id.
    pub fn register(&self, net: Network, cfg: PlannerConfig) -> NetworkId {
        self.shared.registry.register(net, cfg)
    }

    /// Submits a request; returns immediately with a [`Ticket`] or a
    /// shed/shutdown error.
    ///
    /// # Errors
    ///
    /// [`ServeError::Shed`] when the queue is at capacity,
    /// [`ServeError::ShuttingDown`] after [`PlanService::shutdown`].
    pub fn submit(&self, req: PlanRequest) -> Result<Ticket, ServeError> {
        let mut queue = lock_recover(&self.shared.queue);
        if queue.closed {
            return Err(ServeError::ShuttingDown);
        }
        if queue.jobs.len() >= self.shared.cfg.queue_capacity {
            self.shared.stats.count(ServeEvent::Shed);
            return Err(ServeError::Shed {
                queued: queue.jobs.len(),
                capacity: self.shared.cfg.queue_capacity,
            });
        }
        let id = self.shared.next_request.fetch_add(1, Ordering::AcqRel);
        let now = bc_obs::wall::now();
        let deadline = req
            .timeout
            .or(self.shared.cfg.default_timeout)
            .map(|t| now + t);
        let slot = Arc::new(ResponseSlot::new());
        queue.jobs.push_back(Job {
            id,
            req,
            deadline,
            submitted: now,
            slot: Arc::clone(&slot),
        });
        self.shared.stats.count(ServeEvent::Submitted);
        drop(queue);
        self.shared.queue_cv.notify_one();
        Ok(Ticket { id, slot })
    }

    /// Submits and blocks for the response.
    ///
    /// # Errors
    ///
    /// Any [`ServeError`]; see [`PlanService::submit`] and the worker
    /// outcome taxonomy.
    pub fn call(&self, req: PlanRequest) -> Result<PlanResponse, ServeError> {
        self.submit(req)?.wait()
    }

    /// Snapshot of the service counters.
    pub fn stats(&self) -> ServeStatsSnapshot {
        self.shared.stats.snapshot()
    }

    /// Currently poisoned registry entries (should be zero whenever the
    /// service is quiescent).
    pub fn poisoned_entries(&self) -> usize {
        self.shared.registry.poisoned_entries()
    }

    /// Closes the queue, drains pending jobs with
    /// [`ServeError::ShuttingDown`] (no response is ever lost), and
    /// joins the workers.
    pub fn shutdown(&mut self) {
        {
            let mut queue = lock_recover(&self.shared.queue);
            queue.closed = true;
            while let Some(job) = queue.jobs.pop_front() {
                self.shared.stats.count(ServeEvent::Drained);
                job.slot.deliver(Err(ServeError::ShuttingDown));
            }
        }
        self.shared.queue_cv.notify_all();
        for handle in self.workers.drain(..) {
            // A worker that panicked outside catch_unwind is a bug; the
            // join result is ignored so shutdown still completes.
            let _ = handle.join();
        }
    }
}

impl Drop for PlanService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The degradation ladder for each requested algorithm (ISSUE order:
/// BC-OPT falls back BC → CSS → SC).
fn ladder(algo: Algorithm) -> &'static [Algorithm] {
    match algo {
        Algorithm::BcOpt => &[
            Algorithm::BcOpt,
            Algorithm::Bc,
            Algorithm::Css,
            Algorithm::Sc,
        ],
        Algorithm::Bc => &[Algorithm::Bc, Algorithm::Css, Algorithm::Sc],
        Algorithm::Css => &[Algorithm::Css, Algorithm::Sc],
        Algorithm::Sc => &[Algorithm::Sc],
    }
}

/// Splits the remaining deadline for rung `i`: non-final rungs get half
/// the remaining time (so a cut rung always leaves budget for a cheaper
/// one), the final rung gets everything left.
fn rung_budget(deadline: Option<Instant>, is_final: bool) -> StageBudget {
    match deadline {
        None => StageBudget::none(),
        Some(d) => {
            if is_final {
                StageBudget::none().with_deadline(d)
            } else {
                let now = bc_obs::wall::now();
                let remaining = d.saturating_duration_since(now);
                StageBudget::none().with_deadline(now + remaining / 2)
            }
        }
    }
}

/// Walks the ladder under the deadline. `budget_for(rung, is_final)`
/// yields each rung's budget, so tests can substitute deterministic
/// check-count budgets for wall-clock ones. The result counts one
/// attempt; the retry loop sets the true count.
fn run_ladder(
    entry: &NetEntry,
    requested: Algorithm,
    budget_for: &mut dyn FnMut(usize, bool) -> StageBudget,
) -> Result<FlightResult, ServeError> {
    let rungs = ladder(requested);
    let mut stages_run = 0usize;
    for (i, &algo) in rungs.iter().enumerate() {
        let is_final = i + 1 == rungs.len();
        let budget = budget_for(i, is_final);
        // One child span per ladder rung under the request span; the
        // plan pipeline this rung runs parents its own `plan.run` tree
        // underneath. A `?` early-return drops (and so still emits) it.
        let mut rung_span = bc_obs::active().then(|| {
            let mut s = bc_obs::ScopedSpan::enter("serve", "rung");
            s.add_field("algo", algo.name());
            s.add_field("level", i);
            s
        });
        let (out, revision) = entry.plan_budgeted_checked(algo, &budget, i > 0)?;
        stages_run += out.stages_run;
        if let Some(mut s) = rung_span.take() {
            s.add_field("landed", out.plan.is_some());
            s.finish();
        }
        if let Some(staged) = out.plan {
            let level = u8::try_from(i).unwrap_or(u8::MAX);
            if bc_obs::active() && (level > 0 || !out.completed) {
                bc_obs::counter(
                    "serve",
                    "degrade",
                    1,
                    &[
                        bc_obs::Field::new("requested", requested.name()),
                        bc_obs::Field::new("achieved", algo.name()),
                        bc_obs::Field::new("level", u64::from(level)),
                    ],
                );
            }
            return Ok(FlightResult {
                requested,
                achieved: algo,
                degrade_level: level,
                tighten_cut: !out.completed,
                plan: staged.plan,
                stages_run,
                attempts: 1,
                generation: entry.generation(),
                revision,
            });
        }
    }
    Err(ServeError::DeadlineExceeded { stages_run })
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut queue = lock_recover(&shared.queue);
            loop {
                if let Some(job) = queue.jobs.pop_front() {
                    break Some(job);
                }
                if queue.closed {
                    break None;
                }
                queue = shared
                    .queue_cv
                    .wait(queue)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        match job {
            Some(job) => process(shared, job),
            None => return,
        }
    }
}

/// Handles one job end to end; always delivers exactly one response.
fn process(shared: &Shared, job: Job) {
    // Root span of the request's causal tree on this worker thread: the
    // ladder rungs (and the plan pipelines inside them) parent under it,
    // and the latency sample below is attributed to it.
    let mut req_span = bc_obs::active().then(|| bc_obs::ScopedSpan::enter("serve", "request"));
    let result = execute(shared, &job);
    shared.stats.count(match &result {
        Ok(resp) if resp.degraded() => ServeEvent::CompletedDegraded,
        Ok(_) => ServeEvent::CompletedFull,
        Err(ServeError::DeadlineExceeded { .. }) => ServeEvent::DeadlineMiss,
        Err(ServeError::UnknownNetwork(_)) => ServeEvent::UnknownNetwork,
        Err(_) => ServeEvent::Failed,
    });
    if bc_obs::active() {
        let ms = job.submitted.elapsed().as_secs_f64() * 1e3;
        bc_obs::histogram("serve", "latency_ms", ms, &[]);
    }
    if let Some(mut s) = req_span.take() {
        s.add_field("ok", result.is_ok());
        s.finish();
    }
    job.slot.deliver(result);
}

/// Runs the request: deadline check, registry lookup, optional replan
/// mutation, single-flight, then the retrying ladder.
fn execute(shared: &Shared, job: &Job) -> Result<PlanResponse, ServeError> {
    if let Some(d) = job.deadline {
        if bc_obs::wall::now() >= d {
            // Died of queue delay — the admission-controlled overload
            // signal the chaos harness drives the service into.
            return Err(ServeError::DeadlineExceeded { stages_run: 0 });
        }
    }
    let entry = shared
        .registry
        .get(job.req.network)
        .ok_or(ServeError::UnknownNetwork(job.req.network))?;

    // The response is planned on the new revision below, so the repair
    // only needs the mutated network: an empty plan stands in for one
    // planned on the revision being replaced.
    if let RequestKind::RemoveSensor(sensor) = job.req.kind {
        entry.with_cache_mut(|cache| {
            let nothing = ChargingPlan::new(Vec::new(), cache.network().len());
            cache.remove_sensor(&nothing, sensor)
        })?;
        shared.stats.count(ServeEvent::Replans);
    }

    // Single-flight only for pure plan requests: every mutation must
    // actually apply, so replans never dedup.
    let flight_key = if job.req.kind == RequestKind::Plan {
        let (generation, revision) = entry.flight_revision();
        Some((job.req.network, generation, revision, job.req.algo))
    } else {
        None
    };

    enum Role {
        Leader(Arc<Flight>),
        Follower(Arc<Flight>),
        Solo,
    }
    let role = match flight_key {
        None => Role::Solo,
        Some(key) => {
            let mut map = lock_recover(&shared.inflight);
            match map.get(&key) {
                Some(f) => Role::Follower(Arc::clone(f)),
                None => {
                    let f = Arc::new(Flight::new());
                    map.insert(key, Arc::clone(&f));
                    Role::Leader(f)
                }
            }
        }
    };

    match role {
        Role::Follower(flight) => {
            shared.stats.count(ServeEvent::DedupHits);
            match flight.wait(job.deadline) {
                Some(Ok(fr)) => Ok(respond(job, &fr, true)),
                Some(Err(e)) => Err(e),
                None => Err(ServeError::DeadlineExceeded { stages_run: 0 }),
            }
        }
        Role::Leader(flight) => {
            let outcome = attempt_with_retries(shared, job, &entry);
            // Unregister the key first so late arrivals start a fresh
            // build, then wake every follower.
            if let Some(key) = flight_key {
                lock_recover(&shared.inflight).remove(&key);
            }
            flight.publish(outcome.clone());
            outcome.map(|fr| respond(job, &fr, false))
        }
        Role::Solo => attempt_with_retries(shared, job, &entry).map(|fr| respond(job, &fr, false)),
    }
}

fn respond(job: &Job, fr: &FlightResult, deduped: bool) -> PlanResponse {
    PlanResponse {
        request_id: job.id,
        requested: fr.requested,
        achieved: fr.achieved,
        degrade_level: fr.degrade_level,
        tighten_cut: fr.tighten_cut,
        plan: fr.plan.clone(),
        stages_run: fr.stages_run,
        attempts: fr.attempts,
        deduped,
        generation: fr.generation,
        revision: fr.revision,
        latency: job.submitted.elapsed(),
    }
}

/// The retry loop around one ladder walk, with fault injection and
/// panic isolation.
fn attempt_with_retries(
    shared: &Shared,
    job: &Job,
    entry: &Arc<NetEntry>,
) -> Result<FlightResult, ServeError> {
    let policy = shared.cfg.retry;
    let faults = shared.cfg.faults;
    let mut last_cause = RetryCause::TransientFailure;
    for attempt in 0..policy.max_attempts() {
        if let Some(d) = job.deadline {
            if bc_obs::wall::now() >= d {
                return Err(ServeError::DeadlineExceeded { stages_run: 0 });
            }
        }
        let fault = faults.draw(job.id, attempt);
        if let Some(stall) = fault.stall {
            // Injected stall: sleep, but never past the deadline.
            let capped = match job.deadline {
                Some(d) => stall.min(d.saturating_duration_since(bc_obs::wall::now())),
                None => stall,
            };
            std::thread::sleep(capped);
        }
        if fault.outcome == FaultOutcome::TransientFailure {
            shared.stats.count(ServeEvent::TransientFailures);
            last_cause = RetryCause::TransientFailure;
        } else {
            let caught = catch_unwind(AssertUnwindSafe(|| {
                if fault.outcome == FaultOutcome::Panic {
                    // Panic *while holding the entry lock* so the mutex
                    // genuinely poisons — that is the failure mode the
                    // rebuild machinery exists for.
                    entry.with_cache(|_cache| -> () { std::panic::panic_any(InjectedPanic) });
                }
                run_ladder(entry, job.req.algo, &mut |_i, is_final| {
                    rung_budget(job.deadline, is_final)
                })
            }));
            match caught {
                Ok(Ok(fr)) => {
                    return Ok(FlightResult {
                        attempts: attempt + 1,
                        ..fr
                    });
                }
                // Deadline, planner, and contract errors are final: no
                // retry can fix them.
                Ok(Err(e)) => return Err(e),
                Err(_payload) => {
                    shared.stats.count(ServeEvent::PanicsCaught);
                    // A waiter may already have repaired the entry; if
                    // not, this does, so no panic leaves it poisoned.
                    entry.repair();
                    last_cause = RetryCause::WorkerPanic;
                }
            }
        }
        if attempt + 1 < policy.max_attempts() {
            shared.stats.count(ServeEvent::Retries);
            std::thread::sleep(policy.backoff(faults.seed, job.id, attempt + 1));
        }
    }
    Err(ServeError::RetriesExhausted {
        attempts: policy.max_attempts(),
        cause: last_cause,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bc_geom::Aabb;
    use bc_wsn::deploy;

    fn service(cfg: ServeConfig) -> (PlanService, NetworkId) {
        let svc = PlanService::start(cfg).unwrap();
        let net = deploy::uniform(30, Aabb::square(250.0), 2.0, 11);
        let id = svc.register(net, PlannerConfig::paper_sim(25.0));
        (svc, id)
    }

    #[test]
    fn plain_request_serves_the_requested_algorithm() {
        let (svc, id) = service(ServeConfig::default());
        let resp = svc.call(PlanRequest::plan(id, Algorithm::BcOpt)).unwrap();
        assert_eq!(resp.requested, Algorithm::BcOpt);
        assert_eq!(resp.achieved, Algorithm::BcOpt);
        assert_eq!(resp.degrade_level, 0);
        assert!(!resp.tighten_cut);
        assert!(!resp.degraded());
        assert!(resp.plan.num_charging_stops() > 0);
        let stats = svc.stats();
        assert_eq!(stats.completed_full, 1);
        assert_eq!(stats.responses(), 1);
    }

    #[test]
    fn expired_deadline_descends_the_full_ladder_then_reports_miss() {
        let (svc, id) = service(ServeConfig::default());
        let req = PlanRequest::plan(id, Algorithm::BcOpt).with_timeout(Duration::ZERO);
        let err = svc.call(req).unwrap_err();
        assert!(matches!(err, ServeError::DeadlineExceeded { .. }));
        assert_eq!(svc.stats().deadline_miss, 1);
    }

    #[test]
    fn unknown_network_is_a_typed_error() {
        let (svc, id) = service(ServeConfig::default());
        let err = svc
            .call(PlanRequest::plan(id + 99, Algorithm::Sc))
            .unwrap_err();
        assert_eq!(err, ServeError::UnknownNetwork(id + 99));
    }

    #[test]
    fn replan_mutation_bumps_the_revision() {
        let (svc, id) = service(ServeConfig::default());
        let r0 = svc.call(PlanRequest::plan(id, Algorithm::Bc)).unwrap();
        assert_eq!(r0.revision, 0);
        let r1 = svc
            .call(PlanRequest::remove_sensor(id, Algorithm::Bc, 0))
            .unwrap();
        assert_eq!(r1.revision, 1);
        assert_eq!(svc.stats().replans, 1);
        // Out-of-bounds sensor surfaces the planner's typed error.
        let err = svc
            .call(PlanRequest::remove_sensor(id, Algorithm::Bc, 10_000))
            .unwrap_err();
        assert!(matches!(err, ServeError::Plan(_)));
    }

    #[test]
    fn injected_panics_poison_rebuild_and_retry_to_success() {
        // panic_prob = 1 on attempt draws would never succeed; use a
        // rate where some attempt in the retry budget comes up clean.
        let mut cfg = ServeConfig {
            faults: ServeFaultModel {
                seed: 5,
                panic_prob: 0.6,
                ..ServeFaultModel::none()
            },
            ..ServeConfig::default()
        };
        cfg.retry.max_retries = 6;
        let (svc, id) = service(cfg);
        let mut rebuilds_seen = 0;
        for _ in 0..10 {
            let resp = svc.call(PlanRequest::plan(id, Algorithm::Bc)).unwrap();
            assert!(resp.plan.num_charging_stops() > 0);
            rebuilds_seen = svc.registry().total_rebuilds();
        }
        assert!(rebuilds_seen > 0, "some attempt must have panicked");
        assert_eq!(svc.poisoned_entries(), 0, "every poison must be repaired");
        assert_eq!(svc.stats().panics_caught, rebuilds_seen);
    }

    #[test]
    fn certain_panic_exhausts_retries_with_typed_error() {
        let cfg = ServeConfig {
            faults: ServeFaultModel {
                seed: 1,
                panic_prob: 1.0,
                ..ServeFaultModel::none()
            },
            retry: RetryPolicy {
                max_retries: 1,
                ..RetryPolicy::default()
            },
            ..ServeConfig::default()
        };
        let (svc, id) = service(cfg);
        let err = svc.call(PlanRequest::plan(id, Algorithm::Sc)).unwrap_err();
        assert_eq!(
            err,
            ServeError::RetriesExhausted {
                attempts: 2,
                cause: RetryCause::WorkerPanic
            }
        );
        assert_eq!(svc.poisoned_entries(), 0);
        assert_eq!(svc.stats().panics_caught, 2);
    }

    #[test]
    fn transient_failures_retry_deterministically() {
        let cfg = ServeConfig {
            faults: ServeFaultModel {
                seed: 3,
                fail_prob: 1.0,
                ..ServeFaultModel::none()
            },
            retry: RetryPolicy {
                max_retries: 2,
                ..RetryPolicy::default()
            },
            ..ServeConfig::default()
        };
        let (svc, id) = service(cfg);
        let err = svc.call(PlanRequest::plan(id, Algorithm::Sc)).unwrap_err();
        assert_eq!(
            err,
            ServeError::RetriesExhausted {
                attempts: 3,
                cause: RetryCause::TransientFailure
            }
        );
        assert_eq!(svc.stats().transient_failures, 3);
        assert_eq!(svc.stats().retries, 2);
    }

    #[test]
    fn queue_overflow_sheds_with_capacity_details() {
        // One slow-to-start worker and a tiny queue: fill it while the
        // worker is blocked on the first job's stall.
        let cfg = ServeConfig {
            workers: 1,
            queue_capacity: 2,
            faults: ServeFaultModel {
                seed: 2,
                stall_prob: 1.0,
                stall_ms_max: 50,
                ..ServeFaultModel::none()
            },
            ..ServeConfig::default()
        };
        let (svc, id) = service(cfg);
        let mut tickets = Vec::new();
        let mut shed = 0;
        for _ in 0..12 {
            match svc.submit(PlanRequest::plan(id, Algorithm::Sc)) {
                Ok(t) => tickets.push(t),
                Err(ServeError::Shed { capacity, .. }) => {
                    assert_eq!(capacity, 2);
                    shed += 1;
                }
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert!(shed > 0, "tiny queue must shed under burst");
        for t in tickets {
            t.wait().unwrap();
        }
        assert_eq!(svc.stats().shed, shed);
    }

    #[test]
    fn single_flight_dedups_identical_inflight_requests() {
        let cfg = ServeConfig {
            workers: 4,
            queue_capacity: 64,
            // Stall every build so duplicates pile up behind the leader.
            faults: ServeFaultModel {
                seed: 8,
                stall_prob: 1.0,
                stall_ms_max: 30,
                ..ServeFaultModel::none()
            },
            ..ServeConfig::default()
        };
        let (svc, id) = service(cfg);
        let tickets: Vec<_> = (0..8)
            .map(|_| svc.submit(PlanRequest::plan(id, Algorithm::Bc)).unwrap())
            .collect();
        let responses: Vec<_> = tickets.into_iter().map(|t| t.wait().unwrap()).collect();
        assert_eq!(responses.len(), 8);
        let first = &responses[0].plan;
        assert!(responses.iter().all(|r| &r.plan == first));
        assert!(
            svc.stats().dedup_hits > 0,
            "eight identical in-flight requests must dedup at least once"
        );
    }

    #[test]
    fn shutdown_drains_queued_jobs_with_typed_error() {
        let cfg = ServeConfig {
            workers: 1,
            queue_capacity: 32,
            faults: ServeFaultModel {
                seed: 4,
                stall_prob: 1.0,
                stall_ms_max: 40,
                ..ServeFaultModel::none()
            },
            ..ServeConfig::default()
        };
        let (mut svc, id) = service(cfg);
        let tickets: Vec<_> = (0..6)
            .map(|_| svc.submit(PlanRequest::plan(id, Algorithm::Sc)).unwrap())
            .collect();
        svc.shutdown();
        let mut drained = 0u64;
        for t in tickets {
            match t.wait() {
                Ok(_) => {}
                Err(ServeError::ShuttingDown) => drained += 1,
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert_eq!(drained, svc.stats().drained);
        assert!(matches!(
            svc.submit(PlanRequest::plan(id, Algorithm::Sc)),
            Err(ServeError::ShuttingDown)
        ));
    }

    #[test]
    fn deterministic_ladder_descends_on_check_budgets() {
        // Drive run_ladder directly with check-count budgets: the top
        // rung (BC-OPT) gets cut before any stage runs, the next rung
        // completes.
        let (svc, id) = service(ServeConfig::default());
        let entry = svc.registry().get(id).unwrap();
        let out = run_ladder(&entry, Algorithm::BcOpt, &mut |i, _is_final| {
            if i == 0 {
                StageBudget::after_checks(0)
            } else {
                StageBudget::none()
            }
        })
        .unwrap();
        assert_eq!(out.achieved, Algorithm::Bc);
        assert_eq!(out.degrade_level, 1);
        assert!(!out.tighten_cut);

        // Cut BC-OPT after three stages instead: the partial plan is
        // exactly the BC plan, tagged tighten_cut at level 0.
        let cut = run_ladder(&entry, Algorithm::BcOpt, &mut |i, _| {
            if i == 0 {
                StageBudget::after_checks(3)
            } else {
                StageBudget::none()
            }
        })
        .unwrap();
        assert_eq!(cut.degrade_level, 0);
        assert!(cut.tighten_cut);
        assert_eq!(cut.achieved, Algorithm::BcOpt);
        assert_eq!(cut.plan, out.plan, "BC-OPT minus tighten is the BC plan");

        // All rungs exhausted: typed deadline error.
        let err = run_ladder(&entry, Algorithm::BcOpt, &mut |_, _| {
            StageBudget::after_checks(0)
        })
        .unwrap_err();
        assert_eq!(err, ServeError::DeadlineExceeded { stages_run: 0 });
    }
}
