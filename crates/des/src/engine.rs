//! The discrete-event engine.
//!
//! # Event model
//!
//! Sensor batteries are *lazy linear trajectories*: the engine stores
//! `(level, updated, generation)` per sensor and schedules the two future
//! crossings that matter — the low-battery trigger and depletion — as
//! events. Recharging a sensor bumps its generation, which invalidates any
//! still-queued crossing computed from the stale trajectory; stale events
//! are dropped when they fire. Quiescent stretches of the horizon therefore
//! cost zero work, in contrast to the legacy fixed-interval integrator.
//!
//! # Round realization
//!
//! When the low-battery population reaches the trigger while the fleet is
//! idle, a `Dispatch` event launches a round of the plan held from
//! **one [`PlanContext`]** and unrolls it into per-charger *segments*
//! (leg → backoff → dwell). Three modes:
//!
//! - **single charger + faults**: the round is delegated to
//!   [`bc_core::execute::Executor`] (`execute_with_dead`), and the realized
//!   timeline is replayed as events — bit-compatible with the fault path
//!   of the fixed-interval reference integrator
//!   (`tests/des_equivalence.rs`), including its round-end application
//!   of hardware deaths.
//! - **single charger, no faults**: the legacy integrator's leg ordering is
//!   reproduced exactly (the closing leg is driven *first*, the charger
//!   lives in the field and never detours to base), which is what makes the
//!   death-time equivalence test tight.
//! - **multi-charger**: tour stops are divided by the fleet's
//!   [`DispatchPolicy`](crate::fleet::DispatchPolicy); each charger
//!   drives base → its arc → base. With faults, the round's
//!   [`bc_core::faults::FaultSchedule`] is applied directly
//!   (stall-stretched legs, retry backoff, degradation-stretched
//!   dwells, abandoned stops) and pinned hardware deaths fire as
//!   `FaultDeath` events when the owning stop is reached; dead sensors are
//!   then removed from the context's network before the next plan. Fleet
//!   rounds apply skip-style recovery only, so [`Scenario::validate`]
//!   rejects faults on a fleet with any other [`Scenario::recovery`].
//!
//! # Replanning
//!
//! A low-battery crossing that fires *mid-round* for a sensor with no
//! remaining scheduled service marks the plan stale; the next dispatch
//! counts a replan. It plans afresh through the context only when the
//! context's revision differs from the one the held plan was planned
//! fresh at. A plan is a pure function of the network and the planner
//! configuration, so at an unchanged revision the fresh plan would be the
//! one held. A `remove_sensor` repair moves the revision and leaves a
//! repaired plan, which is not a fresh one, so the next trigger plans
//! again. With a recorder installed, the `plan.run` spans of a run count
//! the plans it built.

use crate::clock::{Clock, Time};
use crate::event::Event;
use crate::fleet::{assign_stops, ChargerLedger};
use crate::queue::EventQueue;
use crate::scenario::{Scenario, ScenarioError};
use crate::state::SensorBank;
use crate::trace::{TraceRecord, TraceRing};
use bc_core::context::PlanContext;
use bc_core::execute::{ExecError, Executor};
use bc_core::faults::FaultModel;
use bc_core::plan::ChargingPlan;
use bc_core::plan::PlanError;
use bc_geom::Point;
use bc_units::{Joules, Meters, Seconds};
use bc_wsn::{Network, Sensor};
use std::fmt;

/// Why a simulation run failed.
#[derive(Debug)]
pub enum DesError {
    /// The scenario failed validation.
    Scenario(ScenarioError),
    /// Planning (or replanning) a round failed.
    Plan(PlanError),
    /// Fault-injected execution of a round failed.
    Exec(ExecError),
}

impl fmt::Display for DesError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DesError::Scenario(e) => write!(f, "invalid scenario: {e}"),
            DesError::Plan(e) => write!(f, "planning failed: {e}"),
            DesError::Exec(e) => write!(f, "execution failed: {e}"),
        }
    }
}

impl std::error::Error for DesError {}

impl From<ScenarioError> for DesError {
    fn from(e: ScenarioError) -> Self {
        DesError::Scenario(e)
    }
}

impl From<PlanError> for DesError {
    fn from(e: PlanError) -> Self {
        DesError::Plan(e)
    }
}

impl From<ExecError> for DesError {
    fn from(e: ExecError) -> Self {
        DesError::Exec(e)
    }
}

/// Ledger imbalance detected by [`DesReport::check_fleet_ledger`].
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerImbalance {
    /// Sum of per-charger ledger energies.
    pub fleet_sum_j: Joules,
    /// Run-level charger energy total.
    pub total_j: Joules,
}

impl fmt::Display for LedgerImbalance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "fleet ledgers sum to {} but the run total is {}",
            self.fleet_sum_j, self.total_j
        )
    }
}

/// Outcome of a simulation run — the legacy lifetime metrics plus
/// event-level and fleet-level observability.
#[derive(Debug, Clone, PartialEq)]
pub struct DesReport {
    /// Charging rounds dispatched within the horizon.
    pub rounds: usize,
    /// Total fleet energy across all rounds.
    pub charger_energy_j: Joules,
    /// Sensor-seconds spent dead (battery at zero).
    pub downtime_sensor_s: Seconds,
    /// Fraction of sensor-time alive, in `[0, 1]`.
    pub availability: f64,
    /// Number of sensors that ever died.
    pub sensors_ever_dead: usize,
    /// Lowest battery level observed anywhere.
    pub min_battery_j: Joules,
    /// Highest battery level observed anywhere. The engine clamps
    /// recharges at capacity, so this never exceeds the configured
    /// battery capacity.
    pub max_battery_j: Joules,
    /// Sensors permanently lost to injected hardware faults.
    pub fault_deaths: usize,
    /// Sum over rounds of live sensors the round failed to charge.
    pub stranded_sensor_rounds: usize,
    /// Total time spent recovering from faults across all rounds.
    pub recovery_latency_s: Seconds,
    /// Total energy spent above the fault-free cost of each round.
    pub extra_energy_j: Joules,
    /// Replan triggers: low-battery staleness triggers, post-death
    /// network repairs, and the executor's own replans when a single
    /// charger runs with faults. A staleness trigger builds a plan only
    /// when the network revision has moved since the held plan was
    /// planned fresh, so this counts triggers, not plans built; the
    /// `plan.run` spans of a recorded run count those.
    pub replans: usize,
    /// Recovery visits to the base station across all rounds.
    pub base_returns: usize,
    /// Per-sensor instant of first death (battery or hardware), if any.
    pub first_death_s: Vec<Option<Seconds>>,
    /// Events processed within the horizon.
    pub events_processed: u64,
    /// Events ever scheduled (processed + stale + beyond-horizon).
    pub events_scheduled: u64,
    /// Per-charger ledgers, indexed by fleet position.
    pub fleet: Vec<ChargerLedger>,
    /// Fraction of fleet-time spent away from base, in `[0, 1]`.
    pub fleet_utilization: f64,
    /// Tail of the event trace (bounded ring; oldest first).
    pub trace: Vec<TraceRecord>,
    /// Trace records evicted from the ring.
    pub trace_dropped: u64,
}

impl DesReport {
    /// Contract check: the per-charger ledgers must account for every
    /// joule in `charger_energy_j` (up to float summation noise).
    ///
    /// # Errors
    ///
    /// A [`LedgerImbalance`] carrying both sides of the failed identity.
    pub fn check_fleet_ledger(&self) -> Result<(), LedgerImbalance> {
        let fleet_sum_j: Joules = self.fleet.iter().map(ChargerLedger::total_energy_j).sum();
        let tol = 1e-9 * self.charger_energy_j.abs().max(Joules(1.0)).get();
        if (fleet_sum_j - self.charger_energy_j).abs().get() <= tol {
            Ok(())
        } else {
            Err(LedgerImbalance {
                fleet_sum_j,
                total_j: self.charger_energy_j,
            })
        }
    }
}

/// Runs `scenario` to its horizon.
///
/// Deterministic: equal scenarios produce equal reports, byte-identical
/// event traces included.
///
/// # Errors
///
/// [`DesError`] if the scenario is invalid, a (re)plan fails, or a
/// fault-injected round cannot be executed.
pub fn run(scenario: &Scenario) -> Result<DesReport, DesError> {
    scenario.validate()?;
    Engine::new(scenario)?.run()
}

/// How a sensor's recharge dwell translates into harvested energy.
#[derive(Debug, Clone)]
struct Segment {
    /// Plan stop this segment realizes (`None` for base/closing legs).
    stop_tag: Option<usize>,
    /// Where the charger parks.
    anchor: Point,
    /// Length of the leg into this segment.
    leg_m: Meters,
    /// Driving time of that leg, including fault stalls.
    leg_s: Seconds,
    /// Retry backoff before the dwell starts (costs time, no energy).
    backoff_s: Seconds,
    /// Realized dwell, including degradation stretch.
    dwell_s: Seconds,
    /// Charging efficiency applied to the harvest.
    efficiency: f64,
    /// Original indices of sensors recharged when the dwell completes.
    /// Pruned in place when a pinned fault kills a member mid-round.
    served: Vec<usize>,
    /// True for the final leg back to base: no dwell, ends the route.
    closing: bool,
}

#[derive(Debug, Clone, Copy)]
enum Phase {
    Idle,
    Driving { seg: usize, since: Time },
    Charging { seg: usize, since: Time },
}

#[derive(Debug)]
struct ChargerState {
    segments: Vec<Segment>,
    next: usize,
    phase: Phase,
    round_started: Option<Time>,
    ledger: ChargerLedger,
}

/// Round realization mode, fixed for the whole run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Single charger with faults: rounds delegated to `bc_core::execute`.
    ExecutorRound,
    /// Everything else: segments built directly by the engine.
    Direct,
}

struct Engine<'a> {
    sc: &'a Scenario,
    mode: Mode,
    horizon: Time,
    trigger_eff: usize,
    clock: Clock,
    queue: EventQueue,
    trace: TraceRing,

    /// Original sensor positions (stable across network revisions).
    positions: Vec<Point>,
    /// SoA battery state, indexed by original sensor index.
    sensors: SensorBank,
    low_count: usize,
    dispatch_pending: bool,

    ctx: PlanContext,
    plan: ChargingPlan,
    /// The context revision `plan` was planned fresh at; `None` once a
    /// `remove_sensor` repair has replaced it.
    fresh_revision: Option<u64>,
    /// Current network index → original sensor index.
    orig_of: Vec<usize>,
    needs_replan: bool,
    pending_removals: Vec<usize>,

    chargers: Vec<ChargerState>,
    round_active: usize,
    /// Per original sensor: scheduled for service in the active round.
    still_scheduled: Vec<bool>,
    /// Per original sensor: recharged during the active round.
    round_served: Vec<bool>,
    /// Original sensors planned (live at dispatch) in the active round.
    round_planned: Vec<usize>,
    /// Deaths pinned per plan stop for the active round (direct mode).
    round_deaths: Vec<Vec<usize>>,
    /// Executor-mode deaths, applied at round end (legacy parity).
    pending_round_deaths: Vec<usize>,

    rounds: usize,
    replans: usize,
    base_returns: usize,
    stranded_rounds: usize,
    fault_death_count: usize,
    hw_dead_list: Vec<usize>,
    charger_energy: Joules,
    recovery_latency: Seconds,
    extra_energy: Joules,
    downtime: Seconds,
    min_battery: Joules,
    max_battery: Joules,
    events_processed: u64,
}

impl<'a> Engine<'a> {
    fn new(sc: &'a Scenario) -> Result<Self, DesError> {
        let n = sc.net.len();
        let capacity = sc.battery_j;
        // Plan against a demand of one full battery per sensor (worst-case
        // top-up), exactly like the legacy lifetime loop.
        let demand_sensors: Vec<Sensor> = sc
            .net
            .sensors()
            .iter()
            .map(|s| Sensor::new(s.id, s.pos, capacity.get()))
            .collect();
        let demand_net = Network::new(demand_sensors, sc.net.field(), sc.net.base());
        let ctx = PlanContext::new(demand_net, sc.planner.clone());
        let plan = ctx.plan(sc.algorithm)?.plan;
        let mode = if sc.faults.is_some() && sc.fleet.size == 1 {
            Mode::ExecutorRound
        } else {
            Mode::Direct
        };
        Ok(Engine {
            sc,
            mode,
            horizon: Time::at(sc.horizon_s),
            trigger_eff: sc.trigger_count.min(n.max(1)),
            clock: Clock::new(),
            queue: EventQueue::with_backend(sc.queue),
            trace: TraceRing::new(sc.trace_capacity),
            positions: sc.net.positions().to_vec(),
            sensors: SensorBank::new(n, capacity),
            low_count: 0,
            dispatch_pending: false,
            fresh_revision: Some(ctx.revision()),
            ctx,
            plan,
            orig_of: (0..n).collect(),
            needs_replan: false,
            pending_removals: Vec::new(),
            chargers: (0..sc.fleet.size)
                .map(|c| ChargerState {
                    segments: Vec::new(),
                    next: 0,
                    phase: Phase::Idle,
                    round_started: None,
                    ledger: ChargerLedger::new(c),
                })
                .collect(),
            round_active: 0,
            still_scheduled: vec![false; n],
            round_served: vec![false; n],
            round_planned: Vec::new(),
            round_deaths: Vec::new(),
            pending_round_deaths: Vec::new(),
            rounds: 0,
            replans: 0,
            base_returns: 0,
            stranded_rounds: 0,
            fault_death_count: 0,
            hw_dead_list: Vec::new(),
            charger_energy: Joules(0.0),
            recovery_latency: Seconds::ZERO,
            extra_energy: Joules(0.0),
            downtime: Seconds::ZERO,
            min_battery: capacity,
            max_battery: capacity,
            events_processed: 0,
        })
    }

    fn run(mut self) -> Result<DesReport, DesError> {
        // Root span of the run's causal tree: every trace event, replan
        // pipeline and counter the single-threaded engine loop emits
        // parents under it (replans nest their own `plan.run` subtree).
        let mut run_span = bc_obs::active().then(|| bc_obs::ScopedSpan::enter("des", "run"));
        self.init_batteries();
        // Pop-first: the calendar backend's pop is amortized O(1) but
        // its peek is a scan, so the loop takes the event and checks the
        // horizon on the popped timestamp instead of peeking.
        while let Some(sch) = self.queue.pop() {
            if sch.at > self.horizon {
                break;
            }
            self.clock.advance_to(sch.at);
            let rec = TraceRecord {
                at: sch.at,
                seq: sch.seq,
                event: sch.event,
            };
            self.trace.push(rec);
            crate::trace::emit_obs(&rec);
            self.events_processed += 1;
            // A `?` here drops (and so still emits) the open run span.
            self.handle(sch.event)?;
        }
        if let Some(mut s) = run_span.take() {
            s.add_field("events", self.events_processed);
            s.finish();
        }
        Ok(self.finalize())
    }

    // ---- battery trajectories -------------------------------------------

    /// Settle sensor `s`'s lazy trajectory to the current instant and
    /// return the settled level.
    fn settle(&mut self, s: usize) -> Joules {
        let now = self.clock.now();
        self.sensors.settle(s, now, self.sc.drain_w)
    }

    /// A sensor is low when its level is at or below the trigger. The
    /// zero-drain knife edge (`level == trigger`, drain exactly 0) does
    /// not count, mirroring the legacy integrator's wait computation.
    fn is_low(&self, level: Joules) -> bool {
        level < self.sc.trigger_level_j
            || (level == self.sc.trigger_level_j && self.sc.drain_w > bc_units::Watts(0.0))
    }

    /// (Re)schedule the low-battery and depletion crossings of sensor `s`
    /// from its current trajectory. Crossings beyond the horizon are not
    /// queued — the finalizer settles every trajectory at the horizon.
    fn schedule_battery_events(&mut self, s: usize) {
        if self.sensors.hw_dead(s) || self.sc.drain_w <= bc_units::Watts(0.0) {
            return;
        }
        let now = self.clock.now();
        let gen = u64::from(self.sensors.gen(s));
        let level = self.sensors.level(s);
        if level > self.sc.trigger_level_j {
            let t_low = now.advance((level - self.sc.trigger_level_j) / self.sc.drain_w);
            if t_low <= self.horizon {
                self.queue
                    .schedule(t_low, Event::LowBattery { sensor: s, gen });
            }
        }
        if level > Joules(0.0) {
            let t_dead = now.advance(level / self.sc.drain_w);
            if t_dead <= self.horizon {
                self.queue
                    .schedule(t_dead, Event::Depleted { sensor: s, gen });
            }
        }
    }

    fn init_batteries(&mut self) {
        for s in 0..self.sensors.len() {
            if self.is_low(self.sensors.level(s)) {
                self.sensors.set_low(s, true);
                self.low_count += 1;
            }
            self.schedule_battery_events(s);
        }
        self.maybe_dispatch();
    }

    /// Refill sensor `s` from a dwell of `dwell` at `anchor`, clamped at
    /// capacity (the battery-overfill invariant), reviving it if it was
    /// battery-dead, and rebuild its crossings.
    fn recharge(&mut self, s: usize, anchor: Point, dwell: Seconds, efficiency: f64) {
        if self.sensors.hw_dead(s) {
            return;
        }
        let now = self.clock.now();
        let pre = self.settle(s);
        self.min_battery = self.min_battery.min(pre);
        let d = Meters(self.positions[s].distance(anchor));
        let harvested = self.sc.planner.charging.delivered_energy(d, dwell) * efficiency;
        let level = (pre + harvested).min(self.sc.battery_j);
        debug_assert!(level <= self.sc.battery_j, "recharge overfilled a battery");
        self.max_battery = self.max_battery.max(level);
        let low = self.is_low(level);
        if let Some(dead_at) = self.sensors.take_dead_since(s) {
            self.downtime += now.since(dead_at);
        }
        self.sensors.set_level(s, level);
        self.sensors.set_updated(s, now);
        let gen = u64::from(self.sensors.bump_gen(s));
        let was_low = self.sensors.low(s);
        self.sensors.set_low(s, low);
        if bc_obs::active() {
            // The generation bump just invalidated any queued crossings
            // computed from the stale trajectory.
            bc_obs::event(
                "des",
                "battery.invalidate",
                &[
                    bc_obs::Field::new("sensor", s),
                    bc_obs::Field::new("gen", gen),
                    bc_obs::Field::new("level_j", level.get()),
                    bc_obs::Field::new("low", low),
                ],
            );
        }
        match (was_low, low) {
            (true, false) => self.low_count -= 1,
            (false, true) => self.low_count += 1,
            _ => {}
        }
        self.schedule_battery_events(s);
    }

    /// Permanent hardware death of sensor `s` at the current instant.
    fn apply_hw_death(&mut self, s: usize) {
        if self.sensors.hw_dead(s) {
            return;
        }
        let now = self.clock.now();
        self.settle(s);
        self.min_battery = Joules(0.0);
        self.sensors.set_level(s, Joules(0.0));
        self.sensors.set_updated(s, now);
        self.sensors.set_hw_dead(s);
        // `mark_dead_at` keeps an earlier battery-death instant:
        // downtime has been accruing since then.
        self.sensors.mark_dead_at(s, now);
        self.sensors.bump_gen(s);
        if self.sensors.low(s) {
            self.sensors.set_low(s, false);
            self.low_count -= 1;
        }
        self.hw_dead_list.push(s);
        self.fault_death_count += 1;
        self.still_scheduled[s] = false;
        // Prune the victim from every not-yet-completed service set.
        for c in 0..self.chargers.len() {
            let from = self.chargers[c].next;
            for seg in self.chargers[c].segments.iter_mut().skip(from) {
                seg.served.retain(|&x| x != s);
            }
        }
        if self.mode == Mode::Direct && self.sc.faults.is_some() {
            self.pending_removals.push(s);
        }
    }

    // ---- dispatch --------------------------------------------------------

    fn maybe_dispatch(&mut self) {
        if self.round_active == 0
            && !self.dispatch_pending
            && self.low_count >= self.trigger_eff
            && self.clock.now() < self.horizon
            && !self.sensors.is_empty()
        {
            self.dispatch_pending = true;
            self.queue.schedule(self.clock.now(), Event::Dispatch);
        }
    }

    fn handle(&mut self, ev: Event) -> Result<(), DesError> {
        match ev {
            Event::LowBattery { sensor, gen } => {
                if self.sensors.hw_dead(sensor)
                    || u64::from(self.sensors.gen(sensor)) != gen
                    || self.sensors.low(sensor)
                {
                    return Ok(());
                }
                self.sensors.set_low(sensor, true);
                self.low_count += 1;
                if self.round_active > 0 {
                    // Low mid-round with no service still scheduled: the
                    // current plan is stale — replan at the next dispatch.
                    if !self.still_scheduled[sensor] {
                        self.needs_replan = true;
                    }
                } else {
                    self.maybe_dispatch();
                }
                Ok(())
            }
            Event::Depleted { sensor, gen } => {
                if self.sensors.hw_dead(sensor) || u64::from(self.sensors.gen(sensor)) != gen {
                    return Ok(());
                }
                let now = self.clock.now();
                self.settle(sensor);
                self.min_battery = Joules(0.0);
                self.sensors.set_level(sensor, Joules(0.0));
                self.sensors.mark_dead_at(sensor, now);
                Ok(())
            }
            Event::Dispatch => {
                self.dispatch_pending = false;
                self.dispatch_round()
            }
            Event::Arrival { charger, seg } => self.on_arrival(charger, seg),
            Event::ChargingComplete { charger, seg } => self.on_charging_complete(charger, seg),
            Event::Returned { charger } => {
                let now = self.clock.now();
                let ch = &mut self.chargers[charger];
                if let Some(t0) = ch.round_started.take() {
                    ch.ledger.busy_s += now.since(t0);
                }
                ch.phase = Phase::Idle;
                self.round_active -= 1;
                if self.round_active == 0 {
                    self.end_of_round();
                }
                Ok(())
            }
            Event::FaultDeath { sensor } => {
                self.apply_hw_death(sensor);
                Ok(())
            }
        }
    }

    fn dispatch_round(&mut self) -> Result<(), DesError> {
        if self.round_active > 0
            || self.low_count < self.trigger_eff
            || (self.clock.now() >= self.horizon)
        {
            return Ok(());
        }
        // Repair the context's network first: sensors lost to hardware
        // faults are removed (bumping its revision), then a staleness
        // trigger plans afresh unless the held plan is already the fresh
        // plan of this revision.
        for orig in std::mem::take(&mut self.pending_removals) {
            if let Some(ci) = self.orig_of.iter().position(|&o| o == orig) {
                self.plan = self.ctx.remove_sensor(&self.plan, ci)?;
                self.fresh_revision = None;
                self.orig_of.remove(ci);
                self.replans += 1;
            }
        }
        if self.needs_replan {
            let revision = self.ctx.revision();
            if self.fresh_revision != Some(revision) {
                self.plan = self.ctx.plan(self.sc.algorithm)?.plan;
                self.fresh_revision = Some(revision);
            }
            self.needs_replan = false;
            self.replans += 1;
        }
        if self.plan.stops.is_empty() {
            return Ok(());
        }
        self.rounds += 1;
        if bc_obs::active() {
            bc_obs::event(
                "des",
                "dispatch.round",
                &[
                    bc_obs::Field::new("round", self.rounds),
                    bc_obs::Field::new("stops", self.plan.stops.len()),
                    bc_obs::Field::new("low", self.low_count),
                    bc_obs::Field::new(
                        "mode",
                        match self.mode {
                            Mode::ExecutorRound => "executor",
                            Mode::Direct => "direct",
                        },
                    ),
                ],
            );
        }
        let sc = self.sc;
        let routes = match self.mode {
            Mode::ExecutorRound => self.executor_round()?,
            Mode::Direct => self.build_direct_routes(sc.faults.as_ref()),
        };
        let now = self.clock.now();
        self.round_served.iter_mut().for_each(|b| *b = false);
        for (c, segments) in routes.into_iter().enumerate() {
            let ch = &mut self.chargers[c];
            ch.segments = segments;
            ch.next = 0;
            if ch.segments.is_empty() {
                continue;
            }
            ch.round_started = Some(now);
            self.round_active += 1;
            self.start_segment(c);
        }
        Ok(())
    }

    /// Single charger + faults: delegate the round to `bc_core::execute`
    /// and unroll the realized timeline into segments. Recovery metrics
    /// come wholesale from the report (legacy parity, even when the
    /// horizon later clips the replay).
    fn executor_round(&mut self) -> Result<Vec<Vec<Segment>>, DesError> {
        let fm = self.sc.faults.clone().unwrap_or_else(FaultModel::none);
        let round_seed = u64::try_from(self.rounds - 1).unwrap_or(u64::MAX);
        let report = Executor::new(self.ctx.network(), self.ctx.config())
            .with_speed(self.sc.speed_mps.get())
            .with_policy(self.sc.recovery)
            .execute_with_dead(&self.plan, &fm, round_seed, &self.hw_dead_list)?;
        let mut segments = Vec::with_capacity(report.timeline.len() + 1);
        let mut replayed_m = Meters(0.0);
        let mut replayed_s = Seconds::ZERO;
        for e in &report.timeline {
            replayed_m += e.drive_m;
            replayed_s = replayed_s + e.drive_s + e.backoff_s + e.dwell_s;
            segments.push(Segment {
                stop_tag: e.plan_stop,
                anchor: e.anchor,
                leg_m: e.drive_m,
                leg_s: e.drive_s,
                backoff_s: e.backoff_s,
                dwell_s: e.dwell_s,
                efficiency: e.efficiency,
                served: e.served.clone(),
                closing: false,
            });
        }
        // The closing leg lives in the report totals, not the timeline.
        let close_s = (report.duration_s - replayed_s).max(Seconds::ZERO);
        let close_m = (report.distance_m - replayed_m).max(Meters(0.0));
        if close_s > Seconds::ZERO || close_m > Meters(0.0) {
            segments.push(Segment {
                stop_tag: None,
                anchor: self.sc.net.base(),
                leg_m: close_m,
                leg_s: close_s,
                backoff_s: Seconds::ZERO,
                dwell_s: Seconds::ZERO,
                efficiency: 1.0,
                served: Vec::new(),
                closing: true,
            });
        }
        for seg in &segments {
            for &s in &seg.served {
                self.still_scheduled[s] = true;
            }
        }
        // Hardware deaths land at round end, like the legacy loop.
        self.pending_round_deaths = report.fault_deaths.clone();
        self.stranded_rounds += report.stranded.len();
        self.recovery_latency += report.recovery_latency_s;
        self.extra_energy += report.extra_energy_j;
        self.replans += report.replans;
        self.base_returns += report.base_returns;
        self.round_planned.clear();
        self.round_deaths.clear();
        Ok(vec![segments])
    }

    /// Rounds outside the executor: fault-free rounds, and multi-charger
    /// rounds with faults.
    ///
    /// Fault-free, a single charger reproduces the legacy integrator
    /// exactly: the closing leg is driven *first* (from the last stop's
    /// anchor into stop 0) and the charger stays in the field between
    /// rounds. A fleet instead splits the tour by dispatch policy, each
    /// charger driving base → its arc → base.
    ///
    /// With a fault model `fm`, apply this round's schedule directly —
    /// stall-stretched legs, retry backoff, degradation stretch,
    /// abandoned stops — and pin hardware deaths to the arrival at their
    /// stop.
    fn build_direct_routes(&mut self, fm: Option<&FaultModel>) -> Vec<Vec<Segment>> {
        let stops = &self.plan.stops;
        let m = stops.len();
        let speed = self.sc.speed_mps;
        let schedule = fm.map(|f| {
            let round_seed = u64::try_from(self.rounds - 1).unwrap_or(u64::MAX);
            f.schedule(round_seed, self.orig_of.len(), m)
        });

        // Per-stop realized parameters.
        let mut stop_backoff = vec![Seconds::ZERO; m];
        let mut stop_dwell: Vec<Seconds> = stops.iter().map(|s| s.dwell).collect();
        let mut stop_eff = vec![1.0f64; m];
        let mut stop_stall = vec![1.0f64; m];
        let mut abandoned = vec![false; m];
        if let (Some(f), Some(sched)) = (fm, &schedule) {
            for i in 0..m {
                stop_stall[i] = sched.stalls[i];
                let fails = sched.failed_attempts[i];
                if fails > f.max_retries {
                    abandoned[i] = true;
                    stop_backoff[i] = f.backoff_total(f.max_retries);
                    stop_dwell[i] = Seconds::ZERO;
                } else {
                    stop_backoff[i] = f.backoff_total(fails);
                    if let Some(eff) = sched.degraded[i] {
                        stop_eff[i] = eff;
                        stop_dwell[i] = stops[i].dwell / eff;
                    }
                }
            }
        }

        // Round-level fault accounting, full-round (legacy parity with the
        // executor path, which books the report wholesale at dispatch):
        // recovery latency is stall + backoff + stretch; extra energy is
        // the realized-vs-planned dwell energy delta (stretches cost,
        // abandonments refund).
        self.round_planned.clear();
        self.round_deaths = vec![Vec::new(); m];
        let mut served_of: Vec<Vec<usize>> = Vec::with_capacity(m);
        for (i, stop) in stops.iter().enumerate() {
            let members: Vec<usize> = stop
                .bundle
                .sensors
                .iter()
                .map(|&ci| self.orig_of[ci])
                .filter(|&o| !self.sensors.hw_dead(o))
                .collect();
            self.round_planned.extend(members.iter().copied());
            if schedule.is_some() {
                self.recovery_latency = self.recovery_latency
                    + stop_backoff[i]
                    + (stop_dwell[i] - stops[i].dwell).max(Seconds::ZERO);
                self.extra_energy = self.extra_energy
                    + self.sc.planner.energy.charging_energy(stop_dwell[i])
                    - self.sc.planner.energy.charging_energy(stops[i].dwell);
            }
            served_of.push(if abandoned[i] { Vec::new() } else { members });
        }
        if let Some(sched) = &schedule {
            for (ci, death) in sched.deaths.iter().enumerate() {
                if let Some(stop) = *death {
                    let orig = self.orig_of[ci];
                    if !self.sensors.hw_dead(orig) && stop < m {
                        self.round_deaths[stop].push(orig);
                    }
                }
            }
        }

        let anchors: Vec<Point> = stops.iter().map(bc_core::plan::Stop::anchor).collect();
        let mut routes: Vec<Vec<Segment>> = Vec::with_capacity(self.sc.fleet.size);
        if self.sc.fleet.size == 1 {
            // Legacy leg ordering: leg i runs from stop (i-1 mod m) into
            // stop i, so the closing leg comes first and the charger ends
            // the round parked at the last stop.
            let mut segments = Vec::with_capacity(m);
            for i in 0..m {
                let prev = anchors[(i + m - 1) % m];
                let leg_m = Meters(prev.distance(anchors[i]));
                let nominal_s = leg_m.time_at(speed);
                let leg_s = nominal_s * stop_stall[i];
                if schedule.is_some() {
                    self.recovery_latency += (leg_s - nominal_s).max(Seconds::ZERO);
                }
                segments.push(Segment {
                    stop_tag: Some(i),
                    anchor: anchors[i],
                    leg_m,
                    leg_s,
                    backoff_s: stop_backoff[i],
                    dwell_s: stop_dwell[i],
                    efficiency: stop_eff[i],
                    served: served_of[i].clone(),
                    closing: false,
                });
            }
            routes.push(segments);
        } else {
            let base = self.sc.net.base();
            let assignment =
                assign_stops(self.sc.fleet.dispatch, &anchors, self.sc.fleet.size, base);
            for route in assignment {
                let mut segments = Vec::with_capacity(route.len() + 1);
                let mut pos = base;
                for &i in &route {
                    let leg_m = Meters(pos.distance(anchors[i]));
                    let nominal_s = leg_m.time_at(speed);
                    let leg_s = nominal_s * stop_stall[i];
                    if schedule.is_some() {
                        self.recovery_latency += (leg_s - nominal_s).max(Seconds::ZERO);
                    }
                    segments.push(Segment {
                        stop_tag: Some(i),
                        anchor: anchors[i],
                        leg_m,
                        leg_s,
                        backoff_s: stop_backoff[i],
                        dwell_s: stop_dwell[i],
                        efficiency: stop_eff[i],
                        served: served_of[i].clone(),
                        closing: false,
                    });
                    pos = anchors[i];
                }
                if !segments.is_empty() {
                    let leg_m = Meters(pos.distance(base));
                    segments.push(Segment {
                        stop_tag: None,
                        anchor: base,
                        leg_m,
                        leg_s: leg_m.time_at(speed),
                        backoff_s: Seconds::ZERO,
                        dwell_s: Seconds::ZERO,
                        efficiency: 1.0,
                        served: Vec::new(),
                        closing: true,
                    });
                }
                routes.push(segments);
            }
        }
        for route in &routes {
            for seg in route {
                for &s in &seg.served {
                    self.still_scheduled[s] = true;
                }
            }
        }
        self.pending_round_deaths.clear();
        routes
    }

    // ---- charger motion --------------------------------------------------

    fn start_segment(&mut self, c: usize) {
        let now = self.clock.now();
        let ch = &mut self.chargers[c];
        let Some(seg) = ch.segments.get(ch.next) else {
            // Route exhausted without a closing leg (the legacy
            // stay-in-field single charger): return on the spot.
            self.queue.schedule(now, Event::Returned { charger: c });
            return;
        };
        let idx = ch.next;
        let at = now.advance(seg.leg_s);
        ch.phase = Phase::Driving {
            seg: idx,
            since: now,
        };
        self.queue.schedule(
            at,
            Event::Arrival {
                charger: c,
                seg: idx,
            },
        );
    }

    fn spend_move(&mut self, c: usize, length: Meters) {
        let e = self.sc.planner.energy.movement_energy(length);
        self.chargers[c].ledger.move_energy_j += e;
        self.charger_energy += e;
    }

    fn spend_charge(&mut self, c: usize, dwell: Seconds) {
        let e = self.sc.planner.energy.charging_energy(dwell);
        self.chargers[c].ledger.charge_energy_j += e;
        self.charger_energy += e;
    }

    fn on_arrival(&mut self, c: usize, seg_idx: usize) -> Result<(), DesError> {
        let now = self.clock.now();
        let (leg_m, leg_s, backoff, dwell, stop_tag, closing) = {
            let seg = &self.chargers[c].segments[seg_idx];
            (
                seg.leg_m,
                seg.leg_s,
                seg.backoff_s,
                seg.dwell_s,
                seg.stop_tag,
                seg.closing,
            )
        };
        self.chargers[c].ledger.distance_m += leg_m;
        self.chargers[c].ledger.drive_s += leg_s;
        self.spend_move(c, leg_m);
        // Hardware deaths pinned to this stop fire on arrival, before the
        // dwell can complete.
        if let Some(tag) = stop_tag {
            if tag < self.round_deaths.len() {
                for s in std::mem::take(&mut self.round_deaths[tag]) {
                    self.queue.schedule(now, Event::FaultDeath { sensor: s });
                }
            }
        }
        if closing {
            self.queue.schedule(now, Event::Returned { charger: c });
        } else {
            self.chargers[c].phase = Phase::Charging {
                seg: seg_idx,
                since: now,
            };
            let done = now.advance(backoff).advance(dwell);
            self.queue.schedule(
                done,
                Event::ChargingComplete {
                    charger: c,
                    seg: seg_idx,
                },
            );
        }
        Ok(())
    }

    fn on_charging_complete(&mut self, c: usize, seg_idx: usize) -> Result<(), DesError> {
        let (anchor, backoff, dwell, efficiency, served) = {
            let seg = &self.chargers[c].segments[seg_idx];
            (
                seg.anchor,
                seg.backoff_s,
                seg.dwell_s,
                seg.efficiency,
                seg.served.clone(),
            )
        };
        let ledger = &mut self.chargers[c].ledger;
        ledger.backoff_s += backoff;
        ledger.dwell_s += dwell;
        if dwell > Seconds::ZERO {
            ledger.stops_served += 1;
        }
        self.spend_charge(c, dwell);
        for s in served {
            self.recharge(s, anchor, dwell, efficiency);
            self.still_scheduled[s] = false;
            self.round_served[s] = true;
            self.chargers[c].ledger.sensors_charged += 1;
        }
        self.chargers[c].next = seg_idx + 1;
        self.start_segment(c);
        Ok(())
    }

    fn end_of_round(&mut self) {
        let now = self.clock.now();
        // Executor-mode hardware deaths land here, as events (they fire
        // after this handler, before any same-instant re-dispatch).
        for s in std::mem::take(&mut self.pending_round_deaths) {
            self.queue.schedule(now, Event::FaultDeath { sensor: s });
        }
        // Direct-mode stranding: planned, still alive, not served.
        for s in std::mem::take(&mut self.round_planned) {
            if !self.sensors.hw_dead(s) && !self.round_served[s] {
                self.stranded_rounds += 1;
            }
        }
        self.still_scheduled.iter_mut().for_each(|b| *b = false);
        self.maybe_dispatch();
    }

    // ---- horizon ---------------------------------------------------------

    fn finalize(mut self) -> DesReport {
        self.clock.advance_to(self.horizon);
        let horizon = self.horizon;
        // Settle in-flight chargers: pro-rate the active leg or dwell.
        for c in 0..self.chargers.len() {
            let phase = self.chargers[c].phase;
            match phase {
                Phase::Idle => {}
                Phase::Driving { seg, since } => {
                    let (leg_m, leg_s) = {
                        let s = &self.chargers[c].segments[seg];
                        (s.leg_m, s.leg_s)
                    };
                    let elapsed = horizon.since(since);
                    let frac = if leg_s > Seconds::ZERO {
                        (elapsed / leg_s).min(1.0)
                    } else {
                        1.0
                    };
                    let part = leg_m * frac;
                    self.chargers[c].ledger.distance_m += part;
                    self.chargers[c].ledger.drive_s += elapsed;
                    self.spend_move(c, part);
                }
                Phase::Charging { seg, since } => {
                    let (anchor, backoff, dwell, efficiency, served) = {
                        let s = &self.chargers[c].segments[seg];
                        (
                            s.anchor,
                            s.backoff_s,
                            s.dwell_s,
                            s.efficiency,
                            s.served.clone(),
                        )
                    };
                    let elapsed = horizon.since(since);
                    let backoff_done = elapsed.min(backoff);
                    let dwell_done = (elapsed - backoff).max(Seconds::ZERO).min(dwell);
                    let ledger = &mut self.chargers[c].ledger;
                    ledger.backoff_s += backoff_done;
                    ledger.dwell_s += dwell_done;
                    self.spend_charge(c, dwell_done);
                    if dwell_done > Seconds::ZERO {
                        // Partial harvest for the interrupted dwell.
                        for s in served {
                            self.recharge(s, anchor, dwell_done, efficiency);
                        }
                    }
                }
            }
            if let Some(t0) = self.chargers[c].round_started.take() {
                self.chargers[c].ledger.busy_s += horizon.since(t0);
            }
        }
        // A clipped executor round still applies its hardware deaths
        // (legacy parity); they accrue no downtime past the horizon.
        for s in std::mem::take(&mut self.pending_round_deaths) {
            self.apply_hw_death(s);
        }
        // Settle every battery trajectory at the horizon.
        let n = self.sensors.len();
        for s in 0..n {
            let level = self.settle(s);
            self.min_battery = self.min_battery.min(level);
            if let Some(dead_at) = self.sensors.take_dead_since(s) {
                self.downtime += horizon.since(dead_at);
            }
        }

        let horizon_s = self.sc.horizon_s;
        let total_sensor_s = horizon_s * (n as f64); // cast-ok: sensor count to sensor-time
        let availability = if n == 0 {
            1.0
        } else {
            1.0 - self.downtime / total_sensor_s
        };
        let fleet_n = self.chargers.len();
        let busy: Seconds = self.chargers.iter().map(|c| c.ledger.busy_s).sum();
        let fleet_utilization = busy / (horizon_s * (fleet_n as f64)); // cast-ok: fleet size to fleet-time
        let trace_dropped = self.trace.dropped();
        let report = DesReport {
            rounds: self.rounds,
            charger_energy_j: self.charger_energy,
            downtime_sensor_s: self.downtime,
            availability,
            sensors_ever_dead: self.sensors.ever_dead_count(),
            min_battery_j: if n == 0 {
                Joules(0.0)
            } else {
                self.min_battery
            },
            max_battery_j: if n == 0 {
                Joules(0.0)
            } else {
                self.max_battery
            },
            fault_deaths: self.fault_death_count,
            stranded_sensor_rounds: self.stranded_rounds,
            recovery_latency_s: self.recovery_latency,
            extra_energy_j: self.extra_energy,
            replans: self.replans,
            base_returns: self.base_returns,
            first_death_s: (0..n)
                .map(|s| self.sensors.first_death(s).map(Time::seconds))
                .collect(),
            events_processed: self.events_processed,
            events_scheduled: self.queue.scheduled_total(),
            fleet: self.chargers.into_iter().map(|c| c.ledger).collect(),
            fleet_utilization,
            trace: self.trace.into_vec(),
            trace_dropped,
        };
        debug_assert!(
            report.check_fleet_ledger().is_ok(),
            "fleet ledgers out of balance with the run total"
        );
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::DispatchPolicy;
    use bc_core::execute::RecoveryPolicy;
    use bc_core::planner::Algorithm;
    use bc_geom::Aabb;
    use bc_units::Watts;
    use bc_wsn::deploy;

    fn scenario(n: usize, seed: u64) -> Scenario {
        let net = deploy::uniform(n, Aabb::square(200.0), 2.0, seed);
        let mut sc = Scenario::paper_sim(net, 30.0, Algorithm::Bc);
        sc.horizon_s = crate::clock::hours(12.0);
        sc
    }

    #[test]
    fn clean_run_dispatches_rounds_and_balances_ledgers() {
        for algo in [Algorithm::Bc, Algorithm::BcOpt] {
            let mut sc = scenario(20, 3);
            sc.algorithm = algo;
            let rep = run(&sc).unwrap();
            assert!(rep.rounds > 0, "{algo}: no rounds dispatched");
            assert!(
                rep.availability > 0.99,
                "{algo}: availability {}",
                rep.availability
            );
            assert!(rep.charger_energy_j > Joules(0.0));
            rep.check_fleet_ledger().unwrap();
            assert_eq!(rep.fleet.len(), 1);
            assert!(rep.events_processed > 0);
            assert!(rep.max_battery_j <= Joules(2.0));
        }
    }

    #[test]
    fn empty_network_trivial_report() {
        let net = deploy::uniform(0, Aabb::square(10.0), 2.0, 0);
        for algo in Algorithm::ALL {
            let rep = run(&Scenario::paper_sim(net.clone(), 10.0, algo)).unwrap();
            assert_eq!(rep.rounds, 0, "{algo}");
            assert_eq!(rep.availability, 1.0, "{algo}");
            assert_eq!(rep.min_battery_j, Joules(0.0), "{algo}");
            assert_eq!(rep.max_battery_j, Joules(0.0), "{algo}");
            assert_eq!(rep.events_processed, 0, "{algo}");
        }
    }

    #[test]
    fn no_charging_when_drain_is_negligible() {
        let mut sc = scenario(30, 3);
        sc.drain_w = Watts(1e-9); // batteries outlast the horizon
        let rep = run(&sc).unwrap();
        assert_eq!(rep.rounds, 0);
        assert_eq!(rep.charger_energy_j, Joules(0.0));
        assert_eq!(rep.availability, 1.0);
    }

    #[test]
    fn heavier_drain_needs_more_rounds() {
        let mut light = scenario(30, 3);
        light.horizon_s = crate::clock::hours(6.0);
        let mut heavy = light.clone();
        heavy.drain_w = heavy.drain_w * 3.0;
        let r_light = run(&light).unwrap();
        let r_heavy = run(&heavy).unwrap();
        assert!(r_heavy.rounds > r_light.rounds);
        assert!(r_heavy.charger_energy_j > r_light.charger_energy_j);
    }

    #[test]
    fn efficient_planner_spends_less_over_the_horizon() {
        let net = deploy::uniform(60, Aabb::square(250.0), 2.0, 9);
        let mut sc = Scenario::paper_sim(net, 25.0, Algorithm::Sc);
        sc.horizon_s = crate::clock::hours(6.0);
        let mut opt = sc.clone();
        opt.algorithm = Algorithm::BcOpt;
        let r_sc = run(&sc).unwrap();
        let r_opt = run(&opt).unwrap();
        assert!(
            r_opt.charger_energy_j < r_sc.charger_energy_j,
            "BC-OPT {} vs SC {}",
            r_opt.charger_energy_j,
            r_sc.charger_energy_j
        );
    }

    #[test]
    fn zero_fault_model_matches_perfect_execution() {
        let base = scenario(30, 3);
        let faulty = base
            .clone()
            .with_faults(FaultModel::none(), RecoveryPolicy::ReplanRemaining);
        let a = run(&base).unwrap();
        let b = run(&faulty).unwrap();
        assert_eq!(a.rounds, b.rounds);
        // Per complete round the two replay paths spend identical energy;
        // they only differ in where the horizon clips the final round
        // (the fault-free path drives the closing leg first, the executor
        // drives it last), so allow a fraction-of-a-round tolerance.
        assert!(
            (a.charger_energy_j - b.charger_energy_j).abs() / a.charger_energy_j < 0.05,
            "perfect {} vs zero-fault {}",
            a.charger_energy_j,
            b.charger_energy_j
        );
        assert!(b.extra_energy_j.abs() < Joules(1e-6));
        assert_eq!(b.fault_deaths, 0);
        assert_eq!(b.stranded_sensor_rounds, 0);
    }

    #[test]
    fn three_charger_fleet_balances_ledgers() {
        for policy in [
            DispatchPolicy::NearestIdle,
            DispatchPolicy::RoundRobin,
            DispatchPolicy::BundlePartition,
        ] {
            let sc = scenario(20, 4).with_fleet(3, policy);
            let rep = run(&sc).unwrap();
            assert!(rep.rounds > 0, "{policy:?} dispatched nothing");
            rep.check_fleet_ledger().unwrap();
            assert_eq!(rep.fleet.len(), 3);
            let sum: Joules = rep.fleet.iter().map(ChargerLedger::total_energy_j).sum();
            assert!((sum - rep.charger_energy_j).abs() < Joules(1e-6));
            assert!(rep.fleet_utilization > 0.0 && rep.fleet_utilization <= 1.0);
        }
    }

    #[test]
    fn faulty_single_charger_matches_executor_semantics() {
        let sc = scenario(20, 5).with_faults(
            FaultModel::with_rate(9, 0.3),
            RecoveryPolicy::SkipAndContinue,
        );
        let rep = run(&sc).unwrap();
        assert!(rep.rounds > 0);
        assert!(rep.recovery_latency_s > Seconds::ZERO);
        assert!(rep.charger_energy_j.is_finite() && rep.charger_energy_j > Joules(0.0));
        assert!(rep.availability.is_finite());
        rep.check_fleet_ledger().unwrap();
    }

    #[test]
    fn hardware_deaths_are_permanent() {
        let fm = FaultModel {
            death_prob: 0.5,
            ..FaultModel::none()
        };
        let sc = scenario(30, 3).with_faults(fm, RecoveryPolicy::ReplanRemaining);
        let rep = run(&sc).unwrap();
        assert!(rep.fault_deaths > 0, "50% per-round death rate must kill");
        // Battery depletion can kill more (survivors coast out after the
        // trigger stops firing), but never fewer than the hardware deaths.
        assert!(rep.sensors_ever_dead >= rep.fault_deaths);
        assert!(
            rep.availability < 0.99,
            "dead sensors must show up as downtime, got {}",
            rep.availability
        );
    }

    #[test]
    fn faulty_fleet_prunes_dead_sensors_from_future_plans() {
        let fm = FaultModel {
            death_prob: 0.4,
            ..FaultModel::none()
        };
        let sc = scenario(16, 6)
            .with_fleet(2, DispatchPolicy::RoundRobin)
            .with_faults(fm, RecoveryPolicy::SkipAndContinue);
        let rep = run(&sc).unwrap();
        assert!(rep.fault_deaths > 0, "40% death rate must kill someone");
        assert!(rep.replans > 0, "deaths must force replans");
        assert!(rep.sensors_ever_dead >= rep.fault_deaths);
        rep.check_fleet_ledger().unwrap();
    }

    #[test]
    fn trace_is_bounded() {
        let mut sc = scenario(20, 3);
        sc.trace_capacity = 8;
        let rep = run(&sc).unwrap();
        assert!(rep.trace.len() <= 8);
        assert!(rep.events_processed > 8);
    }

    #[test]
    fn overflowed_ring_reports_dropped_records() {
        // Regression: trace truncation must be visible, not silent. A
        // capacity-2 ring on any real run overflows immediately, and the
        // report must account for every evicted record.
        let mut sc = scenario(20, 3);
        sc.trace_capacity = 2;
        let rep = run(&sc).unwrap();
        assert_eq!(rep.trace.len(), 2);
        assert!(rep.events_processed > 2);
        assert_eq!(rep.trace_dropped, rep.events_processed - 2);
    }

    #[test]
    fn engine_events_bridge_into_obs() {
        use bc_obs::recorders::StatsRecorder;
        use std::sync::Arc;
        let stats = Arc::new(StatsRecorder::new());
        let rep = bc_obs::with_local(stats.clone(), || run(&scenario(20, 3)).unwrap());
        let snap = stats.snapshot();
        // Every processed event was mirrored into the recorder.
        let mirrored: u64 = snap
            .events
            .iter()
            .filter(|(k, _)| {
                k.strip_prefix("des.")
                    .is_some_and(|n| n != "battery.invalidate" && n != "dispatch.round")
            })
            .map(|(_, &n)| n)
            .sum();
        assert_eq!(mirrored, rep.events_processed);
        assert_eq!(
            snap.events.get("des.dispatch.round").copied().unwrap_or(0),
            u64::try_from(rep.rounds).unwrap(),
            "one dispatch.round event per round"
        );
        assert!(
            snap.events
                .get("des.battery.invalidate")
                .copied()
                .unwrap_or(0)
                > 0,
            "recharges must emit invalidation events"
        );
    }

    #[test]
    fn invalid_scenario_is_rejected() {
        let mut sc = scenario(5, 1);
        sc.fleet.size = 0;
        assert!(matches!(
            run(&sc),
            Err(DesError::Scenario(ScenarioError::FleetSize))
        ));
        let mut sc = scenario(5, 1);
        sc.horizon_s = Seconds::ZERO;
        assert!(matches!(
            run(&sc),
            Err(DesError::Scenario(ScenarioError::Horizon(_)))
        ));
        let sc = scenario(5, 1)
            .with_fleet(3, DispatchPolicy::RoundRobin)
            .with_faults(FaultModel::with_rate(1, 0.2), RecoveryPolicy::ReturnToBase);
        assert!(matches!(
            run(&sc),
            Err(DesError::Scenario(ScenarioError::FleetRecovery(
                RecoveryPolicy::ReturnToBase
            )))
        ));
    }

    #[test]
    fn batteries_never_overfill() {
        let rep = run(&scenario(20, 8)).unwrap();
        assert!(
            rep.max_battery_j <= Joules(2.0),
            "max battery {} exceeds capacity",
            rep.max_battery_j
        );
    }
}
