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
//! A run drives one mobile charger. When the low-battery population
//! reaches the trigger while the charger is idle, a `Dispatch` event
//! launches a round of the run's plan and unrolls it into *segments*
//! (leg → backoff → dwell). Two modes, chosen by [`Scenario::faults`]:
//!
//! - **faults**: the round is delegated to [`bc_core::execute::Executor`]
//!   (`execute_with_dead`), the one place the per-stop fault rules and
//!   the recovery policies live, and the realized timeline is replayed
//!   as events — bit-compatible with the fault path of the
//!   fixed-interval reference integrator (`tests/des_equivalence.rs`),
//!   including its round-end application of hardware deaths.
//! - **no faults**: the legacy integrator's leg ordering is reproduced
//!   exactly (the closing leg is driven *first*, the charger lives in the
//!   field and never detours to base), which is what makes the
//!   death-time equivalence test tight.
//!
//! # Replanning
//!
//! A run plans once, when the engine is built. A low-battery crossing
//! that fires *mid-round* for a sensor with no remaining scheduled
//! service marks the plan stale, and the next dispatch counts a replan.
//! The planned network never changes (the executor is handed each
//! round's dead sensors instead), and a plan is a pure function of the
//! network and the planner configuration, so a fresh plan would be the
//! one held: the trigger is counted, not planned. With a recorder
//! installed, the `plan.run` spans of a run count the plans it built.

use crate::clock::{Clock, Time};
use crate::event::Event;
use crate::queue::EventQueue;
use crate::scenario::{Scenario, ScenarioError};
use crate::state::SensorBank;
use crate::trace::{TraceRecord, TraceRing};
use bc_core::execute::{ExecError, Executor};
use bc_core::faults::FaultModel;
use bc_core::plan::{ChargingPlan, PlanError, Stop};
use bc_core::planner;
use bc_geom::Point;
use bc_units::{Joules, Meters, Seconds};
use bc_wsn::{Network, Sensor};
use std::fmt;

/// Why a simulation run failed.
#[derive(Debug)]
pub enum DesError {
    /// The scenario failed validation.
    Scenario(ScenarioError),
    /// Planning the run failed.
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

/// The charger's account of one simulation run, in the spirit of
/// `bc-core::execute::ExecutionReport` but accumulated across rounds.
///
/// The engine contract-checks that the ledgers' totals sum to the
/// run-level `charger_energy_j` (see [`DesReport::check_fleet_ledger`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ChargerLedger {
    /// Index of this charger (0: a run drives one charger).
    pub charger: usize,
    /// Total distance driven.
    pub distance_m: Meters,
    /// Time spent driving (including fault-stall stretches).
    pub drive_s: Seconds,
    /// Time spent in retry backoff at stops.
    pub backoff_s: Seconds,
    /// Time spent dwelling (radiating) at stops.
    pub dwell_s: Seconds,
    /// Total time in rounds (dispatch to return), summed over rounds.
    pub busy_s: Seconds,
    /// Locomotion energy drawn from the charger's tank.
    pub move_energy_j: Joules,
    /// Radiated charging energy drawn from the charger's tank.
    pub charge_energy_j: Joules,
    /// Charging stops completed (dwell finished).
    pub stops_served: usize,
    /// Sensor recharges delivered (sensor-stop pairs, full dwells only).
    pub sensors_charged: usize,
}

impl ChargerLedger {
    /// A zeroed ledger for charger `charger`.
    #[must_use]
    pub fn new(charger: usize) -> Self {
        ChargerLedger {
            charger,
            distance_m: Meters(0.0),
            drive_s: Seconds::ZERO,
            backoff_s: Seconds::ZERO,
            dwell_s: Seconds::ZERO,
            busy_s: Seconds::ZERO,
            move_energy_j: Joules(0.0),
            charge_energy_j: Joules(0.0),
            stops_served: 0,
            sensors_charged: 0,
        }
    }

    /// Total energy drawn from this charger's tank.
    #[must_use]
    pub fn total_energy_j(&self) -> Joules {
        self.move_energy_j + self.charge_energy_j
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
/// event-level and charger-level observability.
#[derive(Debug, Clone, PartialEq)]
pub struct DesReport {
    /// Charging rounds dispatched within the horizon.
    pub rounds: usize,
    /// Total charger energy across all rounds.
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
    /// Replan triggers: low-battery staleness triggers, plus the
    /// executor's own replans in rounds with faults. A run plans once,
    /// so this counts triggers, not plans built; the `plan.run` spans of
    /// a recorded run count those.
    pub replans: usize,
    /// Recovery visits to the base station across all rounds.
    pub base_returns: usize,
    /// Per-sensor instant of first death (battery or hardware), if any.
    pub first_death_s: Vec<Option<Seconds>>,
    /// Events processed within the horizon.
    pub events_processed: u64,
    /// Events ever scheduled (processed + stale + beyond-horizon).
    pub events_scheduled: u64,
    /// Charger ledgers: one entry, since a run drives one charger.
    pub fleet: Vec<ChargerLedger>,
    /// Fraction of the horizon the charger spent in rounds, in `[0, 1]`.
    pub fleet_utilization: f64,
    /// Tail of the event trace (bounded ring; oldest first).
    pub trace: Vec<TraceRecord>,
    /// Trace records evicted from the ring.
    pub trace_dropped: u64,
}

impl DesReport {
    /// Contract check: the charger ledgers must account for every joule
    /// in `charger_energy_j` (up to float summation noise).
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
/// [`DesError`] if the scenario is invalid, the plan fails, or a
/// fault-injected round cannot be executed.
pub fn run(scenario: &Scenario) -> Result<DesReport, DesError> {
    scenario.validate()?;
    Engine::new(scenario)?.run()
}

/// The index the charger's events and ledger carry.
const CHARGER: usize = 0;

/// One leg of the charger's route and the dwell at its end.
#[derive(Debug, Clone)]
struct Segment {
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
    /// Sensors recharged when the dwell completes.
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

/// The charger: its route through the active round and its ledger.
#[derive(Debug)]
struct ChargerState {
    segments: Vec<Segment>,
    phase: Phase,
    /// When the active round was dispatched; `None` between rounds.
    round_started: Option<Time>,
    ledger: ChargerLedger,
}

struct Engine<'a> {
    sc: &'a Scenario,
    horizon: Time,
    trigger_eff: usize,
    clock: Clock,
    queue: EventQueue,
    trace: TraceRing,

    /// SoA battery state, indexed by sensor.
    sensors: SensorBank,
    low_count: usize,
    dispatch_pending: bool,

    /// The planned network: every sensor demands a full battery. Faulty
    /// rounds are executed against it.
    demand_net: Network,
    plan: ChargingPlan,
    needs_replan: bool,

    charger: ChargerState,
    /// Per sensor: scheduled for service in the active round.
    still_scheduled: Vec<bool>,
    /// The active round's hardware deaths, applied at round end (legacy
    /// parity).
    deferred_deaths: Vec<usize>,

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
        let plan = planner::try_run(sc.algorithm, &demand_net, &sc.planner)?;
        Ok(Engine {
            sc,
            horizon: Time::at(sc.horizon_s),
            trigger_eff: sc.trigger_count.min(n.max(1)),
            clock: Clock::new(),
            queue: EventQueue::with_backend(sc.queue),
            trace: TraceRing::new(sc.trace_capacity),
            sensors: SensorBank::new(n, capacity),
            low_count: 0,
            dispatch_pending: false,
            demand_net,
            plan,
            needs_replan: false,
            charger: ChargerState {
                segments: Vec::new(),
                phase: Phase::Idle,
                round_started: None,
                ledger: ChargerLedger::new(CHARGER),
            },
            still_scheduled: vec![false; n],
            deferred_deaths: Vec::new(),
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
        // Root span of the run's causal tree: every trace event and
        // counter the single-threaded engine loop emits parents under it.
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
        let d = Meters(self.sc.net.positions()[s].distance(anchor));
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
    }

    // ---- dispatch --------------------------------------------------------

    fn in_round(&self) -> bool {
        self.charger.round_started.is_some()
    }

    fn maybe_dispatch(&mut self) {
        if !self.in_round()
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
                if self.in_round() {
                    // Low mid-round with no service still scheduled: the
                    // current plan is stale — replan at the next dispatch.
                    if !self.still_scheduled[sensor] {
                        self.needs_replan = true;
                    }
                } else {
                    self.maybe_dispatch();
                }
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
            }
            Event::Dispatch => {
                self.dispatch_pending = false;
                return self.dispatch_round();
            }
            Event::Arrival { seg, .. } => self.on_arrival(seg),
            Event::ChargingComplete { seg, .. } => self.on_charging_complete(seg),
            Event::Returned { .. } => self.on_returned(),
            Event::FaultDeath { sensor } => self.apply_hw_death(sensor),
        }
        Ok(())
    }

    fn dispatch_round(&mut self) -> Result<(), DesError> {
        if self.in_round() || self.low_count < self.trigger_eff || self.clock.now() >= self.horizon
        {
            return Ok(());
        }
        // The planned network never changes, so the fresh plan a staleness
        // trigger asks for is the one held: count the trigger, keep the plan.
        if self.needs_replan {
            self.needs_replan = false;
            self.replans += 1;
        }
        if self.plan.stops.is_empty() {
            return Ok(());
        }
        self.rounds += 1;
        let sc = self.sc;
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
                        if sc.faults.is_some() {
                            "executor"
                        } else {
                            "direct"
                        },
                    ),
                ],
            );
        }
        let segments = match &sc.faults {
            Some(fm) => self.executor_round(fm)?,
            None => self.clean_route(),
        };
        for seg in &segments {
            for &s in &seg.served {
                self.still_scheduled[s] = true;
            }
        }
        self.charger.segments = segments;
        if !self.charger.segments.is_empty() {
            self.charger.round_started = Some(self.clock.now());
            self.start_segment(0);
        }
        Ok(())
    }

    /// A round with faults: delegate it to `bc_core::execute` and unroll
    /// the realized timeline into segments. Recovery metrics come
    /// wholesale from the report (legacy parity, even when the horizon
    /// later clips the replay).
    fn executor_round(&mut self, fm: &FaultModel) -> Result<Vec<Segment>, DesError> {
        let round_seed = u64::try_from(self.rounds - 1).unwrap_or(u64::MAX);
        let report = Executor::new(&self.demand_net, &self.sc.planner)
            .with_speed(self.sc.speed_mps.get())
            .with_policy(self.sc.recovery)
            .execute_with_dead(&self.plan, fm, round_seed, &self.hw_dead_list)?;
        let mut segments = Vec::with_capacity(report.timeline.len() + 1);
        let mut replayed_m = Meters(0.0);
        let mut replayed_s = Seconds::ZERO;
        for e in &report.timeline {
            replayed_m += e.drive_m;
            replayed_s = replayed_s + e.drive_s + e.backoff_s + e.dwell_s;
            segments.push(Segment {
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
        // Hardware deaths land at round end, like the legacy loop.
        self.deferred_deaths = report.fault_deaths;
        self.stranded_rounds += report.stranded.len();
        self.recovery_latency += report.recovery_latency_s;
        self.extra_energy += report.extra_energy_j;
        self.replans += report.replans;
        self.base_returns += report.base_returns;
        Ok(segments)
    }

    /// A clean round reproduces the legacy integrator exactly: the
    /// closing leg is driven *first* (from the last stop's anchor into
    /// stop 0) and the charger stays in the field between rounds.
    fn clean_route(&self) -> Vec<Segment> {
        let speed = self.sc.speed_mps;
        let stops = &self.plan.stops;
        let mut pos = stops.last().map_or(self.sc.net.base(), Stop::anchor);
        stops
            .iter()
            .map(|stop| {
                let anchor = stop.anchor();
                let leg_m = Meters(pos.distance(anchor));
                pos = anchor;
                Segment {
                    anchor,
                    leg_m,
                    leg_s: leg_m.time_at(speed),
                    backoff_s: Seconds::ZERO,
                    dwell_s: stop.dwell,
                    efficiency: 1.0,
                    served: stop.bundle.sensors.clone(),
                    closing: false,
                }
            })
            .collect()
    }

    // ---- charger motion --------------------------------------------------

    fn start_segment(&mut self, seg: usize) {
        let now = self.clock.now();
        let Some(next) = self.charger.segments.get(seg) else {
            // Route exhausted without a closing leg (the clean round's
            // stay-in-field charger): return on the spot.
            self.queue
                .schedule(now, Event::Returned { charger: CHARGER });
            return;
        };
        let at = now.advance(next.leg_s);
        self.charger.phase = Phase::Driving { seg, since: now };
        self.queue.schedule(
            at,
            Event::Arrival {
                charger: CHARGER,
                seg,
            },
        );
    }

    fn spend_move(&mut self, length: Meters) {
        let e = self.sc.planner.energy.movement_energy(length);
        self.charger.ledger.move_energy_j += e;
        self.charger_energy += e;
    }

    fn spend_charge(&mut self, dwell: Seconds) {
        let e = self.sc.planner.energy.charging_energy(dwell);
        self.charger.ledger.charge_energy_j += e;
        self.charger_energy += e;
    }

    fn on_arrival(&mut self, seg: usize) {
        let now = self.clock.now();
        let s = &self.charger.segments[seg];
        let (leg_m, leg_s, backoff, dwell, closing) =
            (s.leg_m, s.leg_s, s.backoff_s, s.dwell_s, s.closing);
        self.charger.ledger.distance_m += leg_m;
        self.charger.ledger.drive_s += leg_s;
        self.spend_move(leg_m);
        if closing {
            self.queue
                .schedule(now, Event::Returned { charger: CHARGER });
        } else {
            self.charger.phase = Phase::Charging { seg, since: now };
            let done = now.advance(backoff).advance(dwell);
            self.queue.schedule(
                done,
                Event::ChargingComplete {
                    charger: CHARGER,
                    seg,
                },
            );
        }
    }

    fn on_charging_complete(&mut self, seg: usize) {
        let s = &mut self.charger.segments[seg];
        let (anchor, backoff, dwell, efficiency) = (s.anchor, s.backoff_s, s.dwell_s, s.efficiency);
        let served = std::mem::take(&mut s.served);
        let ledger = &mut self.charger.ledger;
        ledger.backoff_s += backoff;
        ledger.dwell_s += dwell;
        if dwell > Seconds::ZERO {
            ledger.stops_served += 1;
        }
        ledger.sensors_charged += served.len();
        self.spend_charge(dwell);
        for s in served {
            self.recharge(s, anchor, dwell, efficiency);
            self.still_scheduled[s] = false;
        }
        self.start_segment(seg + 1);
    }

    fn on_returned(&mut self) {
        let now = self.clock.now();
        if let Some(t0) = self.charger.round_started.take() {
            self.charger.ledger.busy_s += now.since(t0);
        }
        self.charger.phase = Phase::Idle;
        // The round's hardware deaths land here, as events (they fire
        // after this handler, before any same-instant re-dispatch).
        for s in std::mem::take(&mut self.deferred_deaths) {
            self.queue.schedule(now, Event::FaultDeath { sensor: s });
        }
        self.still_scheduled.iter_mut().for_each(|b| *b = false);
        self.maybe_dispatch();
    }

    // ---- horizon ---------------------------------------------------------

    fn finalize(mut self) -> DesReport {
        self.clock.advance_to(self.horizon);
        let horizon = self.horizon;
        // Settle an in-flight charger: pro-rate the active leg or dwell.
        match self.charger.phase {
            Phase::Idle => {}
            Phase::Driving { seg, since } => {
                let s = &self.charger.segments[seg];
                let (leg_m, leg_s) = (s.leg_m, s.leg_s);
                let elapsed = horizon.since(since);
                let frac = if leg_s > Seconds::ZERO {
                    (elapsed / leg_s).min(1.0)
                } else {
                    1.0
                };
                let part = leg_m * frac;
                self.charger.ledger.distance_m += part;
                self.charger.ledger.drive_s += elapsed;
                self.spend_move(part);
            }
            Phase::Charging { seg, since } => {
                let s = &mut self.charger.segments[seg];
                let (anchor, backoff, dwell, efficiency) =
                    (s.anchor, s.backoff_s, s.dwell_s, s.efficiency);
                let served = std::mem::take(&mut s.served);
                let elapsed = horizon.since(since);
                let backoff_done = elapsed.min(backoff);
                let dwell_done = (elapsed - backoff).max(Seconds::ZERO).min(dwell);
                self.charger.ledger.backoff_s += backoff_done;
                self.charger.ledger.dwell_s += dwell_done;
                self.spend_charge(dwell_done);
                if dwell_done > Seconds::ZERO {
                    // Partial harvest for the interrupted dwell.
                    for s in served {
                        self.recharge(s, anchor, dwell_done, efficiency);
                    }
                }
            }
        }
        if let Some(t0) = self.charger.round_started.take() {
            self.charger.ledger.busy_s += horizon.since(t0);
        }
        // A clipped round still applies its hardware deaths (legacy
        // parity); they accrue no downtime past the horizon.
        for s in std::mem::take(&mut self.deferred_deaths) {
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
        let fleet_utilization = self.charger.ledger.busy_s / horizon_s;
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
            fleet: vec![self.charger.ledger],
            fleet_utilization,
            trace: self.trace.into_vec(),
            trace_dropped,
        };
        debug_assert!(
            report.check_fleet_ledger().is_ok(),
            "charger ledger out of balance with the run total"
        );
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        sc.trigger_count = 0;
        assert!(matches!(
            run(&sc),
            Err(DesError::Scenario(ScenarioError::TriggerCount))
        ));
        let mut sc = scenario(5, 1);
        sc.horizon_s = Seconds::ZERO;
        assert!(matches!(
            run(&sc),
            Err(DesError::Scenario(ScenarioError::Horizon(_)))
        ));
    }

    #[test]
    fn ledger_totals() {
        let mut l = ChargerLedger::new(1);
        l.move_energy_j = Joules(2.0);
        l.charge_energy_j = Joules(3.0);
        assert_eq!(l.total_energy_j(), Joules(5.0));
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
