//! Fault-injected execution of charging plans.
//!
//! The planners in this crate produce *plans*; this module runs them.
//! An [`Executor`] steps a [`ChargingPlan`] stop by stop against the
//! concrete [`crate::faults::FaultSchedule`] of a round, reacting to
//! each fault with a pluggable [`RecoveryPolicy`]:
//!
//! * [`RecoveryPolicy::SkipAndContinue`] — drop dead sensors from their
//!   stops (dwell shrinks) and abandon stops whose charge attempts are
//!   exhausted, leaving their live members stranded;
//! * [`RecoveryPolicy::ReplanRemaining`] — on a death, also recentre the
//!   stop that held the sensor on its survivors' smallest enclosing disk
//!   (Definition 2), as [`crate::PlanContext::remove_sensor`] does;
//! * [`RecoveryPolicy::ReturnToBase`] — when a death touches a pending
//!   stop, or a stop runs out of retries, divert to the base station and
//!   re-enter the remainder as one base sortie (base → pending stops in
//!   tour order → base); stalls and degradation never divert. A base
//!   visit also resets a stop's transient charge failures, so no live
//!   sensor is stranded, at the price of extra mileage.
//!
//! Every policy repairs in place, on the executor's own network: a death
//! touches only the pending stop that holds the sensor, and only a stop
//! the death empties leaves the tour (counted abandoned).
//!
//! Execution is deterministic: the same `(plan, FaultModel, round,
//! policy)` produces a byte-identical [`ExecutionReport`].
//!
//! When a [`bc_obs`] recorder is active, the executor also emits one
//! `"exec"`-scoped event per realized timeline entry — `stop`,
//! `base_return`, `stop.abandoned`, `fault.death`, `replan` — carrying
//! the served counts, energy deltas and recovery decisions. All emitted
//! values are simulated quantities (never wall clock), so the event
//! stream inherits the executor's determinism.

use std::collections::VecDeque;
use std::fmt;

use bc_geom::Point;
use bc_units::{Joules, Meters, Seconds};
use bc_wsn::{Network, Sensor};

use crate::config::ConfigError;
use crate::faults::{FaultModel, FaultModelError, FaultSchedule};
use crate::plan::{ChargingPlan, PlanError, Stop};
use crate::{ChargingBundle, PlannerConfig};

/// How the executor reacts to faults that invalidate part of the plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecoveryPolicy {
    /// Drop what broke and keep driving the original tour.
    SkipAndContinue,
    /// Recentre each pending stop that loses a member on its survivors.
    ReplanRemaining,
    /// Divert to the base station and re-enter the remainder as one sortie.
    ReturnToBase,
}

impl RecoveryPolicy {
    /// All policies, in escalating order of recovery effort.
    pub const ALL: [RecoveryPolicy; 3] = [
        RecoveryPolicy::SkipAndContinue,
        RecoveryPolicy::ReplanRemaining,
        RecoveryPolicy::ReturnToBase,
    ];

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            RecoveryPolicy::SkipAndContinue => "skip",
            RecoveryPolicy::ReplanRemaining => "replan",
            RecoveryPolicy::ReturnToBase => "return-to-base",
        }
    }
}

impl fmt::Display for RecoveryPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Execution failed before the first stop: the inputs themselves are
/// unusable (faults never make execution *error* — they make it recover).
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// The plan does not validate against the network.
    Plan(PlanError),
    /// The planner configuration is invalid.
    Config(ConfigError),
    /// The fault model is invalid.
    Faults(FaultModelError),
    /// The charger speed is not a positive finite number.
    BadSpeed {
        /// The rejected speed (m/s).
        value: f64,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Plan(e) => write!(f, "invalid plan: {e}"),
            ExecError::Config(e) => write!(f, "invalid configuration: {e}"),
            ExecError::Faults(e) => write!(f, "invalid fault model: {e}"),
            ExecError::BadSpeed { value } => {
                write!(f, "charger speed must be positive and finite, got {value}")
            }
        }
    }
}

impl std::error::Error for ExecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExecError::Plan(e) => Some(e),
            ExecError::Config(e) => Some(e),
            ExecError::Faults(e) => Some(e),
            ExecError::BadSpeed { .. } => None,
        }
    }
}

impl From<PlanError> for ExecError {
    fn from(e: PlanError) -> Self {
        ExecError::Plan(e)
    }
}

impl From<ConfigError> for ExecError {
    fn from(e: ConfigError) -> Self {
        ExecError::Config(e)
    }
}

impl From<FaultModelError> for ExecError {
    fn from(e: FaultModelError) -> Self {
        ExecError::Faults(e)
    }
}

/// One executed leg + stop of the realized tour.
///
/// `plan_stop` ties the entry back to the plan's stop list; `None` marks
/// a recovery visit to the base station.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutedStop {
    /// Index of the stop in the original plan (`None` for base visits).
    pub plan_stop: Option<usize>,
    /// Where the charger actually parked (anchors move after replans).
    pub anchor: Point,
    /// Length of the leg driven into this stop.
    pub drive_m: Meters,
    /// Time spent driving that leg, including stalls.
    pub drive_s: Seconds,
    /// Retry backoff waited before charging started or was given up.
    pub backoff_s: Seconds,
    /// Realized dwell, including degradation stretch; `0` if the stop
    /// was abandoned.
    pub dwell_s: Seconds,
    /// Charge attempts made (`0` at base visits).
    pub attempts: u32,
    /// Charging efficiency realized at this stop (`1.0` = nominal).
    pub efficiency: f64,
    /// Original indices of the sensors fully charged here.
    pub served: Vec<usize>,
    /// Energy delivered to the served sensors.
    pub delivered_j: Joules,
}

impl ExecutedStop {
    /// A visit that charges nothing: a base return, a way-point or a stop
    /// given up on arrival.
    fn idle(plan_stop: Option<usize>, anchor: Point, drive_m: Meters, drive_s: Seconds) -> Self {
        ExecutedStop {
            plan_stop,
            anchor,
            drive_m,
            drive_s,
            backoff_s: Seconds(0.0),
            dwell_s: Seconds(0.0),
            attempts: 0,
            efficiency: 1.0,
            served: Vec::new(),
            delivered_j: Joules(0.0),
        }
    }
}

/// Everything one fault-injected round produced, both the per-stop
/// timeline (for lifetime replay) and the aggregate recovery metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionReport {
    /// Round the schedule was drawn for.
    pub round: u64,
    /// Policy that handled the faults.
    pub policy: RecoveryPolicy,
    /// The realized tour, in execution order.
    pub timeline: Vec<ExecutedStop>,
    /// Original indices of sensors that died during this round.
    pub fault_deaths: Vec<usize>,
    /// Live sensors the round failed to charge (sorted).
    pub stranded: Vec<usize>,
    /// Sensors fully charged this round (sorted).
    pub served: Vec<usize>,
    /// Charging stops in the input plan.
    pub stops_planned: usize,
    /// Stops that actually charged at least one sensor.
    pub stops_charged: usize,
    /// Planned charging stops abandoned (emptied by deaths or given up
    /// after exhausting retries).
    pub stops_abandoned: usize,
    /// Deaths, pre-dead sensors included, after which
    /// [`RecoveryPolicy::ReplanRemaining`] repaired a pending stop.
    pub replans: usize,
    /// Base-station visits made by [`RecoveryPolicy::ReturnToBase`].
    pub base_returns: usize,
    /// Total failed charge attempts absorbed by retries.
    pub retries: u32,
    /// Distance actually driven.
    pub distance_m: Meters,
    /// Wall-clock duration of the round.
    pub duration_s: Seconds,
    /// Time spent recovering: stall delays, retry backoff, degradation
    /// stretch and base detour legs.
    pub recovery_latency_s: Seconds,
    /// Movement energy actually spent.
    pub move_energy_j: Joules,
    /// Charging energy actually spent.
    pub charge_energy_j: Joules,
    /// Total energy actually spent.
    pub total_energy_j: Joules,
    /// Energy the plan would cost fault-free.
    pub nominal_energy_j: Joules,
    /// `total - nominal`; negative when deaths shrink the tour more
    /// than recovery costs.
    pub extra_energy_j: Joules,
}

impl ExecutionReport {
    /// Restricts the realized tour to the sensors it actually served and
    /// returns it as a standalone `(Network, ChargingPlan)` pair, with
    /// sensor indices remapped to the subnetwork.
    ///
    /// The pair satisfies [`ChargingPlan::validate`] by construction:
    /// every served sensor sits in exactly one executed stop, and
    /// realized dwells are never below what their members need (recovery
    /// only ever stretches them).
    pub fn served_subplan(&self, net: &Network) -> (Network, ChargingPlan) {
        let mut sub_idx = vec![usize::MAX; net.len()];
        let sensors: Vec<Sensor> = self
            .served
            .iter()
            .enumerate()
            .map(|(new, &orig)| {
                sub_idx[orig] = new;
                *net.sensor(orig)
            })
            .collect();
        let sub_net = Network::new(sensors, net.field(), net.base());
        let stops: Vec<Stop> = self
            .timeline
            .iter()
            .filter(|e| !e.served.is_empty())
            .map(|e| {
                let members: Vec<usize> = e.served.iter().map(|&s| sub_idx[s]).collect();
                Stop {
                    bundle: ChargingBundle::with_anchor(members, e.anchor, &sub_net),
                    dwell: e.dwell_s,
                }
            })
            .collect();
        let plan = ChargingPlan::new(stops, sub_net.len());
        (sub_net, plan)
    }
}

/// The tour item queue: plan stops still to visit (tagged with their
/// original stop index) plus recovery visits to the base station.
#[derive(Debug)]
enum Item {
    Visit { tag: usize, stop: Stop },
    Base,
}

/// Steps charging plans against fault schedules.
///
/// Built once per `(network, config)`; [`Executor::execute`] can then be
/// called for any number of plans, rounds and fault models.
#[derive(Debug, Clone)]
pub struct Executor<'a> {
    net: &'a Network,
    cfg: &'a PlannerConfig,
    speed_mps: f64,
    policy: RecoveryPolicy,
}

impl<'a> Executor<'a> {
    /// Creates an executor with a 1 m/s charger and the
    /// [`RecoveryPolicy::SkipAndContinue`] policy.
    pub fn new(net: &'a Network, cfg: &'a PlannerConfig) -> Self {
        Executor {
            net,
            cfg,
            speed_mps: 1.0,
            policy: RecoveryPolicy::SkipAndContinue,
        }
    }

    /// Sets the charger's driving speed (m/s).
    pub fn with_speed(mut self, speed_mps: f64) -> Self {
        self.speed_mps = speed_mps;
        self
    }

    /// Sets the recovery policy.
    pub fn with_policy(mut self, policy: RecoveryPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Executes one round of `plan` against the faults of `round`.
    ///
    /// # Errors
    ///
    /// Returns an [`ExecError`] when the configuration, fault model,
    /// speed or plan is invalid. Faults themselves never error — they
    /// are recovered from and reported.
    pub fn execute(
        &self,
        plan: &ChargingPlan,
        faults: &FaultModel,
        round: u64,
    ) -> Result<ExecutionReport, ExecError> {
        self.execute_with_dead(plan, faults, round, &[])
    }

    /// Like [`Executor::execute`], but with some sensors already dead
    /// when the round starts (their indices in `initially_dead`). Used
    /// by lifetime simulations that carry hardware deaths across rounds.
    /// On every call, each pre-dead sensor goes through the recovery
    /// policy before the charger departs, like a death at the first
    /// stop: it is *not* counted in `fault_deaths`, but under
    /// [`RecoveryPolicy::ReplanRemaining`] it counts one of `replans`.
    pub fn execute_with_dead(
        &self,
        plan: &ChargingPlan,
        faults: &FaultModel,
        round: u64,
        initially_dead: &[usize],
    ) -> Result<ExecutionReport, ExecError> {
        faults.validate()?;
        self.cfg.validate()?;
        if !self.speed_mps.is_finite() || self.speed_mps <= 0.0 {
            return Err(ExecError::BadSpeed {
                value: self.speed_mps,
            });
        }
        plan.validate(self.net, &self.cfg.charging)?;

        let schedule = faults.schedule(round, self.net.len(), plan.stops.len());
        let nominal = plan.metrics(&self.cfg.energy);

        let mut st = ExecState::new(self, plan, faults, round, schedule, nominal.total_energy_j);
        for &s in initially_dead {
            if s < st.dead.len() {
                st.apply_death(self, s, false);
            }
        }
        st.run(self);
        Ok(st.finish(plan))
    }
}

/// Mutable state of one execution round.
struct ExecState<'a> {
    round: u64,
    policy: RecoveryPolicy,
    faults: &'a FaultModel,
    schedule: FaultSchedule,
    pending: VecDeque<Item>,
    dead: Vec<bool>,
    charged: Vec<bool>,
    /// Deaths as `(execution step, sensor)`, sorted; `next_death`
    /// points at the first not-yet-fired entry.
    deaths: Vec<(usize, usize)>,
    next_death: usize,
    /// Stops whose transient failures were cleared by a base visit.
    attempts_cleared: Vec<bool>,
    step: usize,
    pos: Option<Point>,
    start_pos: Option<Point>,
    ended_at_base: bool,
    timeline: Vec<ExecutedStop>,
    fault_deaths: Vec<usize>,
    stops_abandoned: usize,
    replans: usize,
    base_returns: usize,
    retries: u32,
    distance_m: Meters,
    duration_s: Seconds,
    latency_s: Seconds,
    move_energy_j: Joules,
    charge_energy_j: Joules,
    nominal_energy_j: Joules,
}

impl<'a> ExecState<'a> {
    fn new(
        exec: &Executor<'a>,
        plan: &ChargingPlan,
        faults: &'a FaultModel,
        round: u64,
        schedule: FaultSchedule,
        nominal_energy_j: Joules,
    ) -> Self {
        let pending = plan
            .stops
            .iter()
            .enumerate()
            .map(|(tag, stop)| Item::Visit {
                tag,
                stop: stop.clone(),
            })
            .collect();
        let mut deaths: Vec<(usize, usize)> = schedule
            .deaths
            .iter()
            .enumerate()
            .filter_map(|(s, at)| at.map(|a| (a, s)))
            .collect();
        deaths.sort_unstable();
        ExecState {
            round,
            policy: exec.policy,
            faults,
            pending,
            dead: vec![false; exec.net.len()],
            charged: vec![false; exec.net.len()],
            deaths,
            next_death: 0,
            attempts_cleared: vec![false; plan.stops.len()],
            schedule,
            step: 0,
            pos: None,
            start_pos: None,
            ended_at_base: false,
            timeline: Vec::new(),
            fault_deaths: Vec::new(),
            stops_abandoned: 0,
            replans: 0,
            base_returns: 0,
            retries: 0,
            distance_m: Meters(0.0),
            duration_s: Seconds(0.0),
            latency_s: Seconds(0.0),
            move_energy_j: Joules(0.0),
            charge_energy_j: Joules(0.0),
            nominal_energy_j,
        }
    }

    fn run(&mut self, exec: &Executor<'_>) {
        loop {
            // Deaths fire while their stop is still in the queue, so the
            // policy can react before the charger departs.
            while self.next_death < self.deaths.len() && self.deaths[self.next_death].0 <= self.step
            {
                let (_, sensor) = self.deaths[self.next_death];
                self.next_death += 1;
                self.apply_death(exec, sensor, true);
            }
            let Some(item) = self.pending.pop_front() else {
                break;
            };
            match item {
                Item::Base => self.visit_base(exec),
                Item::Visit { tag, stop } => {
                    self.visit_stop(exec, tag, stop);
                    self.step += 1;
                }
            }
        }
        // Post-tour deaths (scheduled past the executed stops).
        while self.next_death < self.deaths.len() {
            let (_, sensor) = self.deaths[self.next_death];
            self.next_death += 1;
            self.apply_death(exec, sensor, true);
        }
        // Close the tour like the nominal metrics do, unless a recovery
        // already parked the charger at the base.
        if !self.ended_at_base {
            if let (Some(pos), Some(start)) = (self.pos, self.start_pos) {
                let d = pos.distance(start);
                self.distance_m += Meters(d);
                self.duration_s += Seconds(d / exec.speed_mps);
                self.move_energy_j += exec.cfg.energy.movement_energy(Meters(d));
            }
        }
    }

    /// Drives a leg with the given stall multiplier.
    fn drive(&mut self, exec: &Executor<'_>, to: Point, stall: f64) -> (Meters, Seconds) {
        let d = self.pos.map_or(0.0, |p| p.distance(to));
        let t = d / exec.speed_mps * stall;
        self.distance_m += Meters(d);
        self.duration_s += Seconds(t);
        self.latency_s += Seconds(d / exec.speed_mps * (stall - 1.0));
        self.move_energy_j += exec.cfg.energy.movement_energy(Meters(d));
        if self.start_pos.is_none() {
            self.start_pos = Some(to);
        }
        self.pos = Some(to);
        (Meters(d), Seconds(t))
    }

    fn visit_base(&mut self, exec: &Executor<'_>) {
        let (d, t) = self.drive(exec, exec.net.base(), 1.0);
        // The detour leg into the base is pure recovery time.
        self.latency_s += t;
        self.base_returns += 1;
        self.ended_at_base = true;
        if bc_obs::active() {
            bc_obs::event(
                "exec",
                "base_return",
                &[
                    bc_obs::Field::new("round", self.round),
                    bc_obs::Field::new("drive_m", d.0),
                    bc_obs::Field::new("returns", self.base_returns),
                ],
            );
        }
        self.timeline
            .push(ExecutedStop::idle(None, exec.net.base(), d, t));
    }

    fn visit_stop(&mut self, exec: &Executor<'_>, tag: usize, stop: Stop) {
        self.ended_at_base = false;
        let (d, t) = self.drive(exec, stop.anchor(), self.schedule.stalls[tag]);
        if stop.bundle.is_empty() {
            // Way-point (e.g. the base when include_base is set).
            self.timeline
                .push(ExecutedStop::idle(Some(tag), stop.anchor(), d, t));
            return;
        }
        let fails = if self.attempts_cleared[tag] {
            0
        } else {
            self.schedule.failed_attempts[tag]
        };
        let max_retries = self.faults.max_retries;
        if fails > max_retries {
            self.unrecoverable_stop(tag, stop, d, t, max_retries);
            return;
        }
        // `fails` transient failures, then one clean attempt; with the
        // transmitter off, backoff costs time but no energy.
        let backoff = self.faults.backoff_total(fails);
        self.retries += fails;
        self.duration_s += backoff;
        self.latency_s += backoff;
        let efficiency = self.schedule.degraded[tag].unwrap_or(1.0);
        // Stretch the dwell so every member still receives its demand:
        // delivered power scales by `efficiency`, and delivery is linear
        // in time, so `dwell / efficiency` compensates exactly.
        let dwell = stop.dwell / efficiency;
        let mut served = Vec::new();
        let mut delivered = Joules(0.0);
        for &m in &stop.bundle.sensors {
            if self.dead[m] || self.charged[m] {
                continue;
            }
            self.charged[m] = true;
            served.push(m);
            delivered += exec.net.sensor(m).demand;
        }
        self.duration_s += dwell;
        self.latency_s += dwell - stop.dwell;
        self.charge_energy_j += exec.cfg.energy.charging_energy(dwell);
        if bc_obs::active() {
            bc_obs::event(
                "exec",
                "stop",
                &[
                    bc_obs::Field::new("round", self.round),
                    bc_obs::Field::new("tag", tag),
                    bc_obs::Field::new("attempts", fails + 1),
                    bc_obs::Field::new("served", served.len()),
                    bc_obs::Field::new("dwell_s", dwell.0),
                    bc_obs::Field::new("delivered_j", delivered.0),
                    bc_obs::Field::new("efficiency", efficiency),
                ],
            );
            bc_obs::histogram("exec", "stop.dwell_s", dwell.0, &[]);
        }
        self.timeline.push(ExecutedStop {
            plan_stop: Some(tag),
            anchor: stop.anchor(),
            drive_m: d,
            drive_s: t,
            backoff_s: backoff,
            dwell_s: dwell,
            attempts: fails + 1,
            efficiency,
            served,
            delivered_j: delivered,
        });
    }

    /// A stop whose transient failures exceeded the retry budget.
    fn unrecoverable_stop(
        &mut self,
        tag: usize,
        stop: Stop,
        drive_m: Meters,
        drive_s: Seconds,
        max_retries: u32,
    ) {
        let attempts = max_retries + 1;
        let backoff = self.faults.backoff_total(max_retries);
        self.retries += attempts;
        self.duration_s += backoff;
        self.latency_s += backoff;
        if bc_obs::active() {
            bc_obs::event(
                "exec",
                "stop.abandoned",
                &[
                    bc_obs::Field::new("round", self.round),
                    bc_obs::Field::new("tag", tag),
                    bc_obs::Field::new("attempts", attempts),
                    bc_obs::Field::new("policy", self.policy.name()),
                ],
            );
        }
        self.timeline.push(ExecutedStop {
            backoff_s: backoff,
            attempts,
            ..ExecutedStop::idle(Some(tag), stop.anchor(), drive_m, drive_s)
        });
        match self.policy {
            RecoveryPolicy::SkipAndContinue | RecoveryPolicy::ReplanRemaining => {
                // Give up in place; live members stay stranded.
                self.stops_abandoned += 1;
            }
            RecoveryPolicy::ReturnToBase => {
                // A base visit resets the transient condition: re-queue
                // the stop and re-enter the remainder from the base.
                self.attempts_cleared[tag] = true;
                self.pending.push_front(Item::Visit { tag, stop });
                self.return_to_base();
            }
        }
    }

    /// Marks `sensor` dead and lets the policy repair the remainder.
    fn apply_death(&mut self, exec: &Executor<'_>, sensor: usize, new_death: bool) {
        if self.dead[sensor] {
            return;
        }
        self.dead[sensor] = true;
        if new_death {
            self.fault_deaths.push(sensor);
            if bc_obs::active() {
                bc_obs::event(
                    "exec",
                    "fault.death",
                    &[
                        bc_obs::Field::new("round", self.round),
                        bc_obs::Field::new("sensor", sensor),
                        bc_obs::Field::new("policy", self.policy.name()),
                    ],
                );
            }
        }
        if !self.repair_pending(exec, sensor) {
            return;
        }
        match self.policy {
            RecoveryPolicy::SkipAndContinue => {}
            RecoveryPolicy::ReturnToBase => self.return_to_base(),
            RecoveryPolicy::ReplanRemaining => {
                self.replans += 1;
                if bc_obs::active() {
                    bc_obs::event(
                        "exec",
                        "replan",
                        &[
                            bc_obs::Field::new("round", self.round),
                            bc_obs::Field::new("revision", self.replans),
                            bc_obs::Field::new("stops", self.pending.len()),
                        ],
                    );
                }
            }
        }
    }

    /// Removes dead `sensor` from the pending stops that hold it and
    /// returns whether there was one. A stop the removal empties leaves
    /// the queue and counts abandoned; any other keeps its survivors,
    /// with the dwell they need. [`RecoveryPolicy::ReplanRemaining`]
    /// recentres their anchor on the smallest disk enclosing them
    /// (Definition 2); the other policies keep it.
    fn repair_pending(&mut self, exec: &Executor<'_>, sensor: usize) -> bool {
        let recentre = self.policy == RecoveryPolicy::ReplanRemaining;
        let mut held = false;
        self.pending.retain_mut(|it| {
            let Item::Visit { stop, .. } = it else {
                return true;
            };
            let Some(at) = stop.bundle.sensors.iter().position(|&m| m == sensor) else {
                return true;
            };
            held = true;
            let mut members = std::mem::take(&mut stop.bundle.sensors);
            members.remove(at);
            if members.is_empty() {
                self.stops_abandoned += 1;
                return false;
            }
            let bundle = if recentre {
                ChargingBundle::from_members(members, exec.net)
            } else {
                ChargingBundle::with_anchor(members, stop.bundle.anchor, exec.net)
            };
            *stop = Stop::for_bundle(bundle, exec.net, &exec.cfg.charging);
            true
        });
        held
    }

    /// Re-enters the remainder as one base sortie (the
    /// [`RecoveryPolicy::ReturnToBase`] detour): the pending charging
    /// stops keep their tour order between a base visit in front, when
    /// any remain, and one at the back. Way-points drop out. With no
    /// bound on a sortie's energy this is the best split of the
    /// remainder, since a cut between stops x and y adds
    /// |x b| + |b y| − |x y| ≥ 0 of driving through the base b.
    fn return_to_base(&mut self) {
        self.pending
            .retain(|it| matches!(it, Item::Visit { stop, .. } if !stop.bundle.is_empty()));
        if !self.pending.is_empty() {
            self.pending.push_front(Item::Base);
        }
        self.pending.push_back(Item::Base);
    }

    fn finish(self, plan: &ChargingPlan) -> ExecutionReport {
        let served: Vec<usize> = (0..self.charged.len())
            .filter(|&s| self.charged[s])
            .collect();
        // Stranded: sensors the plan promised to charge that are still
        // alive but went uncharged.
        let mut planned = vec![false; self.dead.len()];
        for stop in &plan.stops {
            for &m in &stop.bundle.sensors {
                planned[m] = true;
            }
        }
        let stranded: Vec<usize> = (0..self.dead.len())
            .filter(|&s| planned[s] && !self.dead[s] && !self.charged[s])
            .collect();
        let total = self.move_energy_j + self.charge_energy_j;
        let stops_charged = self
            .timeline
            .iter()
            .filter(|e| !e.served.is_empty())
            .count();
        let report = ExecutionReport {
            round: self.round,
            policy: self.policy,
            fault_deaths: self.fault_deaths,
            stranded,
            served,
            stops_planned: plan.num_charging_stops(),
            stops_charged,
            stops_abandoned: self.stops_abandoned,
            replans: self.replans,
            base_returns: self.base_returns,
            retries: self.retries,
            distance_m: self.distance_m,
            duration_s: self.duration_s,
            recovery_latency_s: self.latency_s,
            move_energy_j: self.move_energy_j,
            charge_energy_j: self.charge_energy_j,
            total_energy_j: total,
            nominal_energy_j: self.nominal_energy_j,
            extra_energy_j: total - self.nominal_energy_j,
            timeline: self.timeline,
        };
        crate::contracts::debug_assert_report_energy(&report);
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::{try_run, Algorithm};
    use bc_geom::Aabb;
    use bc_wsn::deploy;

    fn setup(n: usize, seed: u64) -> (Network, PlannerConfig, ChargingPlan) {
        let net = deploy::uniform(n, Aabb::square(300.0), 2.0, seed);
        let cfg = PlannerConfig::paper_sim(30.0);
        let plan = try_run(Algorithm::Bc, &net, &cfg).unwrap();
        (net, cfg, plan)
    }

    #[test]
    fn fault_free_execution_matches_nominal() {
        let (net, cfg, plan) = setup(40, 11);
        let exec = Executor::new(&net, &cfg);
        let rep = exec.execute(&plan, &FaultModel::none(), 0).unwrap();
        assert!(
            rep.extra_energy_j.abs() < Joules(1e-6),
            "extra {}",
            rep.extra_energy_j
        );
        assert_eq!(rep.recovery_latency_s, Seconds(0.0));
        assert_eq!(rep.served.len(), 40);
        assert!(rep.stranded.is_empty());
        assert!(rep.fault_deaths.is_empty());
        assert_eq!(rep.stops_charged, plan.num_charging_stops());
        assert!((rep.distance_m - plan.tour_length()).abs() < Meters(1e-6));
    }

    #[test]
    fn execution_is_deterministic() {
        let (net, cfg, plan) = setup(50, 21);
        let fm = FaultModel::with_rate(77, 0.35);
        for policy in RecoveryPolicy::ALL {
            let exec = Executor::new(&net, &cfg)
                .with_policy(policy)
                .with_speed(2.0);
            let a = exec.execute(&plan, &fm, 3).unwrap();
            let b = exec.execute(&plan, &fm, 3).unwrap();
            assert_eq!(
                format!("{a:?}"),
                format!("{b:?}"),
                "{policy} not deterministic"
            );
        }
    }

    #[test]
    fn every_policy_accounts_for_every_sensor() {
        let (net, cfg, plan) = setup(60, 31);
        let fm = FaultModel::with_rate(5, 0.4);
        for policy in RecoveryPolicy::ALL {
            let exec = Executor::new(&net, &cfg).with_policy(policy);
            let rep = exec.execute(&plan, &fm, 1).unwrap();
            // served, stranded and dead partition the sensor set.
            let mut seen = vec![0u32; net.len()];
            for &s in &rep.served {
                seen[s] += 1;
            }
            for &s in &rep.stranded {
                seen[s] += 1;
            }
            for &s in &rep.fault_deaths {
                // A sensor charged before dying is both served and dead.
                if !rep.served.contains(&s) {
                    seen[s] += 1;
                }
            }
            assert!(
                seen.iter().all(|&c| c == 1),
                "{policy}: sensor accounting broken: {seen:?}"
            );
            assert!(rep.total_energy_j.is_finite() && rep.total_energy_j >= Joules(0.0));
            assert!(rep.recovery_latency_s >= Seconds(0.0));
        }
    }

    #[test]
    fn served_subplan_validates_under_all_policies() {
        let (net, cfg, plan) = setup(45, 41);
        let fm = FaultModel::with_rate(9, 0.5);
        for policy in RecoveryPolicy::ALL {
            let exec = Executor::new(&net, &cfg).with_policy(policy);
            let rep = exec.execute(&plan, &fm, 2).unwrap();
            let (sub_net, sub_plan) = rep.served_subplan(&net);
            sub_plan
                .validate(&sub_net, &cfg.charging)
                .unwrap_or_else(|e| panic!("{policy}: served subplan invalid: {e}"));
        }
    }

    #[test]
    fn return_to_base_rescues_jammed_stops() {
        let (net, cfg, plan) = setup(30, 51);
        // Every stop jams beyond the retry budget.
        let fm = FaultModel {
            charge_fail_prob: 1.0,
            max_retries: 1,
            ..FaultModel::none()
        };
        let skip = Executor::new(&net, &cfg)
            .with_policy(RecoveryPolicy::SkipAndContinue)
            .execute(&plan, &fm, 0)
            .unwrap();
        assert_eq!(skip.served.len(), 0, "skip should strand everyone");
        assert_eq!(skip.stranded.len(), 30);
        assert!(skip.retries > 0);

        let rtb = Executor::new(&net, &cfg)
            .with_policy(RecoveryPolicy::ReturnToBase)
            .execute(&plan, &fm, 0)
            .unwrap();
        assert_eq!(rtb.served.len(), 30, "base resets must rescue everyone");
        assert!(rtb.stranded.is_empty());
        assert!(rtb.base_returns > 0);
        assert!(
            rtb.total_energy_j > skip.total_energy_j,
            "rescue must cost energy: rtb {} vs skip {}",
            rtb.total_energy_j,
            skip.total_energy_j
        );
    }

    #[test]
    fn replan_shrinks_tour_after_deaths() {
        let (net, cfg, plan) = setup(50, 61);
        let fm = FaultModel {
            death_prob: 0.4,
            ..FaultModel::with_rate(13, 0.0)
        };
        let rep = Executor::new(&net, &cfg)
            .with_policy(RecoveryPolicy::ReplanRemaining)
            .execute(&plan, &fm, 0)
            .unwrap();
        assert!(
            !rep.fault_deaths.is_empty(),
            "this seed should kill sensors"
        );
        assert!(rep.replans > 0);
        // Deaths only: every survivor the tour still reaches is charged.
        assert!(
            rep.stranded.is_empty(),
            "replan strands no one: {:?}",
            rep.stranded
        );
    }

    /// A BC plan of 30 sensors at r = 10 m whose tour starts at the base
    /// way-point.
    fn setup_with_base() -> (Network, PlannerConfig, ChargingPlan) {
        let net = deploy::uniform(30, Aabb::square(300.0), 2.0, 5);
        let mut cfg = PlannerConfig::paper_sim(10.0);
        cfg.include_base = true;
        let plan = try_run(Algorithm::Bc, &net, &cfg).unwrap();
        assert!(plan.stops[0].bundle.is_empty(), "stop 0 is the way-point");
        (net, cfg, plan)
    }

    #[test]
    fn emptying_a_stop_keeps_the_waypoint() {
        let (net, cfg, plan) = setup_with_base();
        let lone = plan.stops.iter().find(|s| s.bundle.len() == 1).unwrap();
        let dead = [lone.bundle.sensors[0]];
        for policy in [
            RecoveryPolicy::SkipAndContinue,
            RecoveryPolicy::ReplanRemaining,
        ] {
            let rep = Executor::new(&net, &cfg)
                .with_policy(policy)
                .execute_with_dead(&plan, &FaultModel::none(), 0, &dead)
                .unwrap();
            assert_eq!(rep.stops_abandoned, 1, "{policy}");
            assert_eq!(rep.timeline.len(), plan.stops.len() - 1, "{policy}");
            assert_eq!(rep.timeline[0].plan_stop, Some(0), "{policy}");
        }
    }

    #[test]
    fn return_to_base_reenters_every_stop_past_the_waypoint() {
        let (net, cfg, plan) = setup_with_base();
        let shared = plan.stops.iter().find(|s| s.bundle.len() >= 2).unwrap();
        let rep = Executor::new(&net, &cfg)
            .with_policy(RecoveryPolicy::ReturnToBase)
            .execute_with_dead(&plan, &FaultModel::none(), 0, &shared.bundle.sensors[..1])
            .unwrap();
        assert!(rep.stranded.is_empty(), "stranded {:?}", rep.stranded);
        assert_eq!(rep.served.len(), 29);
        // The sortie starts at the base, so the way-point drops out and
        // each charging stop is visited once.
        let mut tags: Vec<usize> = rep.timeline.iter().filter_map(|e| e.plan_stop).collect();
        tags.sort_unstable();
        let charging: Vec<usize> = (1..plan.stops.len()).collect();
        assert_eq!(tags, charging);
    }

    #[test]
    fn degradation_stretches_dwell_not_strands() {
        let (net, cfg, plan) = setup(25, 71);
        let fm = FaultModel {
            degrade_prob: 1.0,
            degrade_floor: 0.5,
            ..FaultModel::none()
        };
        let rep = Executor::new(&net, &cfg).execute(&plan, &fm, 0).unwrap();
        assert_eq!(rep.served.len(), 25);
        assert!(
            rep.recovery_latency_s > Seconds(0.0),
            "degradation must cost time"
        );
        assert!(
            rep.extra_energy_j > Joules(0.0),
            "longer dwells must cost energy"
        );
        for e in rep.timeline.iter().filter(|e| !e.served.is_empty()) {
            assert!(e.efficiency < 1.0);
        }
    }

    #[test]
    fn initially_dead_are_not_new_deaths() {
        let (net, cfg, plan) = setup(20, 81);
        let exec = Executor::new(&net, &cfg);
        let rep = exec
            .execute_with_dead(&plan, &FaultModel::none(), 0, &[3, 7])
            .unwrap();
        assert!(rep.fault_deaths.is_empty());
        assert_eq!(rep.served.len(), 18);
        assert!(!rep.served.contains(&3) && !rep.served.contains(&7));
        assert!(rep.stranded.is_empty());
    }

    #[test]
    fn invalid_inputs_are_typed_errors() {
        let (net, cfg, plan) = setup(10, 91);
        let mut bad_fm = FaultModel::none();
        bad_fm.death_prob = 2.0;
        let exec = Executor::new(&net, &cfg);
        assert!(matches!(
            exec.execute(&plan, &bad_fm, 0),
            Err(ExecError::Faults(_))
        ));
        assert!(matches!(
            Executor::new(&net, &cfg)
                .with_speed(0.0)
                .execute(&plan, &FaultModel::none(), 0),
            Err(ExecError::BadSpeed { .. })
        ));
        let bad_cfg = PlannerConfig::paper_sim(-1.0);
        assert!(matches!(
            Executor::new(&net, &bad_cfg).execute(&plan, &FaultModel::none(), 0),
            Err(ExecError::Config(_))
        ));
        let mut broken = plan.clone();
        broken.stops.pop();
        let err = exec.execute(&broken, &FaultModel::none(), 0).unwrap_err();
        assert!(matches!(err, ExecError::Plan(_)));
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn stall_costs_time_but_not_energy() {
        let (net, cfg, plan) = setup(20, 101);
        let fm = FaultModel {
            stall_prob: 1.0,
            stall_slowdown_max: 1.0,
            ..FaultModel::none()
        };
        let clean = Executor::new(&net, &cfg)
            .execute(&plan, &FaultModel::none(), 0)
            .unwrap();
        let stalled = Executor::new(&net, &cfg).execute(&plan, &fm, 0).unwrap();
        assert!(stalled.duration_s > clean.duration_s);
        assert!((stalled.total_energy_j - clean.total_energy_j).abs() < Joules(1e-9));
        assert!(stalled.recovery_latency_s > Seconds(0.0));
    }
}
