//! Scenario description: everything a simulation run depends on.
//!
//! A [`Scenario`] bundles the network, the operating horizon, the energy
//! parameters and the (optional) fault model of one mobile charger's
//! run into one value. Two equal scenarios produce byte-identical event
//! traces — the engine has no other inputs and no hidden randomness.

use crate::clock;
use crate::queue::QueueBackend;
use bc_core::execute::RecoveryPolicy;
use bc_core::faults::{FaultModel, FaultModelError};
use bc_core::planner::Algorithm;
use bc_core::PlannerConfig;
use bc_units::{Joules, MetersPerSecond, Seconds, Watts};
use bc_wsn::Network;
use std::fmt;

/// A complete, self-contained simulation input.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The sensor network (positions; per-sensor demand is taken to be
    /// `battery_j`, a full recharge).
    pub net: Network,
    /// Operating horizon.
    pub horizon_s: Seconds,
    /// Constant per-sensor drain power.
    pub drain_w: Watts,
    /// Sensor battery capacity. Recharges are clamped here.
    pub battery_j: Joules,
    /// Dispatch a round once this many sensors are at or below
    /// `trigger_level_j` (≥ 1; effectively capped at the network size).
    pub trigger_count: usize,
    /// Low-battery trigger level.
    pub trigger_level_j: Joules,
    /// Charger travel speed.
    pub speed_mps: MetersPerSecond,
    /// Planning algorithm for charging tours.
    pub algorithm: Algorithm,
    /// Planner environment (bundle radius, charging model, energy model).
    pub planner: PlannerConfig,
    /// Fault model replayed each round (`None` = perfect execution).
    pub faults: Option<FaultModel>,
    /// Recovery policy for fault-injected rounds.
    pub recovery: RecoveryPolicy,
    /// Capacity of the event-trace ring buffer (0 disables tracing).
    pub trace_capacity: usize,
    /// Future-event-queue backend. Backend choice affects throughput
    /// only; pop order — and therefore the trace — is identical.
    pub queue: QueueBackend,
}

impl Scenario {
    /// The paper's Section VI lifetime environment: 24 h horizon, 0.2 mW
    /// drain, 2 J batteries, trigger when a quarter of the network drops
    /// to 1 J, a 1 m/s charger.
    #[must_use]
    pub fn paper_sim(net: Network, bundle_radius: f64, algorithm: Algorithm) -> Self {
        let n = net.len();
        Scenario {
            net,
            horizon_s: clock::hours(24.0),
            drain_w: Watts(2e-4),
            battery_j: Joules(2.0),
            trigger_count: (n / 4).max(1),
            trigger_level_j: Joules(1.0),
            speed_mps: MetersPerSecond(1.0),
            algorithm,
            planner: PlannerConfig::paper_sim(bundle_radius),
            faults: None,
            recovery: RecoveryPolicy::SkipAndContinue,
            trace_capacity: 256,
            queue: QueueBackend::BinaryHeap,
        }
    }

    /// Selects the future-event-queue backend.
    #[must_use]
    pub fn with_queue(mut self, queue: QueueBackend) -> Self {
        self.queue = queue;
        self
    }

    /// Injects faults into every round, recovered from with `recovery`.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultModel, recovery: RecoveryPolicy) -> Self {
        self.faults = Some(faults);
        self.recovery = recovery;
        self
    }

    /// Validates the scenario.
    ///
    /// # Errors
    ///
    /// A [`ScenarioError`] naming the first offending field.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        if !(self.horizon_s > Seconds::ZERO && self.horizon_s.is_finite()) {
            return Err(ScenarioError::Horizon(self.horizon_s));
        }
        if !(self.speed_mps.get() > 0.0 && self.speed_mps.is_finite()) {
            return Err(ScenarioError::Speed(self.speed_mps));
        }
        if !(self.battery_j.get() > 0.0 && self.battery_j.is_finite()) {
            return Err(ScenarioError::Battery(self.battery_j));
        }
        if !(self.drain_w.get() >= 0.0 && self.drain_w.is_finite()) {
            return Err(ScenarioError::Drain(self.drain_w));
        }
        if !(self.trigger_level_j.get() >= 0.0 && self.trigger_level_j.is_finite()) {
            return Err(ScenarioError::TriggerLevel(self.trigger_level_j));
        }
        if self.trigger_count == 0 {
            return Err(ScenarioError::TriggerCount);
        }
        if let Some(fm) = &self.faults {
            fm.validate().map_err(ScenarioError::Faults)?;
        }
        Ok(())
    }
}

/// Why a [`Scenario`] was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// Horizon must be positive and finite.
    Horizon(Seconds),
    /// Charger speed must be positive and finite.
    Speed(MetersPerSecond),
    /// Battery capacity must be positive and finite.
    Battery(Joules),
    /// Drain power must be non-negative and finite.
    Drain(Watts),
    /// Trigger level must be non-negative and finite.
    TriggerLevel(Joules),
    /// Trigger count must be at least 1.
    TriggerCount,
    /// The fault model is invalid.
    Faults(FaultModelError),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Horizon(h) => write!(f, "horizon must be positive, got {h}"),
            ScenarioError::Speed(s) => write!(f, "speed must be positive, got {s}"),
            ScenarioError::Battery(b) => write!(f, "battery must be positive, got {b}"),
            ScenarioError::Drain(d) => write!(f, "drain must be non-negative, got {d}"),
            ScenarioError::TriggerLevel(l) => {
                write!(f, "trigger level must be non-negative, got {l}")
            }
            ScenarioError::TriggerCount => write!(f, "trigger count must be at least 1"),
            ScenarioError::Faults(e) => write!(f, "invalid fault model: {e}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

#[cfg(test)]
mod tests {
    use super::*;
    use bc_geom::Aabb;
    use bc_wsn::deploy;

    fn net() -> Network {
        deploy::uniform(10, Aabb::square(200.0), 2.0, 7)
    }

    #[test]
    fn paper_sim_validates() {
        let s = Scenario::paper_sim(net(), 10.0, Algorithm::Bc);
        assert!(s.validate().is_ok());
    }

    #[test]
    fn rejects_bad_fields() {
        let mut s = Scenario::paper_sim(net(), 10.0, Algorithm::Bc);
        s.horizon_s = Seconds::ZERO;
        assert!(matches!(s.validate(), Err(ScenarioError::Horizon(_))));

        let mut s = Scenario::paper_sim(net(), 10.0, Algorithm::Bc);
        s.trigger_count = 0;
        assert_eq!(s.validate(), Err(ScenarioError::TriggerCount));

        let mut s = Scenario::paper_sim(net(), 10.0, Algorithm::Bc);
        s.speed_mps = MetersPerSecond(0.0);
        assert!(matches!(s.validate(), Err(ScenarioError::Speed(_))));
    }

    #[test]
    fn builders_compose() {
        let s = Scenario::paper_sim(net(), 10.0, Algorithm::BcOpt)
            .with_faults(FaultModel::with_rate(1, 0.1), RecoveryPolicy::ReturnToBase)
            .with_queue(QueueBackend::Calendar);
        assert_eq!(s.recovery, RecoveryPolicy::ReturnToBase);
        assert!(s.faults.is_some());
        assert_eq!(s.queue, QueueBackend::Calendar);
        assert!(s.validate().is_ok());
    }
}
