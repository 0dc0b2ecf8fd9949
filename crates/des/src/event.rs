//! Event vocabulary of the simulation.
//!
//! Events are small `Copy` records; everything bulky (segment payloads,
//! served-sensor sets) lives in engine state and is referenced by index.
//! Sensor-battery events carry a per-sensor *generation* counter: every
//! recharge bumps the sensor's generation, so battery events scheduled
//! against a stale trajectory are recognized and dropped when they fire,
//! instead of being chased down and deleted from the heap.

/// A single discrete event kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A sensor's battery trajectory crossed the low-battery trigger level.
    /// Stale if the sensor's generation no longer matches `gen`.
    LowBattery {
        /// Sensor index in the scenario's network.
        sensor: usize,
        /// Battery-trajectory generation this event was computed from.
        gen: u64,
    },
    /// A sensor's battery trajectory reached zero energy.
    /// Stale if the sensor's generation no longer matches `gen`.
    Depleted {
        /// Sensor index in the scenario's network.
        sensor: usize,
        /// Battery-trajectory generation this event was computed from.
        gen: u64,
    },
    /// The low-battery threshold condition was met while the charger was idle:
    /// dispatch a charging round (re-checked when the event fires).
    Dispatch,
    /// A charger finished the leg into segment `seg` of its current route.
    Arrival {
        /// Index of the charger (0: a run drives one charger).
        charger: usize,
        /// Index into the charger's current segment list.
        seg: usize,
    },
    /// A charger finished backoff + dwell at segment `seg`; batteries of the
    /// segment's still-live served sensors are refilled at this instant.
    ChargingComplete {
        /// Index of the charger (0: a run drives one charger).
        charger: usize,
        /// Index into the charger's current segment list.
        seg: usize,
    },
    /// A charger finished its closing leg and went idle at the base station.
    Returned {
        /// Index of the charger (0: a run drives one charger).
        charger: usize,
    },
    /// A hardware fault (replayed from `bc-core::faults`) killed a sensor.
    /// Scheduled at the end of the round whose execution
    /// (`bc-core::execute`) reported the death.
    FaultDeath {
        /// Sensor index in the scenario's network.
        sensor: usize,
    },
}

impl Event {
    /// Short stable label for traces and telemetry.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Event::LowBattery { .. } => "low-battery",
            Event::Depleted { .. } => "depleted",
            Event::Dispatch => "dispatch",
            Event::Arrival { .. } => "arrival",
            Event::ChargingComplete { .. } => "charging-complete",
            Event::Returned { .. } => "returned",
            Event::FaultDeath { .. } => "fault-death",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_stable() {
        assert_eq!(Event::Dispatch.kind(), "dispatch");
        assert_eq!(
            Event::LowBattery { sensor: 0, gen: 1 }.kind(),
            "low-battery"
        );
        assert_eq!(Event::Returned { charger: 2 }.kind(), "returned");
    }
}
