//! Charging plans: ordered stops, energy accounting and validation.

use std::fmt;

use bc_geom::Point;
use bc_units::{Joules, Meters, Seconds};
use bc_wpt::{ChargingModel, EnergyModel};
use bc_wsn::Network;

use crate::ChargingBundle;

/// One stop of the charging tour: the charger parks at
/// `bundle.anchor` and transmits for `dwell`.
#[derive(Debug, Clone, PartialEq)]
pub struct Stop {
    /// The bundle served at this stop.
    pub bundle: ChargingBundle,
    /// Dwell time.
    pub dwell: Seconds,
}

impl Stop {
    /// Creates a stop for a bundle, computing the dwell time that fully
    /// charges every member (the per-bundle worst case of the paper).
    pub fn for_bundle(bundle: ChargingBundle, net: &Network, model: &ChargingModel) -> Self {
        let dwell = bundle.dwell_time(net, model);
        Stop { bundle, dwell }
    }

    /// Position of the stop.
    pub fn anchor(&self) -> Point {
        self.bundle.anchor
    }
}

/// A complete closed charging tour.
///
/// Stops are listed in visit order; the charger returns from the last
/// stop to the first. Every planner produces one of these, and all
/// metrics in the evaluation are derived from it via
/// [`ChargingPlan::metrics`].
#[derive(Debug, Clone, PartialEq)]
pub struct ChargingPlan {
    /// Stops in visit order.
    pub stops: Vec<Stop>,
    /// Number of sensors the plan serves (for per-sensor averages).
    pub num_sensors: usize,
}

/// Scalar summary of a plan under an energy model — the quantities
/// plotted in Figs. 6 and 12–16.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metrics {
    /// Number of charging stops (bundles).
    pub num_stops: usize,
    /// Closed tour length.
    pub tour_length_m: Meters,
    /// Total charging (dwell) time.
    pub charge_time_s: Seconds,
    /// Movement energy.
    pub move_energy_j: Joules,
    /// Charging energy.
    pub charge_energy_j: Joules,
    /// Total operating energy — the BTO objective.
    pub total_energy_j: Joules,
    /// Total charging time divided by the number of sensors.
    pub avg_charge_time_per_sensor_s: Seconds,
}

/// A plan failed validation, or a planning operation was given input it
/// cannot produce a plan for.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// Some sensor is not assigned to any stop.
    Unassigned {
        /// Index of the first unassigned sensor.
        sensor: usize,
    },
    /// The planner configuration is invalid (see
    /// [`crate::PlannerConfig::validate`]).
    Config(crate::config::ConfigError),
    /// A sensor index does not exist in the network.
    SensorOutOfBounds {
        /// The offending index.
        sensor: usize,
        /// Number of sensors in the network.
        len: usize,
    },
    /// A sensor's energy demand is not a non-negative finite number.
    InvalidDemand {
        /// The rejected demand.
        value: Joules,
    },
    /// A sensor is assigned to more than one stop.
    DuplicateAssignment {
        /// The offending sensor.
        sensor: usize,
    },
    /// A stop's dwell time undercharges its worst member.
    Undercharged {
        /// Index of the stop in visit order.
        stop: usize,
        /// The undercharged sensor.
        sensor: usize,
        /// Energy actually delivered.
        delivered: Joules,
        /// Energy demanded.
        demanded: Joules,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::Unassigned { sensor } => {
                write!(f, "sensor {sensor} is not served by any stop")
            }
            PlanError::Config(err) => write!(f, "invalid planner configuration: {err}"),
            PlanError::SensorOutOfBounds { sensor, len } => {
                write!(
                    f,
                    "sensor index {sensor} is out of bounds for a network of {len}"
                )
            }
            PlanError::InvalidDemand { value } => {
                write!(
                    f,
                    "sensor demand must be non-negative and finite, got {} J",
                    value.0
                )
            }
            PlanError::DuplicateAssignment { sensor } => {
                write!(f, "sensor {sensor} is assigned to multiple stops")
            }
            PlanError::Undercharged {
                stop,
                sensor,
                delivered,
                demanded,
            } => write!(
                f,
                "stop {stop} delivers {:.6} J to sensor {sensor}, below demand {:.6} J",
                delivered.0, demanded.0
            ),
        }
    }
}

impl std::error::Error for PlanError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PlanError::Config(err) => Some(err),
            _ => None,
        }
    }
}

impl From<crate::config::ConfigError> for PlanError {
    fn from(err: crate::config::ConfigError) -> Self {
        PlanError::Config(err)
    }
}

impl ChargingPlan {
    /// Builds a plan from ordered stops.
    pub fn new(stops: Vec<Stop>, num_sensors: usize) -> Self {
        ChargingPlan { stops, num_sensors }
    }

    /// Number of stops with a non-empty bundle.
    pub fn num_charging_stops(&self) -> usize {
        self.stops.iter().filter(|s| !s.bundle.is_empty()).count()
    }

    /// Length of the closed tour through the stops.
    pub fn tour_length(&self) -> Meters {
        let n = self.stops.len();
        if n < 2 {
            return Meters(0.0);
        }
        let mut total = 0.0;
        for i in 0..n {
            total += self.stops[i]
                .anchor()
                .distance(self.stops[(i + 1) % n].anchor());
        }
        Meters(total)
    }

    /// Total dwell time across all stops.
    pub fn total_dwell(&self) -> Seconds {
        self.stops.iter().map(|s| s.dwell).sum()
    }

    /// Computes the scalar metrics of the plan under an energy model.
    pub fn metrics(&self, energy: &EnergyModel) -> Metrics {
        let tour = self.tour_length();
        let dwell = self.total_dwell();
        let move_energy = energy.movement_energy(tour);
        let charge_energy = energy.charging_energy(dwell);
        Metrics {
            num_stops: self.num_charging_stops(),
            tour_length_m: tour,
            charge_time_s: dwell,
            move_energy_j: move_energy,
            charge_energy_j: charge_energy,
            total_energy_j: move_energy + charge_energy,
            avg_charge_time_per_sensor_s: if self.num_sensors == 0 {
                Seconds(0.0)
            } else {
                dwell / self.num_sensors as f64 // cast-ok: sensor count to mean divisor
            },
        }
    }

    /// Validates the plan against its network: every member names a
    /// sensor of the network, every sensor is served by exactly one stop,
    /// and every stop's dwell time delivers at least the demanded energy
    /// to each of its members.
    ///
    /// # Errors
    ///
    /// Returns the first [`PlanError`] found.
    pub fn validate(&self, net: &Network, model: &ChargingModel) -> Result<(), PlanError> {
        self.assigned_stops(net.len())?;
        for (si, stop) in self.stops.iter().enumerate() {
            for &s in &stop.bundle.sensors {
                let d = stop.bundle.member_distance(s, net);
                let delivered = model.delivered_energy(d, stop.dwell);
                let demanded = net.sensor(s).demand;
                if delivered + Joules(1e-9) < demanded {
                    return Err(PlanError::Undercharged {
                        stop: si,
                        sensor: s,
                        delivered,
                        demanded,
                    });
                }
            }
        }
        Ok(())
    }

    /// The stop serving each of `len` sensors, checked: every member
    /// names a sensor of the network, serves in one stop only, and every
    /// sensor has a stop.
    ///
    /// # Errors
    ///
    /// [`PlanError::SensorOutOfBounds`] or
    /// [`PlanError::DuplicateAssignment`] for the first such member in
    /// stop order, else [`PlanError::Unassigned`] for the first sensor
    /// no stop serves.
    pub(crate) fn assigned_stops(&self, len: usize) -> Result<Vec<usize>, PlanError> {
        let mut assigned = vec![usize::MAX; len];
        for (si, stop) in self.stops.iter().enumerate() {
            for &sensor in &stop.bundle.sensors {
                match assigned.get_mut(sensor) {
                    None => return Err(PlanError::SensorOutOfBounds { sensor, len }),
                    Some(&mut at) if at != usize::MAX => {
                        return Err(PlanError::DuplicateAssignment { sensor })
                    }
                    Some(at) => *at = si,
                }
            }
        }
        match assigned.iter().position(|&at| at == usize::MAX) {
            Some(sensor) => Err(PlanError::Unassigned { sensor }),
            None => Ok(assigned),
        }
    }
}

impl fmt::Display for ChargingPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ChargingPlan({} stops, tour {:.1}, dwell {:.1})",
            self.num_charging_stops(),
            self.tour_length(),
            self.total_dwell()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bc_geom::Aabb;
    use bc_wsn::deploy;

    fn make_plan(net: &Network, model: &ChargingModel) -> ChargingPlan {
        // One singleton stop per sensor, in index order.
        let stops = (0..net.len())
            .map(|i| Stop::for_bundle(ChargingBundle::from_members(vec![i], net), net, model))
            .collect();
        ChargingPlan::new(stops, net.len())
    }

    #[test]
    fn valid_singleton_plan() {
        let net = deploy::uniform(10, Aabb::square(100.0), 2.0, 1);
        let model = ChargingModel::paper_sim();
        let plan = make_plan(&net, &model);
        assert!(plan.validate(&net, &model).is_ok());
        assert_eq!(plan.num_charging_stops(), 10);
    }

    #[test]
    fn metrics_add_up() {
        let net = deploy::uniform(5, Aabb::square(100.0), 2.0, 2);
        let model = ChargingModel::paper_sim();
        let energy = EnergyModel::new(2.0, 3.0);
        let plan = make_plan(&net, &model);
        let m = plan.metrics(&energy);
        assert!(
            (m.total_energy_j - m.move_energy_j - m.charge_energy_j)
                .abs()
                .0
                < 1e-9
        );
        assert!((m.move_energy_j.0 - 2.0 * m.tour_length_m.0).abs() < 1e-9);
        assert!((m.charge_energy_j.0 - 3.0 * m.charge_time_s.0).abs() < 1e-9);
        assert!(
            (m.avg_charge_time_per_sensor_s - m.charge_time_s / 5.0)
                .abs()
                .0
                < 1e-12
        );
    }

    #[test]
    fn detects_unassigned() {
        let net = deploy::uniform(3, Aabb::square(100.0), 2.0, 3);
        let model = ChargingModel::paper_sim();
        let mut plan = make_plan(&net, &model);
        plan.stops.pop();
        assert!(matches!(
            plan.validate(&net, &model),
            Err(PlanError::Unassigned { sensor: 2 })
        ));
    }

    #[test]
    fn detects_duplicate_assignment() {
        let net = deploy::uniform(3, Aabb::square(100.0), 2.0, 3);
        let model = ChargingModel::paper_sim();
        let mut plan = make_plan(&net, &model);
        let dup = plan.stops[0].clone();
        plan.stops.push(dup);
        assert!(matches!(
            plan.validate(&net, &model),
            Err(PlanError::DuplicateAssignment { sensor: 0 })
        ));
    }

    #[test]
    fn detects_undercharge() {
        let net = deploy::uniform(2, Aabb::square(100.0), 2.0, 4);
        let model = ChargingModel::paper_sim();
        let mut plan = make_plan(&net, &model);
        plan.stops[0].dwell = plan.stops[0].dwell * 0.5;
        let err = plan.validate(&net, &model).unwrap_err();
        assert!(matches!(err, PlanError::Undercharged { stop: 0, .. }));
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn tour_length_closed_cycle() {
        let net = deploy::from_coords(
            &[(0.0, 0.0), (10.0, 0.0), (10.0, 10.0)],
            Aabb::square(20.0),
            2.0,
        );
        let model = ChargingModel::paper_sim();
        let plan = make_plan(&net, &model);
        // 10 + 10 + sqrt(200)
        assert!((plan.tour_length().0 - (20.0 + 200f64.sqrt())).abs() < 1e-9);
    }

    #[test]
    fn empty_plan() {
        let plan = ChargingPlan::new(Vec::new(), 0);
        assert_eq!(plan.tour_length(), Meters(0.0));
        assert_eq!(plan.total_dwell(), Seconds(0.0));
        let m = plan.metrics(&EnergyModel::paper_sim());
        assert_eq!(m.total_energy_j, Joules(0.0));
        assert_eq!(m.avg_charge_time_per_sensor_s, Seconds(0.0));
    }
}
