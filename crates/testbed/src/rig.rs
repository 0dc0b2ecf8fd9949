//! Discrete-event execution of charging plans on the simulated testbed.

use bc_core::{ChargingPlan, PlannerConfig};
use bc_units::{Joules, Meters, Seconds};
use bc_wpt::params;
use bc_wsn::Network;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::powercast::p2110_harvest_power;

/// Harvesting integration step.
const TICK: Seconds = Seconds(0.05);

/// The simulated robot-car testbed.
///
/// Executes a [`ChargingPlan`] leg by leg and tick by tick, accumulating
/// every sensor's harvested energy under the quadratic model (with the
/// P2110 sensitivity cut-off) — including opportunistic harvesting from
/// stops the sensor is not assigned to.
#[derive(Debug, Clone)]
pub struct TestbedRig<'a> {
    net: &'a Network,
    cfg: &'a PlannerConfig,
    noise: Option<f64>,
    seed: u64,
}

/// Per-sensor outcome of an execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SensorLedger {
    /// Total energy the sensor harvested over the tour.
    pub harvested_j: Joules,
    /// The sensor's demand.
    pub demand_j: Joules,
}

/// Result of executing a plan on the rig.
///
/// Previously named `ExecutionReport`, which collided with the unrelated
/// `bc_core::execute::ExecutionReport`; the deprecated alias has since
/// been removed.
#[derive(Debug, Clone, PartialEq)]
pub struct RigReport {
    /// Distance actually driven, including the return leg.
    pub driven_m: Meters,
    /// Wall-clock driving time.
    pub drive_time_s: Seconds,
    /// Wall-clock charging time.
    pub charge_time_s: Seconds,
    /// Movement energy spent.
    pub move_energy_j: Joules,
    /// Charging-mode energy spent.
    pub charge_energy_j: Joules,
    /// Per-sensor energy ledgers, indexed like the network.
    pub sensors: Vec<SensorLedger>,
}

impl RigReport {
    /// Total operating energy.
    pub fn total_energy_j(&self) -> Joules {
        self.move_energy_j + self.charge_energy_j
    }

    /// Whether every sensor harvested at least its demand.
    pub fn all_fully_charged(&self) -> bool {
        self.fraction_charged() >= 1.0
    }

    /// The worst ratio of harvested to demanded energy across sensors
    /// (>= 1 when everyone is fully charged; capped at 1 per sensor
    /// before taking the minimum is *not* applied, so over-charge shows).
    pub fn fraction_charged(&self) -> f64 {
        self.sensors
            .iter()
            .map(|s| {
                if s.demand_j <= Joules(0.0) {
                    f64::INFINITY
                } else {
                    s.harvested_j / s.demand_j * (1.0 + 1e-9)
                }
            })
            .fold(f64::INFINITY, f64::min)
    }
}

impl<'a> TestbedRig<'a> {
    /// Creates a rig over a network with the charging/energy models taken
    /// from `cfg`. Noise is off by default.
    pub fn new(net: &'a Network, cfg: &'a PlannerConfig) -> Self {
        TestbedRig {
            net,
            cfg,
            noise: None,
            seed: 0,
        }
    }

    /// Enables multiplicative harvesting noise: every tick's harvest is
    /// scaled by a uniform factor in `[1 - amplitude, 1 + amplitude]`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= amplitude < 1`.
    pub fn with_noise(mut self, amplitude: f64, seed: u64) -> Self {
        assert!(
            (0.0..1.0).contains(&amplitude),
            "noise amplitude must be in [0, 1), got {amplitude}"
        );
        self.noise = Some(amplitude);
        self.seed = seed;
        self
    }

    /// Executes a plan and returns the realized energy ledger.
    pub fn execute(&self, plan: &ChargingPlan) -> RigReport {
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let mut report = RigReport {
            driven_m: Meters(0.0),
            drive_time_s: Seconds(0.0),
            charge_time_s: Seconds(0.0),
            move_energy_j: Joules(0.0),
            charge_energy_j: Joules(0.0),
            sensors: self
                .net
                .sensors()
                .iter()
                .map(|s| SensorLedger {
                    harvested_j: Joules(0.0),
                    demand_j: s.demand,
                })
                .collect(),
        };
        let n = plan.stops.len();
        if n == 0 {
            return report;
        }
        for (i, stop) in plan.stops.iter().enumerate() {
            // Drive to this stop from the previous one (cyclically, so the
            // final return leg is charged to the last stop's arrival...
            // the cycle is closed by the i == 0 leg from the last stop).
            let prev = plan.stops[(i + n - 1) % n].anchor();
            let leg = prev.distance(stop.anchor());
            let leg_time = leg / params::TESTBED_CAR_SPEED_M_PER_S.0;
            report.driven_m += Meters(leg);
            report.drive_time_s += Seconds(leg_time);
            report.move_energy_j += self.cfg.energy.movement_energy(Meters(leg));

            // Park and transmit.
            let mut remaining = stop.dwell;
            while remaining > Seconds(0.0) {
                let dt = remaining.min(TICK);
                let factor = match self.noise {
                    Some(a) => rng.random_range(1.0 - a..=1.0 + a),
                    None => 1.0,
                };
                for (si, sensor) in self.net.sensors().iter().enumerate() {
                    let d = Meters(sensor.pos.distance(stop.anchor()));
                    let p = p2110_harvest_power(&self.cfg.charging, d);
                    report.sensors[si].harvested_j += p * dt * factor;
                }
                remaining -= dt;
            }
            report.charge_time_s += stop.dwell;
            report.charge_energy_j += self.cfg.energy.charging_energy(stop.dwell);
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::powercast::office_network;
    use bc_core::planner::{try_run, Algorithm};

    fn plan_and_run(r: f64) -> (RigReport, ChargingPlan) {
        let net = office_network();
        let cfg = PlannerConfig::paper_testbed(r);
        let plan = try_run(Algorithm::Bc, &net, &cfg).unwrap();
        let rig_net = office_network();
        let report = TestbedRig::new(&rig_net, &cfg).execute(&plan);
        (report, plan)
    }

    #[test]
    fn execution_fully_charges_everyone() {
        let (report, _) = plan_and_run(1.2);
        assert!(
            report.all_fully_charged(),
            "worst fraction {}",
            report.fraction_charged()
        );
    }

    #[test]
    fn ledger_matches_plan_accounting() {
        let (report, plan) = plan_and_run(1.0);
        assert!((report.driven_m - plan.tour_length()).abs() < Meters(1e-6));
        assert!((report.charge_time_s - plan.total_dwell()).abs() < Seconds(1e-9));
        let cfg = PlannerConfig::paper_testbed(1.0);
        let m = plan.metrics(&cfg.energy);
        assert!((report.total_energy_j() - m.total_energy_j).abs() < Joules(1e-6));
    }

    #[test]
    fn opportunistic_harvest_exceeds_demand() {
        // Sensors harvest from every stop, so the total harvested energy
        // strictly exceeds the bare demand sum.
        let (report, _) = plan_and_run(1.2);
        let harvested: Joules = report.sensors.iter().map(|s| s.harvested_j).sum();
        let demanded: Joules = report.sensors.iter().map(|s| s.demand_j).sum();
        assert!(harvested > demanded);
    }

    #[test]
    fn noise_is_seed_deterministic_and_bounded() {
        let net = office_network();
        let cfg = PlannerConfig::paper_testbed(1.2);
        let plan = try_run(Algorithm::Bc, &net, &cfg).unwrap();
        let a = TestbedRig::new(&net, &cfg)
            .with_noise(0.1, 7)
            .execute(&plan);
        let b = TestbedRig::new(&net, &cfg)
            .with_noise(0.1, 7)
            .execute(&plan);
        let c = TestbedRig::new(&net, &cfg)
            .with_noise(0.1, 8)
            .execute(&plan);
        assert_eq!(a, b);
        assert!(a.sensors[0].harvested_j != c.sensors[0].harvested_j);
        // 10 % noise keeps everyone above 85 % of demand here.
        assert!(a.fraction_charged() > 0.85);
    }

    #[test]
    fn drive_time_uses_published_speed() {
        let (report, plan) = plan_and_run(0.5);
        let expected = plan.tour_length() / bc_units::MetersPerSecond(0.3);
        assert!((report.drive_time_s - expected).abs() < Seconds(1e-6));
    }

    #[test]
    fn empty_plan_reports_zeroes() {
        let net = office_network();
        let cfg = PlannerConfig::paper_testbed(1.0);
        let report = TestbedRig::new(&net, &cfg).execute(&ChargingPlan::new(Vec::new(), 6));
        assert_eq!(report.total_energy_j(), Joules(0.0));
        assert!(!report.all_fully_charged());
    }

    #[test]
    #[should_panic(expected = "noise amplitude")]
    fn bad_noise_panics() {
        let net = office_network();
        let cfg = PlannerConfig::paper_testbed(1.0);
        let _ = TestbedRig::new(&net, &cfg).with_noise(1.5, 0);
    }
}
