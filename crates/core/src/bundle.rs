//! Charging bundles (Definitions 1–3 of the paper).

use std::fmt;

use bc_geom::{sed, Point};
use bc_units::{Joules, Meters, Seconds};
use bc_wpt::ChargingModel;
use bc_wsn::Network;

/// A charging bundle: a set of sensors charged simultaneously from one
/// anchor point.
///
/// The anchor is the center of the smallest enclosing disk of the member
/// sensors, which minimizes the worst charging distance (the observation
/// following Definition 2 in the paper). `enclosing_radius` is that
/// disk's radius — always at most the generation radius `r`.
#[derive(Debug, Clone, PartialEq)]
pub struct ChargingBundle {
    /// Indices of the member sensors within their network.
    pub sensors: Vec<usize>,
    /// The charging position of the mobile charger.
    pub anchor: Point,
    /// Radius of the smallest disk around `anchor` enclosing all members.
    pub enclosing_radius: Meters,
}

impl ChargingBundle {
    /// Builds a bundle from member sensor indices, placing the anchor at
    /// the smallest-enclosing-disk center of their positions.
    ///
    /// # Panics
    ///
    /// Panics if `sensors` is empty or contains an out-of-range index.
    pub fn from_members(sensors: Vec<usize>, net: &Network) -> Self {
        assert!(!sensors.is_empty(), "a charging bundle cannot be empty");
        let pts: Vec<Point> = sensors.iter().map(|&i| net.sensor(i).pos).collect();
        let disk = sed::smallest_enclosing_disk(&pts);
        ChargingBundle {
            sensors,
            anchor: disk.center,
            enclosing_radius: Meters(disk.radius),
        }
    }

    /// Builds a bundle with an explicit anchor (used by the grid baseline
    /// and by BC-OPT after relocating the anchor).
    ///
    /// `enclosing_radius` is recomputed as the farthest member distance
    /// from the given anchor.
    ///
    /// # Panics
    ///
    /// Panics if `sensors` is empty.
    pub fn with_anchor(sensors: Vec<usize>, anchor: Point, net: &Network) -> Self {
        assert!(!sensors.is_empty(), "a charging bundle cannot be empty");
        let enclosing_radius = Meters(
            sensors
                .iter()
                .map(|&i| net.sensor(i).pos.distance(anchor))
                .fold(0.0, f64::max),
        );
        ChargingBundle {
            sensors,
            anchor,
            enclosing_radius,
        }
    }

    /// Number of member sensors.
    pub fn len(&self) -> usize {
        self.sensors.len()
    }

    /// `true` when the bundle has no members (never produced by the
    /// generators; exists for defensive checks).
    pub fn is_empty(&self) -> bool {
        self.sensors.is_empty()
    }

    /// The distance from the anchor to member sensor `i` of the network.
    pub fn member_distance(&self, sensor: usize, net: &Network) -> Meters {
        Meters(self.anchor.distance(net.sensor(sensor).pos))
    }

    /// Dwell time needed at the anchor so that *every* member receives its
    /// demanded energy: the paper's
    /// `t = max_j delta_j / p_r(d_j)` (the farthest/most-demanding sensor
    /// dominates because charging is omnidirectional).
    pub fn dwell_time(&self, net: &Network, model: &ChargingModel) -> Seconds {
        self.sensors
            .iter()
            .map(|&i| {
                let s = net.sensor(i);
                model.charge_time(Meters(self.anchor.distance(s.pos)), s.demand)
            })
            .fold(Seconds(0.0), Seconds::max)
    }

    /// Worst-case dwell time for a generation radius `r`: charges as if
    /// the most demanding member sat on the radius-`r` boundary. Only
    /// meaningful for multi-member bundles; singletons are charged at
    /// their realized (zero) distance. See
    /// [`crate::config::DwellPolicy::RadiusWorstCase`].
    pub fn worst_case_dwell_time(
        &self,
        r: Meters,
        net: &Network,
        model: &ChargingModel,
    ) -> Seconds {
        if self.sensors.len() <= 1 {
            return self.dwell_time(net, model);
        }
        let max_demand = self
            .sensors
            .iter()
            .map(|&i| net.sensor(i).demand)
            .fold(Joules(0.0), Joules::max);
        model.charge_time(r, max_demand)
    }
}

impl fmt::Display for ChargingBundle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Bundle[{} sensors @ {} r={:.3}]",
            self.sensors.len(),
            self.anchor,
            self.enclosing_radius.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bc_geom::Aabb;
    use bc_wsn::{Sensor, SensorId};

    fn net_with(points: &[(f64, f64)]) -> Network {
        let sensors = points
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| Sensor::new(SensorId(i), Point::new(x, y), 2.0))
            .collect();
        Network::new(sensors, Aabb::square(100.0), Point::ORIGIN)
    }

    #[test]
    fn anchor_is_sed_center() {
        let net = net_with(&[(0.0, 0.0), (10.0, 0.0)]);
        let b = ChargingBundle::from_members(vec![0, 1], &net);
        assert!(b.anchor.distance(Point::new(5.0, 0.0)) < 1e-9);
        assert!((b.enclosing_radius.0 - 5.0).abs() < 1e-9);
    }

    #[test]
    fn singleton_bundle_sits_on_sensor() {
        let net = net_with(&[(3.0, 4.0)]);
        let b = ChargingBundle::from_members(vec![0], &net);
        assert_eq!(b.anchor, Point::new(3.0, 4.0));
        assert_eq!(b.enclosing_radius, Meters(0.0));
    }

    #[test]
    fn dwell_time_dominated_by_farthest() {
        let net = net_with(&[(0.0, 0.0), (10.0, 0.0), (5.0, 1.0)]);
        let b = ChargingBundle::from_members(vec![0, 1, 2], &net);
        let model = ChargingModel::paper_sim();
        let dwell = b.dwell_time(&net, &model);
        // The farthest member is ~5 m from the anchor.
        let worst = b
            .sensors
            .iter()
            .map(|&i| b.member_distance(i, &net))
            .fold(Meters(0.0), Meters::max);
        assert!((dwell - model.charge_time(worst, Joules(2.0))).abs().0 < 1e-9);
        // Dwell suffices for every member.
        for &i in &b.sensors {
            let d = b.member_distance(i, &net);
            assert!(model.delivered_energy(d, dwell) >= Joules(2.0 - 1e-9));
        }
    }

    #[test]
    fn with_anchor_measures_radius_from_anchor() {
        let net = net_with(&[(0.0, 0.0), (10.0, 0.0)]);
        let b = ChargingBundle::with_anchor(vec![0, 1], Point::new(0.0, 0.0), &net);
        assert_eq!(b.enclosing_radius, Meters(10.0));
    }

    #[test]
    #[should_panic(expected = "cannot be empty")]
    fn empty_bundle_panics() {
        let net = net_with(&[(0.0, 0.0)]);
        let _ = ChargingBundle::from_members(Vec::new(), &net);
    }
}
