//! The sensor network container.

use std::fmt;

use bc_geom::grid::{AmongQueries, PointGrid};
use bc_geom::{Aabb, Point};

use crate::{Sensor, SensorId};

/// A deployed wireless rechargeable sensor network.
///
/// Holds the sensors, the deployment field, the base station the mobile
/// charger departs from, and a point grid for radius queries.
///
/// # Example
///
/// ```
/// use bc_wsn::{Network, Sensor, SensorId};
/// use bc_geom::{Aabb, Point};
///
/// let sensors = vec![
///     Sensor::new(SensorId(0), Point::new(10.0, 10.0), 2.0),
///     Sensor::new(SensorId(1), Point::new(20.0, 10.0), 2.0),
/// ];
/// let net = Network::new(sensors, Aabb::square(100.0), Point::ORIGIN);
/// assert_eq!(net.len(), 2);
/// assert_eq!(net.within_radius(Point::new(10.0, 10.0), 15.0).len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct Network {
    sensors: Vec<Sensor>,
    field: Aabb,
    base: Point,
    grid: PointGrid,
    positions: Vec<Point>,
}

impl Network {
    /// Grid cell size as a fraction of the field diagonal.
    const CELL_FRACTION: f64 = 0.05;

    /// Creates a network from sensors, a field and a base station.
    ///
    /// Sensor ids are re-assigned to their index order so that
    /// `net.sensor(i).id == SensorId(i)` always holds.
    ///
    /// # Panics
    ///
    /// Panics if the base station is not finite.
    pub fn new(mut sensors: Vec<Sensor>, field: Aabb, base: Point) -> Self {
        assert!(base.is_finite(), "base station must be finite");
        for (i, s) in sensors.iter_mut().enumerate() {
            s.id = SensorId(i);
        }
        let positions: Vec<Point> = sensors.iter().map(|s| s.pos).collect();
        let cell = (field.diagonal() * Self::CELL_FRACTION).max(1e-6);
        let grid = PointGrid::new(&positions, cell);
        Network {
            sensors,
            field,
            base,
            grid,
            positions,
        }
    }

    /// Number of sensors.
    pub fn len(&self) -> usize {
        self.sensors.len()
    }

    /// `true` when the network has no sensors.
    pub fn is_empty(&self) -> bool {
        self.sensors.is_empty()
    }

    /// The deployment field.
    pub fn field(&self) -> Aabb {
        self.field
    }

    /// The base station the charging tour starts and ends at.
    pub fn base(&self) -> Point {
        self.base
    }

    /// The sensor at index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn sensor(&self, i: usize) -> &Sensor {
        &self.sensors[i]
    }

    /// All sensors in index order.
    pub fn sensors(&self) -> &[Sensor] {
        &self.sensors
    }

    /// All sensor positions in index order.
    pub fn positions(&self) -> &[Point] {
        &self.positions
    }

    /// Indices of sensors within `radius` of `center` (inclusive), in
    /// the grid's scan order (see [`PointGrid::within_radius_into`]).
    /// Only the block of grid cells the query scans is searched, so a
    /// sensor just past that block's edge is left out even when its
    /// computed distance is `radius` or within the grid's `1e-12` slack
    /// of it.
    ///
    /// Sensors far outside the field (which [`Network::new`] accepts and
    /// `bc_core::PlanContext::add_sensor` can place) may spread the grid past
    /// `max(4 n, 4096)` cells; it then keeps one cell, so hits come in
    /// index order and every query scans every sensor.
    ///
    /// # Panics
    ///
    /// Panics if `radius` is negative or not finite.
    pub fn within_radius(&self, center: Point, radius: f64) -> Vec<usize> {
        let mut out = Vec::new();
        self.within_radius_into(center, radius, &mut out);
        out
    }

    /// Like [`Network::within_radius`] but reuses a caller scratch
    /// buffer (cleared first), avoiding one allocation per query in the
    /// candidate-generation hot loop.
    pub fn within_radius_into(&self, center: Point, radius: f64, out: &mut Vec<usize>) {
        self.grid
            .within_radius_into(&self.positions, center, radius, out);
    }

    /// Radius queries answered from given lists of sensors instead of a
    /// grid scan, with the hits [`Network::within_radius`] would return
    /// (see [`AmongQueries::within_radius_into`]). Computes each sensor's
    /// cell once.
    pub fn among_queries(&self) -> AmongQueries<'_> {
        self.grid.among_queries(&self.positions)
    }

    /// Average number of neighbours within `radius`, a density measure
    /// used when reporting experiment configurations.
    pub fn mean_neighbors(&self, radius: f64) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        let total: usize = self
            .positions
            .iter()
            .map(|&p| self.within_radius(p, radius).len() - 1)
            .sum();
        total as f64 / self.len() as f64 // cast-ok: neighbour counts to mean
    }
}

impl fmt::Display for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Network({} sensors in {}, base {})",
            self.sensors.len(),
            self.field,
            self.base
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net3() -> Network {
        Network::new(
            vec![
                Sensor::new(SensorId(9), Point::new(10.0, 10.0), 2.0),
                Sensor::new(SensorId(7), Point::new(20.0, 10.0), 2.0),
                Sensor::new(SensorId(5), Point::new(90.0, 90.0), 2.0),
            ],
            Aabb::square(100.0),
            Point::ORIGIN,
        )
    }

    #[test]
    fn ids_are_reindexed() {
        let n = net3();
        for i in 0..3 {
            assert_eq!(n.sensor(i).id, SensorId(i));
        }
    }

    #[test]
    fn radius_queries() {
        let n = net3();
        let mut near = n.within_radius(Point::new(10.0, 10.0), 15.0);
        near.sort_unstable();
        assert_eq!(near, vec![0, 1]);
        assert_eq!(n.within_radius(Point::new(10.0, 10.0), 5.0), vec![0]);
    }

    #[test]
    fn empty_network() {
        let n = Network::new(Vec::new(), Aabb::square(10.0), Point::ORIGIN);
        assert!(n.is_empty());
        assert!(n.within_radius(Point::ORIGIN, 100.0).is_empty());
        assert_eq!(n.mean_neighbors(10.0), 0.0);
        let mut buf = vec![3];
        n.within_radius_into(Point::ORIGIN, 100.0, &mut buf);
        assert!(buf.is_empty());
    }

    #[test]
    fn within_radius_into_matches_allocating_query() {
        let n = net3();
        let mut buf = Vec::new();
        n.within_radius_into(Point::new(10.0, 10.0), 15.0, &mut buf);
        assert_eq!(buf, n.within_radius(Point::new(10.0, 10.0), 15.0));
    }

    #[test]
    fn mean_neighbors_counts_pairs() {
        let n = net3();
        // Sensors 0 and 1 are mutual neighbours at radius 15; sensor 2 has none.
        assert!((n.mean_neighbors(15.0) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn display_mentions_count() {
        assert!(format!("{}", net3()).contains("3 sensors"));
    }
}
