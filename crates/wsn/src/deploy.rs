//! Seeded deployment generators.
//!
//! All generators are deterministic in their seed, which is how the
//! experiment harness averages each data point over 100 independent runs
//! (Section VI-A) reproducibly.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use bc_geom::{Aabb, Point};

use crate::{Network, Sensor, SensorId};

/// Uniform random deployment of `n` sensors over `field`, each with
/// energy demand `demand` — the paper's simulation workload.
///
/// The base station is placed at the field's minimum corner.
pub fn uniform(n: usize, field: Aabb, demand: f64, seed: u64) -> Network {
    let mut rng = SmallRng::seed_from_u64(seed);
    let sensors = (0..n)
        .map(|i| {
            let p = Point::new(
                rng.random_range(field.min.x..=field.max.x),
                rng.random_range(field.min.y..=field.max.y),
            );
            Sensor::new(SensorId(i), p, demand)
        })
        .collect();
    Network::new(sensors, field, field.min)
}

/// Clustered deployment: `n` sensors split evenly across `clusters`
/// Gaussian blobs with standard deviation `sigma`, cluster centres drawn
/// uniformly. Models the dense-pocket deployments (habitat monitoring,
/// smart dust) that motivate bundle charging.
///
/// Positions are clamped into the field.
///
/// # Panics
///
/// Panics if `clusters == 0` while `n > 0`.
pub fn clusters(
    n: usize,
    clusters: usize,
    sigma: f64,
    field: Aabb,
    demand: f64,
    seed: u64,
) -> Network {
    if n == 0 {
        return Network::new(Vec::new(), field, field.min);
    }
    assert!(clusters > 0, "need at least one cluster for {n} sensors");
    let mut rng = SmallRng::seed_from_u64(seed);
    let centres: Vec<Point> = (0..clusters)
        .map(|_| {
            Point::new(
                rng.random_range(field.min.x..=field.max.x),
                rng.random_range(field.min.y..=field.max.y),
            )
        })
        .collect();
    let sensors = (0..n)
        .map(|i| {
            let c = centres[i % clusters];
            // Box-Muller from two uniforms for a Gaussian offset.
            let (u1, u2) = (
                rng.random_range(1e-12..1.0f64),
                rng.random_range(0.0..1.0f64),
            );
            let r = sigma * (-2.0 * u1.ln()).sqrt();
            let theta = std::f64::consts::TAU * u2;
            let p = field.clamp(c + Point::from_angle(theta) * r);
            Sensor::new(SensorId(i), p, demand)
        })
        .collect();
    Network::new(sensors, field, field.min)
}

/// Jittered grid deployment: sensors near the cells of a regular
/// `rows x cols` grid, each perturbed uniformly by up to `jitter` in each
/// coordinate (clamped to the field).
pub fn perturbed_grid(
    rows: usize,
    cols: usize,
    field: Aabb,
    jitter: f64,
    demand: f64,
    seed: u64,
) -> Network {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut sensors = Vec::with_capacity(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            let x = field.min.x + (c as f64 + 0.5) * field.width() / cols as f64; // cast-ok: grid index to coordinate
            let y = field.min.y + (r as f64 + 0.5) * field.height() / rows as f64; // cast-ok: grid index to coordinate
            let p = field.clamp(Point::new(
                x + rng.random_range(-jitter..=jitter),
                y + rng.random_range(-jitter..=jitter),
            ));
            sensors.push(Sensor::new(SensorId(sensors.len()), p, demand));
        }
    }
    Network::new(sensors, field, field.min)
}

/// Deployment from explicit coordinates — used for the testbed's six
/// published sensor positions.
pub fn from_coords(coords: &[(f64, f64)], field: Aabb, demand: f64) -> Network {
    let sensors = coords
        .iter()
        .enumerate()
        .map(|(i, &(x, y))| Sensor::new(SensorId(i), Point::new(x, y), demand))
        .collect();
    Network::new(sensors, field, field.min)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_is_seed_deterministic() {
        let a = uniform(30, Aabb::square(1000.0), 2.0, 7);
        let b = uniform(30, Aabb::square(1000.0), 2.0, 7);
        let c = uniform(30, Aabb::square(1000.0), 2.0, 8);
        for i in 0..30 {
            assert_eq!(a.sensor(i).pos, b.sensor(i).pos);
        }
        assert!((0..30).any(|i| a.sensor(i).pos != c.sensor(i).pos));
    }

    #[test]
    fn uniform_stays_in_field() {
        let field = Aabb::square(100.0);
        let n = uniform(200, field, 2.0, 3);
        for s in n.sensors() {
            assert!(field.contains(s.pos), "{} outside field", s.pos);
        }
    }

    #[test]
    fn clusters_are_denser_than_uniform() {
        let field = Aabb::square(1000.0);
        let clustered = clusters(100, 4, 20.0, field, 2.0, 5);
        let spread = uniform(100, field, 2.0, 5);
        assert!(clustered.mean_neighbors(50.0) > spread.mean_neighbors(50.0));
    }

    #[test]
    fn clusters_clamped_to_field() {
        let field = Aabb::square(100.0);
        let n = clusters(100, 2, 500.0, field, 2.0, 11);
        for s in n.sensors() {
            assert!(field.contains(s.pos));
        }
    }

    #[test]
    fn perturbed_grid_counts() {
        let n = perturbed_grid(4, 5, Aabb::square(100.0), 2.0, 2.0, 1);
        assert_eq!(n.len(), 20);
    }

    #[test]
    fn from_coords_preserves_positions() {
        let n = from_coords(&[(1.0, 2.0), (3.0, 4.0)], Aabb::square(10.0), 0.004);
        assert_eq!(n.sensor(0).pos, Point::new(1.0, 2.0));
        assert_eq!(n.sensor(1).pos, Point::new(3.0, 4.0));
        assert_eq!(n.sensor(1).demand, bc_units::Joules(0.004));
    }

    #[test]
    fn empty_deployments() {
        assert!(uniform(0, Aabb::square(10.0), 2.0, 0).is_empty());
        assert!(clusters(0, 3, 5.0, Aabb::square(10.0), 2.0, 0).is_empty());
        assert!(from_coords(&[], Aabb::square(10.0), 2.0).is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one cluster")]
    fn zero_clusters_panics() {
        let _ = clusters(5, 0, 1.0, Aabb::square(10.0), 2.0, 0);
    }
}
