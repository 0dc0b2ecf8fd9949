//! Shared fixtures for the criterion micro-benchmarks in `benches/`
//! (`cargo bench -p bc-bench`):
//!
//! * `substrates` — micro-benchmarks of the geometric and combinatorial
//!   kernels (MinDisk, the Theorem 4/5 tangency search vs. the exhaustive
//!   sweep it replaces, TSP improvement, candidate generation, greedy and
//!   exact cover);
//! * `figures` — one benchmark per figure pipeline of the paper's
//!   evaluation, timing the full regeneration at a reduced run count, plus
//!   per-planner benchmarks and the ablations called out in DESIGN.md.
//!
//! They write no result files and gate nothing. The repository's
//! benchmark, with end-to-end and per-layer metrics and a correctness
//! gate, is the `benchmark/` package (see its README).

use bc_geom::{Aabb, Point};
use bc_wsn::{deploy, Network};

/// A seeded uniform network at the evaluation's dense-field density.
pub fn dense_network(n: usize, seed: u64) -> Network {
    deploy::uniform(n, Aabb::square(300.0), 2.0, seed)
}

/// A deterministic scattered point cloud for geometry/TSP kernels.
pub fn point_cloud(n: usize) -> Vec<Point> {
    (0..n)
        .map(|i| {
            let a = i as f64; // cast-ok: index to synthetic coordinate
            Point::new(
                (a * 12.9898).sin() * 500.0 + 500.0,
                (a * 78.233).cos() * 500.0 + 500.0,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_are_deterministic() {
        assert_eq!(point_cloud(10), point_cloud(10));
        let a = dense_network(20, 1);
        let b = dense_network(20, 1);
        assert_eq!(a.sensor(7).pos, b.sensor(7).pos);
    }
}
