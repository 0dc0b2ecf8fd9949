//! Micro-benchmarks of the geometric and combinatorial kernels.
//!
//! Includes the complexity claim of Theorem 5: the bisector-guided
//! tangency search (`O(log h)`) against the exhaustive `O(h)` sweep it
//! replaces, at the discretisation the tour optimizer uses.

use std::hint::black_box;

use bc_bench::{dense_network, point_cloud};
use bc_core::{generate_bundles, BundleStrategy, CandidateFamily};
use bc_geom::{sed, tangency, Disk, Point};
use bc_setcover::{exact_cover, greedy_cover, BitSet, Instance};
use bc_tsp::{construct, exact, improve, DistanceMatrix};
use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};

fn bench_sed(c: &mut Criterion) {
    let mut g = c.benchmark_group("sed");
    for n in [10usize, 100, 1000] {
        let pts = point_cloud(n);
        g.bench_function(format!("welzl_{n}"), |b| {
            b.iter(|| sed::smallest_enclosing_disk(black_box(&pts)))
        });
    }
    let pts = point_cloud(12);
    g.bench_function("brute_12", |b| {
        b.iter(|| sed::smallest_enclosing_disk_brute(black_box(&pts)))
    });
    g.finish();
}

fn bench_tangency(c: &mut Criterion) {
    let mut g = c.benchmark_group("tangency");
    let f1 = Point::new(-120.0, 10.0);
    let f2 = Point::new(150.0, -30.0);
    let circle = Disk::new(Point::new(20.0, 90.0), 12.0);
    g.bench_function("theorem5_log_search", |b| {
        b.iter(|| tangency::min_focal_sum_on_circle(black_box(f1), black_box(f2), &circle))
    });
    for h in [1_000usize, 20_000] {
        g.bench_function(format!("exhaustive_h{h}"), |b| {
            b.iter(|| {
                tangency::min_focal_sum_on_circle_exhaustive(
                    black_box(f1),
                    black_box(f2),
                    &circle,
                    h,
                )
            })
        });
    }
    g.finish();
}

fn bench_tsp(c: &mut Criterion) {
    let mut g = c.benchmark_group("tsp");
    for n in [50usize, 150] {
        let pts = point_cloud(n);
        let m = DistanceMatrix::from_points(&pts);
        g.bench_function(format!("nn_{n}"), |b| {
            b.iter(|| construct::nearest_neighbor(black_box(&m), 0))
        });
        g.bench_function(format!("nn_2opt_{n}"), |b| {
            b.iter(|| {
                let mut t = construct::nearest_neighbor(black_box(&m), 0);
                improve::two_opt(&mut t, &m);
                t
            })
        });
        g.bench_function(format!("nn_2opt_oropt_{n}"), |b| {
            b.iter(|| {
                let mut t = construct::nearest_neighbor(black_box(&m), 0);
                improve::two_opt(&mut t, &m);
                improve::or_opt(&mut t, &m, &pts);
                t
            })
        });
    }
    let m = DistanceMatrix::from_points(&point_cloud(12));
    g.bench_function("held_karp_12", |b| {
        b.iter(|| exact::held_karp(black_box(&m)))
    });
    g.finish();
}

fn bench_candidates_and_cover(c: &mut Criterion) {
    let mut g = c.benchmark_group("obg");
    g.sample_size(20);
    g.warm_up_time(Duration::from_secs(1));
    g.measurement_time(Duration::from_secs(5));
    for n in [50usize, 150] {
        let net = dense_network(n, 3);
        g.bench_function(format!("candidates_pair_{n}"), |b| {
            b.iter(|| CandidateFamily::pair_intersection(black_box(&net), 25.0))
        });
        g.bench_function(format!("generate_greedy_{n}"), |b| {
            b.iter(|| generate_bundles(black_box(&net), bc_units::Meters(25.0), BundleStrategy::Greedy))
        });
        g.bench_function(format!("generate_grid_{n}"), |b| {
            b.iter(|| generate_bundles(black_box(&net), bc_units::Meters(25.0), BundleStrategy::Grid))
        });
    }
    let net = dense_network(40, 3);
    g.bench_function("generate_optimal_40", |b| {
        b.iter(|| generate_bundles(black_box(&net), bc_units::Meters(25.0), BundleStrategy::Optimal))
    });
    // Pure set-cover kernels on a synthetic instance.
    let universe = 120;
    let sets: Vec<BitSet> = (0..240)
        .map(|i| {
            let members: Vec<usize> = (0..universe)
                .filter(|e| (e * 31 + i * 17) % 13 < 2)
                .collect();
            BitSet::from_indices(universe, &members)
        })
        .chain(std::iter::once(BitSet::full(universe)))
        .collect();
    let inst = Instance::new(universe, sets).unwrap_or_else(|e| panic!("instance: {e}"));
    g.bench_function("greedy_cover_240sets", |b| {
        b.iter(|| greedy_cover(black_box(&inst)))
    });
    g.bench_function("exact_cover_240sets", |b| {
        b.iter(|| exact_cover(black_box(&inst), Some(1_000_000)))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_sed,
    bench_tangency,
    bench_tsp,
    bench_candidates_and_cover
);
criterion_main!(benches);
