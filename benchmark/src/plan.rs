//! `plan-dense` and `plan-sparse`: fresh-context BC-OPT plans, closed
//! loop, one plan at a time.
//!
//! Every plan builds its artifacts anew (a new `PlanContext`),
//! which is the cost a caller planning a network once pays. The two
//! shapes differ only in field size: the dense field makes candidate
//! enumeration dominate, the sparse one (the paper's density over a
//! larger field) makes tour ordering dominate.

use std::time::Instant;

use bc_core::planner::Algorithm;
use bc_core::{contracts, Candidate, PlanContext, PlannerConfig};
use bc_geom::Aabb;
use bc_obs::provenance::Provenance;
use bc_wsn::{deploy, Network};

use crate::report::{cpu_s, cpu_timed, peak_rss_mb, Report};
use crate::rng::SplitMix;
use crate::stats::median;
use crate::trace::{Layers, Tracer};
use crate::{Args, SETUP_REPS};

/// Bundle radius (m), the paper's default.
const RADIUS_M: f64 = 10.0;
/// Planner worker threads (the box the load is sized for has 2 cores).
const WORKERS: usize = 2;
/// Repetitions of the candidate build at 1 and 2 workers.
const SPEEDUP_REPS: usize = 2;

/// One plan workload's inputs.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub sensors: usize,
    pub side_m: f64,
    pub networks: usize,
    /// Plans per second of run length, round-robin over the networks.
    pub plans_per_s: f64,
}

/// n = 1500 in a 300 m square: ~17 sensors per bundle disk. 12 plans
/// in a 20 s run: every network twice.
pub const DENSE: Shape = Shape {
    sensors: 1500,
    side_m: 300.0,
    networks: 6,
    plans_per_s: 0.6,
};
/// n = 2000 at the paper's 100 sensors per 300 × 300 m². 8 plans in a
/// 20 s run: every network once.
pub const SPARSE: Shape = Shape {
    sensors: 2000,
    side_m: 1342.0,
    networks: 8,
    plans_per_s: 0.4,
};

fn networks(shape: Shape, seed: u64) -> Vec<Network> {
    let mut rng = SplitMix::new(seed, 1);
    (0..shape.networks)
        .map(|_| {
            deploy::uniform(
                shape.sensors,
                Aabb::square(shape.side_m),
                2.0,
                rng.next_u64(),
            )
        })
        .collect()
}

/// What one pass of plans measured.
#[derive(Default)]
struct Pass {
    cpu_s: Vec<f64>,
    wall_s: Vec<f64>,
    /// Total energy of each network's plan, as bits: every plan of one
    /// network must agree exactly.
    energy_bits: Vec<Option<u64>>,
    candidates: Vec<f64>,
    bundles: Vec<f64>,
    stops: Vec<f64>,
}

impl Pass {
    fn energy_j(&self) -> f64 {
        self.energy_bits
            .iter()
            .flatten()
            .map(|&b| f64::from_bits(b))
            .sum()
    }
}

/// One set-up: generate the networks, then build the first one's
/// candidate family untimed, which pages in the code and fills the
/// allocator before timing.
fn setup(shape: Shape, seed: u64, cfg: &PlannerConfig) -> Vec<Network> {
    let nets = networks(shape, seed);
    let warm = PlanContext::new(nets[0].clone(), cfg.clone()).with_workers(WORKERS);
    warm.candidates();
    nets
}

/// Runs `plans` plans round-robin over the networks. Contract checks run
/// outside the timed call. `traced` wraps each plan in a `bench.plan`
/// span.
fn pass(nets: &[Network], cfg: &PlannerConfig, plans: usize, traced: bool, r: &mut Report) -> Pass {
    let n = nets.len();
    let mut out = Pass {
        energy_bits: vec![None; n],
        ..Pass::default()
    };
    for i in 0..plans {
        let k = i % n;
        let net = nets[k].clone();
        r.attempted += 1;
        let span = traced.then(|| bc_obs::ScopedSpan::enter("bench", "plan"));
        let (c0, t0) = (cpu_s(), Instant::now());
        let ctx = PlanContext::new(net, cfg.clone()).with_workers(WORKERS);
        let result = ctx.plan(Algorithm::BcOpt);
        let (cpu, wall) = (cpu_s() - c0, t0.elapsed().as_secs_f64());
        drop(span);
        let staged = match result {
            Ok(staged) => staged,
            Err(e) => {
                r.failed += 1;
                r.fail(format!("network {k}: BC-OPT failed: {e}"));
                continue;
            }
        };
        if let Err(v) = contracts::check_plan(&staged.plan, ctx.network(), cfg) {
            r.failed += 1;
            r.fail(format!("network {k}: plan violates a contract: {v}"));
            continue;
        }
        out.cpu_s.push(cpu);
        out.wall_s.push(wall);
        let bits = staged.plan.metrics(&cfg.energy).total_energy_j.0.to_bits();
        match out.energy_bits[k] {
            None => out.energy_bits[k] = Some(bits),
            Some(prev) => r.check(prev == bits, || {
                format!("network {k}: energy changed between plans")
            }),
        }
        out.candidates.push(ctx.candidates().len() as f64);
        out.bundles.push(staged.plan.num_charging_stops() as f64);
        out.stops.push(staged.plan.stops.len() as f64);
    }
    out
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Best-of-`SPEEDUP_REPS` wall time of a fresh candidate build at
/// `workers`, and the family it built.
fn candidate_build(net: &Network, cfg: &PlannerConfig, workers: usize) -> (f64, Vec<Candidate>) {
    let mut best = f64::INFINITY;
    let mut family = Vec::new();
    for _ in 0..SPEEDUP_REPS {
        let ctx = PlanContext::new(net.clone(), cfg.clone()).with_workers(workers);
        let t0 = Instant::now();
        let built = ctx.candidates();
        best = best.min(t0.elapsed().as_secs_f64());
        family = built.candidates.clone();
    }
    (best, family)
}

pub fn run(args: &Args, shape: Shape, r: &mut Report) {
    let cfg = PlannerConfig::paper_sim(RADIUS_M);
    r.workers = Some(WORKERS);
    r.note("sensors", shape.sensors as f64);
    r.note("side_m", shape.side_m);
    r.note("networks", shape.networks as f64);
    let mut setup_s = Vec::new();
    let mut nets = Vec::new();
    for _ in 0..SETUP_REPS {
        nets = cpu_timed(&mut setup_s, || setup(shape, args.seed, &cfg));
    }

    if !args.traced {
        let p = pass(
            &nets,
            &cfg,
            args.ops(shape.plans_per_s, shape.networks),
            false,
            r,
        );
        r.set("setup_s", median(&setup_s));
        // The mean rather than the median: the plans are of different
        // networks, and the mean averages their differing costs.
        r.set("cpu_ms", mean(&p.cpu_s) * 1e3);
        r.note_wall_times(&p.wall_s.iter().map(|t| t * 1e3).collect::<Vec<_>>());
        r.set("energy_j", p.energy_j());
        r.set("slo_ratio", p.cpu_s.len() as f64 / r.attempted as f64);
        r.set_opt("peak_rss_mb", peak_rss_mb());
        return;
    }

    let mut deploy_s = Vec::new();
    drop(cpu_timed(&mut deploy_s, || networks(shape, args.seed)));
    r.set("wsn.deploy_s", deploy_s[0] / shape.networks as f64);
    // Both halves plan the same networks in the same order, so their
    // energies can be compared network by network.
    let half = args.ops(shape.plans_per_s / 2.0, 1);
    let base = pass(&nets, &cfg, half, false, r);
    let tracer = Tracer::install();
    let traced = pass(&nets, &cfg, half, true, r);
    let snapshot = tracer.finish();
    r.check(base.energy_bits == traced.energy_bits, || {
        "plan energies differ between the untraced and traced passes".into()
    });
    r.set(
        "obs.trace_overhead_ratio",
        mean(&traced.cpu_s) / mean(&base.cpu_s),
    );
    let layers = Layers::new(&snapshot);
    layers.record_planner(r, traced.cpu_s.len() as f64);
    r.set("candidates.count", mean(&traced.candidates));
    r.set("cover.bundles", mean(&traced.bundles));
    r.set("order.stops", mean(&traced.stops));

    let (serial, serial_family) = candidate_build(&nets[0], &cfg, 1);
    let (parallel, parallel_family) = candidate_build(&nets[0], &cfg, WORKERS);
    r.check(serial_family == parallel_family, || {
        format!("candidate families differ between 1 and {WORKERS} workers")
    });
    r.set_opt(
        "candidates.speedup",
        (Provenance::capture().cores >= 2).then(|| serial / parallel),
    );
    r.note("candidates.serial_s", serial);
    r.note("candidates.parallel_s", parallel);
    crate::save_profile(args, &snapshot, r);
}
