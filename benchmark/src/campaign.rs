//! `campaign`: week-long DES runs of many small networks, swept by
//! `run_campaign`, closed batch.
//!
//! Each seed replans its tour dozens of times through the engine's warm
//! context cache with BC (no tighten stage), so tour ordering and the
//! event loop itself carry the time.

use std::time::Instant;

use bc_campaign::smoke::bench_queue;
use bc_campaign::{run_campaign, CampaignConfig, CampaignReport};
use bc_core::planner::Algorithm;
use bc_core::{PlanContext, PlannerConfig};
use bc_des::{clock, DesReport, QueueBackend, Scenario};
use bc_geom::Aabb;
use bc_obs::provenance::Provenance;
use bc_wsn::{deploy, Network};

use crate::report::{cpu_s, cpu_timed, peak_rss_mb, Report};
use crate::rng::SplitMix;
use crate::stats::median;
use crate::trace::{Layers, Tracer};
use crate::{Args, SETUP_REPS};

const SEEDS: usize = 64;
const SENSORS: usize = 200;
const SIDE_M: f64 = 300.0;
const RADIUS_M: f64 = 10.0;
const HORIZON_H: f64 = 168.0;
const WORKERS: usize = 2;
/// Seeds the correctness gate re-runs directly and at one worker.
const CHECK_SEEDS: usize = 8;
/// 64-seed sweeps per second of run length: 4 in a 20 s run.
const SWEEPS_PER_S: f64 = 0.2;
/// Seeds per second of run length that each half of a traced run runs
/// directly through the engine: all 64 in a 20 s run.
const DIRECT_SEEDS_PER_S: f64 = 3.2;
/// The queue hold benchmark: pending events and pop/reschedule pairs.
const QUEUE_PENDING: usize = 1_000_000;
const QUEUE_HOLD_OPS: usize = 1_000_000;

fn scenario(net: &Network) -> Scenario {
    let mut sc = Scenario::paper_sim(net.clone(), RADIUS_M, Algorithm::Bc)
        .with_queue(QueueBackend::Calendar);
    sc.horizon_s = clock::hours(HORIZON_H);
    sc.trace_capacity = 0;
    sc
}

fn networks(seed: u64) -> Vec<Network> {
    let mut rng = SplitMix::new(seed, 4);
    (0..SEEDS)
        .map(|_| deploy::uniform(SENSORS, Aabb::square(SIDE_M), 2.0, rng.next_u64()))
        .collect()
}

/// Sweeps seeds `0..count` (each naming its network) on `workers`.
fn sweep(nets: &[Network], count: usize, workers: usize, r: &mut Report) -> Option<CampaignReport> {
    let seeds: Vec<u64> = (0..count as u64).collect();
    match run_campaign(&seeds, &CampaignConfig::new(workers), |s| {
        scenario(&nets[s as usize])
    }) {
        Ok(report) => {
            for (seed, f) in report.failures() {
                r.fail(format!("campaign seed {seed}: {f}"));
            }
            Some(report)
        }
        Err(e) => {
            r.fail(format!("campaign: {e}"));
            None
        }
    }
}

fn energy_bits(report: &CampaignReport) -> Vec<u64> {
    report
        .summaries()
        .map(|(_, s)| s.charger_energy_j.0.to_bits())
        .collect()
}

/// Runs seed `i` directly through the engine, checking its fleet ledger.
fn direct(nets: &[Network], i: usize, r: &mut Report) -> Option<DesReport> {
    match bc_des::run(&scenario(&nets[i])) {
        Ok(report) => {
            if let Err(e) = report.check_fleet_ledger() {
                r.fail(format!("seed {i}: {e}"));
            }
            Some(report)
        }
        Err(e) => {
            r.fail(format!("seed {i}: {e}"));
            None
        }
    }
}

/// The untimed correctness gate: direct runs balance their ledgers and
/// agree with the set-up's sweep of the same seeds, which also merges to
/// the same result at one worker.
fn check(nets: &[Network], two: &CampaignReport, r: &mut Report) {
    let direct_bits: Vec<u64> = (0..CHECK_SEEDS)
        .filter_map(|i| direct(nets, i, r))
        .map(|d| d.charger_energy_j.0.to_bits())
        .collect();
    if let Some(one) = sweep(nets, CHECK_SEEDS, 1, r) {
        r.check(one.merge_hash() == two.merge_hash(), || {
            format!("merge hash differs between 1 and {WORKERS} workers")
        });
    }
    r.check(energy_bits(two) == direct_bits, || {
        "campaign energies differ from direct runs".into()
    });
}

pub fn run(args: &Args, r: &mut Report) {
    r.workers = Some(WORKERS);
    r.note("seeds", SEEDS as f64);
    r.note("sensors", SENSORS as f64);
    r.note("horizon_h", HORIZON_H);
    // One set-up generates the networks and sweeps the first few seeds,
    // which pages in the code before timing; every set-up must merge to
    // the same result.
    let mut setup_s = Vec::new();
    let mut nets = Vec::new();
    let mut warm: Option<CampaignReport> = None;
    for _ in 0..SETUP_REPS {
        let (generated, swept) = cpu_timed(&mut setup_s, || {
            let nets = networks(args.seed);
            let swept = sweep(&nets, CHECK_SEEDS, WORKERS, r);
            (nets, swept)
        });
        if let (Some(prev), Some(now)) = (&warm, &swept) {
            r.check(prev.merge_hash() == now.merge_hash(), || {
                "a repeated set-up sweep differs".into()
            });
        }
        nets = generated;
        warm = swept.or(warm);
    }

    if !args.traced {
        if let Some(warm) = &warm {
            check(&nets, warm, r);
        }
        let mut cpu_ms = Vec::new();
        let mut wall_ms = Vec::new();
        let mut first: Option<(String, Vec<u64>)> = None;
        for _ in 0..args.ops(SWEEPS_PER_S, 1) {
            let (c0, t0) = (cpu_s(), Instant::now());
            let Some(report) = sweep(&nets, SEEDS, WORKERS, r) else {
                return;
            };
            cpu_ms.push((cpu_s() - c0) * 1e3);
            wall_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            r.attempted += SEEDS as u64;
            r.failed += report.failed() as u64;
            let result = (report.merge_hash(), energy_bits(&report));
            match &first {
                None => first = Some(result),
                Some(prev) => r.check(*prev == result, || {
                    "a repeated sweep produced a different result".into()
                }),
            }
        }
        let energy: f64 = first.map_or(0.0, |(_, bits)| bits.into_iter().map(f64::from_bits).sum());
        r.set("setup_s", median(&setup_s));
        r.set("cpu_ms", median(&cpu_ms));
        r.note_wall_times(&wall_ms);
        r.set("energy_j", energy);
        r.set(
            "slo_ratio",
            (r.attempted - r.failed) as f64 / r.attempted as f64,
        );
        r.set_opt("peak_rss_mb", peak_rss_mb());
        return;
    }

    let mut deploy_s = Vec::new();
    drop(cpu_timed(&mut deploy_s, || networks(args.seed)));
    r.set("wsn.deploy_s", deploy_s[0] / SEEDS as f64);
    // The sweep runs each seed under its own thread-local recorder, so
    // the layers are read from direct engine runs of the same seeds:
    // untraced first, then the same seeds traced.
    let seeds = args.ops(DIRECT_SEEDS_PER_S, CHECK_SEEDS).min(SEEDS);
    let mut base_s = Vec::new();
    let mut base_reports = Vec::new();
    for i in 0..seeds {
        base_reports.push(cpu_timed(&mut base_s, || direct(&nets, i, r)));
    }
    let tracer = Tracer::install();
    let mut traced_s = Vec::new();
    let mut traced_reports = Vec::new();
    for i in 0..seeds {
        let span = bc_obs::ScopedSpan::enter("bench", "seed");
        traced_reports.push(cpu_timed(&mut traced_s, || direct(&nets, i, r)));
        span.finish();
    }
    let snapshot = tracer.finish();
    let k = seeds as f64;
    r.attempted += 2 * seeds as u64;
    let bits = |v: &[Option<DesReport>]| {
        v.iter()
            .map(|d| d.as_ref().map(|d| d.charger_energy_j.0.to_bits()))
            .collect::<Vec<_>>()
    };
    r.check(bits(&base_reports) == bits(&traced_reports), || {
        "seed energies differ between the untraced and traced runs".into()
    });
    r.set(
        "obs.trace_overhead_ratio",
        median(&traced_s) / median(&base_s),
    );

    let layers = Layers::new(&snapshot);
    layers.record_planner(r, k);
    let des = layers.node("des.run");
    let plan = layers.node("plan.run");
    r.set("des.run_s", des.total_s / k);
    r.set("des.self_s", des.self_s / k);
    r.set("des.plan_s", plan.total_s / k);
    let seed_s = layers.node("bench.seed").total_s;
    if seed_s > 0.0 {
        r.set("des.seed_coverage", (des.self_s + plan.total_s) / seed_s);
    }
    let reports: Vec<&DesReport> = traced_reports.iter().flatten().collect();
    let sum = |f: fn(&DesReport) -> f64| reports.iter().map(|d| f(d)).sum::<f64>();
    let processed = sum(|d| d.events_processed as f64);
    let scheduled = sum(|d| d.events_scheduled as f64);
    r.set("des.events_processed", processed / k);
    r.set("des.events_scheduled", scheduled / k);
    if scheduled > 0.0 {
        r.set("des.unprocessed_ratio", 1.0 - processed / scheduled);
    }
    r.set("des.rounds", sum(|d| d.rounds as f64) / k);
    r.set("des.replans", sum(|d| d.replans as f64) / k);

    // The initial plan of each seed, for the planner-shape metrics.
    let cfg = PlannerConfig::paper_sim(RADIUS_M);
    let (mut families, mut bundles, mut stops) = (0.0, 0.0, 0.0);
    for net in &nets[..seeds] {
        let ctx = PlanContext::new(net.clone(), cfg.clone());
        if let Ok(staged) = ctx.plan(Algorithm::Bc) {
            families += ctx.candidates().len() as f64;
            bundles += staged.plan.num_charging_stops() as f64;
            stops += staged.plan.stops.len() as f64;
        }
    }
    r.set("candidates.count", families / k);
    r.set("cover.bundles", bundles / k);
    r.set("order.stops", stops / k);

    let t0 = Instant::now();
    let two = sweep(&nets, SEEDS, WORKERS, r);
    let two_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let one = sweep(&nets, SEEDS, 1, r);
    let one_s = t0.elapsed().as_secs_f64();
    if let (Some(one), Some(two)) = (&one, &two) {
        r.check(one.merge_hash() == two.merge_hash(), || {
            format!("merge hash differs between 1 and {WORKERS} workers")
        });
    }
    r.set_opt(
        "campaign.parallel_efficiency",
        (Provenance::capture().cores >= 2).then(|| one_s / (WORKERS as f64 * two_s)),
    );
    r.note("campaign.one_worker_s", one_s);
    r.note("campaign.two_worker_s", two_s);

    let queues: Vec<_> = QueueBackend::ALL
        .iter()
        .map(|&b| bench_queue(b, QUEUE_PENDING, QUEUE_HOLD_OPS, args.seed))
        .collect();
    if let [heap, calendar] = queues.as_slice() {
        r.check(heap.checksum == calendar.checksum, || {
            "queue backends popped different sequences".into()
        });
        r.set("des.queue.heap_events_per_s", heap.events_per_sec);
        r.set("des.queue.calendar_events_per_s", calendar.events_per_sec);
        r.set(
            "des.queue.calendar_vs_heap",
            calendar.events_per_sec / heap.events_per_sec,
        );
    }
    crate::save_profile(args, &snapshot, r);
}
