//! `serve-open`: an open-loop request stream against `PlanService`.
//!
//! Requests arrive on a seeded Poisson schedule whatever the service
//! does, so a stall shows up as queueing on the requests behind it; each
//! request is timed from the moment it was due. Plans are reads from the
//! warm per-network context caches, and every 20th request is a
//! `remove_sensor` replan, a write that invalidates its network's cache.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use bc_core::planner::Algorithm;
use bc_core::{contracts, PlanContext, PlannerConfig};
use bc_geom::Aabb;
use bc_serve::{
    NetworkId, PlanRequest, PlanService, ServeConfig, ServeError, ServeStatsSnapshot, Ticket,
};
use bc_wsn::{deploy, Network};

use crate::report::{cpu_s, cpu_timed, peak_rss_mb, Report};
use crate::rng::SplitMix;
use crate::stats::{median, percentile, tail};
use crate::trace::{Layers, Tracer};
use crate::{Args, SETUP_REPS};

/// The rate the end-to-end metrics are read at (requests/s): below the
/// knee on a 2-core machine (~70–80), where requests queue behind one
/// another but nearly all meet the objective.
const REFERENCE_RPS: f64 = 60.0;
/// The request mix of `bc_serve::loadgen`, dealt in shuffled blocks so
/// every block of eight requests holds exactly these algorithms.
const MIX: [Algorithm; 8] = [
    Algorithm::Sc,
    Algorithm::Css,
    Algorithm::Bc,
    Algorithm::Bc,
    Algorithm::BcOpt,
    Algorithm::BcOpt,
    Algorithm::BcOpt,
    Algorithm::BcOpt,
];
/// The rate ladder of the traced run, for `serve.max_rps`.
const LADDER_RPS: [f64; 5] = [20.0, 40.0, 60.0, 80.0, 100.0];
/// Length of one ladder phase as a share of the run length: 8 s in a
/// 20 s run.
const LADDER_PHASE_SHARE: f64 = 0.4;
/// A request meets its objective with a full plan within this time.
const DEADLINE: Duration = Duration::from_millis(250);
/// Share of a phase's requests that must meet the objective for its rate
/// to count as sustained.
const SLO_TARGET: f64 = 0.99;
/// Backlog growth (requests) from mid-phase to end of phase beyond which
/// a rate is not sustained; absorbs the queue's momentary jitter.
const BACKLOG_SLACK: u64 = 8;
const NETWORKS: usize = 4;
const SENSORS: usize = 100;
const SIDE_M: f64 = 300.0;
const RADIUS_M: f64 = 10.0;
const SERVICE_WORKERS: usize = 2;
const QUEUE_CAPACITY: usize = 64;
const REPLAN_EVERY: usize = 20;
/// Replans remove one of the lowest-indexed sensors, so the index stays
/// valid while the network shrinks.
const REPLAN_INDEX_SPAN: usize = 40;
/// Late submissions beyond this make the latency numbers suspect.
const GEN_LATE_LIMIT_MS: f64 = 5.0;

/// One scheduled request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Seconds after the phase start the request is due.
    pub due_s: f64,
    pub network: usize,
    pub algo: Algorithm,
    /// `Some(sensor)` for a replan removing that sensor.
    pub remove: Option<usize>,
}

/// The open-loop schedule: Poisson arrivals at `rate` over `seconds`,
/// conditioned on exactly `rate × seconds` requests (uniform order
/// statistics, drawn as normalised exponential gaps), so every phase
/// offers the same load. Algorithms follow [`MIX`]; networks are drawn
/// uniformly.
pub fn schedule(seed: u64, rate: f64, seconds: f64) -> Vec<Arrival> {
    let n = (rate * seconds).round() as usize;
    let mut rng = SplitMix::new(seed, 3);
    let mut at = Vec::with_capacity(n + 1);
    let mut t = 0.0;
    for _ in 0..=n {
        t -= (1.0 - rng.next_f64()).ln();
        at.push(t);
    }
    let scale = seconds / t;
    let mut left = [SENSORS; NETWORKS];
    let mut block = MIX;
    (0..n)
        .map(|i| {
            if i % MIX.len() == 0 {
                for j in (1..block.len()).rev() {
                    block.swap(j, rng.index(j + 1));
                }
            }
            let algo = block[i % MIX.len()];
            let network = rng.index(NETWORKS);
            let remove =
                ((i + 1) % REPLAN_EVERY == 0 && left[network] > REPLAN_INDEX_SPAN).then(|| {
                    left[network] -= 1;
                    rng.index(REPLAN_INDEX_SPAN)
                });
            Arrival {
                due_s: at[i] * scale,
                network,
                algo,
                remove,
            }
        })
        .collect()
}

fn networks(seed: u64) -> Vec<Network> {
    let mut rng = SplitMix::new(seed, 2);
    (0..NETWORKS)
        .map(|_| deploy::uniform(SENSORS, Aabb::square(SIDE_M), 2.0, rng.next_u64()))
        .collect()
}

/// A started service with the workload's networks registered and warm.
struct Service {
    svc: PlanService,
    ids: Vec<NetworkId>,
    /// Total energy of each network's warm BC-OPT plan.
    energy_j: Vec<f64>,
}

/// Starts a service, registers the networks and plans every algorithm
/// on each once, so the phase starts from warm caches.
fn start(nets: &[Network], r: &mut Report) -> Option<Service> {
    let cfg = PlannerConfig::paper_sim(RADIUS_M);
    let serve_cfg = ServeConfig {
        workers: SERVICE_WORKERS,
        queue_capacity: QUEUE_CAPACITY,
        default_timeout: Some(DEADLINE),
        ..ServeConfig::default()
    };
    let svc = match PlanService::start(serve_cfg) {
        Ok(svc) => svc,
        Err(e) => {
            r.fail(format!("service start: {e}"));
            return None;
        }
    };
    let mut ids = Vec::new();
    let mut energy_j = Vec::new();
    for net in nets {
        let id = svc.register(net.clone(), cfg.clone());
        ids.push(id);
        for algo in Algorithm::ALL {
            match svc.call(PlanRequest::plan(id, algo).with_timeout(Duration::from_secs(60))) {
                Ok(resp) => {
                    if let Err(v) = contracts::check_plan(&resp.plan, net, &cfg) {
                        r.fail(format!("warm {algo} plan violates a contract: {v}"));
                    }
                    if algo == Algorithm::BcOpt {
                        energy_j.push(resp.plan.metrics(&cfg.energy).total_energy_j.0);
                    }
                }
                Err(e) => r.fail(format!("warm {algo} request failed: {e}")),
            }
        }
    }
    Some(Service { svc, ids, energy_j })
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Full,
    Degraded,
    Shed,
    Deadline,
    Failed,
}

/// One request's fate.
#[derive(Debug, Clone, Copy)]
struct Served {
    algo: Algorithm,
    outcome: Outcome,
    /// From due time to response (plans only).
    latency_ms: Option<f64>,
    /// `PlanResponse::latency`: queue wait plus build.
    service_ms: Option<f64>,
    late_ms: f64,
    stops: usize,
    charging_stops: usize,
}

impl Served {
    /// Whether the request got a plan, full or degraded.
    fn is_plan(&self) -> bool {
        matches!(self.outcome, Outcome::Full | Outcome::Degraded)
    }

    fn is_bcopt_plan(&self) -> bool {
        self.algo == Algorithm::BcOpt && self.is_plan()
    }

    fn meets_slo(&self) -> bool {
        self.outcome == Outcome::Full
            && self
                .latency_ms
                .is_some_and(|ms| ms <= DEADLINE.as_secs_f64() * 1e3)
    }
}

struct Phase {
    served: Vec<Served>,
    /// CPU time of the whole process from the first submission until the
    /// last response: the service's work plus the load generator's.
    cpu_s: f64,
    backlog_mid: u64,
    backlog_end: u64,
    stats: ServeStatsSnapshot,
    poisoned: usize,
    rebuilds: u64,
}

impl Phase {
    fn slo_ratio(&self) -> f64 {
        let met = self.served.iter().filter(|s| s.meets_slo()).count();
        if self.served.is_empty() {
            0.0
        } else {
            met as f64 / self.served.len() as f64
        }
    }

    fn latencies(&self, keep: impl Fn(&Served) -> bool) -> Vec<f64> {
        self.served
            .iter()
            .filter(|s| keep(s))
            .filter_map(|s| s.latency_ms)
            .collect()
    }

    fn count(&self, outcome: Outcome) -> f64 {
        self.served.iter().filter(|s| s.outcome == outcome).count() as f64
    }

    fn sustained(&self) -> bool {
        self.slo_ratio() >= SLO_TARGET && self.backlog_end <= self.backlog_mid + BACKLOG_SLACK
    }
}

fn backlog(svc: &PlanService) -> u64 {
    let s = svc.stats();
    s.submitted.saturating_sub(s.responses())
}

fn classify(
    result: Result<bc_serve::PlanResponse, ServeError>,
    late_s: f64,
    algo: Algorithm,
) -> Served {
    let mut served = Served {
        algo,
        outcome: Outcome::Failed,
        latency_ms: None,
        service_ms: None,
        late_ms: late_s * 1e3,
        stops: 0,
        charging_stops: 0,
    };
    match result {
        Ok(resp) if !resp.plan.stops.is_empty() => {
            served.outcome = if resp.degraded() {
                Outcome::Degraded
            } else {
                Outcome::Full
            };
            served.latency_ms = Some((late_s + resp.latency.as_secs_f64()) * 1e3);
            served.service_ms = Some(resp.latency.as_secs_f64() * 1e3);
            served.stops = resp.plan.stops.len();
            served.charging_stops = resp.plan.num_charging_stops();
        }
        Ok(_) => {}
        Err(ServeError::Shed { .. }) => served.outcome = Outcome::Shed,
        Err(ServeError::DeadlineExceeded { .. }) => served.outcome = Outcome::Deadline,
        Err(_) => {}
    }
    served
}

/// Runs one open-loop phase: this thread submits on schedule, one
/// collector thread waits for the responses in submission order.
fn run_phase(service: &Service, arrivals: &[Arrival], seconds: f64, traced: bool) -> Phase {
    let svc = &service.svc;
    let (tx, rx) = mpsc::channel::<(usize, f64, Ticket)>();
    let mut served: Vec<Option<Served>> = vec![None; arrivals.len()];
    let mut backlog_mid = 0;
    let mut backlog_end = 0;
    let cpu_start = cpu_s();
    let collected = std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            rx.into_iter()
                .map(|(i, late_s, ticket)| (i, classify(ticket.wait(), late_s, arrivals[i].algo)))
                .collect::<Vec<_>>()
        });
        let start = Instant::now();
        let mut mid_taken = false;
        for (i, a) in arrivals.iter().enumerate() {
            if !mid_taken && a.due_s >= seconds / 2.0 {
                backlog_mid = backlog(svc);
                mid_taken = true;
            }
            let due = start + Duration::from_secs_f64(a.due_s);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let late_s = Instant::now().saturating_duration_since(due).as_secs_f64();
            let id = service.ids[a.network];
            let req = match a.remove {
                Some(sensor) => PlanRequest::remove_sensor(id, a.algo, sensor),
                None => PlanRequest::plan(id, a.algo),
            };
            let span = traced.then(|| bc_obs::ScopedSpan::enter("bench", "submit"));
            let submitted = svc.submit(req);
            drop(span);
            match submitted {
                Ok(ticket) => {
                    // The collector only ends after this loop drops `tx`.
                    let _ = tx.send((i, late_s, ticket));
                }
                Err(e) => served[i] = Some(classify(Err(e), late_s, a.algo)),
            }
        }
        backlog_end = backlog(svc);
        drop(tx);
        collector.join().unwrap_or_default()
    });
    let cpu_s = cpu_s() - cpu_start;
    for (i, s) in collected {
        served[i] = Some(s);
    }
    Phase {
        served: served.into_iter().flatten().collect(),
        cpu_s,
        backlog_mid,
        backlog_end,
        stats: svc.stats(),
        poisoned: svc.poisoned_entries(),
        rebuilds: svc.registry().total_rebuilds(),
    }
}

/// The correctness gate every phase passes through.
fn check_phase(phase: &Phase, sent: usize, r: &mut Report) {
    r.attempted += sent as u64;
    let failed = phase.count(Outcome::Failed) as u64;
    r.failed += failed;
    r.check(failed == 0, || {
        format!("{failed} requests failed or returned an empty plan")
    });
    r.check(phase.served.len() == sent, || {
        format!(
            "{} of {sent} requests unaccounted for",
            sent - phase.served.len()
        )
    });
    r.check(phase.poisoned == 0, || {
        format!("{} cache entries left poisoned", phase.poisoned)
    });
    let s = phase.stats;
    r.check(s.submitted == s.responses(), || {
        format!(
            "service accepted {} requests but answered {}",
            s.submitted,
            s.responses()
        )
    });
}

/// Starts the phase's service (fresh, so replans of an earlier phase do
/// not leak into it) and runs the phase at `rate` for `seconds`.
fn phase(
    args: &Args,
    nets: &[Network],
    rate: f64,
    seconds: f64,
    traced: bool,
    r: &mut Report,
) -> Option<(Phase, Vec<f64>)> {
    let service = start(nets, r)?;
    let arrivals = schedule(args.seed, rate, seconds);
    let tracer = traced.then(Tracer::install);
    let phase = run_phase(&service, &arrivals, seconds, traced);
    if let Some(tracer) = tracer {
        let snapshot = tracer.finish();
        record_layers(&phase, &snapshot, r);
        crate::save_profile(args, &snapshot, r);
    }
    check_phase(&phase, arrivals.len(), r);
    Some((phase, service.energy_j))
}

fn record_layers(phase: &Phase, snapshot: &bc_obs::tree::SpanTreeSnapshot, r: &mut Report) {
    let layers = Layers::new(snapshot);
    let requests = layers.node("serve.request").count as f64;
    layers.record_planner(r, requests);
    r.set(
        "serve.latency_ms.full_p50",
        median(&phase.latencies(|s| s.outcome == Outcome::Full)),
    );
    r.set(
        "serve.latency_ms.degraded_p50",
        median(&phase.latencies(|s| s.outcome == Outcome::Degraded)),
    );
    for (name, algo) in [
        ("serve.latency_ms.sc_p50", Algorithm::Sc),
        ("serve.latency_ms.css_p50", Algorithm::Css),
        ("serve.latency_ms.bc_p50", Algorithm::Bc),
        ("serve.latency_ms.bcopt_p50", Algorithm::BcOpt),
    ] {
        r.set(name, median(&phase.latencies(|s| s.algo == algo)));
    }
    let service_ms: Vec<f64> = phase.served.iter().filter_map(|s| s.service_ms).collect();
    r.set("serve.service_ms_p50", median(&service_ms));
    r.set("serve.shed", phase.count(Outcome::Shed));
    r.set("serve.deadline", phase.count(Outcome::Deadline));
    r.set("serve.failed", phase.count(Outcome::Failed));
    let rung = layers.node("serve.rung");
    if rung.count > 0 {
        r.set("serve.rung_s", rung.total_s / rung.count as f64);
    }
    if requests > 0.0 {
        r.set("serve.rungs_per_request", rung.count as f64 / requests);
    }
    r.set("serve.retries", phase.stats.retries as f64);
    r.set("serve.dedup_hits", phase.stats.dedup_hits as f64);
    r.set("serve.rebuilds", phase.rebuilds as f64);
    r.set("serve.replans", phase.stats.replans as f64);
    let late: Vec<f64> = phase.served.iter().map(|s| s.late_ms).collect();
    let late_p99 = percentile(&late, 0.99);
    r.set("serve.gen_late_ms_p99", late_p99);
    if late_p99 > GEN_LATE_LIMIT_MS {
        eprintln!(
            "warning: the load generator ran {late_p99:.1} ms late at p99; latencies are suspect"
        );
        r.note("serve.gen_late_flag", 1.0);
    }
    let plans: Vec<&Served> = phase.served.iter().filter(|s| s.is_plan()).collect();
    if !plans.is_empty() {
        let n = plans.len() as f64;
        r.set(
            "cover.bundles",
            plans.iter().map(|s| s.charging_stops as f64).sum::<f64>() / n,
        );
        r.set(
            "order.stops",
            plans.iter().map(|s| s.stops as f64).sum::<f64>() / n,
        );
    }
}

pub fn run(args: &Args, r: &mut Report) {
    r.workers = Some(SERVICE_WORKERS);
    r.note("networks", NETWORKS as f64);
    r.note("sensors", SENSORS as f64);
    r.note("reference_rps", REFERENCE_RPS);
    let seconds = args.seconds as f64;

    let mut deploy_s = Vec::new();
    let nets = cpu_timed(&mut deploy_s, || networks(args.seed));

    // Set-up is a service start plus registration and warm-up, repeated;
    // the last service is discarded too (each phase starts its own).
    let mut setup_s = Vec::new();
    for _ in 0..SETUP_REPS {
        drop(cpu_timed(&mut setup_s, || start(&nets, r)));
    }

    if !args.traced {
        let Some((phase, energy)) = phase(args, &nets, REFERENCE_RPS, seconds, false, r) else {
            return;
        };
        r.set("setup_s", median(&setup_s));
        r.set("cpu_ms", phase.cpu_s * 1e3 / phase.served.len() as f64);
        r.note_wall_times(&phase.latencies(Served::is_plan));
        r.note(
            "wall_ms.bcopt_p50",
            median(&phase.latencies(Served::is_bcopt_plan)),
        );
        r.set("energy_j", energy.iter().sum());
        r.set("slo_ratio", phase.slo_ratio());
        r.set_opt("peak_rss_mb", peak_rss_mb());
        return;
    }

    r.set("wsn.deploy_s", deploy_s[0] / NETWORKS as f64);
    let cfg = PlannerConfig::paper_sim(RADIUS_M);
    let families: f64 = nets
        .iter()
        .map(|n| PlanContext::new(n.clone(), cfg.clone()).candidates().len() as f64)
        .sum();
    r.set("candidates.count", families / NETWORKS as f64);
    let base = phase(args, &nets, REFERENCE_RPS, seconds / 2.0, false, r);
    let traced = phase(args, &nets, REFERENCE_RPS, seconds / 2.0, true, r);
    if let (Some((base, base_energy)), Some((traced, traced_energy))) = (base, traced) {
        r.set(
            "obs.trace_overhead_ratio",
            median(&traced.latencies(Served::is_bcopt_plan))
                / median(&base.latencies(Served::is_bcopt_plan)),
        );
        if let Some((q, tail_ms)) = tail(&base.latencies(Served::is_plan)) {
            r.set("serve.latency_ms.tail", tail_ms);
            r.note("serve.latency_ms.tail.quantile", q);
        }
        let bits = |v: &[f64]| v.iter().map(|e| e.to_bits()).collect::<Vec<_>>();
        r.check(bits(&base_energy) == bits(&traced_energy), || {
            "warm plan energies differ between the untraced and traced phases".into()
        });
    }
    let mut max_rps = 0.0;
    for (rate, name) in LADDER_RPS.into_iter().zip([
        "serve.ladder.slo_20rps",
        "serve.ladder.slo_40rps",
        "serve.ladder.slo_60rps",
        "serve.ladder.slo_80rps",
        "serve.ladder.slo_100rps",
    ]) {
        let Some((p, _)) = phase(args, &nets, rate, seconds * LADDER_PHASE_SHARE, false, r) else {
            continue;
        };
        r.set(name, p.slo_ratio());
        r.note(
            &format!("serve.ladder.backlog_growth_{rate}rps"),
            p.backlog_end as f64 - p.backlog_mid as f64,
        );
        if p.sustained() {
            max_rps = rate;
        }
    }
    r.set("serve.max_rps", max_rps);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_a_function_of_the_seed() {
        let a = schedule(7, 60.0, 20.0);
        assert_eq!(a, schedule(7, 60.0, 20.0));
        assert_ne!(a, schedule(8, 60.0, 20.0));
        assert_eq!(a.len(), 1200);
        assert!(a.windows(2).all(|w| w[0].due_s <= w[1].due_s));
        assert!(a.iter().all(|x| (0.0..20.0).contains(&x.due_s)));
    }

    #[test]
    fn schedule_mix_and_replans() {
        let a = schedule(3, 100.0, 8.0);
        for block in a.chunks(MIX.len()) {
            let count = |algo| block.iter().filter(|x| x.algo == algo).count();
            assert_eq!(
                [
                    Algorithm::Sc,
                    Algorithm::Css,
                    Algorithm::Bc,
                    Algorithm::BcOpt
                ]
                .map(count),
                [1, 1, 2, 4]
            );
        }
        assert_ne!(
            a[..8].iter().map(|x| x.algo).collect::<Vec<_>>(),
            MIX.to_vec()
        );
        let replans = a.iter().filter(|x| x.remove.is_some()).count();
        assert_eq!(replans, a.len() / REPLAN_EVERY);
        assert!(a
            .iter()
            .filter_map(|x| x.remove)
            .all(|s| s < REPLAN_INDEX_SPAN));
        // Gaps look exponential: their mean matches the rate.
        let mean_gap = a.last().unwrap().due_s / a.len() as f64;
        assert!((mean_gap - 0.01).abs() < 0.001, "{mean_gap}");
    }
}
