//! Deterministic load generator and chaos harness.
//!
//! [`run`] drives a [`PlanService`] with a seeded, reproducible request
//! mix — every client's network/algorithm/replan choices are pure
//! functions of `(seed, client, request)` — then drains, snapshots the
//! counters, and cross-checks the availability invariants the chaos
//! harness is built to prove:
//!
//! * **zero lost responses** — every submitted request produced exactly
//!   one response, counted independently on the client and service side;
//! * **zero poisoned entries** — every injected panic was repaired by a
//!   rebuild before the run drained;
//! * **exactly-once recovery** — rebuilds equal caught panics: each
//!   poisoning is repaired once, never by two racing workers;
//! * **typed outcomes only** — each response is a contract-valid plan
//!   (tagged with its degradation level) or a typed shed/deadline/
//!   retry error.
//!
//! Wall-clock latency quantiles are *measured*, not drawn from the
//! seed, so they vary run to run; the invariants do not.

use std::sync::Once;
use std::time::Duration;

use bc_core::planner::Algorithm;
use bc_core::PlannerConfig;
use bc_geom::Aabb;
use bc_wsn::deploy;

use crate::error::ServeError;
use crate::faults::{ServeFaultModel, ServeRng};
use crate::retry::RetryPolicy;
use crate::service::{InjectedPanic, PlanRequest, PlanService, ServeConfig};
use crate::stats::ServeStatsSnapshot;

/// Shape of one load-generation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadProfile {
    /// Master seed for the request mix (and the fault model, via
    /// `serve.faults.seed`).
    pub seed: u64,
    /// Networks to register.
    pub networks: usize,
    /// Sensors per network.
    pub sensors: usize,
    /// Bundle radius handed to [`PlannerConfig::paper_sim`].
    pub bundle_radius: f64,
    /// Concurrent client threads.
    pub clients: usize,
    /// Requests each client issues.
    pub requests_per_client: usize,
    /// Per-request deadline (`None` = unbounded).
    pub timeout: Option<Duration>,
    /// Every k-th request per client is a replan mutation (0 = never).
    pub replan_every: usize,
    /// Service configuration, including the fault model.
    pub serve: ServeConfig,
}

impl LoadProfile {
    /// Fault-free smoke profile: small fleet, no deadlines.
    pub fn smoke(seed: u64) -> Self {
        LoadProfile {
            seed,
            networks: 2,
            sensors: 30,
            bundle_radius: 25.0,
            clients: 4,
            requests_per_client: 12,
            timeout: None,
            replan_every: 0,
            serve: ServeConfig::default(),
        }
    }

    /// The chaos preset: combined stall + transient-failure + panic
    /// injection, deadlines tight against the BC-OPT build time, and a
    /// worker pool + queue sized well below the offered concurrency so
    /// admission control must shed. Tuned so every robustness path
    /// fires in one run: sheds, queue-delay deadline misses, ladder
    /// degradations, retries, and panic-triggered rebuilds.
    pub fn chaos(seed: u64) -> Self {
        LoadProfile {
            seed,
            networks: 3,
            sensors: 120,
            bundle_radius: 25.0,
            clients: 12,
            requests_per_client: 20,
            timeout: Some(Duration::from_millis(30)),
            replan_every: 7,
            serve: ServeConfig {
                workers: 2,
                queue_capacity: 4,
                retry: RetryPolicy::default(),
                default_timeout: None,
                faults: ServeFaultModel {
                    seed,
                    stall_prob: 0.2,
                    stall_ms_max: 25,
                    fail_prob: 0.2,
                    panic_prob: 0.2,
                },
            },
        }
    }

    fn validate(&self) -> Result<(), ServeError> {
        for (name, v) in [
            ("networks", self.networks),
            ("sensors", self.sensors),
            ("clients", self.clients),
            ("requests_per_client", self.requests_per_client),
        ] {
            if v == 0 {
                return Err(ServeError::InvalidConfig(format!("{name} must be >= 1")));
            }
        }
        self.serve.validate()
    }

    /// Total requests the profile offers.
    pub fn total_requests(&self) -> u64 {
        self.clients as u64 * self.requests_per_client as u64 // cast-ok: request counts fit u64
    }
}

/// Measured latency quantiles in milliseconds (exact, from the full
/// sorted sample — not histogram estimates).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LatencySummary {
    /// Median.
    pub p50_ms: f64,
    /// 99th percentile.
    pub p99_ms: f64,
    /// Worst observed.
    pub max_ms: f64,
    /// Arithmetic mean.
    pub mean_ms: f64,
}

/// Exact percentile of an unsorted sample (nearest-rank); 0 when empty.
#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)] // rank is clamped to [1, len] right after the cast
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()); // cast-ok: rank bounded by sample count
    sorted[rank - 1]
}

/// Everything a load run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadReport {
    /// Requests offered by clients.
    pub requests_sent: u64,
    /// Responses observed by clients (plans + typed errors).
    pub responses_seen: u64,
    /// Level-0 plan responses.
    pub ok_full: u64,
    /// Degraded plan responses (descended and/or tighten-cut).
    pub ok_degraded: u64,
    /// Requests shed at admission.
    pub shed: u64,
    /// Deadline misses.
    pub deadline: u64,
    /// Typed failures (retries exhausted, planner errors).
    pub failed: u64,
    /// Plan responses that failed client-side revalidation (must be 0).
    pub invalid_plans: u64,
    /// `requests_sent - responses_seen` plus any service-side
    /// accounting gap (must be 0).
    pub lost_responses: u64,
    /// Poisoned registry entries after drain (must be 0).
    pub poisoned_entries: u64,
    /// Entry rebuilds: one per poisoning of a cache entry's lock.
    pub rebuilds: u64,
    /// Measured latency quantiles.
    pub latency: LatencySummary,
    /// Responses per wall-clock second.
    pub throughput_rps: f64,
    /// Service counter snapshot.
    pub stats: ServeStatsSnapshot,
}

impl LoadReport {
    /// True when every availability invariant held: no lost responses,
    /// no poisoned entries, no invalid plans, and exactly one rebuild per
    /// caught panic. The last one holds because the only panics are the
    /// injected ones, and each unwinds through an entry's lock, poisoning
    /// it exactly once.
    pub fn invariants_hold(&self) -> bool {
        self.lost_responses == 0
            && self.poisoned_entries == 0
            && self.invalid_plans == 0
            && self.rebuilds == self.stats.panics_caught
    }
}

/// Suppresses the default panic printout for injected chaos panics so
/// a chaos run doesn't spam stderr; real panics still print.
fn silence_injected_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().is::<InjectedPanic>() {
                return;
            }
            previous(info);
        }));
    });
}

/// Per-client tallies merged into the report.
#[derive(Default)]
struct ClientTally {
    responses: u64,
    ok_full: u64,
    ok_degraded: u64,
    shed: u64,
    deadline: u64,
    failed: u64,
    invalid_plans: u64,
    latencies_ms: Vec<f64>,
}

/// Runs the profile to completion and returns the report.
///
/// # Errors
///
/// [`ServeError::InvalidConfig`] for a malformed profile; service
/// errors are *outcomes* recorded in the report, not `Err` returns.
pub fn run(profile: &LoadProfile) -> Result<LoadReport, ServeError> {
    profile.validate()?;
    if profile.serve.faults.panic_prob > 0.0 {
        silence_injected_panics();
    }
    let service = PlanService::start(profile.serve)?;
    let cfg = PlannerConfig::paper_sim(profile.bundle_radius);
    let ids: Vec<_> = (0..profile.networks)
        .map(|i| {
            let net = deploy::uniform(
                profile.sensors,
                Aabb::square(300.0),
                2.0,
                profile.seed.wrapping_add(i as u64), // cast-ok: network index fits u64
            );
            service.register(net, cfg.clone())
        })
        .collect();

    let started = bc_obs::wall::now();
    let tallies: Vec<ClientTally> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..profile.clients)
            .map(|client| {
                let service = &service;
                let ids = &ids;
                scope.spawn(move || run_client(profile, client as u64, service, ids)) // cast-ok: client index fits u64
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_default())
            .collect()
    });
    let elapsed = started.elapsed();
    let stats = service.stats();
    let poisoned = service.poisoned_entries() as u64; // cast-ok: entry count fits u64
    let rebuilds = service.registry().total_rebuilds();
    drop(service);

    let mut merged = ClientTally::default();
    for t in tallies {
        merged.responses += t.responses;
        merged.ok_full += t.ok_full;
        merged.ok_degraded += t.ok_degraded;
        merged.shed += t.shed;
        merged.deadline += t.deadline;
        merged.failed += t.failed;
        merged.invalid_plans += t.invalid_plans;
        merged.latencies_ms.extend(t.latencies_ms);
    }
    let requests_sent = profile.total_requests();
    // Client side: every request must have produced a response. Service
    // side: everything admitted must have been delivered or drained.
    let client_gap = requests_sent.saturating_sub(merged.responses);
    let service_gap = stats
        .submitted
        .saturating_sub(stats.responses());
    let mean = if merged.latencies_ms.is_empty() {
        0.0
    } else {
        merged.latencies_ms.iter().sum::<f64>() / merged.latencies_ms.len() as f64 // cast-ok: sample count to mean
    };
    let latency = LatencySummary {
        p50_ms: percentile(&merged.latencies_ms, 0.50),
        p99_ms: percentile(&merged.latencies_ms, 0.99),
        max_ms: merged.latencies_ms.iter().fold(0.0, |a: f64, &b| a.max(b)),
        mean_ms: mean,
    };
    Ok(LoadReport {
        requests_sent,
        responses_seen: merged.responses,
        ok_full: merged.ok_full,
        ok_degraded: merged.ok_degraded,
        shed: merged.shed,
        deadline: merged.deadline,
        failed: merged.failed,
        invalid_plans: merged.invalid_plans,
        lost_responses: client_gap + service_gap,
        poisoned_entries: poisoned,
        rebuilds,
        latency,
        throughput_rps: if elapsed.as_secs_f64() > 0.0 {
            merged.responses as f64 / elapsed.as_secs_f64() // cast-ok: counts to rate
        } else {
            0.0
        },
        stats,
    })
}

fn run_client(
    profile: &LoadProfile,
    client: u64,
    service: &PlanService,
    ids: &[crate::registry::NetworkId],
) -> ClientTally {
    let mut rng = ServeRng::new(profile.seed ^ 0xC11E_0000, client);
    let mut tally = ClientTally::default();
    for r in 0..profile.requests_per_client {
        let network = ids[rng.index(ids.len())];
        // BC-OPT-heavy mix: the expensive rung is the one the ladder
        // and deadline machinery exist for.
        let algo = match rng.index(8) {
            0 => Algorithm::Sc,
            1 => Algorithm::Css,
            2 | 3 => Algorithm::Bc,
            _ => Algorithm::BcOpt,
        };
        let replan = profile.replan_every > 0 && (r + 1) % profile.replan_every == 0;
        let mut req = if replan {
            // Remove a low sensor index; the service surfaces a typed
            // error if concurrent replans already removed it.
            PlanRequest::remove_sensor(network, algo, rng.index(4))
        } else {
            PlanRequest::plan(network, algo)
        };
        if let Some(t) = profile.timeout {
            req = req.with_timeout(t);
        }
        let issued = bc_obs::wall::now();
        let outcome = service.call(req);
        tally
            .latencies_ms
            .push(issued.elapsed().as_secs_f64() * 1e3);
        tally.responses += 1;
        match outcome {
            Ok(resp) => {
                if resp.degraded() {
                    tally.ok_degraded += 1;
                } else {
                    tally.ok_full += 1;
                }
                if resp.plan.stops.is_empty() {
                    tally.invalid_plans += 1;
                }
            }
            Err(ServeError::Shed { .. }) => tally.shed += 1,
            Err(ServeError::DeadlineExceeded { .. }) => tally.deadline += 1,
            Err(_) => tally.failed += 1,
        }
    }
    tally
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_profile_serves_everything() {
        let report = run(&LoadProfile::smoke(17)).unwrap();
        assert_eq!(report.requests_sent, 48);
        assert_eq!(report.responses_seen, 48);
        assert_eq!(report.ok_full, 48);
        assert_eq!(report.ok_degraded + report.shed + report.deadline + report.failed, 0);
        assert!(report.invariants_hold());
        assert!(report.latency.p99_ms >= report.latency.p50_ms);
        assert!(report.throughput_rps > 0.0);
    }

    #[test]
    fn percentile_is_exact_nearest_rank() {
        let samples = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile(&samples, 0.50), 3.0);
        assert_eq!(percentile(&samples, 0.99), 5.0);
        assert_eq!(percentile(&samples, 1.0), 5.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }
}
