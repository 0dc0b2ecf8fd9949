//! Chaos acceptance test for `bc-serve`: the service must stay
//! available — every request answered exactly once with a typed
//! outcome, no poisoned cache entries, no contract-invalid plans, and
//! exactly one rebuild per caught panic — under combined stall +
//! transient-failure + panic + overload injection. A reduced profile
//! keeps dev-profile wall time in check while every injector still
//! fires, and the test sweeps many seeds so that a recovery race
//! (which shows up only under some interleavings) cannot hide behind
//! one or two lucky ones.

use std::time::Duration;

use bundle_charging::serve::{loadgen, LoadProfile, RetryPolicy, ServeConfig, ServeFaultModel};

/// A dev-profile chaos preset: all four injectors on, offered
/// concurrency well above worker + queue capacity, deadlines tight
/// against the dev-mode build time.
fn dev_chaos(seed: u64) -> LoadProfile {
    let mut p = LoadProfile::smoke(seed);
    p.networks = 2;
    p.sensors = 40;
    p.clients = 8;
    p.requests_per_client = 8;
    p.timeout = Some(Duration::from_millis(80));
    p.replan_every = 5;
    p.serve = ServeConfig {
        workers: 2,
        queue_capacity: 3,
        retry: RetryPolicy::default(),
        default_timeout: None,
        faults: ServeFaultModel {
            seed,
            stall_prob: 0.25,
            stall_ms_max: 20,
            fail_prob: 0.25,
            panic_prob: 0.25,
        },
    };
    p
}

/// Seeds the chaos test sweeps: enough that a recovery race which breaks
/// `rebuilds == panics_caught` only under some thread interleavings
/// fails the test on every run, not on an occasional one.
const CHAOS_SEEDS: u64 = 48;

#[test]
fn service_stays_available_under_combined_chaos() {
    for seed in 0..CHAOS_SEEDS {
        let report = loadgen::run(&dev_chaos(seed)).expect("profile is valid");
        assert_eq!(
            report.responses_seen, report.requests_sent,
            "seed {seed}: every request must produce exactly one response"
        );
        assert_eq!(report.lost_responses, 0, "seed {seed}");
        assert_eq!(report.poisoned_entries, 0, "seed {seed}");
        assert_eq!(report.invalid_plans, 0, "seed {seed}");
        // The preset is tuned so recovery actually happens: at a 25%
        // panic rate over 64 requests, a panic-free run means the
        // injectors are not wired up.
        assert!(
            report.stats.panics_caught > 0,
            "seed {seed}: chaos run injected no panics"
        );
        assert_eq!(
            report.rebuilds, report.stats.panics_caught,
            "seed {seed}: every caught panic must trigger exactly one rebuild"
        );
        assert!(
            report.invariants_hold(),
            "seed {seed}: availability invariants broken: {report:?}"
        );
    }
}

#[test]
fn fault_free_run_serves_every_request_at_full_fidelity() {
    let report = loadgen::run(&LoadProfile::smoke(3)).expect("profile is valid");
    assert!(report.invariants_hold(), "{report:?}");
    assert_eq!(report.ok_full, report.requests_sent);
    assert_eq!(
        report.ok_degraded + report.shed + report.deadline + report.failed,
        0
    );
    assert_eq!(report.stats.panics_caught, 0);
}
