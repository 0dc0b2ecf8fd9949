//! Goldens for DES runs that replan, in the campaign shape: n = 200 in a
//! 300 m field, BC at r = 10 m, the calendar queue and a 168 h horizon.
//!
//! Each line pins `seed mode | rounds fault_deaths replans | FNV-1a of
//! the report's Debug text` for one run. The modes are a clean single
//! charger, a single charger under faults at rate 0.2 with
//! `SkipAndContinue`, `ReplanRemaining` and `ReturnToBase`, and a clean
//! 3-charger fleet under nearest-idle dispatch. Every run here replans, so a
//! change to when the engine plans, or to what a replan returns, shows
//! up as a changed hash. `tests/des_equivalence.rs` holds these modes
//! only to the reference integrator's 1e-9 relative tolerance, and the
//! clean golden in `tests/des_determinism.rs` never replans.

use bundle_charging::core::planner::Algorithm;
use bundle_charging::core::{FaultModel, RecoveryPolicy};
use bundle_charging::des::{clock, run, DispatchPolicy, QueueBackend, Scenario};
use bundle_charging::geom::Aabb;
use bundle_charging::wsn::deploy;

const GOLDEN: [&str; 10] = [
    "1 clean | 66 0 65 | 905d7e14b3b0092e",
    "1 skip | 63 100 62 | 29eb06d120d7c0f9",
    "1 replan-remaining | 67 100 4609 | f4492cedbc4ad715",
    "1 return-to-base | 59 100 58 | 7e53f8dc7438c7ab",
    "1 fleet3 | 80 0 79 | 9ea7d1b8025c8a60",
    "2 clean | 63 0 62 | 4406666f99a2b8f3",
    "2 skip | 54 25 53 | 9bfaeba7c1a69bbd",
    "2 replan-remaining | 55 26 672 | e2705263a7b852df",
    "2 return-to-base | 51 22 50 | 0accd2ac5e9bf16b",
    "2 fleet3 | 95 0 94 | 2be3e8992ddb84ef",
];

const MODES: [&str; 5] = [
    "clean",
    "skip",
    "replan-remaining",
    "return-to-base",
    "fleet3",
];

/// One seed of the campaign workload in the named mode.
fn scenario(seed: u64, mode: &str) -> Scenario {
    let net = deploy::uniform(200, Aabb::square(300.0), 2.0, seed);
    let mut sc = Scenario::paper_sim(net, 10.0, Algorithm::Bc).with_queue(QueueBackend::Calendar);
    sc.horizon_s = clock::hours(168.0);
    sc.trace_capacity = 0;
    match mode {
        "clean" => sc,
        "skip" => sc.with_faults(
            FaultModel::with_rate(seed, 0.2),
            RecoveryPolicy::SkipAndContinue,
        ),
        "replan-remaining" => sc.with_faults(
            FaultModel::with_rate(seed, 0.2),
            RecoveryPolicy::ReplanRemaining,
        ),
        "return-to-base" => sc.with_faults(
            FaultModel::with_rate(seed, 0.2),
            RecoveryPolicy::ReturnToBase,
        ),
        "fleet3" => sc.with_fleet(3, DispatchPolicy::NearestIdle),
        other => panic!("unknown mode {other}"),
    }
}

/// 64-bit FNV-1a over a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn replanning_reports_are_pinned() {
    let mut got = Vec::new();
    for seed in 1..=2u64 {
        for mode in MODES {
            let rep = run(&scenario(seed, mode)).expect("campaign-shape run");
            rep.check_fleet_ledger()
                .expect("ledgers sum to the fleet total");
            got.push(format!(
                "{seed} {mode} | {} {} {} | {:016x}",
                rep.rounds,
                rep.fault_deaths,
                rep.replans,
                fnv1a(format!("{rep:?}").as_bytes())
            ));
        }
    }
    assert_eq!(got, GOLDEN, "got:\n{}", got.join("\n"));
}
