//! Determinism properties of the `bc-des` discrete-event engine.
//!
//! The engine's contract is that a [`Scenario`] is the *only* input: two
//! equal scenarios must produce byte-identical event traces and equal
//! reports, simultaneous events must resolve by scheduling sequence (not
//! heap internals or insertion luck), and fleet dispatch must break ties
//! deterministically.

use proptest::prelude::*;

use bundle_charging::core::planner::Algorithm;
use bundle_charging::core::{FaultModel, RecoveryPolicy};
use bundle_charging::des::{assign_stops, run, DispatchPolicy, EventQueue, Scenario, Time};
use bundle_charging::geom::{Aabb, Point};
use bundle_charging::units::Seconds;
use bundle_charging::wsn::deploy;

fn policy(pick: usize) -> DispatchPolicy {
    match pick % 3 {
        0 => DispatchPolicy::NearestIdle,
        1 => DispatchPolicy::RoundRobin,
        _ => DispatchPolicy::BundlePartition,
    }
}

/// A small, fast scenario: short horizon so proptest cases stay cheap.
fn scenario(seed: u64, n: usize, fleet: usize, pick: usize, faulty: bool) -> Scenario {
    let net = deploy::uniform(n, Aabb::square(200.0), 2.0, seed);
    let mut sc = Scenario::paper_sim(net, 25.0, Algorithm::Bc).with_fleet(fleet, policy(pick));
    sc.horizon_s = Seconds(3.0 * 3600.0);
    if faulty {
        sc = sc.with_faults(
            FaultModel::with_rate(seed, 0.2),
            RecoveryPolicy::SkipAndContinue,
        );
    }
    sc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Running the same scenario twice gives (a) an equal report down to
    /// every field, and (b) a byte-identical Debug rendering of the event
    /// trace — the strongest equality we can observe from outside.
    #[test]
    fn identical_scenarios_replay_byte_identical_traces(
        seed in 0u64..1_000,
        n in 6usize..18,
        fleet in 1usize..4,
        pick in 0usize..3,
        faulty in 0u32..2,
    ) {
        let a = run(&scenario(seed, n, fleet, pick, faulty == 1)).expect("run a");
        let b = run(&scenario(seed, n, fleet, pick, faulty == 1)).expect("run b");
        prop_assert_eq!(&a, &b);
        let trace_a = format!("{:?}", a.trace);
        let trace_b = format!("{:?}", b.trace);
        prop_assert_eq!(trace_a.as_bytes(), trace_b.as_bytes());
        prop_assert_eq!(a.events_processed, b.events_processed);
    }

    /// The event queue pops in `(time, sequence)` order for arbitrary
    /// schedules: sorted by time, and FIFO within a timestamp.
    #[test]
    fn queue_pops_sorted_by_time_then_sequence(
        times in prop::collection::vec(0.0f64..1e6, 1..64),
    ) {
        let mut q = EventQueue::new();
        for &t in &times {
            q.schedule(Time::at(Seconds(t)), bundle_charging::des::Event::Dispatch);
        }
        let mut prev: Option<(Time, u64)> = None;
        while let Some(s) = q.pop() {
            if let Some((pt, ps)) = prev {
                prop_assert!(pt < s.at || (pt == s.at && ps < s.seq),
                    "queue popped out of (time, seq) order");
            }
            prev = Some((s.at, s.seq));
        }
    }

    /// Fleet stop assignment is a pure function of its arguments: same
    /// inputs, same partition — and every stop is assigned exactly once.
    #[test]
    fn dispatch_assignment_is_deterministic_and_total(
        pts in prop::collection::vec((0.0f64..300.0, 0.0f64..300.0), 1..24),
        fleet in 1usize..5,
        pick in 0usize..3,
    ) {
        let anchors: Vec<Point> = pts.iter().map(|&(x, y)| Point::new(x, y)).collect();
        let base = Point::new(0.0, 0.0);
        let a = assign_stops(policy(pick), &anchors, fleet, base);
        let b = assign_stops(policy(pick), &anchors, fleet, base);
        prop_assert_eq!(&a, &b);
        let mut seen: Vec<usize> = a.iter().flatten().copied().collect();
        seen.sort_unstable();
        prop_assert_eq!(seen, (0..anchors.len()).collect::<Vec<_>>());
    }
}

/// Simultaneous events fire in the order they were scheduled — the
/// sequence number, not the heap's internal layout, is the tie-break.
#[test]
fn simultaneous_events_resolve_by_sequence_number() {
    use bundle_charging::des::Event;
    let t = Time::at(Seconds(42.0));
    let mut q = EventQueue::new();
    let events = [
        Event::Dispatch,
        Event::Returned { charger: 2 },
        Event::FaultDeath { sensor: 7 },
        Event::Returned { charger: 0 },
        Event::Dispatch,
    ];
    // Interleave with events at other times to exercise the heap.
    q.schedule(Time::at(Seconds(99.0)), Event::Dispatch);
    for &e in &events {
        q.schedule(t, e);
    }
    q.schedule(Time::at(Seconds(1.0)), Event::Returned { charger: 9 });

    let first = q.pop().expect("non-empty");
    assert_eq!(first.at, Time::at(Seconds(1.0)));
    let mut at_t = Vec::new();
    while let Some(s) = q.pop() {
        if s.at == t {
            at_t.push(s.event);
        }
    }
    assert_eq!(
        at_t, events,
        "same-time events must pop in scheduling order"
    );
}

/// Acceptance check: a 3-charger scenario completes, and the per-charger
/// ledgers sum to the fleet total (the engine's contract check passes).
#[test]
fn three_charger_ledgers_sum_to_fleet_total() {
    for pick in 0..3 {
        let sc = scenario(11, 24, 3, pick, false);
        let rep = run(&sc).expect("3-charger run");
        rep.check_fleet_ledger()
            .unwrap_or_else(|e| panic!("{} ledger imbalance: {e:?}", policy(pick).label()));
        assert_eq!(rep.fleet.len(), 3);
        assert!(rep.rounds > 0, "short horizon must still trigger rounds");
    }
}

/// Golden run: n = 60 in a 300 m field (seed 1000), BC-OPT at r = 25 m,
/// three chargers under bundle-partition dispatch, the 24 h paper
/// horizon. Every count and every ledger is a pure function of the
/// scenario, so any drift here is a behaviour change in the engine, the
/// planner or the dispatcher. Quantities are pinned to three decimals
/// (millimetres, milliseconds, millijoules).
#[test]
fn three_charger_golden_run_is_pinned() {
    let net = deploy::uniform(60, Aabb::square(300.0), 2.0, 1000);
    let sc = Scenario::paper_sim(net, 25.0, Algorithm::BcOpt)
        .with_fleet(3, DispatchPolicy::BundlePartition);
    let rep = run(&sc).expect("golden run");
    rep.check_fleet_ledger()
        .expect("ledgers sum to the fleet total");

    assert_eq!(rep.events_processed, 2588);
    assert_eq!(rep.events_scheduled, 2588);
    assert_eq!(rep.rounds, 15);
    assert_eq!(rep.replans, 0);
    assert_eq!(rep.base_returns, 0);
    assert_eq!(rep.sensors_ever_dead, 0);
    assert_eq!(rep.trace_dropped, 2332);
    assert_eq!(format!("{:.3}", rep.charger_energy_j.get()), "237192.272");

    // distance_m busy_s move_energy_j charge_energy_j stops sensors
    let ledgers: Vec<String> = rep
        .fleet
        .iter()
        .map(|l| {
            format!(
                "{} {:.3} {:.3} {:.3} {:.3} {} {}",
                l.charger,
                l.distance_m.get(),
                l.busy_s.get(),
                l.move_energy_j.get(),
                l.charge_energy_j.get(),
                l.stops_served,
                l.sensors_charged
            )
        })
        .collect();
    assert_eq!(
        ledgers,
        [
            "0 12585.628 30623.593 70353.661 18308.534 120 345",
            "1 9551.249 28680.583 53391.485 19416.273 120 240",
            "2 9969.713 29665.894 55730.695 19991.624 120 315",
        ]
    );
}

/// `seed fleet policy | rounds fault_deaths replans | FNV-1a of the
/// report's Debug text` for faulty multi-charger fleets: n = 40 in a
/// 200 m field, BC at r = 25 m, a 12 h horizon, hardware faults at rate
/// 0.3 under `SkipAndContinue`. A faulty fleet removes dead sensors
/// before it replans, so these runs exercise the replans that move the
/// network revision, which no clean golden reaches.
const FAULTY_FLEET_GOLDEN: [&str; 18] = [
    "1 2 nearest-idle | 8 8 10 | 7ea84add24a10e2d",
    "1 2 round-robin | 7 7 8 | 1766683a8cc0a452",
    "1 2 bundle-partition | 8 7 8 | 90319b81983069f7",
    "1 3 nearest-idle | 8 8 10 | 44b59038caa4e405",
    "1 3 round-robin | 8 8 9 | e6d7afcc71b3293a",
    "1 3 bundle-partition | 8 7 9 | 7eacdd1d026d9685",
    "2 2 nearest-idle | 8 7 7 | 1de4845d025a0038",
    "2 2 round-robin | 7 7 6 | d0debe8b77b06a7a",
    "2 2 bundle-partition | 8 7 7 | d84b11b50bf49dcb",
    "2 3 nearest-idle | 8 7 7 | 96ef0df90a2a09a7",
    "2 3 round-robin | 8 8 8 | 8aff7bb1b9f7e85b",
    "2 3 bundle-partition | 8 7 7 | c23d95c724ffb611",
    "3 2 nearest-idle | 7 7 6 | bd7e9b8638c20bba",
    "3 2 round-robin | 8 8 7 | 9148302e8440cc4f",
    "3 2 bundle-partition | 7 7 6 | d156a738166d799e",
    "3 3 nearest-idle | 7 7 6 | 4f3f33a41bef6a8d",
    "3 3 round-robin | 8 8 7 | b69fb19e18197866",
    "3 3 bundle-partition | 8 8 7 | 69adf95a4fb31b25",
];

/// 64-bit FNV-1a over a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn faulty_fleet_reports_are_pinned() {
    let mut got = Vec::new();
    for seed in 1..=3u64 {
        for fleet in [2usize, 3] {
            for pick in 0..3 {
                let net = deploy::uniform(40, Aabb::square(200.0), 2.0, seed);
                let mut sc = Scenario::paper_sim(net, 25.0, Algorithm::Bc)
                    .with_fleet(fleet, policy(pick))
                    .with_faults(
                        FaultModel::with_rate(seed, 0.3),
                        RecoveryPolicy::SkipAndContinue,
                    );
                sc.horizon_s = Seconds(12.0 * 3600.0);
                let rep = run(&sc).expect("faulty fleet run");
                rep.check_fleet_ledger()
                    .expect("ledgers sum to the fleet total");
                got.push(format!(
                    "{seed} {fleet} {} | {} {} {} | {:016x}",
                    policy(pick).label(),
                    rep.rounds,
                    rep.fault_deaths,
                    rep.replans,
                    fnv1a(format!("{rep:?}").as_bytes())
                ));
            }
        }
    }
    assert_eq!(got, FAULTY_FLEET_GOLDEN, "got:\n{}", got.join("\n"));
}
