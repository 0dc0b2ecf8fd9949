//! Determinism properties of the `bc-des` discrete-event engine.
//!
//! The engine's contract is that a [`Scenario`] is the *only* input: two
//! equal scenarios must produce byte-identical event traces and equal
//! reports, and simultaneous events must resolve by scheduling sequence
//! (not heap internals or insertion luck).

use proptest::prelude::*;

use bundle_charging::core::planner::Algorithm;
use bundle_charging::core::{FaultModel, RecoveryPolicy};
use bundle_charging::des::{run, EventQueue, Scenario, Time};
use bundle_charging::geom::Aabb;
use bundle_charging::units::Seconds;
use bundle_charging::wsn::deploy;

/// A small, fast scenario: short horizon so proptest cases stay cheap.
fn scenario(seed: u64, n: usize, faulty: bool) -> Scenario {
    let net = deploy::uniform(n, Aabb::square(200.0), 2.0, seed);
    let mut sc = Scenario::paper_sim(net, 25.0, Algorithm::Bc);
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
        faulty in 0u32..2,
    ) {
        let a = run(&scenario(seed, n, faulty == 1)).expect("run a");
        let b = run(&scenario(seed, n, faulty == 1)).expect("run b");
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

/// 64-bit FNV-1a over a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `mode | rounds events_processed trace_dropped replans | FNV-1a of the
/// report's Debug text` for one charger: n = 60 in a 300 m field (seed
/// 1000), BC-OPT at r = 25 m, the 24 h paper scenario with its default
/// 256-record trace ring, clean and under each recovery policy with
/// hardware faults at rate 0.3. The Debug text carries the trace ring,
/// so any drift in the engine's event order, the planner or the
/// executor shows up here.
const SINGLE_CHARGER_GOLDEN: [&str; 4] = [
    "clean | 14 2247 1991 0 | 6cf5708a1589ccf4",
    "skip | 14 2013 1757 12 | 14cb960d408f0e98",
    "replan | 14 2039 1783 129 | 8f188134a120a066",
    "return-to-base | 13 1973 1717 12 | b554c053a4d66731",
];

#[test]
fn single_charger_golden_runs_are_pinned() {
    let net = deploy::uniform(60, Aabb::square(300.0), 2.0, 1000);
    let clean = Scenario::paper_sim(net, 25.0, Algorithm::BcOpt);
    let runs = std::iter::once(("clean", clean.clone())).chain(RecoveryPolicy::ALL.map(|p| {
        let sc = clean
            .clone()
            .with_faults(FaultModel::with_rate(1000, 0.3), p);
        (p.name(), sc)
    }));
    let mut got = Vec::new();
    for (mode, sc) in runs {
        let rep = run(&sc).expect("golden run");
        got.push(format!(
            "{mode} | {} {} {} {} | {:016x}",
            rep.rounds,
            rep.events_processed,
            rep.trace_dropped,
            rep.replans,
            fnv1a(format!("{rep:?}").as_bytes())
        ));
    }
    assert_eq!(got, SINGLE_CHARGER_GOLDEN, "got:\n{}", got.join("\n"));
}
