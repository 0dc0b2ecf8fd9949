//! Backend equivalence for the `bc-des` event queue.
//!
//! The queue's contract is pop order by `(time, sequence)` — nothing
//! else. The calendar queue may bucket, resize and rebuild however it
//! likes internally, but on any schedule (including simultaneous-event
//! ties and the engine's pop-then-reschedule "invalidation" pattern) it
//! must pop the *exact* `(Time, seq)` sequence the binary heap pops.

use proptest::prelude::*;

use bundle_charging::des::{Event, EventQueue, QueueBackend, Time};
use bundle_charging::units::Seconds;

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    *state >> 11
}

/// Drives one backend through a schedule derived from `seed`:
///
/// 1. schedule `n` events on a coarse half-second grid (so timestamp
///    ties are common, exercising the sequence tie-break);
/// 2. `bursts` rounds of pop-a-few / reschedule-a-few — the engine's
///    stale-generation pattern, where a popped event's successor is
///    reinserted at a later instant while the queue is mid-drain;
/// 3. drain.
///
/// Returns the full `(time bits, seq)` pop sequence.
fn drive(backend: QueueBackend, seed: u64, n: usize, bursts: usize) -> Vec<(u64, u64)> {
    let mut rng = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
    let mut q = EventQueue::with_backend(backend);
    let mut pops = Vec::new();
    for _ in 0..n {
        let t = (lcg(&mut rng) % 1000) as f64 * 0.5;
        q.schedule(Time::at(Seconds(t)), Event::Dispatch);
    }
    for _ in 0..bursts {
        let burst = usize::try_from(lcg(&mut rng) % n as u64)
            .unwrap_or(1)
            .max(1);
        for _ in 0..burst {
            let Some(s) = q.pop() else { break };
            pops.push((s.at.seconds().get().to_bits(), s.seq));
            // Reinsert roughly half the popped events later — some at
            // an already-popped-past grid point, some far ahead.
            if lcg(&mut rng).is_multiple_of(2) {
                let ahead = (lcg(&mut rng) % 2000) as f64 * 0.25;
                q.schedule(s.at.advance(Seconds(ahead)), s.event);
            }
        }
    }
    while let Some(s) = q.pop() {
        pops.push((s.at.seconds().get().to_bits(), s.seq));
    }
    pops
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Calendar and binary heap pop identical `(time, seq)` sequences on
    /// random schedules with ties and mid-drain reinserts.
    #[test]
    fn backends_pop_identical_sequences(
        seed in 0u64..1_000_000,
        n in 1usize..400,
        bursts in 1usize..8,
    ) {
        let heap = drive(QueueBackend::BinaryHeap, seed, n, bursts);
        let calendar = drive(QueueBackend::Calendar, seed, n, bursts);
        prop_assert_eq!(&heap, &calendar);
        // Same totals scheduled on both sides, so same totals popped.
        prop_assert!(heap.len() >= n);
        // Monotone in (time, seq) never goes backwards *between*
        // reinsert-free stretches is covered by the des_determinism
        // ordering property; here equality is the whole point.
    }
}

/// Deterministic tie pile-up: many events at one instant, interleaved
/// with earlier and later ones, must pop FIFO-by-seq on both backends.
#[test]
fn simultaneous_ties_pop_in_scheduling_order_on_both_backends() {
    for backend in QueueBackend::ALL {
        let t = Time::at(Seconds(64.0));
        let mut q = EventQueue::with_backend(backend);
        q.schedule(Time::at(Seconds(500.0)), Event::Dispatch);
        let mut expected = Vec::new();
        for charger in 0..20 {
            expected.push(q.schedule(t, Event::Returned { charger }));
        }
        q.schedule(Time::at(Seconds(0.25)), Event::Dispatch);
        let mut seqs_at_t = Vec::new();
        while let Some(s) = q.pop() {
            if s.at == t {
                seqs_at_t.push(s.seq);
            }
        }
        assert_eq!(seqs_at_t, expected, "{} tie order", backend.label());
    }
}

/// The reinsert-behind-the-cursor edge: after popping up to time T, a
/// new event scheduled *before* T's bucket year must still pop first.
#[test]
fn reinsert_earlier_than_cursor_pops_next_on_both_backends() {
    for backend in QueueBackend::ALL {
        let mut q = EventQueue::with_backend(backend);
        for i in 0..64 {
            q.schedule(Time::at(Seconds(f64::from(i) * 10.0)), Event::Dispatch);
        }
        // Drain half, parking the calendar cursor well past t = 5.
        for _ in 0..32 {
            q.pop();
        }
        let seq = q.schedule(Time::at(Seconds(5.0)), Event::FaultDeath { sensor: 1 });
        let next = q
            .pop()
            .unwrap_or_else(|| panic!("{} empty", backend.label()));
        assert_eq!(
            next.seq,
            seq,
            "{}: early reinsert must pop first",
            backend.label()
        );
        assert_eq!(next.at, Time::at(Seconds(5.0)));
    }
}
