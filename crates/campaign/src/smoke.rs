//! Small shared workloads: the queue-backend *hold* benchmark and the
//! paper-style scenario the campaign tests sweep.
//!
//! [`bench_queue`] drives one [`QueueBackend`] through the classic hold
//! workload (fill to `pending` events, then pop + reschedule at steady
//! state, then drain) and reports events/sec. Every backend folds its
//! pop sequence into an FNV-1a checksum; the checksums must agree, or
//! the speed numbers are meaningless. The benchmark's `campaign`
//! workload reports the two backends' rates from it.

use bc_core::planner::Algorithm;
use bc_des::clock::{self, Time};
use bc_des::{Event, EventQueue, QueueBackend, Scenario};
use bc_geom::Aabb;
use bc_obs::wall;
use bc_wsn::deploy;

use crate::driver::{fnv_fold, FNV_BASIS};

/// Span (s) the initial fill spreads events over.
const FILL_SPAN_S: f64 = 1.0e6;
/// Span (s) of the uniform hold increment added to each popped time.
const HOLD_SPAN_S: f64 = 1.0e6;

/// One backend's hold-workload measurement.
#[derive(Debug, Clone)]
pub struct QueueBench {
    /// Which backend ran.
    pub backend: QueueBackend,
    /// Schedule + pop operations performed.
    pub ops: u64,
    /// Wall time for the whole workload.
    pub elapsed_s: f64,
    /// `ops / elapsed_s`.
    pub events_per_sec: f64,
    /// FNV-1a hash of the `(time, seq)` pop sequence.
    pub checksum: String,
}

/// SplitMix64: tiny, deterministic, seedable — the workload generator.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        let bits = (self.next() >> 11) as f64; // cast-ok: 53 bits fit an f64 mantissa exactly
        bits / 9_007_199_254_740_992.0
    }
}

/// Drives one backend through fill → hold → drain and measures
/// events/sec plus a pop-sequence checksum.
#[must_use]
pub fn bench_queue(
    backend: QueueBackend,
    pending: usize,
    hold_ops: usize,
    seed: u64,
) -> QueueBench {
    let mut fill = SplitMix(seed);
    let mut hold = SplitMix(seed ^ 0x5851_f42d_4c95_7f2d);
    let mut q = EventQueue::with_backend(backend);
    let mut checksum = FNV_BASIS;
    let t0 = wall::now();
    for _ in 0..pending {
        q.schedule(
            Time::at(clock::seconds(fill.next_f64() * FILL_SPAN_S)),
            Event::Dispatch,
        );
    }
    for _ in 0..hold_ops {
        let Some(sch) = q.pop() else { break };
        checksum = fnv_fold(checksum, &sch.at.seconds().get().to_bits().to_le_bytes());
        checksum = fnv_fold(checksum, &sch.seq.to_le_bytes());
        let at = sch
            .at
            .advance(clock::seconds(hold.next_f64() * HOLD_SPAN_S));
        q.schedule(at, sch.event);
    }
    while let Some(sch) = q.pop() {
        checksum = fnv_fold(checksum, &sch.at.seconds().get().to_bits().to_le_bytes());
        checksum = fnv_fold(checksum, &sch.seq.to_le_bytes());
    }
    let elapsed_s = t0.elapsed().as_secs_f64().max(1e-12);
    let ops = 2 * (pending as u64 + hold_ops as u64); // cast-ok: op counts fit u64
    #[allow(clippy::cast_precision_loss)]
    let events_per_sec = ops as f64 / elapsed_s; // cast-ok: throughput estimate, precision loss immaterial
    QueueBench {
        backend,
        ops,
        elapsed_s,
        events_per_sec,
        checksum: format!("{checksum:016x}"),
    }
}

/// The campaign scenario for one seed: a paper-style uniform
/// deployment with a shortened horizon, calendar-queue backend, and the
/// in-memory trace ring disabled (traces stream through bc-obs instead).
#[must_use]
pub fn smoke_scenario(sensors: usize, horizon_hours: f64, seed: u64) -> Scenario {
    let net = deploy::uniform(sensors, Aabb::square(200.0), 2.0, seed);
    let mut sc =
        Scenario::paper_sim(net, 30.0, Algorithm::BcOpt).with_queue(QueueBackend::Calendar);
    sc.horizon_s = clock::hours(horizon_hours);
    sc.trace_capacity = 0;
    sc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hold_workload_checksums_agree_across_backends() {
        let heap = bench_queue(QueueBackend::BinaryHeap, 2000, 4000, 7);
        let cal = bench_queue(QueueBackend::Calendar, 2000, 4000, 7);
        assert_eq!(heap.checksum, cal.checksum);
        assert_eq!(heap.ops, 12_000);
        assert!(heap.events_per_sec > 0.0);
    }
}
