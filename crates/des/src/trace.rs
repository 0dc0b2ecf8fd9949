//! Bounded event trace for observability.
//!
//! The engine records every processed event into a ring buffer of fixed
//! capacity. Long horizons produce millions of events; the ring keeps the
//! *latest* `capacity` records and counts how many older ones were evicted,
//! so memory stays bounded while the tail of the run — usually where the
//! interesting failure is — stays inspectable.
//!
//! When a [`bc_obs`] recorder is active, every record is additionally
//! mirrored into it via [`emit_obs`] — *unbounded*, since the recorder
//! chooses its own retention — so engine events, battery invalidations
//! and dispatch decisions land in the same stream as planner and
//! executor events.

use crate::clock::Time;
use crate::event::Event;
use std::collections::VecDeque;

/// Mirrors one processed record into the active [`bc_obs`] recorder as a
/// `"des"`-scoped event named after [`Event::kind`], with the simulated
/// time, queue sequence number and the event's indices as fields. All
/// values are simulated quantities, so the stream is deterministic. The
/// fields of each event kind are one array on the stack.
pub fn emit_obs(record: &TraceRecord) {
    use bc_obs::Field;
    if !bc_obs::active() {
        return;
    }
    let t_s = Field::new("t_s", record.at.seconds().get());
    let seq = Field::new("seq", record.seq);
    let emit = |fields: &[Field]| bc_obs::event("des", record.event.kind(), fields);
    match record.event {
        Event::LowBattery { sensor, gen } | Event::Depleted { sensor, gen } => emit(&[
            t_s,
            seq,
            Field::new("sensor", sensor),
            Field::new("gen", gen),
        ]),
        Event::Dispatch => emit(&[t_s, seq]),
        Event::Arrival { charger, seg } | Event::ChargingComplete { charger, seg } => emit(&[
            t_s,
            seq,
            Field::new("charger", charger),
            Field::new("seg", seg),
        ]),
        Event::Returned { charger } => emit(&[t_s, seq, Field::new("charger", charger)]),
        Event::FaultDeath { sensor } => emit(&[t_s, seq, Field::new("sensor", sensor)]),
    }
}

/// One processed event as it appeared on the timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceRecord {
    /// Instant the event fired.
    pub at: Time,
    /// Queue sequence number (total order among simultaneous events).
    pub seq: u64,
    /// The event itself.
    pub event: Event,
}

/// Fixed-capacity ring of the most recent [`TraceRecord`]s.
#[derive(Debug)]
pub struct TraceRing {
    buf: VecDeque<TraceRecord>,
    capacity: usize,
    dropped: u64,
}

impl TraceRing {
    /// A ring holding at most `capacity` records (0 disables tracing).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        TraceRing {
            buf: VecDeque::with_capacity(capacity.min(4096)),
            capacity,
            dropped: 0,
        }
    }

    /// Append a record, evicting the oldest if the ring is full.
    pub fn push(&mut self, record: TraceRecord) {
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(record);
    }

    /// Number of records evicted (or never stored, when capacity is 0).
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Records currently held, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &TraceRecord> {
        self.buf.iter()
    }

    /// Number of records currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when no records are held.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Drain the ring into an owned vector, oldest first.
    #[must_use]
    pub fn into_vec(self) -> Vec<TraceRecord> {
        self.buf.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::seconds;

    fn rec(t: f64, seq: u64) -> TraceRecord {
        TraceRecord {
            at: Time::at(seconds(t)),
            seq,
            event: Event::Dispatch,
        }
    }

    #[test]
    fn keeps_latest_records() {
        let mut ring = TraceRing::new(2);
        ring.push(rec(1.0, 0));
        ring.push(rec(2.0, 1));
        ring.push(rec(3.0, 2));
        assert_eq!(ring.dropped(), 1);
        let seqs: Vec<u64> = ring.records().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![1, 2]);
    }

    #[test]
    fn zero_capacity_counts_only() {
        let mut ring = TraceRing::new(0);
        ring.push(rec(1.0, 0));
        assert!(ring.is_empty());
        assert_eq!(ring.dropped(), 1);
    }

    #[test]
    fn into_vec_preserves_order() {
        let mut ring = TraceRing::new(8);
        ring.push(rec(1.0, 0));
        ring.push(rec(1.0, 1));
        let v = ring.into_vec();
        assert_eq!(v.len(), 2);
        assert_eq!(v[0].seq, 0);
    }
}
