//! Lock-free service counters and their snapshot form.
//!
//! Every serve event is counted once, through `ServeStats::count`: it
//! bumps a plain atomic and, when a `bc-obs` recorder is active, emits
//! the matching `serve.<field>` counter, so the snapshot and the recorder
//! cannot disagree. The load generator and chaos harness read a
//! [`ServeStatsSnapshot`] after the request stream drains, when the
//! counts are quiescent and exact.

use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic counters shared by all workers of one service.
#[derive(Debug, Default)]
pub struct ServeStats {
    /// Requests accepted past admission control.
    pub(crate) submitted: AtomicU64,
    /// Responses delivered with a plan at degradation level 0.
    pub(crate) completed_full: AtomicU64,
    /// Responses delivered with a degraded (descended or cut) plan.
    pub(crate) completed_degraded: AtomicU64,
    /// Requests rejected at admission (queue full).
    pub(crate) shed: AtomicU64,
    /// Requests that ran out of deadline (queue delay or ladder).
    pub(crate) deadline_miss: AtomicU64,
    /// Requests naming an unregistered network.
    pub(crate) unknown_network: AtomicU64,
    /// Requests that failed with a planner or contract error.
    pub(crate) failed: AtomicU64,
    /// Retry sleeps taken (one per backoff).
    pub(crate) retries: AtomicU64,
    /// Injected transient build failures observed.
    pub(crate) transient_failures: AtomicU64,
    /// Panics caught by `catch_unwind` (each triggers a rebuild).
    pub(crate) panics_caught: AtomicU64,
    /// Responses served from another request's in-flight computation.
    pub(crate) dedup_hits: AtomicU64,
    /// Replan mutations applied.
    pub(crate) replans: AtomicU64,
    /// Queued requests drained with `ShuttingDown` at shutdown.
    pub(crate) drained: AtomicU64,
}

/// A countable service event, named after the [`ServeStatsSnapshot`]
/// field it bumps.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ServeEvent {
    Submitted,
    CompletedFull,
    CompletedDegraded,
    Shed,
    DeadlineMiss,
    UnknownNetwork,
    Failed,
    Retries,
    TransientFailures,
    PanicsCaught,
    DedupHits,
    Replans,
    Drained,
}

impl ServeStats {
    /// Counts one `event`: bumps its counter and, only when
    /// [`bc_obs::active`], emits `serve.<field>`, `<field>` being the
    /// snapshot field's name. The one place a serve event is counted.
    pub(crate) fn count(&self, event: ServeEvent) {
        use ServeEvent as E;
        let (cell, field) = match event {
            E::Submitted => (&self.submitted, "submitted"),
            E::CompletedFull => (&self.completed_full, "completed_full"),
            E::CompletedDegraded => (&self.completed_degraded, "completed_degraded"),
            E::Shed => (&self.shed, "shed"),
            E::DeadlineMiss => (&self.deadline_miss, "deadline_miss"),
            E::UnknownNetwork => (&self.unknown_network, "unknown_network"),
            E::Failed => (&self.failed, "failed"),
            E::Retries => (&self.retries, "retries"),
            E::TransientFailures => (&self.transient_failures, "transient_failures"),
            E::PanicsCaught => (&self.panics_caught, "panics_caught"),
            E::DedupHits => (&self.dedup_hits, "dedup_hits"),
            E::Replans => (&self.replans, "replans"),
            E::Drained => (&self.drained, "drained"),
        };
        cell.fetch_add(1, Ordering::AcqRel);
        bc_obs::counter("serve", field, 1, &[]);
    }

    /// A point-in-time copy of every counter.
    pub fn snapshot(&self) -> ServeStatsSnapshot {
        ServeStatsSnapshot {
            submitted: self.submitted.load(Ordering::Acquire),
            completed_full: self.completed_full.load(Ordering::Acquire),
            completed_degraded: self.completed_degraded.load(Ordering::Acquire),
            shed: self.shed.load(Ordering::Acquire),
            deadline_miss: self.deadline_miss.load(Ordering::Acquire),
            unknown_network: self.unknown_network.load(Ordering::Acquire),
            failed: self.failed.load(Ordering::Acquire),
            retries: self.retries.load(Ordering::Acquire),
            transient_failures: self.transient_failures.load(Ordering::Acquire),
            panics_caught: self.panics_caught.load(Ordering::Acquire),
            dedup_hits: self.dedup_hits.load(Ordering::Acquire),
            replans: self.replans.load(Ordering::Acquire),
            drained: self.drained.load(Ordering::Acquire),
        }
    }
}

/// Plain-value snapshot of [`ServeStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeStatsSnapshot {
    /// Requests accepted past admission control.
    pub submitted: u64,
    /// Level-0 plan responses.
    pub completed_full: u64,
    /// Degraded plan responses.
    pub completed_degraded: u64,
    /// Requests shed at admission.
    pub shed: u64,
    /// Deadline misses.
    pub deadline_miss: u64,
    /// Unknown-network rejections.
    pub unknown_network: u64,
    /// Planner/contract failures.
    pub failed: u64,
    /// Backoff sleeps taken.
    pub retries: u64,
    /// Injected transient failures observed.
    pub transient_failures: u64,
    /// Panics caught and recovered from.
    pub panics_caught: u64,
    /// Single-flight dedup hits.
    pub dedup_hits: u64,
    /// Replan mutations applied.
    pub replans: u64,
    /// Requests drained at shutdown.
    pub drained: u64,
}

impl ServeStatsSnapshot {
    /// Every response the service delivered (plans plus typed errors).
    pub fn responses(&self) -> u64 {
        self.completed_full
            + self.completed_degraded
            + self.deadline_miss
            + self.unknown_network
            + self.failed
            + self.drained
    }

    /// Plan responses (full + degraded).
    pub fn plans(&self) -> u64 {
        self.completed_full + self.completed_degraded
    }
}
