//! Typed failure modes of the serving layer.
//!
//! Every request submitted to [`crate::PlanService`] resolves to exactly
//! one of: a (possibly degraded) plan response, or one of these errors.
//! None of them is a panic and none of them is silent — the chaos
//! harness counts on that to prove "zero lost responses".

use std::fmt;

use bc_core::PlanError;

/// Why a retried request ultimately gave up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetryCause {
    /// The injected (or real) build failure persisted across every
    /// permitted attempt.
    TransientFailure,
    /// The plan worker panicked on every permitted attempt; the affected
    /// cache entry was rebuilt each time.
    WorkerPanic,
}

impl fmt::Display for RetryCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RetryCause::TransientFailure => write!(f, "transient build failure"),
            RetryCause::WorkerPanic => write!(f, "worker panic"),
        }
    }
}

/// Errors surfaced by [`crate::PlanService`].
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// Admission control rejected the request because the queue was at
    /// capacity. Shedding at the door keeps queueing delay bounded for
    /// the requests that are admitted.
    Shed {
        /// Requests already waiting when this one arrived.
        queued: usize,
        /// Configured queue capacity.
        capacity: usize,
    },
    /// The deadline expired before any rung of the degradation ladder
    /// produced a usable plan.
    DeadlineExceeded {
        /// Pipeline stages that ran across all attempted rungs.
        stages_run: usize,
    },
    /// The request referenced a network id that was never registered.
    UnknownNetwork(u64),
    /// The planner itself rejected the inputs.
    Plan(PlanError),
    /// Bounded retries were exhausted without a successful build.
    RetriesExhausted {
        /// Attempts made (initial try plus retries).
        attempts: u32,
        /// Failure class of the final attempt.
        cause: RetryCause,
    },
    /// A degraded plan failed its release-mode contract re-validation
    /// (set cover, Eq. 1 dwell, bundle radius). Internal invariant
    /// failure — a correct build never produces this.
    Contract(String),
    /// The service is shutting down; queued requests are drained with
    /// this error rather than dropped.
    ShuttingDown,
    /// A service or fault-model parameter was out of range.
    InvalidConfig(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Shed { queued, capacity } => {
                write!(f, "request shed: {queued} queued at capacity {capacity}")
            }
            ServeError::DeadlineExceeded { stages_run } => {
                write!(f, "deadline exceeded after {stages_run} pipeline stage(s)")
            }
            ServeError::UnknownNetwork(id) => write!(f, "unknown network id {id}"),
            ServeError::Plan(e) => write!(f, "planning failed: {e}"),
            ServeError::RetriesExhausted { attempts, cause } => {
                write!(f, "retries exhausted after {attempts} attempt(s): {cause}")
            }
            ServeError::Contract(why) => {
                write!(f, "degraded plan violated a planning contract: {why}")
            }
            ServeError::ShuttingDown => write!(f, "service is shutting down"),
            ServeError::InvalidConfig(why) => write!(f, "invalid serve config: {why}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Plan(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PlanError> for ServeError {
    fn from(e: PlanError) -> Self {
        ServeError::Plan(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source_round_trip() {
        let e = ServeError::Plan(PlanError::Unassigned { sensor: 3 });
        assert!(e.to_string().contains("planning failed"));
        assert!(std::error::Error::source(&e).is_some());
        let shed = ServeError::Shed {
            queued: 7,
            capacity: 7,
        };
        assert!(std::error::Error::source(&shed).is_none());
        assert!(shed.to_string().contains("capacity 7"));
    }
}
