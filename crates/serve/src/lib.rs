//! Deadline-aware planning service over [`bc_core`]'s `PlanContext`.
//!
//! The paper's planners are batch algorithms; the ROADMAP's north star
//! is a system that serves them under heavy traffic. This crate is the
//! serving layer: a bounded-queue worker pool ([`PlanService`]) that
//! accepts concurrent plan/replan requests against registered networks
//! ([`NetworkRegistry`]) and survives hostile conditions by design:
//!
//! * **Deadlines + degradation ladder** — each request's remaining time
//!   is threaded into the staged pipeline as a [`bc_core::StageBudget`];
//!   an over-deadline BC-OPT falls back BC → CSS → SC and the response
//!   carries its [`PlanResponse::degrade_level`]. Degraded plans are
//!   re-validated against the set-cover, Eq. 1 dwell, and bundle-radius
//!   contracts before delivery.
//! * **Deterministic retries** — transient failures back off
//!   exponentially with seed-jittered sleeps ([`RetryPolicy`]);
//!   injections come from the seeded [`ServeFaultModel`].
//! * **Panic isolation** — plan builds run under `catch_unwind`; a
//!   panicking build poisons only its entry, which the next holder of
//!   its lock rebuilds from the registered template — exactly once per
//!   panic — instead of wedging waiters.
//! * **Admission control + single-flight** — the queue sheds at
//!   capacity with a typed [`ServeError::Shed`], and identical
//!   in-flight requests collapse onto one build.
//!
//! The [`loadgen`] module drives all of it deterministically and checks
//! the availability invariants (`tests/serve_chaos.rs` runs it over many
//! seeds); see `DESIGN.md` §8.
//!
//! # Quickstart
//!
//! ```
//! use bc_serve::{PlanRequest, PlanService, ServeConfig};
//! use bc_core::planner::Algorithm;
//! use bc_core::PlannerConfig;
//! use bc_wsn::deploy;
//! use bc_geom::Aabb;
//!
//! let svc = PlanService::start(ServeConfig::default()).unwrap();
//! let net = deploy::uniform(30, Aabb::square(250.0), 2.0, 1);
//! let id = svc.register(net, PlannerConfig::paper_sim(25.0));
//! let resp = svc.call(PlanRequest::plan(id, Algorithm::BcOpt)).unwrap();
//! assert_eq!(resp.degrade_level, 0);
//! assert!(resp.plan.num_charging_stops() > 0);
//! ```

#![warn(missing_docs)]

pub mod error;
pub mod faults;
pub mod loadgen;
pub mod registry;
pub mod retry;
pub mod service;
pub mod stats;
pub mod sync;

pub use error::{RetryCause, ServeError};
pub use faults::{FaultOutcome, InjectedFault, ServeFaultModel};
pub use loadgen::{LatencySummary, LoadProfile, LoadReport};
pub use registry::{NetEntry, NetworkId, NetworkRegistry};
pub use retry::RetryPolicy;
pub use service::{PlanRequest, PlanResponse, PlanService, RequestKind, ServeConfig, Ticket};
pub use stats::{ServeStats, ServeStatsSnapshot};
