//! `bc-des`: deterministic discrete-event simulation of bundle-charging
//! deployments.
//!
//! The original lifetime loop integrated the whole network over fixed
//! replay intervals with a single charger (it survives as the oracle of
//! `tests/des_equivalence.rs` at the workspace root). This crate replaces
//! that substrate with a discrete-event engine:
//!
//! - an **event queue** keyed by `(time, sequence)`
//!   ([`queue::EventQueue`]), so simultaneous events resolve by scheduling
//!   order — never by queue internals. Two backends implement the same
//!   contract ([`queue::QueueBackend`]): the default binary heap and a
//!   calendar queue for campaign-scale pending sets;
//! - **SoA battery state** ([`state::SensorBank`]): per-field lanes and
//!   bit-packed flags keep 100k-sensor long-horizon runs memory-lean
//!   (~36.4 bytes/sensor);
//! - a **logical clock** in `bc-units` types ([`clock::Time`],
//!   [`clock::Clock`]); raw `f64` time arithmetic is confined to the clock
//!   module and linted everywhere else (`cargo xtask lint`, rule
//!   `raw-time`);
//! - event kinds ([`event::Event`]) for battery threshold crossings and
//!   depletion, charger arrival/charging-complete/return, replayed
//!   hardware faults, and threshold-triggered dispatch;
//! - a fleet of N mobile chargers with pluggable dispatch policies
//!   ([`fleet::DispatchPolicy`]) and per-charger ledgers
//!   ([`fleet::ChargerLedger`]), contract-checked against the run total;
//! - low-battery **replan triggers** that go through
//!   `bc_core::context::ContextCache`, so replans reuse cached planning
//!   artifacts;
//! - a [`scenario::Scenario`] description type and a bounded
//!   [`trace::TraceRing`] of the event tail for observability.
//!
//! Determinism is a hard guarantee: equal scenarios produce byte-identical
//! event traces (see `tests/des_determinism.rs` at the workspace root).
//!
//! ```
//! use bc_des::{run, Scenario, DispatchPolicy};
//! use bc_core::planner::Algorithm;
//! use bc_geom::Aabb;
//! use bc_wsn::deploy;
//!
//! let net = deploy::uniform(20, Aabb::square(200.0), 2.0, 1);
//! let scenario = Scenario::paper_sim(net, 30.0, Algorithm::BcOpt)
//!     .with_fleet(3, DispatchPolicy::NearestIdle);
//! let report = run(&scenario).unwrap();
//! assert!(report.rounds > 0);
//! report.check_fleet_ledger().unwrap();
//! ```

#![warn(missing_docs)]

pub mod clock;
pub mod engine;
pub mod event;
pub mod fleet;
pub mod queue;
pub mod scenario;
pub mod state;
pub mod trace;

pub use clock::{Clock, Time};
pub use engine::{run, DesError, DesReport, LedgerImbalance};
pub use event::Event;
pub use fleet::{assign_stops, ChargerLedger, DispatchPolicy};
pub use queue::{EventQueue, QueueBackend, Scheduled};
pub use scenario::{FleetConfig, Scenario, ScenarioError};
pub use state::SensorBank;
pub use trace::{TraceRecord, TraceRing};
