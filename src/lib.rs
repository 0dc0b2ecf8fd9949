//! # Bundle Charging
//!
//! A complete Rust implementation of *“Bundle Charging: Wireless Charging
//! Energy Minimization in Dense Wireless Sensor Networks”* (ICDCS 2019):
//! charging-bundle generation, energy-minimizing trajectory planning for a
//! mobile wireless charger, the baselines the paper compares against, a
//! simulated Powercast testbed, and an experiment harness that regenerates
//! every figure of the paper's evaluation.
//!
//! This crate is a facade: it re-exports the workspace's crates under one
//! namespace so applications can depend on a single package.
//!
//! | Module | Backing crate | Contents |
//! |---|---|---|
//! | [`units`] | `bc-units` | zero-cost dimensional newtypes ([`units::Joules`], [`units::Meters`], …) used across all public APIs |
//! | [`geom`] | `bc-geom` | points, disks, smallest enclosing disk (MinDisk), ellipse–circle tangency (Theorems 4–5) |
//! | [`tsp`] | `bc-tsp` | tour construction, 2-opt / Or-opt, Held–Karp |
//! | [`setcover`] | `bc-setcover` | greedy (`ln n + 1`) and exact set cover |
//! | [`wpt`] | `bc-wpt` | the quadratic charging model (Eq. 1) and charger energy accounting |
//! | [`wsn`] | `bc-wsn` | sensors, deployments, spatial index |
//! | [`obs`] | `bc-obs` | structured tracing & metrics: recorder trait, stats/JSONL sinks, zero-cost disabled path |
//! | [`core`] | `bc-core` | bundle generation (OBG) and the SC / CSS / BC / BC-OPT planners (BTO) |
//! | [`des`] | `bc-des` | deterministic discrete-event simulation engine: pluggable event-queue backends, SoA battery state, logical clock, multi-charger fleets, threshold-triggered replanning |
//! | [`campaign`] | `bc-campaign` | Monte-Carlo campaign engine: parallel seed sweeps with per-seed panic isolation, deterministic snapshot merging, rotated JSONL trace sinks |
//! | [`serve`] | `bc-serve` | deadline-aware planning service: degradation ladder, retries with backoff, panic isolation, admission control |
//! | [`sim`] | `bc-sim` | the per-figure experiment harness |
//! | [`testbed`] | `bc-testbed` | the simulated robot-car Powercast testbed |
//!
//! # Quickstart
//!
//! ```
//! use bundle_charging::prelude::*;
//!
//! // Deploy 60 sensors in a 300 m x 300 m field, demanding 2 J each.
//! let net = deploy::uniform(60, Aabb::square(300.0), 2.0, 42);
//!
//! // Plan a charging tour with bundle radius 25 m.
//! let cfg = PlannerConfig::paper_sim(25.0);
//! let plan = planner::try_run(Algorithm::BcOpt, &net, &cfg).unwrap();
//!
//! // Every sensor is fully charged, and the cost is itemised.
//! assert!(plan.validate(&net, &cfg.charging).is_ok());
//! // Metrics carry their dimensions: lengths are `Meters`, energies are
//! // `Joules` — the Display impls append the unit suffix.
//! let m = plan.metrics(&cfg.energy);
//! println!("{} stops, {}, {}", m.num_stops, m.tour_length_m, m.total_energy_j);
//! ```

#![warn(missing_docs)]

pub use bc_campaign as campaign;
pub use bc_core as core;
pub use bc_des as des;
pub use bc_geom as geom;
pub use bc_obs as obs;
pub use bc_serve as serve;
pub use bc_setcover as setcover;
pub use bc_sim as sim;
pub use bc_testbed as testbed;
pub use bc_tsp as tsp;
pub use bc_units as units;
pub use bc_wpt as wpt;
pub use bc_wsn as wsn;

/// The types most applications need, importable in one line.
pub mod prelude {
    pub use bc_core::planner::{self, Algorithm};
    pub use bc_core::{
        generate_bundles, BundleStrategy, ChargingBundle, ChargingPlan, ConfigError, DwellPolicy,
        ExecError, ExecutionReport, Executor, FaultModel, Metrics, PlanError, PlannerConfig,
        RecoveryPolicy, Stop,
    };
    pub use bc_geom::{Aabb, Disk, Point};
    pub use bc_serve::{PlanRequest, PlanService, ServeConfig, ServeError};
    pub use bc_units::{Joules, JoulesPerMeter, Meters, MetersPerSecond, Seconds, Watts};
    pub use bc_wpt::{ChargingModel, EnergyModel};
    pub use bc_wsn::{deploy, Network, Sensor, SensorId};
}
