//! Bundle charging: the primary contribution of the ICDCS 2019 paper.
//!
//! A mobile charger must deliver at least `delta` joules to every sensor
//! of a dense network while minimizing its *operating energy* — movement
//! cost along the tour plus charging-mode cost while parked. Because
//! wireless charging is one-to-many, nearby sensors can be grouped into a
//! **charging bundle** served from a single *anchor point*.
//!
//! The crate solves the paper's two sub-problems:
//!
//! 1. **Optimal Bundle Generation (OBG)** — [`generation`] produces a
//!    minimum-cardinality family of radius-`r` bundles covering all
//!    sensors, with the paper's greedy Algorithm 2 (`ln n + 1`
//!    approximation), a grid baseline, and an exact branch-and-bound
//!    optimum.
//! 2. **Bundle Trajectory Optimization (BTO)** — [`planner`] turns a
//!    bundle family into a charging tour. Four planners are provided as
//!    [`planner::Algorithm`]s: SC, CSS (Combine–Skip–Substitute), BC and
//!    BC-OPT (Algorithm 3 with the Theorem 4/5 tangency search).
//!
//! Every plan comes from the staged pipeline of [`context::PlanContext`];
//! [`planner::try_run`] runs it once over a throwaway context.
//!
//! # Quickstart
//!
//! ```
//! use bc_core::planner::{try_run, Algorithm};
//! use bc_core::PlannerConfig;
//! use bc_wsn::deploy;
//! use bc_geom::Aabb;
//!
//! let net = deploy::uniform(40, Aabb::square(1000.0), 2.0, 1);
//! let cfg = PlannerConfig::paper_sim(10.0);
//! let plan = try_run(Algorithm::BcOpt, &net, &cfg).unwrap();
//! assert!(plan.validate(&net, &cfg.charging).is_ok());
//! let m = plan.metrics(&cfg.energy);
//! assert!(m.total_energy_j > bc_units::Joules(0.0));
//! ```

#![warn(missing_docs)]

pub mod bundle;
pub mod candidates;
pub mod config;
pub mod context;
pub mod contracts;
pub mod execute;
pub mod faults;
pub mod generation;
pub mod multi;
pub mod par;
pub mod plan;
pub mod planner;
pub mod replan;
pub mod sortie;
pub mod terrain;
pub mod tighten;

pub use bundle::ChargingBundle;
pub use candidates::{Candidate, CandidateFamily};
pub use config::{ConfigError, DwellPolicy, PlannerConfig};
pub use context::{
    BudgetedPlan, BuildCounters, ContextCache, PlanContext, PlanStage, StageBudget, StageKind,
    StageState, StageTimings, StagedPlan,
};
pub use contracts::ContractViolation;
pub use execute::{ExecError, ExecutedStop, ExecutionReport, Executor, RecoveryPolicy};
pub use faults::{FaultModel, FaultModelError, FaultSchedule};
pub use generation::{generate_bundles, BundleStrategy};
pub use multi::{try_plan_fleet, MultiChargerPlan};
pub use plan::{ChargingPlan, Metrics, PlanError, Stop};
pub use replan::{add_sensor, remove_sensor};
pub use sortie::{split_into_sorties, Sortie, SortieError, SortiePlan};
pub use terrain::{plan_with_terrain, Terrain, TerrainRoute};
pub use tighten::{tighten_dwells, validate_cross_credit, TightenReport};
