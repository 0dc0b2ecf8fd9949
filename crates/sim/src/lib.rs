//! Experiment harness reproducing the paper's evaluation (Section VI–VII).
//!
//! Each figure of the paper has a module under [`figures`] that generates
//! the exact data series the figure plots, averaged over seeded runs, and
//! returns it as a [`report::Table`] that can be printed or saved as CSV.
//! The `repro` binary exposes them as subcommands:
//!
//! ```text
//! cargo run --release -p bc-sim --bin repro -- all --runs 20
//! cargo run --release -p bc-sim --bin repro -- fig12 --runs 100
//! ```
//!
//! The harness itself is generic: [`runner`] executes seeded closures in
//! parallel and aggregates [`bc_core::Metrics`], [`stats`] provides the
//! summary statistics, and [`report`] renders aligned tables and CSV.

#![warn(missing_docs)]

pub mod checks;
pub mod figures;
pub mod html;
pub mod lifetime;
pub mod report;
pub mod runner;
pub mod stats;
pub mod svg;

pub use report::Table;
pub use runner::{average_metrics, repeat, MetricsSummary};
pub use stats::Summary;
