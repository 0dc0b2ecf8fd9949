//! A re-export of [`bc_obs::json`], the workspace's one JSON parser.
//!
//! This crate holds no code of its own. It exists only because
//! `benchmark/Cargo.toml` names it as a dependency and reads reports
//! through `bc_benchcheck::json::{parse, Json}`; new code should use
//! `bc_obs::json` directly.

#![warn(missing_docs)]

/// The parser and value type of [`bc_obs::json`].
pub mod json {
    pub use bc_obs::json::{parse, Json, JsonError};
}
