//! Wireless sensor network substrate.
//!
//! Provides the deployment side of the system: [`Sensor`]s with positions
//! and energy demands, the [`Network`] container with its radius queries
//! over a `bc_geom` point grid (used heavily by the bundle candidate
//! generator),
//! and seeded [`deploy`]ment generators matching the paper's evaluation
//! setups (uniform random fields, Gaussian clusters for the "dense
//! jungle" motivation, perturbed grids, and explicit coordinate lists for
//! the testbed).
//!
//! # Example
//!
//! ```
//! use bc_wsn::{deploy, Network};
//! use bc_geom::Aabb;
//!
//! let net = deploy::uniform(50, Aabb::square(1000.0), 2.0, 42);
//! assert_eq!(net.len(), 50);
//! let near = net.within_radius(net.sensor(0).pos, 100.0);
//! assert!(near.contains(&0));
//! ```

#![warn(missing_docs)]

pub mod deploy;
pub mod io;
pub mod network;
pub mod sensor;

pub use network::Network;
pub use sensor::{Sensor, SensorId};
