//! Wireless power transfer model for bundle charging.
//!
//! Implements the paper's empirical WISP-reader charging model (Eq. 1)
//!
//! ```text
//! p_r = alpha / (d + beta)^2 * p_src
//! ```
//!
//! together with the mobile charger's two-part energy accounting: movement
//! energy (`E_m` joules per metre of tour) and charging energy (`p_c`
//! joules per second while parked and transmitting).
//!
//! All quantities are `bc-units` newtypes — distances are [`Meters`],
//! energies [`Joules`], dwell times [`Seconds`], powers [`Watts`] — so a
//! metre/joule mix-up is a compile error, not a silently wrong figure.
//!
//! # Example
//!
//! ```
//! use bc_units::{Joules, Meters, Seconds};
//! use bc_wpt::{ChargingModel, EnergyModel};
//!
//! let model = ChargingModel::paper_sim();
//! // Received power decays quadratically with distance.
//! assert!(model.received_power(Meters(0.0)) > model.received_power(Meters(10.0)));
//!
//! // Time to deliver 2 J to a sensor 10 m away:
//! let t = model.charge_time(Meters(10.0), Joules(2.0));
//! assert!(t > Seconds(0.0));
//!
//! let energy = EnergyModel::paper_sim();
//! let total = energy.movement_energy(Meters(100.0)) + energy.charging_energy(t);
//! assert!(total > Joules(0.0));
//! ```

#![warn(missing_docs)]

pub mod energy;
pub mod friis;
pub mod law;
pub mod params;

pub use bc_units::{Joules, JoulesPerMeter, Meters, Meters2, MetersPerSecond, Seconds, Watts};
pub use energy::EnergyModel;
pub use friis::ChargingModel;
pub use law::Law;
