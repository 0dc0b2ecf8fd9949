//! 2-D computational geometry substrate for the bundle-charging system.
//!
//! This crate implements, from scratch, every geometric primitive the
//! ICDCS 2019 *Bundle Charging* paper relies on:
//!
//! * [`Point`] and basic vector algebra;
//! * [`Disk`] and Welzl's expected-linear-time **smallest enclosing disk**
//!   (the paper's `MinDisk`, Algorithm 1), including the *decisional*
//!   variant used by the bundle generator ([`sed::fits_in_radius`]);
//! * the **ellipse–circle tangency search** (Theorems 4 and 5 of the
//!   paper) used by the BC-OPT tour optimizer
//!   ([`tangency::min_focal_sum_on_circle`]);
//! * axis-aligned boxes (deployment fields, grid partitioning) and
//!   polygon obstacles with visibility-graph shortest paths around them;
//! * a uniform bucket grid ([`grid::PointGrid`]) for the radius queries of
//!   bundle generation and the insertion search of tour improvement.
//!
//! # Example
//!
//! ```
//! use bc_geom::{Point, sed};
//!
//! let pts = [Point::new(0.0, 0.0), Point::new(2.0, 0.0), Point::new(1.0, 1.0)];
//! let disk = sed::smallest_enclosing_disk(&pts);
//! assert!(pts.iter().all(|p| disk.contains(*p)));
//! ```

#![warn(missing_docs)]

pub mod aabb;
pub mod disk;
pub mod grid;
pub mod point;
pub mod polygon;
pub mod sed;
pub mod segment;
pub mod tangency;
pub mod visibility;

pub use aabb::Aabb;
pub use disk::{Crossings, Disk};
pub use point::Point;
pub use polygon::{Polygon, PolygonError};
pub use segment::Segment;

/// Geometric tolerance used by containment and tangency checks.
///
/// All coordinates in the system are metres in fields of at most a few
/// kilometres, so an absolute epsilon is appropriate.
pub const EPS: f64 = 1e-9;
