//! Alternative attenuation laws.
//!
//! The paper notes its scheme "can extend to other charging models with
//! the minimum modification". [`Law`] makes that concrete: the planners
//! only ever ask for received power as a monotone non-increasing
//! function of distance, so any such law slots in. Three are provided:
//!
//! * [`Law::Quadratic`] — the paper's Eq. 1 (`alpha/(d+beta)^2`);
//! * [`Law::Linear`] — the linear fall-off used by He et al.'s energy
//!   provisioning work, `p0 - slope * d`, clamped at zero;
//! * [`Law::Table`] — piecewise-linear interpolation of measured
//!   (distance, power) samples, the form raw testbed calibrations take.

use bc_units::Meters;
use serde::{Deserialize, Serialize};

/// Maximum number of calibration points a [`Law::Table`] holds.
pub const TABLE_MAX_POINTS: usize = 16;

/// A normalized attenuation law: received power per watt of source power
/// as a function of distance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[allow(clippy::large_enum_variant)] // Copy semantics across the planner outweigh the table variant's size
pub enum Law {
    /// The paper's quadratic model `alpha / (d + beta)^2`.
    Quadratic {
        /// Friis-fit numerator constant (m^2).
        alpha: f64,
        /// Short-distance adjustment (m).
        beta: f64,
    },
    /// Linear fall-off `max(p0 - slope * d, 0)`.
    Linear {
        /// Normalized received power at contact (1/W of source).
        p0: f64,
        /// Decay per metre.
        slope: f64,
    },
    /// Piecewise-linear interpolation of `(distance, normalized power)`
    /// samples; zero beyond the last sample.
    Table {
        /// Calibration points, sorted by distance, first `len` valid.
        points: [(f64, f64); TABLE_MAX_POINTS],
        /// Number of valid points.
        len: usize,
    },
}

impl Law {
    /// Normalized received power (per watt of source) at distance `d`.
    ///
    /// Monotone non-increasing in `d`, and zero wherever the law has no
    /// support.
    pub fn gain(&self, d: Meters) -> f64 {
        let d = d.0;
        match *self {
            Law::Quadratic { alpha, beta } => alpha / ((d + beta) * (d + beta)),
            Law::Linear { p0, slope } => (p0 - slope * d).max(0.0),
            Law::Table { points, len } => {
                let pts = &points[..len];
                if pts.is_empty() || d < pts[0].0 {
                    return pts.first().map_or(0.0, |&(_, p)| p);
                }
                for w in pts.windows(2) {
                    let ((d0, p0), (d1, p1)) = (w[0], w[1]);
                    if d <= d1 {
                        let t = if d1 > d0 { (d - d0) / (d1 - d0) } else { 0.0 };
                        return p0 + (p1 - p0) * t;
                    }
                }
                0.0
            }
        }
    }

    /// The largest distance at which the gain still reaches `g`, or
    /// `None` when even contact falls short.
    pub fn max_distance_for_gain(&self, g: f64) -> Option<Meters> {
        assert!(g > 0.0 && g.is_finite(), "gain threshold must be positive");
        match *self {
            Law::Quadratic { alpha, beta } => {
                let d = (alpha / g).sqrt() - beta;
                (d >= 0.0).then_some(Meters(d))
            }
            Law::Linear { p0, slope } => {
                if p0 < g {
                    None
                } else if slope <= 0.0 {
                    Some(Meters(f64::INFINITY))
                } else {
                    Some(Meters((p0 - g) / slope))
                }
            }
            Law::Table { points, len } => {
                let pts = &points[..len];
                if pts.first().is_none_or(|&(_, p)| p < g) {
                    return None;
                }
                // Walk segments; gains are non-increasing.
                let mut best = pts[0].0;
                for w in pts.windows(2) {
                    let ((d0, p0), (d1, p1)) = (w[0], w[1]);
                    if p1 >= g {
                        best = d1;
                    } else {
                        if p0 > p1 {
                            let t = (p0 - g) / (p0 - p1);
                            best = d0 + (d1 - d0) * t.clamp(0.0, 1.0);
                        }
                        return Some(Meters(best));
                    }
                }
                Some(Meters(best))
            }
        }
    }

    /// Validates the law's invariants (positive support, monotone
    /// non-increasing), returning a human-readable reason on failure.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            Law::Quadratic { alpha, beta } => {
                if !(alpha.is_finite() && alpha > 0.0) {
                    return Err(format!("alpha must be positive, got {alpha}"));
                }
                if !(beta.is_finite() && beta > 0.0) {
                    return Err(format!("beta must be positive, got {beta}"));
                }
                Ok(())
            }
            Law::Linear { p0, slope } => {
                if !(p0.is_finite() && p0 > 0.0) {
                    return Err(format!("p0 must be positive, got {p0}"));
                }
                if !(slope.is_finite() && slope >= 0.0) {
                    return Err(format!("slope must be non-negative, got {slope}"));
                }
                Ok(())
            }
            Law::Table { points, len } => {
                if len == 0 || len > TABLE_MAX_POINTS {
                    return Err(format!("table must have 1..={TABLE_MAX_POINTS} points"));
                }
                let pts = &points[..len];
                for &(d, p) in pts {
                    if !d.is_finite() || d < 0.0 || !p.is_finite() || p < 0.0 {
                        return Err(format!("bad table point ({d}, {p})"));
                    }
                }
                if pts[0].1 <= 0.0 {
                    return Err("table gain at first point must be positive".into());
                }
                for w in pts.windows(2) {
                    if w[1].0 <= w[0].0 {
                        return Err("table distances must be strictly increasing".into());
                    }
                    if w[1].1 > w[0].1 {
                        return Err("table gains must be non-increasing".into());
                    }
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(points: &[(f64, f64)]) -> Law {
        let mut arr = [(0.0, 0.0); TABLE_MAX_POINTS];
        arr[..points.len()].copy_from_slice(points);
        Law::Table {
            points: arr,
            len: points.len(),
        }
    }

    #[test]
    fn quadratic_matches_formula() {
        let law = Law::Quadratic {
            alpha: 36.0,
            beta: 30.0,
        };
        assert!((law.gain(Meters(0.0)) - 0.04).abs() < 1e-12);
        assert!((law.gain(Meters(10.0)) - 36.0 / 1600.0).abs() < 1e-12);
    }

    #[test]
    fn linear_clamps_at_zero() {
        let law = Law::Linear {
            p0: 0.1,
            slope: 0.01,
        };
        assert_eq!(law.gain(Meters(0.0)), 0.1);
        assert!((law.gain(Meters(5.0)) - 0.05).abs() < 1e-12);
        assert_eq!(law.gain(Meters(20.0)), 0.0);
    }

    #[test]
    fn table_interpolates_and_cuts_off() {
        let law = table(&[(0.0, 0.1), (1.0, 0.05), (3.0, 0.01)]);
        assert_eq!(law.gain(Meters(0.0)), 0.1);
        assert!((law.gain(Meters(0.5)) - 0.075).abs() < 1e-12);
        assert!((law.gain(Meters(2.0)) - 0.03).abs() < 1e-12);
        assert_eq!(law.gain(Meters(5.0)), 0.0);
    }

    #[test]
    fn all_laws_monotone_non_increasing() {
        let laws = [
            Law::Quadratic {
                alpha: 36.0,
                beta: 30.0,
            },
            Law::Linear {
                p0: 0.2,
                slope: 0.004,
            },
            table(&[(0.0, 0.2), (2.0, 0.08), (10.0, 0.0)]),
        ];
        for law in laws {
            let mut last = f64::INFINITY;
            for i in 0..200 {
                let g = law.gain(Meters(f64::from(i) * 0.5));
                assert!(g <= last + 1e-12, "{law:?} increased at step {i}");
                last = g;
            }
        }
    }

    #[test]
    fn max_distance_round_trips() {
        let laws = [
            Law::Quadratic {
                alpha: 36.0,
                beta: 30.0,
            },
            Law::Linear {
                p0: 0.2,
                slope: 0.004,
            },
            table(&[(0.0, 0.2), (2.0, 0.08), (10.0, 0.01)]),
        ];
        for law in laws {
            let g = law.gain(Meters(1.5));
            if g > 0.0 {
                let d = law.max_distance_for_gain(g).unwrap();
                assert!(
                    (law.gain(d) - g).abs() < 1e-9,
                    "{law:?}: {} vs {}",
                    law.gain(d),
                    g
                );
            }
            assert!(law.max_distance_for_gain(1e9).is_none());
        }
    }

    #[test]
    fn validation_catches_bad_tables() {
        assert!(table(&[(0.0, 0.1), (1.0, 0.2)]).validate().is_err()); // increasing gain
        assert!(table(&[(1.0, 0.1), (1.0, 0.05)]).validate().is_err()); // duplicate distance
        assert!(table(&[(0.0, 0.0)]).validate().is_err()); // zero at contact
        assert!(table(&[(0.0, 0.1), (2.0, 0.05)]).validate().is_ok());
        assert!(Law::Quadratic {
            alpha: 0.0,
            beta: 1.0
        }
        .validate()
        .is_err());
        assert!(Law::Linear {
            p0: 0.1,
            slope: -1.0
        }
        .validate()
        .is_err());
    }
}
