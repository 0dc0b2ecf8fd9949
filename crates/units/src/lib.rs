//! Zero-cost dimensional newtypes for the bundle-charging workspace.
//!
//! Every physical quantity the planner manipulates — distances, energies,
//! dwell times, powers — gets its own `#[repr(transparent)]` wrapper around
//! `f64`, and only dimensionally-sound arithmetic is implemented:
//!
//! * `Watts * Seconds = Joules` (and the division inverses)
//! * `JoulesPerMeter * Meters = Joules` — the movement-energy product of
//!   the paper's Eq. 3
//! * `MetersPerSecond * Seconds = Meters`
//! * `Meters * Meters = Meters2`, with [`Meters2::sqrt`] back to [`Meters`]
//!
//! Mixing dimensions (`Joules + Seconds`, say) is a *compile* error, which
//! turns the classic silent unit bug of energy-accounting reproductions
//! into a type error. Same-dimension `Add/Sub`, scalar `Mul/Div<f64>`, and
//! the dimensionless ratio `Div<Self> -> f64` are all provided so typed
//! code reads like the raw-`f64` code it replaces.
//!
//! The inner field is `pub` on purpose: `Joules(2.0)` is the idiomatic
//! constructor (usable in `const` contexts), and `.0` is the single
//! greppable escape hatch at FFI/format boundaries — `cargo xtask lint`
//! polices where it may appear.

#![warn(missing_docs)]

use serde::{Deserialize, Serialize};

/// Implements one quantity newtype with its dimension-preserving ops.
macro_rules! quantity {
    ($(#[$doc:meta])* $name:ident, $suffix:literal) => {
        $(#[$doc])*
        #[derive(
            Clone, Copy, Debug, Default, PartialEq, PartialOrd, Serialize, Deserialize,
        )]
        #[repr(transparent)]
        pub struct $name(pub f64);

        impl $name {
            /// The zero quantity.
            pub const ZERO: Self = Self(0.0);

            /// Wraps a raw magnitude (identical to the tuple constructor).
            #[inline]
            pub const fn new(value: f64) -> Self {
                Self(value)
            }

            /// Returns the raw magnitude.
            #[inline]
            pub const fn get(self) -> f64 {
                self.0
            }

            /// Absolute value, same dimension.
            #[inline]
            pub fn abs(self) -> Self {
                Self(self.0.abs())
            }

            /// The larger of two quantities.
            #[inline]
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// The smaller of two quantities.
            #[inline]
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }

            /// Clamps into `[lo, hi]`.
            #[inline]
            pub fn clamp(self, lo: Self, hi: Self) -> Self {
                Self(self.0.clamp(lo.0, hi.0))
            }

            /// True when the magnitude is neither infinite nor NaN.
            #[inline]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }

            /// True when the magnitude is NaN.
            #[inline]
            pub fn is_nan(self) -> bool {
                self.0.is_nan()
            }
        }

        impl core::fmt::Display for $name {
            fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
                // Honour width/precision flags on the inner float, then
                // append the unit suffix.
                self.0.fmt(f)?;
                f.write_str(concat!(" ", $suffix))
            }
        }

        impl core::ops::Add for $name {
            type Output = Self;
            #[inline]
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl core::ops::Sub for $name {
            type Output = Self;
            #[inline]
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl core::ops::Neg for $name {
            type Output = Self;
            #[inline]
            fn neg(self) -> Self {
                Self(-self.0)
            }
        }

        impl core::ops::AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl core::ops::SubAssign for $name {
            #[inline]
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl core::ops::Mul<f64> for $name {
            type Output = Self;
            #[inline]
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl core::ops::Mul<$name> for f64 {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl core::ops::Div<f64> for $name {
            type Output = Self;
            #[inline]
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        /// Dimensionless ratio of two like quantities.
        impl core::ops::Div for $name {
            type Output = f64;
            #[inline]
            fn div(self, rhs: Self) -> f64 {
                self.0 / rhs.0
            }
        }

        impl core::iter::Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|q| q.0).sum())
            }
        }

        impl<'a> core::iter::Sum<&'a $name> for $name {
            fn sum<I: Iterator<Item = &'a Self>>(iter: I) -> Self {
                Self(iter.map(|q| q.0).sum())
            }
        }
    };
}

/// Implements the sound cross-dimension products `$a * $b = $c` (both
/// operand orders) and the division inverses `$c / $a = $b`, `$c / $b = $a`.
macro_rules! product {
    ($a:ident * $b:ident = $c:ident) => {
        impl core::ops::Mul<$b> for $a {
            type Output = $c;
            #[inline]
            fn mul(self, rhs: $b) -> $c {
                $c(self.0 * rhs.0)
            }
        }

        impl core::ops::Mul<$a> for $b {
            type Output = $c;
            #[inline]
            fn mul(self, rhs: $a) -> $c {
                $c(self.0 * rhs.0)
            }
        }

        impl core::ops::Div<$a> for $c {
            type Output = $b;
            #[inline]
            fn div(self, rhs: $a) -> $b {
                $b(self.0 / rhs.0)
            }
        }

        impl core::ops::Div<$b> for $c {
            type Output = $a;
            #[inline]
            fn div(self, rhs: $b) -> $a {
                $a(self.0 / rhs.0)
            }
        }
    };
}

quantity!(
    /// A distance in metres.
    Meters,
    "m"
);

quantity!(
    /// An area in square metres (product of two [`Meters`]).
    Meters2,
    "m²"
);

quantity!(
    /// An energy in joules.
    Joules,
    "J"
);

quantity!(
    /// A duration in seconds.
    Seconds,
    "s"
);

quantity!(
    /// A power in watts (joules per second).
    Watts,
    "W"
);

quantity!(
    /// A movement-energy rate in joules per metre (the paper's `E_m`).
    JoulesPerMeter,
    "J/m"
);

quantity!(
    /// A speed in metres per second.
    MetersPerSecond,
    "m/s"
);

// Energy = power x time (Eq. 3 charging term), and its inverses: dwell
// time = energy / power, power = energy / time.
product!(Watts * Seconds = Joules);

// Energy = movement rate x distance (Eq. 3 travel term).
product!(JoulesPerMeter * Meters = Joules);

// Distance = speed x time (charger kinematics).
product!(MetersPerSecond * Seconds = Meters);

// Area = distance squared. `Meters * Meters` can't go through `product!`
// (the two mirrored `Mul` impls would collide), so it is spelled out.
impl core::ops::Mul for Meters {
    type Output = Meters2;
    #[inline]
    fn mul(self, rhs: Meters) -> Meters2 {
        Meters2(self.0 * rhs.0)
    }
}

impl core::ops::Div<Meters> for Meters2 {
    type Output = Meters;
    #[inline]
    fn div(self, rhs: Meters) -> Meters {
        Meters(self.0 / rhs.0)
    }
}

impl Meters {
    /// Squares the distance into an area.
    #[inline]
    pub fn squared(self) -> Meters2 {
        Meters2(self.0 * self.0)
    }
}

impl Meters2 {
    /// Side length of a square with this area.
    #[inline]
    pub fn sqrt(self) -> Meters {
        Meters(self.0.sqrt())
    }
}

impl Meters {
    /// Time to cover this distance at the given speed (alias for the
    /// `Meters / MetersPerSecond` quotient).
    #[inline]
    pub fn time_at(self, speed: MetersPerSecond) -> Seconds {
        Seconds(self.0 / speed.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_cost_layout() {
        assert_eq!(core::mem::size_of::<Joules>(), core::mem::size_of::<f64>());
        assert_eq!(
            core::mem::align_of::<Meters>(),
            core::mem::align_of::<f64>()
        );
    }

    #[test]
    fn const_construction() {
        const DEMAND: Joules = Joules(2.0);
        const R: Meters = Meters::new(40.0);
        assert_eq!(DEMAND.get(), 2.0);
        assert_eq!(R.0, 40.0);
        assert_eq!(Joules::ZERO.0, 0.0);
    }

    #[test]
    fn same_dimension_arithmetic() {
        let a = Joules(3.0) + Joules(4.0) - Joules(1.0);
        assert_eq!(a, Joules(6.0));
        let mut b = Seconds(1.0);
        b += Seconds(2.0);
        b -= Seconds(0.5);
        assert_eq!(b, Seconds(2.5));
        assert_eq!(-Meters(2.0), Meters(-2.0));
        assert_eq!(Meters(10.0) / Meters(4.0), 2.5);
        assert_eq!(Meters(3.0) * 2.0, Meters(6.0));
        assert_eq!(2.0 * Meters(3.0), Meters(6.0));
        assert_eq!(Meters(3.0) / 2.0, Meters(1.5));
    }

    #[test]
    fn power_time_energy_triangle() {
        let e = Watts(1.5) * Seconds(10.0);
        assert_eq!(e, Joules(15.0));
        assert_eq!(Seconds(10.0) * Watts(1.5), Joules(15.0));
        assert_eq!(e / Watts(1.5), Seconds(10.0));
        assert_eq!(e / Seconds(10.0), Watts(1.5));
    }

    #[test]
    fn movement_energy_product() {
        let e = JoulesPerMeter(5.59) * Meters(100.0);
        assert!((e.0 - 559.0).abs() < 1e-12);
        assert_eq!(Meters(100.0) * JoulesPerMeter(5.59), e);
        assert!((e / Meters(100.0) - JoulesPerMeter(5.59)).abs().0 < 1e-12);
        assert!((e / JoulesPerMeter(5.59) - Meters(100.0)).abs().0 < 1e-12);
    }

    #[test]
    fn kinematics() {
        let d = MetersPerSecond(0.3) * Seconds(10.0);
        assert_eq!(d, Meters(3.0));
        assert_eq!(d / MetersPerSecond(0.3), Seconds(10.0));
        assert_eq!(d.time_at(MetersPerSecond(0.3)), Seconds(10.0));
        assert_eq!(Meters(3.0) / Seconds(10.0), MetersPerSecond(0.3));
    }

    #[test]
    fn area_square_root() {
        let a = Meters(3.0) * Meters(4.0);
        assert_eq!(a, Meters2(12.0));
        assert_eq!(Meters(5.0).squared().sqrt(), Meters(5.0));
        assert_eq!(Meters2(12.0) / Meters(3.0), Meters(4.0));
    }

    #[test]
    fn ordering_and_helpers() {
        assert!(Joules(1.0) < Joules(2.0));
        assert_eq!(Joules(-1.0).abs(), Joules(1.0));
        assert_eq!(Seconds(1.0).max(Seconds(2.0)), Seconds(2.0));
        assert_eq!(Seconds(1.0).min(Seconds(2.0)), Seconds(1.0));
        assert_eq!(Meters(5.0).clamp(Meters(0.0), Meters(3.0)), Meters(3.0));
        assert!(Joules(1.0).is_finite());
        assert!(!Joules(f64::INFINITY).is_finite());
        assert!(Joules(f64::NAN).is_nan());
    }

    #[test]
    fn summation() {
        let owned: Joules = [Joules(1.0), Joules(2.0)].into_iter().sum();
        assert_eq!(owned, Joules(3.0));
        let borrowed: Joules = [Joules(1.0), Joules(2.0)].iter().sum();
        assert_eq!(borrowed, Joules(3.0));
    }

    #[test]
    fn display_has_unit_suffix() {
        assert_eq!(format!("{}", Joules(2.0)), "2 J");
        assert_eq!(format!("{:.2}", Meters(1.234)), "1.23 m");
        assert_eq!(format!("{}", Watts(3.0)), "3 W");
        assert_eq!(format!("{}", JoulesPerMeter(5.59)), "5.59 J/m");
        assert_eq!(format!("{}", MetersPerSecond(0.3)), "0.3 m/s");
        assert_eq!(format!("{}", Meters2(4.0)), "4 m²");
        assert_eq!(format!("{}", Seconds(9.0)), "9 s");
    }
}
