//! Mobile-charger energy accounting.

use std::fmt;

use bc_units::{Joules, JoulesPerMeter, Meters, Seconds, Watts};
use serde::{Deserialize, Serialize};

use crate::params;

/// The two-part operating cost of the mobile charger: movement energy per
/// metre and charging-mode power draw per second of dwell time.
///
/// The BTO objective (Eq. 3 of the paper) is exactly
/// `move_cost * tour_length + charge_draw * total_dwell_time`, which
/// [`EnergyModel::total_energy`] computes.
///
/// # Example
///
/// ```
/// use bc_units::{Meters, Seconds};
/// use bc_wpt::EnergyModel;
///
/// let e = EnergyModel::paper_sim();
/// // 100 m of driving plus 60 s of charging:
/// let j = e.total_energy(Meters(100.0), Seconds(60.0));
/// assert!(j > e.movement_energy(Meters(100.0)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyModel {
    move_cost: JoulesPerMeter,
    charge_draw: Watts,
}

impl EnergyModel {
    /// Creates an energy model from the movement cost (J/m) and the
    /// charging-mode draw (W).
    ///
    /// # Panics
    ///
    /// Panics unless both values are finite and non-negative.
    pub fn new(move_cost_j_per_m: f64, charge_draw_w: f64) -> Self {
        assert!(
            move_cost_j_per_m.is_finite() && move_cost_j_per_m >= 0.0,
            "movement cost must be non-negative, got {move_cost_j_per_m}"
        );
        assert!(
            charge_draw_w.is_finite() && charge_draw_w >= 0.0,
            "charging draw must be non-negative, got {charge_draw_w}"
        );
        EnergyModel {
            move_cost: JoulesPerMeter(move_cost_j_per_m),
            charge_draw: Watts(charge_draw_w),
        }
    }

    /// The simulation accounting of Section VI-A: 5.59 J/m movement and
    /// transmit power plus the 0.9 J/min overhead while charging.
    pub fn paper_sim() -> Self {
        EnergyModel::new(params::SIM_MOVE_COST_J_PER_M.0, params::SIM_CHARGE_DRAW_W.0)
    }

    /// The testbed accounting of Section VII.
    pub fn paper_testbed() -> Self {
        EnergyModel::new(
            params::SIM_MOVE_COST_J_PER_M.0,
            params::TESTBED_SOURCE_POWER_W.0 + params::SIM_CHARGING_OVERHEAD_W.0,
        )
    }

    /// Movement cost `E_m`.
    pub fn move_cost(&self) -> JoulesPerMeter {
        self.move_cost
    }

    /// Charging-mode draw `p_c`.
    pub fn charge_draw(&self) -> Watts {
        self.charge_draw
    }

    /// Energy to drive `length` of tour.
    ///
    /// # Panics
    ///
    /// Panics if `length` is negative or not finite.
    #[inline]
    pub fn movement_energy(&self, length: Meters) -> Joules {
        assert!(
            length.is_finite() && length.0 >= 0.0,
            "tour length must be non-negative"
        );
        self.move_cost * length
    }

    /// Energy to stay in charging mode for `dwell`.
    ///
    /// # Panics
    ///
    /// Panics if `dwell` is negative or not finite.
    #[inline]
    pub fn charging_energy(&self, dwell: Seconds) -> Joules {
        assert!(
            dwell.is_finite() && dwell.0 >= 0.0,
            "dwell time must be non-negative"
        );
        self.charge_draw * dwell
    }

    /// Total operating energy for a tour of `length` with `dwell` of
    /// cumulative dwell time — the BTO objective.
    #[inline]
    pub fn total_energy(&self, length: Meters, dwell: Seconds) -> Joules {
        self.movement_energy(length) + self.charging_energy(dwell)
    }
}

impl fmt::Display for EnergyModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "E_m = {:.3} J/m, p_c = {:.3} W",
            self.move_cost.0, self.charge_draw.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_sim_values() {
        let e = EnergyModel::paper_sim();
        assert!((e.move_cost().0 - 5.59).abs() < 1e-12);
        assert!((e.charge_draw().0 - 1.015).abs() < 1e-12);
    }

    #[test]
    fn totals_add_up() {
        let e = EnergyModel::new(2.0, 4.0);
        assert_eq!(e.movement_energy(Meters(10.0)), Joules(20.0));
        assert_eq!(e.charging_energy(Seconds(3.0)), Joules(12.0));
        assert_eq!(e.total_energy(Meters(10.0), Seconds(3.0)), Joules(32.0));
    }

    #[test]
    #[should_panic(expected = "must be non-negative")]
    fn negative_move_cost_panics() {
        let _ = EnergyModel::new(-1.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "tour length must be non-negative")]
    fn negative_length_panics() {
        let _ = EnergyModel::paper_sim().movement_energy(Meters(-1.0));
    }
}
