//! Planner configuration.

use std::fmt;

use bc_tsp::SolveConfig;
use bc_units::{Meters, Watts};
use bc_wpt::{ChargingModel, EnergyModel};

/// A [`PlannerConfig`] field was rejected by [`PlannerConfig::validate`].
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// The bundle radius is not a positive finite number.
    BadBundleRadius {
        /// The rejected value.
        value: Meters,
    },
    /// The charging model's source power is not a positive finite number.
    BadChargePower {
        /// The rejected value.
        value: Watts,
    },
    /// The charging model's decay law is itself invalid.
    BadChargingLaw {
        /// Explanation from [`bc_wpt::Law::validate`].
        reason: String,
    },
    /// The charging law delivers no power at the bundle radius, so a
    /// bundle member on its boundary could never be charged.
    RadiusBeyondReach {
        /// The rejected bundle radius.
        radius: Meters,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::BadBundleRadius { value } => {
                write!(
                    f,
                    "bundle_radius must be positive and finite, got {}",
                    value.0
                )
            }
            ConfigError::BadChargePower { value } => {
                write!(
                    f,
                    "charging source power must be positive and finite, got {}",
                    value.0
                )
            }
            ConfigError::BadChargingLaw { reason } => {
                write!(f, "invalid charging law: {reason}")
            }
            ConfigError::RadiusBeyondReach { radius } => {
                write!(
                    f,
                    "the charging law delivers no power at bundle_radius {} m",
                    radius.0
                )
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// How a bundle's dwell time is determined.
///
/// The paper's text fixes the dwell by "the sensor which is the farthest
/// away from the anchor point"; [`DwellPolicy::Realized`] implements that
/// literally. [`DwellPolicy::RadiusWorstCase`] instead charges for the
/// full generation radius `r` whenever the bundle has more than one
/// member — the conservative schedule a charger would use without
/// per-sensor distance knowledge, and an ablation that reproduces the
/// steeper charging-time growth of the paper's Fig. 6(a).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DwellPolicy {
    /// Dwell until the realized farthest member is fully charged.
    #[default]
    Realized,
    /// Dwell as if the farthest member sat on the bundle-radius boundary.
    RadiusWorstCase,
}

/// Everything a planner needs besides the network itself.
///
/// Use [`PlannerConfig::paper_sim`] or [`PlannerConfig::paper_testbed`]
/// for the two environments of the paper's evaluation, then adjust fields
/// as needed.
///
/// # Example
///
/// ```
/// use bc_core::PlannerConfig;
/// use bc_units::Meters;
///
/// let cfg = PlannerConfig::paper_sim(20.0);
/// assert_eq!(cfg.bundle_radius, Meters(20.0));
/// ```
#[derive(Debug, Clone)]
pub struct PlannerConfig {
    /// Charging bundle radius `r`.
    pub bundle_radius: Meters,
    /// Wireless charging model (Eq. 1 parameters).
    pub charging: ChargingModel,
    /// Charger energy accounting (`E_m`, `p_c`).
    pub energy: EnergyModel,
    /// TSP pipeline settings.
    pub tsp: SolveConfig,
    /// How BC sets dwell times (SC, CSS and BC-OPT always use realized
    /// distances).
    pub dwell_policy: DwellPolicy,
}

impl PlannerConfig {
    /// Simulation environment of Section VI-A with the given bundle
    /// radius (in metres).
    pub fn paper_sim(bundle_radius: f64) -> Self {
        PlannerConfig {
            bundle_radius: Meters(bundle_radius),
            charging: ChargingModel::paper_sim(),
            energy: EnergyModel::paper_sim(),
            tsp: SolveConfig::default(),
            dwell_policy: DwellPolicy::default(),
        }
    }

    /// Testbed environment of Section VII with the given bundle radius
    /// (in metres).
    pub fn paper_testbed(bundle_radius: f64) -> Self {
        PlannerConfig {
            bundle_radius: Meters(bundle_radius),
            charging: ChargingModel::paper_testbed(),
            energy: EnergyModel::paper_testbed(),
            tsp: SolveConfig::default(),
            dwell_policy: DwellPolicy::default(),
        }
    }

    /// Checks that the configuration can drive a planner at all: the
    /// bundle radius is a positive finite number, the charging model
    /// has positive finite source power and a valid decay law, and the
    /// law still delivers power at the bundle radius. Every algorithm
    /// refuses a radius beyond the law's reach, SC too, although SC
    /// never reads the radius.
    ///
    /// [`crate::planner::try_run`] calls this before dispatching, so a
    /// bad configuration surfaces as a typed error instead of a `NaN`
    /// plan or a panic deep inside a planner.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] found.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !self.bundle_radius.is_finite() || self.bundle_radius.0 <= 0.0 {
            return Err(ConfigError::BadBundleRadius {
                value: self.bundle_radius,
            });
        }
        let power = self.charging.source_power();
        if !power.is_finite() || power.0 <= 0.0 {
            return Err(ConfigError::BadChargePower { value: power });
        }
        self.charging
            .law()
            .validate()
            .map_err(|reason| ConfigError::BadChargingLaw { reason })?;
        if self.charging.received_power(self.bundle_radius).0 <= 0.0 {
            return Err(ConfigError::RadiusBeyondReach {
                radius: self.bundle_radius,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        assert!(PlannerConfig::paper_sim(30.0).validate().is_ok());
        assert!(PlannerConfig::paper_testbed(1.0).validate().is_ok());
    }

    #[test]
    fn rejects_bad_radius() {
        for r in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let cfg = PlannerConfig::paper_sim(r);
            assert!(
                matches!(cfg.validate(), Err(ConfigError::BadBundleRadius { .. })),
                "radius {r} should be rejected"
            );
        }
    }

    #[test]
    fn rejects_a_radius_the_law_cannot_reach() {
        // A linear law of 20 m support delivers nothing at 20 m or beyond.
        let mut cfg = PlannerConfig::paper_sim(10.0);
        cfg.charging = ChargingModel::linear(0.04, 0.002, 1.0);
        assert!(cfg.validate().is_ok());
        for r in [20.0, 25.0] {
            cfg.bundle_radius = Meters(r);
            assert_eq!(
                cfg.validate(),
                Err(ConfigError::RadiusBeyondReach { radius: Meters(r) })
            );
        }
    }

    #[test]
    fn error_messages_are_informative() {
        let err = PlannerConfig::paper_sim(-3.0).validate().unwrap_err();
        assert!(err.to_string().contains("-3"));
    }

    #[test]
    fn presets_differ() {
        let sim = PlannerConfig::paper_sim(10.0);
        let tb = PlannerConfig::paper_testbed(1.0);
        assert!(sim.charging.beta().unwrap() > tb.charging.beta().unwrap());
        assert_eq!(sim.bundle_radius, Meters(10.0));
        assert_eq!(tb.bundle_radius, Meters(1.0));
    }
}
