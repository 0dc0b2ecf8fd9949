//! Seeded fault injection for the serving layer.
//!
//! [`ServeFaultModel`] mirrors the planner-side [`bc_core::FaultModel`]:
//! every draw is a pure function of `(seed, request, attempt)` via the
//! same splitmix64 counter generator ([`FaultRng`]), so a chaos run with
//! the same seed injects byte-identical stalls, failures and panics no
//! matter how the worker pool interleaves. That determinism is what lets
//! the chaos harness assert exact invariants instead of flaky thresholds.

use std::time::Duration;

use bc_core::faults::FaultRng;

use crate::error::ServeError;

/// What the fault model injects into one plan attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOutcome {
    /// The attempt proceeds normally.
    None,
    /// The attempt fails with a transient build error (retryable).
    TransientFailure,
    /// The worker panics mid-build while holding the cache lock,
    /// poisoning the entry (retryable after rebuild).
    Panic,
}

/// The concrete injection for one `(request, attempt)` pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedFault {
    /// An artificial stall before the build starts, if any.
    pub stall: Option<Duration>,
    /// How the build itself is sabotaged, if at all.
    pub outcome: FaultOutcome,
}

impl InjectedFault {
    /// The no-op injection.
    pub fn none() -> Self {
        InjectedFault {
            stall: None,
            outcome: FaultOutcome::None,
        }
    }
}

/// Per-seed stochastic model of serving-layer faults.
///
/// Probabilities are per *attempt*; `draw` is deterministic in
/// `(seed, request, attempt)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeFaultModel {
    /// Seed decorrelating this model from others.
    pub seed: u64,
    /// Probability of an artificial stall before an attempt.
    pub stall_prob: f64,
    /// Stall length is drawn uniformly from `1..=stall_ms_max` ms.
    pub stall_ms_max: u64,
    /// Probability an attempt fails with a transient build error.
    pub fail_prob: f64,
    /// Probability an attempt panics while holding the cache lock.
    pub panic_prob: f64,
}

impl ServeFaultModel {
    /// The fault-free model (all probabilities zero).
    pub fn none() -> Self {
        ServeFaultModel {
            seed: 0,
            stall_prob: 0.0,
            stall_ms_max: 0,
            fail_prob: 0.0,
            panic_prob: 0.0,
        }
    }

    /// A hostile preset used by the chaos harness: stalls, transient
    /// failures and panics all at `rate`, with short (≤5 ms) stalls so
    /// tests stay fast.
    pub fn chaos(seed: u64, rate: f64) -> Self {
        ServeFaultModel {
            seed,
            stall_prob: rate,
            stall_ms_max: 5,
            fail_prob: rate,
            panic_prob: rate,
        }
    }

    /// True when no fault class can fire.
    pub fn is_none(&self) -> bool {
        self.stall_prob <= 0.0 && self.fail_prob <= 0.0 && self.panic_prob <= 0.0
    }

    /// Validates every probability is a finite value in `[0, 1]`.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidConfig`] naming the offending field.
    pub fn validate(&self) -> Result<(), ServeError> {
        for (name, p) in [
            ("stall_prob", self.stall_prob),
            ("fail_prob", self.fail_prob),
            ("panic_prob", self.panic_prob),
        ] {
            if !p.is_finite() || !(0.0..=1.0).contains(&p) {
                return Err(ServeError::InvalidConfig(format!(
                    "{name} must be in [0, 1], got {p}"
                )));
            }
        }
        if self.stall_prob > 0.0 && self.stall_ms_max == 0 {
            return Err(ServeError::InvalidConfig(
                "stall_ms_max must be > 0 when stall_prob > 0".into(),
            ));
        }
        Ok(())
    }

    /// The injection for attempt `attempt` of request `request` — a pure
    /// function of `(seed, request, attempt)`.
    pub fn draw(&self, request: u64, attempt: u32) -> InjectedFault {
        if self.is_none() {
            return InjectedFault::none();
        }
        let mut rng = FaultRng::new(
            self.seed,
            request.wrapping_mul(31).wrapping_add(u64::from(attempt)),
        );
        let stall = if rng.unit() < self.stall_prob {
            let cap = usize::try_from(self.stall_ms_max).unwrap_or(usize::MAX);
            let ms = rng.index(cap) as u64 + 1; // cast-ok: index below stall_ms_max fits u64
            Some(Duration::from_millis(ms))
        } else {
            None
        };
        // One draw decides between failure and panic so the two classes
        // are mutually exclusive within an attempt.
        let sabotage = rng.unit();
        let outcome = if sabotage < self.panic_prob {
            FaultOutcome::Panic
        } else if sabotage < self.panic_prob + self.fail_prob {
            FaultOutcome::TransientFailure
        } else {
            FaultOutcome::None
        };
        InjectedFault { stall, outcome }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draws_are_deterministic_and_seed_sensitive() {
        let m = ServeFaultModel::chaos(42, 0.3);
        for req in 0..50u64 {
            for attempt in 0..3u32 {
                assert_eq!(m.draw(req, attempt), m.draw(req, attempt));
            }
        }
        let other = ServeFaultModel::chaos(43, 0.3);
        let differs = (0..50u64).any(|r| m.draw(r, 0) != other.draw(r, 0));
        assert!(differs, "different seeds must differ somewhere");
    }

    #[test]
    fn none_model_never_fires() {
        let m = ServeFaultModel::none();
        for req in 0..100u64 {
            assert_eq!(m.draw(req, 0), InjectedFault::none());
        }
    }

    #[test]
    fn validate_rejects_bad_probabilities() {
        let mut m = ServeFaultModel::none();
        m.fail_prob = 1.5;
        assert!(m.validate().is_err());
        m.fail_prob = f64::NAN;
        assert!(m.validate().is_err());
        m.fail_prob = 0.0;
        m.stall_prob = 0.1;
        m.stall_ms_max = 0;
        assert!(m.validate().is_err());
        m.stall_ms_max = 3;
        assert!(m.validate().is_ok());
    }

    #[test]
    fn chaos_rates_roughly_match_probabilities() {
        let m = ServeFaultModel::chaos(7, 0.25);
        let n = 4000u64;
        let mut stalls = 0usize;
        let mut panics = 0usize;
        for req in 0..n {
            let f = m.draw(req, 0);
            if f.stall.is_some() {
                stalls += 1;
            }
            if f.outcome == FaultOutcome::Panic {
                panics += 1;
            }
        }
        let stall_rate = stalls as f64 / n as f64; // cast-ok: counts to rate
        let panic_rate = panics as f64 / n as f64; // cast-ok: counts to rate
        assert!((stall_rate - 0.25).abs() < 0.05, "stall rate {stall_rate}");
        assert!((panic_rate - 0.25).abs() < 0.05, "panic rate {panic_rate}");
    }
}
