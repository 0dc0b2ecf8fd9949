//! Deterministic fault injection for charging-tour execution.
//!
//! The paper evaluates plans that execute perfectly; a dense WRSN does
//! not. Mid-tour sensor deaths, degraded charging efficiency, charger
//! stalls and transient failed charge attempts all happen in deployment
//! (cf. the depletion-minimization literature), and a planner stack that
//! is only ever exercised on the happy path hides its recovery cost.
//!
//! [`FaultModel`] describes *how often* each fault class occurs;
//! [`FaultModel::schedule`] expands it into a concrete, per-round
//! [`FaultSchedule`] — every death, degradation, stall and failed
//! attempt pinned to a stop index — using a counter-based generator, so
//! the same `(seed, round, n_sensors, n_stops)` always yields the same
//! schedule regardless of how the executor consumes it. The executor in
//! [`crate::execute`] then steps a plan against the schedule.

use std::fmt;

use bc_units::Seconds;

/// Splitmix64-based counter RNG: every draw is a pure function of
/// `(seed, stream, counter)`, which keeps fault schedules byte-identical
/// across runs and platforms. The serving layer draws its injected
/// faults, retry jitter and load from it too.
#[derive(Debug, Clone)]
pub struct FaultRng {
    state: u64,
}

impl FaultRng {
    /// The generator of stream `stream` under `seed`.
    pub fn new(seed: u64, stream: u64) -> Self {
        // Mix the stream id in with one splitmix step so streams with
        // nearby seeds decorrelate.
        let mut r = FaultRng {
            state: seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        };
        r.next_u64();
        r
    }

    /// The next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw from `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64) // cast-ok: 53 mantissa bits to unit float
    }

    /// Uniform draw from `0..n` (`n > 0`).
    pub fn index(&mut self, n: usize) -> usize {
        usize::try_from(self.next_u64() % n as u64) // cast-ok: modulus below n fits usize
            .unwrap_or_else(|_| unreachable!("modulus below n fits usize"))
    }
}

/// A per-seed stochastic model of execution faults.
///
/// All probabilities are per *round* (deaths, per sensor) or per *stop* /
/// *leg* (everything else). Use [`FaultModel::none`] for fault-free
/// execution and [`FaultModel::with_rate`] to scale every fault class
/// from a single knob, which is what the `repro faults` sweep does.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultModel {
    /// Seed of the fault stream. Rounds derive sub-streams from it, so
    /// one model drives a whole lifetime simulation deterministically.
    pub seed: u64,
    /// Probability that a given sensor dies at some point during a round.
    pub death_prob: f64,
    /// Probability that charging efficiency is degraded at a given stop.
    pub degrade_prob: f64,
    /// Worst-case efficiency factor of a degraded stop, in `(0, 1]`;
    /// realized factors are uniform in `[degrade_floor, 1)`.
    pub degrade_floor: f64,
    /// Probability that the charger stalls on the leg into a given stop.
    pub stall_prob: f64,
    /// Maximum extra slowdown of a stalled leg: a stalled leg's drive
    /// time is multiplied by a factor uniform in `[1, 1 + stall_slowdown_max]`.
    pub stall_slowdown_max: f64,
    /// Probability that a charge attempt at a given stop fails
    /// transiently (per attempt, independent).
    pub charge_fail_prob: f64,
    /// Bounded retry: attempts beyond `1 + max_retries` make the stop
    /// unrecoverable in place and hand it to the recovery policy.
    pub max_retries: u32,
    /// Base backoff between retries (s); see
    /// [`FaultModel::backoff_total`].
    pub backoff_s: Seconds,
}

impl FaultModel {
    /// A model that injects nothing; execution reduces to the plan.
    pub fn none() -> Self {
        FaultModel {
            seed: 0,
            death_prob: 0.0,
            degrade_prob: 0.0,
            degrade_floor: 0.5,
            stall_prob: 0.0,
            stall_slowdown_max: 1.0,
            charge_fail_prob: 0.0,
            max_retries: 2,
            backoff_s: Seconds(30.0),
        }
    }

    /// Scales every fault class from one `rate` knob in `[0, 1]`:
    /// deaths at `rate / 10` (deaths are rarer than glitches),
    /// degradation, stalls and transient charge failures at `rate`.
    pub fn with_rate(seed: u64, rate: f64) -> Self {
        FaultModel {
            seed,
            death_prob: rate / 10.0,
            degrade_prob: rate,
            degrade_floor: 0.5,
            stall_prob: rate,
            stall_slowdown_max: 1.0,
            charge_fail_prob: rate,
            max_retries: 2,
            backoff_s: Seconds(30.0),
        }
    }

    /// Checks every probability is a finite value in `[0, 1]` and every
    /// magnitude is finite and sane.
    ///
    /// # Errors
    ///
    /// Returns a [`FaultModelError`] naming the offending field.
    pub fn validate(&self) -> Result<(), FaultModelError> {
        let probs = [
            ("death_prob", self.death_prob),
            ("degrade_prob", self.degrade_prob),
            ("stall_prob", self.stall_prob),
            ("charge_fail_prob", self.charge_fail_prob),
        ];
        for (field, p) in probs {
            if !p.is_finite() || !(0.0..=1.0).contains(&p) {
                return Err(FaultModelError::BadProbability { field, value: p });
            }
        }
        if !self.degrade_floor.is_finite() || self.degrade_floor <= 0.0 || self.degrade_floor > 1.0
        {
            return Err(FaultModelError::BadMagnitude {
                field: "degrade_floor",
                value: self.degrade_floor,
            });
        }
        if !self.stall_slowdown_max.is_finite() || self.stall_slowdown_max < 0.0 {
            return Err(FaultModelError::BadMagnitude {
                field: "stall_slowdown_max",
                value: self.stall_slowdown_max,
            });
        }
        if !self.backoff_s.is_finite() || self.backoff_s < Seconds(0.0) {
            return Err(FaultModelError::BadMagnitude {
                field: "backoff_s",
                value: self.backoff_s.0,
            });
        }
        Ok(())
    }

    /// Time spent backing off over `fails` failed charge attempts: the
    /// charger waits `backoff_s * 2^(k-1)` after failure `k`. Doubling in
    /// `f64` saturates to +inf instead of overflowing.
    pub fn backoff_total(&self, fails: u32) -> Seconds {
        let mut total = Seconds::ZERO;
        let mut wait = self.backoff_s;
        for _ in 0..fails {
            total += wait;
            wait = wait * 2.0;
        }
        total
    }

    /// Expands the model into the concrete schedule of round `round` for
    /// a plan with `n_stops` stops over a network of `n_sensors` sensors.
    ///
    /// Deterministic: the same `(model, round, n_sensors, n_stops)`
    /// always produces the same schedule.
    pub fn schedule(&self, round: u64, n_sensors: usize, n_stops: usize) -> FaultSchedule {
        // Independent streams per fault class, so adding stops never
        // perturbs the death draws and vice versa.
        let mut deaths_rng = FaultRng::new(self.seed, round.wrapping_mul(4));
        let mut degrade_rng = FaultRng::new(self.seed, round.wrapping_mul(4) + 1);
        let mut stall_rng = FaultRng::new(self.seed, round.wrapping_mul(4) + 2);
        let mut fail_rng = FaultRng::new(self.seed, round.wrapping_mul(4) + 3);

        let deaths = (0..n_sensors)
            .map(|_| {
                let dies = deaths_rng.unit() < self.death_prob;
                // Draw the stop unconditionally to keep streams aligned.
                let at = if n_stops > 0 {
                    deaths_rng.index(n_stops)
                } else {
                    0
                };
                dies.then_some(at)
            })
            .collect();
        let degraded = (0..n_stops)
            .map(|_| {
                let hit = degrade_rng.unit() < self.degrade_prob;
                let f = self.degrade_floor + degrade_rng.unit() * (1.0 - self.degrade_floor);
                hit.then_some(f)
            })
            .collect();
        let stalls = (0..n_stops)
            .map(|_| {
                let hit = stall_rng.unit() < self.stall_prob;
                let extra = stall_rng.unit() * self.stall_slowdown_max;
                if hit {
                    1.0 + extra
                } else {
                    1.0
                }
            })
            .collect();
        let failed_attempts = (0..n_stops)
            .map(|_| {
                let mut fails = 0u32;
                // Bounded: at most max_retries + 1 attempts are ever made,
                // so draw exactly that many outcomes.
                for _ in 0..=self.max_retries {
                    if fail_rng.unit() < self.charge_fail_prob {
                        fails += 1;
                    } else {
                        break;
                    }
                }
                fails
            })
            .collect();
        FaultSchedule {
            deaths,
            degraded,
            stalls,
            failed_attempts,
        }
    }
}

impl Default for FaultModel {
    fn default() -> Self {
        FaultModel::none()
    }
}

/// A fault model field was out of range.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultModelError {
    /// A probability fell outside `[0, 1]` (or was not finite).
    BadProbability {
        /// Name of the offending field.
        field: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// A magnitude (factor, duration) was not finite or out of range.
    BadMagnitude {
        /// Name of the offending field.
        field: &'static str,
        /// The rejected value.
        value: f64,
    },
}

impl fmt::Display for FaultModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultModelError::BadProbability { field, value } => {
                write!(f, "{field} must be a probability in [0, 1], got {value}")
            }
            FaultModelError::BadMagnitude { field, value } => {
                write!(f, "{field} is out of range: {value}")
            }
        }
    }
}

impl std::error::Error for FaultModelError {}

/// The concrete faults of one round: everything the executor needs,
/// pinned to stop indices of the plan being executed.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSchedule {
    /// Per sensor: `Some(stop)` if the sensor dies just before the
    /// charger departs for stop `stop` of this round.
    pub deaths: Vec<Option<usize>>,
    /// Per stop: `Some(factor)` if charging efficiency is degraded to
    /// `factor` (in `(0, 1)`) for the whole dwell.
    pub degraded: Vec<Option<f64>>,
    /// Per stop: drive-time multiplier of the leg into the stop
    /// (`1.0` = no stall).
    pub stalls: Vec<f64>,
    /// Per stop: number of transient failed charge attempts before the
    /// first success. A value above the model's `max_retries` means the
    /// stop is unrecoverable in place.
    pub failed_attempts: Vec<u32>,
}

impl FaultSchedule {
    /// An empty schedule (no faults) sized for a plan.
    pub fn clean(n_sensors: usize, n_stops: usize) -> Self {
        FaultSchedule {
            deaths: vec![None; n_sensors],
            degraded: vec![None; n_stops],
            stalls: vec![1.0; n_stops],
            failed_attempts: vec![0; n_stops],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Total number of scheduled faults (deaths + degradations + stalls
    /// + failed attempts).
    fn fault_count(s: &FaultSchedule) -> usize {
        s.deaths.iter().flatten().count()
            + s.degraded.iter().flatten().count()
            + s.stalls.iter().filter(|&&x| x > 1.0).count()
            + s.failed_attempts.iter().map(|&k| k as usize).sum::<usize>()
    }

    #[test]
    fn schedule_is_deterministic() {
        let fm = FaultModel::with_rate(42, 0.3);
        let a = fm.schedule(7, 50, 12);
        let b = fm.schedule(7, 50, 12);
        assert_eq!(a, b);
    }

    #[test]
    fn different_rounds_differ() {
        let fm = FaultModel::with_rate(42, 0.5);
        let a = fm.schedule(1, 80, 20);
        let b = fm.schedule(2, 80, 20);
        assert_ne!(a, b, "independent rounds drew identical schedules");
    }

    #[test]
    fn zero_rate_is_clean() {
        let fm = FaultModel::with_rate(9, 0.0);
        let s = fm.schedule(3, 40, 10);
        assert_eq!(s, FaultSchedule::clean(40, 10));
        assert_eq!(fault_count(&s), 0);
    }

    #[test]
    fn rates_scale_fault_counts() {
        let low: usize = (0..20)
            .map(|r| fault_count(&FaultModel::with_rate(1, 0.05).schedule(r, 100, 30)))
            .sum();
        let high: usize = (0..20)
            .map(|r| fault_count(&FaultModel::with_rate(1, 0.6).schedule(r, 100, 30)))
            .sum();
        assert!(high > 4 * low, "high rate {high} vs low rate {low}");
    }

    #[test]
    fn death_stops_in_range() {
        let fm = FaultModel::with_rate(5, 1.0);
        let s = fm.schedule(0, 200, 7);
        for d in s.deaths.iter().flatten() {
            assert!(*d < 7);
        }
        for f in s.degraded.iter().flatten() {
            assert!((0.5..1.0).contains(f), "factor {f} out of range");
        }
    }

    #[test]
    fn failed_attempts_bounded() {
        let fm = FaultModel {
            charge_fail_prob: 1.0,
            max_retries: 3,
            ..FaultModel::none()
        };
        let s = fm.schedule(0, 10, 5);
        for &k in &s.failed_attempts {
            assert_eq!(k, 4, "always-failing stop must exhaust all attempts");
        }
    }

    #[test]
    fn validation_rejects_bad_fields() {
        let mut fm = FaultModel::none();
        fm.death_prob = 1.5;
        assert!(matches!(
            fm.validate(),
            Err(FaultModelError::BadProbability {
                field: "death_prob",
                ..
            })
        ));
        let mut fm = FaultModel::none();
        fm.degrade_floor = 0.0;
        assert!(fm.validate().is_err());
        let mut fm = FaultModel::none();
        fm.backoff_s = Seconds(f64::NAN);
        assert!(fm.validate().is_err());
        assert!(FaultModel::with_rate(0, 0.7).validate().is_ok());
        let err = FaultModelError::BadProbability {
            field: "x",
            value: 2.0,
        };
        assert!(!err.to_string().is_empty());
    }
}
