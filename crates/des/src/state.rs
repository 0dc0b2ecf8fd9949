//! Structure-of-arrays sensor/battery state.
//!
//! The PR 4 engine kept one `SensorState` struct per sensor — fine for
//! paper-scale networks, but campaign runs sweep 10⁴–10⁵ sensors across
//! thousands of seeds, where the array-of-structs layout wastes memory
//! (booleans pad to bytes, `Option<Time>` doubles to 16 B) and scatters
//! the hot battery lanes across cache lines. [`SensorBank`] stores each
//! field as its own lane instead:
//!
//! * `level`, `updated`, `gen` — the lazy-trajectory hot path, touched
//!   on every settle/recharge, contiguous per lane;
//! * `low` / `hw_dead` / `ever_dead` — one bit each in packed words;
//! * `dead_since` / `first_death` — `Time` lanes with a NaN sentinel
//!   for "never died", halving the `Option<Time>` footprint (NaN can't
//!   collide with a real instant: scenario validation rejects
//!   non-finite horizons, so every recorded death time is finite).
//!
//! The per-sensor cost is fixed, reported by
//! [`SensorBank::bytes_per_sensor`] and pinned by its unit test
//! (~36.4 B/sensor vs ~72 B for the old struct layout).
//!
//! Generation counters are `u32` here (4 B/sensor instead of 8); the
//! event payloads keep `u64`, and the engine widens with `u64::from` at
//! the boundary. A sensor cannot be recharged 2³² times within any
//! representable horizon, and the debug assertion in [`SensorBank::bump_gen`]
//! guards the wrap regardless.

use crate::clock::{seconds, Time};
use bc_units::{Joules, Watts};

/// One bit per sensor, packed 64 to a word.
#[derive(Debug, Clone, Default)]
struct BitLane {
    words: Vec<u64>,
}

impl BitLane {
    fn new(n: usize) -> Self {
        BitLane { words: vec![0; n.div_ceil(64)] }
    }

    fn get(&self, i: usize) -> bool {
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    fn set(&mut self, i: usize, v: bool) {
        let bit = 1u64 << (i % 64);
        if v {
            self.words[i / 64] |= bit;
        } else {
            self.words[i / 64] &= !bit;
        }
    }

    fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum() // cast-ok: popcount fits usize
    }
}

/// NaN sentinel for "no recorded instant" in the death-time lanes.
fn no_instant() -> Time {
    Time::at(seconds(f64::NAN))
}

/// Structure-of-arrays state for every sensor battery in a run.
///
/// Indices are *original* sensor indices (stable across network
/// revisions), matching the engine's addressing.
#[derive(Debug, Clone)]
pub struct SensorBank {
    level: Vec<Joules>,
    updated: Vec<Time>,
    gen: Vec<u32>,
    low: BitLane,
    hw_dead: BitLane,
    ever_dead: BitLane,
    /// Instant the current death started (NaN sentinel = alive).
    dead_since: Vec<Time>,
    /// Instant of first death ever (NaN sentinel = never died).
    first_death: Vec<Time>,
}

impl SensorBank {
    /// `n` sensors, all at `capacity`, trajectories anchored at t = 0.
    #[must_use]
    pub fn new(n: usize, capacity: Joules) -> Self {
        SensorBank {
            level: vec![capacity; n],
            updated: vec![Time::ZERO; n],
            gen: vec![0; n],
            low: BitLane::new(n),
            hw_dead: BitLane::new(n),
            ever_dead: BitLane::new(n),
            dead_since: vec![no_instant(); n],
            first_death: vec![no_instant(); n],
        }
    }

    /// Number of sensors in the bank.
    #[must_use]
    pub fn len(&self) -> usize {
        self.level.len()
    }

    /// True when the bank holds no sensors.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.level.is_empty()
    }

    /// Fixed per-sensor memory cost of the lanes, in bytes. The three
    /// flag lanes cost one bit each.
    #[must_use]
    pub fn bytes_per_sensor() -> f64 {
        use std::mem::size_of;
        let fixed = size_of::<Joules>()      // level
            + size_of::<Time>()              // updated
            + size_of::<u32>()               // gen
            + 2 * size_of::<Time>(); // dead_since + first_death
        fixed as f64 + 3.0 / 8.0 // cast-ok: small constant byte count
    }

    /// Last-settled battery level of sensor `i`.
    #[must_use]
    pub fn level(&self, i: usize) -> Joules {
        self.level[i]
    }

    /// Overwrites sensor `i`'s settled level.
    pub fn set_level(&mut self, i: usize, level: Joules) {
        self.level[i] = level;
    }

    /// Projects sensor `i`'s lazy trajectory to instant `t` under
    /// constant `drain`, clamped at empty.
    #[must_use]
    pub fn level_at(&self, i: usize, t: Time, drain: Watts) -> Joules {
        (self.level[i] - drain * t.since(self.updated[i])).max(Joules(0.0))
    }

    /// Settles sensor `i`'s trajectory at `now` and returns the settled
    /// level.
    pub fn settle(&mut self, i: usize, now: Time, drain: Watts) -> Joules {
        let level = self.level_at(i, now, drain);
        self.level[i] = level;
        self.updated[i] = now;
        level
    }

    /// Re-anchors sensor `i`'s trajectory at `now`.
    pub fn set_updated(&mut self, i: usize, now: Time) {
        self.updated[i] = now;
    }

    /// Sensor `i`'s trajectory generation.
    #[must_use]
    pub fn gen(&self, i: usize) -> u32 {
        self.gen[i]
    }

    /// Bumps sensor `i`'s generation (invalidating queued crossings
    /// computed from the stale trajectory) and returns the new value.
    pub fn bump_gen(&mut self, i: usize) -> u32 {
        debug_assert!(self.gen[i] < u32::MAX, "generation counter wrapped");
        self.gen[i] = self.gen[i].wrapping_add(1);
        self.gen[i]
    }

    /// True when sensor `i` is at or below the low-battery trigger.
    #[must_use]
    pub fn low(&self, i: usize) -> bool {
        self.low.get(i)
    }

    /// Sets sensor `i`'s low-battery flag.
    pub fn set_low(&mut self, i: usize, v: bool) {
        self.low.set(i, v);
    }

    /// True when sensor `i` was lost to a hardware fault.
    #[must_use]
    pub fn hw_dead(&self, i: usize) -> bool {
        self.hw_dead.get(i)
    }

    /// Marks sensor `i` permanently lost to a hardware fault.
    pub fn set_hw_dead(&mut self, i: usize) {
        self.hw_dead.set(i, true);
    }

    /// True when sensor `i` has ever been dead (battery or hardware).
    #[must_use]
    pub fn ever_dead(&self, i: usize) -> bool {
        self.ever_dead.get(i)
    }

    /// How many sensors have ever been dead.
    #[must_use]
    pub fn ever_dead_count(&self) -> usize {
        self.ever_dead.count()
    }

    /// Records a death of sensor `i` at `now`: sets `ever_dead`, and
    /// starts `dead_since` / `first_death` if not already running. An
    /// earlier `dead_since` is kept — downtime has been accruing since
    /// then.
    pub fn mark_dead_at(&mut self, i: usize, now: Time) {
        self.ever_dead.set(i, true);
        if !self.dead_since[i].is_finite() {
            self.dead_since[i] = now;
        }
        if !self.first_death[i].is_finite() {
            self.first_death[i] = now;
        }
    }

    /// Takes the instant sensor `i`'s current death started, clearing
    /// it (the sensor is being revived or the run is settling up).
    pub fn take_dead_since(&mut self, i: usize) -> Option<Time> {
        let t = self.dead_since[i];
        if t.is_finite() {
            self.dead_since[i] = no_instant();
            Some(t)
        } else {
            None
        }
    }

    /// Instant of sensor `i`'s first death, if it ever died.
    #[must_use]
    pub fn first_death(&self, i: usize) -> Option<Time> {
        let t = self.first_death[i];
        t.is_finite().then_some(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::seconds;

    #[test]
    fn lanes_round_trip() {
        let mut bank = SensorBank::new(100, Joules(2.0));
        assert_eq!(bank.len(), 100);
        assert!(!bank.is_empty());
        assert_eq!(bank.level(99), Joules(2.0));
        assert_eq!(bank.gen(0), 0);
        assert!(!bank.low(63) && !bank.low(64));
        bank.set_low(63, true);
        bank.set_low(64, true);
        assert!(bank.low(63) && bank.low(64) && !bank.low(62) && !bank.low(65));
        bank.set_low(63, false);
        assert!(!bank.low(63) && bank.low(64));
        assert_eq!(bank.bump_gen(7), 1);
        assert_eq!(bank.gen(7), 1);
        assert_eq!(bank.gen(8), 0);
    }

    #[test]
    fn trajectory_settles_and_clamps() {
        let mut bank = SensorBank::new(2, Joules(10.0));
        let drain = Watts(1.0);
        let t5 = Time::at(seconds(5.0));
        assert_eq!(bank.level_at(0, t5, drain), Joules(5.0));
        assert_eq!(bank.settle(0, t5, drain), Joules(5.0));
        assert_eq!(bank.level(0), Joules(5.0));
        // Clamp at empty past the depletion instant.
        let t99 = Time::at(seconds(99.0));
        assert_eq!(bank.level_at(0, t99, drain), Joules(0.0));
        // Sensor 1 was never settled; its anchor is still t=0.
        assert_eq!(bank.level_at(1, t5, drain), Joules(5.0));
    }

    #[test]
    fn death_bookkeeping_keeps_first_instants() {
        let mut bank = SensorBank::new(1, Joules(1.0));
        assert_eq!(bank.take_dead_since(0), None);
        assert_eq!(bank.first_death(0), None);
        assert!(!bank.ever_dead(0));
        let t3 = Time::at(seconds(3.0));
        let t9 = Time::at(seconds(9.0));
        bank.mark_dead_at(0, t3);
        bank.mark_dead_at(0, t9);
        assert!(bank.ever_dead(0));
        assert_eq!(bank.ever_dead_count(), 1);
        assert_eq!(bank.take_dead_since(0), Some(t3), "earlier death start is kept");
        assert_eq!(bank.take_dead_since(0), None, "take clears the running death");
        // A later death restarts dead_since but first_death is forever.
        bank.mark_dead_at(0, t9);
        assert_eq!(bank.take_dead_since(0), Some(t9));
        assert_eq!(bank.first_death(0), Some(t3));
    }

    #[test]
    fn per_sensor_footprint_is_lean() {
        // 8 (level) + 8 (updated) + 4 (gen) + 16 (death instants) + 3 bits.
        let b = SensorBank::bytes_per_sensor();
        assert!((b - 36.375).abs() < 1e-9, "bytes/sensor {b}");
    }
}
