//! DES ↔ reference-integrator equivalence.
//!
//! [`simulate_reference`] is the fixed-interval integrator that the
//! `bc-des` event engine replaced, kept here as the engine's oracle. For
//! single-charger, fault-free scenarios the two must agree: same round
//! count, same death set, sensor death times within one legacy timestep,
//! and charger energy within 1%. Under injected faults the engine must
//! reproduce the oracle's executor replay.

use bundle_charging::core::planner::{try_run, Algorithm};
use bundle_charging::core::{Executor, FaultModel, RecoveryPolicy};
use bundle_charging::des::{run, Scenario};
use bundle_charging::geom::Aabb;
use bundle_charging::units::{Joules, Meters, Seconds};
use bundle_charging::wsn::{deploy, Network, Sensor};

/// One legacy timestep: the reference integrator advances round by round,
/// but resolves battery crossings analytically, so agreement should be
/// far tighter than this. 1 s is the paper-scale replay granularity.
const DEATH_TOL_S: f64 = 1.0;

/// What [`simulate_reference`] reports: the lifetime metrics of a run.
#[derive(Debug)]
struct ReferenceReport {
    /// Charging rounds dispatched within the horizon.
    rounds: usize,
    /// Total charger energy across all rounds.
    charger_energy_j: Joules,
    /// Sensor-seconds spent dead (battery at zero).
    downtime_sensor_s: Seconds,
    /// Fraction of sensor-time alive, in `[0, 1]`.
    availability: f64,
    /// Number of sensors that ever died.
    sensors_ever_dead: usize,
    /// Lowest battery level observed anywhere.
    min_battery_j: Joules,
    /// Sensors permanently lost to injected hardware faults.
    fault_deaths: usize,
    /// Sum over rounds of live sensors the round failed to charge.
    stranded_sensor_rounds: usize,
    /// Total time spent recovering from faults across all rounds.
    recovery_latency_s: Seconds,
    /// Total energy spent above the fault-free cost of each round.
    extra_energy_j: Joules,
    /// Recovery visits to the base station across all rounds.
    base_returns: usize,
    /// Highest battery level observed anywhere. Recharges are clamped at
    /// capacity, so this never exceeds `battery_j`.
    max_battery_j: Joules,
    /// Per-sensor instant of first death (battery or hardware), if any.
    first_death_s: Vec<Option<Seconds>>,
}

/// The fixed-interval integrator the DES engine replaced, kept as its
/// oracle.
///
/// The tour is planned once (the deployment is static) with each
/// sensor's demand equal to the full battery capacity, and replayed
/// every round; during a round, every sensor keeps draining while
/// members of the current stop harvest at their modelled rate, capped at
/// capacity.
///
/// # Panics
///
/// Panics if the scenario is degenerate (non-positive horizon, speed, or
/// battery), if planning fails, or if fault-injected execution fails.
fn simulate_reference(sc: &Scenario) -> ReferenceReport {
    let net = &sc.net;
    // The replay loops below are dense scalar arithmetic; work in raw f64
    // locals and re-wrap into quantities at the report boundary.
    let horizon = sc.horizon_s.0;
    let drain = sc.drain_w.0;
    let capacity = sc.battery_j.0;
    let trigger_level = sc.trigger_level_j.0;
    let speed = sc.speed_mps.0;
    assert!(horizon > 0.0, "horizon must be positive");
    assert!(speed > 0.0, "speed must be positive");
    assert!(capacity > 0.0, "battery must be positive");
    let n = net.len();
    if n == 0 {
        return ReferenceReport {
            rounds: 0,
            charger_energy_j: Joules(0.0),
            downtime_sensor_s: Seconds(0.0),
            availability: 1.0,
            sensors_ever_dead: 0,
            min_battery_j: Joules(0.0),
            fault_deaths: 0,
            stranded_sensor_rounds: 0,
            recovery_latency_s: Seconds(0.0),
            extra_energy_j: Joules(0.0),
            base_returns: 0,
            max_battery_j: Joules(0.0),
            first_death_s: Vec::new(),
        };
    }

    // Plan once with demand = full battery (worst-case top-up).
    let mut demand_net = net.clone();
    let plan = {
        let sensors: Vec<_> = demand_net
            .sensors()
            .iter()
            .map(|s| Sensor::new(s.id, s.pos, capacity))
            .collect();
        demand_net = Network::new(sensors, net.field(), net.base());
        try_run(sc.algorithm, &demand_net, &sc.planner)
            .unwrap_or_else(|e| panic!("lifetime planning failed: {e}"))
    };

    let mut battery = vec![capacity; n];
    let mut ever_dead = vec![false; n];
    let mut first_death: Vec<Option<f64>> = vec![None; n];
    let mut downtime = 0.0;
    let mut min_battery = capacity;
    let mut max_battery = capacity;
    let mut charger_energy = 0.0;
    let mut rounds = 0usize;
    let mut now = 0.0f64;

    // Fault execution state: permanent hardware deaths plus accumulated
    // recovery metrics.
    let executor = Executor::new(&demand_net, &sc.planner)
        .with_speed(speed)
        .with_policy(sc.recovery);
    let mut hw_dead: Vec<usize> = Vec::new();
    let mut is_hw_dead = vec![false; n];
    let mut stranded_rounds = 0usize;
    let mut recovery_latency = 0.0;
    let mut extra_energy = 0.0;
    let mut base_returns = 0usize;

    // Advance all batteries by dt of pure drain starting at `start`,
    // tracking downtime and first-death instants.
    let drain_all = |battery: &mut [f64],
                         ever_dead: &mut [bool],
                         first_death: &mut [Option<f64>],
                         downtime: &mut f64,
                         min_battery: &mut f64,
                         start: f64,
                         dt: f64| {
        for (i, b) in battery.iter_mut().enumerate() {
            let depleted_after = (*b - drain * dt).max(0.0);
            if *b <= 0.0 {
                *downtime += dt;
            } else if depleted_after <= 0.0 {
                // Died partway through the interval.
                let time_alive = *b / drain;
                *downtime += (dt - time_alive).max(0.0);
                ever_dead[i] = true;
                if first_death[i].is_none() {
                    first_death[i] = Some(start + time_alive);
                }
            }
            *b = depleted_after;
            *min_battery = min_battery.min(*b);
        }
    };

    while now < horizon {
        // Time until `trigger_count` sensors are low: simulate drain until
        // the trigger fires or the horizon ends.
        // Hardware-dead sensors never trigger a round (they cannot be
        // revived); with too few survivors the network just coasts out.
        let mut lows: Vec<f64> = battery
            .iter()
            .zip(&is_hw_dead)
            .map(|(&b, &hw)| {
                if hw {
                    f64::INFINITY
                } else {
                    ((b - trigger_level) / drain).max(0.0)
                }
            })
            .collect();
        lows.sort_by(f64::total_cmp);
        let k = sc.trigger_count.min(n) - 1;
        let wait = lows[k];
        let dt = wait.min(horizon - now);
        drain_all(&mut battery, &mut ever_dead, &mut first_death, &mut downtime, &mut min_battery, now, dt);
        now += dt;
        if now >= horizon {
            break;
        }

        // Dispatch a round: replay the planned tour in real time.
        rounds += 1;
        if let Some(fm) = &sc.faults {
            // Execute the round against this round's fault schedule and
            // replay the realized timeline (stall-stretched legs, retry
            // backoff, degradation-stretched dwells) against the drain.
            let round_seed = u64::try_from(rounds - 1).unwrap_or(u64::MAX);
            let report = executor
                .execute_with_dead(&plan, fm, round_seed, &hw_dead)
                .unwrap_or_else(|e| panic!("fault execution failed: {e}"));
            let mut replayed_m = 0.0;
            let mut replayed_s = 0.0;
            for e in &report.timeline {
                if now >= horizon {
                    break;
                }
                let drive_t = e.drive_s.0.min(horizon - now);
                drain_all(&mut battery, &mut ever_dead, &mut first_death, &mut downtime, &mut min_battery, now, drive_t);
                now += drive_t;
                let frac = if e.drive_s.0 > 0.0 { drive_t / e.drive_s.0 } else { 1.0 };
                charger_energy += sc.planner.energy.movement_energy(e.drive_m * frac).0;
                if now >= horizon {
                    break;
                }
                let wait_t = e.backoff_s.0.min(horizon - now);
                drain_all(&mut battery, &mut ever_dead, &mut first_death, &mut downtime, &mut min_battery, now, wait_t);
                now += wait_t;
                if now >= horizon {
                    break;
                }
                let dwell = e.dwell_s.0.min(horizon - now);
                drain_all(&mut battery, &mut ever_dead, &mut first_death, &mut downtime, &mut min_battery, now, dwell);
                if dwell >= e.dwell_s.0 {
                    // Full dwell: every served member got its demand.
                    for &s in &e.served {
                        battery[s] = capacity;
                        max_battery = max_battery.max(battery[s]);
                    }
                } else {
                    // Horizon cut the dwell short: proportional harvest,
                    // clamped at capacity.
                    for &s in &e.served {
                        let d = net.sensor(s).pos.distance(e.anchor);
                        let harvested = sc
                            .planner
                            .charging
                            .delivered_energy(Meters(d), Seconds(dwell))
                            .0
                            * e.efficiency;
                        battery[s] = (battery[s] + harvested).min(capacity);
                        max_battery = max_battery.max(battery[s]);
                    }
                }
                now += dwell;
                charger_energy += sc.planner.energy.charging_energy(Seconds(dwell)).0;
                replayed_m += e.drive_m.0;
                replayed_s += (e.drive_s + e.backoff_s + e.dwell_s).0;
            }
            // The closing leg is in the report totals but not the
            // timeline; replay whatever of it fits the horizon.
            let close_s_full = (report.duration_s.0 - replayed_s).max(0.0);
            let close_s = close_s_full.min((horizon - now).max(0.0));
            if close_s > 0.0 {
                drain_all(&mut battery, &mut ever_dead, &mut first_death, &mut downtime, &mut min_battery, now, close_s);
                now += close_s;
                let frac = if close_s_full > 0.0 { close_s / close_s_full } else { 1.0 };
                charger_energy += sc
                    .planner
                    .energy
                    .movement_energy(Meters((report.distance_m.0 - replayed_m).max(0.0) * frac))
                    .0;
            }
            // Hardware deaths are permanent: the sensor goes dark now
            // and stays dark.
            for &s in &report.fault_deaths {
                if !is_hw_dead[s] {
                    is_hw_dead[s] = true;
                    hw_dead.push(s);
                    battery[s] = 0.0;
                    ever_dead[s] = true;
                    min_battery = 0.0;
                    if first_death[s].is_none() {
                        first_death[s] = Some(now);
                    }
                }
            }
            stranded_rounds += report.stranded.len();
            recovery_latency += report.recovery_latency_s.0;
            extra_energy += report.extra_energy_j.0;
            base_returns += report.base_returns;
            continue;
        }
        let stops = &plan.stops;
        let m = stops.len();
        for (i, stop) in stops.iter().enumerate() {
            if now >= horizon {
                break;
            }
            // Drive from the previous stop.
            let prev = stops[(i + m - 1) % m].anchor();
            let leg = prev.distance(stop.anchor());
            let drive_t = (leg / speed).min(horizon - now);
            drain_all(&mut battery, &mut ever_dead, &mut first_death, &mut downtime, &mut min_battery, now, drive_t);
            now += drive_t;
            charger_energy += sc.planner.energy.movement_energy(Meters(drive_t * speed)).0;
            if now >= horizon {
                break;
            }
            // Park and charge: members harvest while everyone drains.
            let dwell = stop.dwell.0.min(horizon - now);
            drain_all(&mut battery, &mut ever_dead, &mut first_death, &mut downtime, &mut min_battery, now, dwell);
            for &j in &stop.bundle.sensors {
                let d = net.sensor(j).pos.distance(stop.anchor());
                let harvested = sc
                    .planner
                    .charging
                    .delivered_energy(Meters(d), Seconds(dwell))
                    .0;
                battery[j] = (battery[j] + harvested).min(capacity);
                max_battery = max_battery.max(battery[j]);
            }
            now += dwell;
            charger_energy += sc.planner.energy.charging_energy(Seconds(dwell)).0;
        }
    }

    let total_sensor_time = n as f64 * horizon; // cast-ok: sensor count to sensor-time
    ReferenceReport {
        rounds,
        charger_energy_j: Joules(charger_energy),
        downtime_sensor_s: Seconds(downtime),
        availability: 1.0 - downtime / total_sensor_time,
        sensors_ever_dead: ever_dead.iter().filter(|&&d| d).count(),
        min_battery_j: Joules(min_battery),
        fault_deaths: hw_dead.len(),
        stranded_sensor_rounds: stranded_rounds,
        recovery_latency_s: Seconds(recovery_latency),
        extra_energy_j: Joules(extra_energy),
        base_returns,
        max_battery_j: Joules(max_battery),
        first_death_s: first_death.iter().map(|t| t.map(Seconds)).collect(),
    }
}

#[test]
fn des_matches_reference_on_ten_seeds() {
    for seed in 0..10u64 {
        let n = 12 + usize::try_from(seed % 3).unwrap() * 6; // 12, 18, 24 sensors
        let net = deploy::uniform(n, Aabb::square(250.0), 2.0, seed);
        let mut sc = Scenario::paper_sim(net, 25.0, Algorithm::Bc);
        sc.horizon_s = Seconds(6.0 * 3600.0);

        let des = run(&sc).unwrap();
        let reference = simulate_reference(&sc);

        assert_eq!(
            des.rounds, reference.rounds,
            "seed {seed}: round counts diverge"
        );
        assert_eq!(
            des.sensors_ever_dead, reference.sensors_ever_dead,
            "seed {seed}: death sets diverge"
        );
        assert_eq!(
            des.base_returns, reference.base_returns,
            "seed {seed}: base returns diverge"
        );

        let e_des = des.charger_energy_j.get();
        let e_ref = reference.charger_energy_j.get();
        let rel = (e_des - e_ref).abs() / e_ref.max(1e-12);
        assert!(
            rel < 0.01,
            "seed {seed}: charger energy diverges: des {e_des} vs ref {e_ref}"
        );

        assert_eq!(des.first_death_s.len(), reference.first_death_s.len());
        for (i, (d, r)) in des
            .first_death_s
            .iter()
            .zip(&reference.first_death_s)
            .enumerate()
        {
            match (d, r) {
                (None, None) => {}
                (Some(td), Some(tr)) => {
                    let dt = (td.get() - tr.get()).abs();
                    assert!(
                        dt <= DEATH_TOL_S,
                        "seed {seed}: sensor {i} death time off by {dt} s \
                         (des {td}, ref {tr})"
                    );
                }
                (d, r) => panic!(
                    "seed {seed}: sensor {i} death mismatch: des {d:?}, ref {r:?}"
                ),
            }
        }

        let da = des.availability;
        let ra = reference.availability;
        assert!(
            (da - ra).abs() < 1e-3,
            "seed {seed}: availability diverges: des {da} vs ref {ra}"
        );
    }
}

/// The downtime and minimum-battery accounting must agree too — these are
/// the quantities the paper's lifetime figures plot.
#[test]
fn des_matches_reference_downtime_accounting() {
    let net = deploy::uniform(20, Aabb::square(300.0), 2.0, 77);
    let mut sc = Scenario::paper_sim(net.clone(), 30.0, Algorithm::BcOpt);
    // Short horizon with an undersized trigger so some sensors actually die.
    sc.horizon_s = Seconds(8.0 * 3600.0);

    let des = run(&sc).unwrap();
    let reference = simulate_reference(&sc);

    let dt = (des.downtime_sensor_s.get() - reference.downtime_sensor_s.get()).abs();
    assert!(
        dt <= DEATH_TOL_S * net.len() as f64,
        "downtime diverges by {dt} s"
    );
    let db = (des.min_battery_j.get() - reference.min_battery_j.get()).abs();
    assert!(db < 1e-6, "min battery diverges by {db} J");
    assert!(
        (des.max_battery_j.get() - reference.max_battery_j.get()).abs() < 1e-6,
        "max battery diverges"
    );
}

/// The quick whole-day check: a 24 h BC run on 30 sensors agrees with the
/// oracle on rounds, deaths and charger energy.
#[test]
fn des_agrees_with_reference_integrator() {
    let net = deploy::uniform(30, Aabb::square(200.0), 2.0, 3);
    let sc = Scenario::paper_sim(net, 30.0, Algorithm::Bc);
    let des = run(&sc).unwrap();
    let reference = simulate_reference(&sc);
    assert_eq!(des.rounds, reference.rounds);
    assert_eq!(des.sensors_ever_dead, reference.sensors_ever_dead);
    let rel = (des.charger_energy_j.get() - reference.charger_energy_j.get()).abs()
        / reference.charger_energy_j.get().max(1.0);
    assert!(
        rel < 1e-6,
        "energy mismatch: des {} vs reference {}",
        des.charger_energy_j,
        reference.charger_energy_j
    );
}

/// Regression: recharged energy must be clamped at capacity, in both the
/// DES engine and the reference integrator.
#[test]
fn recharges_never_overfill_batteries() {
    let net = deploy::uniform(30, Aabb::square(200.0), 2.0, 3);
    let sc = Scenario::paper_sim(net, 30.0, Algorithm::BcOpt);
    let des = run(&sc).unwrap();
    let reference = simulate_reference(&sc);
    for (who, max_battery_j) in [
        ("des", des.max_battery_j),
        ("reference", reference.max_battery_j),
    ] {
        assert!(
            max_battery_j <= sc.battery_j + Joules(1e-9),
            "{who}: battery overfilled: {max_battery_j} > capacity {}",
            sc.battery_j
        );
        assert!(
            max_battery_j > Joules(0.0),
            "{who}: no battery level recorded"
        );
    }
}

/// Single-charger rounds under injected faults: the engine delegates each
/// round to the executor and replays its timeline, so it must reproduce
/// the oracle's fault replay (deaths, stranding, recovery cost, energy)
/// under every recovery policy.
#[test]
fn des_matches_reference_under_faults() {
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(1.0);
    for (seed, rate, policy) in [
        (7u64, 0.4, RecoveryPolicy::SkipAndContinue),
        (3, 0.2, RecoveryPolicy::ReplanRemaining),
        (5, 0.3, RecoveryPolicy::ReturnToBase),
    ] {
        let net = deploy::uniform(30, Aabb::square(200.0), 2.0, seed);
        let mut sc = Scenario::paper_sim(net, 30.0, Algorithm::Bc)
            .with_faults(FaultModel::with_rate(seed, rate), policy);
        sc.horizon_s = Seconds(12.0 * 3600.0);
        let des = run(&sc).unwrap();
        let reference = simulate_reference(&sc);
        assert!(reference.fault_deaths > 0, "{policy}: no fault fired");
        assert_eq!(des.rounds, reference.rounds, "{policy}: rounds");
        assert_eq!(
            des.fault_deaths, reference.fault_deaths,
            "{policy}: fault deaths"
        );
        assert_eq!(
            des.sensors_ever_dead, reference.sensors_ever_dead,
            "{policy}: deaths"
        );
        assert_eq!(
            des.stranded_sensor_rounds, reference.stranded_sensor_rounds,
            "{policy}: stranded sensors"
        );
        assert_eq!(
            des.base_returns, reference.base_returns,
            "{policy}: base returns"
        );
        for (what, d, r) in [
            (
                "charger energy",
                des.charger_energy_j.get(),
                reference.charger_energy_j.get(),
            ),
            (
                "recovery latency",
                des.recovery_latency_s.get(),
                reference.recovery_latency_s.get(),
            ),
            (
                "extra energy",
                des.extra_energy_j.get(),
                reference.extra_energy_j.get(),
            ),
            ("availability", des.availability, reference.availability),
        ] {
            assert!(close(d, r), "{policy}: {what} diverges: des {d} vs ref {r}");
        }
    }
}
