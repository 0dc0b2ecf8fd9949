//! How the executor repairs the stops a dead sensor leaves behind.
//!
//! The goldens pin FNV-1a of each `ExecutionReport`'s Debug text and of
//! its `JsonlRecorder` event stream, for every recovery policy, on BC
//! plans whose rounds start with sensors already dead: every member of
//! the plan's largest stop plus every 7th sensor. Those deaths go through
//! the policy before departure, and the round's own faults follow, so
//! any change to how a stop loses a member, how its anchor and dwell are
//! repaired, or which stops survive shows up as a changed hash.
//!
//! The oracle test holds one pre-departure death under
//! `ReplanRemaining` to the plan that `PlanContext::remove_sensor`
//! returns for the same sensor: the realized tour must park at its
//! anchors, drive its legs and dwell its dwells, bit for bit.

use std::sync::Arc;

use bundle_charging::core::context::PlanContext;
use bundle_charging::core::faults::FaultModel;
use bundle_charging::core::planner::{self, Algorithm};
use bundle_charging::core::{
    ChargingPlan, ExecutionReport, Executor, PlannerConfig, RecoveryPolicy,
};
use bundle_charging::geom::Aabb;
use bundle_charging::obs::recorders::JsonlRecorder;
use bundle_charging::obs::Recorder;
use bundle_charging::wsn::{deploy, Network};

const FIELD_SIDE_M: f64 = 300.0;
const SEEDS: std::ops::Range<u64> = 0..6;
const SIZES: [usize; 2] = [100, 400];
const RADII_M: [f64; 2] = [10.0, 25.0];
const FAULT_RATE: f64 = 0.3;
const ROUND: u64 = 3;

/// `seed n r | skip | replan | return-to-base`, each policy as the FNV-1a
/// of the report's Debug text, then of its JSONL stream.
const GOLDEN: [&str; 24] = [
    "0 100 10 | 780e4b44fca77492 51968aa6d6bcb6f0 | 11654c52c95c32b1 ec6baa29678eddb8 | 6784cf054e6ac18f 4ac53d9f35d2d176",
    "0 100 25 | 7ab9d5778ea21d2f 6139b3aabe88ffca | c4b104eaee453290 d71278544139e577 | ce42c4ec8fc18167 5463ba1cab7ed107",
    "0 400 10 | 402635d42014408f 5733c2fbbf1694f3 | ea34efaee7249a24 b0dc3aef75ddfd74 | 5508f470641f72d2 c898fccfb3d460ba",
    "0 400 25 | 2db0d29fb7e16a06 da50ba551f69c16e | 215d1db094d193e0 cf626b5f5724147c | bb773a20dcbb0a5a 014b045ccb8354ff",
    "1 100 10 | 8f83f3c3e38eb724 8c50fec0607ada5f | 3d2df9728a8c3ae3 f76102b6764fbc13 | 2684c3a407a4ee5b fd3947d6ff239710",
    "1 100 25 | bebf71657fc307c9 8c3721591edc45fd | c7294682e1ea6763 0ca72f5dc7cefa9c | 37fb656856f6180e d978024046d4ecff",
    "1 400 10 | 80206f227af87543 6965406e2f4eb86f | e9ad25fb77891cc0 90aa2c428ec5820d | 5e86fd6613643a9a 2ad4252b25c7dbc3",
    "1 400 25 | 1187581a82b5468e 074992bac1a381b9 | bfad66b4e4047d9a 8a50e2b1d0c5338d | 376ab9141f550601 4682fcaee194663a",
    "2 100 10 | d5a9d274e0dd7322 4c0489d77a30207a | c9738fcaf7527989 86a9ce0e4cc4ec6b | c67619ac7f36ae1c 6201735c07851c8f",
    "2 100 25 | d9a7e4c42acc8e45 40260dbef31159ed | f1cf52bb4943451f 556219bc305c2bd1 | 76605922fbb265aa 1497a06fb7404411",
    "2 400 10 | 5ddb1a7f71d29ebd e662b6c54fbc4770 | ae7832dd09fc5441 cc5bfa5c668a2782 | ac7282d5d0c2ee62 0228290b56cbed3a",
    "2 400 25 | ed9573125c0c9ec3 f1381b24fc2d8240 | c86d9e85403b7343 72b4370956efe0fe | 1e2250224fdb149c 8f8ae2f18aed37f2",
    "3 100 10 | 0837d1eee847945a f2506cac9bc40206 | b51d0943ad773b91 431ef71888a12acf | 2d55583cb060e10b fbd06a44a3a7be80",
    "3 100 25 | a02fe33727247d3c 55ae066bd8a158b3 | 35bf344ae40aac5b f9abbab1d5d61194 | 33c52540817e24c2 0bf5b26925dfcf33",
    "3 400 10 | 924b87f87df36eb6 e367dc28c88943b1 | 1ea604fb0bc72df3 34222461bff39ac1 | 93614b52f2b3b710 40eba7dbfa79defb",
    "3 400 25 | a0ad9c692d4c907c 7207a5fb9e73625a | 219510d17279414a 79e9576bc6ba9f60 | c82b28721c78a66e c379887a863bc1ab",
    "4 100 10 | 6badcf8d740870d8 7d92b66a3219da77 | ff655b98881f9263 d0e95e94f3423135 | ab65f9dd8283ce13 bd80df510c35aa08",
    "4 100 25 | e7e0be9f19f72e02 d038be44142aaa10 | e43d9fe5550522a1 00668dc0e1298655 | 9bc2a0d178024eb2 2df291d6028560b7",
    "4 400 10 | 3b03ef637425b4d6 c5edc99a689589fb | 22d18c9a68e58260 a87e28e2f9c80317 | 9900609e7dde0043 751910a1d6984fdc",
    "4 400 25 | 1f1f6bda70437f42 5ac873b0c6184124 | 67ad3bc044f1ca55 ba8e4fc863d92569 | 683afeedc44192d8 3dd32abc97dda9df",
    "5 100 10 | 97bfcfb2367d35e8 9b3e628db1e75cef | c26280744d91fba6 454b1a6585b9d743 | 94f6476cf3b7a3e5 e82eedb41d67c273",
    "5 100 25 | 90d7b3c8ec7454c8 6e59f7a34031a41e | 446cd1029a3cf06f 0d4455ef86a9f8eb | d9522b36a8d9d581 8ef31d48f30cdecb",
    "5 400 10 | 0d592fd6ea2cf8b7 da8df1038f723db0 | d0d7b0f003b49b74 45db9cff8c55068d | 8ef481733149d6b6 ee8958df9ff60b92",
    "5 400 25 | 59c6c79427d48d2c 30e49e6e992c5990 | 4cb31b710833660d 43d8fac6c4c6a5b7 | a30e8bdebb91255e c654117f4d259c10",
];

/// 64-bit FNV-1a over a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Every member of the plan's largest stop (the first, on a tie) and
/// every 7th sensor, in that order.
fn pre_dead(plan: &ChargingPlan, n: usize) -> Vec<usize> {
    let mut largest: &[usize] = &[];
    for stop in &plan.stops {
        if stop.bundle.sensors.len() > largest.len() {
            largest = &stop.bundle.sensors;
        }
    }
    let mut dead = largest.to_vec();
    dead.extend((0..n).step_by(7));
    dead
}

/// Executes one round under a thread-local JSONL recorder and returns
/// the report with the raw event stream.
fn traced_execute(
    net: &Network,
    cfg: &PlannerConfig,
    plan: &ChargingPlan,
    policy: RecoveryPolicy,
    faults: &FaultModel,
    dead: &[usize],
) -> (ExecutionReport, Vec<u8>) {
    let jsonl = Arc::new(JsonlRecorder::new(Vec::new()));
    let report = bundle_charging::obs::with_local(Arc::clone(&jsonl) as Arc<dyn Recorder>, || {
        Executor::new(net, cfg)
            .with_policy(policy)
            .execute_with_dead(plan, faults, ROUND, dead)
            .unwrap_or_else(|e| panic!("{policy}: {e}"))
    });
    let Ok(jsonl) = Arc::try_unwrap(jsonl) else {
        panic!("JSONL recorder still shared after with_local returned")
    };
    (report, jsonl.into_inner())
}

/// One line of [`GOLDEN`].
fn case(seed: u64, n: usize, r: f64) -> String {
    let net = deploy::uniform(n, Aabb::square(FIELD_SIDE_M), 2.0, seed);
    let cfg = PlannerConfig::paper_sim(r);
    let plan = planner::try_run(Algorithm::Bc, &net, &cfg).unwrap_or_else(|e| panic!("BC: {e}"));
    let dead = pre_dead(&plan, n);
    let faults = FaultModel::with_rate(seed, FAULT_RATE);
    let policies: Vec<String> = RecoveryPolicy::ALL
        .iter()
        .map(|&policy| {
            let (report, stream) = traced_execute(&net, &cfg, &plan, policy, &faults, &dead);
            assert!(!stream.is_empty(), "{policy}: the round must emit events");
            format!(
                "{:016x} {:016x}",
                fnv1a(format!("{report:?}").as_bytes()),
                fnv1a(&stream)
            )
        })
        .collect();
    format!("{seed} {n} {r} | {}", policies.join(" | "))
}

/// Every policy's report and event stream match the pinned hashes on all
/// 24 cases.
#[test]
fn repaired_rounds_match_pinned_hashes() {
    let mut got = Vec::new();
    for seed in SEEDS {
        for n in SIZES {
            for r in RADII_M {
                got.push(case(seed, n, r));
            }
        }
    }
    assert_eq!(got.len(), GOLDEN.len());
    for (g, want) in got.iter().zip(GOLDEN) {
        assert_eq!(g, want);
    }
}

/// The oracle's plan index of original sensor `s` once `victim` is gone.
fn shifted(s: usize, victim: usize) -> usize {
    if s > victim {
        s - 1
    } else {
        s
    }
}

/// Kills `victim` before departure under `ReplanRemaining` with no other
/// fault and requires the realized tour to be the plan that
/// `PlanContext::remove_sensor` returns, bit for bit.
fn assert_realizes_context_repair(
    net: &Network,
    cfg: &PlannerConfig,
    plan: &ChargingPlan,
    victim: usize,
) {
    let what = format!("n {} r {} victim {victim}", net.len(), cfg.bundle_radius.0);
    let mut ctx = PlanContext::new(net.clone(), cfg.clone());
    let repaired = ctx
        .remove_sensor(plan, victim)
        .unwrap_or_else(|e| panic!("{what}: context repair: {e}"));
    let report = Executor::new(net, cfg)
        .with_policy(RecoveryPolicy::ReplanRemaining)
        .execute_with_dead(plan, &FaultModel::none(), 0, &[victim])
        .unwrap_or_else(|e| panic!("{what}: execution: {e}"));

    assert_eq!(report.replans, 1, "{what}");
    assert!(report.fault_deaths.is_empty(), "{what}");
    assert_eq!(
        report.timeline.len(),
        repaired.stops.len(),
        "{what}: realized stops"
    );
    let mut prev = None;
    for (k, (e, stop)) in report.timeline.iter().zip(&repaired.stops).enumerate() {
        let anchor = stop.anchor();
        assert_eq!(
            e.anchor.x.to_bits(),
            anchor.x.to_bits(),
            "{what}: stop {k} anchor x"
        );
        assert_eq!(
            e.anchor.y.to_bits(),
            anchor.y.to_bits(),
            "{what}: stop {k} anchor y"
        );
        assert_eq!(
            e.dwell_s.0.to_bits(),
            stop.dwell.0.to_bits(),
            "{what}: stop {k} dwell"
        );
        let leg = prev.map_or(0.0, |p: bundle_charging::geom::Point| p.distance(anchor));
        assert_eq!(e.drive_m.0.to_bits(), leg.to_bits(), "{what}: stop {k} leg");
        prev = Some(anchor);
        let served: Vec<usize> = e.served.iter().map(|&s| shifted(s, victim)).collect();
        assert_eq!(served, stop.bundle.sensors, "{what}: stop {k} served");
        assert!(
            !e.served.contains(&victim),
            "{what}: stop {k} served the victim"
        );
        // The realized stop stands for the plan stop it is tagged with.
        let Some(tag) = e.plan_stop else {
            panic!("{what}: stop {k} is a base visit")
        };
        let survivors: Vec<usize> = plan.stops[tag]
            .bundle
            .sensors
            .iter()
            .copied()
            .filter(|&s| s != victim)
            .collect();
        assert_eq!(e.served, survivors, "{what}: stop {k} tag {tag}");
    }
    let victim_was_alone = plan.stops.iter().any(|s| s.bundle.sensors == [victim]);
    assert_eq!(
        report.stops_abandoned,
        usize::from(victim_was_alone),
        "{what}: abandoned stops"
    );
}

/// Random networks, radii and victims, each plan probed at its first
/// singleton stop, its largest stop and one more sensor.
#[test]
fn one_death_realizes_the_context_repair() {
    let mut singletons = 0;
    for case in 0..24usize {
        let n = 12 + case * 37 % 150;
        let r = [6.0, 10.0, 18.0, 30.0][case % 4];
        let net = deploy::uniform(n, Aabb::square(FIELD_SIDE_M), 2.0, 700 + case as u64);
        let cfg = PlannerConfig::paper_sim(r);
        let plan =
            planner::try_run(Algorithm::Bc, &net, &cfg).unwrap_or_else(|e| panic!("BC: {e}"));
        let mut victims = Vec::new();
        if let Some(stop) = plan.stops.iter().find(|s| s.bundle.sensors.len() == 1) {
            victims.push(stop.bundle.sensors[0]);
            singletons += 1;
        }
        if let Some(stop) = plan.stops.iter().max_by_key(|s| s.bundle.sensors.len()) {
            victims.push(stop.bundle.sensors[stop.bundle.sensors.len() / 2]);
        }
        victims.push(case * 7919 % n);
        for victim in victims {
            assert_realizes_context_repair(&net, &cfg, &plan, victim);
        }
    }
    assert!(singletons > 0);
}
