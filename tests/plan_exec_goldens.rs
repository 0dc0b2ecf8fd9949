//! Bit-level goldens for the plans of all four planners (SC's contact
//! dwells, CSS's sensor-level tour, CSS split over a three-charger fleet,
//! BC's bundle tour and BC-OPT's tightened anchors) and for the
//! fault-injected execution of a BC plan under every recovery policy.
//!
//! The hashes cover every bit a plan or report carries, so any change to
//! a dwell, an anchor, a tour order or a recovery decision shows here.

use bundle_charging::core::faults::FaultModel;
use bundle_charging::core::multi::try_plan_fleet;
use bundle_charging::core::planner::{self, Algorithm};
use bundle_charging::core::{ChargingPlan, Executor, PlannerConfig, RecoveryPolicy};
use bundle_charging::geom::Aabb;
use bundle_charging::wsn::deploy;

const FIELD_SIDE_M: f64 = 300.0;
const SIZES: [usize; 2] = [100, 400];
const RADII_M: [f64; 3] = [5.0, 10.0, 25.0];
const SEEDS: std::ops::Range<u64> = 2000..2005;
const FAULT_RATE: f64 = 0.3;
const ROUND: u64 = 2;

/// `seed n r | SC CSS CSS×3 | skip replan return-to-base`, as FNV-1a
/// hashes, for every seed × size × radius.
const GOLDEN: [&str; 30] = [
    "2000 100 5 | 8dc8f8bdd091bf3d 8d84f6f0f6de54a6 5c52a30c947dd78e | c2e1aa3f9e396169 81bb363753951b92 f037c7c0655a8fb6",
    "2000 100 10 | 8dc8f8bdd091bf3d 7cf9a53074b611bf d78d3d7126f7a3a7 | daf004ad3a799809 a903fa391610cfa3 4a3ee7d8af90b45e",
    "2000 100 25 | 8dc8f8bdd091bf3d 6a6766670126408a 42b9668db2e8eecf | 7f1a0cc58d6fbdcd 55198c70d495a0d7 b90e216d98d0f15e",
    "2000 400 5 | a76372a476192121 b44e147281145bbb d16c26b7d13c7cc0 | 8e32e8bcc6305447 39b13906f6e8f0dc eea65f2c552aad4f",
    "2000 400 10 | a76372a476192121 d80aa6b216b34139 1d0883b413a76b5d | 39bcbaf52ac6f095 5146283d2e7f1863 973ff24ff31a5bbe",
    "2000 400 25 | a76372a476192121 d8dabbdebfef90df fad540063add38bd | 7e8b21c9f90d5242 f31a8391b4320654 e196af09b65a5644",
    "2001 100 5 | 74ac699d1467f5db 9da3013bd15f9031 6bb7d912c08a8190 | 7d82fd8312b8d4d7 635cbf00cb876fbe 64350778068bfbcd",
    "2001 100 10 | 74ac699d1467f5db 368f6b87a1a291be 158933fe91793af1 | aa09abdae564ec76 6897b6d8009db7a5 13546cea2149c1f7",
    "2001 100 25 | 74ac699d1467f5db b7ccd299ce9ab184 4e19428375f5b8de | 45963efa033f4165 545c6f0efedcfeee c29e2f6d634f81a5",
    "2001 400 5 | acf96fba11eaa1f9 19a2dd4f8c22a65a 32728a071a0eb11b | bc43b3367ed470bb 6926113d6909d8b0 409a98cbaac39e35",
    "2001 400 10 | acf96fba11eaa1f9 304dd016ca3c9e36 7bc6527cbebe9cf8 | f9d3261d77ed2f62 f4ddc3502b6b215f 1664908b19e86a8a",
    "2001 400 25 | acf96fba11eaa1f9 a7ec432df94271d5 68a28b15982d1c65 | 16a26085b73321b0 1cb9c93e275c0f85 2633b46208a89200",
    "2002 100 5 | 98d917626cebd346 e333d664e7511932 8020a077e0db5930 | 0afa0dbc7e69698f 96e439f3b738867e c61f21daa5da843c",
    "2002 100 10 | 98d917626cebd346 3f4a1587a131cf37 61dd3ccfa8413425 | 0189e8f0d2278063 5fe638973159c4cd 736d2b69bb3102b8",
    "2002 100 25 | 98d917626cebd346 04368041b4ade001 0619e838b413a3b8 | a6b21d6e018c9bc8 b5e2e77d3a39c955 df0e231d98c8daed",
    "2002 400 5 | d699f00e182b8c79 a42ca55535bcadd8 e4da24b1ee65cc64 | 6bdaab626762a178 69a2dab54039d8bb 637ad8c7969de1fb",
    "2002 400 10 | d699f00e182b8c79 fba29cc3282c967e fea17406ea105c4d | 0ef7b7ddb3988be5 fae63763cc24f9f8 b0b1f01b553ca408",
    "2002 400 25 | d699f00e182b8c79 c766486578b69a0a b0ba4fd78ba9feae | d45500925816c666 84f1f0a987cf39a0 1c95b5bd8157854f",
    "2003 100 5 | ae5d65ebe2b90fae b53f9a91852cf001 a749d9bf9d062533 | b6c56c3a0655009d 2130189603f18717 c6f8766b88d6ff7e",
    "2003 100 10 | ae5d65ebe2b90fae 5c3fb4d8da3b890e fc2023ae59c0533e | 6ea1bc41e6f40ac0 9ffae27a255c722f f40ef295fb91d3fd",
    "2003 100 25 | ae5d65ebe2b90fae e6ce66fedc11b6ba 500c1bb8d07378a5 | 6ccb58f14f9e563e 0b97e44b587028f2 20264936411f0da5",
    "2003 400 5 | f4f055910949254c 0ceb597b8fccc6be 1d481c5cbb122414 | 1b9c0b037a96b9d4 c23bd9922b118b26 2d3aac96f11e745b",
    "2003 400 10 | f4f055910949254c 67e72ef60e38a06b 7ad92bb245d191a3 | 37823cee5fce9a02 c0deab54dc1de4b8 871b3c23b0e66c8f",
    "2003 400 25 | f4f055910949254c 34c527eab2e99b13 95354543acbd76b4 | 61b62d53a0c57a9c f4d081ea15a75733 605ad0587d03a809",
    "2004 100 5 | df144a5dc374b50d 670af3e70174104b 4eccfb2fe00da464 | 0d0e476d165b4754 32104e941743407d f431edb8e8aa903d",
    "2004 100 10 | df144a5dc374b50d 47f0505d5f7c81a2 521d281719135d4c | a1f0699da45e2072 dee9fcdcd1f65f1c 36b2319f937ba8f2",
    "2004 100 25 | df144a5dc374b50d 89076dbf63442587 2e82c8766c3f5a09 | 247f4f00aae64692 39f33301473bb04c 5666e1950c78d9cf",
    "2004 400 5 | 39a37c8139e1995b 1f33a3367521a595 4623548802d3f7db | d351e6f52ac0ba81 595f67002afd37c2 32d96784389c0198",
    "2004 400 10 | 39a37c8139e1995b f03aaceadbb514db de646123bbdc3100 | 9cb823e0ff418fc5 927067454d1f7463 6c4f83c8246b5539",
    "2004 400 25 | 39a37c8139e1995b 79cb155d3a744800 3780e22ceac075f2 | 1a7039e62bd6e83a 67a7c10404e4c3a1 23e59b22bd5f92c8",
];

/// `seed n r | BC BC-OPT`, as FNV-1a plan hashes, for every seed × size ×
/// radius.
const GOLDEN_BC: [&str; 30] = [
    "2000 100 5 | b75152f8b1be0a45 e4819d5307ff6e1a",
    "2000 100 10 | 58f5f10576834856 e21c0ab5ae6766b1",
    "2000 100 25 | 56e7187813470c0b cf9656a53380d952",
    "2000 400 5 | dfeda79d2f2cd79e dbbfd3daa529be7c",
    "2000 400 10 | 29dcdf123dba9345 b2311a6fff1900c3",
    "2000 400 25 | e99bb624b3187fb4 a70a16b1aa835116",
    "2001 100 5 | c52944dfba4cd19b 46159159ae39df11",
    "2001 100 10 | 73ee2f1721e7c594 00cdf8cbc556e45b",
    "2001 100 25 | 4a6a86963a4ff0c6 aae2c7e6e54de0cf",
    "2001 400 5 | c76f045891055116 a3814f8372bfda67",
    "2001 400 10 | 9b2243c41d113a05 89a30b1167c5fbfd",
    "2001 400 25 | 1d388775c076e89a 5fc32ae9b392a8b4",
    "2002 100 5 | 2360b84dec359738 436ee16dbcd1dd3a",
    "2002 100 10 | 198fb917757d6db9 6025875a377e3085",
    "2002 100 25 | d3f3657bc829f174 cb445b4b13cd1002",
    "2002 400 5 | 67dc9c3ea7162ba1 922c5a6ffcce1f78",
    "2002 400 10 | 41f60a9a480e7bd1 48565f6b394186ca",
    "2002 400 25 | 59a1af91551f7420 611b5791749258fc",
    "2003 100 5 | b2dfda1035aa16f8 197a211669e8d72b",
    "2003 100 10 | 0614594027cd32b3 d9f70dbc5b7e22b6",
    "2003 100 25 | 2691e43ee6819166 7c098799094a653b",
    "2003 400 5 | b9d96884c5c09f7d b43a37912564cf16",
    "2003 400 10 | 7f3b446136f0e142 ac185f9ac332eb09",
    "2003 400 25 | bca6556e9ea434fd bc86127fdd9216a4",
    "2004 100 5 | 1d841b62a7c2b880 a90d1c8f85c559b3",
    "2004 100 10 | ca0e383b4453abb6 1775dabd9121a14e",
    "2004 100 25 | c04bb29f573256a0 b4b965d7144100c6",
    "2004 400 5 | dd12c098ec671a29 700204fc36c08c7c",
    "2004 400 10 | a74eafbaaaa42990 6fa91ab91648c06a",
    "2004 400 25 | f08b81b0b97f9cfd f9103bba71ffa926",
];

/// 64-bit FNV-1a over a stream of little-endian `u64`s.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn eat_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Each stop in visit order: its member count, its member indices,
    /// its anchor's `x` and `y` bits and its dwell bits.
    fn eat_plan(&mut self, plan: &ChargingPlan) {
        self.eat(plan.stops.len() as u64);
        for stop in &plan.stops {
            self.eat(stop.bundle.sensors.len() as u64);
            for &s in &stop.bundle.sensors {
                self.eat(s as u64);
            }
            let anchor = stop.anchor();
            self.eat(anchor.x.to_bits());
            self.eat(anchor.y.to_bits());
            self.eat(stop.dwell.0.to_bits());
        }
    }
}

/// Every stop of a plan charges at least one sensor.
fn assert_every_stop_charges(plan: &ChargingPlan, what: &str) {
    for (i, stop) in plan.stops.iter().enumerate() {
        assert!(!stop.bundle.is_empty(), "{what}: stop {i} has no members");
    }
}

fn plan_hash(plan: &ChargingPlan) -> u64 {
    let mut h = Fnv::new();
    h.eat_plan(plan);
    h.0
}

/// One line of [`GOLDEN`].
fn case(seed: u64, n: usize, r: f64) -> String {
    let net = deploy::uniform(n, Aabb::square(FIELD_SIDE_M), 2.0, seed);
    let cfg = PlannerConfig::paper_sim(r);
    let sc = planner::try_run(Algorithm::Sc, &net, &cfg).unwrap_or_else(|e| panic!("SC plan: {e}"));
    let css =
        planner::try_run(Algorithm::Css, &net, &cfg).unwrap_or_else(|e| panic!("CSS plan: {e}"));
    let fleet = try_plan_fleet(&net, &cfg, Algorithm::Css, 3)
        .unwrap_or_else(|e| panic!("CSS fleet plan: {e}"));
    assert_every_stop_charges(&sc, "SC");
    assert_every_stop_charges(&css, "CSS");
    let mut fh = Fnv::new();
    fh.eat(fleet.plans.len() as u64);
    for plan in &fleet.plans {
        assert_every_stop_charges(plan, "CSS fleet");
        fh.eat_plan(plan);
    }
    for &a in &fleet.assignment {
        fh.eat(a as u64);
    }

    let bc = planner::try_run(Algorithm::Bc, &net, &cfg).unwrap_or_else(|e| panic!("BC plan: {e}"));
    let faults = FaultModel::with_rate(seed, FAULT_RATE);
    let reports: Vec<String> = RecoveryPolicy::ALL
        .iter()
        .map(|&policy| {
            let report = Executor::new(&net, &cfg)
                .with_policy(policy)
                .execute(&bc, &faults, ROUND)
                .unwrap_or_else(|e| panic!("execution: {e}"));
            let mut h = Fnv::new();
            h.eat_bytes(format!("{report:?}").as_bytes());
            format!("{:016x}", h.0)
        })
        .collect();
    format!(
        "{seed} {n} {r} | {:016x} {:016x} {:016x} | {}",
        plan_hash(&sc),
        plan_hash(&css),
        fh.0,
        reports.join(" ")
    )
}

/// One line of [`GOLDEN_BC`].
fn bc_case(seed: u64, n: usize, r: f64) -> String {
    let net = deploy::uniform(n, Aabb::square(FIELD_SIDE_M), 2.0, seed);
    let cfg = PlannerConfig::paper_sim(r);
    let bc = planner::try_run(Algorithm::Bc, &net, &cfg).unwrap_or_else(|e| panic!("BC plan: {e}"));
    let opt = planner::try_run(Algorithm::BcOpt, &net, &cfg)
        .unwrap_or_else(|e| panic!("BC-OPT plan: {e}"));
    assert_every_stop_charges(&bc, "BC");
    assert_every_stop_charges(&opt, "BC-OPT");
    format!(
        "{seed} {n} {r} | {:016x} {:016x}",
        plan_hash(&bc),
        plan_hash(&opt)
    )
}

/// SC, CSS and CSS-fleet plans and every policy's execution report match
/// the pinned hashes on all 30 cases.
#[test]
fn plans_and_reports_match_pinned_hashes() {
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

/// BC and BC-OPT plans match the pinned hashes on all 30 cases.
#[test]
fn bc_and_bc_opt_plans_match_pinned_hashes() {
    let mut got = Vec::new();
    for seed in SEEDS {
        for n in SIZES {
            for r in RADII_M {
                got.push(bc_case(seed, n, r));
            }
        }
    }
    assert_eq!(got.len(), GOLDEN_BC.len());
    for (g, want) in got.iter().zip(GOLDEN_BC) {
        assert_eq!(g, want);
    }
}
