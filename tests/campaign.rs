//! Acceptance tests for the `bc-campaign` Monte-Carlo campaign engine.
//!
//! The contracts pinned here are the ones the ISSUE names: the merged
//! campaign snapshot is byte-identical across worker counts {1, 2, 4}
//! *and* across seed execution orders; a panicking seed surfaces as a
//! typed per-seed failure without aborting the campaign; the engine
//! produces identical results on either queue backend; and rotated
//! trace files are independently valid JSONL.

use std::path::PathBuf;

use bundle_charging::campaign::smoke::smoke_scenario;
use bundle_charging::campaign::{
    run_campaign, CampaignConfig, CampaignError, SeedFailure, TraceConfig,
};
use bundle_charging::core::planner::Algorithm;
use bundle_charging::des::{self, QueueBackend, Scenario};
use bundle_charging::geom::Aabb;
use bundle_charging::wsn::deploy;

const SEEDS: [u64; 4] = [1000, 1001, 1002, 1003];

fn make(seed: u64) -> Scenario {
    smoke_scenario(10, 2.0, seed)
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bc-campaign-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn merged_snapshot_is_byte_identical_across_worker_counts() {
    let baseline = run_campaign(&SEEDS, &CampaignConfig::new(1), make).unwrap();
    let json = baseline.snapshot_json();
    assert!(json.contains("\"merged\""));
    for workers in [2usize, 4] {
        let report = run_campaign(&SEEDS, &CampaignConfig::new(workers), make).unwrap();
        assert_eq!(
            report.snapshot_json().as_bytes(),
            json.as_bytes(),
            "workers = {workers} must merge byte-identically"
        );
        assert_eq!(report.merge_hash(), baseline.merge_hash());
    }
}

#[test]
fn merged_snapshot_is_byte_identical_across_execution_orders() {
    let baseline = run_campaign(&SEEDS, &CampaignConfig::new(2), make).unwrap();
    // Reverse, rotate, and an adversarial interleave — the merge folds
    // by seed index, so start order must be invisible in the bytes.
    for order in [vec![3, 2, 1, 0], vec![1, 2, 3, 0], vec![2, 0, 3, 1]] {
        let cfg = CampaignConfig::new(2).with_execution_order(order.clone());
        let report = run_campaign(&SEEDS, &cfg, make).unwrap();
        assert_eq!(
            report.snapshot_json().as_bytes(),
            baseline.snapshot_json().as_bytes(),
            "execution order {order:?} leaked into the merged snapshot"
        );
        // Results stay keyed by seed, not by start slot.
        let seeds: Vec<u64> = report.seeds.iter().map(|s| s.seed).collect();
        assert_eq!(seeds, SEEDS);
    }
}

#[test]
fn bad_execution_order_is_rejected() {
    for order in [vec![0, 1], vec![0, 1, 2, 2], vec![0, 1, 2, 4]] {
        let cfg = CampaignConfig::new(1).with_execution_order(order);
        let err = run_campaign(&SEEDS, &cfg, make).unwrap_err();
        assert_eq!(err, CampaignError::BadExecutionOrder { seeds: 4 });
    }
}

#[test]
fn panicking_seed_is_a_typed_failure_not_an_abort() {
    // Silence the default panic hook for the injected panic — the
    // campaign catches it and records it; stderr noise would look like
    // a real failure in test logs.
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let report = run_campaign(&SEEDS, &CampaignConfig::new(2), |seed| {
        assert!(seed != 1001, "injected poison for seed 1001");
        make(seed)
    })
    .unwrap();
    std::panic::set_hook(prev);

    assert_eq!(report.failed(), 1, "exactly the poisoned seed fails");
    assert_eq!(report.completed(), 3, "the other seeds complete");
    let failures: Vec<_> = report.failures().collect();
    assert_eq!(failures.len(), 1);
    let (seed, failure) = failures[0];
    assert_eq!(seed, 1001);
    match failure {
        SeedFailure::Panic(msg) => {
            assert!(msg.contains("injected poison"), "payload preserved: {msg}");
        }
        other => panic!("expected a panic failure, got {other:?}"),
    }
    // The failure is in the deterministic JSON too, typed and escaped.
    let json = report.snapshot_json();
    assert!(json.contains("\"kind\": \"panic\""));
    assert!(json.contains("injected poison"));
}

#[test]
fn failed_run_is_a_typed_run_failure() {
    // An invalid scenario (zero trigger count) errors inside bc_des::run.
    let report = run_campaign(&SEEDS, &CampaignConfig::new(2), |seed| {
        let mut sc = make(seed);
        if seed == 1002 {
            sc.trigger_count = 0;
        }
        sc
    })
    .unwrap();
    assert_eq!(report.completed(), 3);
    let failures: Vec<_> = report.failures().collect();
    assert_eq!(failures.len(), 1);
    assert_eq!(failures[0].0, 1002);
    assert!(
        matches!(failures[0].1, SeedFailure::Run(_)),
        "{:?}",
        failures[0].1
    );
}

#[test]
fn engine_reports_identical_across_queue_backends() {
    let net = deploy::uniform(14, Aabb::square(200.0), 2.0, 9);
    let mut heap_sc = Scenario::paper_sim(net, 25.0, Algorithm::Bc);
    heap_sc.horizon_s = bundle_charging::units::Seconds(4.0 * 3600.0);
    let mut cal_sc = heap_sc.clone();
    cal_sc.queue = QueueBackend::Calendar;

    let heap = des::run(&heap_sc).unwrap();
    let cal = des::run(&cal_sc).unwrap();
    assert_eq!(heap, cal, "queue backend leaked into simulation results");
    let ta = format!("{:?}", heap.trace);
    let tb = format!("{:?}", cal.trace);
    assert_eq!(
        ta.as_bytes(),
        tb.as_bytes(),
        "event traces must be byte-identical"
    );
}

#[test]
fn campaign_traces_rotate_and_validate() {
    let dir = tmp_dir("traces");
    let cfg = CampaignConfig::new(2).with_trace(TraceConfig::new(&dir, 2048));
    let report = run_campaign(&SEEDS[..2], &cfg, make).unwrap();
    assert_eq!(report.completed(), 2);

    let files = report.trace_files();
    assert!(
        files.len() > 2,
        "2 KiB cap must force rotation, got {} files",
        files.len()
    );
    let mut lines = 0;
    for path in &files {
        let text = std::fs::read_to_string(path).unwrap();
        let meta = std::fs::metadata(path).unwrap();
        lines += bc_obs::json::validate_jsonl(&text)
            .unwrap_or_else(|(l, e)| panic!("{} line {l}: {e}", path.display()));
        // Every file respects the cap unless it holds one oversized line.
        if meta.len() > 2048 {
            assert_eq!(text.lines().count(), 1, "{}", path.display());
        }
    }
    assert!(lines > 0, "traces must carry events");

    // Per-seed summaries point at disjoint file families.
    let per_seed: Vec<_> = report
        .summaries()
        .map(|(s, sum)| (s, sum.trace_files.len()))
        .collect();
    assert_eq!(per_seed.len(), 2);
    assert!(per_seed.iter().all(|&(_, n)| n > 0));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_paths_do_not_leak_into_the_deterministic_snapshot() {
    let dir = tmp_dir("leak");
    let cfg = CampaignConfig::new(1).with_trace(TraceConfig::new(&dir, 64 * 1024));
    let with_traces = run_campaign(&SEEDS[..2], &cfg, make).unwrap();
    let without = run_campaign(&SEEDS[..2], &CampaignConfig::new(1), make).unwrap();
    assert_eq!(
        with_traces.snapshot_json().as_bytes(),
        without.snapshot_json().as_bytes(),
        "snapshot JSON must not depend on trace configuration"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
