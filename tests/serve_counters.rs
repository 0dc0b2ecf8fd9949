//! Each serve event is counted once: the `serve.<field>` counters a
//! recorder sees equal the service's own `ServeStatsSnapshot` fields,
//! because both come from the same counting call.
//!
//! Service workers emit to the process-wide recorder (a thread-local one
//! would not reach them), so this file holds a single test and runs as
//! its own binary, where no other test can emit into the recorder.

use std::sync::Arc;

use bundle_charging::obs::{self, recorders::StatsRecorder};
use bundle_charging::serve::{loadgen, LoadProfile};

/// A chaos seed whose run sheds, retries and catches panics.
const SEED: u64 = 7;

#[test]
fn obs_counters_equal_the_stats_snapshot() {
    let recorder = Arc::new(StatsRecorder::new());
    obs::install(recorder.clone());
    let report = loadgen::run(&LoadProfile::chaos(SEED));
    obs::uninstall();
    let stats = report.expect("profile is valid").stats;
    let counters = recorder.snapshot();

    assert!(stats.shed > 0, "chaos run shed nothing: {stats:?}");
    assert!(stats.retries > 0, "chaos run retried nothing: {stats:?}");
    assert!(
        stats.panics_caught > 0,
        "chaos run caught no panic: {stats:?}"
    );
    for (field, value) in [
        ("submitted", stats.submitted),
        ("completed_full", stats.completed_full),
        ("completed_degraded", stats.completed_degraded),
        ("shed", stats.shed),
        ("deadline_miss", stats.deadline_miss),
        ("unknown_network", stats.unknown_network),
        ("failed", stats.failed),
        ("retries", stats.retries),
        ("transient_failures", stats.transient_failures),
        ("panics_caught", stats.panics_caught),
        ("dedup_hits", stats.dedup_hits),
        ("replans", stats.replans),
        ("drained", stats.drained),
    ] {
        assert_eq!(
            counters.counter(&format!("serve.{field}")),
            value,
            "serve.{field}"
        );
    }
}
