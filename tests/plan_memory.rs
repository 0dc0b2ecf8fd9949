//! Peak heap of one plan. Every routine of bc-tsp reads the tour metric
//! when it is asked for, so no plan whose tour is priced by the straight
//! line holds a dense `n × n` distance table: a plan's peak live heap
//! above its starting level stays at or below 1 KiB per sensor. A dense
//! table over 1,000 sensors alone would be 7.6 KiB per sensor.
//!
//! The counting allocator sees every thread of this binary, so the binary
//! holds one test, and the plans run on one worker.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use bundle_charging::core::context::PlanContext;
use bundle_charging::core::planner::Algorithm;
use bundle_charging::core::PlannerConfig;
use bundle_charging::geom::Aabb;
use bundle_charging::wsn::deploy;

/// Bytes allocated and not yet freed.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// The most `LIVE` has read since the last reset.
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counting live and peak bytes.
struct Counting;

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every call forwards to `System` with the caller's arguments;
// the counters only read the sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc_zeroed`'s contract.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `realloc`'s contract.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Relaxed);
            }
        }
        new
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Peak live bytes each plan may add, per sensor.
const BYTES_PER_SENSOR: usize = 1024;

#[test]
fn plans_hold_no_dense_distance_table() {
    // Paper density (1,000 sensors in a 949 m square), r = 10 m.
    let n = 1000;
    let net = deploy::uniform(n, Aabb::square(949.0), 2.0, 1000);
    let mut peaks = Vec::new();
    for algo in Algorithm::ALL {
        let ctx = PlanContext::new(net.clone(), PlannerConfig::paper_sim(10.0)).with_workers(1);
        let start = LIVE.load(Relaxed);
        PEAK.store(start, Relaxed);
        let plan = ctx
            .plan(algo)
            .unwrap_or_else(|e| panic!("{algo} plans: {e}"))
            .plan;
        let peak = PEAK.load(Relaxed) - start;
        assert!(plan.stops.len() > 100, "{algo}: {} stops", plan.stops.len());
        println!("{algo}: peak {peak} B above start");
        peaks.push((algo, peak));
    }
    for &(algo, peak) in &peaks {
        assert!(peak > 0, "{algo}: the allocator counted nothing");
    }
    assert!(
        peaks.iter().all(|&(_, peak)| peak <= n * BYTES_PER_SENSOR),
        "a plan's peak heap exceeds {BYTES_PER_SENSOR} B per sensor at n = {n}: {peaks:?}"
    );
}
