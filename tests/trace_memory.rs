//! Live heap of the span-tree recorder. A closed span folds into its
//! parent's node for that name at once, so the recorder keeps one node
//! per distinct call path and one per open span, however many spans
//! close: 100,000 completions of one child under one open root must add
//! less heap than a buffer holding even one byte per completion.
//!
//! The counting allocator sees every thread of this binary, so the binary
//! holds one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;

use bundle_charging::obs::tree::SpanTreeRecorder;
use bundle_charging::obs::{with_local, Recorder, ScopedSpan};

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

/// Child spans closed under the one open root.
const COMPLETIONS: usize = 100_000;

#[test]
fn tree_recorder_heap_does_not_grow_with_completions() {
    let tree = Arc::new(SpanTreeRecorder::new());
    let peak = with_local(Arc::clone(&tree) as Arc<dyn Recorder>, || {
        let root = ScopedSpan::enter("plan", "run");
        let start = LIVE.load(Relaxed);
        PEAK.store(start, Relaxed);
        for _ in 0..COMPLETIONS {
            ScopedSpan::enter("plan", "tighten.sweep").finish();
        }
        let peak = PEAK.load(Relaxed) - start;
        root.finish();
        peak
    });
    let snap = tree.snapshot();
    let sweeps = snap.node(&["plan.run", "plan.tighten.sweep"]);
    assert_eq!(
        sweeps.map(|n| n.count),
        Some(u64::try_from(COMPLETIONS).unwrap_or(u64::MAX)),
        "{}",
        snap.collapsed()
    );
    println!("{COMPLETIONS} completions: peak {peak} B above start");
    assert!(peak > 0, "the allocator counted nothing");
    assert!(
        peak < COMPLETIONS,
        "{COMPLETIONS} completions of one span added {peak} B of peak heap, \
         at least one byte each"
    );
}
