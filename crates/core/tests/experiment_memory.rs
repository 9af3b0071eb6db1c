//! Peak live heap of `Experiment::run` per measured cycle.
//!
//! An experiment keeps one cycle-length array, the chip's total power at
//! 8 bytes per cycle; the simulation, its pricing, the measured vector and
//! the detection fold all stream in fixed chunks. A counting global
//! allocator records the peak live heap of one run at two lengths, and
//! the slope between them is what each extra cycle costs. The test has a
//! binary of its own, so no other test's allocations land in the count.

use clockmark::{ClockModulationWatermark, Experiment, WgcConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// The system allocator, counting live bytes and their high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every call forwards to `System` with the caller's arguments;
// the counters only observe.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Relaxed);
            }
        }
        new
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Peak live heap above the starting level while one experiment of
/// `cycles` cycles runs.
fn peak_bytes(cycles: usize) -> usize {
    let arch = ClockModulationWatermark {
        wgc: WgcConfig::MaxLengthLfsr { width: 8, seed: 1 },
        ..ClockModulationWatermark::paper()
    };
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    let outcome = Experiment::quick(cycles, 3).run(&arch).expect("runs");
    assert!(outcome.detection.detected, "{outcome}");
    PEAK.load(Relaxed) - base
}

#[test]
fn an_experiment_holds_one_cycle_length_array() {
    const SHORT: usize = 12_000;
    const LONG: usize = 48_000;
    // The first run sizes the thread-local scratch every later run reuses.
    peak_bytes(SHORT);
    let (short, long) = (peak_bytes(SHORT), peak_bytes(LONG));
    let per_cycle = long.saturating_sub(short) as f64 / (LONG - SHORT) as f64;
    assert!(
        per_cycle <= 12.0,
        "peak live heap grows {per_cycle:.1} B per cycle ({short} B at {SHORT} cycles, \
         {long} B at {LONG}); one 8 B array per cycle is the budget"
    );
}
