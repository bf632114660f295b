//! Process-wide allocation metering behind the repo benchmark's
//! `peak_heap_mb` and `bytes_per_peer` metrics (`benchmark/README.md`).
//!
//! A [`GlobalAlloc`] wrapper around [`System`] keeps three relaxed
//! atomics: the bytes currently allocated, the high-water mark since
//! the last [`reset_peak`], and the number of allocation calls made
//! (`crates/bench/tests/alloc_steady.rs` gates the probe path on it).
//! The overhead is three uncontended atomic ops per allocation — far
//! below the noise floor of the wall-clock numbers the harness reports —
//! so the meter is installed unconditionally for every binary and test
//! that links this crate.
//!
//! The counters are process-global: a measurement taken while other
//! threads allocate attributes their traffic to the measured region.
//! The benchmark runs its workloads one at a time and reads peak deltas
//! on the main thread only.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static CURRENT: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static CALLS: AtomicUsize = AtomicUsize::new(0);

/// [`System`] plus current/peak byte accounting.
pub struct CountingAlloc;

fn grow(n: usize) {
    CALLS.fetch_add(1, Ordering::Relaxed);
    let now = CURRENT.fetch_add(n, Ordering::Relaxed) + n;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

// SAFETY: delegates every operation to `System` unchanged; the atomics
// only observe sizes and never affect the returned pointers.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        CURRENT.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            CURRENT.fetch_sub(layout.size(), Ordering::Relaxed);
            grow(new_size);
        }
        p
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Bytes currently allocated process-wide.
#[must_use]
pub fn current_bytes() -> usize {
    CURRENT.load(Ordering::Relaxed)
}

/// The high-water mark since the last [`reset_peak`].
#[must_use]
pub fn peak_bytes() -> usize {
    PEAK.load(Ordering::Relaxed)
}

/// Successful `alloc`, `alloc_zeroed` and `realloc` calls since process
/// start. Monotonic; callers difference two readings.
#[must_use]
pub fn alloc_calls() -> usize {
    CALLS.load(Ordering::Relaxed)
}

/// Rebases the high-water mark to the current allocation level, so the
/// next [`peak_bytes`] reading covers only what happens after this call.
pub fn reset_peak() {
    PEAK.store(CURRENT.load(Ordering::Relaxed), Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_tracks_a_large_allocation() {
        // The counters are process-wide and other tests run beside this
        // one: a net free on their side inside the window hides the rise,
        // so one clean observation in a few attempts is what is asserted.
        let rose = (0..50).any(|_| {
            reset_peak();
            let before = peak_bytes();
            let buf = vec![0u8; 1 << 20];
            std::hint::black_box(&buf);
            peak_bytes() >= before + (1 << 20)
        });
        assert!(rose, "1 MiB allocation must raise the peak");
        let high = peak_bytes();
        reset_peak();
        assert!(
            peak_bytes() <= high,
            "reset rebases the peak to the (lower) current level"
        );
    }

    #[test]
    fn alloc_calls_counts_allocations_and_growth() {
        let before = alloc_calls();
        let mut v: Vec<u64> = Vec::with_capacity(4);
        v.extend(0..64); // at least one realloc
        assert!(
            alloc_calls() >= before + 2,
            "alloc + realloc are both calls"
        );
        drop(v);
    }
}
