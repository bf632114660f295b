//! Heap-growth gate for the GUESS peer table.
//!
//! GUESS peers leave silently, so an address outlives its peer for as
//! long as other caches point at it. The engine keeps full state only
//! for the live peer of each slot, and a slot-and-death-time record per
//! address ever minted. A longer run therefore costs only those small
//! records, not one full peer state per birth (and per fabricated dead
//! address a Dead attacker hands out). The gate runs strained churn,
//! with queries off, for 1× and 4× the measured span. It runs once
//! without attackers and once with 20 % Dead attackers, and bounds the
//! growth of peak heap.
//!
//! One test in the file: the allocation meter is process-wide, and a
//! second test thread's allocations would be charged to the run.

use guess::config::BadPongBehavior;
use guess::Runnable;
use guess_bench::alloc_meter::{current_bytes, peak_bytes, reset_peak};
use guess_bench::scale::{strained_config, Scale};
use simkit::time::SimDuration;

/// Bound on peak heap at 4× the measured span over peak heap at 1×.
/// The peer table before this gate read 1.90× without attackers and
/// 1.78× with them. With per-slot peer state the growth left is the
/// address records and the library arena's free lists. The runs read
/// 4.46 -> 5.61 MiB (1.26×) and 5.33 -> 6.98 MiB (1.31×); with link-cache
/// blocks that grow with their entries, 4.47 -> 5.62 MiB (1.26×) and
/// 5.42 -> 7.07 MiB (1.31×). When the event
/// queue's ring still kept each slot's peak buffer and the peer was 272
/// bytes, they read 7.22 -> 8.66 MiB (1.20×) and 8.04 -> 9.96 MiB
/// (1.24×): the growth shrank a little, but the base shrank more.
const MAX_GROWTH: f64 = 1.4;

/// Peak heap (MiB above the level at the start) of one strained run
/// measured for `measured_secs` after warm-up.
fn peak_mib(bad_fraction: f64, measured_secs: f64) -> f64 {
    let mut cfg = strained_config(Scale::Full, 2000, 20, 0x6E0)
        .with_queries(false)
        .with_bad_peers(bad_fraction, BadPongBehavior::Dead);
    cfg.run.duration = cfg.run.warmup + SimDuration::from_secs(measured_secs);
    reset_peak();
    let base = current_bytes();
    let report = cfg.build().expect("valid config").run();
    std::hint::black_box(&report);
    (peak_bytes() - base) as f64 / f64::from(1u32 << 20)
}

#[test]
fn peak_heap_stays_near_flat_as_the_run_grows() {
    for bad_fraction in [0.0, 0.2] {
        let short = peak_mib(bad_fraction, 1800.0);
        let long = peak_mib(bad_fraction, 7200.0);
        let growth = long / short;
        println!("bad {bad_fraction}: {short:.2} -> {long:.2} MiB ({growth:.2}x)");
        assert!(
            growth < MAX_GROWTH,
            "bad {bad_fraction}: peak heap grew {growth:.2}x ({short:.2} -> {long:.2} MiB) \
             from 1x to 4x the run; the limit is {MAX_GROWTH}x"
        );
    }
}
