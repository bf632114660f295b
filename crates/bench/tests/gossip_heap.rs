//! Heap gate for gossip rumor state.
//!
//! A rumor reaches a few hundred peers whatever the network size, and
//! the number of rumors in flight grows with N (every peer queries). A
//! rumor's infection state must therefore cost O(reached), not O(N):
//! with a per-slot table per rumor, peak heap per peer grows with N
//! (in-flight rumors × N / N), with per-rumor maps it stays flat. The
//! gate runs the default configuration at two network sizes 8× apart
//! and bounds how much peak heap per peer may grow.
//!
//! One test in the file: the allocation meter is process-wide, and a
//! second test thread's allocations would be charged to the run.

use gossip::{Config, Runnable};
use guess_bench::alloc_meter::{current_bytes, peak_bytes, reset_peak};
use simkit::time::SimDuration;

/// Bound on peak heap per peer at 16 000 peers over peak heap per peer
/// at 2 000. Per-slot infection vectors read 1 784 -> 2 863 B/peer
/// (1.60x); per-rumor maps read 1 497 -> 873 B/peer (0.58x).
const MAX_GROWTH: f64 = 1.25;

/// Peak heap (bytes above the level at the start) per peer of one
/// default-configuration run at `network_size` peers.
fn peak_bytes_per_peer(network_size: usize) -> f64 {
    let cfg = Config::default()
        .with_network_size(network_size)
        .with_duration(SimDuration::from_secs(400.0))
        .with_warmup(SimDuration::from_secs(100.0))
        .with_seed(7);
    reset_peak();
    let base = current_bytes();
    let report = cfg.build().expect("valid config").run();
    std::hint::black_box(&report);
    (peak_bytes() - base) as f64 / network_size as f64
}

#[test]
fn peak_heap_per_peer_stays_flat_as_the_network_grows() {
    let small = peak_bytes_per_peer(2_000);
    let large = peak_bytes_per_peer(16_000);
    let growth = large / small;
    println!("N 2000 -> 16000: {small:.0} -> {large:.0} B/peer ({growth:.2}x)");
    assert!(
        growth <= MAX_GROWTH,
        "peak heap per peer grew {growth:.2}x ({small:.0} -> {large:.0} B/peer) from 2 000 \
         to 16 000 peers; the limit is {MAX_GROWTH}x"
    );
}
