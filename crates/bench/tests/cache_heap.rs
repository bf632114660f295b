//! Heap gate for the GUESS link caches.
//!
//! A link cache holds far fewer entries than `CacheSize` when queries
//! are off: only pongs and newborn seeding fill it. Each cache block in
//! `guess::link_cache::CacheArena` starts at 32 slots and doubles, capped
//! at `CacheSize`, as its entries need room. A block that reserved
//! `CacheSize` slots at birth would cost 100 × 24 B per peer here. The
//! gate runs `guess-maint-large`'s shape (queries off, 120 simulated s
//! with 30 s of warm-up) at N = 20 000 and bounds peak heap per peer.
//!
//! One test in the file: the allocation meter is process-wide, and a
//! second test thread's allocations would be charged to the run.

use guess::Runnable;
use guess_bench::alloc_meter::{current_bytes, peak_bytes, reset_peak};
use guess_bench::scale::{base_config, Scale};
use simkit::time::SimDuration;

const NETWORK_SIZE: usize = 20_000;

/// Bound on peak heap per peer, in bytes: the 1 287 B/peer this run
/// reads with growing blocks, plus 10 %. Blocks that reserved
/// `CacheSize` slots at birth read 2 912 B/peer.
const BOUND: f64 = 1_416.0;

#[test]
fn link_caches_cost_what_they_hold() {
    let mut cfg = base_config(Scale::Full, 0xCAC4E)
        .with_network_size(NETWORK_SIZE)
        .with_queries(false);
    cfg.run.duration = SimDuration::from_secs(120.0);
    cfg.run.warmup = SimDuration::from_secs(30.0);
    reset_peak();
    let base = current_bytes();
    let report = cfg.build().expect("valid config").run();
    std::hint::black_box(&report);
    let per_peer = (peak_bytes() - base) as f64 / NETWORK_SIZE as f64;
    println!("N {NETWORK_SIZE}: {per_peer:.0} B/peer (bound {BOUND})");
    assert!(
        per_peer <= BOUND,
        "peak heap reached {per_peer:.0} B/peer; the limit is {BOUND} B/peer"
    );
}
