//! Heap gate for the event queue's ring and the GUESS peer line.
//!
//! The calendar queue (`simkit::event`) used to keep, in each of its
//! 4 096 ring slots, the largest buffer that slot ever held, so once the
//! run had wrapped the ring (1 024 simulated s) it cost 4 096 × the peak
//! bucket rather than the pending events. A GUESS run with queries off
//! crowds its ping timers into the 120 buckets of the next 30 s, which is
//! the worst case for that rule. The gate runs such a run past two ring
//! wraps at two network sizes and bounds peak heap per peer at each; a
//! peer state that grows back past its 64-byte line shows here too.
//!
//! One test in the file: the allocation meter is process-wide, and a
//! second test thread's allocations would be charged to the run.

use guess::Runnable;
use guess_bench::alloc_meter::{current_bytes, peak_bytes, reset_peak};
use guess_bench::scale::{base_config, Scale};
use simkit::time::SimDuration;

/// Network sizes and their bounds on peak heap per peer, in bytes. With
/// drained buckets released and the 64-byte peer line the runs read
/// 4 214 and 3 173 B/peer; each bound is its reading plus 10 %. Link-cache
/// blocks that grow with their entries (to the full 100 slots over these
/// 2 400 s) move them to 4 218 and 3 177 B/peer: the 48-byte block record replaced a 4-byte
/// length, and the attacker slab of 40 bytes per slot is gone. Ring
/// slots that keep their peak buffer, with the 272-byte peer, read
/// 5 515 and 5 232 B/peer. The fixed costs (the file catalog, the
/// ring's minimum share of 8 to 16 entries per slot) weigh more at the
/// smaller size.
const BOUNDS: [(usize, f64); 2] = [(2_000, 4_640.0), (8_000, 3_490.0)];

/// Peak heap (bytes above the level at the start) per peer of one
/// queries-off GUESS run at `network_size` peers over 2 400 simulated s.
fn peak_bytes_per_peer(network_size: usize) -> f64 {
    let mut cfg = base_config(Scale::Full, 0x9E7)
        .with_network_size(network_size)
        .with_queries(false);
    cfg.run.duration = SimDuration::from_secs(2_400.0);
    cfg.run.warmup = SimDuration::from_secs(300.0);
    reset_peak();
    let base = current_bytes();
    let report = cfg.build().expect("valid config").run();
    std::hint::black_box(&report);
    (peak_bytes() - base) as f64 / network_size as f64
}

#[test]
fn peak_heap_per_peer_stays_bounded_past_two_ring_wraps() {
    for (network_size, bound) in BOUNDS {
        let per_peer = peak_bytes_per_peer(network_size);
        println!("N {network_size}: {per_peer:.0} B/peer (bound {bound})");
        assert!(
            per_peer <= bound,
            "N {network_size}: peak heap reached {per_peer:.0} B/peer past two ring wraps; \
             the limit is {bound} B/peer"
        );
    }
}
