//! Parallel-kernel identity gates.
//!
//! Two contracts protect the goldens and the `guess-lanes` benchmark
//! workload:
//!
//! 1. `lanes = 1` routes `guess::run_lanes` (the only lane runner) to
//!    the ordinary serial run — byte-identical reports, so the 30 quick
//!    goldens and 7 scenario goldens are unchanged by construction.
//! 2. With `lanes > 1`, the report is a pure function of
//!    `(seed, lanes)`: any worker-thread count produces the same
//!    bytes. The quick-scale variant of this check runs in release
//!    via `scripts/verify.sh` (ignored here — debug-mode quick runs
//!    take minutes).

use guess::Runnable;
use guess_bench::scale::{base_config, Scale};

/// Seeds for the lanes=1 property check — arbitrary but fixed.
const SEEDS: [u64; 3] = [0x11, 0x22, 0x33];

/// Lane count of the quick-scale gate (the `guess-lanes` benchmark
/// workload runs the same count).
const LANES: usize = 8;

#[test]
fn guess_lanes_one_is_byte_identical_to_serial() {
    for seed in SEEDS {
        let mut cfg = guess::config::Config::small_test(seed);
        cfg.run.duration = simkit::time::SimDuration::from_secs(200.0);
        cfg.run.warmup = simkit::time::SimDuration::from_secs(50.0);
        let serial = cfg.clone().build().expect("valid config").run();
        let laned = guess::run_lanes(cfg, 4).expect("valid config");
        assert_eq!(serial, laned, "guess seed {seed}");
    }
}

#[test]
fn small_scale_lane_runs_are_thread_count_invariant() {
    let mut gcfg = guess::config::Config::small_test(7);
    gcfg.run.duration = simkit::time::SimDuration::from_secs(200.0);
    gcfg.run.warmup = simkit::time::SimDuration::from_secs(50.0);
    gcfg.run.lanes = 4;
    let g1 = guess::run_lanes(gcfg.clone(), 1).expect("valid config");
    let g4 = guess::run_lanes(gcfg, 4).expect("valid config");
    assert_eq!(g1, g4, "guess lane run must not depend on threads");
}

/// The quick-scale cross-thread gate over the golden registry's base
/// configs: 1 and 4 worker threads must produce byte-identical reports
/// at [`LANES`] lanes. Release-only (run by `scripts/verify.sh`).
#[test]
#[ignore = "quick-scale; release-run by scripts/verify.sh"]
fn quick_scale_lane_runs_are_thread_count_invariant() {
    let mut gcfg = base_config(Scale::Quick, 0xBE7C);
    gcfg.run.lanes = LANES;
    let g1 = guess::run_lanes(gcfg.clone(), 1).expect("valid config");
    let g4 = guess::run_lanes(gcfg, 4).expect("valid config");
    assert_eq!(g1, g4, "guess quick lane run must not depend on threads");
}
