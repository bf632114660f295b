//! Allocation gate for the GUESS probe path.
//!
//! A query at the paper's defaults is ~95 probes, each answered with a
//! pong. Pongs and the ping pick are built in engine-owned buffers, the
//! ranked policies' keys included, and the probe pool is one engine-owned
//! queue reset per query, so in steady state a query allocates about once
//! — not a pool grown from empty (~7 calls) nor two `Vec`s per answered
//! probe (~170 calls). The gate runs the same configuration for `D` and for `2D` simulated
//! seconds and charges the extra allocation calls to the extra measured
//! queries, so set-up cost cancels and everything that scales with
//! simulated time (churn, metric samples, queue growth) is counted
//! against the bound too.
//!
//! One test in the file: the counter is process-wide, and a second test
//! thread's allocations would be charged to the run.

use guess::policy::SelectionPolicy;
use guess::Runnable;
use guess_bench::alloc_meter::alloc_calls;
use guess_bench::scale::{base_config, Scale};
use simkit::time::SimDuration;

/// Allocation calls one measured query may cost in steady state, per
/// uniform policy. The change that introduced the gate measured 7.6 for
/// Random (its parent 168.2); MR measured 18.0 while its pongs still
/// allocated a key heap each, then 7.0. With the reused probe pool both
/// measure 0.97.
const MAX_CALLS_PER_QUERY: [(SelectionPolicy, f64); 2] =
    [(SelectionPolicy::Random, 1.5), (SelectionPolicy::Mr, 1.5)];

/// Runs quick-scale GUESS under `policy` for `secs` simulated seconds;
/// returns the allocation calls the run made and the queries it measured.
fn run(policy: SelectionPolicy, secs: f64) -> (usize, u64) {
    let mut cfg = base_config(Scale::Quick, 0xA110C).with_uniform_policy(policy);
    cfg.run.duration = SimDuration::from_secs(secs);
    let before = alloc_calls();
    let report = cfg.build().expect("valid config").run();
    (alloc_calls() - before, report.queries)
}

#[test]
fn steady_state_queries_allocate_a_constant_not_per_probe() {
    let warmup = Scale::Quick.warmup().as_secs();
    for (policy, limit) in MAX_CALLS_PER_QUERY {
        let (calls_d, queries_d) = run(policy, warmup + 150.0);
        let (calls_2d, queries_2d) = run(policy, warmup + 300.0);
        assert!(
            queries_2d > queries_d + 500,
            "{policy}: the longer run must measure more queries: {queries_d} vs {queries_2d}"
        );
        let per_query = (calls_2d as f64 - calls_d as f64) / (queries_2d - queries_d) as f64;
        println!("{policy}: {per_query:.1} allocation calls per extra query");
        assert!(
            per_query < limit,
            "{policy}: {per_query:.1} allocation calls per extra query (limit {limit}): \
             the probe path allocates per probe again"
        );
    }
}
