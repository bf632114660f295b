//! Trace-layer reconciliation: the structured trace of a run must agree
//! with the aggregates in the run's own report, and turning tracing on
//! must not change the simulation itself.

use gnutella::dynamic::{GnutellaConfig, GnutellaSim};
use gossip::{Config as GossipConfig, GossipSim};
use guess::{
    BadPongBehavior, Config, GuessSim, MaintenanceMode, PaymentParams, PushParams, SelectionPolicy,
};
use guess_bench::tracefile::{JsonlSink, Reconcile};
use simkit::scenario::{Param, Scenario};
use simkit::sim::Runnable;
use simkit::time::{SimDuration, SimTime};
use simkit::trace::{CountingSink, RecordingSink, TraceRecord};

fn guess_cfg(seed: u64) -> Config {
    let mut cfg = Config::small_test(seed);
    cfg.run.duration = SimDuration::from_secs(400.0);
    cfg.run.warmup = SimDuration::from_secs(100.0);
    cfg
}

#[test]
fn tracing_does_not_change_the_guess_run() {
    let untraced = GuessSim::new(guess_cfg(5)).unwrap().run();
    let (traced, _) = GuessSim::new(guess_cfg(5))
        .unwrap()
        .run_traced(CountingSink::new());
    assert_eq!(untraced, traced, "attaching a sink changed the simulation");
}

/// The dynamic Gnutella runs both Gnutella trace tests cover: the plain
/// small configuration, a query that needs several results, heavy churn,
/// a partition (filtered edges) with a join wave (visit tables grown
/// mid-run) before the heal, and a timeline with every other
/// intervention kind.
fn gnutella_cases() -> [(&'static str, GnutellaConfig, Scenario); 5] {
    let cfg = |seed| {
        GnutellaConfig::small_test(seed)
            .with_duration(SimDuration::from_secs(250.0))
            .with_warmup(SimDuration::from_secs(50.0))
    };
    [
        ("small", cfg(71), Scenario::new()),
        (
            "desired-3",
            cfg(72).with_num_desired_results(3),
            Scenario::new(),
        ),
        (
            "churn",
            cfg(73).with_lifespan_multiplier(0.1),
            Scenario::new(),
        ),
        (
            "partition-join-heal",
            cfg(74),
            Scenario::new()
                .at(80.0)
                .partition(2)
                .at(120.0)
                .mass_join(10)
                .at(180.0)
                .heal(),
        ),
        (
            "leave-flash-flip-partition-heal",
            cfg(75),
            Scenario::new()
                .at(70.0)
                .mass_leave(20)
                .at(90.0)
                .partition(3)
                .at(110.0)
                .flash_crowd(30)
                .at(130.0)
                .param_flip(Param::QueryRate(0.03))
                .at(170.0)
                .heal(),
        ),
    ]
}

#[test]
fn tracing_does_not_change_the_gnutella_run() {
    for (name, cfg, scenario) in gnutella_cases() {
        let untraced = GnutellaSim::new(cfg.clone())
            .unwrap()
            .run_scenario(&scenario)
            .unwrap();
        let (traced, _) = GnutellaSim::new(cfg)
            .unwrap()
            .run_scenario_traced(&scenario, CountingSink::new())
            .unwrap();
        assert_eq!(
            untraced, traced,
            "{name}: attaching a sink changed the simulation"
        );
    }
}

#[test]
fn guess_trace_reconciles_with_run_report() {
    let cfg = guess_cfg(6);
    let warmup_end = SimTime::ZERO + cfg.run.warmup;
    let (report, sink) = GuessSim::new(cfg).unwrap().run_traced(RecordingSink::new());

    // The report only covers post-warm-up queries; filter the trace the
    // same way before comparing.
    let mut ends = 0u64;
    let mut unsatisfied = 0u64;
    let mut probes = 0u64;
    for (at, rec) in sink.select(|r| matches!(r, TraceRecord::QueryEnd { .. })) {
        if *at < warmup_end {
            continue;
        }
        let TraceRecord::QueryEnd {
            satisfied,
            probes: p,
            ..
        } = rec
        else {
            unreachable!()
        };
        ends += 1;
        if !satisfied {
            unsatisfied += 1;
        }
        probes += u64::from(*p);
    }
    assert!(ends > 0, "no queries ended after warm-up");
    assert_eq!(report.queries, ends);
    assert_eq!(report.unsatisfied, unsatisfied);
    assert_eq!(report.total_probes.sum().round() as u64, probes);
    assert_eq!(report.total_probes.count(), ends);

    // Whole-run totals (births, deaths, pings) are not warm-up gated.
    let joins = sink
        .select(|r| matches!(r, TraceRecord::PeerJoin { .. }))
        .count() as u64;
    let deaths = sink
        .select(|r| matches!(r, TraceRecord::PeerDeath { .. }))
        .count() as u64;
    assert_eq!(report.counters.get("births"), joins);
    assert_eq!(report.counters.get("deaths"), deaths);
}

#[test]
fn guess_query_probe_records_match_query_end_sums() {
    // Every query probe record belongs to exactly one query, so the sum
    // of the per-query `probes` fields equals the probe record count —
    // over the whole run, warm-up included.
    let (_, sink) = GuessSim::new(guess_cfg(7))
        .unwrap()
        .run_traced(CountingSink::new());
    assert!(sink.query_probes > 0);
    assert_eq!(sink.query_probes, sink.query_end_probes);
    assert_eq!(
        sink.query_starts, sink.query_ends,
        "atomic queries always end"
    );
}

#[test]
fn gnutella_trace_reconciles_with_run_report() {
    let cfg = GnutellaConfig::small_test(9);
    let warmup_end = SimTime::ZERO + cfg.warmup;
    let (report, sink) = GnutellaSim::new(cfg)
        .unwrap()
        .run_traced(RecordingSink::new());
    let mut ends = 0u64;
    let mut messages = 0u64;
    for (at, rec) in sink.select(|r| matches!(r, TraceRecord::QueryEnd { .. })) {
        if *at < warmup_end {
            continue;
        }
        let TraceRecord::QueryEnd { probes, .. } = rec else {
            unreachable!()
        };
        ends += 1;
        messages += u64::from(*probes);
    }
    assert!(ends > 0);
    assert_eq!(report.queries, ends);
    assert_eq!(report.messages.sum().round() as u64, messages);
    // Flood probe records cover every transmission, warm-up included.
    let floods = sink
        .select(|r| matches!(r, TraceRecord::Probe { .. }))
        .count() as u64;
    let all_query_probes: u64 = sink
        .select(|r| matches!(r, TraceRecord::QueryEnd { .. }))
        .map(|(_, r)| {
            let TraceRecord::QueryEnd { probes, .. } = r else {
                unreachable!()
            };
            u64::from(*probes)
        })
        .sum();
    assert_eq!(floods, all_query_probes);
}

/// Runs `sim` traced and checks the engine's library reconciliation
/// rows — the rows `repro --trace` prints. Every row must hold, and
/// every row but the unsatisfied count must be non-zero, so none holds
/// vacuously.
fn assert_rows_hold<S>(sim: S, expected: &[&str]) -> CountingSink
where
    S: Runnable,
    S::Report: Reconcile,
{
    let (report, counts) = sim.run_traced(CountingSink::new());
    let rows = report.reconciliation(&counts);
    let names: Vec<&str> = rows.iter().map(|row| row.0).collect();
    assert_eq!(names, expected);
    for (what, in_report, in_trace) in rows {
        assert_eq!(in_report, in_trace, "{what}");
        assert!(
            in_report > 0 || what == "unsatisfied queries",
            "{what} is zero"
        );
    }
    counts
}

const QUERY_ROWS: [&str; 3] = [
    "queries == query_end records",
    "queries == query_start records",
    "unsatisfied queries",
];

#[test]
fn guess_reconciliation_rows_hold() {
    let mut cfg = guess_cfg(12);
    cfg.run.warmup = SimDuration::ZERO;
    let mut expected = QUERY_ROWS.to_vec();
    expected.extend([
        "total probes == probe records",
        "total probes == query_end sums",
        "births == join records",
        "deaths == death records",
        "pings == ping probe records",
    ]);
    assert_rows_hold(GuessSim::new(cfg).unwrap(), &expected);
}

#[test]
fn gnutella_reconciliation_rows_hold() {
    let cfg = GnutellaConfig::small_test(13).with_warmup(SimDuration::ZERO);
    let mut expected = QUERY_ROWS.to_vec();
    expected.extend([
        "total messages == flood probe records",
        "total messages == query_end sums",
        "births == join records",
        "deaths == death records",
    ]);
    assert_rows_hold(GnutellaSim::new(cfg).unwrap(), &expected);
}

#[test]
fn gossip_trace_reconciles_with_run_report() {
    // Zero warm-up: the report then covers every query, so the trace
    // totals must match exactly — including the horizon flush that ends
    // rumors still in flight.
    let cfg = GossipConfig::small_test(10).with_warmup(SimDuration::ZERO);
    let mut expected = QUERY_ROWS.to_vec();
    expected.extend([
        "total messages == push+pull probe records",
        "total messages == query_end sums",
        "births == join records",
        "deaths == death records",
    ]);
    let sink = assert_rows_hold(GossipSim::new(cfg).unwrap(), &expected);
    // Gossip emits only push/pull probes — no flood, query, or ping kinds.
    assert_eq!(sink.flood_probes + sink.query_probes + sink.ping_probes, 0);
}

#[test]
fn gossip_jsonl_trace_carries_push_and_pull_kinds() {
    let cfg = GossipConfig::small_test(11)
        .with_warmup(SimDuration::ZERO)
        .with_duration(SimDuration::from_secs(150.0));
    let sink = JsonlSink::new(Vec::new());
    let (_, sink) = GossipSim::new(cfg).unwrap().run_traced(sink);
    let (buf, counts, io_error) = sink.finish();
    assert!(io_error.is_none());
    let text = String::from_utf8(buf).unwrap();
    assert_eq!(text.lines().count() as u64, counts.total());
    assert!(text.contains("\"kind\": \"push\""));
    assert!(text.contains("\"kind\": \"pull\""));
}

#[test]
fn jsonl_sink_writes_one_wellformed_line_per_record() {
    let mut cfg = guess_cfg(8);
    cfg.run.duration = SimDuration::from_secs(150.0);
    cfg.run.warmup = SimDuration::from_secs(0.0);
    let sink = JsonlSink::new(Vec::new());
    let (_, sink) = GuessSim::new(cfg).unwrap().run_traced(sink);
    let lines_written = sink.lines;
    let (buf, counts, io_error) = sink.finish();
    assert!(io_error.is_none());
    let text = String::from_utf8(buf).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len() as u64, lines_written);
    assert_eq!(lines.len() as u64, counts.total());
    assert!(!lines.is_empty());
    for l in &lines {
        assert!(
            l.starts_with("{\"t\": "),
            "line does not open a JSON object: {l}"
        );
        assert!(l.ends_with('}'), "line does not close its object: {l}");
        assert!(l.contains("\"type\": \""), "line has no type field: {l}");
        assert!(!l.contains('\n'));
    }
}

/// FNV-1a, 64-bit — the helper the golden manifests use.
fn fnv1a(text: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for b in text.as_bytes() {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The full ordered record stream of one traced run under `scenario`,
/// as JSONL: every field of every record, times at full `f64` precision.
fn trace_text(sim: impl Runnable, scenario: &Scenario) -> String {
    let (_, sink) = sim
        .run_scenario_traced(scenario, JsonlSink::new(Vec::new()))
        .unwrap();
    let (buf, _, io_error) = sink.finish();
    assert!(io_error.is_none());
    String::from_utf8(buf).unwrap()
}

/// Checks one case's trace `text` for each of `needles` and echoes its
/// digest; returns the mismatch against `expected`, if any.
fn digest_drift(name: &str, text: &str, needles: &[&str], expected: u64) -> Option<String> {
    for needle in needles {
        assert!(text.contains(needle), "{name}: no record with {needle}");
    }
    let got = fnv1a(text);
    println!("{name}  0x{got:016x}");
    (got != expected).then(|| format!("{name}: expected 0x{expected:016x}, got 0x{got:016x}"))
}

fn assert_no_drift(drift: &[String]) {
    assert!(
        drift.is_empty(),
        "trace streams drifted:\n{}",
        drift.join("\n")
    );
}

/// The GUESS runs the digest and counter pins cover: one per message
/// kind and outcome the engine's contact step distinguishes, one per
/// extension hook (reputation, payments, selfish volleys, adaptive
/// walks, adaptive ping, push), and timelines through every scenario
/// intervention, including a mid-run flip into push mode.
fn guess_cases() -> [(&'static str, Config, Scenario); 11] {
    let churny = |seed| {
        let mut cfg = guess_cfg(seed);
        cfg.run.duration = SimDuration::from_secs(250.0);
        cfg.run.warmup = SimDuration::from_secs(50.0);
        cfg.with_lifespan_multiplier(0.2)
    };
    let no_backoff = |mut cfg: Config| {
        cfg.protocol.do_backoff = false;
        cfg
    };
    // The default 300 s coalesce window outlasts these runs; shorten it
    // so refresh flushes (and their relay trees) actually fire.
    let short_coalesce = |cfg: Config| {
        cfg.with_push_params(PushParams {
            coalesce_window: SimDuration::from_secs(20.0),
            ..PushParams::default()
        })
    };
    let pushy = |cfg: Config| short_coalesce(cfg.with_maintenance_mode(MaintenanceMode::Push));
    let plain = Scenario::new();
    [
        ("pull", churny(61), plain.clone()),
        (
            "hybrid",
            churny(62).with_maintenance_mode(MaintenanceMode::Hybrid),
            plain.clone(),
        ),
        (
            "push",
            pushy(churny(63)).with_max_probes_per_second(Some(1)),
            plain.clone(),
        ),
        (
            "distrust-dead-pongs",
            churny(64)
                .with_bad_peers(0.2, BadPongBehavior::Dead)
                .with_uniform_policy(SelectionPolicy::Mfs)
                .with_distrust_pongs(true),
            plain.clone(),
        ),
        (
            "refusals-no-backoff",
            no_backoff(
                churny(65)
                    .with_max_probes_per_second(Some(1))
                    .with_uniform_policy(SelectionPolicy::Mfs),
            ),
            plain.clone(),
        ),
        (
            "parallel-5",
            churny(66).with_parallel_probes(5),
            plain.clone(),
        ),
        (
            "payments-adaptive-selfish",
            churny(68)
                .with_selfish(0.3, 40)
                .with_adaptive_parallelism(true)
                .with_probe_payments(Some(PaymentParams {
                    initial_balance: 20.0,
                    allowance_per_sec: 0.3,
                    max_balance: 60.0,
                    earn_per_answer: 0.5,
                })),
            plain.clone(),
        ),
        (
            "partition-join-heal",
            pushy(churny(67)),
            Scenario::new()
                .at(60.0)
                .partition(2)
                .at(90.0)
                .mass_join(10)
                .at(130.0)
                .heal(),
        ),
        (
            "leave-flash-flip-partition-heal",
            churny(69),
            Scenario::new()
                .at(60.0)
                .mass_leave(15)
                .at(80.0)
                .partition(3)
                .at(100.0)
                .flash_crowd(40)
                .at(120.0)
                .param_flip(Param::QueryRate(0.03))
                .at(160.0)
                .heal(),
        ),
        ("adaptive-ping", churny(70).with_adaptive_ping(true), plain),
        (
            "flip-push-and-ping-interval",
            short_coalesce(churny(60)),
            Scenario::new()
                .at(80.0)
                .param_flip(Param::MaintenanceMode(MaintenanceMode::Push))
                .at(120.0)
                .param_flip(Param::PingInterval(SimDuration::from_secs(10.0))),
        ),
    ]
}

/// The goldens pin rendered reports; this pins the trace itself — every
/// `Probe` and `CacheEvict` record the GUESS engine emits, in order —
/// for each of [`guess_cases`]. Each case also names record fragments
/// its stream must contain, so a case cannot silently stop covering
/// what it is here for. To refresh after an intentional trace change,
/// run with `--nocapture` and copy the echoed digests.
#[test]
fn guess_trace_streams_match_pinned_digests() {
    const QUERY_DEAD: &str = "\"kind\": \"query\", \"outcome\": \"dead\"";
    const QUERY_REFUSED: &str = "\"kind\": \"query\", \"outcome\": \"refused\"";
    const PING_DEAD: &str = "\"kind\": \"ping\", \"outcome\": \"dead\"";
    const PING_GOOD: &str = "\"kind\": \"ping\", \"outcome\": \"good\"";
    const EVICT: &str = "\"type\": \"cache_evict\"";
    const INVALIDATE_GOOD: &str = "\"kind\": \"invalidate\", \"outcome\": \"good\"";
    const INVALIDATE_DEAD: &str = "\"kind\": \"invalidate\", \"outcome\": \"dead\"";
    const PUSH_REFUSED: &str = "\"kind\": \"invalidate\", \"outcome\": \"refused\"";
    const REFRESH_GOOD: &str = "\"kind\": \"refresh\", \"outcome\": \"good\"";

    let expected: [(&[&str], u64); 11] = [
        (
            &[QUERY_DEAD, PING_DEAD, PING_GOOD, EVICT],
            0x3ffc_6aa3_b6ba_fd7c,
        ),
        (
            &[INVALIDATE_GOOD, INVALIDATE_DEAD, EVICT],
            0xe85e_dd73_7423_c9fa,
        ),
        (
            &[
                INVALIDATE_GOOD,
                REFRESH_GOOD,
                PUSH_REFUSED,
                PING_DEAD,
                EVICT,
            ],
            0xd3b5_8dcd_9562_9aa8,
        ),
        (&[QUERY_DEAD, PING_DEAD, EVICT], 0x0c2e_aecb_c05e_5c65),
        (&[QUERY_REFUSED, QUERY_DEAD, EVICT], 0x6723_d5a6_dc03_22d2),
        (&[QUERY_DEAD, EVICT], 0x0fea_cb49_7ddd_23e7),
        (&[QUERY_DEAD, EVICT], 0x412a_6ede_ed68_a2ac),
        (
            &[QUERY_DEAD, PING_DEAD, INVALIDATE_DEAD, REFRESH_GOOD, EVICT],
            0xae92_65f1_7188_be7d,
        ),
        (
            &[QUERY_DEAD, PING_DEAD, PING_GOOD, EVICT],
            0x3095_b1fa_6889_f484,
        ),
        (&[PING_DEAD, PING_GOOD], 0x3ddc_361f_16a9_1a31),
        (
            &[PING_DEAD, INVALIDATE_GOOD, REFRESH_GOOD, EVICT],
            0x5277_da43_72cc_6b52,
        ),
    ];
    let drift: Vec<String> = guess_cases()
        .into_iter()
        .zip(expected)
        .filter_map(|((name, cfg, scenario), (needles, expected))| {
            let text = trace_text(GuessSim::new(cfg).unwrap(), &scenario);
            digest_drift(name, &text, needles, expected)
        })
        .collect();
    assert_no_drift(&drift);
}

/// Trace digests see probes and evictions, not the counters the
/// extension hooks bump (`sources_blacklisted`, `pongs_filtered`,
/// `probe_budget_exhausted`, `selfish_queries`, `push_coalesced`,
/// `push_refused`, ...): pin the printed counter set of the cases that
/// exercise them.
#[test]
fn counter_set_is_pinned() {
    let expected = [
        (
            "distrust-dead-pongs",
            "births=166 deaths=46 introductions=128 pings_answered=571 pings_dead=238 \
             pings_sent=809 pongs_filtered=37 sources_blacklisted=268",
        ),
        (
            "push",
            "births=193 deaths=73 introductions=478 pings_answered=382 pings_dead=84 \
             pings_sent=466 push_dropped=371 push_invalidations=456 push_refreshes=681 \
             push_refused=108",
        ),
        (
            "payments-adaptive-selfish",
            "births=168 deaths=48 introductions=317 pings_answered=795 pings_dead=174 \
             pings_sent=969 probe_budget_exhausted=133 selfish_births=46 selfish_queries=58",
        ),
        (
            "adaptive-ping",
            "births=179 deaths=59 introductions=442 pings_answered=812 pings_dead=169 \
             pings_sent=981",
        ),
    ];
    let cases = guess_cases();
    let drift: Vec<String> = expected
        .into_iter()
        .filter_map(|(name, want)| {
            let (_, cfg, scenario) = cases.iter().find(|c| c.0 == name).unwrap();
            let report = GuessSim::new(cfg.clone())
                .unwrap()
                .run_scenario(scenario)
                .unwrap();
            let got = report.counters.to_string();
            println!("{name}  {got}");
            (got != want).then(|| format!("{name}: expected {want:?}, got {got:?}"))
        })
        .collect();
    assert!(drift.is_empty(), "counters drifted:\n{}", drift.join("\n"));
}

/// The Gnutella twin of the test above: every flood `Probe` record, and
/// the exact `results` of every `QueryEnd`, pinned per case. Refresh as
/// there, with `--nocapture`.
#[test]
fn gnutella_trace_streams_match_pinned_digests() {
    const FLOOD_DUPLICATE: &str = "\"kind\": \"flood\", \"outcome\": \"duplicate\"";
    const FLOOD_GOOD: &str = "\"kind\": \"flood\", \"outcome\": \"good\"";
    let expected = [
        0x06cd_91e2_25fa_5cc5,
        0x7f77_704e_7c5e_d1bf,
        0x1f04_d3c7_8718_774d,
        0x11a7_41df_4263_f40d,
        0x0453_0dd0_c57b_5e5b,
    ];
    let drift: Vec<String> = gnutella_cases()
        .into_iter()
        .zip(expected)
        .filter_map(|((name, cfg, scenario), expected)| {
            let text = trace_text(GnutellaSim::new(cfg).unwrap(), &scenario);
            digest_drift(name, &text, &[FLOOD_DUPLICATE, FLOOD_GOOD], expected)
        })
        .collect();
    assert_no_drift(&drift);
}

/// The gossip runs both gossip trace tests cover: the plain small
/// configuration, a timeline through every intervention kind, and a
/// query that needs several results (untraced rounds stop checking
/// libraries once a rumor has them).
fn gossip_cases() -> [(&'static str, GossipConfig, Scenario); 3] {
    let cfg = |seed| {
        GossipConfig::small_test(seed)
            .with_duration(SimDuration::from_secs(250.0))
            .with_warmup(SimDuration::from_secs(50.0))
    };
    [
        ("small", cfg(81), Scenario::new()),
        (
            "leave-flash-flip-partition-heal",
            cfg(82),
            Scenario::new()
                .at(70.0)
                .mass_leave(20)
                .at(90.0)
                .partition(3)
                .at(110.0)
                .flash_crowd(30)
                .at(130.0)
                .param_flip(Param::Fanout(2))
                .at(170.0)
                .heal(),
        ),
        (
            "desired-3",
            cfg(83).with_num_desired_results(3),
            Scenario::new(),
        ),
    ]
}

#[test]
fn tracing_does_not_change_the_gossip_run() {
    for (name, cfg, scenario) in gossip_cases() {
        let untraced = GossipSim::new(cfg.clone())
            .unwrap()
            .run_scenario(&scenario)
            .unwrap();
        let (traced, _) = GossipSim::new(cfg)
            .unwrap()
            .run_scenario_traced(&scenario, CountingSink::new())
            .unwrap();
        assert_eq!(
            untraced, traced,
            "{name}: attaching a sink changed the simulation"
        );
    }
}

/// The gossip twin: every push and pull `Probe` record, and the exact
/// `results` of every `QueryEnd`, pinned per case. Refresh as above,
/// with `--nocapture`.
#[test]
fn gossip_trace_streams_match_pinned_digests() {
    const PUSH_GOOD: &str = "\"kind\": \"push\", \"outcome\": \"good\"";
    const PUSH_REFUSED: &str = "\"kind\": \"push\", \"outcome\": \"refused\"";
    const PULL: &str = "\"kind\": \"pull\"";
    let expected: [(&[&str], u64); 3] = [
        (&[PUSH_GOOD, PULL], 0x98ae_f3a5_bb05_33a0),
        (&[PUSH_GOOD, PUSH_REFUSED, PULL], 0xe06e_f266_a255_5e1c),
        (&[PUSH_GOOD, PULL], 0x8e07_9067_d64b_0805),
    ];
    let drift: Vec<String> = gossip_cases()
        .into_iter()
        .zip(expected)
        .filter_map(|((name, cfg, scenario), (needles, expected))| {
            let text = trace_text(GossipSim::new(cfg).unwrap(), &scenario);
            digest_drift(name, &text, needles, expected)
        })
        .collect();
    assert_no_drift(&drift);
}
