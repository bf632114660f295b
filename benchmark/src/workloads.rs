//! The seven workloads: how each is configured from the seed, how one
//! repetition is set up, run and checked, and which per-layer counts its
//! report and trace sink give.
//!
//! Every workload is a closed loop in one process: the next repetition
//! starts when the previous one has returned. Engine workloads take
//! their master seed from `--seed`; `paper-quick` runs the registry's
//! experiments, whose seeds are pinned by the golden manifest.

use std::fmt::{Debug, Write as _};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use gnutella::dynamic::{GnutellaConfig, GnutellaReport, GnutellaSim};
use gossip::{GossipReport, GossipSim};
use guess::{GuessSim, MaintenanceMode, RunReport};
use guess_bench::alloc_meter;
use guess_bench::experiments::{self, Experiment};
use guess_bench::runner::Ctx;
use guess_bench::scale::{base_config, strained_config, Scale};
use simkit::sim::{Runnable, SimReport};
use simkit::stats::Summary;
use simkit::time::SimDuration;
use simkit::trace::CountingSink;

use crate::json::{obj, s, Json};
use crate::spans::Tracer;
use crate::stats::{fnv1a, Fnv1a};

/// The golden manifest `paper-quick` is checked against, read from the
/// repo at run time so a change to the goldens needs no change here.
const GOLDEN_MANIFEST: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../crates/bench/tests/golden/quick.fnv1a.txt"
);

/// Worker threads of `guess-lanes` and jobs of `paper-quick`: the host's
/// two cores, never more.
pub const THREADS: usize = 2;

/// The experiments `--smoke` runs in place of all thirty: the registry's
/// cheapest, still checked against the golden manifest.
const SMOKE_EXPERIMENTS: [&str; 4] = ["fig6", "fig8", "response", "forwarding"];

/// A per-layer metric value under its registered name.
pub type LayerValue = (&'static str, f64);

/// One workload, configured.
pub struct Workload {
    pub name: &'static str,
    case: Case,
}

enum Case {
    Paper(Vec<Experiment>),
    Guess(guess::Config),
    GuessLanes(guess::Config),
    Gnutella(GnutellaConfig),
    Gossip(gossip::Config),
}

/// What one repetition measured and checked.
#[derive(Debug, Default)]
pub struct Rep {
    pub setup_s: f64,
    pub run_s: f64,
    pub events: u64,
    pub msgs: u64,
    /// Peak heap growth over set-up and run, bytes.
    pub peak_heap: usize,
    /// FNV-1a of the report: `{:?}` of an engine report, the
    /// `name  hash` lines of `render_text()` for experiments.
    pub digest: u64,
    /// One line per failed operation (an engine run is one operation,
    /// an experiment of `paper-quick` is one).
    pub failures: Vec<String>,
    /// Per-layer counts and ratios; filled by a traced repetition only.
    pub layer: Vec<LayerValue>,
}

fn secs(x: f64) -> SimDuration {
    SimDuration::from_secs(x)
}

impl Workload {
    /// Configures the workload called `name` from the run's seed.
    /// `smoke` shrinks it to N <= 500 and a few hundred simulated
    /// seconds.
    pub fn new(name: &str, seed: u64, smoke: bool) -> Option<Workload> {
        let (name, _) = *crate::names::WORKLOADS.iter().find(|(n, _)| *n == name)?;
        // (duration, warm-up) in simulated seconds.
        let horizon = |full: (f64, f64)| if smoke { (400.0, 100.0) } else { full };
        let size = |full: usize, tiny: usize| if smoke { tiny } else { full };
        let guess_horizon = |mut cfg: guess::Config, (duration, warmup): (f64, f64)| {
            cfg.run.duration = secs(duration);
            cfg.run.warmup = secs(warmup);
            cfg
        };
        let case = match name {
            "paper-quick" => {
                let mut all = experiments::all();
                if smoke {
                    all.retain(|e| SMOKE_EXPERIMENTS.contains(&e.name));
                }
                Case::Paper(all)
            }
            "guess-query" => {
                let cfg = base_config(Scale::Full, seed).with_network_size(size(1000, 300));
                Case::Guess(guess_horizon(cfg, horizon((6000.0, 600.0))))
            }
            "guess-maint-large" => {
                let mut cfg = base_config(Scale::Full, seed)
                    .with_network_size(size(250_000, 500))
                    .with_queries(false);
                if smoke {
                    // Keep the sampled-metrics path engaged at smoke size.
                    cfg = cfg.with_metrics_sampling(200, 100);
                }
                Case::Guess(guess_horizon(cfg, (120.0, 30.0)))
            }
            "guess-churn-push" => {
                let cfg = strained_config(Scale::Full, size(4000, 400), 20, seed)
                    .with_maintenance_mode(MaintenanceMode::Push);
                Case::Guess(guess_horizon(cfg, horizon((2400.0, 600.0))))
            }
            "guess-lanes" => {
                let cfg = base_config(Scale::Full, seed)
                    .with_network_size(size(4000, 480))
                    .with_lanes(size(8, 4));
                Case::GuessLanes(guess_horizon(cfg, horizon((2400.0, 600.0))))
            }
            "gnutella-flood" => {
                let (duration, warmup) = horizon((3600.0, 600.0));
                let cfg = GnutellaConfig::default()
                    .with_network_size(size(2000, 200))
                    .with_duration(secs(duration))
                    .with_warmup(secs(warmup))
                    .with_seed(seed);
                Case::Gnutella(cfg)
            }
            "gossip-epidemic" => {
                let (duration, warmup) = horizon((2400.0, 600.0));
                let cfg = gossip::Config::default()
                    .with_network_size(size(8000, 500))
                    .with_duration(secs(duration))
                    .with_warmup(secs(warmup))
                    .with_seed(seed);
                Case::Gossip(cfg)
            }
            _ => unreachable!("every registered workload is configured above"),
        };
        Some(Workload { name, case })
    }

    /// The configuration parameters written to the result manifest.
    pub fn params(&self) -> Json {
        let guess_params = |cfg: &guess::Config, threads: usize| {
            obj([
                ("engine", s("guess")),
                ("network_size", Json::Int(cfg.system.network_size as u64)),
                ("cache_size", Json::Int(cfg.protocol.cache_size as u64)),
                (
                    "lifespan_multiplier",
                    Json::Num(cfg.system.lifespan_multiplier),
                ),
                (
                    "maintenance_mode",
                    s(format!("{:?}", cfg.protocol.maintenance_mode)),
                ),
                ("simulate_queries", Json::Bool(cfg.run.simulate_queries)),
                ("duration_s", Json::Num(cfg.run.duration.as_secs())),
                ("warmup_s", Json::Num(cfg.run.warmup.as_secs())),
                ("lanes", Json::Int(cfg.run.lanes as u64)),
                ("threads", Json::Int(threads as u64)),
            ])
        };
        match &self.case {
            Case::Paper(list) => obj([
                ("engine", s("experiments")),
                ("scale", s("Quick")),
                ("jobs", Json::Int(THREADS as u64)),
                ("experiments", Json::Int(list.len() as u64)),
            ]),
            Case::Guess(cfg) => guess_params(cfg, 1),
            Case::GuessLanes(cfg) => guess_params(cfg, THREADS),
            Case::Gnutella(cfg) => obj([
                ("engine", s("gnutella")),
                ("network_size", Json::Int(cfg.network_size as u64)),
                ("ttl", Json::Int(cfg.ttl as u64)),
                ("duration_s", Json::Num(cfg.duration.as_secs())),
                ("warmup_s", Json::Num(cfg.warmup.as_secs())),
            ]),
            Case::Gossip(cfg) => obj([
                ("engine", s("gossip")),
                ("network_size", Json::Int(cfg.network_size as u64)),
                ("fanout", Json::Int(cfg.fanout as u64)),
                ("duration_s", Json::Num(cfg.duration.as_secs())),
                ("warmup_s", Json::Num(cfg.warmup.as_secs())),
            ]),
        }
    }

    /// The per-layer metric that holds this workload's host nanoseconds
    /// per simulated message, if its engine has one.
    pub fn ns_per_msg_metric(&self) -> Option<&'static str> {
        match &self.case {
            Case::Paper(_) => None,
            Case::Guess(_) => Some("guess.engine.ns_per_msg"),
            Case::GuessLanes(_) => Some("guess.engine.lanes.ns_per_msg"),
            Case::Gnutella(_) => Some("gnutella.dynamic.ns_per_msg"),
            Case::Gossip(_) => Some("gossip.engine.ns_per_msg"),
        }
    }

    /// Operations one repetition attempts.
    pub fn ops_per_rep(&self) -> u64 {
        match &self.case {
            Case::Paper(list) => list.len() as u64,
            _ => 1,
        }
    }

    /// Sets the workload up once more and drops the result: an extra
    /// `setup_s` sample that costs no run.
    pub fn setup_once(&self) -> f64 {
        let started = Instant::now();
        match &self.case {
            Case::Paper(_) => drop(paper_setup(THREADS)),
            Case::Guess(cfg) | Case::GuessLanes(cfg) => drop(cfg.build_checked()),
            Case::Gnutella(cfg) => drop(cfg.build_checked()),
            Case::Gossip(cfg) => drop(cfg.build_checked()),
        }
        started.elapsed().as_secs_f64()
    }

    /// One repetition: set-up, run, report digest and checks. Given a
    /// `tracer` it is the traced repetition: spans are recorded, the run
    /// feeds a `CountingSink` (`guess-lanes`, which takes no sink, is run
    /// again on one thread instead; `paper-quick` runs at jobs 1 so that
    /// a span is an experiment's own time, not its wait for a permit)
    /// and the per-layer values are filled in.
    ///
    /// A panic anywhere inside is caught and returned as the error: every
    /// operation of the repetition has failed.
    pub fn rep(&self, mut tracer: Option<&mut Tracer>) -> Result<Rep, String> {
        let attempt = catch_unwind(AssertUnwindSafe(|| match &self.case {
            Case::Paper(list) => paper_rep(list, &mut tracer),
            Case::Guess(cfg) => serial_rep(cfg, &mut tracer),
            Case::GuessLanes(cfg) => lanes_rep(cfg, &mut tracer),
            Case::Gnutella(cfg) => serial_rep(cfg, &mut tracer),
            Case::Gossip(cfg) => serial_rep(cfg, &mut tracer),
        }));
        attempt.map_err(|panic| {
            if let Some(t) = tracer {
                t.close_open();
            }
            let what = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("non-string panic");
            format!("panic: {what}")
        })
    }
}

/// Runs `f` under a span named `name` when tracing, and times it either
/// way.
fn timed<R>(tracer: &mut Option<&mut Tracer>, name: &str, f: impl FnOnce() -> R) -> (R, f64) {
    let started = Instant::now();
    let result = match tracer {
        Some(t) => t.span(name, |_| f()),
        None => f(),
    };
    (result, started.elapsed().as_secs_f64())
}

/// Starts a heap measurement: the level to subtract from the peak later.
fn heap_mark() -> usize {
    alloc_meter::reset_peak();
    alloc_meter::current_bytes()
}

/// FNV-1a of `{:?}` of `value`, hashed as it is formatted (a 250 000-peer
/// report prints megabytes).
fn debug_digest(value: &impl Debug) -> u64 {
    let mut hasher = Fnv1a::new();
    write!(hasher, "{value:?}").expect("hashing cannot fail");
    hasher.finish()
}

/// What the harness needs from an engine's config, simulator and report.
/// Implemented on the three config types, so the serial repetition is
/// written once.
trait EngineCase {
    type Sim: Runnable<Report = Self::Report>;
    type Report: SimReport + Debug;
    /// Span prefix: the crate that is the engine.
    const ENGINE: &'static str;

    /// Validates the config; a workload's config is fixed, so an invalid
    /// one is a bug in this file and panics.
    fn check(&self);
    /// Builds and populates the simulator (same contract).
    fn build(&self) -> Self::Sim;
    /// Simulated protocol messages of the run.
    fn msgs(report: &Self::Report) -> u64;
    /// Invariants of an untraced report; one line per violation.
    fn violations(&self, report: &Self::Report) -> Vec<String>;
    /// Per-layer counts and ratios, and the report-versus-sink
    /// reconciliation (lines appended to `failures`).
    fn layer(
        &self,
        report: &Self::Report,
        sink: &CountingSink,
        rep: &Rep,
        failures: &mut Vec<String>,
    ) -> Vec<LayerValue>;

    /// Validates and builds, as the timed set-up does.
    fn build_checked(&self) -> Self::Sim {
        self.check();
        self.build()
    }
}

fn expect_eq(failures: &mut Vec<String>, what: &str, report: u64, sink: u64) {
    if report != sink {
        failures.push(format!("{what}: report says {report}, trace sink {sink}"));
    }
}

/// The integer a `Summary` of per-query counts sums to (its running sum
/// is kept as mean x count, so it carries rounding dust).
fn total_of(summary: &Summary) -> u64 {
    summary.sum().round() as u64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// GUESS messages: query probes of measured queries, maintenance pings,
/// and pushed invalidations and refreshes (zero in pull mode).
fn guess_msgs(report: &RunReport) -> u64 {
    total_of(&report.total_probes)
        + report.counters.get("pings_sent")
        + report.counters.get("push_invalidations")
        + report.counters.get("push_refreshes")
}

fn guess_violations(cfg: &guess::Config, report: &RunReport) -> Vec<String> {
    let mut out = Vec::new();
    let (good, dead, refused, total) = (
        total_of(&report.good_probes),
        total_of(&report.dead_probes),
        total_of(&report.refused_probes),
        total_of(&report.total_probes),
    );
    if total != good + dead + refused {
        out.push(format!(
            "probe conservation: total {total} != good {good} + dead {dead} + refused {refused}"
        ));
    }
    if report.unsatisfied > report.queries {
        out.push(format!(
            "unsatisfied {} > queries {}",
            report.unsatisfied, report.queries
        ));
    }
    if cfg.run.simulate_queries == (report.queries == 0) {
        out.push(format!(
            "queries {} with simulate_queries = {}",
            report.queries, cfg.run.simulate_queries
        ));
    }
    if report.events_processed == 0 {
        out.push("no kernel events processed".into());
    }
    out
}

/// The values every GUESS run reports, serial or laned, under the
/// `names` of its layer: `probes_per_query`, `unsatisfied_frac`.
fn guess_run_layer(names: [&'static str; 2], report: &RunReport) -> Vec<LayerValue> {
    vec![
        (names[0], report.probes_per_query()),
        (names[1], report.unsatisfaction()),
    ]
}

impl EngineCase for guess::Config {
    type Sim = GuessSim;
    type Report = RunReport;
    const ENGINE: &'static str = "guess.engine";

    fn check(&self) {
        self.validate().expect("workload config validates");
    }
    fn build(&self) -> GuessSim {
        GuessSim::new(self.clone()).expect("workload config builds")
    }
    fn msgs(report: &RunReport) -> u64 {
        guess_msgs(report)
    }
    fn violations(&self, report: &RunReport) -> Vec<String> {
        guess_violations(self, report)
    }
    fn layer(
        &self,
        report: &RunReport,
        sink: &CountingSink,
        rep: &Rep,
        failures: &mut Vec<String>,
    ) -> Vec<LayerValue> {
        let c = &report.counters;
        expect_eq(failures, "births", c.get("births"), sink.joins);
        expect_eq(failures, "deaths", c.get("deaths"), sink.deaths);
        expect_eq(failures, "pings", c.get("pings_sent"), sink.ping_probes);
        expect_eq(
            failures,
            "query probes",
            sink.query_end_probes,
            sink.query_probes,
        );
        expect_eq(
            failures,
            "queries started/ended",
            sink.query_starts,
            sink.query_ends,
        );
        expect_eq(
            failures,
            "push invalidations",
            c.get("push_invalidations"),
            sink.invalidate_probes,
        );
        expect_eq(
            failures,
            "push refreshes",
            c.get("push_refreshes"),
            sink.refresh_probes,
        );
        let peers = self.system.network_size;
        let mut out = vec![
            ("guess.link_cache.evictions", sink.evictions as f64),
            (
                "guess.push.invalidate_probes",
                sink.invalidate_probes as f64,
            ),
            ("guess.push.refresh_probes", sink.refresh_probes as f64),
            ("guess.push.dropped", c.get("push_dropped") as f64),
            (
                "guess.engine.new_ms_per_kpeer",
                rep.setup_s * 1e3 / (peers as f64 / 1e3),
            ),
            ("guess.engine.queries", report.queries as f64),
            ("guess.engine.query_probes", sink.query_probes as f64),
            (
                "guess.engine.good_probes",
                total_of(&report.good_probes) as f64,
            ),
            (
                "guess.engine.dead_probes",
                total_of(&report.dead_probes) as f64,
            ),
            (
                "guess.engine.refused_probes",
                total_of(&report.refused_probes) as f64,
            ),
            ("guess.engine.ping_probes", sink.ping_probes as f64),
            (
                "guess.engine.useful_probe_frac",
                ratio(
                    total_of(&report.good_probes) as f64,
                    total_of(&report.total_probes) as f64,
                ),
            ),
            (
                "guess.engine.bytes_per_peer",
                (rep.peak_heap / peers) as f64,
            ),
        ];
        out.extend(guess_run_layer(
            [
                "guess.engine.probes_per_query",
                "guess.engine.unsatisfied_frac",
            ],
            report,
        ));
        out
    }
}

impl EngineCase for GnutellaConfig {
    type Sim = GnutellaSim;
    type Report = GnutellaReport;
    const ENGINE: &'static str = "gnutella.dynamic";

    fn check(&self) {
        self.validate().expect("workload config validates");
    }
    fn build(&self) -> GnutellaSim {
        self.clone().build().expect("workload config builds")
    }
    fn msgs(report: &GnutellaReport) -> u64 {
        total_of(&report.messages)
    }
    fn violations(&self, report: &GnutellaReport) -> Vec<String> {
        flood_violations(report.queries, report.unsatisfied, report.events_processed)
    }
    fn layer(
        &self,
        report: &GnutellaReport,
        sink: &CountingSink,
        _rep: &Rep,
        failures: &mut Vec<String>,
    ) -> Vec<LayerValue> {
        // Flood probe records cover every transmission, warm-up included.
        expect_eq(
            failures,
            "flood probes",
            sink.query_end_probes,
            sink.flood_probes,
        );
        vec![
            ("gnutella.dynamic.flood_probes", sink.flood_probes as f64),
            (
                "gnutella.dynamic.msgs_per_query",
                report.messages_per_query(),
            ),
        ]
    }
}

impl EngineCase for gossip::Config {
    type Sim = GossipSim;
    type Report = GossipReport;
    const ENGINE: &'static str = "gossip.engine";

    fn check(&self) {
        self.validate().expect("workload config validates");
    }
    fn build(&self) -> GossipSim {
        self.clone().build().expect("workload config builds")
    }
    fn msgs(report: &GossipReport) -> u64 {
        total_of(&report.messages)
    }
    fn violations(&self, report: &GossipReport) -> Vec<String> {
        flood_violations(report.queries, report.unsatisfied, report.events_processed)
    }
    fn layer(
        &self,
        report: &GossipReport,
        sink: &CountingSink,
        _rep: &Rep,
        failures: &mut Vec<String>,
    ) -> Vec<LayerValue> {
        let c = &report.counters;
        expect_eq(failures, "births", c.get("births"), sink.joins);
        expect_eq(failures, "deaths", c.get("deaths"), sink.deaths);
        expect_eq(
            failures,
            "rumors started/settled",
            sink.query_starts,
            sink.query_ends,
        );
        expect_eq(
            failures,
            "push+pull probes",
            sink.query_end_probes,
            sink.push_probes + sink.pull_probes,
        );
        vec![
            ("gossip.engine.push_probes", sink.push_probes as f64),
            ("gossip.engine.pull_probes", sink.pull_probes as f64),
            ("gossip.engine.dedup_frac", report.dedup_fraction()),
            ("gossip.engine.rounds", c.get("rounds") as f64),
        ]
    }
}

fn flood_violations(queries: u64, unsatisfied: u64, events: u64) -> Vec<String> {
    let mut out = Vec::new();
    if queries == 0 {
        out.push("no queries measured".to_string());
    }
    if unsatisfied > queries {
        out.push(format!("unsatisfied {unsatisfied} > queries {queries}"));
    }
    if events == 0 {
        out.push("no kernel events processed".to_string());
    }
    out
}

/// The layer values every serial engine run shares.
fn kernel_layer(events: u64, sink: &CountingSink) -> Vec<LayerValue> {
    vec![
        ("simkit.sim.events", events as f64),
        ("simkit.sim.joins", sink.joins as f64),
        ("simkit.sim.deaths", sink.deaths as f64),
        ("simkit.trace.records", sink.total() as f64),
    ]
}

/// One repetition of a serial engine workload.
fn serial_rep<C: EngineCase>(cfg: &C, tracer: &mut Option<&mut Tracer>) -> Rep {
    let traced = tracer.is_some();
    let heap_from = heap_mark();
    let ((), validate_s) = timed(tracer, "validate", || cfg.check());
    let (sim, new_s) = timed(tracer, &format!("{}.new", C::ENGINE), || cfg.build());
    let ((report, sink), run_s) = timed(tracer, &format!("{}.run", C::ENGINE), || {
        if traced {
            sim.run_traced(CountingSink::new())
        } else {
            (sim.run(), CountingSink::new())
        }
    });
    let peak_heap = alloc_meter::peak_bytes().saturating_sub(heap_from);
    let (digest, _) = timed(tracer, "report", || debug_digest(&report));
    let mut rep = Rep {
        setup_s: validate_s + new_s,
        run_s,
        events: report.events_processed(),
        msgs: C::msgs(&report),
        peak_heap,
        digest,
        ..Rep::default()
    };
    let mut failures = cfg.violations(&report);
    if traced {
        rep.layer = kernel_layer(rep.events, &sink);
        rep.layer
            .extend(cfg.layer(&report, &sink, &rep, &mut failures));
    }
    // One operation, however many of its checks failed.
    if !failures.is_empty() {
        rep.failures = vec![failures.join("; ")];
    }
    rep
}

/// One repetition of `guess-lanes`. `run_s` is the whole `run_lanes`
/// call, which builds its lanes inside; `setup_s` is a separate
/// `GuessSim::new` of the same config. The traced repetition runs the
/// lanes again on one thread: the digest must not change, and the time
/// ratio is `simkit.lanes.thread_speedup`.
fn lanes_rep(cfg: &guess::Config, tracer: &mut Option<&mut Tracer>) -> Rep {
    let traced = tracer.is_some();
    let heap_from = heap_mark();
    let ((), validate_s) = timed(tracer, "validate", || cfg.check());
    let ((), new_s) = timed(tracer, "guess.engine.new", || drop(cfg.build()));
    let (report, run_s) = timed(tracer, "guess.engine.lanes.run", || {
        guess::run_lanes(cfg.clone(), THREADS).expect("workload config validates")
    });
    let peak_heap = alloc_meter::peak_bytes().saturating_sub(heap_from);
    let (digest, _) = timed(tracer, "report", || debug_digest(&report));
    let mut rep = Rep {
        setup_s: validate_s + new_s,
        run_s,
        events: report.events_processed,
        msgs: guess_msgs(&report),
        peak_heap,
        digest,
        ..Rep::default()
    };
    let mut failures = guess_violations(cfg, &report);
    if report.counters.get("lanes") != cfg.run.lanes as u64 {
        failures.push(format!(
            "report says {} lanes, config {}",
            report.counters.get("lanes"),
            cfg.run.lanes
        ));
    }
    if traced {
        let (single, single_s) = timed(tracer, "guess.engine.lanes.run.threads1", || {
            guess::run_lanes(cfg.clone(), 1).expect("workload config validates")
        });
        if single != report {
            failures.push(format!(
                "digest at 1 thread {:016x} differs from {THREADS} threads {digest:016x}",
                debug_digest(&single)
            ));
        }
        let c = &report.counters;
        rep.layer = vec![
            ("simkit.sim.events", rep.events as f64),
            ("simkit.sim.joins", c.get("births") as f64),
            ("simkit.sim.deaths", c.get("deaths") as f64),
            ("simkit.lanes.thread_speedup", ratio(single_s, run_s)),
            (
                "guess.engine.lanes.remote_probes",
                c.get("remote_probes") as f64,
            ),
            (
                "guess.engine.lanes.remote_spills",
                c.get("remote_spills") as f64,
            ),
        ];
        rep.layer.extend(guess_run_layer(
            [
                "guess.engine.lanes.probes_per_query",
                "guess.engine.lanes.unsatisfied_frac",
            ],
            &report,
        ));
    }
    if !failures.is_empty() {
        rep.failures = vec![failures.join("; ")];
    }
    rep
}

/// Set-up of `paper-quick`: the registry, the runner context and the
/// golden manifest.
fn paper_setup(jobs: usize) -> (Vec<Experiment>, Ctx, Vec<(String, u64)>) {
    let registry = experiments::all();
    let ctx = Ctx::new(Scale::Quick, jobs);
    let text = std::fs::read_to_string(GOLDEN_MANIFEST)
        .unwrap_or_else(|e| panic!("golden manifest {GOLDEN_MANIFEST}: {e}"));
    let golden = text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let mut parts = l.split_whitespace();
            let name = parts.next().expect("manifest line has a name");
            let hash = parts.next().expect("manifest line has a hash");
            let hash = u64::from_str_radix(hash.trim_start_matches("0x"), 16)
                .expect("manifest hash parses as hex");
            (name.to_string(), hash)
        })
        .collect();
    (registry, ctx, golden)
}

/// One repetition of `paper-quick`: every selected experiment on its own
/// thread, as `repro all` runs them, the runner's permits keeping two
/// simulations in flight. Each experiment is one operation; it fails on
/// a panic or on a rendered report that misses its golden hash.
fn paper_rep(selected: &[Experiment], tracer: &mut Option<&mut Tracer>) -> Rep {
    let heap_from = heap_mark();
    let jobs = if tracer.is_some() { 1 } else { THREADS };
    let ((_, ctx, golden), setup_s) = timed(tracer, "bench.runner.new", || paper_setup(jobs));
    // The hash of the rendered report (`None` after a panic) and the
    // experiment's wall time.
    let one = |e: &Experiment| -> (Option<u64>, f64) {
        let started = Instant::now();
        let hash = catch_unwind(AssertUnwindSafe(|| {
            fnv1a((e.run)(&ctx).render_text().as_bytes())
        }))
        .ok();
        (hash, started.elapsed().as_secs_f64())
    };
    let started = Instant::now();
    let outcomes: Vec<(Option<u64>, f64)> = match tracer {
        Some(t) => t.span("bench.experiments.run", |t| {
            selected
                .iter()
                .map(|e| t.span(e.name, |_| one(e)))
                .collect()
        }),
        None => std::thread::scope(|scope| {
            let handles: Vec<_> = selected.iter().map(|e| scope.spawn(|| one(e))).collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("experiment thread catches its panics"))
                .collect()
        }),
    };
    let run_s = started.elapsed().as_secs_f64();
    let peak_heap = alloc_meter::peak_bytes().saturating_sub(heap_from);

    let ((manifest, failures, finished), _) = timed(tracer, "report", || {
        let mut manifest = String::new();
        let mut failures = Vec::new();
        let mut finished = 0u64;
        for (e, (hash, _)) in selected.iter().zip(&outcomes) {
            let expected = golden.iter().find(|(n, _)| n == e.name).map(|(_, h)| *h);
            finished += u64::from(hash.is_some());
            match (hash, expected) {
                (Some(got), Some(want)) if *got == want => {}
                (Some(got), Some(want)) => failures.push(format!(
                    "{}: rendered 0x{got:016x}, golden 0x{want:016x}",
                    e.name
                )),
                (Some(_), None) => {
                    failures.push(format!("{}: not in the golden manifest", e.name));
                }
                (None, _) => failures.push(format!("{}: panicked", e.name)),
            }
            writeln!(manifest, "{}  0x{:016x}", e.name, hash.unwrap_or(0)).expect("string write");
        }
        (manifest, failures, finished)
    });
    let mut rep = Rep {
        setup_s,
        run_s,
        // No event or message counter of the experiments is reachable
        // from outside the crates: both rates count this workload's own
        // unit of work, finished experiments.
        events: finished,
        msgs: finished,
        peak_heap,
        digest: fnv1a(manifest.as_bytes()),
        failures,
        ..Rep::default()
    };
    if tracer.is_some() {
        let mut walls: Vec<f64> = outcomes.iter().map(|(_, wall)| *wall).collect();
        walls.sort_by(|a, b| b.total_cmp(a));
        rep.layer = vec![
            ("bench.experiments.slowest_experiment_s", walls[0]),
            (
                "bench.experiments.top3_share",
                ratio(walls.iter().take(3).sum(), walls.iter().sum()),
            ),
        ];
    }
    rep
}
