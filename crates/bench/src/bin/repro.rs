//! `repro` — regenerate the paper's tables and figures.
//!
//! Usage:
//!
//! ```text
//! repro all [--quick] [--jobs N] [--shard i/m] [--out <dir>] [--json]
//! repro <experiment> [<experiment> ...] [--quick] [--jobs N] [--shard i/m] [--out <dir>] [--json]
//! repro scenario <name>|all [--quick] [--jobs N] [--out <dir>] [--json]
//! repro --trace <path> [--engine guess|gossip|gnutella] [--quick]
//! repro --list
//! ```
//!
//! Experiments: `table3`, `fig3` … `fig21`, `response`, plus the
//! extension studies `selfish`, `adaptive`, `defense`, `fragmentation`,
//! `payments`, `forwarding`, and `gossip`.
//! With `--out <dir>`, each report is additionally written to
//! `<dir>/<name>.txt`; adding `--json` also writes `<dir>/<name>.json`
//! (structured blocks, see [`guess_bench::report::Report::render_json`]).
//!
//! `--jobs N` bounds how many simulations run at once — across
//! experiments and across the sweep points inside each one. Every sweep
//! point carries its own RNG seed, so the reports are byte-identical at
//! any `--jobs` level; only wall-clock time changes.
//!
//! `--shard i/m` keeps only every `m`-th selected experiment starting
//! at index `i` — the grid split into `m` independently runnable work
//! units (separate machines, separate invocations). Seed-addressed
//! determinism makes the merge trivial: the union of the shards'
//! `--out` files is byte-identical to the unsharded run's output.
//!
//! `--trace <path>` runs one base-configuration simulation with the
//! structured trace layer on, streaming every record to `<path>` as
//! JSON Lines (schema in EXPERIMENTS.md), then reconciles the trace
//! totals against the run's own report before exiting. `--engine`
//! selects which simulator is traced: `guess` (default), `gossip` or
//! `gnutella` (dynamic flooding).
//!
//! An argument starting with `--` that is not listed above is an error
//! (exit 2), never silently dropped. Performance is measured by the
//! repo benchmark, a package of its own: see `benchmark/README.md`.

use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::Instant;

use guess_bench::experiments;
use guess_bench::report::Report;
use guess_bench::runner::Ctx;
use guess_bench::scale::Scale;
use simkit::sim::Runnable;
use simkit::time::SimDuration;
use simkit::trace::CountingSink;

/// The parsed command line: every flag `repro` knows, plus the
/// positional experiment or scenario names.
struct Cli<'a> {
    quick: bool,
    json: bool,
    jobs: usize,
    shard: Option<(usize, usize)>,
    out_dir: Option<PathBuf>,
    trace: Option<PathBuf>,
    engine: &'a str,
    names: Vec<&'a str>,
}

/// Parses `args` in one walk. Flags that take a value consume the next
/// argument, so `--out DIR`'s DIR is never taken for a name; an
/// unrecognised `--flag` is an error rather than a silent no-op.
/// `scenario` is the `repro scenario …` form, which has no shards and
/// no traced run.
fn parse_cli(args: &[String], scenario: bool) -> Result<Cli<'_>, String> {
    let mut cli = Cli {
        quick: false,
        json: false,
        jobs: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        shard: None,
        out_dir: None,
        trace: None,
        engine: "guess",
        names: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--shard" | "--trace" | "--engine" if scenario => {
                return Err(format!("{arg} does not apply to `repro scenario`"));
            }
            "--quick" => cli.quick = true,
            "--json" => cli.json = true,
            "--jobs" => {
                cli.jobs = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--jobs needs a positive integer")?;
            }
            "--shard" => {
                let spec = it
                    .next()
                    .and_then(|v| parse_shard(v))
                    .ok_or("--shard needs i/m with 0 <= i < m (e.g. --shard 0/4)")?;
                cli.shard = Some(spec);
            }
            "--out" => {
                cli.out_dir = Some(PathBuf::from(it.next().ok_or("--out needs a directory")?));
            }
            "--trace" => {
                cli.trace = Some(PathBuf::from(it.next().ok_or("--trace needs a file path")?));
            }
            "--engine" => match it.next().map(String::as_str) {
                Some(name @ ("guess" | "gossip" | "gnutella")) => cli.engine = name,
                Some(other) => {
                    return Err(format!(
                        "unknown --engine '{other}' (expected guess, gossip or gnutella)"
                    ));
                }
                None => {
                    return Err("--engine needs a value (guess, gossip or gnutella)".to_string())
                }
            },
            flag if flag.starts_with("--") => return Err(format!("unknown flag '{flag}'")),
            name => cli.names.push(name),
        }
    }
    if cli.json && cli.out_dir.is_none() {
        return Err("--json needs --out <dir> to know where to write the files".to_string());
    }
    Ok(cli)
}

/// Reports a command-line error with the usage text and exits 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("repro: {msg}\n\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return;
    }
    if args.iter().any(|a| a == "--list") {
        println!("experiments (repro <name>):");
        for e in experiments::all() {
            println!("  {:<14} {}", e.name, e.description);
        }
        println!("\nscenarios (repro scenario <name>):");
        for s in guess_bench::scenarios::all() {
            println!("  {:<14} [{}] {}", s.name, s.engine, s.description);
        }
        return;
    }
    if args[0] == "bench" {
        usage_error("`bench` is not a repro command; the repo benchmark is benchmark/README.md");
    }
    let scenario = args[0] == "scenario";
    let cli =
        parse_cli(&args[usize::from(scenario)..], scenario).unwrap_or_else(|msg| usage_error(&msg));
    let scale = if cli.quick { Scale::Quick } else { Scale::Full };
    if let Some(path) = &cli.trace {
        match cli.engine {
            "gossip" => run_traced_gossip(path, scale),
            "gnutella" => run_traced_gnutella(path, scale),
            _ => run_traced_guess(path, scale),
        }
        return;
    }
    if let Some(dir) = &cli.out_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create output directory {}: {e}", dir.display());
            std::process::exit(1);
        }
    }
    let ctx = Ctx::new(scale, cli.jobs);
    if scenario {
        run_scenarios(&cli, &ctx);
    } else {
        run_experiments(&cli, &ctx);
    }
}

/// Resolves the positional `names` against one catalog: `all` selects
/// everything, an unknown name or an empty selection exits 2.
fn select<T>(
    names: &[&str],
    kind: &str,
    all: fn() -> Vec<T>,
    find: fn(&str) -> Option<T>,
) -> Vec<T> {
    if names.contains(&"all") {
        return all();
    }
    let picked: Vec<T> = names
        .iter()
        .map(|name| {
            find(name).unwrap_or_else(|| {
                eprintln!("unknown {kind} '{name}' (try --list)");
                std::process::exit(2);
            })
        })
        .collect();
    if picked.is_empty() {
        usage_error(&format!("no {kind} named"));
    }
    picked
}

/// `repro all|<experiment>... [--quick] [--jobs N] [--shard i/m] [--out DIR] [--json]`
/// — runs the selected experiments, printing reports in selection order.
fn run_experiments(cli: &Cli<'_>, ctx: &Ctx) {
    let scale = ctx.scale();
    let selected = select(
        &cli.names,
        "experiment",
        experiments::all,
        experiments::find,
    );
    // Shard by position in the selection: experiment `k` belongs to
    // shard `k % m`. Every experiment seeds its own RNG streams, so each
    // work unit is addressed by its own seeds and renders the same
    // report inside any shard — the union of per-shard `--out` files is
    // byte-identical to the unsharded run's.
    let selected: Vec<experiments::Experiment> = match cli.shard {
        Some((i, m)) => selected
            .into_iter()
            .enumerate()
            .filter(|(k, _)| k % m == i)
            .map(|(_, e)| e)
            .collect(),
        None => selected,
    };
    if let Some((i, m)) = cli.shard {
        println!(
            "shard {i}/{m}: {} experiment(s) [{}]",
            selected.len(),
            selected
                .iter()
                .map(|e| e.name)
                .collect::<Vec<_>>()
                .join(", ")
        );
        if selected.is_empty() {
            return;
        }
    }

    let overall = Instant::now();
    if ctx.jobs() == 1 {
        // Serial: run and print each experiment in turn, as the original
        // driver did, so per-experiment timings stay meaningful.
        for e in &selected {
            let started = Instant::now();
            let report = (e.run)(ctx);
            let secs = started.elapsed().as_secs_f64();
            emit(e.name, e.description, &report, secs, cli, scale);
        }
    } else {
        // Parallel: one thread per experiment; each simulation inside
        // acquires a permit from the shared `--jobs` budget. Results are
        // printed in selection order as they become ready.
        let (tx, rx) = mpsc::channel();
        std::thread::scope(|s| {
            for (i, e) in selected.iter().enumerate() {
                let tx = tx.clone();
                s.spawn(move || {
                    let started = Instant::now();
                    let report = (e.run)(ctx);
                    // The receiver outlives the scope; send cannot fail.
                    tx.send((i, report, started.elapsed().as_secs_f64()))
                        .expect("main receiver");
                });
            }
            drop(tx);
            let mut ready: Vec<Option<(Report, f64)>> = selected.iter().map(|_| None).collect();
            let mut next = 0;
            for (i, report, secs) in rx {
                ready[i] = Some((report, secs));
                while next < ready.len() {
                    let Some((report, secs)) = ready[next].take() else {
                        break;
                    };
                    let e = &selected[next];
                    emit(e.name, e.description, &report, secs, cli, scale);
                    next += 1;
                }
            }
        });
    }
    println!(
        "ran {} experiment(s) at {:?} scale in {:.1}s",
        selected.len(),
        scale,
        overall.elapsed().as_secs_f64()
    );
}

/// `repro scenario <name>... [--quick] [--jobs N] [--out DIR] [--json]`
/// — runs named scenarios from the catalog (see `--list`), each one a
/// baseline-vs-intervened pair over the same seed.
fn run_scenarios(cli: &Cli<'_>, ctx: &Ctx) {
    use guess_bench::scenarios;

    let selected = select(&cli.names, "scenario", scenarios::all, scenarios::find);
    let overall = Instant::now();
    for s in &selected {
        let started = Instant::now();
        let report = (s.run)(ctx);
        let secs = started.elapsed().as_secs_f64();
        emit(s.name, s.description, &report, secs, cli, ctx.scale());
    }
    println!(
        "ran {} scenario(s) at {:?} scale in {:.1}s",
        selected.len(),
        ctx.scale(),
        overall.elapsed().as_secs_f64()
    );
}

/// Prints one finished experiment or scenario in the standard frame and
/// writes its `--out` artifacts.
fn emit(name: &str, description: &str, report: &Report, secs: f64, cli: &Cli<'_>, scale: Scale) {
    println!("==============================================================");
    println!("== {name} — {description}");
    println!("==============================================================");
    let text = report.render_text();
    println!("{text}");
    println!("[{name} completed in {secs:.1}s]\n");
    if let Some(dir) = &cli.out_dir {
        let path = dir.join(format!("{name}.txt"));
        if let Err(err) = std::fs::write(&path, &text) {
            eprintln!("failed to write {}: {err}", path.display());
        }
        if cli.json {
            let path = dir.join(format!("{name}.json"));
            let doc = report.render_json(name, description, &format!("{scale:?}"));
            if let Err(err) = std::fs::write(&path, doc) {
                eprintln!("failed to write {}: {err}", path.display());
            }
        }
    }
}

/// Runs one simulation with tracing on, streaming its JSONL to `path`,
/// and returns the run's report with the trace's tallies. `engine` names
/// the simulator in the summary line. Exits 1 on an invalid config or an
/// I/O failure.
fn write_trace<S: Runnable, E: std::fmt::Display>(
    sim: Result<S, E>,
    path: &Path,
    engine: &str,
    scale: Scale,
) -> (S::Report, CountingSink) {
    use guess_bench::tracefile::JsonlSink;

    let sim = sim.unwrap_or_else(|e| {
        eprintln!("invalid trace config: {e}");
        std::process::exit(1);
    });
    let file = std::fs::File::create(path).unwrap_or_else(|e| {
        eprintln!("cannot create {}: {e}", path.display());
        std::process::exit(1);
    });
    let started = Instant::now();
    let sink = JsonlSink::new(std::io::BufWriter::new(file));
    let (report, sink) = sim.run_traced(sink);
    let (_, counts, io_error) = sink.finish();
    if let Some(e) = io_error {
        eprintln!("trace write to {} failed: {e}", path.display());
        std::process::exit(1);
    }
    println!(
        "traced {engine} run ({scale:?} scale) -> {} in {:.1}s",
        path.display(),
        started.elapsed().as_secs_f64()
    );
    println!("  records: {}", counts.total());
    (report, counts)
}

/// Prints one line per `(what, report value, trace value)` check and
/// exits 1 unless every pair is equal.
fn reconcile(checks: &[(&str, u64, u64)]) {
    let mut ok = true;
    for &(what, in_report, in_trace) in checks {
        let mark = if in_report == in_trace { "ok " } else { "FAIL" };
        println!("  [{mark}] {what}: report={in_report} trace={in_trace}");
        ok &= in_report == in_trace;
    }
    if !ok {
        eprintln!("trace does not reconcile with the run report");
        std::process::exit(1);
    }
}

/// Traces one base-configuration GUESS run to `path` and reconciles the
/// trace totals against the run's report.
fn run_traced_guess(path: &Path, scale: Scale) {
    use guess::engine::GuessSim;
    use guess_bench::scale::base_config;

    let mut cfg = base_config(scale, 0x7ACE);
    // Zero warm-up: the report then covers every query in the trace, so
    // the reconciliation below must match exactly.
    cfg.run.warmup = SimDuration::ZERO;
    let (report, counts) = write_trace(GuessSim::new(cfg), path, "GUESS", scale);
    // The report's probe total comes back through a Welford running
    // mean, so round — `sum()` is `mean * count`, exact only up to f64
    // rounding. The same holds for the other engines' message totals.
    let probes = report.total_probes.sum().round() as u64;
    reconcile(&[
        (
            "queries == query_end records",
            report.queries,
            counts.query_ends,
        ),
        (
            "queries == query_start records",
            report.queries,
            counts.query_starts,
        ),
        (
            "unsatisfied queries",
            report.unsatisfied,
            counts.query_ends - counts.satisfied,
        ),
        ("total probes == probe records", probes, counts.query_probes),
        (
            "total probes == query_end sums",
            probes,
            counts.query_end_probes,
        ),
        (
            "births == join records",
            report.counters.get("births"),
            counts.joins,
        ),
        (
            "deaths == death records",
            report.counters.get("deaths"),
            counts.deaths,
        ),
        (
            "pings == ping probe records",
            report.counters.get("pings_sent"),
            counts.ping_probes,
        ),
    ]);
}

/// Traces one gossip run to `path` and reconciles it as above.
fn run_traced_gossip(path: &Path, scale: Scale) {
    use gossip::GossipSim;
    use guess_bench::experiments::gossip_tradeoff;

    // Zero warm-up is set inside `traced_config`.
    let cfg = gossip_tradeoff::traced_config(scale, 0x7ACE);
    let (report, counts) = write_trace(GossipSim::new(cfg), path, "gossip", scale);
    let messages = report.messages.sum().round() as u64;
    reconcile(&[
        (
            "queries == query_end records",
            report.queries,
            counts.query_ends,
        ),
        (
            "queries == query_start records",
            report.queries,
            counts.query_starts,
        ),
        (
            "unsatisfied queries",
            report.unsatisfied,
            counts.query_ends - counts.satisfied,
        ),
        (
            "total messages == push+pull probe records",
            messages,
            counts.push_probes + counts.pull_probes,
        ),
        (
            "total messages == query_end sums",
            messages,
            counts.query_end_probes,
        ),
        (
            "births == join records",
            report.counters.get("births"),
            counts.joins,
        ),
        (
            "deaths == death records",
            report.counters.get("deaths"),
            counts.deaths,
        ),
    ]);
}

/// Traces one dynamic Gnutella run to `path`, with zero warm-up, and
/// reconciles it as above. Every flooded message is one probe record.
fn run_traced_gnutella(path: &Path, scale: Scale) {
    use gnutella::dynamic::GnutellaConfig;

    let n = match scale {
        Scale::Full => 500,
        Scale::Quick => 200,
    };
    let cfg = GnutellaConfig::default()
        .with_network_size(n)
        .with_duration(scale.duration())
        .with_warmup(SimDuration::ZERO)
        .with_seed(0x7ACE);
    let (report, counts) = write_trace(cfg.build(), path, "Gnutella", scale);
    let messages = report.messages.sum().round() as u64;
    reconcile(&[
        (
            "queries == query_end records",
            report.queries,
            counts.query_ends,
        ),
        (
            "queries == query_start records",
            report.queries,
            counts.query_starts,
        ),
        (
            "unsatisfied queries",
            report.unsatisfied,
            counts.query_ends - counts.satisfied,
        ),
        (
            "total messages == flood probe records",
            messages,
            counts.flood_probes,
        ),
        (
            "total messages == query_end sums",
            messages,
            counts.query_end_probes,
        ),
        (
            "deaths == death records",
            report.counters.get("deaths"),
            counts.deaths,
        ),
    ]);
}

/// Parses a `--shard` spec of the form `i/m` with `0 <= i < m`.
fn parse_shard(spec: &str) -> Option<(usize, usize)> {
    let (i, m) = spec.split_once('/')?;
    let (i, m) = (i.parse().ok()?, m.parse().ok()?);
    (m >= 1 && i < m).then_some((i, m))
}

const USAGE: &str = "repro — regenerate every table and figure of the ICDCS'04 GUESS paper\n\n\
     usage:\n  repro all [--quick] [--jobs N] [--shard i/m] [--out <dir>] [--json]\n  \
     repro <experiment>... [--quick] [--jobs N] [--shard i/m] [--out <dir>] [--json]\n  \
     repro scenario <name>|all [--quick] [--jobs N] [--out <dir>] [--json]\n  \
     repro --trace <path> [--engine guess|gossip|gnutella] [--quick]\n  repro --list\n\n\
     --quick   shrunk grids/durations (shape check, ~1-2 min)\n\
     --jobs N  at most N simulations in flight (default: all cores);\n          \
     reports are byte-identical at any N\n\
     --shard i/m  run every m-th selected experiment starting at i;\n          \
     per-shard outputs merge byte-identically to the unsharded run\n\
     --out DIR also write each report to DIR/<name>.txt\n\
     --json    with --out, also write structured DIR/<name>.json\n\
     --trace F run one traced simulation, write JSONL to F,\n          \
     and reconcile the trace against the run report\n\
     --engine  which simulator --trace runs: guess (default), gossip\n          \
     or gnutella\n\
     default   full paper grids (several minutes)\n\
     \nperformance is measured by the repo benchmark: see benchmark/README.md";
