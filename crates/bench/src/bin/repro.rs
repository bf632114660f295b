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
//! `repro --list` prints every experiment and scenario name, from
//! [`guess_bench::experiments::all`] and [`guess_bench::scenarios::all`].
//! With `--out <dir>`, each report is additionally written to
//! `<dir>/<name>.txt`; adding `--json` also writes `<dir>/<name>.json`
//! (structured blocks, see [`guess_bench::report::Report::render_json`]).
//!
//! `--jobs N` bounds how many simulations run at once — across
//! experiments (or scenarios) and across the sweep points inside each
//! one. Every sweep point carries its own RNG seed, so the reports are
//! byte-identical at any `--jobs` level; only wall-clock time changes.
//!
//! `--shard i/m` keeps only every `m`-th selected experiment starting
//! at index `i` — the grid split into `m` independently runnable work
//! units (separate machines, separate invocations). Seed-addressed
//! determinism makes the merge trivial: the union of the shards'
//! `--out` files is byte-identical to the unsharded run's output.
//!
//! `--trace <path>` runs one base-configuration simulation with the
//! structured trace layer on, streaming every record to `<path>` as
//! JSON Lines (schema in EXPERIMENTS.md), then checks the trace totals
//! against the run's own report (the rows of
//! [`guess_bench::tracefile::Reconcile`]) and exits 1 on a mismatch.
//! `--engine` selects which simulator is traced: `guess` (default),
//! `gossip` or `gnutella` (dynamic flooding).
//!
//! Each form takes only the flags listed for it above. A flag the
//! chosen form has no use for — `--engine` without `--trace`; names,
//! `--jobs`, `--shard`, `--out` or `--json` with `--trace`; `--shard`,
//! `--trace` or `--engine` after `scenario` — is an error (exit 2 with
//! the usage text), as is any unknown `--flag`; nothing is silently
//! dropped. Performance is measured by the repo benchmark, a package of
//! its own: see `benchmark/README.md`.

use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::Instant;

use gnutella::dynamic::{GnutellaConfig, GnutellaSim};
use gossip::GossipSim;
use guess::engine::GuessSim;
use guess_bench::experiments::{self, gossip_tradeoff, Experiment};
use guess_bench::report::Report;
use guess_bench::runner::Ctx;
use guess_bench::scale::{base_config, forwarding_config, Scale};
use guess_bench::scenarios;
use guess_bench::tracefile::{JsonlSink, Reconcile};
use simkit::sim::Runnable;
use simkit::time::SimDuration;

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
/// unrecognised `--flag`, or a flag the chosen form does not take, is
/// an error rather than a silent no-op. `scenario` is the
/// `repro scenario …` form.
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
    let mut given = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        given.push(arg.as_str());
        match arg.as_str() {
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
    // The flags each form has no use for.
    let (form, refused): (&str, &[&str]) = if scenario {
        ("`repro scenario`", &["--shard", "--trace", "--engine"])
    } else if cli.trace.is_some() {
        ("`repro --trace`", &["--jobs", "--shard", "--out", "--json"])
    } else {
        ("an experiment run; it needs --trace", &["--engine"])
    };
    if let Some(flag) = given.iter().find(|flag| refused.contains(flag)) {
        return Err(format!("{flag} does not apply to {form}"));
    }
    if let (Some(_), Some(name)) = (&cli.trace, cli.names.first()) {
        return Err(format!(
            "`repro --trace` takes no experiment name ('{name}')"
        ));
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
        for s in scenarios::all() {
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
        run_traced(path, cli.engine, scale);
        return;
    }
    if let Some(dir) = &cli.out_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create output directory {}: {e}", dir.display());
            std::process::exit(1);
        }
    }
    // A scenario runs like an experiment; one driver serves both catalogs.
    let (kind, catalog) = if scenario {
        let entries = scenarios::all().into_iter().map(|s| Experiment {
            name: s.name,
            description: s.description,
            run: s.run,
        });
        ("scenario", entries.collect())
    } else {
        ("experiment", experiments::all())
    };
    run_catalog(kind, catalog, &cli, &Ctx::new(scale, cli.jobs));
}

/// Resolves the positional `names` against a `kind` catalog: an unknown
/// name (beside `all` too) or an empty selection exits 2, then `all`
/// selects everything.
fn select(kind: &str, catalog: Vec<Experiment>, names: &[&str]) -> Vec<Experiment> {
    let picked: Vec<Experiment> = names
        .iter()
        .filter(|name| **name != "all")
        .map(|name| {
            *catalog.iter().find(|e| e.name == *name).unwrap_or_else(|| {
                eprintln!("unknown {kind} '{name}' (try --list)");
                std::process::exit(2);
            })
        })
        .collect();
    if names.contains(&"all") {
        return catalog;
    }
    if picked.is_empty() {
        usage_error(&format!("no {kind} named"));
    }
    picked
}

/// `repro all|<name>... [--quick] [--jobs N] [--shard i/m] [--out DIR] [--json]`
/// and `repro scenario …` — runs the selected `kind` entries of
/// `catalog`, printing reports in selection order.
fn run_catalog(kind: &str, catalog: Vec<Experiment>, cli: &Cli<'_>, ctx: &Ctx) {
    let mut selected = select(kind, catalog, &cli.names);
    // Shard by position in the selection: entry `k` belongs to shard
    // `k % m`. Every entry seeds its own RNG streams, so each work unit
    // is addressed by its own seeds and renders the same report inside
    // any shard — the union of per-shard `--out` files is byte-identical
    // to the unsharded run's.
    if let Some((i, m)) = cli.shard {
        selected = (i..selected.len())
            .step_by(m)
            .map(|k| selected[k])
            .collect();
        let names: Vec<&str> = selected.iter().map(|e| e.name).collect();
        println!(
            "shard {i}/{m}: {} {}(s) [{}]",
            selected.len(),
            kind,
            names.join(", ")
        );
        if selected.is_empty() {
            return;
        }
    }

    let overall = Instant::now();
    let timed = |entry: &Experiment| {
        let started = Instant::now();
        let report = (entry.run)(ctx);
        (report, started.elapsed().as_secs_f64())
    };
    if ctx.jobs() == 1 {
        // Serial: run and print each entry in turn, so per-entry
        // timings stay meaningful.
        for entry in &selected {
            let (report, secs) = timed(entry);
            emit(entry, &report, secs, cli, ctx.scale());
        }
    } else {
        // Parallel: one thread per entry; each simulation inside
        // acquires a permit from the shared `--jobs` budget. Results are
        // printed in selection order as they become ready.
        let (tx, rx) = mpsc::channel();
        std::thread::scope(|s| {
            for (i, entry) in selected.iter().enumerate() {
                let tx = tx.clone();
                let timed = &timed;
                s.spawn(move || {
                    // The receiver outlives the scope; send cannot fail.
                    tx.send((i, timed(entry))).expect("main receiver");
                });
            }
            drop(tx);
            let mut ready: Vec<Option<(Report, f64)>> = selected.iter().map(|_| None).collect();
            let mut next = 0;
            for (i, done) in rx {
                ready[i] = Some(done);
                while let Some(Some((report, secs))) = ready.get_mut(next).map(Option::take) {
                    emit(&selected[next], &report, secs, cli, ctx.scale());
                    next += 1;
                }
            }
        });
    }
    println!(
        "ran {} {}(s) at {:?} scale in {:.1}s",
        selected.len(),
        kind,
        ctx.scale(),
        overall.elapsed().as_secs_f64()
    );
}

/// Prints one finished experiment or scenario in the standard frame and
/// writes its `--out` artifacts.
fn emit(entry: &Experiment, report: &Report, secs: f64, cli: &Cli<'_>, scale: Scale) {
    let (name, description) = (entry.name, entry.description);
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

/// `repro --trace <path> [--engine E]` — traces one run of engine `E`
/// with zero warm-up, so the report covers every query in the trace and
/// each reconciliation row must hold exactly.
fn run_traced(path: &Path, engine: &str, scale: Scale) {
    const SEED: u64 = 0x7ACE;
    match engine {
        "gossip" => {
            let cfg = gossip_tradeoff::traced_config(scale, SEED);
            trace("gossip", GossipSim::new(cfg), path, scale);
        }
        "gnutella" => {
            // A smaller overlay: every flooded message is one record.
            let n = match scale {
                Scale::Full => 500,
                Scale::Quick => 200,
            };
            let cfg = forwarding_config::<GnutellaConfig>(scale, SEED)
                .with_network_size(n)
                .with_warmup(SimDuration::ZERO);
            trace("Gnutella", GnutellaSim::new(cfg), path, scale);
        }
        _ => {
            let mut cfg = base_config(scale, SEED);
            cfg.run.warmup = SimDuration::ZERO;
            trace("GUESS", GuessSim::new(cfg), path, scale);
        }
    }
}

/// Runs `sim` with tracing on, streaming its JSONL to `path`, then
/// prints the report's reconciliation rows. Exits 1 on an invalid
/// config, an I/O failure or a row that does not hold.
fn trace<S, E>(engine: &str, sim: Result<S, E>, path: &Path, scale: Scale)
where
    S: Runnable,
    S::Report: Reconcile,
    E: std::fmt::Display,
{
    let sim = sim.unwrap_or_else(|e| {
        eprintln!("invalid trace config: {e}");
        std::process::exit(1);
    });
    let file = std::fs::File::create(path).unwrap_or_else(|e| {
        eprintln!("cannot create {}: {e}", path.display());
        std::process::exit(1);
    });
    let started = Instant::now();
    let (report, sink) = sim.run_traced(JsonlSink::new(std::io::BufWriter::new(file)));
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
    let rows = report.reconciliation(&counts);
    for (what, report, trace) in &rows {
        let mark = if report == trace { "ok " } else { "FAIL" };
        println!("  [{mark}] {what}: report={report} trace={trace}");
    }
    if rows.iter().any(|(_, report, trace)| report != trace) {
        eprintln!("trace does not reconcile with the run report");
        std::process::exit(1);
    }
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
     \neach form takes only the flags shown for it: --engine needs --trace,\n\
     and --trace takes no names, --jobs, --shard, --out or --json\n\
     \nperformance is measured by the repo benchmark: see benchmark/README.md";
