//! The repo benchmark. One process measures the seven named workloads
//! end to end (tracing off), then — on request — runs each once more
//! traced and drives every layer's public functions, and writes what it
//! measured to `benchmark/out/`. See `benchmark/README.md`.
//!
//! ```text
//! guess-benchmark [--seed S] [--reps N] [--only W]... [--trace] [--smoke]
//! guess-benchmark --workload W --seed S --seconds T --trace 0|1
//! guess-benchmark compare A.json B.json
//! ```
//!
//! The second form is the one `BENCHMARK.json` names: one workload,
//! measured for `T` seconds, its last output line a JSON object of the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`).

mod compare;
mod json;
mod layers;
mod names;
mod spans;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use json::{obj, s, Json};
use layers::Effort;
use names::{MetricDef, END_TO_END, FAILED_FRAC, PER_LAYER, WORKLOADS};
use spans::Tracer;
use stats::{summarize, Dist};
use workloads::{LayerValue, Rep, Workload};

/// The default master seed, shared with `repro bench`.
const DEFAULT_SEED: u64 = 0xBE7C;
const DEFAULT_REPS: usize = 5;
/// A timed run (`--seconds`) stops at the first repetition that ends
/// past its time, so it lasts at most `--seconds` plus one repetition
/// however slow the host is — but never reports fewer than this many.
const MIN_TIMED_REPS: usize = 2;
/// `setup_s` is a median of this many samples when set-up is cheap: the
/// repetitions' own (taken cold, right after a run) are then outnumbered
/// by extra ones (taken warm), so the median does not sit on the edge
/// between the two. Extra set-ups stop once they have cost
/// [`EXTRA_SETUP_BUDGET_S`], but never before there are
/// [`MIN_SETUP_SAMPLES`]: the first set-up of a quarter-million peers in
/// a process runs four times longer than the next.
const SETUP_SAMPLES: usize = 21;
const MIN_SETUP_SAMPLES: usize = 3;
const EXTRA_SETUP_BUDGET_S: f64 = 1.0;

const USAGE: &str = "usage:
  guess-benchmark [--seed S] [--reps N] [--only WORKLOAD]... [--trace] [--smoke]
  guess-benchmark --workload WORKLOAD --seed S --seconds T --trace 0|1
  guess-benchmark compare A.json B.json";

/// When a workload's timed repetitions stop.
#[derive(Debug, Clone, Copy)]
enum Stop {
    Reps(usize),
    Seconds(f64),
}

#[derive(Debug)]
struct Opts {
    seed: u64,
    stop: Stop,
    only: Vec<String>,
    /// `--workload`: the one-workload form with the JSON result line.
    workload: Option<String>,
    trace: bool,
    smoke: bool,
}

fn parse_seed(text: &str) -> Option<u64> {
    match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        seed: DEFAULT_SEED,
        stop: Stop::Reps(DEFAULT_REPS),
        only: Vec::new(),
        workload: None,
        trace: false,
        smoke: false,
    };
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        i += 1;
        let mut value = || -> Result<&String, String> {
            let v = args.get(i).ok_or(format!("{flag} needs a value"))?;
            i += 1;
            Ok(v)
        };
        match flag {
            "--seed" => {
                let v = value()?;
                opts.seed = parse_seed(v).ok_or(format!("--seed: '{v}' is not a number"))?;
            }
            "--reps" => {
                let v = value()?;
                let reps: usize = v
                    .parse()
                    .map_err(|_| format!("--reps: '{v}' is not a count"))?;
                opts.stop = Stop::Reps(reps.max(1));
            }
            "--seconds" => {
                let v = value()?;
                let secs: f64 = v
                    .parse()
                    .map_err(|_| format!("--seconds: '{v}' is not a number"))?;
                if !(secs.is_finite() && secs > 0.0) {
                    return Err(format!("--seconds: '{v}' is not positive"));
                }
                opts.stop = Stop::Seconds(secs);
            }
            "--only" => opts.only.push(value()?.clone()),
            "--workload" => opts.workload = Some(value()?.clone()),
            "--smoke" => opts.smoke = true,
            // A bare flag in the suite form, `--trace 0|1` in the other.
            "--trace" => match args.get(i).map(String::as_str) {
                Some("0") => {
                    opts.trace = false;
                    i += 1;
                }
                Some("1") => {
                    opts.trace = true;
                    i += 1;
                }
                _ => opts.trace = true,
            },
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    for name in opts.only.iter().chain(&opts.workload) {
        if !WORKLOADS.iter().any(|(w, _)| w == name) {
            let known: Vec<&str> = WORKLOADS.iter().map(|(w, _)| *w).collect();
            return Err(format!(
                "unknown workload '{name}' (known: {})",
                known.join(", ")
            ));
        }
    }
    if opts.smoke {
        // Tiny scale, one repetition, every check on.
        opts.stop = Stop::Reps(1);
        opts.trace = true;
    }
    Ok(opts)
}

/// The timed repetitions of one workload, tracing off.
#[derive(Debug, Default)]
struct Measured {
    reps: Vec<Rep>,
    /// `setup_s` of every repetition plus the extra set-ups.
    setups: Vec<f64>,
    attempted: u64,
    failures: Vec<String>,
}

impl Measured {
    /// Accounts one repetition — its operations, its failures, whether
    /// its report matches `expected` — and hands it back if it completed.
    fn account(
        &mut self,
        workload: &Workload,
        what: &str,
        rep: Result<Rep, String>,
        expected: Option<u64>,
    ) -> Option<Rep> {
        self.attempted += workload.ops_per_rep();
        let mut rep = match rep {
            Ok(rep) => rep,
            Err(panic) => {
                self.failures
                    .extend((0..workload.ops_per_rep()).map(|_| format!("{what}: {panic}")));
                return None;
            }
        };
        if let Some(first) = expected.filter(|d| *d != rep.digest && rep.failures.is_empty()) {
            rep.failures.push(format!(
                "digest {:016x} differs from the first repetition's {first:016x}",
                rep.digest
            ));
        }
        self.failures
            .extend(rep.failures.iter().map(|f| format!("{what}: {f}")));
        Some(rep)
    }

    fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    /// The digest every repetition must reproduce: the first one's.
    fn digest(&self) -> Option<u64> {
        self.reps.first().map(|r| r.digest)
    }

    /// The end-to-end metrics, each over its samples.
    fn end_to_end(&self) -> Vec<(MetricDef, Dist)> {
        let over =
            |f: &dyn Fn(&Rep) -> f64| summarize(&self.reps.iter().map(f).collect::<Vec<_>>());
        let values = [
            over(&|r| r.run_s),
            summarize(&self.setups),
            over(&|r| r.events as f64 / r.run_s),
            over(&|r| r.msgs as f64 / r.run_s),
            over(&|r| r.peak_heap as f64 / (1u64 << 20) as f64),
        ];
        let mut out: Vec<(MetricDef, Dist)> = END_TO_END.iter().copied().zip(values).collect();
        out.push((
            FAILED_FRAC,
            summarize(&[self.failed() as f64 / self.attempted as f64]),
        ));
        out
    }
}

fn measure(workload: &Workload, stop: Stop) -> Measured {
    let mut m = Measured::default();
    let started = Instant::now();
    loop {
        let done = m.attempted / workload.ops_per_rep();
        let more = match stop {
            Stop::Reps(n) => done < n as u64,
            Stop::Seconds(secs) => {
                done < MIN_TIMED_REPS as u64 || started.elapsed().as_secs_f64() < secs
            }
        };
        if !more {
            break;
        }
        let expected = m.digest();
        let rep = m.account(
            workload,
            &format!("rep {done}"),
            workload.rep(None),
            expected,
        );
        m.reps.extend(rep);
    }
    m.setups = m.reps.iter().map(|r| r.setup_s).collect();
    let mut spent = 0.0;
    while !m.setups.is_empty()
        && m.setups.len() < SETUP_SAMPLES
        && (m.setups.len() < MIN_SETUP_SAMPLES
            || spent + stats::median(&m.setups) <= EXTRA_SETUP_BUDGET_S)
    {
        let sample = workload.setup_once();
        spent += sample;
        m.setups.push(sample);
    }
    m
}

/// The traced repetition of one workload: its failures join the
/// accounts, and its per-layer values are returned.
fn trace_workload(workload: &Workload, tracer: &mut Tracer, m: &mut Measured) -> Vec<LayerValue> {
    tracer.set_workload(workload.name);
    // The untraced reference: the timed repetitions when there are any.
    if m.reps.is_empty() {
        let rep = m.account(workload, "untraced", workload.rep(None), None);
        m.reps.extend(rep);
    }
    if m.reps.is_empty() {
        return Vec::new();
    }
    let untraced_s = stats::median(&m.reps.iter().map(|r| r.run_s).collect::<Vec<_>>());
    let expected = m.digest();
    let rep = tracer.span("traced_run", |t| workload.rep(Some(t)));
    let Some(traced) = m.account(workload, "traced", rep, expected) else {
        return Vec::new();
    };
    let mut layer = traced.layer;
    // Host time per message from the untraced time: the traced one
    // carries the sink's overhead.
    if let Some(name) = workload.ns_per_msg_metric() {
        layer.push((name, untraced_s * 1e9 / traced.msgs as f64));
    }
    // Tracing overhead exists where a sink was attached.
    if layer.iter().any(|(n, _)| *n == "simkit.trace.records") {
        layer.push((
            "simkit.trace.overhead_frac",
            (traced.run_s - untraced_s) / untraced_s,
        ));
    }
    layer
}

/// The `found` per-layer values in registry order, each with its
/// definition.
///
/// # Panics
///
/// Panics when `found` carries an unregistered name: the harness and
/// `names::PER_LAYER` have drifted apart.
fn registered(found: &[LayerValue]) -> Vec<(MetricDef, f64)> {
    for (name, _) in found {
        assert!(
            PER_LAYER.iter().any(|d| d.name == *name),
            "per-layer metric '{name}' is not registered in names::PER_LAYER"
        );
    }
    PER_LAYER
        .iter()
        .filter_map(|def| {
            let (_, value) = found.iter().find(|(n, _)| *n == def.name)?;
            Some((*def, *value))
        })
        .collect()
}

fn print_failures(name: &str, m: &Measured) {
    for f in &m.failures {
        println!("FAILED {name}: {f}");
    }
}

fn print_end_to_end(name: &str, m: &Measured) {
    for (def, d) in m.end_to_end() {
        println!(
            "{name:<18} {:<13} {:>16.6} {:<5} q1 {:.6} q3 {:.6} min {:.6} max {:.6} n {}",
            def.name, d.median, def.unit, d.q1, d.q3, d.min, d.max, d.n
        );
    }
}

fn print_layers(name: &str, values: &[(MetricDef, f64)]) {
    for (def, value) in values {
        println!("{name:<18} {:<42} {value:>18.4} {}", def.name, def.unit);
    }
}

fn metric_json(def: &MetricDef, value: f64) -> Json {
    let value = if def.unit == "count" {
        Json::Int(value as u64)
    } else {
        Json::Num(value)
    };
    obj([("value", value), ("unit", s(def.unit))])
}

/// `--workload`: one workload, and the contract's result line.
fn run_one(opts: &Opts, name: &str) -> ExitCode {
    let workload = Workload::new(name, opts.seed, opts.smoke).expect("name was checked");
    let mut m;
    let metrics = if opts.trace {
        let mut tracer = Tracer::new();
        m = Measured::default();
        let mut found = trace_workload(&workload, &mut tracer, &mut m);
        found.extend(layers::run_drivers(effort(opts), &mut tracer));
        write_out(opts, "trace.json", &tracer.to_json());
        let found = registered(&found);
        // Every registered metric: a layer this run did not touch reads 0.
        let values: Vec<(MetricDef, f64)> = PER_LAYER
            .iter()
            .map(|def| {
                let hit = found.iter().find(|(d, _)| d.name == def.name);
                (*def, hit.map_or(0.0, |(_, v)| *v))
            })
            .collect();
        print_layers(name, &values);
        metrics_json(&values)
    } else {
        m = measure(&workload, opts.stop);
        if m.reps.is_empty() {
            print_failures(name, &m);
            eprintln!("{name}: no repetition completed; nothing to report");
            return ExitCode::FAILURE;
        }
        print_end_to_end(name, &m);
        let bounded: Vec<(MetricDef, f64)> = m
            .end_to_end()
            .iter()
            .filter(|(def, _)| def.name != FAILED_FRAC.name)
            .map(|(def, d)| (*def, d.median))
            .collect();
        metrics_json(&bounded)
    };
    print_failures(name, &m);
    let line = obj([
        ("correct", Json::Bool(m.failed() == 0)),
        ("attempted", Json::Int(m.attempted)),
        ("failed", Json::Int(m.failed())),
        ("metrics", metrics),
    ]);
    println!("{}", line.compact());
    ExitCode::SUCCESS
}

fn effort(opts: &Opts) -> Effort {
    if opts.smoke {
        Effort::SMOKE
    } else {
        Effort::FULL
    }
}

/// `benchmark/out/`, or `benchmark/out/smoke/` so that a smoke run
/// never overwrites results.
fn out_dir(opts: &Opts) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    if opts.smoke {
        dir.join("smoke")
    } else {
        dir
    }
}

fn write_out(opts: &Opts, file: &str, doc: &Json) {
    let dir = out_dir(opts);
    let path = dir.join(file);
    let written = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, doc.pretty()));
    match written {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("cannot write {}: {e}", path.display()),
    }
}

/// First line of a command's output, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

fn dist_json(def: &MetricDef, d: &Dist) -> Json {
    obj([
        ("unit", s(def.unit)),
        ("better", s(def.better.as_str())),
        ("n", Json::Int(d.n as u64)),
        ("min", Json::Num(d.min)),
        ("q1", Json::Num(d.q1)),
        ("median", Json::Num(d.median)),
        ("q3", Json::Num(d.q3)),
        ("max", Json::Num(d.max)),
    ])
}

/// `{name: {"value", "unit"}}` of every metric in `values`.
fn metrics_json(values: &[(MetricDef, f64)]) -> Json {
    Json::Obj(
        values
            .iter()
            .map(|(def, v)| (def.name.to_string(), metric_json(def, *v)))
            .collect(),
    )
}

/// The suite form: every selected workload, then the traced pass.
fn run_suite(opts: &Opts) -> ExitCode {
    let selected: Vec<Workload> = WORKLOADS
        .iter()
        .filter(|(name, _)| opts.only.is_empty() || opts.only.iter().any(|o| o == name))
        .map(|(name, _)| Workload::new(name, opts.seed, opts.smoke).expect("registered name"))
        .collect();
    let started = Instant::now();
    let mut measured: Vec<Measured> = Vec::new();
    for workload in &selected {
        let m = measure(workload, opts.stop);
        if !m.reps.is_empty() {
            print_end_to_end(workload.name, &m);
        }
        print_failures(workload.name, &m);
        measured.push(m);
    }

    let mut layers_of: Vec<Vec<(MetricDef, f64)>> = Vec::new();
    let mut drivers = Vec::new();
    if opts.trace {
        let mut tracer = Tracer::new();
        for (workload, m) in selected.iter().zip(&mut measured) {
            let before = m.failures.len();
            let found = registered(&trace_workload(workload, &mut tracer, m));
            print_layers(workload.name, &found);
            for f in &m.failures[before..] {
                println!("FAILED {}: {f}", workload.name);
            }
            layers_of.push(found);
        }
        drivers = registered(&layers::run_drivers(effort(opts), &mut tracer));
        print_layers("drivers", &drivers);
        write_out(opts, "trace.json", &tracer.to_json());
    }

    let stop = match opts.stop {
        Stop::Reps(n) => ("reps", Json::Int(n as u64)),
        Stop::Seconds(secs) => ("seconds", Json::Num(secs)),
    };
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let manifest = obj([
        ("seed", s(format!("0x{:x}", opts.seed))),
        stop,
        ("smoke", Json::Bool(opts.smoke)),
        ("traced", Json::Bool(opts.trace)),
        ("nproc", Json::Int(nproc as u64)),
        ("threads", Json::Int(workloads::THREADS as u64)),
        ("rustc", s(command_line("rustc", &["--version"]))),
        ("git_rev", s(command_line("git", &["rev-parse", "HEAD"]))),
        ("wall_s", Json::Num(started.elapsed().as_secs_f64())),
    ]);
    let workloads_json = selected
        .iter()
        .zip(&measured)
        .enumerate()
        .map(|(i, (workload, m))| {
            let why = WORKLOADS
                .iter()
                .find(|(n, _)| *n == workload.name)
                .map_or("", |(_, w)| w);
            let end_to_end = if m.reps.is_empty() {
                Vec::new()
            } else {
                m.end_to_end()
                    .iter()
                    .map(|(def, d)| (def.name.to_string(), dist_json(def, d)))
                    .collect()
            };
            let mut fields = vec![
                ("name", s(workload.name)),
                ("why", s(why)),
                ("config", workload.params()),
                (
                    "digest",
                    m.digest().map_or(Json::Null, |d| s(format!("0x{d:016x}"))),
                ),
                ("attempted", Json::Int(m.attempted)),
                ("failed", Json::Int(m.failed())),
                ("failures", Json::Arr(m.failures.iter().map(s).collect())),
                ("end_to_end", Json::Obj(end_to_end)),
            ];
            if let Some(found) = layers_of.get(i) {
                fields.push(("layers", metrics_json(found)));
            }
            obj(fields)
        })
        .collect();
    let mut doc = vec![
        ("schema", Json::Int(1)),
        ("manifest", manifest),
        ("workloads", Json::Arr(workloads_json)),
    ];
    if opts.trace {
        doc.push(("drivers", metrics_json(&drivers)));
    }
    write_out(opts, "results.json", &obj(doc));

    let attempted: u64 = measured.iter().map(|m| m.attempted).sum();
    let failed: u64 = measured.iter().map(Measured::failed).sum();
    println!(
        "{} workload(s), {attempted} operation(s), {failed} failed, {:.1} s",
        selected.len(),
        started.elapsed().as_secs_f64()
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return compare::main(&args[1..]);
    }
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match &opts.workload {
        Some(name) => run_one(&opts, name),
        None => run_suite(&opts),
    }
}
