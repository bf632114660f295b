//! `compare A.json B.json`: two result files of the suite form, row by
//! row. A is the parent, B the change. Every (workload, end-to-end
//! metric) pair gets a verdict against the bound `BENCHMARK.json` fixes;
//! digests and exact per-layer values are compared for equality.

use std::process::ExitCode;

use crate::json::{self, Json};
use crate::names::{Better, MetricDef, END_TO_END, FAILED_FRAC, PER_LAYER};
use crate::stats::Dist;

/// Where the bounds live.
const BENCHMARK_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

/// Set-ups of a few milliseconds differ by more than any share between
/// two processes; a `setup_s` that moved by less than this is not worse.
const SETUP_SLACK_S: f64 = 0.02;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    /// The change is within the bound, but the run-to-run spread is
    /// wider than the bound, so "unchanged" cannot be claimed.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// By what share of the parent's median the change's median is worse
/// (negative: better).
pub fn worse_by(better: Better, parent: f64, change: f64) -> f64 {
    let delta = match better {
        Better::Lower => change - parent,
        Better::Higher => parent - change,
    };
    if parent == 0.0 {
        // Any increase of a metric that was 0 is unboundedly worse.
        if delta > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    } else {
        delta / parent.abs()
    }
}

/// The verdict on one (workload, metric) pair. `slack` is an absolute
/// difference of the medians that never counts as worse.
pub fn verdict(better: Better, bound: f64, slack: f64, parent: &Dist, change: &Dist) -> Verdict {
    let by = worse_by(better, parent.median, change.median);
    if by > bound && (change.median - parent.median).abs() > slack {
        return Verdict::Worse;
    }
    let every_run_better = match better {
        Better::Lower => change.max < parent.min,
        Better::Higher => change.min > parent.max,
    };
    if parent.spread().max(change.spread()) > bound && !every_run_better {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

fn dist(metric: &Json) -> Option<Dist> {
    let field = |name: &str| metric.get(name)?.as_f64();
    Some(Dist {
        n: field("n")? as usize,
        min: field("min")?,
        q1: field("q1")?,
        median: field("median")?,
        q3: field("q3")?,
        max: field("max")?,
    })
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// The bound of every end-to-end metric, from `BENCHMARK.json`;
/// `failed_frac` may not increase at all.
fn bounds() -> Result<Vec<(MetricDef, f64)>, String> {
    let doc = load(BENCHMARK_JSON)?;
    let listed = doc.get("end_to_end").map(Json::as_arr).unwrap_or_default();
    let mut out = Vec::new();
    for def in END_TO_END {
        let bound = listed
            .iter()
            .find(|m| m.get("name").and_then(Json::as_str) == Some(def.name))
            .and_then(|m| m.get("bound")?.as_f64())
            .ok_or(format!("{BENCHMARK_JSON}: no bound for {}", def.name))?;
        out.push((def, bound));
    }
    out.push((FAILED_FRAC, 0.0));
    Ok(out)
}

fn workload<'a>(doc: &'a Json, name: &str) -> Option<&'a Json> {
    doc.get("workloads")?
        .as_arr()
        .iter()
        .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
}

/// The exact per-layer values of `layers` that differ between the files.
fn exact_differences(a: Option<&Json>, b: Option<&Json>) -> Vec<String> {
    let (Some(a), Some(b)) = (a, b) else {
        return Vec::new();
    };
    PER_LAYER
        .iter()
        .filter(|def| def.exact)
        .filter_map(|def| {
            let value = |doc: &Json| doc.get(def.name)?.get("value").cloned();
            let (va, vb) = (value(a)?, value(b)?);
            (va != vb).then(|| format!("{}: {} -> {}", def.name, va.compact(), vb.compact()))
        })
        .collect()
}

pub fn main(args: &[String]) -> ExitCode {
    let [a_path, b_path] = args else {
        eprintln!("usage: guess-benchmark compare A.json B.json");
        return ExitCode::from(2);
    };
    let loaded = load(a_path).and_then(|a| Ok((a, load(b_path)?, bounds()?)));
    let (a, b, bounds) = match loaded {
        Ok(loaded) => loaded,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{:<18} {:<13} {:>14} {:>14} {:>8} {:>7} {:>9} {:>9}  verdict",
        "workload", "metric", "A median", "B median", "worse by", "bound", "A spread", "B spread"
    );
    let mut worse = 0;
    let mut unequal = Vec::new();
    for wa in a.get("workloads").map(Json::as_arr).unwrap_or_default() {
        let Some(name) = wa.get("name").and_then(Json::as_str) else {
            continue;
        };
        let Some(wb) = workload(&b, name) else {
            println!("{name:<18} only in {a_path}");
            continue;
        };
        for (def, bound) in &bounds {
            let metric = |w: &Json| dist(w.get("end_to_end")?.get(def.name)?);
            let (Some(sa), Some(sb)) = (metric(wa), metric(wb)) else {
                continue;
            };
            let slack = if def.name == "setup_s" {
                SETUP_SLACK_S
            } else {
                0.0
            };
            let v = verdict(def.better, *bound, slack, &sa, &sb);
            worse += usize::from(v == Verdict::Worse);
            println!(
                "{name:<18} {:<13} {:>14.6} {:>14.6} {:>+7.1}% {:>6.1}% {:>8.1}% {:>8.1}%  {}",
                def.name,
                sa.median,
                sb.median,
                worse_by(def.better, sa.median, sb.median) * 100.0,
                bound * 100.0,
                sa.spread() * 100.0,
                sb.spread() * 100.0,
                v.as_str()
            );
        }
        if wa.get("digest") != wb.get("digest") {
            unequal.push(format!(
                "{name}: digest {} -> {}",
                wa.get("digest").map_or_else(String::new, Json::compact),
                wb.get("digest").map_or_else(String::new, Json::compact)
            ));
        }
        unequal.extend(
            exact_differences(wa.get("layers"), wb.get("layers"))
                .into_iter()
                .map(|d| format!("{name}: {d}")),
        );
    }
    if unequal.is_empty() {
        println!("digests and exact per-layer values: identical");
    } else {
        println!("digests and exact per-layer values that differ:");
        for line in &unequal {
            println!("  {line}");
        }
    }
    if worse > 0 {
        println!("{worse} (workload, metric) pair(s) worse than the bound");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn steady(x: f64) -> Dist {
        Dist {
            n: 10,
            min: x * 0.99,
            q1: x * 0.995,
            median: x,
            q3: x * 1.005,
            max: x * 1.01,
        }
    }

    fn noisy(x: f64) -> Dist {
        Dist {
            n: 10,
            min: x * 0.8,
            q1: x * 0.9,
            median: x,
            q3: x * 1.1,
            max: x * 1.2,
        }
    }

    #[test]
    fn worse_by_follows_the_direction() {
        assert!((worse_by(Better::Lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worse_by(Better::Lower, 10.0, 9.0) + 0.1).abs() < 1e-12);
        assert!((worse_by(Better::Higher, 10.0, 9.0) - 0.1).abs() < 1e-12);
        assert_eq!(worse_by(Better::Lower, 0.0, 0.0), 0.0);
        assert_eq!(worse_by(Better::Lower, 0.0, 0.1), f64::INFINITY);
    }

    #[test]
    fn bound_evaluation() {
        let v = |better, bound, a: &Dist, b: &Dist| verdict(better, bound, 0.0, a, b);
        // Within the bound, steady on both sides.
        assert_eq!(
            v(Better::Lower, 0.10, &steady(10.0), &steady(10.9)),
            Verdict::Ok
        );
        // Past the bound.
        assert_eq!(
            v(Better::Lower, 0.10, &steady(10.0), &steady(11.2)),
            Verdict::Worse
        );
        assert_eq!(
            v(Better::Higher, 0.10, &steady(10.0), &steady(8.8)),
            Verdict::Worse
        );
        // An improvement is never worse.
        assert_eq!(
            v(Better::Higher, 0.10, &steady(10.0), &steady(20.0)),
            Verdict::Ok
        );
        // Within the bound but noisier than the bound: not "unchanged".
        assert_eq!(
            v(Better::Lower, 0.10, &noisy(10.0), &noisy(10.2)),
            Verdict::Unresolved
        );
        // ... unless every run of the change beats every run of the parent.
        assert_eq!(
            v(Better::Lower, 0.10, &noisy(10.0), &noisy(6.0)),
            Verdict::Ok
        );
        // `failed_frac`: any increase from 0 is worse, 0 -> 0 is ok.
        assert_eq!(
            v(Better::Lower, 0.0, &steady(0.0), &steady(0.0)),
            Verdict::Ok
        );
        assert_eq!(
            v(Better::Lower, 0.0, &steady(0.0), &steady(0.2)),
            Verdict::Worse
        );
    }

    #[test]
    fn set_up_slack_is_absolute() {
        // 4 ms -> 6 ms is +50 %, and 2 ms: not worse under the slack.
        let (a, b) = (steady(0.004), steady(0.006));
        assert_eq!(verdict(Better::Lower, 0.25, 0.0, &a, &b), Verdict::Worse);
        assert_eq!(
            verdict(Better::Lower, 0.25, SETUP_SLACK_S, &a, &b),
            Verdict::Ok
        );
        // 1 s -> 1.5 s is worse with or without it.
        let (a, b) = (steady(1.0), steady(1.5));
        assert_eq!(
            verdict(Better::Lower, 0.25, SETUP_SLACK_S, &a, &b),
            Verdict::Worse
        );
    }

    #[test]
    fn exact_values_are_compared_for_equality() {
        let layers = |events: u64, frac: f64| {
            json::parse(&format!(
                "{{\"simkit.sim.events\": {{\"value\": {events}, \"unit\": \"count\"}},
                  \"guess.engine.unsatisfied_frac\": {{\"value\": {frac:?}, \"unit\": \"ratio\"}},
                  \"guess.engine.ns_per_msg\": {{\"value\": {frac:?}, \"unit\": \"ns\"}}}}"
            ))
            .unwrap()
        };
        let (a, b) = (layers(100, 0.25), layers(101, 0.5));
        assert!(exact_differences(Some(&a), Some(&a)).is_empty());
        // The timing differs too, but is not exact and is not listed.
        assert_eq!(
            exact_differences(Some(&a), Some(&b)),
            vec![
                "simkit.sim.events: 100 -> 101".to_string(),
                "guess.engine.unsatisfied_frac: 0.25 -> 0.5".to_string(),
            ]
        );
        assert!(exact_differences(Some(&a), None).is_empty());
    }
}
