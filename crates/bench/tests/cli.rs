//! `repro` command-line contract: bad input is refused with exit 2
//! before any simulation starts, and `--list` shows exactly the two
//! catalogs.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn unknown_flags_are_rejected_not_swallowed() {
    // `--quik` used to be dropped, so this ran the full multi-minute
    // grid; a retired `--threads 4` would read `4` as an experiment.
    for args in [
        &["all", "--quik"][..],
        &["fig3", "--quick", "--threads", "4"],
        &["fig3", "--quick", "--metrics-threshold", "5"],
        &["scenario", "all", "--quik"],
        &["scenario", "all", "--shard", "0/2"],
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(stderr(&out).contains("usage:"), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} ran something");
    }
}

#[test]
fn flags_the_chosen_form_does_not_take_are_rejected() {
    // An unwritable trace path and an output directory nothing may
    // create: a run that ignored the refused flag would fail on the
    // trace file (exit 1) or leave the directory behind.
    let trace = concat!(env!("CARGO_TARGET_TMPDIR"), "/no-such-dir/t.jsonl");
    let out = concat!(env!("CARGO_TARGET_TMPDIR"), "/refused-out");
    for args in [
        &["no-such", "--engine", "gossip"][..],
        &["fig3", "--trace", trace, "--quick"],
        &["--trace", trace, "--out", out],
        &["--trace", trace, "--out", out, "--json"],
        &["--trace", trace, "--shard", "0/2"],
        &["--trace", trace, "--jobs", "2"],
        &["scenario", "param-flip", "--engine", "gossip"],
    ] {
        let run = repro(args);
        assert_eq!(run.status.code(), Some(2), "{args:?}");
        assert!(stderr(&run).contains("usage:"), "{args:?}");
        assert!(run.stdout.is_empty(), "{args:?} ran something");
        assert!(!std::path::Path::new(out).exists(), "{args:?} made {out}");
    }
}

#[test]
fn an_unknown_name_beside_all_is_rejected() {
    // `all` used to select the catalog before the other names were
    // looked up, so the typo was dropped and the shard ran (exit 0).
    for (args, unknown) in [
        (
            &["all", "no-such", "--shard", "999/1000"][..],
            "unknown experiment 'no-such'",
        ),
        (
            &["no-such", "all", "--quick"],
            "unknown experiment 'no-such'",
        ),
        (
            &["scenario", "all", "no-such"],
            "unknown scenario 'no-such'",
        ),
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(stderr(&out).contains(unknown), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} ran something");
    }
}

#[test]
fn bench_points_at_the_repo_benchmark() {
    let out = repro(&["bench", "--quick"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("benchmark/README.md"));
}

#[test]
fn bad_jobs_value_is_rejected() {
    for args in [&["fig3", "--jobs", "abc"][..], &["fig3", "--jobs"]] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(stderr(&out).contains("--jobs needs a positive integer"));
    }
}

#[test]
fn trace_engine_names_are_checked() {
    for args in [
        &["--trace", "t.jsonl", "--engine", "flood"][..],
        &["--trace", "t.jsonl", "--engine"],
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(
            stderr(&out).contains("guess, gossip or gnutella"),
            "{args:?}"
        );
        assert!(out.stdout.is_empty(), "{args:?} ran something");
    }
    let out = repro(&["--help"]);
    let usage = String::from_utf8(out.stdout).expect("utf-8");
    assert!(usage.contains("[--engine guess|gossip|gnutella]"));
}

#[test]
fn list_prints_experiments_and_scenarios_only() {
    let out = repro(&["--list"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).expect("utf-8");
    let headers: Vec<&str> = text.lines().filter(|l| l.ends_with(':')).collect();
    assert_eq!(
        headers,
        [
            "experiments (repro <name>):",
            "scenarios (repro scenario <name>):"
        ]
    );
    let entries = text.lines().filter(|l| l.starts_with("  ")).count();
    assert_eq!(entries, 30 + 7);
}
