//! Docs that cannot rot: every code path, file path and `repro` name the
//! top-level documents mention still exists, DESIGN.md stays an index of
//! at most 500 lines whose crate inventory names every crate, and every
//! example is registered in Cargo.toml and shown in README.md.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

const DESIGN_MAX_LINES: usize = 500;

/// Documents whose code and file paths must resolve.
/// `benchmark/README.md` is checked but not edited with the crates.
const PATH_DOCS: [&str; 4] = [
    "DESIGN.md",
    "EXPERIMENTS.md",
    "README.md",
    "benchmark/README.md",
];

/// Documents whose `repro` invocations must name what `repro` runs.
const REPRO_DOCS: [&str; 3] = ["DESIGN.md", "EXPERIMENTS.md", "README.md"];

/// File names a run writes, which no checkout contains: the benchmark's
/// results and trace, and the two results files its `compare` form reads.
/// They are matched by file name, whatever directory a document writes
/// them under (`benchmark/out/results.json`), because `benchmark/out/` is
/// git-ignored and holds them only after a run.
const RUN_OUTPUTS: [&str; 4] = ["results.json", "trace.json", "A.json", "B.json"];

const FILE_EXTENSIONS: [&str; 6] = ["rs", "sh", "txt", "toml", "json", "md"];

/// Path roots that are not workspace crates and need no check.
const FOREIGN_ROOTS: [&str; 20] = [
    "std", "core", "alloc", "bool", "char", "str", "u8", "u16", "u32", "u64", "u128", "usize",
    "i8", "i16", "i32", "i64", "i128", "isize", "f32", "f64",
];

/// Item keywords whose next identifier is a definition.
const ITEM_KEYWORDS: [&str; 10] = [
    "fn",
    "struct",
    "enum",
    "trait",
    "type",
    "const",
    "static",
    "mod",
    "union",
    "macro_rules",
];

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root")
}

fn read(rel: &str) -> String {
    fs::read_to_string(root().join(rel)).unwrap_or_else(|e| panic!("read {rel}: {e}"))
}

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// A piece of code in a markdown document: an inline code span (with
/// line breaks folded to spaces) or one line of a fenced block.
struct Code {
    line: usize,
    text: String,
}

fn code_of(doc: &str) -> Vec<Code> {
    // Inline spans never cross a paragraph: split each at its backticks.
    fn spans(start: usize, para: &str, out: &mut Vec<Code>) {
        let pieces: Vec<&str> = para.split('`').collect();
        let mut line = start;
        for (i, piece) in pieces.iter().enumerate() {
            if i % 2 == 1 && i + 1 < pieces.len() {
                let text = piece.split_whitespace().collect::<Vec<_>>().join(" ");
                out.push(Code { line, text });
            }
            line += piece.matches('\n').count();
        }
    }
    let mut out = Vec::new();
    let mut in_fence = false;
    let (mut para_start, mut para) = (0, String::new());
    for (n, line) in doc.lines().enumerate() {
        let trimmed = line.trim_start();
        let fence = trimmed.starts_with("```");
        if !(in_fence || fence || trimmed.is_empty()) {
            if para.is_empty() {
                para_start = n + 1;
            }
            para.push_str(line);
            para.push('\n');
            continue;
        }
        spans(para_start, &para, &mut out);
        para.clear();
        if fence {
            in_fence = !in_fence;
        } else if in_fence {
            out.push(Code {
                line: n + 1,
                text: line.to_string(),
            });
        }
    }
    spans(para_start, &para, &mut out);
    out
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).into_iter().flatten().flatten() {
        let path = entry.path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Names an item is defined or re-exported under in the sources of `dir`.
fn defined_names(dir: &Path) -> BTreeSet<String> {
    let mut files = Vec::new();
    rust_files(dir, &mut files);
    let mut names = BTreeSet::new();
    for file in files {
        let src = fs::read_to_string(&file).expect("read source");
        let mut in_use = false;
        for line in src.lines() {
            let line = line.trim_start();
            if line.starts_with("//") {
                continue;
            }
            let words: Vec<&str> = line
                .split(|c: char| !is_ident(c))
                .filter(|w| !w.is_empty())
                .collect();
            if line.starts_with("pub use") || line.starts_with("pub(crate) use") {
                in_use = true;
            }
            if in_use {
                names.extend(words.iter().map(|w| (*w).to_string()));
                in_use = !line.contains(';');
                continue;
            }
            for pair in words.windows(2) {
                if ITEM_KEYWORDS.contains(&pair[0]) {
                    names.insert(pair[1].to_string());
                }
            }
        }
    }
    names
}

/// Library name → defined names, for every workspace crate.
fn workspace_crates() -> BTreeMap<String, BTreeSet<String>> {
    let root = root();
    let members = fs::read_dir(root.join("crates")).expect("crates/");
    let mut crates = BTreeMap::new();
    for dir in std::iter::once(root).chain(members.flatten().map(|e| e.path())) {
        let manifest = fs::read_to_string(dir.join("Cargo.toml")).expect("Cargo.toml");
        let package = &manifest[manifest.find("[package]").expect("[package]")..];
        let name = package
            .lines()
            .find_map(|l| l.trim().strip_prefix("name = \""))
            .and_then(|rest| rest.strip_suffix('"'))
            .expect("package name");
        crates.insert(name.replace('-', "_"), defined_names(&dir.join("src")));
    }
    crates
}

/// The paths written at the start of `text` (which starts `ident::`):
/// `a::b::c`, or one per item of a trailing `{x, y::z}` group.
fn paths_at(text: &str) -> Vec<Vec<&str>> {
    let stem_len = text
        .find(|c: char| !(is_ident(c) || c == ':'))
        .unwrap_or(text.len());
    let mut prefix: Vec<&str> = text[..stem_len].split("::").collect();
    if prefix.last() != Some(&"") {
        return vec![prefix];
    }
    prefix.pop();
    match text[stem_len..]
        .strip_prefix('{')
        .and_then(|g| g.split_once('}'))
    {
        Some((group, _)) => group
            .split(',')
            .map(str::trim)
            .filter(|item| !item.is_empty())
            .map(|item| prefix.iter().copied().chain(item.split("::")).collect())
            .collect(),
        None => vec![prefix],
    }
}

/// Start offsets of every `ident::` that is not itself a segment of a
/// longer path.
fn path_starts(text: &str) -> Vec<usize> {
    let bytes = text.as_bytes();
    let mut starts = Vec::new();
    for (i, c) in text.char_indices() {
        let boundary = i == 0 || {
            let prev = bytes[i - 1] as char;
            !(is_ident(prev) || prev == ':')
        };
        if boundary && is_ident(c) && !c.is_ascii_digit() {
            let len = text[i..]
                .find(|c: char| !is_ident(c))
                .unwrap_or(text.len() - i);
            if text[i + len..].starts_with("::") {
                starts.push(i);
            }
        }
    }
    starts
}

#[test]
fn design_is_an_index_of_at_most_500_lines() {
    let lines = read("DESIGN.md").lines().count();
    assert!(
        lines <= DESIGN_MAX_LINES,
        "DESIGN.md has {lines} lines, over {DESIGN_MAX_LINES}: put the detail in the \
         `//!` doc of the module that owns it and point at that module"
    );
}

#[test]
fn doc_code_paths_name_defined_items() {
    let crates = workspace_crates();
    let any_crate: BTreeSet<&str> = crates.values().flatten().map(String::as_str).collect();
    let mut bad = Vec::new();
    for doc in PATH_DOCS {
        for code in code_of(&read(doc)) {
            for at in path_starts(&code.text) {
                for path in paths_at(&code.text[at..]) {
                    let (head, name) = (path[0], path[path.len() - 1]);
                    if let Some(defined) = crates.get(head) {
                        if !defined.contains(name) {
                            bad.push(format!(
                                "{doc}:{}: `{}` — no item `{name}` in crate `{head}`",
                                code.line,
                                path.join("::")
                            ));
                        }
                    } else if head.starts_with(|c: char| c.is_ascii_lowercase())
                        // A module-relative path (`wavefront::advance`) is
                        // fine; a root defined nowhere names nothing.
                        && !FOREIGN_ROOTS.contains(&head)
                        && !any_crate.contains(head)
                    {
                        bad.push(format!(
                            "{doc}:{}: `{}` — `{head}` names no workspace crate or module",
                            code.line,
                            path.join("::")
                        ));
                    }
                }
            }
        }
    }
    assert!(bad.is_empty(), "stale code paths:\n{}", bad.join("\n"));
}

/// Every file under the repo root, as `/`-joined relative paths, skipping
/// build output and hidden directories.
fn repo_files(dir: &Path, rel: &str, out: &mut Vec<String>) {
    for entry in fs::read_dir(dir).into_iter().flatten().flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        let path = if rel.is_empty() {
            name.clone()
        } else {
            format!("{rel}/{name}")
        };
        if entry.path().is_dir() {
            if !(name.starts_with('.') || name == "target" || name == "out") {
                repo_files(&entry.path(), &path, out);
            }
        } else {
            out.push(path);
        }
    }
}

fn looks_like_file(token: &str) -> bool {
    token
        .chars()
        .all(|c| c.is_ascii_alphanumeric() || "_./-".contains(c))
        && token
            .rsplit_once('.')
            .is_some_and(|(stem, ext)| !stem.is_empty() && FILE_EXTENSIONS.contains(&ext))
}

#[test]
fn doc_file_paths_resolve() {
    let root = root();
    let mut files = Vec::new();
    repo_files(&root, "", &mut files);
    let mut bad = Vec::new();
    for doc in PATH_DOCS {
        let doc_dir = Path::new(doc).parent().unwrap_or(Path::new(""));
        for code in code_of(&read(doc)) {
            for token in code.text.split_whitespace() {
                let token = token
                    .trim_start_matches(['(', '['])
                    .trim_end_matches([',', ';', ':', ')', ']']);
                let file_name = token.rsplit_once('/').map_or(token, |(_, name)| name);
                if !looks_like_file(token) || RUN_OUTPUTS.contains(&file_name) {
                    continue;
                }
                let local = root.join(doc_dir).join(token).is_file();
                let from_root = root.join(token).is_file();
                let suffix = format!("/{token}");
                let matches = files.iter().filter(|f| f.ends_with(&suffix)).count();
                if !(local || from_root || matches == 1) {
                    bad.push(format!(
                        "{doc}:{}: `{token}` — no such file ({matches} files end with it)",
                        code.line
                    ));
                }
            }
        }
    }
    assert!(bad.is_empty(), "unresolved file paths:\n{}", bad.join("\n"));
}

/// The words after each `repro` (or a table cell's `… --`) in `text`,
/// with a leading `--` dropped.
fn repro_invocations(text: &str) -> Vec<Vec<&str>> {
    let tokens: Vec<&str> = text.split_whitespace().collect();
    let mut out = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        let starts = *t == "repro" || (i == 0 && *t == "…" && tokens.get(1) == Some(&"--"));
        if !starts {
            continue;
        }
        let mut args = &tokens[i + 1..];
        if args.first() == Some(&"--") {
            args = &args[1..];
        }
        out.push(args.to_vec());
    }
    out
}

#[test]
fn doc_repro_names_exist() {
    let experiments: BTreeSet<&str> = guess_bench::experiments::all()
        .iter()
        .map(|e| e.name)
        .collect();
    let scenarios: BTreeSet<&str> = guess_bench::scenarios::all()
        .iter()
        .map(|s| s.name)
        .collect();
    let mut bad = Vec::new();
    for doc in REPRO_DOCS {
        for code in code_of(&read(doc)) {
            for args in repro_invocations(&code.text) {
                let mut catalog = &experiments;
                let mut in_scenario = false;
                for arg in args {
                    // A flag, placeholder, option list or ellipsis ends the names.
                    if arg.starts_with(['-', '<', '[', '&', '|', '#', '('])
                        || arg.contains('…')
                        || arg.contains("...")
                    {
                        break;
                    }
                    if arg == "all" {
                        continue;
                    }
                    if arg == "scenario" && !in_scenario {
                        catalog = &scenarios;
                        in_scenario = true;
                        continue;
                    }
                    if !catalog.contains(arg) {
                        bad.push(format!(
                            "{doc}:{}: `repro … {arg}` — no such experiment or scenario",
                            code.line
                        ));
                    }
                }
            }
        }
    }
    assert!(bad.is_empty(), "stale repro names:\n{}", bad.join("\n"));
}

#[test]
fn design_inventory_names_every_crate() {
    let design = read("DESIGN.md");
    let start = design
        .find("\n## 3.")
        .expect("DESIGN.md has a §3 crate inventory");
    let section = &design[start + 1..];
    let section = &section[..section.find("\n## ").unwrap_or(section.len())];
    let mut missing = Vec::new();
    for entry in fs::read_dir(root().join("crates"))
        .expect("crates/")
        .flatten()
    {
        let dir = format!("crates/{}", entry.file_name().to_string_lossy());
        if !section.contains(&dir) {
            missing.push(dir);
        }
    }
    assert!(missing.is_empty(), "DESIGN.md §3 does not name {missing:?}");
}

#[test]
fn every_example_is_registered_and_shown() {
    let manifest = read("Cargo.toml");
    let readme = read("README.md");
    let mut bad = Vec::new();
    for entry in fs::read_dir(root().join("examples"))
        .expect("examples/")
        .flatten()
    {
        let file = entry.file_name().to_string_lossy().into_owned();
        let Some(name) = file.strip_suffix(".rs") else {
            continue;
        };
        let registered = manifest.split("[[example]]").skip(1).any(|block| {
            block.contains(&format!("name = \"{name}\""))
                && block.contains(&format!("path = \"examples/{file}\""))
        });
        if !registered {
            bad.push(format!("examples/{file} has no [[example]] in Cargo.toml"));
        }
        let command = format!("cargo run --release --example {name}");
        let shown = readme
            .match_indices(&command)
            .any(|(at, _)| !readme[at + command.len()..].starts_with(is_ident));
        if !shown {
            bad.push(format!("README.md has no `{command}` line"));
        }
    }
    assert!(bad.is_empty(), "{}", bad.join("\n"));
}
