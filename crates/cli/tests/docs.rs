//! The docs describe the tree they ship with. README, `docs/ARCHITECTURE.md`
//! and the verify skill are checked against it:
//!
//! * every backticked token that starts with a top-level directory of the
//!   repository (`crates/…`, `tests/…`, `docs/…`) names a path that exists,
//!   after any `::item` suffix is stripped;
//! * every `--flag` they show after `stack <subcommand>` is one that
//!   subcommand accepts. Each is probed with the value the docs give it and
//!   three stray positionals, which make the command exit 2 before it does
//!   any work.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

/// The documents checked, relative to the repository root.
const DOCS: [&str; 3] = [
    "README.md",
    "docs/ARCHITECTURE.md",
    ".claude/skills/verify/SKILL.md",
];

/// The `stack` subcommands.
const SUBCOMMANDS: [&str; 6] = ["check", "scan", "store", "gen-archive", "demo", "list"];

/// Words that end the shell command a doc line shows.
const COMMAND_ENDS: [&str; 7] = ["#", "|", "||", "&&", ";", ">", "2>"];

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Each document's text, with shell line continuations joined.
fn docs() -> Vec<(&'static str, String)> {
    DOCS.iter()
        .map(|&doc| {
            let text = std::fs::read_to_string(root().join(doc))
                .unwrap_or_else(|e| panic!("cannot read {doc}: {e}"));
            (doc, text.replace("\\\n", " "))
        })
        .collect()
}

/// The inline code spans of a markdown text, outside fenced blocks, with
/// their line numbers.
fn code_spans(text: &str) -> Vec<(usize, &str)> {
    let mut spans = Vec::new();
    let mut fenced = false;
    for (index, line) in text.lines().enumerate() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if !fenced {
            spans.extend(line.split('`').skip(1).step_by(2).map(|s| (index + 1, s)));
        }
    }
    spans
}

#[test]
fn every_backticked_repository_path_exists() {
    let root = root();
    let top: Vec<String> = std::fs::read_dir(&root)
        .expect("read the repository root")
        .filter_map(|entry| {
            let entry = entry.ok()?;
            let name = entry.file_name().into_string().ok()?;
            let listed = entry.path().is_dir() && !name.starts_with('.') && name != "target";
            listed.then(|| format!("{name}/"))
        })
        .collect();
    let (mut checked, mut missing) = (0, Vec::new());
    for (doc, text) in docs() {
        for (line, span) in code_spans(&text) {
            let token = span.split_whitespace().next().unwrap_or_default();
            if !top.iter().any(|dir| token.starts_with(dir.as_str())) {
                continue;
            }
            checked += 1;
            let path = token.split("::").next().unwrap_or_default();
            if !root.join(path).exists() {
                missing.push(format!("{doc}:{line}: `{span}`"));
            }
        }
    }
    assert!(
        missing.is_empty(),
        "the docs name paths that do not exist:\n{}",
        missing.join("\n")
    );
    assert!(
        checked > 20,
        "only {checked} paths found: is the scan broken?"
    );
}

/// Every `stack <subcommand> … --flag [value]` the docs show, as the
/// arguments of a probe: the subcommand (with its store operation), the
/// flag and the value the docs give it.
fn documented_flags(text: &str) -> BTreeSet<Vec<String>> {
    let mut probes = BTreeSet::new();
    // A backtick ends a command as surely as a line break does.
    for piece in text.lines().flat_map(|line| line.split('`')) {
        let words: Vec<&str> = piece.split_whitespace().collect();
        for (at, word) in words.iter().enumerate() {
            if *word != "stack" && !word.ends_with("/stack") {
                continue;
            }
            let mut rest = words[at + 1..].iter().map(|w| {
                w.trim_start_matches('[')
                    .trim_end_matches([']', ',', '.', ')'])
            });
            let mut command = rest.next();
            if command == Some("--") {
                command = rest.next();
            }
            let Some(command) = command.filter(|c| SUBCOMMANDS.contains(c)) else {
                continue;
            };
            let args: Vec<&str> = rest.take_while(|w| !COMMAND_ENDS.contains(w)).collect();
            let mut prefix = vec![command.to_string()];
            if command == "store" {
                match args.first() {
                    Some(op) if !op.starts_with("--") => prefix.push(op.to_string()),
                    _ => continue,
                }
            }
            for (i, arg) in args.iter().enumerate() {
                if !arg.starts_with("--") || arg.len() == 2 {
                    continue;
                }
                let mut probe = prefix.clone();
                probe.push(arg.to_string());
                if let Some(value) = args.get(i + 1).filter(|v| !v.starts_with("--")) {
                    probe.push(value.to_string());
                }
                probes.insert(probe);
            }
        }
    }
    probes
}

#[test]
fn every_documented_flag_is_accepted_by_its_subcommand() {
    let cwd = std::env::temp_dir().join(format!("stack-docs-{}", std::process::id()));
    std::fs::create_dir_all(&cwd).unwrap();
    let probes: BTreeSet<Vec<String>> = docs()
        .iter()
        .flat_map(|(_, text)| documented_flags(text))
        .collect();
    let mut stale = Vec::new();
    for probe in &probes {
        let output = Command::new(env!("CARGO_BIN_EXE_stack"))
            .args(probe)
            .args(["stray-1", "stray-2", "stray-3"])
            .current_dir(&cwd)
            .output()
            .expect("run stack");
        let stderr = String::from_utf8_lossy(&output.stderr);
        if stderr.contains("unknown flag") || stderr.contains("scan-only flag") {
            stale.push(format!("stack {}: {}", probe.join(" "), stderr.trim()));
        }
        // The strays make every probe exit 2 before any work runs.
        assert_eq!(output.status.code(), Some(2), "{probe:?}: {output:?}");
        assert!(output.stdout.is_empty(), "{probe:?} did work: {output:?}");
    }
    std::fs::remove_dir_all(&cwd).unwrap();
    assert!(
        stale.is_empty(),
        "the docs show flags their subcommand rejects:\n{}",
        stale.join("\n")
    );
    assert!(
        probes.len() > 10,
        "only {} flags found: {probes:?}",
        probes.len()
    );
}
