//! `bp-lint` — repo lint for the BarrierPoint concurrency core.
//!
//! Usage: `bp-lint [--count] [ROOT]` (default: current directory, i.e. the
//! workspace root when invoked as `cargo run -p bp-verify --bin bp-lint`).
//!
//! Exits non-zero when any finding is reported (`-D` semantics: every rule
//! is deny-by-default; suppressions go through explicit
//! `bp-lint: allow(<rule>)` comments in the source).
//!
//! With `--count` it lints nothing and prints each crate's non-test lines
//! and public items instead, and their totals (see
//! [`bp_verify::lint::CodeSize`]).

#![forbid(unsafe_code)]

use bp_verify::lint::CodeSize;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1).peekable();
    let count = args.next_if_eq("--count").is_some();
    let root = args.next().map_or_else(|| PathBuf::from("."), PathBuf::from);
    if count {
        return print_counts(&root);
    }
    let findings = match bp_verify::lint::run(&root) {
        Ok(findings) => findings,
        Err(err) => {
            eprintln!("bp-lint: failed to scan {}: {err}", root.display());
            return ExitCode::FAILURE;
        }
    };
    if findings.is_empty() {
        println!("bp-lint: clean");
        return ExitCode::SUCCESS;
    }
    for finding in &findings {
        println!("{finding}");
    }
    eprintln!("bp-lint: {} finding(s)", findings.len());
    ExitCode::FAILURE
}

fn print_counts(root: &Path) -> ExitCode {
    let rows = match bp_verify::lint::count(root) {
        Ok(rows) => rows,
        Err(err) => {
            eprintln!("bp-lint: failed to count {}: {err}", root.display());
            return ExitCode::FAILURE;
        }
    };
    println!("{:<12} {:>7} {:>10}", "crate", "lines", "pub items");
    let mut total = CodeSize::default();
    for (name, size) in &rows {
        println!("{name:<12} {:>7} {:>10}", size.lines, size.pub_items);
        total.lines += size.lines;
        total.pub_items += size.pub_items;
    }
    println!("{:<12} {:>7} {:>10}", "total", total.lines, total.pub_items);
    ExitCode::SUCCESS
}
