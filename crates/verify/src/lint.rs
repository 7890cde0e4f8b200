//! Source-scanning lint rules for the workspace (the `bp-lint` binary is a
//! thin wrapper over [`run`]).
//!
//! Seven rules, all line-based over the repo's own sources — no external
//! parser, so the lint works in the offline vendored build:
//!
//! * [`Rule::OrderingJustification`] — every `Ordering::` argument in the
//!   concurrency core (`crates/exec/src`, `crates/core/src/cache.rs`,
//!   `crates/core/src/memtier.rs`) must carry an
//!   `// ordering:` justification on the same line or in the comment block
//!   within the eight preceding lines (stopping at a blank line).
//! * [`Rule::NoUnwrap`] — no `unwrap()` / `expect(` calls in first-party
//!   library code (`crates/*/src`, root `src/`) outside `#[cfg(test)]`
//!   blocks.  `crates/bench` (the experiment harness, not a library) and the
//!   vendored stubs are out of scope.
//! * [`Rule::ForbidUnsafe`] — every crate root (each `src/lib.rs`,
//!   `src/main.rs`, and `src/bin/*.rs`, vendored stubs included) declares
//!   `#![forbid(unsafe_code)]`.
//! * [`Rule::NoStdFs`] — `crates/core/src/cache.rs` must perform all disk
//!   I/O through the `Storage` seam (`crates/core/src/storage.rs`), never
//!   via `std::fs` directly: a direct call would bypass fault injection
//!   and silently escape the crash-consistency torture suite.
//! * [`Rule::SimPointInCacheKeys`] — `crates/core/src/cache.rs` must not
//!   name `SimPointConfig` in code outside `#[cfg(test)]`: cache keys are
//!   derived from the `SelectionStrategy` seam (`fingerprint_bytes()`), and
//!   naming the concrete config in key derivation would silently re-couple
//!   the cache to one strategy and break every other backend's keys.
//! * [`Rule::CoreDrive`] — no trace walk in `crates/core/src/**` outside
//!   `segment.rs`: no region trace generated by hand (`region_trace(`) and
//!   no walk output built by hand (the `ProfileAccumulator::new(` /
//!   `IntervalRecorder::new(` a walk's recency engine feeds).  The segment
//!   scheduler's one walk request is the single way bp-core walks traces,
//!   so every sweep hot path stays checkpointable and segmentable; a walk
//!   hand-rolled elsewhere would silently bypass the `threads × segments`
//!   fan-out (and its counters).
//! * [`Rule::CoreCache`] — no artifact-cache probe or store
//!   (`.probe(` / `.store_arc(`) in `crates/core/src/**` outside `cache.rs`
//!   and `stages.rs`.  Each pipeline stage has one implementation in the
//!   stage module, shared by the staged chain and the sweep; a probe or
//!   store anywhere else would be a second copy of a stage that can drift
//!   from the first (different checkpoint rules, different counters).
//!
//! [`count`] measures code size rather than lint it: non-test lines and
//! public items (see [`CodeSize`]), for `bp-lint --count`.
//!
//! A finding can be suppressed with a `bp-lint: allow(<rule>)` comment on
//! the same line or the line above; every suppression is expected to carry
//! a justification in the surrounding comment.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

// The scanner's own pattern literals are split with `concat!` so this file
// does not trip the very rules it implements.
const PAT_UNWRAP: &str = concat!(".unw", "rap()");
const PAT_EXPECT: &str = concat!(".exp", "ect(");
const PAT_ORDERING: &str = concat!("Ordering", "::");
const PAT_STD_FS: &str = concat!("std::", "fs");
const PAT_FS_CALL: &str = concat!("fs", "::");
const PAT_FORBID: &str = concat!("#![forbid(", "unsafe_code)]");
const PAT_JUSTIFY: &str = concat!("ordering", ":");
const PAT_SIMPOINT_CFG: &str = concat!("SimPoint", "Config");
/// Everything the core-drive rule flags: hand-generated region traces and
/// hand-built walk outputs.
const PATS_CORE_DRIVE: [&str; 3] = [
    concat!("region", "_trace("),
    concat!("ProfileAccumulator", "::new("),
    concat!("IntervalRecorder", "::new("),
];
/// Everything the core-cache rule flags: the cache's degrading probe and
/// write-through store.
const PATS_CORE_CACHE: [&str; 2] = [concat!(".probe", "("), concat!(".store", "_arc(")];

/// Which lint rule a finding belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// Unjustified `Ordering::` argument in the concurrency core.
    OrderingJustification,
    /// `unwrap()` / `expect(` in library code outside `#[cfg(test)]`.
    NoUnwrap,
    /// Crate root missing `#![forbid(unsafe_code)]`.
    ForbidUnsafe,
    /// Direct `std::fs` use in the cache, bypassing the `Storage` seam.
    NoStdFs,
    /// `SimPointConfig` named in the cache outside tests, re-coupling key
    /// derivation to one concrete strategy instead of the strategy seam.
    SimPointInCacheKeys,
    /// Trace walk (hand-generated region trace, bp-warmup collection walk,
    /// or hand-built walk output) in bp-core outside the segment scheduler.
    CoreDrive,
    /// Artifact-cache probe or store in bp-core outside the cache and the
    /// stage implementations.
    CoreCache,
}

impl Rule {
    /// The rule's name as used in `bp-lint: allow(<name>)` escapes.
    pub fn name(self) -> &'static str {
        match self {
            Rule::OrderingJustification => "ordering",
            Rule::NoUnwrap => "unwrap",
            Rule::ForbidUnsafe => "forbid-unsafe",
            Rule::NoStdFs => "std-fs",
            Rule::SimPointInCacheKeys => "simpoint-in-cache",
            Rule::CoreDrive => "core-drive",
            Rule::CoreCache => "core-cache",
        }
    }
}

/// One lint finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// File the finding is in, relative to the scanned root.
    pub file: PathBuf,
    /// 1-based line number (0 for whole-file findings).
    pub line: usize,
    /// The violated rule.
    pub rule: Rule,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file.display(), self.line, self.rule.name(), self.message)
    }
}

/// Strips a line down to its code part: text after `//` is removed unless
/// the `//` sits inside a string literal.  A deliberately simple scanner —
/// it understands `"` and `\"` but not raw strings, which the linted code
/// does not use in ways that matter here.
fn code_part(line: &str) -> &str {
    let bytes = line.as_bytes();
    let mut in_str = false;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' if in_str => i += 1,
            b'"' => in_str = !in_str,
            b'/' if !in_str && i + 1 < bytes.len() && bytes[i + 1] == b'/' => {
                return &line[..i];
            }
            _ => {}
        }
        i += 1;
    }
    line
}

/// The comment part of a line (`//` onward), if any.
fn comment_part(line: &str) -> Option<&str> {
    let code_len = code_part(line).len();
    if code_len < line.len() {
        Some(&line[code_len..])
    } else {
        None
    }
}

/// Whether `line` (or the line before it) carries a `bp-lint: allow(<rule>)`
/// escape for `rule`.
fn allowed(lines: &[&str], idx: usize, rule: Rule) -> bool {
    let escape = format!("bp-lint: allow({})", rule.name());
    let here = lines[idx].contains(&escape);
    let above = idx > 0 && lines[idx - 1].contains(&escape);
    here || above
}

/// Tracks `#[cfg(test)]`-gated regions with brace counting: from the
/// attribute, the region spans the next top-level `{..}` block.
struct TestRegionTracker {
    depth: Option<usize>,
    pending: bool,
    brace_depth: isize,
}

impl TestRegionTracker {
    fn new() -> Self {
        Self { depth: None, pending: false, brace_depth: 0 }
    }

    /// Feeds one line; returns whether the line is inside (or opens) a
    /// `#[cfg(test)]` region.
    fn feed(&mut self, line: &str) -> bool {
        let code = code_part(line);
        let trimmed = line.trim_start();
        if trimmed.starts_with("#[cfg(test)]") || trimmed.starts_with("#[cfg(all(test") {
            self.pending = true;
            return true;
        }
        let in_test = self.pending || self.depth.is_some();
        for byte in code.bytes() {
            match byte {
                b'{' => {
                    self.brace_depth += 1;
                    if self.pending {
                        // The attribute's item body opens here.
                        self.depth = Some(self.brace_depth as usize);
                        self.pending = false;
                    }
                }
                b'}' => {
                    if let Some(depth) = self.depth {
                        if self.brace_depth == depth as isize {
                            self.depth = None;
                        }
                    }
                    self.brace_depth -= 1;
                }
                _ => {}
            }
        }
        in_test || self.depth.is_some()
    }
}

/// Recursively collects `.rs` files under `dir`, skipping `target/` and
/// hidden directories.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            rust_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Normalizes `path` relative to `root` with `/` separators (for scope
/// matching and stable report output).
fn rel(root: &Path, path: &Path) -> PathBuf {
    path.strip_prefix(root).unwrap_or(path).to_path_buf()
}

fn rel_str(root: &Path, path: &Path) -> String {
    rel(root, path).to_string_lossy().replace('\\', "/")
}

/// Scope of the `Ordering::` justification rule.
fn in_ordering_scope(rel: &str) -> bool {
    rel.starts_with("crates/exec/src/")
        || rel == "crates/core/src/cache.rs"
        || rel == "crates/core/src/memtier.rs"
}

/// Scope of the unwrap/expect rule: first-party library sources.
fn in_unwrap_scope(rel: &str) -> bool {
    if rel.starts_with("vendor/") || rel.starts_with("crates/bench/") {
        return false;
    }
    if let Some(rest) = rel.strip_prefix("crates/") {
        return rest.split_once('/').is_some_and(|(_, tail)| tail.starts_with("src/"));
    }
    rel.starts_with("src/")
}

/// The file whose disk I/O must flow through the `Storage` seam: the
/// cache implementation.  The seam itself (`storage.rs`) is the single
/// place `std::fs` may be named.
fn in_std_fs_scope(rel: &str) -> bool {
    rel == "crates/core/src/cache.rs"
}

/// The file whose cache-key derivation must stay strategy-agnostic: the
/// cache implementation keys on `SelectionStrategy::fingerprint_bytes()`
/// and must never name the concrete `SimPointConfig` outside tests.
fn in_simpoint_key_scope(rel: &str) -> bool {
    rel == "crates/core/src/cache.rs"
}

/// Scope of the trace-drive rule: all of bp-core except the segment
/// scheduler (`segment.rs`), the single module allowed to walk traces.
fn in_core_drive_scope(rel: &str) -> bool {
    rel.starts_with("crates/core/src/") && rel != "crates/core/src/segment.rs"
}

/// Scope of the cache-probe rule: all of bp-core except the cache itself
/// and the stage implementations (`stages.rs`), the one module that probes
/// and stores on the pipeline's behalf.
fn in_core_cache_scope(rel: &str) -> bool {
    rel.starts_with("crates/core/src/")
        && rel != "crates/core/src/cache.rs"
        && rel != "crates/core/src/stages.rs"
}

/// Crate roots that must carry `#![forbid(unsafe_code)]`.
fn is_crate_root(rel: &str) -> bool {
    rel.ends_with("src/lib.rs") || rel.ends_with("src/main.rs") || rel.contains("src/bin/")
}

/// Runs every lint rule over the repo rooted at `root`, returning all
/// findings (empty = clean).
pub fn run(root: &Path) -> io::Result<Vec<Finding>> {
    let mut files = Vec::new();
    rust_files(&root.join("crates"), &mut files)?;
    rust_files(&root.join("vendor"), &mut files)?;
    rust_files(&root.join("src"), &mut files)?;
    files.sort();

    let mut findings = Vec::new();
    for path in &files {
        let rel = rel_str(root, path);
        let content = fs::read_to_string(path)?;
        lint_file(&rel, &content, &mut findings);
    }
    Ok(findings)
}

/// Lints one file's content (separated from [`run`] so tests can feed
/// synthetic sources without touching the filesystem).
pub fn lint_file(rel: &str, content: &str, findings: &mut Vec<Finding>) {
    let lines: Vec<&str> = content.lines().collect();

    if is_crate_root(rel) && !content.contains(PAT_FORBID) {
        findings.push(Finding {
            file: PathBuf::from(rel),
            line: 0,
            rule: Rule::ForbidUnsafe,
            message: format!("crate root missing {PAT_FORBID}"),
        });
    }

    let check_ordering = in_ordering_scope(rel);
    let check_unwrap = in_unwrap_scope(rel);
    let check_std_fs = in_std_fs_scope(rel);
    let check_simpoint = in_simpoint_key_scope(rel);
    let check_drive = in_core_drive_scope(rel);
    let check_cache = in_core_cache_scope(rel);
    if !(check_ordering
        || check_unwrap
        || check_std_fs
        || check_simpoint
        || check_drive
        || check_cache)
    {
        return;
    }

    let mut tracker = TestRegionTracker::new();
    for (idx, line) in lines.iter().enumerate() {
        let in_test = tracker.feed(line);
        let code = code_part(line);
        let lineno = idx + 1;

        if check_ordering && code.contains(PAT_ORDERING) && !in_test {
            let justified = has_ordering_justification(&lines, idx);
            if !justified && !allowed(&lines, idx, Rule::OrderingJustification) {
                findings.push(Finding {
                    file: PathBuf::from(rel),
                    line: lineno,
                    rule: Rule::OrderingJustification,
                    message: format!(
                        "{PAT_ORDERING} argument without an `// {PAT_JUSTIFY}` justification \
                         on this line or in the preceding comment block"
                    ),
                });
            }
        }

        if check_unwrap
            && !in_test
            && (code.contains(PAT_UNWRAP) || code.contains(PAT_EXPECT))
            && !allowed(&lines, idx, Rule::NoUnwrap)
        {
            findings.push(Finding {
                file: PathBuf::from(rel),
                line: lineno,
                rule: Rule::NoUnwrap,
                message: "unwrap/expect in library code outside #[cfg(test)]".to_string(),
            });
        }

        if check_std_fs
            && !in_test
            && (code.contains(PAT_STD_FS) || code.contains(PAT_FS_CALL))
            && !allowed(&lines, idx, Rule::NoStdFs)
        {
            findings.push(Finding {
                file: PathBuf::from(rel),
                line: lineno,
                rule: Rule::NoStdFs,
                message: format!(
                    "direct {PAT_STD_FS} access bypasses the Storage seam \
                     (and with it fault injection) — go through `self.storage`"
                ),
            });
        }

        if check_simpoint
            && !in_test
            && code.contains(PAT_SIMPOINT_CFG)
            && !allowed(&lines, idx, Rule::SimPointInCacheKeys)
        {
            findings.push(Finding {
                file: PathBuf::from(rel),
                line: lineno,
                rule: Rule::SimPointInCacheKeys,
                message: format!(
                    "{PAT_SIMPOINT_CFG} named in cache code outside tests — key derivation \
                     must stay on the SelectionStrategy seam (fingerprint_bytes())"
                ),
            });
        }

        if check_drive
            && !in_test
            && PATS_CORE_DRIVE.iter().any(|pat| code.contains(pat))
            && !allowed(&lines, idx, Rule::CoreDrive)
        {
            findings.push(Finding {
                file: PathBuf::from(rel),
                line: lineno,
                rule: Rule::CoreDrive,
                message: "trace walk in bp-core outside the segment scheduler — route it \
                          through `crate::segment::TraceWalk` so sweep hot paths stay \
                          checkpointable and segmentable"
                    .to_string(),
            });
        }

        if check_cache
            && !in_test
            && PATS_CORE_CACHE.iter().any(|pat| code.contains(pat))
            && !allowed(&lines, idx, Rule::CoreCache)
        {
            findings.push(Finding {
                file: PathBuf::from(rel),
                line: lineno,
                rule: Rule::CoreCache,
                message: "artifact-cache probe or store in bp-core outside the stage \
                          implementations — call the stage's function in `crate::stages` so \
                          the staged chain and the sweep keep one set of cache rules"
                    .to_string(),
            });
        }
    }
}

/// Non-test lines and public items of some source files: the code-size
/// measure of the repo's refactors.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CodeSize {
    /// Lines of each file up to its first top-level `#[cfg(test)]`.
    pub lines: usize,
    /// `pub fn|struct|enum|trait|type|const|static|mod` declarations among
    /// those lines; `pub use`, `pub(crate)` items and fields do not count.
    pub pub_items: usize,
}

/// Declaration keywords that make a `pub` line a public item.
const ITEM_KEYWORDS: [&str; 8] =
    ["fn", "struct", "enum", "trait", "type", "const", "static", "mod"];

/// Measures one file's content (see [`CodeSize`]).
fn count_file(content: &str) -> CodeSize {
    let mut tracker = TestRegionTracker::new();
    let mut size = CodeSize::default();
    for line in content.lines() {
        let top_level = tracker.brace_depth == 0;
        if tracker.feed(line) && top_level {
            break;
        }
        size.lines += 1;
        let code = code_part(line).trim_start();
        let keyword = code.strip_prefix("pub ").and_then(|rest| rest.split_whitespace().next());
        if keyword.is_some_and(|keyword| ITEM_KEYWORDS.contains(&keyword)) {
            size.pub_items += 1;
        }
    }
    size
}

/// Measures every crate under `root/crates`, each its `src` tree: one
/// `(crate directory name, size)` row per crate, in name order.
pub fn count(root: &Path) -> io::Result<Vec<(String, CodeSize)>> {
    let mut crates: Vec<PathBuf> = fs::read_dir(root.join("crates"))?
        .map(|entry| entry.map(|e| e.path()))
        .collect::<Result<_, _>>()?;
    crates.sort();
    let mut rows = Vec::new();
    for dir in crates {
        let mut files = Vec::new();
        rust_files(&dir.join("src"), &mut files)?;
        let mut size = CodeSize::default();
        for path in &files {
            let file = count_file(&fs::read_to_string(path)?);
            size.lines += file.lines;
            size.pub_items += file.pub_items;
        }
        if !files.is_empty() {
            rows.push((dir.file_name().unwrap_or_default().to_string_lossy().into_owned(), size));
        }
    }
    Ok(rows)
}

/// Looks for an `ordering:` justification: on the line itself (comment
/// part), or in the comment block spanning up to eight lines directly above
/// (stopping at the first blank line).
fn has_ordering_justification(lines: &[&str], idx: usize) -> bool {
    if let Some(comment) = comment_part(lines[idx]) {
        if comment.contains(PAT_JUSTIFY) {
            return true;
        }
    }
    let mut back = 0;
    let mut i = idx;
    while i > 0 && back < 8 {
        i -= 1;
        back += 1;
        let line = lines[i];
        if line.trim().is_empty() {
            return false;
        }
        let trimmed = line.trim_start();
        if trimmed.starts_with("//") {
            if trimmed.contains(PAT_JUSTIFY) {
                return true;
            }
            continue;
        }
        if let Some(comment) = comment_part(line) {
            if comment.contains(PAT_JUSTIFY) {
                return true;
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_str(rel: &str, content: &str) -> Vec<Finding> {
        let mut findings = Vec::new();
        lint_file(rel, content, &mut findings);
        findings
    }

    #[test]
    fn unjustified_ordering_is_flagged() {
        let src = "fn f(a: &A) {\n    a.load(Ordering::Relaxed);\n}\n";
        let findings = lint_str("crates/exec/src/lib.rs", src);
        assert!(findings.iter().any(|f| f.rule == Rule::OrderingJustification));
    }

    #[test]
    fn same_line_justification_passes() {
        let src = "fn f(a: &A) {\n    a.load(Ordering::Relaxed); // ordering: telemetry only\n}\n";
        let findings = lint_str("crates/exec/src/lib.rs", src);
        assert!(!findings.iter().any(|f| f.rule == Rule::OrderingJustification));
    }

    #[test]
    fn preceding_block_justification_passes() {
        let src = "fn f(a: &A) {\n    // ordering: Acquire pairs with the release store in g().\n    // Spans two lines.\n    a.load(Ordering::Acquire);\n}\n";
        let findings = lint_str("crates/exec/src/lib.rs", src);
        assert!(!findings.iter().any(|f| f.rule == Rule::OrderingJustification));
    }

    #[test]
    fn blank_line_breaks_justification_block() {
        let src = "// ordering: far away\n\nfn f(a: &A) {\n    a.load(Ordering::Relaxed);\n}\n";
        let findings = lint_str("crates/exec/src/lib.rs", src);
        assert!(findings.iter().any(|f| f.rule == Rule::OrderingJustification));
    }

    #[test]
    fn unwrap_in_library_is_flagged_but_test_block_is_not() {
        let bad = format!("fn f() {{\n    x{}; \n}}\n", PAT_UNWRAP);
        let findings = lint_str("crates/core/src/select.rs", &bad);
        assert!(findings.iter().any(|f| f.rule == Rule::NoUnwrap));

        let test_only =
            format!("#[cfg(test)]\nmod tests {{\n    fn f() {{ x{}; }}\n}}\n", PAT_UNWRAP);
        let findings = lint_str("crates/core/src/select.rs", &test_only);
        assert!(!findings.iter().any(|f| f.rule == Rule::NoUnwrap));
    }

    #[test]
    fn allow_escape_suppresses() {
        let src = format!(
            "fn f() {{\n    // bp-lint: allow(unwrap) — infallible by construction\n    x{};\n}}\n",
            PAT_UNWRAP
        );
        let findings = lint_str("crates/core/src/select.rs", &src);
        assert!(!findings.iter().any(|f| f.rule == Rule::NoUnwrap));
    }

    #[test]
    fn missing_forbid_unsafe_is_flagged() {
        let findings = lint_str("crates/foo/src/lib.rs", "pub fn f() {}\n");
        assert!(findings.iter().any(|f| f.rule == Rule::ForbidUnsafe));
        let findings =
            lint_str("crates/foo/src/lib.rs", "#![forbid(unsafe_code)]\npub fn f() {}\n");
        assert!(!findings.iter().any(|f| f.rule == Rule::ForbidUnsafe));
    }

    #[test]
    fn comment_occurrences_do_not_count_as_code() {
        let src = format!("// mentions {} in prose only\nfn f() {{}}\n", PAT_UNWRAP);
        let findings = lint_str("crates/core/src/select.rs", &src);
        assert!(!findings.iter().any(|f| f.rule == Rule::NoUnwrap));
    }

    #[test]
    fn std_fs_in_cache_is_flagged() {
        for src in [
            format!("use {};\n", PAT_STD_FS),
            format!("fn f() {{ {}read(p); }}\n", PAT_FS_CALL),
            format!("fn f() {{ {}::remove_file(p); }}\n", PAT_STD_FS),
        ] {
            let findings = lint_str("crates/core/src/cache.rs", &src);
            assert!(findings.iter().any(|f| f.rule == Rule::NoStdFs), "must flag: {src}");
        }
    }

    #[test]
    fn std_fs_rule_is_scoped_to_the_cache() {
        let src = format!("use {};\nfn f() {{ {}read(p); }}\n", PAT_STD_FS, PAT_FS_CALL);
        // The seam itself and unrelated modules may touch the filesystem.
        for rel in ["crates/core/src/storage.rs", "crates/warmup/src/mru.rs"] {
            let findings = lint_str(rel, &src);
            assert!(!findings.iter().any(|f| f.rule == Rule::NoStdFs), "must not flag {rel}");
        }
    }

    #[test]
    fn simpoint_config_in_cache_code_is_flagged() {
        let src = format!("fn key(config: &{}) -> u64 {{ 0 }}\n", PAT_SIMPOINT_CFG);
        let findings = lint_str("crates/core/src/cache.rs", &src);
        assert!(findings.iter().any(|f| f.rule == Rule::SimPointInCacheKeys));
        // Other modules may name the concrete config freely.
        for rel in ["crates/core/src/select.rs", "crates/clustering/src/simpoint.rs"] {
            let findings = lint_str(rel, &src);
            assert!(
                !findings.iter().any(|f| f.rule == Rule::SimPointInCacheKeys),
                "must not flag {rel}"
            );
        }
    }

    #[test]
    fn simpoint_config_in_cache_tests_comments_and_allows_pass() {
        let in_test = format!(
            "#[cfg(test)]\nmod tests {{\n    use bp_clustering::{};\n}}\n",
            PAT_SIMPOINT_CFG
        );
        let findings = lint_str("crates/core/src/cache.rs", &in_test);
        assert!(!findings.iter().any(|f| f.rule == Rule::SimPointInCacheKeys));

        let comment_only =
            format!("/// For SimPoint those bytes are the serialized {}.\n", PAT_SIMPOINT_CFG);
        let findings = lint_str("crates/core/src/cache.rs", &comment_only);
        assert!(!findings.iter().any(|f| f.rule == Rule::SimPointInCacheKeys));

        let escaped = format!(
            "fn f() {{\n    // bp-lint: allow(simpoint-in-cache) — migration shim\n    \
             let _ = {}::paper();\n}}\n",
            PAT_SIMPOINT_CFG
        );
        let findings = lint_str("crates/core/src/cache.rs", &escaped);
        assert!(!findings.iter().any(|f| f.rule == Rule::SimPointInCacheKeys));
    }

    #[test]
    fn trace_walk_in_core_is_flagged_outside_the_segment_scheduler() {
        let [region_trace, accumulator_new, recorder_new] = PATS_CORE_DRIVE;
        for src in [
            format!("fn f(w: &W) {{ let _ = w.{region_trace}3, 0); }}\n"),
            format!("fn f(w: &W) {{ let _ = {accumulator_new}w, 0); }}\n"),
            format!("fn f(b: &[usize]) {{ let _ = {recorder_new}b, 64); }}\n"),
        ] {
            let findings = lint_str("crates/core/src/sweep.rs", &src);
            assert!(findings.iter().any(|f| f.rule == Rule::CoreDrive), "must flag: {src}");
            // The segment scheduler is the single permitted call site.
            let findings = lint_str("crates/core/src/segment.rs", &src);
            assert!(!findings.iter().any(|f| f.rule == Rule::CoreDrive), "segment.rs: {src}");
            // Other crates walk traces freely (bp-warmup's functional
            // replay and tests, the simulator, the integration suites, ...).
            let findings = lint_str("crates/warmup/src/mru.rs", &src);
            assert!(!findings.iter().any(|f| f.rule == Rule::CoreDrive), "out of scope: {src}");
        }
    }

    #[test]
    fn core_drive_tests_comments_and_allows_pass() {
        let in_test = format!(
            "#[cfg(test)]\nmod tests {{\n    fn f(w: &W) {{ let _ = w.{}3, 0); }}\n}}\n",
            PATS_CORE_DRIVE[0]
        );
        let findings = lint_str("crates/core/src/profile.rs", &in_test);
        assert!(!findings.iter().any(|f| f.rule == Rule::CoreDrive));

        let comment_only = format!(
            "/// prose about [`bp_workload::Workload::{}`] goes here\nfn f() {{}}\n",
            PATS_CORE_DRIVE[0]
        );
        let findings = lint_str("crates/core/src/profile.rs", &comment_only);
        assert!(!findings.iter().any(|f| f.rule == Rule::CoreDrive));

        let escaped = format!(
            "fn f(w: &W) {{\n    // bp-lint: allow(core-drive) — one-shot diagnostic walk\n    \
             let _ = w.{}3, 0);\n}}\n",
            PATS_CORE_DRIVE[0]
        );
        let findings = lint_str("crates/core/src/profile.rs", &escaped);
        assert!(!findings.iter().any(|f| f.rule == Rule::CoreDrive));
    }

    #[test]
    fn cache_probe_in_core_is_flagged_outside_the_stage_module() {
        let [probe, store] = PATS_CORE_CACHE;
        for src in [
            format!("fn f(c: &ArtifactCache, k: &K) {{ let _ = c{probe}k); }}\n"),
            format!("fn f(c: &ArtifactCache, k: &K, a: &Arc<A>) {{ c{store}k, a); }}\n"),
        ] {
            let findings = lint_str("crates/core/src/sweep.rs", &src);
            assert!(findings.iter().any(|f| f.rule == Rule::CoreCache), "must flag: {src}");
            // The stage implementations and the cache itself are the
            // permitted call sites.
            for allowed_module in ["crates/core/src/stages.rs", "crates/core/src/cache.rs"] {
                let findings = lint_str(allowed_module, &src);
                assert!(
                    !findings.iter().any(|f| f.rule == Rule::CoreCache),
                    "{allowed_module}: {src}"
                );
            }
            // Other crates are out of scope.
            let findings = lint_str("perfbench/src/layers.rs", &src);
            assert!(!findings.iter().any(|f| f.rule == Rule::CoreCache), "out of scope: {src}");
        }
    }

    #[test]
    fn core_cache_tests_and_allows_pass() {
        let in_test = format!(
            "#[cfg(test)]\nmod tests {{\n    fn f(c: &ArtifactCache) {{ c{}k); }}\n}}\n",
            PATS_CORE_CACHE[0]
        );
        let findings = lint_str("crates/core/src/pipeline.rs", &in_test);
        assert!(!findings.iter().any(|f| f.rule == Rule::CoreCache));

        let escaped = format!(
            "fn f(c: &ArtifactCache) {{\n    // bp-lint: allow(core-cache) — diagnostic probe\n    \
             let _ = c{}k);\n}}\n",
            PATS_CORE_CACHE[0]
        );
        let findings = lint_str("crates/core/src/pipeline.rs", &escaped);
        assert!(!findings.iter().any(|f| f.rule == Rule::CoreCache));
    }

    #[test]
    fn count_stops_at_the_first_top_level_test_module_and_counts_public_items() {
        let src = "\
//! Doc.
pub struct A {
    pub field: u64,
}
pub(crate) fn hidden() {}
pub use a::B;
impl A {
    pub const fn new() -> Self { A { field: 0 } }
    #[cfg(test)]
    pub fn only_in_tests() {}
    pub fn after_inner_test_item() {} // pub fn in a comment
}
#[cfg(test)]
mod tests {
    pub fn not_counted() {}
}
pub fn after_the_tests() {}
";
        // The 12 lines above the top-level `#[cfg(test)]`: the attribute
        // inside `impl A` does not end the count.  Their public items are
        // `A`, `new`, `only_in_tests` and `after_inner_test_item`.
        let size = count_file(src);
        assert_eq!(size, CodeSize { lines: 12, pub_items: 4 });
        assert_eq!(count_file(""), CodeSize::default());
    }

    #[test]
    fn std_fs_in_cache_tests_and_allows_pass() {
        let in_test =
            format!("#[cfg(test)]\nmod tests {{\n    fn f() {{ {}read(p); }}\n}}\n", PAT_FS_CALL);
        let findings = lint_str("crates/core/src/cache.rs", &in_test);
        assert!(!findings.iter().any(|f| f.rule == Rule::NoStdFs));

        let escaped = format!(
            "fn f() {{\n    // bp-lint: allow(std-fs) — seam bootstrap\n    {}read(p);\n}}\n",
            PAT_FS_CALL
        );
        let findings = lint_str("crates/core/src/cache.rs", &escaped);
        assert!(!findings.iter().any(|f| f.rule == Rule::NoStdFs));

        let comment_only = format!("/// prose about {} goes here\nfn f() {{}}\n", PAT_STD_FS);
        let findings = lint_str("crates/core/src/cache.rs", &comment_only);
        assert!(!findings.iter().any(|f| f.rule == Rule::NoStdFs));
    }
}
