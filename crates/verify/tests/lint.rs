//! End-to-end tests for `bp-lint`: the library scan over seeded violation
//! fixtures, the binary's exit behavior, and — the gate that matters — a
//! clean scan of this very workspace.

use bp_verify::lint::{run, Finding, Rule};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

/// A scratch directory namespaced by test and process so parallel tests
/// never collide.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bp-lint-fixture-{tag}-{}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    dir
}

fn write(root: &Path, rel: &str, content: &str) {
    let path = root.join(rel);
    fs::create_dir_all(path.parent().unwrap()).unwrap();
    fs::write(path, content).unwrap();
}

/// The real workspace this crate lives in.
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap().parent().unwrap().to_path_buf()
}

fn rules_by_file(findings: &[Finding]) -> Vec<(String, usize, &'static str)> {
    findings
        .iter()
        .map(|f| (f.file.to_string_lossy().replace('\\', "/"), f.line, f.rule.name()))
        .collect()
}

/// The acceptance gate: the workspace itself must scan clean.  (CI runs the
/// binary for this; the test pins it at `cargo test` time too, so a lint
/// regression fails fast and locally.)
#[test]
fn the_workspace_scans_clean() {
    let findings = run(&workspace_root()).unwrap();
    let rendered: Vec<String> = findings.iter().map(|f| f.to_string()).collect();
    assert!(rendered.is_empty(), "workspace lint violations:\n{}", rendered.join("\n"));
}

/// Every rule fires on a seeded fixture tree, and only where expected:
/// `#[cfg(test)]` regions, justification comments, and `bp-lint: allow`
/// escapes all suppress their rule.
#[test]
fn seeded_fixture_tree_produces_exactly_the_expected_findings() {
    let root = scratch("seeded");
    write(
        &root,
        "crates/foo/src/lib.rs",
        "pub fn f() -> u32 {\n\
         \x20   let v: Option<u32> = Some(1);\n\
         \x20   v.unwrap()\n\
         }\n\
         \n\
         #[cfg(test)]\n\
         mod tests {\n\
         \x20   #[test]\n\
         \x20   fn ok() {\n\
         \x20       assert_eq!(Some(2).unwrap(), 2);\n\
         \x20   }\n\
         }\n",
    );
    write(
        &root,
        "crates/exec/src/lib.rs",
        "#![forbid(unsafe_code)]\n\
         use std::sync::Mutex;\n\
         use std::sync::atomic::{AtomicU64, Ordering};\n\
         \n\
         pub fn load_unjustified(a: &AtomicU64) -> u64 {\n\
         \x20   a.load(Ordering::Relaxed)\n\
         }\n\
         \n\
         pub fn load_justified(a: &AtomicU64) -> u64 {\n\
         \x20   // ordering: Relaxed — fixture justification.\n\
         \x20   a.load(Ordering::Relaxed)\n\
         }\n\
         \n\
         pub struct NotAMutex(pub Mutex<u64>);\n",
    );
    write(
        &root,
        "crates/core/src/cache.rs",
        "use std::fs;\n\
         \n\
         pub fn direct(p: &std::path::Path) -> Vec<u8> {\n\
         \x20   fs::read(p).unwrap_or_default()\n\
         }\n\
         \n\
         pub fn escaped(p: &std::path::Path) {\n\
         \x20   // bp-lint: allow(std-fs) — fixture escape.\n\
         \x20   fs::remove_file(p).ok();\n\
         }\n\
         \n\
         #[cfg(test)]\n\
         mod tests {\n\
         \x20   fn scratch() {\n\
         \x20       std::fs::remove_dir_all(\"x\").ok();\n\
         \x20   }\n\
         }\n",
    );
    let findings = run(&root).unwrap();
    let mut got = rules_by_file(&findings);
    got.sort();
    let mut expected = vec![
        ("crates/foo/src/lib.rs".to_string(), 0, Rule::ForbidUnsafe.name()),
        ("crates/foo/src/lib.rs".to_string(), 3, Rule::NoUnwrap.name()),
        ("crates/exec/src/lib.rs".to_string(), 6, Rule::OrderingJustification.name()),
        ("crates/core/src/cache.rs".to_string(), 1, Rule::NoStdFs.name()),
        ("crates/core/src/cache.rs".to_string(), 4, Rule::NoStdFs.name()),
    ];
    expected.sort();
    assert_eq!(got, expected, "full findings: {findings:#?}");
    fs::remove_dir_all(&root).ok();
}

/// The binary exits non-zero on a tree with violations and prints each
/// finding with its rule name.
#[test]
fn the_binary_fails_on_a_seeded_violation() {
    let root = scratch("bin-fail");
    write(&root, "crates/foo/src/lib.rs", "pub fn f() {}\n");
    let output = Command::new(env!("CARGO_BIN_EXE_bp-lint")).arg(&root).output().unwrap();
    assert!(!output.status.success(), "bp-lint must fail on a violating tree");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("[forbid-unsafe]"), "findings must be printed: {stdout}");
    fs::remove_dir_all(&root).ok();
}

/// The binary exits zero and reports a clean scan on a violation-free tree.
#[test]
fn the_binary_passes_on_a_clean_tree() {
    let root = scratch("bin-clean");
    write(&root, "crates/ok/src/lib.rs", "#![forbid(unsafe_code)]\n\npub fn ok() {}\n");
    let output = Command::new(env!("CARGO_BIN_EXE_bp-lint")).arg(&root).output().unwrap();
    assert!(output.status.success(), "bp-lint must pass on a clean tree");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("bp-lint: clean"), "clean scan must be reported: {stdout}");
    fs::remove_dir_all(&root).ok();
}
