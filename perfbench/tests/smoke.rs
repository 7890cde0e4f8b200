//! Smoke tests of the benchmark binary at minimal length: one rotation of
//! ops on tiny kernels, one set-up.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::process::Command;

/// Runs the benchmark on tiny inputs and returns its stdout, asserting a
/// zero exit code.
fn run(workload: &str, seed: u64, trace: bool, extra: &[&str]) -> String {
    let seed = seed.to_string();
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed, "--seconds", "0"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--scale", "0.02", "--setups", "1"])
        .args(extra)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "{workload} exited with {}: {}\n{stdout}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

fn last_line(stdout: &str) -> &str {
    stdout.lines().last().expect("the benchmark prints a result line")
}

/// `(name, value, unit)` of every metric in a result line.
fn metrics(line: &str) -> Vec<(String, String, String)> {
    let start = line.find("\"metrics\": {").expect("result line has metrics") + 12;
    line[start..]
        .split("}, ")
        .map(|entry| {
            let field = |key: &str, end: char| {
                let rest = entry.split(key).nth(1).unwrap_or_else(|| panic!("{key} in {entry}"));
                rest.split(end).next().unwrap_or_default().trim().to_string()
            };
            let name = entry.split('"').nth(1).expect("metric name").to_string();
            (name, field("\"value\": ", ','), field("\"unit\": \"", '"'))
        })
        .collect()
}

/// `(name, unit)` of the metrics `BENCHMARK.json` declares in `section`.
fn declared(section: &str) -> Vec<(String, String)> {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench")).arg("--describe").output().unwrap();
    let text = String::from_utf8(out.stdout).unwrap();
    let body = text.split(&format!("\"{section}\": [")).nth(1).expect("section present");
    let body = body.split(']').next().unwrap();
    body.lines()
        .filter(|line| line.contains("\"name\""))
        .map(|line| {
            let quoted: Vec<&str> = line.split('"').collect();
            (quoted[3].to_string(), quoted[7].to_string())
        })
        .collect()
}

#[test]
fn committed_benchmark_json_matches_the_registry() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench")).arg("--describe").output().unwrap();
    let committed =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
    assert_eq!(String::from_utf8(out.stdout).unwrap(), committed);
}

#[test]
fn every_named_metric_prints_with_a_unit_at_minimal_length() {
    for workload in ["cold-sweep", "ground-truth", "warm-resweep"] {
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let stdout = run(workload, 7, trace, &[]);
            let line = last_line(&stdout);
            assert!(line.starts_with("{\"correct\": true, \"attempted\": "), "{line}");
            assert!(line.contains("\"failed\": 0, "), "{line}");
            let printed = metrics(line);
            let expected = declared(section);
            assert_eq!(
                printed.iter().map(|(n, _, u)| (n.clone(), u.clone())).collect::<Vec<_>>(),
                expected,
                "{workload} trace {trace}"
            );
            for (name, value, unit) in &printed {
                assert!(!unit.is_empty(), "{name} has no unit");
                // Only a parallel ratio on a 1-CPU host may be unmeasured.
                if value == "null" {
                    assert_eq!(name, "segment.speedup");
                } else {
                    let v: f64 = value.parse().unwrap_or_else(|_| panic!("{name} = {value}"));
                    assert!(v.is_finite(), "{name} = {value}");
                }
                assert!(stdout.lines().any(|l| l.starts_with(name.as_str())), "{name} not shown");
            }
            if !trace {
                for (name, value, _) in &printed {
                    assert_ne!(value, "0", "{name} must never read 0");
                }
            }
        }
    }
}

#[test]
fn a_different_seed_changes_the_fingerprints_but_not_the_metric_set() {
    let fingerprints = |stdout: &str| {
        stdout.lines().find(|l| l.starts_with("workload fingerprints")).unwrap().to_string()
    };
    let names = |stdout: &str| -> Vec<String> {
        metrics(last_line(stdout)).into_iter().map(|(name, _, _)| name).collect()
    };
    let a = run("ground-truth", 1, false, &[]);
    let b = run("ground-truth", 2, false, &[]);
    let a_again = run("ground-truth", 1, false, &[]);
    assert_ne!(fingerprints(&a), fingerprints(&b));
    assert_eq!(fingerprints(&a), fingerprints(&a_again), "the same seed gives the same inputs");
    assert_eq!(names(&a), names(&b));
}

#[test]
fn an_injected_reference_mismatch_is_counted_as_a_failed_op() {
    for workload in ["cold-sweep", "ground-truth", "warm-resweep"] {
        let stdout = run(workload, 3, false, &["--inject-mismatch"]);
        let line = last_line(&stdout);
        assert!(line.starts_with("{\"correct\": false, "), "{workload}: {line}");
        let count = |key: &str| -> u64 {
            let rest = line.split(&format!("\"{key}\": ")).nth(1).unwrap();
            rest.split(',').next().unwrap().parse().unwrap()
        };
        let (attempted, failed) = (count("attempted"), count("failed"));
        assert!(failed >= 1 && failed <= attempted, "{workload}: {failed} of {attempted}");
        assert!(stdout.contains(&format!("failed_op_share {}", failed as f64 / attempted as f64)));
    }
}
