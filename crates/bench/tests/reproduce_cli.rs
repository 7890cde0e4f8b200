//! The `reproduce` binary checks its arguments before it runs anything.

use std::process::Command;

#[test]
fn unknown_experiment_exits_2_before_any_report() {
    let reproduce = env!("CARGO_BIN_EXE_reproduce");
    let output = Command::new(reproduce).args(["--quick", "table2", "bogus"]).output().unwrap();
    assert_eq!(output.status.code(), Some(2));
    assert!(output.stdout.is_empty(), "{}", String::from_utf8_lossy(&output.stdout));
    assert!(String::from_utf8_lossy(&output.stderr).contains("unknown experiment: bogus"));

    let help = Command::new(reproduce).arg("--help").output().unwrap();
    assert_eq!(help.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&help.stdout).starts_with("usage: reproduce"));
}
