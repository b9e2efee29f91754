//! The harness refuses an experiment id it does not know, so a stale
//! script cannot "regenerate" a retired experiment by printing nothing.

use std::process::Command;

#[test]
fn an_unknown_experiment_id_fails_naming_the_known_ones() {
    let out = Command::new(env!("CARGO_BIN_EXE_harness")).arg("p2").output().unwrap();
    assert!(!out.status.success(), "`harness p2` must fail");
    assert!(out.stdout.is_empty(), "nothing is regenerated");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("`p2`") && err.contains("f1") && err.contains("r1"), "{err}");
}
