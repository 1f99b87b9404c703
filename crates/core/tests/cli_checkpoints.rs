//! Stage checkpoints written by the `superflow` binary, checked across
//! processes: every `--stop-after` checkpoint verifies clean against its
//! input, and separate processes write the same bytes for the same input.

use std::path::PathBuf;
use std::process::Command;

/// Runs the built binary and returns its stdout, asserting exit code 0.
fn superflow(args: &[&str]) -> String {
    let output =
        Command::new(env!("CARGO_BIN_EXE_superflow")).args(args).output().expect("binary runs");
    assert_eq!(
        output.status.code(),
        Some(0),
        "superflow {args:?}: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("utf-8 stdout")
}

/// A fresh scratch directory for one test.
fn temp_dir(test: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("superflow_cli_ckpt_{}_{test}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

#[test]
fn every_stop_after_checkpoint_verifies_clean_against_its_input() {
    let dir = temp_dir("verify");
    for (stage, checks) in [
        ("synthesis", "lec"),
        ("placement", "phase+lec"),
        ("routing", "phase+lec"),
        ("check", "phase+lvs+lec"),
    ] {
        let path = dir.join(format!("adder8_{stage}.json"));
        let path = path.to_str().expect("utf-8 path");
        superflow(&["--fast", "--quiet", "--stop-after", stage, "--report", path, "adder8"]);
        let report = superflow(&["verify", "--fast", "--against", "adder8", path]);
        assert_eq!(report, format!("adder8: clean ({checks}), no findings\n"), "{stage}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn separate_processes_write_identical_synthesis_checkpoints() {
    let dir = temp_dir("determinism");
    let checkpoints: Vec<Vec<u8>> = (0..5)
        .map(|run| {
            let path = dir.join(format!("run{run}.json"));
            let path = path.to_str().expect("utf-8 path");
            let args = ["--fast", "--quiet", "--stop-after", "synthesis", "--report", path];
            superflow(&[&args[..], &["gen:random_dag:300:1"]].concat());
            std::fs::read(path).expect("checkpoint written")
        })
        .collect();
    assert!(checkpoints.windows(2).all(|pair| pair[0] == pair[1]), "checkpoints differ");
    let _ = std::fs::remove_dir_all(&dir);
}
