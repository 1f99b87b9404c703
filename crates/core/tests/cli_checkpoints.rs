//! Stage checkpoints written by the `superflow` binary, checked across
//! processes: every `--stop-after` checkpoint verifies clean against its
//! input, a complete run's `--report` is the check-stage checkpoint, and
//! separate processes write the same bytes for the same input.

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
fn a_complete_runs_report_is_the_check_checkpoint() {
    let dir = temp_dir("report");
    let path = |file: &str| dir.join(file).to_str().expect("utf-8 path").to_owned();
    let (full, gds, check) = (path("full.json"), path("full.gds"), path("check.json"));
    superflow(&["--fast", "--quiet", "--report", &full, "--output", &gds, "adder8"]);
    superflow(&["--fast", "--quiet", "--stop-after", "check", "--report", &check, "adder8"]);

    let full = std::fs::read_to_string(&full).expect("report written");
    let check = std::fs::read_to_string(&check).expect("checkpoint written");
    assert!(full == check, "the reports differ");
    let checked = superflow::Checked::from_json(&full).expect("the report is a check checkpoint");
    assert_eq!(checked.layout.to_gds_bytes(), std::fs::read(&gds).expect("GDS written"));
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

/// `json` with the first placed cell's `field` set to `value`, the way a
/// hand edit of the checkpoint would leave it.
fn edit_first_cell(json: &str, field: &str, value: &str) -> String {
    let cells = json.find("\"cells\": [").expect("the checkpoint holds a placed design");
    let key = format!("\"{field}\": ");
    let start = cells + json[cells..].find(&key).expect("cells carry the field") + key.len();
    let end = start + json[start..].find([',', '\n']).expect("the value ends");
    format!("{}{value}{}", &json[..start], &json[end..])
}

/// `verify` loads a checkpoint the way batch resume does: a placed cell
/// whose width is not its kind's width in the technology, or is out of
/// range, fails the load with exit 1 and an error that names the cell.
#[test]
fn verify_refuses_a_checkpoint_with_an_edited_cell_width_and_says_why() {
    let dir = temp_dir("widths");
    let placed = dir.join("placed.json");
    let placed = placed.to_str().expect("utf-8 path");
    superflow(&["--fast", "--quiet", "--stop-after", "placement", "--report", placed, "adder8"]);
    let json = std::fs::read_to_string(placed).expect("checkpoint written");
    for width in ["1e15", "-1e9"] {
        let path = dir.join(format!("width{width}.json"));
        std::fs::write(&path, edit_first_cell(&json, "width", width)).expect("writes");
        let output = Command::new(env!("CARGO_BIN_EXE_superflow"))
            .args(["verify", "--fast", "--against", "adder8", path.to_str().expect("utf-8 path")])
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "width {width}: {stderr}");
        assert!(stderr.contains("cell 0 "), "width {width}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `.gds` whose file stem names no flow input cannot say which design
/// it was built from: `verify` names the file and asks for `--against`
/// (exit 1), and with `--against` the same file verifies clean.
#[test]
fn verify_of_a_gds_named_after_no_input_asks_for_against() {
    let dir = temp_dir("against");
    let gds = dir.join("w.gds");
    let gds = gds.to_str().expect("utf-8 path");
    superflow(&["--fast", "--quiet", "--output", gds, "adder8"]);

    let output = Command::new(env!("CARGO_BIN_EXE_superflow"))
        .args(["verify", "--fast", gds])
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains(&format!("`{gds}`")), "names the file: {stderr}");
    assert!(stderr.contains("its stem `w` names no flow input"), "{stderr}");
    assert!(stderr.contains("pass --against <input>"), "{stderr}");
    assert!(!stderr.contains("cannot tell the format"), "{stderr}");

    let report = superflow(&["verify", "--fast", "--against", "adder8", gds]);
    assert_eq!(report, "adder8: clean (lec+phase+lvs), no findings\n");
    let _ = std::fs::remove_dir_all(&dir);
}
