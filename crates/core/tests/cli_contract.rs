//! The `superflow` binary's usage contract, checked on the built executable:
//! a flag a subcommand does not take, a missing or unknown `tech` action and
//! a stray positional argument all exit 2, and `--help` prints the usage
//! text and exits 0 on every subcommand.

use std::process::{Command, Output};

fn superflow(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_superflow")).args(args).output().expect("binary runs")
}

fn exit_code(args: &[&str]) -> i32 {
    superflow(args).status.code().expect("exited normally")
}

#[test]
fn unknown_flags_are_usage_errors_on_every_subcommand() {
    for args in [
        &["--frobnicate", "adder8"][..],
        &["batch", "--frobnicate", "adder8"],
        &["lint", "--frobnicate", "adder8"],
        &["predict", "--frobnicate", "adder8"],
        &["verify", "--frobnicate", "adder8.gds"],
        &["generate", "--frobnicate", "random_dag"],
        &["tech", "--frobnicate"],
        // `--process` is not a flag; the others belong to other subcommands.
        &["--process", "stp2", "adder8"],
        &["lint", "--process", "stp2", "adder8"],
        &["predict", "--fanout-threshold", "4", "adder8"],
        &["verify", "--stop-after", "place", "adder8.gds"],
    ] {
        assert_eq!(exit_code(args), 2, "superflow {args:?}");
    }
}

#[test]
fn tech_follows_the_usage_error_contract() {
    for args in [
        &["tech"][..],
        &["tech", "bogus"],
        &["tech", "list", "--bogus"],
        &["tech", "show", "mit-ll-sqf5ee", "extra"],
        &["tech", "dump"],
    ] {
        let output = superflow(args);
        assert_eq!(output.status.code(), Some(2), "superflow {args:?}");
        assert!(output.stdout.is_empty(), "superflow {args:?} printed to stdout");
        assert!(String::from_utf8_lossy(&output.stderr).contains("usage:"));
    }
    // A valid action still runs; a missing built-in is a runtime error.
    assert_eq!(exit_code(&["tech", "list", "--quiet"]), 0);
    assert_eq!(exit_code(&["tech", "dump", "no-such-tech"]), 1);
}

#[test]
fn help_prints_usage_and_exits_zero_on_every_subcommand() {
    for args in [
        &["--help"][..],
        &["batch", "--help"],
        &["lint", "-h"],
        &["predict", "--help"],
        &["verify", "--help"],
        &["generate", "--help"],
        &["tech", "--help"],
        &["tech", "show", "--help"],
    ] {
        let output = superflow(args);
        assert_eq!(output.status.code(), Some(0), "superflow {args:?}");
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(stdout.starts_with("usage: superflow"), "superflow {args:?}: {stdout}");
        assert!(!stdout.contains("--process"), "usage documents a flag no subcommand takes");
    }
}
