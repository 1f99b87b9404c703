//! Regenerates the paper's Tables II–IV on the path the flow ships and
//! records them in `BENCH_fidelity.json` at the repository root.
//!
//! ```text
//! cargo run --release -p bench --bin fidelity [--quick]
//! ```
//!
//! Each circuit runs through one paper-default `FlowSession`, one circuit
//! after another (every session already places and routes on all cores).
//! A full run prints the fields that differ from the committed
//! `BENCH_fidelity.json`, then rewrites it. `--quick` runs
//! `bench::QUICK_CIRCUITS` and compares, but never rewrites the file. The
//! run exits 1 when the flow fails on a circuit.

use std::process::ExitCode;

use aqfp_netlist::generators::Benchmark;
use bench::fidelity::{self, fidelity_row};

fn main() -> ExitCode {
    let quick = std::env::args().any(|a| a == "--quick");
    let circuits: &[Benchmark] = if quick { &bench::QUICK_CIRCUITS } else { &Benchmark::ALL };
    let mut rows = Vec::with_capacity(circuits.len());
    for &circuit in circuits {
        match fidelity_row(circuit) {
            Ok(row) => rows.push(row),
            Err(error) => {
                eprintln!("{circuit}: {}", superflow::error_chain(&error));
                return ExitCode::FAILURE;
            }
        }
    }

    println!("Table II: majority-based logic synthesis results\n");
    println!("{}", fidelity::format_table2(&rows));
    println!("Table III: placement comparison (GORDIAN-based / TAAS / SuperFlow)\n");
    println!("{}", fidelity::format_table3(&rows));
    println!("Table IV: routing results of SuperFlow\n");
    println!("{}", fidelity::format_table4(&rows));
    println!("(paper columns reproduced from Xie et al., DATE 2024, Tables II-IV)\n");
    fidelity::compare_and_emit(
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fidelity.json"),
        rows,
        quick,
    );
    ExitCode::SUCCESS
}
