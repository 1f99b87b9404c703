//! Benchmark harness reproducing the SuperFlow paper's tables and figures.
//!
//! The paper's evaluation consists of three tables and one figure:
//!
//! * **Tables II–IV** — synthesis (#JJs, #Nets, #Delay), placement under the
//!   GORDIAN-based baseline, TAAS and SuperFlow (HPWL, buffer lines, WNS)
//!   and routing (#JJs, #Nets, routed wirelength) → [`fidelity`]. Each
//!   circuit runs through one `FlowSession`, and Table IV is read both
//!   before and after the check stage. One binary,
//!   `cargo run --release -p bench --bin fidelity [--quick]`, prints the
//!   three tables and writes `BENCH_fidelity.json`;
//! * **Fig. 5** — the final GDS layout of `apc128` → the `fig5` binary and
//!   `examples/apc128_layout.rs`.
//!
//! The benches time:
//!
//! * `paper_stages` — `FlowSession::synthesize`, `place` under each placer
//!   and `route` on adder8 and apc32 (groups `table2_synthesis`,
//!   `table3_placement` and `table4_routing`);
//! * `fig5_layout` — layout generation and DRC of apc32's checked design;
//! * `routing_perf`, `placement_perf`, `batch_throughput` and the two
//!   `ablation_*` benches — engine hot paths;
//! * `scale_perf` — place, route and GDS of 10^4–10^6-cell designs.
//!
//! Paper reference values are bundled in [`mod@reference`]. Every
//! committed `BENCH_*.json` file is compared and rewritten through
//! [`compare_and_rewrite`].

#![warn(clippy::unwrap_used)]

pub mod baseline;
pub mod fidelity;
pub mod reference;
pub mod scale;

use std::path::Path;

use aqfp_netlist::generators::Benchmark;
use serde::{Deserialize, Serialize};

/// The circuits used by the quick (CI-friendly) variants of each experiment.
pub const QUICK_CIRCUITS: [Benchmark; 4] =
    [Benchmark::Adder8, Benchmark::Apc32, Benchmark::Decoder, Benchmark::C432];

/// Compares a fresh run against the committed BENCH file at `path`, then
/// rewrites the file with it as pretty JSON.
///
/// `compare` prints the per-row report from the committed and the fresh
/// value, after a `<what> vs committed <file>:` header. The comparison is
/// report-only: a missing or unparsable file is printed, never an error.
/// `skip` names why this run must not rewrite the file (a partial run must
/// not clobber the full committed one).
pub fn compare_and_rewrite<T: Serialize + Deserialize>(
    path: &str,
    what: &str,
    fresh: &T,
    skip: Option<&str>,
    compare: impl FnOnce(&T, &T),
) {
    let file_name = Path::new(path).file_name().and_then(|name| name.to_str()).unwrap_or(path);
    match std::fs::read_to_string(path) {
        Ok(text) => match serde_json::from_str::<T>(&text) {
            Ok(committed) => {
                println!("{what} vs committed {file_name}:");
                compare(&committed, fresh);
            }
            Err(error) => println!("could not parse committed {file_name}: {error}"),
        },
        Err(_) => println!("no committed {file_name} yet"),
    }
    if let Some(reason) = skip {
        println!("skipping {file_name} update: {reason}");
        return;
    }
    let json = serde_json::to_string_pretty(fresh).expect("BENCH rows serialize");
    match std::fs::write(path, json + "\n") {
        Ok(()) => println!("wrote {what} to {file_name}"),
        Err(error) => eprintln!("warning: could not write {file_name}: {error}"),
    }
}

/// Formats a list of rows (each a vector of cells) as an aligned text table.
pub fn format_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let mut line = String::new();
    for (i, h) in header.iter().enumerate() {
        line.push_str(&format!("{:width$}  ", h, width = widths[i]));
    }
    out.push_str(line.trim_end());
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
    out.push('\n');
    for row in rows {
        let mut line = String::new();
        for (i, cell) in row.iter().enumerate() {
            line.push_str(&format!("{:width$}  ", cell, width = widths[i]));
        }
        out.push_str(line.trim_end());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_formatting_aligns_columns() {
        let table = format_table(
            &["circuit", "value"],
            &[vec!["adder8".into(), "1".into()], vec!["a-very-long-name".into(), "22".into()]],
        );
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("circuit"));
        assert!(lines[3].starts_with("a-very-long-name"));
    }

    #[test]
    fn quick_circuits_are_a_subset_of_all() {
        for c in QUICK_CIRCUITS {
            assert!(Benchmark::ALL.contains(&c));
        }
    }
}
