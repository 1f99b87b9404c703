//! Shared perf-baseline bookkeeping for the trajectory benches.
//!
//! `routing_perf` and `placement_perf` both persist their measurements to a
//! committed JSON baseline (`BENCH_routing.json` / `BENCH_placement.json`)
//! and print a report-only comparison of the current run against it. The
//! file format lives here so the two benches cannot drift apart; the
//! compare-then-rewrite procedure is [`crate::compare_and_rewrite`], shared
//! with every other `BENCH_*.json` file.

use criterion::Criterion;
use serde::{Deserialize, Serialize};

/// One measured bench row of a committed baseline.
#[derive(Serialize, Deserialize)]
pub struct BaselineEntry {
    /// Criterion benchmark id (`group/parameter`).
    pub id: String,
    /// Mean sample duration in nanoseconds.
    pub mean_ns: u64,
    /// Fastest sample in nanoseconds.
    pub min_ns: u64,
    /// Number of samples measured.
    pub samples: usize,
}

/// A committed perf baseline: every row of one bench run plus the host
/// shape it was measured on.
#[derive(Serialize, Deserialize)]
pub struct Baseline {
    /// The circuit the rows were measured on.
    pub circuit: String,
    /// Available hardware threads of the measuring host.
    pub host_threads: usize,
    /// All measured rows.
    pub results: Vec<BaselineEntry>,
}

/// Prints a report-only comparison of this run's summaries against the
/// committed baseline at `path`, then rewrites the file with the fresh
/// numbers (through [`crate::compare_and_rewrite`]). Nothing happens in
/// `--test` smoke mode (nothing is measured), and a filtered run leaves the
/// file alone: a partial result set must not clobber the full baseline.
pub fn compare_and_emit(c: &mut Criterion, path: &str, circuit: &str) {
    let results: Vec<BaselineEntry> = c
        .summaries()
        .iter()
        .map(|summary| BaselineEntry {
            id: summary.id.clone(),
            mean_ns: summary.mean().as_nanos() as u64,
            min_ns: summary.samples.iter().min().map_or(0, |d| d.as_nanos() as u64),
            samples: summary.samples.len(),
        })
        .collect();
    if results.is_empty() {
        return;
    }
    let baseline = Baseline {
        circuit: circuit.to_owned(),
        host_threads: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        results,
    };
    let skip = c.filter().map(|_| "name filter active");
    crate::compare_and_rewrite(path, "baseline", &baseline, skip, |committed, fresh| {
        for entry in &fresh.results {
            match committed.results.iter().find(|old| old.id == entry.id) {
                Some(old) if old.mean_ns > 0 => {
                    let ratio = entry.mean_ns as f64 / old.mean_ns as f64;
                    println!(
                        "  {:<44} {:>12} ns -> {:>12} ns  ({ratio:.2}x)",
                        entry.id, old.mean_ns, entry.mean_ns
                    );
                }
                _ => println!("  {:<44} (new row, no baseline)", entry.id),
            }
        }
    });
}
