//! Scale-trajectory bookkeeping for the `scale_perf` bench.
//!
//! Unlike the [`crate::baseline`] timing baselines, a scale row carries the
//! quantities that make a scaling claim checkable — placed cell count,
//! per-stage wall-clock, streamed GDS size and peak RSS — so
//! `BENCH_scale.json` records the whole cells × wall-clock × memory
//! trajectory, not just durations. The compare step is report-only: it
//! prints per-row ratios against the committed file and never fails, and a
//! partial run (size cap or name filter active) never overwrites the
//! committed full trajectory.

use serde::{Deserialize, Serialize};

/// One measured design size of a scale run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScaleRow {
    /// Row label (`1e4`, `1e5`, `1e6` — the target placed-cell decade).
    pub label: String,
    /// Generator parameter (`large::tiled_multiplier` grid size).
    pub grid: usize,
    /// Cells in the placed design (after synthesis and buffer-row
    /// insertion) — the x-axis of every scaling claim.
    pub placed_cells: usize,
    /// Two-pin nets in the placed design.
    pub nets: usize,
    /// Placement wall-clock (global + legalize + detailed + buffer rows).
    pub place_s: f64,
    /// Routing wall-clock.
    pub route_s: f64,
    /// Streaming GDS emission wall-clock.
    pub gds_s: f64,
    /// Bytes the streaming writer emitted.
    pub gds_bytes: u64,
    /// Peak RSS (`VmHWM`) in kB after this row. The high-water mark is
    /// monotone, so rows must be measured smallest-first for per-row values
    /// to be attributable.
    pub peak_rss_kb: u64,
}

impl ScaleRow {
    /// Total place + route + GDS wall-clock.
    pub fn total_s(&self) -> f64 {
        self.place_s + self.route_s + self.gds_s
    }
}

/// The committed scale trajectory: every measured row plus the host shape.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScaleBaseline {
    /// Available hardware threads of the measuring host.
    pub host_threads: usize,
    /// Measured rows, smallest design first.
    pub rows: Vec<ScaleRow>,
}

/// Reads the process's peak resident set size (`VmHWM`) in kB from
/// `/proc/self/status`. Returns `None` on platforms without procfs.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Prints a report-only comparison of `rows` against the committed
/// `BENCH_scale.json` at `path`, then rewrites the file (through
/// [`crate::compare_and_rewrite`]) — unless `partial` is set (a capped or
/// filtered run must not clobber the full trajectory).
pub fn compare_and_emit(path: &str, rows: &[ScaleRow], partial: bool) {
    if rows.is_empty() {
        return;
    }
    let baseline = ScaleBaseline {
        host_threads: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        rows: rows.to_vec(),
    };
    let skip = partial.then_some("partial run (size cap or filter active)");
    crate::compare_and_rewrite(path, "scale trajectory", &baseline, skip, |committed, fresh| {
        for row in &fresh.rows {
            match committed.rows.iter().find(|old| old.label == row.label) {
                Some(old) if old.total_s() > 0.0 => {
                    let ratio = row.total_s() / old.total_s();
                    println!(
                        "  {:<4} {:>9} cells  {:>8.2}s -> {:>8.2}s  ({ratio:.2}x)  \
                         rss {} MB -> {} MB",
                        row.label,
                        row.placed_cells,
                        old.total_s(),
                        row.total_s(),
                        old.peak_rss_kb / 1024,
                        row.peak_rss_kb / 1024,
                    );
                }
                _ => println!("  {:<4} (new row, no baseline)", row.label),
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_is_readable_and_grows_with_allocation() {
        let Some(before) = peak_rss_kb() else {
            return; // no procfs on this platform
        };
        assert!(before > 0);
        // The high-water mark can only move up.
        let ballast = vec![1u8; 4 << 20];
        let after = peak_rss_kb().expect("procfs stays readable");
        assert!(after >= before, "VmHWM is monotone ({before} -> {after})");
        drop(ballast);
    }

    #[test]
    fn baseline_round_trips_through_json() {
        let baseline = ScaleBaseline {
            host_threads: 8,
            rows: vec![ScaleRow {
                label: "1e4".into(),
                grid: 9,
                placed_cells: 11_000,
                nets: 12_000,
                place_s: 0.5,
                route_s: 1.0,
                gds_s: 0.25,
                gds_bytes: 3_000_000,
                peak_rss_kb: 250_000,
            }],
        };
        let json = serde_json::to_string(&baseline).expect("serializes");
        let back: ScaleBaseline = serde_json::from_str(&json).expect("parses");
        assert_eq!(back.rows.len(), 1);
        assert_eq!(back.rows[0].label, "1e4");
        assert!((back.rows[0].total_s() - 1.75).abs() < 1e-12);
    }
}
