//! The prediction report: serde-round-trippable bounds plus diagnostics.
//!
//! A [`PredictReport`] carries one [`PredictBounds`] per analysable design —
//! structural cell/row intervals, a die estimate, a per-channel congestion
//! forecast and a stage cost forecast — together with any policy-filtered
//! [`Diagnostic`]s the predictive rules produced. Every `min` field is a
//! *sound lower bound* (the flow cannot come in under it); every `est` field
//! is the model's best estimate; every `max` field is a high-confidence
//! ceiling computed from the uncontracted netlist (validated empirically, not
//! proven).

use std::fmt::Write as _;

use aqfp_lint::{diagnostics, Diagnostic};
use serde::{Deserialize, Serialize};

/// A `[min, max]` interval around a best estimate for an integer quantity.
///
/// `min` is sound: the measured flow result is never below it. `max` is a
/// loose ceiling used for budget sizing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Interval {
    /// Sound lower bound.
    pub min: usize,
    /// Best estimate, clamped into `[min, max]`.
    pub est: usize,
    /// High-confidence ceiling.
    pub max: usize,
}

impl Interval {
    /// Builds an interval, clamping the estimate into `[min, max]`.
    pub fn new(min: usize, est: usize, max: usize) -> Self {
        let max = max.max(min);
        Self { min, est: est.clamp(min, max), max }
    }

    /// An interval that is known exactly.
    pub fn exact(value: usize) -> Self {
        Self { min: value, est: value, max: value }
    }

    /// Whether `value` lies within `[min, max]`.
    pub fn contains(&self, value: usize) -> bool {
        self.min <= value && value <= self.max
    }
}

/// Phase-depth interval for one primary output.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OutputDepth {
    /// The primary output's name.
    pub output: String,
    /// Sound lower bound on the output's final phase level.
    pub min_level: usize,
    /// Ceiling on the output's pre-alignment phase level (raw path length
    /// plus majority-recipe and splitter-tree slack).
    pub max_level: usize,
}

/// Structural predictions: what synthesis will make of the netlist.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StructureBounds {
    /// Primary input count (placed as terminal cells on row 0).
    pub inputs: usize,
    /// Primary output count (placed as terminal cells on the last row).
    pub outputs: usize,
    /// Logic cells (majority gates, inverters) after synthesis.
    pub logic_cells: Interval,
    /// Splitter cells inserted to legalise fan-out.
    pub splitters: Interval,
    /// Path-balancing buffer cells.
    pub buffers: Interval,
    /// Total placed cells (terminals + logic + splitters + buffers).
    pub cells: Interval,
    /// Placement rows (phase depth + 1).
    pub rows: Interval,
    /// Per-output phase-depth intervals, capped at
    /// [`StructureBounds::PO_DEPTH_CAP`] entries.
    pub po_depths: Vec<OutputDepth>,
    /// Whether `po_depths` was truncated to the cap.
    pub po_depths_truncated: bool,
}

impl StructureBounds {
    /// Largest number of per-output depth entries stored in a report, so
    /// million-cell designs do not serialise megabytes of output detail.
    pub const PO_DEPTH_CAP: usize = 64;
}

/// Die-size estimate from the virtual row placement.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DieEstimate {
    /// Widest packed row in µm.
    pub layer_width_um: f64,
    /// Row count × row pitch in µm.
    pub height_um: f64,
    /// Bounding-box area in µm².
    pub area_um2: f64,
}

/// Congestion forecast for one routing channel.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChannelForecast {
    /// Channel index (between placement rows `row` and `row + 1`).
    pub row: usize,
    /// Estimated nets crossing the channel after balancing.
    pub nets: usize,
    /// RUDY-style demand in track-equivalents on the horizontal layer.
    pub demand_tracks: f64,
    /// `demand_tracks / initial_tracks`: above 1.0 the router must expand.
    pub utilization: f64,
}

/// Channel-congestion forecast over the virtual row placement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CongestionForecast {
    /// Estimated channel count (`rows.est - 1`).
    pub channels: usize,
    /// Routing-grid columns spanning the estimated layer width.
    pub columns: usize,
    /// Tracks per channel before any space expansion.
    pub initial_tracks: usize,
    /// Tracks per channel after exhausting the expansion budget.
    pub max_tracks: usize,
    /// Sound lower bound on the total net count across all channels.
    pub min_nets: usize,
    /// Mean estimated utilization across channels.
    pub mean_utilization: f64,
    /// Worst estimated utilization across channels.
    pub max_utilization: f64,
    /// The most congested channels (at most
    /// [`CongestionForecast::WORST_CAP`]), worst first.
    pub worst: Vec<ChannelForecast>,
}

impl CongestionForecast {
    /// Largest number of per-channel entries stored in a report.
    pub const WORST_CAP: usize = 16;
}

/// Stage cost forecast, calibrated against the committed `BENCH_scale.json`
/// scaling trajectory.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct CostForecast {
    /// Predicted synthesis wall-clock in seconds.
    pub synthesis_s: f64,
    /// Predicted placement wall-clock in seconds.
    pub placement_s: f64,
    /// Predicted routing wall-clock in seconds.
    pub routing_s: f64,
    /// Predicted DRC/repair wall-clock in seconds.
    pub check_s: f64,
    /// Predicted GDS stream size in bytes.
    pub gds_bytes: f64,
    /// Predicted peak resident set size in KiB.
    pub peak_rss_kb: f64,
}

impl CostForecast {
    /// Predicted end-to-end wall-clock in seconds.
    pub fn total_s(&self) -> f64 {
        self.synthesis_s + self.placement_s + self.routing_s + self.check_s
    }
}

/// Everything the predictor derived for one design.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PredictBounds {
    /// Structural cell/row intervals.
    pub structure: StructureBounds,
    /// Die-size estimate.
    pub die: DieEstimate,
    /// Channel-congestion forecast.
    pub congestion: CongestionForecast,
    /// Stage cost forecast.
    pub cost: CostForecast,
}

/// The outcome of predicting one design.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PredictReport {
    /// The analysed design's name.
    pub design: String,
    /// Derived bounds; `None` when the netlist is not analysable (cyclic or
    /// structurally invalid — plain lint reports those defects).
    pub bounds: Option<PredictBounds>,
    /// Policy-filtered findings from the predictive rules, report-ordered.
    pub diagnostics: Vec<Diagnostic>,
}

impl PredictReport {
    /// Whether any finding is an error (the flow should refuse the design).
    pub fn has_errors(&self) -> bool {
        diagnostics::has_errors(&self.diagnostics)
    }

    /// Whether a given rule fired at least once.
    pub fn mentions(&self, rule: &str) -> bool {
        diagnostics::mentions(&self.diagnostics, rule)
    }

    /// Renders the report as human-readable text: a bounds table followed by
    /// one line per finding and a summary line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        match &self.bounds {
            None => {
                let _ = writeln!(out, "{}: not analysable (run `superflow lint`)", self.design);
            }
            Some(bounds) => {
                let s = &bounds.structure;
                let _ = writeln!(out, "{}: predicted bounds", self.design);
                let _ =
                    writeln!(out, "  terminals      {} inputs, {} outputs", s.inputs, s.outputs);
                for (label, interval) in [
                    ("logic cells", s.logic_cells),
                    ("splitters", s.splitters),
                    ("buffers", s.buffers),
                    ("total cells", s.cells),
                    ("rows", s.rows),
                ] {
                    let _ = writeln!(
                        out,
                        "  {label:<14} {} .. {} (est {})",
                        interval.min, interval.max, interval.est
                    );
                }
                let _ = writeln!(
                    out,
                    "  die            {:.0} x {:.0} um ({:.0} um2)",
                    bounds.die.layer_width_um, bounds.die.height_um, bounds.die.area_um2
                );
                let _ = writeln!(
                    out,
                    "  congestion     {} channels, max util {:.2} (capacity {}..{} tracks)",
                    bounds.congestion.channels,
                    bounds.congestion.max_utilization,
                    bounds.congestion.initial_tracks,
                    bounds.congestion.max_tracks
                );
                let cost = &bounds.cost;
                let _ = writeln!(
                    out,
                    "  cost           {:.2}s total (synth {:.2}s, place {:.2}s, route {:.2}s, \
                     check {:.2}s), {:.0} MiB peak RSS",
                    cost.total_s(),
                    cost.synthesis_s,
                    cost.placement_s,
                    cost.routing_s,
                    cost.check_s,
                    cost.peak_rss_kb / 1024.0
                );
            }
        }
        let feasible = "feasible, no findings";
        diagnostics::render_findings(&mut out, &self.design, &self.diagnostics, feasible);
        out
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use aqfp_lint::Severity;

    fn sample_report() -> PredictReport {
        PredictReport {
            design: "sample".into(),
            bounds: Some(PredictBounds {
                structure: StructureBounds {
                    inputs: 2,
                    outputs: 2,
                    logic_cells: Interval::new(3, 4, 9),
                    splitters: Interval::new(1, 2, 4),
                    buffers: Interval::new(0, 3, 12),
                    cells: Interval::new(8, 13, 29),
                    rows: Interval::new(3, 4, 11),
                    po_depths: vec![OutputDepth {
                        output: "sum".into(),
                        min_level: 2,
                        max_level: 9,
                    }],
                    po_depths_truncated: false,
                },
                die: DieEstimate { layer_width_um: 260.0, height_um: 400.0, area_um2: 104_000.0 },
                congestion: CongestionForecast {
                    channels: 3,
                    columns: 28,
                    initial_tracks: 10,
                    max_tracks: 74,
                    min_nets: 5,
                    mean_utilization: 0.2,
                    max_utilization: 0.4,
                    worst: vec![ChannelForecast {
                        row: 1,
                        nets: 4,
                        demand_tracks: 4.0,
                        utilization: 0.4,
                    }],
                },
                cost: CostForecast {
                    synthesis_s: 0.01,
                    placement_s: 0.02,
                    routing_s: 0.01,
                    check_s: 0.005,
                    gds_bytes: 9000.0,
                    peak_rss_kb: 9500.0,
                },
            }),
            diagnostics: vec![Diagnostic {
                rule: "AQFP-P002".into(),
                severity: Severity::Warn,
                message: "channel 1 predicted utilization 1.40 exceeds 1.0".into(),
                object: None,
                line: 0,
                column: 0,
            }],
        }
    }

    #[test]
    fn interval_clamps_and_contains() {
        let interval = Interval::new(5, 2, 3);
        assert_eq!(interval, Interval { min: 5, est: 5, max: 5 });
        let wide = Interval::new(1, 10, 4);
        assert_eq!(wide.est, 4);
        assert!(wide.contains(2));
        assert!(!wide.contains(5));
        assert_eq!(Interval::exact(7), Interval { min: 7, est: 7, max: 7 });
    }

    #[test]
    fn report_serde_round_trips() {
        let report = sample_report();
        let json = serde_json::to_string_pretty(&report).unwrap();
        assert!(json.contains("\"rule\": \"AQFP-P002\""), "{json}");
        assert!(json.contains("\"min_level\""), "{json}");
        let back: PredictReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn render_includes_bounds_and_findings() {
        let report = sample_report();
        let text = report.render();
        assert!(text.contains("total cells"), "{text}");
        assert!(text.contains("AQFP-P002"), "{text}");
        assert!(text.contains("1 warning"), "{text}");
        assert!(!report.has_errors());
        assert!(report.mentions("AQFP-P002"));
    }

    #[test]
    fn unanalysable_report_renders_a_hint() {
        let report =
            PredictReport { design: "cyclic".into(), bounds: None, diagnostics: Vec::new() };
        assert!(report.render().contains("not analysable"));
    }
}
