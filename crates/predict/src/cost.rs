//! Stage cost model calibrated against the committed scaling benchmark.
//!
//! `BENCH_scale.json` records synthesis, placement, routing and GDS
//! wall-clock (at the thread count its `host_threads` field names), GDS size
//! and peak RSS for three generated designs (~1e4, ~1e5 and ~1e6 placed
//! cells). Each metric is modelled as a piecewise power law through those
//! anchors: within a segment the prediction interpolates linearly in
//! log-log space, outside the anchor range it extrapolates with the nearest
//! segment's exponent. DRC has no committed anchor; the check stage is
//! predicted as a fixed fraction of routing plus GDS emission. That is
//! rough (the check stage is most of a real run's wall time), which is why
//! the forecast only orders the batch queue, fills its report's predicted
//! ledger and feeds `AQFP-P005`; it sets no deadline.

use crate::report::CostForecast;

/// Placed-cell counts of the calibration anchors (`BENCH_scale.json`).
const ANCHOR_CELLS: [f64; 3] = [8_849.0, 106_606.0, 1_065_594.0];
/// Synthesis seconds at the anchors.
const ANCHOR_SYNTH_S: [f64; 3] = [0.002_185_352, 0.014_043_666, 0.067_819_85];
/// Placement seconds at the anchors.
const ANCHOR_PLACE_S: [f64; 3] = [0.053_495_504, 0.260_388_954, 1.632_368_611];
/// Routing seconds at the anchors.
const ANCHOR_ROUTE_S: [f64; 3] = [0.022_412_758, 0.275_347_375, 3.425_228_449];
/// GDS streaming seconds at the anchors.
const ANCHOR_GDS_S: [f64; 3] = [0.007_694_271, 0.135_007_688, 2.289_392_217];
/// GDS stream bytes at the anchors.
const ANCHOR_GDS_BYTES: [f64; 3] = [3_836_822.0, 78_309_308.0, 985_762_692.0];
/// Peak resident set size (KiB) at the anchors.
const ANCHOR_RSS_KB: [f64; 3] = [11_920.0, 115_792.0, 1_189_168.0];

/// DRC/repair wall-clock as a fraction of predicted routing wall-clock.
const CHECK_ROUTE_RATIO: f64 = 0.25;

/// Piecewise power-law interpolation through the three anchors.
fn power_law(cells: f64, metric: &[f64; 3]) -> f64 {
    let cells = cells.max(1.0);
    let x = cells.ln();
    let xs = [ANCHOR_CELLS[0].ln(), ANCHOR_CELLS[1].ln(), ANCHOR_CELLS[2].ln()];
    let ys = [metric[0].ln(), metric[1].ln(), metric[2].ln()];
    // Pick the segment: below the middle anchor use [0,1], else [1,2]; this
    // also extrapolates beyond either end with the boundary exponent.
    let (x0, x1, y0, y1) =
        if x <= xs[1] { (xs[0], xs[1], ys[0], ys[1]) } else { (xs[1], xs[2], ys[1], ys[2]) };
    let slope = (y1 - y0) / (x1 - x0);
    (y0 + slope * (x - x0)).exp()
}

/// Predicts stage costs for a design expected to place `cells` cells.
pub(crate) fn forecast(cells: usize) -> CostForecast {
    let cells = cells as f64;
    let placement_s = power_law(cells, &ANCHOR_PLACE_S);
    let routing_s = power_law(cells, &ANCHOR_ROUTE_S);
    let gds_s = power_law(cells, &ANCHOR_GDS_S);
    CostForecast {
        synthesis_s: power_law(cells, &ANCHOR_SYNTH_S),
        placement_s,
        routing_s,
        // GDS streaming happens inside the check/export stage budget.
        check_s: routing_s * CHECK_ROUTE_RATIO + gds_s,
        gds_bytes: power_law(cells, &ANCHOR_GDS_BYTES),
        peak_rss_kb: power_law(cells, &ANCHOR_RSS_KB),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[derive(serde::Deserialize)]
    struct ScaleFile {
        rows: Vec<ScaleRow>,
    }

    #[derive(serde::Deserialize)]
    struct ScaleRow {
        placed_cells: f64,
        synth_s: f64,
        place_s: f64,
        route_s: f64,
        gds_s: f64,
        gds_bytes: f64,
        peak_rss_kb: f64,
    }

    /// The embedded anchors must match the committed benchmark trajectory;
    /// re-run the scale bench and update both together.
    #[test]
    fn anchors_match_committed_bench_scale_json() {
        let raw = include_str!("../../../BENCH_scale.json");
        let file: ScaleFile = serde_json::from_str(raw).unwrap();
        assert_eq!(file.rows.len(), 3);
        for (i, row) in file.rows.iter().enumerate() {
            assert_eq!(row.placed_cells, ANCHOR_CELLS[i], "cells anchor {i}");
            assert!((row.synth_s - ANCHOR_SYNTH_S[i]).abs() < 1e-9, "synth anchor {i}");
            assert!((row.place_s - ANCHOR_PLACE_S[i]).abs() < 1e-9, "place anchor {i}");
            assert!((row.route_s - ANCHOR_ROUTE_S[i]).abs() < 1e-9, "route anchor {i}");
            assert!((row.gds_s - ANCHOR_GDS_S[i]).abs() < 1e-9, "gds anchor {i}");
            assert_eq!(row.gds_bytes, ANCHOR_GDS_BYTES[i], "bytes anchor {i}");
            assert_eq!(row.peak_rss_kb, ANCHOR_RSS_KB[i], "rss anchor {i}");
        }
    }

    #[test]
    fn predictions_reproduce_the_anchors() {
        for i in 0..3 {
            let forecast = forecast(ANCHOR_CELLS[i] as usize);
            assert!((forecast.synthesis_s - ANCHOR_SYNTH_S[i]).abs() / ANCHOR_SYNTH_S[i] < 1e-6);
            assert!((forecast.placement_s - ANCHOR_PLACE_S[i]).abs() / ANCHOR_PLACE_S[i] < 1e-6);
            assert!((forecast.routing_s - ANCHOR_ROUTE_S[i]).abs() / ANCHOR_ROUTE_S[i] < 1e-6);
            assert!((forecast.gds_bytes - ANCHOR_GDS_BYTES[i]).abs() / ANCHOR_GDS_BYTES[i] < 1e-6);
            assert!((forecast.peak_rss_kb - ANCHOR_RSS_KB[i]).abs() / ANCHOR_RSS_KB[i] < 1e-6);
        }
    }

    #[test]
    fn predictions_are_monotonic_in_cell_count() {
        let mut previous = forecast(10);
        for cells in [100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000] {
            let next = forecast(cells);
            assert!(next.total_s() > previous.total_s(), "{cells} cells");
            assert!(next.peak_rss_kb > previous.peak_rss_kb, "{cells} cells");
            assert!(next.gds_bytes > previous.gds_bytes, "{cells} cells");
            previous = next;
        }
    }

    #[test]
    fn extrapolation_stays_finite_and_positive() {
        for cells in [0, 1, 5, 50_000_000] {
            let forecast = forecast(cells);
            assert!(forecast.total_s().is_finite() && forecast.total_s() > 0.0);
            assert!(forecast.peak_rss_kb.is_finite() && forecast.peak_rss_kb > 0.0);
        }
    }
}
