//! Virtual row placement, die estimate and RUDY-style channel congestion.
//!
//! The placer assigns one row per phase level and packs cells left to right;
//! the router then works channel by channel, where a channel between rows
//! `r` and `r + 1` carries exactly the nets connecting those adjacent rows
//! (guaranteed by path balancing). This pass mirrors that structure without
//! placing anything: it spreads the contracted signal edges over their
//! estimated level spans, sizes each row from the technology's cell
//! geometry, and converts per-channel net counts into RUDY-style track
//! demand (`sum of expected net spans / channel width`).

use aqfp_cells::{CellKind, Technology};
use aqfp_route::RouterConfig;

use crate::analysis::Analysis;
use crate::report::{ChannelForecast, CongestionForecast, DieEstimate};

/// Expected horizontal span of a net between two uniformly random positions
/// in a row of width `w` is `w / 3`.
const MEAN_SPAN_FRACTION: f64 = 1.0 / 3.0;

/// Builds the die estimate and congestion forecast from the structural
/// analysis.
pub(crate) fn forecast(
    analysis: &Analysis,
    technology: &Technology,
    router: &RouterConfig,
) -> (DieEstimate, CongestionForecast) {
    let rules = technology.rules();
    let rows = analysis.est_depth + 1;
    let channels = analysis.est_depth;

    // Per-row cell counts: terminals on the boundary rows, surviving logic
    // at its estimated level, splitter/buffer chains on the rows their edges
    // cross (difference array over edge spans).
    let mut logic_in_row = vec![0usize; rows.max(1)];
    for (i, survives) in analysis.surviving.iter().enumerate() {
        if *survives {
            let row = analysis.est_level[i].min(rows.saturating_sub(1));
            logic_in_row[row] += 1;
        }
    }
    let mut extra_delta = vec![0isize; rows.max(1) + 1];
    let mut nets_delta = vec![0isize; channels + 1];
    for &(_, src_level, sink_level) in &analysis.edges {
        let lo = src_level.min(rows.saturating_sub(1));
        let hi = sink_level.clamp(lo, rows.saturating_sub(1));
        // The edge crosses channels lo..hi; intermediate rows hold one
        // repeater (buffer or splitter stage) each.
        if lo + 1 < hi {
            extra_delta[lo + 1] += 1;
            extra_delta[hi] -= 1;
        }
        if channels > 0 && lo < hi {
            nets_delta[lo] += 1;
            nets_delta[hi.min(channels)] -= 1;
        }
    }

    let logic_width = technology.cell(CellKind::Majority3).width;
    let repeater_width = technology.cell(CellKind::Buffer).width;
    let input_width = technology.cell(CellKind::Input).width;
    let output_width = technology.cell(CellKind::Output).width;
    let pitch = |w: f64| w + rules.min_spacing;

    let mut layer_width: f64 = 0.0;
    let mut running_extra = 0isize;
    for (row, &logic) in logic_in_row.iter().enumerate() {
        running_extra += extra_delta[row];
        let mut width =
            logic as f64 * pitch(logic_width) + running_extra.max(0) as f64 * pitch(repeater_width);
        if row == 0 {
            width += analysis.structure.inputs as f64 * pitch(input_width);
        }
        if row + 1 == rows {
            width += analysis.structure.outputs as f64 * pitch(output_width);
        }
        layer_width = layer_width.max(width);
    }
    let height_um = rows as f64 * rules.row_pitch;
    let die =
        DieEstimate { layer_width_um: layer_width, height_um, area_um2: layer_width * height_um };

    // Router grid parameters, mirroring `Router::grid_params` on the grid
    // the flow routes on: the technology's minimum spacing.
    let step = rules.min_spacing.max(1.0);
    let columns = (((layer_width / step).ceil() as i64) + 2).max(2) as usize;
    let initial_tracks = if router.initial_tracks >= 2 {
        router.initial_tracks
    } else {
        ((rules.row_pitch / step).round() as usize).max(2)
    };
    let max_tracks = initial_tracks + router.max_expansions;

    // RUDY demand per channel: nets x expected span / usable width.
    let mean_span = layer_width * MEAN_SPAN_FRACTION + step;
    let mut worst: Vec<ChannelForecast> = Vec::new();
    let mut total_utilization = 0.0;
    let mut max_utilization: f64 = 0.0;
    let mut running_nets = 0isize;
    for (channel, delta) in nets_delta.iter().take(channels).enumerate() {
        running_nets += delta;
        let nets = running_nets.max(0) as usize;
        let demand_tracks = if layer_width > 0.0 {
            nets as f64 * mean_span / layer_width.max(step)
        } else {
            nets as f64
        };
        let utilization = demand_tracks / initial_tracks as f64;
        total_utilization += utilization;
        max_utilization = max_utilization.max(utilization);
        worst.push(ChannelForecast { row: channel, nets, demand_tracks, utilization });
    }
    worst.sort_by(|a, b| {
        b.utilization.partial_cmp(&a.utilization).unwrap_or(std::cmp::Ordering::Equal)
    });
    worst.truncate(CongestionForecast::WORST_CAP);

    // Sound lower bound on the total net count: every surviving cell and
    // every primary output needs at least one incoming net, and each net
    // lives in exactly one channel after balancing.
    let min_nets = analysis.surviving.iter().filter(|s| **s).count() + analysis.structure.outputs;

    let congestion = CongestionForecast {
        channels,
        columns,
        initial_tracks,
        max_tracks,
        min_nets,
        mean_utilization: if channels > 0 { total_utilization / channels as f64 } else { 0.0 },
        max_utilization,
        worst,
    };
    (die, congestion)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::analysis::analyse;
    use aqfp_cells::CellKind as CK;
    use aqfp_netlist::Netlist;

    fn forecast_for(netlist: &Netlist) -> (DieEstimate, CongestionForecast) {
        let analysis = analyse(netlist, 4).unwrap();
        forecast(&analysis, &Technology::mit_ll_sqf5ee(), &RouterConfig::default())
    }

    fn chain(depth: usize) -> Netlist {
        let mut n = Netlist::new("chain");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let mut x = a;
        let mut y = b;
        for i in 0..depth {
            let nx = n.add_gate(CK::And, format!("a{i}"), vec![x, y]);
            let ny = n.add_gate(CK::Or, format!("o{i}"), vec![x, y]);
            x = nx;
            y = ny;
        }
        n.add_output("z0", x);
        n.add_output("z1", y);
        n
    }

    #[test]
    fn die_grows_with_depth() {
        let (small, _) = forecast_for(&chain(2));
        let (large, _) = forecast_for(&chain(12));
        assert!(large.height_um > small.height_um);
        assert!(large.area_um2 > small.area_um2);
        assert!(small.layer_width_um > 0.0);
    }

    #[test]
    fn every_live_channel_sees_nets() {
        let (_, congestion) = forecast_for(&chain(6));
        assert!(congestion.channels >= 7);
        assert!(!congestion.worst.is_empty());
        assert!(congestion.worst.iter().all(|c| c.nets > 0));
        assert!(congestion.max_utilization > 0.0);
        assert!(congestion.mean_utilization <= congestion.max_utilization);
        assert!(congestion.min_nets >= 2 * 6 + 2);
    }

    #[test]
    fn capacity_mirrors_router_defaults() {
        let (_, congestion) = forecast_for(&chain(3));
        // MIT-LL row pitch 100um over a 10um grid: 10 initial tracks, plus
        // the router's 64-expansion budget.
        assert_eq!(congestion.initial_tracks, 10);
        assert_eq!(congestion.max_tracks, 74);
        assert!(congestion.columns >= 2);
    }

    #[test]
    fn the_grid_pitch_is_the_technologys_minimum_spacing() {
        let analysis = analyse(&chain(3), 4).unwrap();
        let mut technology = Technology::mit_ll_sqf5ee();
        technology.rules.min_spacing = 20.0;
        // The configured 10 µm pitch is not the grid the flow routes on.
        let (_, congestion) = forecast(&analysis, &technology, &RouterConfig::default());
        assert_eq!(congestion.initial_tracks, 5);
        assert_eq!(congestion.max_tracks, 69);
    }

    #[test]
    fn worst_list_is_sorted_and_capped() {
        let (_, congestion) = forecast_for(&chain(40));
        assert!(congestion.worst.len() <= CongestionForecast::WORST_CAP);
        for pair in congestion.worst.windows(2) {
            assert!(pair[0].utilization >= pair[1].utilization);
        }
    }
}
