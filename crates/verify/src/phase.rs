//! Phase-legality verification over placed and routed artifacts.
//!
//! AQFP logic is clocked by rows: a cell in row `r` fires at clock phase
//! `r mod 4`, and data can only move from a row to the next one. The checks
//! here re-derive that invariant from the raw cell/net/wire data — they do
//! not reuse the buffer-insertion pass's level bookkeeping, the placer's
//! row lists, or the router's channel reports, so a bug in any of those
//! engines cannot vouch for itself. The same holds for the pin columns
//! every routed wire must start and end on: they are re-derived from the
//! cells' positions, not read from the router.

use aqfp_lint::Diagnostic;
use aqfp_place::PlacedDesign;
use aqfp_route::RoutingResult;

use crate::report::{capped, violation};

/// Rule id: a driver→sink edge does not advance exactly one clock phase.
pub const RULE_PHASE_SKEW: &str = "AQFP-V010";
/// Rule id: a cell drives more sinks than its kind supports, or a splitter
/// exceeds the configured maximum arity.
pub const RULE_FANOUT: &str = "AQFP-V011";
/// Rule id: a routed wire's geometry is off-grid, non-rectilinear or
/// outside its channel.
pub const RULE_WIRE_GEOMETRY: &str = "AQFP-V012";
/// Rule id: the net/wire structure does not match 1:1 (missing or duplicate
/// wires, dangling indices, arity-inconsistent connectivity).
pub const RULE_COVERAGE: &str = "AQFP-V013";
/// Rule id: a routed wire does not start on its driver's pin column or does
/// not end on its sink's.
pub const RULE_PIN_END: &str = "AQFP-V014";

/// Verifies the clocking and fan-out legality of a placed design.
pub fn check_placed(design: &PlacedDesign, max_splitter_arity: usize) -> Vec<Diagnostic> {
    if let Err(error) = design.validate_consistent() {
        return vec![violation(
            RULE_COVERAGE,
            format!("physical design is structurally inconsistent: {error}"),
            None,
        )];
    }

    let mut skew = Vec::new();
    let mut coverage = Vec::new();
    let mut fanout_counts = vec![0usize; design.cells.len()];
    let mut fanin_counts = vec![0usize; design.cells.len()];
    for (index, net) in design.nets.iter().enumerate() {
        let driver = &design.cells[net.driver];
        let sink = &design.cells[net.sink];
        fanout_counts[net.driver] += 1;
        fanin_counts[net.sink] += 1;
        if sink.row != driver.row + 1 {
            skew.push(violation(
                RULE_PHASE_SKEW,
                format!(
                    "net n{index} from `{}` (row {}) to `{}` (row {}) advances {} phase(s); \
                     AQFP clocking requires exactly one",
                    driver.name,
                    driver.row,
                    sink.name,
                    sink.row,
                    sink.row as i64 - driver.row as i64,
                ),
                Some(driver.name.clone()),
            ));
        }
    }

    let mut fanout = Vec::new();
    for (index, cell) in design.cells.iter().enumerate() {
        let drives = fanout_counts[index];
        let capacity = cell.kind.output_count();
        if drives > capacity {
            fanout.push(violation(
                RULE_FANOUT,
                format!(
                    "cell `{}` ({}) drives {drives} sink(s) but its kind supports {capacity}",
                    cell.name, cell.kind
                ),
                Some(cell.name.clone()),
            ));
        }
        if cell.kind.is_splitter() && capacity > max_splitter_arity {
            fanout.push(violation(
                RULE_FANOUT,
                format!(
                    "splitter `{}` has arity {capacity}, exceeding the configured \
                     max_splitter_arity {max_splitter_arity}",
                    cell.name
                ),
                Some(cell.name.clone()),
            ));
        }
        let consumes = fanin_counts[index];
        let arity = cell.kind.input_count();
        if consumes != arity {
            coverage.push(violation(
                RULE_COVERAGE,
                format!(
                    "cell `{}` ({}) has {consumes} incoming net(s) but its kind consumes {arity}",
                    cell.name, cell.kind
                ),
                Some(cell.name.clone()),
            ));
        }
    }

    let mut findings = capped(RULE_PHASE_SKEW, skew);
    findings.extend(capped(RULE_FANOUT, fanout));
    findings.extend(capped(RULE_COVERAGE, coverage));
    findings
}

/// Verifies that the routed wires cover the placed nets 1:1, that every
/// wire's geometry is rectilinear, on the routing grid and inside its own
/// channel, and that every wire starts on its driver's pin column and ends
/// on its sink's, as the router assigns them. A wire left behind by a cell
/// that moved after routing fails the last check. `grid_step_um` is
/// the router's grid pitch (values below 1 µm are clamped to 1, matching
/// the router).
pub fn check_routed(
    design: &PlacedDesign,
    routing: &RoutingResult,
    grid_step_um: f64,
) -> Vec<Diagnostic> {
    if let Err(error) = design.validate_consistent() {
        return vec![violation(
            RULE_COVERAGE,
            format!("physical design is structurally inconsistent: {error}"),
            None,
        )];
    }
    let step = grid_step_um.max(1.0);
    // First routing track sits above the tallest cell (the router's channel
    // base offset), re-derived from the cell data.
    let base_offset = design.cells.iter().map(|c| c.height).fold(30.0, f64::max);
    let max_x = (routing.grid_columns.max(1) - 1) as f64 * step;
    let pins = pin_columns(design, step);
    const EPS: f64 = 1e-6;

    let mut coverage = Vec::new();
    let mut geometry = Vec::new();
    let mut pin_ends = Vec::new();
    let mut routed_count = vec![0usize; design.nets.len()];
    for wire in &routing.wires {
        if wire.net >= design.nets.len() {
            coverage.push(violation(
                RULE_COVERAGE,
                format!(
                    "routed wire references net n{} but the design has {} nets",
                    wire.net,
                    design.nets.len()
                ),
                None,
            ));
            continue;
        }
        routed_count[wire.net] += 1;
        let net = &design.nets[wire.net];
        let channel = design.cells[net.driver].row;
        let y_base = design.row_y(channel) + base_offset;
        let mut problems: Vec<String> = Vec::new();
        if wire.path.len() < 2 {
            problems
                .push(format!("path has {} point(s); a wire needs at least two", wire.path.len()));
        }
        for pair in wire.path.windows(2) {
            let (dx, dy) = (pair[1].x - pair[0].x, pair[1].y - pair[0].y);
            if dx.abs() > EPS && dy.abs() > EPS {
                problems.push(format!(
                    "diagonal segment from ({:.1}, {:.1}) to ({:.1}, {:.1})",
                    pair[0].x, pair[0].y, pair[1].x, pair[1].y
                ));
                break;
            }
        }
        for point in &wire.path {
            let column = point.x / step;
            let track = (point.y - y_base) / step;
            if (column - column.round()).abs() > EPS || (track - track.round()).abs() > EPS {
                problems.push(format!(
                    "point ({:.3}, {:.3}) is off the routing grid",
                    point.x, point.y
                ));
                break;
            }
            if point.x < -EPS || point.x > max_x + EPS {
                problems.push(format!(
                    "point ({:.1}, {:.1}) is outside the grid columns [0, {max_x:.1}]",
                    point.x, point.y
                ));
                break;
            }
            if track.round() < -EPS {
                problems.push(format!(
                    "point ({:.1}, {:.1}) lies below the channel base y = {y_base:.1}",
                    point.x, point.y
                ));
                break;
            }
        }
        if let (Some(first), Some(last)) = (wire.path.first(), wire.path.last()) {
            if (first.y - y_base).abs() > EPS {
                problems.push(format!(
                    "wire starts at y = {:.1}, not on the channel's first track y = {y_base:.1}",
                    first.y
                ));
            }
            let top = wire.path.iter().map(|p| p.y).fold(f64::MIN, f64::max);
            if (last.y - top).abs() > EPS {
                problems.push(format!(
                    "wire ends at y = {:.1} below its own topmost track y = {top:.1}",
                    last.y
                ));
            }
        }
        for problem in problems {
            geometry.push(violation(
                RULE_WIRE_GEOMETRY,
                format!("wire for net n{} in channel {channel}: {problem}", wire.net),
                Some(format!("n{}", wire.net)),
            ));
        }
        let (start_column, end_column) = pins[wire.net];
        let ends = [
            (wire.path.first(), start_column, "starts", "driver", net.driver),
            (wire.path.last(), end_column, "ends", "sink", net.sink),
        ];
        for (point, column, verb, role, cell) in ends {
            let pin_x = column as f64 * step;
            if let Some(point) = point.filter(|point| (point.x - pin_x).abs() > EPS) {
                pin_ends.push(violation(
                    RULE_PIN_END,
                    format!(
                        "wire for net n{} in channel {channel} {verb} at x = {:.1}, not on its \
                         {role} `{}`'s pin column x = {pin_x:.1}",
                        wire.net, point.x, design.cells[cell].name
                    ),
                    Some(format!("n{}", wire.net)),
                ));
            }
        }
    }
    for (index, &count) in routed_count.iter().enumerate() {
        let net = &design.nets[index];
        let channel = design.cells[net.driver].row;
        if count == 0 {
            coverage.push(violation(
                RULE_COVERAGE,
                format!(
                    "net n{index} (`{}` → `{}`) missing a routed wire in channel {channel}",
                    design.cells[net.driver].name, design.cells[net.sink].name
                ),
                Some(format!("n{index}")),
            ));
        } else if count > 1 {
            coverage.push(violation(
                RULE_COVERAGE,
                format!("net n{index} is routed {count} times in channel {channel}"),
                Some(format!("n{index}")),
            ));
        }
    }

    let mut findings = capped(RULE_WIRE_GEOMETRY, geometry);
    findings.extend(capped(RULE_PIN_END, pin_ends));
    findings.extend(capped(RULE_COVERAGE, coverage));
    findings
}

/// The grid columns of every net's driver pin and sink pin, by net index,
/// as the router assigns them. Nets are taken per channel (the driver's
/// row) in design order, and each cell's driver and sink pins are numbered
/// in that order. A pin prefers column `round(centre / step) + pin index`,
/// clamped to the grid's `ceil(layer_width / step) + 2` columns; when
/// another pin on its side of the channel holds that column, it takes the
/// nearest free one, right before left at equal distance, and when none is
/// free it keeps the preferred one.
fn pin_columns(design: &PlacedDesign, step: f64) -> Vec<(i64, i64)> {
    let columns = ((design.layer_width() / step).ceil() as i64 + 2).max(2);
    let mut start_used: Vec<Vec<bool>> = vec![Vec::new(); design.rows.len()];
    let mut end_used: Vec<Vec<bool>> = vec![Vec::new(); design.rows.len()];
    let mut driver_pins = vec![0i64; design.cells.len()];
    let mut sink_pins = vec![0i64; design.cells.len()];
    let take = |center_x: f64, pin: i64, used: &mut Vec<bool>| {
        if used.is_empty() {
            used.resize(columns as usize, false);
        }
        let preferred = ((center_x / step).round() as i64 + pin).clamp(0, columns - 1);
        let free = (0..columns)
            .flat_map(|distance| [preferred + distance, preferred - distance])
            .find(|&column| (0..columns).contains(&column) && !used[column as usize]);
        if let Some(column) = free {
            used[column as usize] = true;
        }
        free.unwrap_or(preferred)
    };
    design
        .nets
        .iter()
        .map(|net| {
            let (driver, sink) = (&design.cells[net.driver], &design.cells[net.sink]);
            let start =
                take(driver.center_x(), driver_pins[net.driver], &mut start_used[driver.row]);
            let end = take(sink.center_x(), sink_pins[net.sink], &mut end_used[driver.row]);
            driver_pins[net.driver] += 1;
            sink_pins[net.sink] += 1;
            (start, end)
        })
        .collect()
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use aqfp_cells::Technology;
    use aqfp_netlist::generators::{benchmark_circuit, Benchmark};
    use aqfp_place::{PlacementEngine, PlacerKind};
    use aqfp_route::Router;
    use aqfp_synth::Synthesizer;

    fn routed_adder() -> (PlacedDesign, RoutingResult) {
        let technology = Technology::mit_ll_sqf5ee();
        let synthesized = Synthesizer::new(technology.clone())
            .run(&benchmark_circuit(Benchmark::Adder8))
            .unwrap();
        let placed =
            PlacementEngine::new(technology.clone()).place(&synthesized, PlacerKind::SuperFlow);
        let routing = Router::new(technology).route(&placed.design);
        (placed.design, routing)
    }

    #[test]
    fn a_clean_flow_passes_both_checks() {
        let (design, routing) = routed_adder();
        assert_eq!(check_placed(&design, 4), vec![]);
        assert_eq!(check_routed(&design, &routing, 10.0), vec![]);
    }

    #[test]
    fn a_phase_skipping_net_is_v010() {
        let (mut design, _) = routed_adder();
        let driver = design.nets[0].driver;
        let skip_row = design.cells[driver].row + 2;
        let target = design.rows[skip_row][0];
        design.nets[0].sink = target;
        let findings = check_placed(&design, 4);
        assert!(findings.iter().any(|d| d.rule == RULE_PHASE_SKEW), "{findings:?}");
    }

    #[test]
    fn overdriven_cells_are_v011() {
        let (mut design, _) = routed_adder();
        // Duplicate a net: its driver now drives one sink too many.
        let net = design.nets[0];
        design.nets.push(net);
        let findings = check_placed(&design, 4);
        assert!(findings.iter().any(|d| d.rule == RULE_FANOUT), "{findings:?}");
    }

    #[test]
    fn splitter_arity_above_the_configured_limit_is_v011() {
        let (design, _) = routed_adder();
        let findings = check_placed(&design, 1);
        assert!(
            findings
                .iter()
                .any(|d| d.rule == RULE_FANOUT && d.message.contains("max_splitter_arity")),
            "{findings:?}"
        );
    }

    #[test]
    fn a_dropped_wire_is_v013_with_its_channel() {
        let (design, mut routing) = routed_adder();
        let dropped = routing.wires.pop().unwrap();
        let channel = design.cells[design.nets[dropped.net].driver].row;
        let findings = check_routed(&design, &routing, 10.0);
        let missing = findings
            .iter()
            .find(|d| d.rule == RULE_COVERAGE && d.message.contains("missing a routed wire"))
            .expect("missing-wire finding");
        assert!(
            missing.message.contains(&format!("channel {channel}")),
            "finding names the channel: {}",
            missing.message
        );
        assert_eq!(missing.object.as_deref(), Some(format!("n{}", dropped.net).as_str()));
    }

    #[test]
    fn a_perturbed_wire_point_is_v012() {
        let (design, mut routing) = routed_adder();
        routing.wires[0].path[0].y += 3.5;
        let findings = check_routed(&design, &routing, 10.0);
        assert!(findings.iter().any(|d| d.rule == RULE_WIRE_GEOMETRY), "{findings:?}");
    }
}
