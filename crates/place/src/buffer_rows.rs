//! Buffer-row insertion for maximum-wirelength violations.
//!
//! AQFP interconnect between two clock phases may not exceed the process
//! maximum wirelength `W_max`. When a placed connection is longer than that,
//! the paper inserts an entire row of buffers between the two rows so the
//! connection is split into two shorter hops (§II, constraint ii). The
//! number of inserted buffer lines is one of the quality metrics Table III
//! reports — fewer lines mean less area and fewer JJs.

use std::ops::Range;

use aqfp_cells::{CellKind, Technology};
use serde::{Deserialize, Serialize};

use crate::design::{PhysNet, PlacedCell, PlacedDesign};
use crate::detailed::{detailed_place_in_rows, DetailedPlacementConfig};
use crate::legalize::legalize;

/// Summary of a buffer-row insertion run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct BufferRowReport {
    /// Number of buffer rows (lines) inserted.
    pub buffer_lines: usize,
    /// Number of buffer cells inserted across all lines.
    pub buffer_cells: usize,
    /// Number of nets that violated the maximum wirelength before insertion.
    pub violating_nets: usize,
    /// Violating nets insertion could not fix because their sink row is at
    /// or below their driver row (buffer rows only split connections that
    /// climb to the next clock phase). Always zero for path-balanced
    /// designs; hand-built designs with such nets are reported here instead
    /// of aborting.
    pub skipped_nets: usize,
}

// Hand-written so flow checkpoints serialized before `skipped_nets` existed
// keep deserializing: the field falls back to 0, which is what every report
// of that era actually recorded (the vendored serde derive has no
// `#[serde(default)]`).
impl Deserialize for BufferRowReport {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let skipped_nets = match value.field("skipped_nets") {
            Ok(field) => usize::from_value(field)?,
            Err(_) => 0,
        };
        Ok(Self {
            buffer_lines: usize::from_value(value.field("buffer_lines")?)?,
            buffer_cells: usize::from_value(value.field("buffer_cells")?)?,
            violating_nets: usize::from_value(value.field("violating_nets")?)?,
            skipped_nets,
        })
    }
}

/// The buffer lines each row gap needs (indexed by the gap's driver row)
/// so every hop of the `violating` nets stays within the maximum
/// wirelength, each hop also paying one row pitch of vertical distance: a
/// gap's longest climbing connection decides. Also returns how many of the
/// nets do not climb and so cannot be split
/// ([`BufferRowReport::skipped_nets`]).
fn buffer_lines_per_gap(design: &PlacedDesign, violating: &[usize]) -> (Vec<usize>, usize) {
    let budget = (design.rules.max_wirelength - design.row_pitch).max(design.rules.grid);
    let mut lines: Vec<usize> = vec![0; design.rows.len()];
    let mut skipped_nets = 0;
    for &net_index in violating {
        let net = design.nets[net_index];
        let (driver, sink) = (&design.cells[net.driver], &design.cells[net.sink]);
        if sink.row <= driver.row {
            // A sink at or below its driver: no gap between the two rows to
            // expand.
            skipped_nets += 1;
            continue;
        }
        let hops = ((driver.center_x() - sink.center_x()).abs() / budget).ceil().max(1.0) as usize;
        lines[driver.row] = lines[driver.row].max((hops - 1).max(1));
    }
    (lines, skipped_nets)
}

/// Counts the buffer lines a placement would need without modifying it.
///
/// For every pair of adjacent rows, the longest connection crossing the pair
/// determines how many intermediate buffer rows that gap needs; the total is
/// the "Buffers" column of Table III.
pub fn required_buffer_lines(design: &PlacedDesign) -> usize {
    buffer_lines_per_gap(design, &design.max_wirelength_violations()).0.iter().sum()
}

/// Inserts buffer rows so every connection respects the maximum wirelength.
///
/// Every row gap that contains at least one violating net receives enough
/// full buffer lines to split its longest connection into legal hops; every
/// net crossing such a gap is re-routed through one buffer per inserted
/// line, keeping the design path-balanced (all nets crossing the gap gain
/// the same number of phases).
///
/// Violating nets whose sink row is at or below their driver row cannot be
/// fixed this way; they are counted in [`BufferRowReport::skipped_nets`]
/// and left alone instead of aborting (such nets are constructible through
/// the public [`PlacedDesign`] API even though the flow never produces
/// them).
///
/// Besides the summary report, it returns the range of buffer cells it
/// appended to [`PlacedDesign::cells`] (empty when it inserted nothing).
/// Existing cells keep their indices and x, and rows above an expanded gap
/// move up by the lines inserted below them.
pub fn insert_buffer_rows(
    design: &mut PlacedDesign,
    library: &Technology,
) -> (BufferRowReport, Range<usize>) {
    let first_new_cell = design.cells.len();
    let violating = design.max_wirelength_violations();
    let (lines_per_gap, skipped_nets) = buffer_lines_per_gap(design, &violating);
    let buffer_proto = library.cell(CellKind::Buffer);
    let mut report = BufferRowReport {
        buffer_lines: lines_per_gap.iter().sum(),
        buffer_cells: 0,
        violating_nets: violating.len(),
        skipped_nets,
    };
    if report.buffer_lines == 0 {
        // No violation, or only skipped (non-climbing) nets.
        return (report, first_new_cell..first_new_cell);
    }

    // Rows above an expanded gap shift up by the lines inserted below them.
    let old_row_count = design.rows.len();
    let new_row_index: Vec<usize> =
        (0..old_row_count).map(|r| r + lines_per_gap[..r].iter().sum::<usize>()).collect();
    let total_rows = old_row_count + report.buffer_lines;

    for cell in &mut design.cells {
        cell.row = new_row_index[cell.row];
    }
    let mut rows: Vec<Vec<usize>> = vec![Vec::new(); total_rows];
    for (index, cell) in design.cells.iter().enumerate() {
        rows[cell.row].push(index);
    }
    design.rows = rows;

    // Split every net that now spans more than one row through one buffer per
    // intermediate row.
    let original_net_count = design.nets.len();
    for net_index in 0..original_net_count {
        let net = design.nets[net_index];
        let driver_row = design.cells[net.driver].row;
        let sink_row = design.cells[net.sink].row;
        // Skipped (non-climbing) nets keep `hops` at zero instead of
        // underflowing.
        let hops = sink_row.saturating_sub(driver_row);
        if hops <= 1 {
            continue;
        }
        let driver_x = design.cells[net.driver].center_x();
        let sink_x = design.cells[net.sink].center_x();
        let mut previous = net.driver;
        for hop in 1..hops {
            let t = hop as f64 / hops as f64;
            let x = ((driver_x + t * (sink_x - driver_x)) / design.rules.grid).round()
                * design.rules.grid;
            let row = driver_row + hop;
            let cell_index = design.cells.len();
            design.cells.push(PlacedCell {
                gate: None,
                name: format!("wlbuf_{net_index}_{hop}"),
                kind: CellKind::Buffer,
                width: buffer_proto.width,
                height: buffer_proto.height,
                row,
                x: (x - buffer_proto.width / 2.0).max(0.0),
            });
            design.rows[row].push(cell_index);
            report.buffer_cells += 1;
            design.nets.push(PhysNet { driver: previous, sink: cell_index });
            previous = cell_index;
        }
        // The original net now covers only the last hop.
        design.nets[net_index] = PhysNet { driver: previous, sink: net.sink };
    }

    design.sort_rows_by_x();
    (report, first_new_cell..design.cells.len())
}

/// One complete buffer-row repair iteration, exactly as the flow's
/// DRC-repair loop runs it: insert buffer rows, re-legalize, then a
/// *scoped* detailed placement over the inserted rows plus the rows
/// bordering each expanded gap — the hop endpoints live there, so the pass
/// can shorten every leg of a split connection while rows far from any
/// edit stay untouched.
///
/// Returns the insertion report. `FlowSession::check` and the
/// `drc_repair_buffer_rows` bench both run this one function, so the bench
/// measures exactly the iteration the flow executes.
pub fn repair_buffer_rows(
    design: &mut PlacedDesign,
    library: &Technology,
    detailed: &DetailedPlacementConfig,
) -> BufferRowReport {
    let (report, appended) = insert_buffer_rows(design, library);
    legalize(design);
    let mut repair_rows: Vec<usize> = design.cells[appended]
        .iter()
        .flat_map(|cell| [cell.row.saturating_sub(1), cell.row, cell.row + 1])
        .filter(|&row| row < design.rows.len())
        .collect();
    repair_rows.sort_unstable();
    repair_rows.dedup();
    detailed_place_in_rows(design, detailed, &repair_rows);
    report
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use aqfp_cells::Technology;
    use aqfp_netlist::generators::{benchmark_circuit, Benchmark};
    use aqfp_synth::Synthesizer;

    fn design_for(benchmark: Benchmark) -> (PlacedDesign, Technology) {
        let library = Technology::mit_ll_sqf5ee();
        let synthesized =
            Synthesizer::new(library.clone()).run(&benchmark_circuit(benchmark)).expect("ok");
        (PlacedDesign::from_synthesized(&synthesized, &library), library)
    }

    /// A two-cell design whose single net is comfortably within the maximum
    /// wirelength.
    fn tiny_legal_design(library: &Technology) -> PlacedDesign {
        let proto = library.cell(CellKind::Buffer);
        let cells = vec![
            PlacedCell {
                gate: None,
                name: "a".into(),
                kind: CellKind::Buffer,
                width: proto.width,
                height: proto.height,
                row: 0,
                x: 0.0,
            },
            PlacedCell {
                gate: None,
                name: "b".into(),
                kind: CellKind::Buffer,
                width: proto.width,
                height: proto.height,
                row: 1,
                x: 40.0,
            },
        ];
        PlacedDesign {
            name: "tiny".into(),
            cells,
            nets: vec![PhysNet { driver: 0, sink: 1 }],
            rows: vec![vec![0], vec![1]],
            row_pitch: library.rules().row_pitch,
            rules: library.rules().clone(),
        }
    }

    #[test]
    fn compact_designs_need_no_buffer_lines() {
        let library = Technology::mit_ll_sqf5ee();
        let design = tiny_legal_design(&library);
        assert!(design.max_wirelength_violations().is_empty());
        assert_eq!(required_buffer_lines(&design), 0);
    }

    #[test]
    fn stretched_nets_trigger_buffer_rows() {
        let (mut design, library) = design_for(Benchmark::Adder8);
        let net = design.nets[0];
        design.cells[net.driver].x = design.rules.max_wirelength * 3.0;
        assert!(required_buffer_lines(&design) >= 1);

        let (report, appended) = insert_buffer_rows(&mut design, &library);
        assert!(report.buffer_lines >= 1);
        assert!(report.buffer_cells >= report.buffer_lines);
        assert!(report.violating_nets >= 1);
        assert_eq!(report.skipped_nets, 0);
        assert_eq!(appended.len(), report.buffer_cells);
        assert!(
            design.max_wirelength_violations().is_empty(),
            "all hops must be legal after buffer-row insertion"
        );
    }

    #[test]
    fn insertion_keeps_nets_on_adjacent_rows() {
        let (mut design, library) = design_for(Benchmark::Apc32);
        let net = design.nets[0];
        design.cells[net.driver].x = design.rules.max_wirelength * 2.5;
        insert_buffer_rows(&mut design, &library);
        for net in &design.nets {
            let dr = design.cells[net.driver].row;
            let sr = design.cells[net.sink].row;
            assert_eq!(sr, dr + 1, "all hops must span exactly one row after insertion");
        }
    }

    #[test]
    fn no_violation_means_no_change() {
        let library = Technology::mit_ll_sqf5ee();
        let mut design = tiny_legal_design(&library);
        let before = design.clone();
        let (report, appended) = insert_buffer_rows(&mut design, &library);
        assert_eq!(report.buffer_lines, 0);
        assert_eq!(design, before);
        assert_eq!(appended, before.cell_count()..before.cell_count());
    }

    /// Regression: a hand-built design (constructible through the public
    /// API, like `examples/custom_technology.rs` builds its rule sets)
    /// whose violating net has its sink at or below the driver row used to
    /// abort on `sink_row - driver_row` underflow; it must be reported and
    /// skipped instead.
    #[test]
    fn non_climbing_violations_are_skipped_not_a_panic() {
        let library = Technology::mit_ll_sqf5ee();
        let mut design = tiny_legal_design(&library);
        // Net 0 goes row 0 -> row 1; add the reverse net plus a same-row
        // net, then stretch everything far past the maximum wirelength.
        design.nets.push(PhysNet { driver: 1, sink: 0 });
        let proto = library.cell(CellKind::Buffer);
        design.cells.push(PlacedCell {
            gate: None,
            name: "c".into(),
            kind: CellKind::Buffer,
            width: proto.width,
            height: proto.height,
            row: 0,
            x: 40.0,
        });
        design.rows[0].push(2);
        design.nets.push(PhysNet { driver: 0, sink: 2 });
        design.cells[0].x = design.rules.max_wirelength * 3.0;

        assert!(design.max_wirelength_violations().len() >= 3);
        // Both entry points tolerate the malformed nets.
        let required = required_buffer_lines(&design);
        assert!(required >= 1, "the climbing violation still needs lines");
        let (report, appended) = insert_buffer_rows(&mut design, &library);
        assert_eq!(report.skipped_nets, 2, "one downward and one same-row net are skipped");
        assert!(report.buffer_lines >= 1, "the climbing violation is still repaired");
        assert!(!appended.is_empty());
        // The skipped nets are untouched; the climbing net's hops are legal.
        for net in &design.nets {
            let (dr, sr) = (design.cells[net.driver].row, design.cells[net.sink].row);
            if sr > dr {
                assert!(design.net_length(net) <= design.rules.max_wirelength);
            }
        }
    }

    /// When every violating net is non-climbing there is nothing to insert:
    /// the design is untouched and nothing is appended.
    #[test]
    fn all_skipped_violations_leave_the_design_untouched() {
        let library = Technology::mit_ll_sqf5ee();
        let mut design = tiny_legal_design(&library);
        design.nets[0] = PhysNet { driver: 1, sink: 0 };
        design.cells[1].x = design.rules.max_wirelength * 3.0;
        let before = design.clone();
        let (report, appended) = insert_buffer_rows(&mut design, &library);
        assert_eq!(report.buffer_lines, 0);
        assert_eq!(report.skipped_nets, 1);
        assert_eq!(report.violating_nets, 1);
        assert!(appended.is_empty());
        assert_eq!(design, before);
        assert_eq!(required_buffer_lines(&design), 0);
    }

    /// Checkpoints serialized before `skipped_nets` existed must keep
    /// parsing, with the count falling back to 0.
    #[test]
    fn report_deserialization_defaults_missing_skipped_nets() {
        use serde::{Deserialize, Serialize, Value};
        let report = BufferRowReport {
            buffer_lines: 3,
            buffer_cells: 17,
            violating_nets: 5,
            skipped_nets: 2,
        };
        let Value::Map(entries) = report.to_value() else { panic!("report serializes to a map") };
        let legacy =
            Value::Map(entries.into_iter().filter(|(key, _)| key != "skipped_nets").collect());
        let parsed = BufferRowReport::from_value(&legacy).expect("legacy checkpoint parses");
        assert_eq!(parsed.skipped_nets, 0, "absent field falls back to 0");
        assert_eq!(parsed.buffer_lines, 3);
        assert_eq!(parsed.buffer_cells, 17);
        assert_eq!(parsed.violating_nets, 5);
        // A present field round-trips unchanged.
        assert_eq!(BufferRowReport::from_value(&report.to_value()), Ok(report));
    }

    #[test]
    fn design_edit_records_the_remap_and_appended_ranges() {
        let (mut design, library) = design_for(Benchmark::Adder8);
        let net = design.nets[0];
        design.cells[net.driver].x = design.rules.max_wirelength * 3.0;
        let before = design.clone();

        let (report, appended) = insert_buffer_rows(&mut design, &library);

        // The appended range holds exactly the inserted buffers, after every
        // pre-existing cell.
        assert_eq!(appended, before.cell_count()..design.cell_count());
        assert_eq!(appended.len(), report.buffer_cells);
        assert!(design.cells[appended.clone()].iter().all(|cell| cell.kind == CellKind::Buffer));
        assert_eq!(design.rows.len(), before.rows.len() + report.buffer_lines);
        // Pre-existing cells keep their x, and each old row moves as a
        // whole: upward, in the same order.
        let mut remap = std::collections::BTreeMap::new();
        for (old, new) in before.cells.iter().zip(&design.cells) {
            assert_eq!(old.x, new.x);
            assert_eq!(*remap.entry(old.row).or_insert(new.row), new.row);
        }
        for (&old, &new) in &remap {
            assert!(new >= old);
        }
        let new_rows: Vec<usize> = remap.into_values().collect();
        assert!(new_rows.windows(2).all(|pair| pair[0] < pair[1]));
        // Split nets: rewritten in place, driver now an appended buffer on
        // the row right below the original sink.
        let split: Vec<usize> =
            (0..before.net_count()).filter(|&n| design.nets[n] != before.nets[n]).collect();
        assert!(!split.is_empty());
        for &net_index in &split {
            let net = design.nets[net_index];
            assert!(appended.contains(&net.driver), "split nets are driven by new buffers");
            assert_eq!(net.sink, before.nets[net_index].sink);
            assert_eq!(design.cells[net.sink].row, design.cells[net.driver].row + 1);
        }
        // Every appended net leads one hop up from an existing or appended
        // cell to an appended buffer.
        for net in &design.nets[before.net_count()..] {
            assert!(appended.contains(&net.sink));
            assert_eq!(design.cells[net.sink].row, design.cells[net.driver].row + 1);
        }
    }

    #[test]
    fn buffer_cells_scale_with_nets_crossing_the_gap() {
        let (mut design, library) = design_for(Benchmark::Adder8);
        // Count nets leaving the row of the stretched driver.
        let net = design.nets[0];
        let row = design.cells[net.driver].row;
        let crossing = design.nets.iter().filter(|n| design.cells[n.driver].row == row).count();
        design.cells[net.driver].x = design.rules.max_wirelength * 3.0;
        let (report, _) = insert_buffer_rows(&mut design, &library);
        assert!(
            report.buffer_cells >= crossing,
            "every net crossing the expanded gap needs at least one buffer ({} < {crossing})",
            report.buffer_cells
        );
    }
}
