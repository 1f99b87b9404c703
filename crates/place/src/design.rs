//! The physical view of a synthesized AQFP netlist: rows, cells and
//! point-to-point nets.

use aqfp_cells::{CellKind, ProcessRules, Technology};
use aqfp_netlist::{Csr, GateId};
use aqfp_synth::SynthesizedNetlist;
use aqfp_timing::{PlacedNet, TimingBatch};
use serde::{Deserialize, Serialize};

/// A placed cell instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlacedCell {
    /// The gate this cell implements, or `None` for cells created by the
    /// physical-design stage itself (max-wirelength buffer rows).
    pub gate: Option<GateId>,
    /// Instance name (unique within the design).
    pub name: String,
    /// The cell kind.
    pub kind: CellKind,
    /// Cell width in µm.
    pub width: f64,
    /// Cell height in µm.
    pub height: f64,
    /// Row (clock phase) index.
    pub row: usize,
    /// X coordinate of the cell's lower-left corner in µm.
    pub x: f64,
}

impl PlacedCell {
    /// Horizontal center of the cell.
    pub fn center_x(&self) -> f64 {
        self.x + self.width / 2.0
    }

    /// Right edge of the cell.
    pub fn right(&self) -> f64 {
        self.x + self.width
    }
}

/// A point-to-point physical net (AQFP nets are two-pin after splitter
/// insertion: one driver, one sink on the next clock phase).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhysNet {
    /// Index of the driving cell in [`PlacedDesign::cells`].
    pub driver: usize,
    /// Index of the sink cell.
    pub sink: usize,
}

/// The physical design: all cells with their row/x positions plus the
/// two-pin net list.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlacedDesign {
    /// Design name (propagated from the netlist).
    pub name: String,
    /// All cell instances.
    pub cells: Vec<PlacedCell>,
    /// All two-pin nets.
    pub nets: Vec<PhysNet>,
    /// Cell indices grouped by row, each row sorted by x during
    /// legalization.
    pub rows: Vec<Vec<usize>>,
    /// Vertical pitch between adjacent rows in µm.
    pub row_pitch: f64,
    /// Process design rules the design must obey.
    pub rules: ProcessRules,
}

impl PlacedDesign {
    /// Checks the cross-references that every engine indexes by without
    /// bounds checks — net driver/sink indices, row membership and the cell
    /// → row back-pointers — and the range of every cell's geometry: `x ≥
    /// 0`, a positive width, and a right edge no further out than all cells
    /// packed side by side (the summed `width + min_spacing`). A
    /// deserialized design that parses as JSON but violates these
    /// invariants would otherwise panic, hang or size a routing grid by a
    /// corrupt coordinate deep inside placement, routing or timing —
    /// checkpoint loaders call this instead and turn the message into a
    /// typed error.
    pub fn validate_consistent(&self) -> Result<(), String> {
        let cells = self.cells.len();
        for (index, net) in self.nets.iter().enumerate() {
            if net.driver >= cells || net.sink >= cells {
                return Err(format!(
                    "net {index} references cell {} of {cells}",
                    net.driver.max(net.sink)
                ));
            }
        }
        let mut listed = vec![false; cells];
        for (row_index, row) in self.rows.iter().enumerate() {
            for &cell in row {
                if cell >= cells {
                    return Err(format!("row {row_index} references cell {cell} of {cells}"));
                }
                if self.cells[cell].row != row_index {
                    return Err(format!(
                        "cell {cell} is listed in row {row_index} but points at row {}",
                        self.cells[cell].row
                    ));
                }
                if std::mem::replace(&mut listed[cell], true) {
                    return Err(format!("cell {cell} is listed in more than one row slot"));
                }
            }
        }
        if let Some(cell) = listed.iter().position(|&seen| !seen) {
            return Err(format!("cell {cell} (row {}) is missing from the row lists", {
                self.cells[cell].row
            }));
        }
        if !(self.row_pitch.is_finite() && self.row_pitch > 0.0) {
            return Err(format!("row pitch {} is not a positive finite number", self.row_pitch));
        }
        let packed_width: f64 =
            self.cells.iter().map(|cell| cell.width + self.rules.min_spacing).sum();
        for (index, cell) in self.cells.iter().enumerate() {
            if !(cell.x.is_finite() && cell.width.is_finite()) {
                return Err(format!("cell {index} has a non-finite coordinate or width"));
            }
            if cell.x < 0.0 || cell.width <= 0.0 {
                return Err(format!(
                    "cell {index} has x {} µm and width {} µm; x must be non-negative and the \
                     width positive",
                    cell.x, cell.width
                ));
            }
            if cell.right() > packed_width {
                return Err(format!(
                    "cell {index} ends at x {:e} µm, past the {packed_width} µm all cells span \
                     packed side by side",
                    cell.right()
                ));
            }
        }
        Ok(())
    }

    /// Builds the initial physical design from a synthesized netlist.
    ///
    /// Every gate becomes a cell in the row given by its clock phase; cells
    /// start evenly packed from the left edge of their row, which is the
    /// starting point for global placement.
    pub fn from_synthesized(synthesized: &SynthesizedNetlist, library: &Technology) -> Self {
        let rules = library.rules().clone();
        let netlist = &synthesized.netlist;
        let row_count = synthesized.levels.iter().copied().max().unwrap_or(0) + 1;

        let mut cells = Vec::with_capacity(netlist.gate_count());
        let mut rows: Vec<Vec<usize>> = vec![Vec::new(); row_count];
        for (id, gate) in netlist.iter() {
            let proto = library.cell(gate.kind);
            let row = synthesized.levels[id.index()];
            let cell_index = cells.len();
            cells.push(PlacedCell {
                gate: Some(id),
                name: gate.name.clone(),
                kind: gate.kind,
                width: proto.width,
                height: proto.height,
                row,
                x: 0.0,
            });
            rows[row].push(cell_index);
        }

        // Initial placement: pack each row from x = 0 with minimum spacing.
        for row in &rows {
            let mut cursor = 0.0;
            for &cell_index in row {
                cells[cell_index].x = cursor;
                cursor += cells[cell_index].width + rules.min_spacing;
            }
        }

        // One physical net per fan-in edge.
        let mut cell_of_gate = vec![usize::MAX; netlist.gate_count()];
        for (index, cell) in cells.iter().enumerate() {
            if let Some(gate) = cell.gate {
                cell_of_gate[gate.index()] = index;
            }
        }
        let mut nets = Vec::new();
        for (id, gate) in netlist.iter() {
            for &driver in &gate.fanin {
                nets.push(PhysNet {
                    driver: cell_of_gate[driver.index()],
                    sink: cell_of_gate[id.index()],
                });
            }
        }

        Self {
            name: netlist.name().to_owned(),
            cells,
            nets,
            rows,
            row_pitch: rules.row_pitch,
            rules,
        }
    }

    /// Number of cells.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Number of two-pin nets.
    pub fn net_count(&self) -> usize {
        self.nets.len()
    }

    /// The nets incident to each cell, row `c` for cell `c`: every net
    /// appears under its driver and under its sink, in net order. It stays
    /// valid while cell and net *indices* are stable: moving cells is fine,
    /// inserting buffer rows (which renumbers both) needs a rebuild.
    pub(crate) fn net_incidence(&self) -> Csr<u32> {
        Csr::from_pairs(self.cells.len(), || {
            self.nets.iter().zip(0u32..).flat_map(|(net, k)| [(net.driver, k), (net.sink, k)])
        })
    }

    /// Y coordinate of a row's bottom edge.
    pub fn row_y(&self, row: usize) -> f64 {
        row as f64 * self.row_pitch
    }

    /// Length of a net: horizontal center-to-center distance plus the fixed
    /// vertical row separation.
    pub fn net_length(&self, net: &PhysNet) -> f64 {
        let driver = &self.cells[net.driver];
        let sink = &self.cells[net.sink];
        let dx = (driver.center_x() - sink.center_x()).abs();
        let dy = (self.row_y(driver.row) - self.row_y(sink.row)).abs();
        dx + dy
    }

    /// Total half-perimeter wirelength of the design in µm (the HPWL column
    /// of Table III).
    ///
    /// AQFP nets always connect adjacent rows, so the vertical span of every
    /// net is the same fixed row pitch; following the convention of the AQFP
    /// placement literature the HPWL metric counts only the horizontal spans
    /// the placer can actually optimize. Use [`PlacedDesign::net_length`]
    /// (which includes the vertical hop) for timing and max-wirelength
    /// checks.
    pub fn hpwl(&self) -> f64 {
        self.nets
            .iter()
            .map(|net| (self.cells[net.driver].center_x() - self.cells[net.sink].center_x()).abs())
            .sum()
    }

    /// Width of the widest row (the layer width `Ŵ` of Eq. 2).
    pub fn layer_width(&self) -> f64 {
        self.rows
            .iter()
            .flat_map(|row| row.iter())
            .map(|&i| self.cells[i].right())
            .fold(0.0, f64::max)
    }

    /// Bounding-box area of the placement in µm².
    pub fn area(&self) -> f64 {
        self.layer_width() * (self.rows.len() as f64 * self.row_pitch)
    }

    /// The timing view of a single net: driver phase, endpoint centers and
    /// estimated length.
    pub fn placed_net(&self, net: &PhysNet) -> PlacedNet {
        let driver = &self.cells[net.driver];
        let sink = &self.cells[net.sink];
        PlacedNet {
            phase: driver.row,
            source_x: driver.center_x(),
            sink_x: sink.center_x(),
            length_um: self.net_length(net),
        }
    }

    /// Converts the design into the per-net view the scalar timing analyzer
    /// consumes — the reference the batched path is tested against.
    pub fn to_placed_nets(&self) -> Vec<PlacedNet> {
        self.nets.iter().map(|net| self.placed_net(net)).collect()
    }

    /// Refills `batch` with every net of the design, in net order, reusing
    /// the batch's allocations.
    pub fn fill_timing_batch(&self, batch: &mut TimingBatch) {
        batch.clear();
        for net in &self.nets {
            batch.push(self.placed_net(net));
        }
    }

    /// Nets longer than `limit` µm, as `(net index, length)` in net order.
    pub fn nets_longer_than(&self, limit: f64) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.nets.iter().enumerate().filter_map(move |(index, net)| {
            let length = self.net_length(net);
            (length > limit).then_some((index, length))
        })
    }

    /// Nets whose length exceeds the process maximum wirelength.
    pub fn max_wirelength_violations(&self) -> Vec<usize> {
        self.nets_longer_than(self.rules.max_wirelength).map(|(index, _)| index).collect()
    }

    /// Horizontally neighbouring cells that neither abut nor keep
    /// `min_spacing` apart, as `(row, left cell, right cell, gap µm)`: rows
    /// in order, each left to right. A negative gap is an overlap.
    pub fn spacing_faults(&self, min_spacing: f64) -> Vec<(usize, usize, usize, f64)> {
        let tolerance = 1e-6;
        let mut faults = Vec::new();
        for (row_index, row) in self.rows.iter().enumerate() {
            let mut sorted: Vec<usize> = row.clone();
            sorted.sort_by(|&a, &b| {
                self.cells[a].x.partial_cmp(&self.cells[b].x).expect("finite coordinates")
            });
            for pair in sorted.windows(2) {
                let gap = self.cells[pair[1]].x - self.cells[pair[0]].right();
                if gap < -tolerance || (gap > tolerance && gap < min_spacing - tolerance) {
                    faults.push((row_index, pair[0], pair[1], gap));
                }
            }
        }
        faults
    }

    /// Number of overlapping cell pairs within rows (zero after
    /// legalization).
    pub fn overlap_count(&self) -> usize {
        let faults = self.spacing_faults(self.rules.min_spacing);
        faults.iter().filter(|&&(_, _, _, gap)| gap < 0.0).count()
    }

    /// Number of spacing violations: horizontally neighbouring cells must
    /// either abut or keep at least the minimum spacing.
    pub fn spacing_violations(&self) -> usize {
        self.spacing_faults(self.rules.min_spacing).len()
    }

    /// Re-sorts the per-row index lists by x coordinate (call after moving
    /// cells).
    pub fn sort_rows_by_x(&mut self) {
        for row in &mut self.rows {
            row.sort_by(|&a, &b| {
                self.cells[a].x.partial_cmp(&self.cells[b].x).expect("finite coordinates")
            });
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use aqfp_cells::Technology;
    use aqfp_netlist::generators::{benchmark_circuit, Benchmark};
    use aqfp_synth::Synthesizer;

    fn small_design() -> PlacedDesign {
        let library = Technology::mit_ll_sqf5ee();
        let synthesized = Synthesizer::new(library.clone())
            .run(&benchmark_circuit(Benchmark::Adder8))
            .expect("ok");
        PlacedDesign::from_synthesized(&synthesized, &library)
    }

    #[test]
    fn construction_covers_every_gate_and_edge() {
        let library = Technology::mit_ll_sqf5ee();
        let synthesized = Synthesizer::new(library.clone())
            .run(&benchmark_circuit(Benchmark::Adder8))
            .expect("ok");
        let design = PlacedDesign::from_synthesized(&synthesized, &library);
        assert_eq!(design.cell_count(), synthesized.netlist.gate_count());
        assert_eq!(design.net_count(), synthesized.netlist.connection_count());
        let cells_in_rows: usize = design.rows.iter().map(Vec::len).sum();
        assert_eq!(cells_in_rows, design.cell_count());
    }

    #[test]
    fn initial_placement_has_no_overlaps() {
        let design = small_design();
        assert_eq!(design.overlap_count(), 0);
        assert_eq!(design.spacing_violations(), 0);
        assert!(design.hpwl() > 0.0);
        assert!(design.layer_width() > 0.0);
        assert!(design.area() > 0.0);
    }

    #[test]
    fn nets_connect_adjacent_rows() {
        let design = small_design();
        for net in &design.nets {
            let dr = design.cells[net.driver].row;
            let sr = design.cells[net.sink].row;
            assert_eq!(sr, dr + 1, "path-balanced nets connect adjacent phases");
        }
    }

    #[test]
    fn net_length_includes_row_pitch() {
        let design = small_design();
        let net = design.nets[0];
        assert!(design.net_length(&net) >= design.row_pitch);
    }

    #[test]
    fn placed_nets_match_net_count() {
        let design = small_design();
        assert_eq!(design.to_placed_nets().len(), design.net_count());
    }

    #[test]
    fn incidence_matches_the_net_list() {
        let design = small_design();
        let incidence = design.net_incidence();
        assert_eq!(incidence.row_count(), design.cell_count(), "one list per cell");
        // Every net appears exactly once in its driver's and its sink's
        // incidence list.
        for (index, net) in design.nets.iter().enumerate() {
            for cell in [net.driver, net.sink] {
                let hits = incidence.row(cell).iter().filter(|&&n| n as usize == index).count();
                assert_eq!(hits, 1, "net {index} in cell {cell}'s list");
            }
        }
        let total: usize = (0..design.cell_count()).map(|c| incidence.row(c).len()).sum();
        assert_eq!(total, 2 * design.net_count(), "two endpoints per net");
        // Each list is in net order.
        for cell in 0..design.cell_count() {
            assert!(incidence.row(cell).windows(2).all(|pair| pair[0] < pair[1]), "cell {cell}");
        }
    }

    #[test]
    fn filled_batch_matches_to_placed_nets() {
        let design = small_design();
        let mut batch = aqfp_timing::TimingBatch::new();
        design.fill_timing_batch(&mut batch);
        assert_eq!(batch, aqfp_timing::TimingBatch::from_nets(&design.to_placed_nets()));
        // A refill replaces the previous contents instead of appending.
        design.fill_timing_batch(&mut batch);
        assert_eq!(batch.len(), design.net_count());
    }

    #[test]
    fn moving_a_cell_far_creates_wirelength_violations() {
        let mut design = small_design();
        // Find a cell that drives a net and push it extremely far away.
        let net = design.nets[0];
        design.cells[net.driver].x = 100_000.0;
        assert!(!design.max_wirelength_violations().is_empty());
    }

    #[test]
    fn cell_geometry_must_lie_inside_the_packed_span() {
        let design = small_design();
        assert_eq!(design.validate_consistent(), Ok(()));
        let packed: f64 =
            design.cells.iter().map(|cell| cell.width + design.rules.min_spacing).sum();
        let width = design.cells[0].width;
        // A cell may end exactly at the packed span, but not past it.
        for (x, width, valid) in [
            (packed - width, width, true),
            (packed, width, false),
            (-1.0, width, false),
            (0.0, 0.0, false),
            (0.0, -1e9, false),
            (f64::INFINITY, width, false),
        ] {
            let mut edited = design.clone();
            edited.cells[0].x = x;
            edited.cells[0].width = width;
            match edited.validate_consistent() {
                Ok(()) => assert!(valid, "x {x}, width {width} must be rejected"),
                Err(error) => {
                    assert!(!valid, "x {x}, width {width}: {error}");
                    assert!(error.starts_with("cell 0 "), "{error}");
                }
            }
        }
    }

    #[test]
    fn spacing_violation_detection() {
        let mut design = small_design();
        // Force two cells in the same row to overlap.
        if let Some(row) = design.rows.iter().find(|r| r.len() >= 2) {
            let (a, b) = (row[0], row[1]);
            design.cells[b].x = design.cells[a].x + 1.0;
            assert!(design.spacing_violations() > 0);
        }
    }
}
