//! Tetris-based legalization (§III-C.2 of the paper).
//!
//! After analytical global placement, cells in a row may overlap and sit off
//! the manufacturing grid. Legalization walks each row from left to right in
//! order of desired position and drops every cell at the closest legal spot
//! — the classic Tetris scheme — preserving the global-placement intent
//! while eliminating overlaps and snapping to the 10 µm grid.

use crate::design::PlacedDesign;

/// Legalizes every row in place: cells keep their left-to-right order from
/// global placement, are snapped to the process grid and packed so that
/// consecutive cells either abut or keep the minimum spacing.
pub fn legalize(design: &mut PlacedDesign) {
    let grid = design.rules.grid;
    let spacing = design.rules.min_spacing;

    design.sort_rows_by_x();
    let rows = design.rows.clone();
    for row in &rows {
        let mut cursor = 0.0;
        for &cell_index in row {
            let desired = design.cells[cell_index].x;
            // Closest legal position at or right of the packing cursor: either
            // abut the previous cell (cursor) or leave at least the minimum
            // spacing; any position in between is illegal. Abutment is only
            // available while the cursor itself sits on the grid — a library
            // whose cell widths are not grid multiples leaves it off-grid, and
            // the cell must instead take the first grid point at legal
            // spacing (clamping to the raw cursor would place it off-grid).
            let cursor_on_grid = ((cursor / grid).round() * grid - cursor).abs() < 1e-9;
            let legal_min = if cursor_on_grid {
                cursor
            } else {
                ((cursor + spacing) / grid - 1e-9).ceil() * grid
            };
            let snapped_desired = (desired / grid).round() * grid;
            let position = if snapped_desired < cursor + spacing {
                // At, left of, or too close to the previous cell: clamp to
                // the closest legal spot, which keeps displacement small.
                legal_min
            } else {
                // A grid multiple at legal spacing is never below
                // `legal_min`, so the desired spot stands as is.
                snapped_desired
            };
            design.cells[cell_index].x = position;
            cursor = position + design.cells[cell_index].width;
        }
    }

    design.sort_rows_by_x();
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::global::{global_place, GlobalPlacementConfig};
    use aqfp_cells::Technology;
    use aqfp_netlist::generators::{benchmark_circuit, Benchmark};
    use aqfp_synth::Synthesizer;

    fn placed_design(benchmark: Benchmark) -> PlacedDesign {
        let library = Technology::mit_ll_sqf5ee();
        let synthesized =
            Synthesizer::new(library.clone()).run(&benchmark_circuit(benchmark)).expect("ok");
        let mut design = PlacedDesign::from_synthesized(&synthesized, &library);
        global_place(&mut design, &GlobalPlacementConfig::default());
        design
    }

    #[test]
    fn legalization_removes_all_overlaps() {
        let mut design = placed_design(Benchmark::Adder8);
        assert!(design.overlap_count() > 0, "global placement leaves overlaps to remove");
        legalize(&mut design);
        assert_eq!(design.overlap_count(), 0);
        assert_eq!(design.spacing_violations(), 0);
    }

    #[test]
    fn legalization_snaps_to_grid() {
        let mut design = placed_design(Benchmark::Apc32);
        legalize(&mut design);
        let grid = design.rules.grid;
        for cell in &design.cells {
            let remainder = (cell.x / grid).fract().abs();
            assert!(
                remainder < 1e-6 || (1.0 - remainder) < 1e-6,
                "cell {} at x={} is off the {} µm grid",
                cell.name,
                cell.x,
                grid
            );
        }
    }

    #[test]
    fn legalization_is_idempotent() {
        let mut design = placed_design(Benchmark::Adder8);
        legalize(&mut design);
        let xs: Vec<f64> = design.cells.iter().map(|c| c.x).collect();
        assert_eq!(design.overlap_count(), 0);
        legalize(&mut design);
        let xs_after: Vec<f64> = design.cells.iter().map(|c| c.x).collect();
        assert_eq!(xs, xs_after, "already-legal placement must not move");
    }

    #[test]
    fn off_grid_cell_widths_still_legalize_onto_the_grid() {
        // A custom library whose cell width (35 µm) is not a multiple of the
        // 10 µm grid: abutting the previous cell would land off-grid, so the
        // packer must advance to the next grid point at legal spacing.
        use crate::design::{PhysNet, PlacedCell};
        use aqfp_cells::{CellKind, ProcessRules};

        let rules = ProcessRules::mit_ll();
        let cell = |name: &str, row: usize, x: f64| PlacedCell {
            gate: None,
            name: name.into(),
            kind: CellKind::Buffer,
            width: 35.0,
            height: 40.0,
            row,
            x,
        };
        let mut design = PlacedDesign {
            name: "odd_widths".into(),
            cells: vec![cell("a", 0, 0.0), cell("b", 0, 20.0), cell("c", 0, 20.0)],
            nets: vec![PhysNet { driver: 0, sink: 1 }],
            rows: vec![vec![0, 1, 2]],
            row_pitch: rules.row_pitch,
            rules,
        };

        assert!(design.overlap_count() > 0, "the fixture must start overlapping");
        legalize(&mut design);
        assert_eq!(design.overlap_count(), 0);
        assert_eq!(design.spacing_violations(), 0);
        let grid = design.rules.grid;
        for cell in &design.cells {
            let remainder = (cell.x / grid).fract().abs();
            assert!(
                remainder < 1e-6 || (1.0 - remainder) < 1e-6,
                "cell {} at x={} is off the {} µm grid",
                cell.name,
                cell.x,
                grid
            );
        }
        // Idempotence holds for off-grid widths too.
        let xs: Vec<f64> = design.cells.iter().map(|c| c.x).collect();
        legalize(&mut design);
        let xs_after: Vec<f64> = design.cells.iter().map(|c| c.x).collect();
        assert_eq!(xs, xs_after);
    }

    #[test]
    fn legalized_hpwl_beats_the_initial_packing() {
        let library = Technology::mit_ll_sqf5ee();
        let synthesized = Synthesizer::new(library.clone())
            .run(&benchmark_circuit(Benchmark::Adder8))
            .expect("ok");
        let mut design = PlacedDesign::from_synthesized(&synthesized, &library);
        let initial = design.hpwl();
        global_place(&mut design, &GlobalPlacementConfig::default());
        legalize(&mut design);
        assert!(
            design.hpwl() < initial,
            "global placement + legalization should beat the initial packing ({} vs {initial})",
            design.hpwl()
        );
    }
}
