//! Chip-level layout assembly.
//!
//! The generator takes a placed design and its routing result and assembles
//! the final GDSII library: one structure per standard cell, plus a top
//! structure containing a structure reference per placed cell and a routed
//! path per wire, alternating the two wiring metals segment by segment.

use std::collections::BTreeSet;
use std::io::{self, Write};
use std::sync::Arc;

use aqfp_cells::{CellKind, Point, Technology};
use aqfp_place::PlacedDesign;
use aqfp_route::RoutingResult;
use serde::{Deserialize, Serialize};

use crate::cells;
use crate::gds::{
    GdsElement, GdsLibrary, GdsStreamWriter, GdsStructure, DEFAULT_DATABASE_UNIT_M,
    DEFAULT_USER_UNIT_DB,
};

/// A generated chip layout: the GDSII library plus a few summary numbers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Layout {
    /// The GDSII library ready to be serialized with
    /// [`GdsLibrary::to_bytes`].
    pub gds: GdsLibrary,
    /// Name of the top-level structure.
    pub top_name: String,
    /// Number of cell instances referenced by the top structure.
    pub cell_instances: usize,
    /// Number of routed wire paths in the top structure.
    pub wire_paths: usize,
    /// Chip bounding-box width in µm.
    pub width_um: f64,
    /// Chip bounding-box height in µm.
    pub height_um: f64,
}

impl Layout {
    /// Serializes the layout to GDSII bytes.
    pub fn to_gds_bytes(&self) -> Vec<u8> {
        self.gds.to_bytes()
    }

    /// The summary numbers of this layout, as
    /// [`stream_layout`](LayoutGenerator::stream_layout) would report them.
    pub fn summary(&self) -> LayoutSummary {
        LayoutSummary {
            top_name: self.top_name.clone(),
            cell_instances: self.cell_instances,
            wire_paths: self.wire_paths,
            width_um: self.width_um,
            height_um: self.height_um,
        }
    }
}

/// The summary numbers of a streamed layout: everything [`Layout`] carries
/// except the in-memory GDSII library, which a streamed emission never
/// builds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayoutSummary {
    /// Name of the top-level structure.
    pub top_name: String,
    /// Number of cell instances referenced by the top structure.
    pub cell_instances: usize,
    /// Number of routed wire paths in the top structure.
    pub wire_paths: usize,
    /// Chip bounding-box width in µm.
    pub width_um: f64,
    /// Chip bounding-box height in µm.
    pub height_um: f64,
}

/// Assembles GDSII layouts from placement and routing results.
///
/// ```
/// use aqfp_cells::Technology;
/// use aqfp_layout::LayoutGenerator;
/// let generator = LayoutGenerator::new(Technology::mit_ll_sqf5ee());
/// assert_eq!(generator.technology().rules().min_spacing, 10.0);
/// ```
#[derive(Debug, Clone)]
pub struct LayoutGenerator {
    technology: Arc<Technology>,
}

impl LayoutGenerator {
    /// Creates a generator for the given technology. Accepts either an
    /// owned [`Technology`] or a shared `Arc<Technology>` (the flow driver
    /// shares one technology across all stages).
    pub fn new(technology: impl Into<Arc<Technology>>) -> Self {
        Self { technology: technology.into() }
    }

    /// The technology backing the generated layouts (cell geometry, wire
    /// width, GDS layer map).
    pub fn technology(&self) -> &Technology {
        &self.technology
    }

    /// Generates the chip layout for a placed and routed design.
    pub fn generate(&self, design: &PlacedDesign, routing: &RoutingResult) -> Layout {
        let mut gds = GdsLibrary::new(design.name.clone());
        for structure in self.cell_structures(design) {
            gds.add_structure(structure);
        }
        let mut top = GdsStructure::new(top_name(design));
        // A reference per cell, and a path per straight run of each wire:
        // one more than its vias.
        let runs: usize = routing.wires.iter().map(|wire| wire.via_count + 1).sum();
        top.elements.reserve(design.cells.len() + runs);
        top.elements.extend(self.top_elements(design, routing));
        let LayoutSummary { top_name, cell_instances, wire_paths, width_um, height_um } =
            summary(design, top.elements.iter().filter(|e| is_path(e)).count());
        gds.add_structure(top);
        Layout { gds, top_name, cell_instances, wire_paths, width_um, height_um }
    }

    /// Streams the chip layout for a placed and routed design straight into
    /// `out`, without building the in-memory [`GdsLibrary`].
    ///
    /// Emits exactly the same structures, elements and bytes as
    /// [`generate`](Self::generate) followed by
    /// [`Layout::to_gds_bytes`] — same cell-structure order (used kinds,
    /// sorted), same top-structure element order (cell references in
    /// placement order, then wire segments in routing order) — but its peak
    /// memory is one GDSII record, which is what makes million-cell GDS
    /// emission feasible. Wrap file sinks in a `BufWriter`.
    ///
    /// # Errors
    ///
    /// Propagates the first I/O error from `out`.
    pub fn stream_layout<W: Write>(
        &self,
        design: &PlacedDesign,
        routing: &RoutingResult,
        out: W,
    ) -> io::Result<LayoutSummary> {
        let mut writer = GdsStreamWriter::new(out);
        writer.begin_library(&design.name, DEFAULT_USER_UNIT_DB, DEFAULT_DATABASE_UNIT_M)?;
        for structure in self.cell_structures(design) {
            writer.begin_structure(&structure.name)?;
            for element in &structure.elements {
                writer.element(element)?;
            }
            writer.end_structure()?;
        }
        writer.begin_structure(&top_name(design))?;
        let mut wire_paths = 0usize;
        for element in self.top_elements(design, routing) {
            wire_paths += usize::from(is_path(&element));
            writer.element(&element)?;
        }
        writer.end_structure()?;
        writer.end_library()?;
        Ok(summary(design, wire_paths))
    }

    /// One structure per cell kind the design instantiates, in kind order.
    fn cell_structures(&self, design: &PlacedDesign) -> impl Iterator<Item = GdsStructure> + '_ {
        let used_kinds: BTreeSet<_> = design.cells.iter().map(|c| c.kind).collect();
        used_kinds.into_iter().map(|kind| cells::cell_structure(&self.technology, kind))
    }

    /// The top structure's elements: a reference per placed cell in
    /// placement order, then every wire split into maximal straight
    /// segments in routing order. The segments alternate the two wiring
    /// metals — horizontal runs on metal1, vertical runs on metal2 —
    /// mirroring the two-layer channel model of the router.
    fn top_elements<'a>(
        &'a self,
        design: &'a PlacedDesign,
        routing: &'a RoutingResult,
    ) -> impl Iterator<Item = GdsElement> + 'a {
        let layers = self.technology.layers();
        let width = self.technology.rules().wire_width;
        // `CellKind::ALL` lists the kinds in declaration order, so a kind's
        // discriminant indexes its name.
        let names = CellKind::ALL.map(cells::structure_name);
        let references = design.cells.iter().map(move |cell| GdsElement::Sref {
            name: names[cell.kind as usize].clone(),
            origin: Point::new(cell.x, design.row_y(cell.row)),
        });
        let paths = routing.wires.iter().flat_map(|wire| straight_segments(&wire.path)).map(
            move |segment| {
                let layer = if (segment[0].y - segment[segment.len() - 1].y).abs() < 1e-9 {
                    layers.metal1
                } else {
                    layers.metal2
                };
                GdsElement::Path { layer, width, points: segment.to_vec() }
            },
        );
        references.chain(paths)
    }
}

/// Name of a design's top-level structure.
fn top_name(design: &PlacedDesign) -> String {
    format!("{}_top", design.name)
}

/// Whether a top-structure element is a routed wire path.
fn is_path(element: &GdsElement) -> bool {
    matches!(element, GdsElement::Path { .. })
}

/// The summary numbers of a design's layout with `wire_paths` wire paths.
fn summary(design: &PlacedDesign, wire_paths: usize) -> LayoutSummary {
    LayoutSummary {
        top_name: top_name(design),
        cell_instances: design.cells.len(),
        wire_paths,
        width_um: design.layer_width(),
        height_um: design.rows.len() as f64 * design.row_pitch,
    }
}

/// Splits a rectilinear point sequence into maximal straight segments:
/// runs of the path, each starting at the corner where the last one ends.
fn straight_segments(path: &[Point]) -> impl Iterator<Item = &[Point]> {
    let horizontal = |at: usize| (path[at].y - path[at + 1].y).abs() < 1e-9;
    let mut start = 0;
    std::iter::from_fn(move || {
        if start + 1 >= path.len() {
            return None;
        }
        let mut end = start + 1;
        while end + 1 < path.len() && horizontal(end) == horizontal(start) {
            end += 1;
        }
        let segment = &path[start..=end];
        start = end;
        Some(segment)
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::gds::{parse_records, RecordTag};
    use aqfp_netlist::generators::{benchmark_circuit, Benchmark};
    use aqfp_place::{PlacementEngine, PlacerKind};
    use aqfp_route::Router;
    use aqfp_synth::Synthesizer;

    fn routed_design() -> (PlacedDesign, RoutingResult, Technology) {
        let technology = Technology::mit_ll_sqf5ee();
        let synthesized = Synthesizer::new(technology.clone())
            .run(&benchmark_circuit(Benchmark::Adder8))
            .expect("ok");
        let placed =
            PlacementEngine::new(technology.clone()).place(&synthesized, PlacerKind::SuperFlow);
        let routing = Router::new(technology.clone()).route(&placed.design);
        (placed.design, routing, technology)
    }

    #[test]
    fn layout_references_every_cell_and_wire() {
        let (design, routing, technology) = routed_design();
        let layout = LayoutGenerator::new(technology).generate(&design, &routing);
        assert_eq!(layout.cell_instances, design.cell_count());
        assert!(layout.wire_paths >= routing.wires.len());
        assert!(layout.width_um > 0.0 && layout.height_um > 0.0);

        let top = layout.gds.structure(&layout.top_name).expect("top exists");
        let srefs = top.elements.iter().filter(|e| matches!(e, GdsElement::Sref { .. })).count();
        assert_eq!(srefs, design.cell_count());
    }

    #[test]
    fn generated_stream_is_well_formed() {
        let (design, routing, technology) = routed_design();
        let layout = LayoutGenerator::new(technology).generate(&design, &routing);
        let bytes = layout.to_gds_bytes();
        let records = parse_records(&bytes).expect("parsable GDSII");
        assert_eq!(records.last().and_then(|r| r.tag), Some(RecordTag::EndLib));
        let boundaries = records.iter().filter(|r| r.tag == Some(RecordTag::Boundary)).count();
        assert!(boundaries > 0);
        let paths = records.iter().filter(|r| r.tag == Some(RecordTag::Path)).count();
        assert_eq!(paths, layout.wire_paths);
    }

    #[test]
    fn straight_segment_splitting() {
        let path = vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(20.0, 0.0),
            Point::new(20.0, 10.0),
            Point::new(30.0, 10.0),
        ];
        let segments: Vec<_> = straight_segments(&path).collect();
        assert_eq!(segments, [&path[..3], &path[2..4], &path[3..]]);
        assert!(straight_segments(&[Point::new(0.0, 0.0)]).next().is_none());
        assert!(straight_segments(&[]).next().is_none());
    }

    #[test]
    fn streaming_emission_matches_the_in_memory_library() {
        let (design, routing, technology) = routed_design();
        let generator = LayoutGenerator::new(technology);
        let layout = generator.generate(&design, &routing);
        let mut streamed = Vec::new();
        let summary = generator
            .stream_layout(&design, &routing, std::io::BufWriter::new(&mut streamed))
            .expect("vec sink");
        assert_eq!(streamed, layout.to_gds_bytes(), "streamed bytes must match to_bytes");
        assert_eq!(summary, layout.summary());
    }

    #[test]
    fn only_used_cell_kinds_are_emitted() {
        let (design, routing, technology) = routed_design();
        let layout = LayoutGenerator::new(technology).generate(&design, &routing);
        // The design never uses, e.g., a NOR cell after majority conversion of
        // the adder; the library must not contain structures for unused kinds.
        let used: BTreeSet<_> =
            design.cells.iter().map(|c| cells::structure_name(c.kind)).collect();
        for structure in &layout.gds.structures {
            if structure.name == layout.top_name {
                continue;
            }
            assert!(used.contains(&structure.name), "unexpected structure {}", structure.name);
        }
    }
}
