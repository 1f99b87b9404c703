//! Chip-level layout assembly.
//!
//! The generator takes a placed design and its routing result and writes
//! the final GDSII stream: one structure per standard cell, plus a top
//! structure containing a structure reference per placed cell and a routed
//! path per wire, alternating the two wiring metals segment by segment.
//! [`LayoutGenerator::generate`] keeps the stream as a byte image in a
//! [`Layout`]; [`LayoutGenerator::stream_layout`] writes the same bytes to
//! any sink.

use std::collections::BTreeSet;
use std::io::{self, Write};
use std::sync::Arc;

use aqfp_cells::{CellKind, Point, Technology};
use aqfp_place::PlacedDesign;
use aqfp_route::RoutingResult;
use serde::{Deserialize, Deserializer, Serialize, Serializer, Value};

use crate::base64;
use crate::cells;
use crate::gds::{
    library_frame_len, path_len, sref_len, structure_frame_len, GdsLibrary, GdsStreamWriter,
    GdsStructure, DEFAULT_DATABASE_UNIT_M, DEFAULT_USER_UNIT_DB,
};

/// A generated chip layout: its GDSII byte image plus a few summary
/// numbers.
///
/// The image is the stream [`LayoutGenerator::stream_layout`] writes, held
/// once: [`gds_bytes`](Self::gds_bytes) lends it to a reader (LVS, a file
/// write), and no element tree is kept beside it. Its checkpoint form is
/// the image in base64 chunks (`"gds_base64"`, 3 KiB of image a string),
/// written and read one chunk at a time; a checkpoint that holds the
/// layout as a `"gds"` element tree ([`GdsLibrary`]), as the flow wrote it
/// before it kept the bytes, still loads, to the bytes that tree streams.
#[derive(Debug, Clone, PartialEq)]
pub struct Layout {
    /// The GDSII stream.
    gds: Vec<u8>,
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
    /// The GDSII stream, in place.
    pub fn gds_bytes(&self) -> &[u8] {
        &self.gds
    }

    /// The GDSII stream, for an edit that keeps its length, such as the
    /// defect injection of `aqfp_verify::mutate`. The summary numbers do
    /// not follow the edit.
    pub fn gds_bytes_mut(&mut self) -> &mut [u8] {
        &mut self.gds
    }

    /// A copy of the GDSII stream.
    pub fn to_gds_bytes(&self) -> Vec<u8> {
        self.gds.clone()
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

/// The bytes of GDS image one checkpoint string holds: 3 KiB, which base64
/// writes as 4,096 digits without padding.
const GDS_CHUNK: usize = 3 << 10;

impl Serialize for Layout {
    fn to_value(&self) -> Value {
        serde::to_value(self)
    }

    /// A map of `gds_base64` (the image in base64 strings of 3 KiB of
    /// image each), then the summary fields in declaration order.
    fn serialize(&self, serializer: &mut dyn Serializer) -> Result<(), serde::Error> {
        serializer.begin_map()?;
        serializer.key("gds_base64")?;
        serializer.begin_seq()?;
        let mut text = Vec::with_capacity(GDS_CHUNK / 3 * 4);
        for chunk in self.gds.chunks(GDS_CHUNK) {
            text.clear();
            base64::encode_into(chunk, &mut text);
            serializer.element()?;
            serializer.serialize_str(std::str::from_utf8(&text).expect("base64 is ASCII"))?;
        }
        serializer.end_seq()?;
        serializer.key("top_name")?;
        serializer.serialize_str(&self.top_name)?;
        serializer.key("cell_instances")?;
        self.cell_instances.serialize(serializer)?;
        serializer.key("wire_paths")?;
        self.wire_paths.serialize(serializer)?;
        serializer.key("width_um")?;
        serializer.serialize_f64(self.width_um)?;
        serializer.key("height_um")?;
        serializer.serialize_f64(self.height_um)?;
        serializer.end_map()
    }
}

impl Deserialize for Layout {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        serde::from_value(value)
    }

    /// Reads the map [`Serialize`] writes, or one whose `gds` holds the
    /// element tree. As in a derived impl, an unknown key is skipped, a
    /// repeated one keeps its first value and a missing one is an error.
    fn deserialize(deserializer: &mut dyn Deserializer) -> Result<Self, serde::Error> {
        let mut gds = None;
        let mut top_name = None;
        let mut cell_instances = None;
        let mut wire_paths = None;
        let mut width_um = None;
        let mut height_um = None;
        deserializer.begin_map("map with field `gds_base64`")?;
        while let Some(key) = deserializer.next_key()? {
            match key.into_owned().as_str() {
                "gds_base64" if gds.is_none() => gds = Some(read_chunks(deserializer)?),
                // The element tree of checkpoints written before the image.
                "gds" if gds.is_none() => {
                    gds = Some(GdsLibrary::deserialize(deserializer)?.to_bytes())
                }
                "top_name" if top_name.is_none() => {
                    top_name = Some(String::deserialize(deserializer)?)
                }
                "cell_instances" if cell_instances.is_none() => {
                    cell_instances = Some(usize::deserialize(deserializer)?)
                }
                "wire_paths" if wire_paths.is_none() => {
                    wire_paths = Some(usize::deserialize(deserializer)?)
                }
                "width_um" if width_um.is_none() => {
                    width_um = Some(f64::deserialize(deserializer)?)
                }
                "height_um" if height_um.is_none() => {
                    height_um = Some(f64::deserialize(deserializer)?)
                }
                _ => deserializer.skip_value()?,
            }
        }
        let missing = |field: &str| serde::Error::new(format!("missing field `{field}`"));
        Ok(Layout {
            gds: gds.ok_or_else(|| missing("gds_base64"))?,
            top_name: top_name.ok_or_else(|| missing("top_name"))?,
            cell_instances: cell_instances.ok_or_else(|| missing("cell_instances"))?,
            wire_paths: wire_paths.ok_or_else(|| missing("wire_paths"))?,
            width_um: width_um.ok_or_else(|| missing("width_um"))?,
            height_um: height_um.ok_or_else(|| missing("height_um"))?,
        })
    }
}

/// Reads the `gds_base64` sequence into the image it encodes, one chunk at
/// a time. A chunk that is no string or no base64 is an error that names
/// the layout and the chunk.
fn read_chunks(deserializer: &mut dyn Deserializer) -> Result<Vec<u8>, serde::Error> {
    let damaged = |index: usize, cause: &dyn std::fmt::Display| {
        serde::Error::new(format!("layout `gds_base64` chunk {index} {cause}"))
    };
    let mut gds = Vec::new();
    deserializer.begin_seq("sequence of base64 strings")?;
    let mut index = 0;
    while deserializer.next_element()? {
        let text = String::deserialize(deserializer).map_err(|e| damaged(index, &e))?;
        base64::decode_into(&text, &mut gds).map_err(|e| damaged(index, &e))?;
        index += 1;
    }
    // The image grew by doubling; keep no spare capacity in the artifact.
    gds.shrink_to_fit();
    Ok(gds)
}

/// The summary numbers of a streamed layout: everything [`Layout`] carries
/// except the GDSII byte image, which a streamed emission writes to its
/// sink instead.
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

    /// Generates the chip layout for a placed and routed design: the bytes
    /// [`stream_layout`](Self::stream_layout) writes, into a buffer sized
    /// for them up front.
    pub fn generate(&self, design: &PlacedDesign, routing: &RoutingResult) -> Layout {
        let len = self.gds_len(design, routing);
        let mut gds = Vec::with_capacity(len);
        let LayoutSummary { top_name, cell_instances, wire_paths, width_um, height_um } =
            self.stream_layout(design, routing, &mut gds).expect("writing to a Vec cannot fail");
        debug_assert_eq!(gds.len(), len, "gds_len counts every record");
        Layout { gds, top_name, cell_instances, wire_paths, width_um, height_um }
    }

    /// Streams the chip layout for a placed and routed design straight into
    /// `out`.
    ///
    /// Emits the structures in a fixed order — the used cell kinds, sorted,
    /// then the top structure with a cell reference per placed cell in
    /// placement order and a path per wire segment in routing order — and
    /// writes each reference and path from the borrowed cell and wire data,
    /// so its peak memory is one GDSII record, which is what makes
    /// million-cell GDS emission feasible. Wrap file sinks in a
    /// `BufWriter`.
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
        let names = reference_names();
        for cell in &design.cells {
            writer.sref(&names[cell.kind as usize], Point::new(cell.x, design.row_y(cell.row)))?;
        }
        let layers = self.technology.layers();
        let width = self.technology.rules().wire_width;
        let mut wire_paths = 0usize;
        for segment in wire_segments(routing) {
            // Horizontal runs on metal1, vertical runs on metal2, mirroring
            // the two-layer channel model of the router.
            let horizontal = (segment[0].y - segment[segment.len() - 1].y).abs() < 1e-9;
            let layer = if horizontal { layers.metal1 } else { layers.metal2 };
            writer.path(layer, width, segment)?;
            wire_paths += 1;
        }
        writer.end_structure()?;
        writer.end_library()?;
        Ok(summary(design, wire_paths))
    }

    /// The number of bytes [`stream_layout`](Self::stream_layout) writes
    /// for a design: the record sizes of [`GdsStreamWriter`], summed.
    fn gds_len(&self, design: &PlacedDesign, routing: &RoutingResult) -> usize {
        let masters: usize = self.cell_structures(design).map(|s| s.byte_len()).sum();
        let names = reference_names();
        let references: usize =
            design.cells.iter().map(|cell| sref_len(&names[cell.kind as usize])).sum();
        let paths: usize = wire_segments(routing).map(|segment| path_len(segment.len())).sum();
        library_frame_len(&design.name)
            + masters
            + structure_frame_len(&top_name(design))
            + references
            + paths
    }

    /// One structure per cell kind the design instantiates, in kind order.
    fn cell_structures(&self, design: &PlacedDesign) -> impl Iterator<Item = GdsStructure> + '_ {
        let used_kinds: BTreeSet<_> = design.cells.iter().map(|c| c.kind).collect();
        used_kinds.into_iter().map(|kind| cells::cell_structure(&self.technology, kind))
    }
}

/// The structure name each cell kind's references point at, indexed by
/// kind: `CellKind::ALL` lists the kinds in declaration order, so a kind's
/// discriminant indexes its name.
fn reference_names() -> [String; CellKind::ALL.len()] {
    CellKind::ALL.map(cells::structure_name)
}

/// Every wire split into maximal straight segments, in routing order.
fn wire_segments(routing: &RoutingResult) -> impl Iterator<Item = &[Point]> {
    routing.wires.iter().flat_map(|wire| straight_segments(&wire.path))
}

/// Name of a design's top-level structure.
fn top_name(design: &PlacedDesign) -> String {
    format!("{}_top", design.name)
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
    use crate::gds::{parse_records, GdsElement, RecordTag};
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

    /// The layout as an element tree, built the way the generator built it
    /// before it wrote records from the cell and wire data: a reference
    /// element with its own name per cell, a path element with its own
    /// points per wire segment.
    fn element_tree(
        design: &PlacedDesign,
        routing: &RoutingResult,
        technology: &Technology,
    ) -> GdsLibrary {
        let mut gds = GdsLibrary::new(design.name.clone());
        let used: BTreeSet<_> = design.cells.iter().map(|c| c.kind).collect();
        for kind in used {
            gds.add_structure(cells::cell_structure(technology, kind));
        }
        let mut top = GdsStructure::new(top_name(design));
        for cell in &design.cells {
            top.elements.push(GdsElement::Sref {
                name: cells::structure_name(cell.kind),
                origin: Point::new(cell.x, design.row_y(cell.row)),
            });
        }
        for segment in wire_segments(routing) {
            let layer = if (segment[0].y - segment[segment.len() - 1].y).abs() < 1e-9 {
                technology.layers().metal1
            } else {
                technology.layers().metal2
            };
            let width = technology.rules().wire_width;
            top.elements.push(GdsElement::Path { layer, width, points: segment.to_vec() });
        }
        gds.add_structure(top);
        gds
    }

    /// The names the `STRNAME` records of `bytes` give, in stream order.
    fn structure_names(bytes: &[u8]) -> Vec<String> {
        let records = parse_records(bytes).unwrap();
        records
            .iter()
            .filter(|r| r.tag == Some(RecordTag::StrName))
            .map(|r| String::from_utf8_lossy(r.payload).trim_end_matches('\0').to_owned())
            .collect()
    }

    #[test]
    fn layout_references_every_cell_and_wire() {
        let (design, routing, technology) = routed_design();
        let layout = LayoutGenerator::new(technology).generate(&design, &routing);
        assert_eq!(layout.cell_instances, design.cell_count());
        assert!(layout.wire_paths >= routing.wires.len());
        assert!(layout.width_um > 0.0 && layout.height_um > 0.0);

        let records = parse_records(layout.gds_bytes()).unwrap();
        let top = records
            .iter()
            .position(|r| r.tag == Some(RecordTag::StrName) && r.payload.starts_with(b"adder8_top"))
            .expect("top exists");
        let srefs = records[top..].iter().filter(|r| r.tag == Some(RecordTag::Sref)).count();
        assert_eq!(srefs, design.cell_count());
        assert_eq!(structure_names(layout.gds_bytes()).last(), Some(&layout.top_name));
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

    /// The records written from borrowed cell and wire data are the bytes
    /// of the element tree, and the image fills its up-front buffer
    /// exactly.
    #[test]
    fn the_byte_image_is_the_element_trees_stream() {
        let (design, routing, technology) = routed_design();
        let layout = LayoutGenerator::new(technology.clone()).generate(&design, &routing);
        assert_eq!(layout.gds_bytes(), element_tree(&design, &routing, &technology).to_bytes());
        assert_eq!(layout.gds.capacity(), layout.gds.len(), "sized up front");
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
        assert_eq!(streamed, layout.gds_bytes(), "streamed bytes must match the image");
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
        for name in structure_names(layout.gds_bytes()) {
            if name == layout.top_name {
                continue;
            }
            assert!(used.contains(&name), "unexpected structure {name}");
        }
    }

    /// The checkpoint form holds the image in base64 chunks of
    /// [`GDS_CHUNK`] bytes and reads back to the same layout, through the
    /// JSON parser and through a value tree alike.
    #[test]
    fn a_layout_round_trips_through_its_chunked_checkpoint_form() {
        let (design, routing, technology) = routed_design();
        let layout = LayoutGenerator::new(technology).generate(&design, &routing);
        assert!(layout.gds_bytes().len() > 2 * GDS_CHUNK, "the image spans several chunks");
        let json = serde_json::to_string_pretty(&layout).unwrap();
        assert!(json.starts_with("{\n  \"gds_base64\": [\n    \""), "{}", &json[..40]);
        let chunks = serde::Value::field(&layout.to_value(), "gds_base64").unwrap().clone();
        let serde::Value::Seq(chunks) = chunks else { panic!("a sequence") };
        assert_eq!(chunks.len(), layout.gds_bytes().len().div_ceil(GDS_CHUNK));
        assert!(chunks.iter().all(|c| c.as_str().unwrap().len() <= GDS_CHUNK / 3 * 4));
        assert_eq!(serde_json::from_str::<Layout>(&json).unwrap(), layout);
        assert_eq!(Layout::from_value(&layout.to_value()).unwrap(), layout);

        let summary_json = serde_json::to_string_pretty(&layout.summary()).unwrap();
        let tail = &json[json.find("\n  \"top_name\"").unwrap()..];
        assert_eq!(tail, &summary_json[1..], "the summary fields follow the image as before");
    }

    /// An image of each length around the chunk size, including an empty
    /// one, round-trips: chunks are cut at the byte, not at a record.
    #[test]
    fn images_round_trip_across_a_chunk_boundary() {
        let (design, routing, technology) = routed_design();
        let layout = LayoutGenerator::new(technology).generate(&design, &routing);
        for len in [0, 1, 2, GDS_CHUNK - 1, GDS_CHUNK, GDS_CHUNK + 1, 2 * GDS_CHUNK + 2] {
            let mut cut = layout.clone();
            cut.gds.truncate(len);
            let json = serde_json::to_string(&cut).unwrap();
            assert_eq!(serde_json::from_str::<Layout>(&json).unwrap(), cut, "{len} bytes");
        }
    }

    /// A damaged chunk is an error that names the layout's chunk, never a
    /// panic, and so is a missing image.
    #[test]
    fn a_damaged_chunk_is_an_error_naming_it() {
        let (design, routing, technology) = routed_design();
        let layout = LayoutGenerator::new(technology).generate(&design, &routing);
        let json = serde_json::to_string(&layout).unwrap();
        let second = json.find("\",\"").unwrap() + 3;
        for (damage, edited, expected) in [
            (
                "a bad character",
                format!("{}!{}", &json[..second], &json[second + 1..]),
                "layout `gds_base64` chunk 1 holds '!' at offset 0, which is no base64 digit",
            ),
            (
                "a dropped character",
                format!("{}{}", &json[..second], &json[second + 1..]),
                "layout `gds_base64` chunk 1 has 4095 characters, not a multiple of 4",
            ),
            (
                "a number for a chunk",
                json.replacen("[\"", "[7,\"", 1),
                "layout `gds_base64` chunk 0 expected string, got integer",
            ),
            (
                "no image",
                json.replacen("\"gds_base64\"", "\"gds_base32\"", 1),
                "missing field `gds_base64`",
            ),
        ] {
            let error = serde_json::from_str::<Layout>(&edited).unwrap_err();
            assert_eq!(error.to_string(), expected, "{damage}");
        }
    }
}
