//! LVS-lite: layout-versus-schematic extraction over the emitted GDSII
//! record stream.
//!
//! The extractor walks the raw binary records in place (via
//! [`aqfp_layout::gds::Records`]) and rebuilds cell instances and wire
//! segments from the bytes — it never consults the in-memory
//! [`GdsLibrary`](aqfp_layout::gds::GdsLibrary) that produced them. The
//! rebuilt view is then compared structurally against the routed netlist,
//! so a layout-generation bug yields "net n42 missing a segment in channel
//! 7" instead of an opaque golden-byte diff.
//!
//! Nothing is copied out of the stream: names, `SREF` names and `PATH`
//! `XY` payloads stay slices of it. The expected wire segments are encoded
//! once, as the big-endian points an `XY` record holds, into one arena
//! sized up front, and a stream path matches a segment when their layer,
//! width and bytes are equal. The encoding is one-to-one, so byte equality
//! is equality of the `(x, y)` sequences. The expected cell instances are
//! one `Vec` sorted by (structure, x, y). On decoder's final layout (17.6
//! MB of GDS) a check makes 142 allocations and adds 35.4 MB of heap, where
//! copying every record, path and segment out took 1,860,400 allocations
//! and 144.5 MB.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::ops::Range;

use aqfp_cells::{CellKind, Point, Technology};
use aqfp_layout::cells::{cell_structure, structure_name};
use aqfp_layout::gds::{GdsElement, RawRecord, RecordTag, Records};
use aqfp_lint::Diagnostic;
use aqfp_place::PlacedDesign;
use aqfp_route::RoutingResult;

use crate::report::{capped, violation};

/// Rule id: the GDS byte stream is malformed or misses the library
/// skeleton (header, named top structure, end records).
pub const RULE_GDS_MALFORMED: &str = "AQFP-V020";
/// Rule id: the set or content of cell-master structures does not match
/// the cell kinds the design instantiates.
pub const RULE_MASTER_SET: &str = "AQFP-V021";
/// Rule id: a placed cell has no matching `SREF` (or the GDS has extras).
pub const RULE_INSTANCE: &str = "AQFP-V022";
/// Rule id: a routed net is missing a wire segment in the GDS (or the GDS
/// has segments no net explains).
pub const RULE_WIRE_CONNECTIVITY: &str = "AQFP-V023";

/// Database units per micron — the writer's fixed convention (1 nm grid).
const DB_PER_UM: f64 = 1000.0;

/// A `PATH` element as the stream holds it; `xy` is its `XY` payload.
#[derive(Debug)]
struct WirePath<'a> {
    layer: i16,
    width: i32,
    xy: &'a [u8],
}

/// An `SREF` element: the referenced structure's name and the origin.
type Sref<'a> = (&'a [u8], (i32, i32));

/// One structure read from the stream. Its elements are the ranges
/// `srefs` and `paths` of the library's element lists.
#[derive(Debug)]
struct Structure<'a> {
    name: &'a [u8],
    srefs: Range<usize>,
    paths: Range<usize>,
    /// Boundary count per layer.
    boundaries: BTreeMap<i16, usize>,
    texts: usize,
}

/// The library read from the stream; every name and payload is a slice of
/// it. A name is compared and printed through its lossy UTF-8 decoding,
/// which borrows unless the bytes are not UTF-8.
#[derive(Debug, Default)]
struct Library<'a> {
    name: &'a [u8],
    /// Structures in stream order.
    structures: Vec<Structure<'a>>,
    /// Every structure's `SREF`s, in stream order.
    srefs: Vec<Sref<'a>>,
    /// Every structure's `PATH`s, in stream order.
    paths: Vec<WirePath<'a>>,
}

/// A partially-read GDS element: accumulates LAYER/WIDTH/SNAME/XY records
/// until ENDEL closes it. A repeated record replaces the earlier one.
struct Element<'a> {
    kind: RecordTag,
    sname: &'a [u8],
    layer: i16,
    width: i32,
    xy: &'a [u8],
}

/// The record grammar: the library read so far, and the structure and the
/// element that are open.
#[derive(Default)]
struct Reader<'a> {
    library: Library<'a>,
    structure: Option<Structure<'a>>,
    element: Option<Element<'a>>,
}

fn read_i16(payload: &[u8]) -> Option<i16> {
    Some(i16::from_be_bytes(*payload.first_chunk()?))
}

fn read_i32(payload: &[u8]) -> Option<i32> {
    Some(i32::from_be_bytes(*payload.first_chunk()?))
}

/// A string record's text: the payload without its NUL padding.
fn read_str(payload: &[u8]) -> &[u8] {
    let end = payload.iter().rposition(|&byte| byte != 0).map_or(0, |last| last + 1);
    &payload[..end]
}

/// The points of an `XY` payload, which must be a whole number of them.
fn read_points(payload: &[u8]) -> Result<&[u8], String> {
    if !payload.len().is_multiple_of(8) {
        return Err(format!(
            "XY payload of {} bytes is not a whole number of points",
            payload.len()
        ));
    }
    Ok(payload)
}

/// Decodes the big-endian `(x, y)` pairs of an `XY` payload.
fn points(xy: &[u8]) -> impl Iterator<Item = (i32, i32)> + '_ {
    xy.chunks_exact(8).filter_map(|point| Some((read_i32(point)?, read_i32(&point[4..])?)))
}

impl<'a> Reader<'a> {
    /// Reads one record. Returns a description of the grammar violation it
    /// commits, if any.
    fn read(&mut self, record: RawRecord<'a>) -> Result<(), String> {
        let Some(tag) = record.tag else {
            return Err(format!("unrecognized record type {:#04x}", record.record_type));
        };
        let payload = record.payload;
        let library = &mut self.library;
        match tag {
            RecordTag::Header | RecordTag::BgnLib | RecordTag::Units | RecordTag::EndLib => {}
            RecordTag::LibName => library.name = read_str(payload),
            RecordTag::BgnStr => {
                if self.structure.is_some() {
                    return Err("BGNSTR inside an open structure".to_owned());
                }
                let (srefs, paths) = (library.srefs.len(), library.paths.len());
                self.structure = Some(Structure {
                    name: &[],
                    srefs: srefs..srefs,
                    paths: paths..paths,
                    boundaries: BTreeMap::new(),
                    texts: 0,
                });
            }
            RecordTag::StrName => match self.structure.as_mut() {
                Some(open) => open.name = read_str(payload),
                None => return Err("STRNAME outside a structure".to_owned()),
            },
            RecordTag::EndStr => match self.structure.take() {
                Some(mut done) => {
                    done.srefs.end = library.srefs.len();
                    done.paths.end = library.paths.len();
                    library.structures.push(done);
                }
                None => return Err("ENDSTR outside a structure".to_owned()),
            },
            RecordTag::Boundary | RecordTag::Path | RecordTag::Sref | RecordTag::Text => {
                if self.structure.is_none() {
                    return Err(format!("{tag:?} element outside a structure"));
                }
                if self.element.is_some() {
                    return Err(format!("{tag:?} element inside an open element"));
                }
                self.element = Some(Element { kind: tag, sname: &[], layer: 0, width: 0, xy: &[] });
            }
            RecordTag::Layer => match self.element.as_mut() {
                Some(open) => open.layer = read_i16(payload).ok_or("short LAYER record")?,
                None => return Err("LAYER outside an element".to_owned()),
            },
            RecordTag::Width => match self.element.as_mut() {
                Some(open) => open.width = read_i32(payload).ok_or("short WIDTH record")?,
                None => return Err("WIDTH outside an element".to_owned()),
            },
            RecordTag::SName => match self.element.as_mut() {
                Some(open) => open.sname = read_str(payload),
                None => return Err("SNAME outside an element".to_owned()),
            },
            RecordTag::Xy => match self.element.as_mut() {
                Some(open) => open.xy = read_points(payload)?,
                None => return Err("XY outside an element".to_owned()),
            },
            RecordTag::DataType | RecordTag::TextType | RecordTag::String => {
                if self.element.is_none() {
                    return Err(format!("{tag:?} outside an element"));
                }
            }
            RecordTag::EndEl => {
                let Element { kind, sname, layer, width, xy } =
                    self.element.take().ok_or("ENDEL outside an element")?;
                let Some(structure) = self.structure.as_mut() else {
                    return Err("element outside a structure".to_owned());
                };
                match kind {
                    RecordTag::Boundary => {
                        *structure.boundaries.entry(layer).or_insert(0) += 1;
                    }
                    RecordTag::Path => library.paths.push(WirePath { layer, width, xy }),
                    RecordTag::Sref => {
                        let origin = points(xy).next().ok_or("SREF without coordinates")?;
                        library.srefs.push((sname, origin));
                    }
                    RecordTag::Text => structure.texts += 1,
                    _ => unreachable!("element state only opens on element tags"),
                }
            }
        }
        Ok(())
    }
}

/// Rebuilds the library from the record stream in one walk. On failure,
/// returns the V020 message: the first malformed record header anywhere
/// in the stream, else a missing HEADER or ENDLIB record, else the first
/// grammar violation.
fn extract(bytes: &[u8]) -> Result<Library<'_>, String> {
    let mut reader = Reader::default();
    let (mut first, mut last) = (None, None);
    let mut violation = None;
    for record in Records::new(bytes) {
        let record = record.map_err(|error| format!("GDS stream is malformed: {error}"))?;
        first.get_or_insert(record.tag);
        last = Some(record.tag);
        if violation.is_none() {
            violation = reader.read(record).err();
        }
    }
    let violation = if first != Some(Some(RecordTag::Header)) {
        Some("stream does not start with a HEADER record".to_owned())
    } else if last != Some(Some(RecordTag::EndLib)) {
        Some("stream does not end with an ENDLIB record".to_owned())
    } else if violation.is_none() && reader.structure.is_some() {
        Some("stream ends inside an open structure".to_owned())
    } else {
        violation
    };
    match violation {
        Some(violation) => Err(format!("GDS record grammar violation: {violation}")),
        None => Ok(reader.library),
    }
}

/// Splits a rectilinear point sequence into maximal straight segments —
/// deliberately re-derived here rather than shared with the layout crate,
/// so the extractor and the emitter cannot inherit the same bug. A segment
/// ends at each corner, where an edge's direction differs from the next
/// edge's, and the next segment starts there.
fn straight_segments(path: &[Point]) -> impl Iterator<Item = &[Point]> {
    let flat = |edge: &[Point]| (edge[0].y - edge[1].y).abs() < 1e-9;
    let corners = path
        .windows(3)
        .enumerate()
        .filter(move |(_, turn)| flat(&turn[..2]) != flat(&turn[1..]))
        .map(|(before, _)| before + 1);
    let mut start = 0;
    corners.chain((path.len() >= 2).then(|| path.len() - 1)).map(move |end| {
        let segment = &path[start..=end];
        start = end;
        segment
    })
}

fn to_db(value: f64) -> i32 {
    (value * DB_PER_UM).round() as i32
}

/// Extracts cell instances and wire connectivity from GDSII `bytes` and
/// checks a 1:1 structural match against the routed design.
pub fn check_gds(
    bytes: &[u8],
    design: &PlacedDesign,
    routing: &RoutingResult,
    technology: &Technology,
) -> Vec<Diagnostic> {
    let library = match extract(bytes) {
        Ok(library) => library,
        Err(message) => return vec![violation(RULE_GDS_MALFORMED, message, None)],
    };

    let mut findings = Vec::new();
    let library_name = String::from_utf8_lossy(library.name);
    if library_name != design.name {
        findings.push(violation(
            RULE_GDS_MALFORMED,
            format!(
                "GDS library is named `{library_name}`, expected the design name `{}`",
                design.name
            ),
            None,
        ));
    }
    let top_name = format!("{}_top", design.name);
    let Some(top) = library.structures.iter().find(|s| String::from_utf8_lossy(s.name) == top_name)
    else {
        findings.push(violation(
            RULE_GDS_MALFORMED,
            format!("top structure `{top_name}` is missing from the GDS"),
            Some(top_name),
        ));
        return findings;
    };
    findings.extend(check_masters(&library.structures, &top_name, design, technology));
    findings.extend(check_instances(&library.srefs[top.srefs.clone()], design));
    findings.extend(check_wires(&library.paths[top.paths.clone()], design, routing, technology));
    findings
}

/// V021: one master structure per placed cell kind, drawn as the
/// technology draws it. A name defined twice is judged by its last
/// definition.
fn check_masters(
    structures: &[Structure<'_>],
    top_name: &str,
    design: &PlacedDesign,
    technology: &Technology,
) -> Vec<Diagnostic> {
    let used_kinds: BTreeSet<_> = design.cells.iter().map(|c| c.kind).collect();
    let expected_masters: BTreeMap<String, _> =
        used_kinds.iter().map(|&kind| (structure_name(kind), kind)).collect();
    let mut master_findings = Vec::new();
    let actual_masters: BTreeMap<Cow<'_, str>, &Structure<'_>> = structures
        .iter()
        .map(|structure| (String::from_utf8_lossy(structure.name), structure))
        .filter(|(name, _)| name != top_name)
        .collect();
    for (name, &kind) in &expected_masters {
        let Some(actual) = actual_masters.get(name.as_str()) else {
            master_findings.push(violation(
                RULE_MASTER_SET,
                format!("cell master `{name}` ({kind}) is missing from the GDS library"),
                Some(name.clone()),
            ));
            continue;
        };
        // Re-derive the expected abstract content from the technology.
        let reference = cell_structure(technology, kind);
        let mut expected_boundaries: BTreeMap<i16, usize> = BTreeMap::new();
        let mut expected_texts = 0usize;
        for element in &reference.elements {
            match element {
                GdsElement::Boundary { layer, .. } => {
                    *expected_boundaries.entry(*layer).or_insert(0) += 1
                }
                GdsElement::Text { .. } => expected_texts += 1,
                _ => {}
            }
        }
        if actual.boundaries != expected_boundaries || actual.texts != expected_texts {
            master_findings.push(violation(
                RULE_MASTER_SET,
                format!(
                    "cell master `{name}` ({kind}) content differs from the technology's \
                     abstract layout: expected boundaries per layer {expected_boundaries:?}, \
                     found {:?}",
                    actual.boundaries
                ),
                Some(name.clone()),
            ));
        }
    }
    for name in actual_masters.keys() {
        if !expected_masters.contains_key(&**name) {
            master_findings.push(violation(
                RULE_MASTER_SET,
                format!("GDS contains a structure `{name}` no placed cell kind explains"),
                Some(name.clone().into_owned()),
            ));
        }
    }
    capped(RULE_MASTER_SET, master_findings)
}

/// A placed cell's expected `SREF`: its master's name, its origin in
/// database units and the cell's index.
type Instance<'a> = (&'a str, i32, i32, usize);

/// V022: one `SREF` in the top structure per placed cell, and no other.
fn check_instances(srefs: &[Sref<'_>], design: &PlacedDesign) -> Vec<Diagnostic> {
    let names = CellKind::ALL.map(structure_name);
    // Sorted, so the cells with one expected reference form a run in cell
    // order. Past the per-rule cap, which cells get reported must not
    // change from run to run.
    let mut expected: Vec<Instance<'_>> = design
        .cells
        .iter()
        .enumerate()
        .map(|(index, cell)| {
            let name = names[cell.kind as usize].as_str();
            (name, to_db(cell.x), to_db(design.row_y(cell.row)), index)
        })
        .collect();
    expected.sort_unstable();
    let same_reference = |a: &Instance<'_>, b: &Instance<'_>| (a.0, a.1, a.2) == (b.0, b.1, b.2);
    // The cells of each run no reference has claimed yet, counted at the
    // run's first entry; a reference claims the run's last unclaimed cell.
    let mut unclaimed = vec![0; expected.len()];
    let mut start = 0;
    for run in expected.chunk_by(same_reference) {
        unclaimed[start] = run.len();
        start += run.len();
    }
    let mut extra_srefs = Vec::new();
    for &(sname, (x, y)) in srefs {
        let run = expected
            .partition_point(|&(name, ex, ey, _)| (name.as_bytes(), ex, ey) < (sname, x, y));
        match expected.get(run) {
            Some(&(name, ex, ey, _))
                if (name.as_bytes(), ex, ey) == (sname, x, y) && unclaimed[run] > 0 =>
            {
                unclaimed[run] -= 1;
            }
            _ => extra_srefs.push((sname, x, y)),
        }
    }

    let mut instance_findings = Vec::new();
    let mut start = 0;
    for run in expected.chunk_by(same_reference) {
        for &(sname, x, y, cell) in &run[..unclaimed[start]] {
            let name = &design.cells[cell].name;
            instance_findings.push(violation(
                RULE_INSTANCE,
                format!(
                    "cell `{name}` has no `{sname}` reference at ({:.3} µm, {:.3} µm) in the GDS",
                    x as f64 / DB_PER_UM,
                    y as f64 / DB_PER_UM
                ),
                Some(name.clone()),
            ));
        }
        start += run.len();
    }
    for (sname, x, y) in extra_srefs {
        let sname = String::from_utf8_lossy(sname);
        instance_findings.push(violation(
            RULE_INSTANCE,
            format!(
                "GDS references `{sname}` at ({:.3} µm, {:.3} µm) but no placed cell is there",
                x as f64 / DB_PER_UM,
                y as f64 / DB_PER_UM
            ),
            Some(sname.into_owned()),
        ));
    }
    if srefs.len() != design.cells.len() {
        instance_findings.push(violation(
            RULE_INSTANCE,
            format!(
                "GDS instantiates {} cell(s), the placed design has {}",
                srefs.len(),
                design.cells.len()
            ),
            None,
        ));
    }
    capped(RULE_INSTANCE, instance_findings)
}

/// One expected wire segment: its layer, its points' bytes in the arena,
/// the first routed (net, channel) that produced it, and how many
/// segments with these points are still unmatched (0 on repeats, which
/// count at their first occurrence).
struct Segment {
    layer: i16,
    points: Range<usize>,
    net: usize,
    channel: usize,
    count: usize,
}

/// V023: one `PATH` in the top structure per straight segment of a routed
/// wire, and no other.
fn check_wires(
    paths: &[WirePath<'_>],
    design: &PlacedDesign,
    routing: &RoutingResult,
    technology: &Technology,
) -> Vec<Diagnostic> {
    let layers = technology.layers();
    let width_db = (technology.rules().wire_width * DB_PER_UM) as i32;
    let wires = || {
        routing
            .wires
            .iter()
            .filter(move |wire| wire.path.len() >= 2 && wire.net < design.nets.len())
    };
    let (mut segment_count, mut point_count) = (0, 0);
    for segment in wires().flat_map(|wire| straight_segments(&wire.path)) {
        segment_count += 1;
        point_count += segment.len();
    }
    // Every segment's points, encoded as a PATH's XY record holds them.
    let mut arena = Vec::with_capacity(8 * point_count);
    let mut segments = Vec::with_capacity(segment_count);
    for wire in wires() {
        let channel = design.cells[design.nets[wire.net].driver].row;
        for segment in straight_segments(&wire.path) {
            let horizontal = (segment[0].y - segment[segment.len() - 1].y).abs() < 1e-9;
            let start = arena.len();
            for point in segment {
                arena.extend_from_slice(&to_db(point.x).to_be_bytes());
                arena.extend_from_slice(&to_db(point.y).to_be_bytes());
            }
            segments.push(Segment {
                layer: if horizontal { layers.metal1 } else { layers.metal2 },
                points: start..arena.len(),
                net: wire.net,
                channel,
                count: 1,
            });
        }
    }
    let mut first_of: HashMap<(i16, &[u8]), usize> = HashMap::with_capacity(segments.len());
    for index in 0..segments.len() {
        let key = (segments[index].layer, &arena[segments[index].points.clone()]);
        let first = *first_of.entry(key).or_insert(index);
        if first != index {
            segments[first].count += 1;
            segments[index].count = 0;
        }
    }

    let mut extra_paths = Vec::new();
    for path in paths {
        let matched =
            if path.width == width_db { first_of.get(&(path.layer, path.xy)) } else { None };
        match matched {
            Some(&index) if segments[index].count > 0 => segments[index].count -= 1,
            _ => extra_paths.push(path),
        }
    }
    let points_of = |segment: &Segment| points(&arena[segment.points.clone()]);
    let mut missing: Vec<&Segment> = segments.iter().filter(|s| s.count > 0).collect();
    missing.sort_unstable_by(|a, b| {
        (a.net, a.layer).cmp(&(b.net, b.layer)).then_with(|| points_of(a).cmp(points_of(b)))
    });

    let mut wire_findings = Vec::new();
    for segment in missing {
        let Segment { layer, net, channel, count, .. } = *segment;
        let (x, y) = points_of(segment).next().unwrap_or((0, 0));
        wire_findings.push(violation(
            RULE_WIRE_CONNECTIVITY,
            format!(
                "net n{net} missing a segment in channel {channel}: {count} path(s) on layer \
                 {layer} from ({:.1} µm, {:.1} µm) not in the GDS",
                x as f64 / DB_PER_UM,
                y as f64 / DB_PER_UM
            ),
            Some(format!("n{net}")),
        ));
    }
    for path in extra_paths {
        let (x, y) = points(path.xy).next().unwrap_or((0, 0));
        wire_findings.push(violation(
            RULE_WIRE_CONNECTIVITY,
            format!(
                "GDS contains a wire path on layer {} at ({:.1} µm, {:.1} µm) that no routed \
                 net explains",
                path.layer,
                x as f64 / DB_PER_UM,
                y as f64 / DB_PER_UM
            ),
            None,
        ));
    }
    capped(RULE_WIRE_CONNECTIVITY, wire_findings)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use aqfp_layout::gds::GdsStructure;
    use aqfp_layout::{Layout, LayoutGenerator};
    use aqfp_netlist::generators::{benchmark_circuit, Benchmark};
    use aqfp_place::{PlacementEngine, PlacerKind};
    use aqfp_route::Router;
    use aqfp_synth::Synthesizer;

    /// A copying LVS-lite, kept as the oracle the in-place extraction must
    /// agree with: every record copied out with
    /// [`parse_records`](aqfp_layout::gds::parse_records), every wire path
    /// and expected segment an owned `Vec` of points, and instances and
    /// segments matched through hash maps.
    mod reference {
        use super::super::{
            capped, cell_structure, structure_name, violation, DB_PER_UM, RULE_GDS_MALFORMED,
            RULE_INSTANCE, RULE_MASTER_SET, RULE_WIRE_CONNECTIVITY,
        };
        use aqfp_cells::{Point, Technology};
        use aqfp_layout::gds::{parse_records, GdsElement, RawRecord, RecordTag};
        use aqfp_lint::Diagnostic;
        use aqfp_place::PlacedDesign;
        use aqfp_route::RoutingResult;
        use std::collections::{BTreeMap, BTreeSet, HashMap};

        /// A wire path extracted from the byte stream, in database units.
        #[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
        struct DbPath {
            layer: i16,
            width_db: i32,
            points_db: Vec<(i32, i32)>,
        }

        /// One structure rebuilt from the record stream.
        #[derive(Debug, Default)]
        struct ExtractedStructure {
            srefs: Vec<(String, (i32, i32))>,
            paths: Vec<DbPath>,
            /// Boundary count per layer.
            boundaries: BTreeMap<i16, usize>,
            texts: usize,
        }

        /// The whole library rebuilt from the record stream.
        #[derive(Debug)]
        struct ExtractedLibrary {
            name: String,
            /// Structures in stream order.
            structures: Vec<(String, ExtractedStructure)>,
        }

        fn read_i16(payload: &[u8]) -> Option<i16> {
            Some(i16::from_be_bytes([*payload.first()?, *payload.get(1)?]))
        }

        fn read_i32(payload: &[u8]) -> Option<i32> {
            Some(i32::from_be_bytes([
                *payload.first()?,
                *payload.get(1)?,
                *payload.get(2)?,
                *payload.get(3)?,
            ]))
        }

        fn read_str(payload: &[u8]) -> String {
            String::from_utf8_lossy(payload).trim_end_matches('\0').to_owned()
        }

        fn read_points(payload: &[u8]) -> Result<Vec<(i32, i32)>, String> {
            if !payload.len().is_multiple_of(8) {
                return Err(format!(
                    "XY payload of {} bytes is not a whole number of points",
                    payload.len()
                ));
            }
            Ok(payload
                .chunks_exact(8)
                .filter_map(|chunk| Some((read_i32(chunk)?, read_i32(&chunk[4..])?)))
                .collect())
        }

        /// A partially-read GDS element: accumulates LAYER/WIDTH/SNAME/XY
        /// records until ENDEL closes it.
        struct PendingElement {
            kind: RecordTag,
            sname: String,
            layer: i16,
            width: i32,
            points: Vec<(i32, i32)>,
        }

        /// Rebuilds the library structure from raw records. Returns a
        /// description of the first grammar violation on failure.
        fn extract(records: &[RawRecord]) -> Result<ExtractedLibrary, String> {
            let mut name = String::new();
            let mut structures: Vec<(String, ExtractedStructure)> = Vec::new();
            let mut current: Option<(String, ExtractedStructure)> = None;
            // The element being read.
            let mut element: Option<PendingElement> = None;

            if records.first().map(|r| r.tag) != Some(Some(RecordTag::Header)) {
                return Err("stream does not start with a HEADER record".to_owned());
            }
            if records.last().map(|r| r.tag) != Some(Some(RecordTag::EndLib)) {
                return Err("stream does not end with an ENDLIB record".to_owned());
            }
            for record in records {
                let Some(tag) = record.tag else {
                    return Err(format!("unrecognized record type {:#04x}", record.record_type));
                };
                match tag {
                    RecordTag::Header
                    | RecordTag::BgnLib
                    | RecordTag::Units
                    | RecordTag::EndLib => {}
                    RecordTag::LibName => name = read_str(record.payload),
                    RecordTag::BgnStr => {
                        if current.is_some() {
                            return Err("BGNSTR inside an open structure".to_owned());
                        }
                        current = Some((String::new(), ExtractedStructure::default()));
                    }
                    RecordTag::StrName => match current.as_mut() {
                        Some((structure_name, _)) => *structure_name = read_str(record.payload),
                        None => return Err("STRNAME outside a structure".to_owned()),
                    },
                    RecordTag::EndStr => match current.take() {
                        Some(done) => structures.push(done),
                        None => return Err("ENDSTR outside a structure".to_owned()),
                    },
                    RecordTag::Boundary | RecordTag::Path | RecordTag::Sref | RecordTag::Text => {
                        if current.is_none() {
                            return Err(format!("{tag:?} element outside a structure"));
                        }
                        if element.is_some() {
                            return Err(format!("{tag:?} element inside an open element"));
                        }
                        element = Some(PendingElement {
                            kind: tag,
                            sname: String::new(),
                            layer: 0,
                            width: 0,
                            points: Vec::new(),
                        });
                    }
                    RecordTag::Layer => match element.as_mut() {
                        Some(open) => {
                            open.layer = read_i16(record.payload).ok_or("short LAYER record")?
                        }
                        None => return Err("LAYER outside an element".to_owned()),
                    },
                    RecordTag::Width => match element.as_mut() {
                        Some(open) => {
                            open.width = read_i32(record.payload).ok_or("short WIDTH record")?
                        }
                        None => return Err("WIDTH outside an element".to_owned()),
                    },
                    RecordTag::SName => match element.as_mut() {
                        Some(open) => open.sname = read_str(record.payload),
                        None => return Err("SNAME outside an element".to_owned()),
                    },
                    RecordTag::Xy => match element.as_mut() {
                        Some(open) => open.points = read_points(record.payload)?,
                        None => return Err("XY outside an element".to_owned()),
                    },
                    RecordTag::DataType | RecordTag::TextType | RecordTag::String => {
                        if element.is_none() {
                            return Err(format!("{tag:?} outside an element"));
                        }
                    }
                    RecordTag::EndEl => {
                        let PendingElement { kind, sname, layer, width, points } =
                            element.take().ok_or("ENDEL outside an element")?;
                        let Some((_, structure)) = current.as_mut() else {
                            return Err("element outside a structure".to_owned());
                        };
                        match kind {
                            RecordTag::Boundary => {
                                *structure.boundaries.entry(layer).or_insert(0) += 1;
                            }
                            RecordTag::Path => structure.paths.push(DbPath {
                                layer,
                                width_db: width,
                                points_db: points,
                            }),
                            RecordTag::Sref => {
                                let origin =
                                    points.first().copied().ok_or("SREF without coordinates")?;
                                structure.srefs.push((sname, origin));
                            }
                            RecordTag::Text => structure.texts += 1,
                            _ => unreachable!("element state only opens on element tags"),
                        }
                    }
                }
            }
            if current.is_some() {
                return Err("stream ends inside an open structure".to_owned());
            }
            Ok(ExtractedLibrary { name, structures })
        }

        fn straight_segments(path: &[Point]) -> Vec<Vec<Point>> {
            if path.len() < 2 {
                return Vec::new();
            }
            let mut segments = Vec::new();
            let mut current = vec![path[0], path[1]];
            let mut horizontal = (path[0].y - path[1].y).abs() < 1e-9;
            for window in path.windows(2).skip(1) {
                let next_horizontal = (window[0].y - window[1].y).abs() < 1e-9;
                if next_horizontal == horizontal {
                    current.push(window[1]);
                } else {
                    segments.push(std::mem::take(&mut current));
                    current = vec![window[0], window[1]];
                    horizontal = next_horizontal;
                }
            }
            segments.push(current);
            segments
        }

        fn to_db(value: f64) -> i32 {
            (value * DB_PER_UM).round() as i32
        }

        pub(super) fn check_gds(
            bytes: &[u8],
            design: &PlacedDesign,
            routing: &RoutingResult,
            technology: &Technology,
        ) -> Vec<Diagnostic> {
            let records = match parse_records(bytes) {
                Ok(records) => records,
                Err(error) => {
                    return vec![violation(
                        RULE_GDS_MALFORMED,
                        format!("GDS stream is malformed: {error}"),
                        None,
                    )]
                }
            };
            let library = match extract(&records) {
                Ok(library) => library,
                Err(error) => {
                    return vec![violation(
                        RULE_GDS_MALFORMED,
                        format!("GDS record grammar violation: {error}"),
                        None,
                    )]
                }
            };

            let mut findings = Vec::new();
            if library.name != design.name {
                findings.push(violation(
                    RULE_GDS_MALFORMED,
                    format!(
                        "GDS library is named `{}`, expected the design name `{}`",
                        library.name, design.name
                    ),
                    None,
                ));
            }
            let top_name = format!("{}_top", design.name);
            let Some((_, top)) = library.structures.iter().find(|(name, _)| *name == top_name)
            else {
                findings.push(violation(
                    RULE_GDS_MALFORMED,
                    format!("top structure `{top_name}` is missing from the GDS"),
                    Some(top_name),
                ));
                return findings;
            };

            let used_kinds: BTreeSet<_> = design.cells.iter().map(|c| c.kind).collect();
            let expected_masters: BTreeMap<String, _> =
                used_kinds.iter().map(|&kind| (structure_name(kind), kind)).collect();
            let mut master_findings = Vec::new();
            let actual_masters: BTreeMap<&str, &ExtractedStructure> = library
                .structures
                .iter()
                .filter(|(name, _)| *name != top_name)
                .map(|(name, s)| (name.as_str(), s))
                .collect();
            for (name, &kind) in &expected_masters {
                let Some(actual) = actual_masters.get(name.as_str()) else {
                    master_findings.push(violation(
                        RULE_MASTER_SET,
                        format!("cell master `{name}` ({kind}) is missing from the GDS library"),
                        Some(name.clone()),
                    ));
                    continue;
                };
                let reference = cell_structure(technology, kind);
                let mut expected_boundaries: BTreeMap<i16, usize> = BTreeMap::new();
                let mut expected_texts = 0usize;
                for element in &reference.elements {
                    match element {
                        GdsElement::Boundary { layer, .. } => {
                            *expected_boundaries.entry(*layer).or_insert(0) += 1
                        }
                        GdsElement::Text { .. } => expected_texts += 1,
                        _ => {}
                    }
                }
                if actual.boundaries != expected_boundaries || actual.texts != expected_texts {
                    master_findings.push(violation(
                        RULE_MASTER_SET,
                        format!(
                            "cell master `{name}` ({kind}) content differs from the \
                             technology's abstract layout: expected boundaries per layer \
                             {expected_boundaries:?}, found {:?}",
                            actual.boundaries
                        ),
                        Some(name.clone()),
                    ));
                }
            }
            for name in actual_masters.keys() {
                if !expected_masters.contains_key(*name) {
                    master_findings.push(violation(
                        RULE_MASTER_SET,
                        format!("GDS contains a structure `{name}` no placed cell kind explains"),
                        Some((*name).to_owned()),
                    ));
                }
            }
            findings.extend(capped(RULE_MASTER_SET, master_findings));

            let mut instance_findings = Vec::new();
            let mut expected_instances: HashMap<(String, i32, i32), Vec<&str>> = HashMap::new();
            for cell in &design.cells {
                let key = (structure_name(cell.kind), to_db(cell.x), to_db(design.row_y(cell.row)));
                expected_instances.entry(key).or_default().push(cell.name.as_str());
            }
            let mut extra_srefs = Vec::new();
            for (sname, (x, y)) in &top.srefs {
                let key = (sname.clone(), *x, *y);
                match expected_instances.get_mut(&key) {
                    Some(names) if !names.is_empty() => {
                        names.pop();
                    }
                    _ => extra_srefs.push((sname, x, y)),
                }
            }
            let mut unreferenced: Vec<_> =
                expected_instances.iter().filter(|(_, names)| !names.is_empty()).collect();
            unreferenced.sort_unstable_by(|a, b| a.0.cmp(b.0));
            for ((sname, x, y), names) in unreferenced {
                for name in names {
                    instance_findings.push(violation(
                        RULE_INSTANCE,
                        format!(
                            "cell `{name}` has no `{sname}` reference at ({:.3} µm, {:.3} µm) in \
                             the GDS",
                            *x as f64 / DB_PER_UM,
                            *y as f64 / DB_PER_UM
                        ),
                        Some((*name).to_owned()),
                    ));
                }
            }
            for (sname, x, y) in extra_srefs {
                instance_findings.push(violation(
                    RULE_INSTANCE,
                    format!(
                        "GDS references `{sname}` at ({:.3} µm, {:.3} µm) but no placed cell is \
                         there",
                        *x as f64 / DB_PER_UM,
                        *y as f64 / DB_PER_UM
                    ),
                    Some(sname.clone()),
                ));
            }
            if top.srefs.len() != design.cells.len() {
                instance_findings.push(violation(
                    RULE_INSTANCE,
                    format!(
                        "GDS instantiates {} cell(s), the placed design has {}",
                        top.srefs.len(),
                        design.cells.len()
                    ),
                    None,
                ));
            }
            findings.extend(capped(RULE_INSTANCE, instance_findings));

            let mut wire_findings = Vec::new();
            let layers = technology.layers();
            let width_db = (technology.rules().wire_width * DB_PER_UM) as i32;
            let mut expected_segments: HashMap<DbPath, (usize, usize, usize)> = HashMap::new();
            for wire in &routing.wires {
                if wire.path.len() < 2 || wire.net >= design.nets.len() {
                    continue;
                }
                let channel = design.cells[design.nets[wire.net].driver].row;
                for segment in straight_segments(&wire.path) {
                    let horizontal = (segment[0].y - segment[segment.len() - 1].y).abs() < 1e-9;
                    let key = DbPath {
                        layer: if horizontal { layers.metal1 } else { layers.metal2 },
                        width_db,
                        points_db: segment.iter().map(|p| (to_db(p.x), to_db(p.y))).collect(),
                    };
                    let entry = expected_segments.entry(key).or_insert((0, wire.net, channel));
                    entry.0 += 1;
                }
            }
            let mut extra_paths = Vec::new();
            for path in &top.paths {
                match expected_segments.get_mut(path) {
                    Some((count, _, _)) if *count > 0 => *count -= 1,
                    _ => extra_paths.push(path),
                }
            }
            let mut missing: Vec<(&DbPath, usize, usize, usize)> = expected_segments
                .iter()
                .filter(|(_, (count, _, _))| *count > 0)
                .map(|(path, &(count, net, channel))| (path, count, net, channel))
                .collect();
            missing.sort_unstable_by_key(|&(path, _, net, _)| (net, path));
            for (path, count, net, channel) in missing {
                let (x, y) = path.points_db[0];
                wire_findings.push(violation(
                    RULE_WIRE_CONNECTIVITY,
                    format!(
                        "net n{net} missing a segment in channel {channel}: {count} path(s) on \
                         layer {} from ({:.1} µm, {:.1} µm) not in the GDS",
                        path.layer,
                        x as f64 / DB_PER_UM,
                        y as f64 / DB_PER_UM
                    ),
                    Some(format!("n{net}")),
                ));
            }
            for path in extra_paths {
                let (x, y) = path.points_db.first().copied().unwrap_or((0, 0));
                wire_findings.push(violation(
                    RULE_WIRE_CONNECTIVITY,
                    format!(
                        "GDS contains a wire path on layer {} at ({:.1} µm, {:.1} µm) that no \
                         routed net explains",
                        path.layer,
                        x as f64 / DB_PER_UM,
                        y as f64 / DB_PER_UM
                    ),
                    None,
                ));
            }
            findings.extend(capped(RULE_WIRE_CONNECTIVITY, wire_findings));
            findings
        }
    }

    type LaidOut = (PlacedDesign, RoutingResult, Technology, Layout);

    fn laid_out(benchmark: Benchmark) -> LaidOut {
        let technology = Technology::mit_ll_sqf5ee();
        let synthesized =
            Synthesizer::new(technology.clone()).run(&benchmark_circuit(benchmark)).unwrap();
        let placed =
            PlacementEngine::new(technology.clone()).place(&synthesized, PlacerKind::SuperFlow);
        let routing = Router::new(technology.clone()).route(&placed.design);
        let layout = LayoutGenerator::new(technology.clone()).generate(&placed.design, &routing);
        (placed.design, routing, technology, layout)
    }

    fn laid_out_adder() -> (PlacedDesign, RoutingResult, Technology, Vec<u8>) {
        let (design, routing, technology, layout) = laid_out(Benchmark::Adder8);
        (design, routing, technology, layout.to_gds_bytes())
    }

    #[test]
    fn a_clean_layout_matches_its_netlist() {
        let (design, routing, technology, bytes) = laid_out_adder();
        let findings = check_gds(&bytes, &design, &routing, &technology);
        assert_eq!(findings, vec![], "clean layout must pass LVS");
    }

    #[test]
    fn a_dropped_wire_reports_the_net_and_channel() {
        let (design, mut routing, technology, bytes) = laid_out_adder();
        let dropped = routing.wires.pop().unwrap();
        let channel = design.cells[design.nets[dropped.net].driver].row;
        // The GDS still contains the dropped wire's paths: they are now
        // unexplained extras.
        let findings = check_gds(&bytes, &design, &routing, &technology);
        assert!(findings.iter().any(|d| d.rule == RULE_WIRE_CONNECTIVITY), "{findings:?}");
        // And regenerating the GDS without the wire flags the reverse
        // direction with the channel called out.
        let layout = LayoutGenerator::new(technology.clone()).generate(&design, &routing);
        let mut full_routing = routing.clone();
        full_routing.wires.push(dropped);
        let findings = check_gds(&layout.to_gds_bytes(), &design, &full_routing, &technology);
        let miss = findings
            .iter()
            .find(|d| d.rule == RULE_WIRE_CONNECTIVITY && d.message.contains("missing a segment"))
            .expect("missing-segment finding");
        assert!(miss.message.contains(&format!("channel {channel}")), "{}", miss.message);
    }

    #[test]
    fn a_kind_flip_reports_the_instance() {
        let (mut design, routing, technology, bytes) = laid_out_adder();
        let buffer = design
            .cells
            .iter()
            .position(|c| c.kind == aqfp_cells::CellKind::Buffer)
            .expect("adder has buffers");
        design.cells[buffer].kind = aqfp_cells::CellKind::Inverter;
        let findings = check_gds(&bytes, &design, &routing, &technology);
        let name = design.cells[buffer].name.clone();
        assert!(
            findings
                .iter()
                .any(|d| d.rule == RULE_INSTANCE && d.object.as_deref() == Some(name.as_str())),
            "{findings:?}"
        );
    }

    #[test]
    fn truncated_bytes_are_v020() {
        let (design, routing, technology, bytes) = laid_out_adder();
        let findings = check_gds(&bytes[..bytes.len() - 3], &design, &routing, &technology);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, RULE_GDS_MALFORMED);
    }

    #[test]
    fn a_shifted_sref_origin_is_v022() {
        let (design, routing, technology, _) = laid_out_adder();
        let mut layout = LayoutGenerator::new(technology.clone()).generate(&design, &routing);
        let top_name = layout.top_name.clone();
        let top =
            layout.gds.structures.iter_mut().find(|s| s.name == top_name).expect("top exists");
        for element in &mut top.elements {
            if let GdsElement::Sref { origin, .. } = element {
                origin.x += 1.0;
                break;
            }
        }
        let findings = check_gds(&layout.to_gds_bytes(), &design, &routing, &technology);
        assert!(findings.iter().any(|d| d.rule == RULE_INSTANCE), "{findings:?}");
    }

    /// A layout missing every instance and wire overflows the per-rule cap;
    /// which findings survive it, and in what order, must not depend on the
    /// hash order of the expected-instance and expected-segment maps.
    #[test]
    fn capped_findings_are_the_same_on_every_call() {
        let (design, routing, technology, _) = laid_out_adder();
        let mut layout = LayoutGenerator::new(technology.clone()).generate(&design, &routing);
        let top_name = layout.top_name.clone();
        let top =
            layout.gds.structures.iter_mut().find(|s| s.name == top_name).expect("top exists");
        top.elements.retain(|e| !matches!(e, GdsElement::Sref { .. } | GdsElement::Path { .. }));
        let bytes = layout.to_gds_bytes();
        assert!(design.cells.len() > 32, "the cap must be exceeded");

        let first = check_gds(&bytes, &design, &routing, &technology);
        for rule in [RULE_INSTANCE, RULE_WIRE_CONNECTIVITY] {
            let suppressed = first.iter().rfind(|d| d.rule == rule).expect("findings");
            assert!(suppressed.message.contains("suppressed"), "{}", suppressed.message);
        }
        for _ in 0..4 {
            assert_eq!(check_gds(&bytes, &design, &routing, &technology), first);
        }
    }

    #[test]
    fn straight_segments_split_at_every_corner() {
        let p = |x: f64, y: f64| Point::new(x, y);
        let path =
            [p(0.0, 0.0), p(10.0, 0.0), p(20.0, 0.0), p(20.0, 10.0), p(20.0, 20.0), p(30.0, 20.0)];
        let segments: Vec<_> = straight_segments(&path).collect();
        assert_eq!(segments, [&path[..3], &path[2..5], &path[4..]]);
        assert_eq!(straight_segments(&path[..2]).collect::<Vec<_>>(), [&path[..2]]);
        assert!(straight_segments(&path[..1]).next().is_none());
        assert!(straight_segments(&[]).next().is_none());
    }

    /// A deterministic 64-bit generator (SplitMix64) for the mutations.
    struct SplitMix(u64);

    impl SplitMix {
        fn below(&mut self, bound: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % bound as u64) as usize
        }
    }

    /// The byte range and tag of every record of a well-formed stream.
    fn record_spans(bytes: &[u8]) -> Vec<(Range<usize>, Option<RecordTag>)> {
        let mut start = 0;
        Records::new(bytes)
            .map(|record| {
                let record = record.unwrap();
                let span = start..start + 4 + record.payload.len();
                start = span.end;
                (span, record.tag)
            })
            .collect()
    }

    /// `bytes` with each structure's STRNAME record moved after the
    /// structure's first element.
    fn strname_after_first_element(bytes: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(bytes.len());
        let mut held: Option<Range<usize>> = None;
        for (span, tag) in record_spans(bytes) {
            match tag {
                Some(RecordTag::StrName) => {
                    held = Some(span);
                    continue;
                }
                Some(RecordTag::EndEl | RecordTag::EndStr) => {
                    out.extend_from_slice(&bytes[span]);
                    if let Some(name) = held.take() {
                        out.extend_from_slice(&bytes[name]);
                    }
                    continue;
                }
                _ => {}
            }
            out.extend_from_slice(&bytes[span]);
        }
        out
    }

    /// Edits the layout's library and streams it again.
    fn edited(layout: &Layout, edit: impl FnOnce(&mut aqfp_layout::gds::GdsLibrary)) -> Vec<u8> {
        let mut gds = layout.gds.clone();
        edit(&mut gds);
        gds.to_bytes()
    }

    /// Edits the `nth` element of the top structure that `select` accepts.
    fn edit_top(
        layout: &Layout,
        select: fn(&GdsElement) -> bool,
        nth: usize,
        edit: impl FnOnce(&mut Vec<GdsElement>, usize),
    ) -> Vec<u8> {
        let top_name = layout.top_name.clone();
        edited(layout, |gds| {
            let top = gds.structures.iter_mut().find(|s| s.name == top_name).unwrap();
            let index =
                top.elements.iter().enumerate().filter(|(_, e)| select(e)).nth(nth).unwrap().0;
            edit(&mut top.elements, index);
        })
    }

    /// The in-place extraction reports exactly what the copying one did —
    /// every finding, message and order — on clean layouts, on damaged
    /// streams and on designs that no longer match their layout.
    #[test]
    fn in_place_extraction_matches_the_copying_reference() {
        let is_sref = |e: &GdsElement| matches!(e, GdsElement::Sref { .. });
        let is_path = |e: &GdsElement| matches!(e, GdsElement::Path { .. });
        let mut rng = SplitMix(0x5eed);
        let mut cases = 0;
        let mut flagged = 0;
        for benchmark in [Benchmark::Adder8, Benchmark::C432, Benchmark::Apc32] {
            let (design, routing, technology, layout) = laid_out(benchmark);
            let bytes = layout.to_gds_bytes();
            let mut agree =
                |case: &str, bytes: &[u8], design: &PlacedDesign, routing: &RoutingResult| {
                    let expected = reference::check_gds(bytes, design, routing, &technology);
                    let found = check_gds(bytes, design, routing, &technology);
                    assert_eq!(found, expected, "{benchmark:?}: {case}");
                    cases += 1;
                    flagged += usize::from(!found.is_empty());
                    found
                };
            assert_eq!(agree("clean", &bytes, &design, &routing), vec![]);

            // Truncations, at evenly spread offsets and at record boundaries.
            let spans = record_spans(&bytes);
            let mut cuts: Vec<usize> = (0..=100).map(|i| i * bytes.len() / 100).collect();
            cuts.extend(spans[spans.len() - 4..].iter().map(|(span, _)| span.start));
            for cut in cuts {
                agree(&format!("truncated at {cut}"), &bytes[..cut], &design, &routing);
            }
            // Single-bit flips.
            for _ in 0..100 {
                let (at, bit) = (rng.below(bytes.len()), rng.below(8));
                let mut flipped = bytes.clone();
                flipped[at] ^= 1 << bit;
                agree(&format!("bit {bit} of byte {at} flipped"), &flipped, &design, &routing);
            }
            // An unknown record type early in a stream whose tail is cut
            // off: the framing error wins, as it always has.
            let mut unknown = bytes[..bytes.len() - 3].to_vec();
            unknown[spans[5].0.start + 2] = 0x30;
            let found = agree("unknown record, then a cut", &unknown, &design, &routing);
            assert!(found[0].message.starts_with("GDS stream is malformed"), "{found:?}");
            unknown.extend_from_slice(&bytes[bytes.len() - 3..]);
            let found = agree("unknown record", &unknown, &design, &routing);
            assert!(found[0].message.contains("unrecognized record type 0x30"), "{found:?}");
            agree(
                "STRNAME after the first element",
                &strname_after_first_element(&bytes),
                &design,
                &routing,
            );
            let last_endstr = &spans[spans.len() - 2].0;
            let open = [&bytes[..last_endstr.start], &bytes[last_endstr.end..]].concat();
            agree("the last ENDSTR removed", &open, &design, &routing);

            // The design no longer matches its layout.
            let mut fewer = routing.clone();
            for _ in 0..3 {
                fewer.wires.remove(rng.below(fewer.wires.len()));
            }
            agree("three wires dropped", &bytes, &design, &fewer);
            fewer.wires.clear();
            agree("every wire dropped", &bytes, &design, &fewer);
            // A zigzag across x = 0 whose missing segments sort by signed
            // coordinates, with a vertical run that doubles back: its ends
            // share a y, so it is expected on the horizontal layer.
            let mut zigzag = routing.clone();
            zigzag.wires[0].path =
                [(10.0, 0.0), (-10.0, 0.0), (-10.0, 10.0), (-10.0, 0.0), (20.0, 0.0)]
                    .map(|(x, y)| Point::new(x, y))
                    .to_vec();
            agree("a wire rerouted as a zigzag across x = 0", &bytes, &design, &zigzag);
            let mut shifted = design.clone();
            for _ in 0..3 {
                let cell = rng.below(shifted.cells.len());
                shifted.cells[cell].x += 0.5;
            }
            agree("three cells shifted", &bytes, &shifted, &routing);
            // Two cells expecting one reference: it claims the later cell.
            let mut stacked = design.clone();
            let buffers: Vec<usize> = (0..design.cells.len())
                .filter(|&c| design.cells[c].kind == CellKind::Buffer)
                .collect();
            let (under, over) = (buffers[0], buffers[buffers.len() - 1]);
            stacked.cells[over].x = design.cells[under].x;
            stacked.cells[over].row = design.cells[under].row;
            agree("a cell moved onto another of its kind", &bytes, &stacked, &routing);
            let mut flipped = design.clone();
            for cell in flipped.cells.iter_mut().step_by(7) {
                cell.kind = match cell.kind {
                    CellKind::Buffer => CellKind::Inverter,
                    CellKind::Inverter => CellKind::Buffer,
                    other => other,
                };
            }
            agree("cell kinds flipped", &bytes, &flipped, &routing);

            // Edited elements and structures.
            for nth in [0, 17] {
                let removed = edit_top(&layout, is_sref, nth, |e, i| drop(e.remove(i)));
                agree(&format!("SREF {nth} removed"), &removed, &design, &routing);
                let doubled = edit_top(&layout, is_sref, nth, |e, i| e.insert(i, e[i].clone()));
                agree(&format!("SREF {nth} duplicated"), &doubled, &design, &routing);
                let moved = edit_top(&layout, is_sref, nth, |e, i| {
                    if let GdsElement::Sref { origin, .. } = &mut e[i] {
                        origin.y -= 0.25;
                    }
                });
                agree(&format!("SREF {nth} shifted"), &moved, &design, &routing);
                let removed = edit_top(&layout, is_path, nth, |e, i| drop(e.remove(i)));
                agree(&format!("PATH {nth} removed"), &removed, &design, &routing);
                let doubled = edit_top(&layout, is_path, nth, |e, i| e.insert(i, e[i].clone()));
                agree(&format!("PATH {nth} duplicated"), &doubled, &design, &routing);
                let moved = edit_top(&layout, is_path, nth, |e, i| {
                    if let GdsElement::Path { points, .. } = &mut e[i] {
                        points.iter_mut().for_each(|p| p.x += 10.0);
                    }
                });
                agree(&format!("PATH {nth} shifted"), &moved, &design, &routing);
            }
            let no_elements =
                edit_top(&layout, is_sref, 0, |e, _| e.retain(|e| !is_sref(e) && !is_path(e)));
            agree("every SREF and PATH removed", &no_elements, &design, &routing);
            let top_name = layout.top_name.clone();
            let decoy = edited(&layout, |gds| {
                let top = gds.structures.iter().position(|s| s.name == top_name).unwrap();
                let mut decoy = GdsStructure::new(top_name.clone());
                decoy.elements = gds.structures[top].elements.iter().step_by(2).cloned().collect();
                gds.structures.insert(0, decoy);
            });
            agree("a second top structure first", &decoy, &design, &routing);
            let masters = edited(&layout, |gds| {
                let mut copy = gds.structures[0].clone();
                copy.elements.pop();
                gds.structures.insert(2, copy);
                gds.structures.push(gds.structures[1].clone());
            });
            agree("masters duplicated, the last of one altered", &masters, &design, &routing);
            let renamed = edited(&layout, |gds| gds.name = "renamed".to_owned());
            agree("library renamed", &renamed, &design, &routing);
        }
        assert!(cases > 400, "{cases} cases");
        assert!(flagged > cases / 2, "{flagged} of {cases} cases flagged");
    }
}
