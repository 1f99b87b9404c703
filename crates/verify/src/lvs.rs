//! LVS-lite: layout-versus-schematic extraction over the emitted GDSII
//! record stream.
//!
//! The extractor walks the raw binary records (via
//! [`aqfp_layout::gds::parse_records`]) and rebuilds cell instances and
//! wire segments from the bytes — it never consults the in-memory
//! [`GdsLibrary`](aqfp_layout::gds::GdsLibrary) that produced them. The
//! rebuilt view is then compared structurally against the routed netlist,
//! so a layout-generation bug yields "net n42 missing a segment in channel
//! 7" instead of an opaque golden-byte diff.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use aqfp_cells::{Point, Technology};
use aqfp_layout::cells::{cell_structure, structure_name};
use aqfp_layout::gds::{parse_records, GdsElement, RawRecord, RecordTag};
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

/// A partially-read GDS element: accumulates LAYER/WIDTH/SNAME/XY records
/// until ENDEL closes it.
struct PendingElement {
    kind: RecordTag,
    sname: String,
    layer: i16,
    width: i32,
    points: Vec<(i32, i32)>,
}

/// Rebuilds the library structure from raw records. Returns a description
/// of the first grammar violation on failure.
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
            RecordTag::Header | RecordTag::BgnLib | RecordTag::Units | RecordTag::EndLib => {}
            RecordTag::LibName => name = read_str(&record.payload),
            RecordTag::BgnStr => {
                if current.is_some() {
                    return Err("BGNSTR inside an open structure".to_owned());
                }
                current = Some((String::new(), ExtractedStructure::default()));
            }
            RecordTag::StrName => match current.as_mut() {
                Some((structure_name, _)) => *structure_name = read_str(&record.payload),
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
                Some(open) => open.layer = read_i16(&record.payload).ok_or("short LAYER record")?,
                None => return Err("LAYER outside an element".to_owned()),
            },
            RecordTag::Width => match element.as_mut() {
                Some(open) => open.width = read_i32(&record.payload).ok_or("short WIDTH record")?,
                None => return Err("WIDTH outside an element".to_owned()),
            },
            RecordTag::SName => match element.as_mut() {
                Some(open) => open.sname = read_str(&record.payload),
                None => return Err("SNAME outside an element".to_owned()),
            },
            RecordTag::Xy => match element.as_mut() {
                Some(open) => open.points = read_points(&record.payload)?,
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
                    RecordTag::Path => {
                        structure.paths.push(DbPath { layer, width_db: width, points_db: points })
                    }
                    RecordTag::Sref => {
                        let origin = points.first().copied().ok_or("SREF without coordinates")?;
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

/// Splits a rectilinear point sequence into maximal straight segments —
/// deliberately re-derived here rather than shared with the layout crate,
/// so the extractor and the emitter cannot inherit the same bug.
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

/// Extracts cell instances and wire connectivity from GDSII `bytes` and
/// checks a 1:1 structural match against the routed design.
pub fn check_gds(
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
    let Some((_, top)) = library.structures.iter().find(|(name, _)| *name == top_name) else {
        findings.push(violation(
            RULE_GDS_MALFORMED,
            format!("top structure `{top_name}` is missing from the GDS"),
            Some(top_name),
        ));
        return findings;
    };

    // --- V021: the cell-master structures -------------------------------
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
        if !expected_masters.contains_key(*name) {
            master_findings.push(violation(
                RULE_MASTER_SET,
                format!("GDS contains a structure `{name}` no placed cell kind explains"),
                Some((*name).to_owned()),
            ));
        }
    }
    findings.extend(capped(RULE_MASTER_SET, master_findings));

    // --- V022: cell instances -------------------------------------------
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
    // Key order, not hash order: past the per-rule cap, which cells get
    // reported must not change from run to run.
    let mut unreferenced: Vec<_> =
        expected_instances.iter().filter(|(_, names)| !names.is_empty()).collect();
    unreferenced.sort_unstable_by(|a, b| a.0.cmp(b.0));
    for ((sname, x, y), names) in unreferenced {
        for name in names {
            instance_findings.push(violation(
                RULE_INSTANCE,
                format!(
                    "cell `{name}` has no `{sname}` reference at ({:.3} µm, {:.3} µm) in the GDS",
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
                "GDS references `{sname}` at ({:.3} µm, {:.3} µm) but no placed cell is there",
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

    // --- V023: wire connectivity ----------------------------------------
    let mut wire_findings = Vec::new();
    let layers = technology.layers();
    let width_db = (technology.rules().wire_width * DB_PER_UM) as i32;
    // Expected segment multiset; each key remembers one (net, channel) that
    // produced it so a miss can name the net.
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
                "net n{net} missing a segment in channel {channel}: {count} path(s) on layer \
                 {} from ({:.1} µm, {:.1} µm) not in the GDS",
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
                "GDS contains a wire path on layer {} at ({:.1} µm, {:.1} µm) that no routed \
                 net explains",
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

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use aqfp_layout::LayoutGenerator;
    use aqfp_netlist::generators::{benchmark_circuit, Benchmark};
    use aqfp_place::{PlacementEngine, PlacerKind};
    use aqfp_route::Router;
    use aqfp_synth::Synthesizer;

    fn laid_out_adder() -> (PlacedDesign, RoutingResult, Technology, Vec<u8>) {
        let technology = Technology::mit_ll_sqf5ee();
        let synthesized = Synthesizer::new(technology.clone())
            .run(&benchmark_circuit(Benchmark::Adder8))
            .unwrap();
        let placed =
            PlacementEngine::new(technology.clone()).place(&synthesized, PlacerKind::SuperFlow);
        let routing = Router::new(technology.clone()).route(&placed.design);
        let layout = LayoutGenerator::new(technology.clone()).generate(&placed.design, &routing);
        let bytes = layout.to_gds_bytes();
        (placed.design, routing, technology, bytes)
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
}
