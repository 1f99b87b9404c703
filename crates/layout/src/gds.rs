//! A minimal binary GDSII (stream format) writer and record parser.
//!
//! The writer emits the subset of GDSII records a standard-cell chip layout
//! needs: `HEADER`, `BGNLIB`/`LIBNAME`/`UNITS`, one `BGNSTR`/`STRNAME` …
//! `ENDSTR` block per structure containing `BOUNDARY`, `PATH`, `SREF` and
//! `TEXT` elements, and the closing `ENDLIB`. Coordinates are written in
//! database units of 1 nm with a user unit of 1 µm, the common convention.
//!
//! Serialization is record-streaming: [`GdsStreamWriter`] pushes each record
//! straight into any [`io::Write`] sink, so a million-cell chip can be
//! written through a `BufWriter` without ever materializing the byte image
//! in memory. [`GdsLibrary::to_bytes`] is a thin wrapper that streams into a
//! `Vec<u8>`, which makes the two paths byte-identical by construction.

use std::io::{self, Write};

use serde::{Deserialize, Serialize};

use aqfp_cells::Point;

/// GDSII record tags (record type byte followed by data type byte).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum RecordTag {
    Header,
    BgnLib,
    LibName,
    Units,
    EndLib,
    BgnStr,
    StrName,
    EndStr,
    Boundary,
    Path,
    Sref,
    Text,
    Layer,
    DataType,
    Width,
    Xy,
    EndEl,
    SName,
    TextType,
    String,
}

impl RecordTag {
    fn code(self) -> [u8; 2] {
        match self {
            RecordTag::Header => [0x00, 0x02],
            RecordTag::BgnLib => [0x01, 0x02],
            RecordTag::LibName => [0x02, 0x06],
            RecordTag::Units => [0x03, 0x05],
            RecordTag::EndLib => [0x04, 0x00],
            RecordTag::BgnStr => [0x05, 0x02],
            RecordTag::StrName => [0x06, 0x06],
            RecordTag::EndStr => [0x07, 0x00],
            RecordTag::Boundary => [0x08, 0x00],
            RecordTag::Path => [0x09, 0x00],
            RecordTag::Sref => [0x0A, 0x00],
            RecordTag::Text => [0x0C, 0x00],
            RecordTag::Layer => [0x0D, 0x02],
            RecordTag::DataType => [0x0E, 0x02],
            RecordTag::Width => [0x0F, 0x03],
            RecordTag::Xy => [0x10, 0x03],
            RecordTag::EndEl => [0x11, 0x00],
            RecordTag::SName => [0x12, 0x06],
            RecordTag::TextType => [0x16, 0x02],
            RecordTag::String => [0x19, 0x06],
        }
    }

    /// Looks a tag up from its record-type byte (used by the parser).
    pub fn from_code(code: u8) -> Option<RecordTag> {
        Some(match code {
            0x00 => RecordTag::Header,
            0x01 => RecordTag::BgnLib,
            0x02 => RecordTag::LibName,
            0x03 => RecordTag::Units,
            0x04 => RecordTag::EndLib,
            0x05 => RecordTag::BgnStr,
            0x06 => RecordTag::StrName,
            0x07 => RecordTag::EndStr,
            0x08 => RecordTag::Boundary,
            0x09 => RecordTag::Path,
            0x0A => RecordTag::Sref,
            0x0C => RecordTag::Text,
            0x0D => RecordTag::Layer,
            0x0E => RecordTag::DataType,
            0x0F => RecordTag::Width,
            0x10 => RecordTag::Xy,
            0x11 => RecordTag::EndEl,
            0x12 => RecordTag::SName,
            0x16 => RecordTag::TextType,
            0x19 => RecordTag::String,
            _ => return None,
        })
    }
}

/// A geometric or reference element inside a GDSII structure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum GdsElement {
    /// A filled polygon on a layer. The polygon is closed automatically.
    Boundary {
        /// GDS layer number.
        layer: i16,
        /// Polygon vertices in µm.
        points: Vec<Point>,
    },
    /// A wire path with a width.
    Path {
        /// GDS layer number.
        layer: i16,
        /// Path width in µm.
        width: f64,
        /// Path vertices in µm.
        points: Vec<Point>,
    },
    /// A reference to another structure placed at `origin`.
    Sref {
        /// Name of the referenced structure.
        name: String,
        /// Placement origin in µm.
        origin: Point,
    },
    /// A text label.
    Text {
        /// GDS layer number.
        layer: i16,
        /// Label anchor position in µm.
        position: Point,
        /// Label text.
        text: String,
    },
}

/// A named GDSII structure (a cell).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GdsStructure {
    /// Structure name.
    pub name: String,
    /// Elements contained in the structure.
    pub elements: Vec<GdsElement>,
}

impl GdsStructure {
    /// Creates an empty structure.
    pub fn new(name: impl Into<String>) -> Self {
        Self { name: name.into(), elements: Vec::new() }
    }

    /// Adds an element and returns the structure for chaining.
    pub fn with(mut self, element: GdsElement) -> Self {
        self.elements.push(element);
        self
    }
}

/// A GDSII library: the top-level container written to a `.gds` file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GdsLibrary {
    /// Library name.
    pub name: String,
    /// Database unit in meters (1 nm by default).
    pub database_unit_m: f64,
    /// User unit in database units (1000 ⇒ 1 µm user unit).
    pub user_unit_db: f64,
    /// Structures in definition order.
    pub structures: Vec<GdsStructure>,
}

/// Default database unit: 1 nm, expressed in meters.
pub const DEFAULT_DATABASE_UNIT_M: f64 = 1e-9;
/// Default user unit: 1 µm, expressed in database units.
pub const DEFAULT_USER_UNIT_DB: f64 = 1e-3;

impl GdsLibrary {
    /// Creates an empty library with 1 nm database units and 1 µm user
    /// units.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            database_unit_m: DEFAULT_DATABASE_UNIT_M,
            user_unit_db: DEFAULT_USER_UNIT_DB,
            structures: Vec::new(),
        }
    }

    /// Adds a structure to the library.
    pub fn add_structure(&mut self, structure: GdsStructure) {
        self.structures.push(structure);
    }

    /// Finds a structure by name.
    pub fn structure(&self, name: &str) -> Option<&GdsStructure> {
        self.structures.iter().find(|s| s.name == name)
    }

    /// Streams the library as GDSII stream-format records into `out`.
    ///
    /// Identical bytes to [`to_bytes`](Self::to_bytes) — the in-memory path
    /// is implemented on top of this one — but never buffers more than one
    /// record, so it pairs with a `BufWriter` for large chips.
    ///
    /// # Errors
    ///
    /// Propagates the first I/O error from `out`.
    pub fn write_to<W: Write>(&self, out: W) -> io::Result<()> {
        let mut writer = GdsStreamWriter::new(out);
        writer.begin_library(&self.name, self.user_unit_db, self.database_unit_m)?;
        for structure in &self.structures {
            writer.begin_structure(&structure.name)?;
            for element in &structure.elements {
                writer.element(element)?;
            }
            writer.end_structure()?;
        }
        writer.end_library()?;
        Ok(())
    }

    /// Serializes the library to GDSII stream-format bytes, into a buffer
    /// sized for them up front.
    pub fn to_bytes(&self) -> Vec<u8> {
        let len = self.byte_len();
        let mut out = Vec::with_capacity(len);
        self.write_to(&mut out).expect("writing to a Vec cannot fail");
        debug_assert_eq!(out.len(), len, "byte_len counts every record");
        out
    }

    /// The number of bytes [`write_to`](Self::write_to) writes: the record
    /// sizes of [`GdsStreamWriter`], summed.
    fn byte_len(&self) -> usize {
        // `HEADER`, `BGNLIB`, `LIBNAME`, `UNITS` … `ENDLIB`.
        let library = 6 + 28 + str_record_len(&self.name) + 20 + 4;
        let structures = self.structures.iter().map(|structure| {
            // `BGNSTR`, `STRNAME` … `ENDSTR`.
            let elements: usize = structure.elements.iter().map(element_len).sum();
            28 + str_record_len(&structure.name) + elements + 4
        });
        library + structures.sum::<usize>()
    }
}

/// The bytes of a string record: its header and the even-padded text.
fn str_record_len(value: &str) -> usize {
    4 + value.len() + value.len() % 2
}

/// The bytes [`GdsStreamWriter::element`] writes for `element`: its
/// opening record, layer/type and width records, the `XY` record (8 bytes
/// a point, a boundary's first point twice) and `ENDEL`.
fn element_len(element: &GdsElement) -> usize {
    match element {
        GdsElement::Boundary { points, .. } => 4 + 6 + 6 + 4 + 8 * (points.len() + 1) + 4,
        GdsElement::Path { points, .. } => 4 + 6 + 6 + 8 + 4 + 8 * points.len() + 4,
        GdsElement::Sref { name, .. } => 4 + str_record_len(name) + 4 + 8 + 4,
        GdsElement::Text { text, .. } => 4 + 6 + 6 + 4 + 8 + str_record_len(text) + 4,
    }
}

const DB_PER_UM: f64 = 1000.0;

/// Streams GDSII records one at a time into any [`io::Write`] sink.
///
/// The caller drives the file grammar directly — [`begin_library`]
/// (exactly once, first), then for each structure [`begin_structure`], its
/// [`element`]s, [`end_structure`], and finally [`end_library`] — which is
/// what lets chip-scale layouts stream to disk without an in-memory byte
/// image. The writer performs no grammar checking; [`GdsLibrary::write_to`]
/// and `LayoutGenerator::stream_layout` are the two callers and both emit
/// well-formed sequences (pinned by the round-trip tests).
///
/// [`begin_library`]: Self::begin_library
/// [`begin_structure`]: Self::begin_structure
/// [`element`]: Self::element
/// [`end_structure`]: Self::end_structure
/// [`end_library`]: Self::end_library
#[derive(Debug)]
pub struct GdsStreamWriter<W: Write> {
    out: W,
}

impl<W: Write> GdsStreamWriter<W> {
    /// Wraps a sink. Hand a `BufWriter` in when `out` is a raw `File` —
    /// GDSII records are tiny (tens of bytes) and unbuffered writes would
    /// syscall per record.
    pub fn new(out: W) -> Self {
        Self { out }
    }

    /// Writes the library prologue: `HEADER`, `BGNLIB`, `LIBNAME`, `UNITS`.
    ///
    /// # Errors
    ///
    /// Propagates the first I/O error from the sink.
    pub fn begin_library(
        &mut self,
        name: &str,
        user_unit_db: f64,
        database_unit_m: f64,
    ) -> io::Result<()> {
        self.record_i16(RecordTag::Header, &[600])?;
        self.record_i16(RecordTag::BgnLib, &[0; 12])?;
        self.record_str(RecordTag::LibName, name)?;
        self.header(RecordTag::Units, 16)?;
        self.out.write_all(&gds_real(user_unit_db))?;
        self.out.write_all(&gds_real(database_unit_m))
    }

    /// Opens a structure: `BGNSTR` + `STRNAME`.
    ///
    /// # Errors
    ///
    /// Propagates the first I/O error from the sink.
    pub fn begin_structure(&mut self, name: &str) -> io::Result<()> {
        self.record_i16(RecordTag::BgnStr, &[0; 12])?;
        self.record_str(RecordTag::StrName, name)
    }

    /// Writes one element of the currently open structure.
    ///
    /// # Errors
    ///
    /// Propagates the first I/O error from the sink.
    pub fn element(&mut self, element: &GdsElement) -> io::Result<()> {
        match element {
            GdsElement::Boundary { layer, points } => {
                self.record_empty(RecordTag::Boundary)?;
                self.record_i16(RecordTag::Layer, &[*layer])?;
                self.record_i16(RecordTag::DataType, &[0])?;
                // Boundaries are closed by repeating the first vertex.
                self.record_xy(points, true)?;
                self.record_empty(RecordTag::EndEl)
            }
            GdsElement::Path { layer, width, points } => {
                self.record_empty(RecordTag::Path)?;
                self.record_i16(RecordTag::Layer, &[*layer])?;
                self.record_i16(RecordTag::DataType, &[0])?;
                self.record_i32(RecordTag::Width, &[(width * DB_PER_UM) as i32])?;
                self.record_xy(points, false)?;
                self.record_empty(RecordTag::EndEl)
            }
            GdsElement::Sref { name, origin } => {
                self.record_empty(RecordTag::Sref)?;
                self.record_str(RecordTag::SName, name)?;
                self.record_xy(std::slice::from_ref(origin), false)?;
                self.record_empty(RecordTag::EndEl)
            }
            GdsElement::Text { layer, position, text } => {
                self.record_empty(RecordTag::Text)?;
                self.record_i16(RecordTag::Layer, &[*layer])?;
                self.record_i16(RecordTag::TextType, &[0])?;
                self.record_xy(std::slice::from_ref(position), false)?;
                self.record_str(RecordTag::String, text)?;
                self.record_empty(RecordTag::EndEl)
            }
        }
    }

    /// Closes the currently open structure with `ENDSTR`.
    ///
    /// # Errors
    ///
    /// Propagates the first I/O error from the sink.
    pub fn end_structure(&mut self) -> io::Result<()> {
        self.record_empty(RecordTag::EndStr)
    }

    /// Writes the closing `ENDLIB` and returns the sink (so callers can
    /// flush or inspect it).
    ///
    /// # Errors
    ///
    /// Propagates the first I/O error from the sink.
    pub fn end_library(mut self) -> io::Result<W> {
        self.record_empty(RecordTag::EndLib)?;
        Ok(self.out)
    }

    fn header(&mut self, tag: RecordTag, payload_len: usize) -> io::Result<()> {
        let total = (payload_len + 4) as u16;
        self.out.write_all(&total.to_be_bytes())?;
        self.out.write_all(&tag.code())
    }

    fn record_empty(&mut self, tag: RecordTag) -> io::Result<()> {
        self.header(tag, 0)
    }

    fn record_i16(&mut self, tag: RecordTag, values: &[i16]) -> io::Result<()> {
        self.header(tag, values.len() * 2)?;
        for v in values {
            self.out.write_all(&v.to_be_bytes())?;
        }
        Ok(())
    }

    fn record_i32(&mut self, tag: RecordTag, values: &[i32]) -> io::Result<()> {
        self.header(tag, values.len() * 4)?;
        for v in values {
            self.out.write_all(&v.to_be_bytes())?;
        }
        Ok(())
    }

    fn record_str(&mut self, tag: RecordTag, value: &str) -> io::Result<()> {
        let bytes = value.as_bytes();
        let padded = bytes.len() + bytes.len() % 2; // GDSII strings are padded to even length.
        self.header(tag, padded)?;
        self.out.write_all(bytes)?;
        if padded > bytes.len() {
            self.out.write_all(&[0])?;
        }
        Ok(())
    }

    fn record_xy(&mut self, points: &[Point], close: bool) -> io::Result<()> {
        let closing = if close { points.first() } else { None };
        self.header(RecordTag::Xy, (points.len() + closing.iter().count()) * 8)?;
        for p in points.iter().chain(closing) {
            self.out.write_all(&((p.x * DB_PER_UM).round() as i32).to_be_bytes())?;
            self.out.write_all(&((p.y * DB_PER_UM).round() as i32).to_be_bytes())?;
        }
        Ok(())
    }
}

/// Encodes an `f64` as the 8-byte excess-64 base-16 floating-point format
/// GDSII uses for its `UNITS` record.
pub fn gds_real(value: f64) -> [u8; 8] {
    if value == 0.0 {
        return [0; 8];
    }
    let sign = if value < 0.0 { 0x80u8 } else { 0x00u8 };
    let mut mantissa = value.abs();
    let mut exponent = 64i32;
    while mantissa >= 1.0 {
        mantissa /= 16.0;
        exponent += 1;
    }
    while mantissa < 1.0 / 16.0 {
        mantissa *= 16.0;
        exponent -= 1;
    }
    let mut bytes = [0u8; 8];
    bytes[0] = sign | (exponent as u8);
    let mut rest = mantissa;
    for byte in bytes.iter_mut().skip(1) {
        rest *= 256.0;
        let digit = rest.floor();
        *byte = digit as u8;
        rest -= digit;
    }
    bytes
}

/// Decodes an 8-byte GDSII real back into an `f64` (used by tests).
pub fn gds_real_to_f64(bytes: &[u8; 8]) -> f64 {
    let sign = if bytes[0] & 0x80 != 0 { -1.0 } else { 1.0 };
    let exponent = (bytes[0] & 0x7F) as i32 - 64;
    let mut mantissa = 0.0;
    for (i, byte) in bytes.iter().enumerate().skip(1) {
        mantissa += *byte as f64 / 256f64.powi(i as i32);
    }
    sign * mantissa * 16f64.powi(exponent)
}

/// A raw GDSII record: its tag and its payload, borrowed from the stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RawRecord<'a> {
    /// The record tag, if recognized.
    pub tag: Option<RecordTag>,
    /// The raw record-type byte.
    pub record_type: u8,
    /// Payload bytes (record contents after the 4-byte header).
    pub payload: &'a [u8],
}

/// Walks a GDSII byte stream one record at a time, without copying: each
/// [`RawRecord`] borrows its payload from the stream.
///
/// The first malformed record header (length smaller than 4 or running
/// past the end of the stream) is yielded as an `Err` describing it, and
/// ends the walk.
#[derive(Debug, Clone)]
pub struct Records<'a> {
    bytes: &'a [u8],
    offset: usize,
}

impl<'a> Records<'a> {
    /// Starts a walk at the first byte of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, offset: 0 }
    }
}

impl<'a> Iterator for Records<'a> {
    type Item = Result<RawRecord<'a>, String>;

    fn next(&mut self) -> Option<Self::Item> {
        let offset = self.offset;
        let rest = &self.bytes[offset..];
        if rest.is_empty() {
            return None;
        }
        let Some(&[high, low, record_type, _]) = rest.first_chunk::<4>() else {
            self.offset = self.bytes.len();
            return Some(Err(format!("truncated record header at offset {offset}")));
        };
        let length = u16::from_be_bytes([high, low]) as usize;
        if length < 4 || length > rest.len() {
            self.offset = self.bytes.len();
            return Some(Err(format!("invalid record length {length} at offset {offset}")));
        }
        self.offset += length;
        Some(Ok(RawRecord {
            tag: RecordTag::from_code(record_type),
            record_type,
            payload: &rest[4..length],
        }))
    }
}

/// Splits a GDSII byte stream into records: the [`Records`] walk,
/// collected.
///
/// # Errors
///
/// Returns a description of the first malformed record header (length
/// smaller than 4 or running past the end of the stream).
pub fn parse_records(bytes: &[u8]) -> Result<Vec<RawRecord<'_>>, String> {
    Records::new(bytes).collect()
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn toy_library() -> GdsLibrary {
        let mut library = GdsLibrary::new("toy");
        library.add_structure(
            GdsStructure::new("BUF")
                .with(GdsElement::Boundary {
                    layer: 1,
                    points: vec![
                        Point::new(0.0, 0.0),
                        Point::new(40.0, 0.0),
                        Point::new(40.0, 30.0),
                        Point::new(0.0, 30.0),
                    ],
                })
                .with(GdsElement::Text {
                    layer: 63,
                    position: Point::new(5.0, 5.0),
                    text: "BUF".into(),
                }),
        );
        library.add_structure(
            GdsStructure::new("TOP")
                .with(GdsElement::Sref { name: "BUF".into(), origin: Point::new(100.0, 200.0) })
                .with(GdsElement::Path {
                    layer: 10,
                    width: 2.0,
                    points: vec![
                        Point::new(0.0, 0.0),
                        Point::new(0.0, 50.0),
                        Point::new(30.0, 50.0),
                    ],
                }),
        );
        library
    }

    #[test]
    fn stream_starts_with_header_and_ends_with_endlib() {
        let bytes = toy_library().to_bytes();
        let records = parse_records(&bytes).expect("parsable");
        assert_eq!(records.first().and_then(|r| r.tag), Some(RecordTag::Header));
        assert_eq!(records.last().and_then(|r| r.tag), Some(RecordTag::EndLib));
    }

    #[test]
    fn every_structure_has_matching_begin_and_end() {
        let bytes = toy_library().to_bytes();
        let records = parse_records(&bytes).expect("parsable");
        let begins = records.iter().filter(|r| r.tag == Some(RecordTag::BgnStr)).count();
        let ends = records.iter().filter(|r| r.tag == Some(RecordTag::EndStr)).count();
        assert_eq!(begins, 2);
        assert_eq!(begins, ends);
        let names: Vec<String> = records
            .iter()
            .filter(|r| r.tag == Some(RecordTag::StrName))
            .map(|r| String::from_utf8_lossy(r.payload).trim_end_matches('\0').to_owned())
            .collect();
        assert_eq!(names, vec!["BUF", "TOP"]);
    }

    #[test]
    fn xy_coordinates_are_database_units() {
        let bytes = toy_library().to_bytes();
        let records = parse_records(&bytes).expect("parsable");
        let sref_xy = records
            .iter()
            .skip_while(|r| r.tag != Some(RecordTag::Sref))
            .find(|r| r.tag == Some(RecordTag::Xy))
            .expect("sref has coordinates");
        let x = i32::from_be_bytes(sref_xy.payload[0..4].try_into().unwrap());
        let y = i32::from_be_bytes(sref_xy.payload[4..8].try_into().unwrap());
        assert_eq!((x, y), (100_000, 200_000), "1 µm = 1000 database units");
    }

    #[test]
    fn gds_real_round_trips() {
        for value in [1e-9, 1e-3, 1.0, 0.5, 123.456, 1e-6] {
            let encoded = gds_real(value);
            let decoded = gds_real_to_f64(&encoded);
            assert!((decoded - value).abs() / value < 1e-9, "{value} round-tripped to {decoded}");
        }
        assert_eq!(gds_real(0.0), [0u8; 8]);
    }

    #[test]
    fn records_are_word_aligned() {
        let bytes = toy_library().to_bytes();
        assert_eq!(bytes.len() % 2, 0, "GDSII streams are sequences of 16-bit words");
        // Odd-length strings are padded.
        let mut library = GdsLibrary::new("odd");
        library.add_structure(GdsStructure::new("ABC"));
        assert_eq!(library.to_bytes().len() % 2, 0);
    }

    #[test]
    fn parser_rejects_truncated_streams() {
        let bytes = toy_library().to_bytes();
        assert!(parse_records(&bytes[..bytes.len() - 3]).is_err());
        assert!(parse_records(&[0x00, 0x02, 0x00]).is_err());
    }

    #[test]
    fn the_record_walk_ends_at_its_first_malformed_header() {
        let bytes = toy_library().to_bytes();
        let mut walk = Records::new(&bytes[..bytes.len() - 3]);
        let whole = walk.by_ref().take_while(Result::is_ok).count();
        assert_eq!(whole, parse_records(&bytes).unwrap().len() - 1);
        assert!(walk.next().is_none(), "nothing follows the error");
    }

    #[test]
    fn structure_lookup_by_name() {
        let library = toy_library();
        assert!(library.structure("BUF").is_some());
        assert!(library.structure("NOPE").is_none());
    }

    #[test]
    fn manually_driven_stream_writer_matches_the_library_serializer() {
        let library = toy_library();
        let mut writer = GdsStreamWriter::new(Vec::new());
        writer
            .begin_library("toy", DEFAULT_USER_UNIT_DB, DEFAULT_DATABASE_UNIT_M)
            .expect("vec sink");
        for structure in &library.structures {
            writer.begin_structure(&structure.name).expect("vec sink");
            for element in &structure.elements {
                writer.element(element).expect("vec sink");
            }
            writer.end_structure().expect("vec sink");
        }
        let streamed = writer.end_library().expect("vec sink");
        assert_eq!(streamed, library.to_bytes());
    }

    #[test]
    fn write_to_works_through_a_buf_writer() {
        let library = toy_library();
        let mut sink = Vec::new();
        library.write_to(std::io::BufWriter::new(&mut sink)).expect("vec sink");
        assert_eq!(sink, library.to_bytes());
    }
}
