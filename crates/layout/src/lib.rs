//! GDSII layout generation and design rule checking for AQFP circuits.
//!
//! The final stage of SuperFlow (§III-E of the paper) turns the placed and
//! routed design into a GDSII layout and checks it against the fabrication
//! process design rules:
//!
//! * [`gds`] — a from-scratch binary GDSII (stream format) writer with the
//!   record types a standard-cell layout needs (structures, boundaries,
//!   paths, structure references, text labels) plus a record-level parser
//!   used for round-trip checks;
//! * [`cells`] — abstract layouts for every AQFP standard cell (outline,
//!   Josephson-junction markers, pins), standing in for the proprietary
//!   MIT-LL/AIST cell layouts;
//! * [`generator`] — the [`LayoutGenerator`] that writes the chip-level
//!   GDSII from a placement and a routing result, and the [`Layout`] that
//!   holds it as a byte image;
//! * [`drc`] — a design rule checker covering the spacing, wirelength,
//!   metal-density and via rules the paper lists, substituting for the
//!   KLayout DRC step.
//!
//! # Examples
//!
//! ```
//! use aqfp_cells::{CellKind, Technology};
//! use aqfp_layout::cells::cell_structure;
//! use aqfp_layout::gds::GdsLibrary;
//!
//! let library = Technology::mit_ll_sqf5ee();
//! let mut gds = GdsLibrary::new("toy");
//! gds.add_structure(cell_structure(&library, CellKind::Buffer));
//! let bytes = gds.to_bytes();
//! assert!(bytes.len() > 64);
//! ```

#![warn(clippy::unwrap_used)]

mod base64;
pub mod cells;
pub mod drc;
pub mod gds;
pub mod generator;
pub mod svg;

pub use drc::{DrcChecker, DrcReport, DrcViolation, DrcViolationKind};
pub use gds::{GdsElement, GdsLibrary, GdsStreamWriter, GdsStructure};
pub use generator::{Layout, LayoutGenerator, LayoutSummary};
pub use svg::{render_svg, SvgOptions};
