//! AQFP cell definitions: cell kinds, pin geometry and per-cell cost.

use serde::{Deserialize, Serialize};
use std::fmt;

use crate::geometry::Point;

/// The kind of an AQFP standard cell (or a virtual netlist terminal).
///
/// AQFP logic is majority-based: `And`, `Or` and `Majority3` all map to the
/// same underlying 3-input majority structure (with constants tied to the
/// third input for `And`/`Or`), while buffers and splitters implement the
/// technology's path-balancing and fan-out rules.
///
/// `Input` and `Output` are virtual terminals used for primary I/O; they have
/// zero area and zero JJ cost but participate in placement rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum CellKind {
    /// Double-JJ SQUID buffer, the fundamental AQFP building block.
    Buffer,
    /// Inverting buffer.
    Inverter,
    /// Constant logic 0 source.
    Constant0,
    /// Constant logic 1 source.
    Constant1,
    /// Two-input AND (majority with a constant-0 third input).
    And,
    /// Two-input OR (majority with a constant-1 third input).
    Or,
    /// Two-input NAND.
    Nand,
    /// Two-input NOR.
    Nor,
    /// Two-input XOR (composite cell; counted as two majority levels).
    Xor,
    /// Three-input majority gate.
    Majority3,
    /// 1-to-2 splitter for fan-out of two.
    Splitter2,
    /// 1-to-3 splitter for fan-out of three.
    Splitter3,
    /// 1-to-4 splitter for fan-out of four.
    Splitter4,
    /// Primary input terminal (virtual, zero area).
    Input,
    /// Primary output terminal (virtual, zero area).
    Output,
}

impl CellKind {
    /// Every concrete cell kind in the library, in a stable order.
    pub const ALL: [CellKind; 15] = [
        CellKind::Buffer,
        CellKind::Inverter,
        CellKind::Constant0,
        CellKind::Constant1,
        CellKind::And,
        CellKind::Or,
        CellKind::Nand,
        CellKind::Nor,
        CellKind::Xor,
        CellKind::Majority3,
        CellKind::Splitter2,
        CellKind::Splitter3,
        CellKind::Splitter4,
        CellKind::Input,
        CellKind::Output,
    ];

    /// Number of logic inputs the cell consumes.
    pub fn input_count(self) -> usize {
        match self {
            CellKind::Buffer
            | CellKind::Inverter
            | CellKind::Splitter2
            | CellKind::Splitter3
            | CellKind::Splitter4
            | CellKind::Output => 1,
            CellKind::And | CellKind::Or | CellKind::Nand | CellKind::Nor | CellKind::Xor => 2,
            CellKind::Majority3 => 3,
            CellKind::Constant0 | CellKind::Constant1 | CellKind::Input => 0,
        }
    }

    /// Number of outputs the cell drives. AQFP gates have fan-out 1, so only
    /// splitters have more than one output.
    pub fn output_count(self) -> usize {
        match self {
            CellKind::Splitter2 => 2,
            CellKind::Splitter3 => 3,
            CellKind::Splitter4 => 4,
            CellKind::Output => 0,
            _ => 1,
        }
    }

    /// Whether the cell is a splitter of any arity.
    pub fn is_splitter(self) -> bool {
        matches!(self, CellKind::Splitter2 | CellKind::Splitter3 | CellKind::Splitter4)
    }

    /// Whether the cell is a logic gate (excludes buffers, splitters and
    /// virtual terminals).
    pub fn is_logic(self) -> bool {
        matches!(
            self,
            CellKind::And
                | CellKind::Or
                | CellKind::Nand
                | CellKind::Nor
                | CellKind::Xor
                | CellKind::Majority3
                | CellKind::Inverter
        )
    }

    /// Whether the cell is a virtual primary I/O terminal.
    pub fn is_terminal(self) -> bool {
        matches!(self, CellKind::Input | CellKind::Output)
    }

    /// The splitter kind required to drive `fanout` sinks, if one exists in
    /// the library. Fan-outs above four are handled by splitter trees in the
    /// synthesis stage.
    pub fn splitter_for_fanout(fanout: usize) -> Option<CellKind> {
        match fanout {
            2 => Some(CellKind::Splitter2),
            3 => Some(CellKind::Splitter3),
            4 => Some(CellKind::Splitter4),
            _ => None,
        }
    }
}

impl fmt::Display for CellKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            CellKind::Buffer => "BUF",
            CellKind::Inverter => "INV",
            CellKind::Constant0 => "CONST0",
            CellKind::Constant1 => "CONST1",
            CellKind::And => "AND",
            CellKind::Or => "OR",
            CellKind::Nand => "NAND",
            CellKind::Nor => "NOR",
            CellKind::Xor => "XOR",
            CellKind::Majority3 => "MAJ3",
            CellKind::Splitter2 => "SPL2",
            CellKind::Splitter3 => "SPL3",
            CellKind::Splitter4 => "SPL4",
            CellKind::Input => "PI",
            CellKind::Output => "PO",
        };
        f.write_str(name)
    }
}

/// Direction of a physical pin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PinDirection {
    /// Data flows into the cell through this pin.
    Input,
    /// Data flows out of the cell through this pin.
    Output,
}

/// Physical geometry of a single pin, relative to the cell's lower-left
/// corner.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PinGeometry {
    /// Pin name (`a`, `b`, `c`, `xout`, ...), mirroring the paper's Fig. 1.
    pub name: String,
    /// Direction of the pin.
    pub direction: PinDirection,
    /// Offset from the cell's lower-left corner, in µm.
    pub offset: Point,
}

impl PinGeometry {
    /// Creates a pin from its name, direction and offset.
    pub fn new(name: impl Into<String>, direction: PinDirection, offset: Point) -> Self {
        Self { name: name.into(), direction, offset }
    }
}

/// A fully characterized AQFP standard cell.
///
/// Dimensions follow the updated AQFP standard cell library described in the
/// paper, in which every cell height, width and pin location is an integer
/// multiple of 10 µm.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AqfpCell {
    /// The cell kind.
    pub kind: CellKind,
    /// Cell width in µm.
    pub width: f64,
    /// Cell height in µm.
    pub height: f64,
    /// Number of Josephson junctions the cell consumes.
    pub jj_count: usize,
    /// Input pins, ordered `a`, `b`, `c`.
    pub input_pins: Vec<PinGeometry>,
    /// Output pins, ordered `xout`, `xout1`, ...
    pub output_pins: Vec<PinGeometry>,
}

impl AqfpCell {
    /// Area of the cell in µm².
    pub fn area(&self) -> f64 {
        self.width * self.height
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitters_have_multiple_outputs() {
        assert_eq!(CellKind::Splitter2.output_count(), 2);
        assert_eq!(CellKind::Splitter3.output_count(), 3);
        assert_eq!(CellKind::Splitter4.output_count(), 4);
        assert_eq!(CellKind::Buffer.output_count(), 1);
    }

    #[test]
    fn logic_gates_have_expected_arity() {
        assert_eq!(CellKind::Majority3.input_count(), 3);
        assert_eq!(CellKind::And.input_count(), 2);
        assert_eq!(CellKind::Buffer.input_count(), 1);
        assert_eq!(CellKind::Input.input_count(), 0);
    }

    #[test]
    fn splitter_for_fanout_selection() {
        assert_eq!(CellKind::splitter_for_fanout(2), Some(CellKind::Splitter2));
        assert_eq!(CellKind::splitter_for_fanout(4), Some(CellKind::Splitter4));
        assert_eq!(CellKind::splitter_for_fanout(1), None);
        assert_eq!(CellKind::splitter_for_fanout(9), None);
    }

    #[test]
    fn classification_predicates_are_disjoint() {
        for kind in CellKind::ALL {
            let classes = [kind.is_splitter(), kind.is_logic(), kind.is_terminal()]
                .iter()
                .filter(|b| **b)
                .count();
            assert!(classes <= 1, "{kind} belongs to more than one class");
        }
    }

    #[test]
    fn display_names_are_unique() {
        let mut names: Vec<String> = CellKind::ALL.iter().map(|k| k.to_string()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), CellKind::ALL.len());
    }
}
