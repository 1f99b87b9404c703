//! Deliberate single-defect injection for negative testing.
//!
//! Each function corrupts exactly one structural fact in an otherwise valid
//! artifact, chosen so a specific verifier rule must fire. The CLI's
//! `--inject-defect` flag and the mutation test-suite both drive these, so
//! the "a broken artifact is actually caught" check exercises the same code
//! path everywhere.

use aqfp_cells::CellKind;
use aqfp_layout::gds::{RecordTag, Records};
use aqfp_layout::Layout;
use aqfp_netlist::Netlist;
use aqfp_place::PlacedDesign;
use aqfp_route::RoutingResult;

/// A class of single-point defect to inject before verification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Defect {
    /// Drop one routed wire (caught by phase-legality coverage, AQFP-V013).
    Wire,
    /// Displace one cell instance in the layout (caught by LVS, AQFP-V022).
    Cell,
    /// Repoint one net across two rows (caught by phase-legality, AQFP-V010).
    Phase,
}

impl Defect {
    /// Parses a CLI spelling (`wire`, `cell`, `phase`).
    pub fn parse(text: &str) -> Option<Self> {
        match text {
            "wire" => Some(Defect::Wire),
            "cell" => Some(Defect::Cell),
            "phase" => Some(Defect::Phase),
            _ => None,
        }
    }

    /// The CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            Defect::Wire => "wire",
            Defect::Cell => "cell",
            Defect::Phase => "phase",
        }
    }

    /// The rule id this defect must trip.
    pub fn expected_rule(self) -> &'static str {
        match self {
            Defect::Wire => crate::phase::RULE_COVERAGE,
            Defect::Cell => crate::lvs::RULE_INSTANCE,
            Defect::Phase => crate::phase::RULE_PHASE_SKEW,
        }
    }
}

/// Flips the first buffer in the netlist to an inverter, changing the logic
/// function without touching the structure. Returns the flipped gate's name,
/// or `None` when the netlist has no buffer.
pub fn corrupt_netlist_gate(netlist: &mut Netlist) -> Option<String> {
    let id = netlist.ids().find(|&id| netlist.gate(id).kind == CellKind::Buffer)?;
    let gate = netlist.gate_mut(id);
    gate.kind = CellKind::Inverter;
    Some(gate.name.clone())
}

/// Repoints the first net's sink two rows past its driver, breaking the
/// one-phase-per-edge clocking invariant. Returns the corrupted net's index,
/// or `None` when no net has a row two levels further down.
pub fn corrupt_design_phase(design: &mut PlacedDesign) -> Option<usize> {
    for index in 0..design.nets.len() {
        let skip_row = design.cells[design.nets[index].driver].row + 2;
        if let Some(&target) = design.rows.get(skip_row).and_then(|row| row.first()) {
            design.nets[index].sink = target;
            return Some(index);
        }
    }
    None
}

/// Nudges the first placed cell half a micron in x, so its layout instance
/// no longer sits where the design says. Returns the moved cell's name.
pub fn corrupt_design_cell(design: &mut PlacedDesign) -> Option<String> {
    let cell = design.cells.first_mut()?;
    cell.x += 0.5;
    Some(cell.name.clone())
}

/// Drops the last routed wire, leaving its net uncovered. Returns the
/// dropped wire's net index.
pub fn corrupt_routing(routing: &mut RoutingResult) -> Option<usize> {
    routing.wires.pop().map(|wire| wire.net)
}

/// Shifts the first cell reference in the layout's top structure by one
/// micron, editing the `XY` record of that `SREF` in the GDS bytes. Returns
/// the displaced structure's name, or `None` when the top structure holds
/// no reference (or the stream is too damaged to find one).
pub fn corrupt_layout(layout: &mut Layout) -> Option<String> {
    // A record's text, without the NUL that pads it to an even length.
    let text = |payload: &[u8]| payload.strip_suffix(&[0]).unwrap_or(payload).to_vec();
    let top_name = layout.top_name.as_bytes();
    let (mut offset, mut in_top, mut name) = (0, false, None);
    let mut target = None;
    for record in Records::new(layout.gds_bytes()) {
        let record = record.ok()?;
        let payload_at = offset + 4;
        offset = payload_at + record.payload.len();
        match record.tag {
            Some(RecordTag::StrName) => in_top = text(record.payload) == top_name,
            Some(RecordTag::EndStr) => in_top = false,
            Some(RecordTag::SName) if in_top => name = Some(text(record.payload)),
            Some(RecordTag::Xy) if in_top && name.is_some() && record.payload.len() >= 4 => {
                target = Some(payload_at);
                break;
            }
            Some(RecordTag::EndEl) => name = None,
            _ => {}
        }
    }
    let x = &mut layout.gds_bytes_mut()[target?..][..4];
    // One micron is 1000 database units of 1 nm.
    let shifted = i32::from_be_bytes([x[0], x[1], x[2], x[3]]).wrapping_add(1000);
    x.copy_from_slice(&shifted.to_be_bytes());
    String::from_utf8(name?).ok()
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn defect_spellings_round_trip() {
        for defect in [Defect::Wire, Defect::Cell, Defect::Phase] {
            assert_eq!(Defect::parse(defect.name()), Some(defect));
        }
        assert_eq!(Defect::parse("bitflip"), None);
    }

    #[test]
    fn each_defect_names_a_verify_rule() {
        assert_eq!(Defect::Wire.expected_rule(), "AQFP-V013");
        assert_eq!(Defect::Cell.expected_rule(), "AQFP-V022");
        assert_eq!(Defect::Phase.expected_rule(), "AQFP-V010");
    }
}
