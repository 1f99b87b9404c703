//! Design rule checking (the KLayout DRC step of the paper's flow).
//!
//! The checker works on the placed design and routing result rather than on
//! the raw GDSII polygons: every rule the paper mentions — cell spacing,
//! zigzag (wire turn) spacing, maximum wirelength, metal density, via size —
//! is expressed directly over those data structures, which keeps the checks
//! exact and fast. Cell spacing, maximum wirelength and metal density read
//! only the placement ([`DrcChecker::check_design`]); zigzag spacing and
//! unrouted nets read the routing as well ([`DrcChecker::check`] runs all
//! five). The flow repairs the placement-only violations (re-legalization,
//! buffer rows) on the placement alone, then routes the repaired design
//! once and runs the full check before finalizing the GDS.

use aqfp_cells::{CancelToken, ProcessRules, Technology};
use aqfp_place::PlacedDesign;
use aqfp_route::RoutingResult;
use serde::{Deserialize, Serialize};

/// The category of a DRC violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DrcViolationKind {
    /// Two cells in a row overlap or sit closer than the minimum spacing
    /// without abutting.
    CellSpacing,
    /// A wire turns after less than the minimum zigzag spacing.
    ZigzagSpacing,
    /// A connection is longer than the maximum wirelength.
    MaxWirelength,
    /// A row's metal density falls outside the allowed window.
    MetalDensity,
    /// A net could not be routed at all.
    Unrouted,
}

/// A single DRC violation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DrcViolation {
    /// The violated rule.
    pub kind: DrcViolationKind,
    /// Human-readable description with the offending objects.
    pub message: String,
    /// Row index the violation occurred in, when applicable.
    pub row: Option<usize>,
}

/// The outcome of a DRC run.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct DrcReport {
    /// All violations found.
    pub violations: Vec<DrcViolation>,
}

impl DrcReport {
    /// Whether the layout is clean.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Number of violations of a given kind.
    pub fn count(&self, kind: DrcViolationKind) -> usize {
        self.violations.iter().filter(|v| v.kind == kind).count()
    }
}

/// The design rule checker.
#[derive(Debug, Clone)]
pub struct DrcChecker {
    rules: ProcessRules,
    cancel: CancelToken,
}

impl DrcChecker {
    /// Creates a checker for the given process rules.
    pub fn new(rules: ProcessRules) -> Self {
        Self { rules, cancel: CancelToken::none() }
    }

    /// Creates a checker for a technology's design rules — the flow's way
    /// of constructing one.
    pub fn for_technology(technology: &Technology) -> Self {
        Self::new(technology.rules().clone())
    }

    /// Attaches a cooperative [`CancelToken`], polled between the rule
    /// passes of [`DrcChecker::check`] and [`DrcChecker::check_design`]. A
    /// fired token skips the remaining passes, so the report may miss
    /// violations — the caller is expected to discard it.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// The process rules being checked.
    pub fn rules(&self) -> &ProcessRules {
        &self.rules
    }

    /// Checks the rules that read only the placement: cell spacing,
    /// maximum wirelength (a net's center-to-center Manhattan length) and
    /// metal density. These are the violations the check stage's repair
    /// loop acts on, so it can decide without routing the design.
    pub fn check_design(&self, design: &PlacedDesign) -> DrcReport {
        let mut report = DrcReport::default();
        self.run_passes(
            &[Self::check_cell_spacing, Self::check_max_wirelength, Self::check_metal_density],
            design,
            &mut report,
        );
        report
    }

    /// Checks a placed and routed design against all rules: the
    /// [`check_design`](Self::check_design) passes, then zigzag spacing and
    /// unrouted nets, which read the routing. The report lists the
    /// violations in that pass order.
    pub fn check(&self, design: &PlacedDesign, routing: &RoutingResult) -> DrcReport {
        let mut report = self.check_design(design);
        self.run_passes(&[Self::check_zigzag_spacing, Self::check_unrouted], routing, &mut report);
        report
    }

    /// Runs `passes` over `input` in order, stopping at a fired token.
    fn run_passes<T: ?Sized>(
        &self,
        passes: &[fn(&Self, &T, &mut DrcReport)],
        input: &T,
        report: &mut DrcReport,
    ) {
        for pass in passes {
            if self.cancel.is_cancelled() {
                break;
            }
            pass(self, input, report);
        }
    }

    fn check_cell_spacing(&self, design: &PlacedDesign, report: &mut DrcReport) {
        for (row, left, right, gap) in design.spacing_faults(self.rules.min_spacing) {
            report.violations.push(DrcViolation {
                kind: DrcViolationKind::CellSpacing,
                message: format!(
                    "cells `{}` and `{}` in row {row} have an illegal gap of {gap:.1} µm",
                    design.cells[left].name, design.cells[right].name
                ),
                row: Some(row),
            });
        }
    }

    fn check_max_wirelength(&self, design: &PlacedDesign, report: &mut DrcReport) {
        for (index, length) in design.nets_longer_than(self.rules.max_wirelength) {
            report.violations.push(DrcViolation {
                kind: DrcViolationKind::MaxWirelength,
                message: format!(
                    "net {index} is {length:.0} µm long (limit {:.0} µm)",
                    self.rules.max_wirelength
                ),
                row: Some(design.cells[design.nets[index].driver].row),
            });
        }
    }

    /// Over-density check per row window: the cell area of a row may not
    /// exceed the maximum metal density of the row's window (row pitch ×
    /// layer width). Under-density is not flagged — sparse rows are handled
    /// by metal fill, which this abstract layout does not model.
    fn check_metal_density(&self, design: &PlacedDesign, report: &mut DrcReport) {
        let width = design.layer_width();
        if width <= 0.0 {
            return;
        }
        let window_area = width * design.row_pitch;
        for (row_index, row) in design.rows.iter().enumerate() {
            if row.is_empty() {
                continue;
            }
            let occupied: f64 =
                row.iter().map(|&i| design.cells[i].width * design.cells[i].height).sum();
            let density = occupied / window_area;
            if density > self.rules.max_metal_density {
                report.violations.push(DrcViolation {
                    kind: DrcViolationKind::MetalDensity,
                    message: format!(
                        "row {row_index} density {density:.2} exceeds {:.2}",
                        self.rules.max_metal_density
                    ),
                    row: Some(row_index),
                });
            }
        }
    }

    fn check_zigzag_spacing(&self, routing: &RoutingResult, report: &mut DrcReport) {
        // Positions where the wire changes direction (vias); one buffer
        // serves every wire.
        let mut turns = Vec::new();
        for wire in &routing.wires {
            turns.clear();
            for (i, window) in wire.path.windows(3).enumerate() {
                let first_horizontal = (window[0].y - window[1].y).abs() < 1e-9;
                let second_horizontal = (window[1].y - window[2].y).abs() < 1e-9;
                if first_horizontal != second_horizontal {
                    turns.push(wire.path[i + 1]);
                }
            }
            // Consecutive turns must be at least the zigzag spacing apart.
            // Every violating pair is reported individually, so
            // `DrcReport::count(ZigzagSpacing)` is the number of violations,
            // not the number of wires that have at least one.
            for pair in turns.windows(2) {
                let run = pair[0].manhattan_distance(pair[1]);
                if run < self.rules.zigzag_spacing - 1e-9 {
                    report.violations.push(DrcViolation {
                        kind: DrcViolationKind::ZigzagSpacing,
                        message: format!(
                            "net {} turns after only {run:.1} µm (minimum {:.1} µm)",
                            wire.net, self.rules.zigzag_spacing
                        ),
                        row: None,
                    });
                }
            }
        }
    }

    fn check_unrouted(&self, routing: &RoutingResult, report: &mut DrcReport) {
        if routing.stats.failed_nets > 0 {
            report.violations.push(DrcViolation {
                kind: DrcViolationKind::Unrouted,
                message: format!("{} nets could not be routed", routing.stats.failed_nets),
                row: None,
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
    use aqfp_place::{PlacementEngine, PlacerKind};
    use aqfp_route::Router;
    use aqfp_synth::Synthesizer;

    fn routed(benchmark: Benchmark) -> (PlacedDesign, RoutingResult, Technology) {
        let library = Technology::mit_ll_sqf5ee();
        let synthesized =
            Synthesizer::new(library.clone()).run(&benchmark_circuit(benchmark)).expect("ok");
        let placed =
            PlacementEngine::new(library.clone()).place(&synthesized, PlacerKind::SuperFlow);
        let routing = Router::new(library.clone()).route(&placed.design);
        (placed.design, routing, library)
    }

    #[test]
    fn flow_output_has_no_spacing_or_routing_violations() {
        let (design, routing, library) = routed(Benchmark::Adder8);
        let report = DrcChecker::new(library.rules().clone()).check(&design, &routing);
        assert_eq!(report.count(DrcViolationKind::CellSpacing), 0);
        assert_eq!(report.count(DrcViolationKind::Unrouted), 0);
        assert_eq!(report.count(DrcViolationKind::ZigzagSpacing), 0);
    }

    #[test]
    fn overlapping_cells_are_flagged() {
        let (mut design, routing, library) = routed(Benchmark::Adder8);
        if let Some(row) = design.rows.iter().find(|r| r.len() >= 2) {
            let (a, b) = (row[0], row[1]);
            design.cells[b].x = design.cells[a].x + 1.0;
        }
        let report = DrcChecker::new(library.rules().clone()).check(&design, &routing);
        assert!(report.count(DrcViolationKind::CellSpacing) > 0);
        assert!(!report.is_clean());
    }

    #[test]
    fn overlong_nets_are_flagged() {
        let (mut design, routing, library) = routed(Benchmark::Adder8);
        let net = design.nets[0];
        design.cells[net.driver].x = design.rules.max_wirelength * 5.0;
        let report = DrcChecker::new(library.rules().clone()).check(&design, &routing);
        assert!(report.count(DrcViolationKind::MaxWirelength) > 0);
    }

    #[test]
    fn failed_routing_is_reported() {
        let (design, mut routing, library) = routed(Benchmark::Adder8);
        routing.stats.failed_nets = 3;
        let report = DrcChecker::new(library.rules().clone()).check(&design, &routing);
        assert_eq!(report.count(DrcViolationKind::Unrouted), 1);
    }

    #[test]
    fn clean_report_counts_zero() {
        let report = DrcReport::default();
        assert!(report.is_clean());
        assert_eq!(report.count(DrcViolationKind::MetalDensity), 0);
    }

    /// A wire whose path turns every 5 µm: four turns, three consecutive
    /// turn pairs, all closer than the 10 µm zigzag rule.
    fn tight_zigzag_wire() -> aqfp_route::RoutedWire {
        use aqfp_cells::Point;
        let path = vec![
            Point::new(0.0, 0.0),
            Point::new(5.0, 0.0),
            Point::new(5.0, 5.0),
            Point::new(10.0, 5.0),
            Point::new(10.0, 10.0),
            Point::new(15.0, 10.0),
        ];
        aqfp_route::RoutedWire { net: 0, path, length_um: 25.0, via_count: 4 }
    }

    #[test]
    fn zigzag_check_reports_every_violating_turn_pair() {
        let (design, mut routing, library) = routed(Benchmark::Adder8);
        routing.wires.clear();
        routing.wires.push(tight_zigzag_wire());
        let report = DrcChecker::new(library.rules().clone()).check(&design, &routing);
        // Four turns -> three consecutive pairs, each 5 µm apart: every one
        // is a separate violation, not one per wire.
        assert_eq!(report.count(DrcViolationKind::ZigzagSpacing), 3);
    }

    #[test]
    fn full_check_is_the_design_pass_followed_by_the_routing_passes() {
        let (design, routing, library) = routed(Benchmark::Adder8);
        let checker = DrcChecker::for_technology(&library);

        // A copy with one violation of each kind the two passes see: a
        // stretched net, an overlap in a row away from the stretched
        // driver, and a wire that turns every 5 µm.
        let (mut sabotaged, mut sabotaged_routing) = (design.clone(), routing.clone());
        let driver = sabotaged.nets[0].driver;
        sabotaged.cells[driver].x = sabotaged.rules.max_wirelength * 5.0;
        let row = sabotaged
            .rows
            .iter()
            .find(|row| row.len() >= 2 && !row.contains(&driver))
            .unwrap()
            .clone();
        sabotaged.cells[row[1]].x = sabotaged.cells[row[0]].x + 1.0;
        sabotaged_routing.wires.push(tight_zigzag_wire());

        for (design, routing) in [(&design, &routing), (&sabotaged, &sabotaged_routing)] {
            let design_pass = checker.check_design(design);
            let full = checker.check(design, routing);
            assert!(full.violations.len() >= design_pass.violations.len());
            let (head, tail) = full.violations.split_at(design_pass.violations.len());
            assert_eq!(head, design_pass.violations.as_slice());
            assert!(
                tail.iter().all(|v| matches!(
                    v.kind,
                    DrcViolationKind::ZigzagSpacing | DrcViolationKind::Unrouted
                )),
                "{tail:?}"
            );
        }
        let design_pass = checker.check_design(&sabotaged);
        assert!(design_pass.count(DrcViolationKind::CellSpacing) > 0);
        assert!(design_pass.count(DrcViolationKind::MaxWirelength) > 0);
        assert_eq!(design_pass.count(DrcViolationKind::ZigzagSpacing), 0);
        let full = checker.check(&sabotaged, &sabotaged_routing);
        assert!(full.count(DrcViolationKind::ZigzagSpacing) >= 3);
    }

    #[test]
    fn zigzag_spacing_rule_is_independent_of_cell_spacing() {
        let (design, mut routing, library) = routed(Benchmark::Adder8);
        routing.wires.clear();
        routing.wires.push(tight_zigzag_wire());
        // Relaxing only the zigzag rule clears the violations even though
        // the cell-spacing rule still reads 10 µm.
        let mut rules = library.rules().clone();
        rules.zigzag_spacing = 5.0;
        assert_eq!(rules.min_spacing, 10.0);
        let report = DrcChecker::new(rules).check(&design, &routing);
        assert_eq!(report.count(DrcViolationKind::ZigzagSpacing), 0);
    }
}
