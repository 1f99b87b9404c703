//! Mutation-style negative tests for the post-stage verification layer.
//!
//! Each test corrupts exactly one structural fact in an otherwise valid
//! flow artifact — one wire, one cell, one phase edge, one logic gate —
//! and asserts that the matching verifier reports the catalogued
//! `AQFP-V0xx` rule id *and* names the corrupted object, so a regression
//! that weakens a verifier shows up as a silent pass here.

use aqfp_verify::{lec, lvs, mutate, phase, Defect};
use superflow::{Checked, FlowConfig, FlowSession, Routed};

/// Runs the fast flow on adder8 to the check stage, returning the session
/// (for the verify entry points) and the final artifact.
fn checked_adder8() -> (FlowSession, Checked, aqfp_netlist::Netlist) {
    let mut session = FlowSession::new(FlowConfig::fast()).expect("session starts");
    let netlist = superflow::load_netlist("adder8").expect("benchmark resolves");
    let checked = session.run(&netlist).expect("flow runs");
    (session, checked, netlist)
}

#[test]
fn a_clean_artifact_passes_every_verifier() {
    let (session, checked, netlist) = checked_adder8();
    let mut report = session.verify_checked(&checked);
    report.merge(session.verify_synthesized(&netlist, &checked.routed.placed.synthesized));
    assert!(report.ran("lec") && report.ran("phase") && report.ran("lvs"), "{:?}", report.checks);
    assert!(!report.has_errors(), "clean artifact must verify clean:\n{}", report.render());
}

#[test]
fn a_dropped_wire_reports_coverage_with_its_net() {
    let (session, mut checked, _) = checked_adder8();
    let net = mutate::corrupt_routing(&mut checked.routed.routing).expect("a wire to drop");
    let report = session.verify_routed(&checked.routed);
    assert!(
        report.mentions(phase::RULE_COVERAGE),
        "dropped wire must trip {}:\n{}",
        Defect::Wire.expected_rule(),
        report.render()
    );
    let rendered = report.render();
    assert!(rendered.contains(&format!("n{net}")), "must name net n{net}:\n{rendered}");
}

#[test]
fn a_displaced_cell_reports_lvs_with_its_name() {
    let (session, mut checked, _) = checked_adder8();
    let cell = mutate::corrupt_design_cell(&mut checked.routed.placed.placement.design)
        .expect("a cell to displace");
    let report = session.verify_checked(&checked);
    assert!(
        report.errors().any(|d| d.rule == lvs::RULE_INSTANCE && d.object.as_deref() == Some(&cell)),
        "displaced cell `{cell}` must trip {} naming it:\n{}",
        Defect::Cell.expected_rule(),
        report.render()
    );
}

#[test]
fn a_cell_moved_after_routing_reports_pin_ends_on_its_nets() {
    let mut session = FlowSession::new(FlowConfig::fast()).expect("session starts");
    let netlist = superflow::load_netlist("adder8").expect("benchmark resolves");
    let synthesized = session.synthesize(&netlist).expect("synthesis runs");
    let placed = session.place(synthesized).expect("placement runs");
    let mut routed = session.route(placed).expect("routing runs");
    let verify_checkpoint = |routed: &Routed| {
        let checkpoint = routed.to_json().expect("checkpoint writes");
        let artifact = session.load_checkpoint(checkpoint.as_bytes()).expect("checkpoint loads");
        session.verify_artifact(&artifact, Some(&netlist))
    };
    let clean = verify_checkpoint(&routed);
    assert!(!clean.has_errors(), "the routing checkpoint verifies clean:\n{}", clean.render());

    // Move input cell `a0` 10 µm left: its wires still start on its old
    // pin columns.
    let design = &mut routed.placed.placement.design;
    let cell = design.cells.iter().position(|c| c.name == "a0").expect("adder8 has input a0");
    design.cells[cell].x -= 10.0;
    let nets: Vec<String> = (0..design.nets.len())
        .filter(|&n| design.nets[n].driver == cell || design.nets[n].sink == cell)
        .map(|n| format!("n{n}"))
        .collect();
    let report = verify_checkpoint(&routed);
    let pin_ends: Vec<_> = report.errors().filter(|d| d.rule == phase::RULE_PIN_END).collect();
    assert!(!pin_ends.is_empty(), "a stale wire must trip AQFP-V014:\n{}", report.render());
    for finding in pin_ends {
        let net = finding.object.clone().unwrap_or_default();
        assert!(nets.contains(&net), "{net} is not a net of `a0`: {}", finding.message);
    }
}

#[test]
fn a_phase_skipping_net_reports_skew_with_its_index() {
    let (session, mut checked, _) = checked_adder8();
    let net = mutate::corrupt_design_phase(&mut checked.routed.placed.placement.design)
        .expect("a net to repoint");
    let report = session.verify_placed(&checked.routed.placed);
    assert!(
        report.mentions(phase::RULE_PHASE_SKEW),
        "phase skip must trip {}:\n{}",
        Defect::Phase.expected_rule(),
        report.render()
    );
    let rendered = report.render();
    assert!(rendered.contains(&format!("n{net}")), "must name net n{net}:\n{rendered}");
}

#[test]
fn a_flipped_gate_fails_lec_with_a_counterexample() {
    let (session, mut checked, netlist) = checked_adder8();
    let gate =
        mutate::corrupt_netlist_gate(&mut checked.routed.placed.synthesized.synthesis.netlist)
            .expect("a buffer to flip");
    let report = session.verify_synthesized(&netlist, &checked.routed.placed.synthesized);
    assert!(
        report.mentions(lec::RULE_FUNCTION_MISMATCH),
        "flipped gate `{gate}` must trip AQFP-V001:\n{}",
        report.render()
    );
    assert!(
        report.errors().any(|d| d.message.contains("counterexample")),
        "LEC failures must carry a counterexample vector:\n{}",
        report.render()
    );
}

#[test]
fn a_shifted_layout_instance_is_caught_by_lvs() {
    let (session, mut checked, _) = checked_adder8();
    let master = mutate::corrupt_layout(&mut checked.layout).expect("an sref to shift");
    let report = session.verify_checked(&checked);
    assert!(
        report.errors().any(|d| d.rule == lvs::RULE_INSTANCE
            && (d.object.as_deref() == Some(&master) || d.message.contains(&master))),
        "shifted `{master}` reference must trip {}:\n{}",
        lvs::RULE_INSTANCE,
        report.render()
    );
}

/// The CLI-facing contract: every [`Defect`] kind the `--inject-defect`
/// flag accepts trips exactly the rule its docs promise.
#[test]
fn each_defect_kind_trips_its_catalogued_rule() {
    for defect in [Defect::Wire, Defect::Cell, Defect::Phase] {
        let (session, mut checked, _) = checked_adder8();
        match defect {
            Defect::Wire => {
                mutate::corrupt_routing(&mut checked.routed.routing).expect("wire");
            }
            Defect::Cell => {
                mutate::corrupt_design_cell(&mut checked.routed.placed.placement.design)
                    .expect("cell");
            }
            Defect::Phase => {
                mutate::corrupt_design_phase(&mut checked.routed.placed.placement.design)
                    .expect("phase");
            }
        }
        let report = session.verify_checked(&checked);
        assert!(
            report.mentions(defect.expected_rule()),
            "{} defect must trip {}:\n{}",
            defect.name(),
            defect.expected_rule(),
            report.render()
        );
        assert!(report.has_errors());
    }
}
