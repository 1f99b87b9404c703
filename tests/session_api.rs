//! Integration tests for the staged `FlowSession` API: JSON checkpoint
//! round-trips that resume to bit-identical GDS, and incremental DRC repair
//! that matches a from-scratch reroute byte for byte.

use std::cell::RefCell;
use std::fs::File;
use std::io::BufReader;
use std::rc::Rc;
use std::sync::Arc;

use aqfp_layout::{DrcReport, DrcViolationKind};
use aqfp_place::PlacerKind;
use aqfp_route::Router;
use serde::Serialize;
use superflow_suite::prelude::*;

/// The tree-first renderer and parser the vendored `serde_json` streamed
/// its way past, kept as the reference for checkpoint bytes.
#[path = "../vendor/serde_json/src/reference.rs"]
mod reference;

fn fast_config() -> FlowConfig {
    FlowConfig::fast()
}

#[test]
fn every_stage_checkpoint_resumes_to_identical_gds() {
    let netlist = benchmark_circuit(Benchmark::Adder8);

    // Uninterrupted reference run, snapshotting every stage artifact.
    let mut session = FlowSession::new(fast_config()).expect("session opens");
    let synthesized = session.synthesize(&netlist).expect("synthesis succeeds");
    let synth_json = synthesized.to_json().expect("serialize synthesized");
    let placed = session.place(synthesized).expect("placement succeeds");
    let placed_json = placed.to_json().expect("serialize placed");
    let routed = session.route(placed).expect("routing succeeds");
    let routed_json = routed.to_json().expect("serialize routed");
    let reference = session.check(routed).expect("check succeeds");
    let checked_json = reference.to_json().expect("serialize checked");
    let reference_gds = reference.layout.to_gds_bytes();

    // Resume from the synthesis checkpoint: place → route → check.
    {
        let mut resumed = FlowSession::new(fast_config()).expect("session opens");
        let synthesized = Synthesized::from_json(&synth_json).expect("checkpoint parses");
        let placed = resumed.place(synthesized).expect("same-technology resume");
        let routed = resumed.route(placed).expect("same-technology resume");
        let checked = resumed.check(routed).expect("same-technology resume");
        assert_eq!(checked.layout.to_gds_bytes(), reference_gds, "resume from synthesis");
        // A resumed session only times the stages it actually ran.
        assert_eq!(resumed.timings().synthesis_s, 0.0);
        assert!(resumed.timings().placement_s > 0.0);
    }

    // Resume from the placement checkpoint: route → check.
    {
        let mut resumed = FlowSession::new(fast_config()).expect("session opens");
        let placed = Placed::from_json(&placed_json).expect("checkpoint parses");
        let routed = resumed.route(placed).expect("same-technology resume");
        let checked = resumed.check(routed).expect("same-technology resume");
        assert_eq!(checked.layout.to_gds_bytes(), reference_gds, "resume from placement");
    }

    // Resume from the routing checkpoint: check.
    {
        let mut resumed = FlowSession::new(fast_config()).expect("session opens");
        let routed = Routed::from_json(&routed_json).expect("checkpoint parses");
        let checked = resumed.check(routed).expect("same-technology resume");
        assert_eq!(checked.layout.to_gds_bytes(), reference_gds, "resume from routing");
    }

    // The check checkpoint reads back as the final result.
    let checked = Checked::from_json(&checked_json).expect("checkpoint parses");
    assert_eq!(checked.layout.to_gds_bytes(), reference_gds, "resume from check");
    assert_eq!(checked.drc_iterations, reference.drc_iterations);
    assert_eq!(checked.drc, reference.drc);
    assert_eq!(checked.routed.routing.jj_count, reference.routed.routing.jj_count);
}

/// A routing checkpoint written before the routed artifact lost its
/// dirty-channel list and the placement its wall-clock runtime still
/// loads: unknown keys are skipped, and `check` finds the changed channels
/// itself, so it checks to the layout of the uninterrupted run.
#[test]
fn a_routing_checkpoint_with_retired_keys_checks_to_the_same_gds() {
    let mut session = FlowSession::new(fast_config()).expect("session opens");
    let synthesized =
        session.synthesize(&benchmark_circuit(Benchmark::Adder8)).expect("synthesis succeeds");
    let placed = session.place(synthesized).expect("placement succeeds");
    let routed = session.route(placed).expect("routing succeeds");
    let json = routed.to_json().expect("serializes");
    let reference = session.check(routed).expect("check succeeds").layout.to_gds_bytes();

    let with_runtime = json.replacen("\"hpwl_um\": ", "\"runtime_s\": 0.25,\n    \"hpwl_um\": ", 1);
    let legacy = format!(
        "{},\n  \"dirty_channels\": [\n    3\n  ]\n}}",
        with_runtime.strip_suffix("\n}").expect("the checkpoint closes its object")
    );
    assert!(legacy.contains("\"runtime_s\"") && legacy.contains("\"dirty_channels\""));

    let parsed = Routed::from_json(&legacy).expect("the legacy checkpoint parses");
    assert_eq!(parsed.to_json().expect("serializes"), json, "only the retired keys differ");
    let loaded = session.load_checkpoint(legacy.as_bytes()).expect("the legacy checkpoint loads");
    assert_eq!(loaded, Artifact::Routed(parsed.clone()));
    let checked = session.check(parsed).expect("check succeeds");
    assert_eq!(checked.layout.to_gds_bytes(), reference);
}

#[test]
fn artifact_checkpoints_are_the_typed_checkpoints_byte_for_byte() {
    let mut session = FlowSession::new(fast_config()).expect("session opens");
    let synthesized =
        session.synthesize(&benchmark_circuit(Benchmark::Adder8)).expect("synthesis succeeds");
    let placed = session.place(synthesized.clone()).expect("placement succeeds");
    let routed = session.route(placed.clone()).expect("routing succeeds");
    let checked = session.check(routed.clone()).expect("check succeeds");
    let typed = [
        (synthesized.to_json(), Artifact::Synthesized(synthesized)),
        (placed.to_json(), Artifact::Placed(placed)),
        (routed.to_json(), Artifact::Routed(routed)),
        (checked.to_json(), Artifact::Checked(checked)),
    ];
    for (json, artifact) in typed {
        let stage = artifact.stage();
        let json = json.expect("typed artifact serializes");
        assert_eq!(artifact.to_json().expect("artifact serializes"), json, "{stage} bytes");
        let back = Artifact::from_json(stage, &json).expect("typed checkpoint parses");
        assert_eq!(back, artifact, "{stage} round trip");
        // Another stage's checkpoint is an error, never a misread artifact.
        for other in FlowStage::ALL.into_iter().filter(|&other| other != stage) {
            let error = Artifact::from_json(other, &json).expect_err("wrong stage");
            assert!(matches!(error, FlowError::Checkpoint(_)), "{other} from {stage}: {error}");
        }
    }
}

/// Every stage checkpoint of two designs streams the bytes the tree
/// renderer writes for the artifact's value tree, reads back through the
/// pull parser as the tree-first parser reads it, lands in a file through
/// `write_checkpoint` byte for byte, and loads from that file through
/// `load_checkpoint` (the batch resume and `superflow verify` loader) to
/// the artifact `from_json` reads from its text.
#[test]
fn stage_checkpoints_match_the_tree_renderer_and_parser() {
    let dir = std::env::temp_dir().join(format!("superflow_ckpt_oracle_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    for input in ["adder8", "gen:random_dag:300:1"] {
        let netlist = superflow::load_netlist(input).expect("input resolves");
        let mut session = FlowSession::new(fast_config()).expect("session opens");
        let mut artifact =
            Artifact::Synthesized(session.synthesize(&netlist).expect("synthesizes"));
        loop {
            let stage = artifact.stage();
            let tree = match &artifact {
                Artifact::Synthesized(a) => a.to_value(),
                Artifact::Placed(a) => a.to_value(),
                Artifact::Routed(a) => a.to_value(),
                Artifact::Checked(a) => a.to_value(),
            };
            let json = artifact.to_json().expect("serializes");
            let rendered = reference::to_string_pretty(&tree).expect("renders");
            assert!(json == rendered, "{input} {stage}: the checkpoint bytes differ");

            let parsed = Artifact::from_json(stage, &json).expect("parses");
            let reference_parsed = match stage {
                FlowStage::Synthesis => reference::from_str(&json).map(Artifact::Synthesized),
                FlowStage::Placement => reference::from_str(&json).map(Artifact::Placed),
                FlowStage::Routing => reference::from_str(&json).map(Artifact::Routed),
                FlowStage::Check => reference::from_str(&json).map(Artifact::Checked),
            };
            assert_eq!(Ok(&parsed), reference_parsed.as_ref(), "{input} {stage}");
            assert_eq!(parsed, artifact, "{input} {stage} round trip");

            let path = dir.join(format!("{stage}.json"));
            artifact.write_checkpoint(&path).expect("writes");
            assert!(
                std::fs::read(&path).expect("reads") == json.as_bytes(),
                "{input} {stage} file"
            );
            assert!(!dir.join(format!("{stage}.tmp")).exists(), "{input} {stage} temporary");
            let file = BufReader::new(File::open(&path).expect("opens"));
            let loaded = session.load_checkpoint(file).expect("loads from the file");
            assert_eq!(loaded, parsed, "{input} {stage} loaded from its file");
            if stage == FlowStage::Check {
                break;
            }
            artifact = session.advance(artifact).expect("the next stage runs");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A check checkpoint cut off after a key, past the parser's first
/// window, fails the same way from its file as from its text: the same
/// error, its byte offset counted from the start of the document.
#[test]
fn a_truncated_check_checkpoint_fails_alike_from_its_file_and_its_text() {
    let mut session = FlowSession::new(fast_config()).expect("session opens");
    let checked = session.run(&benchmark_circuit(Benchmark::Adder8)).expect("flow runs");
    let json = checked.to_json().expect("serializes");
    let cut = json[..json.len() / 2].rfind("\": ").expect("a key before the middle") + 3;
    assert!(cut > serde_json::WINDOW, "the cut lies past the first window");
    let text = &json[..cut];
    let path =
        std::env::temp_dir().join(format!("superflow_truncated_check_{}.json", std::process::id()));
    std::fs::write(&path, text).expect("writes");

    let from_text = Checked::from_json(text).expect_err("truncated");
    let from_file = session
        .load_checkpoint(BufReader::new(File::open(&path).expect("opens")))
        .expect_err("truncated");
    let _ = std::fs::remove_file(&path);
    assert_eq!(from_file.to_string(), from_text.to_string());
    let offset = format!("at byte {cut}");
    assert!(from_file.to_string().contains(&offset), "{from_file} names {offset}");
    assert_eq!(
        session.load_checkpoint(text.as_bytes()).expect_err("truncated").to_string(),
        from_text.to_string()
    );
}

/// FNV-1a (64-bit) of `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The bytes of adder8's `--fast` check checkpoint, the whole file: it
/// holds no wall-clock value. The oracle test above runs the same derived
/// code on both sides, so this is what pins the shape the derive writes
/// for every artifact type, the GDS elements included. A change to the
/// flow's results moves it, as it moves the golden layouts.
#[test]
fn adder8_check_checkpoint_bytes_are_pinned() {
    let mut session = FlowSession::new(fast_config()).expect("session opens");
    let checked = session.run(&benchmark_circuit(Benchmark::Adder8)).expect("flow runs");
    let json = Artifact::Checked(checked).to_json().expect("serializes");
    assert_eq!(format!("{:016x}", fnv1a(json.as_bytes())), "2612b1cd3fc6f5d2");
}

/// The bytes of adder8's `--fast` placement checkpoint under each placer.
/// GORDIAN and TAAS keep their own tuning whatever the flow's placement
/// options say, so these pin that tuning as well as each placer's steps.
#[test]
fn adder8_placement_checkpoint_bytes_are_pinned_for_every_placer() {
    for placer in PlacerKind::ALL {
        let expected = match placer {
            PlacerKind::GordianBased => "99ebc4362a1b1a21",
            PlacerKind::Taas => "81b3d3bd257895e7",
            PlacerKind::SuperFlow => "3c6bd60691e54236",
        };
        let mut session =
            FlowSession::new(fast_config().with_placer(placer)).expect("session opens");
        let synthesized =
            session.synthesize(&benchmark_circuit(Benchmark::Adder8)).expect("synthesis succeeds");
        let placed = session.place(synthesized).expect("placement succeeds");
        let json = Artifact::Placed(placed).to_json().expect("serializes");
        assert_eq!(format!("{:016x}", fnv1a(json.as_bytes())), expected, "{placer}");
    }
}

/// A non-finite number has no JSON form: every way of writing a
/// checkpoint returns an error instead of panicking or writing garbage.
#[test]
fn non_finite_numbers_fail_every_checkpoint_writer() {
    let mut session = FlowSession::new(fast_config()).expect("session opens");
    let synthesized =
        session.synthesize(&benchmark_circuit(Benchmark::Adder8)).expect("synthesis succeeds");
    let mut placed = session.place(synthesized).expect("placement succeeds");
    placed.placement.design.cells[0].x = f64::INFINITY;
    assert!(serde_json::to_string(&placed).is_err());
    assert!(serde_json::to_string_pretty(&placed).is_err());
    assert!(matches!(Artifact::Placed(placed).to_json(), Err(FlowError::Checkpoint(_))));
}

/// `json` with the first placed cell's `field` set to `value`, the way a
/// hand edit of the checkpoint would leave it.
fn edit_first_cell(json: &str, field: &str, value: &str) -> String {
    let cells = json.find("\"cells\": [").expect("the checkpoint holds a placed design");
    let key = format!("\"{field}\": ");
    let start = cells + json[cells..].find(&key).expect("cells carry the field") + key.len();
    let end = start + json[start..].find([',', '\n']).expect("the value ends");
    format!("{}{value}{}", &json[..start], &json[end..])
}

/// A checkpoint whose cell geometry parses but lies out of range is a
/// checkpoint error at load time. Resumed, these three would abort the
/// process on a routing-grid allocation, panic in DRC, and hang the check
/// stage.
#[test]
fn out_of_range_cell_geometry_fails_to_load() {
    let mut session = FlowSession::new(fast_config()).expect("session opens");
    let synthesized =
        session.synthesize(&benchmark_circuit(Benchmark::Adder8)).expect("synthesis succeeds");
    let placed = session.place(synthesized).expect("placement succeeds");
    let placed_json = placed.to_json().expect("serializes");
    let routed_json = session.route(placed).expect("routing succeeds").to_json().expect("ok");

    let loads = [
        (
            "x = 1e15 placement",
            Placed::from_json(&edit_first_cell(&placed_json, "x", "1e15")).err(),
        ),
        (
            "x = 1e308 routing",
            Routed::from_json(&edit_first_cell(&routed_json, "x", "1e308")).err(),
        ),
        (
            "width = -1e9 routing",
            Routed::from_json(&edit_first_cell(&routed_json, "width", "-1e9")).err(),
        ),
    ];
    for (corruption, error) in loads {
        match error {
            Some(FlowError::Checkpoint(message)) => {
                assert!(message.contains("cell 0 "), "{corruption}: {message}")
            }
            other => panic!("{corruption}: expected a checkpoint error, got {other:?}"),
        }
    }
    Routed::from_json(&routed_json).expect("the intact checkpoint loads");
}

/// The flow's report is its check-stage checkpoint: a complete run
/// serializes to JSON and reads back as the same result.
#[test]
fn flow_reports_round_trip_through_json() {
    let checked = FlowSession::new(fast_config())
        .expect("session opens")
        .run(&benchmark_circuit(Benchmark::Adder8))
        .expect("flow succeeds");
    let json = checked.to_json().expect("report serializes");
    let parsed = Checked::from_json(&json).expect("report parses");
    assert_eq!(parsed, checked);
    assert_eq!(parsed.layout.to_gds_bytes(), checked.layout.to_gds_bytes());
    assert_eq!(parsed.to_json().expect("report serializes"), json);
}

/// Captures the scope of each DRC-repair iteration: `None` for a full
/// reroute, `Some(rows)` for the channel rows its repair touched (empty =
/// unchanged).
struct RepairWatch(Rc<RefCell<Vec<Option<Vec<usize>>>>>);

impl FlowObserver for RepairWatch {
    fn drc_iteration(&mut self, _iteration: usize, _report: &DrcReport, scope: RepairScope<'_>) {
        self.0.borrow_mut().push(match scope {
            RepairScope::Full => None,
            RepairScope::Channels(rows) => Some(rows.to_vec()),
            RepairScope::Unchanged => Some(Vec::new()),
        });
    }
}

/// A small structural-Verilog module whose flow run is naturally DRC-clean
/// (no max-wirelength residuals), so the only violations the repair loop
/// ever sees in this test are the ones the test plants itself.
const MAJORITY_VOTE: &str = r#"
    module majority_vote(a, b, c, y);
      input a, b, c;
      output y;
      wire ab, bc, ca, t;
      and g1(ab, a, b);
      and g2(bc, b, c);
      and g3(ca, c, a);
      or g4(t, ab, bc);
      or g5(y, t, ca);
    endmodule
"#;

#[test]
fn incremental_repair_is_byte_identical_to_a_from_scratch_reroute() {
    let netlist = aqfp_netlist::parsers::parse_verilog(MAJORITY_VOTE).expect("valid Verilog");
    let iterations = Rc::new(RefCell::new(Vec::new()));

    let mut session = FlowSession::new(fast_config()).expect("session opens");
    session.add_observer(Box::new(RepairWatch(Rc::clone(&iterations))));
    let synthesized = session.synthesize(&netlist).expect("synthesis succeeds");
    let placed = session.place(synthesized).expect("placement succeeds");
    let mut routed = session.route(placed).expect("routing succeeds");

    // Sabotage the placement *after* routing: drop one cell exactly onto its
    // left-hand row neighbour. The overlap is a CellSpacing violation the
    // check stage must repair by re-legalizing; the victim is chosen so it
    // is not the design's rightmost cell, which keeps the routing grid's
    // column count unchanged and genuinely exercises the incremental path.
    let victim = {
        let design = &routed.placed.placement.design;
        let layer_width = design.layer_width();
        design
            .rows
            .iter()
            .filter(|row| row.len() >= 2)
            .map(|row| row[1])
            .find(|&cell| design.cells[cell].right() < layer_width - 1e-9)
            .expect("a row with two cells away from the right edge")
    };
    {
        let design = &mut routed.placed.placement.design;
        let left = design.rows[design.cells[victim].row][0];
        design.cells[victim].x = design.cells[left].x;
    }

    let checked = session.check(routed).expect("check succeeds");

    // The repair loop must have run at least once, and at least one
    // iteration must have touched a bounded set of channels rather than
    // the whole design.
    assert!(checked.drc_iterations >= 1, "the sabotage must trigger a repair iteration");
    let seen = iterations.borrow().clone();
    assert!(!seen.is_empty());
    let channel_count = checked.routed.routing.channels.len();
    assert!(
        seen.iter().any(|scope| {
            scope.as_ref().is_some_and(|rows| !rows.is_empty() && rows.len() < channel_count)
        }),
        "at least one repair iteration must touch only some channels \
         (observed {seen:?} over {channel_count} channels)"
    );

    // Byte-identical guarantee: rerouting the repaired design from scratch
    // gives exactly the routing the check stage's one incremental route
    // produced.
    let library = Arc::clone(session.technology());
    let router = Router::with_config(library, session.config().router);
    let scratch = router.route(&checked.routed.placed.placement.design);
    assert_eq!(scratch, checked.routed.routing);
    let scratch_json = serde_json::to_string(&scratch).expect("serialize");
    let incremental_json = serde_json::to_string(&checked.routed.routing).expect("serialize");
    assert_eq!(scratch_json, incremental_json, "… down to the serialized bytes");

    // And the repair genuinely fixed the overlap it was given.
    assert_eq!(checked.routed.placed.placement.design.overlap_count(), 0);
}

/// A cell a caller moves one grid step between `route` and `check`, with
/// no other call, is rerouted: the checked routing is the one a fresh
/// route of the design gives, byte for byte, not the stale wires that
/// still end on the cell's old pins.
#[test]
fn a_cell_moved_between_route_and_check_is_rerouted() {
    let netlist = aqfp_netlist::parsers::parse_verilog(MAJORITY_VOTE).expect("valid Verilog");
    let mut session = FlowSession::new(fast_config()).expect("session opens");
    let synthesized = session.synthesize(&netlist).expect("synthesis succeeds");
    let placed = session.place(synthesized).expect("placement succeeds");
    let mut routed = session.route(placed).expect("routing succeeds");
    let stale = routed.routing.clone();

    // Move a row's leftmost cell one grid step left: it has no neighbour
    // on that side, and it is not the cell that sets the layer's width.
    let design = &mut routed.placed.placement.design;
    let grid = design.rules.grid;
    let layer_width = design.layer_width();
    let cell = design
        .rows
        .iter()
        .filter_map(|row| row.first().copied())
        .find(|&cell| design.cells[cell].x >= grid && design.cells[cell].right() < layer_width)
        .expect("a row whose leftmost cell can move left");
    design.cells[cell].x -= grid;

    let checked = session.check(routed).expect("check succeeds");
    let router = Router::with_config(Arc::clone(session.technology()), session.config().router);
    let fresh = router.route(&checked.routed.placed.placement.design);
    assert_ne!(fresh, stale, "the move must change the routing");
    let fresh_json = serde_json::to_string(&fresh).expect("serialize");
    let checked_json = serde_json::to_string(&checked.routed.routing).expect("serialize");
    assert_eq!(checked_json, fresh_json, "the checked routing is a fresh route of its design");
}

/// A violation only the routing passes see starts no repair iteration.
/// Under a 200 µm zigzag rule the majority vote's placement is clean, but
/// its wires turn closer than that: the loop runs no iteration and no
/// observer hears of one, the final report still holds every zigzag
/// violation, and the GDS is the one the flow wrote when such a design
/// ran one empty iteration.
#[test]
fn a_routing_only_violation_starts_no_repair_iteration() {
    let mut technology = Technology::mit_ll_sqf5ee();
    technology.rules.zigzag_spacing = 200.0;
    let netlist = aqfp_netlist::parsers::parse_verilog(MAJORITY_VOTE).expect("valid Verilog");
    let iterations = Rc::new(RefCell::new(Vec::new()));
    let mut session =
        FlowSession::new(fast_config().with_technology(technology)).expect("session opens");
    session.add_observer(Box::new(RepairWatch(Rc::clone(&iterations))));

    let checked = session.run(&netlist).expect("flow runs");

    assert_eq!(checked.drc_iterations, 0);
    assert!(iterations.borrow().is_empty(), "observed {:?}", iterations.borrow());
    assert_eq!(checked.drc.count(DrcViolationKind::ZigzagSpacing), 6);
    assert_eq!(checked.drc.violations.len(), 6, "{:?}", checked.drc);
    assert_eq!(format!("{:016x}", fnv1a(&checked.layout.to_gds_bytes())), "7c09da9364cd6fa3");
}

/// The flow routes on its technology's grid. With the minimum and zigzag
/// spacing widened to 20 µm, adder8 routes on a 20 µm grid, so no wire
/// turns sooner than the zigzag rule allows; on the configuration's
/// default 10 µm grid, 940 of its turns did. The checked artifact
/// re-verifies clean on the same grid.
#[test]
fn the_router_steps_on_the_technologys_minimum_spacing() {
    let mut technology = Technology::mit_ll_sqf5ee();
    technology.rules.min_spacing = 20.0;
    technology.rules.zigzag_spacing = 20.0;
    let mut session =
        FlowSession::new(fast_config().with_technology(technology)).expect("session opens");
    assert_eq!(session.config().router.grid_step_um, 20.0);

    let checked = session.run(&benchmark_circuit(Benchmark::Adder8)).expect("flow runs");

    assert_eq!(checked.drc.count(DrcViolationKind::ZigzagSpacing), 0);
    let max_wirelength = checked.drc.count(DrcViolationKind::MaxWirelength);
    assert_eq!(max_wirelength, checked.drc.violations.len(), "{:?}", checked.drc);
    let verified = session.verify_checked(&checked);
    assert!(!verified.has_errors(), "{}", verified.render());
}

/// The tentpole guarantee, asserted over benchmark circuits: every one of
/// them reaches `check` with max-wirelength residuals, so the repair loop
/// takes the buffer-row branch (rows and nets renumbered) on each — and
/// that repair stays incremental. The loop never falls back to
/// `RepairScope::Full`, and the final routing, GDS and timing are
/// byte-identical to a from-scratch route/layout/scalar-analysis of the
/// repaired design.
#[test]
fn buffer_row_repair_is_incremental_and_byte_identical() {
    use aqfp_layout::LayoutGenerator;
    use aqfp_timing::TimingAnalyzer;

    for benchmark in [Benchmark::Adder8, Benchmark::C432, Benchmark::Apc32] {
        let iterations = Rc::new(RefCell::new(Vec::new()));
        let mut session = FlowSession::new(fast_config()).expect("session opens");
        session.add_observer(Box::new(RepairWatch(Rc::clone(&iterations))));
        let synthesized =
            session.synthesize(&benchmark_circuit(benchmark)).expect("synthesis succeeds");
        let placed = session.place(synthesized).expect("placement succeeds");
        let rows_before = placed.design().rows.len();
        let routed = session.route(placed).expect("routing succeeds");
        assert!(
            !routed.design().max_wirelength_violations().is_empty(),
            "{benchmark:?} must reach check with max-wirelength residuals \
             for this test to exercise the buffer-row branch"
        );

        let checked = session.check(routed).expect("check succeeds");

        // The buffer-row branch ran (rows were inserted) and every repair
        // iteration touched a set of channels, never the whole routing.
        assert!(checked.drc_iterations >= 1, "{benchmark:?}: repair must run");
        let design = &checked.routed.placed.placement.design;
        assert!(
            design.rows.len() > rows_before,
            "{benchmark:?}: buffer rows must have been inserted ({} rows before, {} after)",
            rows_before,
            design.rows.len()
        );
        let seen = iterations.borrow().clone();
        assert!(!seen.is_empty());
        assert!(
            seen.iter().all(|scope| scope.is_some()),
            "{benchmark:?}: no repair iteration may fall back to a full reroute \
             (observed {seen:?})"
        );
        assert!(
            seen.iter().any(|scope| scope.as_ref().is_some_and(|rows| !rows.is_empty())),
            "{benchmark:?}: the buffer-row iterations must touch a set of channels"
        );
        // Byte-identical guarantee, end to end: routing, GDS and timing all
        // equal a from-scratch run over the repaired design.
        let library = Arc::clone(session.technology());
        let router = Router::with_config(Arc::clone(&library), session.config().router);
        let scratch_routing = router.route(design);
        assert_eq!(scratch_routing, checked.routed.routing, "{benchmark:?}: routing matches");
        let scratch_json = serde_json::to_string(&scratch_routing).expect("serialize");
        let incremental_json = serde_json::to_string(&checked.routed.routing).expect("serialize");
        assert_eq!(
            scratch_json, incremental_json,
            "{benchmark:?}: routing matches down to the serialized bytes"
        );

        let scratch_layout = LayoutGenerator::new(library).generate(design, &scratch_routing);
        assert_eq!(
            scratch_layout.to_gds_bytes(),
            checked.layout.to_gds_bytes(),
            "{benchmark:?}: GDS bytes match a from-scratch layout generation"
        );

        let analyzer = TimingAnalyzer::for_technology(session.technology());
        let fresh = analyzer.analyze(&design.to_placed_nets(), design.layer_width().max(1.0));
        let incremental = &checked.routed.placed.placement.timing;
        assert_eq!(
            fresh.wns_ps.to_bits(),
            incremental.wns_ps.to_bits(),
            "{benchmark:?}: timing is bit-identical to a scalar rebuild"
        );
        assert_eq!(
            fresh.tns_ps.to_bits(),
            incremental.tns_ps.to_bits(),
            "{benchmark:?}: TNS accumulates to the same bits"
        );
        assert_eq!(&fresh, incremental);
    }
}

/// The buffer-line counts cover every inserted line and cell, after
/// placement and again after `check`'s repairs: the design has one row per
/// clock phase plus one per buffer line, and one gate-less cell per
/// inserted buffer.
#[test]
fn buffer_line_counts_match_the_design_after_place_and_check() {
    for benchmark in [Benchmark::Adder8, Benchmark::Apc32, Benchmark::C432] {
        let mut session = FlowSession::new(fast_config()).expect("session opens");
        let synthesized =
            session.synthesize(&benchmark_circuit(benchmark)).expect("synthesis succeeds");
        let phase_rows = synthesized.stats().delay + 1;
        let assert_counts = |stage: &str, placement: &aqfp_place::PlacementResult| {
            let design = &placement.design;
            assert_eq!(
                design.rows.len(),
                phase_rows + placement.buffer_lines,
                "{benchmark:?} after {stage}: rows are phase rows plus buffer lines"
            );
            let buffer_cells = design.cells.iter().filter(|cell| cell.gate.is_none()).count();
            assert_eq!(
                placement.buffer_report.buffer_cells, buffer_cells,
                "{benchmark:?} after {stage}: buffer cells"
            );
            assert_eq!(placement.buffer_report.buffer_lines, placement.buffer_lines);
        };
        let placed = session.place(synthesized).expect("placement succeeds");
        assert_counts("place", &placed.placement);
        let routed = session.route(placed).expect("routing succeeds");
        let checked = session.check(routed).expect("check succeeds");
        assert_counts("check", &checked.routed.placed.placement);
    }
}

#[test]
fn synthesize_refuses_lint_rejected_netlists_with_the_full_report() {
    // A two-gate combinational loop: structurally parseable, never legal.
    let mut netlist = Netlist::new("looped");
    let a = netlist.add_input("a");
    let g1 = netlist.add_gate(CellKind::And, "g1", vec![a, a]);
    let g2 = netlist.add_gate(CellKind::And, "g2", vec![g1, a]);
    netlist.gate_mut(g1).fanin[1] = g2;
    netlist.add_output("y", g2);

    let mut session = FlowSession::new(fast_config()).expect("session opens");
    // The standalone lint entry point sees the loop ...
    let report = session.lint(&netlist);
    assert!(report.has_errors());
    assert!(report.mentions("AQFP-E001"), "{}", report.render());

    // ... and the synthesize gate refuses with the same report, before
    // `Netlist::validate` gets a say.
    match session.synthesize(&netlist) {
        Err(FlowError::Lint(report)) => {
            assert!(report.mentions("AQFP-E001"), "{}", report.render());
            let rendered = FlowError::Lint(report).to_string();
            assert!(rendered.contains("pre-flight lint"), "{rendered}");
        }
        other => panic!("expected FlowError::Lint, got {other:?}"),
    }
}

#[test]
fn session_construction_lints_the_flow_configuration() {
    // max_splitter_arity 1 would panic splitter insertion; the session must
    // refuse to open (AQFP-E201) instead of failing mid-flow.
    let mut config = fast_config();
    config.synthesis.max_splitter_arity = 1;
    match FlowSession::new(config) {
        Err(FlowError::Lint(report)) => {
            assert!(report.mentions("AQFP-E201"), "{}", report.render());
        }
        other => panic!("expected FlowError::Lint at session construction, got {other:?}"),
    }

    // An allow-list waives the gate: the user takes responsibility.
    let mut waived = fast_config();
    waived.synthesis.max_splitter_arity = 1;
    waived.lint.allow.push("AQFP-E201".to_owned());
    assert!(FlowSession::new(waived).is_ok());
}
