//! Cross-crate integration tests: the complete RTL-to-GDS pipeline.

use superflow_suite::prelude::*;

use aqfp_layout::DrcViolationKind;
use aqfp_netlist::parsers::{parse_blif, parse_verilog};
use aqfp_netlist::simulate;
use aqfp_place::PlacerKind;

/// Runs the whole flow on `netlist` under `config`.
fn run(config: FlowConfig, netlist: &Netlist) -> Result<Checked, FlowError> {
    FlowSession::new(config)?.run(netlist)
}

/// Runs the whole fast flow on `benchmark`.
fn run_fast(benchmark: Benchmark) -> Checked {
    run(FlowConfig::fast(), &benchmark_circuit(benchmark)).expect("flow succeeds")
}

#[test]
fn adder8_full_flow_produces_consistent_artifacts() {
    let checked = run_fast(Benchmark::Adder8);
    let synthesis = &checked.routed.placed.synthesized.synthesis;
    let design = checked.routed.design();
    let routing = &checked.routed.routing;

    // Synthesis artifacts agree with each other.
    assert_eq!(synthesis.stats.gate_count, synthesis.netlist.gate_count());
    assert!(synthesis.is_path_balanced());
    assert!(synthesis.respects_fanout_limit());

    // Placement covers every synthesized gate (plus any buffer-row cells).
    assert!(design.cell_count() >= synthesis.netlist.gate_count());
    assert_eq!(design.overlap_count(), 0);
    assert_eq!(design.spacing_violations(), 0);

    // Routing covers every net of the placed design.
    assert_eq!(routing.stats.nets_routed + routing.stats.failed_nets, design.net_count());
    assert_eq!(routing.stats.failed_nets, 0);

    // The layout references every placed cell and the GDS stream parses.
    assert_eq!(checked.layout.cell_instances, design.cell_count());
    let bytes = checked.layout.to_gds_bytes();
    let records = aqfp_layout::gds::parse_records(&bytes).expect("valid GDSII");
    assert!(records.len() > 100);

    // Geometric DRC is clean.
    assert_eq!(checked.drc.count(DrcViolationKind::CellSpacing), 0);
    assert_eq!(checked.drc.count(DrcViolationKind::Unrouted), 0);
}

#[test]
fn synthesis_preserves_benchmark_functionality_through_the_flow() {
    // The synthesized netlist inside the flow's result must stay
    // functionally equivalent to the original RTL netlist.
    let original = benchmark_circuit(Benchmark::Apc32);
    let checked = run_fast(Benchmark::Apc32);
    let synthesized = &checked.routed.placed.synthesized.synthesis.netlist;
    assert!(
        simulate::equivalent_sampled(&original, synthesized, 128, 0xAB).unwrap(),
        "logic synthesis must not change the circuit function"
    );
}

#[test]
fn placers_rank_as_the_paper_reports_on_a_larger_circuit() {
    let technology = Technology::mit_ll_sqf5ee();
    let synthesized = Synthesizer::new(technology.clone())
        .run(&benchmark_circuit(Benchmark::Sorter32))
        .expect("ok");
    let engine = PlacementEngine::new(technology);

    let gordian = engine.place(&synthesized, PlacerKind::GordianBased);
    let taas = engine.place(&synthesized, PlacerKind::Taas);
    let superflow = engine.place(&synthesized, PlacerKind::SuperFlow);

    // Table III shape on large circuits: SuperFlow beats both baselines on
    // wirelength and is at least as good as TAAS on timing; the wirelength
    // gap to the GORDIAN baseline is substantial.
    assert!(
        superflow.hpwl_um < taas.hpwl_um,
        "SuperFlow HPWL {} should beat TAAS {}",
        superflow.hpwl_um,
        taas.hpwl_um
    );
    assert!(
        superflow.hpwl_um < gordian.hpwl_um,
        "SuperFlow HPWL {} should beat GORDIAN {}",
        superflow.hpwl_um,
        gordian.hpwl_um
    );
    assert!(
        superflow.timing.wns_ps >= gordian.timing.wns_ps,
        "SuperFlow WNS {} should not be worse than GORDIAN {}",
        superflow.timing.wns_ps,
        gordian.timing.wns_ps
    );
}

#[test]
fn every_quick_benchmark_survives_the_full_flow() {
    for benchmark in [Benchmark::Adder8, Benchmark::Decoder, Benchmark::C432] {
        let checked = run_fast(benchmark);
        assert_eq!(checked.routed.placed.synthesized.design_name, benchmark.name());
        // The decoder's widest buffer-row channels can exhaust the router's
        // expansion budget; a small reported remainder is acceptable, but the
        // overwhelming majority of nets must route and nothing may be
        // silently dropped.
        let stats = &checked.routed.routing.stats;
        let total = stats.nets_routed + stats.failed_nets;
        assert_eq!(total, checked.routed.design().net_count(), "{benchmark} nets accounted for");
        assert!(
            stats.failed_nets * 20 <= total,
            "{benchmark}: more than 5% of nets failed to route ({} of {total})",
            stats.failed_nets
        );
        assert!(checked.layout.to_gds_bytes().len() > 1000, "{benchmark} layout is non-trivial");
    }
}

#[test]
fn flow_rejects_malformed_input() {
    let verilog = parse_verilog("not verilog at all").map_err(FlowError::from);
    assert!(matches!(verilog, Err(FlowError::Parse(_))));
    let blif = parse_blif(".model m\n.inputs a\n.outputs y\n.latch a y re c 0\n.end");
    assert!(matches!(blif.map_err(FlowError::from), Err(FlowError::Parse(_))));
}

#[test]
fn baseline_and_superflow_share_the_same_netlist_view() {
    // The flow must hand the same synthesized netlist to every placer so the
    // Table III comparison is apples to apples.
    let netlist = benchmark_circuit(Benchmark::Adder8);
    let sf = run(FlowConfig::fast(), &netlist).expect("ok");
    let gd = run(FlowConfig::fast().with_placer(PlacerKind::GordianBased), &netlist).expect("ok");
    assert_eq!(sf.routed.placed.synthesized, gd.routed.placed.synthesized);
}
