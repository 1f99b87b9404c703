//! Cross-crate integration tests: the complete RTL-to-GDS pipeline.

use superflow_suite::prelude::*;

use aqfp_layout::DrcViolationKind;
use aqfp_netlist::simulate;
use aqfp_place::PlacerKind;
use superflow::FlowError;

fn fast_flow() -> Flow {
    Flow::with_config(superflow::FlowConfig::fast())
}

#[test]
fn adder8_full_flow_produces_consistent_artifacts() {
    let report = fast_flow().run_benchmark(Benchmark::Adder8).expect("flow succeeds");

    // Synthesis artifacts agree with each other.
    assert_eq!(report.synthesis_stats.gate_count, report.synthesis.netlist.gate_count());
    assert!(report.synthesis.is_path_balanced());
    assert!(report.synthesis.respects_fanout_limit());

    // Placement covers every synthesized gate (plus any buffer-row cells).
    assert!(report.placement.design.cell_count() >= report.synthesis.netlist.gate_count());
    assert_eq!(report.placement.design.overlap_count(), 0);
    assert_eq!(report.placement.design.spacing_violations(), 0);

    // Routing covers every net of the placed design.
    assert_eq!(
        report.routing.stats.nets_routed + report.routing.stats.failed_nets,
        report.placement.design.net_count()
    );
    assert_eq!(report.routing.stats.failed_nets, 0);

    // The layout references every placed cell and the GDS stream parses.
    assert_eq!(report.layout.cell_instances, report.placement.design.cell_count());
    let records =
        aqfp_layout::gds::parse_records(&report.layout.to_gds_bytes()).expect("valid GDSII");
    assert!(records.len() > 100);

    // Geometric DRC is clean.
    assert_eq!(report.drc.count(DrcViolationKind::CellSpacing), 0);
    assert_eq!(report.drc.count(DrcViolationKind::Unrouted), 0);
}

#[test]
fn synthesis_preserves_benchmark_functionality_through_the_flow() {
    // The synthesized netlist inside the flow report must stay functionally
    // equivalent to the original RTL netlist.
    let original = benchmark_circuit(Benchmark::Apc32);
    let report = fast_flow().run_benchmark(Benchmark::Apc32).expect("flow succeeds");
    assert!(
        simulate::equivalent_sampled(&original, &report.synthesis.netlist, 128, 0xAB).unwrap(),
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
        let report = fast_flow().run_benchmark(benchmark).expect("flow succeeds");
        assert_eq!(report.design_name, benchmark.name());
        // The decoder's widest buffer-row channels can exhaust the router's
        // expansion budget; a small reported remainder is acceptable, but the
        // overwhelming majority of nets must route and nothing may be
        // silently dropped.
        let total = report.routing.stats.nets_routed + report.routing.stats.failed_nets;
        assert_eq!(total, report.placement.design.net_count(), "{benchmark} nets accounted for");
        assert!(
            report.routing.stats.failed_nets * 20 <= total,
            "{benchmark}: more than 5% of nets failed to route ({} of {total})",
            report.routing.stats.failed_nets
        );
        assert!(report.layout.to_gds_bytes().len() > 1000, "{benchmark} layout is non-trivial");
    }
}

#[test]
fn flow_rejects_malformed_input() {
    assert!(matches!(fast_flow().run_verilog("not verilog at all"), Err(FlowError::Parse(_))));
    assert!(matches!(
        fast_flow().run_blif(".model m\n.inputs a\n.outputs y\n.latch a y re c 0\n.end"),
        Err(FlowError::Parse(_))
    ));
}

#[test]
fn baseline_and_superflow_share_the_same_netlist_view() {
    // The flow must hand the same synthesized netlist to every placer so the
    // Table III comparison is apples to apples.
    let config = superflow::FlowConfig::fast();
    let sf = Flow::with_config(config.clone()).run_benchmark(Benchmark::Adder8).expect("ok");
    let gd = Flow::with_config(config.with_placer(PlacerKind::GordianBased))
        .run_benchmark(Benchmark::Adder8)
        .expect("ok");
    assert_eq!(sf.synthesis_stats, gd.synthesis_stats);
}
