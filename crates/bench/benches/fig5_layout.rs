//! Criterion bench for the Fig. 5 pipeline stage: GDSII layout generation
//! and DRC of the design the flow writes, i.e. apc32's checked artifact from
//! a paper-default `FlowSession` (apc32 stands in for apc128 to keep the
//! measurement loop short; the `fig5` binary produces the full apc128
//! layout).

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};

use aqfp_layout::{DrcChecker, LayoutGenerator};
use aqfp_netlist::generators::{benchmark_circuit, Benchmark};
use superflow::{FlowConfig, FlowSession};

fn bench_layout(c: &mut Criterion) {
    let mut session =
        FlowSession::new(FlowConfig::paper_default()).expect("the paper config opens");
    let synthesized =
        session.synthesize(&benchmark_circuit(Benchmark::Apc32)).expect("synthesis succeeds");
    let placed = session.place(synthesized).expect("placement succeeds");
    let routed = session.route(placed).expect("routing succeeds");
    let checked = session.check(routed).expect("check succeeds");
    let (design, routing) = (checked.routed.design(), &checked.routed.routing);
    let generator = LayoutGenerator::new(Arc::clone(session.technology()));
    let checker = DrcChecker::for_technology(session.technology());

    let layout = &checked.layout;
    println!(
        "fig5 (apc32 stand-in): {} cells, {} wire paths, {:.0} x {:.0} um, GDS {} bytes, DRC findings: {}",
        layout.cell_instances,
        layout.wire_paths,
        layout.width_um,
        layout.height_um,
        layout.to_gds_bytes().len(),
        checked.drc.violations.len(),
    );

    let mut group = c.benchmark_group("fig5_layout");
    group.sample_size(10);
    group.bench_function("generate_gds", |b| {
        b.iter(|| generator.generate(design, routing).to_gds_bytes());
    });
    group.bench_function("drc_check", |b| {
        b.iter(|| checker.check(design, routing));
    });
    group.finish();
}

criterion_group!(benches, bench_layout);
criterion_main!(benches);
