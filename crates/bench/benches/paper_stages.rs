//! Criterion bench for the stages behind the paper's Tables II–IV, on the
//! path the flow ships: one paper-default `FlowSession` per circuit times
//!
//! * `table2_synthesis` — `FlowSession::synthesize`;
//! * `table3_placement` — `FlowSession::place` under each placer;
//! * `table4_routing` — `FlowSession::route` of the SuperFlow placement.
//!
//! Each stage consumes its input artifact, so every sample places or routes
//! a fresh clone (`iter_batched`, clone untimed). The tables themselves
//! come from the `fidelity` binary.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};

use aqfp_netlist::generators::{benchmark_circuit, Benchmark};
use aqfp_netlist::Netlist;
use aqfp_place::PlacerKind;
use superflow::{FlowConfig, FlowSession, Placed, Synthesized};

/// One circuit's session and the artifacts its stages consume.
struct Inputs {
    circuit: Benchmark,
    session: FlowSession,
    netlist: Netlist,
    synthesized: Synthesized,
    placed: Placed,
}

impl Inputs {
    fn new(circuit: Benchmark) -> Self {
        let mut session =
            FlowSession::new(FlowConfig::paper_default()).expect("the paper config opens");
        let netlist = benchmark_circuit(circuit);
        let synthesized = session.synthesize(&netlist).expect("synthesis succeeds");
        let placed = session.place(synthesized.clone()).expect("placement succeeds");
        Self { circuit, session, netlist, synthesized, placed }
    }
}

fn bench_paper_stages(c: &mut Criterion) {
    let mut inputs: Vec<Inputs> =
        [Benchmark::Adder8, Benchmark::Apc32].into_iter().map(Inputs::new).collect();

    let mut group = c.benchmark_group("table2_synthesis");
    group.sample_size(10);
    for input in &mut inputs {
        group.bench_function(BenchmarkId::from_parameter(input.circuit), |b| {
            b.iter(|| input.session.synthesize(&input.netlist).expect("synthesis succeeds"));
        });
    }
    group.finish();

    let mut group = c.benchmark_group("table3_placement");
    group.sample_size(10);
    for input in &mut inputs {
        for placer in PlacerKind::ALL {
            input.session.config_mut().placer = placer;
            group.bench_function(BenchmarkId::new(placer.name(), input.circuit), |b| {
                b.iter_batched(
                    || input.synthesized.clone(),
                    |synthesized| input.session.place(synthesized).expect("placement succeeds"),
                    BatchSize::LargeInput,
                );
            });
        }
    }
    group.finish();

    let mut group = c.benchmark_group("table4_routing");
    group.sample_size(10);
    for input in &mut inputs {
        group.bench_function(BenchmarkId::from_parameter(input.circuit), |b| {
            b.iter_batched(
                || input.placed.clone(),
                |placed| input.session.route(placed).expect("routing succeeds"),
                BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

criterion_group!(benches, bench_paper_stages);
criterion_main!(benches);
