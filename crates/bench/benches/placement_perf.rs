//! Perf-trajectory benches for the placement/timing hot paths, introduced
//! together with the batched SoA timing engine and the delta-cost parallel
//! detailed placer:
//!
//! * `detailed_place` — a full detailed-placement run on a legalized `apc32`
//!   design: `scalar_baseline` is the pre-rewrite placer (per-candidate
//!   `Vec` + sort + dedup, serial Gauss-Seidel sweeps), `delta_1thread` is
//!   the CSR + cached-delta-cost path at one worker thread;
//! * `sta_full_analysis` — one full timing analysis of the placed design:
//!   `scalar_rebuild` allocates `to_placed_nets()` and runs the scalar
//!   analyzer (the old engine path), `batched` refills the SoA
//!   [`TimingBatch`] in place and runs `analyze_batch` (what the placement
//!   engine and the check stage run once per design).
//!
//! The STA pair is asserted bit-identical before timing, so those rows
//! compare exactly equal work. The detailed-place pair compares two
//! placers with intentionally different evaluation order (the baseline's
//! Gauss-Seidel sweeps vs the rewrite's frozen-snapshot half-sweeps); they
//! accept slightly different move sets of equivalent quality, which the
//! placer's unit tests pin. After measuring, the run prints a comparison
//! against the committed `BENCH_placement.json` (report-only) and rewrites
//! the file so future PRs can track the trajectory.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};

use aqfp_cells::Technology;
use aqfp_netlist::generators::{benchmark_circuit, Benchmark};
use aqfp_place::design::PlacedDesign;
use aqfp_place::detailed::{detailed_place, detailed_place_reference, DetailedPlacementConfig};
use aqfp_place::global::{global_place, GlobalPlacementConfig};
use aqfp_place::legalize::legalize;
use aqfp_place::{PlacementEngine, PlacerKind};
use aqfp_synth::Synthesizer;
use aqfp_timing::{TimingAnalyzer, TimingBatch, TimingConfig};

/// A legalized (but not detailed-placed) apc32 design — the detailed
/// placer's input.
fn legalized_apc32() -> PlacedDesign {
    let library = Technology::mit_ll_sqf5ee();
    let synthesized = Synthesizer::new(library.clone())
        .run(&benchmark_circuit(Benchmark::Apc32))
        .expect("benchmark circuits synthesize");
    let mut design = PlacedDesign::from_synthesized(&synthesized, &library);
    global_place(&mut design, &GlobalPlacementConfig::default());
    legalize(&mut design);
    design
}

/// A fully placed apc32 design — the timing analyzer's input.
fn placed_apc32() -> PlacedDesign {
    let library = Technology::mit_ll_sqf5ee();
    let synthesized = Synthesizer::new(library.clone())
        .run(&benchmark_circuit(Benchmark::Apc32))
        .expect("benchmark circuits synthesize");
    PlacementEngine::new(library).place(&synthesized, PlacerKind::SuperFlow).design
}

fn bench_detailed_place(c: &mut Criterion) {
    let base = legalized_apc32();
    let config = DetailedPlacementConfig { threads: 1, ..Default::default() };

    let mut group = c.benchmark_group("detailed_place");
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::from_parameter("scalar_baseline"), &base, |b, base| {
        b.iter_batched(
            || base.clone(),
            |mut design| detailed_place_reference(&mut design, &config),
            BatchSize::LargeInput,
        );
    });
    group.bench_with_input(BenchmarkId::from_parameter("delta_1thread"), &base, |b, base| {
        b.iter_batched(
            || base.clone(),
            |mut design| detailed_place(&mut design, &config),
            BatchSize::LargeInput,
        );
    });
    group.finish();
}

fn bench_sta_full_analysis(c: &mut Criterion) {
    let design = placed_apc32();
    let analyzer = TimingAnalyzer::new(TimingConfig::paper_default());
    let layer_width = design.layer_width().max(1.0);

    // Guard the bench's meaning: both paths must produce bit-identical
    // reports, otherwise the timings compare different work.
    let scalar = analyzer.analyze(&design.to_placed_nets(), layer_width);
    let mut batch = TimingBatch::with_capacity(design.net_count());
    design.fill_timing_batch(&mut batch);
    let batched = analyzer.analyze_batch(&batch, layer_width);
    assert_eq!(scalar.wns_ps.to_bits(), batched.wns_ps.to_bits());
    assert_eq!(scalar, batched, "batched STA diverged from the scalar analysis");

    let mut group = c.benchmark_group("sta_full_analysis");
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::from_parameter("scalar_rebuild"), &design, |b, design| {
        b.iter(|| analyzer.analyze(&design.to_placed_nets(), layer_width));
    });
    group.bench_with_input(BenchmarkId::from_parameter("batched"), &design, |b, design| {
        b.iter(|| {
            design.fill_timing_batch(&mut batch);
            analyzer.analyze_batch(&batch, layer_width)
        });
    });
    group.finish();
}

/// Prints a report-only comparison of this run against the committed
/// `BENCH_placement.json`, then rewrites the file with the fresh numbers
/// (shared procedure: [`bench::baseline::compare_and_emit`]).
fn compare_and_emit_baseline(c: &mut Criterion) {
    bench::baseline::compare_and_emit(
        c,
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_placement.json"),
        &Benchmark::Apc32.to_string(),
    );
}

criterion_group!(benches, bench_detailed_place, bench_sta_full_analysis, compare_and_emit_baseline);
criterion_main!(benches);
