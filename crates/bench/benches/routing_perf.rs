//! Perf-trajectory benches for the routing and global-placement hot paths,
//! introduced together with the zero-allocation routing core:
//!
//! * `route_channel` — full serial channel routing of `apc32` on a SuperFlow
//!   placement (the per-channel A*/rip-up/expansion core);
//! * `route_parallel_scaling` — the same routing at 1/2/4/8 worker threads.
//!   Results are asserted byte-identical across thread counts; on a
//!   multi-core host the higher thread counts should be measurably faster
//!   (on a single-core host they tie);
//! * `drc_repair_reroute` — one DRC-repair iteration's reroute after two
//!   cells moved: `from_scratch` routes every channel again, `incremental`
//!   hands the previous routing to `Router::route_partial`, which finds
//!   and reroutes only the channels whose input changed (results asserted
//!   byte-identical);
//! * `drc_repair_buffer_rows` — one buffer-row DRC-repair iteration (rows
//!   renumbered, cells/nets appended): `full_reroute` routes every channel
//!   of the edited design again, `incremental` hands the previous routing
//!   to `Router::route_partial`, which re-keys unchanged channels and
//!   routes only the changed ones (results asserted byte-identical). Both
//!   `incremental` rows clone the previous routing in the untimed setup,
//!   since `route_partial` consumes it;
//! * `global_place_iteration` — 100 analytical global-placement iterations
//!   on the `apc32` initial design (gradient/sort-index buffer reuse path).
//!
//! After measuring, the run prints a report-only comparison against the
//! committed `BENCH_routing.json` and rewrites the file at the workspace
//! root so future PRs can track the trajectory against this baseline.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};

use aqfp_cells::Technology;
use aqfp_netlist::generators::{benchmark_circuit, Benchmark};
use aqfp_place::design::PlacedDesign;
use aqfp_place::global::{global_place, GlobalPlacementConfig};
use aqfp_place::{PlacementEngine, PlacerKind};
use aqfp_route::{Router, RouterConfig};
use aqfp_synth::Synthesizer;

/// Thread counts exercised by `route_parallel_scaling`.
const SCALING_THREADS: [usize; 4] = [1, 2, 4, 8];

fn placed_apc32() -> (PlacedDesign, Technology) {
    let library = Technology::mit_ll_sqf5ee();
    let synthesized = Synthesizer::new(library.clone())
        .run(&benchmark_circuit(Benchmark::Apc32))
        .expect("benchmark circuits synthesize");
    let placed = PlacementEngine::new(library.clone()).place(&synthesized, PlacerKind::SuperFlow);
    (placed.design, library)
}

fn bench_route_channel(c: &mut Criterion) {
    let (design, library) = placed_apc32();
    let router =
        Router::with_config(library, RouterConfig { threads: 1, ..RouterConfig::default() });
    let mut group = c.benchmark_group("route_channel");
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::from_parameter(Benchmark::Apc32), &design, |b, design| {
        b.iter(|| router.route(design));
    });
    group.finish();
}

fn bench_route_parallel_scaling(c: &mut Criterion) {
    let (design, library) = placed_apc32();

    // Guard the bench's meaning: every thread count must produce the same
    // routed result, otherwise the timings compare different work.
    let reference = Router::with_config(
        library.clone(),
        RouterConfig { threads: 1, ..RouterConfig::default() },
    )
    .route(&design);
    for threads in SCALING_THREADS {
        let routed = Router::with_config(
            library.clone(),
            RouterConfig { threads, ..RouterConfig::default() },
        )
        .route(&design);
        assert_eq!(reference, routed, "thread count {threads} changed the routed result");
    }

    let mut group = c.benchmark_group("route_parallel_scaling");
    group.sample_size(10);
    for threads in SCALING_THREADS {
        let router = Router::with_config(
            library.clone(),
            RouterConfig { threads, ..RouterConfig::default() },
        );
        group.bench_with_input(BenchmarkId::from_parameter(threads), &design, |b, design| {
            b.iter(|| router.route(design));
        });
    }
    group.finish();
}

fn bench_incremental_reroute(c: &mut Criterion) {
    let (mut design, library) = placed_apc32();
    let router =
        Router::with_config(library, RouterConfig { threads: 1, ..RouterConfig::default() });
    let before = router.route(&design);

    // Reproduce a typical DRC-repair iteration: legalization nudged one cell
    // in each of two rows, changing the (at most) two channels each cell
    // touches. Leftmost cells are moved so the routing grid keeps its column
    // count and the partial path is actually taken; mid-design rows are
    // chosen because repairs land on arbitrary rows, while the few
    // splitter-heavy channels near the inputs dominate a from-scratch route
    // whichever strategy runs.
    for row in [13usize, 20] {
        let cell = design.rows[row][0];
        design.cells[cell].x += design.rules.grid;
    }

    // Guard the bench's meaning: both strategies must produce the same
    // routed result, otherwise the timings compare different work.
    assert_eq!(
        router.route(&design),
        router.route_partial(&design, before.clone()),
        "incremental reroute diverged from the from-scratch reroute"
    );

    let mut group = c.benchmark_group("drc_repair_reroute");
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::from_parameter("from_scratch"), &design, |b, design| {
        b.iter(|| router.route(design));
    });
    group.bench_with_input(BenchmarkId::from_parameter("incremental"), &design, |b, design| {
        b.iter_batched(
            || before.clone(),
            |previous| router.route_partial(design, previous),
            BatchSize::LargeInput,
        );
    });
    group.finish();
}

fn bench_buffer_row_repair(c: &mut Criterion) {
    use aqfp_place::buffer_rows::repair_buffer_rows;
    use aqfp_place::detailed::DetailedPlacementConfig;

    let (mut design, library) = placed_apc32();
    let router = Router::with_config(
        library.clone(),
        RouterConfig { threads: 1, ..RouterConfig::default() },
    );
    let detailed_config = DetailedPlacementConfig { threads: 1, ..Default::default() };

    // The scenario the incremental buffer-row repair is built for: a
    // violation-free design in which one connection regresses. The apc32
    // placement under the stock W_max carries a large residual violation
    // set concentrated in its heaviest channels — grinding that down
    // reroutes most nets whichever strategy runs — so the bench relaxes
    // W_max to just above the longest placed net (a clean steady state) and
    // then stretches a single mid-design connection past the limit.
    let grid = design.rules.grid;
    let longest = design.nets.iter().map(|net| design.net_length(net)).fold(0.0f64, f64::max);
    design.rules.max_wirelength = (longest / grid).ceil() * grid + design.row_pitch;
    assert!(
        design.max_wirelength_violations().is_empty(),
        "the relaxed limit must leave the placement violation-free"
    );

    // Stretch one interior connection past the relaxed limit, keeping both
    // endpoints inside the layer width so the routing grid's column count
    // (and with it the incremental path) is preserved.
    let victim_row = 13usize;
    let net_index = design
        .nets
        .iter()
        .position(|net| design.cells[net.driver].row == victim_row)
        .expect("a net driven from the victim row");
    let (driver, sink) = (design.nets[net_index].driver, design.nets[net_index].sink);
    design.cells[driver].x = 0.0;
    design.cells[sink].x = ((design.rules.max_wirelength * 1.3) / grid).round() * grid;
    assert!(design.cells[sink].right() < design.layer_width(), "the stretch stays interior");
    design.sort_rows_by_x();
    assert_eq!(design.max_wirelength_violations().len(), 1, "exactly the stretched net violates");
    let before = router.route(&design);

    // One repair iteration; the router finds the changed channels itself.
    let rows_before = design.rows.len();
    repair_buffer_rows(&mut design, &library, &detailed_config);
    assert!(design.rows.len() > rows_before, "the repair must insert buffer rows");

    // Guard the bench's meaning: the incremental reroute must be
    // byte-identical to the from-scratch baseline it is measured against.
    let scratch = router.route(&design);
    assert_eq!(
        scratch.grid_columns, before.grid_columns,
        "the repair must keep the column count so the incremental path is exercised"
    );
    assert_eq!(
        scratch,
        router.route_partial(&design, before.clone()),
        "incremental reroute diverged from the from-scratch reroute"
    );

    let mut group = c.benchmark_group("drc_repair_buffer_rows");
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::from_parameter("full_reroute"), &design, |b, design| {
        b.iter(|| router.route(design));
    });
    group.bench_with_input(BenchmarkId::from_parameter("incremental"), &design, |b, design| {
        b.iter_batched(
            || before.clone(),
            |previous| router.route_partial(design, previous),
            BatchSize::LargeInput,
        );
    });
    group.finish();
}

fn bench_global_place_iteration(c: &mut Criterion) {
    let library = Technology::mit_ll_sqf5ee();
    let synthesized = Synthesizer::new(library.clone())
        .run(&benchmark_circuit(Benchmark::Apc32))
        .expect("benchmark circuits synthesize");
    let base = PlacedDesign::from_synthesized(&synthesized, &library);
    let config = GlobalPlacementConfig { iterations: 100, ..GlobalPlacementConfig::default() };

    let mut group = c.benchmark_group("global_place_iteration");
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::from_parameter(Benchmark::Apc32), &base, |b, base| {
        b.iter(|| {
            let mut design = base.clone();
            global_place(&mut design, &config)
        });
    });
    group.finish();
}

/// Prints a report-only comparison of this run against the committed
/// `BENCH_routing.json`, then rewrites the file with the fresh numbers
/// (shared procedure: [`bench::baseline::compare_and_emit`]).
fn emit_baseline(c: &mut Criterion) {
    bench::baseline::compare_and_emit(
        c,
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_routing.json"),
        &Benchmark::Apc32.to_string(),
    );
}

criterion_group!(
    benches,
    bench_route_channel,
    bench_route_parallel_scaling,
    bench_incremental_reroute,
    bench_buffer_row_repair,
    bench_global_place_iteration,
    emit_baseline
);
criterion_main!(benches);
