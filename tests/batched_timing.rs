//! Equivalence guarantees of the batched SoA timing engine and the
//! parallel detailed placer on the paper's benchmark circuits.
//!
//! The batched STA path ([`TimingAnalyzer::analyze_batch`]) promises
//! bit-for-bit identity with the scalar [`TimingAnalyzer::analyze`], and
//! detailed placement promises byte-identical coordinates for every worker
//! thread count; these tests pin both contracts on every circuit of
//! Table II rather than on random designs alone (see `tests/property.rs`
//! for the property-based versions).

use aqfp_cells::Technology;
use aqfp_netlist::generators::{benchmark_circuit, Benchmark};
use aqfp_place::design::PlacedDesign;
use aqfp_place::detailed::{detailed_place, DetailedPlacementConfig};
use aqfp_place::global::{global_place, GlobalPlacementConfig};
use aqfp_place::legalize::legalize;
use aqfp_synth::Synthesizer;
use aqfp_timing::{TimingAnalyzer, TimingBatch, TimingConfig};

/// Builds a quick legal placement of a benchmark (initial physical design
/// plus a short global-placement run and legalization — enough to give the
/// timing model realistic, non-trivial coordinates without the cost of a
/// full placement on the larger circuits).
fn quick_legal_design(benchmark: Benchmark) -> PlacedDesign {
    let library = Technology::mit_ll_sqf5ee();
    let synthesized = Synthesizer::new(library.clone())
        .run(&benchmark_circuit(benchmark))
        .expect("benchmark circuits synthesize");
    let mut design = PlacedDesign::from_synthesized(&synthesized, &library);
    global_place(&mut design, &GlobalPlacementConfig { iterations: 30, ..Default::default() });
    legalize(&mut design);
    design
}

#[test]
fn analyze_batch_is_bit_identical_to_scalar_on_every_benchmark() {
    let analyzer = TimingAnalyzer::new(TimingConfig::paper_default());
    for benchmark in Benchmark::ALL {
        let design = quick_legal_design(benchmark);
        let layer_width = design.layer_width().max(1.0);
        let scalar = analyzer.analyze(&design.to_placed_nets(), layer_width);
        let mut batch = TimingBatch::with_capacity(design.net_count());
        design.fill_timing_batch(&mut batch);
        let batched = analyzer.analyze_batch(&batch, layer_width);
        assert_eq!(
            scalar.wns_ps.to_bits(),
            batched.wns_ps.to_bits(),
            "{benchmark}: WNS bits diverged"
        );
        assert_eq!(
            scalar.tns_ps.to_bits(),
            batched.tns_ps.to_bits(),
            "{benchmark}: TNS bits diverged"
        );
        assert_eq!(scalar, batched, "{benchmark}: batched report diverged from scalar");
    }
}

#[test]
fn detailed_placement_is_byte_identical_across_thread_counts() {
    for benchmark in [Benchmark::Adder8, Benchmark::C432] {
        let base = quick_legal_design(benchmark);
        let mut reference: Option<Vec<u64>> = None;
        // 1 = strictly serial, 2 = fixed pool, 0 = every available core.
        for threads in [1usize, 2, 0] {
            let mut design = base.clone();
            detailed_place(&mut design, &DetailedPlacementConfig { threads, ..Default::default() });
            let bits: Vec<u64> = design.cells.iter().map(|c| c.x.to_bits()).collect();
            match &reference {
                None => reference = Some(bits),
                Some(expected) => assert_eq!(
                    expected, &bits,
                    "{benchmark}: thread count {threads} changed the placement"
                ),
            }
        }
    }
}
