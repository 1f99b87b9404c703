//! The placement engine: the full placement pipeline plus the baselines.

use std::sync::Arc;
use std::time::Instant;

use aqfp_cells::{CancelToken, Technology};
use aqfp_synth::SynthesizedNetlist;
use aqfp_timing::{TimingAnalyzer, TimingBatch, TimingReport};
use serde::{Deserialize, Serialize};

use crate::baselines::gordian::{gordian_place, GordianConfig};
use crate::baselines::taas::{taas_place_with_scratch, TaasConfig};
use crate::buffer_rows::{insert_buffer_rows, BufferRowReport};
use crate::design::PlacedDesign;
use crate::detailed::{detailed_place_cancellable, DetailedPlacementConfig};
use crate::global::{global_place_with_scratch, GlobalPlaceScratch, GlobalPlacementConfig};
use crate::legalize::legalize;

/// Which placement strategy to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PlacerKind {
    /// The paper's placer: timing-aware analytical global placement, Tetris
    /// legalization, mixed-cell-size detailed placement.
    SuperFlow,
    /// Quadratic wirelength-only baseline (Li et al., DATE 2021).
    GordianBased,
    /// Timing-aware analytical baseline with same-size-only detailed
    /// placement (Dong et al., DAC 2022).
    Taas,
}

impl PlacerKind {
    /// All placers, in the column order of Table III.
    pub const ALL: [PlacerKind; 3] =
        [PlacerKind::GordianBased, PlacerKind::Taas, PlacerKind::SuperFlow];

    /// Human-readable name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            PlacerKind::SuperFlow => "SuperFlow",
            PlacerKind::GordianBased => "GORDIAN-based",
            PlacerKind::Taas => "TAAS",
        }
    }
}

impl std::fmt::Display for PlacerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Options shared by every placement run.
///
/// The timing model is *not* an option: the delay coefficients are process
/// facts, so the engine reads them from its [`Technology`] (and overrides
/// [`DetailedPlacementConfig::timing`] with them) instead of carrying a
/// side-channel copy that could drift from the targeted process.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct PlacementOptions {
    /// Global-placement tuning for the SuperFlow placer.
    pub global: GlobalPlacementConfig,
    /// Detailed-placement tuning for the SuperFlow placer.
    pub detailed: DetailedPlacementConfig,
}

/// The outcome of one placement run — the rows Table III reports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlacementResult {
    /// Which placer produced the result.
    pub placer: PlacerKind,
    /// Design name.
    pub design_name: String,
    /// The placed design (legal, grid-aligned).
    pub design: PlacedDesign,
    /// Half-perimeter wirelength in µm.
    pub hpwl_um: f64,
    /// Buffer lines inserted for max-wirelength violations: by placement,
    /// plus those the flow's DRC repair (`FlowSession::check`) adds later.
    pub buffer_lines: usize,
    /// Buffer-row insertion details. The flow's DRC repair adds the lines
    /// and cells it inserts to `buffer_lines` and `buffer_cells`;
    /// `violating_nets` and `skipped_nets` stay those of placement.
    pub buffer_report: BufferRowReport,
    /// Static timing report at the target clock.
    pub timing: TimingReport,
    /// Wall-clock runtime of the placement pipeline in seconds.
    pub runtime_s: f64,
}

impl PlacementResult {
    /// Worst negative slack formatted like the paper's Table III (`-` when
    /// timing is met).
    pub fn wns_display(&self) -> String {
        self.timing.wns_display()
    }
}

/// The placement engine: builds the physical design from a synthesized
/// netlist and runs the selected placement strategy.
///
/// ```
/// use aqfp_cells::Technology;
/// use aqfp_netlist::generators::{benchmark_circuit, Benchmark};
/// use aqfp_place::{PlacementEngine, PlacerKind};
/// use aqfp_synth::Synthesizer;
///
/// let library = Technology::mit_ll_sqf5ee();
/// let synthesized = Synthesizer::new(library.clone())
///     .run(&benchmark_circuit(Benchmark::Adder8))?;
/// let result = PlacementEngine::new(library).place(&synthesized, PlacerKind::SuperFlow);
/// println!("{}: HPWL {:.0} µm, WNS {}", result.design_name, result.hpwl_um, result.wns_display());
/// # Ok::<(), aqfp_synth::SynthesisError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PlacementEngine {
    technology: Arc<Technology>,
    options: PlacementOptions,
    cancel: CancelToken,
}

impl PlacementEngine {
    /// Creates an engine with default options. Accepts either an owned
    /// [`Technology`] or a shared `Arc<Technology>` (the flow driver shares
    /// one technology across all stages).
    pub fn new(technology: impl Into<Arc<Technology>>) -> Self {
        Self {
            technology: technology.into(),
            options: PlacementOptions::default(),
            cancel: CancelToken::none(),
        }
    }

    /// Creates an engine with explicit options.
    pub fn with_options(technology: impl Into<Arc<Technology>>, options: PlacementOptions) -> Self {
        Self { technology: technology.into(), options, cancel: CancelToken::none() }
    }

    /// Attaches a cooperative [`CancelToken`]; the global and detailed
    /// placers poll it at their loop boundaries and bail out early when it
    /// fires. The engine then still returns a (partial) result — the caller
    /// decides whether to keep it.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// The engine's options.
    pub fn options(&self) -> &PlacementOptions {
        &self.options
    }

    /// The technology the engine places against.
    pub fn technology(&self) -> &Technology {
        &self.technology
    }

    /// The engine's detailed-placement configuration with the technology's
    /// timing coefficients injected — the configuration every detailed
    /// sweep of this engine (and of the flow's DRC-repair loop) runs with,
    /// so the placer's cost model can never drift from the process the
    /// other stages target.
    pub fn effective_detailed(&self) -> DetailedPlacementConfig {
        self.options.detailed.with_technology_timing(&self.technology)
    }

    /// Places a synthesized netlist with the selected strategy.
    pub fn place(&self, synthesized: &SynthesizedNetlist, placer: PlacerKind) -> PlacementResult {
        let mut scratch = GlobalPlaceScratch::new();
        self.place_base(
            PlacedDesign::from_synthesized(synthesized, &self.technology),
            placer,
            &mut scratch,
        )
    }

    /// Runs the selected strategy on an already-built initial design (so
    /// comparison runs over several placers build the physical view once).
    /// The global-placement scratch is caller-provided so comparison runs
    /// reuse one set of hot-loop buffers across all placers.
    fn place_base(
        &self,
        mut design: PlacedDesign,
        placer: PlacerKind,
        scratch: &mut GlobalPlaceScratch,
    ) -> PlacementResult {
        let start = Instant::now();

        match placer {
            PlacerKind::SuperFlow => {
                global_place_with_scratch(&mut design, &self.options.global, &self.cancel, scratch);
                legalize(&mut design);
                detailed_place_cancellable(&mut design, &self.effective_detailed(), &self.cancel);
            }
            PlacerKind::GordianBased => {
                gordian_place(&mut design, &GordianConfig::default());
            }
            PlacerKind::Taas => {
                taas_place_with_scratch(&mut design, &TaasConfig::default(), scratch);
            }
        }

        let (buffer_report, _edit) = insert_buffer_rows(&mut design, &self.technology);
        if buffer_report.buffer_cells > 0 {
            // The freshly inserted buffer rows are packed onto legal,
            // grid-aligned positions; already-legal rows are untouched
            // because legalization is idempotent.
            legalize(&mut design);
        }

        let analyzer = TimingAnalyzer::for_technology(&self.technology);
        let mut batch = TimingBatch::with_capacity(design.net_count());
        design.fill_timing_batch(&mut batch);
        let timing = analyzer.analyze_batch(&batch, design.layer_width().max(1.0));
        let hpwl_um = design.hpwl();

        PlacementResult {
            placer,
            design_name: design.name.clone(),
            hpwl_um,
            buffer_lines: buffer_report.buffer_lines,
            buffer_report,
            timing,
            runtime_s: start.elapsed().as_secs_f64(),
            design,
        }
    }

    /// Places a synthesized netlist with every placer, in Table III column
    /// order. The initial physical design is built once and cloned per
    /// placer instead of being rebuilt from the netlist three times.
    pub fn place_all(&self, synthesized: &SynthesizedNetlist) -> Vec<PlacementResult> {
        let base = PlacedDesign::from_synthesized(synthesized, &self.technology);
        let mut scratch = GlobalPlaceScratch::new();
        PlacerKind::ALL
            .iter()
            .map(|&placer| self.place_base(base.clone(), placer, &mut scratch))
            .collect()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use aqfp_netlist::generators::{benchmark_circuit, Benchmark};
    use aqfp_synth::Synthesizer;

    fn synthesized(benchmark: Benchmark) -> (SynthesizedNetlist, Technology) {
        let library = Technology::mit_ll_sqf5ee();
        let result =
            Synthesizer::new(library.clone()).run(&benchmark_circuit(benchmark)).expect("ok");
        (result, library)
    }

    #[test]
    fn superflow_placement_is_legal_and_reported() {
        let (synth, library) = synthesized(Benchmark::Adder8);
        let engine = PlacementEngine::new(library);
        let result = engine.place(&synth, PlacerKind::SuperFlow);
        assert_eq!(result.design.overlap_count(), 0);
        assert_eq!(result.design.spacing_violations(), 0);
        assert!(result.hpwl_um > 0.0);
        assert!(result.runtime_s >= 0.0);
    }

    #[test]
    fn all_three_placers_run_on_the_same_design() {
        let (synth, library) = synthesized(Benchmark::Adder8);
        let engine = PlacementEngine::new(library);
        let results = engine.place_all(&synth);
        assert_eq!(results.len(), 3);
        let names: Vec<&str> = results.iter().map(|r| r.placer.name()).collect();
        assert_eq!(names, vec!["GORDIAN-based", "TAAS", "SuperFlow"]);
        for result in &results {
            assert_eq!(result.design.overlap_count(), 0, "{} overlaps", result.placer);
            assert!(result.hpwl_um > 0.0);
        }
    }

    #[test]
    fn superflow_timing_is_no_worse_than_gordian() {
        let (synth, library) = synthesized(Benchmark::Apc32);
        let engine = PlacementEngine::new(library);
        let gordian = engine.place(&synth, PlacerKind::GordianBased);
        let superflow = engine.place(&synth, PlacerKind::SuperFlow);
        assert!(
            superflow.timing.wns_ps >= gordian.timing.wns_ps - 1.0,
            "SuperFlow WNS ({}) should not be materially worse than GORDIAN ({})",
            superflow.timing.wns_ps,
            gordian.timing.wns_ps
        );
    }

    #[test]
    fn placer_kind_display_names() {
        assert_eq!(PlacerKind::SuperFlow.to_string(), "SuperFlow");
        assert_eq!(PlacerKind::ALL.len(), 3);
    }
}
