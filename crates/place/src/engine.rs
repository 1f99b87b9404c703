//! The placement engine: one pipeline that runs the SuperFlow placer and
//! the two placers Table III compares it with, then inserts buffer rows
//! and analyzes timing.
//!
//! SuperFlow and TAAS are the same three steps, global placement, Tetris
//! legalization and detailed placement, each with its own tuning;
//! GORDIAN is the global placer's quadratic warm start and legalization.
//! Every placer polls the engine's [`CancelToken`] and runs within the
//! thread counts of its [`PlacementOptions`].

use std::sync::Arc;

use aqfp_cells::{CancelToken, Technology};
use aqfp_synth::SynthesizedNetlist;
use aqfp_timing::{TimingAnalyzer, TimingBatch, TimingReport};
use serde::{Deserialize, Serialize};

use crate::buffer_rows::{insert_buffer_rows, BufferRowReport};
use crate::design::PlacedDesign;
use crate::detailed::{detailed_place_cancellable, DetailedPlacementConfig};
use crate::global::{global_place_cancellable, warm_start, GlobalPlacementConfig};
use crate::legalize::legalize;

/// Which placement strategy to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PlacerKind {
    /// The paper's placer: timing-aware analytical global placement, Tetris
    /// legalization, mixed-cell-size detailed placement, all tuned by the
    /// engine's [`PlacementOptions`].
    SuperFlow,
    /// Quadratic wirelength-only baseline (Li et al., DATE 2021): 60
    /// Gauss-Seidel sweeps of the global placer's warm start, which reach
    /// the squared-wirelength optimum, then Tetris legalization.
    GordianBased,
    /// Timing-aware analytical baseline (Dong et al., DAC 2022): the
    /// SuperFlow steps with TAAS's own tuning, global placement at timing
    /// weight 0.01 with no max-wirelength term and 500 iterations, then two
    /// passes of same-size-only detailed swaps (Fig. 4a).
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

/// The tuning of the SuperFlow placer. TAAS keeps its own tuning and reads
/// only the two thread counts; GORDIAN's sweeps are serial.
///
/// The timing model is *not* an option: the delay coefficients are process
/// facts, so the engine reads them from its [`Technology`] (and overrides
/// [`DetailedPlacementConfig::timing`] with them in every placer's detailed
/// sweep) instead of carrying a side-channel copy that could drift from the
/// targeted process.
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

    /// Attaches a cooperative [`CancelToken`]. Every placer polls it at its
    /// loop boundaries (each warm-start sweep, global iteration and
    /// detailed pass) and stops early when it fires, and a fired token
    /// skips buffer-row insertion and the legalization that follows it.
    /// The engine then still returns a (partial) result — the caller
    /// decides whether to keep it.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// The technology the engine places against.
    pub fn technology(&self) -> &Technology {
        &self.technology
    }

    /// Places a synthesized netlist with the selected strategy.
    pub fn place(&self, synthesized: &SynthesizedNetlist, placer: PlacerKind) -> PlacementResult {
        let mut design = PlacedDesign::from_synthesized(synthesized, &self.technology);
        let PlacementOptions { mut global, mut detailed } = self.options;
        if placer == PlacerKind::Taas {
            // TAAS keeps its own tuning and takes only the thread counts.
            global = GlobalPlacementConfig {
                timing_weight: 0.01,
                max_wirelength_weight: 0.0,
                threads: global.threads,
                ..GlobalPlacementConfig::default()
            };
            detailed = DetailedPlacementConfig {
                passes: 2,
                allow_mixed_size_swaps: false,
                threads: detailed.threads,
                ..DetailedPlacementConfig::default()
            };
        }
        // The timing cost's exponent is a process fact: every placer reads
        // the technology's.
        global.alpha = self.technology.timing.alpha;
        if placer == PlacerKind::GordianBased {
            warm_start(&mut design, 60, &self.cancel);
            design.sort_rows_by_x();
            legalize(&mut design);
        } else {
            global_place_cancellable(&mut design, &global, &self.cancel);
            legalize(&mut design);
            // Delay coefficients are process facts: every detailed sweep
            // reads the technology's.
            let detailed = detailed.with_technology_timing(&self.technology);
            detailed_place_cancellable(&mut design, &detailed, &self.cancel);
        }

        let buffer_report = if self.cancel.is_cancelled() {
            BufferRowReport::default()
        } else {
            insert_buffer_rows(&mut design, &self.technology).0
        };
        if buffer_report.buffer_cells > 0 && !self.cancel.is_cancelled() {
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
            design,
        }
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
    }

    #[test]
    fn all_three_placers_run_on_the_same_design() {
        let (synth, library) = synthesized(Benchmark::Adder8);
        let engine = PlacementEngine::new(library);
        for placer in PlacerKind::ALL {
            let result = engine.place(&synth, placer);
            assert_eq!(result.placer, placer);
            assert_eq!(result.design.overlap_count(), 0, "{placer} overlaps");
            assert_eq!(result.design.spacing_violations(), 0, "{placer} breaks spacing");
            assert!(result.hpwl_um > 0.0);
        }
    }

    #[test]
    fn gordian_produces_a_legal_placement() {
        let (synth, library) = synthesized(Benchmark::Adder8);
        let result = PlacementEngine::new(library).place(&synth, PlacerKind::GordianBased);
        assert_eq!(result.design.overlap_count(), 0);
        assert_eq!(result.design.spacing_violations(), 0);
    }

    #[test]
    fn taas_produces_a_legal_placement() {
        let (synth, library) = synthesized(Benchmark::Adder8);
        let result = PlacementEngine::new(library).place(&synth, PlacerKind::Taas);
        assert_eq!(result.design.overlap_count(), 0);
        assert_eq!(result.design.spacing_violations(), 0);
    }

    #[test]
    fn a_fired_token_stops_every_placer_before_any_cell_moves() {
        let (synth, library) = synthesized(Benchmark::Apc32);
        let designs = |engine: &PlacementEngine| {
            PlacerKind::ALL.map(|placer| engine.place(&synth, placer).design)
        };
        let free = designs(&PlacementEngine::new(library.clone()));
        let differ = free[0] != free[1] && free[1] != free[2] && free[0] != free[2];
        assert!(differ, "without a token the three placers place differently");

        let token = CancelToken::new();
        token.cancel();
        let [gordian, taas, superflow] = designs(&PlacementEngine::new(library).with_cancel(token));
        assert!(gordian == taas, "GORDIAN or TAAS ran past a fired token");
        assert!(gordian == superflow, "GORDIAN or SuperFlow ran past a fired token");
    }

    #[test]
    fn a_fired_token_skips_buffer_rows() {
        let (synth, library) = synthesized(Benchmark::Decoder);
        let free = PlacementEngine::new(library.clone()).place(&synth, PlacerKind::SuperFlow);
        assert!(free.buffer_lines > 0, "decoder needs buffer lines");

        let token = CancelToken::new();
        token.cancel();
        let engine = PlacementEngine::new(library).with_cancel(token);
        let cancelled = engine.place(&synth, PlacerKind::SuperFlow);
        assert_eq!(cancelled.buffer_lines, 0);
        assert!(cancelled.design.cells.iter().all(|cell| !cell.name.starts_with("wlbuf_")));
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
    fn the_global_placer_reads_the_technologys_alpha() {
        let (synth, library) = synthesized(Benchmark::C432);
        let xs = |alpha: f64| {
            let mut technology = library.clone();
            technology.timing.alpha = alpha;
            let engine = PlacementEngine::new(technology);
            [PlacerKind::SuperFlow, PlacerKind::Taas].map(|placer| {
                let design = engine.place(&synth, placer).design;
                design.cells.iter().map(|cell| cell.x).collect::<Vec<f64>>()
            })
        };
        let (steep, paper) = (xs(1.5), xs(2.0));
        assert_ne!(steep[0], paper[0], "SuperFlow");
        assert_ne!(steep[1], paper[1], "TAAS");
    }

    #[test]
    fn placer_kind_display_names() {
        assert_eq!(PlacerKind::SuperFlow.to_string(), "SuperFlow");
        assert_eq!(PlacerKind::ALL.len(), 3);
    }
}
