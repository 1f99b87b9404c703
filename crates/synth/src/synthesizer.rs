//! The synthesis driver tying conversion, splitter insertion and balancing
//! together.

use std::sync::Arc;

use aqfp_cells::Technology;
use aqfp_netlist::{Netlist, NetlistStats};
use serde::{Deserialize, Serialize};

use crate::balance::{self, BalanceReport};
use crate::error::SynthesisError;
use crate::fanout::{self, SplitterReport};
use crate::maj::{self, MajConversionReport};

/// Options controlling the synthesis stage.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SynthesisOptions {
    /// Run the AOI → majority conversion (disable for ablation studies).
    pub majority_conversion: bool,
    /// Largest splitter arity available in the library.
    pub max_splitter_arity: usize,
}

impl Default for SynthesisOptions {
    fn default() -> Self {
        Self { majority_conversion: true, max_splitter_arity: 4 }
    }
}

/// The output of the synthesis stage: an AQFP-legal netlist with its
/// clock-phase assignment and per-pass reports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SynthesizedNetlist {
    /// The majority-based, fan-out-legal, path-balanced netlist.
    pub netlist: Netlist,
    /// Clock phase (row index) of every gate, indexed by gate id.
    pub levels: Vec<usize>,
    /// Majority-conversion statistics.
    pub maj_report: MajConversionReport,
    /// Splitter-insertion statistics.
    pub splitter_report: SplitterReport,
    /// Buffer-insertion statistics.
    pub balance_report: BalanceReport,
    /// Final netlist statistics (Table II columns).
    pub stats: NetlistStats,
}

impl SynthesizedNetlist {
    /// Circuit depth in clock phases.
    pub fn depth(&self) -> usize {
        self.balance_report.depth
    }

    /// Whether every gate's fan-ins arrive exactly one phase earlier.
    pub fn is_path_balanced(&self) -> bool {
        self.netlist.iter().all(|(id, gate)| {
            gate.fanin.iter().all(|f| self.levels[f.index()] + 1 == self.levels[id.index()])
        })
    }

    /// Whether the fan-out rule holds (splitters only drive multiple sinks).
    pub fn respects_fanout_limit(&self) -> bool {
        fanout::respects_fanout_limit(&self.netlist)
    }
}

/// The synthesis driver (the "MAJ Netlist Converter" plus "Buffer & Splitter
/// Insertion" boxes of the paper's Fig. 3).
///
/// ```
/// use aqfp_cells::Technology;
/// use aqfp_netlist::generators::{benchmark_circuit, Benchmark};
/// use aqfp_synth::Synthesizer;
///
/// let synth = Synthesizer::new(Technology::mit_ll_sqf5ee());
/// let result = synth.run(&benchmark_circuit(Benchmark::Apc32))?;
/// println!("{}", result.stats);
/// # Ok::<(), aqfp_synth::SynthesisError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Synthesizer {
    technology: Arc<Technology>,
    options: SynthesisOptions,
}

impl Synthesizer {
    /// Creates a synthesizer with default options. Accepts either an owned
    /// [`Technology`] or a shared `Arc<Technology>` (the flow driver shares
    /// one technology across all stages).
    pub fn new(technology: impl Into<Arc<Technology>>) -> Self {
        Self { technology: technology.into(), options: SynthesisOptions::default() }
    }

    /// Creates a synthesizer with explicit options.
    pub fn with_options(technology: impl Into<Arc<Technology>>, options: SynthesisOptions) -> Self {
        Self { technology: technology.into(), options }
    }

    /// The technology the synthesizer targets.
    pub fn technology(&self) -> &Technology {
        &self.technology
    }

    /// The active options.
    pub fn options(&self) -> SynthesisOptions {
        self.options
    }

    /// Runs the complete synthesis stage on an AOI netlist.
    ///
    /// # Errors
    ///
    /// Returns [`SynthesisError::InvalidInput`] if the input netlist fails
    /// validation and [`SynthesisError::InternalRewrite`] if an internal pass
    /// produces an inconsistent netlist (a bug guard, not an expected path).
    pub fn run(&self, aoi: &Netlist) -> Result<SynthesizedNetlist, SynthesisError> {
        aoi.validate().map_err(SynthesisError::InvalidInput)?;

        let (current, maj_report) = if self.options.majority_conversion {
            maj::convert_to_majority(aoi, &self.technology)
        } else {
            let jj = aoi.jj_count(&self.technology);
            (aoi.clone(), MajConversionReport { jj_before: jj, jj_after: jj, ..Default::default() })
        };
        current.validate().map_err(SynthesisError::InternalRewrite)?;

        let (split, splitter_report) =
            fanout::insert_splitters(&current, self.options.max_splitter_arity);
        split.validate().map_err(SynthesisError::InternalRewrite)?;

        let balanced = balance::balance(&split);
        balanced.netlist.validate().map_err(SynthesisError::InternalRewrite)?;

        let stats = balanced.netlist.stats(&self.technology);
        Ok(SynthesizedNetlist {
            levels: balanced.levels,
            balance_report: balanced.report,
            netlist: balanced.netlist,
            maj_report,
            splitter_report,
            stats,
        })
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use aqfp_cells::CellKind;
    use aqfp_netlist::generators::{benchmark_circuit, Benchmark};
    use aqfp_netlist::simulate;

    #[test]
    fn full_synthesis_of_adder8_is_legal() {
        let aoi = benchmark_circuit(Benchmark::Adder8);
        let synth = Synthesizer::new(Technology::mit_ll_sqf5ee());
        let result = synth.run(&aoi).expect("synthesis succeeds");
        assert!(result.is_path_balanced());
        assert!(result.respects_fanout_limit());
        assert!(result.stats.jj_count > 0);
        assert!(result.stats.delay >= result.stats.delay.min(1));
        assert!(simulate::equivalent_sampled(&aoi, &result.netlist, 128, 11).unwrap());
    }

    #[test]
    fn synthesis_reports_buffer_and_splitter_counts() {
        let aoi = benchmark_circuit(Benchmark::Decoder);
        let result =
            Synthesizer::new(Technology::mit_ll_sqf5ee()).run(&aoi).expect("synthesis succeeds");
        assert!(result.splitter_report.splitters_inserted > 0, "decoder has heavy fan-out");
        assert!(result.balance_report.buffers_inserted > 0, "decoder paths are skewed");
        assert_eq!(result.stats.buffer_count, result.netlist.count_kind(CellKind::Buffer));
    }

    #[test]
    fn disabling_majority_conversion_keeps_more_jjs() {
        let aoi = benchmark_circuit(Benchmark::Apc32);
        let lib = Technology::mit_ll_sqf5ee();
        let with = Synthesizer::new(lib.clone()).run(&aoi).expect("ok");
        let without = Synthesizer::with_options(
            lib,
            SynthesisOptions { majority_conversion: false, ..Default::default() },
        )
        .run(&aoi)
        .expect("ok");
        assert!(with.maj_report.jj_after <= without.maj_report.jj_after);
    }

    #[test]
    fn invalid_input_is_reported() {
        let mut bad = Netlist::new("bad");
        let a = bad.add_input("a");
        bad.add_gate(CellKind::And, "g", vec![a]);
        let err = Synthesizer::new(Technology::mit_ll_sqf5ee()).run(&bad).unwrap_err();
        assert!(matches!(err, SynthesisError::InvalidInput(_)));
    }

    #[test]
    fn levels_cover_every_gate() {
        let aoi = benchmark_circuit(Benchmark::Apc32);
        let result = Synthesizer::new(Technology::mit_ll_sqf5ee()).run(&aoi).expect("ok");
        assert_eq!(result.levels.len(), result.netlist.gate_count());
        let max_level = *result.levels.iter().max().unwrap();
        assert!(max_level >= result.depth());
    }
}
