//! TAAS-style timing-aware analytical placement baseline.
//!
//! TAAS (Dong et al., DAC 2022) adds a timing term to the analytical
//! objective but — unlike SuperFlow — keeps the conventional detailed
//! placement that only swaps cells of identical size (the restriction
//! illustrated in Fig. 4a of the paper). This baseline therefore reuses the
//! analytical global placer with a timing-aware objective and runs the
//! detailed placer with mixed-size swapping disabled.

use crate::design::PlacedDesign;
use crate::detailed::{detailed_place, DetailedPlacementConfig, DetailedPlacementReport};
use crate::global::{global_place, GlobalPlacementConfig};
use crate::legalize::legalize;

/// Configuration of the TAAS-style baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaasConfig {
    /// Analytical placement configuration (timing-aware, quadratic-style).
    pub global: GlobalPlacementConfig,
    /// Detailed placement configuration (same-size swaps only).
    pub detailed: DetailedPlacementConfig,
}

impl Default for TaasConfig {
    fn default() -> Self {
        let global = GlobalPlacementConfig {
            // TAAS weights timing less aggressively than SuperFlow and does
            // not model the max-wirelength penalty analytically.
            timing_weight: 0.01,
            max_wirelength_weight: 0.0,
            ..GlobalPlacementConfig::default()
        };
        let detailed = DetailedPlacementConfig {
            allow_mixed_size_swaps: false,
            passes: 2,
            ..DetailedPlacementConfig::default()
        };
        Self { global, detailed }
    }
}

/// Runs the TAAS-style baseline: timing-aware analytical placement, Tetris
/// legalization, same-size-only detailed placement.
pub fn taas_place(design: &mut PlacedDesign, config: &TaasConfig) -> DetailedPlacementReport {
    global_place(design, &config.global);
    legalize(design);
    detailed_place(design, &config.detailed)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use aqfp_cells::Technology;
    use aqfp_netlist::generators::{benchmark_circuit, Benchmark};
    use aqfp_synth::Synthesizer;

    fn design_for(benchmark: Benchmark) -> PlacedDesign {
        let library = Technology::mit_ll_sqf5ee();
        let synthesized =
            Synthesizer::new(library.clone()).run(&benchmark_circuit(benchmark)).expect("ok");
        PlacedDesign::from_synthesized(&synthesized, &library)
    }

    #[test]
    fn taas_produces_a_legal_placement() {
        let mut design = design_for(Benchmark::Adder8);
        taas_place(&mut design, &TaasConfig::default());
        assert_eq!(design.overlap_count(), 0);
        assert_eq!(design.spacing_violations(), 0);
    }

    #[test]
    fn taas_default_disables_mixed_size_swaps() {
        let config = TaasConfig::default();
        assert!(!config.detailed.allow_mixed_size_swaps);
        assert!(config.global.timing_weight > 0.0, "TAAS is timing-aware");
    }
}
