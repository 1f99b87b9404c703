//! GORDIAN-style quadratic placement baseline.
//!
//! The GORDIAN-based AQFP placer of Li et al. minimizes squared wirelength
//! with no timing awareness. For AQFP's two-pin nets the quadratic optimum
//! has a simple fixed-point characterization — every movable cell sits at
//! the average position of its neighbours — which we reach with Gauss-Seidel
//! sweeps, followed by the shared Tetris legalization.

use crate::design::PlacedDesign;
use crate::legalize::legalize;

/// Configuration of the GORDIAN-style baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GordianConfig {
    /// Number of Gauss-Seidel sweeps over all cells.
    pub sweeps: usize,
}

impl Default for GordianConfig {
    fn default() -> Self {
        Self { sweeps: 60 }
    }
}

/// Runs the GORDIAN-style baseline: quadratic wirelength minimization
/// followed by Tetris legalization.
pub fn gordian_place(design: &mut PlacedDesign, config: &GordianConfig) {
    // Adjacency: for every cell, the cells it shares a net with.
    let mut neighbours: Vec<Vec<usize>> = vec![Vec::new(); design.cells.len()];
    for net in &design.nets {
        neighbours[net.driver].push(net.sink);
        neighbours[net.sink].push(net.driver);
    }

    for _ in 0..config.sweeps {
        for (index, adjacent) in neighbours.iter().enumerate() {
            if adjacent.is_empty() {
                continue;
            }
            let sum: f64 = adjacent.iter().map(|&n| design.cells[n].center_x()).sum();
            let target_center = sum / adjacent.len() as f64;
            design.cells[index].x = (target_center - design.cells[index].width / 2.0).max(0.0);
        }
    }

    design.sort_rows_by_x();
    legalize(design);
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
    fn gordian_produces_a_legal_placement() {
        let mut design = design_for(Benchmark::Adder8);
        gordian_place(&mut design, &GordianConfig::default());
        assert_eq!(design.overlap_count(), 0);
        assert_eq!(design.spacing_violations(), 0);
    }

    #[test]
    fn gordian_improves_wirelength_over_initial_packing() {
        let mut design = design_for(Benchmark::Apc32);
        let before = design.hpwl();
        gordian_place(&mut design, &GordianConfig::default());
        assert!(design.hpwl() < before, "quadratic placement should shorten nets");
    }

    #[test]
    fn zero_sweeps_still_legalizes() {
        let mut design = design_for(Benchmark::Adder8);
        gordian_place(&mut design, &GordianConfig { sweeps: 0 });
        assert_eq!(design.overlap_count(), 0);
    }
}
