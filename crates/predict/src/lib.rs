//! Predictive static feasibility analysis for the SuperFlow AQFP flow.
//!
//! `aqfp-predict` is the third static-analysis layer of the suite:
//! `aqfp-lint` checks what a netlist *is*, `aqfp-verify` checks what the
//! flow *did*, and this crate derives what the flow *will do* — without
//! running any stage engine. One [`predict`] call over a parsed netlist, a
//! resolved technology and the flow settings produces a [`PredictReport`]
//! with four families of results:
//!
//! 1. **Phase-depth intervals** per primary output and for the whole design
//!    ([`StructureBounds::po_depths`], [`StructureBounds::rows`]), from
//!    which the phase-imbalance buffer demand is bounded.
//! 2. **Cell-count intervals** — logic, splitter, buffer and total placed
//!    cells — via an effective-value abstract interpretation plus exact
//!    splitter-tree arithmetic (reusing `aqfp_synth::fanout`), and a die
//!    estimate from the technology's cell geometry.
//! 3. **Channel congestion** — a RUDY-style demand map over a virtual row
//!    placement, compared against the router's initial and fully-expanded
//!    track capacity ([`CongestionForecast`]).
//! 4. **Stage costs** — predicted synthesis/place/route/GDS wall-clock,
//!    stream size and peak RSS from a power-law model calibrated against
//!    the committed `BENCH_scale.json` trajectory ([`CostForecast`]); the
//!    check stage is a fixed fraction of routing plus GDS.
//!
//! Every `min` field is a *sound lower bound*: majority conversion can only
//! absorb single-fan-out cones, so the analysis's surviving set places at
//! least one cell per member no matter what the optimiser does (see
//! `analysis` module docs for the argument; the repository's soundness
//! proptest validates it across generated design families).
//!
//! Findings surface as `AQFP-P0xx` diagnostics reusing the lint crate's
//! model ([`aqfp_lint::Diagnostic`], severity policy, the `all` wildcard),
//! so they merge into lint reports and batch gates unchanged.
//!
//! # Examples
//!
//! ```
//! use aqfp_cells::Technology;
//! use aqfp_netlist::generators::{benchmark_circuit, Benchmark};
//! use aqfp_predict::{predict, PredictOptions};
//!
//! let netlist = benchmark_circuit(Benchmark::Adder8);
//! let technology = Technology::mit_ll_sqf5ee();
//! let report = predict("adder8", &netlist, &technology, &PredictOptions::default());
//! let bounds = report.bounds.expect("acyclic design");
//! assert!(bounds.structure.cells.min > 0);
//! assert!(bounds.cost.total_s() > 0.0);
//! ```

#![warn(clippy::unwrap_used)]

mod analysis;
mod congestion;
mod cost;
mod report;
pub mod rules;

use aqfp_cells::Technology;
use aqfp_lint::{FlowSettings, LintConfig};
use aqfp_netlist::Netlist;
use aqfp_route::RouterConfig;

pub use report::{
    ChannelForecast, CongestionForecast, CostForecast, DieEstimate, Interval, OutputDepth,
    PredictBounds, PredictReport, StructureBounds,
};
pub use rules::catalog;

/// Everything the predictor needs to know about the flow configuration.
///
/// The flow crate sits above this one, so it populates this view from its
/// own `FlowConfig` (the same pattern `aqfp_lint::FlowSettings` uses).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PredictOptions {
    /// The flow's settings (splitter arity, thread count, DRC budget).
    pub settings: FlowSettings,
    /// Severity policy for the predictive rules.
    pub lint: LintConfig,
    /// Router configuration the congestion forecast mirrors (its track
    /// budget; the grid pitch is the technology's minimum spacing, as in
    /// the flow).
    pub router: RouterConfig,
}

/// Runs the full predictive analysis for one design.
///
/// Never runs a stage engine; cost is `O(gates + nets)`. On a cyclic or
/// otherwise unanalysable netlist the report carries no bounds and no
/// diagnostics — plain lint owns those defects.
pub fn predict(
    design: &str,
    netlist: &Netlist,
    technology: &Technology,
    options: &PredictOptions,
) -> PredictReport {
    let Some(analysis) = analysis::analyse(netlist, options.settings.max_splitter_arity) else {
        return PredictReport { design: design.to_owned(), bounds: None, diagnostics: Vec::new() };
    };
    let (die, congestion) = congestion::forecast(&analysis, technology, &options.router);
    let cost = cost::forecast(analysis.structure.cells.est);
    let bounds = PredictBounds { structure: analysis.structure, die, congestion, cost };
    let diagnostics = rules::evaluate(&bounds, &options.lint);
    PredictReport { design: design.to_owned(), bounds: Some(bounds), diagnostics }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use aqfp_cells::CellKind;
    use aqfp_netlist::generators::{benchmark_circuit, Benchmark};

    #[test]
    fn predicts_bounds_for_a_benchmark() {
        let netlist = benchmark_circuit(Benchmark::Adder8);
        let technology = Technology::mit_ll_sqf5ee();
        let report = predict("adder8", &netlist, &technology, &PredictOptions::default());
        let bounds = report.bounds.as_ref().unwrap();
        assert!(bounds.structure.cells.min > bounds.structure.inputs);
        assert!(bounds.structure.rows.min >= 3);
        assert!(bounds.congestion.channels > 0);
        assert!(bounds.cost.total_s() > 0.0);
        assert!(!report.has_errors(), "{:?}", report.diagnostics);
    }

    #[test]
    fn cyclic_netlists_yield_no_bounds() {
        let mut netlist = Netlist::new("cyclic");
        let a = netlist.add_input("a");
        let g1 = netlist.add_gate(CellKind::And, "g1", vec![a, a]);
        let g2 = netlist.add_gate(CellKind::And, "g2", vec![g1, a]);
        netlist.gate_mut(g1).fanin[1] = g2;
        netlist.add_output("z", g2);
        let technology = Technology::mit_ll_sqf5ee();
        let report = predict("cyclic", &netlist, &technology, &PredictOptions::default());
        assert!(report.bounds.is_none());
        assert!(report.diagnostics.is_empty());
    }

    #[test]
    fn reports_round_trip_for_real_designs() {
        let netlist = benchmark_circuit(Benchmark::Decoder);
        let technology = Technology::mit_ll_sqf5ee();
        let report = predict("decoder", &netlist, &technology, &PredictOptions::default());
        let json = serde_json::to_string(&report).unwrap();
        let back: PredictReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }
}
