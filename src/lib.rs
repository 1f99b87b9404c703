//! `superflow-suite` — umbrella crate hosting the repository-level integration
//! tests (`tests/`) and runnable examples (`examples/`).
//!
//! All functionality lives in the workspace crates; this crate merely re-exports
//! them so examples and integration tests have a single import surface.
//!
//! ```
//! use superflow_suite::prelude::*;
//! let netlist = benchmark_circuit(Benchmark::Adder8);
//! assert!(netlist.gate_count() > 0);
//! ```

/// Convenience re-exports of the most frequently used items across the
/// SuperFlow workspace.
pub mod prelude {
    pub use aqfp_cells::{
        AqfpCell, CellKind, LayerMap, ProcessRules, Technology, TechnologyRegistry,
    };
    pub use aqfp_netlist::generators::{benchmark_circuit, Benchmark};
    pub use aqfp_netlist::{GateId, Netlist};
    pub use aqfp_place::PlacementEngine;
    pub use aqfp_route::Router;
    pub use aqfp_synth::Synthesizer;
    pub use aqfp_timing::TimingAnalyzer;
    pub use superflow::{
        error_chain, Artifact, BatchConfig, BatchJob, BatchReport, BatchRunner, Checked,
        DesignReport, DesignStatus, Fault, FaultKind, FaultPlan, Flow, FlowConfig, FlowError,
        FlowObserver, FlowReport, FlowSession, FlowStage, LintConfig, LintReport, Placed,
        RepairScope, Routed, StageTimings, Synthesized, TechSpec, VerifyConfig, VerifyReport,
        LINT_STAGE, VERIFY_STAGE,
    };
}
