//! SuperFlow: a fully-customized RTL-to-GDS design automation flow for
//! Adiabatic Quantum-Flux-Parametron (AQFP) superconducting circuits.
//!
//! This crate is the top of the SuperFlow workspace: it wires the individual
//! stages — majority-based logic synthesis ([`aqfp_synth`]), timing-aware
//! row-wise placement ([`aqfp_place`]), layer-wise A* routing
//! ([`aqfp_route`]) and GDSII layout generation with DRC
//! ([`aqfp_layout`]) — into the single push-button pipeline of Fig. 3 in the
//! paper, from an RTL-level netlist to a final GDSII layout.
//!
//! # Quick start
//!
//! ```
//! use aqfp_netlist::generators::{benchmark_circuit, Benchmark};
//! use superflow::{FlowConfig, FlowSession};
//!
//! let mut session = FlowSession::new(FlowConfig::fast())?;
//! let checked = session.run(&benchmark_circuit(Benchmark::Adder8))?;
//! let placement = &checked.routed.placed.placement;
//! println!(
//!     "{} JJs, HPWL {:.0} µm, WNS {}, DRC clean: {}",
//!     checked.routed.placed.synthesized.stats().jj_count,
//!     placement.hpwl_um,
//!     placement.wns_display(),
//!     checked.drc.is_clean(),
//! );
//! println!("{}; {:.1}s", checked.summary(), session.timings().total_s());
//! let gds_bytes = checked.layout.to_gds_bytes();
//! assert!(!gds_bytes.is_empty());
//! # Ok::<(), superflow::FlowError>(())
//! ```
//!
//! # Staged sessions
//!
//! [`FlowSession::run`] is one call through the staged [`FlowSession`] API:
//! each stage returns a typed, inspectable artifact
//! ([`Synthesized`] → [`Placed`] → [`Routed`] → [`Checked`]) that
//! serializes to a resumable JSON checkpoint; drivers that loop over the
//! stages hold one [`Artifact`] and call [`FlowSession::advance`]. The
//! [`Checked`] artifact is the flow's result, and its checkpoint is the
//! report `superflow --report` writes. Observers ([`FlowObserver`]) watch
//! stage boundaries and DRC-repair iterations, and
//! [`FlowSession::timings`] accumulates per-stage wall-clock time from the
//! moment the session opens. The DRC-repair loop repairs on the placement
//! and the check stage routes once after it, incrementally: the router
//! reroutes only the channels whose nets or pin columns changed (see
//! [`session`]).
//!
//! # Batch runs
//!
//! [`BatchRunner`] (`superflow batch` on the CLI) drives many designs
//! through the flow on a pool of worker threads with a fault boundary
//! around each design: per-stage panic isolation, cooperative wall-clock
//! deadlines, one degraded retry before a design is classified failed, and
//! crash-safe journaling of stage checkpoints so a killed batch resumes
//! from the last completed stage with byte-identical results. See the
//! [`batch`] module docs for the fault model.
//!
//! # Pre-flight lint
//!
//! Before any stage engine runs, the flow lints its inputs ([`lint`], the
//! `aqfp-lint` crate): [`FlowSession::new`] checks the resolved technology
//! and flow configuration, [`FlowSession::synthesize`] checks the netlist
//! graph (combinational loops, undriven nets, unmappable cell kinds, …),
//! and the batch driver classifies rejected designs as failed at the
//! pre-flight "lint" stage without starting the flow. Error-severity
//! findings surface as [`FlowError::Lint`] carrying the full
//! [`LintReport`]; the policy (deny/warn/allow per rule) lives in
//! [`FlowConfig::lint`]. The `superflow lint` CLI subcommand runs the same
//! rules standalone, with human-readable or JSON output.
//!
//! # Predictive analysis
//!
//! Between "what the netlist is" (lint) and "what the flow did" (verify)
//! sits "what the flow *will* do": the predictive feasibility analysis
//! ([`predict`], the `aqfp-predict` crate) derives phase-depth intervals,
//! cell-count and die-size bounds, a channel-congestion forecast and a
//! calibrated stage cost model from the parsed netlist alone — no stage
//! engine runs. Its `AQFP-P0xx` findings fold into the same pre-flight
//! report as the lint rules ([`lint_design`], [`FlowSession::lint`]), so a
//! provably-infeasible design is rejected before synthesis; the batch
//! driver additionally uses the per-stage cost forecast to schedule
//! longest-predicted-first and reports it next to the measured stage
//! times, while its per-stage deadline stays the flat `--stage-timeout`
//! (see [`batch`]). Run it standalone with `superflow predict`.
//!
//! # Post-stage verification
//!
//! Where lint checks the *inputs*, the verification layer ([`verify`], the
//! `aqfp-verify` crate) re-checks the flow's *outputs* from first
//! principles: logic equivalence between the input and synthesized
//! netlists (bit-parallel random plus exhaustive cone simulation),
//! AQFP phase-legality of placed and routed designs, and LVS-lite
//! extraction of the emitted GDS byte stream against the routed netlist.
//! Enable it per stage boundary with [`FlowConfig::verify`] (findings
//! surface as [`FlowError::Verify`] carrying the full [`VerifyReport`]
//! with stable `AQFP-V0xx` rule ids), run it standalone with
//! `superflow verify`, or let the batch driver classify failures at its
//! [`VERIFY_STAGE`].
//!
//! # Technologies
//!
//! The flow is generic over the fabrication process: every stage consumes
//! one shared [`Technology`](aqfp_cells::Technology) (cell geometry, design
//! rules, clock, timing coefficients, GDS layer map), selected through
//! [`FlowConfig::tech`] as a [`TechSpec`] — a built-in registry name
//! (`mit-ll-sqf5ee`, `aist-stp2`), a technology file dumped with
//! `superflow tech dump` and edited by hand, or an inline value. Session
//! checkpoints embed the technology fingerprint, so resuming an artifact
//! under a different process fails loudly instead of mixing data.
//!
//! The individual stages also remain available through the re-exported
//! crates for users who want to customize a single step (e.g. swap in their
//! own placer) while keeping the rest of the flow.

#![warn(clippy::unwrap_used)]

pub mod batch;
pub mod config;
pub mod error;
pub mod input;
pub mod session;

pub use batch::{
    error_chain, BatchConfig, BatchJob, BatchReport, BatchRunner, DesignReport, DesignStatus,
    Fault, FaultKind, FaultPlan, LINT_STAGE, VERIFY_STAGE,
};
pub use config::{FlowConfig, TechSpec};
pub use error::FlowError;
pub use input::{load_design, load_netlist};
pub use session::{
    lint_design, Artifact, Checked, FlowObserver, FlowSession, FlowStage, Placed, RepairScope,
    Routed, StageTimings, Synthesized,
};

// Re-export the stage crates so downstream users can depend on `superflow`
// alone.
pub use aqfp_cells as cells;
pub use aqfp_layout as layout;
pub use aqfp_lint as lint;
pub use aqfp_lint::{LintConfig, LintReport};
pub use aqfp_netlist as netlist;
pub use aqfp_place as place;
pub use aqfp_predict as predict;
pub use aqfp_predict::{PredictOptions, PredictReport};
pub use aqfp_route as route;
pub use aqfp_synth as synth;
pub use aqfp_timing as timing;
pub use aqfp_verify as verify;
pub use aqfp_verify::{VerifyConfig, VerifyReport};
