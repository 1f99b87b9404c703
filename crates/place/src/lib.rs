//! Timing-aware row-wise placement for AQFP circuits.
//!
//! AQFP placement differs from CMOS placement in two fundamental ways: the
//! row of every cell is fixed by its clock phase (path balancing already
//! assigned it), and the four-phase zigzag clock couples a cell's horizontal
//! position to its timing margin. This crate implements the placement stage
//! of SuperFlow (§III-C of the paper):
//!
//! * [`design`] — the physical view of a synthesized netlist: rows, cells,
//!   two-pin nets, HPWL and spacing checks, plus the bridge to the batched
//!   timing engine (an in-place fill of an `aqfp_timing::TimingBatch`);
//! * [`global`] — an analytical global placer with a smooth weighted-average
//!   wirelength model, the phase-dependent timing cost of Eq. (2) and a
//!   max-wirelength penalty (a CPU stand-in for the DREAMPlace engine);
//! * [`legalize`] — Tetris-based row legalization on the 10 µm grid;
//! * [`detailed`] — timing-aware detailed placement with flexible
//!   mixed-cell-size swapping (Fig. 4 of the paper), evaluated by delta
//!   cost over a flat cell→net incidence structure with parallel,
//!   deterministic row sweeps (serial and parallel results are
//!   byte-identical — see the module docs for the contract);
//! * [`parallel`] — the worker-count policy and the ordered worker pool
//!   shared with the channel router and the batch driver;
//! * [`buffer_rows`] — insertion of buffer rows for connections exceeding
//!   the maximum wirelength;
//! * [`engine`] — the [`PlacementEngine`] tying the pipeline together. It
//!   runs the SuperFlow placer and, through the same steps with their own
//!   tuning, the two comparison points of Table III: the GORDIAN-based
//!   placer of [Li et al., DATE'21] (the global placer's quadratic warm
//!   start, then legalization) and the timing-aware TAAS placer of
//!   [Dong et al., DAC'22] (same-size-only detailed swaps).
//!
//! # Examples
//!
//! ```
//! use aqfp_cells::Technology;
//! use aqfp_netlist::generators::{benchmark_circuit, Benchmark};
//! use aqfp_place::{PlacementEngine, PlacerKind};
//! use aqfp_synth::Synthesizer;
//!
//! let library = Technology::mit_ll_sqf5ee();
//! let synthesized = Synthesizer::new(library.clone())
//!     .run(&benchmark_circuit(Benchmark::Adder8))?;
//! let engine = PlacementEngine::new(library);
//! let result = engine.place(&synthesized, PlacerKind::SuperFlow);
//! assert!(result.hpwl_um > 0.0);
//! # Ok::<(), aqfp_synth::SynthesisError>(())
//! ```

#![warn(clippy::unwrap_used)]

pub mod buffer_rows;
pub mod design;
pub mod detailed;
pub mod engine;
pub mod global;
pub mod legalize;
pub mod parallel;

pub use buffer_rows::BufferRowReport;
pub use design::{PhysNet, PlacedCell, PlacedDesign};
pub use detailed::DetailedPlacementConfig;
pub use engine::{PlacementEngine, PlacementOptions, PlacementResult, PlacerKind};
pub use global::{GlobalPlacementConfig, GlobalPlacementReport};
pub use parallel::{effective_threads, ThreadBudget};
