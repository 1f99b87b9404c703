//! Four-phase clocking timing model and static timing analysis for AQFP.
//!
//! AQFP circuits are powered by zigzagging AC clock lines: within each clock
//! phase the excitation current sweeps horizontally across the row, so the
//! timing margin of a connection depends not only on its length but also on
//! *where* its endpoints sit relative to the clock propagation direction —
//! this is the phase-dependent cost `T(e_i)` of Eq. (2) in the paper.
//!
//! The crate provides:
//!
//! * [`model`] — the phase-dependent placement timing cost (Eq. 2);
//! * [`sta`] — a simple static timing analysis engine computing per-net
//!   slack, worst negative slack (WNS) and total negative slack (TNS) at a
//!   target clock frequency (5 GHz in the paper's evaluation);
//! * [`batch`] — a structure-of-arrays [`TimingBatch`] and the batched
//!   [`TimingAnalyzer::analyze_batch`] path, bit-for-bit identical to the
//!   scalar analysis but allocation-free over a reused batch;
//! * [`TimingConfig`] — the delay coefficients of the model.
//!
//! # Examples
//!
//! ```
//! use aqfp_timing::{PlacedNet, TimingAnalyzer, TimingConfig};
//!
//! let analyzer = TimingAnalyzer::new(TimingConfig::default());
//! let nets = vec![PlacedNet { phase: 0, source_x: 0.0, sink_x: 120.0, length_um: 220.0 }];
//! let report = analyzer.analyze(&nets, 1_000.0);
//! assert_eq!(report.net_count, 1);
//! ```

#![warn(clippy::unwrap_used)]

pub mod batch;
pub mod model;
pub mod sta;

pub use aqfp_cells::timing::TimingConfig;
pub use batch::TimingBatch;
pub use model::{phase_timing_cost, signed_phase_distance};
pub use sta::{PlacedNet, TimingAnalyzer, TimingReport};
