//! AQFP technology descriptions: standard cells, process design rules,
//! clocking, timing coefficients and GDS layer maps.
//!
//! Adiabatic Quantum-Flux-Parametron (AQFP) circuits are built from a small
//! set of majority-based cells driven by a four-phase AC clock. This crate
//! models the static technology information the rest of the SuperFlow flow
//! depends on — and bundles *all* of it into one loadable [`Technology`]
//! (PDK) description:
//!
//! * [`Technology`] — everything process-specific in one value: design
//!   rules, the cell geometry table, the clock and delay coefficients and
//!   the GDS [`LayerMap`]; dumps to and loads from TOML/JSON (see
//!   [`technology`] for the field-by-field file format);
//! * [`TechnologyRegistry`] — the built-in `mit-ll-sqf5ee` and `aist-stp2`
//!   processes, shipped as data;
//! * [`CellKind`] / [`AqfpCell`] — the cell types, their dimensions, pin
//!   geometry and Josephson-junction (JJ) cost;
//! * [`ProcessRules`] — spacing, maximum-wirelength and routing-layer rules;
//! * [`TimingConfig`] — the delay coefficients of the AQFP timing model;
//! * [`clocking`] — the four-phase zigzag clock model that gives every logic
//!   level (row) its clock phase.
//!
//! # Examples
//!
//! ```
//! use aqfp_cells::{CellKind, Technology};
//!
//! let tech = Technology::mit_ll_sqf5ee();
//! let buf = tech.cell(CellKind::Buffer);
//! assert_eq!(buf.jj_count, 2);
//! assert!(buf.width < tech.cell(CellKind::Majority3).width);
//!
//! // The whole description round-trips through an editable TOML file.
//! let dumped = tech.to_toml().unwrap();
//! assert_eq!(Technology::from_toml(&dumped).unwrap(), tech);
//! ```

pub mod cancel;
pub mod cell;
pub mod clocking;
pub mod energy;
pub mod geometry;
pub mod layers;
pub mod process;
pub mod technology;
pub mod timing;
pub mod toml;

pub use cancel::{CancelReason, CancelToken};
pub use cell::{AqfpCell, CellKind, PinDirection, PinGeometry};
pub use clocking::{ClockPhase, FourPhaseClock};
pub use energy::EnergyModel;
pub use geometry::{Orientation, Point, Rect};
pub use layers::LayerMap;
pub use process::ProcessRules;
pub use technology::{Technology, TechnologyRegistry, AIST_STP2, MIT_LL_SQF5EE};
pub use timing::TimingConfig;
