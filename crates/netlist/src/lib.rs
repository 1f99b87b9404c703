//! Gate-level netlist data model for AQFP design automation.
//!
//! This crate provides the logical representation every SuperFlow stage works
//! on:
//!
//! * [`Netlist`] — a directed acyclic graph of gates ([`Gate`]) identified by
//!   [`GateId`]; primary inputs and outputs are explicit virtual gates;
//! * [`traverse`] — topological ordering, logic levels and cone extraction;
//! * [`simulate`] — boolean simulation used to verify that synthesis
//!   transformations preserve functionality;
//! * [`parsers`] — readers for a structural-Verilog subset and gate-level
//!   BLIF, standing in for the Yosys front-end of the paper; both record
//!   [`SourceSpan`]s and offer a recovering mode that patches undriven
//!   signals so static analysis can report them all at once;
//! * [`generators`] — programmatic constructions of the paper's benchmark
//!   circuits (Kogge-Stone adder, approximate parallel counters, decoder,
//!   sorting network, ISCAS'85-like circuits).
//!
//! # Examples
//!
//! ```
//! use aqfp_netlist::generators::{benchmark_circuit, Benchmark};
//!
//! let adder = benchmark_circuit(Benchmark::Adder8);
//! assert_eq!(adder.primary_inputs().len(), 17); // two 8-bit operands + carry-in
//! assert!(adder.validate().is_ok());
//! ```

#![warn(clippy::unwrap_used)]

pub mod csr;
pub mod gate;
pub mod generators;
pub mod netlist;
pub mod parsers;
pub mod simulate;
pub mod span;
pub mod stats;
pub mod traverse;
pub mod writers;

pub use csr::Csr;
pub use gate::{Gate, GateId};
pub use netlist::{Netlist, NetlistError};
pub use span::SourceSpan;
pub use stats::NetlistStats;
