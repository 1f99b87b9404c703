//! Netlist file-format parsers.
//!
//! SuperFlow's paper uses Yosys to turn RTL Verilog into a gate-level AOI
//! netlist. Yosys is an external C++ tool, so this reproduction substitutes
//! two light-weight front-ends that produce the same in-memory [`crate::Netlist`]:
//!
//! * [`verilog`] — a structural-Verilog subset (gate-primitive instantiations
//!   of `and`/`or`/`not`/...), sufficient for hand-written RTL netlists;
//! * [`blif`] — gate-level BLIF using `.gate` records, the format the EPFL
//!   SCE-benchmarks distribute their AQFP benchmarks in.
//!
//! Both front-ends track exact line *and* column positions (surfaced through
//! [`ParseNetlistError`] and per-gate [`SourceSpan`]s on the parsed netlist)
//! and offer a *recovering* mode ([`verilog::parse_verilog_recovering`],
//! [`blif::parse_blif_recovering`]): instead of failing on the first undriven
//! signal, the parser binds each one to an injected constant-0 placeholder
//! gate and records a [`RecoveredDefect`] per signal, so a static-analysis
//! pass can report every defect with its source location in one shot. The
//! strict entry points are the recovering ones plus "fail on the first
//! recorded defect", so their behaviour is unchanged.

pub mod blif;
#[cfg(test)]
mod reference;
mod source;
pub mod verilog;

pub use blif::{parse_blif, parse_blif_recovering};
pub use verilog::{parse_verilog, parse_verilog_recovering};

use std::error::Error;
use std::fmt;

use crate::gate::GateId;
use crate::netlist::Netlist;
use crate::span::SourceSpan;

/// Name prefix of the constant-0 placeholder gates the recovering parsers
/// inject for undriven signals. No legal Verilog/BLIF identifier contains
/// `$`, so placeholders can never collide with (or be spoofed by) real
/// instance names.
pub const PLACEHOLDER_PREFIX: &str = "undriven$";

/// Error produced while parsing a netlist file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseNetlistError {
    /// 1-based line number where the problem was found (0 if global).
    pub line: usize,
    /// 1-based column number (0 if only the line is known).
    pub column: usize,
    /// Human-readable description of the problem.
    pub message: String,
}

impl ParseNetlistError {
    pub(crate) fn new(line: usize, message: impl Into<String>) -> Self {
        Self { line, column: 0, message: message.into() }
    }

    pub(crate) fn at(span: SourceSpan, message: impl Into<String>) -> Self {
        Self { line: span.line, column: span.column, message: message.into() }
    }

    /// The source location of the error.
    pub fn span(&self) -> SourceSpan {
        SourceSpan::new(self.line, self.column)
    }
}

impl fmt::Display for ParseNetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "parse error: {}", self.message)
        } else if self.column == 0 {
            write!(f, "parse error at line {}: {}", self.line, self.message)
        } else {
            write!(f, "parse error at line {}, column {}: {}", self.line, self.column, self.message)
        }
    }
}

impl Error for ParseNetlistError {}

/// What kind of defect the recovering parser patched around.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveredKind {
    /// A signal referenced as a gate input has no driver; a constant-0
    /// placeholder was bound in its place.
    UndrivenSignal,
    /// A declared primary output has no driver.
    UndrivenOutput,
}

/// One defect the recovering parser patched instead of failing on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveredDefect {
    /// The undriven signal's name as written in the source.
    pub signal: String,
    /// Whether the signal was an internal net or a declared output.
    pub kind: RecoveredKind,
    /// Where the defect was observed: the first referencing use for internal
    /// signals, the declaration for outputs.
    pub span: SourceSpan,
    /// The injected placeholder gate standing in for the missing driver.
    pub placeholder: GateId,
}

/// The result of a recovering parse: a structurally complete netlist plus
/// the list of defects that were patched to get there. An empty `recovered`
/// list means the source was clean.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedDesign {
    /// The parsed netlist, with placeholder gates bound where drivers were
    /// missing.
    pub netlist: Netlist,
    /// The patched defects, in the order the strict parser would have
    /// reported them.
    pub recovered: Vec<RecoveredDefect>,
}

/// Converts a recovering parse into the strict contract: the first patched
/// defect becomes the error the strict parsers have always produced.
pub(crate) fn strictify(design: ParsedDesign) -> Result<Netlist, ParseNetlistError> {
    match design.recovered.first() {
        None => Ok(design.netlist),
        Some(defect) => {
            let what = match defect.kind {
                RecoveredKind::UndrivenSignal => "signal",
                RecoveredKind::UndrivenOutput => "output",
            };
            Err(ParseNetlistError::at(
                defect.span,
                format!("{what} `{}` is never driven", defect.signal),
            ))
        }
    }
}
