//! Post-stage static verification for AQFP flows.
//!
//! Where `aqfp-lint` checks a design *before* the flow runs, this crate
//! re-checks the flow's *outputs* from first principles, with three
//! independent verifiers:
//!
//! - **LEC** ([`check_equivalence`]) — proves the synthesized MAJ/buffer
//!   netlist computes the same function as the input netlist, by 64-way
//!   bit-parallel random simulation plus exhaustive enumeration of every
//!   output cone with at most [`VerifyConfig::lec_exhaustive_inputs`]
//!   primary inputs. Failures carry a concrete counterexample vector.
//! - **Phase-legality** ([`check_placed`], [`check_routed`]) — re-derives
//!   the AQFP clocking discipline (every edge advances exactly one phase,
//!   fan-out within splitter arity, wires on-grid inside their channel and
//!   ending on their cells' pins) from the raw placed/routed data, without
//!   trusting the engines' bookkeeping.
//! - **LVS-lite** ([`check_gds`]) — parses the emitted GDSII byte stream
//!   back into cell instances and wire segments and checks a 1:1
//!   structural match against the routed netlist, so layout bugs read as
//!   "net n42 missing a segment in channel 7", not a golden-byte diff.
//!
//! All verifiers fold their findings into a serde-round-trippable
//! [`VerifyReport`] with stable `AQFP-V0xx` rule ids (catalogued by
//! [`catalog`]). The `superflow verify` CLI subcommand and the optional
//! per-stage gate behind `FlowConfig::verify` are thin wrappers over these
//! functions.
//!
//! ```
//! use aqfp_verify::{check_equivalence, VerifyConfig, VerifyReport};
//! use aqfp_netlist::generators::{benchmark_circuit, Benchmark};
//! use aqfp_synth::Synthesizer;
//!
//! let input = benchmark_circuit(Benchmark::Adder8);
//! let synthesized = Synthesizer::new(aqfp_cells::Technology::mit_ll_sqf5ee())
//!     .run(&input)
//!     .expect("synthesis succeeds");
//! let config = VerifyConfig { enabled: true, ..VerifyConfig::default() };
//! let mut report = VerifyReport::clean(input.name());
//! report.record_check("lec");
//! report.extend(check_equivalence(&input, &synthesized.netlist, &config));
//! assert!(!report.has_errors());
//! ```

#![warn(clippy::unwrap_used)]
#![warn(missing_docs)]

pub mod bitsim;
pub mod lec;
pub mod lvs;
pub mod mutate;
pub mod phase;
pub mod report;

use aqfp_lint::{RuleInfo, Severity};
use serde::{Deserialize, Serialize};

pub use bitsim::BitSimulator;
pub use lec::check_equivalence;
pub use lvs::check_gds;
pub use mutate::Defect;
pub use phase::{check_placed, check_routed};
pub use report::VerifyReport;

/// Tuning for post-stage verification.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VerifyConfig {
    /// When set, flow sessions verify each stage artifact at the stage
    /// boundary and fail the stage on findings. Off by default: verification
    /// roughly doubles stage cost on large designs.
    pub enabled: bool,
    /// Random-simulation rounds for LEC (64 input vectors per round).
    pub lec_rounds: usize,
    /// Seed for the LEC random-vector generator.
    pub lec_seed: u64,
    /// Output cones with at most this many primary inputs are additionally
    /// checked exhaustively (every assignment). Capped in practice by
    /// runtime: `2^n` assignments per cone.
    pub lec_exhaustive_inputs: usize,
}

impl Default for VerifyConfig {
    fn default() -> Self {
        Self { enabled: false, lec_rounds: 32, lec_seed: 1, lec_exhaustive_inputs: 16 }
    }
}

/// All verification rules with their severities and one-line summaries, for
/// `superflow verify --rules` and the README rule catalog.
pub fn catalog() -> Vec<RuleInfo> {
    vec![
        RuleInfo {
            id: lec::RULE_FUNCTION_MISMATCH,
            severity: Severity::Error,
            summary: "synthesized output computes a different function than the input netlist",
        },
        RuleInfo {
            id: lec::RULE_INTERFACE_MISMATCH,
            severity: Severity::Error,
            summary: "primary input/output interface differs between input and synthesized netlist",
        },
        RuleInfo {
            id: lec::RULE_NOT_SIMULATABLE,
            severity: Severity::Error,
            summary: "a netlist cannot be simulated (invalid structure or combinational cycle)",
        },
        RuleInfo {
            id: phase::RULE_PHASE_SKEW,
            severity: Severity::Error,
            summary: "a driver→sink edge does not advance exactly one clock phase",
        },
        RuleInfo {
            id: phase::RULE_FANOUT,
            severity: Severity::Error,
            summary: "a cell overdrives its outputs or a splitter exceeds max_splitter_arity",
        },
        RuleInfo {
            id: phase::RULE_WIRE_GEOMETRY,
            severity: Severity::Error,
            summary: "a routed wire is off-grid, non-rectilinear or escapes its channel",
        },
        RuleInfo {
            id: phase::RULE_COVERAGE,
            severity: Severity::Error,
            summary: "nets and wires do not match 1:1 (missing, duplicate or dangling)",
        },
        RuleInfo {
            id: phase::RULE_PIN_END,
            severity: Severity::Error,
            summary: "a routed wire does not start or end on its cells' pin columns",
        },
        RuleInfo {
            id: lvs::RULE_GDS_MALFORMED,
            severity: Severity::Error,
            summary: "the GDS byte stream is malformed or misses the library skeleton",
        },
        RuleInfo {
            id: lvs::RULE_MASTER_SET,
            severity: Severity::Error,
            summary: "cell-master structures do not match the design's cell kinds",
        },
        RuleInfo {
            id: lvs::RULE_INSTANCE,
            severity: Severity::Error,
            summary: "a placed cell and the GDS cell references disagree",
        },
        RuleInfo {
            id: lvs::RULE_WIRE_CONNECTIVITY,
            severity: Severity::Error,
            summary: "a routed net and the GDS wire paths disagree",
        },
    ]
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn rule_ids_are_stable_and_unique() {
        let rules = catalog();
        assert_eq!(rules.len(), 12);
        let mut ids: Vec<&str> = rules.iter().map(|r| r.id).collect();
        for id in &ids {
            assert!(id.starts_with("AQFP-V"), "{id}");
            let digits = &id["AQFP-V".len()..];
            assert_eq!(digits.len(), 3, "{id}");
            assert!(digits.chars().all(|c| c.is_ascii_digit()), "{id}");
        }
        let sorted = ids.clone();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids, sorted, "catalog is sorted and free of duplicates");
    }

    #[test]
    fn config_serde_round_trips() {
        let config = VerifyConfig { enabled: true, lec_rounds: 7, ..VerifyConfig::default() };
        let json = serde_json::to_string(&config).unwrap();
        let back: VerifyConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, config);
    }
}
