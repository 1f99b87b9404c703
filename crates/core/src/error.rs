//! The error type every flow stage returns.

use aqfp_lint::LintReport;
use aqfp_netlist::parsers::ParseNetlistError;
use aqfp_netlist::NetlistError;
use aqfp_synth::SynthesisError;
use aqfp_verify::VerifyReport;
use std::error::Error;
use std::fmt;

/// Errors a complete flow run can produce.
#[derive(Debug, Clone, PartialEq)]
pub enum FlowError {
    /// The RTL/netlist input could not be parsed.
    Parse(ParseNetlistError),
    /// Pre-flight lint found error-severity defects, so the flow refused to
    /// start. The full report — rule ids, messages, source spans — is
    /// carried along for rendering.
    Lint(LintReport),
    /// Post-stage verification found error-severity defects in a stage
    /// artifact, so the flow stopped at that stage boundary. The full
    /// report — rule ids, messages, offending objects — is carried along
    /// for rendering.
    Verify(VerifyReport),
    /// The input netlist failed validation.
    InvalidNetlist(NetlistError),
    /// The synthesis stage failed.
    Synthesis(SynthesisError),
    /// A stage-artifact checkpoint could not be serialized, parsed or
    /// validated. The message carries context: what was being loaded (and
    /// the file path, when the checkpoint came from disk) plus the cause.
    Checkpoint(String),
    /// The flow input could not be identified (e.g. an unrecognized file
    /// extension that is neither a netlist format nor a benchmark name).
    Input(String),
    /// A file could not be read or written.
    Io {
        /// The path involved.
        path: String,
        /// The underlying I/O error, rendered.
        message: String,
    },
    /// A stage was cancelled cooperatively before it completed; any partial
    /// work was discarded.
    Cancelled {
        /// The stage that observed the cancellation.
        stage: crate::session::FlowStage,
    },
    /// A stage's wall-clock deadline fired before it completed; any partial
    /// work was discarded.
    DeadlineExceeded {
        /// The stage that ran out of budget.
        stage: crate::session::FlowStage,
    },
    /// The configured technology could not be resolved (unknown registry
    /// name, unreadable file, parse or validation failure).
    Technology(String),
    /// A stage artifact was produced under a different technology than the
    /// session targets, so resuming it would silently mix process data.
    TechnologyMismatch {
        /// Fingerprint of the session's technology.
        expected: String,
        /// Fingerprint recorded in the artifact.
        found: String,
    },
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::Parse(e) => write!(f, "failed to parse input: {e}"),
            FlowError::Lint(report) => {
                let errors = report.errors().count();
                let rules: std::collections::BTreeSet<&str> =
                    report.errors().map(|d| d.rule.as_str()).collect();
                let rules: Vec<&str> = rules.into_iter().collect();
                write!(
                    f,
                    "design `{}` rejected by pre-flight lint: {errors} error{} ({}); run \
                     `superflow lint` for the full report",
                    report.design,
                    if errors == 1 { "" } else { "s" },
                    rules.join(", ")
                )
            }
            FlowError::Verify(report) => {
                let errors = report.errors().count();
                let rules: std::collections::BTreeSet<&str> =
                    report.errors().map(|d| d.rule.as_str()).collect();
                let rules: Vec<&str> = rules.into_iter().collect();
                write!(
                    f,
                    "design `{}` rejected by post-stage verification: {errors} error{} ({}); \
                     run `superflow verify` for the full report",
                    report.design,
                    if errors == 1 { "" } else { "s" },
                    rules.join(", ")
                )
            }
            FlowError::InvalidNetlist(e) => write!(f, "input netlist is invalid: {e}"),
            FlowError::Synthesis(e) => write!(f, "logic synthesis failed: {e}"),
            FlowError::Checkpoint(message) => write!(f, "checkpoint error: {message}"),
            FlowError::Input(message) => write!(f, "input error: {message}"),
            FlowError::Io { path, message } => write!(f, "io error on `{path}`: {message}"),
            FlowError::Cancelled { stage } => write!(f, "the {stage} stage was cancelled"),
            FlowError::DeadlineExceeded { stage } => {
                write!(f, "the {stage} stage exceeded its wall-clock deadline")
            }
            FlowError::Technology(message) => write!(f, "technology error: {message}"),
            FlowError::TechnologyMismatch { expected, found } => write!(
                f,
                "technology mismatch: this session targets `{expected}`, but the artifact was \
                 produced under `{found}`; resume with the original technology or re-run from \
                 the netlist"
            ),
        }
    }
}

impl Error for FlowError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FlowError::Parse(e) => Some(e),
            FlowError::InvalidNetlist(e) => Some(e),
            FlowError::Synthesis(e) => Some(e),
            FlowError::Lint(_)
            | FlowError::Verify(_)
            | FlowError::Checkpoint(_)
            | FlowError::Input(_)
            | FlowError::Io { .. }
            | FlowError::Cancelled { .. }
            | FlowError::DeadlineExceeded { .. }
            | FlowError::Technology(_)
            | FlowError::TechnologyMismatch { .. } => None,
        }
    }
}

impl From<ParseNetlistError> for FlowError {
    fn from(value: ParseNetlistError) -> Self {
        FlowError::Parse(value)
    }
}

impl From<SynthesisError> for FlowError {
    fn from(value: SynthesisError) -> Self {
        FlowError::Synthesis(value)
    }
}

impl From<NetlistError> for FlowError {
    fn from(value: NetlistError) -> Self {
        FlowError::InvalidNetlist(value)
    }
}

impl From<LintReport> for FlowError {
    fn from(value: LintReport) -> Self {
        FlowError::Lint(value)
    }
}

impl From<VerifyReport> for FlowError {
    fn from(value: VerifyReport) -> Self {
        FlowError::Verify(value)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use aqfp_netlist::GateId;

    #[test]
    fn errors_display_their_stage() {
        let parse: FlowError = FlowError::Parse(ParseNetlistError {
            line: 3,
            column: 0,
            message: "bad token".to_owned(),
        });
        assert!(parse.to_string().contains("parse"));
        let invalid: FlowError = NetlistError::Cycle { gate: GateId(0) }.into();
        assert!(invalid.to_string().contains("invalid"));
        assert!(std::error::Error::source(&invalid).is_some());
    }

    #[test]
    fn lint_errors_summarize_the_report() {
        let mut report = LintReport::clean("bad");
        report.diagnostics.push(aqfp_lint::Diagnostic {
            rule: "AQFP-E001".to_owned(),
            severity: aqfp_lint::Severity::Error,
            message: "combinational loop: g1 -> g2 -> g1".to_owned(),
            object: Some("g1".to_owned()),
            line: 4,
            column: 3,
        });
        let error: FlowError = report.into();
        let text = error.to_string();
        assert!(text.contains("pre-flight lint"), "{text}");
        assert!(text.contains("AQFP-E001"), "{text}");
        assert!(text.contains("1 error"), "{text}");
    }

    #[test]
    fn verify_errors_summarize_the_report() {
        let mut report = VerifyReport::clean("bad");
        report.record_check("phase");
        report.diagnostics.push(aqfp_lint::Diagnostic {
            rule: "AQFP-V010".to_owned(),
            severity: aqfp_lint::Severity::Error,
            message: "net n3 advances 2 phases".to_owned(),
            object: Some("u7".to_owned()),
            line: 0,
            column: 0,
        });
        let error: FlowError = report.into();
        let text = error.to_string();
        assert!(text.contains("post-stage verification"), "{text}");
        assert!(text.contains("AQFP-V010"), "{text}");
        assert!(text.contains("superflow verify"), "{text}");
    }
}
