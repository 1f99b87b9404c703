//! Structured verification reports.
//!
//! A verification run produces a [`VerifyReport`]: one
//! [`Diagnostic`] per finding, reusing the lint
//! crate's diagnostic model so editors and CI scripts consume one JSON
//! schema for both pre-flight lint and post-stage verification. The report
//! additionally records which checks actually ran (`lec`, `phase`, `lvs`),
//! so a clean report can be told apart from a report that never exercised a
//! verifier.

use aqfp_lint::{diagnostics, Diagnostic, Severity};
use serde::{Deserialize, Serialize};

/// The outcome of verifying one design's stage artifacts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VerifyReport {
    /// The verified design's name.
    pub design: String,
    /// Names of the checks that ran (`"lec"`, `"phase"`, `"lvs"`), in run
    /// order. A check that was skipped (e.g. LEC without the input netlist)
    /// is absent.
    pub checks: Vec<String>,
    /// All findings, ordered by severity (errors first), then rule id.
    pub diagnostics: Vec<Diagnostic>,
}

impl VerifyReport {
    /// An empty (clean) report for `design` with no checks recorded yet.
    pub fn clean(design: impl Into<String>) -> Self {
        Self { design: design.into(), checks: Vec::new(), diagnostics: Vec::new() }
    }

    /// Records that a check ran (idempotent).
    pub fn record_check(&mut self, check: &str) {
        if !self.checks.iter().any(|c| c == check) {
            self.checks.push(check.to_owned());
        }
    }

    /// Whether a given check ran.
    pub fn ran(&self, check: &str) -> bool {
        self.checks.iter().any(|c| c == check)
    }

    /// Appends findings from one verifier.
    pub fn extend(&mut self, diagnostics: impl IntoIterator<Item = Diagnostic>) {
        self.diagnostics.extend(diagnostics);
    }

    /// Merges another report into this one (checks and findings).
    pub fn merge(&mut self, other: VerifyReport) {
        for check in &other.checks {
            self.record_check(check);
        }
        self.diagnostics.extend(other.diagnostics);
    }

    /// Sorts diagnostics into report order, the order lint and predict
    /// reports use ([`diagnostics::normalize`]).
    pub fn normalize(&mut self) {
        diagnostics::normalize(&mut self.diagnostics);
    }

    /// The error-severity findings.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(|d| d.severity == Severity::Error)
    }

    /// Whether any finding is an error (the artifact must be rejected).
    pub fn has_errors(&self) -> bool {
        diagnostics::has_errors(&self.diagnostics)
    }

    /// Whether a given rule fired at least once.
    pub fn mentions(&self, rule: &str) -> bool {
        diagnostics::mentions(&self.diagnostics, rule)
    }

    /// Renders the report as human-readable text, one line per finding plus
    /// a summary line naming the checks that ran.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for diagnostic in &self.diagnostics {
            out.push_str(&diagnostic.to_string());
            out.push('\n');
        }
        let checks =
            if self.checks.is_empty() { "no checks".to_owned() } else { self.checks.join("+") };
        let errors = self.errors().count();
        if self.diagnostics.is_empty() {
            out.push_str(&format!("{}: clean ({checks}), no findings\n", self.design));
        } else {
            out.push_str(&format!(
                "{}: {} error{} ({checks})\n",
                self.design,
                errors,
                if errors == 1 { "" } else { "s" },
            ));
        }
        out
    }
}

/// Builds an error-severity diagnostic for a verify rule. Verification has
/// no source text, so spans are zero; the offending object (cell, net or
/// output name) carries the location instead.
pub(crate) fn violation(
    rule: &str,
    message: impl Into<String>,
    object: Option<String>,
) -> Diagnostic {
    Diagnostic {
        rule: rule.to_owned(),
        severity: Severity::Error,
        message: message.into(),
        object,
        line: 0,
        column: 0,
    }
}

/// At most this many diagnostics are emitted per rule; the rest collapse
/// into one summary finding so a massively corrupted artifact cannot
/// produce a gigabyte report.
pub(crate) const PER_RULE_CAP: usize = 32;

/// Truncates `found` to the per-rule cap, appending a summary diagnostic
/// when findings were dropped.
pub(crate) fn capped(rule: &str, mut found: Vec<Diagnostic>) -> Vec<Diagnostic> {
    if found.len() > PER_RULE_CAP {
        let total = found.len();
        found.truncate(PER_RULE_CAP);
        found.push(violation(
            rule,
            format!(
                "… {} further {rule} finding(s) suppressed ({total} total)",
                total - PER_RULE_CAP
            ),
            None,
        ));
    }
    found
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn sample() -> VerifyReport {
        let mut report = VerifyReport::clean("dut");
        report.record_check("phase");
        report.record_check("lec");
        report.record_check("phase");
        report.extend([
            violation("AQFP-V010", "edge skips a phase", Some("u7".into())),
            violation("AQFP-V001", "output s3 differs", Some("s3".into())),
        ]);
        report
    }

    #[test]
    fn checks_record_once_in_run_order() {
        let report = sample();
        assert_eq!(report.checks, vec!["phase", "lec"]);
        assert!(report.ran("lec"));
        assert!(!report.ran("lvs"));
    }

    #[test]
    fn normalize_sorts_by_rule_within_a_severity() {
        let mut report = sample();
        report.normalize();
        assert_eq!(report.diagnostics[0].rule, "AQFP-V001");
        assert_eq!(report.diagnostics[1].rule, "AQFP-V010");
        assert!(report.has_errors());
        assert!(report.mentions("AQFP-V010"));
        assert!(!report.mentions("AQFP-V020"));
    }

    #[test]
    fn report_serde_round_trips() {
        let mut report = sample();
        report.normalize();
        let json = serde_json::to_string(&report).unwrap();
        assert!(json.contains("\"rule\":\"AQFP-V001\""), "{json}");
        assert!(json.contains("\"checks\""), "{json}");
        let back: VerifyReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn render_names_the_checks_and_totals() {
        let text = sample().render();
        assert!(text.contains("error[AQFP-V010]"), "{text}");
        assert!(text.contains("dut: 2 errors (phase+lec)"), "{text}");
        let mut clean = VerifyReport::clean("ok");
        clean.record_check("lvs");
        assert!(clean.render().contains("ok: clean (lvs), no findings"));
    }

    #[test]
    fn merge_combines_checks_and_findings() {
        let mut a = sample();
        let mut b = VerifyReport::clean("dut");
        b.record_check("lvs");
        b.extend([violation("AQFP-V023", "net n1 missing a segment in channel 0", None)]);
        a.merge(b);
        assert_eq!(a.checks, vec!["phase", "lec", "lvs"]);
        assert_eq!(a.diagnostics.len(), 3);
    }
}
