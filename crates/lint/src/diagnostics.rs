//! Structured lint diagnostics.
//!
//! A lint run produces a [`LintReport`]: one [`Diagnostic`] per finding, each
//! carrying a stable rule identifier, a [`Severity`], the offending object's
//! name and its source location. Reports serialize losslessly through serde,
//! so `superflow lint --format json` output can be consumed by editors and CI
//! scripts.

use serde::{Deserialize, Error as SerdeError, Serialize, Value};
use std::fmt;

use aqfp_netlist::SourceSpan;

/// How severe a finding is.
///
/// Ordered so that `Info < Warn < Error`; a report's overall severity is the
/// maximum over its diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational note; never affects exit status.
    Info,
    /// Suspicious but not necessarily wrong; flow proceeds.
    Warn,
    /// Definite defect; the flow refuses to start.
    Error,
}

impl Severity {
    /// The lowercase keyword used in JSON output and CLI flags.
    pub fn keyword(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Error => "error",
        }
    }

    /// Parses the CLI/JSON keyword back into a severity.
    pub fn from_keyword(keyword: &str) -> Option<Severity> {
        match keyword {
            "info" => Some(Severity::Info),
            "warn" | "warning" => Some(Severity::Warn),
            "error" => Some(Severity::Error),
            _ => None,
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.keyword())
    }
}

// Serialized as the bare keyword string ("error"/"warn"/"info") rather than
// the derive's variant spelling, so the JSON schema is stable even if the
// Rust-side names change.
impl Serialize for Severity {
    fn to_value(&self) -> Value {
        Value::Str(self.keyword().to_owned())
    }
}

impl Deserialize for Severity {
    fn from_value(value: &Value) -> Result<Self, SerdeError> {
        let text = value.as_str()?;
        Severity::from_keyword(text)
            .ok_or_else(|| SerdeError::new(format!("unknown severity `{text}`")))
    }
}

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Diagnostic {
    /// Stable rule identifier, e.g. `AQFP-E001`.
    pub rule: String,
    /// Effective severity (after `--deny`/`--warn` overrides).
    pub severity: Severity,
    /// Human-readable description of the finding.
    pub message: String,
    /// The offending object (instance, net or option name), when one exists.
    pub object: Option<String>,
    /// 1-based source line (0 when the finding has no source location).
    pub line: usize,
    /// 1-based source column (0 when only the line is known).
    pub column: usize,
}

impl Diagnostic {
    /// The source location of the finding.
    pub fn span(&self) -> SourceSpan {
        SourceSpan::new(self.line, self.column)
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.severity, self.rule, self.message)?;
        if self.line != 0 {
            write!(f, " ({})", self.span())?;
        }
        if let Some(object) = &self.object {
            write!(f, " [`{object}`]")?;
        }
        Ok(())
    }
}

/// Sorts findings into report order: severity descending, then rule id,
/// then source position, then object — the one deterministic order of
/// lint, predict and verify reports.
pub fn normalize(diagnostics: &mut [Diagnostic]) {
    diagnostics.sort_by(|a, b| {
        b.severity
            .cmp(&a.severity)
            .then_with(|| a.rule.cmp(&b.rule))
            .then_with(|| (a.line, a.column).cmp(&(b.line, b.column)))
            .then_with(|| a.object.cmp(&b.object))
    });
}

/// Whether any finding is an error.
pub fn has_errors(diagnostics: &[Diagnostic]) -> bool {
    diagnostics.iter().any(|d| d.severity == Severity::Error)
}

/// Whether a given rule fired at least once.
pub fn mentions(diagnostics: &[Diagnostic], rule: &str) -> bool {
    diagnostics.iter().any(|d| d.rule == rule)
}

/// Appends one line per finding and a summary line to `out`: `<design>:
/// <clean>` when there is none, else `<design>: N errors, M warnings`.
pub fn render_findings(out: &mut String, design: &str, diagnostics: &[Diagnostic], clean: &str) {
    for diagnostic in diagnostics {
        out.push_str(&diagnostic.to_string());
        out.push('\n');
    }
    let count = |severity| diagnostics.iter().filter(|d| d.severity == severity).count();
    let plural = |n: usize| if n == 1 { "" } else { "s" };
    let (errors, warnings) = (count(Severity::Error), count(Severity::Warn));
    if diagnostics.is_empty() {
        out.push_str(&format!("{design}: {clean}\n"));
    } else {
        out.push_str(&format!(
            "{design}: {errors} error{}, {warnings} warning{}\n",
            plural(errors),
            plural(warnings)
        ));
    }
}

/// The outcome of linting one design.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LintReport {
    /// The linted design's name.
    pub design: String,
    /// All findings, ordered by severity (errors first), then rule id.
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// An empty (clean) report for `design`.
    pub fn clean(design: impl Into<String>) -> Self {
        Self { design: design.into(), diagnostics: Vec::new() }
    }

    /// Sorts diagnostics into report order (see [`normalize`]).
    pub fn normalize(&mut self) {
        normalize(&mut self.diagnostics);
    }

    /// The error-severity findings.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(|d| d.severity == Severity::Error)
    }

    /// The warn-severity findings.
    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(|d| d.severity == Severity::Warn)
    }

    /// Whether any finding is an error (the flow must refuse the design).
    pub fn has_errors(&self) -> bool {
        has_errors(&self.diagnostics)
    }

    /// Whether a given rule fired at least once.
    pub fn mentions(&self, rule: &str) -> bool {
        mentions(&self.diagnostics, rule)
    }

    /// Renders the report as human-readable text, one line per finding plus
    /// a summary line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        render_findings(&mut out, &self.design, &self.diagnostics, "clean, no findings");
        out
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn sample_report() -> LintReport {
        LintReport {
            design: "bad".into(),
            diagnostics: vec![
                Diagnostic {
                    rule: "AQFP-W009".into(),
                    severity: Severity::Warn,
                    message: "fan-out 17 exceeds threshold 16".into(),
                    object: Some("a".into()),
                    line: 2,
                    column: 9,
                },
                Diagnostic {
                    rule: "AQFP-E001".into(),
                    severity: Severity::Error,
                    message: "combinational loop: g1 -> g2 -> g1".into(),
                    object: Some("g1".into()),
                    line: 4,
                    column: 3,
                },
            ],
        }
    }

    #[test]
    fn severity_orders_and_round_trips_keywords() {
        assert!(Severity::Info < Severity::Warn);
        assert!(Severity::Warn < Severity::Error);
        for severity in [Severity::Info, Severity::Warn, Severity::Error] {
            assert_eq!(Severity::from_keyword(severity.keyword()), Some(severity));
        }
        assert_eq!(Severity::from_keyword("warning"), Some(Severity::Warn));
        assert_eq!(Severity::from_keyword("fatal"), None);
    }

    #[test]
    fn report_serde_round_trips() {
        let report = sample_report();
        let json = serde_json::to_string(&report).unwrap();
        assert!(json.contains("\"severity\":\"error\""), "{json}");
        assert!(json.contains("\"rule\":\"AQFP-E001\""), "{json}");
        let back: LintReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn normalize_puts_errors_first() {
        let mut report = sample_report();
        report.normalize();
        assert_eq!(report.diagnostics[0].rule, "AQFP-E001");
        assert!(report.has_errors());
        assert_eq!(report.errors().count(), 1);
        assert_eq!(report.warnings().count(), 1);
    }

    #[test]
    fn render_mentions_every_finding_and_totals() {
        let report = sample_report();
        let text = report.render();
        assert!(text.contains("error[AQFP-E001]"), "{text}");
        assert!(text.contains("warn[AQFP-W009]"), "{text}");
        assert!(text.contains("line 4, column 3"), "{text}");
        assert!(text.contains("bad: 1 error, 1 warning"), "{text}");
        assert!(LintReport::clean("ok").render().contains("clean"));
    }

    #[test]
    fn findings_render_the_clean_line_or_plural_totals() {
        let mut out = String::new();
        render_findings(&mut out, "d", &[], "feasible, no findings");
        assert_eq!(out, "d: feasible, no findings\n");
        let mut report = sample_report();
        report.diagnostics[0].severity = Severity::Error;
        out.clear();
        render_findings(&mut out, "d", &report.diagnostics, "clean");
        assert_eq!(out.lines().count(), 3, "{out}");
        assert!(out.ends_with("d: 2 errors, 0 warnings\n"), "{out}");
    }
}
