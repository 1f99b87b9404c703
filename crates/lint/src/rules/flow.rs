//! Sanity rules for the flow configuration (`AQFP-E201`, `AQFP-W202`).

use crate::context::LintContext;
use crate::diagnostics::Severity;
use crate::rules::{Finding, Rule};

/// `AQFP-E201`: the flow configuration would make synthesis panic or emit an
/// illegal netlist.
///
/// `max_splitter_arity < 2` trips the splitter-insertion assertion outright;
/// `> 4` makes the balanced-tree builder hang more sinks on a `Splitter4`
/// than it has outputs, violating the fan-out rule it exists to enforce.
pub struct ConfigInvalid;

impl Rule for ConfigInvalid {
    fn id(&self) -> &'static str {
        "AQFP-E201"
    }

    fn severity(&self) -> Severity {
        Severity::Error
    }

    fn summary(&self) -> &'static str {
        "flow configuration would break synthesis"
    }

    fn needs_netlist(&self) -> bool {
        false
    }

    fn check(&self, ctx: &LintContext<'_>) -> Vec<Finding> {
        let arity = ctx.settings.max_splitter_arity;
        let mut findings = Vec::new();
        if arity < 2 {
            findings.push(Finding::on(
                "max_splitter_arity",
                aqfp_netlist::SourceSpan::UNKNOWN,
                format!("max_splitter_arity is {arity}; splitters need at least 2 outputs"),
            ));
        } else if arity > 4 {
            findings.push(Finding::on(
                "max_splitter_arity",
                aqfp_netlist::SourceSpan::UNKNOWN,
                format!(
                    "max_splitter_arity is {arity}, but the largest library splitter has 4 \
                     outputs; splitter trees would overload Splitter4 cells"
                ),
            ));
        }
        findings
    }
}

/// `AQFP-W202`: the flow configuration is legal but degenerate — it silently
/// disables a stage or requests an implausible amount of parallelism.
pub struct ConfigDegenerate;

impl Rule for ConfigDegenerate {
    fn id(&self) -> &'static str {
        "AQFP-W202"
    }

    fn severity(&self) -> Severity {
        Severity::Warn
    }

    fn summary(&self) -> &'static str {
        "flow configuration is legal but degenerate"
    }

    fn needs_netlist(&self) -> bool {
        false
    }

    fn check(&self, ctx: &LintContext<'_>) -> Vec<Finding> {
        let mut findings = Vec::new();
        if ctx.settings.max_drc_iterations == 0 {
            findings.push(Finding::on(
                "max_drc_iterations",
                aqfp_netlist::SourceSpan::UNKNOWN,
                "max_drc_iterations is 0: DRC violations will be reported but never repaired",
            ));
        }
        if ctx.settings.threads > 256 {
            findings.push(Finding::on(
                "threads",
                aqfp_netlist::SourceSpan::UNKNOWN,
                format!(
                    "thread count {} is implausibly large; oversubscription will slow the flow",
                    ctx.settings.threads
                ),
            ));
        }
        findings
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use aqfp_cells::Technology;

    use crate::{lint_setup, FlowSettings, LintConfig};

    fn run(settings: FlowSettings) -> crate::LintReport {
        lint_setup("d", &Technology::mit_ll_sqf5ee(), &settings, &LintConfig::default())
    }

    #[test]
    fn e201_rejects_out_of_range_splitter_arity() {
        for arity in [0, 1, 5, 64] {
            let report = run(FlowSettings { max_splitter_arity: arity, ..FlowSettings::default() });
            assert!(report.mentions("AQFP-E201"), "arity {arity}: {}", report.render());
            assert!(report.has_errors());
        }
        for arity in 2..=4 {
            let report = run(FlowSettings { max_splitter_arity: arity, ..FlowSettings::default() });
            assert!(!report.mentions("AQFP-E201"), "arity {arity}: {}", report.render());
        }
    }

    #[test]
    fn w202_flags_degenerate_but_legal_settings() {
        let report = run(FlowSettings { max_drc_iterations: 0, ..FlowSettings::default() });
        assert!(report.mentions("AQFP-W202"), "{}", report.render());
        assert!(!report.has_errors(), "{}", report.render());

        let report = run(FlowSettings { threads: 1024, ..FlowSettings::default() });
        assert!(report.mentions("AQFP-W202"), "{}", report.render());

        let report = run(FlowSettings::default());
        assert!(!report.mentions("AQFP-W202"), "{}", report.render());
    }
}
