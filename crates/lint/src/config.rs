//! Lint configuration: per-rule severity overrides and rule parameters.

use serde::{Deserialize, Serialize};

use crate::diagnostics::Severity;

/// Per-run lint policy, settable from the CLI (`--deny`/`--warn`/`--allow`)
/// or the flow configuration.
///
/// Override precedence is allow > deny > warn: a rule listed in `allow` never
/// fires, one in `deny` fires as an error, one in `warn` as a warning;
/// otherwise the rule's built-in default severity applies. The magic rule
/// name `all` matches every rule (`--deny all` turns every finding into an
/// error).
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct LintConfig {
    /// Rule ids forced to [`Severity::Error`].
    pub deny: Vec<String>,
    /// Rule ids forced to [`Severity::Warn`].
    pub warn: Vec<String>,
    /// Rule ids suppressed entirely.
    pub allow: Vec<String>,
    /// Fan-out above which `AQFP-W009` fires. `None` uses the default of
    /// `max_splitter_arity²` (16 for the paper's library): one full level of
    /// splitter tree, beyond which splitter depth starts to dominate delay.
    pub fanout_threshold: Option<usize>,
}

fn matches(list: &[String], rule: &str) -> bool {
    list.iter().any(|entry| entry == rule || entry == "all")
}

impl LintConfig {
    /// The effective severity for `rule`, or `None` when the rule is
    /// suppressed via `allow`.
    pub fn severity_for(&self, rule: &str, default: Severity) -> Option<Severity> {
        if matches(&self.allow, rule) {
            None
        } else if matches(&self.deny, rule) {
            Some(Severity::Error)
        } else if matches(&self.warn, rule) {
            Some(Severity::Warn)
        } else {
            Some(default)
        }
    }

    /// The fan-out threshold `AQFP-W009` uses given the flow's splitter
    /// arity.
    pub fn effective_fanout_threshold(&self, max_splitter_arity: usize) -> usize {
        self.fanout_threshold
            .unwrap_or_else(|| max_splitter_arity.saturating_mul(max_splitter_arity).max(2))
    }
}

/// The slice of the flow configuration the config-sanity rules inspect.
///
/// `aqfp-lint` sits below `superflow` in the crate graph, so the flow crate
/// populates this view from its own `FlowConfig` instead of the lint crate
/// depending on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlowSettings {
    /// Worker threads the flow will use (0 = auto-detect).
    pub threads: usize,
    /// Largest splitter arity synthesis may instantiate.
    pub max_splitter_arity: usize,
    /// DRC repair iteration budget (0 disables repair).
    pub max_drc_iterations: usize,
}

impl Default for FlowSettings {
    fn default() -> Self {
        // Mirrors `SynthesisOptions::default()` and the flow's paper defaults.
        Self { threads: 0, max_splitter_arity: 4, max_drc_iterations: 3 }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn severity_override_precedence() {
        let config = LintConfig {
            deny: vec!["AQFP-W009".into()],
            warn: vec!["AQFP-E005".into(), "AQFP-W009".into()],
            allow: vec!["AQFP-W006".into()],
            fanout_threshold: None,
        };
        // deny beats warn, allow beats everything, defaults pass through.
        assert_eq!(config.severity_for("AQFP-W009", Severity::Warn), Some(Severity::Error));
        assert_eq!(config.severity_for("AQFP-E005", Severity::Error), Some(Severity::Warn));
        assert_eq!(config.severity_for("AQFP-W006", Severity::Warn), None);
        assert_eq!(config.severity_for("AQFP-E001", Severity::Error), Some(Severity::Error));
    }

    #[test]
    fn the_all_wildcard_matches_every_rule() {
        let deny_all = LintConfig { deny: vec!["all".into()], ..LintConfig::default() };
        assert_eq!(deny_all.severity_for("AQFP-W006", Severity::Info), Some(Severity::Error));
        let allow_all = LintConfig { allow: vec!["all".into()], ..LintConfig::default() };
        assert_eq!(allow_all.severity_for("AQFP-E001", Severity::Error), None);
    }

    #[test]
    fn fanout_threshold_defaults_to_arity_squared() {
        let config = LintConfig::default();
        assert_eq!(config.effective_fanout_threshold(4), 16);
        assert_eq!(config.effective_fanout_threshold(2), 4);
        let fixed = LintConfig { fanout_threshold: Some(5), ..LintConfig::default() };
        assert_eq!(fixed.effective_fanout_threshold(4), 5);
    }

    #[test]
    fn config_serde_round_trips() {
        let config = LintConfig {
            deny: vec!["all".into()],
            warn: vec![],
            allow: vec!["AQFP-W008".into()],
            fanout_threshold: Some(9),
        };
        let json = serde_json::to_string(&config).unwrap();
        let back: LintConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, config);
    }
}
