//! The configuration of the flow and its stages.

use std::sync::Arc;

use aqfp_cells::{Technology, TechnologyRegistry};
use aqfp_place::{PlacementOptions, PlacerKind};
use aqfp_route::RouterConfig;
use aqfp_synth::SynthesisOptions;
use serde::{Deserialize, Serialize};

use crate::error::FlowError;

/// Where the flow's technology (PDK) description comes from.
///
/// The flow is generic over the fabrication process: everything
/// process-specific lives in one [`Technology`] value, and this spec says
/// how to obtain it — by registry name, from a dumped-and-edited file, or
/// inline.
///
/// ```
/// use superflow::{FlowConfig, TechSpec};
/// let config = FlowConfig::fast().with_tech(TechSpec::builtin("aist-stp2"));
/// assert_eq!(config.resolve_technology().unwrap().rules().max_wirelength, 500.0);
/// ```
// The `Inline` variant dwarfs the other two; that is fine — a `FlowConfig`
// is constructed a handful of times per run, never stored in bulk, and an
// unboxed `Technology` keeps `TechSpec::Inline(tech)` ergonomic (the
// vendored serde has no `Box` support).
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TechSpec {
    /// A built-in technology from the [`TechnologyRegistry`]
    /// (`mit-ll-sqf5ee`, `aist-stp2`).
    Builtin(String),
    /// A technology file on disk — TOML (`superflow tech dump` format) or
    /// JSON, dispatched on a case-insensitive `.json` extension.
    File(String),
    /// A fully constructed technology value.
    Inline(Technology),
}

impl TechSpec {
    /// A builtin spec from a registry name.
    pub fn builtin(name: impl Into<String>) -> Self {
        TechSpec::Builtin(name.into())
    }

    /// A file spec from a path.
    pub fn file(path: impl Into<String>) -> Self {
        TechSpec::File(path.into())
    }

    /// Resolves the spec to a shared technology, validating it.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::Technology`] for unknown registry names,
    /// unreadable files, and parse or validation failures.
    pub fn resolve(&self) -> Result<Arc<Technology>, FlowError> {
        match self {
            TechSpec::Builtin(name) => TechnologyRegistry::global().get(name).ok_or_else(|| {
                FlowError::Technology(format!(
                    "no built-in technology named `{name}` (available: {})",
                    TechnologyRegistry::global().names().collect::<Vec<_>>().join(", ")
                ))
            }),
            TechSpec::File(path) => {
                let text = std::fs::read_to_string(path).map_err(|e| {
                    FlowError::Technology(format!("cannot read technology file `{path}`: {e}"))
                })?;
                let is_json = std::path::Path::new(path)
                    .extension()
                    .is_some_and(|ext| ext.eq_ignore_ascii_case("json"));
                let technology = if is_json {
                    Technology::from_json(&text)
                } else {
                    Technology::from_toml(&text)
                }
                .map_err(|e| FlowError::Technology(format!("technology file `{path}`: {e}")))?;
                Ok(Arc::new(technology))
            }
            TechSpec::Inline(technology) => {
                technology
                    .validate()
                    .map_err(|e| FlowError::Technology(format!("inline technology: {e}")))?;
                Ok(Arc::new(technology.clone()))
            }
        }
    }

    /// A short human-readable description of the spec, for logs.
    pub fn describe(&self) -> String {
        match self {
            TechSpec::Builtin(name) => format!("builtin `{name}`"),
            TechSpec::File(path) => format!("file `{path}`"),
            TechSpec::Inline(technology) => format!("inline `{}`", technology.name),
        }
    }
}

impl Default for TechSpec {
    fn default() -> Self {
        TechSpec::Builtin(aqfp_cells::MIT_LL_SQF5EE.to_owned())
    }
}

/// Configuration of a complete RTL-to-GDS run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FlowConfig {
    /// The technology (PDK) to target — a built-in registry name, a
    /// technology file, or an inline value. Selects the cell geometry,
    /// design rules, clock, timing coefficients and GDS layer map for every
    /// stage at once.
    pub tech: TechSpec,
    /// Placement strategy (SuperFlow, or GORDIAN-based or TAAS for Table III).
    pub placer: PlacerKind,
    /// Logic synthesis options.
    pub synthesis: SynthesisOptions,
    /// Placement options.
    pub placement: PlacementOptions,
    /// Router options.
    pub router: RouterConfig,
    /// Maximum number of DRC-fix iterations before the flow gives up and
    /// reports the remaining violations.
    pub max_drc_iterations: usize,
    /// Pre-flight lint policy: per-rule severity overrides and rule
    /// parameters. The defaults deny nothing extra and suppress nothing —
    /// error-severity rules gate the flow, warnings are reported and the
    /// flow proceeds.
    pub lint: aqfp_lint::LintConfig,
    /// Post-stage verification policy. When
    /// [`enabled`](aqfp_verify::VerifyConfig::enabled) is set, every stage
    /// boundary re-verifies its artifact (LEC after synthesis,
    /// phase-legality after placement and routing, LVS-lite after layout)
    /// and fails the stage with [`FlowError::Verify`] on findings. Off by
    /// default.
    pub verify: aqfp_verify::VerifyConfig,
}

impl FlowConfig {
    /// The configuration used for the paper's evaluation: MIT-LL process,
    /// SuperFlow placer, default stage options.
    pub fn paper_default() -> Self {
        Self {
            tech: TechSpec::default(),
            placer: PlacerKind::SuperFlow,
            synthesis: SynthesisOptions::default(),
            placement: PlacementOptions::default(),
            router: RouterConfig::default(),
            max_drc_iterations: 3,
            lint: aqfp_lint::LintConfig::default(),
            verify: aqfp_verify::VerifyConfig::default(),
        }
    }

    /// A faster configuration for tests and examples: fewer global-placement
    /// iterations and detailed-placement passes, same flow structure.
    pub fn fast() -> Self {
        let mut config = Self::paper_default();
        config.placement.global.iterations = 150;
        config.placement.detailed.passes = 2;
        config
    }

    /// Returns the same configuration with a different placer, for baseline
    /// comparisons.
    pub fn with_placer(mut self, placer: PlacerKind) -> Self {
        self.placer = placer;
        self
    }

    /// Returns the same configuration targeting a different technology.
    pub fn with_tech(mut self, tech: TechSpec) -> Self {
        self.tech = tech;
        self
    }

    /// Returns the same configuration targeting an inline technology value.
    pub fn with_technology(self, technology: Technology) -> Self {
        self.with_tech(TechSpec::Inline(technology))
    }

    /// Returns the same configuration with an explicit worker-thread count
    /// for the parallel flow stages: channel routing, the detailed
    /// placer's row sweeps and the global placer's shards. `0` uses every
    /// available core, `1` forces strictly serial execution; the flow
    /// result is identical for every setting.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.router.threads = threads;
        self.placement.detailed.threads = threads;
        self.placement.global.threads = threads;
        self
    }

    /// The worker-thread count the parallel flow stages will use (`0` =
    /// every available core).
    pub fn threads(&self) -> usize {
        self.router.threads
    }

    /// Returns the same configuration with a different lint policy.
    pub fn with_lint(mut self, lint: aqfp_lint::LintConfig) -> Self {
        self.lint = lint;
        self
    }

    /// Returns the same configuration with a different post-stage
    /// verification policy. `with_verify(VerifyConfig { enabled: true,
    /// ..Default::default() })` turns on the stage-boundary gates.
    pub fn with_verify(mut self, verify: aqfp_verify::VerifyConfig) -> Self {
        self.verify = verify;
        self
    }

    /// The slice of this configuration the lint config-sanity rules inspect.
    pub fn lint_settings(&self) -> aqfp_lint::FlowSettings {
        aqfp_lint::FlowSettings {
            threads: self.threads(),
            max_splitter_arity: self.synthesis.max_splitter_arity,
            max_drc_iterations: self.max_drc_iterations,
        }
    }

    /// The slice of this configuration the predictive feasibility analysis
    /// ([`aqfp_predict::predict`]) runs under: the lint-visible flow
    /// settings, the severity policy (shared with lint, so `--deny
    /// AQFP-P004` works the same way as `--deny AQFP-W009`), and the router
    /// configuration the congestion forecast mirrors.
    pub fn predict_options(&self) -> aqfp_predict::PredictOptions {
        aqfp_predict::PredictOptions {
            settings: self.lint_settings(),
            lint: self.lint.clone(),
            router: self.router,
        }
    }

    /// Resolves [`FlowConfig::tech`] to the shared, validated technology
    /// every stage of a session built from this configuration will target.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::Technology`] when the spec cannot be resolved.
    pub fn resolve_technology(&self) -> Result<Arc<Technology>, FlowError> {
        self.tech.resolve()
    }
}

impl Default for FlowConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use aqfp_cells::MIT_LL_SQF5EE;

    #[test]
    fn default_targets_mit_ll_and_superflow() {
        let config = FlowConfig::default();
        assert_eq!(config.tech, TechSpec::builtin(MIT_LL_SQF5EE));
        assert_eq!(config.placer, PlacerKind::SuperFlow);
        assert!(config.max_drc_iterations >= 1);
        assert_eq!(config.resolve_technology().unwrap().name, MIT_LL_SQF5EE);
    }

    /// The delay coefficients a flow runs under are its technology's
    /// `timing` field: the paper's model by default, and whatever an
    /// inline technology carries otherwise.
    #[test]
    fn config_is_the_technology_field() {
        let timing = FlowConfig::default().resolve_technology().unwrap().timing;
        assert_eq!(timing, aqfp_timing::TimingConfig::paper_default());
        assert!((timing.phase_budget_ps() - 50.0).abs() < 1e-9);

        let mut tech = Technology::mit_ll_sqf5ee();
        tech.timing.alpha = 3.0;
        let config = FlowConfig::fast().with_technology(tech);
        assert_eq!(config.resolve_technology().unwrap().timing.alpha, 3.0);
    }

    #[test]
    fn fast_config_is_cheaper() {
        let fast = FlowConfig::fast();
        let full = FlowConfig::paper_default();
        assert!(fast.placement.global.iterations < full.placement.global.iterations);
    }

    #[test]
    fn with_placer_switches_strategy() {
        let config = FlowConfig::default().with_placer(PlacerKind::Taas);
        assert_eq!(config.placer, PlacerKind::Taas);
    }

    #[test]
    fn with_tech_switches_rules_and_process_maps_to_builtin_names() {
        let config = FlowConfig::default().with_tech(TechSpec::builtin("aist-stp2"));
        let technology = config.resolve_technology().expect("resolves");
        assert_eq!(technology.rules().name, "AIST STP2");
        // Builders chain in any order.
        let chained = FlowConfig::fast()
            .with_tech(TechSpec::builtin(MIT_LL_SQF5EE))
            .with_placer(PlacerKind::GordianBased)
            .with_threads(2);
        assert_eq!(chained.tech, TechSpec::builtin(MIT_LL_SQF5EE));
        assert_eq!(chained.placer, PlacerKind::GordianBased);
        assert_eq!(chained.threads(), 2);
    }

    #[test]
    fn unknown_builtin_names_fail_with_the_available_list() {
        let config = FlowConfig::default().with_tech(TechSpec::builtin("tba-9000"));
        let err = config.resolve_technology().expect_err("unknown name");
        let message = err.to_string();
        assert!(message.contains("tba-9000"), "{message}");
        assert!(message.contains(MIT_LL_SQF5EE), "lists the available names: {message}");
    }

    #[test]
    fn inline_technologies_are_validated_on_resolution() {
        let mut technology = Technology::mit_ll_sqf5ee();
        technology.rules.grid = -1.0;
        let config = FlowConfig::default().with_technology(technology);
        assert!(matches!(
            config.resolve_technology(),
            Err(FlowError::Technology(message)) if message.contains("grid")
        ));
    }

    #[test]
    fn missing_tech_files_fail_loudly() {
        let config = FlowConfig::default().with_tech(TechSpec::file("/no/such/tech.toml"));
        let err = config.resolve_technology().expect_err("missing file");
        assert!(err.to_string().contains("/no/such/tech.toml"), "{err}");
    }

    #[test]
    fn with_threads_reaches_every_parallel_stage() {
        let config = FlowConfig::default().with_threads(3);
        assert_eq!(config.threads(), 3);
        assert_eq!(config.router.threads, 3);
        assert_eq!(config.placement.detailed.threads, 3);
        assert_eq!(config.placement.global.threads, 3);
        // Default is auto (0): use every available core.
        assert_eq!(FlowConfig::default().threads(), 0);
        assert_eq!(FlowConfig::default().placement.detailed.threads, 0);
        assert_eq!(FlowConfig::default().placement.global.threads, 0);
    }

    #[test]
    fn lint_settings_mirror_the_flow_configuration() {
        let config = FlowConfig::fast().with_threads(2);
        let settings = config.lint_settings();
        assert_eq!(settings.threads, 2);
        assert_eq!(settings.max_splitter_arity, config.synthesis.max_splitter_arity);
        assert_eq!(settings.max_drc_iterations, config.max_drc_iterations);
        // The lint crate's defaults are the paper defaults' settings.
        assert_eq!(aqfp_lint::FlowSettings::default(), FlowConfig::paper_default().lint_settings());
        // with_lint swaps the policy wholesale.
        let strict = config
            .with_lint(aqfp_lint::LintConfig { deny: vec!["all".into()], ..Default::default() });
        assert_eq!(strict.lint.deny, vec!["all".to_owned()]);
    }

    #[test]
    fn predict_options_mirror_the_flow_configuration() {
        let mut config = FlowConfig::fast().with_threads(2);
        config.lint.deny.push("AQFP-P002".to_owned());
        config.router.initial_tracks = 7;
        let options = config.predict_options();
        assert_eq!(options.settings, config.lint_settings());
        assert_eq!(options.lint.deny, vec!["AQFP-P002".to_owned()]);
        assert_eq!(options.router.initial_tracks, 7);
    }

    #[test]
    fn verification_is_off_by_default_and_togglable() {
        assert!(!FlowConfig::default().verify.enabled);
        let config = FlowConfig::fast()
            .with_verify(aqfp_verify::VerifyConfig { enabled: true, ..Default::default() });
        assert!(config.verify.enabled);
        assert!(config.verify.lec_rounds > 0);
    }

    #[test]
    fn tech_spec_serde_round_trips() {
        for spec in [
            TechSpec::builtin("aist-stp2"),
            TechSpec::file("custom.toml"),
            TechSpec::Inline(Technology::mit_ll_sqf5ee()),
        ] {
            let json = serde_json::to_string(&spec).expect("serializes");
            let back: TechSpec = serde_json::from_str(&json).expect("parses");
            assert_eq!(back, spec);
        }
    }
}
