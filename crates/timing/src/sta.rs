//! Static timing analysis for placed AQFP designs.

use serde::{Deserialize, Serialize};

use crate::model::signed_phase_distance;
use crate::TimingConfig;

/// A placed point-to-point connection, the unit of AQFP timing analysis.
///
/// After splitter insertion every AQFP net connects exactly one driver pin to
/// one sink pin on the next clock phase, so a net is fully described by its
/// phase, its endpoint x coordinates and its routed (or estimated) length.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlacedNet {
    /// Clock phase (row) of the driver.
    pub phase: usize,
    /// X coordinate of the driver pin, in µm.
    pub source_x: f64,
    /// X coordinate of the sink pin, in µm.
    pub sink_x: f64,
    /// Interconnect length, in µm (Manhattan estimate before routing, routed
    /// length after).
    pub length_um: f64,
}

/// The outcome of a static timing analysis run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimingReport {
    /// Worst negative slack in picoseconds. Positive when all constraints
    /// are met; the paper prints `-` in that case.
    pub wns_ps: f64,
    /// Total negative slack in picoseconds (sum of all violations, ≤ 0).
    pub tns_ps: f64,
    /// Number of nets violating their phase budget.
    pub violation_count: usize,
    /// Number of nets analyzed.
    pub net_count: usize,
}

impl TimingReport {
    /// Whether every net meets its timing constraint.
    pub fn meets_timing(&self) -> bool {
        self.violation_count == 0
    }

    /// The WNS formatted the way the paper's Table III prints it: `-` when
    /// there is no violation, the negative slack in ps otherwise.
    pub fn wns_display(&self) -> String {
        if self.meets_timing() {
            "-".to_owned()
        } else {
            format!("{:.1}", self.wns_ps)
        }
    }
}

/// Static timing analyzer for AQFP designs under four-phase clocking.
///
/// ```
/// use aqfp_timing::{PlacedNet, TimingAnalyzer, TimingConfig};
/// let analyzer = TimingAnalyzer::new(TimingConfig::default());
/// let slack = analyzer.net_slack(
///     &PlacedNet { phase: 0, source_x: 0.0, sink_x: 50.0, length_um: 150.0 },
///     1_000.0,
/// );
/// assert!(slack > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TimingAnalyzer {
    config: TimingConfig,
}

impl TimingAnalyzer {
    /// Creates an analyzer from a timing configuration.
    pub fn new(config: TimingConfig) -> Self {
        Self { config }
    }

    /// Creates an analyzer using the delay coefficients of a technology —
    /// the flow's way of constructing one, so the timing model can never
    /// drift from the process the other stages target.
    pub fn for_technology(technology: &aqfp_cells::Technology) -> Self {
        Self::new(technology.timing)
    }

    /// The analyzer's configuration.
    pub fn config(&self) -> &TimingConfig {
        &self.config
    }

    /// Propagation delay of a net: gate switching plus interconnect.
    pub fn net_delay_ps(&self, net: &PlacedNet) -> f64 {
        self.config.gate_delay_ps + self.config.wire_delay_ps_per_um * net.length_um
    }

    /// Slack of a single net against its phase budget, in picoseconds.
    ///
    /// The available budget is one clock phase, reduced (or extended) by the
    /// clock-skew term of the zigzag excitation: a sink placed upstream of
    /// the clock sweep must wait for the excitation to reach it, eating into
    /// the budget.
    pub fn net_slack(&self, net: &PlacedNet, layer_width: f64) -> f64 {
        let skew_distance = signed_phase_distance(net.phase, net.source_x, net.sink_x, layer_width);
        let skew_ps = self.config.clock_skew_ps_per_um * skew_distance.max(0.0);
        self.config.phase_budget_ps() - self.net_delay_ps(net) - skew_ps
    }

    /// Analyzes a set of nets and aggregates WNS/TNS.
    ///
    /// `layer_width` is the width `Ŵ` of the placement rows (the widest row
    /// of the design), used by the zigzag skew term.
    pub fn analyze(&self, nets: &[PlacedNet], layer_width: f64) -> TimingReport {
        let mut wns = f64::INFINITY;
        let mut tns = 0.0;
        let mut violations = 0;
        for net in nets {
            let slack = self.net_slack(net, layer_width);
            wns = wns.min(slack);
            if slack < 0.0 {
                tns += slack;
                violations += 1;
            }
        }
        if nets.is_empty() {
            wns = 0.0;
        }
        TimingReport {
            wns_ps: wns,
            tns_ps: tns,
            violation_count: violations,
            net_count: nets.len(),
        }
    }
}

impl Default for TimingAnalyzer {
    fn default() -> Self {
        Self::new(TimingConfig::default())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn analyzer() -> TimingAnalyzer {
        TimingAnalyzer::new(TimingConfig::paper_default())
    }

    #[test]
    fn short_nets_have_positive_slack() {
        let net = PlacedNet { phase: 0, source_x: 100.0, sink_x: 130.0, length_um: 130.0 };
        assert!(analyzer().net_slack(&net, 2_000.0) > 0.0);
    }

    #[test]
    fn very_long_nets_violate_timing() {
        let net = PlacedNet { phase: 1, source_x: 900.0, sink_x: 950.0, length_um: 1_200.0 };
        assert!(analyzer().net_slack(&net, 2_000.0) < 0.0);
    }

    #[test]
    fn upstream_sinks_lose_margin() {
        let a = analyzer();
        let downstream = PlacedNet { phase: 0, source_x: 100.0, sink_x: 50.0, length_um: 150.0 };
        let upstream = PlacedNet { phase: 0, source_x: 100.0, sink_x: 400.0, length_um: 150.0 };
        assert!(
            a.net_slack(&downstream, 1_000.0) > a.net_slack(&upstream, 1_000.0),
            "a sink downstream of the clock sweep must have more slack"
        );
    }

    #[test]
    fn report_aggregates_wns_and_tns() {
        let a = analyzer();
        let nets = vec![
            PlacedNet { phase: 0, source_x: 0.0, sink_x: 10.0, length_um: 100.0 },
            PlacedNet { phase: 2, source_x: 600.0, sink_x: 0.0, length_um: 1_600.0 },
            PlacedNet { phase: 3, source_x: 500.0, sink_x: 450.0, length_um: 2_000.0 },
        ];
        let report = a.analyze(&nets, 800.0);
        assert_eq!(report.net_count, 3);
        assert!(report.violation_count >= 1);
        assert!(report.wns_ps < 0.0);
        assert!(report.tns_ps <= report.wns_ps, "TNS accumulates every violation");
        assert!(!report.meets_timing());
        assert!(report.wns_display().starts_with('-'));
    }

    #[test]
    fn empty_analysis_meets_timing() {
        let report = analyzer().analyze(&[], 100.0);
        assert!(report.meets_timing());
        assert_eq!(report.wns_display(), "-");
        assert_eq!(report.net_count, 0);
    }

    #[test]
    fn delay_scales_with_length() {
        let a = analyzer();
        let short = PlacedNet { phase: 0, source_x: 0.0, sink_x: 0.0, length_um: 100.0 };
        let long = PlacedNet { phase: 0, source_x: 0.0, sink_x: 0.0, length_um: 400.0 };
        assert!(a.net_delay_ps(&long) > a.net_delay_ps(&short));
    }
}
