//! Structure-of-arrays batch layout for high-throughput timing analysis.
//!
//! [`TimingBatch`] stores the per-net timing inputs (`phase`, `source_x`,
//! `sink_x`, `length_um`) in four contiguous arrays instead of an array of
//! [`PlacedNet`] structs. The batched analyzer walks those arrays in index
//! order with every configuration coefficient hoisted out of the loop, so
//! the whole analysis runs allocation-free over dense, cache-friendly data.
//!
//! # Determinism contract
//!
//! [`TimingAnalyzer::analyze_batch`] evaluates exactly the same arithmetic
//! expression per net, in the same index order, as the scalar
//! [`TimingAnalyzer::analyze`]. The two paths therefore produce **bit-for-bit
//! identical** [`TimingReport`]s for the same nets — asserted by this
//! module's tests and by the repository-level property tests over every
//! benchmark circuit.

use serde::{Deserialize, Serialize};

use crate::sta::{PlacedNet, TimingAnalyzer, TimingReport};

/// Structure-of-arrays storage for a set of placed nets.
///
/// All four arrays always have the same length; index `i` across them
/// describes one net, equivalent to one [`PlacedNet`].
///
/// ```
/// use aqfp_timing::{PlacedNet, TimingAnalyzer, TimingBatch};
/// let nets = [PlacedNet { phase: 0, source_x: 0.0, sink_x: 50.0, length_um: 150.0 }];
/// let batch = TimingBatch::from_nets(&nets);
/// let analyzer = TimingAnalyzer::default();
/// assert_eq!(analyzer.analyze_batch(&batch, 1_000.0), analyzer.analyze(&nets, 1_000.0));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TimingBatch {
    /// Clock phase (row) of each driver.
    phase: Vec<u32>,
    /// X coordinate of each driver pin, in µm.
    source_x: Vec<f64>,
    /// X coordinate of each sink pin, in µm.
    sink_x: Vec<f64>,
    /// Interconnect length of each net, in µm.
    length_um: Vec<f64>,
}

impl TimingBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty batch with room for `capacity` nets.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            phase: Vec::with_capacity(capacity),
            source_x: Vec::with_capacity(capacity),
            sink_x: Vec::with_capacity(capacity),
            length_um: Vec::with_capacity(capacity),
        }
    }

    /// Builds a batch from an array-of-structs net list.
    pub fn from_nets(nets: &[PlacedNet]) -> Self {
        let mut batch = Self::with_capacity(nets.len());
        for net in nets {
            batch.push(*net);
        }
        batch
    }

    /// Number of nets in the batch.
    pub fn len(&self) -> usize {
        self.phase.len()
    }

    /// Whether the batch holds no nets.
    pub fn is_empty(&self) -> bool {
        self.phase.is_empty()
    }

    /// Removes every net, keeping the allocations.
    pub fn clear(&mut self) {
        self.phase.clear();
        self.source_x.clear();
        self.sink_x.clear();
        self.length_um.clear();
    }

    /// Appends a net.
    pub fn push(&mut self, net: PlacedNet) {
        self.phase.push(net.phase as u32);
        self.source_x.push(net.source_x);
        self.sink_x.push(net.sink_x);
        self.length_um.push(net.length_um);
    }

    /// The contiguous per-net arrays `(phase, source_x, sink_x, length_um)`.
    pub fn as_slices(&self) -> (&[u32], &[f64], &[f64], &[f64]) {
        (&self.phase, &self.source_x, &self.sink_x, &self.length_um)
    }
}

impl TimingAnalyzer {
    /// Analyzes a batch of nets, producing the same [`TimingReport`]
    /// **bit-for-bit** as [`TimingAnalyzer::analyze`] over the equivalent
    /// [`PlacedNet`] slice.
    ///
    /// The loop walks the four SoA arrays in index order with the model
    /// coefficients hoisted out, performing no allocation; per-net the
    /// arithmetic is exactly the scalar `net_slack` expression, so the WNS
    /// min-chain and the TNS accumulation visit identical values in
    /// identical order.
    pub fn analyze_batch(&self, batch: &TimingBatch, layer_width: f64) -> TimingReport {
        let config = self.config();
        let budget_ps = config.phase_budget_ps();
        let gate_delay_ps = config.gate_delay_ps;
        let wire_delay_ps_per_um = config.wire_delay_ps_per_um;
        let clock_skew_ps_per_um = config.clock_skew_ps_per_um;

        let n = batch.len();
        let (phases, sources, sinks, lengths) = batch.as_slices();
        // Reslicing to a common length lets the optimizer drop the
        // per-element bounds checks on all four arrays.
        let (phases, sources, sinks, lengths) =
            (&phases[..n], &sources[..n], &sinks[..n], &lengths[..n]);

        let two_w = 2.0 * layer_width;
        // One net's slack: the scalar `net_slack` arithmetic, expression
        // for expression. The zigzag dispatch intentionally hand-mirrors
        // `model::signed_phase_distance` (each arm is the helper's
        // expression verbatim; `two_w - sink_x - source_x` groups like
        // `2.0 * layer_width - x_end - x_start`) instead of calling it:
        // this if-chain codegen measures ~2x faster across the batch loop,
        // and any drift from the model is caught by the bit-identity tests
        // against the scalar analyzer on every benchmark circuit.
        let slack_of = |i: usize| -> f64 {
            let (source_x, sink_x) = (sources[i], sinks[i]);
            let phase = phases[i] % 4;
            let skew_distance = if phase == 0 {
                sink_x - source_x
            } else if phase == 1 {
                sink_x + source_x
            } else if phase == 2 {
                source_x - sink_x
            } else {
                two_w - sink_x - source_x
            };
            let skew_ps = clock_skew_ps_per_um * skew_distance.max(0.0);
            let delay_ps = gate_delay_ps + wire_delay_ps_per_um * lengths[i];
            budget_ps - delay_ps - skew_ps
        };

        // Four independent WNS accumulators break the loop-carried `min`
        // latency chain (the scalar path's throughput limit). `f64::min`
        // over non-NaN values returns one of its arguments unchanged, so
        // the lane split is exact: the folded result is bit-identical to
        // the scalar in-order min chain. TNS accumulates in strict index
        // order — float addition is *not* reorderable — but adding the
        // branchless `min(slack, 0.0)` term is exact: a non-violating net
        // contributes `+0.0`, which never changes the (non-negative-zero)
        // accumulator.
        let (mut wns_0, mut wns_1, mut wns_2, mut wns_3) =
            (f64::INFINITY, f64::INFINITY, f64::INFINITY, f64::INFINITY);
        let mut tns = 0.0;
        let mut violations = 0;
        let mut i = 0;
        while i + 4 <= n {
            let s0 = slack_of(i);
            let s1 = slack_of(i + 1);
            let s2 = slack_of(i + 2);
            let s3 = slack_of(i + 3);
            wns_0 = wns_0.min(s0);
            wns_1 = wns_1.min(s1);
            wns_2 = wns_2.min(s2);
            wns_3 = wns_3.min(s3);
            tns += s0.min(0.0);
            tns += s1.min(0.0);
            tns += s2.min(0.0);
            tns += s3.min(0.0);
            violations += usize::from(s0 < 0.0)
                + usize::from(s1 < 0.0)
                + usize::from(s2 < 0.0)
                + usize::from(s3 < 0.0);
            i += 4;
        }
        while i < n {
            let slack = slack_of(i);
            wns_0 = wns_0.min(slack);
            tns += slack.min(0.0);
            violations += usize::from(slack < 0.0);
            i += 1;
        }
        let mut wns = wns_0.min(wns_1).min(wns_2).min(wns_3);
        if batch.is_empty() {
            wns = 0.0;
        }
        TimingReport {
            wns_ps: wns,
            tns_ps: tns,
            violation_count: violations,
            net_count: batch.len(),
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::TimingConfig;

    fn analyzer() -> TimingAnalyzer {
        TimingAnalyzer::new(TimingConfig::paper_default())
    }

    fn sample_nets() -> Vec<PlacedNet> {
        vec![
            PlacedNet { phase: 0, source_x: 0.0, sink_x: 10.0, length_um: 100.0 },
            PlacedNet { phase: 1, source_x: 600.0, sink_x: 0.0, length_um: 1_600.0 },
            PlacedNet { phase: 2, source_x: 500.0, sink_x: 450.0, length_um: 2_000.0 },
            PlacedNet { phase: 3, source_x: 120.0, sink_x: 470.0, length_um: 640.0 },
            PlacedNet { phase: 7, source_x: 470.0, sink_x: 120.0, length_um: 333.25 },
        ]
    }

    #[test]
    fn batch_round_trips_nets() {
        let nets = sample_nets();
        let mut batch = TimingBatch::from_nets(&nets);
        assert_eq!(batch.len(), nets.len());
        assert!(!batch.is_empty());
        let (phases, sources, sinks, lengths) = batch.as_slices();
        for (i, net) in nets.iter().enumerate() {
            assert_eq!(phases[i] as usize, net.phase);
            assert_eq!(sources[i], net.source_x);
            assert_eq!(sinks[i], net.sink_x);
            assert_eq!(lengths[i], net.length_um);
        }
        batch.clear();
        assert!(batch.is_empty());
        let (phases, sources, sinks, lengths) = batch.as_slices();
        assert!(phases.is_empty() && sources.is_empty() && sinks.is_empty() && lengths.is_empty());
    }

    #[test]
    fn batch_analysis_is_bit_identical_to_scalar() {
        let a = analyzer();
        let nets = sample_nets();
        let batch = TimingBatch::from_nets(&nets);
        let scalar = a.analyze(&nets, 800.0);
        let batched = a.analyze_batch(&batch, 800.0);
        assert_eq!(scalar.wns_ps.to_bits(), batched.wns_ps.to_bits());
        assert_eq!(scalar.tns_ps.to_bits(), batched.tns_ps.to_bits());
        assert_eq!(scalar, batched);
    }

    #[test]
    fn empty_batch_matches_empty_scalar_analysis() {
        let a = analyzer();
        assert_eq!(a.analyze_batch(&TimingBatch::new(), 100.0), a.analyze(&[], 100.0));
    }
}
