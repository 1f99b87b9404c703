//! The shared context rules run against.

use aqfp_cells::Technology;
use aqfp_netlist::{Csr, GateId, Netlist};

use crate::config::{FlowSettings, LintConfig};

/// Everything a [`crate::rules::Rule`] may inspect, with shared analyses
/// (fan-out lists, dangling-reference detection) computed once per run.
pub struct LintContext<'a> {
    /// The parsed design. `None` in the netlist-free setup pass; rules with
    /// `needs_netlist() == true` are skipped in that case.
    pub netlist: Option<&'a Netlist>,
    /// The technology the flow will map onto.
    pub technology: &'a Technology,
    /// The flow-configuration slice the config-sanity rules inspect.
    pub settings: &'a FlowSettings,
    /// The active lint policy (rules may read parameters such as the
    /// fan-out threshold from it).
    pub config: &'a LintConfig,
    fanouts: Csr<GateId>,
    has_dangling: bool,
}

impl<'a> LintContext<'a> {
    /// Builds the context, precomputing shared analyses.
    pub fn new(
        netlist: Option<&'a Netlist>,
        technology: &'a Technology,
        settings: &'a FlowSettings,
        config: &'a LintConfig,
    ) -> Self {
        let (fanouts, has_dangling) = match netlist {
            // The fan-out lists skip fan-in ids that point past the gate
            // table: a rule reports those, so the context must survive them.
            Some(n) => (
                Csr::fanouts(n),
                n.iter().any(|(_, gate)| gate.fanin.iter().any(|d| d.index() >= n.gate_count())),
            ),
            None => (Csr::default(), false),
        };
        Self { netlist, technology, settings, config, fanouts, has_dangling }
    }

    /// Sink gates per driver, row `i` for gate `i` (pin-level: a gate
    /// consuming one signal on two pins appears twice). No rows when no
    /// netlist is present.
    pub fn fanouts(&self) -> &Csr<GateId> {
        &self.fanouts
    }

    /// Whether any gate references a fan-in id outside the gate table.
    /// Graph rules that walk edges skip their analysis when this is set and
    /// leave the reporting to the undriven-net rule.
    pub fn has_dangling(&self) -> bool {
        self.has_dangling
    }
}
