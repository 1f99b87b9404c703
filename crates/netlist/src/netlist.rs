//! The [`Netlist`] container and its validation rules.

use aqfp_cells::{CellKind, Technology};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use crate::gate::{Gate, GateId};
use crate::span::SourceSpan;
use crate::stats::NetlistStats;
use crate::traverse;

/// Errors produced when building or validating a [`Netlist`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetlistError {
    /// A gate references a fan-in id that does not exist.
    DanglingFanin {
        /// The offending gate.
        gate: GateId,
        /// The referenced, non-existent driver.
        missing: GateId,
    },
    /// A gate has the wrong number of fan-ins for its cell kind.
    ArityMismatch {
        /// The offending gate.
        gate: GateId,
        /// The cell kind of the gate.
        kind: CellKind,
        /// Number of fan-ins expected by the kind.
        expected: usize,
        /// Number of fan-ins actually present.
        found: usize,
    },
    /// The netlist contains a combinational cycle.
    Cycle {
        /// A gate that participates in the cycle.
        gate: GateId,
    },
    /// Two gates share the same instance name.
    DuplicateName {
        /// The duplicated name.
        name: String,
    },
    /// A name lookup failed.
    UnknownName {
        /// The name that was not found.
        name: String,
    },
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::DanglingFanin { gate, missing } => {
                write!(f, "gate {gate} references missing driver {missing}")
            }
            NetlistError::ArityMismatch { gate, kind, expected, found } => {
                write!(f, "gate {gate} of kind {kind} expects {expected} fan-ins but has {found}")
            }
            NetlistError::Cycle { gate } => {
                write!(f, "combinational cycle detected through gate {gate}")
            }
            NetlistError::DuplicateName { name } => write!(f, "duplicate gate name `{name}`"),
            NetlistError::UnknownName { name } => write!(f, "unknown gate name `{name}`"),
        }
    }
}

impl Error for NetlistError {}

/// A gate-level netlist: a DAG of [`Gate`]s with explicit primary inputs and
/// outputs.
///
/// Primary inputs are gates of kind [`CellKind::Input`] (no fan-in); primary
/// outputs are gates of kind [`CellKind::Output`] (exactly one fan-in). Every
/// other gate drives exactly one logical signal consumed by the gates that
/// name it in their fan-in lists.
///
/// ```
/// use aqfp_cells::CellKind;
/// use aqfp_netlist::Netlist;
///
/// let mut n = Netlist::new("toy");
/// let a = n.add_input("a");
/// let b = n.add_input("b");
/// let g = n.add_gate(CellKind::And, "g", vec![a, b]);
/// n.add_output("y", g);
/// assert!(n.validate().is_ok());
/// assert_eq!(n.gate_count(), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Netlist {
    name: String,
    gates: Vec<Gate>,
    // Source span per gate, parallel to `gates`; `SourceSpan::UNKNOWN` for
    // gates built through the API rather than a parser.
    spans: Vec<SourceSpan>,
    primary_inputs: Vec<GateId>,
    primary_outputs: Vec<GateId>,
}

impl Netlist {
    /// Creates an empty netlist with the given design name.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            gates: Vec::new(),
            spans: Vec::new(),
            primary_inputs: Vec::new(),
            primary_outputs: Vec::new(),
        }
    }

    /// The design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a primary input terminal and returns its id.
    pub fn add_input(&mut self, name: impl Into<String>) -> GateId {
        let id = self.push(Gate::new(name, CellKind::Input, vec![]));
        self.primary_inputs.push(id);
        id
    }

    /// Adds a primary output terminal driven by `driver` and returns its id.
    pub fn add_output(&mut self, name: impl Into<String>, driver: GateId) -> GateId {
        let id = self.push(Gate::new(name, CellKind::Output, vec![driver]));
        self.primary_outputs.push(id);
        id
    }

    /// Adds a logic gate and returns its id. Fan-in order is pin order.
    pub fn add_gate(
        &mut self,
        kind: CellKind,
        name: impl Into<String>,
        fanin: Vec<GateId>,
    ) -> GateId {
        self.push(Gate::new(name, kind, fanin))
    }

    fn push(&mut self, gate: Gate) -> GateId {
        let id = GateId(self.gates.len());
        self.gates.push(gate);
        self.spans.push(SourceSpan::UNKNOWN);
        id
    }

    /// The source location a gate was declared at, when it came from a
    /// parser; [`SourceSpan::UNKNOWN`] for API-built gates and out-of-range
    /// ids.
    pub fn span(&self, id: GateId) -> SourceSpan {
        self.spans.get(id.0).copied().unwrap_or(SourceSpan::UNKNOWN)
    }

    /// Records the source location of a gate. Out-of-range ids are ignored.
    pub fn set_span(&mut self, id: GateId, span: SourceSpan) {
        if let Some(slot) = self.spans.get_mut(id.0) {
            *slot = span;
        }
    }

    /// Number of gates, including virtual I/O terminals.
    pub fn gate_count(&self) -> usize {
        self.gates.len()
    }

    /// Number of logic cells excluding virtual I/O terminals.
    pub fn cell_count(&self) -> usize {
        self.gates.iter().filter(|g| !g.kind.is_terminal()).count()
    }

    /// Read access to a gate.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn gate(&self, id: GateId) -> &Gate {
        &self.gates[id.0]
    }

    /// Mutable access to a gate.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn gate_mut(&mut self, id: GateId) -> &mut Gate {
        &mut self.gates[id.0]
    }

    /// Iterates over `(id, gate)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (GateId, &Gate)> {
        self.gates.iter().enumerate().map(|(i, g)| (GateId(i), g))
    }

    /// All gate ids in id order.
    pub fn ids(&self) -> impl Iterator<Item = GateId> + '_ {
        (0..self.gates.len()).map(GateId)
    }

    /// The primary input terminals in declaration order.
    pub fn primary_inputs(&self) -> &[GateId] {
        &self.primary_inputs
    }

    /// The primary output terminals in declaration order.
    pub fn primary_outputs(&self) -> &[GateId] {
        &self.primary_outputs
    }

    /// Finds a gate by instance name (linear scan; intended for parsers and
    /// tests, not hot paths).
    pub fn find_by_name(&self, name: &str) -> Option<GateId> {
        self.gates.iter().position(|g| g.name == name).map(GateId)
    }

    /// Builds the fan-out adjacency: for every gate, the list of gates that
    /// consume its output, in consumer id order.
    pub fn fanouts(&self) -> Vec<Vec<GateId>> {
        let mut fanouts = vec![Vec::new(); self.gates.len()];
        for (i, gate) in self.gates.iter().enumerate() {
            for &driver in &gate.fanin {
                if driver.0 < self.gates.len() {
                    fanouts[driver.0].push(GateId(i));
                }
            }
        }
        fanouts
    }

    /// Number of logical nets: every non-output gate whose output is consumed
    /// by at least one sink (or that feeds a primary output) drives one net.
    pub fn net_count(&self) -> usize {
        let degrees = crate::csr::out_degrees(self);
        self.iter().filter(|(id, gate)| !gate.is_primary_output() && degrees[id.0] > 0).count()
    }

    /// Total number of point-to-point pin connections (sum of fan-in sizes).
    pub fn connection_count(&self) -> usize {
        self.gates.iter().map(|g| g.fanin.len()).sum()
    }

    /// Counts gates of a given kind.
    pub fn count_kind(&self, kind: CellKind) -> usize {
        self.gates.iter().filter(|g| g.kind == kind).count()
    }

    /// Total Josephson-junction cost of the netlist under `technology`.
    pub fn jj_count(&self, technology: &Technology) -> usize {
        self.gates.iter().map(|g| technology.cell(g.kind).jj_count).sum()
    }

    /// Summary statistics of the netlist (gate counts by class, JJs, depth).
    pub fn stats(&self, technology: &Technology) -> NetlistStats {
        NetlistStats::of(self, technology)
    }

    /// Returns a copy of the netlist with every gate that cannot reach a
    /// primary output removed (primary inputs are always kept). Gate ids are
    /// re-compacted; use the returned netlist's name lookup to re-identify
    /// gates.
    ///
    /// This is the "sweep" pass synthesis runs after rewriting cones, which
    /// leaves the replaced gates dangling.
    pub fn pruned(&self) -> Netlist {
        // Mark gates reachable backwards from the primary outputs.
        let mut keep = vec![false; self.gates.len()];
        let mut stack: Vec<GateId> = self.primary_outputs.clone();
        while let Some(id) = stack.pop() {
            if keep[id.0] {
                continue;
            }
            keep[id.0] = true;
            for &driver in &self.gate(id).fanin {
                if driver.0 < self.gates.len() && !keep[driver.0] {
                    stack.push(driver);
                }
            }
        }
        for id in &self.primary_inputs {
            keep[id.0] = true;
        }

        let mut remap: Vec<Option<GateId>> = vec![None; self.gates.len()];
        let mut pruned = Netlist::new(self.name.clone());
        for (i, gate) in self.gates.iter().enumerate() {
            if !keep[i] {
                continue;
            }
            let new_id = GateId(pruned.gates.len());
            remap[i] = Some(new_id);
            pruned.gates.push(Gate::new(gate.name.clone(), gate.kind, Vec::new()));
            pruned.spans.push(self.spans[i]);
            if gate.is_primary_input() {
                pruned.primary_inputs.push(new_id);
            }
            if gate.is_primary_output() {
                pruned.primary_outputs.push(new_id);
            }
        }
        // Second pass: remap fan-ins (drivers of kept gates are always kept).
        for (i, gate) in self.gates.iter().enumerate() {
            let Some(new_id) = remap[i] else { continue };
            let fanin = gate
                .fanin
                .iter()
                .map(|d| remap[d.0].expect("driver of a kept gate is kept"))
                .collect();
            pruned.gates[new_id.0].fanin = fanin;
        }
        pruned
    }

    /// Checks structural invariants: fan-in arity per kind, no dangling
    /// references, unique names, acyclicity.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), NetlistError> {
        let mut names: HashMap<&str, usize> = HashMap::with_capacity(self.gates.len());
        for (i, gate) in self.gates.iter().enumerate() {
            if let Some(_prev) = names.insert(gate.name.as_str(), i) {
                return Err(NetlistError::DuplicateName { name: gate.name.clone() });
            }
            let expected = gate.kind.input_count();
            if gate.fanin.len() != expected {
                return Err(NetlistError::ArityMismatch {
                    gate: GateId(i),
                    kind: gate.kind,
                    expected,
                    found: gate.fanin.len(),
                });
            }
            for &driver in &gate.fanin {
                if driver.0 >= self.gates.len() {
                    return Err(NetlistError::DanglingFanin { gate: GateId(i), missing: driver });
                }
            }
        }
        traverse::topological_order(self).map(|_| ())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn toy() -> Netlist {
        let mut n = Netlist::new("toy");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let g1 = n.add_gate(CellKind::And, "g1", vec![a, b]);
        let g2 = n.add_gate(CellKind::Or, "g2", vec![g1, c]);
        n.add_output("y", g2);
        n
    }

    #[test]
    fn toy_netlist_counts() {
        let n = toy();
        assert_eq!(n.gate_count(), 6);
        assert_eq!(n.cell_count(), 2);
        assert_eq!(n.primary_inputs().len(), 3);
        assert_eq!(n.primary_outputs().len(), 1);
        assert_eq!(n.connection_count(), 4 + 1);
        assert_eq!(n.count_kind(CellKind::And), 1);
        assert!(n.validate().is_ok());
    }

    #[test]
    fn net_count_excludes_unused_outputs() {
        let mut n = toy();
        // A dangling gate drives no net.
        let a = n.primary_inputs()[0];
        let b = n.primary_inputs()[1];
        n.add_gate(CellKind::And, "unused", vec![a, b]);
        // 3 PIs drive nets (a,b feed two gates each? actually a,b feed g1/unused, c feeds g2),
        // g1 and g2 drive nets, unused drives nothing.
        assert_eq!(n.net_count(), 5);
    }

    #[test]
    fn fanouts_are_consistent_with_fanin() {
        let n = toy();
        let fanouts = n.fanouts();
        let mut edges_from_fanout = 0;
        for (i, sinks) in fanouts.iter().enumerate() {
            for sink in sinks {
                assert!(n.gate(*sink).fanin.contains(&GateId(i)));
                edges_from_fanout += 1;
            }
        }
        assert_eq!(edges_from_fanout, n.connection_count());
    }

    #[test]
    fn validation_rejects_bad_arity() {
        let mut n = Netlist::new("bad");
        let a = n.add_input("a");
        n.add_gate(CellKind::And, "g", vec![a]);
        assert!(matches!(n.validate(), Err(NetlistError::ArityMismatch { .. })));
    }

    #[test]
    fn validation_rejects_duplicate_names() {
        let mut n = Netlist::new("bad");
        n.add_input("a");
        n.add_input("a");
        assert!(matches!(n.validate(), Err(NetlistError::DuplicateName { .. })));
    }

    #[test]
    fn validation_rejects_dangling_fanin() {
        let mut n = Netlist::new("bad");
        let a = n.add_input("a");
        n.add_gate(CellKind::Buffer, "g", vec![GateId(17)]);
        let _ = a;
        assert!(matches!(n.validate(), Err(NetlistError::DanglingFanin { .. })));
    }

    #[test]
    fn validation_rejects_cycles() {
        let mut n = Netlist::new("bad");
        let a = n.add_input("a");
        // g1 and g2 feed each other.
        let g1 = n.add_gate(CellKind::And, "g1", vec![a, GateId(2)]);
        let _g2 = n.add_gate(CellKind::Buffer, "g2", vec![g1]);
        assert!(matches!(n.validate(), Err(NetlistError::Cycle { .. })));
    }

    #[test]
    fn pruning_removes_dead_logic() {
        let mut n = toy();
        let a = n.primary_inputs()[0];
        let b = n.primary_inputs()[1];
        let dead = n.add_gate(CellKind::And, "dead", vec![a, b]);
        n.add_gate(CellKind::Buffer, "dead2", vec![dead]);
        assert_eq!(n.cell_count(), 4);
        let pruned = n.pruned();
        assert_eq!(pruned.cell_count(), 2);
        assert_eq!(pruned.primary_inputs().len(), 3);
        assert_eq!(pruned.primary_outputs().len(), 1);
        pruned.validate().expect("pruned netlist stays valid");
        assert!(pruned.find_by_name("dead").is_none());
    }

    #[test]
    fn pruning_preserves_function() {
        let n = toy();
        let pruned = n.pruned();
        assert!(crate::simulate::equivalent(&n, &pruned).unwrap());
    }

    #[test]
    fn find_by_name_round_trips() {
        let n = toy();
        let id = n.find_by_name("g2").expect("exists");
        assert_eq!(n.gate(id).kind, CellKind::Or);
        assert!(n.find_by_name("nope").is_none());
    }
}
