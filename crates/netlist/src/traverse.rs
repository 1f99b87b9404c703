//! Graph traversal utilities: topological order, logic levels, cones.

use std::collections::VecDeque;

use crate::csr::FanoutCsr;
use crate::gate::GateId;
use crate::netlist::{Netlist, NetlistError};

/// Computes a topological order of the netlist (drivers before sinks) using
/// Kahn's algorithm.
///
/// # Errors
///
/// Returns [`NetlistError::Cycle`] if the netlist contains a combinational
/// cycle, naming one gate on the cycle.
pub fn topological_order(netlist: &Netlist) -> Result<Vec<GateId>, NetlistError> {
    let n = netlist.gate_count();
    // Dangling fan-ins are reported by validation; they are ignored here so
    // topological sorting stays usable on partially built netlists.
    let mut indegree = vec![0usize; n];
    for (id, gate) in netlist.iter() {
        indegree[id.0] = gate.fanin.iter().filter(|d| d.0 < n).count();
    }

    let fanouts = FanoutCsr::build(netlist);
    let mut queue: VecDeque<GateId> = (0..n).filter(|&i| indegree[i] == 0).map(GateId).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(id) = queue.pop_front() {
        order.push(id);
        for sink in fanouts.of(id) {
            indegree[sink.0] -= 1;
            if indegree[sink.0] == 0 {
                queue.push_back(sink);
            }
        }
    }

    if order.len() != n {
        let stuck = (0..n).find(|&i| indegree[i] > 0).map(GateId).unwrap_or(GateId(0));
        return Err(NetlistError::Cycle { gate: stuck });
    }
    Ok(order)
}

/// Computes the logic level of every gate: primary inputs (and constant
/// sources) are level 0, every other gate sits one level above its deepest
/// fan-in. In AQFP this is the clock-phase index of the gate before path
/// balancing.
///
/// # Errors
///
/// Returns [`NetlistError::Cycle`] for cyclic netlists.
pub fn logic_levels(netlist: &Netlist) -> Result<Vec<usize>, NetlistError> {
    let order = topological_order(netlist)?;
    let mut level = vec![0usize; netlist.gate_count()];
    for id in order {
        let gate = netlist.gate(id);
        if gate.fanin.is_empty() {
            level[id.0] = 0;
        } else {
            level[id.0] = gate.fanin.iter().map(|d| level[d.0] + 1).max().unwrap_or(0);
        }
    }
    Ok(level)
}

/// The depth of the netlist: the maximum logic level of any gate, i.e. the
/// number of clock phases a signal needs to traverse the circuit.
///
/// # Errors
///
/// Returns [`NetlistError::Cycle`] for cyclic netlists.
pub fn depth(netlist: &Netlist) -> Result<usize, NetlistError> {
    Ok(logic_levels(netlist)?.into_iter().max().unwrap_or(0))
}

/// Returns the transitive fan-in cone of `root` (all gates whose output can
/// reach `root`), including `root` itself.
pub fn fanin_cone(netlist: &Netlist, root: GateId) -> Vec<GateId> {
    let mut visited = vec![false; netlist.gate_count()];
    let mut stack = vec![root];
    let mut cone = Vec::new();
    while let Some(id) = stack.pop() {
        if visited[id.0] {
            continue;
        }
        visited[id.0] = true;
        cone.push(id);
        for &driver in &netlist.gate(id).fanin {
            if !visited[driver.0] {
                stack.push(driver);
            }
        }
    }
    cone.sort();
    cone
}

/// Returns the transitive fan-out cone of `root` (all gates reachable from
/// `root`), including `root` itself.
pub fn fanout_cone(netlist: &Netlist, root: GateId) -> Vec<GateId> {
    let fanouts = FanoutCsr::build(netlist);
    let mut visited = vec![false; netlist.gate_count()];
    let mut stack = vec![root];
    let mut cone = Vec::new();
    while let Some(id) = stack.pop() {
        if visited[id.0] {
            continue;
        }
        visited[id.0] = true;
        cone.push(id);
        for sink in fanouts.of(id) {
            if !visited[sink.0] {
                stack.push(sink);
            }
        }
    }
    cone.sort();
    cone
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use aqfp_cells::CellKind;

    fn chain(len: usize) -> Netlist {
        let mut n = Netlist::new("chain");
        let mut prev = n.add_input("in");
        for i in 0..len {
            prev = n.add_gate(CellKind::Buffer, format!("b{i}"), vec![prev]);
        }
        n.add_output("out", prev);
        n
    }

    #[test]
    fn topological_order_respects_dependencies() {
        let n = chain(5);
        let order = topological_order(&n).expect("acyclic");
        let pos: Vec<usize> = {
            let mut p = vec![0; n.gate_count()];
            for (i, id) in order.iter().enumerate() {
                p[id.0] = i;
            }
            p
        };
        for (id, gate) in n.iter() {
            for &driver in &gate.fanin {
                assert!(pos[driver.0] < pos[id.0], "driver must precede sink");
            }
        }
    }

    #[test]
    fn levels_of_chain_increase_by_one() {
        let n = chain(4);
        let levels = logic_levels(&n).expect("acyclic");
        assert_eq!(depth(&n).unwrap(), 5); // 4 buffers + output terminal
        let out = n.primary_outputs()[0];
        assert_eq!(levels[out.0], 5);
        let pi = n.primary_inputs()[0];
        assert_eq!(levels[pi.0], 0);
    }

    #[test]
    fn level_is_longest_path_not_shortest() {
        let mut n = Netlist::new("reconverge");
        let a = n.add_input("a");
        let short = n.add_gate(CellKind::Buffer, "s", vec![a]);
        let l1 = n.add_gate(CellKind::Buffer, "l1", vec![a]);
        let l2 = n.add_gate(CellKind::Buffer, "l2", vec![l1]);
        let join = n.add_gate(CellKind::And, "j", vec![short, l2]);
        n.add_output("y", join);
        let levels = logic_levels(&n).unwrap();
        assert_eq!(levels[join.0], 3, "level follows the longer branch");
    }

    #[test]
    fn cones_and_ancestry() {
        let mut n = Netlist::new("cone");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g1 = n.add_gate(CellKind::And, "g1", vec![a, b]);
        let g2 = n.add_gate(CellKind::Buffer, "g2", vec![g1]);
        let g3 = n.add_gate(CellKind::Buffer, "g3", vec![b]);
        n.add_output("y", g2);
        n.add_output("z", g3);

        let cone = fanin_cone(&n, g2);
        assert!(cone.contains(&a) && cone.contains(&b) && cone.contains(&g1) && cone.contains(&g2));
        assert!(!cone.contains(&g3));

        let fo = fanout_cone(&n, b);
        assert!(fo.contains(&g1) && fo.contains(&g3));
        assert!(!fo.contains(&a));
    }

    #[test]
    fn empty_netlist_has_depth_zero() {
        let n = Netlist::new("empty");
        assert_eq!(depth(&n).unwrap(), 0);
        assert!(topological_order(&n).unwrap().is_empty());
    }
}
