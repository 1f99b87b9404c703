//! Splitter insertion (§III-B.2 of the paper).
//!
//! AQFP gates can drive exactly one sink; every multi-fan-out signal must go
//! through splitter cells. This pass rewrites the netlist so that every
//! non-splitter gate has at most one sink pin and every splitter drives at
//! most its arity, building balanced splitter trees for large fan-outs.

use aqfp_cells::CellKind;
use aqfp_netlist::{Csr, GateId, Netlist};
use serde::{Deserialize, Serialize};

/// Statistics of a splitter-insertion run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SplitterReport {
    /// Number of signals that needed splitting.
    pub split_signals: usize,
    /// Total splitter cells inserted.
    pub splitters_inserted: usize,
    /// The largest fan-out encountered.
    pub max_fanout: usize,
}

/// Inserts splitter cells so the fan-out rule holds.
///
/// `max_arity` is the largest splitter in the library (4 for the library in
/// this reproduction); larger fan-outs get a tree of splitters.
///
/// # Panics
///
/// Panics if `max_arity < 2`.
pub fn insert_splitters(netlist: &Netlist, max_arity: usize) -> (Netlist, SplitterReport) {
    assert!(max_arity >= 2, "splitters must have at least two outputs");
    let mut work = netlist.clone();
    let mut report = SplitterReport::default();

    // Snapshot of sink pin references per driver: (sink gate, pin index).
    let sink_pins = Csr::from_pairs(netlist.gate_count(), || {
        netlist.iter().flat_map(|(id, gate)| {
            gate.fanin.iter().enumerate().map(move |(pin, driver)| (driver.index(), (id, pin)))
        })
    });

    for driver_index in 0..sink_pins.row_count() {
        let driver = GateId(driver_index);
        let pins = sink_pins.row(driver_index);
        let fanout = pins.len();
        report.max_fanout = report.max_fanout.max(fanout);
        if fanout <= 1 {
            continue;
        }
        report.split_signals += 1;
        let leaves = build_splitter_tree(&mut work, driver, fanout, max_arity, &mut report);
        debug_assert_eq!(leaves.len(), fanout);
        for ((sink, pin), leaf) in pins.iter().zip(leaves) {
            work.gate_mut(*sink).fanin[*pin] = leaf;
        }
    }

    (work, report)
}

/// Builds a splitter tree under `driver` with `fanout` leaves and returns one
/// leaf signal per requested branch.
fn build_splitter_tree(
    netlist: &mut Netlist,
    driver: GateId,
    fanout: usize,
    max_arity: usize,
    report: &mut SplitterReport,
) -> Vec<GateId> {
    if fanout == 1 {
        return vec![driver];
    }
    // Choose the arity of the root splitter: as large as needed, capped by
    // the library, then distribute the remaining branches across children.
    let arity = fanout.min(max_arity);
    let kind = match arity {
        2 => CellKind::Splitter2,
        3 => CellKind::Splitter3,
        _ => CellKind::Splitter4,
    };
    let splitter = netlist.add_gate(
        kind,
        format!("spl_{}_{}", driver.index(), netlist.gate_count()),
        vec![driver],
    );
    report.splitters_inserted += 1;

    // Distribute `fanout` leaves over `arity` branches as evenly as possible.
    let mut leaves = Vec::with_capacity(fanout);
    let base = fanout / arity;
    let extra = fanout % arity;
    for branch in 0..arity {
        let branch_fanout = base + usize::from(branch < extra);
        if branch_fanout == 0 {
            continue;
        }
        if branch_fanout == 1 {
            leaves.push(splitter);
        } else {
            leaves.extend(build_splitter_tree(netlist, splitter, branch_fanout, max_arity, report));
        }
    }
    leaves
}

/// The number of sink pins a cell of `kind` may drive directly under the
/// AQFP fan-out discipline: splitters up to their arity, everything else one.
///
/// This is the capacity model both splitter insertion and the pre-flight
/// lint's fan-out rule consult.
pub fn fanout_capacity(kind: CellKind) -> usize {
    match kind {
        CellKind::Splitter2 => 2,
        CellKind::Splitter3 => 3,
        CellKind::Splitter4 => 4,
        _ => 1,
    }
}

/// The number of splitter cells [`insert_splitters`] will spend to fan one
/// signal out to `fanout` sinks with splitters of at most `max_arity` outputs
/// (0 when no splitting is needed). Mirrors the balanced-tree construction of
/// [`insert_splitters`] exactly, so static analysis can predict splitter
/// overhead without building the tree.
///
/// # Panics
///
/// Panics if `max_arity < 2`.
pub fn splitter_tree_size(fanout: usize, max_arity: usize) -> usize {
    assert!(max_arity >= 2, "splitters must have at least two outputs");
    if fanout <= 1 {
        return 0;
    }
    let arity = fanout.min(max_arity);
    let base = fanout / arity;
    let extra = fanout % arity;
    let mut total = 1;
    for branch in 0..arity {
        let branch_fanout = base + usize::from(branch < extra);
        if branch_fanout > 1 {
            total += splitter_tree_size(branch_fanout, max_arity);
        }
    }
    total
}

/// Checks the AQFP fan-out rule on a netlist: non-splitter gates drive at
/// most one sink pin, splitters at most their arity.
pub fn respects_fanout_limit(netlist: &Netlist) -> bool {
    let mut sink_count = vec![0usize; netlist.gate_count()];
    for (_, gate) in netlist.iter() {
        for &driver in &gate.fanin {
            sink_count[driver.index()] += 1;
        }
    }
    netlist.iter().all(|(id, gate)| sink_count[id.index()] <= fanout_capacity(gate.kind))
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqfp_netlist::generators::{benchmark_circuit, Benchmark};
    use aqfp_netlist::simulate;

    fn fan_heavy_netlist(fanout: usize) -> Netlist {
        let mut n = Netlist::new("fan");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g = n.add_gate(CellKind::And, "g", vec![a, b]);
        for i in 0..fanout {
            let buf = n.add_gate(CellKind::Buffer, format!("buf{i}"), vec![g]);
            n.add_output(format!("y{i}"), buf);
        }
        n
    }

    #[test]
    fn small_fanout_uses_single_splitter() {
        let n = fan_heavy_netlist(3);
        let (split, report) = insert_splitters(&n, 4);
        split.validate().expect("valid");
        assert!(respects_fanout_limit(&split));
        assert_eq!(report.split_signals, 1);
        assert_eq!(report.splitters_inserted, 1);
        assert_eq!(split.count_kind(CellKind::Splitter3), 1);
        assert!(simulate::equivalent(&n, &split).expect("acyclic netlists compare"));
    }

    #[test]
    fn large_fanout_builds_a_tree() {
        let n = fan_heavy_netlist(10);
        let (split, report) = insert_splitters(&n, 4);
        split.validate().expect("valid");
        assert!(respects_fanout_limit(&split));
        assert!(report.splitters_inserted >= 3, "10 branches need a splitter tree");
        assert!(simulate::equivalent_sampled(&n, &split, 16, 1).expect("acyclic netlists compare"));
    }

    #[test]
    fn already_legal_netlist_is_untouched() {
        let mut n = Netlist::new("legal");
        let a = n.add_input("a");
        let buf = n.add_gate(CellKind::Buffer, "b", vec![a]);
        n.add_output("y", buf);
        let (split, report) = insert_splitters(&n, 4);
        assert_eq!(report.splitters_inserted, 0);
        assert_eq!(split.gate_count(), n.gate_count());
    }

    #[test]
    fn benchmark_fanout_is_fully_legalized() {
        for b in [Benchmark::Adder8, Benchmark::Decoder] {
            let n = benchmark_circuit(b);
            assert!(!respects_fanout_limit(&n), "{b}: raw netlist has multi-fanout signals");
            let (split, _) = insert_splitters(&n, 4);
            split.validate().expect("valid");
            assert!(respects_fanout_limit(&split), "{b}: fan-out rule must hold after insertion");
            assert!(
                simulate::equivalent_sampled(&n, &split, 64, 7).expect("acyclic netlists compare")
            );
        }
    }

    #[test]
    fn dual_pin_sink_gets_two_branches() {
        // One gate consuming the same signal on both pins counts as two sinks.
        let mut n = Netlist::new("dup");
        let a = n.add_input("a");
        let g = n.add_gate(CellKind::And, "g", vec![a, a]);
        n.add_output("y", g);
        let (split, report) = insert_splitters(&n, 4);
        split.validate().expect("valid");
        assert!(respects_fanout_limit(&split));
        assert_eq!(report.split_signals, 1);
        assert!(simulate::equivalent(&n, &split).expect("acyclic netlists compare"));
    }

    #[test]
    #[should_panic(expected = "at least two outputs")]
    fn tiny_arity_rejected() {
        insert_splitters(&Netlist::new("x"), 1);
    }

    #[test]
    fn capacity_model_matches_insertion() {
        assert_eq!(fanout_capacity(CellKind::Splitter3), 3);
        assert_eq!(fanout_capacity(CellKind::And), 1);
        assert_eq!(splitter_tree_size(1, 4), 0);
        assert_eq!(splitter_tree_size(4, 4), 1);
        assert_eq!(splitter_tree_size(5, 4), 2);
        // The closed form agrees with what insertion actually builds.
        for fanout in 2..24 {
            for arity in 2..=4 {
                // Only the AND gate of `fan_heavy_netlist` has multi-fanout,
                // so the whole report is one tree.
                let n = fan_heavy_netlist(fanout);
                let (_, report) = insert_splitters(&n, arity);
                assert_eq!(
                    report.splitters_inserted,
                    splitter_tree_size(fanout, arity),
                    "fanout {fanout} arity {arity}"
                );
            }
        }
    }
}
