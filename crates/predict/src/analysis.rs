//! Effective-value abstract interpretation over the gate DAG.
//!
//! The predictor never runs the synthesis engine, so everything it claims as
//! a *lower bound* must hold for whatever the optimiser does. The key
//! abstraction is a per-gate *effective value* under ternary constant
//! propagation plus same-literal simplification:
//!
//! * [`Net::Const`] — the gate provably computes a constant; synthesis is
//!   free to collapse it and everything that depended on it.
//! * [`Net::Wire`] — the gate provably forwards another signal (possibly
//!   inverted); it may survive as a buffer/inverter cell but cannot be
//!   counted on to.
//! * gates that stay *opaque* define a fresh signal source.
//!
//! From the resolved graph the pass derives the *surviving set*: opaque
//! gates that are (a) reachable from a primary output through resolved
//! edges and (b) either feed a primary output or have at least two distinct
//! effective consumers. Majority conversion only absorbs single-fan-out
//! gates into cones and rewrites cone roots in place, so every surviving
//! gate yields at least one placed cell — the basis for every `min` field.
//! Estimates (`est`) and ceilings (`max`) reuse the same graph without the
//! soundness restrictions; ceilings add slack for majority-recipe deepening
//! and splitter-tree growth.

use aqfp_cells::CellKind;
use aqfp_netlist::csr::out_degrees;
use aqfp_netlist::traverse::topological_order;
use aqfp_netlist::{Csr, GateId, Netlist};
use aqfp_synth::fanout::splitter_tree_size;

use crate::report::{Interval, OutputDepth, StructureBounds};

#[cfg(test)]
mod reference;

/// Levels a majority recipe may deepen a cone root by (the recipe table's
/// worst case), used only for the `max` ceilings.
const RECIPE_DEPTH_SLACK: usize = 3;

/// Cell-count growth factor for majority conversion, used only for the
/// `max` ceilings: conversion shrinks netlists in practice, but a recipe may
/// locally replace a cone with a slightly larger majority network.
const RECIPE_CELL_SLACK: usize = 2;

/// Resolved effective value of one gate's output signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Net {
    /// Provably constant.
    Const(bool),
    /// Provably the (possibly inverted) signal of `source`.
    Wire { source: usize, inverted: bool },
}

/// Outcome of simplifying one logic gate.
enum Simplified {
    /// The gate reduces to a known value.
    Known(Net),
    /// The gate computes a fresh signal.
    Opaque,
}

fn negate(net: Net) -> Net {
    match net {
        Net::Const(b) => Net::Const(!b),
        Net::Wire { source, inverted } => Net::Wire { source, inverted: !inverted },
    }
}

/// N-ary AND over resolved values, or with `complemented` over their
/// complements (OR via De Morgan in [`or_like`]).
fn and_like(inputs: &[Net], complemented: bool) -> Simplified {
    let value = |i: usize| if complemented { negate(inputs[i]) } else { inputs[i] };
    // The distinct literals: how many, and the last one seen.
    let (mut distinct, mut literal) = (0, Net::Const(true));
    for i in 0..inputs.len() {
        match value(i) {
            Net::Const(false) => return Simplified::Known(Net::Const(false)),
            Net::Const(true) => {}
            wire => {
                if (0..i).any(|earlier| value(earlier) == negate(wire)) {
                    // x AND NOT x.
                    return Simplified::Known(Net::Const(false));
                }
                if !(0..i).any(|earlier| value(earlier) == wire) {
                    distinct += 1;
                    literal = wire;
                }
            }
        }
    }
    match distinct {
        0 => Simplified::Known(Net::Const(true)),
        1 => Simplified::Known(literal),
        _ => Simplified::Opaque,
    }
}

fn or_like(inputs: &[Net]) -> Simplified {
    match and_like(inputs, true) {
        Simplified::Known(net) => Simplified::Known(negate(net)),
        Simplified::Opaque => Simplified::Opaque,
    }
}

/// N-ary XOR folded left-to-right; any unresolvable pair makes it opaque.
fn xor_like(inputs: &[Net]) -> Simplified {
    let mut acc = Net::Const(false);
    for value in inputs {
        acc = match (acc, *value) {
            (Net::Const(a), Net::Const(b)) => Net::Const(a != b),
            (Net::Const(false), wire) | (wire, Net::Const(false)) => wire,
            (Net::Const(true), wire) | (wire, Net::Const(true)) => negate(wire),
            (Net::Wire { source: a, inverted: ia }, Net::Wire { source: b, inverted: ib }) => {
                if a == b {
                    Net::Const(ia != ib)
                } else {
                    return Simplified::Opaque;
                }
            }
        };
    }
    Simplified::Known(acc)
}

/// Three-input majority with constant and duplicate/complement folding.
fn maj_like(inputs: &[Net]) -> Simplified {
    let [a, b, c] = match inputs {
        [a, b, c] => [*a, *b, *c],
        _ => return Simplified::Opaque,
    };
    // maj(x, x, y) = x and maj(x, NOT x, y) = y.
    for (i, j, k) in [(0, 1, 2), (0, 2, 1), (1, 2, 0)] {
        let (x, y, z) = ([a, b, c][i], [a, b, c][j], [a, b, c][k]);
        if x == y {
            return Simplified::Known(x);
        }
        if x == negate(y) {
            return Simplified::Known(z);
        }
    }
    // maj(const, x, y) reduces to AND or OR of the other two.
    for (i, j, k) in [(0, 1, 2), (1, 0, 2), (2, 0, 1)] {
        if let Net::Const(value) = [a, b, c][i] {
            let rest = [[a, b, c][j], [a, b, c][k]];
            return if value { or_like(&rest) } else { and_like(&rest, false) };
        }
    }
    Simplified::Opaque
}

/// Smallest `t` with `base^t >= value` (splitter-tree depth bound).
fn ceil_log(base: usize, value: usize) -> usize {
    let base = base.max(2);
    let mut depth = 0;
    let mut reach = 1usize;
    while reach < value {
        reach = reach.saturating_mul(base);
        depth += 1;
    }
    depth
}

/// Splitter-tree depth the estimator assumes for an effective fan-out.
fn split_depth_est(fanout: usize, arity: usize) -> usize {
    if fanout <= 1 {
        0
    } else {
        ceil_log(arity, fanout)
    }
}

/// Fewest splitter cells that can legalise `fanout` sinks with `arity`-ary
/// splitters: an optimal tree adds `arity - 1` net outputs per splitter.
fn min_splitters_for(fanout: usize, arity: usize) -> usize {
    if fanout <= 1 {
        0
    } else {
        (fanout - 1).div_ceil(arity.max(2) - 1)
    }
}

/// The structural analysis: everything later passes need.
#[derive(Debug, PartialEq)]
pub(crate) struct Analysis {
    /// The derived structural bounds.
    pub structure: StructureBounds,
    /// Per-gate: whether the gate provably survives synthesis as a cell.
    pub surviving: Vec<bool>,
    /// Per-gate estimated post-synthesis phase level (signal sources only).
    pub est_level: Vec<usize>,
    /// Estimated final phase depth (last row index).
    pub est_depth: usize,
    /// Contracted signal edges as `(source gate, source out level, sink
    /// level)` — the nets the congestion pass spreads over channels.
    pub edges: Vec<(usize, usize, usize)>,
}

/// Runs the abstract interpretation. Returns `None` when the netlist has a
/// combinational cycle (plain lint reports that defect).
///
/// Every pass runs over flat per-gate arrays; the resolved dependencies and
/// the effective consumers are one [`Csr`] each.
pub(crate) fn analyse(netlist: &Netlist, max_splitter_arity: usize) -> Option<Analysis> {
    let order = topological_order(netlist).ok()?;
    let n = netlist.gate_count();
    let arity = max_splitter_arity.max(2);
    let kind = |i: usize| netlist.gate(GateId(i)).kind;
    let fanin =
        |i: usize| netlist.gate(GateId(i)).fanin.iter().map(|f| f.index()).filter(|&f| f < n);

    // Pass 1: effective values and opaqueness.
    let mut values: Vec<Net> = vec![Net::Const(false); n];
    let mut opaque = vec![false; n];
    let mut is_pi = vec![false; n];
    let mut inputs: Vec<Net> = Vec::new();
    for &id in &order {
        let i = id.index();
        inputs.clear();
        inputs.extend(fanin(i).map(|f| values[f]));
        let simplified = match kind(i) {
            CellKind::Input => {
                is_pi[i] = true;
                values[i] = Net::Wire { source: i, inverted: false };
                continue;
            }
            CellKind::Constant0 => Simplified::Known(Net::Const(false)),
            CellKind::Constant1 => Simplified::Known(Net::Const(true)),
            CellKind::Buffer | CellKind::Splitter2 | CellKind::Splitter3 | CellKind::Splitter4 => {
                match inputs.first() {
                    Some(net) => Simplified::Known(*net),
                    None => Simplified::Opaque,
                }
            }
            CellKind::Inverter => match inputs.first() {
                Some(net) => Simplified::Known(negate(*net)),
                None => Simplified::Opaque,
            },
            CellKind::Output => {
                values[i] = *inputs.first().unwrap_or(&Net::Const(false));
                continue;
            }
            CellKind::And => and_like(&inputs, false),
            CellKind::Nand => match and_like(&inputs, false) {
                Simplified::Known(net) => Simplified::Known(negate(net)),
                Simplified::Opaque => Simplified::Opaque,
            },
            CellKind::Or => or_like(&inputs),
            CellKind::Nor => match or_like(&inputs) {
                Simplified::Known(net) => Simplified::Known(negate(net)),
                Simplified::Opaque => Simplified::Opaque,
            },
            CellKind::Xor => xor_like(&inputs),
            CellKind::Majority3 => maj_like(&inputs),
        };
        match simplified {
            Simplified::Known(net) => values[i] = net,
            Simplified::Opaque => {
                opaque[i] = true;
                values[i] = Net::Wire { source: i, inverted: false };
            }
        }
    }
    let source = |net: Net| match net {
        Net::Wire { source, .. } => Some(source),
        Net::Const(_) => None,
    };

    // Resolved dependencies: the distinct sources an opaque gate's fan-ins
    // resolve to, ascending.
    let mut deps = Csr::default();
    let mut sources: Vec<usize> = Vec::new();
    for (i, &opaque) in opaque.iter().enumerate() {
        sources.clear();
        if opaque {
            sources.extend(fanin(i).filter_map(|f| source(values[f])));
            sources.sort_unstable();
            sources.dedup();
        }
        deps.push_row(&sources);
    }

    // Pass 2: reachability — opaque ancestors of primary outputs through
    // resolved edges (anything else may be swept by `pruned()`).
    let outputs = netlist.primary_outputs();
    let po_source = |po: &GateId| source(values[po.index()]);
    let mut reached = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    for src in outputs.iter().filter_map(po_source) {
        if opaque[src] && !reached[src] {
            reached[src] = true;
            stack.push(src);
        }
    }
    while let Some(g) = stack.pop() {
        for &dep in deps.row(g) {
            if opaque[dep] && !reached[dep] {
                reached[dep] = true;
                stack.push(dep);
            }
        }
    }
    let live = |i: usize| opaque[i] && reached[i];

    // Pass 3: effective consumers over the reachable graph. Primary outputs
    // are consumers too (their terminal must be fed).
    let consumers = Csr::from_pairs(n, || {
        let gates =
            (0..n).filter(|&i| live(i)).flat_map(|i| deps.row(i).iter().map(move |&d| (d, i)));
        gates.chain(outputs.iter().filter_map(move |po| po_source(po).map(|s| (s, po.index()))))
    });
    let mut feeds_po = vec![false; n];
    for src in outputs.iter().filter_map(po_source) {
        feeds_po[src] = true;
    }

    // Surviving set: reachable opaque gates that feed a primary output or
    // have two or more reachable consumers (such a gate can never be
    // absorbed as a cone internal, which requires fan-out exactly one).
    let surviving: Vec<bool> =
        (0..n).map(|i| live(i) && (feeds_po[i] || consumers.row(i).len() >= 2)).collect();

    // Pass 4: endpoint contraction. A non-surviving gate has exactly one
    // relevant consumer; walking down the chain finds the surviving cell (or
    // output terminal) its signal ultimately feeds. Two consumers of the
    // same source that end in the same cell merge into one sink there.
    let is_output = |i: usize| kind(i) == CellKind::Output;
    let mut endpoint: Vec<usize> = vec![usize::MAX; n];
    for &id in order.iter().rev() {
        let i = id.index();
        if !live(i) {
            continue;
        }
        endpoint[i] = if surviving[i] {
            i
        } else {
            // Exactly one reachable consumer (else it would survive).
            match consumers.row(i).first() {
                Some(&c) if surviving[c] || is_output(c) => c,
                Some(&c) => endpoint[c],
                None => usize::MAX,
            }
        };
    }
    let mut cons = vec![0usize; n];
    let mut ends: Vec<usize> = Vec::new();
    for i in 0..n {
        if !(is_pi[i] || live(i)) {
            continue;
        }
        ends.clear();
        ends.extend(
            consumers
                .row(i)
                .iter()
                .map(|&c| if surviving[c] || is_output(c) { c } else { endpoint[c] })
                .filter(|&e| e != usize::MAX),
        );
        ends.sort_unstable();
        ends.dedup();
        cons[i] = ends.len();
    }

    // Pass 5: sound minimum depth — surviving gates on any resolved
    // dependency chain occupy distinct, increasing phase levels.
    let mut min_depth = vec![0usize; n];
    for &id in &order {
        let i = id.index();
        if !live(i) {
            continue;
        }
        let below = deps.row(i).iter().map(|&d| min_depth[d]).max().unwrap_or(0);
        min_depth[i] = below + usize::from(surviving[i]);
    }

    // Pass 6: ceiling levels over the *raw* graph — every gate kept, plus
    // recipe-deepening and splitter-tree slack per edge.
    let raw_fanout = out_degrees(netlist);
    let mut max_level = vec![0usize; n];
    for &id in &order {
        let i = id.index();
        if matches!(kind(i), CellKind::Input | CellKind::Constant0 | CellKind::Constant1) {
            continue;
        }
        max_level[i] = fanin(i)
            .map(|d| max_level[d] + RECIPE_DEPTH_SLACK + ceil_log(arity, 3 * raw_fanout[d] + 3))
            .max()
            .unwrap_or(0);
    }

    // Pass 7: estimated levels over the contracted graph: surviving gates
    // advance one phase, absorbed gates are transparent, splitter trees add
    // their depth below high-fan-out sources.
    let mut est_level = vec![0usize; n];
    let lv_out = |est_level: &[usize], s: usize| est_level[s] + split_depth_est(cons[s], arity);
    for &id in &order {
        let i = id.index();
        if !live(i) {
            continue;
        }
        let below = deps.row(i).iter().map(|&d| lv_out(&est_level, d)).max().unwrap_or(0);
        est_level[i] = below + usize::from(surviving[i]);
    }

    // Per-output depth intervals and the alignment level bounds.
    let mut po_depths = Vec::new();
    let mut align_min = 0usize; // sound lower bound on the common PO level
    let mut align_est = 0usize;
    let mut align_max = 0usize;
    let mut po_levels: Vec<(usize, usize)> = Vec::new(); // (est, max) per PO
    for po in outputs {
        let (lo, est, hi) = match po_source(po) {
            None => (1, 1, 1),
            Some(src) => (min_depth[src] + 1, lv_out(&est_level, src) + 1, max_level[src] + 1),
        };
        align_min = align_min.max(lo);
        align_est = align_est.max(est);
        align_max = align_max.max(hi);
        po_levels.push((est, hi));
        if po_depths.len() < StructureBounds::PO_DEPTH_CAP {
            po_depths.push(OutputDepth {
                output: netlist.gate(*po).name.clone(),
                min_level: lo,
                max_level: hi,
            });
        }
    }
    let po_depths_truncated = outputs.len() > po_depths.len();

    // Buffer bounds. Sound minimum: balancing aligns every output to a
    // common level of at least `align_min`; an output whose pre-alignment
    // level is provably at most `hi` therefore receives >= align_min - hi
    // buffers. Estimate: per-edge level gaps plus output alignment.
    let min_buffers: usize = po_levels.iter().map(|&(_, hi)| align_min.saturating_sub(hi)).sum();
    let mut est_buffers: usize =
        po_levels.iter().map(|&(est, _)| align_est.saturating_sub(est)).sum();
    let mut max_buffers: usize =
        po_levels.iter().map(|&(_, hi)| align_max.saturating_sub(hi)).sum();
    let mut edges: Vec<(usize, usize, usize)> = Vec::new();
    for &id in &order {
        let i = id.index();
        if !surviving[i] {
            continue;
        }
        for &d in deps.row(i) {
            let out = lv_out(&est_level, d);
            est_buffers += est_level[i].saturating_sub(out + 1);
            edges.push((d, est_level[d], est_level[i]));
        }
    }
    // Outputs sit on the aligned level.
    for src in outputs.iter().filter_map(po_source) {
        edges.push((src, est_level[src], align_est));
    }
    // Raw-graph buffer ceiling: every raw edge may need to bridge its whole
    // ceiling-level gap.
    for &id in &order {
        let i = id.index();
        if kind(i).is_terminal() {
            continue;
        }
        for f in fanin(i) {
            max_buffers += max_level[i].saturating_sub(max_level[f] + 1);
        }
    }

    // Cell-class intervals.
    let inputs = netlist.primary_inputs().len();
    let n_outputs = outputs.len();
    let surviving_count = surviving.iter().filter(|s| **s).count();
    let raw_logic = netlist.cell_count();
    // The estimate tracks the real engine, which converts roughly
    // gate-for-gate; only the lower bound must assume maximal cone
    // absorption.
    let logic_cells = Interval::new(
        surviving_count,
        raw_logic.max(surviving_count),
        raw_logic.saturating_mul(RECIPE_CELL_SLACK),
    );

    let mut min_split = 0usize;
    let mut est_split = 0usize;
    let mut max_split = 0usize;
    for i in 0..n {
        if is_pi[i] || live(i) {
            min_split += min_splitters_for(cons[i], arity);
            est_split += splitter_tree_size(cons[i], arity);
        }
        if !kind(i).is_terminal() || is_pi[i] {
            max_split += splitter_tree_size(3 * raw_fanout[i] + 3, arity);
        }
    }

    let splitters = Interval::new(min_split, est_split, max_split);
    let buffers = Interval::new(min_buffers, est_buffers, max_buffers);
    let terminals = inputs + n_outputs;
    let cells = Interval::new(
        terminals + logic_cells.min + splitters.min + buffers.min,
        terminals + logic_cells.est + splitters.est + buffers.est,
        terminals + logic_cells.max + splitters.max + buffers.max,
    );
    // Rows = output level + 1 (row 0 holds the inputs). An empty netlist
    // keeps the degenerate single row.
    let rows = if n == 0 {
        Interval::exact(0)
    } else {
        Interval::new(align_min + 1, align_est + 1, align_max + 1)
    };

    let est_depth = align_est;
    Some(Analysis {
        structure: StructureBounds {
            inputs,
            outputs: n_outputs,
            logic_cells,
            splitters,
            buffers,
            cells,
            rows,
            po_depths,
            po_depths_truncated,
        },
        surviving,
        est_level,
        est_depth,
        edges,
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use aqfp_netlist::Netlist;

    /// a AND b feeding one output: one surviving gate, three terminals.
    fn tiny() -> Netlist {
        let mut n = Netlist::new("tiny");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g = n.add_gate(CellKind::And, "g", vec![a, b]);
        n.add_output("z", g);
        n
    }

    #[test]
    fn a_single_gate_survives() {
        let analysis = analyse(&tiny(), 4).unwrap();
        let s = &analysis.structure;
        assert_eq!(s.inputs, 2);
        assert_eq!(s.outputs, 1);
        assert_eq!(s.logic_cells.min, 1);
        assert_eq!(s.rows.min, 3); // input row, gate row, output row
        assert!(s.cells.min >= 4);
        assert_eq!(s.po_depths.len(), 1);
        assert_eq!(s.po_depths[0].min_level, 2);
    }

    #[test]
    fn same_literal_gates_collapse() {
        let mut n = Netlist::new("collapse");
        let a = n.add_input("a");
        // XOR(a, a) = 0, AND(a, a) = a: neither survives as a logic cell.
        let x = n.add_gate(CellKind::Xor, "x", vec![a, a]);
        let d = n.add_gate(CellKind::And, "d", vec![a, a]);
        let o = n.add_gate(CellKind::Or, "o", vec![x, d]);
        n.add_output("z", o);
        let analysis = analyse(&n, 4).unwrap();
        // OR(0, a) = a: even the root resolves to the input's literal.
        assert_eq!(analysis.structure.logic_cells.min, 0);
    }

    #[test]
    fn complementary_inputs_fold_to_constants() {
        let mut n = Netlist::new("const");
        let a = n.add_input("a");
        let inv = n.add_gate(CellKind::Inverter, "inv", vec![a]);
        let g = n.add_gate(CellKind::And, "g", vec![a, inv]);
        let h = n.add_gate(CellKind::Or, "h", vec![g, a]);
        n.add_output("z", h);
        let analysis = analyse(&n, 4).unwrap();
        // AND(a, !a) = 0, OR(0, a) = a: no logic survives.
        assert_eq!(analysis.structure.logic_cells.min, 0);
    }

    #[test]
    fn majority_folding_handles_constants_and_duplicates() {
        assert!(matches!(
            maj_like(&[
                Net::Const(true),
                Net::Const(true),
                Net::Wire { source: 3, inverted: false }
            ]),
            Simplified::Known(Net::Const(true))
        ));
        assert!(matches!(
            maj_like(&[
                Net::Wire { source: 1, inverted: false },
                Net::Wire { source: 1, inverted: true },
                Net::Wire { source: 2, inverted: false }
            ]),
            Simplified::Known(Net::Wire { source: 2, inverted: false })
        ));
        assert!(matches!(
            maj_like(&[
                Net::Wire { source: 1, inverted: false },
                Net::Wire { source: 2, inverted: false },
                Net::Wire { source: 3, inverted: false }
            ]),
            Simplified::Opaque
        ));
    }

    #[test]
    fn fanout_pressure_is_tracked_per_source() {
        let mut n = Netlist::new("fan");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let mut sinks = Vec::new();
        for i in 0..5 {
            sinks.push(n.add_gate(CellKind::And, format!("g{i}"), vec![a, b]));
        }
        for (i, g) in sinks.iter().enumerate() {
            n.add_output(format!("z{i}"), *g);
        }
        let analysis = analyse(&n, 4).unwrap();
        // Both inputs fan out to five sinks; arity-4 splitters need at
        // least two cells per input to legalise that.
        assert!(analysis.structure.splitters.min >= 2 * 2);
    }

    #[test]
    fn min_bounds_never_exceed_ceilings() {
        let analysis = analyse(&tiny(), 4).unwrap();
        let s = &analysis.structure;
        for interval in [s.logic_cells, s.splitters, s.buffers, s.cells, s.rows] {
            assert!(interval.min <= interval.est && interval.est <= interval.max, "{interval:?}");
        }
    }

    #[test]
    fn flat_passes_match_the_reference() {
        use aqfp_netlist::generators::random::{random_dag, RandomDagConfig};
        use aqfp_netlist::generators::{benchmark_circuit, Benchmark, LargeFamily};

        let mut designs: Vec<Netlist> = Benchmark::ALL.into_iter().map(benchmark_circuit).collect();
        designs.extend((1..=6).map(|seed| random_dag(&RandomDagConfig::small(seed))));
        designs.extend((1..=3).map(|seed| LargeFamily::RandomDag.by_cells(2_000, seed)));
        designs.extend([tiny(), collapsing_logic()]);
        // A cycle, and a fan-in naming a gate that does not exist.
        let mut cyclic = tiny();
        cyclic.gate_mut(GateId(2)).fanin[1] = GateId(3);
        let mut dangling = tiny();
        dangling.gate_mut(GateId(2)).fanin.push(GateId(99));
        let or = dangling.add_gate(CellKind::Or, "dangling_or", vec![GateId(0), GateId(42)]);
        dangling.add_output("z2", or);
        designs.extend([cyclic, dangling]);
        for netlist in &designs {
            for arity in [2, 3, 4] {
                let (flat, nested) = (analyse(netlist, arity), reference::analyse(netlist, arity));
                assert_eq!(flat, nested, "{} at splitter arity {arity}", netlist.name());
            }
        }
        assert!(analyse(&designs[designs.len() - 2], 4).is_none(), "the cycle yields no analysis");
    }

    /// Constants, same-literal and complementary inputs on every folding
    /// kind, so the flat passes see every simplification.
    fn collapsing_logic() -> Netlist {
        let mut n = Netlist::new("collapsing");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let zero = n.add_gate(CellKind::Constant0, "zero", vec![]);
        let one = n.add_gate(CellKind::Constant1, "one", vec![]);
        let not_a = n.add_gate(CellKind::Inverter, "not_a", vec![a]);
        let gates = [
            (CellKind::And, vec![a, a]),
            (CellKind::Nand, vec![a, not_a]),
            (CellKind::Or, vec![b, zero]),
            (CellKind::Nor, vec![b, one]),
            (CellKind::Xor, vec![a, not_a]),
            (CellKind::Xor, vec![b, one]),
            (CellKind::Majority3, vec![a, not_a, b]),
            (CellKind::Majority3, vec![zero, a, b]),
            (CellKind::Majority3, vec![one, a, b]),
            (CellKind::Majority3, vec![a, b, zero]),
            (CellKind::And, vec![a, b]),
            (CellKind::Splitter2, vec![b]),
        ];
        for (i, (kind, fanin)) in gates.into_iter().enumerate() {
            let g = n.add_gate(kind, format!("g{i}"), fanin);
            n.add_output(format!("z{i}"), g);
        }
        n
    }

    #[test]
    fn ceil_log_and_min_splitters() {
        assert_eq!(ceil_log(4, 1), 0);
        assert_eq!(ceil_log(4, 4), 1);
        assert_eq!(ceil_log(4, 5), 2);
        assert_eq!(min_splitters_for(1, 4), 0);
        assert_eq!(min_splitters_for(4, 4), 1);
        assert_eq!(min_splitters_for(5, 4), 2);
    }
}
