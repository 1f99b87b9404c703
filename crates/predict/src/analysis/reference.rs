//! `analyse` as it was before it ran in flat passes, kept as the oracle the
//! differential test holds it to: a `Vec` of fan-in values per gate,
//! `Vec<Vec<usize>>` dependencies and consumers, a sorted `Vec` of
//! endpoints per source and `Netlist::fanouts` for the raw graph.

use aqfp_cells::CellKind;
use aqfp_netlist::traverse::topological_order;
use aqfp_netlist::Netlist;
use aqfp_synth::fanout::splitter_tree_size;

use super::{
    ceil_log, min_splitters_for, negate, split_depth_est, xor_like, Analysis, Net, Simplified,
    RECIPE_CELL_SLACK, RECIPE_DEPTH_SLACK,
};
use crate::report::{Interval, OutputDepth, StructureBounds};

/// N-ary AND over resolved values (OR via De Morgan in the caller).
fn and_like(inputs: &[Net]) -> Simplified {
    let mut lits: Vec<(usize, bool)> = Vec::new();
    for value in inputs {
        match *value {
            Net::Const(false) => return Simplified::Known(Net::Const(false)),
            Net::Const(true) => {}
            Net::Wire { source, inverted } => {
                if lits.contains(&(source, !inverted)) {
                    // x AND NOT x.
                    return Simplified::Known(Net::Const(false));
                }
                if !lits.contains(&(source, inverted)) {
                    lits.push((source, inverted));
                }
            }
        }
    }
    match lits.as_slice() {
        [] => Simplified::Known(Net::Const(true)),
        [(source, inverted)] => {
            Simplified::Known(Net::Wire { source: *source, inverted: *inverted })
        }
        _ => Simplified::Opaque,
    }
}

fn or_like(inputs: &[Net]) -> Simplified {
    let negated: Vec<Net> = inputs.iter().map(|v| negate(*v)).collect();
    match and_like(&negated) {
        Simplified::Known(net) => Simplified::Known(negate(net)),
        Simplified::Opaque => Simplified::Opaque,
    }
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
            return if value { or_like(&rest) } else { and_like(&rest) };
        }
    }
    Simplified::Opaque
}

/// Runs the abstract interpretation. Returns `None` when the netlist has a
/// combinational cycle (plain lint reports that defect).
pub(super) fn analyse(netlist: &Netlist, max_splitter_arity: usize) -> Option<Analysis> {
    let order = topological_order(netlist).ok()?;
    let n = netlist.gate_count();
    let arity = max_splitter_arity.max(2);

    // Pass 1: effective values, opaqueness and resolved dependencies.
    let mut values: Vec<Net> = vec![Net::Const(false); n];
    let mut opaque = vec![false; n];
    let mut is_pi = vec![false; n];
    let mut deps: Vec<Vec<usize>> = vec![Vec::new(); n];
    for &id in &order {
        let i = id.index();
        let gate = netlist.gate(id);
        let fanin: Vec<Net> =
            gate.fanin.iter().filter(|f| f.index() < n).map(|f| values[f.index()]).collect();
        let simplified = match gate.kind {
            CellKind::Input => {
                is_pi[i] = true;
                values[i] = Net::Wire { source: i, inverted: false };
                continue;
            }
            CellKind::Constant0 => Simplified::Known(Net::Const(false)),
            CellKind::Constant1 => Simplified::Known(Net::Const(true)),
            CellKind::Buffer | CellKind::Splitter2 | CellKind::Splitter3 | CellKind::Splitter4 => {
                match fanin.first() {
                    Some(net) => Simplified::Known(*net),
                    None => Simplified::Opaque,
                }
            }
            CellKind::Inverter => match fanin.first() {
                Some(net) => Simplified::Known(negate(*net)),
                None => Simplified::Opaque,
            },
            CellKind::Output => {
                values[i] = *fanin.first().unwrap_or(&Net::Const(false));
                continue;
            }
            CellKind::And => and_like(&fanin),
            CellKind::Nand => match and_like(&fanin) {
                Simplified::Known(net) => Simplified::Known(negate(net)),
                Simplified::Opaque => Simplified::Opaque,
            },
            CellKind::Or => or_like(&fanin),
            CellKind::Nor => match or_like(&fanin) {
                Simplified::Known(net) => Simplified::Known(negate(net)),
                Simplified::Opaque => Simplified::Opaque,
            },
            CellKind::Xor => xor_like(&fanin),
            CellKind::Majority3 => maj_like(&fanin),
        };
        match simplified {
            Simplified::Known(net) => values[i] = net,
            Simplified::Opaque => {
                opaque[i] = true;
                values[i] = Net::Wire { source: i, inverted: false };
                let mut sources: Vec<usize> = fanin
                    .iter()
                    .filter_map(|net| match net {
                        Net::Wire { source, .. } => Some(*source),
                        Net::Const(_) => None,
                    })
                    .collect();
                sources.sort_unstable();
                sources.dedup();
                deps[i] = sources;
            }
        }
    }

    // Pass 2: reachability — opaque ancestors of primary outputs through
    // resolved edges (anything else may be swept by `pruned()`).
    let mut reached = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    for &po in netlist.primary_outputs() {
        if let Net::Wire { source, .. } = values[po.index()] {
            if opaque[source] && !reached[source] {
                reached[source] = true;
                stack.push(source);
            }
        }
    }
    while let Some(g) = stack.pop() {
        for &dep in &deps[g] {
            if opaque[dep] && !reached[dep] {
                reached[dep] = true;
                stack.push(dep);
            }
        }
    }

    // Pass 3: effective consumers over the reachable graph. Primary outputs
    // are consumers too (their terminal must be fed).
    let mut consumers: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut feeds_po = vec![false; n];
    for (i, gate_deps) in deps.iter().enumerate() {
        if opaque[i] && reached[i] {
            for &dep in gate_deps {
                consumers[dep].push(i);
            }
        }
    }
    for &po in netlist.primary_outputs() {
        if let Net::Wire { source, .. } = values[po.index()] {
            consumers[source].push(po.index());
            feeds_po[source] = true;
        }
    }

    // Surviving set: reachable opaque gates that feed a primary output or
    // have two or more reachable consumers (such a gate can never be
    // absorbed as a cone internal, which requires fan-out exactly one).
    let surviving: Vec<bool> = (0..n)
        .map(|i| opaque[i] && reached[i] && (feeds_po[i] || consumers[i].len() >= 2))
        .collect();

    // Pass 4: endpoint contraction. A non-surviving gate has exactly one
    // relevant consumer; walking down the chain finds the surviving cell (or
    // output terminal) its signal ultimately feeds. Two consumers of the
    // same source that end in the same cell merge into one sink there.
    let is_output = |i: usize| netlist.gate(aqfp_netlist::GateId(i)).kind == CellKind::Output;
    let mut endpoint: Vec<usize> = vec![usize::MAX; n];
    for &id in order.iter().rev() {
        let i = id.index();
        if !(opaque[i] && reached[i]) {
            continue;
        }
        endpoint[i] = if surviving[i] {
            i
        } else {
            // Exactly one reachable consumer (else it would survive).
            match consumers[i].first() {
                Some(&c) if surviving[c] || is_output(c) => c,
                Some(&c) => endpoint[c],
                None => usize::MAX,
            }
        };
    }
    let mut cons = vec![0usize; n];
    for i in 0..n {
        if !(is_pi[i] || (opaque[i] && reached[i])) {
            continue;
        }
        let mut ends: Vec<usize> = consumers[i]
            .iter()
            .map(|&c| if surviving[c] || is_output(c) { c } else { endpoint[c] })
            .filter(|&e| e != usize::MAX)
            .collect();
        ends.sort_unstable();
        ends.dedup();
        cons[i] = ends.len();
    }

    // Pass 5: sound minimum depth — surviving gates on any resolved
    // dependency chain occupy distinct, increasing phase levels.
    let mut min_depth = vec![0usize; n];
    for &id in &order {
        let i = id.index();
        if !(opaque[i] && reached[i]) {
            continue;
        }
        let below = deps[i].iter().map(|&d| min_depth[d]).max().unwrap_or(0);
        min_depth[i] = below + usize::from(surviving[i]);
    }

    // Pass 6: ceiling levels over the *raw* graph — every gate kept, plus
    // recipe-deepening and splitter-tree slack per edge.
    let raw_fanouts = netlist.fanouts();
    let mut max_level = vec![0usize; n];
    for &id in &order {
        let i = id.index();
        let gate = netlist.gate(id);
        if matches!(gate.kind, CellKind::Input | CellKind::Constant0 | CellKind::Constant1) {
            continue;
        }
        max_level[i] = gate
            .fanin
            .iter()
            .filter(|f| f.index() < n)
            .map(|f| {
                let d = f.index();
                let fanout = raw_fanouts[d].len();
                max_level[d] + RECIPE_DEPTH_SLACK + ceil_log(arity, 3 * fanout + 3)
            })
            .max()
            .unwrap_or(0);
    }

    // Pass 7: estimated levels over the contracted graph: surviving gates
    // advance one phase, absorbed gates are transparent, splitter trees add
    // their depth below high-fan-out sources.
    let mut est_level = vec![0usize; n];
    let lv_out = |est_level: &[usize], cons: &[usize], s: usize| {
        est_level[s] + split_depth_est(cons[s], arity)
    };
    for &id in &order {
        let i = id.index();
        if !(opaque[i] && reached[i]) {
            continue;
        }
        let below = deps[i].iter().map(|&d| lv_out(&est_level, &cons, d)).max().unwrap_or(0);
        est_level[i] = below + usize::from(surviving[i]);
    }

    // Per-output depth intervals and the alignment level bounds.
    let outputs = netlist.primary_outputs();
    let mut po_depths = Vec::new();
    let mut align_min = 0usize; // sound lower bound on the common PO level
    let mut align_est = 0usize;
    let mut align_max = 0usize;
    let mut po_levels: Vec<(usize, usize)> = Vec::new(); // (est, max) per PO
    for &po in outputs {
        let i = po.index();
        let (lo, est, hi) = match values[i] {
            Net::Const(_) => (1, 1, 1),
            Net::Wire { source, .. } => {
                let lo = min_depth[source] + 1;
                let est = lv_out(&est_level, &cons, source) + 1;
                let hi = max_level[source] + 1;
                (lo, est, hi)
            }
        };
        align_min = align_min.max(lo);
        align_est = align_est.max(est);
        align_max = align_max.max(hi);
        po_levels.push((est, hi));
        if po_depths.len() < StructureBounds::PO_DEPTH_CAP {
            po_depths.push(OutputDepth {
                output: netlist.gate(po).name.clone(),
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
        for &d in &deps[i] {
            let out = lv_out(&est_level, &cons, d);
            est_buffers += est_level[i].saturating_sub(out + 1);
            edges.push((d, est_level[d], est_level[i]));
        }
    }
    for (&po, &(est, _)) in outputs.iter().zip(&po_levels) {
        if let Net::Wire { source, .. } = values[po.index()] {
            let _ = est; // outputs sit on the aligned level
            edges.push((source, est_level[source], align_est));
        }
    }
    // Raw-graph buffer ceiling: every raw edge may need to bridge its whole
    // ceiling-level gap.
    for &id in &order {
        let i = id.index();
        let gate = netlist.gate(id);
        if gate.kind.is_terminal() {
            continue;
        }
        for f in gate.fanin.iter().filter(|f| f.index() < n) {
            max_buffers += max_level[i].saturating_sub(max_level[f.index()] + 1);
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
    for i in 0..n {
        if is_pi[i] || (opaque[i] && reached[i]) {
            min_split += min_splitters_for(cons[i], arity);
            est_split += splitter_tree_size(cons[i], arity);
        }
    }
    let mut max_split = 0usize;
    for (i, sinks) in raw_fanouts.iter().enumerate() {
        if !netlist.gate(aqfp_netlist::GateId(i)).kind.is_terminal() || is_pi[i] {
            max_split += splitter_tree_size(3 * sinks.len() + 3, arity);
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
