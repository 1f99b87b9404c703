//! AOI → majority netlist conversion (§III-B.1 of the paper).
//!
//! The conversion walks the netlist from the outputs toward the inputs,
//! grows "three-input nets" (single-output cones whose internal gates have no
//! other fan-out and whose leaves are at most three independent signals),
//! computes each cone's truth table, and replaces the cone by the cheapest
//! majority-based implementation found in the precomputed
//! [`MappingTable`] — the paper's table-based
//! Karnaugh-map matching. A cone is only rewritten when the replacement uses
//! no more Josephson junctions than the original (ties are broken in favour
//! of fewer logic levels).
//!
//! # Cost
//!
//! Each root grows a cone of at most five gates and three leaves, so
//! evaluating and matching it is constant work. Two pieces of bookkeeping
//! keep the rest of the pass linear in practice:
//!
//! - Leaf independence (no leaf in another leaf's fan-in cone) is a
//!   backward search from one leaf that stops at the other leaf's logic
//!   level, since a path between them climbs strictly in level. It visits
//!   only the part of the fan-in cone above that level, and reuses one
//!   epoch-stamped visited buffer, so no query allocates.
//! - Fan-out counts are updated per rewrite from the root's old and new
//!   fan-in and the appended gates, instead of recounted over the netlist.
//!
//! The logic levels are computed once, before any rewrite, and stay exact
//! for every gate a later search reaches. A rewrite changes only the fan-in
//! of the current root and appends gates that only that root reads. Roots
//! are visited in reverse topological order, so every later root, together
//! with its whole fan-in cone, precedes the rewritten roots in that order:
//! no later search reaches a rewritten root or an appended gate, and the
//! gates it does reach have their original fan-in.

use std::collections::HashMap;

use aqfp_cells::{CellKind, Technology};
use aqfp_netlist::{csr, traverse, GateId, Netlist};
use serde::{Deserialize, Serialize};

use crate::truth::{Literal, MajExpr, MappingTable, TruthTable3};

/// Statistics of one majority-conversion run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct MajConversionReport {
    /// Number of cones whose truth table was examined.
    pub cones_examined: usize,
    /// Number of cones actually rewritten.
    pub cones_converted: usize,
    /// Total JJ count before conversion.
    pub jj_before: usize,
    /// Total JJ count after conversion (and sweeping dead gates).
    pub jj_after: usize,
}

/// Converts an AOI netlist to a majority-based netlist.
///
/// Returns the rewritten netlist (dead gates swept) and a conversion report.
/// The conversion is function-preserving; the output may still contain
/// non-majority cells (e.g. XOR) where a majority implementation would be
/// more expensive.
pub fn convert_to_majority(
    netlist: &Netlist,
    library: &Technology,
) -> (Netlist, MajConversionReport) {
    convert(netlist, library, |_, _, _, _| {})
}

/// [`convert_to_majority`], passing every leaf-independence query to
/// `observe` as (netlist at query time, ancestor, descendant, answer).
fn convert(
    netlist: &Netlist,
    library: &Technology,
    observe: impl FnMut(&Netlist, GateId, GateId, bool),
) -> (Netlist, MajConversionReport) {
    let mut work = netlist.clone();
    let table = MappingTable::global();
    let mut report = MajConversionReport {
        jj_before: netlist.jj_count(library),
        ..MajConversionReport::default()
    };

    let order = match traverse::topological_order(&work) {
        Ok(order) => order,
        Err(_) => {
            report.jj_after = report.jj_before;
            return (work, report);
        }
    };

    // Gates consumed as cone internals; they are skipped as future roots and
    // swept at the end.
    let mut dead = vec![false; work.gate_count()];
    let mut fanout_count = csr::out_degrees(&work);
    let mut ancestry = Ancestry::new(&work, &order, observe);

    for &root in order.iter().rev() {
        if dead[root.index()] {
            continue;
        }
        let kind = work.gate(root).kind;
        if !kind.is_logic() || kind.input_count() < 2 {
            continue;
        }
        let Some(cone) = grow_cone(&work, root, &dead, &fanout_count, &mut ancestry) else {
            continue;
        };
        report.cones_examined += 1;

        let tt = cone_truth_table(&work, &cone);
        let Some(recipe) = table.lookup(tt) else {
            continue;
        };
        let original_cost: usize =
            cone.internal.iter().map(|g| library.cell(work.gate(*g).kind).jj_count).sum();
        let better_cost = recipe.jj_cost() < original_cost;
        let same_cost_shallower =
            recipe.jj_cost() == original_cost && recipe.depth() < cone.internal.len();
        if !(better_cost || same_cost_shallower) {
            continue;
        }

        // Keep the fan-out counts equal to a full recount of `work`: the
        // rewrite replaces the root's fan-in and appends gates. Absorbed
        // internals keep their fan-in until the final sweep, so what they
        // contribute stays.
        for &f in &work.gate(root).fanin {
            fanout_count[f.index()] -= 1;
        }
        let first_appended = work.gate_count();
        apply_recipe(&mut work, &cone, recipe);
        report.cones_converted += 1;
        for &g in &cone.internal {
            if g != cone.root {
                dead[g.index()] = true;
            }
        }
        dead.resize(work.gate_count(), false);
        fanout_count.resize(work.gate_count(), 0);
        let rewired = std::iter::once(root).chain((first_appended..work.gate_count()).map(GateId));
        for g in rewired {
            for &f in &work.gate(g).fanin {
                fanout_count[f.index()] += 1;
            }
        }
    }
    debug_assert_eq!(fanout_count, csr::out_degrees(&work), "incremental fan-out counts");

    let swept = work.pruned();
    report.jj_after = swept.jj_count(library);
    (swept, report)
}

/// A candidate cone: `root` plus the internal gates it absorbs and the (at
/// most three) leaf signals feeding it.
#[derive(Debug, Clone)]
struct Cone {
    root: GateId,
    internal: Vec<GateId>,
    leaves: Vec<GateId>,
}

/// Ancestry queries bounded by logic level (see the [module docs](self)).
/// A path from `a` to `d` climbs strictly in level, so the backward search
/// from `d` never needs a gate at or below `a`'s level other than `a`
/// itself.
struct Ancestry<F> {
    level: Vec<usize>,
    /// `seen[g] == epoch` marks `g` visited by the current query.
    seen: Vec<u32>,
    epoch: u32,
    stack: Vec<GateId>,
    observe: F,
}

impl<F: FnMut(&Netlist, GateId, GateId, bool)> Ancestry<F> {
    /// Levels every gate of `netlist` from its topological `order`.
    fn new(netlist: &Netlist, order: &[GateId], observe: F) -> Self {
        let mut level = vec![0usize; netlist.gate_count()];
        for &id in order {
            level[id.index()] =
                netlist.gate(id).fanin.iter().map(|f| level[f.index()] + 1).max().unwrap_or(0);
        }
        let seen = vec![0; level.len()];
        Self { level, seen, epoch: 0, stack: Vec::new(), observe }
    }

    /// Whether `ancestor` is `descendant` or lies in its transitive fan-in
    /// cone.
    fn is_ancestor(&mut self, netlist: &Netlist, ancestor: GateId, descendant: GateId) -> bool {
        let answer = self.search(netlist, ancestor, descendant);
        (self.observe)(netlist, ancestor, descendant, answer);
        answer
    }

    fn search(&mut self, netlist: &Netlist, ancestor: GateId, descendant: GateId) -> bool {
        if ancestor == descendant {
            return true;
        }
        let floor = self.level[ancestor.index()];
        if self.level[descendant.index()] <= floor {
            return false;
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.seen.fill(0);
            self.epoch = 1;
        }
        self.stack.clear();
        self.stack.push(descendant);
        while let Some(id) = self.stack.pop() {
            for &f in &netlist.gate(id).fanin {
                if f == ancestor {
                    return true;
                }
                if self.level[f.index()] > floor && self.seen[f.index()] != self.epoch {
                    self.seen[f.index()] = self.epoch;
                    self.stack.push(f);
                }
            }
        }
        false
    }
}

/// Grows a cone rooted at `root` following the paper's search: start from the
/// root's parents and keep absorbing single-fan-out logic parents while the
/// leaf set stays within three independent signals.
fn grow_cone(
    netlist: &Netlist,
    root: GateId,
    dead: &[bool],
    fanout_count: &[usize],
    ancestry: &mut Ancestry<impl FnMut(&Netlist, GateId, GateId, bool)>,
) -> Option<Cone> {
    const MAX_INTERNAL: usize = 5;

    let mut internal = vec![root];
    let mut leaves: Vec<GateId> = Vec::new();
    for &f in &netlist.gate(root).fanin {
        if !leaves.contains(&f) {
            leaves.push(f);
        }
    }
    if leaves.len() > 3 {
        return None;
    }

    loop {
        let mut expanded = false;
        for (i, &leaf) in leaves.iter().enumerate() {
            if internal.len() >= MAX_INTERNAL {
                break;
            }
            let gate = netlist.gate(leaf);
            let expandable = gate.kind.is_logic()
                && !dead[leaf.index()]
                && fanout_count[leaf.index()] == 1
                && !gate.fanin.is_empty();
            if !expandable {
                continue;
            }
            // Tentatively replace the leaf with its parents.
            let mut candidate: Vec<GateId> = leaves.clone();
            candidate.remove(i);
            for &f in &gate.fanin {
                if !candidate.contains(&f) && !internal.contains(&f) && f != leaf {
                    candidate.push(f);
                }
            }
            if candidate.len() > 3 {
                continue;
            }
            leaves = candidate;
            internal.push(leaf);
            expanded = true;
            break;
        }
        if !expanded {
            break;
        }
    }

    if internal.len() < 2 || leaves.is_empty() || leaves.len() > 3 {
        return None;
    }
    // Independence: no leaf may be a descendant of another leaf, otherwise
    // the cone's function is not a free function of its leaves.
    for (i, &a) in leaves.iter().enumerate() {
        for &b in leaves.iter().skip(i + 1) {
            if ancestry.is_ancestor(netlist, a, b) || ancestry.is_ancestor(netlist, b, a) {
                return None;
            }
        }
    }
    Some(Cone { root, internal, leaves })
}

/// Evaluates the cone's root as a function of its leaves.
fn cone_truth_table(netlist: &Netlist, cone: &Cone) -> TruthTable3 {
    let mut tt = 0u8;
    for assignment in 0u8..8 {
        let mut values: HashMap<GateId, bool> = HashMap::new();
        for (i, &leaf) in cone.leaves.iter().enumerate() {
            values.insert(leaf, assignment & (1 << i) != 0);
        }
        let value = eval_cone(netlist, cone.root, &mut values);
        if value {
            tt |= 1 << assignment;
        }
    }
    TruthTable3(tt)
}

fn eval_cone(netlist: &Netlist, gate: GateId, values: &mut HashMap<GateId, bool>) -> bool {
    if let Some(&v) = values.get(&gate) {
        return v;
    }
    let g = netlist.gate(gate);
    let inputs: Vec<bool> = g.fanin.iter().map(|&f| eval_cone(netlist, f, values)).collect();
    let v = aqfp_netlist::simulate::eval_kind(g.kind, &inputs);
    values.insert(gate, v);
    v
}

/// Rewrites the netlist so that `cone.root` implements `recipe` over the
/// cone's leaves. New helper gates (inverters, constants, first-level
/// majority gates) are appended; absorbed internal gates are left dangling
/// for the caller to sweep.
fn apply_recipe(netlist: &mut Netlist, cone: &Cone, recipe: &MajExpr) {
    let mut inverter_cache: HashMap<usize, GateId> = HashMap::new();
    let mut constant_cache: HashMap<bool, GateId> = HashMap::new();
    let root = cone.root;
    let suffix = root.index();

    match recipe {
        MajExpr::Leaf(lit) => {
            let (kind, fanin) = match lit {
                Literal::Var { index, inverted } => {
                    let leaf = cone.leaves[*index];
                    if *inverted {
                        (CellKind::Inverter, vec![leaf])
                    } else {
                        (CellKind::Buffer, vec![leaf])
                    }
                }
                Literal::Const(true) => (CellKind::Constant1, vec![]),
                Literal::Const(false) => (CellKind::Constant0, vec![]),
            };
            let gate = netlist.gate_mut(root);
            gate.kind = kind;
            gate.fanin = fanin;
        }
        MajExpr::Maj(f, g, h) => {
            let operands: Vec<GateId> = [f, g, h]
                .iter()
                .enumerate()
                .map(|(i, expr)| {
                    materialize(
                        netlist,
                        cone,
                        expr,
                        &mut inverter_cache,
                        &mut constant_cache,
                        suffix,
                        i,
                    )
                })
                .collect();
            let gate = netlist.gate_mut(root);
            gate.kind = CellKind::Majority3;
            gate.fanin = operands;
        }
    }
}

/// Creates (or reuses) the gate realizing `expr` and returns its id.
fn materialize(
    netlist: &mut Netlist,
    cone: &Cone,
    expr: &MajExpr,
    inverter_cache: &mut HashMap<usize, GateId>,
    constant_cache: &mut HashMap<bool, GateId>,
    suffix: usize,
    slot: usize,
) -> GateId {
    match expr {
        MajExpr::Leaf(Literal::Var { index, inverted: false }) => cone.leaves[*index],
        MajExpr::Leaf(Literal::Var { index, inverted: true }) => {
            if let Some(&id) = inverter_cache.get(index) {
                return id;
            }
            let id = netlist.add_gate(
                CellKind::Inverter,
                format!("majinv_{suffix}_{index}"),
                vec![cone.leaves[*index]],
            );
            inverter_cache.insert(*index, id);
            id
        }
        MajExpr::Leaf(Literal::Const(value)) => {
            if let Some(&id) = constant_cache.get(value) {
                return id;
            }
            let kind = if *value { CellKind::Constant1 } else { CellKind::Constant0 };
            let id = netlist.add_gate(kind, format!("majconst_{suffix}_{value}"), vec![]);
            constant_cache.insert(*value, id);
            id
        }
        MajExpr::Maj(f, g, h) => {
            let operands: Vec<GateId> = [f, g, h]
                .iter()
                .enumerate()
                .map(|(i, sub)| {
                    materialize(
                        netlist,
                        cone,
                        sub,
                        inverter_cache,
                        constant_cache,
                        suffix,
                        slot * 4 + i + 1,
                    )
                })
                .collect();
            netlist.add_gate(CellKind::Majority3, format!("majl1_{suffix}_{slot}"), operands)
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use aqfp_netlist::generators::{benchmark_circuit, kogge_stone_adder, Benchmark, LargeFamily};
    use aqfp_netlist::simulate;

    use crate::Synthesizer;

    fn library() -> Technology {
        Technology::mit_ll_sqf5ee()
    }

    /// AND(AND(a, b), c): a classic cone that a single majority cannot
    /// express, but two levels can (MAJ(MAJ(a,b,0), c, 0)).
    #[test]
    fn nested_and_cone_is_not_worsened() {
        let mut n = Netlist::new("and3");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let g1 = n.add_gate(CellKind::And, "g1", vec![a, b]);
        let g2 = n.add_gate(CellKind::And, "g2", vec![g1, c]);
        n.add_output("y", g2);

        let (converted, report) = convert_to_majority(&n, &library());
        converted.validate().expect("valid");
        assert!(simulate::equivalent(&n, &converted).unwrap());
        assert!(report.jj_after <= report.jj_before);
    }

    /// OR(AND(a,b), AND(b,c)) | ... the carry function ab + bc + ca is the
    /// textbook majority example: five AOI gates collapse to cheaper
    /// majority logic.
    #[test]
    fn carry_cone_converts_to_majority() {
        let mut n = Netlist::new("carry");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let ab = n.add_gate(CellKind::And, "ab", vec![a, b]);
        let bc = n.add_gate(CellKind::And, "bc", vec![b, c]);
        let ca = n.add_gate(CellKind::And, "ca", vec![c, a]);
        let o1 = n.add_gate(CellKind::Or, "o1", vec![ab, bc]);
        let o2 = n.add_gate(CellKind::Or, "o2", vec![o1, ca]);
        n.add_output("carry", o2);

        let lib = library();
        let (converted, report) = convert_to_majority(&n, &lib);
        converted.validate().expect("valid");
        assert!(simulate::equivalent(&n, &converted).unwrap());
        assert!(
            report.jj_after < report.jj_before,
            "majority conversion should save JJs: {report:?}"
        );
        assert!(converted.count_kind(CellKind::Majority3) >= 1);
    }

    #[test]
    fn conversion_preserves_adder_function() {
        let n = kogge_stone_adder(4);
        let (converted, _) = convert_to_majority(&n, &library());
        converted.validate().expect("valid");
        assert!(simulate::equivalent(&n, &converted).unwrap(), "4-bit adder must stay exact");
    }

    #[test]
    fn conversion_never_increases_jj_count_on_benchmarks() {
        let lib = library();
        for b in [Benchmark::Adder8, Benchmark::Apc32, Benchmark::C432] {
            let n = benchmark_circuit(b);
            let (converted, report) = convert_to_majority(&n, &lib);
            converted.validate().expect("valid");
            assert!(
                report.jj_after <= report.jj_before,
                "{b}: JJ count must not grow ({report:?})"
            );
            assert!(
                simulate::equivalent_sampled(&n, &converted, 128, 0xC0FFEE).unwrap(),
                "{b}: conversion must preserve function"
            );
        }
    }

    #[test]
    fn cones_are_not_grown_through_multi_fanout_gates() {
        // g1 feeds both g2 and the output, so it cannot be absorbed.
        let mut n = Netlist::new("shared");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let g1 = n.add_gate(CellKind::And, "g1", vec![a, b]);
        let g2 = n.add_gate(CellKind::Or, "g2", vec![g1, c]);
        n.add_output("y1", g1);
        n.add_output("y2", g2);

        let (converted, _) = convert_to_majority(&n, &library());
        converted.validate().expect("valid");
        assert!(simulate::equivalent(&n, &converted).unwrap());
        // g1 must still exist (its value is observable at y1).
        assert!(converted.primary_outputs().len() == 2);
    }

    #[test]
    fn bounded_ancestry_matches_fanin_cone_membership() {
        let mut n = Netlist::new("cone");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g1 = n.add_gate(CellKind::And, "g1", vec![a, b]);
        let g2 = n.add_gate(CellKind::Buffer, "g2", vec![g1]);
        let g3 = n.add_gate(CellKind::Buffer, "g3", vec![b]);
        n.add_output("y", g2);
        n.add_output("z", g3);
        let order = traverse::topological_order(&n).unwrap();
        let mut ancestry = Ancestry::new(&n, &order, |_, _, _, _| {});
        assert!(ancestry.is_ancestor(&n, a, g2));
        assert!(ancestry.is_ancestor(&n, g2, g2));
        assert!(!ancestry.is_ancestor(&n, g3, g2));

        // Every leaf pair the search checks, on the netlist as it stands
        // when the check runs (earlier cones already rewritten).
        let lib = library();
        let random = (1..=6).zip([300, 600, 900, 1200, 1600, 2000]);
        let netlists = random
            .map(|(seed, cells)| LargeFamily::RandomDag.by_cells(cells, seed))
            .chain([Benchmark::Adder8, Benchmark::C1908].map(benchmark_circuit));
        for netlist in netlists {
            let mut queries = 0;
            convert(&netlist, &lib, |work, ancestor, descendant, answer| {
                let in_cone =
                    traverse::fanin_cone(work, descendant).binary_search(&ancestor).is_ok();
                assert_eq!(answer, in_cone, "{}: {ancestor} -> {descendant}", netlist.name());
                queries += 1;
            });
            assert!(queries > 0, "{}: no leaf pair was checked", netlist.name());
        }
    }

    /// The search outcome, pinned: a level bound that cut a search short
    /// would change `cones_examined` first.
    #[test]
    fn conversion_outcome_is_pinned() {
        // (cones_examined, cones_converted, jj_before, jj_after, synthesized jj_count)
        let paper = [
            (Benchmark::Adder8, (35, 0, 578, 578, 1_162)),
            (Benchmark::Apc32, (26, 0, 684, 684, 1_256)),
            (Benchmark::Apc128, (120, 0, 2_822, 2_822, 4_936)),
            (Benchmark::Decoder, (128, 0, 1_932, 1_932, 4_426)),
            (Benchmark::Sorter32, (0, 0, 2_880, 2_880, 4_800)),
            (Benchmark::C432, (12, 2, 940, 530, 1_874)),
            (Benchmark::C499, (37, 1, 1_172, 972, 3_114)),
            (Benchmark::C1355, (76, 1, 3_142, 2_050, 9_156)),
            (Benchmark::C1908, (102, 3, 4_998, 3_426, 20_344)),
        ]
        .map(|(b, pinned)| (benchmark_circuit(b), pinned));
        let generated = [
            (LargeFamily::RandomDag.by_cells(4_000, 1), (973, 16, 23_308, 18_098, 36_164)),
            (LargeFamily::RandomDag.by_cells(4_000, 2), (896, 17, 23_022, 17_462, 35_418)),
            (LargeFamily::TiledMultiplier.by_cells(10_000, 0), (0, 0, 68_850, 68_850, 141_312)),
        ];
        let synth = Synthesizer::new(library());
        for (netlist, pinned) in paper.into_iter().chain(generated) {
            let result = synth.run(&netlist).unwrap();
            let MajConversionReport { cones_examined, cones_converted, jj_before, jj_after } =
                result.maj_report;
            let got = (cones_examined, cones_converted, jj_before, jj_after, result.stats.jj_count);
            assert_eq!(got, pinned, "{}", netlist.name());
        }
    }
}
