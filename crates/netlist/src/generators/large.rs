//! Parameterized large-design generators (10⁴–10⁶ cells).
//!
//! The paper's benchmark suite tops out at `apc128`; these families exist
//! to exercise the flow at production scale (the `scale_perf` bench and
//! the CI scale smoke). All three are built around one structural rule
//! that matters for AQFP: **bounded skip distance**. Path balancing
//! inserts `k − 1` buffers for a connection that skips `k` logic levels,
//! so a generator that lets wires span arbitrary depth produces a
//! quadratic buffer blow-up during synthesis. Every connection these
//! generators emit spans at most a small constant number of levels
//! (≤ 4), which keeps the synthesized cell count — and therefore the
//! whole flow — linear in the requested size.
//!
//! Families:
//!
//! * [`tiled_multiplier`] — an n×n grid of multiply-accumulate tiles
//!   (XOR/AND/OR full-adder cores) chained along one axis and coupled to
//!   the neighbouring chain, ~5·n² gates;
//! * [`apc_array`] — a rectangular array of 3:2-counter slices in the
//!   style of the paper's approximate parallel counters, width × depth,
//!   ~5/3·w·d gates, every wire regenerated in every layer;
//! * [`random_dag`] — a layered random AOI DAG like
//!   [`super::random::random_dag`], but with a two-layer locality window
//!   instead of unbounded backward edges.
//!
//! [`LargeFamily::by_cells`] maps a requested cell count to concrete
//! parameters, which is what the `superflow generate` subcommand and the
//! `gen:<family>:<cells>[:<seed>]` input spec use. Requested counts are
//! pre-synthesis gate counts; majority conversion, path-balancing buffers
//! and splitter trees typically grow the placed design by a small constant
//! factor.

use aqfp_cells::CellKind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::gate::GateId;
use crate::netlist::Netlist;

/// The large-design generator families, in CLI order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LargeFamily {
    /// n×n grid of multiply-accumulate tiles.
    TiledMultiplier,
    /// Rectangular array of 3:2-counter slices.
    ApcArray,
    /// Layered random AOI DAG with a two-layer locality window.
    RandomDag,
}

impl LargeFamily {
    /// Every family, in the order `superflow generate` documents them.
    pub const ALL: [LargeFamily; 3] =
        [LargeFamily::TiledMultiplier, LargeFamily::ApcArray, LargeFamily::RandomDag];

    /// The largest cell count the front ends accept for a generated
    /// design, about ten times the largest design the flow has been
    /// measured on. [`by_cells`](Self::by_cells) allocates for the count it
    /// is given, so a larger request aborts the process on a failed
    /// allocation instead of returning an error.
    pub const MAX_CELLS: usize = 10_000_000;

    /// The family's CLI name.
    pub fn name(self) -> &'static str {
        match self {
            LargeFamily::TiledMultiplier => "tiled_mul",
            LargeFamily::ApcArray => "apc_array",
            LargeFamily::RandomDag => "random_dag",
        }
    }

    /// Parses a CLI family name (hyphens and underscores are equivalent).
    pub fn parse(name: &str) -> Option<Self> {
        let normalized = name.replace('-', "_");
        Self::ALL.into_iter().find(|f| f.name() == normalized)
    }

    /// Builds a netlist of roughly `cells` gates (pre-synthesis; see the
    /// [module docs](self)). The seed only affects [`LargeFamily::RandomDag`] —
    /// the other two families are deterministic structures.
    pub fn by_cells(self, cells: usize, seed: u64) -> Netlist {
        let cells = cells.max(16);
        match self {
            LargeFamily::TiledMultiplier => {
                // gates ≈ 5·n²
                let n = ((cells as f64 / 5.0).sqrt().round() as usize).max(2);
                tiled_multiplier(n)
            }
            LargeFamily::ApcArray => {
                // gates ≈ 5/3·w·d with a roughly square placed aspect.
                let width = (((cells as f64 * 3.0 / 5.0).sqrt().round() as usize) / 3 * 3).max(3);
                let depth = (cells * 3 / (5 * width)).max(1);
                apc_array(width, depth)
            }
            LargeFamily::RandomDag => random_dag(cells, seed),
        }
    }
}

impl std::fmt::Display for LargeFamily {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// An n×n grid of multiply-accumulate tiles (~5·n² gates).
///
/// Each of the `n` parallel chains carries a (sum, carry) wire pair
/// through `n` tile stages. A tile is a full-adder core — two XORs, two
/// ANDs and an OR — that folds in a coupling wire from the neighbouring
/// chain's previous stage, so the grid is connected both along and across
/// chains while every wire spans at most three logic levels.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn tiled_multiplier(n: usize) -> Netlist {
    assert!(n >= 2, "need at least a 2x2 tile grid");
    let mut net = Netlist::new(format!("tiled_mul_{n}"));

    // Per-chain (sum, carry) state, seeded from the operand inputs.
    let mut sum: Vec<GateId> = (0..n).map(|c| net.add_input(format!("a{c}"))).collect();
    let mut carry: Vec<GateId> = (0..n).map(|c| net.add_input(format!("b{c}"))).collect();

    for stage in 0..n {
        let prev_sum = sum.clone();
        for chain in 0..n {
            // Coupling wire: the neighbouring chain's previous sum (own
            // sum for chain 0) — one stage back, never further.
            let x = prev_sum[chain.saturating_sub(1)];
            let (s, c) = (sum[chain], carry[chain]);
            let t1 = net.add_gate(CellKind::Xor, format!("t1_{stage}_{chain}"), vec![s, c]);
            let t2 = net.add_gate(CellKind::And, format!("t2_{stage}_{chain}"), vec![s, c]);
            let t3 = net.add_gate(CellKind::Xor, format!("t3_{stage}_{chain}"), vec![t1, x]);
            let t4 = net.add_gate(CellKind::And, format!("t4_{stage}_{chain}"), vec![t1, x]);
            let co = net.add_gate(CellKind::Or, format!("co_{stage}_{chain}"), vec![t2, t4]);
            sum[chain] = t3;
            carry[chain] = co;
        }
    }

    for chain in 0..n {
        net.add_output(format!("p{chain}"), sum[chain]);
        net.add_output(format!("q{chain}"), carry[chain]);
    }
    net
}

/// A `width` × `depth` array of 3:2-counter slices (~5/3·w·d gates).
///
/// Every layer consumes all `width` wires in chunks of three through a
/// full-adder compressor that re-emits three wires (sum, carry-out and
/// the partial term), so no wire ever passes a layer untouched — the
/// bounded-skip rule of the [module docs](self). Leftover wires (when
/// `width` is not a multiple of 3) are regenerated through XOR/AND or
/// inverter slices.
///
/// # Panics
///
/// Panics if `width` or `depth` is zero.
pub fn apc_array(width: usize, depth: usize) -> Netlist {
    assert!(width > 0, "need at least one column");
    assert!(depth > 0, "need at least one layer");
    let mut net = Netlist::new(format!("apc_array_{width}x{depth}"));
    let mut wires: Vec<GateId> = (0..width).map(|i| net.add_input(format!("pi{i}"))).collect();

    for layer in 0..depth {
        let mut next = Vec::with_capacity(width);
        let mut chunks = wires.chunks_exact(3);
        for (i, chunk) in chunks.by_ref().enumerate() {
            let (a, b, cin) = (chunk[0], chunk[1], chunk[2]);
            let x1 = net.add_gate(CellKind::Xor, format!("x1_{layer}_{i}"), vec![a, b]);
            let s = net.add_gate(CellKind::Xor, format!("s_{layer}_{i}"), vec![x1, cin]);
            let m1 = net.add_gate(CellKind::And, format!("m1_{layer}_{i}"), vec![a, b]);
            let m2 = net.add_gate(CellKind::And, format!("m2_{layer}_{i}"), vec![x1, cin]);
            let co = net.add_gate(CellKind::Or, format!("co_{layer}_{i}"), vec![m1, m2]);
            next.push(s);
            next.push(co);
            next.push(m2);
        }
        match chunks.remainder() {
            [a, b] => {
                next.push(net.add_gate(CellKind::Xor, format!("rx_{layer}"), vec![*a, *b]));
                next.push(net.add_gate(CellKind::And, format!("ra_{layer}"), vec![*a, *b]));
            }
            [a] => {
                next.push(net.add_gate(CellKind::Inverter, format!("ri_{layer}"), vec![*a]));
            }
            _ => {}
        }
        wires = next;
    }

    for (i, wire) in wires.iter().enumerate() {
        net.add_output(format!("po{i}"), *wire);
    }
    net
}

/// A layered random AOI DAG of roughly `cells` gates with a two-layer
/// locality window.
///
/// The layer grid is square-ish (`width ≈ depth ≈ √cells`), giving placed
/// designs a realistic aspect ratio. Unlike
/// [`super::random::random_dag`], which lets non-critical fan-ins reach
/// back to *any* earlier layer, every fan-in here comes from the previous
/// layer or the one before it, so path balancing stays linear.
///
/// # Panics
///
/// Panics if `cells` is zero.
pub fn random_dag(cells: usize, seed: u64) -> Netlist {
    assert!(cells > 0, "need at least one gate");
    let width = (cells as f64).sqrt().round().max(4.0) as usize;
    let depth = cells.div_ceil(width);

    let mut rng = StdRng::seed_from_u64(seed);
    let mut net = Netlist::new(format!("random_dag_{cells}_s{seed}"));
    let inputs: Vec<GateId> = (0..width).map(|i| net.add_input(format!("pi{i}"))).collect();

    let mut previous = inputs.clone();
    let mut before_previous: Vec<GateId> = Vec::new();
    let mut remaining = cells;
    let mut uid = 0usize;
    for _ in 0..depth {
        if remaining == 0 {
            break;
        }
        let count = width.min(remaining);
        remaining -= count;
        let mut layer = Vec::with_capacity(count);
        for _ in 0..count {
            uid += 1;
            let kind = match rng.gen_range(0..100) {
                0..=29 => CellKind::And,
                30..=59 => CellKind::Or,
                60..=69 => CellKind::Nand,
                70..=79 => CellKind::Nor,
                80..=89 => CellKind::Xor,
                _ => CellKind::Inverter,
            };
            let fanin = (0..kind.input_count())
                .map(|pin| {
                    // Pin 0 keeps the layer's depth honest; the rest stay
                    // inside the two-layer locality window.
                    let pool = if pin == 0 || before_previous.is_empty() || rng.gen_range(0..4) < 3
                    {
                        &previous
                    } else {
                        &before_previous
                    };
                    pool[rng.gen_range(0..pool.len())]
                })
                .collect();
            layer.push(net.add_gate(kind, format!("n{uid}"), fanin));
        }
        before_previous = std::mem::replace(&mut previous, layer);
    }

    let outputs = previous.len().clamp(1, 64);
    for i in 0..outputs {
        net.add_output(format!("po{i}"), previous[i % previous.len()]);
    }
    net
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::traverse;

    #[test]
    fn tiled_multiplier_is_valid_and_sized() {
        let n = tiled_multiplier(8);
        n.validate().expect("valid");
        assert_eq!(n.cell_count(), 5 * 8 * 8);
        assert_eq!(n.primary_inputs().len(), 16);
        assert_eq!(n.primary_outputs().len(), 16);
    }

    #[test]
    fn apc_array_is_valid_and_regenerates_every_wire() {
        let n = apc_array(10, 6);
        n.validate().expect("valid");
        // 3 chunks of 5 gates plus a leftover inverter slice per layer.
        assert_eq!(n.cell_count(), (3 * 5 + 1) * 6);
        let depth = traverse::depth(&n).unwrap();
        assert!(depth >= 6, "each layer must add at least one level, got {depth}");
    }

    #[test]
    fn random_dag_is_deterministic_and_respects_cells() {
        let a = random_dag(500, 42);
        let b = random_dag(500, 42);
        a.validate().expect("valid");
        assert_eq!(a, b);
        assert_eq!(a.cell_count(), 500);
        assert_ne!(a, random_dag(500, 43));
    }

    #[test]
    fn connections_stay_inside_the_locality_window() {
        for netlist in
            [tiled_multiplier(6), apc_array(9, 5), random_dag(400, 7), random_dag(1000, 1)]
        {
            let levels = traverse::logic_levels(&netlist).unwrap();
            let mut max_skip = 0usize;
            for (id, gate) in netlist.iter() {
                for driver in &gate.fanin {
                    max_skip = max_skip.max(levels[id.0].saturating_sub(levels[driver.0]));
                }
            }
            assert!(
                max_skip <= 4,
                "{}: a wire spans {max_skip} levels; path balancing would blow up",
                netlist.name()
            );
        }
    }

    #[test]
    fn by_cells_lands_near_the_requested_count() {
        for family in LargeFamily::ALL {
            for target in [1_000usize, 10_000] {
                let netlist = family.by_cells(target, 1);
                netlist.validate().expect("valid");
                let cells = netlist.cell_count();
                let lo = target * 7 / 10;
                let hi = target * 13 / 10;
                assert!(
                    (lo..=hi).contains(&cells),
                    "{family}: requested {target}, generated {cells}"
                );
            }
        }
    }

    #[test]
    fn family_names_round_trip() {
        for family in LargeFamily::ALL {
            assert_eq!(LargeFamily::parse(family.name()), Some(family));
        }
        assert_eq!(LargeFamily::parse("tiled-mul"), Some(LargeFamily::TiledMultiplier));
        assert_eq!(LargeFamily::parse("nope"), None);
    }
}
