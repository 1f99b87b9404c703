//! Three-input truth tables and the majority mapping table.
//!
//! The paper's majority netlist conversion uses a "table-based method" that
//! compares the Karnaugh map of a candidate three-input cone against
//! majority-based implementations. This module implements that table: every
//! 3-input boolean function is an 8-bit truth table ([`TruthTable3`]), and
//! [`MappingTable`] precomputes, for every function reachable with at most
//! two levels of majority gates over (possibly inverted) inputs and
//! constants, the cheapest majority-based implementation.

use std::sync::OnceLock;

/// A 3-input boolean function encoded as an 8-bit truth table.
///
/// Bit `i` of the table is the function value for the input assignment where
/// `a = i & 1`, `b = (i >> 1) & 1`, `c = (i >> 2) & 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TruthTable3(pub u8);

impl TruthTable3 {
    /// The projection onto input `a`.
    pub const VAR_A: TruthTable3 = TruthTable3(0b1010_1010);
    /// The projection onto input `b`.
    pub const VAR_B: TruthTable3 = TruthTable3(0b1100_1100);
    /// The projection onto input `c`.
    pub const VAR_C: TruthTable3 = TruthTable3(0b1111_0000);
    /// The constant-false function.
    pub const FALSE: TruthTable3 = TruthTable3(0x00);
    /// The constant-true function.
    pub const TRUE: TruthTable3 = TruthTable3(0xFF);

    /// The projection onto the `index`-th input (0 = a, 1 = b, 2 = c).
    ///
    /// # Panics
    ///
    /// Panics if `index > 2`.
    pub fn variable(index: usize) -> TruthTable3 {
        match index {
            0 => Self::VAR_A,
            1 => Self::VAR_B,
            2 => Self::VAR_C,
            _ => panic!("three-input functions have variables 0..=2"),
        }
    }

    /// Complement of the function.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> TruthTable3 {
        TruthTable3(!self.0)
    }

    /// Bitwise majority of three functions: the truth table of
    /// `MAJ(f, g, h)`.
    pub fn maj(f: TruthTable3, g: TruthTable3, h: TruthTable3) -> TruthTable3 {
        TruthTable3((f.0 & g.0) | (g.0 & h.0) | (f.0 & h.0))
    }

    /// Conjunction of two functions.
    pub fn and(f: TruthTable3, g: TruthTable3) -> TruthTable3 {
        TruthTable3(f.0 & g.0)
    }

    /// Disjunction of two functions.
    pub fn or(f: TruthTable3, g: TruthTable3) -> TruthTable3 {
        TruthTable3(f.0 | g.0)
    }

    /// Exclusive or of two functions.
    pub fn xor(f: TruthTable3, g: TruthTable3) -> TruthTable3 {
        TruthTable3(f.0 ^ g.0)
    }

    /// Evaluates the function on a concrete input assignment.
    pub fn eval(self, a: bool, b: bool, c: bool) -> bool {
        let idx = (a as u8) | ((b as u8) << 1) | ((c as u8) << 2);
        self.0 & (1 << idx) != 0
    }

    /// Whether the function actually depends on the `index`-th variable.
    pub fn depends_on(self, index: usize) -> bool {
        let var = Self::variable(index).0;
        // Compare cofactors: f|x=1 vs f|x=0.
        let ones = self.0 & var;
        let zeros = self.0 & !var;
        match index {
            0 => (ones >> 1) != zeros & 0b0101_0101,
            1 => (ones >> 2) != zeros & 0b0011_0011,
            2 => (ones >> 4) != zeros & 0b0000_1111,
            _ => panic!("three-input functions have variables 0..=2"),
        }
    }
}

/// A leaf operand of a majority expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Literal {
    /// An input variable (0 = a, 1 = b, 2 = c), possibly complemented.
    Var {
        /// Variable index.
        index: usize,
        /// Whether the variable is complemented.
        inverted: bool,
    },
    /// A constant value.
    Const(bool),
}

impl Literal {
    fn truth_table(self) -> TruthTable3 {
        match self {
            Literal::Var { index, inverted } => {
                let tt = TruthTable3::variable(index);
                if inverted {
                    tt.not()
                } else {
                    tt
                }
            }
            Literal::Const(false) => TruthTable3::FALSE,
            Literal::Const(true) => TruthTable3::TRUE,
        }
    }

    /// JJ cost of realizing the literal: plain variables are free (the wire
    /// already exists), complemented variables need an inverter (2 JJs) and
    /// constants need a constant cell (2 JJs).
    fn jj_cost(self) -> usize {
        match self {
            Literal::Var { inverted: false, .. } => 0,
            Literal::Var { inverted: true, .. } => 2,
            Literal::Const(_) => 2,
        }
    }

    const ALL: [Literal; 8] = [
        Literal::Var { index: 0, inverted: false },
        Literal::Var { index: 1, inverted: false },
        Literal::Var { index: 2, inverted: false },
        Literal::Var { index: 0, inverted: true },
        Literal::Var { index: 1, inverted: true },
        Literal::Var { index: 2, inverted: true },
        Literal::Const(false),
        Literal::Const(true),
    ];
}

/// A majority-based implementation of a 3-input function: either a literal or
/// a majority gate over three sub-expressions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MajExpr {
    /// A bare literal (used when the target function is a projection).
    Leaf(Literal),
    /// A majority gate over three operands.
    Maj(Box<MajExpr>, Box<MajExpr>, Box<MajExpr>),
}

impl MajExpr {
    /// The truth table realized by the expression.
    pub fn truth_table(&self) -> TruthTable3 {
        match self {
            MajExpr::Leaf(lit) => lit.truth_table(),
            MajExpr::Maj(f, g, h) => {
                TruthTable3::maj(f.truth_table(), g.truth_table(), h.truth_table())
            }
        }
    }

    /// Total JJ cost: 6 per majority gate plus the literal costs.
    pub fn jj_cost(&self) -> usize {
        match self {
            MajExpr::Leaf(lit) => lit.jj_cost(),
            MajExpr::Maj(f, g, h) => 6 + f.jj_cost() + g.jj_cost() + h.jj_cost(),
        }
    }

    /// Number of majority gates in the expression.
    pub fn maj_count(&self) -> usize {
        match self {
            MajExpr::Leaf(_) => 0,
            MajExpr::Maj(f, g, h) => 1 + f.maj_count() + g.maj_count() + h.maj_count(),
        }
    }

    /// Number of logic levels (majority depth) of the expression.
    pub fn depth(&self) -> usize {
        match self {
            MajExpr::Leaf(_) => 0,
            MajExpr::Maj(f, g, h) => 1 + f.depth().max(g.depth()).max(h.depth()),
        }
    }
}

/// The precomputed table of cheapest majority implementations, indexed by
/// truth table.
///
/// The table is populated with every function reachable by at most two
/// levels of majority gates over literals, mirroring the paper's "three
/// majority gates at the first level and one at the second level" mapping.
#[derive(Debug)]
pub struct MappingTable {
    /// The recipe of each truth table (`best[tt.0]`), if it has one.
    best: Vec<Option<MajExpr>>,
}

/// How a candidate of [`MappingTable::build`] is assembled: a literal, one
/// majority gate over literals, or one majority gate over three level-≤1
/// operands (indices into the operand list).
#[derive(Debug, Clone, Copy)]
enum Recipe {
    Leaf(Literal),
    Maj1([Literal; 3]),
    Maj2([usize; 3]),
}

impl Recipe {
    /// The expression this recipe describes; `operands` resolves the
    /// indices of [`Recipe::Maj2`].
    fn expr(self, operands: &[(TruthTable3, usize, Recipe)]) -> MajExpr {
        let maj = |[f, g, h]: [MajExpr; 3]| MajExpr::Maj(Box::new(f), Box::new(g), Box::new(h));
        match self {
            Recipe::Leaf(literal) => MajExpr::Leaf(literal),
            Recipe::Maj1(literals) => maj(literals.map(MajExpr::Leaf)),
            Recipe::Maj2(indices) => maj(indices.map(|i| operands[i].2.expr(operands))),
        }
    }
}

/// Keeps `candidate` (truth table, JJ cost, recipe) in `best` when its
/// truth table has no recipe yet or only a costlier one: among equal costs
/// the first candidate seen wins.
fn keep_cheapest(
    best: &mut [Option<(usize, Recipe)>; 256],
    candidate: (TruthTable3, usize, Recipe),
) {
    let (tt, cost, recipe) = candidate;
    let slot = &mut best[usize::from(tt.0)];
    match slot {
        Some((kept, _)) if *kept <= cost => {}
        _ => *slot = Some((cost, recipe)),
    }
}

impl MappingTable {
    /// Returns the process-wide table, building it on first use.
    pub fn global() -> &'static MappingTable {
        static TABLE: OnceLock<MappingTable> = OnceLock::new();
        TABLE.get_or_init(MappingTable::build)
    }

    /// Builds the table from scratch (exposed for tests; prefer
    /// [`MappingTable::global`]).
    ///
    /// The enumeration runs over (truth table, JJ cost) pairs, so the
    /// ~110k level-2 candidates cost a few bit operations each; only the
    /// winning recipe of each truth table becomes a [`MajExpr`].
    pub fn build() -> MappingTable {
        let mut best = [None; 256];

        // Level 0: bare literals.
        let leaves: Vec<(TruthTable3, usize, Recipe)> = Literal::ALL
            .iter()
            .map(|&lit| (lit.truth_table(), lit.jj_cost(), Recipe::Leaf(lit)))
            .collect();
        for &leaf in &leaves {
            keep_cheapest(&mut best, leaf);
        }

        // Level 1: single majority gate over literals. The cheapest of each
        // truth table is also kept apart, to bound the level-2 enumeration.
        let mut level1 = [None; 256];
        for x in Literal::ALL {
            for y in Literal::ALL {
                for z in Literal::ALL {
                    let tt = TruthTable3::maj(x.truth_table(), y.truth_table(), z.truth_table());
                    let cost = 6 + x.jj_cost() + y.jj_cost() + z.jj_cost();
                    let candidate = (tt, cost, Recipe::Maj1([x, y, z]));
                    keep_cheapest(&mut best, candidate);
                    keep_cheapest(&mut level1, candidate);
                }
            }
        }
        // The level-1 operands are taken in truth-table order: equal-cost
        // level-2 candidates keep the first one seen, so any other order
        // would pick a different recipe.
        let mut operands = leaves;
        operands.extend(level1.iter().enumerate().filter_map(|(tt, kept)| {
            kept.map(|(cost, recipe)| (TruthTable3(tt as u8), cost, recipe))
        }));

        // Level 2: one majority gate over level-≤1 operands.
        for (i, &(tf, cf, _)) in operands.iter().enumerate() {
            for (j, &(tg, cg, _)) in operands.iter().enumerate() {
                for (k, &(th, ch, _)) in operands.iter().enumerate() {
                    let candidate =
                        (TruthTable3::maj(tf, tg, th), 6 + cf + cg + ch, Recipe::Maj2([i, j, k]));
                    keep_cheapest(&mut best, candidate);
                }
            }
        }

        MappingTable {
            best: best.iter().map(|kept| kept.map(|(_, recipe)| recipe.expr(&operands))).collect(),
        }
    }

    /// Looks up the cheapest known majority implementation of `tt`.
    pub fn lookup(&self, tt: TruthTable3) -> Option<&MajExpr> {
        self.best[usize::from(tt.0)].as_ref()
    }

    /// Number of distinct 3-input functions the table can implement.
    pub fn coverage(&self) -> usize {
        self.best.iter().flatten().count()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use std::collections::{BTreeMap, HashMap};

    use super::*;

    /// The table as it was first built: boxed expressions for every
    /// candidate, truth tables and costs recomputed recursively.
    fn reference_build() -> HashMap<TruthTable3, MajExpr> {
        let mut best: HashMap<TruthTable3, MajExpr> = HashMap::new();

        let consider = |expr: MajExpr, best: &mut HashMap<TruthTable3, MajExpr>| {
            let tt = expr.truth_table();
            match best.get(&tt) {
                Some(existing) if existing.jj_cost() <= expr.jj_cost() => {}
                _ => {
                    best.insert(tt, expr);
                }
            }
        };

        // Level 0: bare literals.
        for lit in Literal::ALL {
            consider(MajExpr::Leaf(lit), &mut best);
        }

        // Level 1: single majority gate over literals.
        let mut level1: Vec<MajExpr> = Vec::new();
        for &x in &Literal::ALL {
            for &y in &Literal::ALL {
                for &z in &Literal::ALL {
                    let expr = MajExpr::Maj(
                        Box::new(MajExpr::Leaf(x)),
                        Box::new(MajExpr::Leaf(y)),
                        Box::new(MajExpr::Leaf(z)),
                    );
                    level1.push(expr.clone());
                    consider(expr, &mut best);
                }
            }
        }
        // Deduplicate level-1 expressions by truth table, keeping the
        // cheapest, to bound the level-2 enumeration. The operands are then
        // taken in truth-table order: equal-cost level-2 candidates keep the
        // first one seen, so a hash order here would pick a different
        // recipe in every process.
        let mut level1_best: BTreeMap<TruthTable3, MajExpr> = BTreeMap::new();
        for expr in level1 {
            let tt = expr.truth_table();
            match level1_best.get(&tt) {
                Some(existing) if existing.jj_cost() <= expr.jj_cost() => {}
                _ => {
                    level1_best.insert(tt, expr);
                }
            }
        }
        let mut operands: Vec<MajExpr> = Literal::ALL.iter().map(|l| MajExpr::Leaf(*l)).collect();
        operands.extend(level1_best.into_values());

        // Level 2: one majority gate over level-≤1 operands.
        for f in &operands {
            for g in &operands {
                for h in &operands {
                    let expr =
                        MajExpr::Maj(Box::new(f.clone()), Box::new(g.clone()), Box::new(h.clone()));
                    consider(expr, &mut best);
                }
            }
        }

        best
    }

    #[test]
    fn build_picks_the_reference_recipe_for_every_truth_table() {
        let reference = reference_build();
        let table = MappingTable::build();
        for tt in (0..=u8::MAX).map(TruthTable3) {
            assert_eq!(table.lookup(tt), reference.get(&tt), "recipe for {tt:?}");
        }
        assert_eq!(table.coverage(), reference.len());
    }

    #[test]
    fn truth_table_primitives() {
        let a = TruthTable3::VAR_A;
        let b = TruthTable3::VAR_B;
        let c = TruthTable3::VAR_C;
        assert_eq!(TruthTable3::and(a, b), TruthTable3(0b1000_1000));
        assert_eq!(TruthTable3::maj(a, b, TruthTable3::FALSE), TruthTable3::and(a, b));
        assert_eq!(TruthTable3::maj(a, b, TruthTable3::TRUE), TruthTable3::or(a, b));
        assert!(TruthTable3::maj(a, b, c).eval(true, true, false));
        assert!(!TruthTable3::maj(a, b, c).eval(true, false, false));
    }

    #[test]
    fn eval_matches_bit_encoding() {
        let f = TruthTable3(0b0110_1001); // parity of a, b, c (XNOR-ish pattern)
        for i in 0..8u8 {
            let (a, b, c) = (i & 1 != 0, i & 2 != 0, i & 4 != 0);
            assert_eq!(f.eval(a, b, c), f.0 & (1 << i) != 0);
        }
    }

    #[test]
    fn depends_on_detects_support() {
        let and_ab = TruthTable3::and(TruthTable3::VAR_A, TruthTable3::VAR_B);
        assert!(and_ab.depends_on(0));
        assert!(and_ab.depends_on(1));
        assert!(!and_ab.depends_on(2));
        assert!(!TruthTable3::TRUE.depends_on(0));
    }

    #[test]
    fn expr_cost_and_depth() {
        let a = MajExpr::Leaf(Literal::Var { index: 0, inverted: false });
        let b = MajExpr::Leaf(Literal::Var { index: 1, inverted: false });
        let zero = MajExpr::Leaf(Literal::Const(false));
        let and = MajExpr::Maj(Box::new(a), Box::new(b), Box::new(zero));
        assert_eq!(and.jj_cost(), 8);
        assert_eq!(and.maj_count(), 1);
        assert_eq!(and.depth(), 1);
        assert_eq!(and.truth_table(), TruthTable3(0b1000_1000));
    }

    #[test]
    fn mapping_table_contains_primary_gates() {
        let table = MappingTable::global();
        let a = TruthTable3::VAR_A;
        let b = TruthTable3::VAR_B;
        let c = TruthTable3::VAR_C;
        for tt in [
            TruthTable3::and(a, b),
            TruthTable3::or(a, b),
            TruthTable3::maj(a, b, c),
            a,
            a.not(),
            TruthTable3::and(a, b).not(), // NAND via inverted inputs / De Morgan
        ] {
            let expr = table.lookup(tt).unwrap_or_else(|| panic!("missing {tt:?}"));
            assert_eq!(expr.truth_table(), tt);
        }
    }

    #[test]
    fn mapping_table_recipes_are_consistent() {
        let table = MappingTable::global();
        for tt in (0..=u8::MAX).map(TruthTable3) {
            let Some(expr) = table.lookup(tt) else { continue };
            assert_eq!(expr.truth_table(), tt, "recipe must realize its key");
            assert!(expr.depth() <= 2, "recipes are at most two majority levels");
        }
        // Two majority levels cover most but not all 256 functions (3-input
        // XOR/parity needs three levels); the table must cover the functions
        // AOI cones produce.
        assert!(table.coverage() >= 100, "coverage {} too small", table.coverage());
    }

    /// Every `HashMap::new()` draws fresh hash keys, so repeated builds in
    /// one process see the iteration orders separate processes would; the
    /// recipes must not depend on them.
    #[test]
    fn builds_pick_the_same_recipe_under_any_hash_order() {
        let reference = MappingTable::build();
        for _ in 0..8 {
            let table = MappingTable::build();
            for tt in (0..=u8::MAX).map(TruthTable3) {
                assert_eq!(table.lookup(tt), reference.lookup(tt), "recipe for {tt:?}");
            }
        }
    }

    #[test]
    fn single_majority_functions_use_one_gate() {
        let table = MappingTable::global();
        let maj = TruthTable3::maj(TruthTable3::VAR_A, TruthTable3::VAR_B, TruthTable3::VAR_C);
        assert_eq!(table.lookup(maj).unwrap().maj_count(), 1);
        let and = TruthTable3::and(TruthTable3::VAR_A, TruthTable3::VAR_B);
        assert_eq!(table.lookup(and).unwrap().maj_count(), 1);
    }
}
