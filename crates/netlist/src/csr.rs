//! Flat (CSR) adjacency: the one "list of items under each row" type.
//!
//! [`Netlist::fanouts`] materializes a `Vec<Vec<GateId>>`, one heap
//! allocation per gate. That is fine at benchmark scale, but at 10⁵–10⁶
//! cells the per-gate `Vec` headers and allocator slack dominate peak RSS.
//! [`Csr`] stores any per-row lists as two flat arrays: `offsets` (one
//! `u32` prefix sum per row) and `items` (one entry per listed item). The
//! flow builds every adjacency it walks through it: a netlist's fan-outs
//! ([`Csr::fanouts`], which traversal and lint read), splitter insertion's
//! sink pins, predict's dependency and consumer lists, and the placers'
//! cell-to-net incidence and warm-start neighbours.
//!
//! [`Csr::from_pairs`] is a two-pass counting sort over `(row, item)` pairs
//! and keeps, within each row, the order in which the pairs come, so a
//! builder that yields its pairs in the order it used to push onto per-row
//! `Vec`s gets the same lists. [`Csr::push_row`] appends one whole row for
//! lists that are computed a row at a time. [`out_degrees`] answers "how
//! many consumers" without materializing the lists at all.

use crate::gate::GateId;
use crate::netlist::Netlist;

/// Per-row lists in compressed-sparse-row form: two flat arrays instead of
/// one `Vec` per row. See the [module docs](self).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csr<T> {
    /// `offsets[r]..offsets[r + 1]` indexes the items of row `r`; one entry
    /// more than there are rows.
    offsets: Vec<u32>,
    /// The items, grouped by row.
    items: Vec<T>,
}

/// No rows.
impl<T> Default for Csr<T> {
    fn default() -> Self {
        Self { offsets: vec![0], items: Vec::new() }
    }
}

impl<T: Copy> Csr<T> {
    /// The lists that hold `item` under `row` for every `(row, item)` pair
    /// `pairs` yields, each list in the order of its pairs. `pairs` is
    /// called to count and again to fill, and must yield the same pairs.
    ///
    /// # Panics
    ///
    /// Panics on a row of `rows` or more, or on more than `u32::MAX` pairs.
    pub fn from_pairs<I: IntoIterator<Item = (usize, T)>>(
        rows: usize,
        pairs: impl Fn() -> I,
    ) -> Self {
        // Row `r` is counted at `offsets[r + 2]`, so after the prefix sum
        // `offsets[r + 1]` is where row `r` starts; filling advances it to
        // where row `r + 1` starts, and the spare last entry goes.
        let mut offsets = vec![0u32; rows + 2];
        let mut total = 0usize;
        for (row, _) in pairs() {
            offsets[row + 2] += 1;
            total += 1;
        }
        assert!(u32::try_from(total).is_ok(), "CSR items fit in u32");
        for r in 2..rows + 2 {
            offsets[r] += offsets[r - 1];
        }
        // The first pair's item fills the slots until each is written.
        let mut items = match pairs().into_iter().next() {
            Some((_, first)) => vec![first; total],
            None => Vec::new(),
        };
        for (row, item) in pairs() {
            items[offsets[row + 1] as usize] = item;
            offsets[row + 1] += 1;
        }
        offsets.pop();
        Self { offsets, items }
    }

    /// Appends a row holding `row`'s items.
    ///
    /// # Panics
    ///
    /// Panics if the lists would hold more than `u32::MAX` items.
    pub fn push_row(&mut self, row: &[T]) {
        self.items.extend_from_slice(row);
        self.offsets.push(u32::try_from(self.items.len()).expect("CSR items fit in u32"));
    }
}

impl<T> Csr<T> {
    /// The items of row `r`, in the order they were added.
    pub fn row(&self, r: usize) -> &[T] {
        &self.items[self.offsets[r] as usize..self.offsets[r + 1] as usize]
    }

    /// The number of rows.
    pub fn row_count(&self) -> usize {
        self.offsets.len() - 1
    }
}

impl Csr<GateId> {
    /// The fan-out lists of `netlist`: row `i` holds the consumers of gate
    /// `i` in ascending id order, a gate that reads the signal on two pins
    /// twice, as in [`Netlist::fanouts`]. Dangling fan-ins (ids beyond the
    /// gate count) are skipped.
    pub fn fanouts(netlist: &Netlist) -> Self {
        let n = netlist.gate_count();
        Self::from_pairs(n, || {
            netlist.iter().flat_map(move |(id, gate)| {
                gate.fanin.iter().filter(move |d| d.0 < n).map(move |d| (d.0, id))
            })
        })
    }
}

/// The fan-out degree of every gate, without materializing the adjacency:
/// one flat counting pass over the fan-in lists.
pub fn out_degrees(netlist: &Netlist) -> Vec<usize> {
    let n = netlist.gate_count();
    let mut degrees = vec![0usize; n];
    for (_, gate) in netlist.iter() {
        for &driver in &gate.fanin {
            if driver.0 < n {
                degrees[driver.0] += 1;
            }
        }
    }
    degrees
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::generators::{benchmark_circuit, Benchmark};
    use aqfp_cells::CellKind;

    #[test]
    fn csr_matches_the_nested_vec_adjacency() {
        // A dangling fan-in is skipped; a gate that reads one signal on two
        // pins is listed twice under it.
        let mut odd = Netlist::new("odd");
        let a = odd.add_input("a");
        let b = odd.add_input("b");
        let twice = odd.add_gate(CellKind::And, "twice", vec![a, a]);
        let dangling = odd.add_gate(CellKind::And, "dangling", vec![b, GateId(99)]);
        odd.add_output("y", twice);
        odd.add_output("z", dangling);

        for netlist in [benchmark_circuit(Benchmark::Adder8), odd] {
            let nested = netlist.fanouts();
            let csr = Csr::fanouts(&netlist);
            let degrees = out_degrees(&netlist);
            assert_eq!(csr.row_count(), netlist.gate_count());
            for id in netlist.ids() {
                assert_eq!(csr.row(id.0), nested[id.0], "sink order must match for gate {id:?}");
                assert_eq!(degrees[id.0], nested[id.0].len());
            }
        }
    }

    #[test]
    fn from_pairs_keeps_each_rows_pair_order() {
        // Rows 0, 2 and the trailing 4 and 5 are empty; the pairs come out
        // of row order.
        let pairs = [(3, 'a'), (1, 'b'), (3, 'c'), (1, 'd'), (3, 'e')];
        let csr = Csr::from_pairs(6, || pairs);
        let rows: Vec<Vec<char>> = (0..csr.row_count()).map(|r| csr.row(r).to_vec()).collect();
        assert_eq!(rows, [vec![], vec!['b', 'd'], vec![], vec!['a', 'c', 'e'], vec![], vec![]]);

        let mut pushed = Csr::default();
        for row in &rows {
            pushed.push_row(row);
        }
        assert_eq!(pushed, csr, "push_row builds the same lists");

        let empty = Csr::<char>::from_pairs(3, || []);
        assert_eq!(empty.row_count(), 3);
        assert!((0..3).all(|r| empty.row(r).is_empty()));
    }

    #[test]
    fn empty_netlist_has_an_empty_csr() {
        let netlist = Netlist::new("empty");
        assert_eq!(Csr::fanouts(&netlist), Csr::default());
        assert!(out_degrees(&netlist).is_empty());
    }
}
