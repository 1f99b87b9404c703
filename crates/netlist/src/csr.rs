//! Flat (CSR) adjacency storage for netlist traversals.
//!
//! [`Netlist::fanouts`] materializes a `Vec<Vec<GateId>>` — one heap
//! allocation per gate. That is fine at benchmark scale, but at 10⁵–10⁶
//! cells the per-gate `Vec` headers and allocator slack dominate peak RSS.
//! [`FanoutCsr`] stores the same adjacency as two flat arrays — `offsets`
//! (one entry per gate, prefix sums) and `sinks` (one entry per
//! connection) — in the style of the placement crate's cell→net incidence,
//! and [`out_degrees`] answers the common "how many consumers" question
//! without materializing the lists at all.
//!
//! Entry order is identical to [`Netlist::fanouts`]: for every driver, its
//! sinks appear in ascending consumer id order, so algorithms switched
//! from the nested-`Vec` form to CSR visit gates in the same order and
//! produce identical results.

use crate::gate::GateId;
use crate::netlist::Netlist;

/// Fan-out adjacency in compressed-sparse-row form: two flat arrays
/// instead of one `Vec` per gate. See the [module docs](self).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FanoutCsr {
    /// `offsets[i]..offsets[i + 1]` indexes the sinks of gate `i`;
    /// `gate_count + 1` entries.
    offsets: Vec<u32>,
    /// Consumer gate ids, grouped by driver, ascending within each group.
    sinks: Vec<u32>,
}

impl FanoutCsr {
    /// Builds the fan-out adjacency of `netlist`. Dangling fan-ins (ids
    /// beyond the gate count) are skipped, matching [`Netlist::fanouts`].
    pub fn build(netlist: &Netlist) -> Self {
        let n = netlist.gate_count();
        let mut offsets = vec![0u32; n + 1];
        for (_, gate) in netlist.iter() {
            for &driver in &gate.fanin {
                if driver.0 < n {
                    offsets[driver.0 + 1] += 1;
                }
            }
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut sinks = vec![0u32; offsets[n] as usize];
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        for (id, gate) in netlist.iter() {
            for &driver in &gate.fanin {
                if driver.0 < n {
                    sinks[cursor[driver.0] as usize] = id.0 as u32;
                    cursor[driver.0] += 1;
                }
            }
        }
        Self { offsets, sinks }
    }

    /// The consumers of gate `id`, in ascending id order.
    pub fn of(&self, id: GateId) -> impl Iterator<Item = GateId> + '_ {
        self.sinks[self.offsets[id.0] as usize..self.offsets[id.0 + 1] as usize]
            .iter()
            .map(|&sink| GateId(sink as usize))
    }

    /// Number of consumers of gate `id`.
    pub fn degree(&self, id: GateId) -> usize {
        (self.offsets[id.0 + 1] - self.offsets[id.0]) as usize
    }

    /// Total number of connections stored.
    pub fn connection_count(&self) -> usize {
        self.sinks.len()
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

    #[test]
    fn csr_matches_the_nested_vec_adjacency() {
        let netlist = benchmark_circuit(Benchmark::Adder8);
        let nested = netlist.fanouts();
        let csr = FanoutCsr::build(&netlist);
        let degrees = out_degrees(&netlist);
        assert_eq!(csr.connection_count(), netlist.connection_count());
        for id in netlist.ids() {
            let flat: Vec<GateId> = csr.of(id).collect();
            assert_eq!(flat, nested[id.0], "sink order must match for gate {id:?}");
            assert_eq!(csr.degree(id), nested[id.0].len());
            assert_eq!(degrees[id.0], nested[id.0].len());
        }
    }

    #[test]
    fn empty_netlist_has_an_empty_csr() {
        let netlist = Netlist::new("empty");
        let csr = FanoutCsr::build(&netlist);
        assert_eq!(csr.connection_count(), 0);
        assert!(out_degrees(&netlist).is_empty());
    }
}
