//! Timing-aware detailed placement (§III-C.3 of the paper).
//!
//! Detailed placement refines a legalized placement row by row. Because
//! AQFP rows are clock phases, a cell can never change rows; the moves are
//! horizontal: swapping neighbouring cells and sliding cells inside the free
//! space between their neighbours. The paper's key observation (Fig. 4) is
//! that restricting swaps to identically-sized cells — what earlier placers
//! do — gets stuck in sub-optimal states when a dense row mixes buffer-sized
//! and majority-sized cells; SuperFlow therefore allows swaps between cells
//! of different sizes, re-packing the affected span so no overlap appears.
//!
//! # Performance
//!
//! Move evaluation is the hottest loop of the placement stage, so it is
//! engineered around the same discipline as the router's `SearchScratch`:
//!
//! 1. **Flat CSR incidence** — the cell→net adjacency is one
//!    [`aqfp_netlist::Csr`] (two contiguous arrays) built once per run, not
//!    a `Vec<Vec<usize>>` rebuilt per call.
//! 2. **Delta cost, no allocation per move** — each row sweep keeps a
//!    generation-stamped cache of per-net costs; evaluating a move computes
//!    only the touched nets' new costs against the cached old ones (no
//!    per-candidate `Vec`, sort or dedup), and an accepted move writes the
//!    new costs back into the cache.
//! 3. **Parallel row sweeps** — rows are independent within a half-pass
//!    (see below), so each row is one job of the shared ordered pool
//!    ([`crate::parallel::run_in_order`],
//!    [`DetailedPlacementConfig::threads`] workers) with one scratch arena
//!    per worker, kept across half-passes, and the accepted moves are
//!    merged in row order.
//!
//! # Determinism contract
//!
//! Every pass runs two *half-sweeps*: first all even-indexed rows, then all
//! odd-indexed rows, each against a frozen snapshot of the half-start
//! coordinates. AQFP nets connect adjacent rows, so within a half-sweep no
//! two moving cells share a net: every row's sweep reads only its own live
//! coordinates plus frozen out-of-row coordinates, and rows never exchange
//! information mid-half. The result is therefore **byte-identical for every
//! thread count** — serial (`threads: 1`), any explicit worker count, and
//! auto (`threads: 0`) all produce the same cell coordinates, move counts
//! and HPWL.

use aqfp_cells::CancelToken;
use serde::{Deserialize, Serialize};

use aqfp_netlist::Csr;
use aqfp_timing::{signed_phase_distance, PlacedNet, TimingAnalyzer, TimingConfig};

use crate::design::PlacedDesign;
use crate::parallel::{effective_threads, run_in_order};

/// Tuning parameters of the detailed placer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DetailedPlacementConfig {
    /// Weight converting picoseconds of negative slack into µm of equivalent
    /// wirelength in the move-acceptance cost.
    pub timing_weight: f64,
    /// Number of improvement passes over the whole design.
    pub passes: usize,
    /// Whether cells of different sizes may swap (the SuperFlow behaviour).
    /// Disabling this reproduces the same-size-only restriction of earlier
    /// placers (Fig. 4a).
    pub allow_mixed_size_swaps: bool,
    /// Timing model used to evaluate slack during move acceptance.
    ///
    /// Only consulted when `detailed_place` is driven directly (tests,
    /// benches, custom pipelines). The flow treats delay coefficients as
    /// process facts: `PlacementEngine` and `FlowSession` *override* this
    /// field with their technology's `TimingConfig`
    /// ([`DetailedPlacementConfig::with_technology_timing`]), so setting it through
    /// `FlowConfig::placement` has no effect there — edit the technology
    /// instead.
    pub timing: TimingConfig,
    /// Worker threads for the parallel row sweeps. `0` uses every available
    /// core; `1` sweeps strictly serially. The placed result is identical
    /// for every thread count.
    pub threads: usize,
}

impl DetailedPlacementConfig {
    /// This configuration with the technology's delay coefficients
    /// injected — the single definition of the "timing is a process fact"
    /// rule that both `PlacementEngine` and the flow's DRC-repair loop
    /// apply before running a detailed sweep.
    pub fn with_technology_timing(self, technology: &aqfp_cells::Technology) -> Self {
        Self { timing: technology.timing, ..self }
    }
}

impl Default for DetailedPlacementConfig {
    fn default() -> Self {
        Self {
            timing_weight: 25.0,
            passes: 4,
            allow_mixed_size_swaps: true,
            timing: TimingConfig::paper_default(),
            threads: 0,
        }
    }
}

/// Summary of a detailed-placement run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DetailedPlacementReport {
    /// Accepted swap moves.
    pub swaps_accepted: usize,
    /// Accepted slide moves.
    pub slides_accepted: usize,
    /// HPWL before detailed placement, µm.
    pub hpwl_before: f64,
    /// HPWL after detailed placement, µm.
    pub hpwl_after: f64,
    /// Passes actually executed (the loop exits early once a pass accepts
    /// no move).
    pub passes_run: usize,
    /// Accepted moves (swaps + slides) per executed pass, in pass order —
    /// the convergence trajectory observers and benches inspect.
    pub pass_moves: Vec<usize>,
}

/// Runs detailed placement in place on a legalized design.
///
/// The design must be overlap-free (run legalization first); the output is
/// again overlap-free and grid-aligned. See the [module docs](self) for the
/// delta-cost evaluation and the serial/parallel determinism contract.
pub fn detailed_place(
    design: &mut PlacedDesign,
    config: &DetailedPlacementConfig,
) -> DetailedPlacementReport {
    detailed_place_impl(design, config, None, &CancelToken::none())
}

/// [`detailed_place`] with a cooperative [`CancelToken`]: the token is
/// polled once per improvement pass, and a fired token ends the sweep early
/// after the current pass's merge (the design stays legal — each pass
/// preserves legality — but callers that honor cancellation discard the
/// partial refinement).
pub fn detailed_place_cancellable(
    design: &mut PlacedDesign,
    config: &DetailedPlacementConfig,
    cancel: &CancelToken,
) -> DetailedPlacementReport {
    detailed_place_impl(design, config, None, cancel)
}

/// Runs detailed placement restricted to the given rows: only cells in
/// `rows` may move; every other row is read (through the frozen snapshots)
/// but never swept.
///
/// This is the scoped pass the flow's DRC-repair loop runs after buffer-row
/// insertion: the freshly inserted buffers are pulled toward their nets
/// while the — already optimized — rest of the design stays put, which
/// keeps the channels the follow-up reroute finds changed bounded by the
/// edit instead of the whole design. The same determinism contract as
/// [`detailed_place`] applies.
pub fn detailed_place_in_rows(
    design: &mut PlacedDesign,
    config: &DetailedPlacementConfig,
    rows: &[usize],
) -> DetailedPlacementReport {
    let mut in_scope = vec![false; design.rows.len()];
    for &row in rows {
        if row < in_scope.len() {
            in_scope[row] = true;
        }
    }
    detailed_place_impl(design, config, Some(&in_scope), &CancelToken::none())
}

/// Shared implementation of [`detailed_place`] (no scope) and
/// [`detailed_place_in_rows`] (`scope[row]` gates which rows are swept).
fn detailed_place_impl(
    design: &mut PlacedDesign,
    config: &DetailedPlacementConfig,
    scope: Option<&[bool]>,
    cancel: &CancelToken,
) -> DetailedPlacementReport {
    let hpwl_before = design.hpwl();
    let mut report = DetailedPlacementReport {
        swaps_accepted: 0,
        slides_accepted: 0,
        hpwl_before,
        hpwl_after: hpwl_before,
        passes_run: 0,
        pass_moves: Vec::new(),
    };

    let incidence = design.net_incidence();
    let geometry = NetGeometry::build(design);
    let mut frozen_x: Vec<f64> = Vec::with_capacity(design.cells.len());
    // One scratch arena per worker, reused across half-sweeps and passes.
    let mut scratch_pool: Vec<SweepScratch> = Vec::new();
    // Parity-indexed moved flags for the exact row-skip: `moved_half[p][c]`
    // records whether cell `c` moved during the most recent parity-`p`
    // half-sweep. A row whose own cells did not move in its previous
    // same-parity half and whose net partners did not move in the
    // immediately preceding half replays its last (move-free) sweep
    // verbatim, so it is skipped without being evaluated. Everything
    // starts dirty so the first pass sweeps every row.
    let mut moved_half = [vec![true; design.cells.len()], vec![true; design.cells.len()]];
    // The zigzag skew term of phase-3 nets depends on the layer width; when
    // it changes, every cached conclusion is stale and no row may skip.
    let mut previous_layer_width = f64::NAN;

    for _ in 0..config.passes {
        if cancel.is_cancelled() {
            break;
        }
        design.sort_rows_by_x();
        let layer_width = design.layer_width().max(1.0);
        let layer_width_changed = layer_width.to_bits() != previous_layer_width.to_bits();
        previous_layer_width = layer_width;
        let mut pass_accepted = 0;

        // Two half-sweeps per pass: even-indexed rows, then odd-indexed
        // rows, each against a frozen snapshot of the half-start
        // coordinates. Nets connect adjacent rows, so the rows of one half
        // share no nets and sweep independently (see the module docs).
        for parity in 0..2 {
            frozen_x.clear();
            frozen_x.extend(design.cells.iter().map(|cell| cell.x));
            let half_rows: Vec<usize> = (parity..design.rows.len())
                .step_by(2)
                .filter(|&row| scope.is_none_or(|in_scope| in_scope[row]))
                .filter(|&row| {
                    layer_width_changed
                        || row_is_dirty(design, &incidence, row, &moved_half, parity)
                })
                .collect();
            let outcomes = sweep_rows(
                design,
                &incidence,
                &geometry,
                config,
                layer_width,
                &frozen_x,
                &half_rows,
                &mut scratch_pool,
            );
            // Accepted moves merge in row order; each cell belongs to
            // exactly one row, so the writes never conflict.
            for (outcome, &row) in outcomes.iter().zip(&half_rows) {
                for &cell in &design.rows[row] {
                    moved_half[parity][cell] = false;
                }
                for &(cell, x) in &outcome.moves {
                    design.cells[cell].x = x;
                    moved_half[parity][cell] = true;
                }
                report.swaps_accepted += outcome.swaps;
                report.slides_accepted += outcome.slides;
                pass_accepted += outcome.swaps + outcome.slides;
            }
        }

        report.passes_run += 1;
        report.pass_moves.push(pass_accepted);
        if pass_accepted == 0 {
            break;
        }
    }

    design.sort_rows_by_x();
    report.hpwl_after = design.hpwl();
    report
}

/// Whether a row must be swept this half-pass: true when any of its own
/// cells moved in the previous same-parity half, or any net partner (in the
/// adjacent rows) moved in the immediately preceding half. A clean row
/// would replay its previous, move-free sweep bit for bit, so skipping it
/// is exact.
fn row_is_dirty(
    design: &PlacedDesign,
    incidence: &Csr<u32>,
    row: usize,
    moved_half: &[Vec<bool>; 2],
    parity: usize,
) -> bool {
    let own = &moved_half[parity];
    let partners = &moved_half[1 - parity];
    design.rows[row].iter().any(|&cell| {
        own[cell]
            || incidence.row(cell).iter().any(|&net| {
                let net = &design.nets[net as usize];
                let other = if net.driver == cell { net.sink } else { net.driver };
                partners[other]
            })
    })
}

/// The moves one row sweep accepted: final coordinates of the cells it
/// displaced plus the accepted-move counts.
struct RowOutcome {
    moves: Vec<(usize, f64)>,
    swaps: usize,
    slides: usize,
}

/// Per-net constants of the move-cost model: endpoint cell indices,
/// endpoint half-widths, the fixed vertical span and the driver phase.
/// Stored as one flat record per net — move evaluation always reads a whole
/// record, so the array-of-records layout touches one cache line per net
/// (unlike the timing batch, whose streaming analysis wants pure SoA).
struct NetRecord {
    driver: u32,
    sink: u32,
    phase: u32,
    driver_half_width: f64,
    sink_half_width: f64,
    dy: f64,
}

struct NetGeometry {
    records: Vec<NetRecord>,
}

impl NetGeometry {
    fn build(design: &PlacedDesign) -> Self {
        let records = design
            .nets
            .iter()
            .map(|net| {
                let driver = &design.cells[net.driver];
                let sink = &design.cells[net.sink];
                NetRecord {
                    driver: net.driver as u32,
                    sink: net.sink as u32,
                    phase: driver.row as u32,
                    driver_half_width: driver.width / 2.0,
                    sink_half_width: sink.width / 2.0,
                    dy: (design.row_y(driver.row) - design.row_y(sink.row)).abs(),
                }
            })
            .collect();
        Self { records }
    }
}

/// Sweeps the given rows on a worker pool with one persistent scratch per
/// worker; the returned outcomes are in `rows` order.
#[allow(clippy::too_many_arguments)]
fn sweep_rows(
    design: &PlacedDesign,
    incidence: &Csr<u32>,
    geometry: &NetGeometry,
    config: &DetailedPlacementConfig,
    layer_width: f64,
    frozen_x: &[f64],
    rows: &[usize],
    scratch_pool: &mut Vec<SweepScratch>,
) -> Vec<RowOutcome> {
    let workers = effective_threads(config.threads, rows.len());
    while scratch_pool.len() < workers {
        scratch_pool.push(SweepScratch::new(design.cells.len(), design.nets.len()));
    }
    run_in_order(rows.len(), &mut scratch_pool[..workers], |scratch, index| {
        RowSweep::new(design, incidence, geometry, config, layer_width, frozen_x, scratch)
            .sweep(&design.rows[rows[index]])
    })
}

/// Override marker for [`RowSweep::x_with`]: no cell carries this index.
const NO_OVERRIDE: (usize, f64) = (usize::MAX, 0.0);

/// Reusable per-worker arena for row sweeps: live-coordinate overlay,
/// per-net cost cache and move-evaluation buffers, all generation-stamped so
/// starting a new row or move is O(1) instead of a clear.
struct SweepScratch {
    /// Live x overrides for cells of the row being swept (valid where
    /// `x_stamp` equals `row_gen`; everything else reads the frozen
    /// snapshot).
    x_now: Vec<f64>,
    x_stamp: Vec<u32>,
    row_gen: u32,
    /// Cached current cost per net (valid where `net_stamp` equals
    /// `row_gen`; filled lazily, updated on accepted moves).
    net_cost: Vec<f64>,
    net_stamp: Vec<u32>,
    /// Scratch copy of the row's left-to-right cell order.
    order: Vec<usize>,
}

impl SweepScratch {
    fn new(cells: usize, nets: usize) -> Self {
        Self {
            x_now: vec![0.0; cells],
            x_stamp: vec![0; cells],
            row_gen: 0,
            net_cost: vec![0.0; nets],
            net_stamp: vec![0; nets],
            order: Vec::new(),
        }
    }

    /// Starts a new row: one generation bump invalidates the coordinate
    /// overlay and the cost cache.
    fn begin_row(&mut self) {
        self.row_gen = self.row_gen.wrapping_add(1);
        if self.row_gen == 0 {
            // Extremely rare wrap: stamps from 4 billion rows ago could
            // alias, so reset them once.
            self.x_stamp.fill(0);
            self.net_stamp.fill(0);
            self.row_gen = 1;
        }
    }
}

/// One row's sweep: the shared read-only context plus the worker's scratch.
/// The timing coefficients are hoisted out of the per-net model once per
/// row, so candidate evaluation touches no config structs.
struct RowSweep<'a> {
    design: &'a PlacedDesign,
    incidence: &'a Csr<u32>,
    geometry: &'a NetGeometry,
    config: &'a DetailedPlacementConfig,
    layer_width: f64,
    frozen_x: &'a [f64],
    budget_ps: f64,
    gate_delay_ps: f64,
    wire_delay_ps_per_um: f64,
    clock_skew_ps_per_um: f64,
    max_wirelength: f64,
    scratch: &'a mut SweepScratch,
}

impl<'a> RowSweep<'a> {
    #[allow(clippy::too_many_arguments)]
    fn new(
        design: &'a PlacedDesign,
        incidence: &'a Csr<u32>,
        geometry: &'a NetGeometry,
        config: &'a DetailedPlacementConfig,
        layer_width: f64,
        frozen_x: &'a [f64],
        scratch: &'a mut SweepScratch,
    ) -> Self {
        Self {
            design,
            incidence,
            geometry,
            config,
            layer_width,
            frozen_x,
            budget_ps: config.timing.phase_budget_ps(),
            gate_delay_ps: config.timing.gate_delay_ps,
            wire_delay_ps_per_um: config.timing.wire_delay_ps_per_um,
            clock_skew_ps_per_um: config.timing.clock_skew_ps_per_um,
            max_wirelength: design.rules.max_wirelength,
            scratch,
        }
    }
}

impl RowSweep<'_> {
    /// Left edge of `cell`: the live in-row value if it moved during this
    /// sweep, the frozen half-start snapshot otherwise.
    #[inline(always)]
    fn x(&self, cell: usize) -> f64 {
        if self.scratch.x_stamp[cell] == self.scratch.row_gen {
            self.scratch.x_now[cell]
        } else {
            self.frozen_x[cell]
        }
    }

    /// Like [`RowSweep::x`] with up to two positional overrides applied —
    /// the candidate positions of a move being evaluated.
    #[inline(always)]
    fn x_with(&self, cell: usize, a: (usize, f64), b: (usize, f64)) -> f64 {
        if cell == a.0 {
            a.1
        } else if cell == b.0 {
            b.1
        } else {
            self.x(cell)
        }
    }

    #[inline(always)]
    fn set_x(&mut self, cell: usize, x: f64) {
        self.scratch.x_now[cell] = x;
        self.scratch.x_stamp[cell] = self.scratch.row_gen;
    }

    /// Cost of a net with given endpoint centers: wirelength plus weighted
    /// negative slack plus the max-wirelength penalty. The arithmetic
    /// matches the scalar baseline's `net_slack`-based evaluation
    /// expression for expression, with the timing coefficients hoisted.
    #[inline(always)]
    fn cost_from_endpoints(&self, phase: u32, source_x: f64, sink_x: f64, dy: f64) -> f64 {
        let dx = (source_x - sink_x).abs();
        let length = dx + dy;
        let mut cost = length;
        let skew_distance =
            signed_phase_distance(phase as usize, source_x, sink_x, self.layer_width);
        let skew_ps = self.clock_skew_ps_per_um * skew_distance.max(0.0);
        let delay_ps = self.gate_delay_ps + self.wire_delay_ps_per_um * length;
        let slack = self.budget_ps - delay_ps - skew_ps;
        if slack < 0.0 {
            cost += self.config.timing_weight * (-slack);
        }
        // A connection longer than the process limit would force an extra
        // buffer row; weigh it heavily so detailed placement avoids it.
        let excess = length - self.max_wirelength;
        if excess > 0.0 {
            cost += 4.0 * excess;
        }
        cost
    }

    /// Cost of one net with the overrides `a` and `b` applied (the generic,
    /// lookup-heavy path; the cache-hit path is [`RowSweep::current_cost`]).
    #[inline(always)]
    fn net_cost_at(&self, net_index: usize, a: (usize, f64), b: (usize, f64)) -> f64 {
        let record = &self.geometry.records[net_index];
        let source_x = self.x_with(record.driver as usize, a, b) + record.driver_half_width;
        let sink_x = self.x_with(record.sink as usize, a, b) + record.sink_half_width;
        self.cost_from_endpoints(record.phase, source_x, sink_x, record.dy)
    }

    /// Cost of one net at the current (overlay or frozen) positions — the
    /// override-free specialization of [`RowSweep::net_cost_at`] used by
    /// cache fills and commit refreshes.
    #[inline(always)]
    fn net_cost_current(&self, net_index: usize) -> f64 {
        let record = &self.geometry.records[net_index];
        let source_x = self.x(record.driver as usize) + record.driver_half_width;
        let sink_x = self.x(record.sink as usize) + record.sink_half_width;
        self.cost_from_endpoints(record.phase, source_x, sink_x, record.dy)
    }

    /// Current cost of one net, from the cache when valid, computed and
    /// cached otherwise.
    #[inline(always)]
    fn current_cost(&mut self, net_index: usize) -> f64 {
        if self.scratch.net_stamp[net_index] == self.scratch.row_gen {
            return self.scratch.net_cost[net_index];
        }
        let cost = self.net_cost_current(net_index);
        self.scratch.net_cost[net_index] = cost;
        self.scratch.net_stamp[net_index] = self.scratch.row_gen;
        cost
    }

    /// Sweeps one row: adjacent swaps, then slides, exactly like the scalar
    /// baseline but with delta-cost evaluation. Returns the accepted moves.
    fn sweep(&mut self, row: &[usize]) -> RowOutcome {
        self.scratch.begin_row();
        let mut order = std::mem::take(&mut self.scratch.order);
        order.clear();
        order.extend_from_slice(row);
        let mut swaps = 0;
        let mut slides = 0;

        // Adjacent swaps.
        for i in 0..order.len().saturating_sub(1) {
            let (a, b) = (order[i], order[i + 1]);
            if !self.config.allow_mixed_size_swaps
                && (self.design.cells[a].width - self.design.cells[b].width).abs() > 1e-9
            {
                continue;
            }
            if self.try_swap(a, b) {
                order.swap(i, i + 1);
                swaps += 1;
            }
        }
        // Slides inside the free space around each cell.
        for i in 0..order.len() {
            let cell = order[i];
            let left_limit = if i == 0 {
                0.0
            } else {
                let left = order[i - 1];
                self.x(left) + self.design.cells[left].width
            };
            let right_limit =
                if i + 1 == order.len() { f64::INFINITY } else { self.x(order[i + 1]) };
            if self.try_slide(cell, left_limit, right_limit) {
                slides += 1;
            }
        }

        let moved = order
            .iter()
            .filter(|&&cell| self.scratch.x_stamp[cell] == self.scratch.row_gen)
            .map(|&cell| (cell, self.scratch.x_now[cell]))
            .collect();
        self.scratch.order = order;
        RowOutcome { moves: moved, swaps, slides }
    }

    /// Attempts to swap two horizontally adjacent cells, re-packing them
    /// inside their combined span. Returns whether the move was accepted.
    fn try_swap(&mut self, left: usize, right: usize) -> bool {
        let old_left_x = self.x(left);
        let old_right_x = self.x(right);
        let gap = old_right_x - (old_left_x + self.design.cells[left].width);
        debug_assert!(gap >= -1e-6, "detailed placement expects a legal design");
        // Swap order: the former right cell starts at the span origin, the
        // former left cell follows it, preserving the original gap so the
        // span width (and therefore legality with respect to the outer
        // neighbours) is unchanged.
        let new_right_x = old_left_x;
        let new_left_x = old_left_x + self.design.cells[right].width + gap.max(0.0);

        let incidence = self.incidence;
        let geometry = self.geometry;
        // Nets connect adjacent rows, so `left` and `right` share a net
        // only in the degenerate same-row case; those nets are skipped in
        // the cost sums (two compares, no stamp bookkeeping) and refreshed
        // in the commit walk.
        let touches_left = |net: usize| {
            let record = &geometry.records[net];
            record.driver as usize == left || record.sink as usize == left
        };
        let mut before = 0.0;
        for &net in incidence.row(left) {
            before += self.current_cost(net as usize);
        }
        for &net in incidence.row(right) {
            let net = net as usize;
            if !touches_left(net) {
                before += self.current_cost(net);
            }
        }
        // Per-net costs are nonnegative, so the proposed sum only grows:
        // the moment it crosses the accept threshold the swap is provably
        // rejected and the remaining nets need no evaluation.
        let mut after = 0.0;
        for &net in incidence.row(left) {
            after += self.net_cost_at(net as usize, (left, new_left_x), (right, new_right_x));
            if after + 1e-9 >= before {
                return false;
            }
        }
        for &net in incidence.row(right) {
            let net = net as usize;
            if touches_left(net) {
                continue;
            }
            after += self.net_cost_at(net, (left, new_left_x), (right, new_right_x));
            if after + 1e-9 >= before {
                return false;
            }
        }

        if after + 1e-9 < before {
            self.set_x(left, new_left_x);
            self.set_x(right, new_right_x);
            // Refresh the cache at the accepted (now live) positions; the
            // two walks cover every incident net exactly once, including
            // any degenerate shared ones.
            for &net in incidence.row(left) {
                let net = net as usize;
                let cost = self.net_cost_current(net);
                self.scratch.net_cost[net] = cost;
                self.scratch.net_stamp[net] = self.scratch.row_gen;
            }
            for &net in incidence.row(right) {
                let net = net as usize;
                if touches_left(net) {
                    continue;
                }
                let cost = self.net_cost_current(net);
                self.scratch.net_cost[net] = cost;
                self.scratch.net_stamp[net] = self.scratch.row_gen;
            }
            true
        } else {
            false
        }
    }

    /// Attempts to slide a cell toward the position that minimizes its
    /// local cost, staying inside `[left_limit, right_limit]` and keeping
    /// either abutment or minimum spacing to both neighbours.
    fn try_slide(&mut self, cell: usize, left_limit: f64, right_limit: f64) -> bool {
        let original_x = self.x(cell);
        let width = self.design.cells[cell].width;
        let grid = self.design.rules.grid;
        let spacing = self.design.rules.min_spacing;

        let incidence = self.incidence;
        let geometry = self.geometry;
        let nets = incidence.row(cell);
        if nets.is_empty() {
            return false;
        }
        // Candidate target: the average position of the cells this one
        // connects to (its force-directed optimum), clamped to the legal
        // span. Out-of-row endpoints read the frozen snapshot.
        let mut neighbour_sum = 0.0;
        for &net in nets {
            let record = &geometry.records[net as usize];
            let (other, other_half) = if record.driver as usize == cell {
                (record.sink as usize, record.sink_half_width)
            } else {
                (record.driver as usize, record.driver_half_width)
            };
            neighbour_sum += self.x(other) + other_half;
        }
        let optimal_center = neighbour_sum / nets.len() as f64;
        let optimal_x = ((optimal_center - width / 2.0) / grid).round() * grid;

        // Fixed candidate set, in the same priority order as the scalar
        // baseline; infinite right limits leave their two slots NaN.
        let mut candidates = [left_limit, left_limit + spacing, f64::NAN, f64::NAN, optimal_x];
        if right_limit.is_finite() {
            candidates[2] = right_limit - width;
            candidates[3] = right_limit - width - spacing;
        }

        // Snap, legality-check and deduplicate the candidates *before*
        // computing any net cost: in a packed row most cells have no legal
        // distinct target at all, and bailing here skips the whole
        // evaluation. (Dropping an exact duplicate cannot change the
        // outcome — its cost would tie, and ties never replace `best`.)
        let mut targets = [0.0f64; 5];
        let mut target_count = 0;
        'candidates: for candidate in candidates {
            if !candidate.is_finite() {
                continue;
            }
            let snapped = (candidate / grid).round() * grid;
            if !slide_is_legal(snapped, width, left_limit, right_limit, spacing)
                || (snapped - original_x).abs() < 1e-9
            {
                continue;
            }
            for &seen in &targets[..target_count] {
                if snapped == seen {
                    continue 'candidates;
                }
            }
            targets[target_count] = snapped;
            target_count += 1;
        }
        if target_count == 0 {
            return false;
        }

        let mut before = 0.0;
        for &net in nets {
            before += self.current_cost(net as usize);
        }

        let mut best = (before, original_x);
        for &snapped in &targets[..target_count] {
            // Same exact pruning as the swap path: the candidate's cost sum
            // only grows, so it stops competing the moment it reaches the
            // incumbent best.
            let mut cost = 0.0;
            let mut viable = true;
            for &net in nets {
                cost += self.net_cost_at(net as usize, (cell, snapped), NO_OVERRIDE);
                if cost + 1e-9 >= best.0 {
                    viable = false;
                    break;
                }
            }
            if viable && cost + 1e-9 < best.0 {
                best = (cost, snapped);
            }
        }

        if (best.1 - original_x).abs() > 1e-9 {
            self.set_x(cell, best.1);
            for &net in nets {
                let net = net as usize;
                let cost = self.net_cost_current(net);
                self.scratch.net_cost[net] = cost;
                self.scratch.net_stamp[net] = self.scratch.row_gen;
            }
            true
        } else {
            false
        }
    }
}

/// Whether a slide target keeps either abutment or minimum spacing to both
/// neighbours.
fn slide_is_legal(x: f64, width: f64, left_limit: f64, right_limit: f64, spacing: f64) -> bool {
    if x < left_limit - 1e-9 {
        return false;
    }
    let left_gap = x - left_limit;
    if left_gap > 1e-9 && left_gap < spacing - 1e-9 {
        return false;
    }
    if right_limit.is_finite() {
        let right_gap = right_limit - (x + width);
        if right_gap < -1e-9 {
            return false;
        }
        if right_gap > 1e-9 && right_gap < spacing - 1e-9 {
            return false;
        }
    }
    true
}

/// The pre-rewrite scalar detailed placer, kept as the perf baseline the
/// `placement_perf` bench compares against.
///
/// Allocates and sorts a net list per evaluated candidate and sweeps rows
/// strictly serially with immediately visible moves (Gauss-Seidel order), so
/// its results differ slightly from [`detailed_place`]'s frozen-snapshot
/// half-sweeps; its quality is equivalent, its speed is what the delta-cost
/// rewrite is measured against. Ignores [`DetailedPlacementConfig::threads`].
pub fn detailed_place_reference(
    design: &mut PlacedDesign,
    config: &DetailedPlacementConfig,
) -> DetailedPlacementReport {
    let hpwl_before = design.hpwl();
    let analyzer = TimingAnalyzer::new(config.timing);
    let incident = reference_incident_nets(design);
    let mut report = DetailedPlacementReport {
        swaps_accepted: 0,
        slides_accepted: 0,
        hpwl_before,
        hpwl_after: hpwl_before,
        passes_run: 0,
        pass_moves: Vec::new(),
    };

    for _ in 0..config.passes {
        let layer_width = design.layer_width().max(1.0);
        let pass_start_moves = report.swaps_accepted + report.slides_accepted;

        design.sort_rows_by_x();
        let rows = design.rows.clone();
        for row in &rows {
            // `order` tracks the left-to-right adjacency as moves are
            // applied within this pass, so neighbour lookups never go stale.
            let mut order = row.clone();
            for i in 0..order.len().saturating_sub(1) {
                let (a, b) = (order[i], order[i + 1]);
                if !config.allow_mixed_size_swaps
                    && (design.cells[a].width - design.cells[b].width).abs() > 1e-9
                {
                    continue;
                }
                if reference_try_swap(design, &analyzer, &incident, config, layer_width, a, b) {
                    order.swap(i, i + 1);
                    report.swaps_accepted += 1;
                }
            }
            for i in 0..order.len() {
                let cell = order[i];
                let left_limit = if i == 0 { 0.0 } else { design.cells[order[i - 1]].right() };
                let right_limit =
                    if i + 1 == order.len() { f64::INFINITY } else { design.cells[order[i + 1]].x };
                if reference_try_slide(
                    design,
                    &analyzer,
                    &incident,
                    config,
                    layer_width,
                    cell,
                    left_limit,
                    right_limit,
                ) {
                    report.slides_accepted += 1;
                }
            }
        }

        let pass_accepted = report.swaps_accepted + report.slides_accepted - pass_start_moves;
        report.passes_run += 1;
        report.pass_moves.push(pass_accepted);
        if pass_accepted == 0 {
            break;
        }
    }

    design.sort_rows_by_x();
    report.hpwl_after = design.hpwl();
    report
}

/// Builds the per-cell incident-net lists the scalar baseline walks.
fn reference_incident_nets(design: &PlacedDesign) -> Vec<Vec<usize>> {
    let mut incident = vec![Vec::new(); design.cells.len()];
    for (index, net) in design.nets.iter().enumerate() {
        incident[net.driver].push(index);
        incident[net.sink].push(index);
    }
    incident
}

/// Local cost of the nets incident to `cells`: wirelength plus weighted
/// negative slack (scalar baseline: allocates and sorts per call).
fn reference_local_cost(
    design: &PlacedDesign,
    analyzer: &TimingAnalyzer,
    incident: &[Vec<usize>],
    config: &DetailedPlacementConfig,
    layer_width: f64,
    cells: &[usize],
) -> f64 {
    let mut seen: Vec<usize> = cells.iter().flat_map(|&c| incident[c].iter().copied()).collect();
    seen.sort_unstable();
    seen.dedup();
    let mut cost = 0.0;
    for net_index in seen {
        let net = &design.nets[net_index];
        let driver = &design.cells[net.driver];
        let sink = &design.cells[net.sink];
        let length = design.net_length(net);
        cost += length;
        let slack = analyzer.net_slack(
            &PlacedNet {
                phase: driver.row,
                source_x: driver.center_x(),
                sink_x: sink.center_x(),
                length_um: length,
            },
            layer_width,
        );
        if slack < 0.0 {
            cost += config.timing_weight * (-slack);
        }
        let excess = length - design.rules.max_wirelength;
        if excess > 0.0 {
            cost += 4.0 * excess;
        }
    }
    cost
}

#[allow(clippy::too_many_arguments)]
fn reference_try_swap(
    design: &mut PlacedDesign,
    analyzer: &TimingAnalyzer,
    incident: &[Vec<usize>],
    config: &DetailedPlacementConfig,
    layer_width: f64,
    left: usize,
    right: usize,
) -> bool {
    let old_left_x = design.cells[left].x;
    let old_right_x = design.cells[right].x;
    let gap = design.cells[right].x - design.cells[left].right();
    debug_assert!(gap >= -1e-6, "detailed placement expects a legal design");

    let before =
        reference_local_cost(design, analyzer, incident, config, layer_width, &[left, right]);
    design.cells[right].x = old_left_x;
    design.cells[left].x = old_left_x + design.cells[right].width + gap.max(0.0);
    let after =
        reference_local_cost(design, analyzer, incident, config, layer_width, &[left, right]);

    if after + 1e-9 < before {
        true
    } else {
        design.cells[left].x = old_left_x;
        design.cells[right].x = old_right_x;
        false
    }
}

#[allow(clippy::too_many_arguments)]
fn reference_try_slide(
    design: &mut PlacedDesign,
    analyzer: &TimingAnalyzer,
    incident: &[Vec<usize>],
    config: &DetailedPlacementConfig,
    layer_width: f64,
    cell: usize,
    left_limit: f64,
    right_limit: f64,
) -> bool {
    let original_x = design.cells[cell].x;
    let width = design.cells[cell].width;
    let grid = design.rules.grid;
    let spacing = design.rules.min_spacing;

    let mut neighbour_sum = 0.0;
    let mut neighbour_count = 0.0;
    for &net_index in &incident[cell] {
        let net = &design.nets[net_index];
        let other = if net.driver == cell { net.sink } else { net.driver };
        neighbour_sum += design.cells[other].center_x();
        neighbour_count += 1.0;
    }
    if neighbour_count == 0.0 {
        return false;
    }
    let optimal_center = neighbour_sum / neighbour_count;
    let optimal_x = ((optimal_center - width / 2.0) / grid).round() * grid;

    let mut candidates: Vec<f64> = vec![left_limit, left_limit + spacing];
    if right_limit.is_finite() {
        candidates.push(right_limit - width);
        candidates.push(right_limit - width - spacing);
    }
    candidates.push(optimal_x);

    let before = reference_local_cost(design, analyzer, incident, config, layer_width, &[cell]);
    let mut best = (before, original_x);
    for candidate in candidates {
        let snapped = (candidate / grid).round() * grid;
        if !slide_is_legal(snapped, width, left_limit, right_limit, spacing)
            || (snapped - original_x).abs() < 1e-9
        {
            continue;
        }
        design.cells[cell].x = snapped;
        let cost = reference_local_cost(design, analyzer, incident, config, layer_width, &[cell]);
        if cost + 1e-9 < best.0 {
            best = (cost, snapped);
        }
    }
    design.cells[cell].x = best.1;
    (best.1 - original_x).abs() > 1e-9
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::global::{global_place, GlobalPlacementConfig};
    use crate::legalize::legalize;
    use aqfp_cells::Technology;
    use aqfp_netlist::generators::{benchmark_circuit, Benchmark};
    use aqfp_synth::Synthesizer;

    fn legal_design(benchmark: Benchmark) -> PlacedDesign {
        let library = Technology::mit_ll_sqf5ee();
        let synthesized =
            Synthesizer::new(library.clone()).run(&benchmark_circuit(benchmark)).expect("ok");
        let mut design = PlacedDesign::from_synthesized(&synthesized, &library);
        global_place(&mut design, &GlobalPlacementConfig::default());
        legalize(&mut design);
        design
    }

    #[test]
    fn detailed_placement_keeps_design_legal() {
        let mut design = legal_design(Benchmark::Adder8);
        detailed_place(&mut design, &DetailedPlacementConfig::default());
        assert_eq!(design.overlap_count(), 0, "no overlaps after detailed placement");
        assert_eq!(design.spacing_violations(), 0, "spacing rule holds after detailed placement");
    }

    #[test]
    fn detailed_placement_does_not_worsen_hpwl_much() {
        let mut design = legal_design(Benchmark::Adder8);
        let report = detailed_place(&mut design, &DetailedPlacementConfig::default());
        assert!(
            report.hpwl_after <= report.hpwl_before * 1.05,
            "detailed placement should not significantly degrade HPWL ({} -> {})",
            report.hpwl_before,
            report.hpwl_after
        );
    }

    #[test]
    fn mixed_size_swapping_finds_at_least_as_many_moves() {
        let base = legal_design(Benchmark::Apc32);

        let mut flexible = base.clone();
        let flexible_report = detailed_place(
            &mut flexible,
            &DetailedPlacementConfig { allow_mixed_size_swaps: true, ..Default::default() },
        );
        let mut restricted = base;
        let restricted_report = detailed_place(
            &mut restricted,
            &DetailedPlacementConfig { allow_mixed_size_swaps: false, ..Default::default() },
        );
        assert!(
            flexible_report.swaps_accepted >= restricted_report.swaps_accepted,
            "mixed-size swapping explores a superset of moves"
        );
    }

    #[test]
    fn rows_never_change_in_detailed_placement() {
        let mut design = legal_design(Benchmark::Adder8);
        let rows_before: Vec<usize> = design.cells.iter().map(|c| c.row).collect();
        detailed_place(&mut design, &DetailedPlacementConfig::default());
        let rows_after: Vec<usize> = design.cells.iter().map(|c| c.row).collect();
        assert_eq!(rows_before, rows_after);
    }

    #[test]
    fn zero_passes_is_a_no_op() {
        let mut design = legal_design(Benchmark::Adder8);
        let xs: Vec<f64> = design.cells.iter().map(|c| c.x).collect();
        let report = detailed_place(
            &mut design,
            &DetailedPlacementConfig { passes: 0, ..Default::default() },
        );
        let xs_after: Vec<f64> = design.cells.iter().map(|c| c.x).collect();
        assert_eq!(xs, xs_after);
        assert_eq!(report.swaps_accepted, 0);
        assert_eq!(report.passes_run, 0);
        assert!(report.pass_moves.is_empty());
    }

    #[test]
    fn serial_and_parallel_sweeps_are_byte_identical() {
        let base = legal_design(Benchmark::Apc32);
        let mut reference: Option<(Vec<u64>, DetailedPlacementReport)> = None;
        for threads in [1usize, 2, 4, 0] {
            let mut design = base.clone();
            let report = detailed_place(
                &mut design,
                &DetailedPlacementConfig { threads, ..Default::default() },
            );
            let bits: Vec<u64> = design.cells.iter().map(|c| c.x.to_bits()).collect();
            match &reference {
                None => reference = Some((bits, report)),
                Some((expected_bits, expected_report)) => {
                    assert_eq!(
                        expected_bits, &bits,
                        "thread count {threads} changed the placed coordinates"
                    );
                    assert_eq!(
                        expected_report, &report,
                        "thread count {threads} changed the report"
                    );
                }
            }
        }
    }

    #[test]
    fn report_tracks_per_pass_convergence() {
        let mut design = legal_design(Benchmark::Adder8);
        let report = detailed_place(&mut design, &DetailedPlacementConfig::default());
        assert!(report.passes_run >= 1);
        assert_eq!(report.pass_moves.len(), report.passes_run);
        let total: usize = report.pass_moves.iter().sum();
        assert_eq!(total, report.swaps_accepted + report.slides_accepted);
        // The loop stops after the first zero-move pass, so only the last
        // executed pass may be empty.
        for &moves in &report.pass_moves[..report.passes_run - 1] {
            assert!(moves > 0, "only the final pass may accept no move");
        }
    }

    #[test]
    fn reference_and_delta_paths_agree_on_quality() {
        let base = legal_design(Benchmark::Adder8);

        let mut delta = base.clone();
        let delta_report = detailed_place(
            &mut delta,
            &DetailedPlacementConfig { threads: 1, ..Default::default() },
        );
        let mut scalar = base;
        let scalar_report = detailed_place_reference(&mut scalar, &Default::default());

        assert_eq!(delta.overlap_count(), 0);
        assert_eq!(scalar.overlap_count(), 0);
        // The two evaluation orders accept slightly different move sets but
        // must land on comparable wirelength.
        assert!(
            delta_report.hpwl_after <= scalar_report.hpwl_after * 1.05,
            "delta path HPWL ({}) within 5% of the scalar baseline ({})",
            delta_report.hpwl_after,
            scalar_report.hpwl_after
        );
    }
}
