//! Analytical global placement (§III-C.2 of the paper).
//!
//! The global placer optimizes the horizontal position of every cell while
//! its row (clock phase) stays fixed, minimizing the relaxed objective of
//! Eq. (3):
//!
//! ```text
//! min_x  Σ_e  W(e) + λ_t·T(e) + λ_w·max(0, W(e) − W_max)²
//! ```
//!
//! `W(e)` is a smooth wirelength model (the weighted-average model reduces
//! to a smoothed |Δx| for AQFP's two-pin nets), `T(e)` is the four-phase
//! timing cost of Eq. (2) and the last term penalizes connections longer
//! than the process maximum. A light pairwise spreading force keeps cells in
//! the same row from collapsing onto each other before legalization.
//!
//! The paper uses DREAMPlace as the optimization engine; this reproduction
//! uses a CPU gradient-descent optimizer with momentum (Adam-style step
//! scaling), which is sufficient for the benchmark sizes involved. It
//! starts from the quadratic-wirelength optimum of a Gauss-Seidel warm
//! start (`warm_start`, 40 sweeps); the same warm start at 60 sweeps is
//! the whole global placement of Table III's GORDIAN-based baseline.
//!
//! # Sharded execution and the halo-exchange invariant
//!
//! At 10⁵–10⁶ cells one gradient iteration dominates the flow's wall
//! clock, so the optimizer shards the design: rows are grouped into at
//! most [`MAX_SHARDS`] contiguous shards balanced by cell count, and a
//! `std::thread::scope` pool (sized by
//! [`crate::parallel::effective_threads`] from
//! [`GlobalPlacementConfig::threads`]) owns a contiguous block of shards
//! per worker, plus an equal slice of the net list. Each iteration runs
//! four phases and two barriers:
//!
//! 1. *barrier* — the halo exchange (below);
//! 2. **evaluate** — every worker computes the gradient terms of its own
//!    nets once each (one `sqrt`, one `|d|^(α−1)`, which is `|d|` itself
//!    at the paper's α = 2) into per-net arrays, reading the positions of
//!    cells in any shard;
//! 3. *barrier* — every net's terms are final before anyone reads them;
//! 4. **gather** — every worker adds up the gradient of its own cells by
//!    *gathering* the terms of their incident nets over a per-cell
//!    incidence list (CSR), writing only its own gradient slots;
//! 5. **spread** — the intra-row overlap force; rows never span shards, so
//!    this phase is entirely shard-local;
//! 6. **update** — the momentum step writes the new positions of the
//!    worker's own cells.
//!
//! Gather, spread and update need no barrier between them: the gather
//! reads net terms, which stay frozen until the next evaluate, and spread
//! and update touch only the worker's own rows. Positions are exchanged
//! across shards only at the barrier that opens each iteration — that
//! barrier is the halo exchange, and it is the invariant that makes the
//! result independent of the worker count: shard boundaries depend only on
//! the design (never on the machine or the thread knob), every net's terms
//! and every gradient slot are written by exactly one worker from inputs
//! that are frozen for the whole phase, and per-shard objective partial
//! sums are reduced in shard order. The gather replays, per cell, the
//! exact floating-point addition sequence of the serial net-order scatter
//! (per incident net, in net order: wirelength, then timing, then
//! max-wirelength term), so sharded and serial runs are **byte-identical
//! at any thread count** — the same contract the detailed placer and
//! router already keep, pinned by the golden-GDS tests and randomized
//! cross-thread-count tests in `tests/property.rs`.
//!
//! The objective itself feeds no gradient, so its net terms (smoothed
//! wirelength, timing cost and excess²) are evaluated on the final
//! iteration only, at the positions that iteration starts from. The
//! spreading penalty costs two multiplies in the spread phase's force loop,
//! so that loop sums it every iteration and only the final sum is kept.
//!
//! [`global_place_reference`] keeps the original single-threaded net-order
//! scatter implementation as the oracle those tests compare against.

use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Barrier;

use aqfp_cells::CancelToken;
use aqfp_netlist::Csr;
use serde::{Deserialize, Serialize};

use aqfp_timing::model::{
    phase_timing_cost, phase_timing_cost_grad_end, phase_timing_cost_grad_start,
    phase_timing_cost_grads,
};

use crate::design::PlacedDesign;
use crate::parallel::effective_threads;

/// Upper bound on the number of placement shards. Shard boundaries are a
/// pure function of the design (rows grouped by cumulative cell count), so
/// the objective's reduction order — and therefore every reported number —
/// is identical on a laptop and a 128-core server.
pub const MAX_SHARDS: usize = 32;

/// Designs below this cell count never spawn workers when the thread knob
/// is `0` (auto): the per-iteration barrier overhead exceeds the gradient
/// work. An explicit thread count is always honored, which is how the
/// byte-identity tests drive the parallel path on small designs.
const PARALLEL_MIN_CELLS: usize = 2048;

/// Momentum coefficient of the gradient-descent optimizer.
const MOMENTUM: f64 = 0.7;

/// Tuning parameters of the global placer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GlobalPlacementConfig {
    /// Weight λ_t of the timing cost.
    pub timing_weight: f64,
    /// Weight λ_w of the max-wirelength penalty.
    pub max_wirelength_weight: f64,
    /// Weight of the intra-row spreading (overlap) force.
    pub spreading_weight: f64,
    /// Smoothing epsilon of the wirelength model, in µm.
    pub smoothing_um: f64,
    /// Exponent α of the timing model. `PlacementEngine::place` overrides
    /// it with the technology's `TimingConfig::alpha`; it holds for direct
    /// callers of [`global_place`].
    pub alpha: f64,
    /// Number of gradient-descent iterations.
    pub iterations: usize,
    /// Initial learning rate, in µm per unit gradient.
    pub learning_rate: f64,
    /// Worker threads for the sharded optimizer: `0` resolves to every
    /// available core (small designs still run serially), any other value
    /// is used as-is. The result is byte-identical at every setting — see
    /// the [module docs](self) for the invariant.
    pub threads: usize,
}

impl Default for GlobalPlacementConfig {
    fn default() -> Self {
        Self {
            timing_weight: 0.02,
            max_wirelength_weight: 0.002,
            spreading_weight: 0.05,
            smoothing_um: 5.0,
            alpha: 2.0,
            iterations: 500,
            learning_rate: 1.0,
            threads: 0,
        }
    }
}

/// Summary of one global-placement run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GlobalPlacementReport {
    /// HPWL before optimization, µm.
    pub hpwl_before: f64,
    /// HPWL after optimization, µm.
    pub hpwl_after: f64,
    /// Objective value at the start of the final iteration. It is
    /// evaluated on that iteration only, so it reads 0.0 when cancellation
    /// stopped the run before the final iteration.
    pub final_objective: f64,
    /// Iterations executed.
    pub iterations: usize,
}

/// Runs analytical global placement in place, returning a report.
///
/// Cell rows never change; only x coordinates move. The result typically
/// contains overlaps — run legalization afterwards.
pub fn global_place(
    design: &mut PlacedDesign,
    config: &GlobalPlacementConfig,
) -> GlobalPlacementReport {
    global_place_cancellable(design, config, &CancelToken::none())
}

/// Working memory of one global-placement run: the row-major permutation,
/// the CSR incidence lists and every hot-loop buffer.
#[derive(Debug, Default)]
struct GlobalPlaceScratch {
    /// Row-major permutation: slot `j` holds cell index `perm[j]`.
    perm: Vec<u32>,
    /// Slot of each cell: `inv_perm[cell] = j`.
    inv_perm: Vec<u32>,
    /// Slot range of row `r`: `row_start[r]..row_start[r + 1]`.
    row_start: Vec<u32>,
    /// Cell widths by slot.
    width: Vec<f64>,
    /// Driver slot of each net.
    net_dj: Vec<u32>,
    /// Sink slot of each net.
    net_sj: Vec<u32>,
    /// Clock phase (driver row) of each net.
    net_phase: Vec<u32>,
    /// Incident net indices of each slot, in net order.
    incidence: Csr<u32>,
    /// Shard boundaries as row indices, `shard_count + 1` entries.
    shard_rows: Vec<u32>,
    /// Cell x positions by slot, as `f64` bits. Atomic because the evaluate
    /// phase reads halo positions while no one writes, and the update
    /// phase writes owned slots while only their owner reads them — the
    /// iteration barriers provide the happens-before edges, so `Relaxed`
    /// suffices.
    xs: Vec<AtomicU64>,
    /// Gradient terms of each net, by net index: written by the evaluate
    /// phase, read by the gathers of both endpoints' shards.
    net_terms: Vec<NetTerms>,
    /// Objective gradient by slot.
    gradient: Vec<f64>,
    /// Momentum velocity by slot.
    velocity: Vec<f64>,
    /// Per-row order index (slots), re-sorted in place every iteration.
    sorted: Vec<u32>,
    /// Net-term objective partial sum per shard.
    obj_net: Vec<f64>,
    /// Spreading-penalty partial sum per shard.
    obj_spread: Vec<f64>,
}

impl GlobalPlaceScratch {
    /// Builds every derived structure for `design`.
    fn prepare(&mut self, design: &PlacedDesign) {
        let n = design.cells.len();
        let net_count = design.nets.len();

        // Row-major permutation: each row's cells occupy one contiguous
        // slot range, so shards (unions of whole rows) are contiguous too.
        self.perm.clear();
        self.row_start.clear();
        self.row_start.push(0);
        for row in &design.rows {
            for &cell in row {
                self.perm.push(cell as u32);
            }
            self.row_start.push(self.perm.len() as u32);
        }
        debug_assert_eq!(self.perm.len(), n, "rows must partition the cells");
        self.inv_perm.clear();
        self.inv_perm.resize(n, 0);
        for (j, &cell) in self.perm.iter().enumerate() {
            self.inv_perm[cell as usize] = j as u32;
        }
        self.width.clear();
        self.width.extend(self.perm.iter().map(|&cell| design.cells[cell as usize].width));

        // Nets with permuted endpoints, plus the per-slot incidence CSR
        // (per slot in ascending net order — the order the gather relies
        // on to replay the serial scatter's addition sequence).
        self.net_dj.clear();
        self.net_sj.clear();
        self.net_phase.clear();
        for net in &design.nets {
            self.net_dj.push(self.inv_perm[net.driver]);
            self.net_sj.push(self.inv_perm[net.sink]);
            self.net_phase.push(design.cells[net.driver].row as u32);
        }
        let (dj, sj) = (&self.net_dj, &self.net_sj);
        self.incidence = Csr::from_pairs(n, || {
            (0..net_count).flat_map(|k| [(dj[k] as usize, k as u32), (sj[k] as usize, k as u32)])
        });

        // Shard boundaries: rows grouped by cumulative cell count. A pure
        // function of the design — never of the thread knob or machine.
        let shard_count = design.rows.len().clamp(1, MAX_SHARDS);
        self.shard_rows.clear();
        self.shard_rows.push(0);
        let mut cells_so_far = 0usize;
        let mut next_shard = 1usize;
        for (r, row) in design.rows.iter().enumerate() {
            cells_so_far += row.len();
            while next_shard < shard_count && cells_so_far * shard_count >= n * next_shard {
                self.shard_rows.push((r + 1) as u32);
                next_shard += 1;
            }
        }
        while next_shard < shard_count {
            self.shard_rows.push(design.rows.len() as u32);
            next_shard += 1;
        }
        self.shard_rows.push(design.rows.len() as u32);

        // Hot-loop buffers. The order index starts as the identity over
        // slots — exactly the rows' own cell order, like the reference's
        // `design.rows.clone()` — and persists across iterations so the
        // adaptive sort runs near O(n) on almost-sorted data.
        self.xs.clear();
        self.xs.resize_with(n, || AtomicU64::new(0));
        self.net_terms.clear();
        self.net_terms.resize_with(net_count, NetTerms::default);
        self.gradient.clear();
        self.gradient.resize(n, 0.0);
        self.velocity.clear();
        self.velocity.resize(n, 0.0);
        self.sorted.clear();
        self.sorted.extend(0..n as u32);
        self.obj_net.clear();
        self.obj_net.resize(shard_count, 0.0);
        self.obj_spread.clear();
        self.obj_spread.resize(shard_count, 0.0);
    }
}

/// One net's gradient terms for the current iteration, as `f64` bits.
/// Atomic for the same reason as the positions: the barrier after the
/// evaluate phase orders every write before the gathers read, so `Relaxed`
/// suffices. A disabled or inactive term holds 0.0, which the gather may
/// add without changing a bit (its sum starts at +0.0, so it is never
/// −0.0). Aligned so one net's terms share a cache line.
#[derive(Debug, Default)]
#[repr(align(32))]
struct NetTerms {
    /// Wirelength derivative with respect to the sink's x; the driver's is
    /// its negation.
    wirelength: AtomicU64,
    /// Timing derivative with respect to the driver's x.
    timing_start: AtomicU64,
    /// Timing derivative with respect to the sink's x.
    timing_end: AtomicU64,
    /// Max-wirelength derivative with respect to the sink's x; the
    /// driver's is its negation.
    excess: AtomicU64,
}

/// [`global_place`] with a cooperative [`CancelToken`]: the token is polled
/// once per warm-start sweep and once per gradient iteration, and a fired
/// token ends the optimization early (the report's `iterations` records
/// how many actually ran). The design is left in whatever intermediate
/// state the last completed iteration produced — callers that honor
/// cancellation discard it.
pub fn global_place_cancellable(
    design: &mut PlacedDesign,
    config: &GlobalPlacementConfig,
    cancel: &CancelToken,
) -> GlobalPlacementReport {
    let hpwl_before = design.hpwl();
    let n = design.cells.len();
    if n == 0 || design.nets.is_empty() {
        return GlobalPlacementReport {
            hpwl_before,
            hpwl_after: hpwl_before,
            final_objective: 0.0,
            iterations: 0,
        };
    }

    // Warm start: a few Gauss-Seidel "average of neighbours" sweeps give the
    // quadratic wirelength optimum as the starting point, so the gradient
    // refinement only has to trade wirelength against the timing and
    // max-wirelength terms instead of dragging cells across the whole row.
    warm_start(design, 40, cancel);
    let mut scratch = GlobalPlaceScratch::default();
    scratch.prepare(design);
    let layer_width = design.layer_width().max(1.0);
    for (j, &cell) in scratch.perm.iter().enumerate() {
        scratch.xs[j].store(design.cells[cell as usize].x.to_bits(), Ordering::Relaxed);
    }

    let shard_count = scratch.shard_rows.len() - 1;
    let threads = if config.threads == 0 && n < PARALLEL_MIN_CELLS {
        1
    } else {
        effective_threads(config.threads, shard_count)
    };

    let shared = SharedState {
        config,
        layer_width,
        row_pitch: design.row_pitch,
        max_wirelength: design.rules.max_wirelength,
        width: &scratch.width,
        net_dj: &scratch.net_dj,
        net_sj: &scratch.net_sj,
        net_phase: &scratch.net_phase,
        net_terms: &scratch.net_terms,
        incidence: &scratch.incidence,
        row_start: &scratch.row_start,
        shard_rows: &scratch.shard_rows,
        xs: &scratch.xs,
        barrier: Barrier::new(threads),
        stop: AtomicBool::new(false),
        iterations_run: AtomicUsize::new(0),
        cancel,
    };

    // Per-worker chunks: a contiguous block of shards, hence a contiguous
    // slot range, so every mutable buffer splits without locks, and an
    // equal range of nets to evaluate.
    let net_count = design.nets.len();
    let mut chunks = Vec::with_capacity(threads);
    {
        let mut gradient = scratch.gradient.as_mut_slice();
        let mut velocity = scratch.velocity.as_mut_slice();
        let mut sorted = scratch.sorted.as_mut_slice();
        let mut obj_net = scratch.obj_net.as_mut_slice();
        let mut obj_spread = scratch.obj_spread.as_mut_slice();
        let mut s0 = 0usize;
        let mut j0 = 0usize;
        for t in 0..threads {
            let s1 = ((t + 1) * shard_count) / threads;
            let j1 = shared.row_start[shared.shard_rows[s1] as usize] as usize;
            let (g, g_rest) = gradient.split_at_mut(j1 - j0);
            let (v, v_rest) = velocity.split_at_mut(j1 - j0);
            let (so, so_rest) = sorted.split_at_mut(j1 - j0);
            let (on, on_rest) = obj_net.split_at_mut(s1 - s0);
            let (os, os_rest) = obj_spread.split_at_mut(s1 - s0);
            gradient = g_rest;
            velocity = v_rest;
            sorted = so_rest;
            obj_net = on_rest;
            obj_spread = os_rest;
            chunks.push(ShardChunk {
                s0,
                s1,
                j0,
                nets: t * net_count / threads..(t + 1) * net_count / threads,
                gradient: g,
                velocity: v,
                sorted: so,
                obj_net: on,
                obj_spread: os,
            });
            s0 = s1;
            j0 = j1;
        }
    }

    if threads == 1 {
        let chunk = chunks.into_iter().next().expect("one chunk");
        shard_worker(true, &shared, chunk);
    } else {
        std::thread::scope(|scope| {
            for (t, chunk) in chunks.into_iter().enumerate() {
                let shared = &shared;
                scope.spawn(move || shard_worker(t == 0, shared, chunk));
            }
        });
    }

    let iterations_run = shared.iterations_run.load(Ordering::Relaxed);
    for (j, &cell) in scratch.perm.iter().enumerate() {
        design.cells[cell as usize].x = f64::from_bits(scratch.xs[j].load(Ordering::Relaxed));
    }
    design.sort_rows_by_x();
    let final_objective =
        scratch.obj_net.iter().sum::<f64>() + scratch.obj_spread.iter().sum::<f64>();
    GlobalPlacementReport {
        hpwl_before,
        hpwl_after: design.hpwl(),
        final_objective,
        iterations: iterations_run,
    }
}

/// Read-shared state of one optimization run.
struct SharedState<'a> {
    config: &'a GlobalPlacementConfig,
    layer_width: f64,
    row_pitch: f64,
    max_wirelength: f64,
    width: &'a [f64],
    net_dj: &'a [u32],
    net_sj: &'a [u32],
    net_phase: &'a [u32],
    net_terms: &'a [NetTerms],
    incidence: &'a Csr<u32>,
    row_start: &'a [u32],
    shard_rows: &'a [u32],
    xs: &'a [AtomicU64],
    barrier: Barrier,
    /// Set by the leader before the iteration barrier so every worker
    /// takes the same break decision — workers never poll the cancel
    /// token themselves, which would race the barrier and deadlock.
    stop: AtomicBool,
    iterations_run: AtomicUsize,
    cancel: &'a CancelToken,
}

/// One worker's exclusively-owned buffer slices.
struct ShardChunk<'a> {
    /// Owned shard range `s0..s1`.
    s0: usize,
    s1: usize,
    /// First owned slot; chunk slices index from here.
    j0: usize,
    /// Nets this worker evaluates.
    nets: Range<usize>,
    gradient: &'a mut [f64],
    velocity: &'a mut [f64],
    sorted: &'a mut [u32],
    obj_net: &'a mut [f64],
    obj_spread: &'a mut [f64],
}

#[inline]
fn load_x(xs: &[AtomicU64], j: usize) -> f64 {
    load_f64(&xs[j])
}

#[inline]
fn load_f64(bits: &AtomicU64) -> f64 {
    f64::from_bits(bits.load(Ordering::Relaxed))
}

#[inline]
fn store_f64(bits: &AtomicU64, value: f64) {
    bits.store(value.to_bits(), Ordering::Relaxed);
}

/// The per-worker iteration loop; with one worker this runs inline on the
/// caller's thread (the barrier is then a no-op), so serial and parallel
/// runs execute literally the same code.
fn shard_worker(leader: bool, shared: &SharedState<'_>, mut chunk: ShardChunk<'_>) {
    let iterations = shared.config.iterations;
    for iteration in 0..iterations {
        if leader {
            if shared.cancel.is_cancelled() {
                shared.stop.store(true, Ordering::Relaxed);
            } else {
                shared.iterations_run.fetch_add(1, Ordering::Relaxed);
            }
        }
        // This barrier both publishes the leader's stop decision and is
        // the halo exchange: it orders the previous iteration's position
        // writes before this iteration's evaluate reads.
        shared.barrier.wait();
        if shared.stop.load(Ordering::Relaxed) {
            break;
        }

        let last = iteration + 1 == iterations;
        evaluate_nets(shared, chunk.nets.clone());
        if last {
            // Positions are frozen here, as the objective's halo reads need.
            for s in chunk.s0..chunk.s1 {
                chunk.obj_net[s - chunk.s0] = net_objective(shared, s);
            }
        }

        // Every net's terms must be final before any gather reads them.
        // Nothing below reads another worker's positions, so the update
        // needs no barrier of its own.
        shared.barrier.wait();

        // Ramp the spreading force: early iterations let cells cluster near
        // their wirelength optimum, late iterations push them apart so the
        // hand-off to Tetris legalization displaces cells as little as
        // possible.
        let progress = iteration as f64 / iterations.max(1) as f64;
        let spreading_weight = shared.config.spreading_weight * (0.2 + 3.0 * progress);
        for s in chunk.s0..chunk.s1 {
            gather_net_terms(shared, &mut chunk, s);
            let spread_obj = spread_row_terms(shared, &mut chunk, s, spreading_weight);
            if last {
                chunk.obj_spread[s - chunk.s0] = spread_obj;
            }
        }

        // Momentum update with a learning rate that decays over the run so
        // late iterations refine rather than oscillate.
        let rate = shared.config.learning_rate * (1.0 - 0.9 * progress);
        for i in 0..chunk.gradient.len() {
            chunk.velocity[i] =
                MOMENTUM * chunk.velocity[i] - rate * chunk.gradient[i].clamp(-50.0, 50.0);
            let x = load_x(shared.xs, chunk.j0 + i);
            store_f64(&shared.xs[chunk.j0 + i], (x + chunk.velocity[i]).max(0.0));
        }
    }
}

/// Centre x of net `k`'s driver and of its sink.
#[inline]
fn net_centers(shared: &SharedState<'_>, k: usize) -> (f64, f64) {
    let dj = shared.net_dj[k] as usize;
    let sj = shared.net_sj[k] as usize;
    (load_x(shared.xs, dj) + shared.width[dj] / 2.0, load_x(shared.xs, sj) + shared.width[sj] / 2.0)
}

/// Evaluate phase of one worker: the gradient terms of each net in `nets`,
/// computed once from the positions frozen for the phase.
fn evaluate_nets(shared: &SharedState<'_>, nets: Range<usize>) {
    let cfg = shared.config;
    let smoothing_sq = cfg.smoothing_um * cfg.smoothing_um;
    // Normalize by the layer width so the timing term stays a tie-breaker
    // relative to the O(1) wirelength gradient instead of overwhelming it
    // on wide designs (the quadratic grows as Ŵ²).
    let timing_scale = cfg.timing_weight / shared.layer_width;
    for k in nets {
        let (driver_center, sink_center) = net_centers(shared, k);
        let dx = sink_center - driver_center;
        let smooth = (dx * dx + smoothing_sq).sqrt();

        let (timing_start, timing_end) = if cfg.timing_weight > 0.0 {
            let (start, end) = phase_timing_cost_grads(
                shared.net_phase[k] as usize,
                driver_center,
                sink_center,
                shared.layer_width,
                cfg.alpha,
            );
            (timing_scale * start, timing_scale * end)
        } else {
            (0.0, 0.0)
        };

        let excess = dx.abs() + shared.row_pitch - shared.max_wirelength;
        let excess_grad = if cfg.max_wirelength_weight > 0.0 && excess > 0.0 {
            let d_len = if dx >= 0.0 { 1.0 } else { -1.0 };
            2.0 * cfg.max_wirelength_weight * excess * d_len
        } else {
            0.0
        };

        let terms = &shared.net_terms[k];
        store_f64(&terms.wirelength, dx / smooth);
        store_f64(&terms.timing_start, timing_start);
        store_f64(&terms.timing_end, timing_end);
        store_f64(&terms.excess, excess_grad);
    }
}

/// Gather phase of one shard: writes the net-term gradient of every owned
/// slot from the terms the evaluate phase left.
///
/// Per slot, incident nets are visited in net order and each contributes
/// its wirelength, timing and max-wirelength terms in that order — the
/// exact addition sequence the serial net-order scatter produces, which is
/// what makes the sharded result bit-identical to the reference.
fn gather_net_terms(shared: &SharedState<'_>, chunk: &mut ShardChunk<'_>, s: usize) {
    let j_first = shared.row_start[shared.shard_rows[s] as usize] as usize;
    let j_last = shared.row_start[shared.shard_rows[s + 1] as usize] as usize;
    for j in j_first..j_last {
        let mut acc = 0.0f64;
        for &k in shared.incidence.row(j) {
            let k = k as usize;
            let terms = &shared.net_terms[k];
            let wirelength = load_f64(&terms.wirelength);
            let excess = load_f64(&terms.excess);
            if j == shared.net_dj[k] as usize {
                acc = acc - wirelength + load_f64(&terms.timing_start) - excess;
            } else {
                acc = acc + wirelength + load_f64(&terms.timing_end) + excess;
            }
        }
        chunk.gradient[j - chunk.j0] = acc;
    }
}

/// The net-term objective of one shard, each net attributed to its driver
/// so it is counted exactly once, summed in the order the gather visits
/// the nets. Reads halo positions, so it runs in the evaluate phase.
fn net_objective(shared: &SharedState<'_>, s: usize) -> f64 {
    let cfg = shared.config;
    let timing_scale = cfg.timing_weight / shared.layer_width;
    let j_first = shared.row_start[shared.shard_rows[s] as usize] as usize;
    let j_last = shared.row_start[shared.shard_rows[s + 1] as usize] as usize;
    let mut objective = 0.0;
    for j in j_first..j_last {
        for &k in shared.incidence.row(j) {
            let k = k as usize;
            if j != shared.net_dj[k] as usize {
                continue;
            }
            let (driver_center, sink_center) = net_centers(shared, k);
            let dx = sink_center - driver_center;
            objective += (dx * dx + cfg.smoothing_um * cfg.smoothing_um).sqrt();
            if cfg.timing_weight > 0.0 {
                objective += timing_scale
                    * phase_timing_cost(
                        shared.net_phase[k] as usize,
                        driver_center,
                        sink_center,
                        shared.layer_width,
                        cfg.alpha,
                    );
            }
            if cfg.max_wirelength_weight > 0.0 {
                let excess = dx.abs() + shared.row_pitch - shared.max_wirelength;
                if excess > 0.0 {
                    objective += cfg.max_wirelength_weight * excess * excess;
                }
            }
        }
    }
    objective
}

/// Spread phase of one shard: the pairwise overlap force between sorted
/// neighbours in each owned row. Rows never span shards, so every read and
/// write is shard-local. Returns the shard's penalty partial sum.
fn spread_row_terms(
    shared: &SharedState<'_>,
    chunk: &mut ShardChunk<'_>,
    s: usize,
    spreading_weight: f64,
) -> f64 {
    if spreading_weight <= 0.0 {
        return 0.0;
    }
    let mut penalty = 0.0;
    for r in shared.shard_rows[s] as usize..shared.shard_rows[s + 1] as usize {
        let r_first = shared.row_start[r] as usize;
        let r_last = shared.row_start[r + 1] as usize;
        let seg = &mut chunk.sorted[r_first - chunk.j0..r_last - chunk.j0];
        seg.sort_by(|&a, &b| {
            load_x(shared.xs, a as usize)
                .partial_cmp(&load_x(shared.xs, b as usize))
                .expect("finite coordinates")
        });
        for pair in seg.windows(2) {
            let a = pair[0] as usize;
            let b = pair[1] as usize;
            let overlap = load_x(shared.xs, a) + shared.width[a] - load_x(shared.xs, b);
            if overlap > 0.0 {
                penalty += spreading_weight * overlap * overlap;
                let g = 2.0 * spreading_weight * overlap;
                chunk.gradient[a - chunk.j0] += g;
                chunk.gradient[b - chunk.j0] -= g;
            }
        }
    }
    penalty
}

/// Quadratic-wirelength warm start: `sweeps` Gauss-Seidel sweeps, each
/// moving every connected cell to the average centre of the cells it
/// shares a net with (the closed-form optimum of squared wirelength for
/// two-pin nets), polling `cancel` once per sweep.
///
/// The neighbour lists are one CSR, freed on return, with each cell's
/// neighbours in net order (a net's driver entry before its sink entry),
/// the order of the reference's `Vec<Vec<usize>>` lists: every sum adds the
/// same terms in the same order, without the per-cell allocations that
/// dominate peak RSS at 10⁶ cells.
pub(crate) fn warm_start(design: &mut PlacedDesign, sweeps: usize, cancel: &CancelToken) {
    let n = design.cells.len();
    let neighbours = Csr::from_pairs(n, || {
        design
            .nets
            .iter()
            .flat_map(|net| [(net.driver, net.sink as u32), (net.sink, net.driver as u32)])
    });

    for _ in 0..sweeps {
        if cancel.is_cancelled() {
            break;
        }
        for index in 0..n {
            let adjacent = neighbours.row(index);
            if adjacent.is_empty() {
                continue;
            }
            let sum: f64 = adjacent.iter().map(|&n| design.cells[n as usize].center_x()).sum();
            let target_center = sum / adjacent.len() as f64;
            design.cells[index].x = (target_center - design.cells[index].width / 2.0).max(0.0);
        }
    }
}

/// The original single-threaded, net-order-scatter implementation, kept as
/// the oracle the byte-identity tests and benches compare the sharded
/// optimizer against.
///
/// Cell positions (and therefore HPWL and iteration counts) are
/// bit-identical to [`global_place`]; only `final_objective` may differ in
/// the last few ulps, because the sharded optimizer reduces the objective
/// per shard instead of in global net order.
pub fn global_place_reference(
    design: &mut PlacedDesign,
    config: &GlobalPlacementConfig,
) -> GlobalPlacementReport {
    let hpwl_before = design.hpwl();
    let n = design.cells.len();
    if n == 0 || design.nets.is_empty() {
        return GlobalPlacementReport {
            hpwl_before,
            hpwl_after: hpwl_before,
            final_objective: 0.0,
            iterations: 0,
        };
    }

    let neighbours = build_adjacency(design);
    warm_start_reference(design, 40, &neighbours);

    let mut gradient = vec![0.0f64; n];
    let mut velocity = vec![0.0f64; n];
    let mut sorted_rows: Vec<Vec<usize>> = design.rows.clone();
    let mut final_objective = 0.0;
    let layer_width = design.layer_width().max(1.0);
    let mut iterations_run = 0;

    for iteration in 0..config.iterations {
        iterations_run += 1;
        gradient.fill(0.0);
        final_objective = accumulate_net_terms(design, config, layer_width, &mut gradient);
        let progress = iteration as f64 / config.iterations.max(1) as f64;
        let spreading = GlobalPlacementConfig {
            spreading_weight: config.spreading_weight * (0.2 + 3.0 * progress),
            ..*config
        };
        final_objective +=
            accumulate_spreading(design, &spreading, &mut sorted_rows, &mut gradient);

        let rate = config.learning_rate * (1.0 - 0.9 * progress);
        for (i, cell) in design.cells.iter_mut().enumerate() {
            velocity[i] = MOMENTUM * velocity[i] - rate * gradient[i].clamp(-50.0, 50.0);
            cell.x = (cell.x + velocity[i]).max(0.0);
        }
    }

    design.sort_rows_by_x();
    GlobalPlacementReport {
        hpwl_before,
        hpwl_after: design.hpwl(),
        final_objective,
        iterations: iterations_run,
    }
}

/// Builds the cell-to-cell adjacency of the two-pin net list once per run.
fn build_adjacency(design: &PlacedDesign) -> Vec<Vec<usize>> {
    let mut neighbours: Vec<Vec<usize>> = vec![Vec::new(); design.cells.len()];
    for net in &design.nets {
        neighbours[net.driver].push(net.sink);
        neighbours[net.sink].push(net.driver);
    }
    neighbours
}

/// The reference's form of [`warm_start`], over per-cell neighbour lists.
fn warm_start_reference(design: &mut PlacedDesign, sweeps: usize, neighbours: &[Vec<usize>]) {
    for _ in 0..sweeps {
        for (index, adjacent) in neighbours.iter().enumerate() {
            if adjacent.is_empty() {
                continue;
            }
            let sum: f64 = adjacent.iter().map(|&n| design.cells[n].center_x()).sum();
            let target_center = sum / adjacent.len() as f64;
            design.cells[index].x = (target_center - design.cells[index].width / 2.0).max(0.0);
        }
    }
}

/// Adds the wirelength, timing and max-wirelength gradients of every net;
/// returns the accumulated objective value.
fn accumulate_net_terms(
    design: &PlacedDesign,
    config: &GlobalPlacementConfig,
    layer_width: f64,
    gradient: &mut [f64],
) -> f64 {
    let mut objective = 0.0;
    for net in &design.nets {
        let driver = &design.cells[net.driver];
        let sink = &design.cells[net.sink];
        let dx = sink.center_x() - driver.center_x();
        let smooth = (dx * dx + config.smoothing_um * config.smoothing_um).sqrt();
        objective += smooth;
        let wl_grad = dx / smooth;
        gradient[net.sink] += wl_grad;
        gradient[net.driver] -= wl_grad;

        if config.timing_weight > 0.0 {
            let phase = driver.row;
            let scale = config.timing_weight / layer_width;
            objective += scale
                * phase_timing_cost(
                    phase,
                    driver.center_x(),
                    sink.center_x(),
                    layer_width,
                    config.alpha,
                );
            gradient[net.driver] += scale
                * phase_timing_cost_grad_start(
                    phase,
                    driver.center_x(),
                    sink.center_x(),
                    layer_width,
                    config.alpha,
                );
            gradient[net.sink] += scale
                * phase_timing_cost_grad_end(
                    phase,
                    driver.center_x(),
                    sink.center_x(),
                    layer_width,
                    config.alpha,
                );
        }

        if config.max_wirelength_weight > 0.0 {
            let length = dx.abs() + design.row_pitch;
            let excess = length - design.rules.max_wirelength;
            if excess > 0.0 {
                objective += config.max_wirelength_weight * excess * excess;
                let d_len = if dx >= 0.0 { 1.0 } else { -1.0 };
                let g = 2.0 * config.max_wirelength_weight * excess * d_len;
                gradient[net.sink] += g;
                gradient[net.driver] -= g;
            }
        }
    }
    objective
}

/// Adds a pairwise spreading force between overlapping neighbours in each
/// row; returns the overlap penalty value. `sorted_rows` is a persistent
/// per-row order index, re-sorted in place every call instead of cloning and
/// sorting each row from scratch.
fn accumulate_spreading(
    design: &PlacedDesign,
    config: &GlobalPlacementConfig,
    sorted_rows: &mut [Vec<usize>],
    gradient: &mut [f64],
) -> f64 {
    if config.spreading_weight <= 0.0 {
        return 0.0;
    }
    let mut penalty = 0.0;
    for sorted in sorted_rows.iter_mut() {
        sorted.sort_by(|&a, &b| {
            design.cells[a].x.partial_cmp(&design.cells[b].x).expect("finite coordinates")
        });
        for pair in sorted.windows(2) {
            let left = &design.cells[pair[0]];
            let right = &design.cells[pair[1]];
            let overlap = left.right() - right.x;
            if overlap > 0.0 {
                penalty += config.spreading_weight * overlap * overlap;
                let g = 2.0 * config.spreading_weight * overlap;
                gradient[pair[0]] += g;
                gradient[pair[1]] -= g;
            }
        }
    }
    penalty
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use aqfp_cells::Technology;
    use aqfp_netlist::generators::{benchmark_circuit, Benchmark};
    use aqfp_synth::Synthesizer;

    fn design_for(benchmark: Benchmark) -> PlacedDesign {
        let library = Technology::mit_ll_sqf5ee();
        let synthesized =
            Synthesizer::new(library.clone()).run(&benchmark_circuit(benchmark)).expect("ok");
        PlacedDesign::from_synthesized(&synthesized, &library)
    }

    #[test]
    fn global_placement_reduces_hpwl() {
        let mut design = design_for(Benchmark::Adder8);
        let report = global_place(&mut design, &GlobalPlacementConfig::default());
        assert!(
            report.hpwl_after < report.hpwl_before,
            "HPWL should improve: {} -> {}",
            report.hpwl_before,
            report.hpwl_after
        );
        assert!(design.cells.iter().all(|c| c.x >= 0.0), "cells stay in the positive quadrant");
    }

    #[test]
    fn rows_are_never_changed() {
        let mut design = design_for(Benchmark::Apc32);
        let rows_before: Vec<usize> = design.cells.iter().map(|c| c.row).collect();
        global_place(&mut design, &GlobalPlacementConfig::default());
        let rows_after: Vec<usize> = design.cells.iter().map(|c| c.row).collect();
        assert_eq!(rows_before, rows_after);
    }

    #[test]
    fn sixty_warm_start_sweeps_and_legalization_shorten_nets() {
        let mut design = design_for(Benchmark::Apc32);
        let before = design.hpwl();
        warm_start(&mut design, 60, &CancelToken::none());
        design.sort_rows_by_x();
        crate::legalize::legalize(&mut design);
        assert_eq!(design.overlap_count(), 0);
        assert!(design.hpwl() < before, "quadratic placement should shorten nets");
    }

    #[test]
    fn empty_design_is_a_no_op() {
        let library = Technology::mit_ll_sqf5ee();
        let mut design = PlacedDesign {
            name: "empty".into(),
            cells: vec![],
            nets: vec![],
            rows: vec![],
            row_pitch: 100.0,
            rules: library.rules().clone(),
        };
        let report = global_place(&mut design, &GlobalPlacementConfig::default());
        assert_eq!(report.iterations, 0);
    }

    #[test]
    fn a_fired_token_stops_the_optimizer_before_the_first_iteration() {
        let mut design = design_for(Benchmark::Adder8);
        let token = CancelToken::new();
        token.cancel();
        let report =
            global_place_cancellable(&mut design, &GlobalPlacementConfig::default(), &token);
        assert_eq!(report.iterations, 0, "no gradient iteration may run after cancellation");
        assert_eq!(
            report.final_objective, 0.0,
            "the objective is evaluated on the final iteration"
        );
    }

    #[test]
    fn any_iteration_budget_improves_on_the_initial_packing() {
        let mut short = design_for(Benchmark::Adder8);
        let mut long = short.clone();
        let base = GlobalPlacementConfig { iterations: 20, ..Default::default() };
        let more = GlobalPlacementConfig { iterations: 300, ..Default::default() };
        let r_short = global_place(&mut short, &base);
        let r_long = global_place(&mut long, &more);
        assert!(r_short.hpwl_after < r_short.hpwl_before);
        assert!(r_long.hpwl_after < r_long.hpwl_before);
    }

    #[test]
    fn sharded_placement_is_bit_identical_to_the_reference_at_every_thread_count() {
        let base = design_for(Benchmark::Adder8);
        let mut reference = base.clone();
        let reference_report =
            global_place_reference(&mut reference, &GlobalPlacementConfig::default());
        // An explicit thread count bypasses the small-design serial
        // shortcut, so 2 and 4 genuinely exercise the worker pool.
        for threads in [1usize, 2, 4, 0] {
            let config = GlobalPlacementConfig { threads, ..Default::default() };
            let mut sharded = base.clone();
            let report = global_place(&mut sharded, &config);
            for (r, c) in reference.cells.iter().zip(&sharded.cells) {
                assert_eq!(
                    r.x.to_bits(),
                    c.x.to_bits(),
                    "cell position diverged at {threads} threads"
                );
            }
            assert_eq!(reference.rows, sharded.rows, "row order diverged at {threads} threads");
            assert_eq!(report.hpwl_after.to_bits(), reference_report.hpwl_after.to_bits());
            assert_eq!(report.iterations, reference_report.iterations);
            // Summed per shard rather than in net order, so equal up to
            // rounding.
            let objective_error = (report.final_objective - reference_report.final_objective).abs();
            assert!(
                objective_error <= 1e-12 * reference_report.final_objective.abs(),
                "final objective {} vs the reference's {} at {threads} threads",
                report.final_objective,
                reference_report.final_objective
            );
        }
    }

    #[test]
    fn reports_are_identical_across_thread_counts() {
        let base = design_for(Benchmark::Apc32);
        let mut first_report = None;
        for threads in [1usize, 2, 3, 4] {
            let config = GlobalPlacementConfig { threads, ..Default::default() };
            let mut design = base.clone();
            let report = global_place(&mut design, &config);
            match &first_report {
                None => first_report = Some(report),
                Some(expected) => assert_eq!(
                    report, *expected,
                    "full report (incl. final_objective) must not depend on the thread count"
                ),
            }
        }
    }
}
