//! Layer-wise A* routing with space expansion for AQFP circuits.
//!
//! AQFP routing is simpler than CMOS routing in one way and harder in
//! another: every net is a point-to-point connection between two adjacent
//! clock phases (no global routing across the chip is needed), but only two
//! metal layers are available in each inter-phase channel and the wire
//! geometry must respect the zigzag spacing rule (turns only on the 10 µm
//! grid). SuperFlow therefore routes each channel independently
//! ("layer-wise" routing, §III-D and Algorithm 1 of the paper):
//!
//! * [`grid`] — the two-layer channel routing grid with per-edge occupancy
//!   and an A* shortest-path search with Manhattan heuristic;
//! * [`router`] — the [`Router`] driving channel-by-channel routing with
//!   iterative *space expansion*: when a channel runs out of capacity, the
//!   distance between the two rows grows by one grid step and the channel is
//!   rerouted, exactly as Algorithm 1 describes.
//!
//! # Performance
//!
//! The routing core is built for zero allocation and multi-core operation:
//!
//! * **Flat occupancy** — [`ChannelGrid`] stores per-layer edge occupancy in
//!   flat arrays indexed `track * columns + column` (occupant net id or
//!   free), not hash sets. Lookups in the A* inner loop are a bounds-checked
//!   load, and space expansion appends rows without invalidating existing
//!   entries.
//! * **Search arena** — all A* state (cost, parent and visit tables, the
//!   open queue, the leftward walk's stack, the monotone scan's reach table,
//!   the result path) lives in a reusable [`grid::SearchScratch`] owned per
//!   worker. Visit tables are
//!   invalidated by bumping a generation counter, so the search itself
//!   performs no heap allocation after channel setup; routed paths land in
//!   a pre-reserved per-channel point arena referenced by spans, which
//!   only grows under heavy rip-up churn.
//! * **Monotone scan and leftward walk** — with unit edge costs and a
//!   Manhattan heuristic, every node of a net's start–goal box that is
//!   reachable by moves toward the goal has the same `f`, and the heap's
//!   `(f, column, track)` key pops them lowest column first. A net whose
//!   sink lies right of its driver therefore popped its whole
//!   `Δcolumn × tracks` box before reaching the goal (about 4,100 pops each
//!   on apc128, against 37 for the other nets). Such a search now makes one
//!   pass over the box to mark the right/up-reachable nodes and walks back
//!   from the goal — left when that neighbour is reachable over a free
//!   edge, else down. A net whose sink lies left of or straight above its
//!   driver (72% of the channel searches on the paper's nine circuits)
//!   runs a depth-first walk over left/up moves instead: the heap pops
//!   those nodes in the order a stack that pushes the up child, then the
//!   left child, pops them, so a `Vec` stands in for it. Both return
//!   exactly the parent chain the heap builds, so paths, vias and GDS are
//!   unchanged. The heap still runs when the goal needs a detour and in
//!   penalty (rip-up) mode; the exactness arguments are on
//!   `ChannelGrid::monotone_scan` and `ChannelGrid::leftward_walk`.
//! * **Incremental rip-up and expansion** — when a net fails, a penalty-mode
//!   A* (occupied edges passable at high cost) identifies the minimal set of
//!   blocking nets; if that set is small, the blockers are ripped up and
//!   rerouted instead of expanding. When expansion is needed, routed nets
//!   are *kept* and their sink terminals extended onto the new tracks —
//!   only failed nets reroute. Auto-sized channels start at the classic
//!   density lower bound so congested channels do not discover their track
//!   count one failed round at a time.
//! * **Parallel channels** — channels share no routing state, so they run
//!   as the jobs of `aqfp_place::parallel::run_in_order`
//!   ([`RouterConfig::threads`] workers, `0` = all cores, one search scratch
//!   each; one worker runs on the calling thread). A channel's outcome does
//!   not depend on which worker routed it, and outcomes merge in row order,
//!   so serial and parallel runs are byte-identical.
//! * **Partial reroute** — [`Router::route_partial`] takes the changed
//!   design and the previous [`RoutingResult`] and finds for itself which
//!   channels changed: a channel whose nets and pin columns match a
//!   previous channel's, read back from its wires, reuses those wires, and
//!   every other channel is routed fresh. Channel routing is deterministic,
//!   so the outcome is byte-identical to a from-scratch [`Router::route`]
//!   of the same design; the flow's DRC-repair loop is built on this entry
//!   point.
//!
//! The `routing_perf` bench in `crates/bench` tracks these paths
//! (`route_channel`, `route_parallel_scaling`, `global_place_iteration`) and
//! refreshes the `BENCH_routing.json` baseline at the workspace root.
//!
//! # Examples
//!
//! ```
//! use aqfp_cells::Technology;
//! use aqfp_netlist::generators::{benchmark_circuit, Benchmark};
//! use aqfp_place::{PlacementEngine, PlacerKind};
//! use aqfp_route::Router;
//! use aqfp_synth::Synthesizer;
//!
//! let library = Technology::mit_ll_sqf5ee();
//! let synthesized = Synthesizer::new(library.clone())
//!     .run(&benchmark_circuit(Benchmark::Adder8))?;
//! let placed = PlacementEngine::new(library.clone()).place(&synthesized, PlacerKind::SuperFlow);
//! let routing = Router::new(library).route(&placed.design);
//! assert_eq!(routing.stats.failed_nets, 0);
//! # Ok::<(), aqfp_synth::SynthesisError>(())
//! ```

#![warn(clippy::unwrap_used)]

pub mod grid;
pub mod router;

pub use grid::{ChannelGrid, GridPoint};
pub use router::{ChannelReport, RoutedWire, Router, RouterConfig, RoutingResult, RoutingStats};
