//! Two-layer channel routing grid and the zero-allocation A* core.
//!
//! Each inter-phase channel is discretized into a grid whose pitch is the
//! process minimum spacing (10 µm for MIT-LL), so a wire can only turn after
//! at least that distance — the "dynamic step size" of Algorithm 1.
//! Horizontal segments run on one metal layer and vertical segments on the
//! other, so two wires may cross but may never share a grid edge on the same
//! layer.
//!
//! # Performance
//!
//! Edge occupancy is stored in two flat arrays indexed by
//! `track * columns + column` (one per wiring layer), each slot holding the
//! occupying net id or [`FREE`]. The A* search keeps all per-search state —
//! cost table, parent table, priority queue, reach table, result path — in
//! a reusable [`SearchScratch`] arena whose entries are invalidated by
//! bumping a generation counter instead of clearing (the reach table is
//! rewritten before it is read), so the per-net search performs no heap
//! allocation once the channel is set up.
//!
//! A search without penalty whose goal is not below its start skips the
//! priority queue when a shortest path heads straight for the goal:
//!
//! * a goal right of the start (every rightward net of a channel): one pass
//!   over the start–goal box fills the reach table with the nodes reachable
//!   by right/up moves, and the path is read back from it. The heap's
//!   tie-break pops that whole box before the goal anyway, so on a box of
//!   `Δcolumn × tracks` nodes the scan does the same visits without the
//!   queue;
//! * a goal left of the start or straight above it (leftward and vertical
//!   nets): a depth-first walk over left/up moves, whose stack pops the
//!   nodes in the order the heap pops them.
//!
//! Both return the path the heap returns (the arguments are on the private
//! `ChannelGrid::monotone_scan` and `ChannelGrid::leftward_walk`) and hand
//! over to the heap when the goal needs a detour.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Occupancy slot value for a free edge.
pub const FREE: u32 = u32::MAX;

/// Net id used by [`ChannelGrid::occupy_path`] when the caller does not care
/// about rip-up (compatibility API and tests).
const ANONYMOUS_NET: u32 = u32::MAX - 1;

/// A node of the channel grid: `column` indexes the horizontal position,
/// `track` the vertical position inside the channel (track 0 is the driver
/// side, the last track is the sink side).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GridPoint {
    /// Horizontal grid index.
    pub column: i64,
    /// Vertical grid index within the channel.
    pub track: i64,
}

impl GridPoint {
    /// Creates a grid point.
    pub fn new(column: i64, track: i64) -> Self {
        Self { column, track }
    }

    /// Manhattan distance to another grid point, in grid units.
    pub fn manhattan(self, other: GridPoint) -> i64 {
        (self.column - other.column).abs() + (self.track - other.track).abs()
    }
}

/// Reusable A* state: cost/parent/visit tables sized to the grid, the open
/// queue, the leftward walk's stack, the monotone scan's reach table and the
/// reconstructed path. One instance routes any number of nets (and any
/// number of channels) without allocating, growing only when a larger grid
/// is attached (the reach table: when a larger start–goal box is scanned).
#[derive(Debug, Clone, Default)]
pub struct SearchScratch {
    generation: u32,
    stamp: Vec<u32>,
    best_cost: Vec<u32>,
    parent: Vec<u32>,
    queue: BinaryHeap<Reverse<(i64, GridPoint)>>,
    /// Node indices the leftward walk has discovered but not yet expanded.
    stack: Vec<u32>,
    /// Whether each node of the last monotone scan's start–goal box is
    /// reachable by right/up moves, row-major within the box. Every entry a
    /// scan reads was written earlier in the same scan, so it is never
    /// cleared.
    reach: Vec<bool>,
    path: Vec<GridPoint>,
    /// Occupant net ids of the occupied edges crossed by the last
    /// penalty-mode search, deduplicated and sorted (the rip-up candidates).
    blockers: Vec<u32>,
}

impl SearchScratch {
    /// Creates an empty scratch; tables grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The node path found by the last successful search.
    pub fn path(&self) -> &[GridPoint] {
        &self.path
    }

    /// Blocker net ids recorded by the last penalty-mode search.
    pub fn blockers(&self) -> &[u32] {
        &self.blockers
    }

    /// Sizes the tables for a grid with `nodes` nodes and starts a new
    /// search generation. Reallocates only when the grid grew.
    fn begin(&mut self, nodes: usize) {
        self.queue.clear();
        self.stack.clear();
        self.path.clear();
        self.blockers.clear();
        if self.stamp.len() < nodes {
            self.stamp.resize(nodes, 0);
            self.best_cost.resize(nodes, 0);
            self.parent.resize(nodes, 0);
            // One-off reservations (the containers are empty here) so the
            // queue, stack and path never reallocate mid-search.
            self.queue.reserve(nodes);
            self.stack.reserve(nodes);
            self.path.reserve(nodes);
        }
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // Extremely rare wrap: stamps from 4 billion searches ago could
            // alias, so reset them once.
            self.stamp.fill(0);
            self.generation = 1;
        }
    }

    #[inline]
    fn visit(&mut self, node: usize, cost: u32, parent: u32) {
        self.stamp[node] = self.generation;
        self.best_cost[node] = cost;
        self.parent[node] = parent;
    }

    /// The leftward walk's discovery: a node not yet reached in this search
    /// records `parent` and goes on the stack; a node already reached keeps
    /// its first parent.
    #[inline]
    fn push(&mut self, node: usize, parent: u32) {
        if self.stamp[node] != self.generation {
            self.stamp[node] = self.generation;
            self.parent[node] = parent;
            self.stack.push(node as u32);
        }
    }

    #[inline]
    fn cost(&self, node: usize) -> u32 {
        if self.stamp[node] == self.generation {
            self.best_cost[node]
        } else {
            u32::MAX
        }
    }
}

/// The routing grid of one channel: `columns × tracks` nodes, two wiring
/// layers, flat per-edge occupancy.
#[derive(Debug, Clone)]
pub struct ChannelGrid {
    columns: i64,
    tracks: i64,
    /// Occupant of the horizontal edge `(c, t) — (c + 1, t)`, indexed
    /// `t * columns + c` (the last column of each row is unused padding).
    occupied_horizontal: Vec<u32>,
    /// Occupant of the vertical edge `(c, t) — (c, t + 1)`, indexed
    /// `t * columns + c` (the last track row is unused padding).
    occupied_vertical: Vec<u32>,
    /// Number of occupied horizontal edges (for the utilization report).
    horizontal_in_use: usize,
}

impl ChannelGrid {
    /// Creates an empty grid with the given dimensions.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is smaller than 2.
    pub fn new(columns: i64, tracks: i64) -> Self {
        assert!(columns >= 2 && tracks >= 2, "a channel needs at least a 2x2 grid");
        let nodes = (columns * tracks) as usize;
        Self {
            columns,
            tracks,
            occupied_horizontal: vec![FREE; nodes],
            occupied_vertical: vec![FREE; nodes],
            horizontal_in_use: 0,
        }
    }

    /// Number of horizontal grid positions.
    pub fn columns(&self) -> i64 {
        self.columns
    }

    /// Number of vertical tracks.
    pub fn tracks(&self) -> i64 {
        self.tracks
    }

    /// Number of grid nodes (`columns × tracks`).
    pub fn node_count(&self) -> usize {
        (self.columns * self.tracks) as usize
    }

    /// Grows the channel by `extra` tracks (space expansion). Existing
    /// occupancy is preserved: the flat arrays are row-major in `track`, so
    /// new rows append at the end.
    pub fn expand(&mut self, extra: i64) {
        self.tracks += extra;
        let nodes = self.node_count();
        self.occupied_horizontal.resize(nodes, FREE);
        self.occupied_vertical.resize(nodes, FREE);
    }

    /// Removes all routed wires (used when a channel is rerouted from
    /// scratch).
    pub fn clear(&mut self) {
        self.occupied_horizontal.fill(FREE);
        self.occupied_vertical.fill(FREE);
        self.horizontal_in_use = 0;
    }

    /// Whether a point lies inside the grid.
    pub fn contains(&self, p: GridPoint) -> bool {
        p.column >= 0 && p.column < self.columns && p.track >= 0 && p.track < self.tracks
    }

    #[inline]
    fn node_index(&self, p: GridPoint) -> usize {
        (p.track * self.columns + p.column) as usize
    }

    /// The occupancy slot of the edge between two neighbouring points:
    /// `(layer array, edge index)`.
    #[inline]
    fn edge_slot(&self, a: GridPoint, b: GridPoint) -> (bool, usize) {
        let horizontal = a.track == b.track;
        let (column, track) = (a.column.min(b.column), a.track.min(b.track));
        (horizontal, (track * self.columns + column) as usize)
    }

    /// The net occupying the edge between two neighbouring points.
    #[inline]
    pub fn edge_occupant(&self, a: GridPoint, b: GridPoint) -> u32 {
        let (horizontal, index) = self.edge_slot(a, b);
        if horizontal {
            self.occupied_horizontal[index]
        } else {
            self.occupied_vertical[index]
        }
    }

    fn set_edge(&mut self, a: GridPoint, b: GridPoint, occupant: u32) {
        let (horizontal, index) = self.edge_slot(a, b);
        if horizontal {
            let previous = self.occupied_horizontal[index];
            if (previous == FREE) != (occupant == FREE) {
                if occupant == FREE {
                    self.horizontal_in_use -= 1;
                } else {
                    self.horizontal_in_use += 1;
                }
            }
            self.occupied_horizontal[index] = occupant;
        } else {
            self.occupied_vertical[index] = occupant;
        }
    }

    /// Marks every edge along `path` as occupied by `net`.
    pub fn occupy_path_for(&mut self, net: u32, path: &[GridPoint]) {
        for pair in path.windows(2) {
            self.set_edge(pair[0], pair[1], net);
        }
    }

    /// Marks every edge along `path` as occupied (anonymous net;
    /// compatibility API for callers that never rip up).
    pub fn occupy_path(&mut self, path: &[GridPoint]) {
        self.occupy_path_for(ANONYMOUS_NET, path);
    }

    /// Frees every edge along `path` (rip-up of one net).
    pub fn rip_up(&mut self, path: &[GridPoint]) {
        for pair in path.windows(2) {
            self.set_edge(pair[0], pair[1], FREE);
        }
    }

    /// Fraction of horizontal-layer edges already occupied (a congestion
    /// estimate used in reports).
    pub fn horizontal_utilization(&self) -> f64 {
        let capacity = ((self.columns - 1) * self.tracks).max(1) as f64;
        self.horizontal_in_use as f64 / capacity
    }

    /// Finds a shortest path from `start` to `goal` with A* (Algorithm 1's
    /// `A_star` function), writing the node sequence into `scratch`.
    ///
    /// Returns `true` and fills [`SearchScratch::path`] (including both
    /// endpoints) on success. Performs no heap allocation once the scratch
    /// tables match the grid size.
    ///
    /// When the goal is not below the start, a monotone scan (goal to the
    /// right) or a leftward walk (goal to the left or straight above)
    /// answers instead of the priority queue if it can; the path is the one
    /// the queue would return, so the choice never shows in the result.
    pub fn a_star_into(
        &self,
        start: GridPoint,
        goal: GridPoint,
        scratch: &mut SearchScratch,
    ) -> bool {
        self.search(start, goal, scratch, None)
    }

    /// Like [`ChannelGrid::a_star_into`], but occupied edges are passable at
    /// `penalty` extra cost instead of blocked. On success,
    /// [`SearchScratch::blockers`] holds the sorted, deduplicated net ids
    /// whose edges the path crosses — the rip-up candidates of the
    /// incremental reroute scheme.
    pub fn a_star_with_penalty(
        &self,
        start: GridPoint,
        goal: GridPoint,
        scratch: &mut SearchScratch,
        penalty: u32,
    ) -> bool {
        self.search(start, goal, scratch, Some(penalty))
    }

    fn search(
        &self,
        start: GridPoint,
        goal: GridPoint,
        scratch: &mut SearchScratch,
        penalty: Option<u32>,
    ) -> bool {
        if penalty.is_none()
            && (self.monotone_scan(start, goal, scratch)
                || self.leftward_walk(start, goal, scratch))
        {
            return true;
        }
        self.heap_search(start, goal, scratch, penalty)
    }

    /// The exact shortcut for a rightward query: finds the path
    /// [`ChannelGrid::heap_search`] returns for it without a priority queue.
    /// Returns `false` when the query is not rightward or the goal needs a
    /// detour; the caller then runs the heap search, which resets `scratch`.
    ///
    /// It applies to queries without penalty whose goal satisfies
    /// `goal.column > start.column` and `goal.track >= start.track`. Let `D`
    /// be the Manhattan distance from start to goal and `R` the set of nodes
    /// of the start–goal box reachable from the start by right/up moves
    /// over free edges. Edge costs are 1 and the heuristic is the Manhattan
    /// distance, so:
    ///
    /// * A node's `f = g + h` equals `D` exactly when it lies in the box and
    ///   was reached at cost `Manhattan(start, n)` — that is, when it is in
    ///   `R`; every other entry has `f > D`. The heap therefore pops `R`
    ///   before anything else, and since its key is `(f, column, track)`
    ///   and every node of `R` is pushed by a smaller one (its left or lower
    ///   neighbour), it pops `R` in increasing `(column, track)` order. The
    ///   goal has the box's largest column and track, so when it is in `R`
    ///   it pops last: the heap floods the whole box first.
    /// * A node's parent is the first popped neighbour that reaches it at
    ///   cost `Manhattan(start, n)`; later equal-cost offers do not replace
    ///   it. Its left neighbour pops before the one below, so the parent is
    ///   the left neighbour when that is in `R` and the edge between them is
    ///   free, and the neighbour below otherwise.
    ///
    /// So one pass over the box computes `R` (in row order here, the
    /// occupancy arrays' layout — any order that visits the left and lower
    /// neighbours first yields the same set), and if the goal is in `R`,
    /// walking back from it — left when allowed, else down — rebuilds the
    /// heap's path. If the goal is not in `R`, any path needs a detour (or
    /// none exists) and the heap search runs instead, as it does in penalty
    /// mode.
    fn monotone_scan(
        &self,
        start: GridPoint,
        goal: GridPoint,
        scratch: &mut SearchScratch,
    ) -> bool {
        if goal.column <= start.column
            || goal.track < start.track
            || !self.contains(start)
            || !self.contains(goal)
        {
            return false;
        }
        scratch.begin(self.node_count());
        let width = (goal.column - start.column + 1) as usize;
        let height = (goal.track - start.track + 1) as usize;
        if scratch.reach.len() < width * height {
            scratch.reach.resize(width * height, false);
        }
        let reach = &mut scratch.reach[..width * height];
        let columns = self.columns as usize;
        let base = self.node_index(start);

        // `from_left`: the node's left neighbour is reachable and the edge
        // between them is free. Row 0 holds the start and the run of free
        // horizontal edges right of it.
        let mut from_left = true;
        for (slot, &right) in reach[..width].iter_mut().zip(&self.occupied_horizontal[base..]) {
            *slot = from_left;
            from_left &= right == FREE;
        }
        for row in 1..height {
            let node_row = base + row * columns;
            let horizontal = &self.occupied_horizontal[node_row..node_row + width];
            let vertical = &self.occupied_vertical[node_row - columns..node_row - columns + width];
            let (below, current) = reach[(row - 1) * width..(row + 1) * width].split_at_mut(width);
            let mut from_left = false;
            let mut any = false;
            for (col, slot) in current.iter_mut().enumerate() {
                *slot = from_left || (below[col] && vertical[col] == FREE);
                from_left = *slot && horizontal[col] == FREE;
                any |= *slot;
            }
            if !any {
                // Nothing above this row is reachable either.
                return false;
            }
        }
        if !reach[width * height - 1] {
            return false;
        }

        let mut cursor = goal;
        scratch.path.push(goal);
        while cursor != start {
            let col = (cursor.column - start.column) as usize;
            let row = (cursor.track - start.track) as usize;
            cursor = if col > 0
                && reach[row * width + col - 1]
                && self.occupied_horizontal[self.node_index(cursor) - 1] == FREE
            {
                GridPoint::new(cursor.column - 1, cursor.track)
            } else {
                GridPoint::new(cursor.column, cursor.track - 1)
            };
            scratch.path.push(cursor);
        }
        scratch.path.reverse();
        true
    }

    /// The exact shortcut for a leftward or vertical query: finds the path
    /// [`ChannelGrid::heap_search`] returns for it without a priority queue.
    /// Returns `false` when the query is not leftward or vertical or the
    /// goal needs a detour; the caller then runs the heap search, which
    /// resets `scratch`.
    ///
    /// It applies to queries without penalty whose goal satisfies
    /// `goal.column <= start.column` and `goal.track >= start.track`. Edge
    /// costs are 1 and the heuristic is the Manhattan distance. Let `D` be
    /// the start–goal distance and `R` the set of nodes of the start–goal
    /// box reachable from the start by left/up moves over free edges.
    ///
    /// * A heap entry has `f = D` exactly when its node is in `R` and was
    ///   reached at cost `Manhattan(start, n)`; every other entry has
    ///   `f ≥ D + 2`. So while the goal is in `R`, the heap pops only nodes
    ///   of `R`, lowest `(column, track)` first.
    /// * When a node `(c, t)` of `R` pops, it is the minimum entry. Its up
    ///   child `(c, t + 1)` is then smaller than every remaining entry, and
    ///   its left child `(c − 1, t)` is smaller still. So every push lands
    ///   on top: the heap acts as a stack that pushes up, then left.
    /// * Each node of `R` is pushed once, by its first optimal offer, and
    ///   that offer also sets its parent (a costlier offer through a right
    ///   or down move may come first; the optimal one overwrites it, and
    ///   the walk makes no such moves).
    /// * The walk stops when it pops the goal, as the heap does, so its
    ///   parent chain is the heap's parent chain.
    ///
    /// If the stack empties, the goal needs a detour or cannot be reached,
    /// and the heap search runs from a fresh `begin`. A vertical query is
    /// the one-column case of the same walk.
    fn leftward_walk(
        &self,
        start: GridPoint,
        goal: GridPoint,
        scratch: &mut SearchScratch,
    ) -> bool {
        if goal.column > start.column
            || goal.track < start.track
            || !self.contains(start)
            || !self.contains(goal)
        {
            return false;
        }
        scratch.begin(self.node_count());
        let columns = self.columns as usize;
        let (goal_column, goal_track) = (goal.column as usize, goal.track as usize);
        let target = self.node_index(goal);
        scratch.push(self.node_index(start), u32::MAX);
        while let Some(node) = scratch.stack.pop() {
            let node = node as usize;
            if node == target {
                self.reconstruct(start, goal, scratch, false);
                return true;
            }
            // The guard above keeps every walked node at or below the goal's
            // track and at or right of its column, so these two tests are
            // the box's top and left edges.
            if node / columns != goal_track && self.occupied_vertical[node] == FREE {
                scratch.push(node + columns, node as u32);
            }
            if node % columns != goal_column && self.occupied_horizontal[node - 1] == FREE {
                scratch.push(node - 1, node as u32);
            }
        }
        false
    }

    /// The best-first A* search proper: a binary heap keyed
    /// `(f, column, track)`. Any query, any mode; [`ChannelGrid::search`]
    /// calls it for whatever the monotone scan and the leftward walk do not
    /// answer.
    fn heap_search(
        &self,
        start: GridPoint,
        goal: GridPoint,
        scratch: &mut SearchScratch,
        penalty: Option<u32>,
    ) -> bool {
        if !self.contains(start) || !self.contains(goal) {
            return false;
        }
        scratch.begin(self.node_count());
        if start == goal {
            scratch.path.push(start);
            return true;
        }

        scratch.visit(self.node_index(start), 0, u32::MAX);
        scratch.queue.push(Reverse((start.manhattan(goal), start)));

        while let Some(Reverse((_, current))) = scratch.queue.pop() {
            if current == goal {
                self.reconstruct(start, goal, scratch, penalty.is_some());
                return true;
            }
            let current_cost = scratch.cost(self.node_index(current));
            let neighbours = [
                GridPoint::new(current.column + 1, current.track),
                GridPoint::new(current.column - 1, current.track),
                GridPoint::new(current.column, current.track + 1),
                GridPoint::new(current.column, current.track - 1),
            ];
            for next in neighbours {
                if !self.contains(next) {
                    continue;
                }
                let occupant = self.edge_occupant(current, next);
                let step = if occupant == FREE {
                    1
                } else {
                    match penalty {
                        Some(extra) => 1 + extra,
                        None => continue,
                    }
                };
                let cost = current_cost + step;
                let next_index = self.node_index(next);
                if cost < scratch.cost(next_index) {
                    scratch.visit(next_index, cost, self.node_index(current) as u32);
                    scratch.queue.push(Reverse((cost as i64 + next.manhattan(goal), next)));
                }
            }
        }
        false
    }

    /// Rebuilds the found path into `scratch.path` (start → goal) and, in
    /// penalty mode, collects the occupants of crossed edges.
    fn reconstruct(
        &self,
        start: GridPoint,
        goal: GridPoint,
        scratch: &mut SearchScratch,
        collect_blockers: bool,
    ) {
        let mut cursor = goal;
        scratch.path.push(goal);
        while cursor != start {
            let parent_index = scratch.parent[self.node_index(cursor)];
            let parent = GridPoint::new(
                parent_index as i64 % self.columns,
                parent_index as i64 / self.columns,
            );
            if collect_blockers {
                let occupant = self.edge_occupant(parent, cursor);
                if occupant != FREE {
                    scratch.blockers.push(occupant);
                }
            }
            scratch.path.push(parent);
            cursor = parent;
        }
        scratch.path.reverse();
        scratch.blockers.sort_unstable();
        scratch.blockers.dedup();
    }

    /// Allocating convenience wrapper around [`ChannelGrid::a_star_into`]
    /// (compatibility API; the router's hot path reuses a scratch instead).
    pub fn a_star(&self, start: GridPoint, goal: GridPoint) -> Option<Vec<GridPoint>> {
        let mut scratch = SearchScratch::new();
        if self.a_star_into(start, goal, &mut scratch) {
            Some(scratch.path)
        } else {
            None
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn straight_path_has_manhattan_length() {
        let grid = ChannelGrid::new(20, 5);
        let path = grid.a_star(GridPoint::new(2, 0), GridPoint::new(10, 4)).expect("routable");
        assert_eq!(path.len() as i64 - 1, 8 + 4, "empty grid path is the Manhattan distance");
        assert_eq!(path[0], GridPoint::new(2, 0));
        assert_eq!(*path.last().unwrap(), GridPoint::new(10, 4));
        // Consecutive nodes are grid neighbours.
        for pair in path.windows(2) {
            assert_eq!(pair[0].manhattan(pair[1]), 1);
        }
    }

    #[test]
    fn crossing_wires_are_allowed_on_different_layers() {
        let mut grid = ChannelGrid::new(10, 4);
        // First net: vertical at column 5.
        let first = grid.a_star(GridPoint::new(5, 0), GridPoint::new(5, 3)).expect("routable");
        grid.occupy_path(&first);
        // Second net: horizontal across track 2, crossing column 5.
        let second =
            grid.a_star(GridPoint::new(0, 2), GridPoint::new(9, 2)).expect("crossing is legal");
        assert_eq!(second.len(), 10);
    }

    #[test]
    fn same_layer_conflicts_force_detours() {
        let mut grid = ChannelGrid::new(10, 4);
        let first = grid.a_star(GridPoint::new(0, 1), GridPoint::new(9, 1)).expect("routable");
        grid.occupy_path(&first);
        // A second horizontal net on the same track must detour to another track.
        let second = grid.a_star(GridPoint::new(0, 1), GridPoint::new(9, 1));
        // Start/goal nodes themselves are free, but every horizontal edge of
        // track 1 is taken; the router must change tracks, making the path longer.
        let second = second.expect("a detour exists");
        assert!(second.len() > first.len());
    }

    #[test]
    fn blocked_channel_reports_unroutable() {
        let mut grid = ChannelGrid::new(3, 2);
        // Occupy every edge by routing the full perimeter.
        for track in 0..2 {
            let path =
                grid.a_star(GridPoint::new(0, track), GridPoint::new(2, track)).expect("routable");
            grid.occupy_path(&path);
        }
        for column in 0..3 {
            let path = vec![GridPoint::new(column, 0), GridPoint::new(column, 1)];
            grid.occupy_path(&path);
        }
        assert!(grid.a_star(GridPoint::new(0, 0), GridPoint::new(2, 1)).is_none());
    }

    #[test]
    fn expansion_adds_tracks_and_restores_routability() {
        let mut grid = ChannelGrid::new(6, 2);
        // Saturate both horizontal tracks.
        for track in 0..2 {
            let path =
                grid.a_star(GridPoint::new(0, track), GridPoint::new(5, track)).expect("routable");
            grid.occupy_path(&path);
        }
        // A third horizontal net cannot fit: both tracks' edges are used and
        // with only two tracks there is no free detour.
        assert!(grid.a_star(GridPoint::new(0, 0), GridPoint::new(5, 0)).is_none());
        grid.expand(1);
        grid.clear();
        assert!(grid.a_star(GridPoint::new(0, 0), GridPoint::new(5, 0)).is_some());
        assert_eq!(grid.tracks(), 3);
    }

    #[test]
    fn expansion_preserves_existing_occupancy() {
        let mut grid = ChannelGrid::new(6, 2);
        let path = grid.a_star(GridPoint::new(0, 0), GridPoint::new(5, 0)).expect("routable");
        grid.occupy_path_for(7, &path);
        grid.expand(1);
        assert_eq!(grid.edge_occupant(GridPoint::new(0, 0), GridPoint::new(1, 0)), 7);
        // The new track's edges are free.
        assert_eq!(grid.edge_occupant(GridPoint::new(0, 2), GridPoint::new(1, 2)), FREE);
    }

    #[test]
    fn rip_up_frees_exactly_the_ripped_net() {
        let mut grid = ChannelGrid::new(8, 3);
        let a = grid.a_star(GridPoint::new(0, 1), GridPoint::new(7, 1)).expect("routable");
        grid.occupy_path_for(1, &a);
        let b = grid.a_star(GridPoint::new(3, 0), GridPoint::new(3, 2)).expect("routable");
        grid.occupy_path_for(2, &b);
        grid.rip_up(&a);
        assert_eq!(grid.edge_occupant(GridPoint::new(0, 1), GridPoint::new(1, 1)), FREE);
        assert_eq!(grid.edge_occupant(GridPoint::new(3, 0), GridPoint::new(3, 1)), 2);
        assert_eq!(grid.horizontal_utilization(), 0.0, "only net 2's vertical edges remain");
    }

    #[test]
    fn penalty_search_reports_blockers() {
        let mut grid = ChannelGrid::new(6, 2);
        // Saturate both horizontal tracks with two different nets.
        for (net, track) in [(10u32, 0i64), (11, 1)] {
            let path =
                grid.a_star(GridPoint::new(0, track), GridPoint::new(5, track)).expect("routable");
            grid.occupy_path_for(net, &path);
        }
        let mut scratch = SearchScratch::new();
        assert!(!grid.a_star_into(GridPoint::new(0, 0), GridPoint::new(5, 0), &mut scratch));
        assert!(grid.a_star_with_penalty(
            GridPoint::new(0, 0),
            GridPoint::new(5, 0),
            &mut scratch,
            8
        ));
        assert!(!scratch.blockers().is_empty());
        assert!(scratch.blockers().iter().all(|&b| b == 10 || b == 11));
    }

    #[test]
    fn scratch_reuse_matches_fresh_searches() {
        let mut grid = ChannelGrid::new(16, 6);
        let first = grid.a_star(GridPoint::new(1, 0), GridPoint::new(14, 5)).expect("routable");
        grid.occupy_path(&first);

        // A dirty scratch (used for an unrelated search) must give the same
        // answers as a fresh one. This leftward walk reaches its goal with
        // the up children of track 0 still on its stack.
        let mut dirty = SearchScratch::new();
        assert!(grid.a_star_into(GridPoint::new(15, 0), GridPoint::new(0, 5), &mut dirty));

        // The small rightward queries follow a larger one, so a reach table
        // left over from the larger box must not leak into them. The first
        // of them runs along track 5, which the first net blocks, so a
        // leaked table would turn its detour into a straight run. The
        // leftward and vertical queries come after the large walk: the
        // first of them climbs column 1, which the first net blocks, so a
        // stack left over from the walk would hand it a path from another
        // search.
        for (start, goal) in [
            (GridPoint::new(0, 0), GridPoint::new(15, 5)),
            (GridPoint::new(0, 5), GridPoint::new(3, 5)),
            (GridPoint::new(5, 1), GridPoint::new(7, 2)),
            (GridPoint::new(12, 3), GridPoint::new(15, 4)),
            (GridPoint::new(1, 0), GridPoint::new(1, 4)),
            (GridPoint::new(3, 0), GridPoint::new(3, 5)),
            (GridPoint::new(12, 0), GridPoint::new(4, 3)),
            (GridPoint::new(14, 0), GridPoint::new(2, 5)),
            (GridPoint::new(9, 2), GridPoint::new(9, 4)),
        ] {
            let mut fresh = SearchScratch::new();
            assert!(grid.a_star_into(start, goal, &mut fresh));
            assert!(grid.a_star_into(start, goal, &mut dirty));
            assert_eq!(fresh.path(), dirty.path(), "dirty scratch altered the search result");
        }
    }

    /// Which search answers a query without penalty.
    #[derive(Debug, PartialEq)]
    enum Answer {
        Scan,
        Walk,
        Heap,
    }

    /// Runs [`ChannelGrid::a_star_into`] and the heap search on one query
    /// and asserts they agree (return value, path, no blockers). Every node
    /// the leftward walk reaches, also in a walk that gives up, must hold
    /// the parent the heap gave it: its first optimal offer. Returns which
    /// search answered the query.
    fn assert_matches_heap(
        grid: &ChannelGrid,
        start: GridPoint,
        goal: GridPoint,
        fast: &mut SearchScratch,
        heap: &mut SearchScratch,
    ) -> Answer {
        let found = grid.a_star_into(start, goal, fast);
        let reference = grid.heap_search(start, goal, heap, None);
        assert_eq!(found, reference, "{start:?} -> {goal:?}: routability differs");
        assert_eq!(fast.path(), heap.path(), "{start:?} -> {goal:?}: path differs");
        assert!(fast.blockers().is_empty(), "{start:?} -> {goal:?}: blockers without penalty");
        let mut scratch = SearchScratch::new();
        if grid.monotone_scan(start, goal, &mut scratch) {
            return Answer::Scan;
        }
        let walked = grid.leftward_walk(start, goal, &mut scratch);
        for (node, &stamp) in scratch.stamp.iter().enumerate() {
            // The heap answers `start == goal` without expanding the start.
            if stamp == scratch.generation && start != goal {
                assert_eq!(heap.stamp[node], heap.generation, "{start:?} -> {goal:?}: node {node}");
                assert_eq!(
                    scratch.parent[node], heap.parent[node],
                    "{start:?} -> {goal:?}: parent of node {node} differs"
                );
            }
        }
        if walked {
            Answer::Walk
        } else {
            Answer::Heap
        }
    }

    /// Checks one named query against the heap search and returns the path
    /// (empty when unroutable) and which search answered it.
    fn named_case(
        grid: &ChannelGrid,
        start: GridPoint,
        goal: GridPoint,
    ) -> (Vec<GridPoint>, Answer) {
        let (mut fast, mut heap) = (SearchScratch::new(), SearchScratch::new());
        let answer = assert_matches_heap(grid, start, goal, &mut fast, &mut heap);
        (fast.path().to_vec(), answer)
    }

    /// Occupies every edge of the vertical wall between columns `column`
    /// and `column + 1`, except on the tracks in `gaps`.
    fn wall(grid: &mut ChannelGrid, column: i64, gaps: &[i64]) {
        for track in (0..grid.tracks()).filter(|track| !gaps.contains(track)) {
            grid.occupy_path(&[GridPoint::new(column, track), GridPoint::new(column + 1, track)]);
        }
    }

    #[test]
    fn monotone_scan_answers_reachable_rightward_queries() {
        let mut grid = ChannelGrid::new(12, 6);
        // A vertical obstacle the monotone path must climb around.
        grid.occupy_path(&[GridPoint::new(4, 0), GridPoint::new(4, 1), GridPoint::new(4, 2)]);
        wall(&mut grid, 5, &[3, 4, 5]);
        let (start, goal) = (GridPoint::new(1, 1), GridPoint::new(9, 4));
        let (path, answer) = named_case(&grid, start, goal);
        assert_eq!(answer, Answer::Scan, "a monotone path exists");
        assert_eq!(path.len() as i64 - 1, start.manhattan(goal));
    }

    #[test]
    fn monotone_scan_falls_back_to_the_heap_for_detours() {
        let mut grid = ChannelGrid::new(8, 4);
        // The only gap in the wall is below the start's track.
        wall(&mut grid, 3, &[0]);
        let (start, goal) = (GridPoint::new(1, 1), GridPoint::new(6, 2));
        let (path, answer) = named_case(&grid, start, goal);
        assert_eq!(answer, Answer::Heap, "no monotone path crosses the wall");
        assert_eq!(path.len() as i64 - 1, start.manhattan(goal) + 2, "one step down and back up");
    }

    #[test]
    fn monotone_scan_agrees_on_unreachable_goals() {
        let mut grid = ChannelGrid::new(8, 4);
        wall(&mut grid, 3, &[]);
        let (path, answer) = named_case(&grid, GridPoint::new(1, 0), GridPoint::new(6, 3));
        assert_eq!(answer, Answer::Heap);
        assert!(path.is_empty(), "a fully blocked column separates start and goal");
    }

    #[test]
    fn leftward_walk_answers_leftward_and_vertical_queries() {
        let mut grid = ChannelGrid::new(10, 5);
        grid.occupy_path(&[GridPoint::new(3, 2), GridPoint::new(4, 2), GridPoint::new(5, 2)]);
        let (path, answer) = named_case(&grid, GridPoint::new(8, 0), GridPoint::new(2, 4));
        assert_eq!(answer, Answer::Walk, "leftward");
        assert_eq!(path.len(), 11);
        let (path, answer) = named_case(&grid, GridPoint::new(6, 0), GridPoint::new(6, 4));
        assert_eq!(answer, Answer::Walk, "vertical (no column change)");
        assert_eq!(path.len(), 5);
        grid.occupy_path(&[GridPoint::new(6, 1), GridPoint::new(6, 2)]);
        let (path, answer) = named_case(&grid, GridPoint::new(6, 0), GridPoint::new(6, 4));
        assert_eq!(answer, Answer::Heap, "a blocked vertical needs a detour");
        assert_eq!(path.len(), 7, "the blocked vertical edge costs a two-step detour");
    }

    #[test]
    fn monotone_scan_handles_same_track_queries() {
        let mut grid = ChannelGrid::new(10, 3);
        let (path, answer) = named_case(&grid, GridPoint::new(2, 1), GridPoint::new(7, 1));
        assert_eq!(answer, Answer::Scan, "a free straight run");
        assert!(path.iter().all(|point| point.track == 1));
        // Block the run: the box is one track high, so the detour is the
        // heap's.
        grid.occupy_path(&[GridPoint::new(4, 1), GridPoint::new(5, 1)]);
        let (path, answer) = named_case(&grid, GridPoint::new(2, 1), GridPoint::new(7, 1));
        assert_eq!(answer, Answer::Heap);
        assert_eq!(path.len(), 8);
    }

    /// SplitMix64: a small seeded generator, so the randomized test below
    /// needs no RNG dependency.
    struct SplitMix(u64);

    impl SplitMix {
        fn below(&mut self, bound: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % bound
        }
    }

    #[test]
    fn search_matches_heap_search_on_random_grids() {
        let mut rng = SplitMix(0x5EED_0017);
        let (mut fast, mut heap) = (SearchScratch::new(), SearchScratch::new());
        let (mut scanned, mut walked) = (0usize, 0usize);
        let (mut rightward_detours, mut leftward_detours) = (0usize, 0usize);
        for _ in 0..300 {
            let columns = 2 + rng.below(39) as i64;
            let tracks = 2 + rng.below(11) as i64;
            let mut grid = ChannelGrid::new(columns, tracks);
            let density = rng.below(61);
            let net = rng.below(1000) as u32;
            for track in 0..tracks {
                for column in 0..columns {
                    let here = GridPoint::new(column, track);
                    if column + 1 < columns && rng.below(100) < density {
                        grid.occupy_path_for(net, &[here, GridPoint::new(column + 1, track)]);
                    }
                    if track + 1 < tracks && rng.below(100) < density {
                        grid.occupy_path_for(net, &[here, GridPoint::new(column, track + 1)]);
                    }
                }
            }
            // Walls: fully blocked columns, or ones with a single gap that
            // is often only reachable by a detour.
            match rng.below(4) {
                0 => wall(&mut grid, rng.below(columns as u64 - 1) as i64, &[]),
                1 => {
                    let gap = rng.below(tracks as u64) as i64;
                    wall(&mut grid, rng.below(columns as u64 - 1) as i64, &[gap]);
                }
                _ => {}
            }
            for query in 0..16 {
                let mut point = || {
                    GridPoint::new(
                        rng.below(columns as u64) as i64,
                        rng.below(tracks as u64) as i64,
                    )
                };
                let (mut start, mut goal) = (point(), point());
                if query % 2 == 0 {
                    // The router's shape: driver on track 0, sink on the top.
                    start.track = 0;
                    goal.track = tracks - 1;
                }
                match assert_matches_heap(&grid, start, goal, &mut fast, &mut heap) {
                    Answer::Scan => scanned += 1,
                    Answer::Walk => walked += 1,
                    // Unroutable, or a downward query no shortcut takes.
                    Answer::Heap if fast.path().is_empty() || goal.track < start.track => {}
                    Answer::Heap if goal.column > start.column => rightward_detours += 1,
                    Answer::Heap => leftward_detours += 1,
                }
            }
        }
        assert!(scanned > 500, "only {scanned} queries exercised the scan");
        assert!(walked > 600, "only {walked} queries exercised the walk");
        assert!(rightward_detours > 100, "only {rightward_detours} rightward detours");
        assert!(leftward_detours > 200, "only {leftward_detours} leftward or vertical detours");
    }

    #[test]
    fn out_of_bounds_endpoints_are_rejected() {
        let grid = ChannelGrid::new(4, 4);
        assert!(grid.a_star(GridPoint::new(-1, 0), GridPoint::new(2, 2)).is_none());
        assert!(grid.a_star(GridPoint::new(0, 0), GridPoint::new(10, 2)).is_none());
    }

    #[test]
    fn utilization_grows_as_paths_are_committed() {
        let mut grid = ChannelGrid::new(10, 4);
        assert_eq!(grid.horizontal_utilization(), 0.0);
        let path = grid.a_star(GridPoint::new(0, 2), GridPoint::new(9, 2)).expect("routable");
        grid.occupy_path(&path);
        assert!(grid.horizontal_utilization() > 0.0);
    }

    #[test]
    #[should_panic(expected = "at least a 2x2")]
    fn degenerate_grid_rejected() {
        ChannelGrid::new(1, 5);
    }
}
