//! The DS-Search algorithm (Algorithm 1, Sections 4.2–4.6).

use crate::asp::{AspInstance, Contributions, RectObject};
use crate::best::BestSet;
use crate::budget::Budget;
use crate::config::SearchConfig;
use crate::discretize::{discretize, BoundSums, DirtyCell, Scratch};
use crate::drop_condition::satisfies_drop_condition;
use crate::error::AsrsError;
use crate::query::AsrsQuery;
use crate::split::split;
use crate::stats::SearchStats;
use asrs_aggregator::{
    distance_lower_bound, weighted_distance, CompositeAggregator, FeatureVector,
};
use asrs_geo::{Point, Rect};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Dirty cells crossed by at most this many rectangles are resolved
/// exactly (one probe per arrangement piece inside the cell) instead of
/// being split further.  This keeps the recursion from chasing cells along
/// the optimal region's boundary whose real-valued lower bounds stay
/// marginally below the optimum.
const RESOLVE_CROSSING_THRESHOLD: u32 = 24;

/// The DS-Search kernel for the ASRS problem, bound to one query over one
/// ASP instance.
///
/// DS-Search reduces ASRS to ASP (one rectangle per object, Section 4.1) and
/// then repeatedly *discretizes* the space into clean and dirty cells and
/// *splits* the sub-space spanned by the surviving dirty cells.  Clean cells
/// are evaluated exactly; dirty cells are pruned with the Equation-1 lower
/// bound; a space whose cells are smaller than half the coordinate accuracy
/// satisfies the *drop condition* and needs no further splitting
/// (Theorem 2).
///
/// The kernel has one mode, and its answer is a pure function of the
/// instance, whatever sub-spaces it is handed: pruning is strict (a bound
/// *equal* to the cutoff survives), so every candidate tied with the final
/// cutoff is probed, and the [`BestSet`] snaps every anchor to its
/// arrangement cell's canonical representative, so the `(distance, y, x)`
/// tie-break picks the same winners for every decomposition.  Whole-space
/// DS-Search, GI-DS, the shard scatter and the exhaustive oracle therefore
/// report the same outcome for exact requests.
///
/// Deviations from the paper's pseudo-code, all conservative:
///
/// * When a space satisfies the drop condition but still has unpruned
///   dirty cells, the remaining candidate positions inside those cells
///   are enumerated exactly instead of being discarded.  This closes the
///   corner case where the optimal disjoint region only intersects the
///   dropped space in a sliver.  Enumeration is per x-strip: the crossing
///   rectangles' x-edges cut the cell into strips, a strip whose
///   Equation-1 bound exceeds the cutoff is skipped, and the rest are cut
///   only at the y-edges of the rectangles *active* in them (see
///   [`DsSearch::resolve_cells_exactly`]).  Every arrangement piece a
///   candidate could occupy is still offered.
/// * The drop condition resolves a space once *either* axis's cells are
///   below half the accuracy, not only once both are (Theorem 2 asks for
///   both).  Exact resolution enumerates every arrangement piece of any
///   cell, so this changes cost, not answers; it keeps a sliver one ulp
///   tall and many cells wide from splitting without end.
/// * `Split` bisects the retained cells at the middle column or row of
///   their longer extent in plane units instead of growing two groups by
///   area enlargement (Section 4.4).  Both parts are the bounding boxes of
///   their cells, so every split shrinks the longer extent — the greedy
///   heuristic could return a part equal to its parent, or cut only the
///   short axis of a thin strip, and stop the bound from tightening.
///
/// Together the last two bound the recursion without a depth cap.  On an
/// `n × m` grid a part spans at most `⌈n/2⌉` of its parent's `n` columns
/// (or `⌈m/2⌉` of `m` rows; a single retained cell shrinks both axes to
/// one cell), so each split shrinks one axis by at least `ρ = ⌈n/2⌉ / n`
/// (½ on the default 30 × 30 grid).  A space of extent `W × H` drops once
/// `W < n·ΔX/2` or `H < m·ΔY/2`, so with `a = ⌈log_{1/ρ}(2W₀ / (n·ΔX))⌉`
/// and `b` likewise for `y`, no space deeper than `a + b − 1` splits
/// again.  The accuracy is floored at `1e-12`, so a root extent of `10³`
/// gives `a, b ≤ 46`; the deepest space the paper-scale figures reach is
/// at depth 51.
/// * The heap is also cut off at `d_opt / (1 + δ)`, which specialises to
///   the paper's `d_opt` cutoff for the exact setting `δ = 0`.
/// * Before the first grid, the root space is bounded as one cell: the
///   Equation-1 bound over its own candidates, with the rectangles that
///   contain the whole space as the base ([`Bounds::space_bound`]).  A
///   root whose bound exceeds the raw cutoff (not the one divided by
///   `1 + δ`, as for the resolve strips) is settled without a grid and
///   counted in [`SearchStats::spaces_bounded`].  Every candidate anchored
///   in it is at least that far and the cutoff only falls, so its grid
///   could neither offer a candidate nor retain a dirty cell: this changes
///   cost, not answers.  It costs `O(m · d)` against the grid's
///   `O(n_col · n_row · d)`, and it is what keeps GI-DS from laying a full
///   grid over every index cell its Definition-9 bound opens: that bound
///   is built from whole index cells, the root bound from the cell's own
///   rectangles.
///
/// Dirty cells crossed by at most [`RESOLVE_CROSSING_THRESHOLD`]
/// rectangles are resolved the same exact way on the spot.  The
/// discretisation grid is the one setting ([`SearchConfig`]); δ comes with
/// each request.
///
/// The kernel searches whatever sub-space it is handed
/// ([`DsSearch::search_space`]).  The engine's executor decides which
/// sub-spaces those are: the whole ASP space (Algorithm 1), the index
/// cells best-first (GI-DS, Algorithm 2) or the shards' anchor slabs; the
/// carry-forward pass hands it influence windows.
pub(crate) struct DsSearch<'a> {
    pub(crate) aggregator: &'a CompositeAggregator,
    pub(crate) config: &'a SearchConfig,
    /// The pruning factor `1 + δ` (1 for the exact algorithm).
    pub(crate) prune_factor: f64,
    pub(crate) asp: &'a AspInstance,
    /// The statistics rows of `asp`'s rectangles under `aggregator`.
    pub(crate) table: &'a Contributions,
    pub(crate) query: &'a AsrsQuery,
    /// Polled at every popped sub-space and resolved cell.
    pub(crate) budget: Option<&'a Budget>,
    /// Whether [`DsSearch::root_bound`] bounds a root space before its
    /// first grid; tests clear it to measure the work the bound saves.
    #[cfg(test)]
    bound_roots: bool,
}

struct HeapEntry {
    lb: f64,
    space: Rect,
    candidates: Vec<u32>,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.lb == other.lb
    }
}

impl Eq for HeapEntry {}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse the comparison to pop the
        // smallest lower bound first.
        other.lb.partial_cmp(&self.lb).unwrap_or(Ordering::Equal)
    }
}

impl<'a> DsSearch<'a> {
    /// Binds the kernel to `query` over `asp`, whose rectangles'
    /// statistics rows under `aggregator` are `table`, pruning for the
    /// (1+`delta`)-approximate problem (`delta = 0` is exact).
    pub(crate) fn new(
        aggregator: &'a CompositeAggregator,
        config: &'a SearchConfig,
        delta: f64,
        asp: &'a AspInstance,
        table: &'a Contributions,
        query: &'a AsrsQuery,
        budget: Option<&'a Budget>,
    ) -> Self {
        Self {
            aggregator,
            config,
            prune_factor: 1.0 + delta,
            asp,
            table,
            query,
            budget,
            #[cfg(test)]
            bound_roots: true,
        }
    }

    /// The representation and distance of a candidate covering nothing —
    /// what every point outside all rectangles evaluates to.
    pub(crate) fn empty_candidate(&self) -> (FeatureVector, f64) {
        empty_candidate(self.aggregator, self.query)
    }

    /// Offers the candidate corresponding to an empty region placed outside
    /// every rectangle.  It initialises the intermediate result so that the
    /// search is correct even when the most similar region contains no
    /// object at all (e.g. a query representation of all zeros).
    pub(crate) fn seed_empty_region(&self, best: &mut BestSet) {
        let size = self.query.size;
        let anchor = match self.asp.space() {
            Some(space) => Point::new(space.max_x + size.width, space.max_y + size.height),
            None => Point::origin(),
        };
        let (representation, distance) = self.empty_candidate();
        best.offer(distance, anchor, representation);
    }

    /// Fresh kernel buffers for this solver's grid and aggregator; one set
    /// serves every [`DsSearch::search_space`] call on one thread.
    pub(crate) fn scratch(&self) -> Scratch {
        Scratch::new(self.aggregator, self.config.ncols, self.config.nrows)
    }

    /// The Equation-1 bound of the root `space`, whose contributing
    /// rectangles are `candidates` ([`Bounds::space_bound`]), in
    /// `scratch`'s bound buffers.
    pub(crate) fn root_bound(
        &self,
        space: &Rect,
        candidates: &[u32],
        scratch: &mut Scratch,
    ) -> f64 {
        #[cfg(test)]
        if !self.bound_roots {
            return f64::MIN;
        }
        self.bounds()
            .space_bound(space, candidates, &mut scratch.bound, &mut scratch.partial)
    }

    /// Runs the discretize–split loop of Algorithm 1 over `space`, whose
    /// contributing rectangles are `candidates`, updating `best` and
    /// `stats` in place; `scratch` is the calling thread's buffer set.  An
    /// expired budget aborts the loop with [`AsrsError::DeadlineExceeded`].
    /// The root's bound is computed here; see [`DsSearch::search_bounded`].
    pub(crate) fn search_space(
        &self,
        space: Rect,
        candidates: Vec<u32>,
        best: &mut BestSet,
        stats: &mut SearchStats,
        scratch: &mut Scratch,
    ) -> Result<(), AsrsError> {
        let bound = self.root_bound(&space, &candidates, scratch);
        self.search_bounded(space, bound, candidates, best, stats, scratch)
    }

    /// [`DsSearch::search_space`] for a root whose bound the caller already
    /// holds: `bound` is `space`'s [`DsSearch::root_bound`] over
    /// `candidates`.  A space whose bound exceeds `best`'s raw cutoff is
    /// settled before any grid is laid over it and counted in
    /// [`SearchStats::spaces_bounded`]: every candidate anchored in it is
    /// at least that far, and the cutoff only falls.
    pub(crate) fn search_bounded(
        &self,
        space: Rect,
        bound: f64,
        candidates: Vec<u32>,
        best: &mut BestSet,
        stats: &mut SearchStats,
        scratch: &mut Scratch,
    ) -> Result<(), AsrsError> {
        let asp = self.asp;
        let prune_factor = self.prune_factor;
        if bound > best.cutoff() {
            stats.spaces_bounded += 1;
            return Ok(());
        }
        #[cfg(test)]
        test_hooks::record_root(space);
        let mut heap: BinaryHeap<HeapEntry> = BinaryHeap::new();
        heap.push(HeapEntry {
            lb: 0.0,
            space,
            candidates,
        });
        stats.heap_pushes += 1;

        while let Some(entry) = heap.pop() {
            if let Some(b) = self.budget {
                b.check()?;
            }
            if entry.lb > best.cutoff() / prune_factor {
                break;
            }
            stats.spaces_processed += 1;
            let outcome = discretize(
                &entry.space,
                asp,
                self.table,
                &entry.candidates,
                self.aggregator,
                self.query,
                best,
                prune_factor,
                scratch,
            );
            stats.cells_examined += outcome.clean_cells + outcome.dirty_cells;
            stats.clean_cells += outcome.clean_cells;
            stats.dirty_cells += outcome.dirty_cells;
            stats.dirty_cells_pruned += outcome.pruned_dirty;
            if outcome.retained_dirty.is_empty() {
                continue;
            }
            // Dirty cells crossed by only a handful of rectangle edges are
            // resolved exactly on the spot: the arrangement inside such a
            // cell has at most a few pieces, so enumerating one probe point
            // per piece is cheaper than splitting the cell again and again.
            // This also guarantees termination for aggregators whose
            // real-valued lower bounds can stay strictly below the optimum
            // along the optimal region's boundary.
            let resolve_all = satisfies_drop_condition(&outcome.grid, &asp.accuracy());
            if resolve_all {
                stats.drops += 1;
            }
            let mut to_split: Vec<DirtyCell> = Vec::new();
            let mut to_resolve: Vec<DirtyCell> = Vec::new();
            for cell in outcome.retained_dirty {
                if resolve_all || cell.partials <= RESOLVE_CROSSING_THRESHOLD {
                    to_resolve.push(cell);
                } else {
                    to_split.push(cell);
                }
            }
            if !to_resolve.is_empty() {
                self.resolve_cells_exactly(&to_resolve, &entry.candidates, best, stats, scratch)?;
            }
            if to_split.is_empty() {
                continue;
            }
            stats.splits += 1;
            for part in split(&outcome.grid, &to_split) {
                if part.lb > best.cutoff() / prune_factor {
                    continue;
                }
                let sub_candidates: Vec<u32> = entry
                    .candidates
                    .iter()
                    .copied()
                    .filter(|&i| asp.rects()[i as usize].rect.intersects(&part.space))
                    .collect();
                stats.heap_pushes += 1;
                heap.push(HeapEntry {
                    lb: part.lb,
                    space: part.space,
                    candidates: sub_candidates,
                });
            }
        }
        Ok(())
    }

    /// Exact per-cell resolution: enumerates one probe point per piece of
    /// the cell's covering arrangement and evaluates it directly.  Used
    /// for dirty cells crossed by few rectangle edges and for every
    /// surviving dirty cell of a dropped space.
    ///
    /// `cells` are in row-major order and lie in the grid
    /// `scratch.edges` describes.  Work is bucketed so that no step scans
    /// more than it needs:
    ///
    /// * each cell gets its own candidate list — the candidates whose
    ///   interior meets the cell, in candidate order — found from each
    ///   rectangle's cell range by binary search over the edge table and
    ///   the sorted cells, instead of testing every candidate against
    ///   every cell;
    /// * the rectangles crossing a cell are filtered once per probe column
    ///   (x-strip) into the strip's *active* rectangles, so each probe
    ///   tests only their y-extent;
    /// * a strip is skipped when the Equation-1 bound over `(base, base +
    ///   Σ active)` exceeds `best`'s raw cutoff: each of its probes is
    ///   covered by the base and a subset of the active rectangles, so
    ///   none has a distance the set would accept.  The raw cutoff, not
    ///   the one divided by `1 + δ`, so approximate answers do not move
    ///   either;
    /// * a surviving strip is cut only at the y-edges of its active
    ///   rectangles, not at those of every crossing rectangle.  The
    ///   windows this merges have identical coverings, and every cut it
    ///   drops is a global edge, so [`BestSet::offer_region`] over a
    ///   merged window offers exactly the union of its parts'
    ///   representatives;
    /// * probes accumulate table rows into reused buffers, and a
    ///   [`FeatureVector`] is built only for a probe offered to `best`.
    ///
    /// Every probe sees the same rectangles in the same order as a full
    /// scan of `candidates`, so its statistics and distance are
    /// bit-identical to it.  After each strip `best` holds what the flat
    /// product of every crossing rectangle's x-cuts and y-cuts would have
    /// left there, so every later pruning decision, and the answer, is
    /// unchanged; only [`SearchStats::fallback_points`] falls.
    fn resolve_cells_exactly(
        &self,
        cells: &[DirtyCell],
        candidates: &[u32],
        best: &mut BestSet,
        stats: &mut SearchStats,
        scratch: &mut Scratch,
    ) -> Result<(), AsrsError> {
        debug_assert!(cells
            .windows(2)
            .all(|w| (w[0].row, w[0].col) < (w[1].row, w[1].col)));
        let (table, query, bounds) = (self.table, self.query, self.bounds());
        let rects = self.asp.rects();
        let Scratch {
            edges,
            features,
            bound,
            lists,
            partial,
            active,
            xs,
            ys,
            probe,
            probe_stats,
            ..
        } = scratch;
        if lists.len() < cells.len() {
            lists.resize_with(cells.len(), Vec::new);
        }
        lists[..cells.len()].iter_mut().for_each(Vec::clear);
        let cell_key = |c: &DirtyCell| (c.row, c.col);
        for &idx in candidates {
            let r = &rects[idx as usize].rect;
            let (c0, c1) = interior_span(edges.xs(), r.min_x, r.max_x);
            let (r0, r1) = interior_span(edges.ys(), r.min_y, r.max_y);
            if c0 >= c1 || r0 >= r1 {
                continue;
            }
            // Walk the resolved cells inside the range, jumping over the
            // columns outside it row by row.
            let mut at = cells.partition_point(|c| cell_key(c) < (r0, c0));
            while let Some(cell) = cells.get(at) {
                if cell.row >= r1 {
                    break;
                }
                if cell.col < c0 {
                    at += cells[at..].partition_point(|c| cell_key(c) < (cell.row, c0));
                } else if cell.col >= c1 {
                    at += cells[at..].partition_point(|c| cell_key(c) < (cell.row + 1, c0));
                } else {
                    lists[at].push(idx);
                    at += 1;
                }
            }
        }

        // Compensated (Kahan–Neumaier) accumulators: probe statistics sum
        // float attribute values, and the compensation keeps each slot at
        // the correctly rounded total, so the reported representation of a
        // candidate does not depend on the order the covering rectangles
        // happened to be accumulated in (which varies with the search-space
        // decomposition).
        for (cell, list) in cells.iter().zip(lists.iter()) {
            if let Some(b) = self.budget {
                b.check()?;
            }
            if cell.lb > best.cutoff() / self.prune_factor {
                continue;
            }
            let rect = edges.cell_rect(cell.col, cell.row);
            // Split the cell's candidates into rectangles fully covering it
            // (their contribution is shared by every probe) and rectangles
            // merely crossing it, whose x-edges cut the cell into strips.
            bounds.split_base(&rect, list, bound, partial);
            xs.clear();
            xs.extend([rect.min_x, rect.max_x]);
            for &idx in partial.iter() {
                let r = &rects[idx as usize].rect;
                for x in [r.min_x, r.max_x] {
                    if x > rect.min_x && x < rect.max_x {
                        xs.push(x);
                    }
                }
            }
            xs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(Ordering::Equal));
            xs.dedup();
            for wx in xs.windows(2) {
                let px = (wx[0] + wx[1]) / 2.0;
                active.clear();
                active.extend(partial.iter().copied().filter(|&idx| {
                    let r = &rects[idx as usize].rect;
                    px > r.min_x && px < r.max_x
                }));
                // Every probe of the strip is covered by the base and a
                // subset of the active rectangles, so the Equation-1 bound
                // over `(base, base + Σ active)` bounds all of them.  The
                // raw cutoff, not the (1+δ)-relaxed one: a skipped strip
                // holds no candidate the set would accept.
                if bounds.bound_with(bound, active) > best.cutoff() {
                    continue;
                }
                // Only the active rectangles change the covering along the
                // strip, so their y-edges alone cut it into windows.
                ys.clear();
                ys.extend([rect.min_y, rect.max_y]);
                for &idx in active.iter() {
                    let r = &rects[idx as usize].rect;
                    for y in [r.min_y, r.max_y] {
                        if y > rect.min_y && y < rect.max_y {
                            ys.push(y);
                        }
                    }
                }
                ys.sort_by(|a, b| a.partial_cmp(b).unwrap_or(Ordering::Equal));
                ys.dedup();
                for wy in ys.windows(2) {
                    let py = (wy[0] + wy[1]) / 2.0;
                    stats.fallback_points += 1;
                    probe.clone_from_accumulator(&bound.base);
                    for &idx in active.iter() {
                        let r = &rects[idx as usize].rect;
                        if py > r.min_y && py < r.max_y {
                            probe.add_slice(table.row(idx));
                        }
                    }
                    probe.finish_into(probe_stats);
                    self.aggregator
                        .stats_to_features_into(probe_stats, features);
                    let distance =
                        weighted_distance(features, &query.target, &query.weights, query.metric);
                    // `<=` rather than `<`: equal-distance candidates still
                    // reach the set so its anchor tie-breaking stays
                    // discovery-order independent.  The window's covering
                    // is uniform, so the whole window is offered (one
                    // candidate per arrangement cell in it).
                    if distance <= best.cutoff() {
                        best.offer_region(
                            distance,
                            &Rect::new(wx[0], wy[0], wx[1], wy[1]),
                            FeatureVector::new(features.clone()),
                        );
                    }
                }
            }
        }
        Ok(())
    }

    /// What Equation 1 reads of this solver.
    fn bounds(&self) -> Bounds<'a> {
        Bounds {
            aggregator: self.aggregator,
            query: self.query,
            rects: self.asp.rects(),
            table: self.table,
        }
    }
}

/// What the Equation-1 bound reads: the aggregator and query, and the
/// rectangles and statistics rows of the candidates it sums.  The kernel
/// bounds its cells and strips over its instance's; the carry pass bounds
/// an influence window over the window's candidates before it builds an
/// instance of them.
#[derive(Clone, Copy)]
pub(crate) struct Bounds<'a> {
    pub(crate) aggregator: &'a CompositeAggregator,
    pub(crate) query: &'a AsrsQuery,
    pub(crate) rects: &'a [RectObject],
    pub(crate) table: &'a Contributions,
}

impl Bounds<'_> {
    /// The Equation-1 bound of `space` taken as one cell, over its
    /// contributing `candidates`: no candidate anchored inside `space`
    /// has a smaller distance.  The base is the candidates whose rectangle
    /// contains the closed space, the upper set all of them, so a space
    /// whose bound exceeds the cutoff is one [`DsSearch::search_space`]
    /// would prune, decided before a grid is laid over it.
    /// `sums` and `partial` are the bound's buffers, as in [`Scratch`].
    pub(crate) fn space_bound(
        &self,
        space: &Rect,
        candidates: &[u32],
        sums: &mut BoundSums,
        partial: &mut Vec<u32>,
    ) -> f64 {
        self.split_base(space, candidates, sums, partial);
        self.bound_with(sums, partial)
    }

    /// Splits `candidates` against `rect`, keeping their order: the rows
    /// of those whose rectangle contains `rect` (closed) are summed into
    /// `sums.base` and finished into `sums.base_stats`, the others are
    /// listed in `partial`.
    fn split_base(
        &self,
        rect: &Rect,
        candidates: &[u32],
        sums: &mut BoundSums,
        partial: &mut Vec<u32>,
    ) {
        let rects = self.rects;
        sums.base.reset();
        partial.clear();
        for &idx in candidates {
            if rects[idx as usize].rect.contains_rect(rect) {
                sums.base.add_slice(self.table.row(idx));
            } else {
                partial.push(idx);
            }
        }
        sums.base.finish_into(&mut sums.base_stats);
    }

    /// Equation 1 over compensated sums: the lower bound on the distance
    /// of every covering that holds all of `sums.base` and any subset of
    /// `optional`.  The upper sum is the base plus each optional row in
    /// order; both feed [`CompositeAggregator::feature_bounds_into`], and
    /// the feature bounds give the distance bound.
    fn bound_with(&self, sums: &mut BoundSums, optional: &[u32]) -> f64 {
        let BoundSums {
            base,
            base_stats,
            upper,
            upper_stats,
            lo,
            hi,
        } = sums;
        upper.clone_from_accumulator(base);
        for &idx in optional {
            upper.add_slice(self.table.row(idx));
        }
        upper.finish_into(upper_stats);
        self.aggregator
            .feature_bounds_into(base_stats, upper_stats, lo, hi);
        let query = self.query;
        distance_lower_bound(&query.target, lo, hi, &query.weights, query.metric)
    }
}

/// The representation and distance of a candidate covering nothing under
/// `aggregator` for `query` — what every point outside all rectangles
/// evaluates to.
pub(crate) fn empty_candidate(
    aggregator: &CompositeAggregator,
    query: &AsrsQuery,
) -> (FeatureVector, f64) {
    let zero_stats = vec![0.0; aggregator.stats_dim()];
    let representation = aggregator.stats_to_features(&zero_stats);
    let distance =
        aggregator.distance(&representation, &query.target, &query.weights, query.metric);
    (representation, distance)
}

/// The half-open range of grid cells along one axis whose open interval
/// `(edges[i], edges[i + 1])` meets the open interval `(lo, hi)` — the
/// per-axis half of [`Rect::interiors_intersect`] against a cell, by
/// binary search over the ascending edge table.
fn interior_span(edges: &[f64], lo: f64, hi: f64) -> (usize, usize) {
    let n = edges.len() - 1;
    let start = edges[1..].partition_point(|e| *e <= lo);
    let end = edges[..n].partition_point(|e| *e < hi);
    (start, end)
}

#[cfg(test)]
pub(crate) mod test_hooks {
    //! A per-thread log of the root spaces the kernel laid a grid over, so
    //! a test can tell which roots a plan discretised.  Thread-local, so
    //! parallel tests cannot interfere.

    use asrs_geo::Rect;
    use std::cell::RefCell;

    thread_local! {
        static ROOTS: RefCell<Vec<Rect>> = const { RefCell::new(Vec::new()) };
    }

    pub(crate) fn record_root(space: Rect) {
        ROOTS.with(|roots| roots.borrow_mut().push(space));
    }

    /// The roots this thread discretised since the last call.
    pub(crate) fn take_roots() -> Vec<Rect> {
        ROOTS.with(|roots| std::mem::take(&mut *roots.borrow_mut()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{Executor, Slabs};
    use crate::grid_index::GridIndex;
    use crate::result::SearchResult;
    use asrs_aggregator::{
        CompositeAggregator, FeatureVector, Selection, StatsAccumulator, Weights,
    };
    use asrs_data::gen::UniformGenerator;
    use asrs_data::{AttrValue, AttributeDef, AttributeKind, Dataset, DatasetBuilder, Schema};
    use asrs_geo::{CellRange, GridEdges, GridSpec, RegionSize};
    use std::sync::Arc;

    /// The `k` best regions by DS-Search over the whole space, as the
    /// engine runs a pinned `Backend::DsSearch`.
    fn search_top_k(
        ds: &Dataset,
        agg: &CompositeAggregator,
        config: SearchConfig,
        query: &AsrsQuery,
        k: usize,
    ) -> Result<Vec<SearchResult>, AsrsError> {
        Executor::new(ds, &Default::default(), agg, &config, Slabs::Whole).run(
            query,
            k,
            0.0,
            None,
            &mut SearchStats::new(),
        )
    }

    /// The best region by DS-Search over the whole space.
    fn search(
        ds: &Dataset,
        agg: &CompositeAggregator,
        config: SearchConfig,
        query: &AsrsQuery,
    ) -> Result<SearchResult, AsrsError> {
        approximate(ds, agg, config, query, 0.0)
    }

    /// The best region by DS-Search over the whole space and the run's
    /// statistics.
    fn search_with_stats(
        ds: &Dataset,
        agg: &CompositeAggregator,
        query: &AsrsQuery,
    ) -> (SearchResult, SearchStats) {
        let mut stats = SearchStats::new();
        let result = Executor::new(
            ds,
            &Default::default(),
            agg,
            &SearchConfig::default(),
            Slabs::Whole,
        )
        .best(query, 0.0, None, &mut stats)
        .unwrap();
        (result, stats)
    }

    /// The best region for the (1+`delta`)-approximate problem.
    fn approximate(
        ds: &Dataset,
        agg: &CompositeAggregator,
        config: SearchConfig,
        query: &AsrsQuery,
        delta: f64,
    ) -> Result<SearchResult, AsrsError> {
        Executor::new(ds, &Default::default(), agg, &config, Slabs::Whole).best(
            query,
            delta,
            None,
            &mut SearchStats::new(),
        )
    }

    fn fig2_dataset() -> Dataset {
        let schema = Schema::new(vec![AttributeDef::new(
            "color",
            AttributeKind::categorical_labeled(vec!["red", "blue"]),
        )]);
        let mut b = DatasetBuilder::new(schema);
        b.push(2.0, 8.0, vec![AttrValue::Cat(0)]);
        b.push(3.5, 7.0, vec![AttrValue::Cat(1)]);
        b.push(1.5, 3.0, vec![AttrValue::Cat(1)]);
        b.push(5.0, 2.0, vec![AttrValue::Cat(0)]);
        b.push(7.5, 2.5, vec![AttrValue::Cat(1)]);
        b.push(8.0, 1.5, vec![AttrValue::Cat(0)]);
        b.build().unwrap()
    }

    #[test]
    fn finds_a_perfect_match_in_the_fig2_instance() {
        // The Fig. 2 reduction has a point covered by exactly one red and
        // one blue rectangle, so a query of (1, 1) has distance 0.
        let ds = fig2_dataset();
        let agg = CompositeAggregator::builder(ds.schema())
            .distribution("color", Selection::All)
            .build()
            .unwrap();
        let query = AsrsQuery::new(
            RegionSize::new(3.0, 3.0),
            FeatureVector::new(vec![1.0, 1.0]),
            Weights::uniform(2),
        );
        let (result, stats) = search_with_stats(&ds, &agg, &query);
        assert!(result.distance.abs() < 1e-9, "distance {}", result.distance);
        assert_eq!(result.representation.as_slice(), &[1.0, 1.0]);
        // The returned region really contains one red and one blue object.
        let rep = agg.aggregate_region(&ds, &result.region);
        assert_eq!(rep.as_slice(), &[1.0, 1.0]);
        assert!(stats.spaces_processed >= 1);
    }

    #[test]
    fn empty_target_returns_an_empty_region() {
        let ds = fig2_dataset();
        let agg = CompositeAggregator::builder(ds.schema())
            .distribution("color", Selection::All)
            .build()
            .unwrap();
        let query = AsrsQuery::new(
            RegionSize::new(3.0, 3.0),
            FeatureVector::new(vec![0.0, 0.0]),
            Weights::uniform(2),
        );
        let result = search(&ds, &agg, SearchConfig::default(), &query).unwrap();
        assert_eq!(result.distance, 0.0);
        assert_eq!(
            agg.aggregate_region(&ds, &result.region).as_slice(),
            &[0.0, 0.0]
        );
    }

    #[test]
    fn empty_dataset_is_handled() {
        let ds = Dataset::new_unchecked(Schema::empty(), vec![]);
        let agg = CompositeAggregator::builder(ds.schema())
            .count(Selection::All)
            .build()
            .unwrap();
        let query = AsrsQuery::new(
            RegionSize::new(1.0, 1.0),
            FeatureVector::new(vec![3.0]),
            Weights::uniform(1),
        );
        let (result, stats) = search_with_stats(&ds, &agg, &query);
        assert_eq!(result.distance, 3.0);
        assert_eq!(stats.rectangles, 0);
    }

    #[test]
    fn result_region_representation_matches_reported_distance() {
        let ds = UniformGenerator::default().generate(300, 9);
        let agg = CompositeAggregator::builder(ds.schema())
            .distribution("category", Selection::All)
            .build()
            .unwrap();
        let example = Rect::new(20.0, 30.0, 35.0, 45.0);
        let query = AsrsQuery::from_example_region(&ds, &agg, &example).unwrap();
        let result = search(&ds, &agg, SearchConfig::default(), &query).unwrap();
        let rep = agg.aggregate_region(&ds, &result.region);
        let d = agg.distance(&rep, &query.target, &query.weights, query.metric);
        assert!(
            (d - result.distance).abs() < 1e-9,
            "reported {} but recomputed {}",
            result.distance,
            d
        );
        // The query region itself is a candidate, so the optimum cannot be
        // worse than distance 0 achieved there... in fact it must be 0.
        assert!(result.distance <= 1e-9);
    }

    #[test]
    fn grid_granularity_does_not_change_the_answer() {
        let ds = UniformGenerator::default().generate(200, 17);
        let agg = CompositeAggregator::builder(ds.schema())
            .distribution("category", Selection::All)
            .build()
            .unwrap();
        let query = AsrsQuery::new(
            RegionSize::new(12.0, 9.0),
            FeatureVector::new(vec![3.0, 1.0, 0.0, 2.0]),
            Weights::uniform(4),
        );
        let coarse = search(
            &ds,
            &agg,
            SearchConfig::new().with_grid(5, 5).unwrap(),
            &query,
        )
        .unwrap()
        .distance;
        let default = search(&ds, &agg, SearchConfig::default(), &query)
            .unwrap()
            .distance;
        let fine = search(
            &ds,
            &agg,
            SearchConfig::new().with_grid(45, 45).unwrap(),
            &query,
        )
        .unwrap()
        .distance;
        assert!((coarse - default).abs() < 1e-9);
        assert!((fine - default).abs() < 1e-9);
    }

    #[test]
    fn approximate_search_respects_the_guarantee() {
        let ds = UniformGenerator::default().generate(400, 23);
        let agg = CompositeAggregator::builder(ds.schema())
            .distribution("category", Selection::All)
            .build()
            .unwrap();
        let query = AsrsQuery::new(
            RegionSize::new(10.0, 10.0),
            FeatureVector::new(vec![5.0, 5.0, 5.0, 5.0]),
            Weights::uniform(4),
        );
        let exact = search(&ds, &agg, SearchConfig::default(), &query).unwrap();
        for delta in [0.1, 0.3, 0.5] {
            let approx = approximate(&ds, &agg, SearchConfig::default(), &query, delta).unwrap();
            assert!(
                approx.distance <= (1.0 + delta) * exact.distance + 1e-9,
                "delta={delta}: {} > (1+δ)·{}",
                approx.distance,
                exact.distance
            );
            assert!(approx.distance + 1e-9 >= exact.distance);
        }
    }

    #[test]
    fn dimension_mismatch_is_an_error() {
        let ds = fig2_dataset();
        let agg = CompositeAggregator::builder(ds.schema())
            .distribution("color", Selection::All)
            .build()
            .unwrap();
        let query = AsrsQuery::new(
            RegionSize::new(1.0, 1.0),
            FeatureVector::new(vec![1.0]),
            Weights::uniform(1),
        );
        let err = search(&ds, &agg, SearchConfig::default(), &query).unwrap_err();
        assert!(matches!(
            err,
            AsrsError::Query(crate::QueryError::TargetDimensionMismatch {
                got: 1,
                expected: 2
            })
        ));
    }

    #[test]
    fn invalid_config_is_an_error_not_a_panic() {
        let ds = fig2_dataset();
        let agg = CompositeAggregator::builder(ds.schema())
            .distribution("color", Selection::All)
            .build()
            .unwrap();
        // The grid is checked once, where the engine is built.
        let config = SearchConfig {
            ncols: 0,
            ..SearchConfig::default()
        };
        let err = crate::AsrsEngine::builder(ds, agg)
            .config(config)
            .build()
            .unwrap_err();
        assert!(matches!(err, AsrsError::Config(_)));
    }

    #[test]
    fn top_k_distances_are_sorted_and_anchors_distinct() {
        let ds = UniformGenerator::default().generate(250, 31);
        let agg = CompositeAggregator::builder(ds.schema())
            .distribution("category", Selection::All)
            .build()
            .unwrap();
        let query = AsrsQuery::new(
            RegionSize::new(10.0, 10.0),
            FeatureVector::new(vec![2.0, 2.0, 2.0, 2.0]),
            Weights::uniform(4),
        );
        let top = search_top_k(&ds, &agg, SearchConfig::default(), &query, 5).unwrap();
        assert!(!top.is_empty() && top.len() <= 5);
        for pair in top.windows(2) {
            assert!(pair[0].distance <= pair[1].distance + 1e-12);
            assert_ne!(pair[0].anchor, pair[1].anchor);
        }
        // The top-1 equals the plain search optimum.
        let single = search(&ds, &agg, SearchConfig::default(), &query).unwrap();
        assert!((top[0].distance - single.distance).abs() < 1e-9);
        // Every reported entry is internally consistent.
        for r in &top {
            let rep = agg.aggregate_region(&ds, &r.region);
            let d = agg.distance(&rep, &query.target, &query.weights, query.metric);
            assert!((d - r.distance).abs() < 1e-9);
        }
        assert!(matches!(
            search_top_k(&ds, &agg, SearchConfig::default(), &query, 0),
            Err(AsrsError::InvalidTopK)
        ));
    }

    /// A clustered instance of 80 objects under the MaxRS count
    /// reduction (many tied candidates) or the F1 day-of-week
    /// distribution.
    fn clustered(seed: u64, max_rs: bool) -> (Dataset, CompositeAggregator, AsrsQuery) {
        let ds = asrs_data::gen::TweetGenerator::compact(5).generate(80, seed);
        let size = RegionSize::new(40.0 + 20.0 * (seed % 4) as f64, 60.0);
        if max_rs {
            let (agg, query) = crate::maxrs::reduction(&ds, size, &Selection::All).unwrap();
            return (ds, agg, query);
        }
        let agg = CompositeAggregator::builder(ds.schema())
            .distribution("day_of_week", Selection::All)
            .build()
            .unwrap();
        let query = AsrsQuery::new(
            size,
            FeatureVector::new(vec![1.0, 0.0, 1.0, 0.0, 1.0, 3.0, 3.0]),
            Weights::uniform(7),
        );
        (ds, agg, query)
    }

    /// The flat resolution that per-strip cuts and the strip bound
    /// replace: one probe per piece of the product of every crossing
    /// rectangle's x-cuts and y-cuts in each cell of `grid`, accumulated
    /// in candidate order like the kernel.  Returns the number of probes.
    fn resolve_flat(
        solver: &DsSearch<'_>,
        cells: &[DirtyCell],
        candidates: &[u32],
        grid: &GridEdges,
        best: &mut BestSet,
    ) -> u64 {
        let rects = solver.asp.rects();
        let query = solver.query;
        let mut probes = 0;
        for cell in cells {
            let rect = grid.cell_rect(cell.col, cell.row);
            let mut base = StatsAccumulator::new(solver.aggregator.stats_dim());
            let mut crossing = Vec::new();
            for &idx in candidates {
                let r = &rects[idx as usize].rect;
                if r.contains_rect(&rect) {
                    base.add_slice(solver.table.row(idx));
                } else if r.interiors_intersect(&rect) {
                    crossing.push(idx);
                }
            }
            let cuts = |lo: f64, hi: f64, edges: fn(&Rect) -> [f64; 2]| {
                let mut cuts = vec![lo, hi];
                cuts.extend(
                    crossing
                        .iter()
                        .flat_map(|&i| edges(&rects[i as usize].rect))
                        .filter(|&v| v > lo && v < hi),
                );
                cuts.sort_by(f64::total_cmp);
                cuts.dedup();
                cuts
            };
            let xs = cuts(rect.min_x, rect.max_x, |r| [r.min_x, r.max_x]);
            let ys = cuts(rect.min_y, rect.max_y, |r| [r.min_y, r.max_y]);
            for wx in xs.windows(2) {
                for wy in ys.windows(2) {
                    probes += 1;
                    let p = Point::new((wx[0] + wx[1]) / 2.0, (wy[0] + wy[1]) / 2.0);
                    let mut probe = base.clone();
                    for &idx in &crossing {
                        if rects[idx as usize].rect.strictly_contains_point(&p) {
                            probe.add_slice(solver.table.row(idx));
                        }
                    }
                    let features = solver.aggregator.stats_to_features(&probe.finish());
                    let distance = weighted_distance(
                        features.as_slice(),
                        &query.target,
                        &query.weights,
                        query.metric,
                    );
                    if distance <= best.cutoff() {
                        let window = Rect::new(wx[0], wy[0], wx[1], wy[1]);
                        best.offer_region(distance, &window, features);
                    }
                }
            }
        }
        probes
    }

    #[test]
    fn per_strip_cuts_resolve_like_the_flat_product_with_fewer_probes() {
        // Every retained dirty cell of the root grid, resolved by the
        // kernel and by the flat product from the same intermediate
        // result: the same retained set, from no more probes per instance.
        let config = SearchConfig::default();
        let (mut resolved, mut flat) = (0, 0);
        for seed in 1..=6 {
            for max_rs in [true, false] {
                let (ds, agg, query) = clustered(seed, max_rs);
                let (asp, table) = (
                    AspInstance::build(&ds, query.size),
                    Contributions::of(&ds, &agg),
                );
                let solver = DsSearch::new(&agg, &config, 0.0, &asp, &table, &query, None);
                let candidates = table.contributing(asp.all_rect_indices());
                for k in [1, 4] {
                    let mut best = BestSet::new(k, Arc::clone(asp.edges()));
                    solver.seed_empty_region(&mut best);
                    let mut scratch = solver.scratch();
                    let cells = discretize(
                        &asp.space().unwrap(),
                        &asp,
                        &table,
                        &candidates,
                        &agg,
                        &query,
                        &mut best,
                        1.0,
                        &mut scratch,
                    )
                    .retained_dirty;
                    let mut reference = best.clone();
                    let probes =
                        resolve_flat(&solver, &cells, &candidates, &scratch.edges, &mut reference);
                    let mut stats = SearchStats::new();
                    solver
                        .resolve_cells_exactly(
                            &cells,
                            &candidates,
                            &mut best,
                            &mut stats,
                            &mut scratch,
                        )
                        .unwrap();
                    let case = format!("seed {seed} max_rs {max_rs} k {k}");
                    assert!(
                        stats.fallback_points <= probes,
                        "{case}: {} probes against the flat {probes}",
                        stats.fallback_points
                    );
                    assert_eq!(best.into_entries(), reference.into_entries(), "{case}");
                    resolved += stats.fallback_points;
                    flat += probes;
                }
            }
        }
        // 8910 of 63364 when this was written.
        assert!(resolved * 2 < flat, "{resolved} of {flat}");
    }

    /// The paper's Tweet F1 (weekend-only day-of-week distribution) or
    /// POISyn F2 (sum of visits, average rating) instance of `n` objects,
    /// with a query of `units` × `q`, `q` a thousandth of the padded
    /// extent per axis (Section 7.1).
    fn paper_instance(
        poisyn: bool,
        n: usize,
        units: f64,
    ) -> (Dataset, CompositeAggregator, AsrsQuery) {
        use asrs_data::gen::{PoiSynGenerator, TweetGenerator};
        let ds = if poisyn {
            PoiSynGenerator::compact(24).generate(n, 42)
        } else {
            TweetGenerator::compact(24).generate(n, 42)
        };
        let bbox = ds.padded_bounding_box(1.0).unwrap();
        let size = RegionSize::new(bbox.width() / 1000.0, bbox.height() / 1000.0).scaled(units);
        let expected = n as f64 * (units * units / 1_000_000.0) * 30.0;
        let builder = CompositeAggregator::builder(ds.schema());
        let (agg, query) = if poisyn {
            let vmax = (expected * 250.0).max(500.0);
            let agg = builder
                .sum("visits", Selection::All)
                .average("rating", Selection::All)
                .build()
                .unwrap();
            let target = FeatureVector::new(vec![vmax, 10.0]);
            (
                agg,
                AsrsQuery::new(size, target, Weights::new(vec![1.0 / vmax, 0.1])),
            )
        } else {
            let t = (expected / 2.0).max(5.0);
            let agg = builder
                .distribution("day_of_week", Selection::All)
                .build()
                .unwrap();
            let target = FeatureVector::new(vec![0.0, 0.0, 0.0, 0.0, 0.0, t, t]);
            let weights = Weights::new(vec![0.2, 0.2, 0.2, 0.2, 0.2, 0.5, 0.5]);
            (agg, AsrsQuery::new(size, target, weights))
        };
        (ds, agg, query)
    }

    #[test]
    fn a_root_its_own_bound_settles_holds_nothing_a_grid_would_find() {
        // Tiles of the ASP space searched in row-major order, as a slab
        // plan hands the kernel its roots.  Every tile whose Equation-1
        // bound exceeds the cutoff at its turn is discretized anyway, from
        // a copy of the result set: the grid must prune every dirty cell
        // and leave the set as it was.  The kernel then settles that tile,
        // and only that tile, without a grid.
        let config = SearchConfig::default();
        let mut settled = 0;
        for poisyn in [false, true] {
            for units in [8.0, 24.0] {
                let (ds, agg, query) = paper_instance(poisyn, 2000, units);
                let locations = crate::asp::LocationIndex::of(&ds);
                let view = locations.view(query.size);
                let (asp, table) = AspInstance::with_contributions(&ds, &agg, view);
                let tiles = GridSpec::new(asp.space().unwrap(), 16, 16);
                for (delta, k) in [(0.0, 1), (0.25, 1), (0.0, 3)] {
                    let solver = DsSearch::new(&agg, &config, delta, &asp, &table, &query, None);
                    let mut best = BestSet::new(k, Arc::clone(asp.edges()));
                    solver.seed_empty_region(&mut best);
                    let (mut scratch, mut stats) = (solver.scratch(), SearchStats::new());
                    for cell in CellRange::new(0, 16, 0, 16).iter() {
                        let tile = tiles.cell_rect(cell.col, cell.row);
                        let candidates = table.contributing(view.reaching(&tile));
                        let bound = solver.bounds().space_bound(
                            &tile,
                            &candidates,
                            &mut scratch.bound,
                            &mut scratch.partial,
                        );
                        let bounded = bound > best.cutoff();
                        let case = format!("poisyn {poisyn} {units}q δ {delta} k {k} {tile:?}");
                        if bounded {
                            settled += 1;
                            let mut probe = best.clone();
                            let outcome = discretize(
                                &tile,
                                &asp,
                                &table,
                                &candidates,
                                &agg,
                                &query,
                                &mut probe,
                                solver.prune_factor,
                                &mut scratch,
                            );
                            assert!(outcome.retained_dirty.is_empty(), "{case}");
                            assert_eq!(probe.into_entries(), best.clone().into_entries(), "{case}");
                        }
                        let before = stats.clone();
                        solver
                            .search_space(tile, candidates, &mut best, &mut stats, &mut scratch)
                            .unwrap();
                        let grids = stats.spaces_processed - before.spaces_processed;
                        assert_eq!(
                            stats.spaces_bounded - before.spaces_bounded,
                            bounded as u64,
                            "{case}"
                        );
                        assert!(!bounded || grids == 0, "{case}");
                    }
                }
            }
        }
        assert!(settled > 0);
    }

    #[test]
    fn gi_ds_bounds_index_cells_and_saves_a_grid_for_each() {
        // GI-DS over a 32 × 32 index with the root bound and without it:
        // the same answer from the same index cells, and at least one
        // discretised space fewer for each root the bound settled.
        let config = SearchConfig::default();
        for poisyn in [false, true] {
            let (ds, agg, query) = paper_instance(poisyn, 3000, 16.0);
            let index = GridIndex::build(&ds, &agg, 32, 32).unwrap();
            let locations = crate::asp::LocationIndex::of(&ds);
            let view = locations.view(query.size);
            let (asp, table) = AspInstance::with_contributions(&ds, &agg, view);
            let run = |bound_roots: bool| {
                let mut solver = DsSearch::new(&agg, &config, 0.0, &asp, &table, &query, None);
                solver.bound_roots = bound_roots;
                let mut best = BestSet::new(1, Arc::clone(asp.edges()));
                solver.seed_empty_region(&mut best);
                let mut stats = SearchStats::new();
                crate::gi_ds::search_index_cells(&solver, view, &index, &mut best, &mut stats)
                    .unwrap();
                (best.into_entries(), stats)
            };
            let (answer, with) = run(true);
            let (unbounded_answer, without) = run(false);
            assert_eq!(answer, unbounded_answer, "poisyn {poisyn}");
            assert!(with.spaces_bounded > 0, "poisyn {poisyn}: {with:?}");
            assert_eq!(without.spaces_bounded, 0);
            assert_eq!(with.index_cells_searched, without.index_cells_searched);
            assert!(
                with.spaces_processed + with.spaces_bounded <= without.spaces_processed,
                "poisyn {poisyn}: {with:?} against {without:?}"
            );
            assert!(with.cells_examined < without.cells_examined);
        }
    }

    #[test]
    fn stats_are_populated() {
        let ds = UniformGenerator::default().generate(150, 4);
        let agg = CompositeAggregator::builder(ds.schema())
            .distribution("category", Selection::All)
            .build()
            .unwrap();
        let query = AsrsQuery::new(
            RegionSize::new(8.0, 8.0),
            FeatureVector::new(vec![2.0, 2.0, 2.0, 2.0]),
            Weights::uniform(4),
        );
        let (_, s) = search_with_stats(&ds, &agg, &query);
        assert_eq!(s.rectangles, 150);
        assert!(s.spaces_processed >= 1);
        assert!(s.cells_examined >= 900);
        assert_eq!(s.clean_cells + s.dirty_cells, s.cells_examined);
        assert!(s.elapsed.as_nanos() > 0);
    }
}
