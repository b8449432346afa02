//! Function `Discretize` (Section 4.3).
//!
//! The space under consideration is discretised into an `n_col × n_row`
//! grid.  Cells are classified into *clean* cells (no rectangle partially
//! covers them — every point of the cell is covered by exactly the same set
//! of rectangles) and *dirty* cells.  Clean cells are evaluated exactly and
//! refine the intermediate result; dirty cells get an Equation-1 distance
//! lower bound and are pruned when the bound cannot beat the intermediate
//! result.
//!
//! The per-cell statistics are accumulated with 2-D difference arrays: each
//! rectangle adds its additive statistics contribution over the range of
//! cells it overlaps (upper accumulator) and over the range it fully covers
//! (lower accumulator) in O(1) array updates; a single prefix-sum pass then
//! materialises per-cell statistics.
//!
//! # Cost per sub-space
//!
//! A search computes every rectangle's statistics row once, when it builds
//! the ASP instance ([`Contributions`]); `Discretize` reads those rows and
//! never decodes an object.  Cell ranges come from the grid's edge table
//! ([`GridEdges`]), and cell evaluation writes into the search's
//! [`Scratch`] buffers, allocating only for the candidates it offers to
//! the result set.  One invocation over `m` candidate rectangles therefore
//! costs `O(m · d)` for the difference-array updates, one fused
//! `O(n_col · n_row · d)` prefix pass and `O(n_col · n_row · d)` for the
//! cell evaluations — the `O(n + n_col · n_row · d)` of the paper's
//! Lemma 6, with no per-cell allocation on top.
//!
//! Dirty cells that are resolved exactly rather than split cost on top of
//! that one probe per piece of their covering arrangement, and no more:
//! the kernel cuts a cell into x-strips at its crossing rectangles'
//! x-edges, skips a strip whose Equation-1 bound exceeds the cutoff, and
//! cuts each remaining strip only at the y-edges of the rectangles active
//! in it.  A cell crossed by `c` rectangles thus costs at most
//! `(2c + 1)²` probes, and usually far fewer: the flat product of every
//! crossing rectangle's cuts is never enumerated.

use crate::asp::{AspInstance, Contributions};
use crate::best::BestSet;
use crate::query::AsrsQuery;
use asrs_aggregator::{
    distance_lower_bound, weighted_distance, CompositeAggregator, FeatureVector, StatsAccumulator,
};
use asrs_geo::{GridEdges, GridSpec, Rect};

/// A dirty cell retained for further splitting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct DirtyCell {
    /// Column of the cell in the discretisation grid.
    pub col: usize,
    /// Row of the cell in the discretisation grid.
    pub row: usize,
    /// Equation-1 lower bound on the distance of any point in the cell.
    pub lb: f64,
    /// Number of rectangles that partially cover the cell.
    pub partials: u32,
}

/// Outcome of one `Discretize` invocation.  Clean-cell candidates are
/// offered directly to the caller's [`BestSet`] rather than returned.
#[derive(Debug, Clone)]
pub(crate) struct DiscretizeOutcome {
    /// The grid that was laid over the space.
    pub grid: GridSpec,
    /// Dirty cells whose lower bound is below the pruning threshold, in
    /// row-major order.
    pub retained_dirty: Vec<DirtyCell>,
    /// Number of clean cells.
    pub clean_cells: u64,
    /// Number of dirty cells.
    pub dirty_cells: u64,
    /// Number of dirty cells pruned by the lower bound.
    pub pruned_dirty: u64,
}

/// A pair of 2-D difference arrays (lower = fully-covering contributions,
/// upper = fully-or-partially-covering contributions) plus a partial-cover
/// counter, all over an `(cols + 1) × (rows + 1)` corner lattice.
struct DiffArrays {
    cols: usize,
    rows: usize,
    dims: usize,
    lower: Vec<f64>,
    upper: Vec<f64>,
    partial: Vec<f64>,
}

impl DiffArrays {
    fn new(cols: usize, rows: usize, dims: usize) -> Self {
        let n = (cols + 1) * (rows + 1);
        Self {
            cols,
            rows,
            dims,
            lower: vec![0.0; n * dims],
            upper: vec![0.0; n * dims],
            partial: vec![0.0; n],
        }
    }

    fn clear(&mut self) {
        self.lower.fill(0.0);
        self.upper.fill(0.0);
        self.partial.fill(0.0);
    }

    #[inline]
    fn corner(&self, col: usize, row: usize) -> usize {
        row * (self.cols + 1) + col
    }

    /// Adds `contrib` over the half-open cell range to a stats array.
    #[allow(clippy::too_many_arguments)]
    fn add_range_stats(
        arr: &mut [f64],
        dims: usize,
        cols: usize,
        contrib: &[f64],
        c0: usize,
        c1: usize,
        r0: usize,
        r1: usize,
    ) {
        let corner = |col: usize, row: usize| (row * (cols + 1) + col) * dims;
        for (k, v) in contrib.iter().enumerate() {
            if *v == 0.0 {
                continue;
            }
            arr[corner(c0, r0) + k] += v;
            arr[corner(c1, r0) + k] -= v;
            arr[corner(c0, r1) + k] -= v;
            arr[corner(c1, r1) + k] += v;
        }
    }

    /// Adds a scalar over the half-open cell range to the partial counter.
    fn add_range_partial(&mut self, value: f64, c0: usize, c1: usize, r0: usize, r1: usize) {
        let i00 = self.corner(c0, r0);
        let i10 = self.corner(c1, r0);
        let i01 = self.corner(c0, r1);
        let i11 = self.corner(c1, r1);
        self.partial[i00] += value;
        self.partial[i10] -= value;
        self.partial[i01] -= value;
        self.partial[i11] += value;
    }

    /// Turns the difference arrays into per-cell values via 2-D prefix
    /// sums, one lattice row at a time: the row's prefix along the columns,
    /// then the finished row below added in.  Every element sees the same
    /// operands in the same order as a full column pass followed by a full
    /// row pass, so the sums are bit-identical to that two-pass form.
    fn materialize(&mut self) {
        let width = self.cols + 1;
        let dims = self.dims;
        for row in 0..=self.rows {
            for (arr, stride) in [
                (&mut self.lower, dims),
                (&mut self.upper, dims),
                (&mut self.partial, 1),
            ] {
                let line = row * width * stride;
                for i in line + stride..line + width * stride {
                    arr[i] += arr[i - stride];
                }
                if row > 0 {
                    for i in line..line + width * stride {
                        arr[i] += arr[i - width * stride];
                    }
                }
            }
        }
    }

    #[inline]
    fn cell_stats<'s>(&'s self, arr: &'s [f64], col: usize, row: usize) -> &'s [f64] {
        let idx = (row * (self.cols + 1) + col) * self.dims;
        &arr[idx..idx + self.dims]
    }

    #[inline]
    fn cell_partial(&self, col: usize, row: usize) -> f64 {
        self.partial[row * (self.cols + 1) + col]
    }
}

/// The reusable buffers of one search: the difference arrays and edge
/// table of `Discretize`, the feature buffers of cell evaluation, and the
/// per-cell candidate lists and accumulators of exact resolution.  One set
/// serves every sub-space of a search, so the kernel allocates only for
/// candidates it offers.
pub(crate) struct Scratch {
    arrays: DiffArrays,
    /// The edge table of the most recently discretised grid.
    pub edges: GridEdges,
    /// Feature vector of the cell or probe under evaluation.
    pub features: Vec<f64>,
    /// The sums and feature bounds of the Equation-1 bound under
    /// evaluation: a dirty cell's, a resolve strip's or a whole space's.
    pub bound: BoundSums,
    /// Candidate list of each cell under exact resolution.
    pub lists: Vec<Vec<u32>>,
    /// Rectangles crossing the resolved cell or bounded space.
    pub partial: Vec<u32>,
    /// Crossing rectangles covering the current probe column.
    pub active: Vec<u32>,
    /// Strip cuts of the resolved cell.
    pub xs: Vec<f64>,
    /// Window cuts of the current strip.
    pub ys: Vec<f64>,
    /// Contributions of the current probe.
    pub probe: StatsAccumulator,
    /// Statistics of the current probe.
    pub probe_stats: Vec<f64>,
}

/// The buffers of one Equation-1 bound over compensated sums
/// ([`DsSearch::bound_with`](crate::ds_search::DsSearch)): the rectangles
/// every covering under the bound holds, those plus the ones it may hold,
/// and the feature bounds between the two.
pub(crate) struct BoundSums {
    /// Contributions every covering holds; exact resolution also starts
    /// each probe of a cell from them.
    pub base: StatsAccumulator,
    /// Statistics of [`BoundSums::base`].
    pub base_stats: Vec<f64>,
    /// [`BoundSums::base`] plus every contribution a covering may hold.
    pub upper: StatsAccumulator,
    /// Statistics of [`BoundSums::upper`].
    pub upper_stats: Vec<f64>,
    /// Lower feature bounds.
    pub lo: Vec<f64>,
    /// Upper feature bounds.
    pub hi: Vec<f64>,
}

impl BoundSums {
    /// Buffers for bounds under `aggregator`.
    pub(crate) fn new(aggregator: &CompositeAggregator) -> Self {
        let dims = aggregator.stats_dim();
        let features = aggregator.feature_dim();
        Self {
            base: StatsAccumulator::new(dims),
            base_stats: vec![0.0; dims],
            upper: StatsAccumulator::new(dims),
            upper_stats: vec![0.0; dims],
            lo: vec![0.0; features],
            hi: vec![0.0; features],
        }
    }
}

impl Scratch {
    /// Buffers for `ncols × nrows` grids under `aggregator`.
    pub(crate) fn new(aggregator: &CompositeAggregator, ncols: usize, nrows: usize) -> Self {
        let dims = aggregator.stats_dim();
        let features = aggregator.feature_dim();
        let unit = Rect::new(0.0, 0.0, 1.0, 1.0);
        Self {
            arrays: DiffArrays::new(ncols, nrows, dims),
            edges: GridEdges::new(GridSpec::new(unit, ncols, nrows)),
            features: vec![0.0; features],
            bound: BoundSums::new(aggregator),
            lists: Vec::new(),
            partial: Vec::new(),
            active: Vec::new(),
            xs: Vec::new(),
            ys: Vec::new(),
            probe: StatsAccumulator::new(dims),
            probe_stats: vec![0.0; dims],
        }
    }
}

/// Runs Function `Discretize` over `space` with the grid shape `scratch`
/// was sized for.
///
/// `candidates` are the indices of the ASP rectangles that overlap `space`,
/// whose statistics rows `table` holds; `best` is the caller's intermediate
/// result (its cutoff generalises the paper's `d_opt` to the k-best
/// setting), and `prune_factor` is `1 + δ` (1 for the exact algorithm).
/// Clean cells that improve on the cutoff are offered to `best` in place.
/// On return `scratch.edges` describes the grid laid over `space`.
///
/// Dirty cells whose lower bound *equals* the pruning threshold are
/// retained: they cannot improve the best distance, but they can hold an
/// equally-optimal candidate that wins the anchor tie-break, and which
/// tied candidates get discovered must not depend on the decomposition.
#[allow(clippy::too_many_arguments)]
pub(crate) fn discretize(
    space: &Rect,
    asp: &AspInstance,
    table: &Contributions,
    candidates: &[u32],
    aggregator: &CompositeAggregator,
    query: &AsrsQuery,
    best: &mut BestSet,
    prune_factor: f64,
    scratch: &mut Scratch,
) -> DiscretizeOutcome {
    let Scratch {
        arrays,
        edges,
        features,
        bound: BoundSums { lo, hi, .. },
        ..
    } = scratch;
    let (ncols, nrows, dims) = (arrays.cols, arrays.rows, arrays.dims);
    let grid = GridSpec::new(*space, ncols, nrows);
    edges.reset(grid.clone());
    arrays.clear();

    for &idx in candidates {
        let rect = &asp.rects()[idx as usize].rect;
        let overlap = edges.cells_overlapping(rect);
        if overlap.is_empty() {
            continue;
        }
        let contrib = table.row(idx);
        DiffArrays::add_range_stats(
            &mut arrays.upper,
            dims,
            ncols,
            contrib,
            overlap.col_start,
            overlap.col_end,
            overlap.row_start,
            overlap.row_end,
        );
        arrays.add_range_partial(
            1.0,
            overlap.col_start,
            overlap.col_end,
            overlap.row_start,
            overlap.row_end,
        );
        let full = edges.cells_contained(rect);
        if !full.is_empty() {
            DiffArrays::add_range_stats(
                &mut arrays.lower,
                dims,
                ncols,
                contrib,
                full.col_start,
                full.col_end,
                full.row_start,
                full.row_end,
            );
            arrays.add_range_partial(
                -1.0,
                full.col_start,
                full.col_end,
                full.row_start,
                full.row_end,
            );
        }
    }

    arrays.materialize();

    let mut clean_cells = 0u64;
    let mut dirty_cells = 0u64;
    let mut pruned_dirty = 0u64;
    let mut provisional_dirty: Vec<DirtyCell> = Vec::new();

    // First pass: clean cells refine the intermediate result.
    for row in 0..nrows {
        for col in 0..ncols {
            let partial = arrays.cell_partial(col, row);
            if partial < 0.5 {
                clean_cells += 1;
                let stats = arrays.cell_stats(&arrays.upper, col, row);
                aggregator.stats_to_features_into(stats, features);
                let distance =
                    weighted_distance(features, &query.target, &query.weights, query.metric);
                if distance <= best.cutoff() {
                    best.offer_region(
                        distance,
                        &edges.cell_rect(col, row),
                        FeatureVector::new(features.clone()),
                    );
                }
            } else {
                dirty_cells += 1;
                let lower = arrays.cell_stats(&arrays.lower, col, row);
                let upper = arrays.cell_stats(&arrays.upper, col, row);
                aggregator.feature_bounds_into(lower, upper, lo, hi);
                let lb = distance_lower_bound(&query.target, lo, hi, &query.weights, query.metric);
                provisional_dirty.push(DirtyCell {
                    col,
                    row,
                    lb,
                    partials: partial.round() as u32,
                });
            }
        }
    }

    // Second pass: prune dirty cells against the (possibly improved)
    // cutoff, divided by (1 + δ) for the approximate variant.
    let threshold = best.cutoff() / prune_factor;
    let mut retained_dirty = Vec::with_capacity(provisional_dirty.len());
    for cell in provisional_dirty {
        if cell.lb <= threshold {
            retained_dirty.push(cell);
        } else {
            pruned_dirty += 1;
        }
    }

    DiscretizeOutcome {
        grid,
        retained_dirty,
        clean_cells,
        dirty_cells,
        pruned_dirty,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::AsrsQuery;
    use asrs_aggregator::{CompositeAggregator, FeatureVector, Selection, Weights};
    use asrs_data::{AttrValue, AttributeDef, AttributeKind, Dataset, DatasetBuilder, Schema};
    use asrs_geo::{Point, RegionSize};
    use std::sync::Arc;

    /// Mirrors the reduction example of Fig. 2: six objects coloured red or
    /// blue; the query representation is (#red, #blue) = (1, 1).
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

    struct Fixture {
        ds: Dataset,
        agg: CompositeAggregator,
        query: AsrsQuery,
        asp: AspInstance,
        table: Contributions,
    }

    fn setup() -> Fixture {
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
        let (asp, table) = (
            AspInstance::build(&ds, query.size),
            Contributions::of(&ds, &agg),
        );
        Fixture {
            ds,
            agg,
            query,
            asp,
            table,
        }
    }

    impl Fixture {
        /// An empty one-entry result set snapping to this instance's
        /// arrangement.
        fn best_set(&self) -> BestSet {
            BestSet::new(1, Arc::clone(self.asp.edges()))
        }

        /// Discretises the whole instance space on an `n × n` grid.
        fn run(
            &self,
            n: usize,
            candidates: &[u32],
            best: &mut BestSet,
            prune_factor: f64,
        ) -> DiscretizeOutcome {
            discretize(
                &self.asp.space().unwrap(),
                &self.asp,
                &self.table,
                candidates,
                &self.agg,
                &self.query,
                best,
                prune_factor,
                &mut Scratch::new(&self.agg, n, n),
            )
        }
    }

    #[test]
    fn clean_and_dirty_cells_partition_the_grid() {
        let f = setup();
        let mut best = f.best_set();
        let out = f.run(10, &f.asp.all_rect_indices(), &mut best, 1.0);
        assert_eq!(out.clean_cells + out.dirty_cells, 100);
        assert!(out.dirty_cells > 0, "rect edges must cross some cells");
        assert!(out.clean_cells > 0);
        assert_eq!(
            out.retained_dirty.len() as u64 + out.pruned_dirty,
            out.dirty_cells
        );
    }

    #[test]
    fn clean_cell_distances_match_direct_evaluation() {
        let f = setup();
        let Fixture { ds, agg, query, .. } = &f;
        let mut best = f.best_set();
        f.run(8, &f.asp.all_rect_indices(), &mut best, 1.0);
        // The best candidate's representation must equal the representation
        // computed directly from the objects inside the anchored region.
        assert!(
            best.cutoff().is_finite(),
            "some clean cell improves on +inf"
        );
        let entry = best.best().clone();
        let region = Rect::from_bottom_left(entry.anchor, query.size);
        let direct = agg.aggregate_region(ds, &region);
        assert_eq!(entry.representation, direct);
        let d = agg.distance(&direct, &query.target, &query.weights, query.metric);
        assert!((d - entry.distance).abs() < 1e-9);
    }

    #[test]
    fn dirty_cell_bounds_are_sound() {
        // For every retained dirty cell, the lower bound must not exceed the
        // true distance of any probe point inside the cell.
        let f = setup();
        let Fixture {
            ds,
            agg,
            query,
            asp,
            ..
        } = &f;
        let mut best = f.best_set();
        let out = f.run(10, &f.asp.all_rect_indices(), &mut best, 1.0);
        let candidates = asp.all_rect_indices();
        for cell in &out.retained_dirty {
            let rect = out.grid.cell_rect(cell.col, cell.row);
            for (fx, fy) in [(0.25, 0.25), (0.5, 0.5), (0.75, 0.75), (0.1, 0.9)] {
                let p = Point::new(
                    rect.min_x + fx * rect.width(),
                    rect.min_y + fy * rect.height(),
                );
                let objs = asp.objects_covering(&p, &candidates);
                let rep = agg.aggregate(objs.iter().map(|&i| ds.object(i as usize)));
                let d = agg.distance(&rep, &query.target, &query.weights, query.metric);
                assert!(
                    cell.lb <= d + 1e-9,
                    "lb {} exceeds distance {} at {p} in cell ({}, {})",
                    cell.lb,
                    d,
                    cell.col,
                    cell.row
                );
            }
        }
    }

    #[test]
    fn pruning_respects_current_best() {
        let f = setup();
        // With an already-perfect best distance of 0, every dirty cell whose
        // lower bound is 0 is retained (it may hold a tied candidate) and
        // everything else pruned.
        let mut best = f.best_set();
        let seed = Point::new(-100.0, -100.0);
        best.offer(0.0, seed, FeatureVector::new(vec![1.0, 1.0]));
        let out = f.run(10, &f.asp.all_rect_indices(), &mut best, 1.0);
        assert!(out.retained_dirty.iter().all(|c| c.lb <= 0.0));
        assert!(out.pruned_dirty > 0);
        assert_eq!(
            out.retained_dirty.len() as u64 + out.pruned_dirty,
            out.dirty_cells
        );
        assert_eq!(
            best.best().anchor,
            f.asp.edges().snap(seed),
            "nothing can improve on a best of 0 below every edge"
        );
    }

    #[test]
    fn approximation_factor_tightens_retention() {
        let f = setup();
        let exact = f.run(10, &f.asp.all_rect_indices(), &mut f.best_set(), 1.0);
        let approx = f.run(10, &f.asp.all_rect_indices(), &mut f.best_set(), 1.4);
        assert!(approx.retained_dirty.len() <= exact.retained_dirty.len());
    }

    #[test]
    fn empty_candidate_set_yields_all_clean_cells() {
        let f = setup();
        let mut best = f.best_set();
        let out = f.run(5, &[], &mut best, 1.0);
        assert_eq!(out.clean_cells, 25);
        assert_eq!(out.dirty_cells, 0);
        // All cells are empty ⇒ representation (0, 0) ⇒ distance 2.
        assert!((best.best().distance - 2.0).abs() < 1e-9);
    }
}
