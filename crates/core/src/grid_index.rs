//! The grid index with attribute summary tables (Section 5.2).
//!
//! The index is a query-independent `s_x × s_y` grid over the dataset.  The
//! paper attaches to each cell an *attribute summary table* counting, for
//! every attribute value, the objects located in the cells above and to the
//! right of it (`G[∞/i][∞/j]`); Lemma 8 then recovers the counts of any
//! rectangular block of cells by inclusion–exclusion.
//!
//! This implementation generalises the summary tables from per-category
//! counts to whole *statistics vectors* of the composite aggregator (which
//! subsume the per-category counts and additionally carry the sums/counts
//! needed by the sum and average aggregators), so a single index supports
//! every aggregator the paper defines.

use crate::error::{AsrsError, ConfigError};
use asrs_aggregator::CompositeAggregator;
use asrs_data::{Dataset, SpatialObject};
use asrs_geo::{GridSpec, Rect};

/// The `cols × rows` grid an index over `dataset` lays: the dataset's
/// bounding box padded by half its larger extent on a degenerate axis (1.0
/// for a single point), split into equal cells.  The one geometry rule
/// [`GridIndex::build`], [`GridIndex::space_matches`] and the planner's
/// index statistics share.
///
/// Degenerate (collinear) axes are padded *relative* to the dataset extent
/// so the grid stays dense with real cells: an absolute pad turned
/// micro-extent datasets — e.g. a lat/lon neighbourhood spanning ~0.01° —
/// into grids that were almost entirely dead padding.  The absolute
/// fallback only applies to single-point datasets, which have no extent to
/// scale from.
///
/// # Errors
///
/// [`AsrsError::Config`] when a side of the grid is zero;
/// [`AsrsError::EmptyDataset`] when the dataset has no object to index.
pub(crate) fn index_grid(
    dataset: &Dataset,
    cols: usize,
    rows: usize,
) -> Result<GridSpec, AsrsError> {
    check_granularity(cols, rows)?;
    let space = index_space(dataset).ok_or(AsrsError::EmptyDataset)?;
    Ok(GridSpec::new(space, cols, rows))
}

/// Refuses a granularity no index can be laid at: a zero side.
pub(crate) fn check_granularity(cols: usize, rows: usize) -> Result<(), AsrsError> {
    if cols == 0 || rows == 0 {
        return Err(ConfigError::InvalidIndexGranularity { cols, rows }.into());
    }
    Ok(())
}

/// The area an index over `dataset` covers (see [`index_grid`]); `None`
/// for an empty dataset.
fn index_space(dataset: &Dataset) -> Option<Rect> {
    dataset.relative_padded_bounding_box(0.5, 1.0)
}

/// The grid index: suffix-cumulative statistics vectors over an
/// `s_x × s_y` grid.
///
/// # Incremental maintenance
///
/// Besides the one-shot [`GridIndex::build`], the index supports
/// *incremental* maintenance under dataset mutations:
/// [`GridIndex::update_append`] folds one appended object into its cell and
/// [`GridIndex::update_remove`] re-derives the removed object's cell from
/// the surviving objects.  Both then refresh the suffix tables with the
/// same deterministic sweep `build` runs, so an incrementally maintained
/// index is **bit-identical** to one rebuilt from scratch over the mutated
/// dataset — provided the grid geometry still matches
/// ([`GridIndex::space_matches`]); when a mutation moves the dataset's
/// padded bounding box, callers must rebuild instead (the generational
/// engine in [`engine`](crate::AsrsEngine) does exactly that).
///
/// The bit-identity argument: per cell, `build` accumulates object
/// contributions in dataset order.  An appended object is last in dataset
/// order, so adding its contribution to the existing cell sums reproduces
/// the rebuild's addition order; a removal re-accumulates the affected cell
/// from the surviving objects in dataset order, which *is* the rebuild's
/// order.  The suffix sweep is a pure function of the per-cell table, so
/// identical cells imply identical suffix tables.
#[derive(Debug, Clone)]
pub struct GridIndex {
    spec: GridSpec,
    stats_dim: usize,
    /// Per-cell statistics: entry `(i, j)` holds the statistics of the
    /// objects located in cell `(i, j)`; the last row/column (the lattice
    /// padding) is identically zero.  This is the table incremental
    /// maintenance edits; `suffix` is derived from it.
    base: Vec<f64>,
    /// Suffix sums: entry `(i, j)` (with `i ∈ 0..=cols`, `j ∈ 0..=rows`)
    /// holds the statistics of all objects located in cells
    /// `[i.., j..)`; the last row/column is identically zero.
    suffix: Vec<f64>,
    objects_indexed: usize,
}

impl GridIndex {
    /// Builds the index for `dataset` and `aggregator` with an
    /// `cols × rows` grid.
    ///
    /// # Errors
    ///
    /// [`AsrsError::Config`] when a side of the grid is zero;
    /// [`AsrsError::EmptyDataset`] when the dataset has no object to index.
    pub fn build(
        dataset: &Dataset,
        aggregator: &CompositeAggregator,
        cols: usize,
        rows: usize,
    ) -> Result<Self, AsrsError> {
        let spec = index_grid(dataset, cols, rows)?;
        let dims = aggregator.stats_dim();
        let width = cols + 1;
        let mut index = Self {
            spec,
            stats_dim: dims,
            suffix: vec![0.0; width * (rows + 1) * dims],
            base: vec![0.0; width * (rows + 1) * dims],
            objects_indexed: dataset.len(),
        };
        // Per-cell accumulation, in dataset order (the order incremental
        // maintenance reproduces — see the type-level documentation).
        let mut contrib = vec![0.0; dims];
        for o in dataset.objects() {
            index.add_to_cell(index.slot_of(o), o, aggregator, &mut contrib);
        }
        index.recompute_suffix();
        Ok(index)
    }

    /// The row-major slot of the cell `object` is located in.
    fn slot_of(&self, object: &SpatialObject) -> usize {
        let cell = self.spec.clamped_cell_of_point(&object.location);
        cell.row * (self.spec.cols() + 1) + cell.col
    }

    /// Adds `object`'s statistics to the per-cell table at `slot`;
    /// `contrib` is a `stats_dim`-long buffer.
    fn add_to_cell(
        &mut self,
        slot: usize,
        object: &SpatialObject,
        aggregator: &CompositeAggregator,
        contrib: &mut [f64],
    ) {
        contrib.iter_mut().for_each(|v| *v = 0.0);
        aggregator.accumulate_object(object, contrib);
        let at = slot * self.stats_dim;
        for (cell, v) in self.base[at..at + self.stats_dim]
            .iter_mut()
            .zip(contrib.iter())
        {
            *cell += v;
        }
    }

    /// Refreshes the suffix tables from the per-cell table: suffix sums
    /// along columns (right to left) then rows (top to bottom),
    /// `S[i][j] = cell[i][j] + S[i+1][j] + S[i][j+1] − S[i+1][j+1]`.
    /// Deterministic in the per-cell table alone, which is what makes
    /// incrementally maintained and freshly built indexes bit-identical.
    fn recompute_suffix(&mut self) {
        let cols = self.spec.cols();
        let rows = self.spec.rows();
        let dims = self.stats_dim;
        let width = cols + 1;
        self.suffix.copy_from_slice(&self.base);
        for row in (0..rows).rev() {
            for col in (0..cols).rev() {
                let cur = (row * width + col) * dims;
                let right = (row * width + col + 1) * dims;
                let up = ((row + 1) * width + col) * dims;
                let diag = ((row + 1) * width + col + 1) * dims;
                for k in 0..dims {
                    self.suffix[cur + k] +=
                        self.suffix[right + k] + self.suffix[up + k] - self.suffix[diag + k];
                }
            }
        }
    }

    /// Whether the grid geometry this index was built over still matches
    /// `dataset` — i.e. a fresh [`GridIndex::build`] over `dataset` would
    /// lay the identical grid.  When this returns `false` after a mutation
    /// (an append outside the padded bounding box, or a removal that shrank
    /// it), incremental maintenance would diverge from a rebuild and the
    /// caller must rebuild instead.
    pub fn space_matches(&self, dataset: &Dataset) -> bool {
        index_space(dataset).as_ref() == Some(self.spec.space())
    }

    /// Incrementally folds one appended object into the index.
    ///
    /// The object must already be part of the dataset the index describes
    /// (appended at the tail), and the grid geometry must still match
    /// ([`GridIndex::space_matches`]); under those conditions the updated
    /// index is bit-identical to a fresh build over the mutated dataset.
    /// Cost: one cell update plus the `O(cols · rows · dims)` suffix sweep
    /// — independent of the dataset size.
    pub fn update_append(&mut self, object: &SpatialObject, aggregator: &CompositeAggregator) {
        debug_assert_eq!(aggregator.stats_dim(), self.stats_dim);
        let mut contrib = vec![0.0; self.stats_dim];
        self.add_to_cell(self.slot_of(object), object, aggregator, &mut contrib);
        self.objects_indexed += 1;
        self.recompute_suffix();
    }

    /// Incrementally removes one object from the index.
    ///
    /// `removed` is the object that was taken out and `dataset` the
    /// dataset *after* the removal; the removed object's cell is
    /// re-accumulated from the surviving objects located in it, in one
    /// pass over `dataset` in dataset order (exactly the additions a
    /// rebuild would run — floating-point subtraction cannot undo an
    /// addition bit-exactly, so the cell is re-derived rather than
    /// decremented).  The grid geometry must still match
    /// ([`GridIndex::space_matches`]).  Cost: `O(n)` location tests, the
    /// statistics of the cell's survivors, and the suffix sweep.
    pub fn update_remove(
        &mut self,
        removed: &SpatialObject,
        dataset: &Dataset,
        aggregator: &CompositeAggregator,
    ) {
        debug_assert_eq!(aggregator.stats_dim(), self.stats_dim);
        let slot = self.slot_of(removed);
        let at = slot * self.stats_dim;
        self.base[at..at + self.stats_dim]
            .iter_mut()
            .for_each(|v| *v = 0.0);
        let mut contrib = vec![0.0; self.stats_dim];
        for o in dataset.objects() {
            if self.slot_of(o) == slot {
                self.add_to_cell(slot, o, aggregator, &mut contrib);
            }
        }
        self.objects_indexed = self.objects_indexed.saturating_sub(1);
        self.recompute_suffix();
    }

    /// The per-cell statistics table, for persistence.
    ///
    /// Together with the grid specification, the statistics dimensionality
    /// and the object count, this table fully determines the index: the
    /// suffix tables are a deterministic pure function of it, recomputed by
    /// [`GridIndex::from_base_table`].  Persisting only the base table
    /// halves the on-disk footprint while keeping the restored index
    /// bit-identical to the original.
    pub fn base_table(&self) -> &[f64] {
        &self.base
    }

    /// Reassembles an index from its persisted parts, recomputing the
    /// suffix tables with the same deterministic sweep [`GridIndex::build`]
    /// runs — the result is bit-identical to the index the base table was
    /// taken from.
    ///
    /// # Errors
    ///
    /// [`AsrsError::Persistence`] when the table length does not match the
    /// grid geometry times the statistics dimensionality.
    pub fn from_base_table(
        spec: GridSpec,
        stats_dim: usize,
        objects_indexed: usize,
        base: Vec<f64>,
    ) -> Result<Self, AsrsError> {
        let expected = (spec.cols() + 1) * (spec.rows() + 1) * stats_dim;
        if base.len() != expected {
            return Err(AsrsError::Persistence {
                message: format!(
                    "index base table has {} entries, grid {}x{} with {} stats dims needs {}",
                    base.len(),
                    spec.cols(),
                    spec.rows(),
                    stats_dim,
                    expected
                ),
            });
        }
        let mut index = Self {
            spec,
            stats_dim,
            suffix: vec![0.0; base.len()],
            base,
            objects_indexed,
        };
        index.recompute_suffix();
        Ok(index)
    }

    /// The derived suffix table, for invariant auditing: the auditor
    /// re-sweeps the base table and compares against this, bitwise.
    pub(crate) fn suffix_table(&self) -> &[f64] {
        &self.suffix
    }

    /// Test-only corruption hook for the auditor's negative tests.
    #[cfg(test)]
    pub(crate) fn corrupt_suffix_for_test(&mut self, at: usize, delta: f64) {
        self.suffix[at] += delta;
    }

    /// The geometric grid specification of the index.
    pub fn spec(&self) -> &GridSpec {
        &self.spec
    }

    /// Grid granularity `(cols, rows)`.
    pub fn granularity(&self) -> (usize, usize) {
        (self.spec.cols(), self.spec.rows())
    }

    /// Dimensionality of the statistics vectors stored per cell.
    pub fn stats_dim(&self) -> usize {
        self.stats_dim
    }

    /// Number of objects summarised by the index.
    pub fn objects_indexed(&self) -> usize {
        self.objects_indexed
    }

    /// Approximate memory footprint of the index in bytes (the paper's
    /// Table 1 "index size" column).
    pub fn memory_bytes(&self) -> usize {
        (self.suffix.len() + self.base.len()) * std::mem::size_of::<f64>()
            + std::mem::size_of::<Self>()
    }

    #[inline]
    fn suffix_at(&self, col: usize, row: usize) -> &[f64] {
        let width = self.spec.cols() + 1;
        let base = (row * width + col) * self.stats_dim;
        &self.suffix[base..base + self.stats_dim]
    }

    /// Statistics of the objects located in the half-open block of cells
    /// `[col_start, col_end) × [row_start, row_end)`, by inclusion–exclusion
    /// over the suffix sums (Lemma 8).
    pub fn range_stats(
        &self,
        col_start: usize,
        col_end: usize,
        row_start: usize,
        row_end: usize,
    ) -> Vec<f64> {
        let cols = self.spec.cols();
        let rows = self.spec.rows();
        let c0 = col_start.min(cols);
        let c1 = col_end.min(cols);
        let r0 = row_start.min(rows);
        let r1 = row_end.min(rows);
        let mut out = vec![0.0; self.stats_dim];
        if c0 >= c1 || r0 >= r1 {
            return out;
        }
        let a = self.suffix_at(c0, r0);
        let b = self.suffix_at(c1, r0);
        let c = self.suffix_at(c0, r1);
        let d = self.suffix_at(c1, r1);
        for k in 0..self.stats_dim {
            // Clamp tiny negative values produced by floating-point
            // cancellation back to zero; statistics are sums of
            // non-negative or sign-separated contributions per slot.
            out[k] = a[k] - b[k] - c[k] + d[k];
        }
        out
    }

    /// Statistics of objects in cells entirely contained in `region`
    /// (a *lower* statistics vector for any candidate region containing
    /// `region`).
    pub fn stats_of_cells_contained(&self, region: &Rect) -> Vec<f64> {
        let range = self.spec.cells_contained(region);
        self.range_stats(
            range.col_start,
            range.col_end,
            range.row_start,
            range.row_end,
        )
    }

    /// Statistics of objects in cells overlapping `region` (an *upper*
    /// statistics vector for any candidate region contained in `region`).
    pub fn stats_of_cells_overlapping(&self, region: &Rect) -> Vec<f64> {
        let range = self.spec.cells_overlapping(region);
        self.range_stats(
            range.col_start,
            range.col_end,
            range.row_start,
            range.row_end,
        )
    }

    /// Statistics of the whole dataset.
    pub fn total_stats(&self) -> Vec<f64> {
        self.range_stats(0, self.spec.cols(), 0, self.spec.rows())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asrs_aggregator::Selection;
    use asrs_data::gen::{PoiSynGenerator, UniformGenerator};

    fn setup() -> (Dataset, CompositeAggregator) {
        let ds = UniformGenerator::default().generate(400, 5);
        let agg = CompositeAggregator::builder(ds.schema())
            .distribution("category", Selection::All)
            .build()
            .unwrap();
        (ds, agg)
    }

    #[test]
    fn empty_dataset_yields_no_index() {
        let ds = Dataset::new_unchecked(asrs_data::Schema::empty(), vec![]);
        let agg = CompositeAggregator::builder(ds.schema())
            .count(Selection::All)
            .build()
            .unwrap();
        assert_eq!(
            GridIndex::build(&ds, &agg, 8, 8).unwrap_err(),
            AsrsError::EmptyDataset
        );
    }

    #[test]
    fn zero_granularity_is_an_error_not_a_panic() {
        let (ds, agg) = setup();
        assert!(matches!(
            GridIndex::build(&ds, &agg, 0, 8),
            Err(AsrsError::Config(ConfigError::InvalidIndexGranularity {
                cols: 0,
                rows: 8
            }))
        ));
    }

    #[test]
    fn total_stats_match_direct_aggregation() {
        let (ds, agg) = setup();
        let index = GridIndex::build(&ds, &agg, 16, 16).unwrap();
        let direct = agg.stats_of(ds.objects());
        let indexed = index.total_stats();
        for (a, b) in direct.iter().zip(&indexed) {
            assert!((a - b).abs() < 1e-6, "direct {a} vs indexed {b}");
        }
        assert_eq!(index.objects_indexed(), 400);
        assert_eq!(index.granularity(), (16, 16));
    }

    #[test]
    fn range_stats_match_per_cell_recount() {
        let (ds, agg) = setup();
        let index = GridIndex::build(&ds, &agg, 10, 10).unwrap();
        let spec = index.spec().clone();
        // Check a handful of sub-blocks against a direct recount.
        for (c0, c1, r0, r1) in [(0, 10, 0, 10), (2, 7, 3, 9), (0, 1, 0, 1), (5, 5, 2, 8)] {
            let expected = agg.stats_of(ds.objects().filter(|o| {
                let cell = spec.clamped_cell_of_point(&o.location);
                cell.col >= c0 && cell.col < c1 && cell.row >= r0 && cell.row < r1
            }));
            let got = index.range_stats(c0, c1, r0, r1);
            for (a, b) in expected.iter().zip(&got) {
                assert!(
                    (a - b).abs() < 1e-6,
                    "block ({c0}..{c1}, {r0}..{r1}): {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn contained_and_overlapping_stats_bracket_a_region() {
        let (ds, agg) = setup();
        let index = GridIndex::build(&ds, &agg, 32, 32).unwrap();
        let region = Rect::new(20.0, 20.0, 60.0, 55.0);
        let lower = index.stats_of_cells_contained(&region);
        let upper = index.stats_of_cells_overlapping(&region);
        let exact = agg.stats_of(
            ds.objects()
                .filter(|o| region.strictly_contains_point(&o.location)),
        );
        // For count-like slots (the distribution counts), lower ≤ exact ≤
        // upper must hold.
        for k in 0..agg.stats_dim() {
            assert!(
                lower[k] <= exact[k] + 1e-9,
                "slot {k}: lower {} > exact {}",
                lower[k],
                exact[k]
            );
            assert!(
                exact[k] <= upper[k] + 1e-9,
                "slot {k}: exact {} > upper {}",
                exact[k],
                upper[k]
            );
        }
    }

    #[test]
    fn micro_extent_datasets_get_a_proportionate_grid() {
        // Regression test: a lat/lon-scale neighbourhood (~0.01 wide,
        // collinear in y) used to be padded by an *absolute* 1.0 per side,
        // so the 16x16 grid spanned 2.0 vertically and all objects crowded
        // into a single row of cells — the other 240 cells were dead
        // padding.  With extent-relative padding the grid must stay within
        // the same order of magnitude as the data.
        use asrs_data::{AttrValue, AttributeDef, AttributeKind, DatasetBuilder, Schema};
        let schema = Schema::new(vec![AttributeDef::new(
            "category",
            AttributeKind::categorical(2),
        )]);
        let mut b = DatasetBuilder::new(schema);
        for i in 0..32 {
            b.push(
                10.0 + 0.01 * (i as f64 / 31.0),
                5.0,
                vec![AttrValue::Cat(i % 2)],
            );
        }
        let ds = b.build().unwrap();
        let agg = CompositeAggregator::builder(ds.schema())
            .distribution("category", Selection::All)
            .build()
            .unwrap();
        let index = GridIndex::build(&ds, &agg, 16, 16).unwrap();
        let space = *index.spec().space();
        assert!(
            space.height() <= space.width() * 2.0,
            "grid space {space:?} must not be dominated by padding"
        );
        // Objects spread over many columns instead of crowding into one.
        let spec = index.spec().clone();
        let distinct_cols: std::collections::HashSet<usize> = ds
            .objects()
            .map(|o| spec.clamped_cell_of_point(&o.location).col)
            .collect();
        assert!(
            distinct_cols.len() >= 8,
            "objects occupy only {} of 16 columns",
            distinct_cols.len()
        );
        // And the summaries stay correct.
        let direct = agg.stats_of(ds.objects());
        for (a, b) in direct.iter().zip(&index.total_stats()) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn incremental_appends_are_bit_identical_to_a_rebuild() {
        let (ds, agg) = setup();
        let mut mutated = ds.clone();
        let mut index = GridIndex::build(&ds, &agg, 12, 12).unwrap();
        let bbox = ds.bounding_box().unwrap();
        // Append a run of objects strictly inside the extent (the geometry
        // stays put, so incremental maintenance applies).
        for i in 0..20u64 {
            let f = i as f64 / 19.0;
            let object = asrs_data::SpatialObject::new(
                10_000 + i,
                asrs_geo::Point::new(
                    bbox.min_x + bbox.width() * (0.05 + 0.9 * f),
                    bbox.min_y + bbox.height() * (0.95 - 0.9 * f),
                ),
                ds.object(i as usize % ds.len()).values.clone(),
            );
            mutated.append(object.clone()).unwrap();
            assert!(index.space_matches(&mutated));
            index.update_append(&object, &agg);
        }
        let rebuilt = GridIndex::build(&mutated, &agg, 12, 12).unwrap();
        assert_eq!(index.objects_indexed(), rebuilt.objects_indexed());
        assert_eq!(index.spec(), rebuilt.spec());
        for (a, b) in index.suffix.iter().zip(&rebuilt.suffix) {
            assert_eq!(a.to_bits(), b.to_bits(), "suffix tables must match bitwise");
        }
        for (a, b) in index.base.iter().zip(&rebuilt.base) {
            assert_eq!(a.to_bits(), b.to_bits(), "cell tables must match bitwise");
        }
    }

    #[test]
    fn incremental_removals_are_bit_identical_to_a_rebuild() {
        let (ds, agg) = setup();
        let mut mutated = ds.clone();
        let mut index = GridIndex::build(&ds, &agg, 10, 14).unwrap();
        // Remove a scatter of interior objects; skip any whose removal
        // would shrink the bounding box (those demand a rebuild and are
        // exercised by `space_matches`).
        let mut removed_count = 0;
        for id in [3u64, 57, 123, 200, 310, 399, 42, 271] {
            let mut probe = mutated.clone();
            let Some(removed) = probe.remove_by_id(id) else {
                continue;
            };
            if !index.space_matches(&probe) {
                continue;
            }
            mutated = probe;
            index.update_remove(&removed, &mutated, &agg);
            removed_count += 1;
        }
        assert!(removed_count >= 4, "the sweep must actually remove objects");
        let rebuilt = GridIndex::build(&mutated, &agg, 10, 14).unwrap();
        assert_eq!(index.objects_indexed(), rebuilt.objects_indexed());
        for (a, b) in index.suffix.iter().zip(&rebuilt.suffix) {
            assert_eq!(a.to_bits(), b.to_bits(), "suffix tables must match bitwise");
        }
    }

    #[test]
    fn space_matches_detects_geometry_changes() {
        let (ds, agg) = setup();
        let index = GridIndex::build(&ds, &agg, 8, 8).unwrap();
        assert!(index.space_matches(&ds));
        let mut grown = ds.clone();
        let bbox = ds.bounding_box().unwrap();
        grown
            .append(asrs_data::SpatialObject::new(
                99_999,
                asrs_geo::Point::new(bbox.max_x + 10.0, bbox.max_y + 10.0),
                ds.object(0).values.clone(),
            ))
            .unwrap();
        assert!(
            !index.space_matches(&grown),
            "an append outside the box must demand a rebuild"
        );
    }

    #[test]
    fn memory_grows_with_granularity() {
        let (ds, agg) = setup();
        let small = GridIndex::build(&ds, &agg, 16, 16).unwrap();
        let large = GridIndex::build(&ds, &agg, 64, 64).unwrap();
        assert!(large.memory_bytes() > small.memory_bytes());
        assert!(small.memory_bytes() > 0);
    }

    #[test]
    fn works_with_numeric_aggregators() {
        let ds = PoiSynGenerator::compact(4).generate(500, 3);
        let agg = CompositeAggregator::builder(ds.schema())
            .sum("visits", Selection::All)
            .average("rating", Selection::All)
            .build()
            .unwrap();
        let index = GridIndex::build(&ds, &agg, 20, 20).unwrap();
        let total = index.total_stats();
        let direct = agg.stats_of(ds.objects());
        for (a, b) in direct.iter().zip(&total) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn degenerate_ranges_return_zero() {
        let (ds, agg) = setup();
        let index = GridIndex::build(&ds, &agg, 8, 8).unwrap();
        assert!(index.range_stats(3, 3, 0, 8).iter().all(|v| *v == 0.0));
        assert!(index.range_stats(5, 2, 0, 8).iter().all(|v| *v == 0.0));
        let far = Rect::new(1e6, 1e6, 2e6, 2e6);
        assert!(index
            .stats_of_cells_overlapping(&far)
            .iter()
            .all(|v| *v == 0.0));
    }
}
