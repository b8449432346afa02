//! Uniform grids over a rectangular space.
//!
//! Both core procedures of the paper are grid-based:
//!
//! * `Discretize` (Section 4.3) lays an `n_col × n_row` grid over the space
//!   currently being searched and classifies cells as *clean* or *dirty*.
//! * The grid index of GI-DS (Section 5.2) lays an `s_x × s_y` grid over the
//!   whole dataset and attaches an attribute summary table to every cell.
//!
//! [`GridSpec`] captures the purely geometric part of both: the mapping
//! between continuous coordinates and discrete cells, and the computation of
//! which cells a rectangle intersects or fully covers.

use crate::{Point, Rect};
use serde::{Deserialize, Serialize};

/// A cell position in a grid: column index (x direction) and row index
/// (y direction), both zero-based.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CellIdx {
    /// Column (x) index.
    pub col: usize,
    /// Row (y) index.
    pub row: usize,
}

impl CellIdx {
    /// Creates a new cell index.
    #[inline]
    pub const fn new(col: usize, row: usize) -> Self {
        Self { col, row }
    }
}

/// A half-open rectangular range of cells: columns `col_start..col_end` and
/// rows `row_start..row_end`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CellRange {
    /// First column (inclusive).
    pub col_start: usize,
    /// One past the last column (exclusive).
    pub col_end: usize,
    /// First row (inclusive).
    pub row_start: usize,
    /// One past the last row (exclusive).
    pub row_end: usize,
}

impl CellRange {
    /// An empty range.
    #[inline]
    pub const fn empty() -> Self {
        Self {
            col_start: 0,
            col_end: 0,
            row_start: 0,
            row_end: 0,
        }
    }

    /// Creates a new range. Callers are responsible for `start <= end`.
    #[inline]
    pub const fn new(col_start: usize, col_end: usize, row_start: usize, row_end: usize) -> Self {
        Self {
            col_start,
            col_end,
            row_start,
            row_end,
        }
    }

    /// Returns `true` when the range covers no cell.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.col_start >= self.col_end || self.row_start >= self.row_end
    }

    /// Number of cells in the range.
    #[inline]
    pub fn len(&self) -> usize {
        if self.is_empty() {
            0
        } else {
            (self.col_end - self.col_start) * (self.row_end - self.row_start)
        }
    }

    /// Iterates over all `(col, row)` pairs in the range, row-major.
    pub fn iter(&self) -> impl Iterator<Item = CellIdx> + '_ {
        let r = *self;
        (r.row_start..r.row_end)
            .flat_map(move |row| (r.col_start..r.col_end).map(move |col| CellIdx::new(col, row)))
    }

    /// Returns `true` when the given cell lies in the range.
    #[inline]
    pub fn contains(&self, cell: CellIdx) -> bool {
        cell.col >= self.col_start
            && cell.col < self.col_end
            && cell.row >= self.row_start
            && cell.row < self.row_end
    }
}

/// A uniform `cols × rows` grid laid over a rectangular space.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GridSpec {
    space: Rect,
    cols: usize,
    rows: usize,
    cell_w: f64,
    cell_h: f64,
}

impl GridSpec {
    /// Creates a grid with `cols × rows` cells over `space`.
    ///
    /// # Panics
    ///
    /// Panics when `cols` or `rows` is zero.  A degenerate (zero-area) space
    /// is allowed; its cells are degenerate too but coordinate mapping still
    /// works (everything maps to cell 0 along the degenerate axis).
    pub fn new(space: Rect, cols: usize, rows: usize) -> Self {
        assert!(cols > 0 && rows > 0, "grid must have at least one cell");
        let cell_w = space.width() / cols as f64;
        let cell_h = space.height() / rows as f64;
        Self {
            space,
            cols,
            rows,
            cell_w,
            cell_h,
        }
    }

    /// The space covered by the grid.
    #[inline]
    pub fn space(&self) -> &Rect {
        &self.space
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Total number of cells.
    #[inline]
    pub fn num_cells(&self) -> usize {
        self.cols * self.rows
    }

    /// Width of a single cell.
    #[inline]
    pub fn cell_width(&self) -> f64 {
        self.cell_w
    }

    /// Height of a single cell.
    #[inline]
    pub fn cell_height(&self) -> f64 {
        self.cell_h
    }

    /// X coordinate of the left edge of column `col` (valid for
    /// `col ∈ 0..=cols`, where `cols` gives the right edge of the grid).
    #[inline]
    pub fn col_x(&self, col: usize) -> f64 {
        if col >= self.cols {
            self.space.max_x
        } else {
            self.space.min_x + col as f64 * self.cell_w
        }
    }

    /// Y coordinate of the bottom edge of row `row` (valid for
    /// `row ∈ 0..=rows`).
    #[inline]
    pub fn row_y(&self, row: usize) -> f64 {
        if row >= self.rows {
            self.space.max_y
        } else {
            self.space.min_y + row as f64 * self.cell_h
        }
    }

    /// The rectangle spanned by cell `(col, row)`.
    ///
    /// # Panics
    ///
    /// Panics when the cell is out of range.
    pub fn cell_rect(&self, col: usize, row: usize) -> Rect {
        assert!(col < self.cols && row < self.rows, "cell out of range");
        Rect::new(
            self.col_x(col),
            self.row_y(row),
            self.col_x(col + 1),
            self.row_y(row + 1),
        )
    }

    /// Flattened (row-major) linear index for a cell.
    #[inline]
    pub fn linear_index(&self, col: usize, row: usize) -> usize {
        row * self.cols + col
    }

    /// Returns the cell containing point `p`, clamped to the grid when the
    /// point sits on the far boundary; returns `None` when the point is
    /// outside the grid space.
    pub fn cell_of_point(&self, p: &Point) -> Option<CellIdx> {
        if !self.space.contains_point(p) {
            return None;
        }
        Some(self.clamped_cell_of_point(p))
    }

    /// Returns the cell whose extent contains point `p`, clamping the result
    /// to the valid cell range (points outside the space map to the nearest
    /// border cell).
    pub fn clamped_cell_of_point(&self, p: &Point) -> CellIdx {
        let col = if self.cell_w > 0.0 {
            ((p.x - self.space.min_x) / self.cell_w).floor()
        } else {
            0.0
        };
        let row = if self.cell_h > 0.0 {
            ((p.y - self.space.min_y) / self.cell_h).floor()
        } else {
            0.0
        };
        let col = (col.max(0.0) as usize).min(self.cols - 1);
        let row = (row.max(0.0) as usize).min(self.rows - 1);
        CellIdx::new(col, row)
    }

    /// Cells whose *interior* overlaps the interior of `r`, i.e. cells that
    /// `r` fully or partially covers in the sense of Section 4.3.
    ///
    /// Cells that only touch `r` along an edge are excluded: with the
    /// paper's strict-containment semantics such a rectangle covers no point
    /// of the cell.
    pub fn cells_overlapping(&self, r: &Rect) -> CellRange {
        self.overlap_with(r, |i| self.col_x(i), |i| self.row_y(i))
    }

    /// Cells that lie entirely inside `r` (closed containment), i.e. cells
    /// that `r` *fully covers*: every interior point of such a cell is
    /// strictly covered by `r`.
    pub fn cells_contained(&self, r: &Rect) -> CellRange {
        self.contained_with(r, |i| self.col_x(i), |i| self.row_y(i))
    }

    /// [`GridSpec::cells_overlapping`] over an edge accessor (`col_x` /
    /// `row_y` or a precomputed [`GridEdges`] table).
    fn overlap_with(
        &self,
        r: &Rect,
        x_edge: impl Fn(usize) -> f64,
        y_edge: impl Fn(usize) -> f64,
    ) -> CellRange {
        let Some(clip) = self.space.intersection(r) else {
            return CellRange::empty();
        };
        if clip.width() <= 0.0 && self.space.width() > 0.0 {
            return CellRange::empty();
        }
        if clip.height() <= 0.0 && self.space.height() > 0.0 {
            return CellRange::empty();
        }
        let (col_start, col_end) = axis_overlap(
            self.cols,
            self.cell_w,
            self.space.min_x,
            clip.min_x,
            clip.max_x,
            x_edge,
        );
        let (row_start, row_end) = axis_overlap(
            self.rows,
            self.cell_h,
            self.space.min_y,
            clip.min_y,
            clip.max_y,
            y_edge,
        );
        CellRange::new(col_start, col_end, row_start, row_end)
    }

    /// [`GridSpec::cells_contained`] over an edge accessor.
    fn contained_with(
        &self,
        r: &Rect,
        x_edge: impl Fn(usize) -> f64,
        y_edge: impl Fn(usize) -> f64,
    ) -> CellRange {
        let Some(clip) = self.space.intersection(r) else {
            return CellRange::empty();
        };
        let (col_start, col_end) = axis_contained(
            self.cols,
            self.cell_w,
            self.space.min_x,
            clip.min_x,
            clip.max_x,
            x_edge,
        );
        let (row_start, row_end) = axis_contained(
            self.rows,
            self.cell_h,
            self.space.min_y,
            clip.min_y,
            clip.max_y,
            y_edge,
        );
        if col_start >= col_end || row_start >= row_end {
            CellRange::empty()
        } else {
            CellRange::new(col_start, col_end, row_start, row_end)
        }
    }
}

/// The half-open index range of the `n` cells (width `cell`, first edge
/// at `origin`) whose interior overlaps `[lo, hi]` along one axis: an
/// estimate from the cell width, adjusted against the exact edges.
fn axis_overlap(
    n: usize,
    cell: f64,
    origin: f64,
    lo: f64,
    hi: f64,
    edge: impl Fn(usize) -> f64,
) -> (usize, usize) {
    if cell <= 0.0 {
        // Degenerate axis: the single layer of cells overlaps everything
        // that reached this point (the clip already succeeded).
        return (0, n);
    }
    // First cell i such that edge(i + 1) > lo.
    let mut start = (((lo - origin) / cell).floor().max(0.0)) as usize;
    start = start.min(n);
    while start < n && edge(start + 1) <= lo {
        start += 1;
    }
    while start > 0 && edge(start) > lo {
        start -= 1;
    }
    if start < n && edge(start + 1) <= lo {
        start += 1;
    }
    // One past the last cell i such that edge(i) < hi.
    let mut end = (((hi - origin) / cell).ceil().max(0.0)) as usize;
    end = end.min(n);
    while end > 0 && edge(end - 1) >= hi {
        end -= 1;
    }
    while end < n && edge(end) < hi {
        end += 1;
    }
    (start.min(end), end)
}

/// The half-open index range of the cells entirely contained in
/// `[lo, hi]` along one axis (see [`axis_overlap`] for the parameters).
fn axis_contained(
    n: usize,
    cell: f64,
    origin: f64,
    lo: f64,
    hi: f64,
    edge: impl Fn(usize) -> f64,
) -> (usize, usize) {
    if cell <= 0.0 {
        // Degenerate cells are contained in any interval that clips.
        return (0, n);
    }
    // First cell i with edge(i) >= lo.
    let mut start = (((lo - origin) / cell).ceil().max(0.0)) as usize;
    start = start.min(n);
    while start > 0 && edge(start - 1) >= lo {
        start -= 1;
    }
    while start < n && edge(start) < lo {
        start += 1;
    }
    // One past the last cell i with edge(i + 1) <= hi.
    let mut end = (((hi - origin) / cell).floor().max(0.0)) as usize;
    end = end.min(n);
    while end < n && edge(end + 1) <= hi {
        end += 1;
    }
    while end > 0 && edge(end) > hi {
        end -= 1;
    }
    (start.min(end), end)
}

/// A [`GridSpec`] with its cut coordinates computed once: `xs()[i]` is
/// [`GridSpec::col_x`]`(i)` for `i ∈ 0..=cols`, `ys()[j]` is
/// [`GridSpec::row_y`]`(j)`.
///
/// A search evaluates the cell ranges of every candidate rectangle against
/// the same grid; reading the edges from a table instead of recomputing
/// them makes that several times cheaper, with bit-identical ranges.
/// [`GridEdges::reset`] reuses the buffers for the next grid.
#[derive(Debug, Clone, PartialEq)]
pub struct GridEdges {
    grid: GridSpec,
    xs: Vec<f64>,
    ys: Vec<f64>,
}

impl GridEdges {
    /// Computes the edge table of `grid`.
    pub fn new(grid: GridSpec) -> Self {
        let mut edges = Self {
            grid,
            xs: Vec::new(),
            ys: Vec::new(),
        };
        edges.fill();
        edges
    }

    /// Replaces the grid, reusing the table's buffers.
    pub fn reset(&mut self, grid: GridSpec) {
        self.grid = grid;
        self.fill();
    }

    fn fill(&mut self) {
        let grid = &self.grid;
        self.xs.clear();
        self.xs.extend((0..=grid.cols).map(|i| grid.col_x(i)));
        self.ys.clear();
        self.ys.extend((0..=grid.rows).map(|j| grid.row_y(j)));
    }

    /// Column edges, `cols + 1` ascending values.
    #[inline]
    pub fn xs(&self) -> &[f64] {
        &self.xs
    }

    /// Row edges, `rows + 1` ascending values.
    #[inline]
    pub fn ys(&self) -> &[f64] {
        &self.ys
    }

    /// [`GridSpec::cell_rect`] from the table.
    ///
    /// # Panics
    ///
    /// Panics when the cell is out of range.
    #[inline]
    pub fn cell_rect(&self, col: usize, row: usize) -> Rect {
        Rect::new(
            self.xs[col],
            self.ys[row],
            self.xs[col + 1],
            self.ys[row + 1],
        )
    }

    /// [`GridSpec::cells_overlapping`] from the table (identical ranges).
    #[inline]
    pub fn cells_overlapping(&self, r: &Rect) -> CellRange {
        self.grid.overlap_with(r, |i| self.xs[i], |j| self.ys[j])
    }

    /// [`GridSpec::cells_contained`] from the table (identical ranges).
    #[inline]
    pub fn cells_contained(&self, r: &Rect) -> CellRange {
        self.grid.contained_with(r, |i| self.xs[i], |j| self.ys[j])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid10() -> GridSpec {
        GridSpec::new(Rect::new(0.0, 0.0, 10.0, 10.0), 10, 10)
    }

    #[test]
    #[should_panic(expected = "at least one cell")]
    fn zero_cells_rejected() {
        GridSpec::new(Rect::new(0.0, 0.0, 1.0, 1.0), 0, 5);
    }

    #[test]
    fn cell_rect_tiles_the_space() {
        let g = grid10();
        assert_eq!(g.cell_rect(0, 0), Rect::new(0.0, 0.0, 1.0, 1.0));
        assert_eq!(g.cell_rect(9, 9), Rect::new(9.0, 9.0, 10.0, 10.0));
        assert_eq!(g.cell_width(), 1.0);
        assert_eq!(g.num_cells(), 100);
    }

    #[test]
    fn cell_of_point_maps_interior_and_boundary() {
        let g = grid10();
        assert_eq!(
            g.cell_of_point(&Point::new(0.5, 0.5)),
            Some(CellIdx::new(0, 0))
        );
        assert_eq!(
            g.cell_of_point(&Point::new(9.99, 9.99)),
            Some(CellIdx::new(9, 9))
        );
        // The far boundary clamps into the last cell.
        assert_eq!(
            g.cell_of_point(&Point::new(10.0, 10.0)),
            Some(CellIdx::new(9, 9))
        );
        assert_eq!(g.cell_of_point(&Point::new(10.5, 0.0)), None);
    }

    #[test]
    fn clamped_cell_never_escapes_grid() {
        let g = grid10();
        assert_eq!(
            g.clamped_cell_of_point(&Point::new(-5.0, 50.0)),
            CellIdx::new(0, 9)
        );
    }

    #[test]
    fn cells_overlapping_partial_rect() {
        let g = grid10();
        let r = Rect::new(1.5, 2.5, 3.5, 4.5);
        let range = g.cells_overlapping(&r);
        assert_eq!(range, CellRange::new(1, 4, 2, 5));
    }

    #[test]
    fn cells_overlapping_excludes_edge_touch() {
        let g = grid10();
        // Rectangle exactly aligned to cell boundaries [2,4] x [2,4].
        let r = Rect::new(2.0, 2.0, 4.0, 4.0);
        let range = g.cells_overlapping(&r);
        // Only the two interior columns/rows overlap; cells at columns 1 and 4
        // merely touch the rectangle edge.
        assert_eq!(range, CellRange::new(2, 4, 2, 4));
    }

    #[test]
    fn cells_contained_requires_full_cover() {
        let g = grid10();
        let r = Rect::new(1.5, 2.5, 5.5, 6.5);
        // Fully covered cells: columns 2..5 (cells [2,3),[3,4),[4,5)), rows 3..6.
        assert_eq!(g.cells_contained(&r), CellRange::new(2, 5, 3, 6));
        // Overlapping cells are a superset.
        assert_eq!(g.cells_overlapping(&r), CellRange::new(1, 6, 2, 7));
    }

    #[test]
    fn contained_range_is_subset_of_overlap_range() {
        let g = GridSpec::new(Rect::new(-3.0, -7.0, 13.0, 5.0), 7, 9);
        let r = Rect::new(-1.3, -4.2, 8.7, 2.9);
        let over = g.cells_overlapping(&r);
        let cont = g.cells_contained(&r);
        for c in cont.iter() {
            assert!(over.contains(c));
            assert!(r.contains_rect(&g.cell_rect(c.col, c.row)));
        }
        for c in over.iter() {
            assert!(g.cell_rect(c.col, c.row).interiors_intersect(&r));
        }
    }

    #[test]
    fn rect_outside_space_yields_empty_ranges() {
        let g = grid10();
        let r = Rect::new(20.0, 20.0, 30.0, 30.0);
        assert!(g.cells_overlapping(&r).is_empty());
        assert!(g.cells_contained(&r).is_empty());
    }

    #[test]
    fn small_rect_inside_one_cell() {
        let g = grid10();
        let r = Rect::new(3.2, 4.1, 3.4, 4.3);
        assert_eq!(g.cells_overlapping(&r), CellRange::new(3, 4, 4, 5));
        assert!(g.cells_contained(&r).is_empty());
    }

    #[test]
    fn cell_range_iteration_and_len() {
        let r = CellRange::new(1, 3, 2, 4);
        let cells: Vec<_> = r.iter().collect();
        assert_eq!(cells.len(), r.len());
        assert_eq!(r.len(), 4);
        assert!(r.contains(CellIdx::new(2, 3)));
        assert!(!r.contains(CellIdx::new(3, 3)));
        assert!(CellRange::empty().is_empty());
        assert_eq!(CellRange::empty().len(), 0);
    }

    #[test]
    fn linear_index_is_row_major() {
        let g = grid10();
        assert_eq!(g.linear_index(0, 0), 0);
        assert_eq!(g.linear_index(3, 2), 23);
    }

    /// The edge-table ranges equal the direct ones for random rectangles,
    /// rectangles on cut lines and corners, rectangles outside the space,
    /// and zero-width spaces.  Small enough for Miri.
    #[test]
    fn edge_table_ranges_equal_direct_ranges() {
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut unit = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let spaces = [
            (Rect::new(0.0, 0.0, 10.0, 10.0), 10, 10),
            (Rect::new(-3.7, 1.1, 12.9, 4.3), 7, 9),
            (Rect::new(0.1, 0.2, 0.7, 0.9), 30, 30),
            (Rect::new(5.0, -2.0, 5.0, 8.0), 4, 5),
            (Rect::new(-1.0, 3.0, 6.0, 3.0), 6, 3),
            (Rect::new(2.0, 2.0, 2.0, 2.0), 3, 3),
        ];
        for (space, cols, rows) in spaces {
            let grid = GridSpec::new(space, cols, rows);
            let edges = GridEdges::new(grid.clone());
            let (w, h) = (space.width().max(1.0), space.height().max(1.0));
            let mut rects = Vec::new();
            for _ in 0..24 {
                let x = space.min_x - w * 0.3 + unit() * w * 1.6;
                let y = space.min_y - h * 0.3 + unit() * h * 1.6;
                rects.push(Rect::new(x, y, x + unit() * w * 0.7, y + unit() * h * 0.7));
            }
            // Cut lines and corners: every edge pair of a few cells, plus
            // slivers and points on them.
            for (c, r) in [(0, 0), (1, 1), (cols - 1, rows - 1), (cols / 2, rows / 2)] {
                let (x0, x1) = (grid.col_x(c), grid.col_x(c + 1));
                let (y0, y1) = (grid.row_y(r), grid.row_y(r + 1));
                rects.push(Rect::new(x0, y0, x1, y1));
                rects.push(Rect::new(x0, y0, x0, y0));
                rects.push(Rect::new(x0, y0, grid.col_x(cols), y1));
                rects.push(Rect::new(x1, y1, x1 + w, y1 + h));
                rects.push(Rect::new(x0 - w, y0 - h, x0, y0));
            }
            // Outside the space, touching it, and covering it.
            rects.push(Rect::new(
                space.max_x + 1.0,
                space.min_y,
                space.max_x + 2.0,
                space.max_y,
            ));
            rects.push(Rect::new(
                space.min_x - 2.0,
                space.min_y - 2.0,
                space.min_x,
                space.min_y,
            ));
            rects.push(space.expanded(1.0, 1.0));
            rects.push(space);
            for r in &rects {
                assert_eq!(edges.cells_overlapping(r), grid.cells_overlapping(r), "{r}");
                assert_eq!(edges.cells_contained(r), grid.cells_contained(r), "{r}");
            }
            for c in 0..cols {
                for r in 0..rows {
                    assert_eq!(edges.cell_rect(c, r), grid.cell_rect(c, r));
                }
            }
        }
    }

    #[test]
    fn edge_table_reset_reuses_buffers_for_a_new_grid() {
        let mut edges = GridEdges::new(grid10());
        let other = GridSpec::new(Rect::new(-1.0, -1.0, 2.0, 5.0), 3, 6);
        edges.reset(other.clone());
        assert_eq!(edges.xs(), &[-1.0, 0.0, 1.0, 2.0]);
        assert_eq!(edges.ys().len(), 7);
        assert_eq!(edges, GridEdges::new(other));
    }

    #[test]
    fn degenerate_space_still_maps_points() {
        let g = GridSpec::new(Rect::new(0.0, 0.0, 0.0, 10.0), 4, 4);
        assert_eq!(
            g.clamped_cell_of_point(&Point::new(0.0, 5.0)),
            CellIdx::new(0, 2)
        );
    }
}
