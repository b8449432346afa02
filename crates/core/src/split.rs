//! Function `Split` (Section 4.4).
//!
//! The dirty cells that survived pruning are partitioned into two groups
//! whose minimum bounding rectangles become the two new, smaller
//! sub-spaces.  The paper grows the groups greedily by area enlargement
//! from two far-apart seeds; that heuristic can return a part equal to its
//! parent, or cut only the short axis of a thin strip, and then the space
//! stops shrinking.  This split bisects the cells at the middle column or
//! row of their longer extent instead, so every part is shorter than its
//! parent along that extent.

use crate::discretize::DirtyCell;
use asrs_geo::{GridSpec, Rect};

/// A sub-space produced by splitting: its extent and the minimum lower
/// bound of the dirty cells it encloses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct SubSpace {
    pub space: Rect,
    pub lb: f64,
}

/// Splits the retained dirty cells of `grid` into at most two sub-spaces.
///
/// The cells' bounding box is measured in plane units; its longer side
/// (among the sides at least two cells long) is cut at its middle column
/// or row, and each part is the bounding box of its cells.  Returns an
/// empty vector when there is no retained dirty cell and a single
/// sub-space when every retained cell is the same cell.
pub(crate) fn split(grid: &GridSpec, retained: &[DirtyCell]) -> Vec<SubSpace> {
    let Some(whole) = Group::of(retained.iter()) else {
        return Vec::new();
    };
    let (cols, rows) = (whole.c1 - whole.c0 + 1, whole.r1 - whole.r0 + 1);
    let width = cols as f64 * grid.cell_width();
    let height = rows as f64 * grid.cell_height();
    let parts = if cols > 1 && (rows == 1 || width >= height) {
        let mid = whole.c0 + cols / 2;
        [
            Group::of(retained.iter().filter(|c| c.col < mid)),
            Group::of(retained.iter().filter(|c| c.col >= mid)),
        ]
    } else if rows > 1 {
        let mid = whole.r0 + rows / 2;
        [
            Group::of(retained.iter().filter(|c| c.row < mid)),
            Group::of(retained.iter().filter(|c| c.row >= mid)),
        ]
    } else {
        [Some(whole), None]
    };
    parts
        .into_iter()
        .flatten()
        .map(|g| g.sub_space(grid))
        .collect()
}

/// The cell-index bounding box of a group of cells and their minimum
/// lower bound.
struct Group {
    c0: usize,
    c1: usize,
    r0: usize,
    r1: usize,
    lb: f64,
}

impl Group {
    fn of<'c>(mut cells: impl Iterator<Item = &'c DirtyCell>) -> Option<Self> {
        let first = cells.next()?;
        let mut group = Group {
            c0: first.col,
            c1: first.col,
            r0: first.row,
            r1: first.row,
            lb: first.lb,
        };
        for c in cells {
            group.c0 = group.c0.min(c.col);
            group.c1 = group.c1.max(c.col);
            group.r0 = group.r0.min(c.row);
            group.r1 = group.r1.max(c.row);
            group.lb = group.lb.min(c.lb);
        }
        Some(group)
    }

    fn sub_space(&self, grid: &GridSpec) -> SubSpace {
        SubSpace {
            space: grid
                .cell_rect(self.c0, self.r0)
                .mbr(&grid.cell_rect(self.c1, self.r1)),
            lb: self.lb,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asrs_geo::Rect;

    fn grid() -> GridSpec {
        GridSpec::new(Rect::new(0.0, 0.0, 10.0, 10.0), 10, 10)
    }

    fn cell(col: usize, row: usize, lb: f64) -> DirtyCell {
        DirtyCell {
            col,
            row,
            lb,
            partials: 1,
        }
    }

    #[test]
    fn empty_input_produces_no_subspace() {
        assert!(split(&grid(), &[]).is_empty());
    }

    #[test]
    fn single_cell_produces_its_own_rect() {
        let parts = split(&grid(), &[cell(3, 4, 0.5)]);
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].space, grid().cell_rect(3, 4));
        assert_eq!(parts[0].lb, 0.5);
    }

    #[test]
    fn two_distant_clusters_are_separated() {
        // Cells clustered near (1, 1) and near (8, 8): the split should keep
        // the clusters in different sub-spaces with small total area.
        let cells = vec![
            cell(0, 0, 0.1),
            cell(1, 0, 0.2),
            cell(0, 1, 0.3),
            cell(1, 1, 0.4),
            cell(8, 8, 0.5),
            cell(9, 8, 0.6),
            cell(8, 9, 0.7),
            cell(9, 9, 0.8),
        ];
        let parts = split(&grid(), &cells);
        assert_eq!(parts.len(), 2);
        let total_area: f64 = parts.iter().map(|p| p.space.area()).sum();
        // Each cluster MBR is 2x2 = 4 area; allow some slack for assignment
        // order but far less than the full 100-area space.
        assert!(total_area <= 10.0, "total area {total_area} too large");
        // The minimum lower bound over both groups covers the global min.
        let min_lb = parts.iter().map(|p| p.lb).fold(f64::INFINITY, f64::min);
        assert!((min_lb - 0.1).abs() < 1e-12);
    }

    #[test]
    fn every_retained_cell_is_covered_by_some_subspace() {
        let cells: Vec<DirtyCell> = (0..10)
            .flat_map(|c| {
                (0..10)
                    .filter(move |r| (c + r) % 3 == 0)
                    .map(move |r| cell(c, r, 1.0))
            })
            .collect();
        let parts = split(&grid(), &cells);
        assert_eq!(parts.len(), 2);
        for c in &cells {
            let rect = grid().cell_rect(c.col, c.row);
            assert!(
                parts.iter().any(|p| p.space.contains_rect(&rect)),
                "cell ({}, {}) not covered",
                c.col,
                c.row
            );
        }
    }

    #[test]
    fn subspace_lbs_are_minima_of_their_groups() {
        let cells = vec![cell(0, 0, 0.9), cell(9, 9, 0.2), cell(1, 1, 0.5)];
        let parts = split(&grid(), &cells);
        assert_eq!(parts.len(), 2);
        let all_min = parts.iter().map(|p| p.lb).fold(f64::INFINITY, f64::min);
        assert!((all_min - 0.2).abs() < 1e-12);
        for p in &parts {
            assert!(p.lb >= 0.2 && p.lb <= 0.9);
        }
    }

    #[test]
    fn collinear_cells_still_split() {
        let cells: Vec<DirtyCell> = (0..10).map(|i| cell(i, i, i as f64)).collect();
        let parts = split(&grid(), &cells);
        assert_eq!(parts.len(), 2);
        // Sub-spaces must be smaller than the full diagonal MBR together.
        assert!(parts.iter().all(|p| p.space.area() <= 100.0));
    }

    /// The bounding box of `cells` in `grid`.
    fn mbr(grid: &GridSpec, cells: &[DirtyCell]) -> Rect {
        cells
            .iter()
            .map(|c| grid.cell_rect(c.col, c.row))
            .reduce(|a, b| a.mbr(&b))
            .unwrap()
    }

    #[test]
    fn a_part_never_equals_its_parent() {
        // The two diagonals of the grid: the area-enlargement heuristic
        // grew one group to the whole grid, so that part was its parent.
        let cells: Vec<DirtyCell> = (0..10)
            .flat_map(|i| [cell(i, i, 1.0), cell(i, 9 - i, 1.0)])
            .collect();
        let parent = mbr(&grid(), &cells);
        let parts = split(&grid(), &cells);
        assert_eq!(parts.len(), 2);
        for p in &parts {
            assert!(p.space.width() < parent.width(), "{:?}", p.space);
            assert!(parent.contains_rect(&p.space));
        }
        for c in &cells {
            let rect = grid().cell_rect(c.col, c.row);
            assert!(parts.iter().any(|p| p.space.contains_rect(&rect)));
        }
    }

    #[test]
    fn a_thin_strip_is_cut_along_its_long_axis() {
        // A 1000 × 1e-4 strip whose retained cells span its whole width:
        // growing a group along x costs almost no area, so the greedy
        // split cut only y and both parts stayed 1000 wide.
        let strip = GridSpec::new(Rect::new(0.0, 0.0, 1000.0, 1e-4), 30, 30);
        let cells: Vec<DirtyCell> = (0..30)
            .flat_map(|c| [cell(c, 14, 0.5), cell(c, 15, 0.5)])
            .collect();
        let parent = mbr(&strip, &cells);
        let parts = split(&strip, &cells);
        assert_eq!(parts.len(), 2);
        for p in &parts {
            assert!(
                p.space.width() <= parent.width() / 2.0 + 1e-9,
                "{:?}",
                p.space
            );
            assert_eq!(p.space.height(), parent.height());
        }
    }

    #[test]
    fn identical_cells_fall_back_gracefully() {
        // One cell cannot be bisected: it comes back as one sub-space
        // carrying the smaller bound.
        let cells = vec![cell(4, 4, 0.3), cell(4, 4, 0.1)];
        let parts = split(&grid(), &cells);
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].space, grid().cell_rect(4, 4));
        assert_eq!(parts[0].lb, 0.1);
    }
}
