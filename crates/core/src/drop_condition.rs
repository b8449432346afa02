//! The drop condition (Definition 8, Theorem 2).
//!
//! Once the cells of a discretisation grid are smaller than half of the
//! coordinate accuracy in both dimensions, every disjoint region of the
//! rectangle arrangement that lies inside the space is guaranteed to
//! contain at least one clean cell, so the space never needs to be split
//! again.  The kernel stops splitting earlier, once *either* dimension is
//! that small, and resolves the space's surviving dirty cells exactly
//! instead (see [`DsSearch`](crate::ds_search::DsSearch)).

use asrs_geo::{Accuracy, GridSpec};

/// Returns `true` when the grid's cells are below half the accuracy along
/// at least one axis: `2 · w_c < ΔX` or `2 · h_c < ΔY`.
pub(crate) fn satisfies_drop_condition(grid: &GridSpec, accuracy: &Accuracy) -> bool {
    2.0 * grid.cell_width() < accuracy.dx || 2.0 * grid.cell_height() < accuracy.dy
}

#[cfg(test)]
mod tests {
    use super::*;
    use asrs_geo::Rect;

    #[test]
    fn small_cells_satisfy_the_condition() {
        // 10x10 grid over a 1x1 space: cells are 0.1 wide/tall.  One axis
        // below half the accuracy is enough.
        let grid = GridSpec::new(Rect::new(0.0, 0.0, 1.0, 1.0), 10, 10);
        assert!(satisfies_drop_condition(&grid, &Accuracy::new(0.3, 0.3)));
        assert!(satisfies_drop_condition(&grid, &Accuracy::new(0.2, 0.3)));
        assert!(satisfies_drop_condition(&grid, &Accuracy::new(0.3, 0.05)));
        assert!(!satisfies_drop_condition(&grid, &Accuracy::new(0.2, 0.05)));
    }

    #[test]
    fn boundary_is_strict() {
        let grid = GridSpec::new(Rect::new(0.0, 0.0, 1.0, 1.0), 10, 10);
        // 2 * 0.1 = 0.2 is NOT strictly less than 0.2.
        assert!(!satisfies_drop_condition(&grid, &Accuracy::new(0.2, 0.2)));
        assert!(satisfies_drop_condition(
            &grid,
            &Accuracy::new(0.2000001, 0.2000001)
        ));
    }

    #[test]
    fn paper_example_10_shape() {
        // Example 10: after one split the left sub-space, re-discretised
        // with a 10x10 grid, has cells small enough relative to the edge
        // gaps that it need not be split again.  Model that situation with a
        // sub-space a fifth of the original width.
        let original = GridSpec::new(Rect::new(0.0, 0.0, 10.0, 10.0), 10, 10);
        let sub = GridSpec::new(Rect::new(0.0, 0.0, 2.0, 2.0), 10, 10);
        let acc = Accuracy::new(0.5, 0.5);
        assert!(!satisfies_drop_condition(&original, &acc));
        assert!(satisfies_drop_condition(&sub, &acc));
    }
}
