//! GPS horizontal / vertical accuracy (Definition 7 of the paper).
//!
//! The drop condition of DS-Search (Definition 8) stops the discretize–split
//! recursion once grid cells become smaller than half of the minimum distance
//! between distinct rectangle-edge coordinates.  That minimum distance is
//! bounded below by the resolution of the positioning technology, so the
//! paper treats it as a constant ΔX / ΔY independent of the dataset
//! cardinality.

use serde::{Deserialize, Serialize};

/// Horizontal (ΔX) and vertical (ΔY) coordinate accuracy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Accuracy {
    /// Minimum gap between distinct x coordinates of rectangle edges (ΔX).
    pub dx: f64,
    /// Minimum gap between distinct y coordinates of rectangle edges (ΔY).
    pub dy: f64,
}

impl Accuracy {
    /// Creates an accuracy descriptor.
    ///
    /// The values are stored verbatim; a meaningful accuracy must be
    /// strictly positive and finite ([`Accuracy::is_valid`]), which the
    /// search layer enforces when a configuration is validated —
    /// constructing an invalid accuracy never panics.
    #[inline]
    pub const fn new(dx: f64, dy: f64) -> Self {
        Self { dx, dy }
    }

    /// Returns `true` when both components are strictly positive and
    /// finite.
    #[inline]
    pub fn is_valid(&self) -> bool {
        self.dx > 0.0 && self.dy > 0.0 && self.dx.is_finite() && self.dy.is_finite()
    }

    /// The accuracy the paper reports for the Tweet dataset
    /// (ΔX = ΔY = 10⁻⁸ degrees).
    #[inline]
    pub fn gps_default() -> Self {
        Self::new(1e-8, 1e-8)
    }

    /// Estimates the accuracy from the edge coordinates of a set of
    /// rectangles, falling back to `floor` when all coordinates coincide on
    /// an axis (e.g. a single object).
    ///
    /// `xs` and `ys` are the multisets of x and y coordinates of rectangle
    /// edges (both edges per rectangle).
    pub fn from_edge_coordinates(xs: &[f64], ys: &[f64], floor: Accuracy) -> Self {
        Self::from_gaps(min_positive_gap(xs), min_positive_gap(ys), floor)
    }

    /// [`Accuracy::from_edge_coordinates`] over edge coordinates already in
    /// ascending order (duplicates allowed): one linear scan per axis
    /// instead of a sort, with the same result bit for bit.
    pub fn from_sorted_edge_coordinates(xs: &[f64], ys: &[f64], floor: Accuracy) -> Self {
        Self::from_gaps(
            min_positive_gap_sorted(xs),
            min_positive_gap_sorted(ys),
            floor,
        )
    }

    fn from_gaps(dx: Option<f64>, dy: Option<f64>, floor: Accuracy) -> Self {
        let dx = dx.unwrap_or(floor.dx).max(floor.dx.min(f64::MAX));
        let dy = dy.unwrap_or(floor.dy).max(floor.dy.min(f64::MAX));
        // Never report an accuracy below the floor: coordinates closer than
        // the positioning resolution are numerical noise and would make the
        // drop condition unreachable in a reasonable number of splits.
        Self::new(dx.max(floor.dx), dy.max(floor.dy))
    }
}

/// Returns the smallest strictly positive gap between any two values in
/// `values`, or `None` when fewer than two distinct finite values exist.
/// Non-finite values are ignored.
///
/// Runs in `O(n log n)`.
pub fn min_positive_gap(values: &[f64]) -> Option<f64> {
    let mut sorted: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    sorted.sort_by(f64::total_cmp);
    min_positive_gap_sorted(&sorted)
}

/// [`min_positive_gap`] over values in ascending order (by `total_cmp` or
/// `partial_cmp`; duplicates allowed): the smallest positive difference
/// between neighbouring finite values, in one linear scan.
fn min_positive_gap_sorted(sorted: &[f64]) -> Option<f64> {
    let mut finite = sorted.iter().copied().filter(|v| v.is_finite());
    let mut prev = finite.next()?;
    let mut best: Option<f64> = None;
    for v in finite {
        let gap = v - prev;
        if gap > 0.0 {
            best = Some(best.map_or(gap, |b| b.min(gap)));
        }
        prev = v;
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_gap_of_distinct_values() {
        let vals = [5.0, 1.0, 3.0, 3.5];
        assert_eq!(min_positive_gap(&vals), Some(0.5));
    }

    #[test]
    fn min_gap_ignores_duplicates() {
        let vals = [1.0, 1.0, 1.0, 2.0];
        assert_eq!(min_positive_gap(&vals), Some(1.0));
    }

    #[test]
    fn min_gap_none_for_identical_or_short_input() {
        assert_eq!(min_positive_gap(&[1.0, 1.0]), None);
        assert_eq!(min_positive_gap(&[1.0]), None);
        assert_eq!(min_positive_gap(&[]), None);
    }

    #[test]
    fn the_sorted_scan_matches_the_sorting_one() {
        let vals = [5.0, -0.0, 1.0, 3.0, 0.0, 3.5, 1.0, 1e-300, f64::INFINITY];
        let mut sorted = vals.to_vec();
        sorted.sort_by(f64::total_cmp);
        assert_eq!(min_positive_gap_sorted(&sorted), min_positive_gap(&vals));
        assert_eq!(min_positive_gap_sorted(&sorted), Some(1e-300));
        sorted.dedup();
        assert_eq!(min_positive_gap_sorted(&sorted), Some(1e-300));
        assert_eq!(min_positive_gap_sorted(&[2.0, 2.0]), None);
        assert_eq!(min_positive_gap_sorted(&[]), None);
    }

    #[test]
    fn min_gap_skips_non_finite() {
        let vals = [1.0, f64::NAN, 2.5, f64::INFINITY];
        assert_eq!(min_positive_gap(&vals), Some(1.5));
    }

    #[test]
    fn invalid_accuracies_construct_but_fail_validity() {
        assert!(!Accuracy::new(0.0, 1.0).is_valid());
        assert!(!Accuracy::new(1.0, f64::NAN).is_valid());
        assert!(Accuracy::new(1e-8, 1e-8).is_valid());
    }

    #[test]
    fn gps_default_matches_paper() {
        let a = Accuracy::gps_default();
        assert_eq!(a.dx, 1e-8);
        assert_eq!(a.dy, 1e-8);
    }

    #[test]
    fn from_edge_coordinates_uses_observed_gap() {
        let xs = [0.0, 1.0, 4.0];
        let ys = [0.0, 10.0];
        let acc = Accuracy::from_edge_coordinates(&xs, &ys, Accuracy::new(1e-9, 1e-9));
        assert_eq!(acc.dx, 1.0);
        assert_eq!(acc.dy, 10.0);
    }

    #[test]
    fn from_edge_coordinates_falls_back_to_floor() {
        let xs = [2.0, 2.0];
        let ys: Vec<f64> = vec![];
        let acc = Accuracy::from_edge_coordinates(&xs, &ys, Accuracy::new(0.5, 0.25));
        assert_eq!(acc.dx, 0.5);
        assert_eq!(acc.dy, 0.25);
    }

    #[test]
    fn from_edge_coordinates_never_reports_below_floor() {
        let xs = [0.0, 1e-12];
        let ys = [0.0, 1e-12];
        let acc = Accuracy::from_edge_coordinates(&xs, &ys, Accuracy::new(1e-8, 1e-8));
        assert_eq!(acc.dx, 1e-8);
        assert_eq!(acc.dy, 1e-8);
    }
}
