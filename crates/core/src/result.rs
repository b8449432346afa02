//! Search results.

use asrs_aggregator::FeatureVector;
use asrs_geo::{Point, Rect};
use serde::{Deserialize, Serialize};

/// The answer to an ASRS query: one region.  The statistics of the run
/// that found it describe the search, not the region, so the
/// [`QueryResponse`](crate::QueryResponse) carries them once.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchResult {
    /// The most similar region of size `a × b` found by the search.
    pub region: Rect,
    /// The ASP answer point — the bottom-left corner of [`SearchResult::region`]
    /// (Theorem 1).
    pub anchor: Point,
    /// The weighted distance between the region's aggregate representation
    /// and the query representation.
    pub distance: f64,
    /// The aggregate representation of the returned region.
    pub representation: FeatureVector,
}

impl SearchResult {
    /// Creates a result: the engine's executor builds one per region it
    /// reports.
    pub fn new(anchor: Point, region: Rect, distance: f64, representation: FeatureVector) -> Self {
        Self {
            region,
            anchor,
            distance,
            representation,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_holds_its_fields() {
        let r = SearchResult::new(
            Point::new(1.0, 2.0),
            Rect::new(1.0, 2.0, 3.0, 4.0),
            0.5,
            FeatureVector::new(vec![1.0]),
        );
        assert_eq!(r.anchor, Point::new(1.0, 2.0));
        assert_eq!(r.region.bottom_left(), r.anchor);
        assert_eq!(r.distance, 0.5);
        assert_eq!(r.representation.as_slice(), &[1.0]);
    }
}
