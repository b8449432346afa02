//! Search results.

use crate::SearchStats;
use asrs_aggregator::FeatureVector;
use asrs_geo::{Point, Rect};
use serde::{Deserialize, Serialize};

/// The answer to an ASRS query.
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
    /// Instrumentation collected during the search.
    pub stats: SearchStats,
}

impl SearchResult {
    /// Creates a result.  Used by the built-in search algorithms and by
    /// the baselines that adapt their native answer types to the engine's
    /// result shape.
    pub fn new(
        anchor: Point,
        region: Rect,
        distance: f64,
        representation: FeatureVector,
        stats: SearchStats,
    ) -> Self {
        Self {
            region,
            anchor,
            distance,
            representation,
            stats,
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
            SearchStats::default(),
        );
        assert_eq!(r.anchor, Point::new(1.0, 2.0));
        assert_eq!(r.region.bottom_left(), r.anchor);
        assert_eq!(r.distance, 0.5);
        assert_eq!(r.representation.as_slice(), &[1.0]);
    }
}
