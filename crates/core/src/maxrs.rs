//! The MaxRS adaptation (Section 7.5).
//!
//! The MaxRS problem asks for the `a × b` region enclosing the maximum
//! number of objects.  It is a special case of ASRS: with a count
//! aggregator and a target count larger than the dataset cardinality,
//! minimising `|count − target|` is the same as maximising the count, and
//! the Equation-1 lower bound of a dirty cell becomes `target − upper
//! count`, so DS-Search's best-first order processes the cells with the
//! largest count upper bound first — exactly the adaptation described in
//! the paper.  GI-DS's Definition-9 bound becomes `target − upper count`
//! of an index cell's bounding region in the same way, so the reduction
//! runs on every backend; the planner routes it like any other request.

use crate::error::AsrsError;
use crate::query::AsrsQuery;
use crate::result::SearchResult;
use asrs_aggregator::{
    AggregatorKind, AggregatorSpec, CompositeAggregator, FeatureVector, Selection, Weights,
};
use asrs_data::Dataset;
use asrs_geo::{Point, Rect, RegionSize};
use serde::{Deserialize, Serialize};

/// Result of a MaxRS search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MaxRsResult {
    /// The region of size `a × b` enclosing the maximum number of objects.
    pub region: Rect,
    /// Bottom-left corner of the region.
    pub anchor: Point,
    /// Number of objects strictly inside the region.
    pub count: usize,
}

/// The MaxRS → ASRS reduction: a count aggregator over the objects
/// satisfying `selection` (the class-constrained MaxRS variant of Mostafiz
/// et al. discussed in the related work) plus a target strictly above the
/// attainable maximum, which turns minimisation of `|count − target|` into
/// maximisation of the count.  The engine's executor answers the reduced
/// query like any other, and the carry-forward pass probes the same one.
///
/// # Errors
///
/// [`AsrsError::InvalidRegionSize`] when the region size is non-positive
/// or non-finite.
pub(crate) fn reduction(
    dataset: &Dataset,
    size: RegionSize,
    selection: &Selection,
) -> Result<(CompositeAggregator, AsrsQuery), AsrsError> {
    let (w, h) = (size.width, size.height);
    if !(w.is_finite() && w > 0.0 && h.is_finite() && h > 0.0) {
        return Err(AsrsError::InvalidRegionSize {
            width: w,
            height: h,
        });
    }
    let aggregator = CompositeAggregator::new(
        dataset.schema(),
        vec![AggregatorSpec {
            kind: AggregatorKind::Count,
            selection: selection.clone(),
        }],
    )
    // lint:allow(CompositeAggregator::new only rejects selections referencing unknown attributes; Count with the dataset's own schema cannot fail)
    .expect("a count aggregator is valid for every schema");
    let target = dataset.len() as f64 + 1.0;
    let query = AsrsQuery::new(size, FeatureVector::new(vec![target]), Weights::uniform(1));
    Ok((aggregator, query))
}

/// Converts the reduced problem's answer back into a [`MaxRsResult`].
pub(crate) fn result_from_search(result: SearchResult) -> MaxRsResult {
    MaxRsResult {
        region: result.region,
        anchor: result.anchor,
        count: result.representation[0].round() as usize,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SearchConfig;
    use crate::executor::{Executor, Slabs};
    use asrs_data::gen::UniformGenerator;
    use asrs_data::{AttrValue, DatasetBuilder, Schema};

    /// The MaxRS answer over the whole space, as an unsharded engine runs
    /// it.
    fn max_rs(
        ds: &Dataset,
        size: RegionSize,
        selection: Selection,
    ) -> Result<MaxRsResult, AsrsError> {
        let count = CompositeAggregator::builder(ds.schema())
            .count(Selection::All)
            .build()
            .unwrap();
        Executor::new(
            ds,
            &Default::default(),
            &count,
            &SearchConfig::default(),
            Slabs::Whole,
        )
        .max_rs(size, &selection, None, &mut Default::default())
    }

    #[test]
    fn finds_the_densest_cluster() {
        // A tight cluster of 5 objects plus scattered singletons: the best
        // 2x2 region must contain the whole cluster.
        let mut b = DatasetBuilder::new(Schema::empty());
        for (x, y) in [
            (10.0, 10.0),
            (10.3, 10.2),
            (10.6, 10.4),
            (10.2, 10.8),
            (10.9, 10.9),
        ] {
            b.push(x, y, vec![]);
        }
        for (x, y) in [(1.0, 1.0), (20.0, 3.0), (3.0, 18.0), (25.0, 25.0)] {
            b.push(x, y, vec![]);
        }
        let ds = b.build().unwrap();
        let result = max_rs(&ds, RegionSize::new(2.0, 2.0), Selection::All).unwrap();
        assert_eq!(result.count, 5);
        assert_eq!(ds.count_strictly_in(&result.region), 5);
    }

    #[test]
    fn count_matches_region_recount_on_random_data() {
        let ds = UniformGenerator::default().generate(500, 99);
        let result = max_rs(&ds, RegionSize::new(15.0, 12.0), Selection::All).unwrap();
        assert_eq!(ds.count_strictly_in(&result.region), result.count);
        assert!(result.count >= 1);
        assert_eq!(result.region.bottom_left(), result.anchor);
    }

    #[test]
    fn selection_restricts_the_counted_objects() {
        let ds = UniformGenerator::default().generate(400, 5);
        let all = max_rs(&ds, RegionSize::new(20.0, 20.0), Selection::All).unwrap();
        let only_cat0 = max_rs(
            &ds,
            RegionSize::new(20.0, 20.0),
            Selection::cat_equals(0, 0),
        )
        .unwrap();
        assert!(only_cat0.count <= all.count);
        // The reported count only considers category-0 objects.
        let recount = ds
            .objects_strictly_in(&only_cat0.region)
            .iter()
            .filter(|o| o.cat_value(0) == Some(0))
            .count();
        assert_eq!(recount, only_cat0.count);
    }

    #[test]
    fn empty_dataset_returns_zero() {
        let ds = Dataset::new_unchecked(Schema::empty(), vec![]);
        let result = max_rs(&ds, RegionSize::new(1.0, 1.0), Selection::All).unwrap();
        assert_eq!(result.count, 0);
    }

    #[test]
    fn degenerate_size_is_an_error() {
        let ds = UniformGenerator::default().generate(10, 1);
        assert!(matches!(
            max_rs(&ds, RegionSize::new(0.0, 2.0), Selection::All),
            Err(AsrsError::InvalidRegionSize { .. })
        ));
        assert!(matches!(
            max_rs(&ds, RegionSize::new(2.0, f64::NAN), Selection::All),
            Err(AsrsError::InvalidRegionSize { .. })
        ));
    }

    #[test]
    fn single_object_dataset() {
        let mut b = DatasetBuilder::new(Schema::new(vec![]));
        b.push(5.0, 5.0, Vec::<AttrValue>::new());
        let ds = b.build().unwrap();
        let result = max_rs(&ds, RegionSize::new(2.0, 2.0), Selection::All).unwrap();
        assert_eq!(result.count, 1);
        assert!(result.region.strictly_contains_point(&Point::new(5.0, 5.0)));
    }
}
