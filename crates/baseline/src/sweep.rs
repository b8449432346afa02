//! The sweep-line baseline `Base` for the ASRS problem (Section 4.1).
//!
//! The baseline works on the reduced ASP instance.  A vertical sweep line
//! moves across the distinct x coordinates of rectangle edges; between two
//! consecutive coordinates the set of active rectangles is fixed, and the
//! active rectangles' horizontal edges divide the sweep line into intervals
//! whose covering sets are fixed as well (these intervals are exactly the
//! disjoint regions of Lemma 2 restricted to the slab).  Every interval is
//! evaluated, giving the exact optimum in `O(n²)` interval evaluations —
//! the complexity the paper reports for the baseline.

use asrs_aggregator::{CompositeAggregator, FeatureVector};
use asrs_core::asp::AspInstance;
use asrs_core::{AsrsError, AsrsQuery};
use asrs_data::Dataset;
use asrs_geo::{Point, Rect};
use std::time::{Duration, Instant};

/// Result of a baseline search.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineAnswer {
    /// Bottom-left corner of the best region found.
    pub anchor: Point,
    /// The best region.
    pub region: Rect,
    /// Its distance to the query representation.
    pub distance: f64,
    /// Its aggregate representation.
    pub representation: FeatureVector,
    /// Number of (slab, interval) candidates evaluated.
    pub candidates_evaluated: u64,
    /// Wall-clock time of the search.
    pub elapsed: Duration,
}

/// The sweep-line baseline solver.
pub struct SweepBase<'a> {
    dataset: &'a Dataset,
    aggregator: &'a CompositeAggregator,
}

impl<'a> SweepBase<'a> {
    /// Creates a baseline solver.
    pub fn new(dataset: &'a Dataset, aggregator: &'a CompositeAggregator) -> Self {
        Self {
            dataset,
            aggregator,
        }
    }

    /// Solves the ASRS problem exactly with the sweep-line algorithm.
    ///
    /// # Errors
    ///
    /// [`AsrsError::Query`] when the query does not match the aggregator.
    pub fn search(&self, query: &AsrsQuery) -> Result<BaselineAnswer, AsrsError> {
        query.validate(self.aggregator)?;
        let started = Instant::now();
        let asp = AspInstance::build(self.dataset, query.size);
        let dims = self.aggregator.stats_dim();

        // Empty-region candidate: a point outside every rectangle.
        let far = match asp.space() {
            Some(space) => Point::new(
                space.max_x + query.size.width,
                space.max_y + query.size.height,
            ),
            None => Point::origin(),
        };
        let zero_rep = self.aggregator.stats_to_features(&vec![0.0; dims]);
        let mut best_distance =
            self.aggregator
                .distance(&zero_rep, &query.target, &query.weights, query.metric);
        let mut best_anchor = far;
        let mut best_rep = zero_rep;
        let mut candidates_evaluated = 0u64;

        if !asp.rects().is_empty() {
            // Distinct x coordinates of vertical edges, in increasing order.
            let mut xs: Vec<f64> = asp
                .rects()
                .iter()
                .flat_map(|r| [r.rect.min_x, r.rect.max_x])
                .collect();
            xs.sort_by(|a, b| a.partial_cmp(b).expect("finite coordinates"));
            xs.dedup();

            // Pre-computed statistics contribution of every rectangle.
            let mut contribs: Vec<Vec<f64>> = Vec::with_capacity(asp.rects().len());
            for r in asp.rects() {
                let mut c = vec![0.0; dims];
                self.aggregator
                    .accumulate_object(self.dataset.object(r.object_idx as usize), &mut c);
                contribs.push(c);
            }

            for w in xs.windows(2) {
                let (x_lo, x_hi) = (w[0], w[1]);
                let slab_mid_x = (x_lo + x_hi) / 2.0;
                // Active rectangles cover the whole open slab (x_lo, x_hi).
                let active: Vec<usize> = asp
                    .rects()
                    .iter()
                    .enumerate()
                    .filter(|(_, r)| r.rect.min_x <= x_lo && r.rect.max_x >= x_hi)
                    .map(|(i, _)| i)
                    .collect();
                if active.is_empty() {
                    continue;
                }
                // Vertical sweep within the slab: events at the horizontal
                // edges of the active rectangles.
                let mut events: Vec<(f64, bool, usize)> = Vec::with_capacity(active.len() * 2);
                for &i in &active {
                    let r = &asp.rects()[i].rect;
                    events.push((r.min_y, true, i));
                    events.push((r.max_y, false, i));
                }
                events.sort_by(|a, b| {
                    a.0.partial_cmp(&b.0)
                        .expect("finite coordinates")
                        .then_with(|| b.1.cmp(&a.1))
                });

                let mut running = vec![0.0; dims];
                let mut cover = 0usize;
                let mut idx = 0usize;
                while idx < events.len() {
                    let y = events[idx].0;
                    // Apply every event at this y: closings first (they were
                    // sorted so that removals at equal y come after
                    // additions; order within a single y does not matter
                    // because the interval evaluated next starts at y).
                    while idx < events.len() && events[idx].0 == y {
                        let (_, is_start, rect_idx) = events[idx];
                        let c = &contribs[rect_idx];
                        if is_start {
                            for (slot, v) in running.iter_mut().zip(c) {
                                *slot += v;
                            }
                            cover += 1;
                        } else {
                            for (slot, v) in running.iter_mut().zip(c) {
                                *slot -= v;
                            }
                            cover -= 1;
                        }
                        idx += 1;
                    }
                    if cover == 0 {
                        continue;
                    }
                    // The interval from this y to the next event has a fixed
                    // covering set; evaluate its midpoint.
                    let next_y = events[idx].0;
                    if next_y <= y {
                        continue;
                    }
                    candidates_evaluated += 1;
                    let rep = self.aggregator.stats_to_features(&running);
                    let d =
                        self.aggregator
                            .distance(&rep, &query.target, &query.weights, query.metric);
                    if d < best_distance {
                        best_distance = d;
                        best_anchor = Point::new(slab_mid_x, (y + next_y) / 2.0);
                        best_rep = rep;
                    }
                }
            }
        }

        Ok(BaselineAnswer {
            anchor: best_anchor,
            region: Rect::from_bottom_left(best_anchor, query.size),
            distance: best_distance,
            representation: best_rep,
            candidates_evaluated,
            elapsed: started.elapsed(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::naive_best_region;
    use asrs_aggregator::{FeatureVector, Selection, Weights};
    use asrs_data::gen::UniformGenerator;
    use asrs_data::{AttrValue, AttributeDef, AttributeKind, DatasetBuilder, Schema};
    use asrs_geo::RegionSize;

    fn colored_dataset() -> Dataset {
        let schema = Schema::new(vec![AttributeDef::new(
            "color",
            AttributeKind::categorical(2),
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
    fn sweep_finds_the_perfect_region_in_the_fig2_instance() {
        let ds = colored_dataset();
        let agg = CompositeAggregator::builder(ds.schema())
            .distribution("color", Selection::All)
            .build()
            .unwrap();
        let query = AsrsQuery::new(
            RegionSize::new(3.0, 3.0),
            FeatureVector::new(vec![1.0, 1.0]),
            Weights::uniform(2),
        );
        let ans = SweepBase::new(&ds, &agg).search(&query).unwrap();
        assert!(ans.distance.abs() < 1e-9);
        assert_eq!(
            agg.aggregate_region(&ds, &ans.region).as_slice(),
            &[1.0, 1.0]
        );
        assert!(ans.candidates_evaluated > 0);
    }

    #[test]
    fn sweep_agrees_with_the_naive_oracle_on_random_data() {
        for seed in 0..5 {
            let ds = UniformGenerator::default().generate(40, seed);
            let agg = CompositeAggregator::builder(ds.schema())
                .distribution("category", Selection::All)
                .build()
                .unwrap();
            let query = AsrsQuery::new(
                RegionSize::new(18.0, 14.0),
                FeatureVector::new(vec![2.0, 1.0, 3.0, 0.0]),
                Weights::uniform(4),
            );
            let sweep = SweepBase::new(&ds, &agg).search(&query).unwrap();
            let oracle = naive_best_region(&ds, &agg, &query).unwrap();
            assert!(
                (sweep.distance - oracle.distance).abs() < 1e-9,
                "seed {seed}: sweep {} vs oracle {}",
                sweep.distance,
                oracle.distance
            );
        }
    }

    #[test]
    fn sweep_reports_consistent_representation() {
        let ds = UniformGenerator::default().generate(60, 9);
        let agg = CompositeAggregator::builder(ds.schema())
            .distribution("category", Selection::All)
            .build()
            .unwrap();
        let query = AsrsQuery::new(
            RegionSize::new(25.0, 20.0),
            FeatureVector::new(vec![1.0, 1.0, 1.0, 1.0]),
            Weights::uniform(4),
        );
        let ans = SweepBase::new(&ds, &agg).search(&query).unwrap();
        let direct = agg.aggregate_region(&ds, &ans.region);
        assert_eq!(direct, ans.representation);
        let d = agg.distance(&direct, &query.target, &query.weights, query.metric);
        assert!((d - ans.distance).abs() < 1e-9);
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
            FeatureVector::new(vec![5.0]),
            Weights::uniform(1),
        );
        let ans = SweepBase::new(&ds, &agg).search(&query).unwrap();
        assert_eq!(ans.distance, 5.0);
        assert_eq!(ans.candidates_evaluated, 0);
    }
}
