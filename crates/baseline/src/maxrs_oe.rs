//! The Optimal Enclosure (OE) sweep-line algorithm for MaxRS.
//!
//! OE is the `O(n log n)` state-of-the-art exact algorithm the paper
//! compares against in Section 7.5.  It sweeps the reduced ASP rectangles
//! left-to-right; a segment tree over the compressed y-intervals maintains,
//! for the current slab, how many rectangles cover each elementary
//! y-interval.  The largest count observed over the whole sweep is the
//! MaxRS optimum, and the slab/interval where it was observed yields an
//! optimal region.

use crate::segment_tree::MaxAddSegmentTree;
use asrs_core::asp::AspInstance;
use asrs_core::AsrsError;
use asrs_data::Dataset;
use asrs_geo::{Point, Rect, RegionSize};
use std::time::{Duration, Instant};

/// Result of an OE MaxRS run.
#[derive(Debug, Clone, PartialEq)]
pub struct MaxRsOutcome {
    /// The region enclosing the maximum number of objects.
    pub region: Rect,
    /// Bottom-left corner of the region.
    pub anchor: Point,
    /// Number of objects strictly inside the region.
    pub count: usize,
    /// Wall-clock time.
    pub elapsed: Duration,
}

/// The Optimal Enclosure solver.
pub struct OptimalEnclosure<'a> {
    dataset: &'a Dataset,
    size: RegionSize,
}

impl<'a> OptimalEnclosure<'a> {
    /// Creates a solver for regions of the given size.
    pub fn new(dataset: &'a Dataset, size: RegionSize) -> Self {
        Self { dataset, size }
    }

    /// Runs the sweep and returns the optimal region.
    ///
    /// # Errors
    ///
    /// [`AsrsError::InvalidRegionSize`] when the region size is
    /// non-positive or non-finite.
    pub fn search(&self) -> Result<MaxRsOutcome, AsrsError> {
        if !self.size.is_valid() {
            return Err(AsrsError::InvalidRegionSize {
                width: self.size.width,
                height: self.size.height,
            });
        }
        let started = Instant::now();
        let asp = AspInstance::build(self.dataset, self.size);
        if asp.rects().is_empty() {
            let anchor = Point::origin();
            return Ok(MaxRsOutcome {
                region: Rect::from_bottom_left(anchor, self.size),
                anchor,
                count: 0,
                elapsed: started.elapsed(),
            });
        }

        // Compress the y coordinates of horizontal edges.
        let mut ys: Vec<f64> = asp
            .rects()
            .iter()
            .flat_map(|r| [r.rect.min_y, r.rect.max_y])
            .collect();
        ys.sort_by(|a, b| a.partial_cmp(b).expect("finite coordinates"));
        ys.dedup();
        let slot_of = |y: f64| -> usize {
            ys.binary_search_by(|v| v.partial_cmp(&y).expect("finite coordinates"))
                .expect("edge coordinate must be present")
        };
        let slots = (ys.len() - 1).max(1);
        let mut tree = MaxAddSegmentTree::new(slots);

        // Sweep events over the distinct x coordinates.
        let mut xs: Vec<f64> = asp
            .rects()
            .iter()
            .flat_map(|r| [r.rect.min_x, r.rect.max_x])
            .collect();
        xs.sort_by(|a, b| a.partial_cmp(b).expect("finite coordinates"));
        xs.dedup();

        // Bucket rectangle starts and ends per x coordinate.
        let x_slot = |x: f64| -> usize {
            xs.binary_search_by(|v| v.partial_cmp(&x).expect("finite coordinates"))
                .expect("edge coordinate must be present")
        };
        let mut starts: Vec<Vec<usize>> = vec![Vec::new(); xs.len()];
        let mut ends: Vec<Vec<usize>> = vec![Vec::new(); xs.len()];
        for (i, r) in asp.rects().iter().enumerate() {
            starts[x_slot(r.rect.min_x)].push(i);
            ends[x_slot(r.rect.max_x)].push(i);
        }

        let mut best_count = 0.0f64;
        let mut best_slab = 0usize;
        let mut best_slot = 0usize;
        for (xi, _) in xs.iter().enumerate() {
            // Rectangles ending here no longer cover the slab to the right.
            for &ri in &ends[xi] {
                let r = &asp.rects()[ri].rect;
                tree.range_add(slot_of(r.min_y), slot_of(r.max_y), -1.0);
            }
            // Rectangles starting here cover the slab to the right.
            for &ri in &starts[xi] {
                let r = &asp.rects()[ri].rect;
                tree.range_add(slot_of(r.min_y), slot_of(r.max_y), 1.0);
            }
            if xi + 1 == xs.len() {
                break;
            }
            let (max, slot) = tree.global_max();
            if max > best_count {
                best_count = max;
                best_slab = xi;
                best_slot = slot;
            }
        }

        let anchor = Point::new(
            (xs[best_slab] + xs[best_slab + 1]) / 2.0,
            (ys[best_slot] + ys[(best_slot + 1).min(ys.len() - 1)]) / 2.0,
        );
        let region = Rect::from_bottom_left(anchor, self.size);
        // Recount exactly: immune to any floating-point drift in the tree.
        let count = self.dataset.count_strictly_in(&region);
        debug_assert_eq!(count, best_count as usize);
        Ok(MaxRsOutcome {
            region,
            anchor,
            count,
            elapsed: started.elapsed(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::naive_maxrs_count;
    use asrs_data::gen::UniformGenerator;
    use asrs_data::{DatasetBuilder, Schema};

    #[test]
    fn finds_a_dense_cluster() {
        let mut b = DatasetBuilder::new(Schema::empty());
        for (x, y) in [(5.0, 5.0), (5.2, 5.1), (5.4, 5.3), (5.1, 5.6), (30.0, 30.0)] {
            b.push(x, y, vec![]);
        }
        let ds = b.build().unwrap();
        let outcome = OptimalEnclosure::new(&ds, RegionSize::new(1.0, 1.0))
            .search()
            .unwrap();
        assert_eq!(outcome.count, 4);
        assert_eq!(ds.count_strictly_in(&outcome.region), 4);
    }

    #[test]
    fn agrees_with_the_naive_oracle() {
        for seed in 0..6 {
            let ds = UniformGenerator::default().generate(60, seed);
            let outcome = OptimalEnclosure::new(&ds, RegionSize::new(12.0, 10.0))
                .search()
                .unwrap();
            let oracle = naive_maxrs_count(&ds, 12.0, 10.0).unwrap();
            assert_eq!(outcome.count, oracle, "seed {seed}");
        }
    }

    #[test]
    fn empty_dataset_returns_zero() {
        let ds = Dataset::new_unchecked(Schema::empty(), vec![]);
        let outcome = OptimalEnclosure::new(&ds, RegionSize::new(2.0, 2.0))
            .search()
            .unwrap();
        assert_eq!(outcome.count, 0);
    }

    #[test]
    fn single_object() {
        let mut b = DatasetBuilder::new(Schema::empty());
        b.push(1.0, 1.0, vec![]);
        let ds = b.build().unwrap();
        let outcome = OptimalEnclosure::new(&ds, RegionSize::new(3.0, 3.0))
            .search()
            .unwrap();
        assert_eq!(outcome.count, 1);
        assert!(outcome
            .region
            .strictly_contains_point(&Point::new(1.0, 1.0)));
    }

    #[test]
    fn anchor_is_region_bottom_left() {
        let ds = UniformGenerator::default().generate(80, 3);
        let outcome = OptimalEnclosure::new(&ds, RegionSize::new(10.0, 10.0))
            .search()
            .unwrap();
        assert_eq!(outcome.region.bottom_left(), outcome.anchor);
        assert!(outcome.count >= 1);
    }
}
