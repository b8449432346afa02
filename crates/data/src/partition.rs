//! Spatial partitioning: longest-axis recursive splits over a dataset's
//! extent.
//!
//! A [`SpatialPartition`] carves the plane into `n` axis-aligned regions
//! by recursively splitting the longer axis of the dataset's bounding box
//! at an object-count median, so shards stay balanced on clustered data.
//! The edges of the bounding box are then pushed out to infinity: the
//! regions tile the whole plane, not just the seed extent.  Every point
//! [routes](SpatialPartition::route) to exactly one region by the
//! deterministic rule "strictly below the cut goes left, at-or-above goes
//! right", so ownership is never ambiguous for points sitting on a cut,
//! and a point far outside the seed extent still has an owner.
//!
//! The partition is the shard layout of the sharded engine in
//! `asrs-core`: each region induces one anchor slab of the scatter, and the
//! engine counts the objects each region owns.

use crate::Dataset;
use asrs_geo::{Point, Rect};

/// A spatial partition of the plane into `n` shard regions.
///
/// Built by [`SpatialPartition::build`]; the regions tile the plane (outer
/// edges are infinite) and [`SpatialPartition::route`] maps every point to
/// the single region that owns it.
#[derive(Debug, Clone, PartialEq)]
pub struct SpatialPartition {
    regions: Vec<Rect>,
}

/// Which edges of a region under construction are cuts (finite) rather
/// than the bounding box's own edges (pushed out to infinity at the end).
#[derive(Debug, Clone, Copy)]
struct Cuts {
    min_x: bool,
    min_y: bool,
    max_x: bool,
    max_y: bool,
}

impl SpatialPartition {
    /// Partitions the plane into `shards` regions (at least 1) by
    /// longest-axis recursive splitting of `dataset`'s bounding box.
    ///
    /// Degenerate inputs are handled without panicking: duplicate points,
    /// single-axis (collinear) datasets, empty datasets and
    /// `shards > dataset.len()` all produce valid partitions — some
    /// regions simply own no object, and cuts stacked on one line give
    /// regions of zero width that own no point at all.
    pub fn build(dataset: &Dataset, shards: usize) -> Self {
        let shards = shards.max(1);
        let extent = dataset
            .bounding_box()
            .unwrap_or_else(|| Rect::new(0.0, 0.0, 0.0, 0.0));
        let mut partition = SpatialPartition {
            regions: Vec::with_capacity(shards),
        };
        let outer = Cuts {
            min_x: false,
            min_y: false,
            max_x: false,
            max_y: false,
        };
        let indices: Vec<usize> = (0..dataset.len()).collect();
        partition.split(dataset, indices, extent, outer, shards);
        debug_assert_eq!(partition.regions.len(), shards);
        partition
    }

    /// Recursively splits `rect` (holding the objects at `indices`) into
    /// `k` regions, appending them to `self.regions` in deterministic
    /// left-to-right order.
    fn split(
        &mut self,
        dataset: &Dataset,
        mut indices: Vec<usize>,
        rect: Rect,
        cuts: Cuts,
        k: usize,
    ) {
        if k <= 1 {
            let open =
                |is_cut: bool, edge: f64, infinity: f64| if is_cut { edge } else { infinity };
            self.regions.push(Rect::new(
                open(cuts.min_x, rect.min_x, f64::NEG_INFINITY),
                open(cuts.min_y, rect.min_y, f64::NEG_INFINITY),
                open(cuts.max_x, rect.max_x, f64::INFINITY),
                open(cuts.max_y, rect.max_y, f64::INFINITY),
            ));
            return;
        }
        let left_shards = k / 2;
        let right_shards = k - left_shards;
        // Split the longer axis so regions stay roughly square; ties go to
        // the x axis for determinism.
        let split_x = rect.width() >= rect.height();
        let coord = |idx: usize| -> f64 {
            let o = dataset.object(idx);
            if split_x {
                o.location.x
            } else {
                o.location.y
            }
        };
        // Deterministic order: by coordinate, object index breaking ties.
        indices.sort_by(|&a, &b| coord(a).total_cmp(&coord(b)).then(a.cmp(&b)));
        // The cut aims at giving the left branch its proportional share of
        // the objects.  Objects strictly below the cut go left, everything
        // at or above goes right — so runs of duplicate coordinates never
        // straddle the cut.
        let target_left = indices.len() * left_shards / k;
        let cut = if indices.is_empty() {
            if split_x {
                (rect.min_x + rect.max_x) / 2.0
            } else {
                (rect.min_y + rect.max_y) / 2.0
            }
        } else {
            coord(indices[target_left.min(indices.len() - 1)])
        };
        // Clamp into the region so the child rectangles stay valid even for
        // degenerate extents.
        let cut = if split_x {
            cut.clamp(rect.min_x, rect.max_x)
        } else {
            cut.clamp(rect.min_y, rect.max_y)
        };
        let boundary = indices.partition_point(|&idx| coord(idx) < cut);
        let right_indices = indices.split_off(boundary);
        let (left_rect, right_rect, left_cuts, right_cuts) = if split_x {
            (
                Rect::new(rect.min_x, rect.min_y, cut, rect.max_y),
                Rect::new(cut, rect.min_y, rect.max_x, rect.max_y),
                Cuts {
                    max_x: true,
                    ..cuts
                },
                Cuts {
                    min_x: true,
                    ..cuts
                },
            )
        } else {
            (
                Rect::new(rect.min_x, rect.min_y, rect.max_x, cut),
                Rect::new(rect.min_x, cut, rect.max_x, rect.max_y),
                Cuts {
                    max_y: true,
                    ..cuts
                },
                Cuts {
                    min_y: true,
                    ..cuts
                },
            )
        };
        self.split(dataset, indices, left_rect, left_cuts, left_shards);
        self.split(dataset, right_indices, right_rect, right_cuts, right_shards);
    }

    /// The shard regions, tiling the plane.
    pub fn regions(&self) -> &[Rect] {
        &self.regions
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.regions.len()
    }

    /// The shard owning point `p`.
    ///
    /// A region owns the points of its half-open extent
    /// `[min_x, max_x) × [min_y, max_y)` — the at-or-above cut rule — with
    /// its infinite outer edges closed, so every finite or infinite point
    /// has exactly one owner.  A point with a NaN coordinate lies in no
    /// region; it routes to the last one.
    pub fn route(&self, p: &Point) -> usize {
        self.regions
            .iter()
            .position(|r| owns(r, p))
            .unwrap_or(self.regions.len() - 1)
    }
}

/// Whether region `r` owns point `p` (see [`SpatialPartition::route`]).
fn owns(r: &Rect, p: &Point) -> bool {
    let below = |v: f64, max: f64| v < max || max == f64::INFINITY;
    r.min_x <= p.x && r.min_y <= p.y && below(p.x, r.max_x) && below(p.y, r.max_y)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{TweetGenerator, UniformGenerator};
    use crate::{DatasetBuilder, Schema};

    /// Objects per region, by routing.
    fn counts(partition: &SpatialPartition, ds: &Dataset) -> Vec<usize> {
        let mut counts = vec![0; partition.shard_count()];
        for o in ds.objects() {
            counts[partition.route(&o.location)] += 1;
        }
        counts
    }

    /// Asserts the routing contract at `p`: exactly one region owns it,
    /// and `route` names that region.
    fn assert_one_owner(partition: &SpatialPartition, p: Point, label: &str) {
        let owners: Vec<usize> = (0..partition.shard_count())
            .filter(|&i| owns(&partition.regions()[i], &p))
            .collect();
        assert_eq!(owners.len(), 1, "{label}: {p} owned by {owners:?}");
        assert_eq!(partition.route(&p), owners[0], "{label}: {p}");
    }

    /// Seeded sweep standing in for a property test: disjoint interiors,
    /// unbounded outer edges, and a unique owner per object.
    #[test]
    fn partitions_are_disjoint_cover_the_extent_and_assign_uniquely() {
        for seed in 0..5u64 {
            let ds = UniformGenerator::default().generate(180 + seed as usize * 37, seed);
            for shards in [1, 2, 3, 4, 7, 8] {
                let partition = SpatialPartition::build(&ds, shards);
                assert_eq!(partition.shard_count(), shards);
                let regions = partition.regions();
                for (i, a) in regions.iter().enumerate() {
                    for b in regions.iter().skip(i + 1) {
                        assert!(!a.interiors_intersect(b), "{a} overlaps {b}");
                    }
                }
                // The outer edges are unbounded on every side.
                for (edge, infinite) in [
                    (
                        regions
                            .iter()
                            .map(|r| r.min_x)
                            .fold(f64::INFINITY, f64::min),
                        f64::NEG_INFINITY,
                    ),
                    (
                        regions
                            .iter()
                            .map(|r| r.min_y)
                            .fold(f64::INFINITY, f64::min),
                        f64::NEG_INFINITY,
                    ),
                    (
                        regions
                            .iter()
                            .map(|r| r.max_x)
                            .fold(f64::NEG_INFINITY, f64::max),
                        f64::INFINITY,
                    ),
                    (
                        regions
                            .iter()
                            .map(|r| r.max_y)
                            .fold(f64::NEG_INFINITY, f64::max),
                        f64::INFINITY,
                    ),
                ] {
                    assert_eq!(edge, infinite, "shards={shards}");
                }
                // Every object has one owner, whose region contains it.
                for o in ds.objects() {
                    assert_one_owner(&partition, o.location, "object");
                    assert!(regions[partition.route(&o.location)].contains_point(&o.location));
                }
                assert_eq!(counts(&partition, &ds).iter().sum::<usize>(), ds.len());
            }
        }
    }

    /// The routing contract: every point of the plane — objects, points on
    /// cut lines and region corners, and points outside the seed extent —
    /// routes to exactly one region, for empty, collinear and
    /// duplicate-point seeds as well as ordinary ones.
    #[test]
    fn every_point_routes_to_exactly_one_region() {
        let uniform = UniformGenerator::default().generate(60, 5);
        let mut b = DatasetBuilder::new(Schema::empty());
        for i in 0..12 {
            b.push(i as f64, 5.0, vec![]);
        }
        let collinear = b.build().unwrap();
        let mut b = DatasetBuilder::new(Schema::empty());
        for _ in 0..10 {
            b.push(3.0, 4.0, vec![]);
        }
        let duplicates = b.build().unwrap();
        let empty = Dataset::new_unchecked(Schema::empty(), vec![]);
        for (name, ds) in [
            ("uniform", &uniform),
            ("collinear", &collinear),
            ("duplicates", &duplicates),
            ("empty", &empty),
        ] {
            for k in [1, 2, 4, 7] {
                let partition = SpatialPartition::build(ds, k);
                let label = format!("{name}, k={k}");
                let extent = ds
                    .bounding_box()
                    .unwrap_or_else(|| Rect::new(0.0, 0.0, 0.0, 0.0));
                // Every finite region edge value, plus the extent's edges
                // and points beyond them, on both axes.
                let mut xs = vec![
                    extent.min_x - 50.0,
                    extent.min_x,
                    extent.max_x,
                    extent.max_x + 50.0,
                ];
                let mut ys = vec![
                    extent.min_y - 50.0,
                    extent.min_y,
                    extent.max_y,
                    extent.max_y + 50.0,
                ];
                for r in partition.regions() {
                    xs.extend([r.min_x, r.max_x].into_iter().filter(|v| v.is_finite()));
                    ys.extend([r.min_y, r.max_y].into_iter().filter(|v| v.is_finite()));
                }
                xs.extend([f64::NEG_INFINITY, f64::INFINITY]);
                ys.extend([f64::NEG_INFINITY, f64::INFINITY]);
                for &x in &xs {
                    for &y in &ys {
                        assert_one_owner(&partition, Point::new(x, y), &label);
                    }
                }
                for o in ds.objects() {
                    assert_one_owner(&partition, o.location, &label);
                }
                // A NaN coordinate has no owner but still routes.
                assert_eq!(partition.route(&Point::new(f64::NAN, 0.0)), k - 1);
            }
        }
    }

    #[test]
    fn clustered_data_stays_balanced() {
        let ds = TweetGenerator::compact(8).generate(400, 11);
        let partition = SpatialPartition::build(&ds, 4);
        for count in counts(&partition, &ds) {
            // Median splits keep every shard within a factor of the ideal
            // quarter even on clustered data.
            assert!(count >= 40, "shard holds only {count} of 400");
            assert!(count <= 200);
        }
    }

    #[test]
    fn degenerate_inputs_do_not_panic() {
        // All-duplicate points: every object shares one location.
        let mut b = DatasetBuilder::new(Schema::empty());
        for _ in 0..10 {
            b.push(3.0, 4.0, vec![]);
        }
        let ds = b.build().unwrap();
        let partition = SpatialPartition::build(&ds, 4);
        assert_eq!(partition.shard_count(), 4);
        let populated = counts(&partition, &ds).iter().filter(|&&c| c > 0).count();
        assert_eq!(populated, 1, "duplicates all land in one shard");

        // Single-axis (collinear) dataset.
        let mut b = DatasetBuilder::new(Schema::empty());
        for i in 0..12 {
            b.push(i as f64, 5.0, vec![]);
        }
        let ds = b.build().unwrap();
        let partition = SpatialPartition::build(&ds, 3);
        for o in ds.objects() {
            assert!(partition.regions()[partition.route(&o.location)].contains_point(&o.location));
        }

        // More shards than objects: the extras are simply empty.
        let mut b = DatasetBuilder::new(Schema::empty());
        for i in 0..5 {
            b.push(i as f64, i as f64, vec![]);
        }
        let ds = b.build().unwrap();
        let partition = SpatialPartition::build(&ds, 7);
        assert_eq!(partition.shard_count(), 7);
        let counts = counts(&partition, &ds);
        assert_eq!(counts.iter().sum::<usize>(), 5);
        assert!(counts.contains(&0));

        // Empty dataset.
        let empty = Dataset::new_unchecked(Schema::empty(), vec![]);
        assert_eq!(SpatialPartition::build(&empty, 3).shard_count(), 3);

        // Zero shards clamps to one.
        assert_eq!(SpatialPartition::build(&empty, 0).shard_count(), 1);
    }

    #[test]
    fn partitions_are_deterministic() {
        let ds = UniformGenerator::default().generate(250, 3);
        let a = SpatialPartition::build(&ds, 5);
        let b = SpatialPartition::build(&ds, 5);
        assert_eq!(a, b);
    }
}
