//! The intermediate-result container shared by every search backend.
//!
//! DS-Search's pseudo-code tracks a single best-so-far candidate `d_opt`.
//! [`BestSet`] generalises that to the *k* best candidates with pairwise
//! distinct anchors, which is what a top-k request needs: with capacity 1 it
//! behaves exactly like the scalar tracker (its [`BestSet::cutoff`] is the
//! current best distance), with capacity k the cutoff is the k-th best
//! distance, which keeps every pruning rule of the paper sound — a
//! sub-space or index cell may be dropped only when it cannot contribute
//! any of the k best anchors.

use crate::asp::EdgeSnapper;
use crate::error::AsrsError;
use crate::result::SearchResult;
use crate::stats::SearchStats;
use asrs_aggregator::FeatureVector;
use asrs_geo::{Point, Rect, RegionSize};
use std::sync::Arc;

/// The error a search reports when it retained no candidate at all: every
/// offered distance — the empty-region seed's included — was non-finite.
/// Reachable only with a pathological aggregator/metric combination (e.g.
/// an L2 distance overflowing to ∞ on a ~1e200 target), and reported as a
/// value rather than the panic the old `.expect("the empty-region
/// candidate guarantees one result")` call sites produced.
pub(crate) fn no_finite_candidate() -> AsrsError {
    AsrsError::Internal {
        message: "search retained no candidate: every offered distance was non-finite".to_string(),
    }
}

/// One retained candidate: an ASP answer point with its distance and
/// aggregate representation.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct BestEntry {
    pub distance: f64,
    pub anchor: Point,
    pub representation: FeatureVector,
}

/// The `k` best candidates seen so far, ordered by ascending distance,
/// with pairwise distinct anchor points.
///
/// Every offered anchor is snapped to the canonical representative of its
/// arrangement cell first (see [`EdgeSnapper`]), so a candidate's identity
/// is a property of the instance rather than of the decomposition that
/// probed it.  Ties are broken deterministically: entries with equal
/// distances are ordered by anchor `(y, x)`, and a full set replaces its
/// worst entry whenever a new candidate precedes it under that total
/// order.  The final contents therefore do not depend on the order in
/// which equally-good candidates were discovered, which is what makes
/// every slab plan, batch and top-k answer reproducible across plans, runs
/// and thread schedules.
#[derive(Debug, Clone)]
pub(crate) struct BestSet {
    capacity: usize,
    entries: Vec<BestEntry>,
    /// Candidates rejected because their distance was not finite; surfaced
    /// as [`SearchStats::non_finite_candidates`](crate::SearchStats).
    non_finite_rejected: u64,
    snapper: Arc<EdgeSnapper>,
}

/// Strict "precedes" under the total order (distance, anchor.y, anchor.x).
/// Distances are finite because [`BestSet::offer`] rejects non-finite ones
/// at the insertion boundary, so `total_cmp` ties exactly with `==` on the
/// values that reach the set.
fn precedes(d_a: f64, a: &Point, d_b: f64, b: &Point) -> bool {
    d_a.total_cmp(&d_b)
        .then(a.y.total_cmp(&b.y))
        .then(a.x.total_cmp(&b.x))
        .is_lt()
}

impl BestSet {
    /// An empty set of `capacity` entries whose anchors `snapper` snaps.
    pub fn new(capacity: usize, snapper: Arc<EdgeSnapper>) -> Self {
        debug_assert!(capacity >= 1);
        Self {
            capacity,
            entries: Vec::with_capacity(capacity),
            non_finite_rejected: 0,
            snapper,
        }
    }

    /// An empty set with this set's capacity and snapper.
    pub fn emptied(&self) -> Self {
        Self::new(self.capacity, Arc::clone(&self.snapper))
    }

    /// Number of candidates rejected for a non-finite distance.
    pub fn non_finite_rejected(&self) -> u64 {
        self.non_finite_rejected
    }

    /// The pruning threshold: no candidate with a distance at or above the
    /// cutoff can improve the set.
    #[inline]
    pub fn cutoff(&self) -> f64 {
        if self.entries.len() < self.capacity {
            f64::INFINITY
        } else {
            self.entries
                .last()
                .map(|e| e.distance)
                .unwrap_or(f64::INFINITY)
        }
    }

    /// Offers a candidate; it is inserted when it improves the set — a
    /// better distance than the current worst, an equal distance with an
    /// anchor that precedes the worst's, or a better distance for an
    /// already-retained anchor.
    ///
    /// A non-finite distance (NaN/∞ from a pathological aggregator) would
    /// silently corrupt the `(distance, anchor.y, anchor.x)` total order —
    /// `total_cmp` sorts NaN *above* ∞, so a NaN entry could pin the cutoff
    /// at a value every real candidate "fails" to beat.  Such candidates
    /// are rejected here, at the single insertion boundary shared by every
    /// backend, and counted (see [`BestSet::non_finite_rejected`]).
    pub fn offer(&mut self, distance: f64, anchor: Point, representation: FeatureVector) {
        if !distance.is_finite() {
            self.non_finite_rejected += 1;
            return;
        }
        let anchor = self.snapper.snap(anchor);
        self.offer_at(distance, anchor, representation);
    }

    /// Offers one candidate per arrangement cell of a uniform-covering
    /// region.
    ///
    /// The searches evaluate whole windows (clean cells, resolve-window
    /// fragments) whose covering — hence distance and representation — is
    /// constant, but which generically span several *global* arrangement
    /// cells: distinct, equally good candidates.  Every arrangement cell
    /// inside the region is a candidate, so the retained candidates do not
    /// depend on how the space was carved into windows.  They all share
    /// `distance` and the order is `(distance, y, x)`, so their
    /// representatives arrive in `(y, x)` order and only the first
    /// `capacity` can be retained: once they are offered, the set is full
    /// and its worst entry precedes every later one.  So only those are
    /// offered, read lazily from the first `capacity` representatives of
    /// each axis, and a full set first tests the region's minimal
    /// representative and skips the region when even that cannot improve
    /// the set.
    pub fn offer_region(&mut self, distance: f64, region: &Rect, representation: FeatureVector) {
        if !distance.is_finite() {
            self.non_finite_rejected += 1;
            return;
        }
        if let Some(worst) = self.entries.get(self.capacity - 1) {
            let first = self.snapper.first_rep_within(region);
            // Equal anchors always carry equal distances (a cell's
            // covering determines both), so a region that cannot precede
            // the worst entry cannot change the set at all.
            if !precedes(distance, &first, worst.distance, &worst.anchor) {
                return;
            }
        }
        let xs: Vec<f64> = self
            .snapper
            .x_reps_within(region.min_x, region.max_x)
            .take(self.capacity)
            .collect();
        let anchors: Vec<Point> = self
            .snapper
            .y_reps_within(region.min_y, region.max_y)
            .flat_map(|y| xs.iter().map(move |&x| Point::new(x, y)))
            .take(self.capacity)
            .collect();
        for anchor in anchors {
            self.offer_at(distance, anchor, representation.clone());
        }
    }

    /// The insertion core shared by [`BestSet::offer`] (which snaps first)
    /// and [`BestSet::offer_region`] (whose representatives are canonical
    /// already).
    fn offer_at(&mut self, distance: f64, anchor: Point, representation: FeatureVector) {
        if let Some(existing) = self.entries.iter().position(|e| e.anchor == anchor) {
            if distance < self.entries[existing].distance {
                self.entries.remove(existing);
            } else {
                return;
            }
        } else if self.entries.len() >= self.capacity {
            // lint:allow(entries.len() >= capacity >= 1 inside this branch, so last() cannot be None)
            let worst = self.entries.last().expect("capacity >= 1");
            if !precedes(distance, &anchor, worst.distance, &worst.anchor) {
                return;
            }
        }
        let at = self
            .entries
            .partition_point(|e| precedes(e.distance, &e.anchor, distance, &anchor));
        self.entries.insert(
            at,
            BestEntry {
                distance,
                anchor,
                representation,
            },
        );
        self.entries.truncate(self.capacity);
    }

    /// The single best entry.  Panics when the set is empty; every search
    /// seeds the set with the empty-region candidate before offering more.
    #[cfg(test)]
    pub fn best(&self) -> &BestEntry {
        &self.entries[0]
    }

    /// All retained entries, best first.
    pub fn into_entries(self) -> Vec<BestEntry> {
        self.entries
    }
}

/// Converts a finished [`BestSet`] into search results, best first, and
/// counts the candidates it rejected into the run's `stats`.
pub(crate) fn best_to_results(
    best: BestSet,
    size: RegionSize,
    stats: &mut SearchStats,
) -> Vec<SearchResult> {
    stats.non_finite_candidates += best.non_finite_rejected();
    best.into_entries()
        .into_iter()
        .map(|e| {
            SearchResult::new(
                e.anchor,
                Rect::from_bottom_left(e.anchor, size),
                e.distance,
                e.representation,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asp::tests::{snapper_of, Seeded};

    /// A set over an instance without edges, where snapping is the
    /// identity.
    fn unsnapped(capacity: usize) -> BestSet {
        BestSet::new(capacity, Arc::new(crate::asp::tests::unsnapped()))
    }

    fn offer(set: &mut BestSet, d: f64, x: f64) {
        set.offer(d, Point::new(x, 0.0), FeatureVector::new(vec![d]));
    }

    #[test]
    fn capacity_one_behaves_like_a_scalar_tracker() {
        let mut set = unsnapped(1);
        assert_eq!(set.cutoff(), f64::INFINITY);
        offer(&mut set, 5.0, 1.0);
        assert_eq!(set.cutoff(), 5.0);
        offer(&mut set, 7.0, 2.0); // worse: rejected
        assert_eq!(set.best().distance, 5.0);
        offer(&mut set, 2.0, 3.0);
        assert_eq!(set.best().distance, 2.0);
        assert_eq!(set.cutoff(), 2.0);
    }

    #[test]
    fn keeps_the_k_best_in_order() {
        let mut set = unsnapped(3);
        for (d, x) in [(4.0, 1.0), (1.0, 2.0), (3.0, 3.0), (2.0, 4.0), (5.0, 5.0)] {
            offer(&mut set, d, x);
        }
        let distances: Vec<f64> = set.into_entries().iter().map(|e| e.distance).collect();
        assert_eq!(distances, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn cutoff_is_the_kth_distance_once_full() {
        let mut set = unsnapped(2);
        assert_eq!(set.cutoff(), f64::INFINITY);
        offer(&mut set, 4.0, 1.0);
        assert_eq!(set.cutoff(), f64::INFINITY);
        offer(&mut set, 6.0, 2.0);
        assert_eq!(set.cutoff(), 6.0);
        offer(&mut set, 1.0, 3.0);
        assert_eq!(set.cutoff(), 4.0);
    }

    #[test]
    fn duplicate_anchors_keep_the_better_distance() {
        let mut set = unsnapped(3);
        offer(&mut set, 4.0, 1.0);
        offer(&mut set, 2.0, 1.0); // same anchor, better: replaces
        assert_eq!(set.into_entries().len(), 1);

        let mut set = unsnapped(3);
        offer(&mut set, 2.0, 1.0);
        offer(&mut set, 4.0, 1.0); // same anchor, worse: ignored
        let entries = set.into_entries();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].distance, 2.0);
    }

    #[test]
    fn equal_distances_with_distinct_anchors_all_fit() {
        let mut set = unsnapped(3);
        offer(&mut set, 1.0, 1.0);
        offer(&mut set, 1.0, 2.0);
        offer(&mut set, 1.0, 3.0);
        assert_eq!(set.into_entries().len(), 3);
    }

    #[test]
    fn non_finite_distances_are_rejected_and_counted() {
        // Regression test: a NaN distance used to be inserted and, because
        // total_cmp orders NaN above +inf, could corrupt the top-k order
        // and freeze the pruning cutoff.  It must be skipped instead.
        let mut set = unsnapped(2);
        offer(&mut set, 3.0, 1.0);
        offer(&mut set, f64::NAN, 2.0);
        offer(&mut set, f64::INFINITY, 3.0);
        offer(&mut set, f64::NEG_INFINITY, 4.0);
        offer(&mut set, 1.0, 5.0);
        assert_eq!(set.non_finite_rejected(), 3);
        assert_eq!(set.cutoff(), 3.0, "cutoff must ignore rejected entries");
        let entries = set.into_entries();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].distance, 1.0);
        assert_eq!(entries[1].distance, 3.0);
        assert!(entries.iter().all(|e| e.distance.is_finite()));
    }

    #[test]
    fn rejected_candidates_surface_in_search_stats() {
        let mut set = unsnapped(1);
        offer(&mut set, f64::NAN, 1.0);
        offer(&mut set, 2.0, 2.0);
        let mut stats = SearchStats::new();
        let results = best_to_results(set, RegionSize::new(1.0, 1.0), &mut stats);
        assert_eq!(results.len(), 1);
        assert_eq!(stats.non_finite_candidates, 1);
    }

    #[test]
    fn tie_breaking_is_independent_of_offer_order() {
        // Six candidates, two of them tied at the capacity boundary: every
        // permutation of the offer order must retain the same entries in
        // the same order (ties broken by anchor).
        let candidates = [
            (2.0, 5.0),
            (1.0, 9.0),
            (2.0, 1.0),
            (3.0, 4.0),
            (2.0, 3.0),
            (0.5, 7.0),
        ];
        let mut reference: Option<Vec<(f64, f64)>> = None;
        for rotation in 0..candidates.len() {
            let mut set = unsnapped(3);
            for i in 0..candidates.len() {
                let (d, x) = candidates[(i + rotation) % candidates.len()];
                offer(&mut set, d, x);
            }
            let got: Vec<(f64, f64)> = set
                .into_entries()
                .iter()
                .map(|e| (e.distance, e.anchor.x))
                .collect();
            match &reference {
                None => reference = Some(got),
                Some(expected) => assert_eq!(&got, expected, "rotation {rotation}"),
            }
        }
        // The retained set is the 3 smallest under (distance, y, x):
        // 0.5, 1.0, then the tie at 2.0 won by the smaller x.
        assert_eq!(reference.unwrap(), vec![(0.5, 7.0), (1.0, 9.0), (2.0, 1.0)]);
    }

    #[test]
    fn a_region_offers_what_its_full_enumeration_would_retain() {
        // Over random edge tables, prior entries, regions and capacities
        // 1–4, offering a region's first `capacity` representatives leaves
        // the same entries as offering every (x, y) pair of them.
        let mut rng = Seeded(29);
        let coordinate = |rng: &mut Seeded| rng.below(48) as f64 / 4.0 - 1.0;
        for case in 0..3000 {
            let edges = |rng: &mut Seeded| -> Vec<f64> {
                (0..rng.below(12)).map(|_| coordinate(rng)).collect()
            };
            let (xs, ys) = (edges(&mut rng), edges(&mut rng));
            let snapper = Arc::new(snapper_of(xs, ys));
            let capacity = 1 + rng.below(4);
            let mut set = BestSet::new(capacity, Arc::clone(&snapper));
            for _ in 0..rng.below(6) {
                let d = rng.below(3) as f64;
                let anchor = Point::new(coordinate(&mut rng), coordinate(&mut rng));
                set.offer(d, anchor, FeatureVector::new(vec![d]));
            }
            let (x0, x1) = (coordinate(&mut rng), coordinate(&mut rng));
            let (y0, y1) = (coordinate(&mut rng), coordinate(&mut rng));
            let region = Rect::new(x0.min(x1), y0.min(y1), x0.max(x1), y0.max(y1));
            let d = rng.below(3) as f64;
            let representation = FeatureVector::new(vec![d, 1.0]);
            let mut full = set.clone();
            let xs: Vec<f64> = snapper.x_reps_within(region.min_x, region.max_x).collect();
            for y in snapper.y_reps_within(region.min_y, region.max_y) {
                for &x in &xs {
                    full.offer_at(d, Point::new(x, y), representation.clone());
                }
            }
            set.offer_region(d, &region, representation);
            assert_eq!(set.into_entries(), full.into_entries(), "case {case}");
        }
    }
}
