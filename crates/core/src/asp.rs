//! The ASRS → ASP reduction (Section 4.1).
//!
//! For every spatial object `o` we generate a rectangle object of size
//! `a × b` whose *top-right* corner sits at `o.ρ`.  Lemma 1 shows that a
//! rectangle covers a location `p` (strictly) iff the corresponding object
//! lies strictly inside the `a × b` region whose bottom-left corner is `p`;
//! Theorem 1 then lets us answer the ASRS query by finding the best point in
//! the reduced instance.

use asrs_aggregator::CompositeAggregator;
use asrs_data::{Dataset, SpatialObject};
use asrs_geo::{min_positive_gap_sorted, Accuracy, Point, Rect, RegionSize};
use std::sync::Arc;

/// A rectangle object of the reduced ASP instance: the geometric rectangle
/// plus the index of the originating spatial object (whose attributes it
/// carries, Definition 5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RectObject {
    /// The rectangle of size `a × b` with its top-right corner at the
    /// originating object's location.
    pub rect: Rect,
    /// Index of the originating object in the dataset.
    pub object_idx: u32,
}

impl RectObject {
    /// Returns `true` when the rectangle strictly covers `p` (Lemma 1).
    #[inline]
    pub fn covers(&self, p: &Point) -> bool {
        self.rect.strictly_contains_point(p)
    }
}

/// The reduced ASP instance: the rectangle objects plus the space in which
/// the answer point may lie, the instance's coordinate accuracy and its
/// edge table.
///
/// The edge table (every rectangle edge coordinate per axis, sorted and
/// deduplicated) is the instance's one sorted view of its edges.  It is
/// built once, with the instance, and everything else reads it: the
/// accuracy estimate (Definition 7) is a linear gap scan over it, every
/// search's result set snaps anchors with it, and the naive oracle probes
/// its intervals.
#[derive(Debug, Clone)]
pub struct AspInstance {
    rects: Vec<RectObject>,
    space: Option<Rect>,
    accuracy: Accuracy,
    size: RegionSize,
    edges: Arc<EdgeSnapper>,
}

/// The smallest admissible GPS accuracy.  Keeps the drop condition from
/// chasing two coordinates separated by numerical noise only.
const ACCURACY_FLOOR: f64 = 1e-12;

fn floor() -> Accuracy {
    Accuracy::new(ACCURACY_FLOOR, ACCURACY_FLOOR)
}

/// The edge coordinates of `rects` per axis, both edges per rectangle,
/// sorted by `total_cmp` with duplicates kept.
fn edge_multiset(rects: &[RectObject]) -> (Vec<f64>, Vec<f64>) {
    let mut xs = Vec::with_capacity(rects.len() * 2);
    let mut ys = Vec::with_capacity(rects.len() * 2);
    for r in rects {
        xs.push(r.rect.min_x);
        xs.push(r.rect.max_x);
        ys.push(r.rect.min_y);
        ys.push(r.rect.max_y);
    }
    xs.sort_by(f64::total_cmp);
    ys.sort_by(f64::total_cmp);
    (xs, ys)
}

impl AspInstance {
    /// Builds the ASP instance for `dataset` and query size `size`; the
    /// accuracy is estimated from the rectangle edge coordinates
    /// (Definition 7).
    pub fn build(dataset: &Dataset, size: RegionSize) -> Self {
        Self::from_rects(Self::rects_visiting(dataset, size, |_| {}), size)
    }

    /// Builds the instance together with the [`Contributions`] of
    /// `aggregator`, in the same pass over the objects — what every search
    /// path runs before its kernel.
    pub(crate) fn with_contributions(
        dataset: &Dataset,
        aggregator: &CompositeAggregator,
        size: RegionSize,
    ) -> (Self, Contributions) {
        let mut table = Contributions::with_capacity(aggregator, dataset.len());
        let rects = Self::rects_visiting(dataset, size, |o| table.push(aggregator, o));
        (Self::from_rects(rects, size), table)
    }

    /// [`AspInstance::build`] plus the [`EdgeCounts`] that let
    /// [`AspInstance::patch`] edit the instance in place afterwards: the
    /// carry pass's fresh build.
    pub(crate) fn with_edge_counts(dataset: &Dataset, size: RegionSize) -> (Self, EdgeCounts) {
        let rects = Self::rects_visiting(dataset, size, |_| {});
        let (xs, ys) = edge_multiset(&rects);
        let (xs, x) = AxisCounts::counting(xs);
        let (ys, y) = AxisCounts::counting(ys);
        let instance = Self::assemble(rects, size, EdgeSnapper { xs, ys });
        (instance, EdgeCounts { x, y })
    }

    fn rects_visiting(
        dataset: &Dataset,
        size: RegionSize,
        mut visit: impl FnMut(&SpatialObject),
    ) -> Vec<RectObject> {
        dataset
            .objects()
            .enumerate()
            .map(|(idx, o)| {
                visit(o);
                RectObject {
                    rect: Rect::from_top_right(o.location, size),
                    object_idx: idx as u32,
                }
            })
            .collect()
    }

    fn from_rects(rects: Vec<RectObject>, size: RegionSize) -> Self {
        let (xs, ys) = edge_multiset(&rects);
        Self::assemble(rects, size, EdgeSnapper::from_sorted_edges(xs, ys))
    }

    fn assemble(rects: Vec<RectObject>, size: RegionSize, edges: EdgeSnapper) -> Self {
        Self {
            space: Rect::mbr_of(rects.iter().map(|r| r.rect)),
            accuracy: edges.accuracy(),
            edges: Arc::new(edges),
            rects,
            size,
        }
    }

    /// Brings the instance of a dataset up to its successor in place: drops
    /// the rectangles at `removed` (ascending positions) and renumbers the
    /// rest, appends one rectangle per `appended` location, and edits the
    /// edge table and the accuracy through `counts`.  Removal preserves
    /// dataset order and appends land at the end, so the result is what
    /// [`AspInstance::build`] constructs from the successor, bit for bit,
    /// in time proportional to the batch plus the shifted tails.  The
    /// space is left as it is: the caller guarantees that the successor's
    /// bounding box, and so the space, did not move.
    ///
    /// Returns `false`, leaving the instance unusable, when a removed edge
    /// is not in the table or a removed `-0.0` leaves the sign of its
    /// table entry undecided; the caller then builds the instance afresh.
    #[must_use]
    pub(crate) fn patch(
        &mut self,
        counts: &mut EdgeCounts,
        removed: &[usize],
        appended: impl IntoIterator<Item = Point>,
    ) -> bool {
        let (mut gone_xs, mut gone_ys) = (Vec::new(), Vec::new());
        for &idx in removed {
            let rect = self.rects[idx].rect;
            gone_xs.extend([rect.min_x, rect.max_x]);
            gone_ys.extend([rect.min_y, rect.max_y]);
        }
        remove_at(&mut self.rects, removed);
        if let Some(&first) = removed.first() {
            for (idx, r) in self.rects.iter_mut().enumerate().skip(first) {
                r.object_idx = idx as u32;
            }
        }
        let (mut new_xs, mut new_ys) = (Vec::new(), Vec::new());
        for location in appended {
            let rect = Rect::from_top_right(location, self.size);
            new_xs.extend([rect.min_x, rect.max_x]);
            new_ys.extend([rect.min_y, rect.max_y]);
            self.rects.push(RectObject {
                rect,
                object_idx: self.rects.len() as u32,
            });
        }
        let edges = Arc::make_mut(&mut self.edges);
        if !counts.x.patch(&mut edges.xs, gone_xs, new_xs)
            || !counts.y.patch(&mut edges.ys, gone_ys, new_ys)
        {
            return false;
        }
        self.accuracy = Accuracy::from_min_gaps(counts.x.min_gap, counts.y.min_gap, floor());
        true
    }

    /// The rectangle objects.
    #[inline]
    pub fn rects(&self) -> &[RectObject] {
        &self.rects
    }

    /// The bounding box of all rectangle objects — the space in which a
    /// covered answer point can lie.  `None` for an empty dataset.
    #[inline]
    pub fn space(&self) -> Option<Rect> {
        self.space
    }

    /// The instance's coordinate accuracy (ΔX, ΔY).
    #[inline]
    pub fn accuracy(&self) -> Accuracy {
        self.accuracy
    }

    /// The query region size.
    #[inline]
    pub fn size(&self) -> RegionSize {
        self.size
    }

    /// The instance's edge table, shared with the result sets that snap
    /// to it.
    #[inline]
    pub(crate) fn edges(&self) -> &Arc<EdgeSnapper> {
        &self.edges
    }

    /// Indices of the rectangles whose closed extent intersects `area`.
    pub fn rects_intersecting(&self, area: &Rect) -> Vec<u32> {
        self.rects
            .iter()
            .enumerate()
            .filter(|(_, r)| r.rect.intersects(area))
            .map(|(i, _)| i as u32)
            .collect()
    }

    /// All rectangle indices.
    pub fn all_rect_indices(&self) -> Vec<u32> {
        (0..self.rects.len() as u32).collect()
    }

    /// Indices of the objects whose rectangle strictly covers `p` — by
    /// Lemma 1 these are exactly the objects strictly inside the candidate
    /// region anchored at `p`.
    pub fn objects_covering(&self, p: &Point, candidates: &[u32]) -> Vec<u32> {
        candidates
            .iter()
            .copied()
            .filter(|&i| self.rects[i as usize].covers(p))
            .map(|i| self.rects[i as usize].object_idx)
            .collect()
    }
}

/// Each rectangle's aggregator contribution, computed once per search.
///
/// Row `i` is the statistics vector rectangle `i`'s object adds to any
/// region containing it ([`CompositeAggregator::accumulate_object`] into
/// zeros), and the flag says whether any selection accepts the object at
/// all.  The kernel reads rows instead of re-decoding objects in every
/// sub-space it discretises — the factorisation FDB applies to joins:
/// compute each object's contribution once and reuse it.  Rows depend on
/// the objects and the aggregator, not on the query size.
#[derive(Debug)]
pub(crate) struct Contributions {
    dims: usize,
    rows: Vec<f64>,
    contributes: Vec<bool>,
}

impl Contributions {
    fn with_capacity(aggregator: &CompositeAggregator, n: usize) -> Self {
        let dims = aggregator.stats_dim();
        Self {
            dims,
            rows: Vec::with_capacity(n * dims),
            contributes: Vec::with_capacity(n),
        }
    }

    /// Brings the table of a dataset up to its successor: drops the rows at
    /// `removed` (ascending positions) and appends the rows of
    /// `dataset[tail..]`, the successor's appended objects.
    pub(crate) fn patch(
        &mut self,
        aggregator: &CompositeAggregator,
        dataset: &Dataset,
        removed: &[usize],
        tail: usize,
    ) {
        self.remove_rows(removed);
        for idx in tail..dataset.len() {
            self.push(aggregator, dataset.object(idx));
        }
    }

    /// The table of every object of `dataset`, in dataset order.
    pub(crate) fn of(dataset: &Dataset, aggregator: &CompositeAggregator) -> Self {
        let mut table = Self::with_capacity(aggregator, dataset.len());
        for o in dataset.objects() {
            table.push(aggregator, o);
        }
        table
    }

    /// Appends the row of the next rectangle's object.
    fn push(&mut self, aggregator: &CompositeAggregator, object: &SpatialObject) {
        let start = self.rows.len();
        self.rows.resize(start + self.dims, 0.0);
        aggregator.accumulate_object(object, &mut self.rows[start..]);
        self.contributes.push(aggregator.contributes(object));
    }

    /// Drops the rows at `removed` (ascending positions), keeping the rest
    /// in order: the table of the dataset those objects left.
    fn remove_rows(&mut self, removed: &[usize]) {
        let Some(&first) = removed.first() else {
            return;
        };
        let dims = self.dims;
        let mut gone = removed.iter().copied().peekable();
        let mut kept = first;
        for row in first..self.contributes.len() {
            if gone.next_if_eq(&row).is_some() {
                continue;
            }
            self.rows
                .copy_within(row * dims..(row + 1) * dims, kept * dims);
            self.contributes[kept] = self.contributes[row];
            kept += 1;
        }
        self.rows.truncate(kept * dims);
        self.contributes.truncate(kept);
    }

    /// Bitwise equality of the rows and flags: the check that an
    /// incrementally maintained table matches a fresh build.
    #[cfg(any(debug_assertions, test))]
    pub(crate) fn bits_eq(&self, other: &Self) -> bool {
        self.dims == other.dims
            && self.contributes == other.contributes
            && self.rows.len() == other.rows.len()
            && self
                .rows
                .iter()
                .zip(&other.rows)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }

    /// The statistics row of rectangle `rect`.
    #[inline]
    pub(crate) fn row(&self, rect: u32) -> &[f64] {
        let start = rect as usize * self.dims;
        &self.rows[start..start + self.dims]
    }

    /// Keeps the candidates whose object some selection accepts: the
    /// others cannot change any representation, and carrying them through
    /// the discretize–split recursion makes the class-constrained variants
    /// quadratically slower.
    pub(crate) fn contributing(&self, mut candidates: Vec<u32>) -> Vec<u32> {
        candidates.retain(|&i| self.contributes[i as usize]);
        candidates
    }

    /// Whether rectangle `rect`'s object contributes (see
    /// [`Contributions::contributing`]).
    #[inline]
    pub(crate) fn contributes(&self, rect: u32) -> bool {
        self.contributes[rect as usize]
    }
}

/// Snaps probe points to canonical representatives of their arrangement
/// cell.
///
/// The edges of the ASP rectangles cut the plane into a global arrangement;
/// within one open arrangement cell every point has the same covering set,
/// hence the same representation and distance.  The searches probe such
/// cells at decomposition-dependent points (midpoints of whatever local
/// subdivision they built), so two different decompositions of the same
/// instance report different — equally optimal — anchors for the same cell.
/// Snapping every offered anchor to the *global* edge-interval midpoint
/// makes the reported anchor a function of the arrangement cell alone,
/// which is what lets the shard scatter promise
/// byte-identical answers regardless of the shard count.
///
/// The table is built once per instance (see [`AspInstance`]).  The
/// representatives match the exhaustive oracle's probe grid: interior
/// intervals map to `(eᵢ + eᵢ₊₁) / 2`, everything beyond the last edge to
/// `last + 1.0`, everything before the first edge to `first - 1.0`, and a
/// coordinate lying exactly on an edge is kept as-is (it is its own
/// measure-zero covering class under the strict containment of Lemma 1).
#[derive(Debug, Clone)]
pub(crate) struct EdgeSnapper {
    xs: Vec<f64>,
    ys: Vec<f64>,
}

impl EdgeSnapper {
    /// Builds the table from edge coordinates sorted by `total_cmp`
    /// (duplicates allowed), deduplicating in place.
    pub(crate) fn from_sorted_edges(mut xs: Vec<f64>, mut ys: Vec<f64>) -> Self {
        debug_assert!(xs.is_sorted_by(|a, b| a.total_cmp(b).is_le()));
        debug_assert!(ys.is_sorted_by(|a, b| a.total_cmp(b).is_le()));
        xs.dedup();
        ys.dedup();
        Self { xs, ys }
    }

    /// Definition 7's accuracy estimate — the smallest gap between
    /// distinct edge coordinates per axis — floored at [`ACCURACY_FLOOR`]:
    /// one scan over the sorted table.
    fn accuracy(&self) -> Accuracy {
        Accuracy::from_sorted_edge_coordinates(&self.xs, &self.ys, floor())
    }

    /// Bitwise equality of the edge arrays: the check that an
    /// incrementally maintained snapper matches a fresh build.
    #[cfg(any(debug_assertions, test))]
    pub(crate) fn bits_eq(&self, other: &Self) -> bool {
        let eq = |a: &[f64], b: &[f64]| {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
        };
        eq(&self.xs, &other.xs) && eq(&self.ys, &other.ys)
    }

    /// The canonical representative of the arrangement cell containing `p`.
    pub(crate) fn snap(&self, p: Point) -> Point {
        Point::new(
            Self::snap_axis(&self.xs, p.x),
            Self::snap_axis(&self.ys, p.y),
        )
    }

    fn snap_axis(edges: &[f64], v: f64) -> f64 {
        if edges.is_empty() {
            return v;
        }
        let i = edges.partition_point(|e| *e < v);
        if i < edges.len() && edges[i] == v {
            return v;
        }
        if i == 0 {
            edges[0] - 1.0
        } else if i == edges.len() {
            edges[edges.len() - 1] + 1.0
        } else {
            (edges[i - 1] + edges[i]) / 2.0
        }
    }

    /// The sorted, deduplicated x edge coordinates.
    pub(crate) fn xs(&self) -> &[f64] {
        &self.xs
    }

    /// The sorted, deduplicated y edge coordinates.
    pub(crate) fn ys(&self) -> &[f64] {
        &self.ys
    }

    /// The first `(y, x)` representative of the arrangement cells meeting
    /// `region`: the heads of [`EdgeSnapper::x_reps_within`] and
    /// [`EdgeSnapper::y_reps_within`], without the lists.
    pub(crate) fn first_rep_within(&self, region: &Rect) -> Point {
        Point::new(
            Self::first_rep(&self.xs, region.min_x, region.max_x),
            Self::first_rep(&self.ys, region.min_y, region.max_y),
        )
    }

    /// The first element of [`EdgeSnapper::axis_reps`]: the representative
    /// of the fragment between `lo` and the first edge above it (or `hi`).
    fn first_rep(edges: &[f64], lo: f64, hi: f64) -> f64 {
        if hi <= lo {
            return Self::snap_axis(edges, (lo + hi) / 2.0);
        }
        let a = edges.partition_point(|e| *e <= lo);
        let end = edges.get(a).map_or(hi, |&e| e.min(hi));
        Self::snap_axis(edges, (lo + end) / 2.0)
    }

    /// Canonical representatives of every arrangement x-interval meeting
    /// the open range `(lo, hi)`, ascending (see [`EdgeSnapper::axis_reps`]).
    pub(crate) fn x_reps_within(&self, lo: f64, hi: f64) -> Vec<f64> {
        Self::axis_reps(&self.xs, lo, hi)
    }

    /// Canonical representatives of every arrangement y-interval meeting
    /// the open range `(lo, hi)`, ascending.
    pub(crate) fn y_reps_within(&self, lo: f64, hi: f64) -> Vec<f64> {
        Self::axis_reps(&self.ys, lo, hi)
    }

    /// Canonical representatives of the edge intervals intersecting the
    /// open range `(lo, hi)`.
    ///
    /// A search evaluates whole uniform-covering *windows* at one probe
    /// point, but a window generically spans several arrangement intervals
    /// (edges of rectangles far outside the window still cut the global
    /// arrangement).  Those intervals are distinct — equally good —
    /// candidates; enumerating each interval's representative is what lets
    /// a window evaluation offer all of them, keeping the candidate set
    /// identical across decompositions.
    fn axis_reps(edges: &[f64], lo: f64, hi: f64) -> Vec<f64> {
        if hi <= lo {
            return vec![Self::snap_axis(edges, (lo + hi) / 2.0)];
        }
        let a = edges.partition_point(|e| *e <= lo);
        let b = edges.partition_point(|e| *e < hi);
        let mut reps = Vec::with_capacity(b - a + 1);
        let mut prev = lo;
        for &edge in &edges[a..b] {
            reps.push(Self::snap_axis(edges, (prev + edge) / 2.0));
            prev = edge;
        }
        reps.push(Self::snap_axis(edges, (prev + hi) / 2.0));
        // Fragments of one interval (a range boundary inside the interval)
        // snap to the same representative.
        reps.dedup();
        reps
    }
}

/// What the carry pass keeps beside an instance to edit its edge table in
/// place ([`AspInstance::patch`]): per axis, each table coordinate's
/// multiplicity in the edge multiset, and Definition 7's minimum positive
/// gap before the floor.
#[derive(Debug, Clone)]
pub(crate) struct EdgeCounts {
    x: AxisCounts,
    y: AxisCounts,
}

impl EdgeCounts {
    /// Equality with `other`, the gaps compared bit for bit: the check
    /// that maintained counts match a fresh build's.
    #[cfg(any(debug_assertions, test))]
    pub(crate) fn bits_eq(&self, other: &Self) -> bool {
        let eq = |a: &AxisCounts, b: &AxisCounts| {
            a.counts == b.counts && a.min_gap.map(f64::to_bits) == b.min_gap.map(f64::to_bits)
        };
        eq(&self.x, &other.x) && eq(&self.y, &other.y)
    }

    /// Forgets the x edge `x` of `instance` entirely, multiplicity and
    /// all: a corrupted context for the tests of the rebuild path.
    #[cfg(test)]
    pub(crate) fn forget_x_edge(&mut self, instance: &mut AspInstance, x: f64) {
        let edges = Arc::make_mut(&mut instance.edges);
        let at = edges.xs.partition_point(|e| *e < x);
        assert_eq!(edges.xs[at], x, "no such edge");
        edges.xs.remove(at);
        self.x.counts.remove(at);
    }
}

/// One axis of [`EdgeCounts`]: `counts[i]` is how many edges of the
/// multiset equal entry `i` of the deduplicated table, and `min_gap` the
/// smallest positive gap between neighbouring finite entries.
#[derive(Debug, Clone)]
struct AxisCounts {
    counts: Vec<u32>,
    min_gap: Option<f64>,
}

impl AxisCounts {
    /// Deduplicates the sorted multiset `values` in place, exactly like
    /// [`EdgeSnapper::from_sorted_edges`], counting each entry's
    /// multiplicity.
    fn counting(mut values: Vec<f64>) -> (Vec<f64>, Self) {
        let mut counts: Vec<u32> = Vec::new();
        let mut kept = 0;
        for at in 0..values.len() {
            if kept > 0 && values[kept - 1] == values[at] {
                counts[kept - 1] += 1;
            } else {
                values[kept] = values[at];
                counts.push(1);
                kept += 1;
            }
        }
        values.truncate(kept);
        let min_gap = min_positive_gap_sorted(&values);
        (values, Self { counts, min_gap })
    }

    /// Edits the deduplicated table `values` to the multiset minus `gone`
    /// plus `added`, in place: each edge is a binary search, and only a
    /// coordinate whose multiplicity reaches zero (or a new one) shifts
    /// the table, in one forward pass for the removals and one backward
    /// pass for the insertions.  The minimum gap follows incrementally: a
    /// new coordinate can only shrink it, so only its two new gaps are
    /// compared, and the table is rescanned only when a vanished
    /// coordinate bordered a minimal gap.
    ///
    /// `values` keeps [`EdgeSnapper::from_sorted_edges`]' representatives:
    /// the first of each run of equal coordinates in `total_cmp` order, so
    /// `-0.0` stands for a run of zeros that holds one.  Returns `false`,
    /// leaving the axis unusable, when a removed edge is not in the
    /// multiset, or when a removed `-0.0` leaves other zeros behind whose
    /// signs the counts do not record.
    fn patch(&mut self, values: &mut Vec<f64>, mut gone: Vec<f64>, mut added: Vec<f64>) -> bool {
        gone.sort_by(f64::total_cmp);
        added.sort_by(f64::total_cmp);
        let mut vanished = Vec::new();
        for edge in gone {
            let at = values.partition_point(|e| *e < edge);
            if at == values.len() || values[at] != edge || self.counts[at] == 0 {
                return false;
            }
            // The last edge of a run is its entry, bit for bit; a `-0.0`
            // leaving a longer run leaves zeros of unrecorded signs.
            let last = self.counts[at] == 1;
            if (last && values[at].to_bits() != edge.to_bits()) || (!last && is_negative_zero(edge))
            {
                return false;
            }
            self.counts[at] -= 1;
            if self.counts[at] == 0 {
                vanished.push(at);
            }
        }
        let rescan = self.min_gap.is_some_and(|min| {
            vanished.iter().any(|&at| {
                let before = at.checked_sub(1).and_then(|i| gap(values, i));
                before == Some(min) || gap(values, at) == Some(min)
            })
        });
        remove_at(values, &vanished);
        remove_at(&mut self.counts, &vanished);
        let mut inserts: Vec<(usize, f64)> = Vec::new();
        let mut inserted_counts: Vec<(usize, u32)> = Vec::new();
        for edge in added {
            let at = values.partition_point(|e| *e < edge);
            if at < values.len() && values[at] == edge {
                self.counts[at] += 1;
                if is_negative_zero(edge) {
                    values[at] = edge;
                }
            } else if inserts.last().is_some_and(|&(_, v)| v == edge) {
                if let Some((_, count)) = inserted_counts.last_mut() {
                    *count += 1;
                }
            } else {
                inserts.push((at, edge));
                inserted_counts.push((at, 1));
            }
        }
        insert_at(values, &inserts);
        insert_at(&mut self.counts, &inserted_counts);
        if rescan {
            self.min_gap = min_positive_gap_sorted(values);
        } else {
            // The k-th insertion landed k places after its position.
            for (k, &(at, _)) in inserts.iter().enumerate() {
                let at = at + k;
                let before = at.checked_sub(1).and_then(|i| gap(values, i));
                for g in [before, gap(values, at)].into_iter().flatten() {
                    self.min_gap = Some(self.min_gap.map_or(g, |min| min.min(g)));
                }
            }
        }
        true
    }
}

/// The gap between table entries `at` and `at + 1` when both exist and
/// are finite: the neighbours Definition 7's scan compares.
fn gap(values: &[f64], at: usize) -> Option<f64> {
    let (a, b) = (*values.get(at)?, *values.get(at + 1)?);
    (a.is_finite() && b.is_finite()).then_some(b - a)
}

fn is_negative_zero(v: f64) -> bool {
    v == 0.0 && v.is_sign_negative()
}

/// Drops the elements at `positions` (ascending, distinct), moving each
/// element after the first of them once.
fn remove_at<T: Copy>(values: &mut Vec<T>, positions: &[usize]) {
    let Some(&first) = positions.first() else {
        return;
    };
    let mut kept = first;
    for (k, &at) in positions.iter().enumerate() {
        let end = positions.get(k + 1).copied().unwrap_or(values.len());
        values.copy_within(at + 1..end, kept);
        kept += end - at - 1;
    }
    values.truncate(kept);
}

/// Inserts each `(position, value)` of `inserts` (positions ascending,
/// into the vector as it is; equal positions keep their order) before the
/// element at `position`, moving each element after the first position
/// once, from the back.
pub(crate) fn insert_at<T: Copy>(values: &mut Vec<T>, inserts: &[(usize, T)]) {
    let Some(&(_, fill)) = inserts.first() else {
        return;
    };
    let mut read = values.len();
    values.resize(read + inserts.len(), fill);
    let mut write = values.len();
    for &(at, value) in inserts.iter().rev() {
        let run = read - at;
        values.copy_within(at..read, write - run);
        write -= run + 1;
        read = at;
        values[write] = value;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asrs_data::{DatasetBuilder, Schema};

    fn dataset() -> Dataset {
        let mut b = DatasetBuilder::new(Schema::empty());
        b.push(2.0, 2.0, vec![]);
        b.push(5.0, 4.0, vec![]);
        b.push(9.0, 1.0, vec![]);
        b.build().unwrap()
    }

    #[test]
    fn rectangles_have_top_right_corner_on_objects() {
        let ds = dataset();
        let size = RegionSize::new(2.0, 1.0);
        let asp = AspInstance::build(&ds, size);
        assert_eq!(asp.rects().len(), 3);
        for (r, o) in asp.rects().iter().zip(ds.objects()) {
            assert_eq!(r.rect.top_right(), o.location);
            assert!((r.rect.width() - 2.0).abs() < 1e-12);
            assert!((r.rect.height() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn lemma_1_cover_iff_object_inside_region() {
        // A rectangle covers p iff the object lies strictly inside the
        // region with bottom-left corner p.
        let ds = dataset();
        let size = RegionSize::new(3.0, 3.0);
        let asp = AspInstance::build(&ds, size);
        let candidates = asp.all_rect_indices();
        let probes = [
            Point::new(1.5, 1.5),
            Point::new(4.0, 2.0),
            Point::new(6.5, 0.5),
            Point::new(0.0, 0.0),
            Point::new(8.0, 0.9),
        ];
        for p in probes {
            let covered = asp.objects_covering(&p, &candidates);
            let region = Rect::from_bottom_left(p, size);
            let inside: Vec<u32> = ds
                .objects()
                .enumerate()
                .filter(|(_, o)| region.strictly_contains_point(&o.location))
                .map(|(i, _)| i as u32)
                .collect();
            assert_eq!(covered, inside, "mismatch at probe {p}");
        }
    }

    #[test]
    fn space_is_union_of_rectangles() {
        let ds = dataset();
        let asp = AspInstance::build(&ds, RegionSize::new(2.0, 2.0));
        let space = asp.space().unwrap();
        assert_eq!(space, Rect::new(0.0, -1.0, 9.0, 4.0));
    }

    #[test]
    fn empty_dataset_has_no_space() {
        let ds = Dataset::new_unchecked(Schema::empty(), vec![]);
        let asp = AspInstance::build(&ds, RegionSize::new(1.0, 1.0));
        assert!(asp.space().is_none());
        assert!(asp.rects().is_empty());
    }

    #[test]
    fn accuracy_is_estimated_from_edges() {
        let ds = dataset();
        // Objects at x = 2, 5, 9 and a = 2 give edge xs {0,2,3,5,7,9}; the
        // minimum gap is 1 (between 2 and 3).
        let asp = AspInstance::build(&ds, RegionSize::new(2.0, 2.0));
        assert!((asp.accuracy().dx - 1.0).abs() < 1e-12);
    }

    #[test]
    fn the_edge_table_gives_the_sorting_estimate() {
        // The linear scan over the deduplicated table reports the same
        // accuracy, bit for bit, as Definition 7's estimate over the raw
        // edge multiset.
        let ds = asrs_data::gen::UniformGenerator::default().generate(500, 3);
        for size in [RegionSize::new(3.0, 0.5), RegionSize::new(0.1, 7.25)] {
            let asp = AspInstance::build(&ds, size);
            let xs: Vec<f64> = asp
                .rects()
                .iter()
                .flat_map(|r| [r.rect.min_x, r.rect.max_x])
                .collect();
            let ys: Vec<f64> = asp
                .rects()
                .iter()
                .flat_map(|r| [r.rect.min_y, r.rect.max_y])
                .collect();
            let floor = Accuracy::new(ACCURACY_FLOOR, ACCURACY_FLOOR);
            let expected = Accuracy::from_edge_coordinates(&xs, &ys, floor);
            assert_eq!(asp.accuracy().dx.to_bits(), expected.dx.to_bits());
            assert_eq!(asp.accuracy().dy.to_bits(), expected.dy.to_bits());
        }
    }

    #[test]
    fn snapper_maps_arrangement_cells_to_one_representative() {
        let ds = dataset();
        let asp = AspInstance::build(&ds, RegionSize::new(2.0, 1.0));
        let snapper = Arc::clone(asp.edges());
        // Two probes inside the same global edge interval snap to the same
        // midpoint; snapping is idempotent.
        // x-edges include {0, 2, 3, 5, 7, 9}; 2.1 and 2.9 share (2, 3).
        let a = snapper.snap(Point::new(2.1, 1.4));
        let b = snapper.snap(Point::new(2.9, 1.6));
        assert_eq!(a.x, b.x);
        assert_eq!(a.x, 2.5);
        assert_eq!(snapper.snap(a), a, "snapping is idempotent");
        // Beyond the last edge mirrors the oracle's outside probe.
        let out = snapper.snap(Point::new(100.0, 100.0));
        assert_eq!(out.x, 9.0 + 1.0);
        // Before the first edge.
        let below = snapper.snap(Point::new(-50.0, 0.5));
        assert_eq!(below.x, 0.0 - 1.0);
        // A coordinate exactly on an edge is its own class.
        assert_eq!(snapper.snap(Point::new(3.0, 1.4)).x, 3.0);
    }

    #[test]
    fn the_first_representative_heads_the_list() {
        let ds = dataset();
        let asp = AspInstance::build(&ds, RegionSize::new(2.0, 1.0));
        let snapper = Arc::clone(asp.edges());
        // x-edges {0, 2, 3, 5, 7, 9}: ranges inside one interval, across
        // edges, starting on an edge, beyond both ends and degenerate.
        for (lo, hi) in [
            (2.1, 2.9),
            (1.0, 6.0),
            (3.0, 8.0),
            (-4.0, -1.0),
            (8.5, 20.0),
            (-1.0, 30.0),
            (4.0, 4.0),
        ] {
            let region = Rect::new(lo, lo / 3.0, hi, hi / 3.0);
            let first = Point::new(
                snapper.x_reps_within(lo, hi)[0],
                snapper.y_reps_within(lo / 3.0, hi / 3.0)[0],
            );
            assert_eq!(snapper.first_rep_within(&region), first, "({lo}, {hi})");
        }
    }

    #[test]
    fn inserting_and_removing_at_positions_shifts_each_element_once() {
        let mut values: Vec<u32> = (0..10).collect();
        insert_at(&mut values, &[(0, 100), (4, 104), (4, 105), (10, 110)]);
        assert_eq!(values, [100, 0, 1, 2, 3, 104, 105, 4, 5, 6, 7, 8, 9, 110]);
        remove_at(&mut values, &[0, 5, 6, 13]);
        assert_eq!(values, (0..10).collect::<Vec<u32>>());
        remove_at(&mut values, &[]);
        insert_at(&mut values, &[]);
        assert_eq!(values.len(), 10);
    }

    /// Patches the instance and counts of `old` to `next` (which removed
    /// the objects at `removed` and appended `next[tail..]`), comparing
    /// with a fresh build of `next` bit for bit.
    fn patched_matches_fresh(
        old: &Dataset,
        next: &Dataset,
        removed: &[usize],
        tail: usize,
    ) -> bool {
        let size = RegionSize::new(1.0, 1.0);
        let (mut asp, mut counts) = AspInstance::with_edge_counts(old, size);
        let appended = (tail..next.len()).map(|idx| next.object(idx).location);
        if !asp.patch(&mut counts, removed, appended) {
            return false;
        }
        let (fresh, fresh_counts) = AspInstance::with_edge_counts(next, size);
        assert_eq!(asp.rects(), fresh.rects());
        assert!(asp.edges().bits_eq(fresh.edges()));
        assert!(asp.edges().bits_eq(AspInstance::build(next, size).edges()));
        assert!(counts.bits_eq(&fresh_counts));
        assert_eq!(asp.accuracy().dx.to_bits(), fresh.accuracy().dx.to_bits());
        assert_eq!(asp.accuracy().dy.to_bits(), fresh.accuracy().dy.to_bits());
        true
    }

    fn at_xs(xs: &[f64]) -> Dataset {
        let mut b = DatasetBuilder::new(Schema::empty());
        for &x in xs {
            b.push(x, 10.0 + x * 0.5, vec![]);
        }
        b.build().unwrap()
    }

    #[test]
    fn patching_keeps_the_sign_of_a_zero_edge_or_refuses() {
        // With width 1, objects at x = 1 put a +0.0 left edge in the
        // table and objects at x = -0.0 a -0.0 right edge; the table
        // keeps one zero, -0.0 whenever the run holds one.
        let base = [3.0, 1.0, -0.0, 1.0, 7.5];
        let old = at_xs(&base);
        // A +0.0 leaves; the -0.0 entry stays.
        assert!(patched_matches_fresh(
            &old,
            &at_xs(&[3.0, -0.0, 1.0, 7.5]),
            &[1],
            4
        ));
        // The -0.0 leaves the last zeros: its entry turns back to +0.0.
        assert!(patched_matches_fresh(
            &at_xs(&[3.0, -0.0, 7.5]),
            &at_xs(&[3.0, 7.5]),
            &[1],
            2
        ));
        // A -0.0 joins a run of +0.0 zeros and becomes its entry.
        assert!(patched_matches_fresh(
            &at_xs(&[3.0, 1.0]),
            &at_xs(&[3.0, 1.0, -0.0]),
            &[],
            2
        ));
        // The -0.0 leaves a run that keeps +0.0 zeros: the counts cannot
        // tell the entry's new sign, so the patch refuses.
        assert!(!patched_matches_fresh(
            &old,
            &at_xs(&[3.0, 1.0, 1.0, 7.5]),
            &[2],
            4
        ));
    }

    #[test]
    fn patching_refuses_an_edge_the_table_lacks() {
        let ds = dataset();
        let size = RegionSize::new(2.0, 1.0);
        let (mut asp, mut counts) = AspInstance::with_edge_counts(&ds, size);
        let edge = asp.rects()[1].rect.min_x;
        counts.forget_x_edge(&mut asp, edge);
        assert!(!asp.patch(&mut counts, &[1], []));
    }

    #[test]
    fn rects_intersecting_filters_by_area() {
        let ds = dataset();
        let asp = AspInstance::build(&ds, RegionSize::new(1.0, 1.0));
        let area = Rect::new(1.0, 1.0, 2.5, 2.5);
        let hits = asp.rects_intersecting(&area);
        assert_eq!(hits, vec![0]);
        let everything = asp.rects_intersecting(&asp.space().unwrap());
        assert_eq!(everything.len(), 3);
    }
}
