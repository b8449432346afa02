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
use asrs_geo::{Accuracy, Point, Rect, RegionSize};
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

    /// [`AspInstance::with_contributions`] plus the sorted edge multiset
    /// the edge table was deduplicated from (see [`AspInstance::refresh`]),
    /// from the same one sort per axis.
    pub(crate) fn with_contributions_and_edges(
        dataset: &Dataset,
        aggregator: &CompositeAggregator,
        size: RegionSize,
    ) -> (Self, Contributions, Vec<f64>, Vec<f64>) {
        let mut table = Contributions::with_capacity(aggregator, dataset.len());
        let rects = Self::rects_visiting(dataset, size, |o| table.push(aggregator, o));
        let (xs, ys) = edge_multiset(&rects);
        let edges = EdgeSnapper::from_sorted_edges(xs.clone(), ys.clone());
        (Self::assemble(rects, size, edges), table, xs, ys)
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

    /// Appends one rectangle without refreshing the derived fields.
    ///
    /// Part of the incremental probe-context maintenance in the cache
    /// carry-forward pass: a dataset append puts the object at the end of
    /// iteration order, so pushing its rectangle (with the next object
    /// index) and then calling [`AspInstance::refresh`] reproduces exactly
    /// what [`AspInstance::build`] would construct from the grown dataset.
    pub(crate) fn push_rect(&mut self, rect: RectObject) {
        self.rects.push(rect);
    }

    /// Drops the rectangles at `removed` (ascending positions) without
    /// refreshing the derived fields, and renumbers the survivors' object
    /// indices to their new positions — what [`AspInstance::build`] would
    /// number them in a dataset the objects were removed from, since
    /// removal preserves dataset order.
    pub(crate) fn remove_rects(&mut self, removed: &[usize]) {
        let Some(&first) = removed.first() else {
            return;
        };
        let mut gone = removed.iter().copied().peekable();
        let mut at = 0;
        self.rects.retain(|_| {
            let keep = gone.next_if_eq(&at).is_none();
            at += 1;
            keep
        });
        for (idx, r) in self.rects.iter_mut().enumerate().skip(first) {
            r.object_idx = idx as u32;
        }
    }

    /// Recomputes the space, edge table and accuracy after
    /// [`AspInstance::push_rect`] and [`AspInstance::remove_rects`] calls,
    /// mirroring [`AspInstance::build`] fold-for-fold: the same MBR
    /// iteration order, the same edge table and the same estimate.
    /// `xs`/`ys` must hold the edge coordinates of every rectangle, sorted
    /// by `total_cmp` with duplicates kept — the multiset a caller
    /// maintains by merging, so no refresh sorts.
    pub(crate) fn refresh(&mut self, xs: &[f64], ys: &[f64]) {
        let edges = EdgeSnapper::from_sorted_edges(xs.to_vec(), ys.to_vec());
        self.space = Rect::mbr_of(self.rects.iter().map(|r| r.rect));
        self.accuracy = edges.accuracy();
        self.edges = Arc::new(edges);
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

    /// The table of every object of `dataset`, in dataset order.
    pub(crate) fn of(dataset: &Dataset, aggregator: &CompositeAggregator) -> Self {
        let mut table = Self::with_capacity(aggregator, dataset.len());
        for o in dataset.objects() {
            table.push(aggregator, o);
        }
        table
    }

    /// Appends the row of the next rectangle's object.
    pub(crate) fn push(&mut self, aggregator: &CompositeAggregator, object: &SpatialObject) {
        let start = self.rows.len();
        self.rows.resize(start + self.dims, 0.0);
        aggregator.accumulate_object(object, &mut self.rows[start..]);
        self.contributes.push(aggregator.contributes(object));
    }

    /// Drops the rows at `removed` (ascending positions), keeping the rest
    /// in order: the table of the dataset those objects left.
    pub(crate) fn remove_rows(&mut self, removed: &[usize]) {
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
#[derive(Debug)]
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
        let floor = Accuracy::new(ACCURACY_FLOOR, ACCURACY_FLOOR);
        Accuracy::from_sorted_edge_coordinates(&self.xs, &self.ys, floor)
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
