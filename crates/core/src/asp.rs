//! The ASRS → ASP reduction (Section 4.1).
//!
//! For every spatial object `o` we generate a rectangle object of size
//! `a × b` whose *top-right* corner sits at `o.ρ`.  Lemma 1 shows that a
//! rectangle covers a location `p` (strictly) iff the corresponding object
//! lies strictly inside the `a × b` region whose bottom-left corner is `p`;
//! Theorem 1 then lets us answer the ASRS query by finding the best point in
//! the reduced instance.
//!
//! # One location index, a view per size
//!
//! Rectangle `i` of any size `a × b` is the box whose top-right corner is
//! object `i`'s location, so the x-edges of size `a` are `{xᵢ} ∪ {fl(xᵢ −
//! a)}`: two runs of one x-sorted coordinate array, as `fl(x − a)` is
//! monotone in `x` (likewise in y).  As FDB factorises a join, each
//! location is stored once, in the `LocationIndex` of an engine
//! generation (`LazyLocations`), and every size's data is a `SizeView`
//! of it: the edge table (one merge of the two runs per axis, deduplicated:
//! bit for bit what a sort of every edge gives, `-0.0` included) and the
//! rectangles reaching an area (a run of the x-sorted index found by two
//! binary searches, as in Leapfrog Triejoin, filtered by the y kept beside
//! each x).  Every instance — a cold search's, the naive oracle's, the
//! baselines' and the carry pass's window-local ones — takes its edges from
//! a view and derives Definition 7's accuracy from those edges.

use asrs_aggregator::CompositeAggregator;
use asrs_data::{AttrValue, Dataset, SpatialObject};
use asrs_geo::{min_positive_gap_sorted, Accuracy, Point, Rect, RegionSize};
use std::cmp::Ordering;
use std::sync::{Arc, OnceLock};

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
/// deduplicated) comes from a `SizeView` of the dataset's location index
/// (see the module docs), and the accuracy (Definition 7) is its smallest
/// positive gap per axis.  Every search's result set snaps anchors with the
/// table, and the naive oracle probes its intervals.  A whole-dataset
/// instance holds every rectangle in position order and the whole table;
/// the carry pass's window-local instances hold a window's rectangles, in
/// position order too, and the part of the table the window reads, whose
/// accuracy is at least the whole table's.
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

impl AspInstance {
    /// Builds the ASP instance for `dataset` and query size `size`; the
    /// accuracy is estimated from the rectangle edge coordinates
    /// (Definition 7).
    pub fn build(dataset: &Dataset, size: RegionSize) -> Self {
        let locations = LocationIndex::of(dataset);
        Self::whole(
            Self::rects_visiting(dataset, size, |_| {}),
            locations.view(size),
        )
    }

    /// Builds the instance of `view`'s size over every object of `dataset`
    /// (the dataset `view` indexes) together with the [`Contributions`] of
    /// `aggregator`, in the same pass over the objects — what every search
    /// path runs before its kernel.
    pub(crate) fn with_contributions(
        dataset: &Dataset,
        aggregator: &CompositeAggregator,
        view: SizeView<'_>,
    ) -> (Self, Contributions) {
        let mut table = Contributions::with_capacity(aggregator, dataset.len());
        let rects = Self::rects_visiting(dataset, view.size, |o| table.push(aggregator, o));
        (Self::whole(rects, view), table)
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

    /// The instance over every rectangle, with the whole edge table.
    fn whole(rects: Vec<RectObject>, view: SizeView<'_>) -> Self {
        Self::new(rects, view.size, view.edges())
    }

    /// The instance over `rects` (rectangles of `size`, in position order,
    /// each keeping its object's position in `object_idx`), whose edge
    /// table a [`SizeView`] of `size` gave.  Definition 7's accuracy is the
    /// table's smallest positive gap per axis, floored at
    /// [`ACCURACY_FLOOR`]: deduplication drops only the zero gaps.
    pub(crate) fn new(rects: Vec<RectObject>, size: RegionSize, edges: EdgeSnapper) -> Self {
        let gap = |edges: &[f64]| min_positive_gap_sorted(edges.iter().copied());
        Self {
            space: Rect::mbr_of(rects.iter().map(|r| r.rect)),
            accuracy: Accuracy::from_min_gaps(gap(edges.xs()), gap(edges.ys()), floor()),
            edges: Arc::new(edges),
            rects,
            size,
        }
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

    /// The rows of the objects of `dataset` at `positions`, in that order:
    /// a window-local instance's table, whose row `k` is the `k`-th
    /// position's, bit for bit the row a whole-dataset table holds there.
    pub(crate) fn at(
        dataset: &Dataset,
        aggregator: &CompositeAggregator,
        positions: &[u32],
    ) -> Self {
        let mut table = Self::with_capacity(aggregator, positions.len());
        for &pos in positions {
            table.push(aggregator, dataset.object(pos as usize));
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
/// The table is a [`SizeView`]'s (see [`AspInstance`]).  The
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
    fn from_sorted_edges(mut xs: Vec<f64>, mut ys: Vec<f64>) -> Self {
        debug_assert!(xs.is_sorted_by(|a, b| a.total_cmp(b).is_le()));
        debug_assert!(ys.is_sorted_by(|a, b| a.total_cmp(b).is_le()));
        xs.dedup();
        ys.dedup();
        Self { xs, ys }
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
    /// [`EdgeSnapper::y_reps_within`].
    pub(crate) fn first_rep_within(&self, region: &Rect) -> Point {
        // Every range yields at least one representative, so the NaN is
        // never read.
        Point::new(
            Self::axis_reps(&self.xs, region.min_x, region.max_x)
                .next()
                .unwrap_or(f64::NAN),
            Self::axis_reps(&self.ys, region.min_y, region.max_y)
                .next()
                .unwrap_or(f64::NAN),
        )
    }

    /// Canonical representatives of every arrangement x-interval meeting
    /// the open range `(lo, hi)`, ascending (see [`EdgeSnapper::axis_reps`]).
    pub(crate) fn x_reps_within(&self, lo: f64, hi: f64) -> impl Iterator<Item = f64> + '_ {
        Self::axis_reps(&self.xs, lo, hi)
    }

    /// Canonical representatives of every arrangement y-interval meeting
    /// the open range `(lo, hi)`, ascending.
    pub(crate) fn y_reps_within(&self, lo: f64, hi: f64) -> impl Iterator<Item = f64> + '_ {
        Self::axis_reps(&self.ys, lo, hi)
    }

    /// Canonical representatives of the edge intervals intersecting the
    /// open range `(lo, hi)`, ascending and distinct, computed as they are
    /// read.
    ///
    /// A search evaluates whole uniform-covering *windows* at one probe
    /// point, but a window generically spans several arrangement intervals
    /// (edges of rectangles far outside the window still cut the global
    /// arrangement).  Those intervals are distinct — equally good —
    /// candidates; enumerating each interval's representative is what lets
    /// a window evaluation offer all of them, keeping the candidate set
    /// identical across decompositions.
    fn axis_reps(edges: &[f64], lo: f64, hi: f64) -> impl Iterator<Item = f64> + '_ {
        let inner = if hi <= lo {
            &edges[..0]
        } else {
            let a = edges.partition_point(|e| *e <= lo);
            let b = edges.partition_point(|e| *e < hi);
            &edges[a..b]
        };
        let (mut prev, mut last) = (lo, None);
        inner
            .iter()
            .copied()
            .chain(std::iter::once(hi))
            .filter_map(move |end| {
                let rep = Self::snap_axis(edges, (prev + end) / 2.0);
                prev = end;
                // Fragments of one interval (a range boundary inside the
                // interval) snap to the same representative.
                (last != Some(rep)).then(|| {
                    last = Some(rep);
                    rep
                })
            })
    }
}

/// The objects sorted by x (by `total_cmp`, then by position), each with
/// its y and its dataset position, and every object's y sorted on its own
/// (by `total_cmp`).  Which rectangles reach an area is a range lookup over
/// the first, and every size's edge table is a view of the two (see the
/// module docs).  Neither depends on the query size.
#[derive(Debug, Clone)]
pub(crate) struct LocationIndex {
    by_x: Vec<Located>,
    by_y: Vec<f64>,
}

/// One entry of the [`LocationIndex`]: an object's location and position.
#[derive(Debug, Clone, Copy)]
struct Located {
    x: f64,
    y: f64,
    pos: u32,
}

impl Located {
    fn of(dataset: &Dataset, pos: usize) -> Self {
        let Point { x, y } = dataset.object(pos).location;
        Self {
            x,
            y,
            pos: pos as u32,
        }
    }
}

fn x_order(a: &Located, b: &Located) -> Ordering {
    a.x.total_cmp(&b.x).then(a.pos.cmp(&b.pos))
}

impl LocationIndex {
    /// The index of every object of `dataset`.
    pub(crate) fn of(dataset: &Dataset) -> Self {
        let mut by_x: Vec<Located> = (0..dataset.len())
            .map(|pos| Located::of(dataset, pos))
            .collect();
        by_x.sort_unstable_by(x_order);
        let mut by_y: Vec<f64> = by_x.iter().map(|e| e.y).collect();
        by_y.sort_unstable_by(f64::total_cmp);
        Self { by_x, by_y }
    }

    /// The view of query size `size`.
    pub(crate) fn view(&self, size: RegionSize) -> SizeView<'_> {
        SizeView {
            locations: self,
            size,
        }
    }

    /// Brings the index of the predecessor up to `next`: drops the
    /// removed objects and renumbers the rest in one pass (a survivor's
    /// position falls by the removals before it, which keeps the order),
    /// drops the removed objects' y in another, then inserts the appended
    /// tail in one backward pass per array.  Returns `false` when a removed
    /// y is missing from the y array, which then did not reflect the
    /// predecessor.
    fn apply(&mut self, next: &Dataset, delta: &DatasetDelta) -> bool {
        let mut gone_ys = Vec::with_capacity(delta.removed.len());
        if !delta.removed.is_empty() {
            self.by_x
                .retain_mut(|e| match delta.removed.binary_search(&(e.pos as usize)) {
                    Ok(_) => {
                        gone_ys.push(e.y);
                        false
                    }
                    Err(before) => {
                        e.pos -= before as u32;
                        true
                    }
                });
        }
        if !remove_values(&mut self.by_y, gone_ys) {
            return false;
        }
        let mut added: Vec<Located> = (delta.tail..next.len())
            .map(|pos| Located::of(next, pos))
            .collect();
        let mut new_ys: Vec<f64> = added.iter().map(|e| e.y).collect();
        new_ys.sort_unstable_by(f64::total_cmp);
        let inserts: Vec<(usize, f64)> = new_ys
            .into_iter()
            .map(|y| (self.by_y.partition_point(|v| v.total_cmp(&y).is_lt()), y))
            .collect();
        insert_at(&mut self.by_y, &inserts);
        added.sort_unstable_by(x_order);
        let inserts: Vec<(usize, Located)> = added
            .into_iter()
            .map(|entry| {
                let at = self.by_x.partition_point(|e| x_order(e, &entry).is_lt());
                (at, entry)
            })
            .collect();
        insert_at(&mut self.by_x, &inserts);
        true
    }

    /// Bitwise equality of the two arrays: the check that a patched index
    /// matches a fresh build.
    pub(crate) fn bits_eq(&self, other: &Self) -> bool {
        self.by_x.len() == other.by_x.len()
            && self.by_x.iter().zip(&other.by_x).all(|(a, b)| {
                a.x.to_bits() == b.x.to_bits() && a.y.to_bits() == b.y.to_bits() && a.pos == b.pos
            })
            && self.by_y.len() == other.by_y.len()
            && self
                .by_y
                .iter()
                .zip(&other.by_y)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

/// An engine generation's [`LocationIndex`], built by the generation's
/// first cold search or carry pass (a build sorts every object, which no
/// engine build or restore pays for), or inherited from the predecessor
/// through a publish ([`LazyLocations::successor`]).  Racing first users
/// each build one and the first stored wins: no build runs while the cell
/// blocks, so it is no lock to order.
#[derive(Debug, Default)]
pub(crate) struct LazyLocations(OnceLock<LocationIndex>);

impl LazyLocations {
    /// The index of `dataset` (the generation's), built on the first call.
    pub(crate) fn of(&self, dataset: &Dataset) -> &LocationIndex {
        if let Some(index) = self.0.get() {
            return index;
        }
        let built = LocationIndex::of(dataset);
        self.0.get_or_init(|| built)
    }

    /// The index, when some search or pass has built it.
    pub(crate) fn get(&self) -> Option<&LocationIndex> {
        self.0.get()
    }

    /// The successor generation's cell: when this index is built, the
    /// index patched by the batch's delta from `old` to `next` — left
    /// unbuilt if the patch finds the index did not reflect `old` — and an
    /// unbuilt cell otherwise.
    pub(crate) fn successor(&self, old: &Dataset, next: &Dataset) -> Self {
        let Some(index) = self.0.get() else {
            return Self::default();
        };
        let mut index = index.clone();
        match index.apply(next, &DatasetDelta::between(old, next)) {
            true => Self(OnceLock::from(index)),
            false => Self::default(),
        }
    }
}

/// Drops one entry bit-equal to each of `gone` from `sorted` (ascending by
/// `total_cmp`), moving each later entry once.  Returns `false`, leaving
/// `sorted` as it was, when some value of `gone` is not there.
fn remove_values(sorted: &mut Vec<f64>, mut gone: Vec<f64>) -> bool {
    gone.sort_unstable_by(f64::total_cmp);
    let mut positions: Vec<usize> = Vec::with_capacity(gone.len());
    for (k, &v) in gone.iter().enumerate() {
        // The copies of one value leave consecutive entries of its run.
        let at = match positions.last() {
            Some(&prev) if gone[k - 1].to_bits() == v.to_bits() => prev + 1,
            _ => sorted.partition_point(|e| e.total_cmp(&v).is_lt()),
        };
        if sorted.get(at).map(|e| e.to_bits()) != Some(v.to_bits()) {
            return false;
        }
        positions.push(at);
    }
    remove_at(sorted, &positions);
    true
}

/// One query size's view of a [`LocationIndex`]: the size's edge table
/// (whole or over a range) and the rectangles that reach an area, both
/// derived from the size-independent arrays (see the module docs).
#[derive(Clone, Copy)]
pub(crate) struct SizeView<'a> {
    locations: &'a LocationIndex,
    size: RegionSize,
}

impl SizeView<'_> {
    /// Whether `anchor` is its own representative under the size's edge
    /// table: the view over the anchor's own degenerate range snaps it as
    /// the whole table does.
    pub(crate) fn snaps_to_itself(&self, anchor: Point) -> bool {
        let at = Rect::new(anchor.x, anchor.y, anchor.x, anchor.y);
        points_bit_equal(self.edges_within(&at).snap(anchor), anchor)
    }

    /// The positions of the objects whose rectangle intersects `area`
    /// (closed extents), ascending.  Rectangle `i` is `[fl(xᵢ − a), xᵢ] ×
    /// [fl(yᵢ − b), yᵢ]`, so the index's x and y decide [`Rect::intersects`]
    /// exactly: the x-run bounds its x half, the y test on each entry its y
    /// half, and no rectangle is built.
    pub(crate) fn reaching(&self, area: &Rect) -> Vec<u32> {
        let RegionSize { width, height } = self.size;
        let by_x = &self.locations.by_x;
        let lo = by_x.partition_point(|e| e.x < area.min_x);
        let run = by_x[lo..].partition_point(|e| e.x - width <= area.max_x);
        let mut hits: Vec<u32> = by_x[lo..lo + run]
            .iter()
            .filter(|e| e.y >= area.min_y && e.y - height <= area.max_y)
            .map(|e| e.pos)
            .collect();
        hits.sort_unstable();
        hits
    }

    /// The size's whole edge table.
    pub(crate) fn edges(&self) -> EdgeSnapper {
        let (lo, hi) = (f64::NEG_INFINITY, f64::INFINITY);
        self.edges_within(&Rect::new(lo, lo, hi, hi))
    }

    /// The size's edge table over `range`: per axis, the edges inside the
    /// closed range and every copy of the nearest edge beyond each side,
    /// deduplicated like the whole table.  Snaps of points and
    /// representatives of ranges between those two nearest edges equal the
    /// whole table's, bit for bit, since each reads only an edge's
    /// neighbours.
    pub(crate) fn edges_within(&self, range: &Rect) -> EdgeSnapper {
        let LocationIndex { by_x, by_y } = self.locations;
        let RegionSize { width, height } = self.size;
        EdgeSnapper::from_sorted_edges(
            axis_edges(by_x, |e| e.x, width, range.min_x, range.max_x),
            axis_edges(by_y, |&y| y, height, range.min_y, range.max_y),
        )
    }
}

/// The edges `{v} ∪ {fl(v − shift)}` of one axis, `v` ranging over the
/// coordinates of `sorted` (ascending by `total_cmp`), that lie in `[lo,
/// hi]` or equal the nearest edge below `lo` or above `hi`; sorted by
/// `total_cmp`.  `fl(v − shift)` is monotone in `v`, so each half is one
/// run of `sorted`.
fn axis_edges<T>(
    sorted: &[T],
    coord: impl Fn(&T) -> f64 + Copy,
    shift: f64,
    lo: f64,
    hi: f64,
) -> Vec<f64> {
    let shifted = |t: &T| coord(t) - shift;
    let (a0, a1) = run(sorted, coord, lo, hi);
    let (b0, b1) = run(sorted, shifted, lo, hi);
    let below = [
        a0.checked_sub(1).map(|i| coord(&sorted[i])),
        b0.checked_sub(1).map(|i| shifted(&sorted[i])),
    ];
    let above = [sorted.get(a1).map(coord), sorted.get(b1).map(shifted)];
    let lo = below.into_iter().flatten().reduce(f64::max).unwrap_or(lo);
    let hi = above.into_iter().flatten().reduce(f64::min).unwrap_or(hi);
    let (a0, a1) = run(sorted, coord, lo, hi);
    let (b0, b1) = run(sorted, shifted, lo, hi);
    let mut edges = Vec::with_capacity(a1 - a0 + b1 - b0);
    edges.extend(merged(&sorted[a0..a1], &sorted[b0..b1], coord, shift));
    edges
}

/// The run of `sorted` whose keys lie in `[lo, hi]`, for keys ascending
/// along `sorted`.
fn run<T>(sorted: &[T], key: impl Fn(&T) -> f64, lo: f64, hi: f64) -> (usize, usize) {
    (
        sorted.partition_point(|t| key(t) < lo),
        sorted.partition_point(|t| key(t) <= hi),
    )
}

/// The coordinates of `plain` and the shifted coordinates `fl(v − shift)`
/// of `shifted`, both ascending by `total_cmp`, merged in that order.  The
/// runs are compared with `<`, which agrees with `total_cmp` here: of two
/// equal values the plain one comes first, and a shifted zero is `+0.0`
/// (sizes are positive).  An exhausted run reads as `+∞` (locations are
/// finite).
fn merged<'s, T>(
    plain: &'s [T],
    shifted: &'s [T],
    coord: impl Fn(&T) -> f64 + 's,
    shift: f64,
) -> impl Iterator<Item = f64> + 's {
    let (mut i, mut j) = (0, 0);
    (0..plain.len() + shifted.len()).map(move |_| {
        let a = plain.get(i).map_or(f64::INFINITY, &coord);
        let b = shifted.get(j).map_or(f64::INFINITY, |t| coord(t) - shift);
        let take_b = b < a;
        i += usize::from(!take_b);
        j += usize::from(take_b);
        if take_b {
            b
        } else {
            a
        }
    })
}

/// How a batch turned the predecessor dataset into the successor: the
/// predecessor positions it removed, and where the appended tail starts
/// in the successor.  Removals preserve dataset order and appends land at
/// the end, so the successor is the predecessor minus `removed`, followed
/// by `next[tail..]`.
#[derive(Debug, PartialEq)]
struct DatasetDelta {
    /// Predecessor positions of the removed objects, ascending.
    removed: Vec<usize>,
    /// Successor position of the first appended object.
    tail: usize,
}

impl DatasetDelta {
    /// Walks `old` in order against a cursor over `next`: an old object is
    /// kept when the object at the cursor is bit-identical to it, removed
    /// otherwise; what follows the cursor is the appended tail.  Whatever
    /// the batch, the kept objects equal `next[..tail]` by construction,
    /// so the delta always reproduces `next` exactly.
    fn between(old: &Dataset, next: &Dataset) -> Self {
        let mut rest = next.objects();
        let mut cursor = rest.next();
        let mut tail = 0;
        let mut removed = Vec::new();
        for (idx, object) in old.objects().enumerate() {
            if cursor.is_some_and(|at| objects_bit_equal(object, at)) {
                cursor = rest.next();
                tail += 1;
            } else {
                removed.push(idx);
            }
        }
        Self { removed, tail }
    }
}

/// Bit equality of two objects: the same id, location bits and attribute
/// values (numeric ones compared by bits).
fn objects_bit_equal(a: &SpatialObject, b: &SpatialObject) -> bool {
    std::ptr::eq(a, b)
        || (a.id == b.id
            && points_bit_equal(a.location, b.location)
            && a.values.len() == b.values.len()
            && a.values.iter().zip(&b.values).all(|pair| match pair {
                (AttrValue::Cat(x), AttrValue::Cat(y)) => x == y,
                (AttrValue::Num(x), AttrValue::Num(y)) => x.to_bits() == y.to_bits(),
                _ => false,
            }))
}

/// Bit equality of two points.
pub(crate) fn points_bit_equal(a: Point, b: Point) -> bool {
    a.x.to_bits() == b.x.to_bits() && a.y.to_bits() == b.y.to_bits()
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
fn insert_at<T: Copy>(values: &mut Vec<T>, inserts: &[(usize, T)]) {
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
pub(crate) mod tests {
    use super::*;
    use asrs_aggregator::Selection;
    use asrs_data::gen::{PoiSynGenerator, UniformGenerator};
    use asrs_data::{DatasetBuilder, Mutation, Schema};
    use std::time::Duration;

    impl Contributions {
        /// The table of every object of `dataset`, in dataset order.
        pub(crate) fn of(dataset: &Dataset, aggregator: &CompositeAggregator) -> Self {
            let every: Vec<u32> = (0..dataset.len() as u32).collect();
            Self::at(dataset, aggregator, &every)
        }
    }

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
        // The scan over the deduplicated table reports the same accuracy,
        // bit for bit, as Definition 7's estimate over the raw edge
        // multiset: of every edge for the whole instance, and of the edges
        // inside the table's extent for a window-local one, whose
        // accuracy is never below the whole instance's.
        let ds = UniformGenerator::default().generate(500, 3);
        let locations = LocationIndex::of(&ds);
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
            let expected = Accuracy::from_edge_coordinates(&xs, &ys, floor());
            assert_eq!(asp.accuracy().dx.to_bits(), expected.dx.to_bits());
            assert_eq!(asp.accuracy().dy.to_bits(), expected.dy.to_bits());
            let view = locations.view(size);
            let mut wider = 0;
            for window in sample(&probe_windows(&ds, size), 200) {
                let local = AspInstance::new(Vec::new(), size, view.edges_within(&window));
                let within = |raw: &[f64], table: &[f64]| -> Vec<f64> {
                    let (lo, hi) = (table[0], table[table.len() - 1]);
                    raw.iter()
                        .copied()
                        .filter(|&v| lo <= v && v <= hi)
                        .collect()
                };
                let edges = local.edges();
                let expected = Accuracy::from_edge_coordinates(
                    &within(&xs, edges.xs()),
                    &within(&ys, edges.ys()),
                    floor(),
                );
                let accuracy = local.accuracy();
                assert_eq!(accuracy.dx.to_bits(), expected.dx.to_bits(), "{window:?}");
                assert_eq!(accuracy.dy.to_bits(), expected.dy.to_bits(), "{window:?}");
                assert!(accuracy.dx >= asp.accuracy().dx && accuracy.dy >= asp.accuracy().dy);
                wider += usize::from(accuracy.dx > asp.accuracy().dx);
            }
            assert!(
                wider > 0,
                "no window's accuracy exceeds the size's at {size:?}"
            );
        }
    }

    /// Bitwise equality of two tables' rows and flags.
    fn tables_bit_equal(a: &Contributions, b: &Contributions) -> bool {
        a.dims == b.dims && a.contributes == b.contributes && bits(&a.rows) == bits(&b.rows)
    }

    #[test]
    fn rows_at_positions_are_the_whole_table_s_rows() {
        let uniform = UniformGenerator::default().generate(300, 41);
        let pois = PoiSynGenerator::compact(5).generate(300, 43);
        let distribution = CompositeAggregator::builder(uniform.schema())
            .distribution("category", Selection::All)
            .build()
            .unwrap();
        let float_sum = CompositeAggregator::builder(pois.schema())
            .sum("rating", Selection::All)
            .build()
            .unwrap();
        let size = RegionSize::new(5.0, 5.0);
        let selective = Selection::cat_equals(0, 1);
        let (count, _) = crate::maxrs::reduction(&uniform, size, &selective).unwrap();
        for (case, dataset, aggregator) in [
            ("distribution", &uniform, &distribution),
            ("float sum", &pois, &float_sum),
            ("selective count", &uniform, &count),
        ] {
            let locations = LocationIndex::of(dataset);
            let (_, whole) =
                AspInstance::with_contributions(dataset, aggregator, locations.view(size));
            let every: Vec<u32> = (0..dataset.len() as u32).collect();
            let at = Contributions::at(dataset, aggregator, &every);
            assert!(tables_bit_equal(&at, &whole), "{case}");
            // A scattered subset, in position order: row k is the k-th
            // position's row of the whole table.
            let some: Vec<u32> = every.iter().copied().filter(|p| p % 7 < 3).collect();
            let at = Contributions::at(dataset, aggregator, &some);
            let gathered = Contributions {
                dims: whole.dims,
                rows: some.iter().flat_map(|&p| whole.row(p).to_vec()).collect(),
                contributes: some.iter().map(|&p| whole.contributes(p)).collect(),
            };
            assert!(tables_bit_equal(&at, &gathered), "{case}");
            if case == "selective count" {
                let accepted = (0..some.len() as u32)
                    .filter(|&k| at.contributes(k))
                    .count();
                assert!(accepted > 0 && accepted < some.len(), "{case}: {accepted}");
            }
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
                snapper.x_reps_within(lo, hi).next().unwrap(),
                snapper.y_reps_within(lo / 3.0, hi / 3.0).next().unwrap(),
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

    #[test]
    fn rects_intersecting_filters_by_area() {
        let ds = dataset();
        let size = RegionSize::new(1.0, 1.0);
        let asp = AspInstance::build(&ds, size);
        let locations = LocationIndex::of(&ds);
        let view = locations.view(size);
        let area = Rect::new(1.0, 1.0, 2.5, 2.5);
        let hits = view.reaching(&area);
        assert_eq!(hits, vec![0]);
        let everything = view.reaching(&asp.space().unwrap());
        assert_eq!(everything.len(), 3);
    }

    /// A table without edges, where snapping is the identity.
    pub(crate) fn unsnapped() -> EdgeSnapper {
        snapper_of(Vec::new(), Vec::new())
    }

    /// The table of the edge coordinates `xs` and `ys`, in any order.
    pub(crate) fn snapper_of(mut xs: Vec<f64>, mut ys: Vec<f64>) -> EdgeSnapper {
        xs.sort_by(f64::total_cmp);
        ys.sort_by(f64::total_cmp);
        EdgeSnapper::from_sorted_edges(xs, ys)
    }

    /// Stores `index` as the generation's index in `cell`, if it holds
    /// none yet.
    pub(crate) fn set_index(cell: &LazyLocations, index: LocationIndex) {
        let _ = cell.0.set(index);
    }

    /// The index of `dataset` with one y missing from its y array, as if a
    /// patch had dropped the y of the object at `pos`.
    pub(crate) fn index_missing_y(dataset: &Dataset, pos: usize) -> LocationIndex {
        let mut index = LocationIndex::of(dataset);
        let y = dataset.object(pos).location.y.to_bits();
        let at = index.by_y.iter().position(|v| v.to_bits() == y);
        index.by_y.remove(at.unwrap());
        index
    }

    /// The rectangles of `asp` whose closed extent intersects `area`, by a
    /// scan of every rectangle: the oracle of [`SizeView::reaching`].
    pub(crate) fn rects_intersecting(asp: &AspInstance, area: &Rect) -> Vec<u32> {
        asp.rects()
            .iter()
            .enumerate()
            .filter(|(_, r)| r.rect.intersects(area))
            .map(|(i, _)| i as u32)
            .collect()
    }

    /// The edge table of `size` over `dataset` from a sort of every
    /// rectangle edge, and Definition 7's accuracy over the raw edges: the
    /// oracles the views are checked against.
    pub(crate) fn sorted_table(dataset: &Dataset, size: RegionSize) -> (EdgeSnapper, Accuracy) {
        let rects: Vec<Rect> = dataset
            .objects()
            .map(|o| Rect::from_top_right(o.location, size))
            .collect();
        let mut xs: Vec<f64> = rects.iter().flat_map(|r| [r.min_x, r.max_x]).collect();
        let mut ys: Vec<f64> = rects.iter().flat_map(|r| [r.min_y, r.max_y]).collect();
        let accuracy = Accuracy::from_edge_coordinates(&xs, &ys, floor());
        xs.sort_by(f64::total_cmp);
        ys.sort_by(f64::total_cmp);
        (EdgeSnapper::from_sorted_edges(xs, ys), accuracy)
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// At most `limit` elements of `items`, spread evenly.
    fn sample<T: Copy>(items: &[T], limit: usize) -> Vec<T> {
        let step = items.len().div_ceil(limit.max(1)).max(1);
        items.iter().step_by(step).copied().collect()
    }

    /// Probe coordinates along one axis of a full edge table: every edge,
    /// every midpoint between neighbours, and points beyond both ends.
    fn axis_probes(edges: &[f64]) -> Vec<f64> {
        let mut probes = edges.to_vec();
        probes.extend(edges.windows(2).map(|w| (w[0] + w[1]) / 2.0));
        if let (Some(&first), Some(&last)) = (edges.first(), edges.last()) {
            probes.extend([first - 3.0, first - 0.5, last + 0.5, last + 3.0]);
        }
        probes
    }

    /// Every window the lookup and view tests probe: the influence window
    /// (the anchors whose region can hold a location) of every object, and
    /// windows whose corners sit on rectangle corners.
    fn probe_windows(dataset: &Dataset, size: RegionSize) -> Vec<Rect> {
        let (w, h) = (size.width, size.height);
        dataset
            .objects()
            .flat_map(|o| {
                let Point { x, y } = o.location;
                [
                    Point::new(x, y),
                    Point::new(x - w, y - h),
                    Point::new(x + w, y + h),
                    Point::new(x - w, y + h),
                ]
            })
            .map(|p| Rect::new(p.x - w, p.y - h, p.x, p.y))
            .collect()
    }

    /// Cuts of `[lo, hi]` for sub-ranges: both ends, the middle, and the
    /// first and last full-table edges inside the range.
    fn cuts(edges: &[f64], lo: f64, hi: f64) -> Vec<f64> {
        let inside: Vec<f64> = edges
            .iter()
            .copied()
            .filter(|&e| e > lo && e < hi)
            .collect();
        let mut cuts = vec![lo, (lo + hi) / 2.0, hi];
        cuts.extend(inside.first());
        cuts.extend(inside.last());
        cuts.sort_by(f64::total_cmp);
        cuts
    }

    /// Every range `(a, b)`, `a ≤ b`, between two of the ascending `cuts`.
    fn ranges(cuts: &[f64]) -> Vec<(f64, f64)> {
        cuts.iter()
            .enumerate()
            .flat_map(|(i, &a)| cuts[i..].iter().map(move |&b| (a, b)))
            .collect()
    }

    /// Checks the view of `size` over `locations` against a sort of every
    /// edge of `dataset`, bit for bit: the whole table; Definition 7's
    /// accuracy; snaps through the view over each probe's own degenerate
    /// range at edges, midpoints and beyond both ends; and over each probed
    /// window, the first representative and the representative lists of
    /// its sub-ranges.  At most `limit` probes and windows are checked.
    pub(crate) fn assert_view_matches_fresh(
        locations: &LocationIndex,
        dataset: &Dataset,
        size: RegionSize,
        limit: usize,
    ) {
        let (global, expected) = sorted_table(dataset, size);
        let global = &global;
        let view = locations.view(size);
        let accuracy = AspInstance::new(Vec::new(), size, view.edges()).accuracy();
        assert_eq!(
            (accuracy.dx.to_bits(), accuracy.dy.to_bits()),
            (expected.dx.to_bits(), expected.dy.to_bits()),
            "accuracy at {size:?}"
        );
        let whole = view.edges();
        assert_eq!(bits(whole.xs()), bits(global.xs()), "x table at {size:?}");
        assert_eq!(bits(whole.ys()), bits(global.ys()), "y table at {size:?}");
        let (xs, ys) = (axis_probes(global.xs()), axis_probes(global.ys()));
        let points = (0..xs.len().max(ys.len()))
            .map(|i| Point::new(xs[i % xs.len()], ys[i % ys.len()]))
            .collect::<Vec<_>>();
        for p in sample(&points, limit) {
            let snapped = view.edges_within(&Rect::new(p.x, p.y, p.x, p.y)).snap(p);
            assert!(
                points_bit_equal(snapped, global.snap(p)),
                "{p:?} at {size:?}"
            );
            assert_eq!(view.snaps_to_itself(p), points_bit_equal(global.snap(p), p));
        }
        for window in sample(&probe_windows(dataset, size), limit) {
            let local = view.edges_within(&window);
            // The view is a run of the full table, bit for bit.
            for (part, full) in [(local.xs(), global.xs()), (local.ys(), global.ys())] {
                let at = full.partition_point(|e| *e < part[0]);
                assert_eq!(bits(part), bits(&full[at..at + part.len()]), "{window:?}");
            }
            let x_ranges = ranges(&cuts(global.xs(), window.min_x, window.max_x));
            let y_ranges = ranges(&cuts(global.ys(), window.min_y, window.max_y));
            for &(x0, x1) in &x_ranges {
                assert_eq!(
                    bits(&local.x_reps_within(x0, x1).collect::<Vec<_>>()),
                    bits(&global.x_reps_within(x0, x1).collect::<Vec<_>>()),
                    "x ({x0}, {x1}) in {window:?}"
                );
            }
            for (i, &(y0, y1)) in y_ranges.iter().enumerate() {
                assert_eq!(
                    bits(&local.y_reps_within(y0, y1).collect::<Vec<_>>()),
                    bits(&global.y_reps_within(y0, y1).collect::<Vec<_>>()),
                    "y ({y0}, {y1}) in {window:?}"
                );
                for &(x0, x1) in [
                    x_ranges[i % x_ranges.len()],
                    x_ranges[x_ranges.len() - 1 - i % x_ranges.len()],
                ]
                .iter()
                {
                    let region = Rect::new(x0, y0, x1, y1);
                    assert!(
                        points_bit_equal(
                            local.first_rep_within(&region),
                            global.first_rep_within(&region)
                        ),
                        "{region:?} in {window:?}"
                    );
                }
            }
        }
    }

    /// A seeded splitmix64 stream.
    pub(crate) struct Seeded(pub(crate) u64);

    impl Seeded {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        pub(crate) fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        /// A fraction in `[0.1, 0.9)`: an interior position.
        pub(crate) fn interior(&mut self) -> f64 {
            0.1 + 0.8 * (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// A seeded dataset on a 1/8 grid around the origin, with objects at
    /// both signed zeros on both axes.
    fn signed_zero_dataset(seed: u64) -> Dataset {
        let mut rng = Seeded(seed);
        let mut b = DatasetBuilder::new(Schema::empty());
        for _ in 0..200 {
            let x = (rng.below(81) as f64 - 40.0) / 8.0;
            let y = (rng.below(81) as f64 - 40.0) / 8.0;
            b.push(x, y, vec![]);
        }
        for (x, y) in [
            (-0.0, 0.0),
            (0.0, -0.0),
            (-0.0, -0.0),
            (1.25, -0.0),
            (-0.0, 0.5),
        ] {
            b.push(x, y, vec![]);
        }
        b.build().unwrap()
    }

    #[test]
    fn size_views_match_a_fresh_instance_bit_for_bit() {
        let sizes = [
            RegionSize::new(1.25, 0.5),
            RegionSize::new(0.375, 2.0),
            RegionSize::new(3.0, 0.125),
        ];
        for seed in [1, 2, 3] {
            let old = signed_zero_dataset(seed);
            let xs: Vec<u64> = old.objects().map(|o| o.location.x.to_bits()).collect();
            for size in sizes {
                // Some `fl(x − w)` is exactly another object's x ...
                assert!(old
                    .objects()
                    .any(|o| xs.contains(&(o.location.x - size.width).to_bits())));
                // ... and the full table keeps `-0.0` for its zeros.
                let (fresh, _) = sorted_table(&old, size);
                assert!(bits(fresh.xs()).contains(&(-0.0f64).to_bits()));
                assert!(!bits(fresh.xs()).contains(&0.0f64.to_bits()));
            }
            let mut locations = LocationIndex::of(&old);
            for size in sizes {
                assert_view_matches_fresh(&locations, &old, size, usize::MAX);
            }
            // Remove every `-0.0` x and two `-0.0` ys, keep a `+0.0` x, and
            // append a `-0.0` y and another `+0.0` x.
            let removed: Vec<usize> = old
                .objects()
                .enumerate()
                .filter(|(_, o)| {
                    let Point { x, y } = o.location;
                    (x == 0.0 && x.is_sign_negative()) || (y == 0.0 && y.is_sign_negative())
                })
                .map(|(pos, _)| pos)
                .chain([7])
                .collect();
            let objects: Vec<SpatialObject> =
                old.objects()
                    .enumerate()
                    .filter(|(pos, _)| !removed.contains(pos))
                    .map(|(_, o)| o.clone())
                    .chain([(2.5, -0.0), (0.0, 3.0)].map(|(x, y)| {
                        SpatialObject::new(10_000 + seed, Point::new(x, y), Vec::new())
                    }))
                    .collect();
            let next = Dataset::new_unchecked(Schema::empty(), objects);
            let delta = DatasetDelta::between(&old, &next);
            assert!(delta.removed.len() >= 5);
            assert!(locations.apply(&next, &delta));
            assert!(locations.bits_eq(&LocationIndex::of(&next)));
            for size in sizes {
                assert_view_matches_fresh(&locations, &next, size, usize::MAX);
            }
        }
    }

    fn assert_lookups_match(locations: &LocationIndex, dataset: &Dataset, size: RegionSize) {
        let asp = AspInstance::build(dataset, size);
        let mut nonempty = 0;
        for window in probe_windows(dataset, size) {
            let expected = rects_intersecting(&asp, &window);
            let found: Vec<u32> = locations.view(size).reaching(&window);
            assert_eq!(found, expected, "{window:?} at {size:?}");
            nonempty += usize::from(!expected.is_empty());
        }
        assert!(nonempty > 0);
    }

    #[test]
    fn the_location_index_finds_what_the_rectangle_scan_finds() {
        let sizes = [
            RegionSize::new(6.25, 4.5),
            RegionSize::new(0.3, 0.7),
            RegionSize::new(17.0, 9.875),
        ];
        for seed in [1, 2, 3] {
            // Coordinates on a 1/8 grid, so some `x − w` is exactly
            // another object's x.
            let old = UniformGenerator::default()
                .with_quantum(0.125)
                .generate(300, seed);
            let xs: Vec<u64> = old.objects().map(|o| o.location.x.to_bits()).collect();
            assert!(old
                .objects()
                .any(|o| xs.contains(&(o.location.x - sizes[0].width).to_bits())));
            let mut locations = LocationIndex::of(&old);
            for size in sizes {
                assert_lookups_match(&locations, &old, size);
            }
            // A removal batch shifts positions; appends (one at an
            // existing x) extend the tail.
            let bbox = old.bounding_box().unwrap();
            let mut twin = old.object(0).clone();
            twin.id = 2_000_000 + seed;
            twin.location = Point::new(old.object(30).location.x, bbox.center().y);
            let objects: Vec<SpatialObject> = old
                .objects()
                .enumerate()
                .filter(|(pos, _)| ![3, 150, 151].contains(pos))
                .map(|(_, o)| o.clone())
                .chain([twin])
                .collect();
            let next = Dataset::new_unchecked(old.schema().clone(), objects);
            let delta = DatasetDelta::between(&old, &next);
            assert_eq!(delta.removed, vec![3, 150, 151]);
            assert!(locations.apply(&next, &delta));
            assert!(locations.bits_eq(&LocationIndex::of(&next)));
            for size in sizes {
                assert_lookups_match(&locations, &next, size);
            }
        }
    }

    /// An object with a fresh `id` inside the extent of `dataset`.
    fn interior(dataset: &Dataset, id: u64, fx: f64, fy: f64) -> SpatialObject {
        let bbox = dataset.bounding_box().unwrap();
        let mut object = dataset.object(0).clone();
        object.id = id;
        object.location = Point::new(
            bbox.min_x + bbox.width() * fx,
            bbox.min_y + bbox.height() * fy,
        );
        object
    }

    /// Runs `write` on `engine` with the generation's location index
    /// built, checks that the publish handed the successor the index
    /// patched into a fresh build ([`LazyLocations::successor`]), and
    /// returns the batch's delta.
    fn publish_delta(engine: &crate::AsrsEngine, write: impl FnOnce(&Dataset)) -> DatasetDelta {
        let old = engine.core();
        old.locations.of(&old.dataset);
        write(&old.dataset);
        let next = engine.core();
        let patched = next.locations.get().expect("the publish patched the index");
        assert!(patched.bits_eq(&LocationIndex::of(&next.dataset)));
        DatasetDelta::between(&old.dataset, &next.dataset)
    }

    #[test]
    fn each_kind_of_write_gives_the_successor_its_delta() {
        let ds = UniformGenerator::default().generate(400, 3);
        let aggregator = CompositeAggregator::builder(ds.schema())
            .distribution("category", Selection::All)
            .build()
            .unwrap();
        let engine = crate::AsrsEngine::builder(ds.clone(), aggregator)
            .build()
            .unwrap();
        let delta = |removed: Vec<usize>, tail: usize| DatasetDelta { removed, tail };
        // A solo removal.
        let solo = publish_delta(&engine, |old| {
            engine.remove(old.object(57).id).unwrap();
        });
        assert_eq!(solo, delta(vec![57], 399));
        // A sweep that expires the tail object.
        let expiring = interior(&ds, 1_000_001, 0.41, 0.37);
        engine.append_with_ttl(expiring, Duration::ZERO).unwrap();
        let swept = publish_delta(&engine, |_| {
            assert_eq!(engine.sweep_expired().unwrap().len(), 1);
        });
        assert_eq!(swept, delta(vec![399], 399));
        // An expiry piggybacked on an application append.
        let expiring = interior(&ds, 1_000_002, 0.62, 0.55);
        engine.append_with_ttl(expiring, Duration::ZERO).unwrap();
        let piggybacked = publish_delta(&engine, |_| {
            let receipt = engine.append(interior(&ds, 1_000_003, 0.18, 0.83)).unwrap();
            assert_eq!(receipt.batch, 2, "the due expiry must ride along");
        });
        assert_eq!(piggybacked, delta(vec![399], 399));
        // A replayed expiry record of an interior object.
        let replayed = publish_delta(&engine, |old| {
            let id = old.object(90).id;
            engine.apply_mutations(&[Mutation::Expire { id }]).unwrap();
        });
        assert_eq!(replayed, delta(vec![90], 399));
        // A mixed batch.
        let mixed = publish_delta(&engine, |old| {
            let batch = [
                Mutation::Remove {
                    id: old.object(12).id,
                },
                Mutation::Append {
                    object: interior(&ds, 1_000_004, 0.3, 0.7),
                },
                Mutation::Remove {
                    id: old.object(250).id,
                },
                Mutation::Append {
                    object: interior(&ds, 1_000_005, 0.8, 0.2),
                },
            ];
            engine.apply_mutations(&batch).unwrap();
        });
        assert_eq!(mixed, delta(vec![12, 250], 397));
        // Removing one id and appending it again, moved.
        let moved = publish_delta(&engine, |old| {
            let mut moved = old.object(140).clone();
            moved.location = interior(&ds, moved.id, 0.55, 0.45).location;
            let batch = [
                Mutation::Remove { id: moved.id },
                Mutation::Append { object: moved },
            ];
            engine.apply_mutations(&batch).unwrap();
        });
        assert_eq!(moved, delta(vec![140], 398));
    }
}
