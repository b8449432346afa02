//! Cross-generation cache carry-forward: the churn-survival half of the
//! generational cache design.
//!
//! Generation stamping ([`RequestKey::stamped`](crate::RequestKey)) makes
//! stale hits structurally impossible — but it also moves the *entire*
//! cache to fresh key space on every published mutation, so under a mixed
//! read/append workload nearly every read goes cold even though almost no
//! cached answer actually changed.  This module closes that gap: right
//! after a batch publishes (still under the mutation mutex), it walks the
//! old generation's entries and **re-stamps** every entry whose answer is
//! provably unaffected by the batch to the new generation.
//!
//! # The proof obligation
//!
//! A carry is sound iff a cold recomputation against the successor core
//! would produce a byte-identical `stats_stripped()` response.  The
//! predicate below establishes this from the ASP reduction's geometry
//! (Section 4.1 of the paper): appending or removing an object `o` changes
//! the covering set only of anchors strictly inside the *influence window*
//! `W(o.ρ) = (ρ.x − a, ρ.x) × (ρ.y − b, ρ.y)` — exactly the rectangle
//! object's open interior — and changes arrangement-cell representatives
//! only for cells meeting the window's edge coordinates.  An entry is
//! carried only when every per-slot check passes:
//!
//! - **R1 (plan stability)** — the successor core's planner still routes
//!   the request to the backend that produced the stored response, and the
//!   plan still admits.  Statistics shift with the dataset, so the planner
//!   may genuinely change its mind; a carried hit must not mask that.
//! - **R2 (reported regions untouched)** — no touched location lies inside
//!   any reported result region (closed containment, a conservative
//!   superset of the open window test).  This guarantees every *reported*
//!   anchor keeps its covering set, hence its representation and distance.
//! - **R3 (window threshold test)** — for every touched location, the
//!   engine's own discretize–split branch-and-bound
//!   ([`DsSearch::search_space`] restricted to the influence window,
//!   Equation-1 pruning and all) decides against the successor dataset
//!   whether any candidate anchored inside the window reaches the slot's
//!   cutoff `d_max` (the worst reported distance).  If one does, a changed
//!   candidate could enter or reorder the result set, and the entry is
//!   rejected.  The search only needs the decision, not the window's
//!   exact minimum: it is seeded with a candidate just above the cutoff,
//!   so every sub-space whose bound exceeds the cutoff is pruned at once.
//!   The window itself is the first such sub-space: before a grid is laid,
//!   the window's own Equation-1 bound ([`DsSearch::space_bound`], base the
//!   candidate rectangles containing the closed window, upper set all of
//!   them) is compared with the seed, and a window it exceeds cannot reach
//!   — the kernel would prune it whole.  Appends land anywhere, so most
//!   windows are sparse and settled by this bound alone.  The candidate
//!   budget is checked after it: a window the bound settles is never
//!   refused for being dense.
//!   A small relative tolerance widens the rejection band so an epsilon
//!   disagreement between evaluation orders can only reject.
//! - **R4 (anchor stability)** — every reported anchor snaps to itself
//!   under the successor instance's edge table
//!   ([`EdgeSnapper`](crate::asp::EdgeSnapper)).  Canonical answers
//!   report global edge-interval midpoints; if an edge appeared or
//!   vanished next to a reported anchor, the recomputed answer would name
//!   a different representative even though the covering set is unchanged.
//!
//! Candidates *tied* with a reported entry cannot displace it either: the
//! retained set is the minimum of the total order `(distance, anchor.y,
//! anchor.x)` (see [`BestSet`]), so a batch changes the winner only by
//! introducing a preceding candidate.  New or improved candidates live in
//! the influence windows (rejected by R3); a snapping-grid split elsewhere
//! moves a competitor's representative only *within* its own edge
//! interval, so a competitor ordered after a reported anchor stays after
//! it unless the reported anchor's own interval split — which R4 rejects.
//!
//! Batch-level gates: only sharded cores carry — the byte-identity
//! guarantee the predicate leans on is stated and tested for the shard
//! scatter; bounding-box movement rejects the whole batch (the search
//! space itself moved).  Top-k responses carry only when
//! the ranking is full (`len == k`), since a short ranking can be extended
//! by a candidate *worse* than every reported distance.  MaxRS responses
//! carry through their ASRS reduction (count aggregator, target above the
//! cardinality): the reduction shifts every candidate's distance by the
//! same amount when the cardinality changes, so order is preserved and the
//! same R2–R4 obligations apply with the cutoff `target − count`.
//! Approximate responses carry exactly like similar-region ones, because
//! a sharded core answers them with the exact scatter (δ is validated,
//! then forced to zero): the stored response is what `Similar` would
//! compute, so R1–R4 apply verbatim.  The approximate arm checks the
//! sharded gate itself, so it cannot become unsound if unsharded cores,
//! whose (1+δ) pruning lets candidates far from the cutoff steer the
//! answer, ever carry.
//!
//! Residual risk — an exact f64 distance tie at `d_max` whose tie-break
//! winner migrates between arrangement cells outside every window — is
//! measure-zero but real, so the proof path is belt-and-braces: debug
//! builds recompute every accepted entry and byte-compare
//! `stats_stripped()` serializations before re-stamping (a mismatch counts
//! a [`carry_proof_failure`](crate::CacheStats::carry_proof_failures) and
//! skips the carry), and the release-mode churn-parity suite
//! (`tests/mutation_parity.rs`) performs the same comparison end-to-end.
//!
//! # Shared tables and per-size views
//!
//! R3 and R4 read, per distinct query size, the edge table of the size's
//! ASP instance (which snaps the probed anchors), and around each touched
//! location the candidate rectangles and their [`Contributions`] rows: the
//! engine aggregator's rows for ASRS slots, a count aggregator's for MaxRS
//! slots.  None of it needs an instance per size.  Rectangle `i` is the
//! `a × b` box whose top-right corner is object `i`'s location, so the
//! x-edges of size `a` are `{xᵢ} ∪ {fl(xᵢ − a)}`, and both halves are views
//! of one x-sorted coordinate array because `fl(x − a)` is monotone in `x`;
//! likewise in y.  A contribution row is object `i`'s whatever the size.
//! So, as FDB factorises a join, each object's data is stored once and
//! each size's view is derived from it.
//!
//! The persistent state ([`CarryProbes`], kept in the mutator state across
//! publishes) is size-independent: [`ObjectTables`] holds one contribution
//! table per aggregator a recent pass probed, and the [`LocationIndex`]:
//! the objects sorted by x, each with its y and position, beside every y
//! sorted on its own.  They follow each batch in place, whatever its
//! shape: appends, removals, TTL expiries or a mix.  Once per pass the
//! [`DatasetDelta`] is derived by walking the predecessor and successor
//! datasets in order (removals preserve order and appends land at the
//! end, so the walk is exact), and the tables are patched once: the
//! removed rows and entries are dropped (renumbering the rest), the
//! appended tail's are added.  Nothing is kept per size, so a write costs
//! the same whatever sizes the cache holds.
//!
//! A size's edge table is a view ([`SizeView::edges_within`]): over a
//! range, each axis takes the entries of `{v} ∪ {fl(v − a)}` inside it and
//! the nearest entry beyond each side, by binary searches, and builds an
//! ordinary [`EdgeSnapper`] from them, so deduplication and the
//! representative of a run of equal coordinates (`-0.0` for a run of zeros
//! that holds one) are the full table's.  Every snap and representative
//! inside the range reads only an edge's neighbours, so it equals the full
//! table's bit for bit.  R4 snaps each reported anchor with the view over
//! the anchor itself.  R3 runs each influence window on a window-local
//! instance ([`AspInstance::of_rects`]): the window's candidate
//! rectangles, built from the located x and y, and their rows in the same
//! order; when the window's bound does not settle it, the instance also
//! takes the view over the window as its edge table and the size's
//! Definition-7 accuracy.  That accuracy is one merge scan of the two
//! sorted halves per axis ([`SizeView::accuracy`]), run the first time a
//! pass searches a window of the size and kept for the rest of the pass.
//! The kernel thus sees the rectangles, rows, order, edges and accuracy
//! the full instance would give it, and decides each window as it would
//! there.  Debug builds assert the patched tables against a fresh build;
//! the unit tests below check the tables and the views against fresh
//! instances in release builds too.
//!
//! # Window candidates by location
//!
//! Each R3 window runs over the rectangles that reach the window: its
//! bound sums them, and its search, when the bound does not settle it,
//! discretises them.  Rectangle `i` spans `[fl(xᵢ − a), xᵢ] × [fl(yᵢ − b),
//! yᵢ]`, and `fl(x − a)` is monotone in `x`, so the rectangles whose
//! x-extent meets a window `W` belong to the objects with `x ≥ W.min_x` and
//! `fl(x − a) ≤ W.max_x`: one contiguous run of the x-sorted index, found
//! by two binary searches (a seek over sorted keys, as in Leapfrog
//! Triejoin).  The index keeps each object's y beside its x, so the run is
//! narrowed by `y ≥ W.min_y` and `fl(y − b) ≤ W.max_y` without reading a
//! rectangle; together the four tests are exactly [`Rect::intersects`].
//! The survivors come back in ascending position order: element for
//! element the list a scan of every rectangle returns
//! ([`AspInstance::rects_intersecting`]).  The order per window is the
//! empty-covering test (once per slot), this lookup, the bound, the
//! candidate budget, and only then the search.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use asrs_aggregator::{CompositeAggregator, FeatureVector, Selection};
use asrs_data::{AttrValue, Dataset, SpatialObject};
use asrs_geo::{min_positive_gap_sorted, Accuracy, Point, Rect, RegionSize};

use crate::asp::{
    accuracy_from_min_gaps, insert_at, remove_at, AspInstance, Contributions, EdgeSnapper,
    RectObject,
};
use crate::best::BestSet;
use crate::cache::{CarryCandidate, CarryPassCounts, QueryCache};
use crate::config::SearchConfig;
use crate::discretize::{BoundSums, Scratch};
use crate::ds_search::{empty_candidate, DsSearch};
use crate::engine::EngineCore;
use crate::maxrs::MaxRsResult;
use crate::query::AsrsQuery;
use crate::request::{QueryOutcome, QueryRequest};
use crate::result::SearchResult;
use crate::stats::SearchStats;

/// Hard ceiling on candidate rectangles per window search.  A
/// pathologically dense window makes proving cheap entries more expensive
/// than recomputing them — past the ceiling the entry is simply rejected
/// and takes the ordinary cold miss.  The branch-and-bound visits only
/// what Equation-1 pruning cannot exclude, so the ceiling is sized for
/// the candidate *list*, not for an exhaustive visit.
const PROBE_BUDGET: usize = 32_768;

/// Relative tolerance applied to the R3 cutoff comparison.  The probe
/// evaluates representations with [`CompositeAggregator::aggregate_region`]
/// while the backends fold per-rectangle statistics; the two orders agree
/// to well under this bound, and the tolerance only ever widens the
/// rejection band (a borderline carry degrades to a cold miss, never the
/// other way around).
const CUTOFF_SLACK: f64 = 1e-9;

/// Re-stamps every provably unaffected cache entry of `old`'s generation
/// to `next`'s generation.  Called from the publish path with the mutation
/// mutex held, after the WAL accepted the batch (nothing can abort the
/// publish past that point) and *before* the successor core swaps in, so
/// readers never observe a cold window for the pass's duration.
///
/// `touched` holds the location of every object the batch appended or
/// removed; `probes` are the persistent probe tables, brought up to `next`
/// incrementally (see the module docs).  The pass's duration and what it
/// counted (how R3 settled its windows, and the accuracy scans it ran) are
/// recorded in the cache's counters.
pub(crate) fn carry_forward(
    old: &EngineCore,
    next: &EngineCore,
    touched: &[Point],
    probes: &mut CarryProbes,
) {
    let Some(cache) = next.cache.as_deref() else {
        return;
    };
    let started = Instant::now();
    let counts = restamp(cache, old, next, touched, probes);
    cache.note_carry_pass(started.elapsed(), counts);
}

/// The pass itself; returns how R3 settled the windows it examined and how
/// many accuracy scans it ran.
fn restamp(
    cache: &QueryCache,
    old: &EngineCore,
    next: &EngineCore,
    touched: &[Point],
    probes: &mut CarryProbes,
) -> CarryPassCounts {
    // Canonical sharded cores only: the soundness argument is built on the
    // shard scatter's decomposition-independence guarantee.  A moved
    // bounding box changes the search space wholesale — reject the entire
    // batch.
    if next.shards.is_none() || touched.is_empty() {
        return CarryPassCounts::default();
    }
    if !rects_bit_equal(old.dataset.bounding_box(), next.dataset.bounding_box()) {
        return CarryPassCounts::default();
    }
    let candidates = cache.carry_candidates(old.generation);
    if candidates.is_empty() {
        return CarryPassCounts::default();
    }
    let mut probes = PassProbes::new(probes, old, next);
    for candidate in candidates {
        if !entry_survives(next, &candidate, touched, &mut probes) {
            continue;
        }
        // Debug builds prove every accepted carry by recomputation before
        // it becomes servable; release builds rely on the predicate (and
        // the churn-parity suite, which runs this same comparison).
        #[cfg(debug_assertions)]
        {
            if !byte_identical_recompute(next, &candidate) {
                cache.note_carry_proof_failure();
                continue;
            }
        }
        let new_key = candidate.request.cache_key().stamped(next.generation);
        cache.carry(&candidate.key, new_key, old.generation);
    }
    probes.counts
}

/// The full per-entry predicate (R1 plus the per-slot checks).
fn entry_survives(
    next: &EngineCore,
    candidate: &CarryCandidate,
    touched: &[Point],
    probes: &mut PassProbes<'_>,
) -> bool {
    // R1: the successor planner must still choose the stored backend and
    // admit the plan — otherwise a cold run would answer (or fail)
    // differently.
    let Ok(plan) = next.plan(&candidate.request) else {
        return false;
    };
    if plan.backend != candidate.response.backend || plan.admit().is_err() {
        return false;
    }
    match (candidate.request.operation(), &candidate.response.outcome) {
        (QueryRequest::Similar { query }, QueryOutcome::Best(result)) => {
            slot_survives(next, query, std::slice::from_ref(result), touched, probes)
        }
        (QueryRequest::Approximate { query, .. }, QueryOutcome::Best(result)) => {
            // Sound only where the executor answers it exactly: a sharded
            // core forces δ to zero, so the stored response is the
            // similar-region answer.  Unsharded backends prune against the
            // (1+δ) band, where candidates far from the cutoff can steer
            // the reported answer.
            next.shards.is_some()
                && slot_survives(next, query, std::slice::from_ref(result), touched, probes)
        }
        (QueryRequest::TopK { query, k }, QueryOutcome::Ranked(ranked)) => {
            // A short ranking (fewer candidates than requested) can be
            // *extended* by a new candidate worse than every reported
            // distance, which no cutoff probe would catch.
            ranked.len() == *k && slot_survives(next, query, ranked, touched, probes)
        }
        (QueryRequest::Batch { queries }, QueryOutcome::Batch(results)) => {
            queries.len() == results.len()
                && queries.iter().zip(results).all(|(query, result)| {
                    slot_survives(next, query, std::slice::from_ref(result), touched, probes)
                })
        }
        (QueryRequest::MaxRs { size }, QueryOutcome::MaxRs(result)) => {
            maxrs_survives(next, *size, &Selection::All, result, touched, probes)
        }
        (QueryRequest::MaxRsSelective { size, selection }, QueryOutcome::MaxRs(result)) => {
            maxrs_survives(next, *size, selection, result, touched, probes)
        }
        // Mismatched shapes: never sound to serve.
        _ => false,
    }
}

/// R2 + R3 + R4 for one query/result-set slot.  `results` is the slot's
/// reported set, best first; the cutoff is the worst reported distance.
fn slot_survives(
    next: &EngineCore,
    query: &AsrsQuery,
    results: &[SearchResult],
    touched: &[Point],
    probes: &mut PassProbes<'_>,
) -> bool {
    let Some(d_max) = results.last().map(|r| r.distance) else {
        return false;
    };
    // A non-finite cutoff poisons every comparison below (NaN compares
    // false, so probes could never reject).
    if !d_max.is_finite() {
        return false;
    }
    // R2: every reported region must be untouched — closed containment, a
    // conservative superset of the open influence-window membership test —
    // so reported representations and distances are still exact.
    for result in results {
        for p in touched {
            if result.region.contains_point(p) {
                return false;
            }
        }
    }
    // R4: reported anchors must still be their own arrangement-cell
    // representatives under the successor's edge set.
    let view = probes.view(query.size);
    if !results.iter().all(|r| view.snaps_to_itself(r.anchor)) {
        return false;
    }
    // R3: no candidate inside any influence window may reach the cutoff.
    // Each window runs the engine's own pruned branch-and-bound instead of
    // enumerating arrangement cells — a dense instance puts 10^5..10^6
    // cells in a single window, but the threshold search visits only what
    // Equation-1 pruning cannot exclude.
    let cutoff = d_max + d_max.abs() * CUTOFF_SLACK;
    probes.no_window_reaches(next, &next.aggregator, query, touched, cutoff)
}

/// R2 + R3 + R4 for a MaxRS answer, through the MaxRS → ASRS reduction
/// (count aggregator, target one above the successor cardinality).
///
/// The reduction's target moves with the cardinality, shifting *every*
/// candidate's distance by the same amount — order, ties and tie-breaks
/// are preserved exactly — so the stored `(region, anchor, count)` answer
/// is reproduced byte-for-byte by a successor search iff no influence
/// window holds a candidate reaching the reported count: no window may
/// reach the reported distance `target − count`.  Counts and targets are
/// integers below 2^53, so the comparison is exact and the slack only
/// widens rejection.
fn maxrs_survives(
    next: &EngineCore,
    size: RegionSize,
    selection: &Selection,
    result: &MaxRsResult,
    touched: &[Point],
    probes: &mut PassProbes<'_>,
) -> bool {
    // R2: the reported region's strict count is untouched.
    for p in touched {
        if result.region.contains_point(p) {
            return false;
        }
    }
    // R3 runs the same reduction the executor runs (`maxrs::reduction`):
    // exact search, count aggregator over the request's selection, target
    // above the successor cardinality.
    let Ok((aggregator, query)) = crate::maxrs::reduction(&next.dataset, size, selection) else {
        return false;
    };
    let d_reported = (next.dataset.len() as f64 + 1.0) - result.count as f64;
    // R2 keeps every counted object alive, so the reported count cannot
    // exceed the successor cardinality; anything else is a stored answer
    // this predicate does not understand.
    if !d_reported.is_finite() || d_reported < 1.0 {
        return false;
    }
    // R4: the reported anchor is still its own cell representative.
    if !probes.view(size).snaps_to_itself(result.anchor) {
        return false;
    }
    let cutoff = d_reported + d_reported * CUTOFF_SLACK;
    probes.no_window_reaches(next, &aggregator, &query, touched, cutoff)
}

/// How R3 settled one influence window.
#[derive(Debug, Clone, Copy)]
struct Verdict {
    /// Some candidate anchored in the window reaches the cutoff.
    reaches: bool,
    /// The window's Equation-1 bound did not settle it: the
    /// branch-and-bound ran, or [`PROBE_BUDGET`] refused the window.
    searched: bool,
}

/// What R3 reads for one slot: the kernel's settings and query, the view
/// of the query size, and the contribution table of the slot's aggregator.
struct SlotProbe<'p> {
    aggregator: &'p CompositeAggregator,
    config: &'p SearchConfig,
    query: &'p AsrsQuery,
    view: SizeView<'p>,
    table: &'p Contributions,
}

impl SlotProbe<'_> {
    /// The window-local instance of `window`: the contributing rectangles
    /// that reach it, in position order, and their rows in the same order.
    /// The edge table is left empty (see [`window_reaches`]).
    fn window_instance(&self, window: &Rect) -> (AspInstance, Contributions) {
        let size = self.query.size;
        let mut hits = self.view.locations.reaching(size, window);
        hits.retain(|e| self.table.contributes(e.pos));
        let rects = hits
            .iter()
            .map(|e| RectObject {
                rect: Rect::from_top_right(Point::new(e.x, e.y), size),
                object_idx: e.pos,
            })
            .collect();
        let rows = self.table.gather(hits.iter().map(|e| e.pos));
        (AspInstance::of_rects(rects, size), rows)
    }

    /// The kernel bound to `asp`, whose rows are `table`.
    fn solver<'s>(&'s self, asp: &'s AspInstance, table: &'s Contributions) -> DsSearch<'s> {
        DsSearch::new(
            self.aggregator,
            self.config,
            0.0,
            asp,
            table,
            self.query,
            None,
        )
    }
}

/// The kernel buffers of one aggregator's R3 windows in a pass: the
/// bound's, allocated at the first window, and the grid's, allocated at
/// the first window the bound does not settle.
struct WindowBuffers {
    bound: BoundSums,
    partial: Vec<u32>,
    grid: Option<Scratch>,
}

impl WindowBuffers {
    fn new(aggregator: &CompositeAggregator) -> Self {
        Self {
            bound: BoundSums::new(aggregator),
            partial: Vec::new(),
            grid: None,
        }
    }
}

/// Whether some candidate anchored in the influence window of `touched`
/// attains a distance at or below `cutoff` against the successor dataset,
/// decided by the kernel on the window-local instance of `probe`.  The
/// slot's caller has already tested the empty covering, whose
/// representation is `empty_rep`; `accuracy` is the size's Definition-7
/// accuracy, computed here when the first search needs it.
///
/// Mirrors the cold path: exact search (δ = 0, like the scatter) and the
/// same contributing-rectangle filter.  The cheap tests run first, each
/// settling the window when it can:
///
/// 1. The lookup finds the window's candidate rectangles and their rows.
/// 2. The window's own Equation-1 bound ([`DsSearch::space_bound`]): when
///    it exceeds the seed below, the kernel would prune the whole window,
///    so no candidate in it reaches the cutoff and no grid is built.
/// 3. A window reaching more than [`PROBE_BUDGET`] candidate rectangles
///    counts as reaching the cutoff.  It comes after the bound, so a window
///    the bound settles is never refused for being dense.
/// 4. Otherwise the instance takes the view over the window as its edge
///    table, and [`window_search`] runs the branch-and-bound.
fn window_reaches(
    probe: &SlotProbe<'_>,
    touched: Point,
    cutoff: f64,
    empty_rep: &FeatureVector,
    buffers: &mut WindowBuffers,
    accuracy: &mut Option<Accuracy>,
) -> Verdict {
    let window = influence_window(touched, probe.query.size);
    let (mut asp, table) = probe.window_instance(&window);
    let candidates = asp.all_rect_indices();
    let bound = probe.solver(&asp, &table).space_bound(
        &window,
        &candidates,
        &mut buffers.bound,
        &mut buffers.partial,
    );
    if bound > cutoff.next_up() {
        return Verdict {
            reaches: false,
            searched: false,
        };
    }
    if candidates.len() > PROBE_BUDGET {
        return Verdict {
            reaches: true,
            searched: true,
        };
    }
    let accuracy = *accuracy.get_or_insert_with(|| probe.view.accuracy());
    asp.set_edges(probe.view.edges_within(&window), accuracy);
    let solver = probe.solver(&asp, &table);
    let scratch = buffers.grid.get_or_insert_with(|| solver.scratch());
    Verdict {
        reaches: window_search(
            &solver,
            window,
            candidates,
            cutoff,
            empty_rep.clone(),
            scratch,
        ),
        searched: true,
    }
}

/// The branch-and-bound over `window`, whose contributing rectangles are
/// `candidates`: whether some candidate anchored in it attains a distance
/// at or below `cutoff`.  The search starts from a seed at the next float
/// above the cutoff (`empty_rep`, the empty covering's representation, at
/// the window's corner): pruning then discards every sub-space whose bound
/// exceeds the seed, and any candidate at or below the cutoff displaces it.
fn window_search(
    solver: &DsSearch<'_>,
    window: Rect,
    candidates: Vec<u32>,
    cutoff: f64,
    empty_rep: FeatureVector,
    scratch: &mut Scratch,
) -> bool {
    let mut best = BestSet::new(1, Arc::clone(solver.asp.edges()));
    best.offer(
        cutoff.next_up(),
        Point::new(window.min_x, window.min_y),
        empty_rep,
    );
    let mut stats = SearchStats::new();
    let searched = solver.search_space(window, candidates, &mut best, &mut stats, scratch);
    searched.is_err()
        || best
            .into_entries()
            .first()
            .is_none_or(|e| e.distance <= cutoff)
}

/// The influence window `W(ρ)` of a touched location `ρ`: the anchors
/// whose candidate region can hold an object at `ρ`.
fn influence_window(touched: Point, size: RegionSize) -> Rect {
    Rect::new(
        touched.x - size.width,
        touched.y - size.height,
        touched.x,
        touched.y,
    )
}

/// The persistent probe tables, owned by the mutator state and reused
/// across publishes (see the module docs).  Every batch patches them in
/// place; nothing is built before the first pass.
#[derive(Debug, Default)]
pub(crate) struct CarryProbes {
    objects: Option<ObjectTables>,
}

/// The size-independent probe tables, tagged with the dataset generation
/// and length they reflect: one contribution table per aggregator a recent
/// pass probed (the engine's, and the count aggregators of MaxRS
/// reductions), and the objects' location index.  Each is one copy shared
/// by every size, patched once per pass.
#[derive(Debug)]
struct ObjectTables {
    tables: Vec<AggregatorTable>,
    locations: LocationIndex,
    generation: u64,
    len: usize,
}

/// The contribution table of one aggregator, and the generation of the
/// last pass that probed it.
#[derive(Debug)]
struct AggregatorTable {
    aggregator: CompositeAggregator,
    table: Contributions,
    used: u64,
}

impl ObjectTables {
    /// The location index of `next`; tables are built when first probed.
    fn fresh(next: &EngineCore) -> Self {
        Self {
            tables: Vec::new(),
            locations: LocationIndex::of(&next.dataset),
            generation: next.generation,
            len: next.dataset.len(),
        }
    }

    /// Whether the tables reflect `core`.
    fn reflect(&self, core: &EngineCore) -> bool {
        self.generation == core.generation && self.len == core.dataset.len()
    }

    /// Brings the tables of the predecessor up to `next`.  Tables the
    /// previous pass did not probe are dropped rather than patched.
    /// Returns `false` when the location index turned out not to reflect
    /// the predecessor; the tables must then be built afresh.
    fn apply(&mut self, next: &EngineCore, delta: &DatasetDelta) -> bool {
        let previous = self.generation;
        self.tables.retain(|t| t.used == previous);
        for t in &mut self.tables {
            t.table
                .patch(&t.aggregator, &next.dataset, &delta.removed, delta.tail);
        }
        if !self.locations.apply(&next.dataset, delta) {
            return false;
        }
        self.generation = next.generation;
        self.len = next.dataset.len();
        #[cfg(debug_assertions)]
        {
            let diverged = self.diverges_from_fresh(next);
            debug_assert!(
                diverged.is_none(),
                "incremental probe tables diverged from a fresh build in their {diverged:?}"
            );
        }
        true
    }

    /// The first table that differs from a from-scratch build of `next`,
    /// compared bit for bit, or `None` when all match.
    #[cfg(any(debug_assertions, test))]
    fn diverges_from_fresh(&self, next: &EngineCore) -> Option<&'static str> {
        if !self.tables.iter().all(|t| {
            t.table
                .bits_eq(&Contributions::of(&next.dataset, &t.aggregator))
        }) {
            Some("contribution table")
        } else if !self.locations.bits_eq(&LocationIndex::of(&next.dataset)) {
            Some("location index")
        } else if self.len != next.dataset.len() {
            Some("length")
        } else {
            None
        }
    }
}

/// The objects sorted by x (by `total_cmp`, then by position), each with
/// its y and its dataset position, and every object's y sorted on its own
/// (by `total_cmp`).  Which rectangles reach a window is a range lookup
/// over the first, and every size's edge table is a view of the two (see
/// the module docs).  Neither depends on the query size.
#[derive(Debug)]
struct LocationIndex {
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
    fn of(dataset: &Dataset) -> Self {
        let mut by_x: Vec<Located> = (0..dataset.len())
            .map(|pos| Located::of(dataset, pos))
            .collect();
        by_x.sort_unstable_by(x_order);
        let mut by_y: Vec<f64> = by_x.iter().map(|e| e.y).collect();
        by_y.sort_unstable_by(f64::total_cmp);
        Self { by_x, by_y }
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

    /// The entries of the objects whose rectangle of `size` intersects
    /// `window` (closed extents), in ascending position order:
    /// [`AspInstance::rects_intersecting`]'s list.  Rectangle `i` is
    /// `[fl(xᵢ − a), xᵢ] × [fl(yᵢ − b), yᵢ]`, so the index's x and y decide
    /// [`Rect::intersects`] exactly: the x-run bounds its x half, the y
    /// test on each entry its y half, and no rectangle is built.
    fn reaching(&self, size: RegionSize, window: &Rect) -> Vec<Located> {
        let RegionSize { width, height } = size;
        let lo = self.by_x.partition_point(|e| e.x < window.min_x);
        let run = self.by_x[lo..].partition_point(|e| e.x - width <= window.max_x);
        let mut hits: Vec<Located> = self.by_x[lo..lo + run]
            .iter()
            .filter(|e| e.y >= window.min_y && e.y - height <= window.max_y)
            .copied()
            .collect();
        hits.sort_unstable_by_key(|e| e.pos);
        hits
    }

    #[cfg(any(debug_assertions, test))]
    fn bits_eq(&self, other: &Self) -> bool {
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
/// over a range and its Definition-7 accuracy, derived from the
/// size-independent arrays (see the module docs).
#[derive(Clone, Copy)]
struct SizeView<'a> {
    locations: &'a LocationIndex,
    size: RegionSize,
}

impl SizeView<'_> {
    /// Whether `anchor` is its own representative under the size's edge
    /// table (R4): the view over the anchor's own degenerate range snaps
    /// it as the full table does.
    fn snaps_to_itself(&self, anchor: Point) -> bool {
        let at = Rect::new(anchor.x, anchor.y, anchor.x, anchor.y);
        points_bit_equal(self.edges_within(&at).snap(anchor), anchor)
    }

    /// The size's edge table over `range`: per axis, the edges inside the
    /// closed range and every copy of the nearest edge beyond each side,
    /// deduplicated by [`EdgeSnapper::from_sorted_edges`] like the full
    /// table.  Snaps of points and representatives of ranges between those
    /// two nearest edges equal the full table's, bit for bit.
    fn edges_within(&self, range: &Rect) -> EdgeSnapper {
        let LocationIndex { by_x, by_y } = self.locations;
        let RegionSize { width, height } = self.size;
        EdgeSnapper::from_sorted_edges(
            axis_edges(by_x, |e| e.x, width, range.min_x, range.max_x),
            axis_edges(by_y, |&y| y, height, range.min_y, range.max_y),
        )
    }

    /// Definition 7's accuracy of the size: per axis, the smallest
    /// positive gap in the ascending merge of the two halves `{v}` and
    /// `{fl(v − w)}`, in one scan; bit for bit the full table's.
    fn accuracy(&self) -> Accuracy {
        let LocationIndex { by_x, by_y } = self.locations;
        let RegionSize { width, height } = self.size;
        accuracy_from_min_gaps(
            min_positive_gap_sorted(merged(by_x, by_x, |e| e.x, width)),
            min_positive_gap_sorted(merged(by_y, by_y, |&y| y, height)),
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

/// One carry pass's view of the probe tables, brought up to the successor,
/// and what the pass keeps only while it runs: the accuracy of each size
/// it searched a window of, the kernel buffers of each aggregator, and
/// what it counted.
struct PassProbes<'a> {
    objects: &'a mut ObjectTables,
    /// Definition 7's accuracy per size, by [`size_key`].
    accuracies: HashMap<(u64, u64), Accuracy>,
    /// The R3 buffers of each aggregator, by its index in
    /// [`ObjectTables::tables`].
    buffers: Vec<Option<WindowBuffers>>,
    counts: CarryPassCounts,
}

fn size_key(size: RegionSize) -> (u64, u64) {
    (size.width.to_bits(), size.height.to_bits())
}

impl<'a> PassProbes<'a> {
    /// Derives the pass's delta and brings the size-independent tables up
    /// to `next`: patched when they reflect `old`, built otherwise.
    fn new(cache: &'a mut CarryProbes, old: &EngineCore, next: &EngineCore) -> Self {
        let objects = cache
            .objects
            .take()
            .filter(|objects| objects.reflect(old))
            .and_then(|mut objects| {
                let delta = DatasetDelta::between(&old.dataset, &next.dataset);
                objects.apply(next, &delta).then_some(objects)
            })
            .unwrap_or_else(|| ObjectTables::fresh(next));
        Self {
            objects: cache.objects.insert(objects),
            accuracies: HashMap::new(),
            buffers: Vec::new(),
            counts: CarryPassCounts::default(),
        }
    }

    /// The successor's view of `size`.
    fn view(&self, size: RegionSize) -> SizeView<'_> {
        SizeView {
            locations: &self.objects.locations,
            size,
        }
    }

    /// The index of the successor's contribution table under `aggregator`
    /// (the engine's, or a MaxRS reduction's count aggregator).  A table
    /// is built on the first pass that probes its aggregator and patched by
    /// the passes after it.
    fn table_of(&mut self, next: &EngineCore, aggregator: &CompositeAggregator) -> usize {
        let tables = &mut self.objects.tables;
        let at = match tables.iter().position(|t| t.aggregator == *aggregator) {
            Some(at) => at,
            None => {
                tables.push(AggregatorTable {
                    aggregator: aggregator.clone(),
                    table: Contributions::of(&next.dataset, aggregator),
                    used: next.generation,
                });
                tables.len() - 1
            }
        };
        tables[at].used = next.generation;
        at
    }

    /// R3 over every touched location of one slot: whether no influence
    /// window reaches `cutoff` (see [`window_reaches`]), stopping at the
    /// first that does.  The empty covering is the same in every window,
    /// so it is tested once, and reaches like the slot's first window.
    fn no_window_reaches(
        &mut self,
        next: &EngineCore,
        aggregator: &CompositeAggregator,
        query: &AsrsQuery,
        touched: &[Point],
        cutoff: f64,
    ) -> bool {
        let at = self.table_of(next, aggregator);
        let (empty_rep, empty_distance) = empty_candidate(aggregator, query);
        if empty_distance <= cutoff {
            self.counts.windows_bounded += 1;
            return false;
        }
        if self.buffers.len() <= at {
            self.buffers.resize_with(at + 1, || None);
        }
        let Self {
            objects,
            accuracies,
            buffers,
            counts,
        } = self;
        let buffers = buffers[at].get_or_insert_with(|| WindowBuffers::new(aggregator));
        let probe = SlotProbe {
            aggregator,
            config: &next.config,
            query,
            view: SizeView {
                locations: &objects.locations,
                size: query.size,
            },
            table: &objects.tables[at].table,
        };
        let key = size_key(query.size);
        let mut accuracy = accuracies.get(&key).copied();
        let mut clear = true;
        for &p in touched {
            let verdict = window_reaches(&probe, p, cutoff, &empty_rep, buffers, &mut accuracy);
            if verdict.searched {
                counts.windows_searched += 1;
            } else {
                counts.windows_bounded += 1;
            }
            if verdict.reaches {
                clear = false;
                break;
            }
        }
        if let Some(accuracy) = accuracy {
            if accuracies.insert(key, accuracy).is_none() {
                counts.accuracy_scans += 1;
            }
        }
        clear
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

fn rects_bit_equal(a: Option<Rect>, b: Option<Rect>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(a), Some(b)) => {
            a.min_x.to_bits() == b.min_x.to_bits()
                && a.min_y.to_bits() == b.min_y.to_bits()
                && a.max_x.to_bits() == b.max_x.to_bits()
                && a.max_y.to_bits() == b.max_y.to_bits()
        }
        _ => false,
    }
}

fn points_bit_equal(a: Point, b: Point) -> bool {
    a.x.to_bits() == b.x.to_bits() && a.y.to_bits() == b.y.to_bits()
}

/// The debug-build proof: a carried entry must serve exactly what a cold
/// recomputation against the successor core would.  Statistics describe
/// the run, not the answer, so both sides compare `stats_stripped()` —
/// the same comparison form as the sharded-parity guarantee.
#[cfg(debug_assertions)]
fn byte_identical_recompute(next: &EngineCore, candidate: &CarryCandidate) -> bool {
    match next.execute(&candidate.request) {
        Ok(fresh) => {
            serde::json::to_string(&fresh.stats_stripped())
                == serde::json::to_string(&candidate.response.stats_stripped())
        }
        Err(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AsrsEngine;
    use asrs_aggregator::{FeatureVector, Weights};
    use asrs_data::gen::UniformGenerator;
    use asrs_data::{DatasetBuilder, Mutation, Schema};
    use std::time::Duration;

    fn engine(n: usize, seed: u64) -> AsrsEngine {
        let ds = UniformGenerator::default().generate(n, seed);
        let agg = CompositeAggregator::builder(ds.schema())
            .distribution("category", Selection::All)
            .build()
            .unwrap();
        AsrsEngine::builder(ds, agg).shards(2).build().unwrap()
    }

    /// An object with a fresh `id` near the middle of the extent, so the
    /// bounding box stays put.
    fn interior(core: &EngineCore, id: u64, fx: f64, fy: f64) -> SpatialObject {
        let bbox = core.dataset.bounding_box().unwrap();
        let mut object = core.dataset.object(0).clone();
        object.id = id;
        object.location = Point::new(
            bbox.min_x + bbox.width() * fx,
            bbox.min_y + bbox.height() * fy,
        );
        object
    }

    fn sizes(core: &EngineCore) -> Vec<RegionSize> {
        let bbox = core.dataset.bounding_box().unwrap();
        [(0.05, 0.07), (0.1, 0.1), (0.23, 0.17)]
            .iter()
            .map(|(fw, fh)| RegionSize::new(bbox.width() * fw, bbox.height() * fh))
            .collect()
    }

    /// The count aggregator of the MaxRS reduction at `size`.
    fn count_aggregator(core: &EngineCore, size: RegionSize) -> CompositeAggregator {
        crate::maxrs::reduction(&core.dataset, size, &Selection::All)
            .unwrap()
            .0
    }

    /// Fresh probe tables of `core`, as a previous pass that probed the
    /// engine's aggregator and the count aggregator at `size` would have
    /// left them.
    fn probes_of(core: &EngineCore, size: RegionSize) -> CarryProbes {
        let mut objects = ObjectTables::fresh(core);
        for aggregator in [(*core.aggregator).clone(), count_aggregator(core, size)] {
            objects.tables.push(AggregatorTable {
                table: Contributions::of(&core.dataset, &aggregator),
                aggregator,
                used: core.generation,
            });
        }
        CarryProbes {
            objects: Some(objects),
        }
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
    /// of every object, and windows whose corners sit on rectangle corners.
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
            .map(|p| influence_window(p, size))
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

    /// Checks the view of `size` over `locations` against a fresh instance
    /// of `dataset`, bit for bit: Definition 7's accuracy; snaps through the
    /// view over each probe's own degenerate range at edges, midpoints and
    /// beyond both ends; and over each probed window, the first
    /// representative and the representative lists of its sub-ranges.  At
    /// most `limit` probes and windows are checked.
    fn assert_view_matches_fresh(
        locations: &LocationIndex,
        dataset: &Dataset,
        size: RegionSize,
        limit: usize,
    ) {
        let fresh = AspInstance::build(dataset, size);
        let global = fresh.edges();
        let view = SizeView { locations, size };
        let (accuracy, expected) = (view.accuracy(), fresh.accuracy());
        assert_eq!(
            (accuracy.dx.to_bits(), accuracy.dy.to_bits()),
            (expected.dx.to_bits(), expected.dy.to_bits()),
            "accuracy at {size:?}"
        );
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
                    bits(&local.x_reps_within(x0, x1)),
                    bits(&global.x_reps_within(x0, x1)),
                    "x ({x0}, {x1}) in {window:?}"
                );
            }
            for (i, &(y0, y1)) in y_ranges.iter().enumerate() {
                assert_eq!(
                    bits(&local.y_reps_within(y0, y1)),
                    bits(&global.y_reps_within(y0, y1)),
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

    /// Every range `(a, b)`, `a ≤ b`, between two of the ascending `cuts`.
    fn ranges(cuts: &[f64]) -> Vec<(f64, f64)> {
        cuts.iter()
            .enumerate()
            .flat_map(|(i, &a)| cuts[i..].iter().map(move |&b| (a, b)))
            .collect()
    }

    /// Brings `cache` from `old` to `next` through a carry pass's probe
    /// view, probing the engine's table and a MaxRS count table, and checks
    /// that the pass patched the shared tables rather than rebuilding them,
    /// that they match a fresh build, and every size's view against a fresh
    /// instance, bit for bit.
    fn pass(cache: &mut CarryProbes, old: &EngineCore, next: &EngineCore, sizes: &[RegionSize]) {
        assert_ne!(old.generation, next.generation);
        let mut probes = PassProbes::new(cache, old, next);
        // A rebuild starts with no tables; a patch keeps both.
        assert_eq!(probes.objects.tables.len(), 2, "the tables were rebuilt");
        probes.table_of(next, &count_aggregator(next, sizes[0]));
        probes.table_of(next, &next.aggregator);
        assert_eq!(probes.objects.tables.len(), 2);
        assert!(probes.objects.reflect(next));
        assert_eq!(probes.objects.diverges_from_fresh(next), None);
        for &size in sizes {
            assert_view_matches_fresh(&probes.objects.locations, &next.dataset, size, 60);
        }
    }

    /// Updates fresh tables of `old` to `next` and checks them and the
    /// views against fresh builds.  Returns the pass's delta.
    fn follow(old: &EngineCore, next: &EngineCore) -> DatasetDelta {
        let sizes = sizes(old);
        let mut cache = probes_of(old, sizes[0]);
        pass(&mut cache, old, next, &sizes);
        DatasetDelta::between(&old.dataset, &next.dataset)
    }

    #[test]
    fn a_solo_removal_updates_contexts_bit_identically() {
        let engine = engine(400, 3);
        let old = engine.core();
        let id = old.dataset.object(57).id;
        engine.remove(id).unwrap();
        let next = engine.core();
        let delta = follow(&old, &next);
        assert_eq!(
            delta,
            DatasetDelta {
                removed: vec![57],
                tail: 399
            }
        );
    }

    #[test]
    fn ttl_expiries_update_contexts_bit_identically() {
        let engine = engine(400, 5);
        let core = engine.core();
        // A sweep that expires the tail object.
        let expiring = interior(&core, 1_000_001, 0.41, 0.37);
        engine.append_with_ttl(expiring, Duration::ZERO).unwrap();
        let old = engine.core();
        assert_eq!(engine.sweep_expired().unwrap().len(), 1);
        let next = engine.core();
        let delta = follow(&old, &next);
        assert_eq!(delta.removed, vec![400]);
        assert_eq!(delta.tail, 400);
        // An expiry piggybacked on an application append.
        let expiring = interior(&core, 1_000_002, 0.62, 0.55);
        engine.append_with_ttl(expiring, Duration::ZERO).unwrap();
        let old = engine.core();
        let receipt = engine
            .append(interior(&core, 1_000_003, 0.18, 0.83))
            .unwrap();
        assert_eq!(receipt.batch, 2, "the due expiry must ride along");
        let next = engine.core();
        let delta = follow(&old, &next);
        assert_eq!(delta.removed, vec![400]);
        assert_eq!(delta.tail, 400);
        // A replayed expiry record of an interior object.
        let old = engine.core();
        let id = old.dataset.object(90).id;
        engine.apply_mutations(&[Mutation::Expire { id }]).unwrap();
        let next = engine.core();
        let delta = follow(&old, &next);
        assert_eq!(delta.removed, vec![90]);
        assert_eq!(delta.tail, 400);
    }

    #[test]
    fn a_mixed_batch_updates_contexts_bit_identically() {
        let engine = engine(400, 7);
        let old = engine.core();
        let batch = [
            Mutation::Remove {
                id: old.dataset.object(12).id,
            },
            Mutation::Append {
                object: interior(&old, 1_000_003, 0.3, 0.7),
            },
            Mutation::Remove {
                id: old.dataset.object(250).id,
            },
            Mutation::Append {
                object: interior(&old, 1_000_004, 0.8, 0.2),
            },
        ];
        engine.apply_mutations(&batch).unwrap();
        let next = engine.core();
        let delta = follow(&old, &next);
        assert_eq!(delta.removed, vec![12, 250]);
        assert_eq!(delta.tail, 398);
    }

    #[test]
    fn removing_and_re_appending_one_id_updates_contexts_bit_identically() {
        let engine = engine(400, 11);
        let old = engine.core();
        let mut moved = old.dataset.object(140).clone();
        moved.location = interior(&old, moved.id, 0.55, 0.45).location;
        let batch = [
            Mutation::Remove { id: moved.id },
            Mutation::Append { object: moved },
        ];
        engine.apply_mutations(&batch).unwrap();
        let next = engine.core();
        let delta = follow(&old, &next);
        assert_eq!(delta.removed, vec![140]);
        assert_eq!(delta.tail, 399);
    }

    #[test]
    fn an_index_missing_a_removed_y_is_rebuilt_not_patched() {
        let engine = engine(400, 3);
        let old = engine.core();
        let sizes = sizes(&old);
        let mut cache = probes_of(&old, sizes[0]);
        // Corrupt the y array: it loses the y of the object the batch
        // removes, as if an earlier patch had dropped it.
        let y = old.dataset.object(57).location.y;
        let locations = &mut cache.objects.as_mut().unwrap().locations;
        let at = locations
            .by_y
            .iter()
            .position(|v| v.to_bits() == y.to_bits());
        locations.by_y.remove(at.unwrap());
        engine.remove(old.dataset.object(57).id).unwrap();
        let next = engine.core();
        let probes = PassProbes::new(&mut cache, &old, &next);
        assert!(probes.objects.tables.is_empty(), "the tables were patched");
        assert_eq!(probes.objects.diverges_from_fresh(&next), None);
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
                let fresh = AspInstance::build(&old, size);
                assert!(bits(fresh.edges().xs()).contains(&(-0.0f64).to_bits()));
                assert!(!bits(fresh.edges().xs()).contains(&0.0f64.to_bits()));
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

    /// The exact windowMin the threshold test replaces, on a fresh instance
    /// of the whole dataset: the empty-covering distance against an
    /// unseeded branch-and-bound over the window.
    fn window_min(solver: &DsSearch<'_>, touched: Point) -> f64 {
        let (_, empty_distance) = solver.empty_candidate();
        let window = influence_window(touched, solver.query.size);
        let candidates = solver
            .table
            .contributing(solver.asp.rects_intersecting(&window));
        let mut best = BestSet::new(1, Arc::clone(solver.asp.edges()));
        solver
            .search_space(
                window,
                candidates,
                &mut best,
                &mut SearchStats::new(),
                &mut solver.scratch(),
            )
            .unwrap();
        best.into_entries()
            .first()
            .map_or(empty_distance, |e| e.distance.min(empty_distance))
    }

    /// R3 for one window as a slot runs it: the empty covering, then
    /// [`window_reaches`] on the window-local instance.
    fn r3(
        probe: &SlotProbe<'_>,
        touched: Point,
        cutoff: f64,
        buffers: &mut WindowBuffers,
    ) -> Verdict {
        let (empty_rep, empty_distance) = empty_candidate(probe.aggregator, probe.query);
        if empty_distance <= cutoff {
            return Verdict {
                reaches: true,
                searched: false,
            };
        }
        window_reaches(probe, touched, cutoff, &empty_rep, buffers, &mut None)
    }

    #[test]
    fn the_threshold_test_agrees_with_the_exact_window_min() {
        let engine = engine(300, 13);
        let core = engine.core();
        let bbox = core.dataset.bounding_box().unwrap();
        let dim = core.aggregator.feature_dim();
        let size = RegionSize::new(bbox.width() * 0.12, bbox.height() * 0.1);
        let (asp, table) = AspInstance::with_contributions(&core.dataset, &core.aggregator, size);
        let locations = LocationIndex::of(&core.dataset);
        // A dense target no window reaches easily, and the all-zero target
        // the empty covering matches exactly.
        let targets = [vec![3.0; dim], vec![0.0; dim]];
        let (mut searched, mut shortcut) = (0, 0);
        for target in targets {
            let query = AsrsQuery::new(size, FeatureVector::new(target), Weights::uniform(dim));
            let solver = DsSearch::new(
                &core.aggregator,
                &core.config,
                0.0,
                &asp,
                &table,
                &query,
                None,
            );
            let probe = SlotProbe {
                aggregator: &core.aggregator,
                config: &core.config,
                query: &query,
                view: SizeView {
                    locations: &locations,
                    size,
                },
                table: &table,
            };
            let mut buffers = WindowBuffers::new(&core.aggregator);
            let (_, empty_distance) = solver.empty_candidate();
            for i in 0..40 {
                let touched = Point::new(
                    bbox.min_x + bbox.width() * ((i * 7 % 40) as f64 + 0.5) / 40.0,
                    bbox.min_y + bbox.height() * ((i * 13 % 40) as f64 + 0.5) / 40.0,
                );
                let min = window_min(&solver, touched);
                let mut reaches = |cutoff: f64| r3(&probe, touched, cutoff, &mut buffers).reaches;
                assert!(!reaches(min.next_down()), "below {min}");
                assert!(reaches(min), "at {min}");
                assert!(reaches(min.next_up()), "above {min}");
                if min < empty_distance {
                    searched += 1;
                } else {
                    shortcut += 1;
                }
            }
        }
        assert!(searched > 0 && shortcut > 0, "{searched} / {shortcut}");
    }

    /// R3 for one window without the Equation-1 gate, on a fresh instance
    /// of the whole dataset: the empty-covering test, the candidates, the
    /// candidate budget and the search.
    fn search_only(solver: &DsSearch<'_>, touched: Point, cutoff: f64) -> bool {
        let (empty_rep, empty_distance) = solver.empty_candidate();
        if empty_distance <= cutoff {
            return true;
        }
        let window = influence_window(touched, solver.query.size);
        let candidates = solver
            .table
            .contributing(solver.asp.rects_intersecting(&window));
        candidates.len() > PROBE_BUDGET
            || window_search(
                solver,
                window,
                candidates,
                cutoff,
                empty_rep,
                &mut solver.scratch(),
            )
    }

    /// Gate-then-search on window-local instances against search-only on a
    /// fresh instance of the whole `dataset`, over seeded windows, at the
    /// cutoffs around each window's exact minimum and at the instance's
    /// best distance (what a cached answer's cutoff is).  Returns how many
    /// decisions the bound settled and how many searched.
    fn gate_agrees_with_search(
        dataset: &Dataset,
        aggregator: &CompositeAggregator,
        query: &AsrsQuery,
        seed: u64,
    ) -> (u64, u64) {
        let config = crate::SearchConfig::default();
        let (asp, table) = AspInstance::with_contributions(dataset, aggregator, query.size);
        let locations = LocationIndex::of(dataset);
        let solver = DsSearch::new(aggregator, &config, 0.0, &asp, &table, query, None);
        let probe = SlotProbe {
            aggregator,
            config: &config,
            query,
            view: SizeView {
                locations: &locations,
                size: query.size,
            },
            table: &table,
        };
        let mut buffers = WindowBuffers::new(aggregator);
        let best = crate::executor::Executor::new(
            dataset,
            aggregator,
            &config,
            crate::executor::Slabs::Whole,
        )
        .best(query, 0.0, None)
        .unwrap()
        .distance;
        let bbox = dataset.bounding_box().unwrap();
        let mut rng = Seeded(seed);
        let (mut bounded, mut searched) = (0, 0);
        for _ in 0..40 {
            let touched = Point::new(
                bbox.min_x + bbox.width() * rng.interior(),
                bbox.min_y + bbox.height() * rng.interior(),
            );
            let min = window_min(&solver, touched);
            for cutoff in [min.next_down(), min, min.next_up(), best] {
                let verdict = r3(&probe, touched, cutoff, &mut buffers);
                let expected = search_only(&solver, touched, cutoff);
                assert_eq!(
                    verdict.reaches, expected,
                    "cutoff {cutoff} (window min {min}) at {touched:?}"
                );
                if verdict.searched {
                    searched += 1;
                } else if !verdict.reaches {
                    bounded += 1;
                }
            }
        }
        (bounded, searched)
    }

    #[test]
    fn the_window_bound_decides_like_the_search_it_skips() {
        // The engine's distribution aggregator.
        let uniform = UniformGenerator::default().generate(300, 29);
        let bbox = uniform.bounding_box().unwrap();
        let size = RegionSize::new(bbox.width() * 0.12, bbox.height() * 0.1);
        let distribution = CompositeAggregator::builder(uniform.schema())
            .distribution("category", Selection::All)
            .build()
            .unwrap();
        let dim = distribution.feature_dim();
        let query = AsrsQuery::new(
            size,
            FeatureVector::new(vec![3.0; dim]),
            Weights::uniform(dim),
        );
        // A float sum: ratings are fractional, so the compensated sums of
        // the bound and of the probes are what keep them comparable.
        let pois = asrs_data::gen::PoiSynGenerator::compact(5).generate(300, 31);
        let float_sum = CompositeAggregator::builder(pois.schema())
            .sum("rating", Selection::All)
            .build()
            .unwrap();
        let poi_size = RegionSize::new(120.0, 90.0);
        let rating = AsrsQuery::new(
            poi_size,
            FeatureVector::new(vec![23.7]),
            Weights::uniform(1),
        );
        // The MaxRS count reduction.
        let (count, maxrs) = crate::maxrs::reduction(&uniform, size, &Selection::All).unwrap();
        for (case, dataset, aggregator, query) in [
            ("distribution", &uniform, &distribution, &query),
            ("float sum", &pois, &float_sum, &rating),
            ("maxrs", &uniform, &count, &maxrs),
        ] {
            let (bounded, searched) = gate_agrees_with_search(dataset, aggregator, query, 37);
            assert!(
                bounded > 0 && searched > 0,
                "{case}: {bounded} / {searched}"
            );
        }
    }

    #[test]
    fn a_pass_scans_each_size_accuracy_once_and_keeps_its_bits() {
        let engine = engine(400, 19);
        let old = engine.core();
        let sizes = sizes(&old);
        let mut cache = probes_of(&old, sizes[0]);
        engine
            .append(interior(&old, 1_000_005, 0.47, 0.52))
            .unwrap();
        let next = engine.core();
        let mut probes = PassProbes::new(&mut cache, &old, &next);
        let dim = next.aggregator.feature_dim();
        let touched: Vec<Point> = next.dataset.objects().map(|o| o.location).collect();
        for &size in &sizes {
            // The best distance of the size as the cutoff: the windows
            // around the answer are searched, and one of them reaches.
            let query = AsrsQuery::new(
                size,
                FeatureVector::new(vec![3.0; dim]),
                Weights::uniform(dim),
            );
            let best = next.execute(&QueryRequest::similar(query.clone())).unwrap();
            let QueryOutcome::Best(best) = best.outcome else {
                panic!("a similar request answers one region");
            };
            for _ in 0..2 {
                let searched = probes.counts.windows_searched;
                assert!(!probes.no_window_reaches(
                    &next,
                    &next.aggregator,
                    &query,
                    &touched,
                    best.distance
                ));
                assert!(probes.counts.windows_searched > searched);
            }
            let fresh = AspInstance::build(&next.dataset, size).accuracy();
            let kept = probes.accuracies[&size_key(size)];
            assert_eq!(
                (kept.dx.to_bits(), kept.dy.to_bits()),
                (fresh.dx.to_bits(), fresh.dy.to_bits())
            );
        }
        assert_eq!(probes.counts.accuracy_scans, sizes.len() as u64);
    }

    /// A uniform engine whose coordinates are multiples of 1/8, so the
    /// tests' sizes (multiples of 1/8 too) put some `x − w` exactly on
    /// another object's x.
    fn grid_engine(n: usize, seed: u64) -> AsrsEngine {
        let ds = UniformGenerator::default()
            .with_quantum(0.125)
            .generate(n, seed);
        let agg = CompositeAggregator::builder(ds.schema())
            .distribution("category", Selection::All)
            .build()
            .unwrap();
        AsrsEngine::builder(ds, agg).shards(2).build().unwrap()
    }

    fn assert_lookups_match(locations: &LocationIndex, dataset: &Dataset, size: RegionSize) {
        let asp = AspInstance::build(dataset, size);
        let mut nonempty = 0;
        for window in probe_windows(dataset, size) {
            let expected = asp.rects_intersecting(&window);
            let found: Vec<u32> = locations
                .reaching(size, &window)
                .iter()
                .map(|e| e.pos)
                .collect();
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
            let engine = grid_engine(300, seed);
            let old = engine.core();
            // Some object's `x − w` is exactly another object's x.
            let xs: Vec<u64> = old
                .dataset
                .objects()
                .map(|o| o.location.x.to_bits())
                .collect();
            assert!(old
                .dataset
                .objects()
                .any(|o| xs.contains(&(o.location.x - sizes[0].width).to_bits())));
            let mut locations = LocationIndex::of(&old.dataset);
            for size in sizes {
                assert_lookups_match(&locations, &old.dataset, size);
            }
            // A removal batch shifts positions; appends (one at an
            // existing x) extend the tail.
            let mut twin = interior(&old, 2_000_000 + seed, 0.5, 0.5);
            twin.location.x = old.dataset.object(30).location.x;
            let batch = [
                Mutation::Remove {
                    id: old.dataset.object(3).id,
                },
                Mutation::Remove {
                    id: old.dataset.object(150).id,
                },
                Mutation::Append { object: twin },
                Mutation::Remove {
                    id: old.dataset.object(151).id,
                },
            ];
            engine.apply_mutations(&batch).unwrap();
            let next = engine.core();
            let delta = DatasetDelta::between(&old.dataset, &next.dataset);
            assert_eq!(delta.removed, vec![3, 150, 151]);
            assert!(locations.apply(&next.dataset, &delta));
            assert!(locations.bits_eq(&LocationIndex::of(&next.dataset)));
            for size in sizes {
                assert_lookups_match(&locations, &next.dataset, size);
            }
        }
    }

    /// A seeded splitmix64 stream for the write sequence below.
    struct Seeded(u64);

    impl Seeded {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        /// A fraction in `[0.1, 0.9)`: an interior position.
        fn interior(&mut self) -> f64 {
            0.1 + 0.8 * (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// One seeded batch of the property test below: a solo append, a batch
    /// of 16, a removal, or a mix.  Removals spare the objects on the
    /// bounding box (the carry pass's gate) and the test's own objects.
    fn seeded_batch(core: &EngineCore, step: u64, rng: &mut Seeded) -> Vec<Mutation> {
        let appends = |n: u64, rng: &mut Seeded| -> Vec<Mutation> {
            (0..n)
                .map(|k| {
                    let (fx, fy) = (rng.interior(), rng.interior());
                    Mutation::Append {
                        object: interior(core, 5_000_000 + step * 100 + k, fx, fy),
                    }
                })
                .collect()
        };
        let bbox = core.dataset.bounding_box().unwrap();
        let removals = |n: usize, rng: &mut Seeded| -> Vec<Mutation> {
            let mut ids = Vec::new();
            while ids.len() < n {
                let o = core.dataset.object(rng.below(core.dataset.len()));
                let Point { x, y } = o.location;
                let inside = x > bbox.min_x && x < bbox.max_x && y > bbox.min_y && y < bbox.max_y;
                if inside && o.id < 9_000_000 && !ids.contains(&o.id) {
                    ids.push(o.id);
                }
            }
            ids.into_iter().map(|id| Mutation::Remove { id }).collect()
        };
        match step % 4 {
            0 => appends(1, rng),
            1 => appends(16, rng),
            2 => removals(1 + step as usize % 3, rng),
            _ => {
                let mut batch = appends(3, rng);
                batch.extend(removals(2, rng));
                batch
            }
        }
    }

    #[test]
    fn contexts_follow_a_seeded_write_sequence_bit_identically() {
        let engine = engine(500, 17);
        let core = engine.core();
        let bbox = core.dataset.bounding_box().unwrap();
        let sizes = sizes(&core);
        let w = sizes[0].width;
        let mut cache = probes_of(&core, sizes[0]);
        let mut rng = Seeded(23);
        let min_x_gap = |cache: &CarryProbes| {
            let view = SizeView {
                locations: &cache.objects.as_ref().unwrap().locations,
                size: sizes[0],
            };
            view.accuracy().dx
        };
        let mut passes = 0;
        let mut step_through = |cache: &mut CarryProbes, old: &EngineCore| {
            let next = engine.core();
            assert!(rects_bit_equal(
                old.dataset.bounding_box(),
                next.dataset.bounding_box()
            ));
            pass(cache, old, &next, &sizes);
            passes += 1;
        };
        for step in 0..60u64 {
            let old = engine.core();
            let batch = match step {
                // An append whose `x − w` lands on an existing edge: another
                // object's x.
                7 => {
                    let mut object = interior(&old, 9_000_001, 0.4, 0.6);
                    object.location.x = old
                        .dataset
                        .objects()
                        .map(|o| o.location.x + w)
                        .find(|&x| {
                            x < bbox.max_x
                                && old
                                    .dataset
                                    .objects()
                                    .any(|o| o.location.x.to_bits() == (x - w).to_bits())
                        })
                        .unwrap();
                    vec![Mutation::Append { object }]
                }
                // Two objects at the same x.
                13 => {
                    let first = interior(&old, 9_000_002, 0.3, 0.2);
                    let mut second = interior(&old, 9_000_003, 0.3, 0.8);
                    second.location.x = first.location.x;
                    vec![
                        Mutation::Append { object: first },
                        Mutation::Append { object: second },
                    ]
                }
                // The unique minimum edge gap: an object whose right edge
                // sits a hair right of another object's left edge ...
                21 => {
                    let anchor = interior(&old, 9_000_004, 0.55, 0.35);
                    let mut close = interior(&old, 9_000_005, 0.2, 0.75);
                    close.location.x = anchor.location.x - w + 1e-9;
                    vec![
                        Mutation::Append { object: anchor },
                        Mutation::Append { object: close },
                    ]
                }
                // ... which this removal deletes.
                22 => vec![Mutation::Remove { id: 9_000_005 }],
                // One of the two objects at one x leaves.
                30 => vec![Mutation::Remove { id: 9_000_002 }],
                // A TTL expiry: the append, then the sweep on its own.
                _ if step % 9 == 5 => {
                    let expiring = interior(&old, 8_000_000 + step, 0.66, 0.44);
                    engine.append_with_ttl(expiring, Duration::ZERO).unwrap();
                    step_through(&mut cache, &old);
                    let old = engine.core();
                    assert_eq!(engine.sweep_expired().unwrap().len(), 1);
                    step_through(&mut cache, &old);
                    continue;
                }
                _ => seeded_batch(&old, step, &mut rng),
            };
            engine.apply_mutations(&batch).unwrap();
            step_through(&mut cache, &old);
            match step {
                21 => assert!(min_x_gap(&cache) < 1e-8),
                22 => assert!(min_x_gap(&cache) > 1e-8),
                _ => {}
            }
        }
        assert!(passes > 60);
    }
}
