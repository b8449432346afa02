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
//! # Probe-context reuse
//!
//! R3 and R4 need, per distinct query size, an [`AspInstance`] (with its
//! edge table, which snaps the probed anchors) and a [`Contributions`]
//! table: the engine aggregator's for ASRS slots, a count aggregator's for
//! MaxRS slots.  Only the instance depends on the size.  Rectangle `i` is
//! the `a × b` box whose top-right corner is object `i`'s location, but its
//! contribution row is object `i`'s whatever the size: the factorisation
//! `Contributions` applies within one query holds across sizes too.  So
//! the persistent state ([`CarryProbes`], kept in the mutator state across
//! publishes) holds one size-independent part, [`ObjectTables`] (the
//! contribution tables and an index of the objects sorted by x), and one
//! [`SizeContext`] per cached size.
//!
//! Both follow each batch in place, whatever its shape: appends, removals,
//! TTL expiries or a mix.  Once per pass the [`DatasetDelta`] is derived by
//! walking the predecessor and successor datasets in order (removals
//! preserve order and appends land at the end, so the walk is exact).  The
//! size-independent part is patched once per pass: the removed rows and
//! index entries are dropped (renumbering the rest), the appended tail's
//! are added.  A size's instance is patched the first time the pass probes
//! that size ([`AspInstance::patch`]): its rectangles likewise, and its
//! deduplicated edge table edited in place, each removed or appended edge a
//! binary search, with the edge multiplicities telling whether a
//! coordinate is still present ([`EdgeCounts`]).  Definition 7's accuracy
//! follows incrementally, and the space is kept, since the bounding-box
//! gate guarantees it did not move.  The result is bit-identical to a
//! fresh build.  Only a context that does not reflect the predecessor (a
//! size the previous pass did not probe), or whose edge table lacks an edge
//! the batch removed, is rebuilt from scratch.  Debug builds assert every
//! update against a fresh build; the unit tests below check the same in
//! release builds.
//!
//! # Window candidates by location
//!
//! Each R3 window search runs over the rectangles that reach the window.
//! Rectangle `i` spans `[fl(xᵢ − a), xᵢ]` horizontally, and `fl(x − a)` is
//! monotone in `x`, so the rectangles whose x-extent meets a window `W`
//! belong to the objects with `x ≥ W.min_x` and `fl(x − a) ≤ W.max_x`: one
//! contiguous run of the x-sorted index, found by two binary searches (a
//! seek over sorted keys, as in Leapfrog Triejoin).  The exact
//! [`Rect::intersects`] filter narrows the run, and the survivors come back
//! in ascending position order: element for element the list a scan of
//! every rectangle returns ([`AspInstance::rects_intersecting`]).

use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use asrs_aggregator::{CompositeAggregator, Selection};
use asrs_data::{AttrValue, Dataset, SpatialObject};
use asrs_geo::{Point, Rect, RegionSize};

use crate::asp::{insert_at, AspInstance, Contributions, EdgeCounts};
use crate::best::BestSet;
use crate::cache::{CarryCandidate, QueryCache};
use crate::discretize::Scratch;
use crate::ds_search::DsSearch;
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

/// Ceiling on cached per-size probe contexts.  Each pass first checks it:
/// past the ceiling, every context the *previous* pass did not refresh is
/// evicted, and the pass then adds what its own entries probe.
const MAX_CACHED_SIZES: usize = 16;

/// Re-stamps every provably unaffected cache entry of `old`'s generation
/// to `next`'s generation.  Called from the publish path with the mutation
/// mutex held, after the WAL accepted the batch (nothing can abort the
/// publish past that point) and *before* the successor core swaps in, so
/// readers never observe a cold window for the pass's duration.
///
/// `touched` holds the location of every object the batch appended or
/// removed; `probes` are the persistent probe contexts, brought up to
/// `next` incrementally (see the module docs).  The pass's duration and
/// the contexts it patched and rebuilt are recorded in the cache's
/// counters.
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
    let (patched, rebuilt) = restamp(cache, old, next, touched, probes);
    cache.note_carry_pass(started.elapsed(), patched, rebuilt);
}

/// The pass itself; returns how many probe contexts it patched and how
/// many it built from scratch.
fn restamp(
    cache: &QueryCache,
    old: &EngineCore,
    next: &EngineCore,
    touched: &[Point],
    probes: &mut CarryProbes,
) -> (u64, u64) {
    // Canonical sharded cores only: the soundness argument is built on the
    // shard scatter's decomposition-independence guarantee.  A moved
    // bounding box changes the search space wholesale — reject the entire
    // batch.
    if next.shards.is_none() || touched.is_empty() {
        return (0, 0);
    }
    if !rects_bit_equal(old.dataset.bounding_box(), next.dataset.bounding_box()) {
        return (0, 0);
    }
    let candidates = cache.carry_candidates(old.generation);
    if candidates.is_empty() {
        return (0, 0);
    }
    let mut probes = PassProbes::new(probes, old, next);
    probes.prune();
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
    (probes.patched, probes.rebuilt)
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
    let probe = probes.context(next, query.size, &next.aggregator);
    for result in results {
        let snapped = probe.asp.edges().snap(result.anchor);
        if !points_bit_equal(snapped, result.anchor) {
            return false;
        }
    }
    // R3: no candidate inside any influence window may reach the cutoff.
    // Each window runs the engine's own pruned branch-and-bound instead of
    // enumerating arrangement cells — a dense instance puts 10^5..10^6
    // cells in a single window, but the threshold search visits only what
    // Equation-1 pruning cannot exclude.
    let cutoff = d_max + d_max.abs() * CUTOFF_SLACK;
    let solver = DsSearch::new(
        &next.aggregator,
        &next.config,
        0.0,
        probe.asp,
        probe.table,
        query,
        None,
    );
    let mut scratch = solver.scratch();
    !touched
        .iter()
        .any(|p| window_reaches(&solver, probe.locations, *p, cutoff, &mut scratch))
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
    let probe = probes.context(next, size, &aggregator);
    if !points_bit_equal(probe.asp.edges().snap(result.anchor), result.anchor) {
        return false;
    }
    let cutoff = d_reported + d_reported * CUTOFF_SLACK;
    let solver = DsSearch::new(
        &aggregator,
        &next.config,
        0.0,
        probe.asp,
        probe.table,
        &query,
        None,
    );
    let mut scratch = solver.scratch();
    !touched
        .iter()
        .any(|p| window_reaches(&solver, probe.locations, *p, cutoff, &mut scratch))
}

/// Whether some candidate anchored in the influence window of `touched`
/// attains a distance at or below `cutoff` against the successor dataset,
/// decided by `solver`, the kernel bound to the successor's probe context
/// for the query, whose edge table canonicalises the probed anchors.  The
/// window's candidate rectangles come from `locations`, the successor's
/// x-sorted object index.  A window reaching more than [`PROBE_BUDGET`]
/// candidate rectangles counts as reaching the cutoff.
///
/// Mirrors the cold path: exact search (δ = 0, like the scatter)
/// and the same contributing-rectangle filter.  Window cells no rectangle
/// reaches are real candidates too (a removal can strip a window down to
/// empty covering), so the empty-covering distance is tested first and
/// answers without a search when it reaches the cutoff.  Otherwise the
/// search starts from a seed at the next float above the cutoff: pruning
/// then discards every sub-space whose bound exceeds the seed, and any
/// candidate at or below the cutoff displaces it.
fn window_reaches(
    solver: &DsSearch<'_>,
    locations: &LocationIndex,
    touched: Point,
    cutoff: f64,
    scratch: &mut Scratch,
) -> bool {
    let (empty_rep, empty_distance) = solver.empty_candidate();
    if empty_distance <= cutoff {
        return true;
    }
    let window = influence_window(touched, solver.query.size);
    let candidates = solver
        .table
        .contributing(locations.reaching(solver.asp, &window));
    if candidates.len() > PROBE_BUDGET {
        return true;
    }
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

/// The persistent probe contexts, owned by the mutator state and reused
/// across publishes (see the module docs): the size-independent
/// [`ObjectTables`] and one [`SizeContext`] per cached query size.
/// Building them from scratch dominated the carry pass; every batch now
/// patches them in place.  Nothing is built before the first pass.
#[derive(Debug, Default)]
pub(crate) struct CarryProbes {
    objects: Option<ObjectTables>,
    sizes: HashMap<(u64, u64), SizeContext>,
}

/// The size-independent part of the probe contexts, tagged with the
/// dataset generation and length it reflects: one contribution table per
/// aggregator a recent pass probed (the engine's, and the count
/// aggregators of MaxRS reductions), and the objects' x-sorted location
/// index.  Each is one copy shared by every size, patched once per pass.
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

    /// Brings the tables of the predecessor up to `next`.  Tables the
    /// previous pass did not probe are dropped rather than patched.
    fn apply(&mut self, next: &EngineCore, delta: &DatasetDelta) {
        let previous = self.generation;
        self.tables.retain(|t| t.used == previous);
        for t in &mut self.tables {
            t.table
                .patch(&t.aggregator, &next.dataset, &delta.removed, delta.tail);
        }
        self.locations.apply(&next.dataset, delta);
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
/// its dataset position: which rectangles reach a window is a range
/// lookup over it (see the module docs).  It does not depend on the query
/// size.
#[derive(Debug)]
struct LocationIndex {
    by_x: Vec<(f64, u32)>,
}

fn x_order(a: &(f64, u32), b: &(f64, u32)) -> Ordering {
    a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))
}

impl LocationIndex {
    fn of(dataset: &Dataset) -> Self {
        let mut by_x: Vec<(f64, u32)> = dataset
            .objects()
            .enumerate()
            .map(|(idx, o)| (o.location.x, idx as u32))
            .collect();
        by_x.sort_unstable_by(x_order);
        Self { by_x }
    }

    /// Brings the index of the predecessor up to `next`: drops the
    /// removed objects and renumbers the rest in one pass (a survivor's
    /// position falls by the removals before it, which keeps the order),
    /// then inserts the appended tail in one backward pass.
    fn apply(&mut self, next: &Dataset, delta: &DatasetDelta) {
        if !delta.removed.is_empty() {
            self.by_x.retain_mut(
                |(_, pos)| match delta.removed.binary_search(&(*pos as usize)) {
                    Ok(_) => false,
                    Err(before) => {
                        *pos -= before as u32;
                        true
                    }
                },
            );
        }
        let mut added: Vec<(f64, u32)> = (delta.tail..next.len())
            .map(|idx| (next.object(idx).location.x, idx as u32))
            .collect();
        added.sort_unstable_by(x_order);
        let inserts: Vec<(usize, (f64, u32))> = added
            .into_iter()
            .map(|entry| {
                let at = self.by_x.partition_point(|e| x_order(e, &entry).is_lt());
                (at, entry)
            })
            .collect();
        insert_at(&mut self.by_x, &inserts);
    }

    /// The positions of `asp`'s rectangles whose closed extent intersects
    /// `window`, ascending: [`AspInstance::rects_intersecting`]'s list,
    /// from the run of objects whose x-extent can meet the window.
    fn reaching(&self, asp: &AspInstance, window: &Rect) -> Vec<u32> {
        let width = asp.size().width;
        let lo = self.by_x.partition_point(|&(x, _)| x < window.min_x);
        let run = self.by_x[lo..].partition_point(|&(x, _)| x - width <= window.max_x);
        let rects = asp.rects();
        let mut hits: Vec<u32> = self.by_x[lo..lo + run]
            .iter()
            .map(|&(_, pos)| pos)
            .filter(|&pos| rects[pos as usize].rect.intersects(window))
            .collect();
        hits.sort_unstable();
        hits
    }

    #[cfg(any(debug_assertions, test))]
    fn bits_eq(&self, other: &Self) -> bool {
        self.by_x.len() == other.by_x.len()
            && self
                .by_x
                .iter()
                .zip(&other.by_x)
                .all(|(a, b)| a.0.to_bits() == b.0.to_bits() && a.1 == b.1)
    }
}

/// One cached per-size probe context: the ASP instance of a query size
/// (whose edge table snaps the probed anchors) and the [`EdgeCounts`] that
/// let [`AspInstance::patch`] edit that table in place, tagged with the
/// dataset generation and length they reflect.  The contribution tables
/// are not per size: every context reads the shared [`ObjectTables`].
#[derive(Debug)]
struct SizeContext {
    asp: AspInstance,
    edges: EdgeCounts,
    generation: u64,
    len: usize,
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

/// One carry pass's view of the probe contexts: the predecessor the cached
/// contexts may reflect, the dataset delta that brings them up to the
/// successor, and how many contexts the pass patched and rebuilt.
struct PassProbes<'a> {
    objects: &'a mut ObjectTables,
    sizes: &'a mut HashMap<(u64, u64), SizeContext>,
    old_generation: u64,
    old_len: usize,
    delta: DatasetDelta,
    patched: u64,
    rebuilt: u64,
}

/// What one slot's R3 and R4 read: the instance of the slot's size, the
/// contribution table of the slot's aggregator, and the location index.
struct Probe<'p> {
    asp: &'p AspInstance,
    table: &'p Contributions,
    locations: &'p LocationIndex,
}

fn size_key(size: RegionSize) -> (u64, u64) {
    (size.width.to_bits(), size.height.to_bits())
}

impl<'a> PassProbes<'a> {
    /// Derives the pass's delta and brings the size-independent tables up
    /// to `next`: patched when they reflect `old`, built otherwise.
    fn new(cache: &'a mut CarryProbes, old: &EngineCore, next: &EngineCore) -> Self {
        let delta = DatasetDelta::between(&old.dataset, &next.dataset);
        let objects = match cache.objects.take() {
            Some(mut objects)
                if objects.generation == old.generation && objects.len == old.dataset.len() =>
            {
                objects.apply(next, &delta);
                objects
            }
            _ => ObjectTables::fresh(next),
        };
        Self {
            objects: cache.objects.insert(objects),
            sizes: &mut cache.sizes,
            old_generation: old.generation,
            old_len: old.dataset.len(),
            delta,
            patched: 0,
            rebuilt: 0,
        }
    }

    /// Evicts contexts for sizes the workload stopped querying once the
    /// cache outgrows its ceiling: anything not refreshed by the previous
    /// pass is stale.
    fn prune(&mut self) {
        if self.sizes.len() > MAX_CACHED_SIZES {
            let keep = self.old_generation;
            self.sizes.retain(|_, ctx| ctx.generation == keep);
        }
    }

    /// The probe context for `size` against the successor core, with the
    /// successor's table under `aggregator` (the engine's, or a MaxRS
    /// reduction's count aggregator).  A table is built on the first pass
    /// that probes its aggregator and patched by the passes after it.
    fn context(
        &mut self,
        next: &EngineCore,
        size: RegionSize,
        aggregator: &CompositeAggregator,
    ) -> Probe<'_> {
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
        self.refresh(next, size);
        Probe {
            asp: &self.sizes[&size_key(size)].asp,
            table: &self.objects.tables[at].table,
            locations: &self.objects.locations,
        }
    }

    /// Brings the context for `size` up to `next`: kept when this pass
    /// already did, patched with the pass's delta when it reflects the
    /// predecessor, built from scratch otherwise or when the patch finds
    /// the context inconsistent.
    fn refresh(&mut self, next: &EngineCore, size: RegionSize) {
        use std::collections::hash_map::Entry;
        match self.sizes.entry(size_key(size)) {
            Entry::Occupied(occupied) => {
                let ctx = occupied.into_mut();
                if ctx.generation == next.generation {
                    // Already refreshed for this publish by another entry.
                    return;
                }
                let current = ctx.generation == self.old_generation && ctx.len == self.old_len;
                if current && ctx.apply(next, &self.delta) {
                    self.patched += 1;
                } else {
                    *ctx = SizeContext::fresh(next, size);
                    self.rebuilt += 1;
                }
            }
            Entry::Vacant(vacant) => {
                vacant.insert(SizeContext::fresh(next, size));
                self.rebuilt += 1;
            }
        }
    }
}

impl SizeContext {
    /// Builds the context from scratch, mirroring the executor's instance
    /// construction exactly (`Executor::run`), so snapped representatives
    /// agree bit-for-bit.
    fn fresh(next: &EngineCore, size: RegionSize) -> Self {
        let (asp, edges) = AspInstance::with_edge_counts(&next.dataset, size);
        Self {
            asp,
            edges,
            generation: next.generation,
            len: next.dataset.len(),
        }
    }

    /// Brings a context of the predecessor up to `next` in place (see
    /// [`AspInstance::patch`]).  Returns `false` when the context turned
    /// out inconsistent with the predecessor; it must then be rebuilt.
    fn apply(&mut self, next: &EngineCore, delta: &DatasetDelta) -> bool {
        let appended =
            (delta.tail..next.dataset.len()).map(|idx| next.dataset.object(idx).location);
        if !self.asp.patch(&mut self.edges, &delta.removed, appended) {
            return false;
        }
        self.generation = next.generation;
        self.len = next.dataset.len();
        #[cfg(debug_assertions)]
        {
            let diverged = self.diverges_from_fresh(next, self.asp.size());
            debug_assert!(
                diverged.is_none(),
                "incremental probe context diverged from a fresh build in its {diverged:?}"
            );
        }
        true
    }

    /// The first field in which this context differs from a from-scratch
    /// build of `next`, compared bit for bit, or `None` when it matches;
    /// the edge table is compared with the executor's own construction.  The
    /// release-mode unit tests check it like the debug assertion.
    #[cfg(any(debug_assertions, test))]
    fn diverges_from_fresh(&self, next: &EngineCore, size: RegionSize) -> Option<&'static str> {
        let fresh = Self::fresh(next, size);
        let accuracy_bits = |asp: &AspInstance| {
            let a = asp.accuracy();
            (a.dx.to_bits(), a.dy.to_bits())
        };
        if self.asp.rects() != fresh.asp.rects() {
            Some("rectangles")
        } else if !rects_bit_equal(self.asp.space(), fresh.asp.space()) {
            Some("space")
        } else if accuracy_bits(&self.asp) != accuracy_bits(&fresh.asp) {
            Some("accuracy")
        } else if !self.edges.bits_eq(&fresh.edges) {
            Some("edge counts")
        } else if !self
            .asp
            .edges()
            .bits_eq(AspInstance::build(&next.dataset, size).edges())
        {
            Some("edge table")
        } else if self.len != fresh.len {
            Some("length")
        } else {
            None
        }
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
    use asrs_data::Mutation;
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

    /// Fresh probe contexts of `core` for `sizes`, as a previous pass
    /// would have left them.
    fn probes_of(core: &EngineCore, sizes: &[RegionSize]) -> CarryProbes {
        let mut cache = CarryProbes {
            objects: Some(ObjectTables::fresh(core)),
            ..CarryProbes::default()
        };
        for &size in sizes {
            cache
                .sizes
                .insert(size_key(size), SizeContext::fresh(core, size));
        }
        cache
    }

    /// Brings `cache` from `old` to `next` through a carry pass's probe
    /// view, probing `sizes`, and checks every context and the shared
    /// tables against a fresh build, bit for bit.  Returns the pass's
    /// delta and how many contexts it patched and rebuilt.
    fn pass(
        cache: &mut CarryProbes,
        old: &EngineCore,
        next: &EngineCore,
        sizes: &[RegionSize],
    ) -> (DatasetDelta, u64, u64) {
        assert_ne!(old.generation, next.generation);
        let mut probes = PassProbes::new(cache, old, next);
        // A MaxRS slot's count table rides along.
        let (count, _) = crate::maxrs::reduction(&next.dataset, sizes[0], &Selection::All).unwrap();
        probes.context(next, sizes[0], &count);
        for &size in sizes {
            probes.context(next, size, &next.aggregator);
            let ctx = &probes.sizes[&size_key(size)];
            assert_eq!(ctx.generation, next.generation);
            assert_eq!(ctx.diverges_from_fresh(next, size), None, "size {size:?}");
        }
        assert_eq!(probes.objects.diverges_from_fresh(next), None);
        (probes.delta, probes.patched, probes.rebuilt)
    }

    /// Updates fresh contexts of `old` to `next` and checks each against a
    /// fresh build, field by field; none may take the fresh-build path.
    /// Returns the pass's delta.
    fn follow(old: &EngineCore, next: &EngineCore) -> DatasetDelta {
        let sizes = sizes(old);
        let mut cache = probes_of(old, &sizes);
        let (delta, patched, rebuilt) = pass(&mut cache, old, next, &sizes);
        assert_eq!(rebuilt, 0, "a context was rebuilt from scratch");
        assert_eq!(patched, sizes.len() as u64);
        delta
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

    /// The exact windowMin the threshold test replaces: the empty-covering
    /// distance against an unseeded branch-and-bound over the window.
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
            let mut scratch = solver.scratch();
            let (_, empty_distance) = solver.empty_candidate();
            for i in 0..40 {
                let touched = Point::new(
                    bbox.min_x + bbox.width() * ((i * 7 % 40) as f64 + 0.5) / 40.0,
                    bbox.min_y + bbox.height() * ((i * 13 % 40) as f64 + 0.5) / 40.0,
                );
                let min = window_min(&solver, touched);
                let reaches = |cutoff: f64, scratch: &mut Scratch| {
                    window_reaches(&solver, &locations, touched, cutoff, scratch)
                };
                assert!(!reaches(min.next_down(), &mut scratch), "below {min}");
                assert!(reaches(min, &mut scratch), "at {min}");
                assert!(reaches(min.next_up(), &mut scratch), "above {min}");
                if min < empty_distance {
                    searched += 1;
                } else {
                    shortcut += 1;
                }
            }
        }
        assert!(searched > 0 && shortcut > 0, "{searched} / {shortcut}");
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

    /// Every window the lookup test probes: the influence window of every
    /// object, and windows whose corners sit on rectangle corners.
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

    fn assert_lookups_match(locations: &LocationIndex, dataset: &Dataset, size: RegionSize) {
        let asp = AspInstance::build(dataset, size);
        let mut nonempty = 0;
        for window in probe_windows(dataset, size) {
            let expected = asp.rects_intersecting(&window);
            assert_eq!(
                locations.reaching(&asp, &window),
                expected,
                "{window:?} at {size:?}"
            );
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
            locations.apply(&next.dataset, &delta);
            assert!(locations.bits_eq(&LocationIndex::of(&next.dataset)));
            for size in sizes {
                assert_lookups_match(&locations, &next.dataset, size);
            }
        }
    }

    #[test]
    fn an_inconsistent_context_is_rebuilt_not_patched() {
        let engine = engine(400, 3);
        let old = engine.core();
        let sizes = sizes(&old);
        let mut cache = probes_of(&old, &sizes);
        // Corrupt one context: its edge table loses an edge of the object
        // the batch removes, as if an earlier patch had dropped it.
        let ctx = cache.sizes.get_mut(&size_key(sizes[1])).unwrap();
        let edge = ctx.asp.rects()[57].rect.min_x;
        ctx.edges.forget_x_edge(&mut ctx.asp, edge);
        engine.remove(old.dataset.object(57).id).unwrap();
        let next = engine.core();
        let (_, patched, rebuilt) = pass(&mut cache, &old, &next, &sizes);
        assert_eq!((patched, rebuilt), (2, 1));
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
        let mut cache = probes_of(&core, &sizes);
        let mut rng = Seeded(23);
        let min_x_gap = |cache: &CarryProbes| cache.sizes[&size_key(sizes[0])].asp.accuracy().dx;
        let (mut passes, mut patched, mut rebuilt) = (0, 0, 0);
        let mut step_through = |cache: &mut CarryProbes, old: &EngineCore| {
            let next = engine.core();
            assert!(rects_bit_equal(
                old.dataset.bounding_box(),
                next.dataset.bounding_box()
            ));
            let (_, p, r) = pass(cache, old, &next, &sizes);
            passes += 1;
            patched += p;
            rebuilt += r;
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
        assert_eq!(rebuilt, 0, "a context was rebuilt from scratch");
        assert_eq!(patched, passes * sizes.len() as u64);
        assert!(passes > 60);
    }
}
