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
//! R3 and R4 need an [`AspInstance`] (with its [`Contributions`] table and
//! its edge table) per distinct query size — the expensive part of
//! the pass.  The contexts persist in the mutator state ([`CarryProbes`])
//! across publishes and follow each batch incrementally, whatever its
//! shape: appends, removals, TTL expiries or a mix.  Once per pass the
//! [`DatasetDelta`] is derived by walking the predecessor and successor
//! datasets in order (removals preserve order and appends land at the
//! end, so the walk is exact).  Each context then drops the removed
//! rectangles (renumbering the rest) with their contribution rows and
//! edge coordinates, pushes the appended tail, merges the edge multiset
//! and re-derives space, edge table and accuracy from it without a sort —
//! a result bit-identical to a fresh build.  Only a context that does not
//! reflect the predecessor (a size the previous pass did not probe) is
//! rebuilt from scratch.  Debug builds assert every update against a fresh build;
//! the unit tests below check the same in release builds.

use std::collections::HashMap;
use std::sync::Arc;

use asrs_aggregator::{CompositeAggregator, Selection};
use asrs_data::{AttrValue, Dataset, SpatialObject};
use asrs_geo::{Point, Rect, RegionSize};

use crate::asp::{AspInstance, Contributions, RectObject};
use crate::best::BestSet;
use crate::cache::CarryCandidate;
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

/// Ceiling on cached per-size probe contexts.  Distinct query sizes past
/// the ceiling evict every context the current pass did not refresh.
const MAX_CACHED_SIZES: usize = 16;

/// Re-stamps every provably unaffected cache entry of `old`'s generation
/// to `next`'s generation.  Called from the publish path with the mutation
/// mutex held, after the WAL accepted the batch (nothing can abort the
/// publish past that point) and *before* the successor core swaps in, so
/// readers never observe a cold window for the pass's duration.
///
/// `touched` holds the location of every object the batch appended or
/// removed; `probes` are the persistent per-size probe contexts, brought
/// up to `next` incrementally (see the module docs).
pub(crate) fn carry_forward(
    old: &EngineCore,
    next: &EngineCore,
    touched: &[Point],
    probes: &mut CarryProbes,
) {
    let Some(cache) = next.cache.as_deref() else {
        return;
    };
    // Canonical sharded cores only: the soundness argument is built on the
    // shard scatter's decomposition-independence guarantee.  A moved
    // bounding box changes the search space wholesale — reject the entire
    // batch.
    if next.shards.is_none() || touched.is_empty() {
        return;
    }
    if !rects_bit_equal(old.dataset.bounding_box(), next.dataset.bounding_box()) {
        return;
    }
    let candidates = cache.carry_candidates(old.generation);
    if candidates.is_empty() {
        return;
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
    let size = query.size;
    {
        let ctx = probes.context(next, size);
        for result in results {
            let snapped = ctx.asp.edges().snap(result.anchor);
            if !points_bit_equal(snapped, result.anchor) {
                return false;
            }
        }
    }
    // R3: no candidate inside any influence window may reach the cutoff.
    // Each window runs the engine's own pruned branch-and-bound instead of
    // enumerating arrangement cells — a dense instance puts 10^5..10^6
    // cells in a single window, but the threshold search visits only what
    // Equation-1 pruning cannot exclude.
    let cutoff = d_max + d_max.abs() * CUTOFF_SLACK;
    let ctx = probes.context(next, size);
    let solver = DsSearch::new(
        &next.aggregator,
        &next.config,
        0.0,
        &ctx.asp,
        &ctx.table,
        query,
        None,
    );
    let mut scratch = solver.scratch();
    !touched
        .iter()
        .any(|p| window_reaches(&solver, *p, cutoff, &mut scratch))
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
    // R4: the reported anchor is still its own cell representative.
    {
        let ctx = probes.context(next, size);
        if !points_bit_equal(ctx.asp.edges().snap(result.anchor), result.anchor) {
            return false;
        }
    }
    // R3 via the same reduction the executor runs (`maxrs::reduction`):
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
    let cutoff = d_reported + d_reported * CUTOFF_SLACK;
    let (ctx, table) = probes.count_context(next, size, selection, &aggregator);
    let solver = DsSearch::new(
        &aggregator,
        &next.config,
        0.0,
        &ctx.asp,
        table,
        &query,
        None,
    );
    let mut scratch = solver.scratch();
    !touched
        .iter()
        .any(|p| window_reaches(&solver, *p, cutoff, &mut scratch))
}

/// Whether some candidate anchored in the influence window of `touched`
/// attains a distance at or below `cutoff` against the successor dataset,
/// decided by `solver`, the kernel bound to the successor's probe context
/// for the query, whose edge table canonicalises the probed anchors.  A
/// window intersecting more than [`PROBE_BUDGET`] candidate rectangles
/// counts as reaching it.
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
    touched: Point,
    cutoff: f64,
    scratch: &mut Scratch,
) -> bool {
    let (empty_rep, empty_distance) = solver.empty_candidate();
    if empty_distance <= cutoff {
        return true;
    }
    let size = solver.query.size;
    let window = Rect::new(
        touched.x - size.width,
        touched.y - size.height,
        touched.x,
        touched.y,
    );
    let candidates = solver
        .table
        .contributing(solver.asp.rects_intersecting(&window));
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

/// The persistent per-size probe contexts, owned by the mutator state and
/// reused across publishes (see the module docs).  Building an
/// [`AspInstance`] per size dominated the carry pass; every batch now
/// updates each cached context incrementally.
#[derive(Debug, Default)]
pub(crate) struct CarryProbes {
    sizes: HashMap<(u64, u64), SizeContext>,
    /// Contexts built from scratch, so the tests can tell the incremental
    /// path from the fallback.
    #[cfg(test)]
    fresh_builds: usize,
}

/// One cached probe context: the ASP instance (with its edge table, which
/// snaps the probed anchors) and its contribution table under the
/// engine's aggregator for a query size, plus the edge multiset the
/// incremental update maintains, tagged with the dataset generation and
/// length they reflect.
///
/// `xs`/`ys` are the edge coordinates sorted by `total_cmp` with
/// duplicates kept: the multiset the instance's deduplicated edge table
/// comes from.  A fresh build sorts it once, together with the instance
/// ([`AspInstance::with_contributions_and_edges`]); every later batch
/// merges its removed and appended edges in one pass, and
/// [`AspInstance::refresh`] derives table and accuracy from the merge
/// without sorting again.
#[derive(Debug)]
struct SizeContext {
    asp: AspInstance,
    table: Contributions,
    xs: Vec<f64>,
    ys: Vec<f64>,
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

/// One carry pass's view of the probe cache: the predecessor the cached
/// contexts may reflect, the dataset delta that brings them up to the
/// successor, and the MaxRS count tables built so far.
struct PassProbes<'a> {
    cache: &'a mut CarryProbes,
    old_generation: u64,
    old_len: usize,
    delta: DatasetDelta,
    /// The successor's contribution table under each MaxRS selection's
    /// count aggregator, built once per pass per distinct selection.
    count_tables: Vec<(Selection, Contributions)>,
}

fn size_key(size: RegionSize) -> (u64, u64) {
    (size.width.to_bits(), size.height.to_bits())
}

impl<'a> PassProbes<'a> {
    fn new(cache: &'a mut CarryProbes, old: &EngineCore, next: &EngineCore) -> Self {
        Self {
            cache,
            old_generation: old.generation,
            old_len: old.dataset.len(),
            delta: DatasetDelta::between(&old.dataset, &next.dataset),
            count_tables: Vec::new(),
        }
    }

    /// Evicts contexts for sizes the workload stopped querying once the
    /// cache outgrows its ceiling: anything not refreshed by the previous
    /// pass is stale.
    fn prune(&mut self) {
        if self.cache.sizes.len() > MAX_CACHED_SIZES {
            let keep = self.old_generation;
            self.cache.sizes.retain(|_, ctx| ctx.generation == keep);
        }
    }

    /// The probe context for `size` against the successor core: reused
    /// when this pass already refreshed it, updated with the pass's delta
    /// when it reflects the predecessor, rebuilt from scratch otherwise.
    fn context(&mut self, next: &EngineCore, size: RegionSize) -> &SizeContext {
        use std::collections::hash_map::Entry;
        match self.cache.sizes.entry(size_key(size)) {
            Entry::Occupied(occupied) => {
                let ctx = occupied.into_mut();
                if ctx.generation == next.generation {
                    // Already refreshed for this publish by another entry.
                } else if ctx.generation == self.old_generation && ctx.len == self.old_len {
                    ctx.apply(next, size, &self.delta);
                } else {
                    #[cfg(test)]
                    {
                        self.cache.fresh_builds += 1;
                    }
                    *ctx = SizeContext::fresh(next, size);
                }
                ctx
            }
            Entry::Vacant(vacant) => {
                #[cfg(test)]
                {
                    self.cache.fresh_builds += 1;
                }
                vacant.insert(SizeContext::fresh(next, size))
            }
        }
    }

    /// The context for `size` together with the successor's contribution
    /// table under `aggregator`, the count aggregator of `selection`'s
    /// MaxRS reduction; the table is built on first use in this pass.
    fn count_context(
        &mut self,
        next: &EngineCore,
        size: RegionSize,
        selection: &Selection,
        aggregator: &CompositeAggregator,
    ) -> (&SizeContext, &Contributions) {
        let at = match self.count_tables.iter().position(|(s, _)| s == selection) {
            Some(at) => at,
            None => {
                let table = Contributions::of(&next.dataset, aggregator);
                self.count_tables.push((selection.clone(), table));
                self.count_tables.len() - 1
            }
        };
        self.context(next, size);
        (&self.cache.sizes[&size_key(size)], &self.count_tables[at].1)
    }
}

impl SizeContext {
    /// Builds the context from scratch, mirroring the executor's instance
    /// construction exactly (`Executor::run`), so snapped representatives
    /// agree bit-for-bit; the edge multiset comes from the instance's own
    /// sort.
    fn fresh(next: &EngineCore, size: RegionSize) -> Self {
        let (asp, table, xs, ys) =
            AspInstance::with_contributions_and_edges(&next.dataset, &next.aggregator, size);
        Self {
            asp,
            table,
            xs,
            ys,
            generation: next.generation,
            len: next.dataset.len(),
        }
    }

    /// Brings a context of the predecessor up to `next`: drop the removed
    /// rectangles (renumbering the rest) with their contribution rows,
    /// push the appended tail's rectangles and rows, merge the edge
    /// coordinates in one pass per axis, and re-derive space, edge table
    /// and accuracy with the same folds a fresh build uses — bit-identical
    /// output without a sort.
    fn apply(&mut self, next: &EngineCore, size: RegionSize, delta: &DatasetDelta) {
        let added = next.dataset.len() - delta.tail;
        let mut gone_xs = Vec::with_capacity(delta.removed.len() * 2);
        let mut gone_ys = Vec::with_capacity(delta.removed.len() * 2);
        for &idx in &delta.removed {
            let rect = self.asp.rects()[idx].rect;
            gone_xs.extend([rect.min_x, rect.max_x]);
            gone_ys.extend([rect.min_y, rect.max_y]);
        }
        self.asp.remove_rects(&delta.removed);
        self.table.remove_rows(&delta.removed);
        let mut new_xs = Vec::with_capacity(added * 2);
        let mut new_ys = Vec::with_capacity(added * 2);
        for idx in delta.tail..next.dataset.len() {
            let object = next.dataset.object(idx);
            self.table.push(&next.aggregator, object);
            let rect = Rect::from_top_right(object.location, size);
            new_xs.extend([rect.min_x, rect.max_x]);
            new_ys.extend([rect.min_y, rect.max_y]);
            self.asp.push_rect(RectObject {
                rect,
                object_idx: idx as u32,
            });
        }
        merge_sorted(&mut self.xs, gone_xs, new_xs);
        merge_sorted(&mut self.ys, gone_ys, new_ys);
        self.asp.refresh(&self.xs, &self.ys);
        self.generation = next.generation;
        self.len = next.dataset.len();
        #[cfg(debug_assertions)]
        self.assert_matches_fresh(next, size);
    }

    /// The debug-build proof of every incremental update.
    #[cfg(debug_assertions)]
    fn assert_matches_fresh(&self, next: &EngineCore, size: RegionSize) {
        let diverged = self.diverges_from_fresh(next, size);
        debug_assert!(
            diverged.is_none(),
            "incremental probe context diverged from a fresh build in its {diverged:?}"
        );
    }

    /// The first field in which this context differs from a from-scratch
    /// build of `next`, compared bit for bit, or `None` when it matches;
    /// the edge table is compared with the executor's own construction.  The
    /// release-mode unit tests check it like the debug assertion.
    #[cfg(any(debug_assertions, test))]
    fn diverges_from_fresh(&self, next: &EngineCore, size: RegionSize) -> Option<&'static str> {
        let fresh = Self::fresh(next, size);
        let bits = |a: &[f64], b: &[f64]| {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
        };
        if self.asp.rects() != fresh.asp.rects() {
            Some("rectangles")
        } else if !rects_bit_equal(self.asp.space(), fresh.asp.space()) {
            Some("space")
        } else if self.asp.accuracy() != fresh.asp.accuracy() {
            Some("accuracy")
        } else if !self.table.bits_eq(&fresh.table) {
            Some("contribution table")
        } else if !bits(&self.xs, &fresh.xs) || !bits(&self.ys, &fresh.ys) {
            Some("edge arrays")
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

/// Rewrites the `total_cmp`-sorted multiset `values` as
/// `values − gone + added` in one merge pass.  Every value of `gone` must
/// occur in `values`.  `total_cmp` equality is bit equality, so the result
/// is exactly the sorted edge array a fresh build produces.
fn merge_sorted(values: &mut Vec<f64>, mut gone: Vec<f64>, mut added: Vec<f64>) {
    if gone.is_empty() && added.is_empty() {
        return;
    }
    gone.sort_by(f64::total_cmp);
    added.sort_by(f64::total_cmp);
    let mut merged = Vec::with_capacity(values.len() + added.len() - gone.len());
    let mut gone = gone.into_iter().peekable();
    let mut added = added.into_iter().peekable();
    for &value in values.iter() {
        if gone.next_if(|g| g.total_cmp(&value).is_eq()).is_some() {
            continue;
        }
        while let Some(a) = added.next_if(|a| a.total_cmp(&value).is_lt()) {
            merged.push(a);
        }
        merged.push(value);
    }
    debug_assert!(gone.next().is_none(), "removed an edge that was not there");
    merged.extend(added);
    *values = merged;
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

    /// Updates contexts of `old` to `next` through a carry pass's probe
    /// view and checks each against a fresh build, field by field; none
    /// may take the fresh-build path.  Returns the pass's delta.
    fn follow(old: &EngineCore, next: &EngineCore) -> DatasetDelta {
        assert_ne!(old.generation, next.generation);
        let mut cache = CarryProbes::default();
        for size in sizes(old) {
            cache
                .sizes
                .insert(size_key(size), SizeContext::fresh(old, size));
        }
        let mut probes = PassProbes::new(&mut cache, old, next);
        for size in sizes(next) {
            let ctx = probes.context(next, size);
            assert_eq!(ctx.generation, next.generation);
            assert_eq!(ctx.diverges_from_fresh(next, size), None, "size {size:?}");
        }
        let delta = probes.delta;
        assert_eq!(cache.fresh_builds, 0, "a context was rebuilt from scratch");
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
        let size = solver.query.size;
        let window = Rect::new(
            touched.x - size.width,
            touched.y - size.height,
            touched.x,
            touched.y,
        );
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
                    window_reaches(&solver, touched, cutoff, scratch)
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
}
