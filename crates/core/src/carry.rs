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
//! - **R3 (windowMin probe)** — for every touched location, the minimum
//!   distance attainable by any candidate anchored inside the influence
//!   window is computed against the successor dataset with the engine's
//!   own discretize–split branch-and-bound ([`DsSearch::search_space`]
//!   restricted to the window, Equation-1 pruning and all); if that
//!   windowMin reaches the slot's cutoff `d_max` (the worst reported
//!   distance), a changed candidate could enter or reorder the result
//!   set, and the entry is rejected.  A small relative tolerance widens
//!   the rejection band so an epsilon disagreement between evaluation
//!   orders can only reject.
//! - **R4 (anchor stability)** — every reported anchor snaps to itself
//!   under the successor instance's [`EdgeSnapper`].  Canonical answers
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
//! Batch-level gates: only sharded (canonical-mode) cores carry — the
//! byte-identity guarantee the predicate leans on is the canonical
//! executor's; bounding-box movement rejects the whole batch (the search
//! space itself moved).  Top-k responses carry only when
//! the ranking is full (`len == k`), since a short ranking can be extended
//! by a candidate *worse* than every reported distance.  MaxRS responses
//! carry through their ASRS reduction (count aggregator, target above the
//! cardinality): the reduction shifts every candidate's distance by the
//! same amount when the cardinality changes, so order is preserved and the
//! same R2–R4 obligations apply with the cutoff `target − count`.
//! Approximate responses never carry: approximation-factor pruning makes
//! the influence-window argument inapplicable.
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
//! its [`EdgeSnapper`]) per distinct query size — the expensive part of
//! the pass.  The contexts persist in the mutator state ([`CarryProbes`])
//! across publishes: an append-only batch extends each cached instance
//! *incrementally* (push the new rectangles and their contribution rows,
//! sorted-insert their four edge coordinates, re-derive space, accuracy
//! and snapper), which is bit-identical to a fresh build because
//! appends land at the end of dataset iteration order and every derived
//! field is recomputed with the same fold the builder uses.  Any other
//! shape — removals, expiries, a stale context — falls back to a fresh
//! build.  Debug builds assert the incremental result against a fresh
//! build on every update.

use std::collections::HashMap;

use asrs_aggregator::Selection;
use asrs_geo::{Point, Rect, RegionSize};

use crate::asp::{AspInstance, Contributions, EdgeSnapper, RectObject};
use crate::best::BestSet;
use crate::cache::CarryCandidate;
use crate::config::SearchConfig;
use crate::discretize::Scratch;
use crate::ds_search::DsSearch;
use crate::engine::EngineCore;
use crate::maxrs::{MaxRsResult, MaxRsSearch};
use crate::query::AsrsQuery;
use crate::request::{QueryOutcome, QueryRequest};
use crate::result::SearchResult;
use crate::stats::SearchStats;

/// Hard ceiling on candidate rectangles per windowMin search.  A
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
/// removed; `append_only` is true when every op in the batch (piggybacked
/// expiries included) was an append — the precondition for updating the
/// persistent probe contexts in `probes` incrementally.
pub(crate) fn carry_forward(
    old: &EngineCore,
    next: &EngineCore,
    touched: &[Point],
    append_only: bool,
    probes: &mut CarryProbes,
) {
    let Some(cache) = next.cache.as_deref() else {
        return;
    };
    // Canonical sharded cores only: the soundness argument is built on the
    // scatter executor's decomposition-independence guarantee.  A moved
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
    let incremental = append_only && next.dataset.len() == old.dataset.len() + touched.len();
    let mut probes = PassProbes {
        cache: probes,
        old_generation: old.generation,
        old_len: old.dataset.len(),
        incremental,
    };
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
            maxrs_survives(next, *size, Selection::All, result, touched, probes)
        }
        (QueryRequest::MaxRsSelective { size, selection }, QueryOutcome::MaxRs(result)) => {
            maxrs_survives(next, *size, selection.clone(), result, touched, probes)
        }
        // Approximate: pruning against the (1+δ) band means candidates far
        // from the cutoff can steer the reported answer.  Mismatched
        // shapes: never sound to serve.
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
            let snapped = ctx.snapper.snap(result.anchor);
            if !points_bit_equal(snapped, result.anchor) {
                return false;
            }
        }
    }
    // R3: no candidate inside any influence window may reach the cutoff.
    // Each window runs the engine's own pruned branch-and-bound instead of
    // enumerating arrangement cells — a dense instance puts 10^5..10^6
    // cells in a single window, but the windowMin search visits only what
    // Equation-1 pruning cannot exclude.
    let cutoff = d_max + d_max.abs() * CUTOFF_SLACK;
    let exact = SearchConfig {
        delta: 0.0,
        ..next.config.clone()
    };
    let solver = DsSearch::with_config(&next.dataset, &next.aggregator, exact);
    let mut scratch = solver.scratch();
    for p in touched {
        let ctx = probes.context(next, size);
        match window_min(&solver, &ctx.asp, &ctx.table, query, *p, &mut scratch) {
            Some(min) if min > cutoff => {}
            // `<= cutoff`, NaN, or an over-budget window: a changed
            // candidate could enter (or tie into) the reported set.
            _ => return false,
        }
    }
    true
}

/// R2 + R3 + R4 for a MaxRS answer, through the MaxRS → ASRS reduction
/// (count aggregator, target one above the successor cardinality).
///
/// The reduction's target moves with the cardinality, shifting *every*
/// candidate's distance by the same amount — order, ties and tie-breaks
/// are preserved exactly — so the stored `(region, anchor, count)` answer
/// is reproduced byte-for-byte by a successor search iff no influence
/// window holds a candidate reaching the reported count: windowMin
/// distance `target − windowMaxCount` must stay strictly above the
/// reported `target − count`.  Counts and targets are integers below
/// 2^53, so the comparison is exact and the slack only widens rejection.
fn maxrs_survives(
    next: &EngineCore,
    size: RegionSize,
    selection: Selection,
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
        if !points_bit_equal(ctx.snapper.snap(result.anchor), result.anchor) {
            return false;
        }
    }
    // R3 via the same reduction the sharded executor runs
    // (`EngineCore::sharded_max_rs`): exact config, count aggregator over
    // the request's selection, target above the successor cardinality.
    let exact = SearchConfig {
        delta: 0.0,
        ..next.config.clone()
    };
    let Ok((aggregator, query)) = MaxRsSearch::new(&next.dataset, size)
        .with_selection(selection)
        .with_config(exact.clone())
        .reduction()
    else {
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
    let solver = DsSearch::with_config(&next.dataset, &aggregator, exact);
    let mut scratch = solver.scratch();
    let table = Contributions::of(&next.dataset, &aggregator);
    for p in touched {
        let ctx = probes.context(next, size);
        match window_min(&solver, &ctx.asp, &table, &query, *p, &mut scratch) {
            Some(min) if min > cutoff => {}
            _ => return false,
        }
    }
    true
}

/// The minimum distance any candidate anchored in the influence window of
/// `touched` attains against the successor dataset, or `None` when the
/// window intersects more than [`PROBE_BUDGET`] candidate rectangles.
/// `table` holds the statistics rows of `asp` under the solver's
/// aggregator.
///
/// Mirrors the cold path: exact config (δ forced to zero, like the scatter
/// executor), the same contributing-rectangle filter, and the
/// empty-covering candidate seeded first — window cells no rectangle
/// reaches are real candidates too (a removal can strip a window down to
/// empty covering), and seeding it also primes the pruning cutoff.
fn window_min(
    solver: &DsSearch<'_>,
    asp: &AspInstance,
    table: &Contributions,
    query: &AsrsQuery,
    touched: Point,
    scratch: &mut Scratch,
) -> Option<f64> {
    let size = query.size;
    let window = Rect::new(
        touched.x - size.width,
        touched.y - size.height,
        touched.x,
        touched.y,
    );
    let candidates = table.contributing(asp.rects_intersecting(&window));
    if candidates.len() > PROBE_BUDGET {
        return None;
    }
    let aggregator = solver.aggregator();
    let zero_stats = vec![0.0; aggregator.stats_dim()];
    let empty_rep = aggregator.stats_to_features(&zero_stats);
    let empty_distance =
        aggregator.distance(&empty_rep, &query.target, &query.weights, query.metric);
    let mut best = BestSet::new(1);
    best.offer(
        empty_distance,
        Point::new(window.min_x, window.min_y),
        empty_rep,
    );
    let mut stats = SearchStats::new();
    solver
        .search_space(
            asp, table, query, window, candidates, &mut best, &mut stats, scratch, None,
        )
        .ok()?;
    best.into_entries().first().map(|e| e.distance)
}

/// The persistent per-size probe contexts, owned by the mutator state and
/// reused across publishes (see the module docs).  Building an
/// [`AspInstance`] per size dominated the carry pass; append-only batches
/// now extend each cached context incrementally.
#[derive(Debug, Default)]
pub(crate) struct CarryProbes {
    sizes: HashMap<(u64, u64), SizeContext>,
}

/// One cached probe context: the ASP instance, its contribution table
/// under the engine's aggregator, and the snapper for a query size, plus
/// the sorted (by `total_cmp`, duplicates kept) edge-coordinate arrays the
/// incremental update maintains, tagged with the dataset generation and
/// length they reflect.
#[derive(Debug)]
struct SizeContext {
    asp: AspInstance,
    table: Contributions,
    snapper: EdgeSnapper,
    xs: Vec<f64>,
    ys: Vec<f64>,
    generation: u64,
    len: usize,
}

/// One carry pass's view of the probe cache: knows which predecessor
/// generation is extendable and whether this batch qualifies.
struct PassProbes<'a> {
    cache: &'a mut CarryProbes,
    old_generation: u64,
    old_len: usize,
    incremental: bool,
}

fn size_key(size: RegionSize) -> (u64, u64) {
    (size.width.to_bits(), size.height.to_bits())
}

impl PassProbes<'_> {
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
    /// when this pass already refreshed it, extended incrementally when
    /// the batch was append-only and the context reflects the predecessor,
    /// rebuilt from scratch otherwise.
    fn context(&mut self, next: &EngineCore, size: RegionSize) -> &SizeContext {
        use std::collections::hash_map::Entry;
        match self.cache.sizes.entry(size_key(size)) {
            Entry::Occupied(occupied) => {
                let ctx = occupied.into_mut();
                if ctx.generation == next.generation {
                    // Already refreshed for this publish by another entry.
                } else if self.incremental
                    && ctx.generation == self.old_generation
                    && ctx.len == self.old_len
                {
                    ctx.extend(next, size);
                } else {
                    *ctx = SizeContext::fresh(next, size);
                }
                ctx
            }
            Entry::Vacant(vacant) => vacant.insert(SizeContext::fresh(next, size)),
        }
    }
}

impl SizeContext {
    /// Builds the context from scratch, mirroring the canonical scatter
    /// executor's instance construction exactly (`shard::scatter_search`),
    /// so snapped representatives agree bit-for-bit.
    fn fresh(next: &EngineCore, size: RegionSize) -> Self {
        let (asp, table) = AspInstance::with_contributions(
            &next.dataset,
            &next.aggregator,
            size,
            next.config.accuracy,
            next.config.accuracy_floor,
        );
        let snapper = EdgeSnapper::from_asp(&asp);
        let mut xs = Vec::with_capacity(asp.rects().len() * 2);
        let mut ys = Vec::with_capacity(asp.rects().len() * 2);
        for r in asp.rects() {
            xs.push(r.rect.min_x);
            xs.push(r.rect.max_x);
            ys.push(r.rect.min_y);
            ys.push(r.rect.max_y);
        }
        xs.sort_by(f64::total_cmp);
        ys.sort_by(f64::total_cmp);
        Self {
            asp,
            table,
            snapper,
            xs,
            ys,
            generation: next.generation,
            len: next.dataset.len(),
        }
    }

    /// Extends the context over the objects an append-only batch added:
    /// push their rectangles and contribution rows (appends land at the
    /// end of dataset iteration order), sorted-insert their edge
    /// coordinates, and re-derive space, accuracy and snapper with the same
    /// folds a fresh build uses — bit-identical output for a fraction of
    /// the sort cost.
    fn extend(&mut self, next: &EngineCore, size: RegionSize) {
        for idx in self.len..next.dataset.len() {
            let object = next.dataset.object(idx);
            self.table.push(&next.aggregator, object);
            let rect = Rect::from_top_right(object.location, size);
            sorted_insert(&mut self.xs, rect.min_x);
            sorted_insert(&mut self.xs, rect.max_x);
            sorted_insert(&mut self.ys, rect.min_y);
            sorted_insert(&mut self.ys, rect.max_y);
            self.asp.push_rect(RectObject {
                rect,
                object_idx: idx as u32,
            });
        }
        self.asp.refresh(
            next.config.accuracy,
            next.config.accuracy_floor,
            &self.xs,
            &self.ys,
        );
        self.snapper = EdgeSnapper::from_sorted_edges(&self.xs, &self.ys);
        self.generation = next.generation;
        self.len = next.dataset.len();
        #[cfg(debug_assertions)]
        self.assert_matches_fresh(next, size);
        #[cfg(not(debug_assertions))]
        let _ = size;
    }

    /// The debug-build proof of the incremental update: every derived
    /// field must match a from-scratch build of the successor dataset.
    #[cfg(debug_assertions)]
    fn assert_matches_fresh(&self, next: &EngineCore, size: RegionSize) {
        let (fresh, table) = AspInstance::with_contributions(
            &next.dataset,
            &next.aggregator,
            size,
            next.config.accuracy,
            next.config.accuracy_floor,
        );
        debug_assert!(
            self.asp.rects() == fresh.rects()
                && rects_bit_equal(self.asp.space(), fresh.space())
                && self.asp.accuracy() == fresh.accuracy(),
            "incremental ASP instance diverged from a fresh build"
        );
        debug_assert!(
            self.table.bits_eq(&table),
            "incremental contribution table diverged from a fresh build"
        );
        debug_assert!(
            self.snapper.bits_eq(&EdgeSnapper::from_asp(&fresh)),
            "incremental snapper diverged from a fresh build"
        );
    }
}

/// Inserts `value` into a `total_cmp`-sorted vector, keeping it sorted.
fn sorted_insert(values: &mut Vec<f64>, value: f64) {
    let at = values.partition_point(|v| v.total_cmp(&value).is_lt());
    values.insert(at, value);
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
