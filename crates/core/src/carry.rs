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
//!   the window's own Equation-1 bound ([`Bounds::space_bound`], base the
//!   candidate rectangles containing the closed window, upper set all of
//!   them) is compared with the seed, and a window it exceeds cannot reach
//!   — the kernel would prune it whole.  A window it does not settle is
//!   handed to the kernel with that bound ([`DsSearch::search_bounded`]),
//!   so it is computed once.  Appends land anywhere, so most
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
//! The predicate is a property of the instance, not of how a plan splits
//! it: every exact plan gives the same outcome, so every engine with a
//! cache carries, sharded or not.  Batch-level gate: bounding-box movement
//! rejects the whole batch (the search space itself moved).  Top-k
//! responses carry only when the ranking is full (`len == k`), since a
//! short ranking can be extended by a candidate *worse* than every
//! reported distance.  MaxRS responses
//! carry through their ASRS reduction (count aggregator, target above the
//! cardinality): the reduction shifts every candidate's distance by the
//! same amount when the cardinality changes, so order is preserved and the
//! same R2–R4 obligations apply with the cutoff `target − count`.
//! Approximate responses carry exactly like similar-region ones where the
//! successor's executor [answers them exactly](crate::executor::Executor::answers_exactly)
//! (the shard scatter and the oracle): the stored response is what
//! `Similar` would compute, so R1–R4 apply verbatim.  Elsewhere (1+δ)
//! pruning lets candidates far from the cutoff steer the answer, and the
//! entry is rejected.
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
//! # Views of the generation's location index
//!
//! R3 and R4 read, per distinct query size, the edge table that snaps the
//! probed anchors, and around each touched location the candidate
//! rectangles and their [`Contributions`] rows: the engine aggregator's for
//! ASRS slots, a count aggregator's for MaxRS slots.  The edges and the
//! rectangles reaching a window are [`SizeView`]s of the successor
//! generation's location index (see the [`asp`](crate::asp) module), which
//! the publish patched or the pass builds.  A row is a pure function of its
//! object and the aggregator, so each window's rows are computed from its
//! objects where R3 reads them: the pass keeps nothing across publishes,
//! and nothing per size.
//!
//! R4 snaps each reported anchor with the view over the anchor itself.  R3
//! takes each window's contributing rectangles ([`SizeView::reaching`], in
//! position order, as a scan of every rectangle lists them) and their rows;
//! per window come the empty-covering test (once per slot), this lookup,
//! the bound, the candidate budget, and only then the search.  Only a
//! searched window gets an instance ([`AspInstance::new`]), with the view
//! over the window as its edge table and that table's Definition-7
//! accuracy.  The kernel thus sees the rectangles, rows, order and edges
//! the full instance would give it.  The window's accuracy is at least the
//! whole table's, which moves only where the search stops splitting: a
//! dropped space is resolved exactly, so the decision is the same.  The
//! engine audit checks the index, and the unit tests check it and the
//! views, in release builds too.

use std::sync::Arc;
use std::time::Instant;

use asrs_aggregator::{CompositeAggregator, FeatureVector, Selection};
use asrs_data::Dataset;
use asrs_geo::{Point, Rect, RegionSize};

use crate::asp::{AspInstance, Contributions, LocationIndex, RectObject, SizeView};
use crate::best::BestSet;
use crate::cache::{CarryCandidate, CarryPassCounts, QueryCache};
use crate::config::SearchConfig;
use crate::discretize::{BoundSums, Scratch};
use crate::ds_search::{empty_candidate, Bounds, DsSearch};
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
/// removed.  The pass reads only the two generations: it keeps no state
/// between publishes (see the module docs).  Its duration and how R3
/// settled its windows are recorded in the cache's counters.
pub(crate) fn carry_forward(old: &EngineCore, next: &EngineCore, touched: &[Point]) {
    let Some(cache) = next.cache.as_deref() else {
        return;
    };
    let started = Instant::now();
    let counts = restamp(cache, old, next, touched);
    cache.note_carry_pass(started.elapsed(), counts);
}

/// The pass itself; returns how R3 settled the windows it examined.
fn restamp(
    cache: &QueryCache,
    old: &EngineCore,
    next: &EngineCore,
    touched: &[Point],
) -> CarryPassCounts {
    if touched.is_empty() {
        return CarryPassCounts::default();
    }
    // A moved bounding box changes the search space wholesale — reject the
    // entire batch.
    if !rects_bit_equal(old.dataset.bounding_box(), next.dataset.bounding_box()) {
        return CarryPassCounts::default();
    }
    let candidates = cache.carry_candidates(old.generation);
    if candidates.is_empty() {
        return CarryPassCounts::default();
    }
    let mut probes = PassProbes::new(next, touched);
    for candidate in candidates {
        if !probes.entry_survives(&candidate) {
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

impl PassProbes<'_> {
    /// The full per-entry predicate (R1 plus the per-slot checks).
    fn entry_survives(&mut self, candidate: &CarryCandidate) -> bool {
        let next = self.next;
        // R1: the successor planner must still choose the stored backend
        // and admit the plan — otherwise a cold run would answer (or fail)
        // differently.
        let Ok(plan) = next.plan(&candidate.request) else {
            return false;
        };
        if plan.backend != candidate.response.backend || plan.admit().is_err() {
            return false;
        }
        let aggregator = &next.aggregator;
        match (candidate.request.operation(), &candidate.response.outcome) {
            (QueryRequest::Similar { query }, QueryOutcome::Best(result)) => {
                self.slot_survives(aggregator, query, std::slice::from_ref(result))
            }
            (QueryRequest::Approximate { query, .. }, QueryOutcome::Best(result)) => {
                // Sound only where the executor answers it exactly, so the
                // stored response is the similar-region answer; (1+δ)
                // pruning lets candidates far from the cutoff steer the
                // reported one.
                next.executor(&plan).is_ok_and(|e| e.answers_exactly())
                    && self.slot_survives(aggregator, query, std::slice::from_ref(result))
            }
            (QueryRequest::TopK { query, k }, QueryOutcome::Ranked(ranked)) => {
                // A short ranking (fewer candidates than requested) can be
                // *extended* by a new candidate worse than every reported
                // distance, which no cutoff probe would catch.
                ranked.len() == *k && self.slot_survives(aggregator, query, ranked)
            }
            (QueryRequest::Batch { queries }, QueryOutcome::Batch(results)) => {
                queries.len() == results.len()
                    && queries.iter().zip(results).all(|(query, result)| {
                        self.slot_survives(aggregator, query, std::slice::from_ref(result))
                    })
            }
            (QueryRequest::MaxRs { size }, QueryOutcome::MaxRs(result)) => {
                self.maxrs_survives(*size, &Selection::All, result)
            }
            (QueryRequest::MaxRsSelective { size, selection }, QueryOutcome::MaxRs(result)) => {
                self.maxrs_survives(*size, selection, result)
            }
            // Mismatched shapes: never sound to serve.
            _ => false,
        }
    }

    /// R2 + R3 + R4 for one query/result-set slot searched with
    /// `aggregator`.  `results` is the slot's reported set, best first;
    /// the cutoff is the worst reported distance.
    fn slot_survives(
        &mut self,
        aggregator: &CompositeAggregator,
        query: &AsrsQuery,
        results: &[SearchResult],
    ) -> bool {
        let Some(d_max) = results.last().map(|r| r.distance) else {
            return false;
        };
        // A non-finite cutoff poisons every comparison below (NaN compares
        // false, so probes could never reject).
        if !d_max.is_finite() {
            return false;
        }
        // R2: every reported region must be untouched — closed
        // containment, a conservative superset of the open influence-window
        // membership test — so reported representations and distances are
        // still exact.
        for result in results {
            if self.touched.iter().any(|p| result.region.contains_point(p)) {
                return false;
            }
        }
        // R4: reported anchors must still be their own arrangement-cell
        // representatives under the successor's edge set.
        let view = self.locations.view(query.size);
        if !results.iter().all(|r| view.snaps_to_itself(r.anchor)) {
            return false;
        }
        // R3: no candidate inside any influence window may reach the
        // cutoff.  Each window runs the engine's own pruned
        // branch-and-bound instead of enumerating arrangement cells — a
        // dense instance puts 10^5..10^6 cells in a single window, but the
        // threshold search visits only what Equation-1 pruning cannot
        // exclude.
        let cutoff = d_max + d_max.abs() * CUTOFF_SLACK;
        self.no_window_reaches(aggregator, query, cutoff)
    }

    /// R2 + R3 + R4 for a MaxRS answer, through the MaxRS → ASRS reduction
    /// (count aggregator, target one above the successor cardinality).
    ///
    /// The reduction's target moves with the cardinality, shifting *every*
    /// candidate's distance by the same amount — order, ties and
    /// tie-breaks are preserved exactly — so the stored `(region, anchor,
    /// count)` answer is reproduced byte-for-byte by a successor search iff
    /// the reduction's slot, with the reported distance `target − count`,
    /// survives [`PassProbes::slot_survives`].  Counts and targets are
    /// integers below 2^53, so the comparison is exact and the slack only
    /// widens rejection.
    fn maxrs_survives(
        &mut self,
        size: RegionSize,
        selection: &Selection,
        result: &MaxRsResult,
    ) -> bool {
        // The same reduction the executor runs (`maxrs::reduction`): exact
        // search, count aggregator over the request's selection, target
        // above the successor cardinality.
        let dataset = &self.next.dataset;
        let Ok((aggregator, query)) = crate::maxrs::reduction(dataset, size, selection) else {
            return false;
        };
        let d_reported = (dataset.len() as f64 + 1.0) - result.count as f64;
        // R2 keeps every counted object alive, so the reported count
        // cannot exceed the successor cardinality; anything else is a
        // stored answer this predicate does not understand.
        if d_reported < 1.0 {
            return false;
        }
        // The slot check reads the region, the anchor and the distance.
        let empty = FeatureVector::new(Vec::new());
        let reported = SearchResult::new(result.anchor, result.region, d_reported, empty);
        self.slot_survives(&aggregator, &query, std::slice::from_ref(&reported))
    }
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

/// What R3 reads for one slot: the slot's aggregator, the kernel's
/// settings and query, and the view of the query size over the successor's
/// objects.
struct SlotProbe<'p> {
    aggregator: &'p CompositeAggregator,
    config: &'p SearchConfig,
    query: &'p AsrsQuery,
    view: SizeView<'p>,
    dataset: &'p Dataset,
}

impl SlotProbe<'_> {
    /// The contributing rectangles that reach `window`, in position order,
    /// and their rows in the same order, computed from their objects.
    fn window_candidates(&self, window: &Rect) -> (Vec<RectObject>, Contributions) {
        let mut hits = self.view.reaching(window);
        hits.retain(|&pos| {
            self.aggregator
                .contributes(self.dataset.object(pos as usize))
        });
        let table = Contributions::at(self.dataset, self.aggregator, &hits);
        let rects = hits
            .iter()
            .map(|&pos| RectObject {
                rect: Rect::from_top_right(
                    self.dataset.object(pos as usize).location,
                    self.query.size,
                ),
                object_idx: pos,
            })
            .collect();
        (rects, table)
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

/// The kernel buffers of one slot's R3 windows: the bound's, allocated
/// with the slot, and the grid's, allocated at the first window the bound
/// does not settle.
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
/// decided by the kernel over the window's candidates.  The slot's caller
/// has already tested the empty covering, whose representation is
/// `empty_rep`.
///
/// Mirrors the cold path: exact search (δ = 0, like the scatter) and the
/// same contributing-rectangle filter.  The cheap tests run first, each
/// settling the window when it can:
///
/// 1. The lookup finds the window's candidate rectangles and their rows.
/// 2. The window's own Equation-1 bound ([`Bounds::space_bound`]): when
///    it exceeds the seed below, the kernel would prune the whole window,
///    so no candidate in it reaches the cutoff and no instance is built.
/// 3. A window reaching more than [`PROBE_BUDGET`] candidate rectangles
///    counts as reaching the cutoff.  It comes after the bound, so a window
///    the bound settles is never refused for being dense.
/// 4. Otherwise the window-local instance takes the view over the window
///    as its edge table, and with it that table's Definition-7 accuracy,
///    and [`window_search`] runs the branch-and-bound from the bound of 2.
fn window_reaches(
    probe: &SlotProbe<'_>,
    touched: Point,
    cutoff: f64,
    empty_rep: &FeatureVector,
    buffers: &mut WindowBuffers,
) -> Verdict {
    let size = probe.query.size;
    let window = influence_window(touched, size);
    let (rects, table) = probe.window_candidates(&window);
    let candidates: Vec<u32> = (0..rects.len() as u32).collect();
    let bounds = Bounds {
        aggregator: probe.aggregator,
        query: probe.query,
        rects: &rects,
        table: &table,
    };
    let bound = bounds.space_bound(
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
    let asp = AspInstance::new(rects, size, probe.view.edges_within(&window));
    let solver = probe.solver(&asp, &table);
    let scratch = buffers.grid.get_or_insert_with(|| solver.scratch());
    Verdict {
        reaches: window_search(
            &solver,
            window,
            bound,
            candidates,
            cutoff,
            empty_rep.clone(),
            scratch,
        ),
        searched: true,
    }
}

/// The branch-and-bound over `window`, whose contributing rectangles are
/// `candidates` and whose Equation-1 bound over them is `bound`: whether
/// some candidate anchored in it attains a distance at or below `cutoff`.  The search starts from a seed at the next float
/// above the cutoff (`empty_rep`, the empty covering's representation, at
/// the window's corner): pruning then discards every sub-space whose bound
/// exceeds the seed, and any candidate at or below the cutoff displaces it.
fn window_search(
    solver: &DsSearch<'_>,
    window: Rect,
    bound: f64,
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
    let searched = solver.search_bounded(window, bound, candidates, &mut best, &mut stats, scratch);
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

/// One carry pass: the successor core, the locations the batch touched,
/// the view of the successor's location index, and what the pass counted.
struct PassProbes<'a> {
    next: &'a EngineCore,
    touched: &'a [Point],
    locations: &'a LocationIndex,
    counts: CarryPassCounts,
}

impl<'a> PassProbes<'a> {
    /// Takes `next`'s location index, built here when no search or
    /// publish has.
    fn new(next: &'a EngineCore, touched: &'a [Point]) -> Self {
        Self {
            next,
            touched,
            locations: next.locations.of(&next.dataset),
            counts: CarryPassCounts::default(),
        }
    }

    /// R3 over every touched location of one slot: whether no influence
    /// window reaches `cutoff` (see [`window_reaches`]), stopping at the
    /// first that does.  The empty covering is the same in every window,
    /// so it is tested once, and reaches like the slot's first window.
    fn no_window_reaches(
        &mut self,
        aggregator: &CompositeAggregator,
        query: &AsrsQuery,
        cutoff: f64,
    ) -> bool {
        let next = self.next;
        let (empty_rep, empty_distance) = empty_candidate(aggregator, query);
        if empty_distance <= cutoff {
            self.counts.windows_bounded += 1;
            return false;
        }
        let probe = SlotProbe {
            aggregator,
            config: &next.config,
            query,
            view: self.locations.view(query.size),
            dataset: &next.dataset,
        };
        let mut buffers = WindowBuffers::new(aggregator);
        for &p in self.touched {
            let verdict = window_reaches(&probe, p, cutoff, &empty_rep, &mut buffers);
            if verdict.searched {
                self.counts.windows_searched += 1;
            } else {
                self.counts.windows_bounded += 1;
            }
            if verdict.reaches {
                return false;
            }
        }
        true
    }
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
    use crate::asp::tests::{
        assert_view_matches_fresh, index_missing_y, rects_intersecting, set_index, Seeded,
    };
    use crate::AsrsEngine;
    use asrs_aggregator::{FeatureVector, Weights};
    use asrs_data::gen::UniformGenerator;
    use asrs_data::{Mutation, SpatialObject};
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

    /// Brings a carry pass from `old` to `next` and checks that the publish
    /// patched the location index rather than rebuilding it, that the
    /// pass's index matches a fresh build, and every size's view a sort of
    /// every edge, bit for bit.
    fn pass(old: &EngineCore, next: &EngineCore, sizes: &[RegionSize]) {
        assert_ne!(old.generation, next.generation);
        let patched = next.locations.get().expect("the publish patched the index");
        assert!(patched.bits_eq(&LocationIndex::of(&next.dataset)));
        let probes = PassProbes::new(next, &[]);
        assert!(std::ptr::eq(probes.locations, patched));
        for &size in sizes {
            assert_view_matches_fresh(probes.locations, &next.dataset, size, 60);
        }
    }

    /// Runs `write` on `engine`, with the location index of the core
    /// before it built, and checks the pass after it against fresh builds.
    fn follow(engine: &AsrsEngine, write: impl FnOnce(&EngineCore)) {
        let old = engine.core();
        let sizes = sizes(&old);
        old.locations.of(&old.dataset);
        write(&old);
        pass(&old, &engine.core(), &sizes);
    }

    #[test]
    fn a_solo_removal_updates_contexts_bit_identically() {
        let engine = engine(400, 3);
        follow(&engine, |old| {
            engine.remove(old.dataset.object(57).id).unwrap();
        });
    }

    #[test]
    fn ttl_expiries_update_contexts_bit_identically() {
        let engine = engine(400, 5);
        let core = engine.core();
        // A sweep that expires the tail object.
        let expiring = interior(&core, 1_000_001, 0.41, 0.37);
        engine.append_with_ttl(expiring, Duration::ZERO).unwrap();
        follow(&engine, |_| {
            assert_eq!(engine.sweep_expired().unwrap().len(), 1);
        });
        // An expiry piggybacked on an application append.
        let expiring = interior(&core, 1_000_002, 0.62, 0.55);
        engine.append_with_ttl(expiring, Duration::ZERO).unwrap();
        follow(&engine, |_| {
            let receipt = engine
                .append(interior(&core, 1_000_003, 0.18, 0.83))
                .unwrap();
            assert_eq!(receipt.batch, 2, "the due expiry must ride along");
        });
        // A replayed expiry record of an interior object.
        follow(&engine, |old| {
            let id = old.dataset.object(90).id;
            engine.apply_mutations(&[Mutation::Expire { id }]).unwrap();
        });
    }

    #[test]
    fn a_mixed_batch_updates_contexts_bit_identically() {
        let engine = engine(400, 7);
        follow(&engine, |old| {
            let batch = [
                Mutation::Remove {
                    id: old.dataset.object(12).id,
                },
                Mutation::Append {
                    object: interior(old, 1_000_003, 0.3, 0.7),
                },
                Mutation::Remove {
                    id: old.dataset.object(250).id,
                },
                Mutation::Append {
                    object: interior(old, 1_000_004, 0.8, 0.2),
                },
            ];
            engine.apply_mutations(&batch).unwrap();
        });
    }

    #[test]
    fn removing_and_re_appending_one_id_updates_contexts_bit_identically() {
        let engine = engine(400, 11);
        follow(&engine, |old| {
            let mut moved = old.dataset.object(140).clone();
            moved.location = interior(old, moved.id, 0.55, 0.45).location;
            let batch = [
                Mutation::Remove { id: moved.id },
                Mutation::Append { object: moved },
            ];
            engine.apply_mutations(&batch).unwrap();
        });
    }

    #[test]
    fn an_index_missing_a_removed_y_is_rebuilt_not_patched() {
        let engine = engine(400, 3);
        let old = engine.core();
        // The generation's y array lacks the y of the object the batch
        // removes, as if an earlier patch had dropped it.
        set_index(&old.locations, index_missing_y(&old.dataset, 57));
        engine.remove(old.dataset.object(57).id).unwrap();
        let next = engine.core();
        assert!(next.locations.get().is_none(), "the index was patched");
        let probes = PassProbes::new(&next, &[]);
        assert!(probes.locations.bits_eq(&LocationIndex::of(&next.dataset)));
    }

    /// The exact windowMin the threshold test replaces, on a fresh instance
    /// of the whole dataset: the empty-covering distance against an
    /// unseeded branch-and-bound over the window.
    fn window_min(solver: &DsSearch<'_>, touched: Point) -> f64 {
        let (_, empty_distance) = solver.empty_candidate();
        let window = influence_window(touched, solver.query.size);
        let candidates = solver
            .table
            .contributing(rects_intersecting(solver.asp, &window));
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
        window_reaches(probe, touched, cutoff, &empty_rep, buffers)
    }

    #[test]
    fn the_threshold_test_agrees_with_the_exact_window_min() {
        let engine = engine(300, 13);
        let core = engine.core();
        let bbox = core.dataset.bounding_box().unwrap();
        let dim = core.aggregator.feature_dim();
        let size = RegionSize::new(bbox.width() * 0.12, bbox.height() * 0.1);
        let asp = AspInstance::build(&core.dataset, size);
        let table = Contributions::of(&core.dataset, &core.aggregator);
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
                view: locations.view(size),
                dataset: &core.dataset,
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
            .contributing(rects_intersecting(solver.asp, &window));
        let mut scratch = solver.scratch();
        let bound = solver.root_bound(&window, &candidates, &mut scratch);
        candidates.len() > PROBE_BUDGET
            || window_search(
                solver,
                window,
                bound,
                candidates,
                cutoff,
                empty_rep,
                &mut scratch,
            )
    }

    /// 40 seeded points in the interior of `area`.
    fn touched_points(area: Rect, seed: u64) -> Vec<Point> {
        let mut rng = Seeded(seed);
        (0..40)
            .map(|_| {
                Point::new(
                    area.min_x + area.width() * rng.interior(),
                    area.min_y + area.height() * rng.interior(),
                )
            })
            .collect()
    }

    /// Gate-then-search on window-local instances against search-only on a
    /// fresh instance of the whole `dataset`, over the windows of seeded
    /// points in `area`, at the cutoffs around each window's exact minimum
    /// and at the instance's best distance (what a cached answer's cutoff
    /// is).  Returns how many decisions the bound settled and how many
    /// searched.
    fn gate_agrees_with_search(
        dataset: &Dataset,
        aggregator: &CompositeAggregator,
        query: &AsrsQuery,
        area: Rect,
        seed: u64,
    ) -> (u64, u64) {
        let config = crate::SearchConfig::default();
        let asp = AspInstance::build(dataset, query.size);
        let table = Contributions::of(dataset, aggregator);
        let locations = LocationIndex::of(dataset);
        let solver = DsSearch::new(aggregator, &config, 0.0, &asp, &table, query, None);
        let probe = SlotProbe {
            aggregator,
            config: &config,
            query,
            view: locations.view(query.size),
            dataset,
        };
        let mut buffers = WindowBuffers::new(aggregator);
        let best = crate::executor::Executor::new(
            dataset,
            &Default::default(),
            aggregator,
            &config,
            crate::executor::Slabs::Whole,
        )
        .best(query, 0.0, None, &mut SearchStats::new())
        .unwrap()
        .distance;
        let (mut bounded, mut searched) = (0, 0);
        for touched in touched_points(area, seed) {
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
        // Two edges 1e-9 apart, far to the right of every probed window:
        // the size's accuracy is orders of magnitude below each window's.
        let far = bbox.max_x + 3.0 * size.width;
        let mut objects: Vec<_> = uniform.objects().cloned().collect();
        for (k, x) in [far, far + 1e-9].into_iter().enumerate() {
            let mut object = uniform.object(k).clone();
            object.id = 1_000_000 + k as u64;
            object.location = Point::new(x, bbox.center().y);
            objects.push(object);
        }
        let gapped = Dataset::new_unchecked(uniform.schema().clone(), objects);
        let whole = AspInstance::build(&gapped, size).accuracy();
        assert!(whole.dx < 1e-8, "{whole:?}");
        let locations = LocationIndex::of(&gapped);
        for touched in touched_points(bbox, 37) {
            let edges = locations
                .view(size)
                .edges_within(&influence_window(touched, size));
            let local = AspInstance::new(Vec::new(), size, edges).accuracy();
            assert!(local.dx > 1e3 * whole.dx, "{local:?} at {touched:?}");
        }
        for (case, dataset, aggregator, query) in [
            ("distribution", &uniform, &distribution, &query),
            ("float sum", &pois, &float_sum, &rating),
            ("maxrs", &uniform, &count, &maxrs),
            ("far gap", &gapped, &distribution, &query),
        ] {
            let area = if case == "far gap" {
                bbox
            } else {
                dataset.bounding_box().unwrap()
            };
            let (bounded, searched) = gate_agrees_with_search(dataset, aggregator, query, area, 37);
            assert!(
                bounded > 0 && searched > 0,
                "{case}: {bounded} / {searched}"
            );
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
        core.locations.of(&core.dataset);
        let mut rng = Seeded(23);
        // Definition 7's x accuracy of the whole instance over the patched
        // index.
        let min_x_gap = || {
            let core = engine.core();
            let view = core.locations.get().unwrap().view(sizes[0]);
            AspInstance::new(Vec::new(), sizes[0], view.edges())
                .accuracy()
                .dx
        };
        let mut passes = 0;
        let mut step_through = |old: &EngineCore| {
            let next = engine.core();
            assert!(rects_bit_equal(
                old.dataset.bounding_box(),
                next.dataset.bounding_box()
            ));
            pass(old, &next, &sizes);
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
                    step_through(&old);
                    let old = engine.core();
                    assert_eq!(engine.sweep_expired().unwrap().len(), 1);
                    step_through(&old);
                    continue;
                }
                _ => seeded_batch(&old, step, &mut rng),
            };
            engine.apply_mutations(&batch).unwrap();
            step_through(&old);
            match step {
                21 => assert!(min_x_gap() < 1e-8),
                22 => assert!(min_x_gap() > 1e-8),
                _ => {}
            }
        }
        assert!(passes > 60);
    }
}
