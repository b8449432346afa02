//! The one executor behind [`AsrsEngine::submit`](crate::AsrsEngine::submit).
//!
//! DS-Search (Algorithm 1) and GI-DS (Algorithm 2) are one discretize–split
//! kernel, [`DsSearch`], run over different sets of sub-spaces; the shard
//! scatter is a third such set.  The executor validates a request, builds
//! its ASP instance and contribution table once — the instance's edge
//! table and slab lookups come from a view of the generation's location
//! index, its accuracy from that table (see the `asp` module) — seeds the
//! empty region and runs the kernel over the sub-spaces its [`Slabs`] plan
//! names:
//!
//! * [`Slabs::Whole`] — the whole ASP space, one slab (DS-Search);
//! * [`Slabs::IndexCells`] — the index cells and the index margins
//!   best-first by their bounds until none can improve the result (GI-DS,
//!   see the `gi_ds` module);
//! * [`Slabs::Shards`] — the shards' anchor slabs (see the `shard`
//!   module).
//!
//! [`Slabs::Arrangement`] is the one plan without slabs: the [`NaiveSearch`]
//! oracle probes every arrangement cell, and the slab plans are tested
//! against it.  The kernel has one mode (see [`DsSearch`]), so every plan
//! gives an exact request the same outcome; only the statistics and the
//! reported backend tell them apart.  Single, approximate, top-k, batch
//! and MaxRS requests (the count reduction of the `maxrs` module) all run
//! through [`Executor::run`].

use crate::asp::{AspInstance, LazyLocations};
use crate::best::BestSet;
use crate::budget::Budget;
use crate::config::SearchConfig;
use crate::ds_search::DsSearch;
use crate::error::AsrsError;
use crate::grid_index::GridIndex;
use crate::maxrs::MaxRsResult;
use crate::naive::NaiveSearch;
use crate::query::AsrsQuery;
use crate::result::SearchResult;
use crate::shard::{parallel_map, ShardSet};
use crate::stats::SearchStats;
use asrs_aggregator::{CompositeAggregator, Selection};
use asrs_data::Dataset;
use asrs_geo::RegionSize;
use std::sync::Arc;
use std::time::Instant;

/// The sub-spaces an [`Executor`] runs the kernel over.
#[derive(Clone, Copy)]
pub(crate) enum Slabs<'a> {
    /// The whole ASP space as one slab.
    Whole,
    /// The index grid's cells and its margins, best-first.
    IndexCells(&'a GridIndex),
    /// The shards' anchor slabs.
    Shards(&'a ShardSet),
    /// No slabs: every arrangement cell, probed by the exhaustive oracle.
    Arrangement,
}

/// One request's executor: the instance's data and its location index,
/// the discretisation grid and the slab plan.
pub(crate) struct Executor<'a> {
    dataset: &'a Dataset,
    locations: &'a LazyLocations,
    aggregator: &'a CompositeAggregator,
    config: &'a SearchConfig,
    slabs: Slabs<'a>,
}

impl<'a> Executor<'a> {
    /// An executor over `slabs`; `locations` is `dataset`'s index, built
    /// by the first search that needs it.
    pub(crate) fn new(
        dataset: &'a Dataset,
        locations: &'a LazyLocations,
        aggregator: &'a CompositeAggregator,
        config: &'a SearchConfig,
        slabs: Slabs<'a>,
    ) -> Self {
        Self {
            dataset,
            locations,
            aggregator,
            config,
            slabs,
        }
    }

    /// Whether approximate requests are answered exactly (δ = 0): the oracle
    /// has no δ, and the scatter forces it to zero because relaxed pruning
    /// is trajectory-dependent (see the `shard` module).  The carry reads it.
    pub(crate) fn answers_exactly(&self) -> bool {
        matches!(self.slabs, Slabs::Shards(_) | Slabs::Arrangement)
    }

    /// The `k` best candidate regions with pairwise distinct anchors, best
    /// first; fewer when the instance has fewer distinct candidates.
    /// Pruning is relaxed for the (1+`delta`)-approximate problem unless
    /// the executor [answers exactly](Executor::answers_exactly).  The
    /// run's counters are added to `stats`.
    ///
    /// # Errors
    ///
    /// [`AsrsError::Query`] when the query does not match the aggregator,
    /// [`AsrsError::InvalidTopK`] when `k` is zero, and
    /// [`AsrsError::DeadlineExceeded`] once `budget` is spent (it is polled
    /// before and after the instance build, at every opened index cell and
    /// at every sub-space the kernel pops).
    pub(crate) fn run(
        &self,
        query: &AsrsQuery,
        k: usize,
        delta: f64,
        budget: Option<Budget>,
        stats: &mut SearchStats,
    ) -> Result<Vec<SearchResult>, AsrsError> {
        if let Slabs::Arrangement = self.slabs {
            return NaiveSearch::new(self.dataset, self.aggregator).search(query, k, budget, stats);
        }
        query.validate(self.aggregator)?;
        if k == 0 {
            return Err(AsrsError::InvalidTopK);
        }
        if let Some(b) = budget {
            b.check()?;
        }
        let started = Instant::now();
        let view = self.locations.of(self.dataset).view(query.size);
        let (asp, table) = AspInstance::with_contributions(self.dataset, self.aggregator, view);
        // The build (a generation's first search builds the location index
        // too) can outlast a small budget before the kernel's first poll.
        if let Some(b) = budget {
            b.check()?;
        }
        stats.rectangles += asp.rects().len() as u64;
        let delta = if self.answers_exactly() { 0.0 } else { delta };
        let solver = DsSearch::new(
            self.aggregator,
            self.config,
            delta,
            &asp,
            &table,
            query,
            budget.as_ref(),
        );
        let mut best = BestSet::new(k, Arc::clone(asp.edges()));
        solver.seed_empty_region(&mut best);
        match self.slabs {
            Slabs::Whole => {
                if let Some(space) = asp.space() {
                    let candidates = table.contributing(asp.all_rect_indices());
                    let mut scratch = solver.scratch();
                    solver.search_space(space, candidates, &mut best, stats, &mut scratch)?;
                }
            }
            Slabs::IndexCells(index) => {
                crate::gi_ds::search_index_cells(&solver, view, index, &mut best, stats)?
            }
            Slabs::Shards(shards) => {
                crate::shard::scatter(&solver, view, shards, &mut best, stats)?
            }
            // Answered by the oracle above.
            Slabs::Arrangement => {}
        }
        stats.elapsed += started.elapsed();
        Ok(crate::best::best_to_results(best, query.size, stats))
    }

    /// The single best region (see [`Executor::run`]).
    pub(crate) fn best(
        &self,
        query: &AsrsQuery,
        delta: f64,
        budget: Option<Budget>,
        stats: &mut SearchStats,
    ) -> Result<SearchResult, AsrsError> {
        self.run(query, 1, delta, budget, stats)?
            .into_iter()
            .next()
            .ok_or_else(crate::best::no_finite_candidate)
    }

    /// The MaxRS answer for regions of `size` over the objects satisfying
    /// `selection`: the count reduction (see the `maxrs` module) run
    /// through this executor's slabs.  MaxRS promises the true maximum, so
    /// the search always runs exact.
    ///
    /// GI-DS ranks index cells by statistics of the reduction's count
    /// aggregator, which the engine's index does not hold, so over
    /// [`Slabs::IndexCells`] the reduction runs over a count summary built
    /// here on the same grid ([`GridIndex::build`] at the index's
    /// granularity, `O(n)`; it lives for this request only).
    pub(crate) fn max_rs(
        &self,
        size: RegionSize,
        selection: &Selection,
        budget: Option<Budget>,
        stats: &mut SearchStats,
    ) -> Result<MaxRsResult, AsrsError> {
        let (aggregator, query) = crate::maxrs::reduction(self.dataset, size, selection)?;
        let summary = match self.slabs {
            Slabs::IndexCells(index) => {
                let (cols, rows) = index.granularity();
                Some(GridIndex::build(self.dataset, &aggregator, cols, rows)?)
            }
            _ => None,
        };
        let reduced = Executor {
            aggregator: &aggregator,
            slabs: summary.as_ref().map_or(self.slabs, Slabs::IndexCells),
            ..*self
        };
        Ok(crate::maxrs::result_from_search(
            reduced.best(&query, 0.0, budget, stats)?,
        ))
    }

    /// Answers every query of a batch exactly, in input order; `stats`
    /// gains the [`SearchStats::merge`] of the queries' runs, in input
    /// order.
    ///
    /// The batch is all-or-nothing: a malformed query fails it before any
    /// search runs, and otherwise the error of the first failing query, in
    /// input order, is the batch's.  The queries run on up to one worker
    /// per available core — one worker for a shard scatter, which already
    /// fans out across the slabs.  Each query owns a fixed result slot and
    /// is solved by exactly one worker running the deterministic search,
    /// so results keep input order and tie-breaks whatever the thread
    /// schedule.  A panic inside a search is caught at the slot boundary
    /// and becomes that query's [`AsrsError::Internal`]: a serving engine
    /// must outlive a single pathological query, so a panic never aborts
    /// the process.
    pub(crate) fn batch(
        &self,
        queries: &[AsrsQuery],
        budget: Option<Budget>,
        stats: &mut SearchStats,
    ) -> Result<Vec<SearchResult>, AsrsError> {
        for query in queries {
            query.validate(self.aggregator)?;
        }
        // Built once before the workers start, rather than by each of them.
        self.locations.of(self.dataset);
        let workers = match self.slabs {
            Slabs::Shards(_) => 1,
            _ => std::thread::available_parallelism().map_or(1, |n| n.get()),
        };
        let runs = parallel_map(queries.len(), workers, |i| {
            let query = &queries[i];
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                #[cfg(test)]
                test_hooks::maybe_panic(query);
                let mut run = SearchStats::new();
                self.best(query, 0.0, budget, &mut run)
                    .map(|result| (result, run))
            }))
            .unwrap_or_else(|payload| {
                Err(AsrsError::Internal {
                    message: format!(
                        "search worker panicked: {}",
                        panic_message(payload.as_ref())
                    ),
                })
            })
        });
        let mut results = Vec::with_capacity(runs.len());
        for answer in runs {
            let (result, run) = answer?;
            stats.merge(&run);
            results.push(result);
        }
        Ok(results)
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.as_str()
    } else {
        "non-string panic payload"
    }
}

#[cfg(test)]
pub(crate) mod test_hooks {
    //! Deterministic failure injection for the batch-panic regression
    //! tests: no global state, so parallel tests cannot interfere.

    use crate::query::AsrsQuery;

    /// Sentinel width that makes a batch slot panic.  Avogadro's number —
    /// a value no legitimate test query uses.
    pub(crate) const PANIC_INJECTION_WIDTH: f64 = 6.022_140_76e23;

    pub(crate) fn maybe_panic(query: &AsrsQuery) {
        if query.size.width == PANIC_INJECTION_WIDTH {
            panic!("injected batch panic (test hook)");
        }
    }
}
