//! The one executor behind [`AsrsEngine::submit`](crate::AsrsEngine::submit).
//!
//! DS-Search (Algorithm 1) and GI-DS (Algorithm 2) are one discretize–split
//! kernel, [`DsSearch`], run over different sets of sub-spaces; the shard
//! scatter is a third such set.  The executor validates a request, builds
//! its ASP instance and contribution table once, seeds the empty region and
//! runs the kernel over the sub-spaces its [`Slabs`] plan names:
//!
//! * [`Slabs::Whole`] — the whole ASP space, one slab (DS-Search, and MaxRS
//!   on an unsharded engine);
//! * [`Slabs::IndexCells`] — the index margins, then the index cells
//!   best-first by their Section 5.3 bound until none can improve the
//!   result (GI-DS, see the `gi_ds` module);
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

use crate::asp::AspInstance;
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
    /// The margins outside the index grid, then its cells best-first.
    IndexCells(&'a GridIndex),
    /// The shards' anchor slabs.
    Shards(&'a ShardSet),
    /// No slabs: every arrangement cell, probed by the exhaustive oracle.
    Arrangement,
}

/// One request's executor: the instance's data, the discretisation grid
/// and the slab plan.
pub(crate) struct Executor<'a> {
    dataset: &'a Dataset,
    aggregator: &'a CompositeAggregator,
    config: &'a SearchConfig,
    slabs: Slabs<'a>,
}

impl<'a> Executor<'a> {
    /// An executor over `slabs`.
    pub(crate) fn new(
        dataset: &'a Dataset,
        aggregator: &'a CompositeAggregator,
        config: &'a SearchConfig,
        slabs: Slabs<'a>,
    ) -> Self {
        Self {
            dataset,
            aggregator,
            config,
            slabs,
        }
    }

    /// The `k` best candidate regions with pairwise distinct anchors, best
    /// first; fewer when the instance has fewer distinct candidates.
    /// Pruning is relaxed for the (1+`delta`)-approximate problem, except
    /// on a shard scatter, which answers exactly: relaxed pruning is
    /// trajectory-dependent, so δ is forced to zero there (see the `shard`
    /// module).
    ///
    /// # Errors
    ///
    /// [`AsrsError::Query`] when the query does not match the aggregator,
    /// [`AsrsError::InvalidTopK`] when `k` is zero, and
    /// [`AsrsError::DeadlineExceeded`] once `budget` is spent (it is polled
    /// at every opened index cell and every sub-space the kernel pops).
    pub(crate) fn run(
        &self,
        query: &AsrsQuery,
        k: usize,
        delta: f64,
        budget: Option<Budget>,
    ) -> Result<Vec<SearchResult>, AsrsError> {
        query.validate(self.aggregator)?;
        if k == 0 {
            return Err(AsrsError::InvalidTopK);
        }
        if let Some(b) = budget {
            b.check()?;
        }
        if let Slabs::Arrangement = self.slabs {
            return NaiveSearch::new(self.dataset, self.aggregator)
                .search_top_k_within(query, k, budget);
        }
        let started = Instant::now();
        let (asp, table) =
            AspInstance::with_contributions(self.dataset, self.aggregator, query.size);
        let mut stats = SearchStats {
            rectangles: asp.rects().len() as u64,
            ..SearchStats::default()
        };
        let delta = match self.slabs {
            Slabs::Shards(_) => 0.0,
            _ => delta,
        };
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
                    solver.search_space(space, candidates, &mut best, &mut stats, &mut scratch)?;
                }
            }
            Slabs::IndexCells(index) => {
                crate::gi_ds::search_index_cells(&solver, index, &mut best, &mut stats)?
            }
            Slabs::Shards(shards) => crate::shard::scatter(&solver, shards, &mut best, &mut stats)?,
            // Answered by the oracle above.
            Slabs::Arrangement => {}
        }
        stats.elapsed = started.elapsed();
        Ok(crate::best::best_to_results(best, query.size, stats))
    }

    /// The single best region (see [`Executor::run`]).
    pub(crate) fn best(
        &self,
        query: &AsrsQuery,
        delta: f64,
        budget: Option<Budget>,
    ) -> Result<SearchResult, AsrsError> {
        self.run(query, 1, delta, budget)?
            .into_iter()
            .next()
            .ok_or_else(crate::best::no_finite_candidate)
    }

    /// The MaxRS answer for regions of `size` over the objects satisfying
    /// `selection`: the count reduction (see the `maxrs` module) run
    /// through this executor's slabs.  MaxRS promises the true maximum, so
    /// the search always runs exact.
    pub(crate) fn max_rs(
        &self,
        size: RegionSize,
        selection: &Selection,
        budget: Option<Budget>,
    ) -> Result<MaxRsResult, AsrsError> {
        let (aggregator, query) = crate::maxrs::reduction(self.dataset, size, selection)?;
        let reduced = Executor {
            aggregator: &aggregator,
            ..*self
        };
        Ok(crate::maxrs::result_from_search(
            reduced.best(&query, 0.0, budget)?,
        ))
    }

    /// Answers every query of a batch exactly, one `Result` per query in
    /// input order.
    ///
    /// Validation is all-or-nothing: a malformed query fails the whole
    /// batch (the outer `Result`) before any search runs.  The queries then
    /// run on up to one worker per available core — one worker for a shard
    /// scatter, which already fans out across the slabs.  Each query owns a
    /// fixed result slot and is solved by exactly one worker running the
    /// deterministic search, so results keep input order and tie-breaks
    /// whatever the thread schedule.  A panic inside a search is caught at
    /// the slot boundary and recorded as [`AsrsError::Internal`] for that
    /// query only: a serving engine must outlive a single pathological
    /// query, so a panic never aborts the process or poisons sibling slots.
    pub(crate) fn batch(
        &self,
        queries: &[AsrsQuery],
        budget: Option<Budget>,
    ) -> Result<Vec<Result<SearchResult, AsrsError>>, AsrsError> {
        for query in queries {
            query.validate(self.aggregator)?;
        }
        let workers = match self.slabs {
            Slabs::Shards(_) => 1,
            _ => std::thread::available_parallelism().map_or(1, |n| n.get()),
        };
        Ok(parallel_map(queries.len(), workers, |i| {
            let query = &queries[i];
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                #[cfg(test)]
                test_hooks::maybe_panic(query);
                self.best(query, 0.0, budget)
            }))
            .unwrap_or_else(|payload| {
                Err(AsrsError::Internal {
                    message: format!(
                        "search worker panicked: {}",
                        panic_message(payload.as_ref())
                    ),
                })
            })
        }))
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
