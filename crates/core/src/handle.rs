//! [`EngineHandle`]: cheap, cloneable, thread-safe access to an engine.

use crate::cache::CacheStats;
use crate::engine::{EngineCore, EngineShared};
use crate::error::AsrsError;
use crate::mutate::{MutationReceipt, MutationStats};
use crate::planner::{EngineStatistics, ExecutionPlan};
use crate::query::AsrsQuery;
use crate::request::{QueryRequest, QueryResponse};
use asrs_aggregator::CompositeAggregator;
use asrs_data::{Dataset, MutationLog, SpatialObject};
use asrs_geo::Rect;
use std::sync::Arc;
use std::time::Duration;

/// A cheap `Clone + Send + Sync` handle to an [`AsrsEngine`](crate::AsrsEngine).
///
/// The handle shares the engine's generational state behind an [`Arc`], so
/// cloning costs one reference-count increment and every clone can
/// [`submit`](EngineHandle::submit) — and mutate, via
/// [`append`](EngineHandle::append) / [`remove`](EngineHandle::remove) —
/// concurrently from its own thread.  Queries snapshot the generation
/// current at submission and are never disturbed by concurrent mutations;
/// mutations serialize among themselves on `engine.mutator` (the handle
/// itself takes no locks — every acquisition it triggers is listed in
/// `crates/interlock/LOCK_ORDER.md`, and the protocol is exhaustively
/// schedule-checked by `cargo test -p asrs-core --features model`).
/// This is the serving topology the ROADMAP's multi-user north star
/// needs:
///
/// ```
/// use asrs_core::{AsrsEngine, QueryRequest};
/// use asrs_aggregator::{CompositeAggregator, Selection};
/// use asrs_data::gen::UniformGenerator;
/// use asrs_geo::Rect;
///
/// let dataset = UniformGenerator::default().generate(300, 7);
/// let aggregator = CompositeAggregator::builder(dataset.schema())
///     .distribution("category", Selection::All)
///     .build()
///     .unwrap();
/// let engine = AsrsEngine::builder(dataset, aggregator)
///     .build_index(16, 16)
///     .build()
///     .unwrap();
///
/// let handle = engine.handle();
/// let query = handle
///     .query_from_example(&Rect::new(10.0, 10.0, 25.0, 25.0))
///     .unwrap();
/// let workers: Vec<_> = (0..4)
///     .map(|_| {
///         let handle = handle.clone();
///         let query = query.clone();
///         std::thread::spawn(move || {
///             handle.submit(&QueryRequest::similar(query)).unwrap()
///         })
///     })
///     .collect();
/// for worker in workers {
///     let response = worker.join().unwrap();
///     assert!(response.best().unwrap().distance <= 1e-9);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct EngineHandle {
    shared: Arc<EngineShared>,
}

impl EngineHandle {
    pub(crate) fn new(shared: Arc<EngineShared>) -> Self {
        Self { shared }
    }

    /// Snapshots the current generation's core.
    fn core(&self) -> Arc<EngineCore> {
        self.shared.load()
    }

    /// Plans and executes a declarative [`QueryRequest`] (see
    /// [`AsrsEngine::submit`](crate::AsrsEngine::submit)).
    pub fn submit(&self, request: &QueryRequest) -> Result<QueryResponse, AsrsError> {
        self.core().submit(request)
    }

    /// Plans `request` without executing it (see
    /// [`AsrsEngine::plan`](crate::AsrsEngine::plan)).
    pub fn plan(&self, request: &QueryRequest) -> Result<ExecutionPlan, AsrsError> {
        self.core().plan(request)
    }

    /// The current generation number (see
    /// [`AsrsEngine::generation`](crate::AsrsEngine::generation)).
    pub fn generation(&self) -> u64 {
        self.core().generation
    }

    /// Appends an object, producing a new generation (see
    /// [`AsrsEngine::append`](crate::AsrsEngine::append)).
    pub fn append(&self, object: SpatialObject) -> Result<MutationReceipt, AsrsError> {
        crate::mutate::append(&self.shared, object, None)
    }

    /// Appends an object that expires after `ttl` (see
    /// [`AsrsEngine::append_with_ttl`](crate::AsrsEngine::append_with_ttl)).
    pub fn append_with_ttl(
        &self,
        object: SpatialObject,
        ttl: Duration,
    ) -> Result<MutationReceipt, AsrsError> {
        crate::mutate::append(&self.shared, object, Some(ttl))
    }

    /// Removes the object with id `id` (see
    /// [`AsrsEngine::remove`](crate::AsrsEngine::remove)).
    pub fn remove(&self, id: u64) -> Result<MutationReceipt, AsrsError> {
        crate::mutate::remove(&self.shared, id)
    }

    /// Appends a whole payload as one atomic commit — one generation, one
    /// WAL fsync, one receipt per object (see
    /// [`AsrsEngine::append_batch`](crate::AsrsEngine::append_batch)).
    pub fn append_batch(
        &self,
        items: Vec<(SpatialObject, Option<Duration>)>,
    ) -> Result<Vec<MutationReceipt>, AsrsError> {
        crate::mutate::append_batch(&self.shared, items)
    }

    /// Expires every TTL'd object whose deadline has passed (see
    /// [`AsrsEngine::sweep_expired`](crate::AsrsEngine::sweep_expired)).
    pub fn sweep_expired(&self) -> Result<Vec<MutationReceipt>, AsrsError> {
        crate::mutate::sweep_expired(&self.shared)
    }

    /// A snapshot of the bounded mutation log.
    pub fn mutation_log(&self) -> MutationLog {
        crate::mutate::log_snapshot(&self.shared)
    }

    /// Mutation counters for observability (served by `/metrics`).
    pub fn mutation_stats(&self) -> MutationStats {
        crate::mutate::stats_snapshot(&self.shared)
    }

    /// Counters of the shared query-result cache, or `None` when the
    /// engine was built without one (see
    /// [`EngineBuilder::cache_capacity`](crate::EngineBuilder::cache_capacity)).
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.core().cache_stats()
    }

    /// Runs the deep invariant audit over the current generation (see
    /// [`AsrsEngine::audit`](crate::AsrsEngine::audit)).  The server's
    /// `GET /audit` endpoint serves this report.
    pub fn audit(&self) -> crate::AuditReport {
        crate::audit::audit_shared(&self.shared)
    }

    /// The current generation's dataset (the returned [`Arc`] pins that
    /// generation's snapshot).
    pub fn dataset(&self) -> Arc<Dataset> {
        Arc::clone(&self.core().dataset)
    }

    /// The shared composite aggregator.
    pub fn aggregator(&self) -> Arc<CompositeAggregator> {
        Arc::clone(&self.core().aggregator)
    }

    /// The current generation's dataset/index statistics.
    pub fn statistics(&self) -> EngineStatistics {
        self.core().statistics.clone()
    }

    /// Number of shards of a sharded engine, `0` for a single engine.
    pub fn shard_count(&self) -> usize {
        self.core().shards.as_ref().map_or(0, |s| s.len())
    }

    /// Per-shard scattered-execution counts, in shard order (`None` for a
    /// single engine).  The server's `/metrics` endpoint serves these.
    pub fn shard_request_counts(&self) -> Option<Vec<u64>> {
        self.core().shards.as_ref().map(|s| s.request_counts())
    }

    /// Captures a point-in-time [`EngineState`](crate::EngineState) of the
    /// current generation (see
    /// [`AsrsEngine::export_state`](crate::AsrsEngine::export_state)) —
    /// a handful of `Arc` clones, so background snapshotting never stalls
    /// the serving path.
    pub fn export_state(&self) -> crate::EngineState {
        crate::engine::export_state(&self.shared)
    }

    /// Builds a query-by-example from a real region of the current
    /// generation's dataset.
    pub fn query_from_example(&self, example: &Rect) -> Result<AsrsQuery, AsrsError> {
        let core = self.core();
        Ok(AsrsQuery::from_example_region(
            &core.dataset,
            &core.aggregator,
            example,
        )?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::AsrsEngine;
    use crate::request::QueryOutcome;
    use asrs_aggregator::Selection;
    use asrs_data::gen::UniformGenerator;

    fn engine() -> AsrsEngine {
        let ds = UniformGenerator::default().generate(250, 9);
        let agg = CompositeAggregator::builder(ds.schema())
            .distribution("category", Selection::All)
            .build()
            .unwrap();
        AsrsEngine::builder(ds, agg)
            .build_index(16, 16)
            .build()
            .unwrap()
    }

    #[test]
    fn handle_is_cheap_to_clone_and_thread_safe() {
        fn assert_handle_bounds<T: Clone + Send + Sync + 'static>() {}
        assert_handle_bounds::<EngineHandle>();

        let engine = engine();
        let handle = engine.handle();
        let query = handle
            .query_from_example(&Rect::new(5.0, 5.0, 20.0, 20.0))
            .unwrap();
        let results: Vec<_> = std::thread::scope(|scope| {
            (0..8)
                .map(|_| {
                    let handle = handle.clone();
                    let query = query.clone();
                    scope.spawn(move || handle.submit(&QueryRequest::similar(query)).unwrap())
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|j| j.join().unwrap())
                .collect()
        });
        // Concurrent submissions over the shared core agree exactly.
        for response in &results {
            assert_eq!(response.backend, results[0].backend);
            match (&response.outcome, &results[0].outcome) {
                (QueryOutcome::Best(a), QueryOutcome::Best(b)) => {
                    assert_eq!(a.anchor, b.anchor);
                    assert_eq!(a.distance, b.distance);
                }
                _ => panic!("similar requests produce Best outcomes"),
            }
        }
    }

    #[test]
    fn handle_outlives_the_engine() {
        let handle = engine().handle();
        // The engine was dropped above; the Arc keeps the shared state
        // alive.
        assert_eq!(handle.dataset().len(), 250);
        assert!(handle.statistics().index.is_some());
        let query = handle
            .query_from_example(&Rect::new(0.0, 0.0, 10.0, 10.0))
            .unwrap();
        assert!(handle.submit(&QueryRequest::similar(query)).is_ok());
    }

    #[test]
    fn mutations_through_a_handle_are_visible_to_every_clone() {
        let engine = engine();
        let writer = engine.handle();
        let reader = engine.handle();
        assert_eq!(reader.generation(), 0);
        let id = writer.dataset().next_id();
        let template = writer.dataset().object(0).clone();
        let receipt = writer
            .append(asrs_data::SpatialObject::new(
                id,
                asrs_geo::Point::new(50.0, 50.0),
                template.values.clone(),
            ))
            .unwrap();
        assert_eq!(receipt.generation, 1);
        assert_eq!(reader.generation(), 1, "clones see the new generation");
        assert_eq!(engine.generation(), 1, "the engine facade does too");
        assert_eq!(reader.dataset().len(), 251);
        assert!(reader.mutation_stats().appends == 1);
    }
}
