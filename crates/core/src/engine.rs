//! The [`AsrsEngine`]: one entry point, [`AsrsEngine::submit`], over every
//! search backend.
//!
//! The engine is the public search surface
//! ([`NaiveSearch`](crate::NaiveSearch) stays public as the reference
//! oracle):
//!
//! * an [`EngineBuilder`] owns the dataset and aggregator, optionally
//!   builds or attaches a [`GridIndex`], and validates everything once,
//! * requests are declarative [`QueryRequest`] values; the engine's
//!   [`Planner`] picks the backend per request from dataset/index
//!   statistics (a request-level [`QueryRequest::with_backend`] override
//!   pins it), and [`AsrsEngine::submit`] executes the plan into a
//!   [`QueryResponse`],
//! * the engine is a cheap `Clone + Send + Sync` value over its
//!   `Arc`-shared generational state, so clones submit and mutate
//!   concurrently, and every request can carry a wall-clock budget
//!   enforced down the discretize–split recursion,
//! * every query is validated once at the engine boundary and every
//!   fallible method returns `Result<_, AsrsError>` — nothing panics on
//!   bad input.
//!
//! ```
//! use asrs_core::{AsrsEngine, QueryRequest};
//! use asrs_aggregator::{CompositeAggregator, Selection};
//! use asrs_data::gen::UniformGenerator;
//! use asrs_geo::Rect;
//!
//! let dataset = UniformGenerator::default().generate(500, 42);
//! let aggregator = CompositeAggregator::builder(dataset.schema())
//!     .distribution("category", Selection::All)
//!     .build()
//!     .unwrap();
//! let engine = AsrsEngine::builder(dataset, aggregator)
//!     .build_index(32, 32)
//!     .build()
//!     .unwrap();
//!
//! let example = Rect::new(10.0, 10.0, 25.0, 25.0);
//! let query = engine.query_from_example(&example).unwrap();
//! let response = engine
//!     .submit(&QueryRequest::similar(query).with_budget_ms(10_000))
//!     .unwrap();
//! assert!(response.best().unwrap().distance <= 1e-9);
//! ```

use crate::budget::Budget;
use crate::cache::{CacheStats, QueryCache};
use crate::config::SearchConfig;
use crate::error::AsrsError;
use crate::executor::{Executor, Slabs};
use crate::grid_index::GridIndex;
use crate::mutate::{MutationReceipt, MutationState, MutationStats};
use crate::planner::{EngineStatistics, ExecutionPlan, IndexStatistics, Planner};
use crate::query::AsrsQuery;
use crate::request::{Backend, QueryOutcome, QueryRequest, QueryResponse};
use crate::shard::ShardSet;
use crate::sync::{Mutex, RwLock};
use asrs_aggregator::{CompositeAggregator, Selection};
use asrs_data::{Dataset, Mutation, SpatialObject};
use asrs_geo::Rect;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// How the builder should obtain a grid index.
#[derive(Debug)]
enum IndexSpec {
    None,
    Build { cols: usize, rows: usize },
    Attach(GridIndex),
}

/// How a built engine maintains its index under mutation — recorded at
/// build time so every generation knows what to refresh and at which
/// granularity (see the [`mutate`](crate::mutate) module).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum IndexUpkeep {
    /// No index to maintain.
    None,
    /// One whole-dataset index on the engine core: unsharded engines, and
    /// sharded engines serving statistics from an attached index.
    PerEngine {
        /// Rebuild granularity: columns.
        cols: usize,
        /// Rebuild granularity: rows.
        rows: usize,
    },
    /// No index at all: a sharded engine that requested an index build
    /// plans from the statistics a `cols × rows` whole-dataset index
    /// *would* have ([`IndexStatistics::virtual_for`]), recaptured per
    /// generation.  The scatter searches the full instance and never reads
    /// an index, so building one would change no answer.
    Virtual {
        /// Virtual granularity: columns.
        cols: usize,
        /// Virtual granularity: rows.
        rows: usize,
    },
}

/// The planner statistics of a core over `dataset` — the one capture path
/// the builders, the mutation publisher and the auditor share, so mutated,
/// restored and fresh engines plan identically.
pub(crate) fn capture_statistics(
    dataset: &Dataset,
    index: Option<&GridIndex>,
    upkeep: IndexUpkeep,
    shards: Option<&ShardSet>,
) -> Result<EngineStatistics, AsrsError> {
    let mut statistics = EngineStatistics::capture(dataset, index);
    if let IndexUpkeep::Virtual { cols, rows } = upkeep {
        statistics.index = if dataset.is_empty() {
            None
        } else {
            Some(IndexStatistics::virtual_for(dataset, cols, rows)?)
        };
    }
    statistics.shards = shards.map(ShardSet::fan_out);
    Ok(statistics)
}

/// Builder for [`AsrsEngine`].  All validation happens in
/// [`EngineBuilder::build`]; none of the setters can panic.
#[derive(Debug)]
pub struct EngineBuilder {
    dataset: Arc<Dataset>,
    aggregator: CompositeAggregator,
    config: SearchConfig,
    index: IndexSpec,
    planner: Planner,
    cache_capacity: usize,
    shards: usize,
}

impl EngineBuilder {
    fn new(dataset: Dataset, aggregator: CompositeAggregator) -> Self {
        Self {
            dataset: Arc::new(dataset),
            aggregator,
            config: SearchConfig::default(),
            index: IndexSpec::None,
            planner: Planner::default(),
            cache_capacity: 0,
            shards: 0,
        }
    }

    /// Shards the engine: the plane around the dataset is partitioned
    /// into `n` disjoint regions (longest-axis recursive splits at
    /// object-count medians, outer edges unbounded, see
    /// [`SpatialPartition`](asrs_data::SpatialPartition)).  A shard is its
    /// region and the count of objects it owns — there is no per-shard
    /// dataset or index; with [`EngineBuilder::build_index`] the planner
    /// reads the statistics a whole-dataset index would have, and no index
    /// is built.  Requests are scattered across the shards' anchor slabs of
    /// the full instance and gathered with the engine's deterministic
    /// tie-break; the gathered outcome is byte-identical for every shard
    /// count and to the unsharded engine's, statistics excepted (the
    /// internal `shard` module documents the exactness and determinism
    /// argument; the comparison form is
    /// [`QueryResponse::stats_stripped`](crate::QueryResponse::stats_stripped)).
    /// Approximate requests are the exception: the scatter answers them
    /// exactly, the unsharded engine within the (1+δ) band.  A request
    /// planned or pinned to [`Backend::Naive`] (the planner picks it for
    /// datasets of at most 16 objects) runs the oracle, not the scatter.
    /// The regions are fixed for the engine's lifetime: every point of the
    /// plane routes to exactly one of them, so mutations never re-partition.
    ///
    /// `0` (the default) disables sharding entirely — the classic
    /// single-core engine.  Note that `shards(1)` is *not* the same as
    /// `0`: it runs the shard scatter with a single shard, which is the
    /// parity baseline the other counts are byte-compared against; only
    /// sharded engines carry cache entries across mutations.
    pub fn shards(mut self, n: usize) -> Self {
        self.shards = n;
        self
    }

    /// Attaches a query-result cache retaining up to `capacity` responses
    /// (see [`QueryCache`](crate::QueryCache)); `0` (the default) disables
    /// caching.
    ///
    /// With a cache, [`AsrsEngine::submit`] memoises successful responses
    /// by the request's canonical key
    /// ([`QueryRequest::cache_key`](crate::QueryRequest::cache_key)): a hit
    /// returns the stored response verbatim — byte-identical to the cold
    /// computation, statistics included.  Errors are never cached.
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Admission control: rejects any request whose planned backend's cost
    /// estimate exceeds `ceiling` (abstract rectangle-visit units, see
    /// [`CostEstimate`](crate::CostEstimate)) with
    /// [`AsrsError::CostCeilingExceeded`] *before* execution, so one
    /// extent-spanning query cannot starve the worker pool.  Shorthand for
    /// setting [`Planner::cost_ceiling`].
    pub fn cost_ceiling(mut self, ceiling: f64) -> Self {
        self.planner.cost_ceiling = Some(ceiling);
        self
    }

    /// Replaces the discretisation grid (validated in
    /// [`EngineBuilder::build`]).
    pub fn config(mut self, config: SearchConfig) -> Self {
        self.config = config;
        self
    }

    /// Builds a `cols × rows` grid index over the dataset during
    /// [`EngineBuilder::build`].
    pub fn build_index(mut self, cols: usize, rows: usize) -> Self {
        self.index = IndexSpec::Build { cols, rows };
        self
    }

    /// Attaches a pre-built grid index.  Its statistics layout must match
    /// the engine's aggregator (checked in [`EngineBuilder::build`]).
    pub fn index(mut self, index: GridIndex) -> Self {
        self.index = IndexSpec::Attach(index);
        self
    }

    /// Validates the configuration, builds or checks the index, and
    /// assembles the engine.
    ///
    /// # Errors
    ///
    /// * [`AsrsError::Config`] for an invalid [`SearchConfig`] or index
    ///   granularity,
    /// * [`AsrsError::EmptyDataset`] when an index was requested for an
    ///   empty dataset,
    /// * [`AsrsError::IndexMismatch`] when an attached index was built for
    ///   an aggregator with a different statistics layout,
    /// * [`AsrsError::NonFiniteLocation`] when a seed object's location is
    ///   NaN or infinite.
    pub fn build(mut self) -> Result<AsrsEngine, AsrsError> {
        self.config.validate()?;
        for object in self.dataset.objects() {
            crate::mutate::check_location(object)?;
        }
        let upkeep = self.upkeep();
        let index = match std::mem::replace(&mut self.index, IndexSpec::None) {
            IndexSpec::None => None,
            // A sharded engine builds no index (see `IndexUpkeep::Virtual`);
            // its virtual statistics refuse exactly the inputs a build
            // would.
            IndexSpec::Build { cols, rows } if self.shards > 0 => {
                IndexStatistics::virtual_for(&self.dataset, cols, rows)?;
                None
            }
            IndexSpec::Build { cols, rows } => Some(GridIndex::build(
                &self.dataset,
                &self.aggregator,
                cols,
                rows,
            )?),
            IndexSpec::Attach(index) => {
                self.check_stats_dim(&index)?;
                Some(index)
            }
        };
        let dataset = Arc::clone(&self.dataset);
        self.assemble(0, dataset, index.map(Arc::new), upkeep)
    }

    /// The index upkeep the builder's settings ask for.
    fn upkeep(&self) -> IndexUpkeep {
        match &self.index {
            IndexSpec::None => IndexUpkeep::None,
            IndexSpec::Build { cols, rows } if self.shards > 0 => IndexUpkeep::Virtual {
                cols: *cols,
                rows: *rows,
            },
            IndexSpec::Build { cols, rows } => IndexUpkeep::PerEngine {
                cols: *cols,
                rows: *rows,
            },
            IndexSpec::Attach(index) => {
                let (cols, rows) = index.granularity();
                IndexUpkeep::PerEngine { cols, rows }
            }
        }
    }

    fn check_stats_dim(&self, index: &GridIndex) -> Result<(), AsrsError> {
        if index.stats_dim() != self.aggregator.stats_dim() {
            return Err(AsrsError::IndexMismatch {
                index_dims: index.stats_dim(),
                aggregator_dims: self.aggregator.stats_dim(),
            });
        }
        Ok(())
    }

    /// Assembles generation `generation` over `dataset` and its (built,
    /// attached or restored) `index`: partitions a sharded engine,
    /// captures the planner statistics and attaches the cache.  Shared by
    /// [`EngineBuilder::build`] and [`EngineBuilder::build_restored`].
    fn assemble(
        self,
        generation: u64,
        dataset: Arc<Dataset>,
        index: Option<Arc<GridIndex>>,
        upkeep: IndexUpkeep,
    ) -> Result<AsrsEngine, AsrsError> {
        let shards = (self.shards > 0).then(|| ShardSet::build(&dataset, self.shards));
        let statistics = capture_statistics(&dataset, index.as_deref(), upkeep, shards.as_ref())?;
        let cache =
            (self.cache_capacity > 0).then(|| Arc::new(QueryCache::new(self.cache_capacity)));
        Ok(AsrsEngine::from_core(EngineCore {
            generation,
            dataset,
            aggregator: Arc::new(self.aggregator),
            config: self.config,
            index,
            upkeep,
            planner: self.planner,
            statistics,
            cache,
            shards,
        }))
    }

    /// Reassembles an engine from a persisted [`EngineState`] instead of
    /// building from the seed dataset — no index build.
    ///
    /// The builder's *settings* (aggregator, discretisation grid, cost
    /// ceiling, cache capacity, shard count, index granularity) still
    /// apply; its seed dataset is ignored in favour of
    /// `state`.  The restored engine is byte-identical in responses to the
    /// engine the state was exported from: the dataset keeps its object
    /// order, the index table is carried over verbatim (or, for an image
    /// without one, built at the builder's granularity), and planner
    /// statistics are recaptured by the code path
    /// [`EngineBuilder::build`] and the mutation publisher run.  A sharded
    /// builder partitions the restored dataset afresh — shard layout never
    /// affects answers, so the image may come from any shard count.
    ///
    /// # Errors
    ///
    /// [`AsrsError::Persistence`] when `state` does not fit the builder's
    /// settings (an index-granularity mismatch, an index whose statistics
    /// layout disagrees with the aggregator, an attached-index builder),
    /// plus the validation errors of [`EngineBuilder::build`] —
    /// [`AsrsError::NonFiniteLocation`] included, for an image written
    /// before appends refused such locations.
    pub fn build_restored(self, state: EngineState) -> Result<AsrsEngine, AsrsError> {
        self.config.validate()?;
        for object in state.dataset.objects() {
            crate::mutate::check_location(object)?;
        }
        let build_granularity = match self.index {
            IndexSpec::None => None,
            IndexSpec::Build { cols, rows } => Some((cols, rows)),
            IndexSpec::Attach(_) => {
                return Err(AsrsError::Persistence {
                    message: "cannot restore into a builder with an attached index; \
                              use build_index(cols, rows) matching the persisted granularity"
                        .to_string(),
                })
            }
        };
        if let Some(index) = state.index.as_deref() {
            self.check_stats_dim(index)?;
            let (cols, rows) = index.granularity();
            match build_granularity {
                Some(granularity) if granularity == (cols, rows) => {}
                Some((want_cols, want_rows)) => {
                    return Err(AsrsError::Persistence {
                        message: format!(
                            "persisted index is {cols}x{rows}, builder requests {want_cols}x{want_rows}"
                        ),
                    })
                }
                None => {
                    return Err(AsrsError::Persistence {
                        message: "persisted image carries an index, but the builder requests none"
                            .to_string(),
                    })
                }
            }
        }
        // Upkeep follows the builder's request, exactly as a mutated
        // engine keeps its granularity even while the index is dropped on
        // an emptied dataset; a sharded engine keeps no index at all, so
        // an unsharded builder indexes a sharded engine's image itself.
        let upkeep = self.upkeep();
        let index = match (upkeep, state.index) {
            (IndexUpkeep::Virtual { .. }, _) => None,
            (IndexUpkeep::PerEngine { cols, rows }, None) if !state.dataset.is_empty() => {
                Some(Arc::new(GridIndex::build(
                    &state.dataset,
                    &self.aggregator,
                    cols,
                    rows,
                )?))
            }
            (_, index) => index,
        };
        self.assemble(state.generation, state.dataset, index, upkeep)
    }
}

/// One immutable *generation* of an engine: dataset, aggregator, index,
/// configuration, planner and the statistics the planner decides from,
/// stamped with the generation number that produced it.
///
/// Queries run against whichever generation they snapshot at submission
/// ([`EngineShared::load`]); mutations assemble a successor core and swap
/// it in, so in-flight queries finish on their generation undisturbed —
/// the epoch-swap concurrency model.  The query-result cache is the one
/// component *shared across* generations: its keys are generation-stamped
/// ([`RequestKey::stamped`](crate::RequestKey::stamped)), which makes a
/// stale hit structurally impossible while superseded entries age out via
/// LRU.
#[derive(Debug)]
pub(crate) struct EngineCore {
    /// Generation number: 0 for a freshly built engine, +1 per applied
    /// mutation.
    pub(crate) generation: u64,
    pub(crate) dataset: Arc<Dataset>,
    pub(crate) aggregator: Arc<CompositeAggregator>,
    pub(crate) config: SearchConfig,
    pub(crate) index: Option<Arc<GridIndex>>,
    /// What index maintenance this engine owes under mutation.
    pub(crate) upkeep: IndexUpkeep,
    pub(crate) planner: Planner,
    pub(crate) statistics: EngineStatistics,
    pub(crate) cache: Option<Arc<QueryCache>>,
    /// Shard table of a sharded engine (see [`EngineBuilder::shards`] and
    /// the internal `shard` module); `None` on single engines.
    pub(crate) shards: Option<ShardSet>,
}

/// The shared state behind every clone of an [`AsrsEngine`]: the current
/// generation's core
/// behind an epoch-swap lock, plus the serialized mutation state.
///
/// Readers take the read lock only long enough to clone the inner [`Arc`]
/// (an `ArcSwap`-style load built from `std`), so query execution never
/// blocks on mutations; mutators serialize on [`EngineShared::mutator`]
/// and publish a fully assembled successor core with one write-lock swap.
#[derive(Debug)]
pub(crate) struct EngineShared {
    current: RwLock<Arc<EngineCore>>,
    pub(crate) mutator: Mutex<MutationState>,
    /// The group-commit queue (`engine.commit_queue`): mutations enqueue
    /// their commit group here before blocking on the mutator, and
    /// whichever caller wins the mutator drains *everything* pending into
    /// one published generation (see the `mutate` module docs).  Acquired
    /// either alone (to enqueue) or under the mutator (to drain/deposit),
    /// never across a blocking operation.
    pub(crate) commit_queue: Mutex<crate::mutate::CommitQueue>,
    /// Durability hook: when attached (see
    /// [`AsrsEngine::attach_durability`]), every mutation is handed to the
    /// sink *before* its generation is published — a failing sink aborts
    /// the mutation, so no acknowledged write can outrun its log record.
    pub(crate) durability: OnceLock<Arc<dyn DurabilitySink>>,
}

impl EngineShared {
    pub(crate) fn new(core: EngineCore) -> Self {
        Self {
            current: RwLock::new(Arc::new(core)),
            mutator: Mutex::new(MutationState::new()),
            commit_queue: Mutex::new(crate::mutate::CommitQueue::default()),
            durability: OnceLock::new(),
        }
    }

    /// Snapshots the current generation.  Cheap: one uncontended read lock
    /// and one reference-count increment.
    pub(crate) fn load(&self) -> Arc<EngineCore> {
        // The epoch lock guards a single Arc pointer; neither the clone
        // nor the swap below can leave it half-written, so a poisoned
        // lock (a reader panicking elsewhere) is safe to recover.
        Arc::clone(
            &self
                .current
                .read()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        )
    }

    /// Publishes a successor generation.  In-flight queries keep the
    /// generation they snapshotted.
    pub(crate) fn swap(&self, core: Arc<EngineCore>) {
        *self
            .current
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = core;
    }
}

/// A write-ahead durability hook for the generational mutation path.
///
/// When a sink is attached ([`AsrsEngine::attach_durability`]), every
/// publish calls [`DurabilitySink::log_batch`] with the generation it is
/// about to publish and the mutation records that generation applies — a
/// solo mutation is a batch of one — *before* the generation becomes
/// visible to queries.  A sink that returns an error aborts the whole
/// batch — every caller sees the error, the engine stays on the previous
/// generation — so an acknowledged write is always on durable storage
/// first.  `asrs-persist` implements this trait with an fsync'd,
/// CRC-framed write-ahead log.
pub trait DurabilitySink: Send + Sync + std::fmt::Debug {
    /// Records the mutations about to be published as `generation`; every
    /// mutation of the batch shares that one generation number.
    /// Implementations should make the entire batch durable with **one**
    /// fsync.
    ///
    /// # Errors
    ///
    /// Any error vetoes the whole batch; implementations should return
    /// [`AsrsError::Persistence`].
    fn log_batch(&self, generation: u64, mutations: &[Mutation]) -> Result<(), AsrsError>;
}

/// A point-in-time image of one engine generation, sufficient to
/// reassemble a byte-identical engine without re-indexing.
///
/// [`AsrsEngine::export_state`] captures it from the current generation's
/// immutable core — an `Arc` snapshot, so exporting never stalls queries
/// or mutations — and [`EngineBuilder::build_restored`] turns it back
/// into an engine.  The round trip preserves response bytes: the dataset
/// keeps its object order, the index is carried table-for-table, planner
/// statistics are recaptured by the exact code path the original build
/// ran, and the restored engine resumes at [`EngineState::generation`] so
/// generation-stamped cache keys and WAL records stay aligned.  The image
/// holds no shard layout: a sharded engine partitions the dataset again
/// when it is restored.
#[derive(Debug, Clone)]
pub struct EngineState {
    /// Generation the image was captured at.
    pub generation: u64,
    /// The full dataset, in insertion order.
    pub dataset: Arc<Dataset>,
    /// The whole-dataset grid index, if the engine maintains one.
    pub index: Option<Arc<GridIndex>>,
}

impl EngineCore {
    pub(crate) fn plan(&self, request: &QueryRequest) -> Result<ExecutionPlan, AsrsError> {
        self.planner.plan(&self.statistics, request)
    }

    /// Plans and executes `request`, consulting the query-result cache
    /// first when one is attached.  Only successful responses are cached;
    /// a hit returns the stored response verbatim (byte-identical to the
    /// cold computation), so callers cannot distinguish the two.
    ///
    /// Cache keys are stamped with this core's generation, so a response
    /// computed against one generation can never answer a request running
    /// against another — the generational cache-invalidation guarantee.
    pub(crate) fn submit(&self, request: &QueryRequest) -> Result<QueryResponse, AsrsError> {
        let Some(cache) = &self.cache else {
            return self.execute(request);
        };
        let key = request.cache_key().stamped(self.generation);
        if let Some(hit) = cache.get(&key) {
            return Ok(hit);
        }
        // Single-flight: concurrent identical cold lookups share one
        // computation; the cache remembers the request so a later publish
        // can prove the entry unchanged and carry it across generations.
        cache.compute_coalesced(key, request, || self.execute(request))
    }

    /// Counters of the attached query-result cache, if any.
    pub(crate) fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_deref().map(QueryCache::stats)
    }

    /// Plans, admits and executes `request` — the one operation dispatch.
    /// Every operation runs through one [`Executor`] over the slabs
    /// [`EngineCore::executor`] picks.
    pub(crate) fn execute(&self, request: &QueryRequest) -> Result<QueryResponse, AsrsError> {
        let plan = self.plan(request)?;
        plan.admit()?;
        let budget = plan
            .budget_ms
            .map(|ms| Budget::new(Duration::from_millis(ms)));
        let executor = self.executor(&plan)?;
        let outcome = match request.operation() {
            QueryRequest::Similar { query } => {
                QueryOutcome::Best(executor.best(query, 0.0, budget)?)
            }
            QueryRequest::Approximate { query, delta } => {
                let delta = crate::config::check_delta(*delta)?;
                QueryOutcome::Best(executor.best(query, delta, budget)?)
            }
            QueryRequest::TopK { query, k } => {
                QueryOutcome::Ranked(executor.run(query, *k, 0.0, budget)?)
            }
            QueryRequest::Batch { queries } => QueryOutcome::Batch(
                executor
                    .batch(queries, budget)?
                    .into_iter()
                    .collect::<Result<_, _>>()?,
            ),
            QueryRequest::MaxRs { size } => {
                QueryOutcome::MaxRs(executor.max_rs(*size, &Selection::All, budget)?)
            }
            QueryRequest::MaxRsSelective { size, selection } => {
                QueryOutcome::MaxRs(executor.max_rs(*size, selection, budget)?)
            }
            QueryRequest::Configured { .. } => {
                // lint:allow(operation() strips every Configured envelope before dispatch; this arm is statically dead)
                unreachable!("operation() peels Configured envelopes")
            }
        };
        Ok(QueryResponse::from_outcome(plan.backend, outcome))
    }

    /// The executor for `plan`'s backend over the engine's discretisation
    /// grid.  The naive oracle runs whenever the plan names it, pinned or
    /// planned, so the reported backend is the one that ran.  Otherwise a
    /// sharded core scatters over its anchor slabs whatever backend the
    /// plan reports, and answers exactly (δ included in that guarantee).
    fn executor(&self, plan: &ExecutionPlan) -> Result<Executor<'_>, AsrsError> {
        let slabs = match (&self.shards, plan.backend) {
            (_, Backend::Naive) => Slabs::Arrangement,
            (Some(shards), _) => Slabs::Shards(shards),
            (None, Backend::DsSearch) => Slabs::Whole,
            (None, Backend::GiDs) => Slabs::IndexCells(
                self.index
                    .as_deref()
                    .ok_or(AsrsError::IndexRequired { backend: "gi-ds" })?,
            ),
        };
        Ok(Executor::new(
            &self.dataset,
            &self.aggregator,
            &self.config,
            slabs,
        ))
    }
}

/// The unified ASRS query engine (see the [crate documentation](crate)).
///
/// The engine is a thin facade over a *generational* shared state: queries
/// snapshot the current generation's immutable core and run on it to
/// completion, while mutations ([`AsrsEngine::append`],
/// [`AsrsEngine::remove`], TTL expiry) assemble a successor core — with
/// incrementally maintained indexes — and swap it in atomically.
///
/// The engine is `Clone + Send + Sync`: a clone shares the generational
/// state behind an [`Arc`], so cloning costs one reference-count increment
/// and every clone can [`submit`](AsrsEngine::submit) — and mutate, via
/// [`append`](AsrsEngine::append) / [`remove`](AsrsEngine::remove) —
/// concurrently from its own thread.  Queries snapshot the generation
/// current at submission and are never disturbed by concurrent mutations;
/// mutations serialize among themselves on `engine.mutator` (every lock
/// acquisition is listed in `crates/interlock/LOCK_ORDER.md`, and the
/// protocol is exhaustively schedule-checked by
/// `cargo test -p asrs-core --features model`).  The
/// [`EngineHandle`](crate::EngineHandle) example submits from four threads.
#[derive(Debug, Clone)]
pub struct AsrsEngine {
    pub(crate) shared: Arc<EngineShared>,
}

impl AsrsEngine {
    /// Starts building an engine over `dataset` with `aggregator`.
    pub fn builder(dataset: Dataset, aggregator: CompositeAggregator) -> EngineBuilder {
        EngineBuilder::new(dataset, aggregator)
    }

    pub(crate) fn from_core(core: EngineCore) -> Self {
        Self {
            shared: Arc::new(EngineShared::new(core)),
        }
    }

    /// Snapshots the current generation's core.
    pub(crate) fn core(&self) -> Arc<EngineCore> {
        self.shared.load()
    }

    /// A clone of this engine, sharing its state (see
    /// [`EngineHandle`](crate::EngineHandle)).
    pub fn handle(&self) -> crate::EngineHandle {
        self.clone()
    }

    /// The current generation number: 0 for a freshly built engine,
    /// incremented by every applied mutation.
    pub fn generation(&self) -> u64 {
        self.core().generation
    }

    /// Captures a point-in-time [`EngineState`] of the current generation.
    ///
    /// The export is a handful of `Arc` clones over the generation's
    /// immutable core — it never stalls queries or mutations, which is
    /// what lets `asrs-persist` snapshot a serving engine in the
    /// background.  Mutations applied after the call are not part of the
    /// image (they are the WAL's job).
    pub fn export_state(&self) -> EngineState {
        let core = self.core();
        EngineState {
            generation: core.generation,
            dataset: Arc::clone(&core.dataset),
            index: core.index.clone(),
        }
    }

    /// Attaches the write-ahead [`DurabilitySink`] every subsequent
    /// mutation must go through (see the trait documentation for the
    /// ordering guarantee).  Attach *after* replaying any recovery log —
    /// replayed mutations must not be re-appended to it.
    ///
    /// # Errors
    ///
    /// [`AsrsError::Persistence`] when a sink is already attached; the
    /// sink is installed for the lifetime of the engine.
    pub fn attach_durability(&self, sink: Arc<dyn DurabilitySink>) -> Result<(), AsrsError> {
        self.shared
            .durability
            .set(sink)
            .map_err(|_| AsrsError::Persistence {
                message: "a durability sink is already attached to this engine".to_string(),
            })
    }

    /// The current generation's dataset.  The returned [`Arc`] pins that
    /// generation's snapshot: later mutations produce new datasets and do
    /// not affect it.
    pub fn dataset(&self) -> Arc<Dataset> {
        Arc::clone(&self.core().dataset)
    }

    /// The composite aggregator (shared by every generation).
    pub fn aggregator(&self) -> Arc<CompositeAggregator> {
        Arc::clone(&self.core().aggregator)
    }

    /// The current generation's grid index, if any.
    pub fn index(&self) -> Option<Arc<GridIndex>> {
        self.core().index.clone()
    }

    /// The current generation's dataset/index statistics (refreshed on
    /// every mutation, so the planner always decides from live numbers).
    pub fn statistics(&self) -> EngineStatistics {
        self.core().statistics.clone()
    }

    /// Appends `object` to the dataset, producing a new generation.  See
    /// [`mutate`](crate::MutationReceipt) for what the receipt reports.
    ///
    /// # Errors
    ///
    /// * [`AsrsError::Schema`] when the object violates the schema,
    /// * [`AsrsError::NonFiniteLocation`] when its location is NaN or
    ///   infinite,
    /// * [`AsrsError::DuplicateObjectId`] when the id is already taken.
    pub fn append(&self, object: SpatialObject) -> Result<MutationReceipt, AsrsError> {
        crate::mutate::append(&self.shared, object, None)
    }

    /// Like [`AsrsEngine::append`], but the object expires `ttl` after
    /// insertion: the next [`AsrsEngine::sweep_expired`] at or past the
    /// deadline removes it.
    pub fn append_with_ttl(
        &self,
        object: SpatialObject,
        ttl: Duration,
    ) -> Result<MutationReceipt, AsrsError> {
        crate::mutate::append(&self.shared, object, Some(ttl))
    }

    /// Removes the object with id `id`, producing a new generation.
    ///
    /// # Errors
    ///
    /// [`AsrsError::UnknownObjectId`] when no object carries the id.
    pub fn remove(&self, id: u64) -> Result<MutationReceipt, AsrsError> {
        crate::mutate::remove(&self.shared, id)
    }

    /// Appends a whole payload of objects (each with an optional TTL) as
    /// **one atomic commit**: one published generation, one WAL fsync,
    /// one receipt per object — all sharing the batch's generation.
    ///
    /// # Errors
    ///
    /// Validation is all-or-nothing: a duplicate id
    /// ([`AsrsError::DuplicateObjectId`], duplicates *within* the payload
    /// included), schema violation ([`AsrsError::Schema`]) or non-finite
    /// location ([`AsrsError::NonFiniteLocation`]) anywhere in the payload
    /// rejects the entire payload without touching the dataset.
    pub fn append_batch(
        &self,
        items: Vec<(SpatialObject, Option<Duration>)>,
    ) -> Result<Vec<MutationReceipt>, AsrsError> {
        crate::mutate::append_batch(&self.shared, items)
    }

    /// Applies a replayed WAL batch — every mutation of one logged
    /// generation — as one atomic commit producing exactly one generation.
    /// Used by `asrs-persist` during boot replay; `Expire` records apply
    /// as plain removals.
    ///
    /// # Errors
    ///
    /// Same as [`AsrsEngine::append_batch`] /
    /// [`AsrsEngine::remove`]: the whole batch is rejected when any record
    /// fails validation, a non-finite location
    /// ([`AsrsError::NonFiniteLocation`]) included.
    pub fn apply_mutations(
        &self,
        mutations: &[Mutation],
    ) -> Result<Vec<MutationReceipt>, AsrsError> {
        crate::mutate::apply_batch(&self.shared, mutations)
    }

    /// Removes every TTL'd object whose deadline has passed, coalescing
    /// the whole sweep into **one** new generation (and one WAL fsync);
    /// returns one receipt per expired object (empty when nothing was
    /// due).
    pub fn sweep_expired(&self) -> Result<Vec<MutationReceipt>, AsrsError> {
        crate::mutate::sweep_expired(&self.shared)
    }

    /// Mutation counters for observability (served by `/metrics`).
    pub fn mutation_stats(&self) -> MutationStats {
        crate::mutate::stats_snapshot(&self.shared)
    }

    /// Counters of the query-result cache, or `None` when the engine was
    /// built without one (see [`EngineBuilder::cache_capacity`]).
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.core().cache_stats()
    }

    /// Runs the deep invariant audit over the current generation: index
    /// suffix-table and rebuild identity, dataset bounding box, shard
    /// partition cover/disjointness/ownership, generation monotonicity,
    /// planner-statistics recapture and cache-key generation stamps (see
    /// the [`AuditReport`](crate::AuditReport) for the outcome shape).
    ///
    /// Mutations are paused while the audit reads (queries are not), and
    /// debug builds additionally run the same audit after every mutation.
    /// The audit rescans the dataset and rebuilds indexes for comparison,
    /// so it costs a mutation's worth of work — an observability surface,
    /// not a query path.  The server's `GET /audit` endpoint serves this
    /// report.
    pub fn audit(&self) -> crate::AuditReport {
        crate::audit::audit_shared(&self.shared)
    }

    /// Number of shards of a sharded engine, `0` for a single engine (see
    /// [`EngineBuilder::shards`]).
    pub fn shard_count(&self) -> usize {
        self.core().shards.as_ref().map_or(0, |s| s.len())
    }

    /// Per-shard scattered-execution counts, in shard order (`None` for a
    /// single engine).  Surfaced by the server's `/metrics`.
    pub fn shard_request_counts(&self) -> Option<Vec<u64>> {
        self.core().shards.as_ref().map(|s| s.request_counts())
    }

    /// The spatial partition regions of a sharded engine, in shard order
    /// (`None` for a single engine).
    pub fn shard_regions(&self) -> Option<Vec<Rect>> {
        self.core().shards.as_ref().map(|s| s.regions().to_vec())
    }

    /// Builds a query-by-example from a real region of the engine's
    /// dataset (see [`AsrsQuery::from_example_region`]).
    pub fn query_from_example(&self, example: &Rect) -> Result<AsrsQuery, AsrsError> {
        let core = self.core();
        Ok(AsrsQuery::from_example_region(
            &core.dataset,
            &core.aggregator,
            example,
        )?)
    }

    /// Plans `request` without executing it: the returned
    /// [`ExecutionPlan`] names the backend the cost model chose and
    /// [`ExecutionPlan::explain`] justifies it.
    ///
    /// # Errors
    ///
    /// See [`Planner::plan`].
    pub fn plan(&self, request: &QueryRequest) -> Result<ExecutionPlan, AsrsError> {
        self.core().plan(request)
    }

    /// Plans and executes a declarative [`QueryRequest`] — the engine's
    /// one query entry point.  The response bundles the results, the backend
    /// the planner chose and the merged [`SearchStats`](crate::SearchStats).
    ///
    /// The request runs against the generation current at submission; a
    /// concurrent mutation neither blocks it nor changes its answer.
    ///
    /// # Errors
    ///
    /// * planning errors — see [`Planner::plan`],
    /// * [`AsrsError::Query`] for a malformed or mismatching query,
    /// * [`AsrsError::DeadlineExceeded`] when the request's budget ran out,
    /// * [`AsrsError::CostCeilingExceeded`] when the engine enforces an
    ///   admission ceiling the estimate breaches,
    /// * the operation-specific errors ([`AsrsError::InvalidTopK`],
    ///   [`AsrsError::InvalidRegionSize`], …).
    pub fn submit(&self, request: &QueryRequest) -> Result<QueryResponse, AsrsError> {
        self.core().submit(request)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ConfigError;
    use crate::executor::test_hooks;
    use crate::maxrs::MaxRsResult;
    use crate::query::QueryError;
    use crate::result::SearchResult;
    use asrs_aggregator::{FeatureVector, Weights};
    use asrs_data::gen::UniformGenerator;
    use asrs_geo::RegionSize;

    fn setup(n: usize, seed: u64) -> (Dataset, CompositeAggregator) {
        let ds = UniformGenerator::default().generate(n, seed);
        let agg = CompositeAggregator::builder(ds.schema())
            .distribution("category", Selection::All)
            .build()
            .unwrap();
        (ds, agg)
    }

    fn query() -> AsrsQuery {
        AsrsQuery::new(
            RegionSize::new(12.0, 10.0),
            FeatureVector::new(vec![2.0, 1.0, 1.0, 2.0]),
            Weights::uniform(4),
        )
    }

    /// The best region for `query`, through `submit`.
    fn similar(engine: &AsrsEngine, query: &AsrsQuery) -> Result<SearchResult, AsrsError> {
        let response = engine.submit(&QueryRequest::similar(query.clone()))?;
        Ok(response
            .best()
            .cloned()
            .expect("a similar request answers one region"))
    }

    /// The per-query answers of a batch, through `submit`.
    fn batch(engine: &AsrsEngine, queries: &[AsrsQuery]) -> Result<Vec<SearchResult>, AsrsError> {
        let response = engine.submit(&QueryRequest::batch(queries.to_vec()))?;
        Ok(response.results().to_vec())
    }

    /// The MaxRS answer for `request`, through `submit`.
    fn max_rs(engine: &AsrsEngine, request: QueryRequest) -> Result<MaxRsResult, AsrsError> {
        let response = engine.submit(&request)?;
        Ok(response
            .max_rs()
            .cloned()
            .expect("a MaxRS request answers a MaxRS result"))
    }

    #[test]
    fn auto_strategy_prefers_the_index() {
        let (ds, agg) = setup(200, 5);
        let plain = AsrsEngine::builder(ds.clone(), agg.clone())
            .build()
            .unwrap();
        assert!(plain.index().is_none());

        let indexed = AsrsEngine::builder(ds, agg)
            .build_index(16, 16)
            .build()
            .unwrap();
        assert!(indexed.index().is_some());

        let request = QueryRequest::similar(query());
        let a = plain.submit(&request).unwrap();
        let b = indexed.submit(&request).unwrap();
        assert_eq!(a.backend, Backend::DsSearch);
        assert_eq!(b.backend, Backend::GiDs);
        assert!((a.best().unwrap().distance - b.best().unwrap().distance).abs() < 1e-9);
    }

    #[test]
    fn forced_gi_ds_without_an_index_is_refused() {
        let (ds, agg) = setup(50, 1);
        let engine = AsrsEngine::builder(ds, agg).build().unwrap();
        let request = QueryRequest::similar(query()).with_backend(Backend::GiDs);
        assert_eq!(
            engine.submit(&request).unwrap_err(),
            AsrsError::IndexRequired { backend: "gi-ds" }
        );
    }

    #[test]
    fn invalid_config_fails_at_build_time() {
        let (ds, agg) = setup(50, 1);
        let config = SearchConfig {
            nrows: 1,
            ..SearchConfig::default()
        };
        let err = AsrsEngine::builder(ds, agg)
            .config(config)
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            AsrsError::Config(ConfigError::GridTooCoarse {
                ncols: 30,
                nrows: 1
            })
        );
    }

    #[test]
    fn mismatched_index_is_rejected() {
        let (ds, agg) = setup(80, 3);
        // An index built for a different aggregator (count: 1 stats dim,
        // distribution over 4 categories: 4 stats dims).
        let other = CompositeAggregator::builder(ds.schema())
            .count(Selection::All)
            .build()
            .unwrap();
        let foreign = GridIndex::build(&ds, &other, 8, 8).unwrap();
        let err = AsrsEngine::builder(ds, agg)
            .index(foreign)
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            AsrsError::IndexMismatch {
                index_dims: 1,
                aggregator_dims: 4
            }
        ));
    }

    #[test]
    fn index_on_empty_dataset_is_an_error() {
        let ds = Dataset::new_unchecked(asrs_data::Schema::empty(), vec![]);
        let agg = CompositeAggregator::builder(ds.schema())
            .count(Selection::All)
            .build()
            .unwrap();
        let err = AsrsEngine::builder(ds, agg)
            .build_index(8, 8)
            .build()
            .unwrap_err();
        assert_eq!(err, AsrsError::EmptyDataset);
    }

    #[test]
    fn queries_are_validated_at_the_boundary() {
        let (ds, agg) = setup(60, 2);
        let engine = AsrsEngine::builder(ds, agg).build().unwrap();
        let bad_dim = AsrsQuery::new(
            RegionSize::new(5.0, 5.0),
            FeatureVector::new(vec![1.0]),
            Weights::uniform(1),
        );
        assert!(matches!(
            similar(&engine, &bad_dim),
            Err(AsrsError::Query(QueryError::TargetDimensionMismatch { .. }))
        ));
        let bad_size = AsrsQuery::new(
            RegionSize::new(-3.0, 5.0),
            FeatureVector::new(vec![1.0, 1.0, 1.0, 1.0]),
            Weights::uniform(4),
        );
        assert!(matches!(
            similar(&engine, &bad_size),
            Err(AsrsError::Query(QueryError::InvalidSize { .. }))
        ));
        // Batch validation is all-or-nothing.
        assert!(batch(&engine, &[query(), bad_dim]).is_err());
    }

    #[test]
    fn search_batch_matches_sequential_searches() {
        let (ds, agg) = setup(300, 11);
        let engine = AsrsEngine::builder(ds, agg)
            .build_index(24, 24)
            .build()
            .unwrap();
        let queries: Vec<AsrsQuery> = (1..=6)
            .map(|i| {
                AsrsQuery::new(
                    RegionSize::new(4.0 + i as f64, 6.0),
                    FeatureVector::new(vec![i as f64, 1.0, 0.0, 2.0]),
                    Weights::uniform(4),
                )
            })
            .collect();
        let answers = batch(&engine, &queries).unwrap();
        assert_eq!(answers.len(), queries.len());
        for (q, r) in queries.iter().zip(&answers) {
            let single = similar(&engine, q).unwrap();
            assert!(
                (single.distance - r.distance).abs() < 1e-9,
                "batch result must match sequential result"
            );
        }
        assert!(batch(&engine, &[]).unwrap().is_empty());
    }

    #[test]
    fn max_rs_routes_through_the_facade() {
        let (ds, agg) = setup(150, 7);
        let engine = AsrsEngine::builder(ds, agg).build().unwrap();
        let result = max_rs(&engine, QueryRequest::max_rs(RegionSize::new(20.0, 20.0))).unwrap();
        assert!(result.count >= 1);
        assert_eq!(
            engine.dataset().count_strictly_in(&result.region),
            result.count
        );
        let constrained = max_rs(
            &engine,
            QueryRequest::max_rs_selective(
                RegionSize::new(20.0, 20.0),
                Selection::cat_equals(0, 0),
            ),
        )
        .unwrap();
        assert!(constrained.count <= result.count);
        assert!(matches!(
            max_rs(&engine, QueryRequest::max_rs(RegionSize::new(0.0, 1.0))),
            Err(AsrsError::InvalidRegionSize { .. })
        ));
    }

    #[test]
    fn submit_reports_backend_and_stats() {
        let (ds, agg) = setup(300, 19);
        let engine = AsrsEngine::builder(ds, agg)
            .build_index(16, 16)
            .build()
            .unwrap();
        let response = engine.submit(&QueryRequest::similar(query())).unwrap();
        assert_eq!(response.backend, Backend::GiDs);
        assert!(response.stats.spaces_processed >= 1);
        assert!(response.best().is_some());
    }

    #[test]
    fn an_exhausted_budget_aborts_with_deadline_exceeded() {
        let (ds, agg) = setup(800, 3);
        let engine = AsrsEngine::builder(ds, agg).build().unwrap();
        let err = engine
            .submit(&QueryRequest::similar(query()).with_budget_ms(0))
            .unwrap_err();
        assert_eq!(
            err,
            AsrsError::DeadlineExceeded {
                budget: std::time::Duration::ZERO
            }
        );
        // A generous budget succeeds and still reports normally.
        let ok = engine
            .submit(&QueryRequest::similar(query()).with_budget_ms(60_000))
            .unwrap();
        assert!(ok.best().unwrap().distance.is_finite());
    }

    #[test]
    fn batch_results_keep_input_order_deterministically() {
        // Regression test for the batch ordering guarantee: identical
        // requests must produce byte-identical result sequences no matter
        // how the worker threads get scheduled, and slot i must answer
        // query i.
        let (ds, agg) = setup(400, 29);
        let engine = AsrsEngine::builder(ds, agg)
            .build_index(24, 24)
            .build()
            .unwrap();
        // Queries with recognisably different sizes so a misordered slot
        // would be caught by the width check alone.
        let queries: Vec<AsrsQuery> = (1..=12)
            .map(|i| {
                AsrsQuery::new(
                    RegionSize::new(3.0 + i as f64, 5.0),
                    FeatureVector::new(vec![i as f64, 1.0, 1.0, 0.0]),
                    Weights::uniform(4),
                )
            })
            .collect();
        let reference = batch(&engine, &queries).unwrap();
        assert_eq!(reference.len(), queries.len());
        for (q, r) in queries.iter().zip(&reference) {
            assert!(
                (r.region.width() - q.size.width).abs() < 1e-12,
                "result slot must answer the query at the same index"
            );
            let single = similar(&engine, q).unwrap();
            assert_eq!(single.anchor, r.anchor);
            assert_eq!(single.distance, r.distance);
        }
        for run in 0..5 {
            let again = batch(&engine, &queries).unwrap();
            for (a, b) in reference.iter().zip(&again) {
                assert_eq!(a.anchor, b.anchor, "run {run}: anchors must be identical");
                assert_eq!(a.distance, b.distance, "run {run}");
                assert_eq!(a.representation, b.representation, "run {run}");
            }
        }
    }

    #[test]
    fn a_panicking_batch_slot_reports_internal_instead_of_aborting() {
        // Regression test: a worker panic used to propagate through
        // `handle.join().expect(..)` and abort the whole process, and one
        // failing query used to discard every sibling result.  The contract
        // holds on every engine: the planner's GI-DS on an unsharded one,
        // the shard scatter on a sharded one.
        let (ds, agg) = setup(200, 5);
        let mut queries: Vec<AsrsQuery> = (1..=4)
            .map(|i| {
                AsrsQuery::new(
                    RegionSize::new(5.0 + i as f64, 6.0),
                    FeatureVector::new(vec![i as f64, 1.0, 1.0, 0.0]),
                    Weights::uniform(4),
                )
            })
            .collect();
        queries[2].size = RegionSize::new(test_hooks::PANIC_INJECTION_WIDTH, 6.0);

        for shards in [0, 2] {
            let engine = AsrsEngine::builder(ds.clone(), agg.clone())
                .build_index(16, 16)
                .shards(shards)
                .build()
                .unwrap();
            // The per-slot contract of the batch executor behind `submit`.
            let plan = engine.plan(&QueryRequest::batch(queries.clone())).unwrap();
            let results = engine
                .core()
                .executor(&plan)
                .unwrap()
                .batch(&queries, None)
                .unwrap();
            assert_eq!(results.len(), queries.len());
            for (i, result) in results.iter().enumerate() {
                if i == 2 {
                    assert!(
                        matches!(result, Err(AsrsError::Internal { .. })),
                        "shards {shards}, slot {i}: {result:?}"
                    );
                } else {
                    let ok = result.as_ref().expect("healthy sibling slots survive");
                    let single = similar(&engine, &queries[i]).unwrap();
                    assert_eq!(ok.anchor, single.anchor, "shards {shards}, slot {i}");
                    assert_eq!(ok.distance, single.distance, "shards {shards}, slot {i}");
                }
            }
            // `submit` surfaces the error as a value, never as a crash.
            assert!(matches!(
                engine.submit(&QueryRequest::batch(queries.clone())),
                Err(AsrsError::Internal { .. })
            ));
        }
    }

    #[test]
    fn cached_submissions_are_byte_identical_and_counted() {
        let (ds, agg) = setup(250, 9);
        let engine = AsrsEngine::builder(ds, agg)
            .build_index(16, 16)
            .cache_capacity(32)
            .build()
            .unwrap();
        let req = QueryRequest::similar(query()).with_budget_ms(60_000);
        let cold = engine.submit(&req).unwrap();
        let warm = engine.submit(&req).unwrap();
        assert_eq!(cold, warm);
        assert_eq!(
            serde::json::to_string(&cold),
            serde::json::to_string(&warm),
            "a cache hit must serialize byte-identically to the cold miss"
        );
        let stats = engine.cache_stats().unwrap();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(stats.entries, 1);

        // A different request is a fresh miss, not a false hit.
        let other = engine.submit(&QueryRequest::top_k(query(), 2)).unwrap();
        assert!(matches!(other.outcome, QueryOutcome::Ranked(_)));
        let stats = engine.cache_stats().unwrap();
        assert_eq!((stats.hits, stats.misses), (1, 2));

        // Errors are never cached: the same bad request keeps failing.
        let bad = QueryRequest::similar(AsrsQuery::new(
            RegionSize::new(-1.0, 1.0),
            FeatureVector::new(vec![1.0, 1.0, 1.0, 1.0]),
            Weights::uniform(4),
        ));
        assert!(engine.submit(&bad).is_err());
        assert!(engine.submit(&bad).is_err());
        assert_eq!(engine.cache_stats().unwrap().entries, 2);
    }

    #[test]
    fn overflowing_distances_error_instead_of_panicking() {
        // A target of ~1e200 validates (finite), but every L2 distance —
        // including the empty-region seed's — squares to ∞.  BestSet
        // rejects the non-finite candidates, and the search must report
        // the empty result as an error, not die on the old `.expect`.
        use asrs_aggregator::DistanceMetric;
        let (ds, agg) = setup(100, 3);
        for indexed in [false, true] {
            let mut builder = AsrsEngine::builder(ds.clone(), agg.clone());
            if indexed {
                builder = builder.build_index(8, 8);
            }
            let engine = builder.build().unwrap();
            let q = AsrsQuery::new(
                RegionSize::new(5.0, 5.0),
                FeatureVector::new(vec![1e200; 4]),
                Weights::uniform(4),
            )
            .with_metric(DistanceMetric::L2);
            for backend in [Backend::DsSearch, Backend::Naive] {
                let result = engine.submit(&QueryRequest::similar(q.clone()).with_backend(backend));
                assert!(
                    matches!(result, Err(AsrsError::Internal { .. })),
                    "indexed={indexed} backend={backend}: {result:?}"
                );
            }
        }
    }

    fn object_at(ds: &Dataset, id: u64, x: f64, y: f64) -> asrs_data::SpatialObject {
        asrs_data::SpatialObject::new(id, asrs_geo::Point::new(x, y), ds.object(0).values.clone())
    }

    #[test]
    fn mutated_engine_answers_like_a_fresh_rebuild() {
        let (ds, agg) = setup(300, 17);
        let engine = AsrsEngine::builder(ds.clone(), agg.clone())
            .build_index(16, 16)
            .build()
            .unwrap();
        // A mutation run: interior appends (incremental), one exterior
        // append (geometry rebuild), removals.
        let a = engine.append(object_at(&ds, 9000, 40.0, 45.0)).unwrap();
        assert_eq!(a.index, crate::mutate::IndexMaintenance::Incremental);
        assert_eq!(a.generation, 1);
        let bbox = ds.bounding_box().unwrap();
        let b = engine
            .append(object_at(&ds, 9001, bbox.max_x + 25.0, bbox.max_y + 5.0))
            .unwrap();
        assert_eq!(
            b.index,
            crate::mutate::IndexMaintenance::Rebuilt,
            "an append outside the padded box must rebuild the index"
        );
        engine.remove(7).unwrap();
        engine.remove(123).unwrap();
        assert_eq!(engine.generation(), 4);

        // A fresh engine over the equivalent final dataset.
        let rebuilt = AsrsEngine::builder((*engine.dataset()).clone(), agg)
            .build_index(16, 16)
            .build()
            .unwrap();
        let req = QueryRequest::similar(query());
        let m = engine.submit(&req).unwrap();
        let r = rebuilt.submit(&req).unwrap();
        assert_eq!(
            serde::json::to_string(&m.stats_stripped()),
            serde::json::to_string(&r.stats_stripped()),
            "mutated and rebuilt engines must answer byte-identically"
        );
        // The statistics the planner reads agree too.
        assert_eq!(engine.statistics(), rebuilt.statistics());
    }

    #[test]
    fn stamped_cache_keys_make_stale_hits_impossible() {
        let (ds, agg) = setup(250, 23);
        let engine = AsrsEngine::builder(ds.clone(), agg.clone())
            .build_index(16, 16)
            .cache_capacity(64)
            .build()
            .unwrap();
        let req = QueryRequest::similar(query());
        let before = engine.submit(&req).unwrap();
        let warm = engine.submit(&req).unwrap();
        assert_eq!(before, warm);
        assert_eq!(engine.cache_stats().unwrap().hits, 1);

        // Mutate: the very point the optimum sat on may change; whatever
        // the answer now is, it must come from generation 1, not from the
        // generation-0 cache entry.
        engine.append(object_at(&ds, 9000, 17.0, 16.0)).unwrap();
        let after = engine.submit(&req).unwrap();
        let rebuilt = AsrsEngine::builder((*engine.dataset()).clone(), agg)
            .build_index(16, 16)
            .build()
            .unwrap();
        assert_eq!(
            serde::json::to_string(&after.stats_stripped()),
            serde::json::to_string(&rebuilt.submit(&req).unwrap().stats_stripped()),
            "a post-mutation submission must reflect the new generation"
        );
        let stats = engine.cache_stats().unwrap();
        assert_eq!(
            stats.hits, 1,
            "the post-mutation submission must not hit the stale entry"
        );
        // And the new generation's entry replays too.
        let again = engine.submit(&req).unwrap();
        assert_eq!(after, again);
        assert_eq!(engine.cache_stats().unwrap().hits, 2);
    }

    #[test]
    fn ttl_appends_expire_on_sweep() {
        let (ds, agg) = setup(120, 31);
        let engine = AsrsEngine::builder(ds.clone(), agg).build().unwrap();
        // One batch arms both TTLs: a *later* commit would piggyback the
        // already-due zero-TTL expiry (see `commit` in mutate.rs), and this
        // test exercises the timer-sweep path specifically.
        engine
            .append_batch(vec![
                (object_at(&ds, 9000, 30.0, 30.0), Some(Duration::ZERO)),
                (
                    object_at(&ds, 9001, 31.0, 31.0),
                    Some(Duration::from_secs(3600)),
                ),
            ])
            .unwrap();
        assert_eq!(engine.dataset().len(), 122);
        assert_eq!(engine.mutation_stats().pending_ttl, 2);
        let receipts = engine.sweep_expired().unwrap();
        assert_eq!(receipts.len(), 1, "only the zero-TTL object is due");
        assert_eq!(receipts[0].kind, "expire");
        assert_eq!(receipts[0].id, 9000);
        assert_eq!(engine.dataset().len(), 121);
        assert!(engine.dataset().contains_id(9001));
        let stats = engine.mutation_stats();
        assert_eq!(stats.expiries, 1);
        assert_eq!(stats.pending_ttl, 1);
        // A second sweep finds nothing due.
        assert!(engine.sweep_expired().unwrap().is_empty());
        // An object removed by the caller before its deadline is skipped
        // silently when the deadline arrives.
        engine
            .append_with_ttl(object_at(&ds, 9002, 32.0, 32.0), Duration::ZERO)
            .unwrap();
        engine.remove(9002).unwrap();
        assert!(engine.sweep_expired().unwrap().is_empty());
    }

    #[test]
    fn absurd_ttls_never_panic_or_poison_the_mutator() {
        // Regression test: `Instant::now() + Duration::from_millis(u64::MAX)`
        // used to overflow-panic while the mutation mutex was held,
        // poisoning every later mutation AND the /metrics snapshot.  An
        // unrepresentable deadline now simply never expires.
        let (ds, agg) = setup(60, 43);
        let engine = AsrsEngine::builder(ds.clone(), agg).build().unwrap();
        engine
            .append_with_ttl(
                object_at(&ds, 9000, 20.0, 20.0),
                Duration::from_millis(u64::MAX),
            )
            .unwrap();
        assert!(engine.sweep_expired().unwrap().is_empty());
        // The mutator is alive and well.
        engine.append(object_at(&ds, 9001, 21.0, 21.0)).unwrap();
        engine.remove(9001).unwrap();
        assert_eq!(engine.mutation_stats().generation, 3);
        assert!(engine.dataset().contains_id(9000));
    }

    #[test]
    fn a_reused_id_is_never_killed_by_a_stale_ttl() {
        // Regression test: TTL heap entries used to match by id alone, so
        // removing a TTL'd object and re-appending a *permanent* object
        // under the same id let the stale deadline silently delete the new
        // object on the next sweep.
        let (ds, agg) = setup(60, 47);
        let engine = AsrsEngine::builder(ds.clone(), agg).build().unwrap();
        engine
            .append_with_ttl(object_at(&ds, 9000, 20.0, 20.0), Duration::ZERO)
            .unwrap();
        engine.remove(9000).unwrap();
        engine.append(object_at(&ds, 9000, 22.0, 22.0)).unwrap();
        // The zero-TTL deadline has long passed, but it belonged to the
        // removed arming — the permanent re-append must survive the sweep.
        assert!(engine.sweep_expired().unwrap().is_empty());
        assert!(engine.dataset().contains_id(9000));
        assert_eq!(engine.mutation_stats().pending_ttl, 0);

        // Re-arming the same id replaces the old deadline cleanly too.
        engine.remove(9000).unwrap();
        engine
            .append_with_ttl(object_at(&ds, 9000, 23.0, 23.0), Duration::ZERO)
            .unwrap();
        let receipts = engine.sweep_expired().unwrap();
        assert_eq!(receipts.len(), 1);
        assert_eq!(receipts[0].id, 9000);
        assert!(!engine.dataset().contains_id(9000));
    }

    #[test]
    fn the_cost_ceiling_gates_max_rs_and_similar_requests() {
        // Regression test: the admission gate must hold for every
        // operation, MaxRS variants included.
        let (ds, agg) = setup(200, 53);
        let engine = AsrsEngine::builder(ds, agg)
            .cost_ceiling(1.0)
            .build()
            .unwrap();
        assert!(matches!(
            engine.submit(&QueryRequest::max_rs(RegionSize::new(10.0, 10.0))),
            Err(AsrsError::CostCeilingExceeded { .. })
        ));
        assert!(matches!(
            engine.submit(&QueryRequest::max_rs_selective(
                RegionSize::new(10.0, 10.0),
                Selection::cat_equals(0, 1)
            )),
            Err(AsrsError::CostCeilingExceeded { .. })
        ));
        assert!(matches!(
            engine.submit(&QueryRequest::similar(query())),
            Err(AsrsError::CostCeilingExceeded { .. })
        ));
    }

    #[test]
    fn mutation_errors_are_reported_as_values() {
        let (ds, agg) = setup(80, 37);
        let engine = AsrsEngine::builder(ds.clone(), agg).build().unwrap();
        // Duplicate id.
        assert_eq!(
            engine.append(object_at(&ds, 5, 10.0, 10.0)).unwrap_err(),
            AsrsError::DuplicateObjectId { id: 5 }
        );
        // Unknown id.
        assert_eq!(
            engine.remove(424242).unwrap_err(),
            AsrsError::UnknownObjectId { id: 424242 }
        );
        // Schema violation.
        let bad = asrs_data::SpatialObject::new(
            9000,
            asrs_geo::Point::new(1.0, 1.0),
            vec![asrs_data::AttrValue::Cat(99)],
        );
        assert!(matches!(engine.append(bad), Err(AsrsError::Schema(_))));
        // Nothing was applied.
        assert_eq!(engine.generation(), 0);
        assert_eq!(engine.dataset().len(), 80);
        let stats = engine.mutation_stats();
        assert_eq!((stats.appends, stats.removes, stats.expiries), (0, 0, 0));
    }

    #[test]
    fn incremental_index_maintenance_never_falls_back_to_a_rebuild() {
        // 25 interior mutations on 40 objects, all absorbed incrementally:
        // however many deltas accumulate, the maintained index is a fresh
        // build bit for bit, so nothing calls for a rebuild.
        let (ds, agg) = setup(40, 41);
        let engine = AsrsEngine::builder(ds.clone(), agg.clone())
            .build_index(8, 8)
            .build()
            .unwrap();
        let bbox = ds.bounding_box().unwrap();
        // Removing an object strictly inside the bounding box leaves the
        // box, and so the index geometry, where it was.
        let mut interior = ds
            .objects()
            .filter(|o| {
                let p = o.location;
                p.x > bbox.min_x && p.x < bbox.max_x && p.y > bbox.min_y && p.y < bbox.max_y
            })
            .map(|o| o.id);
        let mut receipts = Vec::new();
        for i in 0..25u64 {
            let receipt = if i % 5 == 4 {
                engine.remove(interior.next().unwrap()).unwrap()
            } else {
                let f = (i as f64 + 0.5) / 25.0;
                let (x, y) = (
                    bbox.min_x + bbox.width() * (0.1 + 0.8 * f),
                    bbox.min_y + bbox.height() * (0.9 - 0.8 * f),
                );
                engine.append(object_at(&ds, 9000 + i, x, y)).unwrap()
            };
            receipts.push(receipt.index);
        }
        use crate::mutate::IndexMaintenance::Incremental;
        assert_eq!(receipts, vec![Incremental; 25]);
        let stats = engine.mutation_stats();
        assert_eq!((stats.appends, stats.removes), (20, 5));
        assert_eq!(stats.incremental_index_updates, 25);
        assert_eq!(stats.index_rebuilds, 0);

        let dataset = engine.dataset();
        let maintained = engine.index().unwrap();
        let fresh = GridIndex::build(&dataset, &agg, 8, 8).unwrap();
        let bits = |t: &[f64]| t.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(maintained.spec(), fresh.spec());
        assert_eq!(bits(maintained.base_table()), bits(fresh.base_table()));
        assert_eq!(bits(maintained.suffix_table()), bits(fresh.suffix_table()));

        let rebuilt = AsrsEngine::builder((*dataset).clone(), agg)
            .build_index(8, 8)
            .build()
            .unwrap();
        for request in [
            QueryRequest::similar(query()),
            QueryRequest::top_k(query(), 3),
            QueryRequest::max_rs(RegionSize::new(20.0, 20.0)),
        ] {
            assert_eq!(
                serde::json::to_string(&engine.submit(&request).unwrap().stats_stripped()),
                serde::json::to_string(&rebuilt.submit(&request).unwrap().stats_stripped()),
                "{}",
                request.operation_name()
            );
        }
    }

    #[test]
    fn virtual_index_statistics_match_the_built_index() {
        // A sharded engine plans from the statistics of the index it does
        // not build; they must be the built index's, generation after
        // generation, for the planner to choose alike.
        let (ds, agg) = setup(120, 59);
        let engines: Vec<AsrsEngine> = [0, 2]
            .into_iter()
            .map(|shards| {
                AsrsEngine::builder(ds.clone(), agg.clone())
                    .build_index(12, 12)
                    .shards(shards)
                    .build()
                    .unwrap()
            })
            .collect();
        let same = |when: &str| {
            let built = engines[0].statistics().index;
            assert!(built.is_some() && engines[0].index().is_some(), "{when}");
            assert!(engines[1].index().is_none(), "{when}");
            assert_eq!(engines[1].statistics().index, built, "{when}");
        };
        same("fresh");

        let bbox = ds.bounding_box().unwrap();
        for engine in &engines {
            let receipt = engine
                .append(object_at(&ds, 9000, bbox.max_x + 30.0, bbox.max_y + 10.0))
                .unwrap();
            assert_eq!(receipt.generation, 1);
        }
        same("after an exterior append");

        let interior = ds
            .objects()
            .find(|o| {
                let p = o.location;
                p.x > bbox.min_x && p.x < bbox.max_x && p.y > bbox.min_y && p.y < bbox.max_y
            })
            .unwrap()
            .id;
        for engine in &engines {
            engine.remove(interior).unwrap();
        }
        same("after an interior removal");
    }

    #[test]
    fn non_finite_locations_are_refused_at_every_entry_point() {
        let (ds, agg) = setup(60, 2);
        let values = ds.object(0).values.clone();
        let at = |id, x, y| SpatialObject::new(id, asrs_geo::Point::new(x, y), values.clone());
        let engine = AsrsEngine::builder(ds.clone(), agg.clone())
            .build()
            .unwrap();
        let refused = |r: Result<_, AsrsError>| {
            matches!(r, Err(AsrsError::NonFiniteLocation { id: 900, .. }))
        };
        assert!(refused(engine.append(at(900, f64::NAN, 1.0)).map(|_| ())));
        assert!(refused(
            engine
                .append_with_ttl(at(900, 1.0, f64::INFINITY), Duration::from_secs(60))
                .map(|_| ())
        ));
        assert!(refused(
            engine
                .append_batch(vec![
                    (at(899, 1.0, 1.0), None),
                    (at(900, f64::NEG_INFINITY, 1.0), None)
                ])
                .map(|_| ())
        ));
        assert_eq!(engine.generation(), 0);
        assert_eq!(engine.dataset().len(), 60);
        let mut objects: Vec<SpatialObject> = ds.objects().cloned().collect();
        objects.push(at(900, 1e300 * 1e10, 0.0));
        let seeded = Dataset::new_unchecked(ds.schema().clone(), objects);
        assert!(refused(
            AsrsEngine::builder(seeded, agg).build().map(|_| ())
        ));
    }

    #[test]
    fn engines_without_a_cache_report_none() {
        let (ds, agg) = setup(60, 2);
        let engine = AsrsEngine::builder(ds, agg).build().unwrap();
        assert!(engine.cache_stats().is_none());
        assert!(engine.submit(&QueryRequest::similar(query())).is_ok());
    }

    #[test]
    fn batch_response_merges_stats() {
        let (ds, agg) = setup(200, 33);
        let engine = AsrsEngine::builder(ds, agg).build().unwrap();
        let queries = vec![query(), query(), query()];
        let response = engine
            .submit(&QueryRequest::batch(queries.clone()))
            .unwrap();
        let singles: u64 = queries
            .iter()
            .map(|q| similar(&engine, q).unwrap().stats.spaces_processed)
            .sum();
        assert_eq!(response.stats.spaces_processed, singles);
        assert!(matches!(response.outcome, QueryOutcome::Batch(ref r) if r.len() == 3));
    }
}
