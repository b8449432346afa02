//! Core algorithms of the ASRS paper behind one engine facade: the ASP
//! reduction, the exact DS-Search algorithm, the GI-DS grid-index search,
//! the (1+δ)-approximate extension and the MaxRS adaptation.
//!
//! # Overview
//!
//! The attribute-aware similar region search (ASRS) problem takes a set of
//! spatial objects, a query region of size `a × b` and a composite
//! aggregator, and finds the `a × b` region whose aggregate representation
//! is closest to the query's (Definition 4 of the paper).
//!
//! The implementation follows the paper closely:
//!
//! 1. [`asp`] reduces ASRS to the attribute-aware similar *point* (ASP)
//!    problem: each object spawns an `a × b` rectangle whose top-right
//!    corner sits on the object; finding the point covered by the most
//!    query-like multiset of rectangles is equivalent to finding the best
//!    region (Section 4.1, Theorem 1).
//! 2. DS-Search solves ASP by repeatedly *discretizing* the space into a
//!    grid of clean/dirty cells and *splitting* the sub-space spanned by the
//!    surviving dirty cells, pruning with the Equation-1 lower bound and
//!    stopping on the GPS-accuracy drop condition (Sections 4.2–4.6).
//! 3. [`GridIndex`] adds the query-independent grid index with attribute
//!    summary tables of Section 5: GI-DS searches only the index cells
//!    whose lower bound can still beat the best known distance.
//! 4. The same machinery answers the (1+δ)-approximate problem (Section 6)
//!    per request, via [`QueryRequest::approximate`].
//! 5. MaxRS ([`QueryRequest::max_rs`]) is answered through its count
//!    reduction (Section 7.5), planned like any other request: GI-DS on an
//!    indexed engine, DS-Search without an index.
//!
//! DS-Search and GI-DS are one discretize–split kernel run over different
//! sub-spaces — the whole space, or the index cells best-first — and the
//! shard scatter below is a third such set, its anchor slabs.  One
//! executor runs that kernel for every request.
//!
//! # The request → plan → execute pipeline
//!
//! The engine's primary surface is declarative: callers describe *what*
//! they want as a serializable [`QueryRequest`] (similar-region, top-k,
//! batch, approximate, MaxRS, …), the [`Planner`] chooses the backend from
//! dataset/index statistics with a documented cost model (its
//! [`ExecutionPlan::explain`] says why), and
//! [`AsrsEngine::submit`] executes the plan into a [`QueryResponse`]
//! bundling results, the chosen [`Backend`] and the run's
//! [`SearchStats`].  Requests can carry a wall-clock [`Budget`]
//! ([`QueryRequest::with_budget_ms`]) that aborts long discretize/split
//! recursions with [`AsrsError::DeadlineExceeded`], and a backend override
//! ([`QueryRequest::with_backend`]) for callers who know better than the
//! cost model.
//!
//! For every engine the planner statistics are a function of the dataset,
//! the index granularity ([`EngineBuilder::build_index`]) and the shards
//! ([`EngineStatistics::of`]): each generation derives them when it plans.
//! An unsharded engine with a granularity holds the [`GridIndex`] of that
//! grid; a sharded one holds none.
//!
//! [`AsrsEngine`] is a cheap `Clone + Send + Sync` value over its
//! [`std::sync::Arc`]-shared state, so many threads can submit (and
//! mutate) through clones concurrently; [`EngineHandle`] is another name
//! for it.
//!
//! # Settings
//!
//! The search itself has one setting, the discretisation grid
//! ([`SearchConfig`], swept in the paper's Fig. 9).  The GPS accuracy
//! (ΔX, ΔY) is always Definition 7's estimate from the instance, δ
//! travels on each approximate request, and the kernel's crossing
//! threshold and the planner's thresholds are constants.  The admission ceiling ([`EngineBuilder::cost_ceiling`]) is
//! a deployment setting.
//!
//! # Sharded scatter-gather
//!
//! [`EngineBuilder::shards`] partitions the plane around the dataset into
//! `n` disjoint regions (fixed for the engine's lifetime; a shard is its
//! region and an object count) and turns execution into a scatter-gather
//! over the shared full instance: each shard answers the candidate
//! anchors its region induces and the per-shard
//! result sets merge under the deterministic `(distance, anchor.y,
//! anchor.x)` tie-break.  The search kernel has one mode: anchors are
//! snapped to canonical arrangement-cell representatives and pruning
//! retains ties, so an answer is a pure function of the instance rather
//! than of the decomposition.  The gathered outcome is therefore
//! byte-identical for every shard count and to the unsharded engine's,
//! except that the unsharded engine prunes approximate requests against
//! the (1+δ) band where the scatter answers them exactly
//! ([`QueryResponse::stats_stripped`] is the comparison form; execution
//! statistics, including [`SearchStats::shards_touched`] /
//! [`SearchStats::shards_pruned`], describe the decomposition that ran).
//!
//! # Mutability and generations
//!
//! The engine is *generational*: [`AsrsEngine::append`] /
//! [`AsrsEngine::append_with_ttl`] / [`AsrsEngine::remove`] /
//! [`AsrsEngine::sweep_expired`] apply a mutation and publish a new
//! immutable core stamped with the next generation number.  Queries
//! snapshot the generation current at submission and finish on it
//! undisturbed (an epoch swap built from `std` locks); the query-result
//! cache is shared across generations with generation-stamped keys
//! ([`RequestKey::stamped`]), so a stale hit is structurally impossible.
//! Grid indexes are maintained *incrementally* — one cell edit plus a
//! suffix-table sweep per mutation, bit-identical to a fresh build — and
//! rebuilt only when the grid geometry moves; sharded engines route each
//! mutation to its owning region and move one count.
//! The end-to-end guarantee, enforced by
//! `tests/mutation_parity.rs`: after any mutation sequence, responses are
//! **byte-identical** to those of a fresh engine rebuilt from the
//! equivalent final dataset, unsharded and at 2 and 4 shards, cache
//! enabled.
//!
//! # The engine facade
//!
//! [`AsrsEngine`] owns the dataset and aggregator, optionally builds a
//! [`GridIndex`], validates every query once at its boundary, and runs
//! every operation — similar, approximate, top-k, batch and MaxRS — through
//! one entry point, [`AsrsEngine::submit`].  Its backends ([`Backend`]:
//! DS-Search, GI-DS and the [`NaiveSearch`] oracle) return identical
//! answers for exact requests, anchors included; every fallible path
//! reports [`AsrsError`] — no public builder or search panics on bad
//! input.
//!
//! # Quick example
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
//!
//! // One facade: index construction, validation and planning.
//! let engine = AsrsEngine::builder(dataset, aggregator)
//!     .build_index(32, 32)
//!     .build()
//!     .unwrap();
//!
//! // Use an existing region as the example to match.
//! let example = Rect::new(10.0, 10.0, 25.0, 25.0);
//! let query = engine.query_from_example(&example).unwrap();
//!
//! // Plan (to see the cost model's choice) ...
//! let request = QueryRequest::similar(query.clone());
//! println!("{}", engine.plan(&request).unwrap().explain());
//!
//! // ... and execute.
//! let response = engine.submit(&request).unwrap();
//! let best = response.best().unwrap();
//! assert!(best.distance.is_finite());
//! assert!((best.region.width() - example.width()).abs() < 1e-9);
//!
//! // The 3 best non-identical anchors, best first.
//! let top = engine.submit(&QueryRequest::top_k(query, 3)).unwrap();
//! assert!(top.results().len() <= 3);
//! assert!(top.results()[0].distance <= best.distance + 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod asp;
mod audit;
mod best;
mod budget;
mod cache;
mod carry;
mod config;
mod discretize;
mod drop_condition;
mod ds_search;
mod engine;
mod error;
mod executor;
mod gi_ds;
mod grid_index;
mod handle;
mod maxrs;
mod mutate;
mod naive;
mod planner;
mod query;
mod request;
mod result;
pub(crate) mod shard;
mod split;
mod stats;
pub mod sync;

pub use audit::{AuditFinding, AuditReport};
pub use budget::Budget;
pub use cache::{CacheStats, QueryCache, CARRY_PASS_BUCKET_BOUNDS_US};
pub use config::SearchConfig;
pub use engine::{AsrsEngine, DurabilitySink, EngineBuilder, EngineState};
pub use error::{AsrsError, ConfigError};
pub use grid_index::GridIndex;
pub use handle::EngineHandle;
pub use maxrs::MaxRsResult;
pub use mutate::{IndexMaintenance, MutationReceipt, MutationStats};
pub use naive::NaiveSearch;
pub use planner::{
    CostEstimate, EngineStatistics, ExecutionPlan, IndexStatistics, PlanReason, Planner,
    ShardFanOut,
};
pub use query::{AsrsQuery, QueryError};
pub use request::{Backend, QueryOutcome, QueryRequest, QueryResponse, RequestKey};
pub use result::SearchResult;
pub use stats::{LatencyHistogram, SearchStats};
