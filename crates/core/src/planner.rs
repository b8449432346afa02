//! Cost-based query planning: statistics in, [`ExecutionPlan`] out.
//!
//! The cost model's inputs and assumptions are documented on [`Planner`],
//! the module's public face.

use crate::error::AsrsError;
use crate::grid_index::index_grid;
use crate::request::{Backend, QueryRequest};
use asrs_data::Dataset;
use asrs_geo::{Rect, RegionSize};
use serde::Serialize;
use std::fmt;

/// Dataset and index statistics the planner decides from.
///
/// For every engine, sharded or not, built, restored or mutated, they are
/// a function of the dataset, the index granularity and the shard fan-out
/// ([`EngineStatistics::of`]); cheap to derive and to copy around.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineStatistics {
    /// Number of objects in the dataset.
    pub object_count: usize,
    /// Bounding box of the dataset (`None` when empty).
    pub extent: Option<Rect>,
    /// Statistics of the whole-dataset grid index at the engine's
    /// granularity, if it has one.  The same for every shard count, so
    /// identical requests plan identically for every shard count.
    pub index: Option<IndexStatistics>,
    /// Shard fan-out of a sharded engine (`None` on single engines).
    /// Descriptive only: the backend decision never reads it, again so
    /// that plans — and therefore responses — are shard-count-invariant.
    pub shards: Option<ShardFanOut>,
}

/// Fan-out description of a sharded engine, surfaced by
/// [`ExecutionPlan::explain`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct ShardFanOut {
    /// Number of shards the dataset was partitioned into.
    pub shards: usize,
    /// Shards that actually hold objects.  An *estimate* of the execution
    /// fan-out: routing decides per request by slab reachability (an empty
    /// shard still executes when a neighbour's rectangles reach its anchor
    /// slab, and a populated shard is skipped when none do), so the
    /// per-request `shards_touched` counter can differ in either
    /// direction.
    pub populated: usize,
}

/// Grid-index statistics consumed by the cost model.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexStatistics {
    /// Index granularity: number of columns.
    pub cols: usize,
    /// Index granularity: number of rows.
    pub rows: usize,
    /// Width of one index cell.
    pub cell_width: f64,
    /// Height of one index cell.
    pub cell_height: f64,
    /// Average number of objects per index cell (the density statistic).
    pub avg_objects_per_cell: f64,
}

impl EngineStatistics {
    /// The statistics of an engine over `dataset` with index granularity
    /// `granularity` and shard fan-out `shards`.  The index statistics are
    /// those of the grid [`GridIndex::build`](crate::GridIndex::build)
    /// lays over `dataset` at that granularity, which is the grid of the
    /// index an unsharded engine holds; a sharded engine holds none (its
    /// scatter never reads one) and plans from the same grid.  `O(1)`: the
    /// dataset caches its bounding box.
    ///
    /// There are no index statistics without a granularity, over an empty
    /// dataset, or at a granularity with a zero side (which the engine
    /// builder refuses).
    pub fn of(
        dataset: &Dataset,
        granularity: Option<(usize, usize)>,
        shards: Option<ShardFanOut>,
    ) -> Self {
        Self {
            object_count: dataset.len(),
            extent: dataset.bounding_box(),
            index: granularity.and_then(|(cols, rows)| {
                let spec = index_grid(dataset, cols, rows).ok()?;
                Some(IndexStatistics {
                    cols,
                    rows,
                    cell_width: spec.cell_width(),
                    cell_height: spec.cell_height(),
                    avg_objects_per_cell: dataset.len() as f64 / (cols * rows) as f64,
                })
            }),
            shards,
        }
    }
}

/// Why a plan chose its backend.  Every operation, MaxRS included, is
/// planned by the same rules (see [`Planner`]), so every reason applies to
/// every operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanReason {
    /// The request forced the backend via
    /// [`QueryRequest::with_backend`].
    ForcedByRequest,
    /// The dataset is small enough that the exhaustive oracle is cheapest.
    TinyDataset,
    /// The engine has no index statistics (no granularity, or an empty
    /// dataset), so GI-DS is unavailable.
    NoIndex,
    /// The query spans most of the indexed extent; index cells cannot be
    /// pruned, so the per-cell overhead of GI-DS does not pay off.
    QuerySpansExtent,
    /// The query is small relative to the indexed extent; index pruning
    /// applies.
    IndexPrunes,
}

impl fmt::Display for PlanReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let text = match self {
            PlanReason::ForcedByRequest => "backend forced by the request",
            PlanReason::TinyDataset => "dataset is tiny; the exhaustive oracle is cheapest",
            PlanReason::NoIndex => "no grid index; DS-Search is the only pruning backend",
            PlanReason::QuerySpansExtent => {
                "query spans most of the indexed extent; index cells cannot be pruned"
            }
            PlanReason::IndexPrunes => {
                "query is small relative to the indexed extent; index pruning applies"
            }
        };
        f.write_str(text)
    }
}

/// Estimated work per backend, in abstract rectangle-visit units.
///
/// `gi_ds` is `None` without index statistics.  The numbers justify a
/// plan in [`ExecutionPlan::explain`]; the decision itself is rule-based
/// (see [`Planner`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostEstimate {
    /// Estimated work of DS-Search: one discretise–split pass over the
    /// `n` rectangles plus the empty-region seed, `(n + 1) · log₂(n + 2)`.
    pub ds_search: f64,
    /// Estimated work of GI-DS: ranking every index cell plus a DS-Search
    /// pass over the cells the span ratio predicts will survive pruning.
    pub gi_ds: Option<f64>,
    /// Estimated work of the naive oracle: `(n + 1)²` arrangement probes.
    pub naive: f64,
}

/// A planned execution: the backend to run, why, and at what estimated
/// cost.  Produced by [`Planner::plan`] (usually via
/// [`AsrsEngine::plan`](crate::AsrsEngine::plan)); consumed by
/// [`AsrsEngine::submit`](crate::AsrsEngine::submit).
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionPlan {
    /// The chosen backend.
    pub backend: Backend,
    /// Why it was chosen.
    pub reason: PlanReason,
    /// Name of the planned operation (e.g. `"similar"`, `"max-rs"`).
    pub operation: &'static str,
    /// Estimated per-backend work.
    pub estimates: CostEstimate,
    /// Query-to-extent span ratio per axis the estimate used, when an
    /// index and a query size were available.
    pub span_ratio: Option<(f64, f64)>,
    /// Wall-clock budget the request carries, in milliseconds.
    pub budget_ms: Option<u64>,
    /// Scatter fan-out of a sharded engine, when planning for one.
    pub fan_out: Option<ShardFanOut>,
    /// Estimated work of the *chosen* backend (the admission-control
    /// input), in the same abstract units as [`CostEstimate`].
    pub chosen_cost: f64,
    /// The admission ceiling in force, if any (see
    /// [`Planner::cost_ceiling`]).
    pub cost_ceiling: Option<f64>,
}

impl ExecutionPlan {
    /// Admission control: rejects the plan when the chosen backend's cost
    /// estimate exceeds the engine's configured ceiling.  Executors call
    /// this *before* running the plan, so an extent-spanning query is
    /// turned away at the door (HTTP 429 at the serving layer) instead of
    /// starving the worker pool.  Planning itself never fails on the
    /// ceiling — `/explain` can still show *why* a request would be
    /// rejected.
    pub fn admit(&self) -> Result<(), crate::AsrsError> {
        match self.cost_ceiling {
            Some(ceiling) if self.chosen_cost > ceiling => {
                Err(crate::AsrsError::CostCeilingExceeded {
                    estimated: self.chosen_cost,
                    ceiling,
                })
            }
            _ => Ok(()),
        }
    }

    /// A human-readable summary of the choice and the estimated work.
    pub fn explain(&self) -> String {
        let mut out = format!(
            "plan[{}]: backend={} — {}",
            self.operation,
            self.backend.name(),
            self.reason
        );
        if let Some((sx, sy)) = self.span_ratio {
            out.push_str(&format!(
                "; query spans {:.1}% × {:.1}% of the indexed extent",
                sx * 100.0,
                sy * 100.0
            ));
        }
        out.push_str(&format!(
            "; estimated work: ds-search ≈ {:.3e}",
            self.estimates.ds_search
        ));
        match self.estimates.gi_ds {
            Some(gi) => out.push_str(&format!(", gi-ds ≈ {gi:.3e}")),
            None => out.push_str(", gi-ds unavailable (no index)"),
        }
        out.push_str(&format!(", naive ≈ {:.3e} units", self.estimates.naive));
        if let Some(fan_out) = self.fan_out {
            out.push_str(&format!(
                "; fan-out: scatter over {} of {} shards",
                fan_out.populated, fan_out.shards
            ));
        }
        if let Some(ceiling) = self.cost_ceiling {
            let verdict = if self.chosen_cost > ceiling {
                "REJECTED"
            } else {
                "admitted"
            };
            out.push_str(&format!(
                "; admission: chosen ≈ {:.3e} vs ceiling {:.3e} → {}",
                self.chosen_cost, ceiling, verdict
            ));
        }
        match self.budget_ms {
            Some(ms) => out.push_str(&format!("; budget: {ms} ms")),
            None => out.push_str("; budget: none"),
        }
        out
    }
}

/// Datasets with at most this many objects run the naive oracle unless the
/// request forces a backend: the oracle evaluates `(n+1)²` probes, which at
/// 16 objects is cheaper than one 30 × 30 discretisation.
const NAIVE_MAX_OBJECTS: usize = 16;

/// A query whose cell-expanded span covers at least this fraction of the
/// indexed extent on both axes runs DS-Search instead of GI-DS: at that
/// size, pruning bounds computed per index cell overlap on more than half
/// the extent and rarely discard anything.
const SPAN_THRESHOLD: f64 = 0.5;

/// The cost-based planner: decides which backend executes a
/// [`QueryRequest`].
///
/// The paper's central experimental result (Figs. 8–11) is that no single
/// backend dominates: GI-DS wins when the grid index can prune — small
/// queries relative to the indexed extent — while plain DS-Search wins
/// when a query spans most of the space (every index cell's bounding
/// region then covers nearly everything, so no cell can be pruned and the
/// per-cell machinery is pure overhead), and the exhaustive oracle is
/// cheapest on tiny datasets.  The planner encodes that decision so
/// callers no longer have to.
///
/// # Cost-model inputs
///
/// The model reads three statistics, all in [`EngineStatistics`], which
/// each generation derives from its dataset, index granularity and shards:
///
/// * **object count** `n` — every object contributes one ASP rectangle,
///   so `n` bounds the work of a discretisation round and `n²` the probe
///   count of the naive oracle;
/// * **density per index cell** — the average number of objects per grid
///   cell, which scales the per-cell DS-Search invocations GI-DS performs;
/// * **query-to-extent span ratio** — how much of the indexed extent a
///   candidate region (expanded by one index cell, the granularity at
///   which pruning operates) covers per axis.  This is the planner's proxy
///   for the fraction of index cells whose lower bound can survive pruning
///   (the paper's Table 1 ratio).
///
/// # Decision rules
///
/// The decision is deliberately rule-based — thresholds, not a simulated
/// execution:
///
/// 1. a backend forced by the request
///    ([`QueryRequest::with_backend`]) always wins;
/// 2. datasets with at most 16 objects (`NAIVE_MAX_OBJECTS`) run the
///    naive oracle (`(n + 1)²` probes beat building any search structure);
/// 3. without an index only DS-Search remains;
/// 4. with an index, a query whose cell-expanded span covers at least
///    half (`SPAN_THRESHOLD`) of the extent on *both* axes runs
///    DS-Search; anything smaller runs GI-DS.
///
/// MaxRS requests follow the same rules: they are the count reduction of
/// ASRS (Section 7.5), and every backend answers it.
///
/// # Assumptions
///
/// The work estimates reported by [`ExecutionPlan::explain`] use the same
/// statistics in abstract "rectangle visit" units; they are descriptive
/// (so `explain()` can justify the choice) rather than the decision
/// procedure itself.  All assumptions are heuristics tuned to the paper's
/// workloads: uniform-ish densities, queries at least an order of
/// magnitude smaller than the dataset extent in the common case.
///
/// The one deployment setting is the admission ceiling
/// ([`Planner::cost_ceiling`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Planner {
    /// Admission ceiling on the chosen backend's cost estimate, in the
    /// abstract rectangle-visit units of [`CostEstimate`]; a request whose
    /// estimate exceeds it is rejected with
    /// [`AsrsError::CostCeilingExceeded`]
    /// *before* execution (the serving layer answers HTTP 429).  `None`
    /// (the default) admits everything — backpressure alone bounds load.
    /// See [`EngineBuilder::cost_ceiling`](crate::EngineBuilder::cost_ceiling).
    pub cost_ceiling: Option<f64>,
}

impl Planner {
    /// Plans `request` against `stats`, honouring a backend the request
    /// forces.
    ///
    /// # Errors
    ///
    /// [`AsrsError::IndexRequired`] when GI-DS is forced without an index.
    pub fn plan(
        &self,
        stats: &EngineStatistics,
        request: &QueryRequest,
    ) -> Result<ExecutionPlan, AsrsError> {
        let span_ratio = self.span_ratio(stats, request.planning_size());
        let estimates = self.estimate(stats, span_ratio);
        let forced = request.forced_backend();
        let (backend, reason) = if let Some(backend) = forced {
            if backend == Backend::GiDs && stats.index.is_none() {
                return Err(AsrsError::IndexRequired { backend: "gi-ds" });
            }
            (backend, PlanReason::ForcedByRequest)
        } else if stats.object_count <= NAIVE_MAX_OBJECTS {
            (Backend::Naive, PlanReason::TinyDataset)
        } else if stats.index.is_none() {
            (Backend::DsSearch, PlanReason::NoIndex)
        } else {
            match span_ratio {
                Some((sx, sy)) if sx >= SPAN_THRESHOLD && sy >= SPAN_THRESHOLD => {
                    (Backend::DsSearch, PlanReason::QuerySpansExtent)
                }
                _ => (Backend::GiDs, PlanReason::IndexPrunes),
            }
        };

        let chosen_cost = match backend {
            Backend::DsSearch => estimates.ds_search,
            Backend::GiDs => estimates.gi_ds.unwrap_or(estimates.ds_search),
            Backend::Naive => estimates.naive,
        };
        Ok(ExecutionPlan {
            backend,
            reason,
            operation: request.operation_name(),
            estimates,
            span_ratio,
            budget_ms: request.budget_ms(),
            fan_out: stats.shards,
            chosen_cost,
            cost_ceiling: self.cost_ceiling,
        })
    }

    /// The fraction of the dataset extent a candidate region (expanded by
    /// one index cell) covers, per axis, clamped to 1.
    fn span_ratio(&self, stats: &EngineStatistics, size: Option<RegionSize>) -> Option<(f64, f64)> {
        let size = size?;
        let idx = stats.index.as_ref()?;
        let extent = stats.extent?;
        let (w, h) = (extent.width(), extent.height());
        if w <= 0.0 || h <= 0.0 {
            return Some((1.0, 1.0));
        }
        Some((
            ((size.width + idx.cell_width) / w).min(1.0),
            ((size.height + idx.cell_height) / h).min(1.0),
        ))
    }

    /// Work estimates in abstract rectangle-visit units (see
    /// [`CostEstimate`]).
    fn estimate(&self, stats: &EngineStatistics, span_ratio: Option<(f64, f64)>) -> CostEstimate {
        let n = stats.object_count as f64;
        let ds_search = (n + 1.0) * (n + 2.0).log2();
        let naive = (n + 1.0) * (n + 1.0);
        let gi_ds = stats.index.as_ref().map(|idx| {
            let cells = (idx.cols * idx.rows) as f64;
            let (sx, sy) = span_ratio.unwrap_or((0.5, 0.5));
            // Ranking every cell costs one suffix-table lookup each; the
            // surviving fraction (≈ the span the pruning bounds cannot
            // separate) then pays a DS-Search pass over its local
            // rectangles.
            let surviving = cells * (sx * sy).min(1.0);
            cells + surviving * (idx.avg_objects_per_cell + 1.0) * (n + 2.0).log2()
        });
        CostEstimate {
            ds_search,
            gi_ds,
            naive,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::AsrsQuery;
    use asrs_aggregator::{FeatureVector, Weights};

    fn stats(n: usize, with_index: bool) -> EngineStatistics {
        EngineStatistics {
            object_count: n,
            extent: Some(Rect::new(0.0, 0.0, 100.0, 100.0)),
            index: with_index.then(|| IndexStatistics {
                cols: 20,
                rows: 20,
                cell_width: 5.0,
                cell_height: 5.0,
                avg_objects_per_cell: n as f64 / 400.0,
            }),
            shards: None,
        }
    }

    fn similar(size: RegionSize) -> QueryRequest {
        QueryRequest::similar(AsrsQuery::new(
            size,
            FeatureVector::new(vec![1.0]),
            Weights::uniform(1),
        ))
    }

    #[test]
    fn tiny_query_on_an_indexed_engine_picks_gi_ds() {
        let plan = Planner::default()
            .plan(&stats(500, true), &similar(RegionSize::new(4.0, 4.0)))
            .unwrap();
        assert_eq!(plan.backend, Backend::GiDs);
        assert_eq!(plan.reason, PlanReason::IndexPrunes);
        assert!(plan.explain().contains("gi-ds"));
    }

    #[test]
    fn extent_spanning_query_picks_ds_search() {
        let plan = Planner::default()
            .plan(&stats(500, true), &similar(RegionSize::new(70.0, 70.0)))
            .unwrap();
        assert_eq!(plan.backend, Backend::DsSearch);
        assert_eq!(plan.reason, PlanReason::QuerySpansExtent);
    }

    #[test]
    fn index_less_engine_falls_back_to_ds_search() {
        let plan = Planner::default()
            .plan(&stats(500, false), &similar(RegionSize::new(4.0, 4.0)))
            .unwrap();
        assert_eq!(plan.backend, Backend::DsSearch);
        assert_eq!(plan.reason, PlanReason::NoIndex);
        assert!(plan.estimates.gi_ds.is_none());
        assert!(plan.explain().contains("unavailable"));
    }

    #[test]
    fn tiny_datasets_run_the_oracle() {
        let plan = Planner::default()
            .plan(&stats(10, true), &similar(RegionSize::new(4.0, 4.0)))
            .unwrap();
        assert_eq!(plan.backend, Backend::Naive);
        assert_eq!(plan.reason, PlanReason::TinyDataset);
    }

    #[test]
    fn request_override_beats_everything() {
        let req = similar(RegionSize::new(4.0, 4.0)).with_backend(Backend::Naive);
        let plan = Planner::default().plan(&stats(500, true), &req).unwrap();
        assert_eq!(plan.backend, Backend::Naive);
        assert_eq!(plan.reason, PlanReason::ForcedByRequest);
    }

    #[test]
    fn forced_gi_ds_without_an_index_errors() {
        let req = similar(RegionSize::new(4.0, 4.0)).with_backend(Backend::GiDs);
        assert_eq!(
            Planner::default()
                .plan(&stats(500, false), &req)
                .unwrap_err(),
            AsrsError::IndexRequired { backend: "gi-ds" }
        );
    }

    #[test]
    fn max_rs_follows_the_span_rule() {
        let small = QueryRequest::max_rs(RegionSize::new(4.0, 4.0));
        let plan = Planner::default().plan(&stats(500, true), &small).unwrap();
        assert_eq!(plan.backend, Backend::GiDs);
        assert_eq!(plan.reason, PlanReason::IndexPrunes);
        assert_eq!(plan.operation, "max-rs");

        let spanning = QueryRequest::max_rs_selective(
            RegionSize::new(70.0, 70.0),
            asrs_aggregator::Selection::All,
        );
        let plan = Planner::default()
            .plan(&stats(500, true), &spanning)
            .unwrap();
        assert_eq!(plan.backend, Backend::DsSearch);
        assert_eq!(plan.reason, PlanReason::QuerySpansExtent);

        let plan = Planner::default().plan(&stats(500, false), &small).unwrap();
        assert_eq!(plan.backend, Backend::DsSearch);
        assert_eq!(plan.reason, PlanReason::NoIndex);

        // A pinned backend is honoured, and GI-DS still needs an index.
        let pinned = small.clone().with_backend(Backend::DsSearch);
        let plan = Planner::default().plan(&stats(500, true), &pinned).unwrap();
        assert_eq!(plan.backend, Backend::DsSearch);
        assert_eq!(plan.reason, PlanReason::ForcedByRequest);
        assert_eq!(
            Planner::default()
                .plan(&stats(500, false), &small.with_backend(Backend::GiDs))
                .unwrap_err(),
            AsrsError::IndexRequired { backend: "gi-ds" }
        );
    }

    #[test]
    fn cost_ceiling_rejects_expensive_plans_before_execution() {
        let planner = Planner {
            cost_ceiling: Some(1.0),
        };
        let plan = planner
            .plan(&stats(500, true), &similar(RegionSize::new(4.0, 4.0)))
            .unwrap();
        // Planning itself succeeds (so /explain can justify the verdict)…
        assert!(plan.chosen_cost > 1.0);
        assert_eq!(plan.cost_ceiling, Some(1.0));
        assert!(plan.explain().contains("REJECTED"), "{}", plan.explain());
        // …but admission fails.
        assert!(matches!(
            plan.admit(),
            Err(crate::AsrsError::CostCeilingExceeded { .. })
        ));

        // A generous ceiling admits.
        let generous = Planner {
            cost_ceiling: Some(1e18),
        };
        let plan = generous
            .plan(&stats(500, true), &similar(RegionSize::new(4.0, 4.0)))
            .unwrap();
        assert!(plan.admit().is_ok());
        assert!(plan.explain().contains("admitted"), "{}", plan.explain());

        // No ceiling: everything admits, explain stays quiet about it.
        let plan = Planner::default()
            .plan(&stats(500, true), &similar(RegionSize::new(4.0, 4.0)))
            .unwrap();
        assert!(plan.admit().is_ok());
        assert!(!plan.explain().contains("admission"));
    }

    #[test]
    fn explain_names_backend_and_budget() {
        let req = similar(RegionSize::new(4.0, 4.0)).with_budget_ms(120);
        let plan = Planner::default().plan(&stats(500, true), &req).unwrap();
        let text = plan.explain();
        assert!(text.contains("backend=gi-ds"), "{text}");
        assert!(text.contains("120 ms"), "{text}");
        assert!(text.contains("similar"), "{text}");
    }
}
