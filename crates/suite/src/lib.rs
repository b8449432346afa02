//! Umbrella crate wiring the repository-level `examples/` and `tests/`
//! directories into the cargo workspace.
//!
//! The crate re-exports the public API of every workspace crate through
//! [`prelude`], so examples and integration tests can start with a single
//! `use asrs_suite::prelude::*;`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

/// One-stop imports for examples and integration tests.
pub mod prelude {
    pub use asrs_aggregator::{
        distance_lower_bound, weighted_distance, AggregatorKind, AggregatorSpec,
        CompositeAggregator, DistanceMetric, FeatureVector, Selection, Weights,
    };
    pub use asrs_baseline::{naive, segment_tree::MaxAddSegmentTree, OptimalEnclosure, SweepBase};
    pub use asrs_core::{
        AsrsEngine, AsrsError, AsrsQuery, Backend, Budget, CacheStats, ConfigError, CostEstimate,
        EngineBuilder, EngineHandle, EngineStatistics, ExecutionPlan, GridIndex, IndexMaintenance,
        IndexStatistics, MaxRsResult, MutationReceipt, MutationStats, NaiveSearch, PlanReason,
        Planner, QueryCache, QueryError, QueryOutcome, QueryRequest, QueryResponse, RequestKey,
        SearchConfig, SearchResult, SearchStats, ShardFanOut,
    };
    pub use asrs_data::gen::{
        CityGenerator, CityMap, ClusteredGenerator, District, PoiSynGenerator, TweetGenerator,
        UniformGenerator, CITY_CATEGORIES, WEEKDAY_LABELS,
    };
    pub use asrs_data::{
        AttrValue, AttributeDef, AttributeKind, Dataset, DatasetBuilder, Mutation, Schema,
        SpatialObject, SpatialPartition,
    };
    pub use asrs_geo::{Accuracy, GridSpec, Point, Rect, RegionSize};
    pub use asrs_persist::{
        BootReport, PersistError, PersistExt, PersistHandle, PersistStats, PersistentBuilder,
        PersistentEngine, SnapshotFile, SnapshotReport, Wal, WalEntry, WalRecovery,
    };
    pub use asrs_server::{
        AsrsServer, CacheSnapshot, HttpClient, MetricsSnapshot, ServerConfig, ServerHandle,
        ShardsSnapshot, SweeperSnapshot,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_exposes_the_main_types() {
        use crate::prelude::*;
        let ds = UniformGenerator::default().generate(10, 1);
        let agg = CompositeAggregator::builder(ds.schema())
            .distribution("category", Selection::All)
            .build()
            .unwrap();
        assert_eq!(agg.feature_dim(), 4);
        let _ = RegionSize::new(1.0, 1.0);
    }
}
