//! The `AsrsEngine` entry point: backend parity across per-request
//! backend overrides, top-k ranking, thread-parallel batching, MaxRS
//! routing and boundary validation — all through `submit`.

use asrs_suite::prelude::*;

/// A shared workload: clustered tweets with the paper's F1-style
/// day-of-week aggregator plus a few hand-picked queries.
fn workload(n: usize, seed: u64) -> (Dataset, CompositeAggregator, Vec<AsrsQuery>) {
    let ds = TweetGenerator::compact(5).generate(n, seed);
    let agg = CompositeAggregator::builder(ds.schema())
        .distribution("day_of_week", Selection::All)
        .build()
        .unwrap();
    let queries = vec![
        AsrsQuery::new(
            RegionSize::new(100.0, 100.0),
            FeatureVector::new(vec![0.0, 0.0, 0.0, 0.0, 0.0, 5.0, 5.0]),
            Weights::new(vec![0.2, 0.2, 0.2, 0.2, 0.2, 0.5, 0.5]),
        ),
        AsrsQuery::new(
            RegionSize::new(150.0, 120.0),
            FeatureVector::new(vec![2.0, 2.0, 2.0, 2.0, 2.0, 0.0, 0.0]),
            Weights::uniform(7),
        ),
        AsrsQuery::new(
            RegionSize::new(60.0, 60.0),
            FeatureVector::new(vec![1.0, 0.0, 1.0, 0.0, 1.0, 3.0, 3.0]),
            Weights::uniform(7),
        ),
    ];
    (ds, agg, queries)
}

/// One indexed engine serves every backend: DS-Search and the naive
/// oracle ignore the index, GI-DS needs it.
fn indexed_engine(ds: &Dataset, agg: &CompositeAggregator) -> AsrsEngine {
    AsrsEngine::builder(ds.clone(), agg.clone())
        .build_index(24, 24)
        .build()
        .unwrap()
}

/// Submits `request` with `backend` forced and checks the response names
/// it.
fn forced(engine: &AsrsEngine, request: QueryRequest, backend: Backend) -> QueryResponse {
    let response = engine.submit(&request.with_backend(backend)).unwrap();
    assert_eq!(response.backend, backend, "the forced backend must run");
    response
}

fn best(response: &QueryResponse) -> &SearchResult {
    response
        .best()
        .expect("a similar request answers one region")
}

#[test]
fn every_strategy_returns_the_same_optimal_distance() {
    // The naive oracle is O(n²) probes, so keep the shared workload small;
    // it is still large enough that DS-Search prunes and splits.
    let (ds, agg, queries) = workload(90, 41);
    let engine = indexed_engine(&ds, &agg);
    for (qi, query) in queries.iter().enumerate() {
        let request = QueryRequest::similar(query.clone());
        let reference = forced(&engine, request.clone(), Backend::DsSearch);
        let reference = best(&reference);
        for backend in [Backend::DsSearch, Backend::GiDs, Backend::Naive] {
            let response = forced(&engine, request.clone(), backend);
            let result = best(&response);
            assert!(
                (result.distance - reference.distance).abs() < 1e-9,
                "query {qi}: {backend:?} found {} but DS-Search found {}",
                result.distance,
                reference.distance
            );
            // Every backend's answer must be internally consistent.
            let rep = agg.aggregate_region(&ds, &result.region);
            let d = agg.distance(&rep, &query.target, &query.weights, query.metric);
            assert!((d - result.distance).abs() < 1e-9);
        }
    }
}

#[test]
fn auto_strategy_matches_the_explicit_backends() {
    let (ds, agg, queries) = workload(600, 17);
    let auto_plain = AsrsEngine::builder(ds.clone(), agg.clone())
        .build()
        .unwrap();
    let auto_indexed = AsrsEngine::builder(ds.clone(), agg.clone())
        .build_index(32, 32)
        .build()
        .unwrap();
    for query in &queries {
        let request = QueryRequest::similar(query.clone());
        let a = auto_plain.submit(&request).unwrap();
        let b = auto_indexed.submit(&request).unwrap();
        assert_eq!(a.backend, Backend::DsSearch, "no index: DS-Search");
        assert!((best(&a).distance - best(&b).distance).abs() < 1e-9);
        // The planner's choice answers exactly like the same backend
        // forced by the request.
        let explicit = forced(&auto_indexed, request, b.backend);
        assert_eq!(explicit.stats_stripped(), b.stats_stripped());
    }
    // A small query on the indexed engine plans GI-DS.
    let small = QueryRequest::similar(queries[2].clone());
    assert_eq!(auto_indexed.plan(&small).unwrap().backend, Backend::GiDs);
}

#[test]
fn top_k_distances_are_monotone_in_k() {
    let (ds, agg, queries) = workload(300, 23);
    let engine = indexed_engine(&ds, &agg);
    for backend in [Backend::DsSearch, Backend::GiDs] {
        let query = &queries[0];
        let mut previous: Vec<SearchResult> = Vec::new();
        for k in 1..=6 {
            let top = forced(&engine, QueryRequest::top_k(query.clone(), k), backend)
                .results()
                .to_vec();
            assert!(!top.is_empty() && top.len() <= k);
            // Distances non-decreasing within one answer...
            for pair in top.windows(2) {
                assert!(
                    pair[0].distance <= pair[1].distance + 1e-12,
                    "{backend:?}: top-k must be sorted"
                );
                assert_ne!(pair[0].anchor, pair[1].anchor, "anchors must be distinct");
            }
            // ...and stable as k grows: the first |previous| entries keep
            // their distances (a larger k never improves an earlier rank).
            for (p, t) in previous.iter().zip(&top) {
                assert!(
                    (p.distance - t.distance).abs() < 1e-9,
                    "{backend:?}: rank distances must not change when k grows"
                );
            }
            previous = top;
        }
    }
}

#[test]
fn top_k_agrees_with_the_naive_oracle_on_distances() {
    // On small instances the k best distances of DS-Search and GI-DS must
    // match the exhaustive enumeration's k best, rank by rank.
    for seed in 1..=12 {
        let (ds, agg, queries) = workload(80, seed);
        let engine = indexed_engine(&ds, &agg);
        for (qi, query) in queries.iter().enumerate() {
            let request = QueryRequest::top_k(query.clone(), 4);
            let oracle = forced(&engine, request.clone(), Backend::Naive);
            let expected: Vec<f64> = oracle.results().iter().map(|r| r.distance).collect();
            for backend in [Backend::DsSearch, Backend::GiDs] {
                let got: Vec<f64> = forced(&engine, request.clone(), backend)
                    .results()
                    .iter()
                    .map(|r| r.distance)
                    .collect();
                assert_eq!(got.len(), expected.len(), "seed {seed} query {qi}");
                assert!(
                    got.iter().zip(&expected).all(|(a, b)| (a - b).abs() < 1e-9),
                    "seed {seed} query {qi} {backend:?}: {got:?} vs the oracle's {expected:?}"
                );
            }
        }
    }
}

/// The outcome bytes of a response: statistics and the reported backend
/// aside, everything a caller reads.
fn outcome_bytes(response: &QueryResponse) -> String {
    serde::json::to_string(&response.stats_stripped().outcome)
}

#[test]
fn every_plan_answers_similar_and_top_k_byte_identically() {
    // One kernel mode: forced DS-Search, GI-DS and the naive oracle, on an
    // unsharded engine and on the 2-shard scatter, report the same
    // anchors, distances and representations — ties included.
    for seed in 1..=12 {
        let (ds, agg, queries) = workload(80, seed);
        let unsharded = indexed_engine(&ds, &agg);
        let sharded = AsrsEngine::builder(ds.clone(), agg.clone())
            .build_index(24, 24)
            .shards(2)
            .build()
            .unwrap();
        for (qi, query) in queries.iter().enumerate() {
            for request in [
                QueryRequest::similar(query.clone()),
                QueryRequest::top_k(query.clone(), 4),
            ] {
                let reference =
                    outcome_bytes(&forced(&sharded, request.clone(), Backend::DsSearch));
                for engine in [&unsharded, &sharded] {
                    for backend in [Backend::DsSearch, Backend::GiDs, Backend::Naive] {
                        let got = outcome_bytes(&forced(engine, request.clone(), backend));
                        assert_eq!(
                            got,
                            reference,
                            "seed {seed} query {qi} {} {backend:?} on {} shard(s)",
                            request.operation_name(),
                            engine.shard_count()
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn max_rs_matches_the_oracle_under_heavy_ties() {
    // MaxRS is the request shape with the most tied candidates.  Its count
    // reduction (count aggregator, target one above the cardinality) runs
    // as a similar and a top-4 request through forced DS-Search, GI-DS and
    // the oracle, unsharded and on 2 shards; the MaxRS request itself runs
    // the DS-Search adaptation on both engines.  Every answer must be the
    // pinned oracle's, byte for byte.
    for seed in 1..=12 {
        let (ds, _, _) = workload(80, seed);
        let count = CompositeAggregator::builder(ds.schema())
            .count(Selection::All)
            .build()
            .unwrap();
        let unsharded = indexed_engine(&ds, &count);
        let sharded = AsrsEngine::builder(ds.clone(), count)
            .build_index(24, 24)
            .shards(2)
            .build()
            .unwrap();
        let target = ds.len() as f64 + 1.0;
        for (w, h) in [(30.0, 30.0), (60.0, 60.0), (100.0, 100.0), (150.0, 120.0)] {
            let size = RegionSize::new(w, h);
            let reduced =
                AsrsQuery::new(size, FeatureVector::new(vec![target]), Weights::uniform(1));
            let case = format!("seed {seed} size {w}x{h}");
            for request in [
                QueryRequest::similar(reduced.clone()),
                QueryRequest::top_k(reduced.clone(), 4),
            ] {
                let oracle = outcome_bytes(&forced(&unsharded, request.clone(), Backend::Naive));
                for engine in [&unsharded, &sharded] {
                    for backend in [Backend::DsSearch, Backend::GiDs, Backend::Naive] {
                        assert_eq!(
                            outcome_bytes(&forced(engine, request.clone(), backend)),
                            oracle,
                            "{case} {} {backend:?} on {} shard(s)",
                            request.operation_name(),
                            engine.shard_count()
                        );
                    }
                }
            }
            let oracle = forced(&unsharded, QueryRequest::similar(reduced), Backend::Naive);
            let oracle = best(&oracle);
            for engine in [&unsharded, &sharded] {
                let response = forced(engine, QueryRequest::max_rs(size), Backend::DsSearch);
                let answer = response.max_rs().unwrap();
                assert_eq!(
                    serde::json::to_string(&(answer.anchor, answer.region)),
                    serde::json::to_string(&(oracle.anchor, oracle.region)),
                    "{case} on {} shard(s)",
                    engine.shard_count()
                );
                assert_eq!(answer.count as f64, target - oracle.distance, "{case}");
            }
        }
    }
}

#[test]
fn a_pinned_oracle_runs_the_oracle_on_a_sharded_engine() {
    let (ds, agg, queries) = workload(80, 3);
    let unsharded = indexed_engine(&ds, &agg);
    let sharded = AsrsEngine::builder(ds, agg).shards(2).build().unwrap();
    for query in &queries {
        let request = QueryRequest::top_k(query.clone(), 3);
        let scattered = forced(&sharded, request.clone(), Backend::Naive);
        assert_eq!(scattered.stats.shards_touched, 0, "no slab ran");
        assert!(scattered.stats.fallback_points > 0, "the oracle probed");
        let oracle = forced(&unsharded, request, Backend::Naive);
        assert_eq!(
            serde::json::to_string(&scattered.stats_stripped()),
            serde::json::to_string(&oracle.stats_stripped())
        );
    }
}

#[test]
fn search_batch_is_order_preserving_and_parallel_safe() {
    let (ds, agg, mut queries) = workload(800, 31);
    // Widen the batch so several workers engage.
    for k in 2..10u32 {
        queries.push(AsrsQuery::new(
            RegionSize::new(40.0 + 10.0 * k as f64, 80.0),
            FeatureVector::new(vec![k as f64, 0.0, 0.0, 1.0, 0.0, 2.0, 2.0]),
            Weights::uniform(7),
        ));
    }
    let engine = AsrsEngine::builder(ds, agg)
        .build_index(32, 32)
        .build()
        .unwrap();
    let batch = engine
        .submit(&QueryRequest::batch(queries.clone()))
        .unwrap();
    assert_eq!(batch.results().len(), queries.len());
    for (query, result) in queries.iter().zip(batch.results()) {
        let sequential = engine
            .submit(&QueryRequest::similar(query.clone()))
            .unwrap();
        let sequential = best(&sequential);
        assert!(
            (sequential.distance - result.distance).abs() < 1e-9,
            "batch answers must match sequential answers in query order"
        );
    }
}

#[test]
fn sweep_baseline_plugs_in_as_an_external_backend() {
    let (ds, agg, queries) = workload(120, 37);
    let engine = AsrsEngine::builder(ds.clone(), agg.clone())
        .build()
        .unwrap();
    // The sweep-line baseline is a standalone solver over the same
    // dataset and aggregator; it must find the engine's optimum.
    let sweep = SweepBase::new(&ds, &agg);
    for query in &queries {
        let baseline = sweep.search(query).unwrap();
        let response = engine
            .submit(&QueryRequest::similar(query.clone()))
            .unwrap();
        assert!(
            (baseline.distance - best(&response).distance).abs() < 1e-9,
            "sweep-base backend must agree with DS-Search"
        );
    }
}

#[test]
fn maxrs_through_the_facade_matches_the_oe_baseline() {
    let (ds, agg, _) = workload(400, 43);
    let engine = AsrsEngine::builder(ds.clone(), agg).build().unwrap();
    let size = RegionSize::new(90.0, 90.0);
    let response = engine.submit(&QueryRequest::max_rs(size)).unwrap();
    let facade = response.max_rs().unwrap();
    let oe = OptimalEnclosure::new(&ds, size).search().unwrap();
    assert_eq!(facade.count, oe.count);
    assert_eq!(ds.count_strictly_in(&facade.region), facade.count);
}

#[test]
fn engine_boundary_rejects_malformed_queries_and_configs() {
    let (ds, agg, queries) = workload(50, 47);

    // Invalid config surfaces at build time.
    let bad = SearchConfig {
        nrows: 1,
        ..SearchConfig::default()
    };
    assert!(matches!(
        AsrsEngine::builder(ds.clone(), agg.clone())
            .config(bad)
            .build(),
        Err(AsrsError::Config(ConfigError::GridTooCoarse { .. }))
    ));

    let engine = AsrsEngine::builder(ds, agg).build().unwrap();
    let submit = |request: QueryRequest| engine.submit(&request);

    // GI-DS forced without an index surfaces at submission.
    assert!(matches!(
        submit(QueryRequest::similar(queries[0].clone()).with_backend(Backend::GiDs)),
        Err(AsrsError::IndexRequired { backend: "gi-ds" })
    ));

    // Dimension mismatch.
    let bad_dim = AsrsQuery::new(
        RegionSize::new(10.0, 10.0),
        FeatureVector::new(vec![1.0]),
        Weights::uniform(1),
    );
    assert!(matches!(
        submit(QueryRequest::similar(bad_dim.clone())),
        Err(AsrsError::Query(QueryError::TargetDimensionMismatch { .. }))
    ));

    // Degenerate size.
    let bad_size = AsrsQuery::new(
        RegionSize::new(0.0, 10.0),
        FeatureVector::zeros(7),
        Weights::uniform(7),
    );
    assert!(matches!(
        submit(QueryRequest::similar(bad_size)),
        Err(AsrsError::Query(QueryError::InvalidSize { .. }))
    ));

    // Negative weight (constructed via the raw tuple field, since the
    // checked constructors refuse it).
    let bad_weights = AsrsQuery::new(
        RegionSize::new(10.0, 10.0),
        FeatureVector::zeros(7),
        Weights(vec![-1.0; 7]),
    );
    assert!(matches!(
        submit(QueryRequest::similar(bad_weights)),
        Err(AsrsError::Query(QueryError::InvalidWeights))
    ));

    // k = 0 and a bad query inside a batch.
    assert!(matches!(
        submit(QueryRequest::top_k(queries[0].clone(), 0)),
        Err(AsrsError::InvalidTopK)
    ));
    assert!(submit(QueryRequest::batch(vec![queries[0].clone(), bad_dim])).is_err());
}
