//! Serving end-to-end through the suite prelude: the HTTP layer and the
//! engine handle must answer identically, the query-result cache must be
//! observable through both, and batches must honour the per-query result
//! contract a server depends on.

use asrs_suite::prelude::*;

fn workload(n: usize, seed: u64) -> (Dataset, CompositeAggregator) {
    let ds = UniformGenerator::default().generate(n, seed);
    let agg = CompositeAggregator::builder(ds.schema())
        .distribution("category", Selection::All)
        .build()
        .unwrap();
    (ds, agg)
}

fn sample_query(i: u32) -> AsrsQuery {
    AsrsQuery::new(
        RegionSize::new(7.0 + i as f64, 9.0),
        FeatureVector::new(vec![i as f64, 2.0, 1.0, 0.0]),
        Weights::uniform(4),
    )
}

/// One engine, two surfaces: responses over the wire must be byte-identical
/// to handle submissions, and the cache must make repeats cheap and
/// observable through `/metrics` and `AsrsEngine::cache_stats` alike.
#[test]
fn http_and_handle_surfaces_answer_identically() {
    let (ds, agg) = workload(350, 61);
    let engine = AsrsEngine::builder(ds, agg)
        .build_index(20, 20)
        .cache_capacity(64)
        .build()
        .unwrap();
    let server = AsrsServer::bind(engine.handle(), "127.0.0.1:0", ServerConfig::default())
        .and_then(AsrsServer::start)
        .unwrap();

    let requests = vec![
        QueryRequest::similar(sample_query(1)),
        QueryRequest::top_k(sample_query(2), 3),
        QueryRequest::batch(vec![sample_query(1), sample_query(3)]),
        QueryRequest::max_rs(RegionSize::new(14.0, 14.0)),
    ];
    let mut client = HttpClient::connect(server.addr()).unwrap();
    for request in &requests {
        let (status, over_wire) = client
            .request("POST", "/query", &serde::json::to_string(request))
            .unwrap();
        assert_eq!(status, 200, "{over_wire}");
        // The wire answer populated the cache; the handle must replay the
        // exact same bytes.
        let direct = serde::json::to_string(&engine.handle().submit(request).unwrap());
        assert_eq!(over_wire, direct);
    }

    let cache = engine.handle().cache_stats().expect("cache attached");
    assert_eq!(cache.hits, requests.len() as u64);
    assert!(cache.hit_rate() > 0.0);
    let (status, metrics) = client.request("GET", "/metrics", "").unwrap();
    assert_eq!(status, 200);
    assert!(
        metrics.contains(&format!("\"hits\":{}", cache.hits)),
        "{metrics}"
    );

    drop(client);
    server.shutdown();
}

/// The batch contract of `submit`: one result per query, in input order,
/// each equal to the query submitted alone — on the engine and on a
/// cloned handle from another thread — and a batch holding an invalid
/// query fails as a whole.
#[test]
fn batch_results_expose_per_query_outcomes() {
    let (ds, agg) = workload(300, 11);
    let engine = AsrsEngine::builder(ds, agg)
        .build_index(24, 24)
        .build()
        .unwrap();
    let queries: Vec<AsrsQuery> = (1..=6).map(sample_query).collect();
    let request = QueryRequest::batch(queries.clone());

    let batch = engine.submit(&request).unwrap();
    assert!(matches!(batch.outcome, QueryOutcome::Batch(_)));
    assert_eq!(batch.results().len(), queries.len());
    for (result, query) in batch.results().iter().zip(&queries) {
        assert!(
            (result.region.width() - query.size.width).abs() < 1e-12,
            "result slot must answer the query at the same index"
        );
        let single = engine
            .submit(&QueryRequest::similar(query.clone()))
            .unwrap();
        let single = single.best().unwrap();
        assert_eq!(result.anchor, single.anchor);
        assert_eq!(result.distance, single.distance);
    }

    // Same answer through a handle, from another thread.
    let handle = engine.handle();
    let from_thread = std::thread::spawn(move || handle.submit(&request).unwrap())
        .join()
        .unwrap();
    assert_eq!(from_thread.stats_stripped(), batch.stats_stripped());

    // A batch containing an invalid query still fails as a whole, before
    // any search runs (validation is all-or-nothing).
    let bad = AsrsQuery::new(
        RegionSize::new(-1.0, 1.0),
        FeatureVector::new(vec![1.0, 1.0, 1.0, 1.0]),
        Weights::uniform(4),
    );
    assert!(matches!(
        engine.submit(&QueryRequest::batch(vec![sample_query(1), bad])),
        Err(AsrsError::Query(_))
    ));
}

/// Hammer a *sharded* engine handle from eight threads with a mixed
/// workload: every response must be deterministic across threads and
/// repetitions, and — because the cache was warmed first — must replay the
/// warm bytes exactly (statistics included).  This is the serving-side
/// guarantee of the shard scatter: concurrency and shard count
/// are invisible to clients.
#[test]
fn sharded_handles_are_deterministic_under_concurrency() {
    let (ds, agg) = workload(320, 23);
    let engine = AsrsEngine::builder(ds, agg)
        .shards(3)
        .build_index(16, 16)
        .cache_capacity(64)
        .build()
        .unwrap();
    assert_eq!(engine.shard_count(), 3);
    let handle = engine.handle();

    let requests: Vec<QueryRequest> = vec![
        QueryRequest::similar(sample_query(1)),
        QueryRequest::top_k(sample_query(2), 3),
        QueryRequest::batch(vec![sample_query(1), sample_query(4)]),
        QueryRequest::approximate(sample_query(3), 0.2),
        QueryRequest::max_rs(RegionSize::new(12.0, 12.0)),
        QueryRequest::similar(sample_query(5)).with_budget_ms(120_000),
    ];
    // Warm the cache serially so every concurrent submission below is a
    // replay (two simultaneous cold misses would both compute, and wall
    // clocks differ between computations).
    let warm: Vec<String> = requests
        .iter()
        .map(|r| serde::json::to_string(&handle.submit(r).unwrap()))
        .collect();

    let handle_ref = &handle;
    let outcomes: Vec<Vec<String>> = std::thread::scope(|scope| {
        (0..8)
            .map(|t| {
                let handle = handle_ref.clone();
                let requests = &requests;
                scope.spawn(move || {
                    let mut out = Vec::new();
                    for round in 0..4 {
                        for slot in 0..requests.len() {
                            // Interleave differently per thread/round.
                            let i = (slot + t + round) % requests.len();
                            let response = handle.submit(&requests[i]).unwrap();
                            out.push(format!("{i}:{}", serde::json::to_string(&response)));
                        }
                    }
                    out
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|j| j.join().unwrap())
            .collect()
    });
    for per_thread in &outcomes {
        for line in per_thread {
            let (i, body) = line.split_once(':').unwrap();
            let i: usize = i.parse().unwrap();
            assert_eq!(
                body, warm[i],
                "a concurrent replay must be byte-identical to the warm response"
            );
        }
    }
    // Every populated shard served scattered executions.
    let counts = handle.shard_request_counts().unwrap();
    assert_eq!(counts.len(), 3);
    assert!(counts.iter().all(|&c| c > 0), "{counts:?}");
}

/// The HTTP surface serves a sharded engine transparently and exposes the
/// per-shard request counters through `/metrics`.
#[test]
fn http_serves_sharded_engines_with_shard_metrics() {
    let (ds, agg) = workload(280, 31);
    let engine = AsrsEngine::builder(ds, agg)
        .shards(4)
        .build_index(16, 16)
        .cache_capacity(32)
        .build()
        .unwrap();
    let server = AsrsServer::bind(engine.handle(), "127.0.0.1:0", ServerConfig::default())
        .and_then(AsrsServer::start)
        .unwrap();
    let mut client = HttpClient::connect(server.addr()).unwrap();

    let request = QueryRequest::similar(sample_query(2));
    let (status, over_wire) = client
        .request("POST", "/query", &serde::json::to_string(&request))
        .unwrap();
    assert_eq!(status, 200, "{over_wire}");
    let direct = serde::json::to_string(&engine.handle().submit(&request).unwrap());
    assert_eq!(over_wire, direct, "wire and handle answers agree");

    let metrics = server.metrics();
    let shards = metrics
        .shards
        .expect("sharded engine exposes shard metrics");
    assert_eq!(shards.shard_count, 4);
    assert_eq!(shards.requests.len(), 4);
    assert!(shards.requests.iter().sum::<u64>() > 0);
    let (status, body) = client.request("GET", "/metrics", "").unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("\"shard_count\":4"), "{body}");

    // /explain names the scatter fan-out.
    let (status, body) = client
        .request("GET", "/explain", &serde::json::to_string(&request))
        .unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("shard_fan_out"), "{body}");

    drop(client);
    server.shutdown();
}

/// Deadlines behave identically over the wire and in process: a spent
/// budget is 408 on HTTP and `DeadlineExceeded` on the handle, and a
/// generous budget succeeds on both.
#[test]
fn deadlines_are_consistent_across_surfaces() {
    let (ds, agg) = workload(600, 17);
    let engine = AsrsEngine::builder(ds, agg)
        .build_index(16, 16)
        .build()
        .unwrap();
    let server = AsrsServer::bind(engine.handle(), "127.0.0.1:0", ServerConfig::default())
        .and_then(AsrsServer::start)
        .unwrap();
    let mut client = HttpClient::connect(server.addr()).unwrap();

    let expired = QueryRequest::similar(sample_query(1)).with_budget_ms(0);
    let (status, body) = client
        .request("POST", "/query", &serde::json::to_string(&expired))
        .unwrap();
    assert_eq!(status, 408, "{body}");
    assert!(matches!(
        engine.handle().submit(&expired),
        Err(AsrsError::DeadlineExceeded { .. })
    ));

    let generous = QueryRequest::similar(sample_query(1)).with_budget_ms(60_000);
    let (status, _) = client
        .request("POST", "/query", &serde::json::to_string(&generous))
        .unwrap();
    assert_eq!(status, 200);
    assert!(engine.handle().submit(&generous).is_ok());

    drop(client);
    server.shutdown();
}
