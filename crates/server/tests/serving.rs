//! End-to-end serving tests over real sockets: smoke round trips, error
//! mapping, and the concurrency/cache-identity guarantees of the satellite
//! task — N threads hammering engine clones and the HTTP endpoint
//! with a mixed workload must observe responses byte-identical to
//! single-threaded `submit`, with cache hits indistinguishable from cold
//! misses.

use asrs_aggregator::{CompositeAggregator, FeatureVector, Selection, Weights};
use asrs_core::{AsrsEngine, AsrsQuery, EngineBuilder, QueryRequest, QueryResponse};
use asrs_data::gen::UniformGenerator;
use asrs_geo::RegionSize;
use asrs_persist::{PersistExt, SnapshotReport};
use asrs_server::{AsrsServer, HttpClient, ServerConfig, ServerHandle};

fn builder(cache_capacity: usize) -> EngineBuilder {
    let ds = UniformGenerator::default().generate(400, 77);
    let agg = CompositeAggregator::builder(ds.schema())
        .distribution("category", Selection::All)
        .build()
        .unwrap();
    AsrsEngine::builder(ds, agg)
        .build_index(20, 20)
        .cache_capacity(cache_capacity)
}

fn engine(cache_capacity: usize) -> AsrsEngine {
    builder(cache_capacity).build().unwrap()
}

fn sample_query(i: u32) -> AsrsQuery {
    AsrsQuery::new(
        RegionSize::new(6.0 + i as f64, 8.0),
        FeatureVector::new(vec![i as f64, 2.0, 1.0, 0.0]),
        Weights::uniform(4),
    )
}

/// The mixed workload: every operation family, including budgeted
/// requests (generous budgets — these must all succeed).
fn mixed_requests() -> Vec<QueryRequest> {
    vec![
        QueryRequest::similar(sample_query(1)),
        QueryRequest::similar(sample_query(2)).with_budget_ms(60_000),
        QueryRequest::top_k(sample_query(3), 3),
        QueryRequest::approximate(sample_query(4), 0.25),
        QueryRequest::batch(vec![sample_query(1), sample_query(5)]),
        QueryRequest::max_rs(RegionSize::new(15.0, 15.0)),
    ]
}

fn start(engine: &AsrsEngine) -> ServerHandle {
    AsrsServer::bind(engine.handle(), "127.0.0.1:0", ServerConfig::default())
        .and_then(AsrsServer::start)
        .expect("server binds an ephemeral port")
}

#[test]
fn smoke_boot_round_trip_clean_shutdown() {
    let engine = engine(64);
    let server = start(&engine);
    let addr = server.addr();
    {
        let mut client = HttpClient::connect(addr).unwrap();
        let (status, body) = client.request("GET", "/healthz", "").unwrap();
        assert_eq!(status, 200, "{body}");

        let request = QueryRequest::similar(sample_query(1));
        let (status, body) = client
            .request("POST", "/query", &serde::json::to_string(&request))
            .unwrap();
        assert_eq!(status, 200, "{body}");
        let over_wire: QueryResponse = serde::json::from_str(&body).unwrap();
        // The first submission populated the cache, so the direct path
        // returns the stored response and both must agree exactly.
        let direct = engine.submit(&request).unwrap();
        assert_eq!(over_wire, direct);

        let (status, body) = client
            .request("GET", "/explain", &serde::json::to_string(&request))
            .unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("\"backend\":\"gi-ds\""), "{body}");
        assert!(body.contains("explanation"), "{body}");

        let (status, body) = client.request("GET", "/metrics", "").unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("\"queries_ok\":1"), "{body}");
        assert!(body.contains("\"cache\":"), "{body}");
    }
    server.shutdown();
    // A clean shutdown releases the port: fresh connections are refused
    // (or reset before a response).
    let late = HttpClient::connect(addr).and_then(|mut c| c.request("GET", "/healthz", ""));
    assert!(late.is_err(), "server must not answer after shutdown");
}

/// The JSON parser reads `1e999` as +∞.  Such an append is refused with
/// a 400 before it reaches the dataset (single and batched), and queries
/// keep answering — an accepted +∞ location used to make every later
/// search panic on its invalid ASP rectangle.
#[test]
fn a_non_finite_append_is_refused_and_the_server_keeps_serving() {
    let engine = engine(64);
    let server = start(&engine);
    let mut client = HttpClient::connect(server.addr()).unwrap();
    let template = engine.dataset().object(0).clone();
    let object = asrs_data::SpatialObject::new(
        100_000,
        asrs_geo::Point::new(50.0, 50.0),
        template.values.clone(),
    );
    let json = serde::json::to_string(&object);
    assert!(json.contains("\"x\":50.0"), "{json}");
    let infinite = json.replace("\"x\":50.0", "\"x\":1e999");
    for (path, body) in [
        ("/append", format!("{{\"object\":{infinite}}}")),
        (
            "/append_batch",
            format!("{{\"items\":[{{\"object\":{json}}},{{\"object\":{infinite}}}]}}"),
        ),
    ] {
        let (status, reply) = client.request("POST", path, &body).unwrap();
        assert_eq!(status, 400, "{path}: {reply}");
        assert!(reply.contains("non-finite-location"), "{path}: {reply}");
    }
    assert_eq!(engine.generation(), 0, "nothing was committed");
    assert_eq!(engine.dataset().len(), 400);

    let request = serde::json::to_string(&QueryRequest::similar(sample_query(3)));
    let (status, reply) = client.request("POST", "/query", &request).unwrap();
    assert_eq!(status, 200, "{reply}");
    drop(client);
    server.shutdown();
}

#[test]
fn mutation_endpoints_append_remove_sweep_and_report_generations() {
    let engine = engine(64);
    let server = start(&engine);
    let addr = server.addr();
    let mut client = HttpClient::connect(addr).unwrap();

    // The pre-mutation answer to a fixed request (also warms the cache).
    let request = QueryRequest::similar(sample_query(2));
    let body = serde::json::to_string(&request);
    let (status, before) = client.request("POST", "/query", &body).unwrap();
    assert_eq!(status, 200);

    // Append a valid object near the extent's middle.
    let template = engine.dataset().object(0).clone();
    let object = asrs_data::SpatialObject::new(
        100_000,
        asrs_geo::Point::new(50.0, 50.0),
        template.values.clone(),
    );
    let append = format!("{{\"object\":{}}}", serde::json::to_string(&object));
    let (status, receipt) = client.request("POST", "/append", &append).unwrap();
    assert_eq!(status, 200, "{receipt}");
    assert!(receipt.contains("\"generation\":1"), "{receipt}");
    assert!(receipt.contains("\"kind\":\"append\""), "{receipt}");

    // A duplicate id is a 409.
    let (status, body409) = client.request("POST", "/append", &append).unwrap();
    assert_eq!(status, 409, "{body409}");
    assert!(body409.contains("duplicate-object-id"), "{body409}");

    // The same query now answers from generation 1 — and must equal a
    // fresh engine rebuilt from the mutated dataset, not the stale cache.
    let (status, after) = client.request("POST", "/query", &body).unwrap();
    assert_eq!(status, 200);
    let rebuilt = AsrsEngine::builder((*engine.dataset()).clone(), (*engine.aggregator()).clone())
        .build_index(20, 20)
        .build()
        .unwrap();
    let after_response: QueryResponse = serde::json::from_str(&after).unwrap();
    let rebuilt_response = rebuilt.submit(&request).unwrap();
    assert_eq!(
        serde::json::to_string(&after_response.stats_stripped()),
        serde::json::to_string(&rebuilt_response.stats_stripped()),
        "post-append response must match a rebuilt engine"
    );
    let _ = before;

    // DELETE removes by id; a second DELETE of the same id is a 404.
    let (status, receipt) = client.request("DELETE", "/objects/100000", "").unwrap();
    assert_eq!(status, 200, "{receipt}");
    assert!(receipt.contains("\"generation\":2"), "{receipt}");
    let (status, missing) = client.request("DELETE", "/objects/100000", "").unwrap();
    assert_eq!(status, 404, "{missing}");
    assert!(missing.contains("unknown-object-id"), "{missing}");
    let (status, bad) = client
        .request("DELETE", "/objects/not-a-number", "")
        .unwrap();
    assert_eq!(status, 400, "{bad}");

    // TTL'd append + sweep: a zero TTL expires on the next sweep.
    let ttl_append = format!(
        "{{\"object\":{},\"ttl_ms\":0}}",
        serde::json::to_string(&asrs_data::SpatialObject::new(
            100_001,
            asrs_geo::Point::new(51.0, 51.0),
            template.values.clone(),
        ))
    );
    let (status, _) = client.request("POST", "/append", &ttl_append).unwrap();
    assert_eq!(status, 200);
    std::thread::sleep(std::time::Duration::from_millis(5));
    let (status, swept) = client.request("POST", "/sweep", "").unwrap();
    assert_eq!(status, 200, "{swept}");
    assert!(swept.contains("\"kind\":\"expire\""), "{swept}");
    assert!(swept.contains("\"id\":100001"), "{swept}");

    // /metrics reports the generation and the mutation counters.
    let (status, metrics) = client.request("GET", "/metrics", "").unwrap();
    assert_eq!(status, 200);
    assert!(metrics.contains("\"generation\":4"), "{metrics}");
    assert!(metrics.contains("\"appends\":2"), "{metrics}");
    assert!(metrics.contains("\"removes\":1"), "{metrics}");
    assert!(metrics.contains("\"expiries\":1"), "{metrics}");
    assert!(metrics.contains("\"mutations_ok\":4"), "{metrics}");
    assert!(
        metrics.contains("\"mutations_client_error\":3"),
        "{metrics}"
    );
    drop(client);
    server.shutdown();
}

/// A write to a warm cache shows up in the carry-pass metrics: every
/// published generation is one pass in the latency histogram, each pass's
/// R3 test settles the one window it examines, by the window's bound or by
/// a search, and a pass scans the size's accuracy only when it searches.
#[test]
fn carry_pass_metrics_follow_writes_to_a_warm_cache() {
    let engine = builder(64).shards(2).build().unwrap();
    let server = start(&engine);
    let mut client = HttpClient::connect(server.addr()).unwrap();
    let request = QueryRequest::similar(sample_query(2));
    let body = serde::json::to_string(&request);
    let template = engine.dataset().object(0).clone();
    for id in [100_000, 100_001] {
        // Warm the current generation, then write outside its answer.
        let (status, answer) = client.request("POST", "/query", &body).unwrap();
        assert_eq!(status, 200, "{answer}");
        let answer: QueryResponse = serde::json::from_str(&answer).unwrap();
        let region = match answer.outcome {
            asrs_core::QueryOutcome::Best(best) => best.region,
            other => panic!("unexpected outcome {other:?}"),
        };
        let location = [(25.0, 25.0), (75.0, 75.0), (25.0, 75.0)]
            .map(|(x, y)| asrs_geo::Point::new(x, y))
            .into_iter()
            .find(|p| !region.contains_point(p))
            .unwrap();
        let object = asrs_data::SpatialObject::new(id, location, template.values.clone());
        let append = format!("{{\"object\":{}}}", serde::json::to_string(&object));
        let (status, receipt) = client.request("POST", "/append", &append).unwrap();
        assert_eq!(status, 200, "{receipt}");
    }
    let (status, body) = client.request("GET", "/metrics", "").unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("\"carry_pass_latency_us\":{"), "{body}");
    let metrics = server.metrics();
    let passes = metrics.carry_pass_latency_us.expect("a cached engine");
    assert_eq!(passes.count, 2);
    assert_eq!(passes.counts.iter().sum::<u64>(), 2);
    assert_eq!(passes.counts.len(), passes.bounds.len() + 1);
    let cache = metrics.cache.expect("a cached engine");
    // One cached slot and one touched point per pass: two windows.
    assert_eq!(
        cache.carry_windows_bounded + cache.carry_windows_searched,
        2,
        "{body}"
    );
    assert!(body.contains("\"carry_windows_bounded\":"), "{body}");
    assert!(body.contains("\"carry_windows_searched\":"), "{body}");
    drop(client);
    server.shutdown();
}

#[test]
fn admission_ceiling_maps_to_http_429() {
    let ds = UniformGenerator::default().generate(400, 78);
    let agg = CompositeAggregator::builder(ds.schema())
        .distribution("category", Selection::All)
        .build()
        .unwrap();
    let engine = AsrsEngine::builder(ds, agg)
        .build_index(20, 20)
        .cost_ceiling(1.0) // everything costs more than one rectangle visit
        .build()
        .unwrap();
    let server = start(&engine);
    let mut client = HttpClient::connect(server.addr()).unwrap();
    let request = QueryRequest::similar(sample_query(1));
    let (status, body) = client
        .request("POST", "/query", &serde::json::to_string(&request))
        .unwrap();
    assert_eq!(status, 429, "{body}");
    assert!(body.contains("cost-ceiling-exceeded"), "{body}");
    // /explain still answers (planning never fails on the ceiling) and
    // names the rejection.
    let (status, body) = client
        .request("GET", "/explain", &serde::json::to_string(&request))
        .unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("REJECTED"), "{body}");
    drop(client);
    server.shutdown();
}

#[test]
fn engine_errors_map_to_http_statuses() {
    let engine = engine(0);
    let server = start(&engine);
    let mut client = HttpClient::connect(server.addr()).unwrap();

    // Malformed JSON → 400.
    let (status, body) = client.request("POST", "/query", "{not json").unwrap();
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("invalid-json"));

    // Semantically invalid query → 400.
    let bad = QueryRequest::similar(AsrsQuery::new(
        RegionSize::new(-3.0, 4.0),
        FeatureVector::new(vec![1.0, 1.0, 1.0, 1.0]),
        Weights::uniform(4),
    ));
    let (status, body) = client
        .request("POST", "/query", &serde::json::to_string(&bad))
        .unwrap();
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("invalid-query"));

    // Spent budget → 408.
    let expired = QueryRequest::similar(sample_query(1)).with_budget_ms(0);
    let (status, body) = client
        .request("POST", "/query", &serde::json::to_string(&expired))
        .unwrap();
    assert_eq!(status, 408, "{body}");
    assert!(body.contains("deadline-exceeded"));

    // Unknown route → 404; wrong method → 405.
    let (status, _) = client.request("GET", "/nope", "").unwrap();
    assert_eq!(status, 404);
    let (status, _) = client.request("GET", "/query", "").unwrap();
    assert_eq!(status, 405);

    let metrics = server.metrics();
    assert_eq!(metrics.queries_ok, 0);
    assert_eq!(metrics.queries_client_error, 3);
    assert_eq!(metrics.protocol_errors, 0);
    drop(client);
    server.shutdown();
}

/// The satellite concurrency test: a mixed workload hammered from many
/// threads over both surfaces (handle clones and HTTP), byte-identical to
/// the single-threaded baseline, cache hits indistinguishable from cold
/// misses, no deadline or deadlock regressions.
#[test]
fn concurrent_serving_is_byte_identical_to_sequential_submit() {
    let engine = engine(256);
    // Single-threaded baseline; these cold misses also populate the cache,
    // so every later answer — concurrent, cached, over the wire or not —
    // must serialize to exactly these bytes.
    let requests = mixed_requests();
    let baseline: Vec<String> = requests
        .iter()
        .map(|r| serde::json::to_string(&engine.submit(r).unwrap()))
        .collect();

    let server = start(&engine);
    let addr = server.addr();
    let handle = engine.handle();

    const THREADS: usize = 8;
    const ROUNDS: usize = 4;
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let requests = &requests;
            let baseline = &baseline;
            let handle = handle.clone();
            scope.spawn(move || {
                let mut client = HttpClient::connect(addr).expect("client connects");
                for round in 0..ROUNDS {
                    for (i, request) in requests.iter().enumerate() {
                        // Alternate surfaces so both are hammered in every
                        // schedule.
                        let json = if (t + round + i) % 2 == 0 {
                            let (status, body) = client
                                .request("POST", "/query", &serde::json::to_string(request))
                                .expect("request round-trips");
                            assert_eq!(status, 200, "thread {t}: {body}");
                            body
                        } else {
                            serde::json::to_string(&handle.submit(request).unwrap())
                        };
                        assert_eq!(
                            &json, &baseline[i],
                            "thread {t} round {round} request {i} diverged from the baseline"
                        );
                    }
                }
            });
        }
    });

    let metrics = server.metrics();
    assert_eq!(metrics.protocol_errors, 0);
    assert_eq!(metrics.queries_server_error, 0);
    assert_eq!(metrics.queries_client_error, 0);
    assert!(metrics.queries_ok > 0);
    let cache = metrics.cache.expect("engine has a cache");
    assert!(
        cache.hits >= (THREADS * ROUNDS * requests.len()) as u64,
        "repeated workload must be served from the cache (hits: {})",
        cache.hits
    );
    assert!(cache.hit_rate > 0.0);
    server.shutdown();
}

/// Without a cache, concurrent wire responses still agree with sequential
/// submission on everything deterministic (wall-clock stats aside).
#[test]
fn uncached_responses_agree_modulo_wall_clock() {
    let engine = engine(0);
    let request = QueryRequest::top_k(sample_query(2), 3);
    let direct = engine.submit(&request).unwrap();

    let server = start(&engine);
    let mut client = HttpClient::connect(server.addr()).unwrap();
    let (status, body) = client
        .request("POST", "/query", &serde::json::to_string(&request))
        .unwrap();
    assert_eq!(status, 200);
    let over_wire: QueryResponse = serde::json::from_str(&body).unwrap();
    assert_eq!(over_wire.backend, direct.backend);
    assert_eq!(over_wire.results().len(), direct.results().len());
    for (a, b) in over_wire.results().iter().zip(direct.results()) {
        assert_eq!(a.region, b.region);
        assert_eq!(a.anchor, b.anchor);
        assert_eq!(a.distance, b.distance);
        assert_eq!(a.representation, b.representation);
    }
    drop(client);
    server.shutdown();
}

/// With a persistence handle attached, `POST /snapshot` checkpoints the
/// current generation and compacts the write-ahead log, and `/metrics`
/// carries the persistence counters.
#[test]
fn snapshot_endpoint_checkpoints_through_the_persistence_handle() {
    let dir = std::env::temp_dir().join(format!("asrs-serving-snapshot-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let persistent = builder(64).persist_dir(&dir).build().unwrap();
    let server = AsrsServer::bind(persistent.handle(), "127.0.0.1:0", ServerConfig::default())
        .unwrap()
        .with_persistence(persistent.persist().clone())
        .start()
        .unwrap();
    let mut client = HttpClient::connect(server.addr()).unwrap();

    // One durable append leaves one frame for the checkpoint to fold in.
    let object = asrs_data::SpatialObject::new(
        100_000,
        asrs_geo::Point::new(50.0, 50.0),
        persistent.engine().dataset().object(0).values.clone(),
    );
    let append = format!("{{\"object\":{}}}", serde::json::to_string(&object));
    let (status, body) = client.request("POST", "/append", &append).unwrap();
    assert_eq!(status, 200, "{body}");
    assert_eq!(persistent.persist().stats().wal_entries, 1);

    let (status, body) = client.request("POST", "/snapshot", "").unwrap();
    assert_eq!(status, 200, "{body}");
    let report: SnapshotReport = serde::json::from_str(&body).unwrap();
    assert_eq!(report.generation, 1, "{body}");
    assert_eq!(report.wal_entries, 0, "the checkpoint compacts the log");

    let (status, metrics) = client.request("GET", "/metrics", "").unwrap();
    assert_eq!(status, 200);
    assert!(metrics.contains("\"persistence\":{"), "{metrics}");
    assert!(metrics.contains("\"snapshot_generation\":1"), "{metrics}");
    drop(client);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Without a persistence handle `POST /snapshot` is a 409 naming the
/// missing configuration, and the server keeps answering queries.
#[test]
fn snapshot_without_persistence_is_409_and_the_server_keeps_serving() {
    let engine = engine(0);
    let server = start(&engine);
    let mut client = HttpClient::connect(server.addr()).unwrap();
    let (status, body) = client.request("POST", "/snapshot", "").unwrap();
    assert_eq!(status, 409, "{body}");
    assert!(body.contains("persistence-not-configured"), "{body}");

    let request = QueryRequest::similar(sample_query(1));
    let (status, body) = client
        .request("POST", "/query", &serde::json::to_string(&request))
        .unwrap();
    assert_eq!(status, 200, "{body}");
    drop(client);
    server.shutdown();
}

#[test]
fn audit_endpoint_reports_clean_state_over_the_wire() {
    let engine = engine(16);
    let server = start(&engine);
    let mut client = HttpClient::connect(server.addr()).unwrap();

    let (status, body) = client.request("GET", "/audit", "").unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("\"findings\":[]"), "body: {body}");
    assert!(body.contains("\"generation\""), "body: {body}");
    assert!(body.contains("\"checks_run\""), "body: {body}");

    // The auditor only reads; only GET is routed.
    let (status, _) = client.request("POST", "/audit", "").unwrap();
    assert_eq!(status, 405);

    drop(client);
    server.shutdown();
}

/// A body nested past the JSON depth limit is a client error, not a stack
/// overflow: every JSON route answers 400, and the same connection then
/// serves a valid request.
#[test]
fn deeply_nested_bodies_are_rejected_and_the_server_keeps_serving() {
    let engine = engine(0);
    let server = start(&engine);
    let mut client = HttpClient::connect(server.addr()).unwrap();
    let deep = "[".repeat(200_000);
    for (method, path) in [
        ("POST", "/query"),
        ("POST", "/append"),
        ("POST", "/append_batch"),
    ] {
        let (status, body) = client.request(method, path, &deep).unwrap();
        assert_eq!(status, 400, "{path}: {body}");
        assert!(body.contains("nesting deeper"), "{path}: {body}");
    }
    let request = QueryRequest::similar(sample_query(1));
    let (status, body) = client
        .request("POST", "/query", &serde::json::to_string(&request))
        .unwrap();
    assert_eq!(status, 200, "{body}");
    drop(client);
    server.shutdown();
}
