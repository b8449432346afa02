//! The request/plan/execute API: planner decisions, JSON round-trips of
//! requests and responses, deadlines, and concurrent use of engine clones.

use asrs_suite::prelude::*;
use std::time::Duration;

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
        RegionSize::new(8.0 + i as f64, 10.0),
        FeatureVector::new(vec![i as f64, 2.0, 1.0, 0.0]),
        Weights::uniform(4),
    )
}

/// The approximate variant honours the (1+δ) guarantee through `submit`
/// and rejects invalid deltas.
#[test]
fn approximate_requests_respect_the_guarantee() {
    let (ds, agg) = workload(400, 71);
    let engine = AsrsEngine::builder(ds, agg)
        .build_index(24, 24)
        .build()
        .unwrap();
    let q = sample_query(2);
    let exact = engine
        .submit(&QueryRequest::similar(q.clone()))
        .unwrap()
        .best()
        .unwrap()
        .distance;
    for delta in [0.1, 0.4] {
        let approx = engine
            .submit(&QueryRequest::approximate(q.clone(), delta))
            .unwrap()
            .best()
            .unwrap()
            .distance;
        assert!(approx <= (1.0 + delta) * exact + 1e-9);
        assert!(approx + 1e-9 >= exact);
    }
    assert!(matches!(
        engine.submit(&QueryRequest::approximate(q, -0.5)),
        Err(AsrsError::Config(_))
    ));
}

/// A response carries one statistics record whatever its operation: the
/// regions of a best, ranked, batch or MaxRS outcome carry none.
#[test]
fn every_response_serialises_one_stats_record() {
    let (ds, agg) = workload(300, 5);
    let engine = AsrsEngine::builder(ds, agg)
        .build_index(16, 16)
        .build()
        .unwrap();
    let requests = [
        QueryRequest::similar(sample_query(1)),
        QueryRequest::top_k(sample_query(2), 3),
        QueryRequest::batch(vec![sample_query(1), sample_query(3)]),
        QueryRequest::max_rs(RegionSize::new(10.0, 10.0)),
    ];
    for request in &requests {
        let response = engine.submit(request).unwrap();
        let json = serde::json::to_string(&response);
        assert_eq!(
            json.matches("\"stats\"").count(),
            1,
            "{}: {json}",
            request.operation_name()
        );
    }
    let top3 = engine.submit(&requests[1]).unwrap();
    assert_eq!(top3.results().len(), 3);
}

/// Acceptance criterion: two requests plan differently on the same engine
/// and `plan.explain()` names the chosen backend both times.
#[test]
fn requests_plan_differently_on_the_same_engine() {
    // Extent ~100 × 100 with a 20 × 20 index (5-unit cells).
    let (ds, agg) = workload(500, 83);
    let engine = AsrsEngine::builder(ds, agg)
        .build_index(20, 20)
        .build()
        .unwrap();

    let tiny = QueryRequest::similar(sample_query(1)); // 9 × 10 region
    let tiny_plan = engine.plan(&tiny).unwrap();
    assert_eq!(tiny_plan.backend, Backend::GiDs);
    assert!(
        tiny_plan.explain().contains("gi-ds"),
        "{}",
        tiny_plan.explain()
    );

    let huge = QueryRequest::similar(AsrsQuery::new(
        RegionSize::new(80.0, 80.0),
        FeatureVector::new(vec![5.0, 5.0, 5.0, 5.0]),
        Weights::uniform(4),
    ));
    let huge_plan = engine.plan(&huge).unwrap();
    assert_eq!(huge_plan.backend, Backend::DsSearch);
    assert!(
        huge_plan.explain().contains("ds-search"),
        "{}",
        huge_plan.explain()
    );
    assert_ne!(tiny_plan.backend, huge_plan.backend);

    // The plans are what submit actually executes.
    assert_eq!(engine.submit(&tiny).unwrap().backend, Backend::GiDs);
    assert_eq!(engine.submit(&huge).unwrap().backend, Backend::DsSearch);
}

/// Satellite: planner decisions — index-less fallback and forced-backend
/// override (the tiny-query-on-dense-grid case is covered above).
#[test]
fn planner_falls_back_and_honours_overrides() {
    let (ds, agg) = workload(500, 83);

    // No index → DS-Search, and gi-ds cannot be forced.
    let plain = AsrsEngine::builder(ds.clone(), agg.clone())
        .build()
        .unwrap();
    let req = QueryRequest::similar(sample_query(1));
    let plan = plain.plan(&req).unwrap();
    assert_eq!(plan.backend, Backend::DsSearch);
    assert_eq!(plan.reason, PlanReason::NoIndex);
    assert!(matches!(
        plain.plan(&req.clone().with_backend(Backend::GiDs)),
        Err(AsrsError::IndexRequired { .. })
    ));

    // A forced backend is honoured even when the cost model disagrees.
    let indexed = AsrsEngine::builder(ds, agg)
        .build_index(20, 20)
        .build()
        .unwrap();
    let forced = req.clone().with_backend(Backend::DsSearch);
    let plan = indexed.plan(&forced).unwrap();
    assert_eq!(plan.backend, Backend::DsSearch);
    assert_eq!(plan.reason, PlanReason::ForcedByRequest);
    let response = indexed.submit(&forced).unwrap();
    assert_eq!(response.backend, Backend::DsSearch);
    // Forcing must not change the answer, only the route.
    let auto = indexed.submit(&req).unwrap();
    assert!((auto.best().unwrap().distance - response.best().unwrap().distance).abs() < 1e-9);
}

/// Satellite: request/response JSON round-trips, including the
/// approximate-delta and selective-MaxRS variants.
#[test]
fn requests_and_responses_round_trip_through_json() {
    let requests = vec![
        QueryRequest::similar(sample_query(1)),
        QueryRequest::top_k(sample_query(2), 7),
        QueryRequest::batch(vec![sample_query(1), sample_query(2)]),
        QueryRequest::approximate(sample_query(3), 0.35),
        QueryRequest::max_rs(RegionSize::new(12.0, 9.0)),
        QueryRequest::max_rs_selective(
            RegionSize::new(12.0, 9.0),
            Selection::cat_in(0, vec![1, 3]),
        ),
        QueryRequest::similar(sample_query(4))
            .with_budget_ms(1_500)
            .with_backend(Backend::DsSearch),
    ];
    for request in &requests {
        let json = serde::json::to_string(request);
        let back: QueryRequest = serde::json::from_str(&json).unwrap();
        assert_eq!(&back, request, "request round trip failed: {json}");
    }

    // A full response — including stats and the MaxRS shape — survives
    // the wire, so results can be cached and replayed.
    let (ds, agg) = workload(200, 5);
    let engine = AsrsEngine::builder(ds, agg)
        .build_index(10, 10)
        .build()
        .unwrap();
    for request in [
        QueryRequest::similar(sample_query(1)),
        QueryRequest::top_k(sample_query(2), 3),
        QueryRequest::max_rs_selective(RegionSize::new(20.0, 20.0), Selection::cat_equals(0, 0)),
    ] {
        let response = engine.submit(&request).unwrap();
        let json = serde::json::to_string(&response);
        let back: QueryResponse = serde::json::from_str(&json).unwrap();
        assert_eq!(back, response, "response round trip failed");
    }
}

/// Satellite: malformed payloads are rejected rather than mis-decoded.
#[test]
fn invalid_request_payloads_are_rejected() {
    // Unknown variant.
    assert!(serde::json::from_str::<QueryRequest>("{\"Frobnicate\":{}}").is_err());
    // Wrong payload type for a known variant.
    assert!(serde::json::from_str::<QueryRequest>("{\"TopK\":{\"query\":3,\"k\":1}}").is_err());
    // Structurally broken JSON.
    assert!(serde::json::from_str::<QueryRequest>("{\"Similar\":").is_err());
    // A bare string is not a data-carrying request.
    assert!(serde::json::from_str::<QueryRequest>("\"Similar\"").is_err());
    // k of the wrong type.
    assert!(serde::json::from_str::<QueryRequest>(
        "{\"TopK\":{\"query\":{\"size\":{\"width\":1.0,\"height\":1.0},\
         \"target\":[1.0],\"weights\":[1.0],\"metric\":\"L1\"},\"k\":\"three\"}}"
    )
    .is_err());

    // A deserialized-but-semantically-invalid request still fails at
    // submission, not silently.
    let (ds, agg) = workload(60, 9);
    let engine = AsrsEngine::builder(ds, agg).build().unwrap();
    let bad: QueryRequest = serde::json::from_str(
        "{\"Similar\":{\"query\":{\"size\":{\"width\":-4.0,\"height\":1.0},\
         \"target\":[1.0,1.0,1.0,1.0],\"weights\":[1.0,1.0,1.0,1.0],\"metric\":\"L1\"}}}",
    )
    .unwrap();
    assert!(matches!(
        engine.submit(&bad),
        Err(AsrsError::Query(QueryError::InvalidSize { .. }))
    ));
}

/// Requests with an exhausted budget abort with `DeadlineExceeded` on
/// every operation family.
#[test]
fn deadlines_abort_every_operation() {
    let (ds, agg) = workload(900, 17);
    let engine = AsrsEngine::builder(ds, agg)
        .build_index(24, 24)
        .build()
        .unwrap();
    let expired = |req: QueryRequest| {
        matches!(
            engine.submit(&req.with_budget_ms(0)),
            Err(AsrsError::DeadlineExceeded {
                budget: Duration::ZERO
            })
        )
    };
    assert!(expired(QueryRequest::similar(sample_query(1))));
    assert!(expired(QueryRequest::top_k(sample_query(1), 3)));
    assert!(expired(QueryRequest::batch(vec![sample_query(1)])));
    assert!(expired(QueryRequest::max_rs(RegionSize::new(10.0, 10.0))));
}

/// Many cloned handles submitting from separate threads agree exactly
/// with the engine answering sequentially.
#[test]
fn concurrent_handles_agree_with_sequential_submission() {
    let (ds, agg) = workload(300, 23);
    let engine = AsrsEngine::builder(ds, agg)
        .build_index(16, 16)
        .build()
        .unwrap();
    let queries: Vec<AsrsQuery> = (1..=8).map(sample_query).collect();
    let sequential: Vec<SearchResult> = queries
        .iter()
        .map(|q| {
            let response = engine.submit(&QueryRequest::similar(q.clone())).unwrap();
            response.results()[0].clone()
        })
        .collect();

    let handle = engine.handle();
    drop(engine); // handles keep the shared core alive on their own
    let concurrent: Vec<SearchResult> = std::thread::scope(|scope| {
        queries
            .iter()
            .map(|q| {
                let handle = handle.clone();
                scope.spawn(move || {
                    let response = handle.submit(&QueryRequest::similar(q.clone())).unwrap();
                    response.results()[0].clone()
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|j| j.join().unwrap())
            .collect()
    });
    for (a, b) in sequential.iter().zip(&concurrent) {
        assert_eq!(a.region, b.region);
        assert_eq!(a.anchor, b.anchor);
        assert_eq!(a.distance, b.distance);
    }
}
