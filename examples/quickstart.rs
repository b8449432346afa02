//! Quickstart: find the region most similar to an example region.
//!
//! Run with `cargo run --example quickstart --release`.
//!
//! The example builds a small synthetic POI dataset and drives everything
//! through the engine's declarative request/plan/execute API:
//! query-by-example, cost-based backend planning with `plan.explain()`,
//! `submit`, per-request deadlines, top-k and batch requests, and
//! concurrent submission through engine clones.

use asrs_suite::prelude::*;

fn main() {
    // 1. A synthetic dataset: 5,000 POIs with a categorical attribute.
    let dataset = UniformGenerator::default().generate(5_000, 42);
    println!(
        "dataset: {} objects over {}",
        dataset.len(),
        dataset.bounding_box().expect("non-empty dataset")
    );

    // 2. A composite aggregator describing which aspects of a region we
    //    care about — here, the distribution of POI categories.
    let aggregator = CompositeAggregator::builder(dataset.schema())
        .distribution("category", Selection::All)
        .build()
        .expect("schema has a 'category' attribute");

    // 3. The engine: owns dataset + aggregator and builds the grid index.
    //    Backends are chosen per request by the cost-based planner.
    let engine = AsrsEngine::builder(dataset, aggregator)
        .build_index(64, 64)
        .build()
        .expect("valid configuration and non-empty dataset");

    // 4. Query by example: "find me a region that looks like this one".
    let example = Rect::new(10.0, 10.0, 30.0, 25.0);
    let query = engine
        .query_from_example(&example)
        .expect("example region is non-degenerate");
    println!(
        "query region {} has representation {}",
        example, query.target
    );

    // 5. Plan, then submit.  The plan explains the cost model's choice;
    //    the response bundles results, backend and statistics.  A deadline
    //    guards against runaway queries — serving-style.
    let request = QueryRequest::similar(query.clone()).with_budget_ms(30_000);
    println!("{}", engine.plan(&request).expect("plannable").explain());
    let response = engine.submit(&request).expect("within budget");
    let best = response.best().expect("similar yields a best region");
    println!(
        "[{}] best region {} at distance {:.4} (searched {}/{} index cells, {:.1?})",
        response.backend,
        best.region,
        best.distance,
        response.stats.index_cells_searched,
        response.stats.index_cells_total,
        response.stats.elapsed
    );

    // 6. The same query with the backend forced to plain DS-Search must
    //    agree on the optimal distance — planning never costs answer
    //    quality (though tied optima may surface as different, equally
    //    optimal regions).  The un-indexed algorithm degrades on dense
    //    uniform data (that is what the grid index is for), so compare on
    //    a 1,500-object sample.
    let sample = UniformGenerator::default().generate(1_500, 42);
    let sample_engine = AsrsEngine::builder(sample, (*engine.aggregator()).clone())
        .build_index(64, 64)
        .build()
        .expect("valid configuration");
    let sample_query = sample_engine
        .query_from_example(&example)
        .expect("example region is non-degenerate");
    let planned = sample_engine
        .submit(&QueryRequest::similar(sample_query.clone()))
        .expect("valid request");
    let forced = sample_engine
        .submit(&QueryRequest::similar(sample_query).with_backend(Backend::DsSearch))
        .expect("valid request");
    println!(
        "planned [{}] distance {:.4} vs forced [{}] distance {:.4}",
        planned.backend,
        planned.best().unwrap().distance,
        forced.backend,
        forced.best().unwrap().distance
    );
    assert!((planned.best().unwrap().distance - forced.best().unwrap().distance).abs() < 1e-9);
    println!("both backends agree on the optimal distance ✓");

    // 7. The 3 best distinct anchors...
    let top = engine
        .submit(&QueryRequest::top_k(query.clone(), 3))
        .expect("k >= 1");
    for (rank, r) in top.results().iter().enumerate() {
        println!(
            "top-{}: {} at distance {:.4}",
            rank + 1,
            r.region,
            r.distance
        );
    }

    // ...and a thread-parallel batch of related queries, answered in input
    // order with merged statistics.
    let batch: Vec<AsrsQuery> = [8.0, 15.0, 25.0]
        .iter()
        .map(|side| {
            let region = Rect::new(40.0, 40.0, 40.0 + side, 40.0 + side);
            engine.query_from_example(&region).expect("non-degenerate")
        })
        .collect();
    let answers = engine
        .submit(&QueryRequest::batch(batch.clone()))
        .expect("all queries are valid");
    println!(
        "batch: {} queries answered, {} sub-spaces processed in total",
        answers.results().len(),
        answers.stats.spaces_processed
    );
    for (q, a) in batch.iter().zip(answers.results()) {
        println!("  {} → {} at distance {:.4}", q.size, a.region, a.distance);
    }

    // 8. Concurrency: cheap handles share the engine across threads.
    let handle = engine.handle();
    let concurrent: Vec<f64> = std::thread::scope(|scope| {
        (0..4)
            .map(|_| {
                let handle = handle.clone();
                let query = query.clone();
                scope.spawn(move || {
                    handle
                        .submit(&QueryRequest::similar(query))
                        .expect("valid request")
                        .best()
                        .expect("similar yields a best region")
                        .distance
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|j| j.join().expect("worker thread"))
            .collect()
    });
    assert!(concurrent.iter().all(|d| (d - best.distance).abs() < 1e-12));
    println!(
        "{} concurrent handle submissions agree with the sequential answer ✓",
        concurrent.len()
    );
}
