//! MaxRS via the ASRS count reduction vs the Optimal Enclosure sweep line
//! (Section 7.5), driven through the engine's declarative `submit` API.
//!
//! Run with `cargo run --example maxrs_demo --release`.

use asrs_suite::prelude::*;
use std::time::Instant;

fn main() {
    let dataset = TweetGenerator::compact(12).generate(30_000, 11);
    println!("dataset: {} objects", dataset.len());
    let size = RegionSize::new(20.0, 20.0);

    // MaxRS is a counting problem, so the engine only needs a count
    // aggregator.  The planner routes MaxRS like any request: with an index
    // and a small region, to GI-DS.
    let aggregator = CompositeAggregator::builder(dataset.schema())
        .count(Selection::All)
        .build()
        .expect("count works on every schema");
    let engine = AsrsEngine::builder(dataset.clone(), aggregator)
        .build_index(64, 64)
        .build()
        .expect("valid configuration");

    let request = QueryRequest::max_rs(size);
    println!("{}", engine.plan(&request).expect("plannable").explain());

    let started = Instant::now();
    let response = engine.submit(&request).expect("valid request");
    let asrs_time = started.elapsed();
    let asrs_result = response.max_rs().expect("max-rs outcome").clone();

    // The O(n log n) Optimal Enclosure baseline.
    let started = Instant::now();
    let oe_result = OptimalEnclosure::new(&dataset, size).search().unwrap();
    let oe_time = started.elapsed();

    println!(
        "\n{} (MaxRS): {} objects in {}",
        response.backend.name(),
        asrs_result.count,
        asrs_result.region
    );
    println!("                   {:?}", asrs_time);
    println!(
        "Optimal Enclosure: {} objects in {}",
        oe_result.count, oe_result.region
    );
    println!("                   {:?}", oe_time);

    assert_eq!(
        asrs_result.count, oe_result.count,
        "both algorithms are exact"
    );
    println!("\nboth algorithms agree on the maximum count ✓");

    // The class-constrained variant: densest region of weekend posts only,
    // with a per-request deadline as a serving-style safety net.
    let weekend = engine
        .submit(
            &QueryRequest::max_rs_selective(size, Selection::cat_in(0, vec![5, 6]))
                .with_budget_ms(30_000),
        )
        .expect("within budget");
    let weekend_only = weekend.max_rs().expect("max-rs outcome");
    println!(
        "densest weekend-post region: {} posts in {} ({} fallback probes)",
        weekend_only.count, weekend_only.region, weekend.stats.fallback_points
    );
}
