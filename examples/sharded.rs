//! Sharded scatter-gather serving in five steps.
//!
//! Builds the same engine twice — single-shard baseline and 4-way sharded
//! — submits an identical mixed workload to both, and shows the parity
//! guarantee: stripped responses are byte-identical, while the statistics
//! report the actual scatter fan-out.
//!
//! ```text
//! cargo run --release --example sharded
//! ```

use asrs_suite::prelude::*;

fn main() {
    // 1. A clustered dataset plus the paper's F1-style aggregator.
    let dataset = TweetGenerator::compact(12).generate(3_000, 7);
    let aggregator = CompositeAggregator::builder(dataset.schema())
        .distribution("day_of_week", Selection::All)
        .build()
        .expect("schema has day_of_week");

    // 2. The parity baseline: the shard scatter with ONE shard.
    let baseline = AsrsEngine::builder(dataset.clone(), aggregator.clone())
        .shards(1)
        .build_index(24, 24)
        .build()
        .expect("baseline builds");

    // 3. The sharded engine: 4 spatial regions over the same instance.
    let sharded = AsrsEngine::builder(dataset.clone(), aggregator)
        .shards(4)
        .build_index(24, 24)
        .build()
        .expect("sharded engine builds");
    println!("shards: {}", sharded.shard_count());
    for (i, region) in sharded.shard_regions().unwrap().iter().enumerate() {
        println!("  shard {i}: region {region}");
    }

    // 4. An identical mixed workload against both engines.
    let bbox = dataset.bounding_box().unwrap();
    let example = Rect::new(
        bbox.min_x + bbox.width() * 0.40,
        bbox.min_y + bbox.height() * 0.40,
        bbox.min_x + bbox.width() * 0.48,
        bbox.min_y + bbox.height() * 0.47,
    );
    let query = baseline
        .query_from_example(&example)
        .expect("example query");
    let requests = vec![
        QueryRequest::similar(query.clone()),
        QueryRequest::top_k(query.clone(), 3),
        QueryRequest::max_rs(RegionSize::new(bbox.width() / 40.0, bbox.height() / 40.0)),
    ];
    for request in &requests {
        let plan = sharded.plan(request).expect("plan");
        println!("\n{}", plan.explain());
        let a = baseline.submit(request).expect("baseline answers");
        let b = sharded.submit(request).expect("sharded answers");
        // The parity guarantee: outcomes are byte-identical across shard
        // counts; only the execution statistics describe the decomposition.
        assert_eq!(
            serde::json::to_string(&a.stats_stripped()),
            serde::json::to_string(&b.stats_stripped()),
            "sharded outcome must be byte-identical to the baseline"
        );
        println!(
            "parity OK — backend {}, {} of {} shards touched",
            b.backend,
            b.stats.shards_touched,
            b.stats.shards_touched + b.stats.shards_pruned
        );
    }

    // 5. Serving is transparent: handles and the HTTP layer work unchanged,
    //    and /metrics exposes per-shard request counts.
    let counts = sharded.shard_request_counts().unwrap();
    println!("\nper-shard scattered executions: {counts:?}");
    println!("sharded demo OK");
}
