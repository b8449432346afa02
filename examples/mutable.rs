//! Generational mutable engine demo: live appends, TTL expiry, removals,
//! a shard layout no mutation changes, and the rebuild-equivalence check.
//!
//! ```text
//! cargo run --release --example mutable
//! ```
//!
//! Boots a sharded, cached engine over a synthetic city, streams
//! mutations at it while a reader thread keeps querying, then proves the
//! mutated engine answers byte-identically to a fresh engine rebuilt from
//! the final dataset.  Exits non-zero if any invariant fails.

use asrs_suite::prelude::*;
use std::sync::Arc;

fn main() {
    let ds = UniformGenerator::default().generate(2_000, 42);
    let agg = CompositeAggregator::builder(ds.schema())
        .distribution("category", Selection::All)
        .build()
        .unwrap();
    let engine = AsrsEngine::builder(ds.clone(), agg.clone())
        .build_index(24, 24)
        .shards(4)
        .cache_capacity(256)
        .build()
        .unwrap();
    let bbox = ds.bounding_box().unwrap();
    let template = ds.object(0).clone();
    let regions = engine.shard_regions().unwrap();

    println!(
        "engine: {} objects, {} shards, generation {}",
        engine.dataset().len(),
        engine.shard_count(),
        engine.generation()
    );

    // A reader hammers the engine while the writer mutates: queries must
    // never fail, whatever generation they land on.
    let handle = engine.handle();
    let query = handle
        .query_from_example(&Rect::new(
            bbox.min_x + bbox.width() * 0.2,
            bbox.min_y + bbox.height() * 0.2,
            bbox.min_x + bbox.width() * 0.35,
            bbox.min_y + bbox.height() * 0.35,
        ))
        .unwrap();
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let reader = {
        let handle = handle.clone();
        let query = query.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut served = 0u64;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                handle
                    .submit(&QueryRequest::similar(query.clone()))
                    .expect("queries never fail across generations");
                served += 1;
            }
            served
        })
    };

    // The writer: interior appends, a TTL'd batch, removals.
    for i in 0..300u64 {
        let f = (i as f64 * 0.618_033_988_75).fract();
        let g = (i as f64 * 0.414_213_562_37).fract();
        let object = SpatialObject::new(
            1_000_000 + i,
            Point::new(
                bbox.min_x + bbox.width() * f,
                bbox.min_y + bbox.height() * g,
            ),
            template.values.clone(),
        );
        if i % 10 == 3 {
            handle
                .append_with_ttl(object, std::time::Duration::from_millis(1))
                .unwrap();
        } else {
            handle.append(object).unwrap();
        }
        if i % 7 == 0 {
            handle.remove(i * 3 % 2_000).ok();
        }
    }
    std::thread::sleep(std::time::Duration::from_millis(5));
    let expired = handle.sweep_expired().unwrap();
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let served = reader.join().unwrap();

    let stats = engine.mutation_stats();
    println!(
        "writer done: generation {}, {} objects, {} appends / {} removes / {} expiries",
        stats.generation, stats.object_count, stats.appends, stats.removes, stats.expiries
    );
    println!(
        "shard layout: {} regions, unchanged by the writer",
        regions.len()
    );
    println!("reader served {served} queries concurrently with the writer");
    assert!(expired.iter().all(|r| r.kind == "expire"));
    assert!(stats.expiries > 0, "the TTL batch must have expired");
    assert_eq!(
        engine.shard_regions().unwrap(),
        regions,
        "mutations never re-partition"
    );

    // Rebuild equivalence: a fresh engine from the final dataset answers
    // byte-identically (statistics stripped — they describe the run).
    let rebuilt = AsrsEngine::builder((*engine.dataset()).clone(), agg)
        .build_index(24, 24)
        .shards(4)
        .build()
        .unwrap();
    for (label, request) in [
        ("similar", QueryRequest::similar(query.clone())),
        ("top-k", QueryRequest::top_k(query.clone(), 3)),
        (
            "max-rs",
            QueryRequest::max_rs(RegionSize::new(bbox.width() / 40.0, bbox.height() / 40.0)),
        ),
    ] {
        let mutated = serde::json::to_string(&engine.submit(&request).unwrap().stats_stripped());
        let fresh = serde::json::to_string(&rebuilt.submit(&request).unwrap().stats_stripped());
        assert_eq!(mutated, fresh, "{label}: rebuild equivalence violated");
        println!("parity OK: {label}");
    }
    println!("OK");
}
