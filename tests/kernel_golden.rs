//! Golden responses of the discretize–split kernel.
//!
//! Every search path — GI-DS, a pinned DS-Search, MaxRS, the 2-shard
//! scatter and the carry-forward pass — runs one kernel, and its
//! answers must not move when the kernel is optimised.  This test replays a
//! fixed request set and compares the full responses, *statistics
//! included* (only `elapsed` is zeroed), byte for byte with
//! `tests/fixtures/kernel_golden.txt`.  Any change to cells, candidates,
//! pruning or accumulation order shows up as a diff here, including the
//! float sums of the POISyn F2 aggregator (sum of visits, average rating),
//! where the accumulation order decides the last bits.
//!
//! The fixture is recorded, not hand-written: run
//! `cargo test --release -p asrs-suite --test kernel_golden -- --ignored`
//! to rewrite it, and review the diff like code.
//!
//! The 2-shard scatter runs its slabs on separate threads when the host has
//! two or more CPUs and on one shared result set otherwise; the two
//! schedules give the same answers but different pruning counters.  The
//! fixture was recorded with the threaded schedule, so on a one-CPU host
//! the sharded lines are compared without their statistics.

use asrs_suite::prelude::*;
use std::time::Duration;

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/fixtures/kernel_golden.txt"
);

/// The unit query size `q`: a thousandth of the padded extent per axis
/// (Section 7.1 of the paper).
fn unit(ds: &Dataset) -> RegionSize {
    let bbox = ds.padded_bounding_box(1.0).expect("non-empty dataset");
    RegionSize::new(bbox.width() / 1000.0, bbox.height() / 1000.0)
}

/// Expected number of objects in a `k·q` region of a clustered dataset.
fn expected(ds: &Dataset, k: f64) -> f64 {
    ds.len() as f64 * (k * k / 1_000_000.0) * 30.0
}

/// Tweet analogue with composite aggregator F1 (day-of-week distribution).
fn tweet(n: usize) -> (Dataset, CompositeAggregator) {
    let ds = TweetGenerator::compact(24).generate(n, 42);
    let agg = CompositeAggregator::builder(ds.schema())
        .distribution("day_of_week", Selection::All)
        .build()
        .unwrap();
    (ds, agg)
}

/// The F1 query: weekend-only posts, weights (1/5, …, 1/5, 1/2, 1/2).
fn f1(ds: &Dataset, k: f64) -> AsrsQuery {
    let t = (expected(ds, k) / 2.0).max(5.0);
    AsrsQuery::new(
        unit(ds).scaled(k),
        FeatureVector::new(vec![0.0, 0.0, 0.0, 0.0, 0.0, t, t]),
        Weights::new(vec![0.2, 0.2, 0.2, 0.2, 0.2, 0.5, 0.5]),
    )
}

/// POISyn analogue with composite aggregator F2 (sum of visits, average
/// rating).
fn poisyn(n: usize) -> (Dataset, CompositeAggregator) {
    let ds = PoiSynGenerator::compact(24).generate(n, 42);
    let agg = CompositeAggregator::builder(ds.schema())
        .sum("visits", Selection::All)
        .average("rating", Selection::All)
        .build()
        .unwrap();
    (ds, agg)
}

/// The F2 query: `(v_max, 10)` with weights `(1/v_max, 1/10)`.
fn f2(ds: &Dataset, k: f64) -> AsrsQuery {
    let vmax = (expected(ds, k) * 250.0).max(500.0);
    AsrsQuery::new(
        unit(ds).scaled(k),
        FeatureVector::new(vec![vmax, 10.0]),
        Weights::new(vec![1.0 / vmax, 0.1]),
    )
}

/// All five request families, at the given sizes in units of `q`.
fn families(
    ds: &Dataset,
    query: fn(&Dataset, f64) -> AsrsQuery,
    ks: &[f64],
    maxrs_k: f64,
) -> Vec<QueryRequest> {
    let mut out = Vec::new();
    for (i, &k) in ks.iter().enumerate() {
        let other = ks[(i + 1) % ks.len()];
        out.push(QueryRequest::similar(query(ds, k)));
        out.push(QueryRequest::top_k(query(ds, k), 3));
        out.push(QueryRequest::approximate(query(ds, k), 0.25));
        out.push(QueryRequest::batch(vec![query(ds, k), query(ds, other)]));
    }
    out.push(QueryRequest::max_rs(unit(ds).scaled(maxrs_k)));
    out
}

fn engine(ds: &Dataset, agg: &CompositeAggregator, shards: usize) -> AsrsEngine {
    let mut b = AsrsEngine::builder(ds.clone(), agg.clone())
        .build_index(32, 32)
        .cache_capacity(64);
    if shards > 0 {
        b = b.shards(shards);
    }
    b.build().unwrap()
}

/// The response with its `elapsed` zeroed: the only field that may
/// differ between two runs of the same kernel.
fn without_elapsed(response: &QueryResponse) -> QueryResponse {
    let mut r = response.clone();
    r.stats.elapsed = Duration::ZERO;
    r
}

/// One fixture line per response: `label<TAB>json`.
fn line(label: &str, response: &QueryResponse) -> String {
    format!(
        "{label}\t{}",
        serde::json::to_string(&without_elapsed(response))
    )
}

fn run_all(out: &mut Vec<String>, prefix: &str, engine: &AsrsEngine, requests: &[QueryRequest]) {
    for (i, request) in requests.iter().enumerate() {
        let response = engine.submit(request).unwrap();
        out.push(line(&format!("{prefix}/{i}"), &response));
    }
}

/// Every golden response, in fixture order.
fn golden() -> Vec<String> {
    let mut out = Vec::new();

    // Tweet F1, unsharded: the planner's GI-DS for every family, plus a
    // pinned DS-Search.
    let (ds, agg) = tweet(3_000);
    let requests = families(&ds, f1, &[8.0, 16.0, 24.0, 32.0, 40.0, 48.0], 8.0);
    run_all(
        &mut out,
        "tweet/unsharded",
        &engine(&ds, &agg, 0),
        &requests,
    );
    let pinned: Vec<QueryRequest> = [12.0, 40.0]
        .iter()
        .map(|&k| QueryRequest::similar(f1(&ds, k)).with_backend(Backend::DsSearch))
        .collect();
    run_all(&mut out, "tweet/ds_search", &engine(&ds, &agg, 0), &pinned);

    // Tweet F1 on the 2-shard canonical scatter.
    let sharded = families(&ds, f1, &[8.0, 22.0, 36.0], 8.0);
    run_all(&mut out, "tweet/sharded", &engine(&ds, &agg, 2), &sharded);

    // One carry-forward pass: cache the sharded answers, append one object
    // far from most of them, and re-query; carried entries replay their
    // stored responses, the rest recompute.
    let carrying = engine(&ds, &agg, 2);
    let cached: Vec<QueryRequest> = sharded
        .iter()
        .filter(|r| !matches!(r, QueryRequest::Approximate { .. }))
        .cloned()
        .collect();
    run_all(&mut out, "tweet/sharded_carry_before", &carrying, &cached);
    let bbox = ds.bounding_box().unwrap();
    let template = ds.object(0).values.clone();
    let far = Point::new(
        bbox.min_x + 0.37 * bbox.width(),
        bbox.min_y + 0.61 * bbox.height(),
    );
    carrying
        .append(SpatialObject::new(1_000_000, far, template.clone()))
        .unwrap();
    run_all(&mut out, "tweet/sharded_carry_after", &carrying, &cached);
    // A second append inside the first answer's region rejects that entry.
    let inside = carrying
        .submit(&cached[0])
        .unwrap()
        .best()
        .unwrap()
        .region
        .center();
    carrying
        .append(SpatialObject::new(1_000_001, inside, template))
        .unwrap();
    run_all(&mut out, "tweet/sharded_carry_inside", &carrying, &cached);
    let stats = carrying.cache_stats().unwrap();
    out.push(format!(
        "tweet/sharded_carry_stats\tcarried_forward={} carry_proof_failures={} hits={} misses={}",
        stats.carried_forward, stats.carry_proof_failures, stats.hits, stats.misses
    ));

    // POISyn F2: float sums, unsharded and on the 2-shard scatter.
    let (ds, agg) = poisyn(2_000);
    let requests = families(&ds, f2, &[8.0, 18.0, 28.0, 38.0, 48.0], 9.0);
    run_all(
        &mut out,
        "poisyn/unsharded",
        &engine(&ds, &agg, 0),
        &requests,
    );
    // The sharded half runs on the same 2k objects; each of its requests
    // answers in well under a second.
    let sharded = families(&ds, f2, &[10.0, 30.0], 9.0);
    run_all(&mut out, "poisyn/sharded", &engine(&ds, &agg, 2), &sharded);
    out
}

/// Whether this host runs the scatter's threaded schedule, the one the
/// fixture was recorded with.
fn threaded_scatter() -> bool {
    std::thread::available_parallelism().map_or(1, |n| n.get()) >= 2
}

/// The comparison form of a line: sharded lines lose their statistics on
/// a one-CPU host (see the module docs).
fn comparable(line: &str) -> String {
    let Some((label, json)) = line.split_once('\t') else {
        return line.to_string();
    };
    if threaded_scatter() || !label.contains("sharded") || label.ends_with("_stats") {
        return line.to_string();
    }
    let response: QueryResponse = serde::json::from_str(json).unwrap();
    format!(
        "{label}\t{}",
        serde::json::to_string(&response.stats_stripped())
    )
}

#[test]
fn kernel_responses_match_the_golden_fixture() {
    let expected = std::fs::read_to_string(FIXTURE).expect("fixture exists");
    let expected: Vec<&str> = expected.lines().collect();
    let actual = golden();
    assert_eq!(actual.len(), expected.len(), "fixture line count");
    for (a, e) in actual.iter().zip(&expected) {
        let label = a.split('\t').next().unwrap_or_default();
        assert!(
            comparable(a) == comparable(e),
            "{label} diverged from the fixture\n got: {a}\nwant: {e}"
        );
    }
}

/// Rewrites the fixture from the current kernel (see the module docs).
#[test]
#[ignore]
fn record_the_golden_fixture() {
    assert!(threaded_scatter(), "record on a host with two or more CPUs");
    let mut text = golden().join("\n");
    text.push('\n');
    std::fs::write(FIXTURE, text).unwrap();
}
