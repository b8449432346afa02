//! Full-pipeline scenarios: generator → aggregator → index → search →
//! result, including the case-study city and property-style randomised
//! equivalence checks (seeded loops; the offline build has no proptest).

use asrs_suite::prelude::*;

/// The best region for `query` by DS-Search, through an engine over `ds`.
fn ds_search(ds: &Dataset, agg: &CompositeAggregator, query: &AsrsQuery) -> SearchResult {
    let engine = AsrsEngine::builder(ds.clone(), agg.clone())
        .build()
        .unwrap();
    let request = QueryRequest::similar(query.clone()).with_backend(Backend::DsSearch);
    engine.submit(&request).unwrap().best().unwrap().clone()
}

/// The best region for `query` by GI-DS over a `granularity ×
/// granularity` index, through an engine over `ds`, and the statistics of
/// the run.
fn gi_ds(
    ds: &Dataset,
    agg: &CompositeAggregator,
    granularity: usize,
    query: &AsrsQuery,
) -> (SearchResult, SearchStats) {
    let engine = AsrsEngine::builder(ds.clone(), agg.clone())
        .build_index(granularity, granularity)
        .build()
        .unwrap();
    let request = QueryRequest::similar(query.clone()).with_backend(Backend::GiDs);
    let response = engine.submit(&request).unwrap();
    (response.best().unwrap().clone(), response.stats)
}

/// The MaxRS answer to `request`, through an engine over `ds`.
fn max_rs(ds: &Dataset, request: QueryRequest) -> MaxRsResult {
    let agg = CompositeAggregator::builder(ds.schema())
        .count(Selection::All)
        .build()
        .unwrap();
    let engine = AsrsEngine::builder(ds.clone(), agg).build().unwrap();
    engine.submit(&request).unwrap().max_rs().unwrap().clone()
}
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

#[test]
fn case_study_city_ranks_marina_bay_above_bugis() {
    // Section 7.6: with a category-distribution aggregator, the "Orchard"
    // query region must consider "Marina Bay" more similar than "Bugis".
    let city = CityGenerator::default().generate(42);
    let ds = &city.dataset;
    let agg = CompositeAggregator::builder(ds.schema())
        .distribution("category", Selection::All)
        .build()
        .unwrap();

    let orchard = city.district("Orchard").unwrap().rect;
    let marina = city.district("Marina Bay").unwrap().rect;
    let bugis = city.district("Bugis").unwrap().rect;

    let f_orchard = agg.aggregate_region(ds, &orchard);
    let f_marina = agg.aggregate_region(ds, &marina);
    let f_bugis = agg.aggregate_region(ds, &bugis);
    let w = Weights::uniform(agg.feature_dim());
    let d_marina = weighted_distance(&f_orchard, &f_marina, &w, DistanceMetric::L1);
    let d_bugis = weighted_distance(&f_orchard, &f_bugis, &w, DistanceMetric::L1);
    assert!(
        d_marina < d_bugis,
        "Marina Bay ({d_marina}) must be closer to Orchard than Bugis ({d_bugis})"
    );

    // The search itself must find a region at least as similar as Marina
    // Bay (it may legitimately find an even better one).
    let query = AsrsQuery::from_example_region(ds, &agg, &orchard).unwrap();
    let result = ds_search(ds, &agg, &query);
    assert!(result.distance <= d_marina + 1e-9);
}

#[test]
fn indexed_and_plain_search_agree_on_the_city() {
    let city = CityGenerator::default().generate(7);
    let ds = &city.dataset;
    let agg = CompositeAggregator::builder(ds.schema())
        .distribution("category", Selection::All)
        .build()
        .unwrap();
    let orchard = city.district("Orchard").unwrap().rect;
    let query = AsrsQuery::from_example_region(ds, &agg, &orchard).unwrap();
    let plain = ds_search(ds, &agg, &query);
    let (indexed, _) = gi_ds(ds, &agg, 64, &query);
    assert!((plain.distance - indexed.distance).abs() < 1e-9);
}

#[test]
fn search_scales_through_the_full_pipeline() {
    // A smoke test at a larger cardinality: build, index, search, and check
    // internal consistency of the result and statistics.
    let ds = TweetGenerator::compact(12).generate(20_000, 5);
    let agg = CompositeAggregator::builder(ds.schema())
        .distribution("day_of_week", Selection::All)
        .build()
        .unwrap();
    let query = AsrsQuery::new(
        RegionSize::new(40.0, 40.0),
        FeatureVector::new(vec![0.0, 0.0, 0.0, 0.0, 0.0, 60.0, 60.0]),
        Weights::new(vec![0.2, 0.2, 0.2, 0.2, 0.2, 0.5, 0.5]),
    );
    let (result, stats) = gi_ds(&ds, &agg, 64, &query);
    let rep = agg.aggregate_region(&ds, &result.region);
    let recomputed = agg.distance(&rep, &query.target, &query.weights, query.metric);
    assert!((recomputed - result.distance).abs() < 1e-6);
    assert!(stats.index_cells_total == 64 * 64);
    assert!(stats.index_cells_searched <= stats.index_cells_total);
    assert!(stats.rectangles == 20_000);
}

/// Randomised end-to-end equivalence: DS-Search equals the exhaustive
/// oracle on arbitrary small instances (12 seeded cases).
#[test]
fn ds_search_is_exact_on_random_instances() {
    for case in 0u64..12 {
        let mut rng = SmallRng::seed_from_u64(9000 + case);
        let seed = rng.gen_range(0u64..5000);
        let n = rng.gen_range(5usize..45);
        let width = rng.gen_range(2.0..20.0);
        let height = rng.gen_range(2.0..20.0);
        let target_a = rng.gen_range(0.0..6.0);
        let target_b = rng.gen_range(0.0..6.0);
        let ds = UniformGenerator::default().generate(n, seed);
        let agg = CompositeAggregator::builder(ds.schema())
            .distribution("category", Selection::All)
            .build()
            .unwrap();
        let query = AsrsQuery::new(
            RegionSize::new(width, height),
            FeatureVector::new(vec![target_a, target_b, target_a, target_b]),
            Weights::uniform(4),
        );
        let result = ds_search(&ds, &agg, &query);
        let oracle = naive::naive_best_region(&ds, &agg, &query).unwrap();
        assert!(
            (result.distance - oracle.distance).abs() < 1e-9,
            "seed {}: DS {} vs oracle {}",
            seed,
            result.distance,
            oracle.distance
        );
    }
}

/// Randomised MaxRS equivalence between the DS adaptation and OE
/// (12 seeded cases).
#[test]
fn maxrs_adaptation_is_exact_on_random_instances() {
    for case in 0u64..12 {
        let mut rng = SmallRng::seed_from_u64(9500 + case);
        let seed = rng.gen_range(0u64..5000);
        let n = rng.gen_range(5usize..60);
        let k = rng.gen_range(2.0..25.0);
        let ds = UniformGenerator::default().generate(n, seed);
        let size = RegionSize::new(k, k * 0.8);
        let ds_count = max_rs(&ds, QueryRequest::max_rs(size)).count;
        let oe_count = OptimalEnclosure::new(&ds, size).search().unwrap().count;
        assert_eq!(ds_count, oe_count, "seed {seed}");
    }
}
