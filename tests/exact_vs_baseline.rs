//! Cross-crate exactness tests: DS-Search, the sweep-line baseline and the
//! exhaustive arrangement oracle must return the same optimal distance on
//! the same instance.

use asrs_suite::prelude::*;

/// The best region for `query` by DS-Search, through an engine over `ds`.
fn ds_search(ds: &Dataset, agg: &CompositeAggregator, query: &AsrsQuery) -> SearchResult {
    let engine = AsrsEngine::builder(ds.clone(), agg.clone())
        .build()
        .unwrap();
    let request = QueryRequest::similar(query.clone()).with_backend(Backend::DsSearch);
    engine.submit(&request).unwrap().best().unwrap().clone()
}

fn tweet_query(target_weekend: f64, size: RegionSize) -> AsrsQuery {
    // The paper's composite aggregator F1: distribution over the day of the
    // week, weekend dimensions weighted 1/2, weekday dimensions 1/5.
    AsrsQuery::new(
        size,
        FeatureVector::new(vec![
            0.0,
            0.0,
            0.0,
            0.0,
            0.0,
            target_weekend,
            target_weekend,
        ]),
        Weights::new(vec![0.2, 0.2, 0.2, 0.2, 0.2, 0.5, 0.5]),
    )
}

#[test]
fn ds_search_matches_the_naive_oracle_on_uniform_data() {
    for seed in 0..8 {
        let ds = UniformGenerator::default().generate(60, seed);
        let agg = CompositeAggregator::builder(ds.schema())
            .distribution("category", Selection::All)
            .build()
            .unwrap();
        let query = AsrsQuery::new(
            RegionSize::new(15.0, 12.0),
            FeatureVector::new(vec![3.0, 2.0, 1.0, 0.0]),
            Weights::uniform(4),
        );
        let ds_result = ds_search(&ds, &agg, &query);
        let oracle = naive::naive_best_region(&ds, &agg, &query).unwrap();
        assert!(
            (ds_result.distance - oracle.distance).abs() < 1e-9,
            "seed {seed}: DS-Search {} vs oracle {}",
            ds_result.distance,
            oracle.distance
        );
    }
}

#[test]
fn ds_search_matches_the_sweep_baseline_on_clustered_tweets() {
    for seed in 0..4 {
        let ds = TweetGenerator::compact(5).generate(120, seed);
        let agg = CompositeAggregator::builder(ds.schema())
            .distribution("day_of_week", Selection::All)
            .build()
            .unwrap();
        let query = tweet_query(6.0, RegionSize::new(120.0, 120.0));
        let ds_result = ds_search(&ds, &agg, &query);
        let base = SweepBase::new(&ds, &agg).search(&query).unwrap();
        assert!(
            (ds_result.distance - base.distance).abs() < 1e-9,
            "seed {seed}: DS-Search {} vs Base {}",
            ds_result.distance,
            base.distance
        );
    }
}

#[test]
fn all_three_solvers_agree_with_mixed_aggregators() {
    for seed in [3, 17] {
        let ds = PoiSynGenerator::compact(4).generate(70, seed);
        let agg = CompositeAggregator::builder(ds.schema())
            .sum("visits", Selection::All)
            .average("rating", Selection::All)
            .build()
            .unwrap();
        // The paper's F2-style target: many visits, perfect rating.
        let query = AsrsQuery::new(
            RegionSize::new(150.0, 150.0),
            FeatureVector::new(vec![4_000.0, 10.0]),
            Weights::new(vec![1.0 / 4_000.0, 0.1]),
        );
        let ds_result = ds_search(&ds, &agg, &query);
        let sweep = SweepBase::new(&ds, &agg).search(&query).unwrap();
        let oracle = naive::naive_best_region(&ds, &agg, &query).unwrap();
        assert!(
            (ds_result.distance - oracle.distance).abs() < 1e-6,
            "seed {seed}: DS {} vs oracle {}",
            ds_result.distance,
            oracle.distance
        );
        assert!(
            (sweep.distance - oracle.distance).abs() < 1e-6,
            "seed {seed}: sweep {} vs oracle {}",
            sweep.distance,
            oracle.distance
        );
    }
}

#[test]
fn agreement_holds_across_query_sizes() {
    let ds = UniformGenerator::default().generate(50, 42);
    let agg = CompositeAggregator::builder(ds.schema())
        .distribution("category", Selection::All)
        .build()
        .unwrap();
    for k in [1.0, 4.0, 7.0, 10.0] {
        let size = RegionSize::new(k, k);
        let query = AsrsQuery::new(
            size,
            FeatureVector::new(vec![1.0, 1.0, 1.0, 1.0]),
            Weights::uniform(4),
        );
        let ds_result = ds_search(&ds, &agg, &query);
        let oracle = naive::naive_best_region(&ds, &agg, &query).unwrap();
        assert!(
            (ds_result.distance - oracle.distance).abs() < 1e-9,
            "size {k}q: DS {} vs oracle {}",
            ds_result.distance,
            oracle.distance
        );
    }
}

#[test]
fn agreement_holds_with_selective_aggregators_and_l2() {
    let ds = UniformGenerator::default().generate(45, 7);
    let agg = CompositeAggregator::builder(ds.schema())
        .count(Selection::cat_equals(0, 1))
        .count(Selection::cat_equals(0, 2))
        .build()
        .unwrap();
    let query = AsrsQuery::new(
        RegionSize::new(20.0, 20.0),
        FeatureVector::new(vec![3.0, 0.0]),
        Weights::uniform(2),
    )
    .with_metric(DistanceMetric::L2);
    let ds_result = ds_search(&ds, &agg, &query);
    let oracle = naive::naive_best_region(&ds, &agg, &query).unwrap();
    assert!(
        (ds_result.distance - oracle.distance).abs() < 1e-9,
        "L2: DS {} vs oracle {}",
        ds_result.distance,
        oracle.distance
    );
}

#[test]
fn query_by_example_recovers_a_zero_distance_region() {
    // Using a real region as the example means the optimum distance is 0;
    // all solvers must find some region achieving it.
    let ds = TweetGenerator::compact(4).generate(90, 5);
    let agg = CompositeAggregator::builder(ds.schema())
        .distribution("day_of_week", Selection::All)
        .build()
        .unwrap();
    let example = Rect::new(200.0, 300.0, 400.0, 480.0);
    let query = AsrsQuery::from_example_region(&ds, &agg, &example).unwrap();
    let ds_result = ds_search(&ds, &agg, &query);
    let sweep = SweepBase::new(&ds, &agg).search(&query).unwrap();
    assert!(ds_result.distance < 1e-9);
    assert!(sweep.distance < 1e-9);
}
