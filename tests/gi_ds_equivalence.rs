//! GI-DS must return the same optimal distance as plain DS-Search while
//! searching only a fraction of the index cells.

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

#[test]
fn gi_ds_equals_ds_search_across_granularities() {
    let ds = TweetGenerator::compact(6).generate(1500, 9);
    let agg = CompositeAggregator::builder(ds.schema())
        .distribution("day_of_week", Selection::All)
        .build()
        .unwrap();
    let query = AsrsQuery::new(
        RegionSize::new(60.0, 60.0),
        FeatureVector::new(vec![0.0, 0.0, 0.0, 0.0, 0.0, 25.0, 25.0]),
        Weights::new(vec![0.2, 0.2, 0.2, 0.2, 0.2, 0.5, 0.5]),
    );
    let reference = ds_search(&ds, &agg, &query);
    for granularity in [16, 32, 64] {
        let (result, _) = gi_ds(&ds, &agg, granularity, &query);
        assert!(
            (result.distance - reference.distance).abs() < 1e-9,
            "granularity {granularity}: GI-DS {} vs DS {}",
            result.distance,
            reference.distance
        );
    }
}

#[test]
fn gi_ds_equals_the_naive_oracle_on_small_instances() {
    for seed in 0..5 {
        let ds = UniformGenerator::default().generate(55, seed);
        let agg = CompositeAggregator::builder(ds.schema())
            .distribution("category", Selection::All)
            .build()
            .unwrap();
        let query = AsrsQuery::new(
            RegionSize::new(14.0, 11.0),
            FeatureVector::new(vec![2.0, 2.0, 0.0, 1.0]),
            Weights::uniform(4),
        );
        let (gi, _) = gi_ds(&ds, &agg, 20, &query);
        let oracle = naive::naive_best_region(&ds, &agg, &query).unwrap();
        assert!(
            (gi.distance - oracle.distance).abs() < 1e-9,
            "seed {seed}: GI-DS {} vs oracle {}",
            gi.distance,
            oracle.distance
        );
    }
}

#[test]
fn finer_index_granularity_searches_a_smaller_fraction_of_cells() {
    // Reproduces the trend of Table 1: the ratio of searched cells drops as
    // the grid index gets finer.
    let ds = TweetGenerator::compact(8).generate(4000, 21);
    let agg = CompositeAggregator::builder(ds.schema())
        .distribution("day_of_week", Selection::All)
        .build()
        .unwrap();
    let query = AsrsQuery::new(
        RegionSize::new(50.0, 50.0),
        FeatureVector::new(vec![0.0, 0.0, 0.0, 0.0, 0.0, 30.0, 30.0]),
        Weights::new(vec![0.2, 0.2, 0.2, 0.2, 0.2, 0.5, 0.5]),
    );
    let mut ratios = Vec::new();
    for granularity in [16, 32, 64] {
        let (_, stats) = gi_ds(&ds, &agg, granularity, &query);
        ratios.push(stats.index_search_ratio().unwrap());
    }
    assert!(
        ratios[2] <= ratios[0] + 1e-9,
        "finest grid must not search a larger fraction: {ratios:?}"
    );
    assert!(ratios.iter().all(|r| *r <= 1.0));
}

#[test]
fn index_size_grows_with_granularity_as_in_table_1() {
    let ds = PoiSynGenerator::compact(5).generate(2000, 2);
    let agg = CompositeAggregator::builder(ds.schema())
        .sum("visits", Selection::All)
        .average("rating", Selection::All)
        .build()
        .unwrap();
    let sizes: Vec<usize> = [64, 128, 256]
        .iter()
        .map(|&g| GridIndex::build(&ds, &agg, g, g).unwrap().memory_bytes())
        .collect();
    assert!(sizes[0] < sizes[1] && sizes[1] < sizes[2]);
    // Quadrupling the cell count roughly quadruples the footprint.
    let ratio = sizes[1] as f64 / sizes[0] as f64;
    assert!(
        ratio > 3.0 && ratio < 5.0,
        "unexpected growth ratio {ratio}"
    );
}

#[test]
fn gi_ds_handles_numeric_aggregators() {
    let ds = PoiSynGenerator::compact(4).generate(800, 13);
    let agg = CompositeAggregator::builder(ds.schema())
        .sum("visits", Selection::All)
        .average("rating", Selection::All)
        .build()
        .unwrap();
    let query = AsrsQuery::new(
        RegionSize::new(120.0, 120.0),
        FeatureVector::new(vec![20_000.0, 10.0]),
        Weights::new(vec![1.0 / 20_000.0, 0.1]),
    );
    let reference = ds_search(&ds, &agg, &query);
    let (indexed, _) = gi_ds(&ds, &agg, 32, &query);
    assert!(
        (reference.distance - indexed.distance).abs() < 1e-6,
        "GI-DS {} vs DS {}",
        indexed.distance,
        reference.distance
    );
}
