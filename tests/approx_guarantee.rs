//! The (1+δ)-approximate extension (Section 6, Theorem 3): the returned
//! region's distance never exceeds (1+δ) times the optimum, and larger δ
//! never increases the work done.

use asrs_suite::prelude::*;

/// The best region `engine` answers for `request` pinned to `backend`.
fn pinned(engine: &AsrsEngine, request: QueryRequest, backend: Backend) -> SearchResult {
    let response = engine.submit(&request.with_backend(backend)).unwrap();
    response.best().unwrap().clone()
}

fn engine(ds: Dataset, agg: CompositeAggregator, index: Option<GridIndex>) -> AsrsEngine {
    let builder = AsrsEngine::builder(ds, agg);
    match index {
        Some(index) => builder.index(index),
        None => builder,
    }
    .build()
    .unwrap()
}

fn f1_query(size: RegionSize) -> AsrsQuery {
    AsrsQuery::new(
        size,
        FeatureVector::new(vec![0.0, 0.0, 0.0, 0.0, 0.0, 30.0, 30.0]),
        Weights::new(vec![0.2, 0.2, 0.2, 0.2, 0.2, 0.5, 0.5]),
    )
}

#[test]
fn approximation_guarantee_holds_for_ds_search() {
    let ds = TweetGenerator::compact(6).generate(900, 3);
    let agg = CompositeAggregator::builder(ds.schema())
        .distribution("day_of_week", Selection::All)
        .build()
        .unwrap();
    let query = f1_query(RegionSize::new(70.0, 70.0));
    let engine = engine(ds, agg, None);
    let exact = pinned(
        &engine,
        QueryRequest::similar(query.clone()),
        Backend::DsSearch,
    );
    for delta in [0.1, 0.2, 0.3, 0.4] {
        let request = QueryRequest::approximate(query.clone(), delta);
        let approx = pinned(&engine, request, Backend::DsSearch);
        assert!(
            approx.distance <= (1.0 + delta) * exact.distance + 1e-9,
            "δ={delta}: approx {} vs optimal {}",
            approx.distance,
            exact.distance
        );
        assert!(
            approx.distance + 1e-9 >= exact.distance,
            "approximation cannot beat the optimum"
        );
    }
}

#[test]
fn approximation_guarantee_holds_for_gi_ds() {
    let ds = TweetGenerator::compact(8).generate(2500, 7);
    let agg = CompositeAggregator::builder(ds.schema())
        .distribution("day_of_week", Selection::All)
        .build()
        .unwrap();
    let index = GridIndex::build(&ds, &agg, 48, 48).unwrap();
    let engine = engine(ds, agg, Some(index));
    let query = f1_query(RegionSize::new(45.0, 45.0));
    let exact = pinned(&engine, QueryRequest::similar(query.clone()), Backend::GiDs);
    for delta in [0.1, 0.2, 0.3, 0.4] {
        let request = QueryRequest::approximate(query.clone(), delta);
        let approx = pinned(&engine, request, Backend::GiDs);
        assert!(
            approx.distance <= (1.0 + delta) * exact.distance + 1e-9,
            "δ={delta}: approx {} vs optimal {}",
            approx.distance,
            exact.distance
        );
    }
}

#[test]
fn larger_delta_never_searches_more_index_cells() {
    let ds = TweetGenerator::compact(8).generate(2000, 19);
    let agg = CompositeAggregator::builder(ds.schema())
        .distribution("day_of_week", Selection::All)
        .build()
        .unwrap();
    let index = GridIndex::build(&ds, &agg, 40, 40).unwrap();
    let engine = engine(ds, agg, Some(index));
    let query = f1_query(RegionSize::new(55.0, 55.0));
    let mut searched = Vec::new();
    for delta in [0.0, 0.1, 0.2, 0.4] {
        let request = if delta == 0.0 {
            QueryRequest::similar(query.clone())
        } else {
            QueryRequest::approximate(query.clone(), delta)
        };
        let result = pinned(&engine, request, Backend::GiDs);
        searched.push(result.stats.index_cells_searched);
    }
    for w in searched.windows(2) {
        assert!(
            w[1] <= w[0],
            "increasing δ must not increase searched cells: {searched:?}"
        );
    }
}

#[test]
fn quality_ratio_matches_table_2_shape() {
    // Table 2 reports quality = d_app / d_opt very close to 1 even for
    // large δ; verify the measured ratio stays within the guarantee and is
    // close to one on a clustered workload.
    let ds = TweetGenerator::compact(10).generate(3000, 31);
    let agg = CompositeAggregator::builder(ds.schema())
        .distribution("day_of_week", Selection::All)
        .build()
        .unwrap();
    let index = GridIndex::build(&ds, &agg, 48, 48).unwrap();
    let engine = engine(ds, agg, Some(index));
    let query = f1_query(RegionSize::new(80.0, 80.0));
    let exact = pinned(&engine, QueryRequest::similar(query.clone()), Backend::GiDs);
    assert!(
        exact.distance > 0.0,
        "a strict optimum keeps the ratio well-defined"
    );
    for delta in [0.1, 0.4] {
        let request = QueryRequest::approximate(query.clone(), delta);
        let approx = pinned(&engine, request, Backend::GiDs);
        let quality = approx.distance / exact.distance;
        assert!(quality >= 1.0 - 1e-9);
        assert!(quality <= 1.0 + delta + 1e-9);
    }
}

#[test]
fn zero_delta_is_exactly_the_exact_algorithm() {
    let ds = UniformGenerator::default().generate(300, 2);
    let agg = CompositeAggregator::builder(ds.schema())
        .distribution("category", Selection::All)
        .build()
        .unwrap();
    let query = AsrsQuery::new(
        RegionSize::new(12.0, 12.0),
        FeatureVector::new(vec![4.0, 4.0, 4.0, 4.0]),
        Weights::uniform(4),
    );
    let engine = engine(ds, agg, None);
    let exact = pinned(
        &engine,
        QueryRequest::similar(query.clone()),
        Backend::DsSearch,
    );
    let request = QueryRequest::approximate(query, 0.0);
    let zero_delta = pinned(&engine, request, Backend::DsSearch);
    assert_eq!(exact.distance, zero_delta.distance);
}
