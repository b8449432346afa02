//! The MaxRS adaptation (Section 7.5): DS-Search adapted to MaxRS must
//! agree with the Optimal Enclosure sweep-line algorithm and with the
//! exhaustive oracle.

use asrs_suite::prelude::*;

/// The best region for `query` by DS-Search, through an engine over `ds`.
fn ds_search(ds: &Dataset, agg: &CompositeAggregator, query: &AsrsQuery) -> SearchResult {
    let engine = AsrsEngine::builder(ds.clone(), agg.clone())
        .build()
        .unwrap();
    let request = QueryRequest::similar(query.clone()).with_backend(Backend::DsSearch);
    engine.submit(&request).unwrap().best().unwrap().clone()
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

#[test]
fn ds_maxrs_equals_oe_and_oracle_on_random_data() {
    for seed in 0..6 {
        let ds = UniformGenerator::default().generate(80, seed);
        let size = RegionSize::new(14.0, 11.0);
        let ds_result = max_rs(&ds, QueryRequest::max_rs(size));
        let oe = OptimalEnclosure::new(&ds, size).search().unwrap();
        let oracle = naive::naive_maxrs_count(&ds, size.width, size.height).unwrap();
        assert_eq!(ds_result.count, oracle, "seed {seed}: DS-MaxRS vs oracle");
        assert_eq!(oe.count, oracle, "seed {seed}: OE vs oracle");
    }
}

#[test]
fn ds_maxrs_equals_oe_on_clustered_data() {
    for seed in [1, 5, 9] {
        let ds = TweetGenerator::compact(4).generate(600, seed);
        let size = RegionSize::new(80.0, 80.0);
        let ds_result = max_rs(&ds, QueryRequest::max_rs(size));
        let oe = OptimalEnclosure::new(&ds, size).search().unwrap();
        assert_eq!(
            ds_result.count, oe.count,
            "seed {seed}: DS-MaxRS {} vs OE {}",
            ds_result.count, oe.count
        );
        // Both regions really enclose the count they claim.
        assert_eq!(ds.count_strictly_in(&ds_result.region), ds_result.count);
        assert_eq!(ds.count_strictly_in(&oe.region), oe.count);
    }
}

#[test]
fn maxrs_count_is_monotone_in_region_size() {
    let ds = PoiSynGenerator::compact(5).generate(400, 3);
    let mut previous = 0usize;
    for k in [10.0, 40.0, 70.0, 100.0] {
        let count = max_rs(&ds, QueryRequest::max_rs(RegionSize::new(k, k))).count;
        assert!(
            count >= previous,
            "a larger region can always enclose at least as many objects"
        );
        previous = count;
    }
}

#[test]
fn class_constrained_maxrs_is_consistent() {
    // The class-constrained variant (count only one category) can never
    // exceed the unconstrained count, and its reported count matches a
    // recount of the returned region.
    let ds = UniformGenerator::default().generate(300, 11);
    let size = RegionSize::new(18.0, 18.0);
    let unconstrained = max_rs(&ds, QueryRequest::max_rs(size));
    for category in 0..4u32 {
        let constrained = max_rs(
            &ds,
            QueryRequest::max_rs_selective(size, Selection::cat_equals(0, category)),
        );
        assert!(constrained.count <= unconstrained.count);
        let recount = ds
            .objects_strictly_in(&constrained.region)
            .iter()
            .filter(|o| o.cat_value(0) == Some(category))
            .count();
        assert_eq!(recount, constrained.count);
    }
}

#[test]
fn maxrs_via_generic_asrs_query_matches_dedicated_wrapper() {
    // MaxRS is a special case of ASRS (Section 2): a count aggregator with
    // an unreachable target count.  The dedicated wrapper and the generic
    // query path must agree.
    let ds = UniformGenerator::default().generate(250, 23);
    let size = RegionSize::new(20.0, 15.0);
    let wrapper = max_rs(&ds, QueryRequest::max_rs(size));

    let agg = CompositeAggregator::builder(ds.schema())
        .count(Selection::All)
        .build()
        .unwrap();
    let query = AsrsQuery::new(
        size,
        FeatureVector::new(vec![ds.len() as f64 + 1.0]),
        Weights::uniform(1),
    );
    let generic = ds_search(&ds, &agg, &query);
    let generic_count = generic.representation[0].round() as usize;
    assert_eq!(wrapper.count, generic_count);
}
