//! End-to-end checks of the aggregation pipeline against the paper's
//! worked examples and the synthetic workload generators.

use asrs_suite::prelude::*;

/// The best region for `query` by DS-Search, through an engine over `ds`.
fn ds_search(ds: &Dataset, agg: &CompositeAggregator, query: &AsrsQuery) -> SearchResult {
    let engine = AsrsEngine::builder(ds.clone(), agg.clone())
        .build()
        .unwrap();
    let request = QueryRequest::similar(query.clone()).with_backend(Backend::DsSearch);
    engine.submit(&request).unwrap().best().unwrap().clone()
}

/// Builds the apartment-hunting schema of the paper's Example 1 / Fig. 1.
fn apartment_schema() -> Schema {
    Schema::new(vec![
        AttributeDef::new(
            "category",
            AttributeKind::categorical_labeled(vec![
                "Apartment",
                "Supermarket",
                "Restaurant",
                "Bus stop",
            ]),
        ),
        AttributeDef::new("price", AttributeKind::numeric(0.0, 10.0)),
    ])
}

#[test]
fn paper_examples_2_3_and_4_reproduce() {
    // Build r_q, r_1 and r_2 with the aggregate representations of the
    // paper's Example 4 and verify the distances 1.15 and 4.15.
    let schema = apartment_schema();
    let agg = CompositeAggregator::builder(&schema)
        .distribution("category", Selection::All)
        .average("price", Selection::cat_equals(0, 0))
        .build()
        .unwrap();

    let mut b = DatasetBuilder::new(schema);
    // r_q objects (region [0, 10) x [0, 10)).
    b.push(1.0, 1.0, vec![AttrValue::Cat(0), AttrValue::Num(2.0)]);
    b.push(2.0, 2.0, vec![AttrValue::Cat(0), AttrValue::Num(1.5)]);
    b.push(3.0, 3.0, vec![AttrValue::Cat(1), AttrValue::Num(0.0)]);
    b.push(4.0, 4.0, vec![AttrValue::Cat(2), AttrValue::Num(0.0)]);
    b.push(5.0, 5.0, vec![AttrValue::Cat(3), AttrValue::Num(0.0)]);
    // r_1 objects (region [100, 110) x [0, 10)): representation (3,1,1,1,1.6).
    for (i, price) in [1.2, 1.6, 2.0].iter().enumerate() {
        b.push(
            101.0 + i as f64,
            1.0,
            vec![AttrValue::Cat(0), AttrValue::Num(*price)],
        );
    }
    b.push(105.0, 2.0, vec![AttrValue::Cat(1), AttrValue::Num(0.0)]);
    b.push(106.0, 3.0, vec![AttrValue::Cat(2), AttrValue::Num(0.0)]);
    b.push(107.0, 4.0, vec![AttrValue::Cat(3), AttrValue::Num(0.0)]);
    // r_2 objects (region [200, 210) x [0, 10)): representation (2,0,2,0,2.9).
    b.push(201.0, 1.0, vec![AttrValue::Cat(0), AttrValue::Num(2.8)]);
    b.push(202.0, 2.0, vec![AttrValue::Cat(0), AttrValue::Num(3.0)]);
    b.push(203.0, 3.0, vec![AttrValue::Cat(2), AttrValue::Num(0.0)]);
    b.push(204.0, 4.0, vec![AttrValue::Cat(2), AttrValue::Num(0.0)]);
    let ds = b.build().unwrap();

    let rq = Rect::new(0.0, 0.0, 10.0, 10.0);
    let r1 = Rect::new(100.0, 0.0, 110.0, 10.0);
    let r2 = Rect::new(200.0, 0.0, 210.0, 10.0);

    let frq = agg.aggregate_region(&ds, &rq);
    let fr1 = agg.aggregate_region(&ds, &r1);
    let fr2 = agg.aggregate_region(&ds, &r2);
    let assert_close = |got: &FeatureVector, expected: &[f64]| {
        for (g, e) in got.iter().zip(expected) {
            assert!((g - e).abs() < 1e-9, "{got} vs {expected:?}");
        }
    };
    assert_close(&frq, &[2.0, 1.0, 1.0, 1.0, 1.75]);
    assert_close(&fr1, &[3.0, 1.0, 1.0, 1.0, 1.6]);
    assert_close(&fr2, &[2.0, 0.0, 2.0, 0.0, 2.9]);

    let w = Weights::uniform(5);
    let d1 = weighted_distance(&frq, &fr1, &w, DistanceMetric::L1);
    let d2 = weighted_distance(&frq, &fr2, &w, DistanceMetric::L1);
    assert!((d1 - 1.15).abs() < 1e-9);
    assert!((d2 - 4.15).abs() < 1e-9);
    assert!(d1 < d2, "Example 4: r_1 is more similar to r_q than r_2");

    // DS-Search with r_q as the example must therefore prefer r_1's
    // neighbourhood over r_2's (distance at most d1).
    let query = AsrsQuery::from_example_region(&ds, &agg, &rq).unwrap();
    let result = ds_search(&ds, &agg, &query);
    assert!(result.distance <= d1 + 1e-9);
}

#[test]
fn f1_style_query_finds_a_weekend_heavy_region() {
    let ds = TweetGenerator::compact(10).generate(4000, 13);
    let agg = CompositeAggregator::builder(ds.schema())
        .distribution("day_of_week", Selection::All)
        .build()
        .unwrap();
    let query = AsrsQuery::new(
        RegionSize::new(60.0, 60.0),
        FeatureVector::new(vec![0.0, 0.0, 0.0, 0.0, 0.0, 25.0, 25.0]),
        Weights::new(vec![0.2, 0.2, 0.2, 0.2, 0.2, 0.5, 0.5]),
    );
    let result = ds_search(&ds, &agg, &query);
    let rep = agg.aggregate_region(&ds, &result.region);
    let weekday: f64 = rep.as_slice()[..5].iter().sum();
    let weekend: f64 = rep.as_slice()[5..].iter().sum();
    assert!(
        weekend > weekday,
        "the returned region must be weekend-dominated, got weekday {weekday} vs weekend {weekend}"
    );
}

#[test]
fn f2_style_query_finds_popular_highly_rated_regions() {
    let ds = PoiSynGenerator::compact(8).generate(3000, 29);
    let agg = CompositeAggregator::builder(ds.schema())
        .sum("visits", Selection::All)
        .average("rating", Selection::All)
        .build()
        .unwrap();
    let vmax = 60_000.0;
    let query = AsrsQuery::new(
        RegionSize::new(100.0, 100.0),
        FeatureVector::new(vec![vmax, 10.0]),
        Weights::new(vec![1.0 / vmax, 1.0 / 10.0]),
    );
    let result = ds_search(&ds, &agg, &query);
    let rep = agg.aggregate_region(&ds, &result.region);
    // The selected region must have an above-average rating and a
    // substantial number of visits.
    let global_avg_rating = agg.aggregate(ds.objects())[agg.feature_dim() - 1];
    assert!(
        rep[1] >= global_avg_rating,
        "region rating {} should be at least the global average {}",
        rep[1],
        global_avg_rating
    );
    assert!(rep[0] > 0.0, "region must contain visits");
}

#[test]
fn dataset_io_roundtrip_preserves_search_results() {
    let ds = UniformGenerator::default().generate(200, 37);
    let text = asrs_data::io::to_string(&ds);
    let reloaded = asrs_data::io::from_str(&text).unwrap();
    let agg = CompositeAggregator::builder(ds.schema())
        .distribution("category", Selection::All)
        .build()
        .unwrap();
    let query = AsrsQuery::new(
        RegionSize::new(10.0, 10.0),
        FeatureVector::new(vec![2.0, 2.0, 2.0, 2.0]),
        Weights::uniform(4),
    );
    let original = ds_search(&ds, &agg, &query);
    let roundtrip = ds_search(&reloaded, &agg, &query);
    assert_eq!(original.distance, roundtrip.distance);
}
