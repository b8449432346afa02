//! Differential parity harness for the sharded scatter-gather engine.
//!
//! The shard scatter promises: for every `QueryRequest`, the response of
//! `shards(k)` is byte-identical to the response of the single-shard
//! baseline `shards(1)` — outcomes, anchors, distances, representations,
//! counts and the reported backend all included.  The unsharded engine
//! (`shards(0)`) runs the same kernel and answers the same bytes, except
//! for approximate requests, which it prunes against the (1+δ) band.  Execution statistics are
//! exempt (they describe the decomposition that actually ran), which is
//! exactly what [`QueryResponse::stats_stripped`] encodes; the harness
//! serializes stripped responses and compares raw bytes.
//!
//! A second check runs against the unsharded engine: the scatter must
//! agree on the optimal distance / count (exactness) and report a real
//! answer region.

use asrs_suite::prelude::*;

const SHARD_COUNTS: [usize; 3] = [2, 4, 7];

/// A tiny seeded LCG so query placement sweeps deterministically without
/// depending on the vendored rand API.
struct Lcg(u64);

impl Lcg {
    fn next_f64(&mut self) -> f64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.0 >> 11) as f64) / ((1u64 << 53) as f64)
    }

    fn in_range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }
}

fn uniform_workload(n: usize, seed: u64) -> (Dataset, CompositeAggregator) {
    let ds = UniformGenerator::default().generate(n, seed);
    let agg = CompositeAggregator::builder(ds.schema())
        .distribution("category", Selection::All)
        .build()
        .unwrap();
    (ds, agg)
}

fn clustered_workload(n: usize, seed: u64) -> (Dataset, CompositeAggregator) {
    let ds = TweetGenerator::compact(8).generate(n, seed);
    let agg = CompositeAggregator::builder(ds.schema())
        .distribution("day_of_week", Selection::All)
        .build()
        .unwrap();
    (ds, agg)
}

/// Every request variant the engine supports, parameterised by a seeded
/// sweep over sizes and targets.  Targets use fractional components so the
/// optimum distance is generically non-zero (plenty of count-vector ties
/// remain — that is the hard case the canonical tie-break must win).
fn request_pool(ds: &Dataset, agg: &CompositeAggregator, seed: u64) -> Vec<QueryRequest> {
    let dim = agg.feature_dim();
    let bbox = ds.bounding_box().expect("non-empty dataset");
    let mut lcg = Lcg(seed.wrapping_mul(0x9e3779b97f4a7c15) | 1);
    let mut query = |frac: f64| -> AsrsQuery {
        let size = RegionSize::new(
            (bbox.width() * frac).max(1e-3),
            (bbox.height() * frac * lcg.in_range(0.6, 1.4)).max(1e-3),
        );
        let target: Vec<f64> = (0..dim).map(|_| lcg.in_range(0.0, 6.0)).collect();
        AsrsQuery::new(size, FeatureVector::new(target), Weights::uniform(dim))
    };
    let small = query(0.08);
    let medium = query(0.2);
    // Half-extent regions straddle every partition cut line.
    let straddling = query(0.5);
    let mut pool = vec![
        QueryRequest::similar(small.clone()),
        QueryRequest::similar(straddling.clone()),
        QueryRequest::top_k(medium.clone(), 3),
        QueryRequest::top_k(straddling.clone(), 1),
        QueryRequest::batch(vec![small.clone(), straddling.clone(), medium.clone()]),
        QueryRequest::approximate(medium.clone(), 0.25),
        QueryRequest::max_rs(RegionSize::new(
            (bbox.width() / 9.0).max(0.5),
            (bbox.height() / 11.0).max(0.5),
        )),
        QueryRequest::max_rs_selective(
            RegionSize::new(
                (bbox.width() / 7.0).max(0.5),
                (bbox.height() / 7.0).max(0.5),
            ),
            Selection::cat_equals(0, 1),
        ),
        // Configured envelopes: generous budget, forced backends.
        QueryRequest::similar(medium.clone()).with_budget_ms(120_000),
        QueryRequest::similar(small.clone()).with_backend(Backend::DsSearch),
        QueryRequest::top_k(medium, 2).with_backend(Backend::Naive),
    ];
    // A query-by-example reaches distance zero: the densest tie plateau
    // there is, and the canonical tie-break must still be shard-count
    // independent.
    let example = Rect::new(
        bbox.min_x + bbox.width() * 0.2,
        bbox.min_y + bbox.height() * 0.3,
        bbox.min_x + bbox.width() * 0.35,
        bbox.min_y + bbox.height() * 0.45,
    );
    if let Ok(by_example) = AsrsQuery::from_example_region(ds, agg, &example) {
        pool.push(QueryRequest::similar(by_example));
    }
    pool
}

fn sharded_engine(
    ds: &Dataset,
    agg: &CompositeAggregator,
    shards: usize,
    with_index: bool,
) -> AsrsEngine {
    let mut builder = AsrsEngine::builder(ds.clone(), agg.clone()).shards(shards);
    if with_index {
        builder = builder.build_index(16, 16);
    }
    builder.build().unwrap()
}

fn canonical_bytes(response: &QueryResponse) -> String {
    serde::json::to_string(&response.stats_stripped())
}

/// The tentpole assertion: byte-identical stripped responses between
/// `shards(1)` and every other count, unsharded included, over the whole
/// request surface.
#[test]
fn sharded_responses_are_byte_identical_to_the_single_shard_baseline() {
    let workloads = [
        uniform_workload(240, 7),
        uniform_workload(150, 41),
        clustered_workload(200, 13),
    ];
    for (w, (ds, agg)) in workloads.iter().enumerate() {
        for with_index in [false, true] {
            let baseline = sharded_engine(ds, agg, 1, with_index);
            let requests = request_pool(ds, agg, 1000 + w as u64);
            let expected: Vec<String> = requests
                .iter()
                .map(|r| canonical_bytes(&baseline.submit(r).unwrap()))
                .collect();
            for k in std::iter::once(0).chain(SHARD_COUNTS) {
                let sharded = sharded_engine(ds, agg, k, with_index);
                assert_eq!(sharded.shard_count(), k);
                for (request, expected) in requests.iter().zip(&expected) {
                    let response = sharded.submit(request).unwrap_or_else(|e| {
                        panic!("workload {w} shards {k} index {with_index}: {e}")
                    });
                    if let (0, QueryRequest::Approximate { delta, .. }) = (k, request.operation()) {
                        // The unsharded engine prunes approximate requests
                        // against the (1+δ) band; the scatter answers them
                        // exactly.
                        let exact: QueryResponse = serde::json::from_str(expected).unwrap();
                        let (got, exact) = (response.best().unwrap(), exact.best().unwrap());
                        assert!(
                            got.distance <= (1.0 + delta) * exact.distance + 1e-9,
                            "workload {w}, index {with_index}: {} beyond (1+{delta})·{}",
                            got.distance,
                            exact.distance
                        );
                        continue;
                    }
                    let got = canonical_bytes(&response);
                    assert_eq!(
                        &got,
                        expected,
                        "workload {w}, shards {k}, index {with_index}, \
                         request {:?} diverged",
                        request.operation_name()
                    );
                }
            }
        }
    }
}

/// Exactness against the unsharded engine: the scatter finds the same
/// optimal distance (and MaxRS count).
#[test]
fn sharded_optima_match_the_unsharded_engine() {
    let (ds, agg) = uniform_workload(220, 3);
    let unsharded = AsrsEngine::builder(ds.clone(), agg.clone())
        .build_index(16, 16)
        .build()
        .unwrap();
    let sharded = sharded_engine(&ds, &agg, 4, true);
    for request in request_pool(&ds, &agg, 77) {
        let classic = unsharded.submit(&request).unwrap();
        let scattered = sharded.submit(&request).unwrap();
        match (&classic.outcome, &scattered.outcome) {
            (QueryOutcome::Best(a), QueryOutcome::Best(b)) => {
                if request.operation_name() == "approximate" {
                    // The scatter answers approximate requests exactly;
                    // the unsharded engine may stop within (1+δ).
                    assert!(b.distance <= a.distance + 1e-9);
                } else {
                    assert!(
                        (a.distance - b.distance).abs() < 1e-9,
                        "{}: {} vs {}",
                        request.operation_name(),
                        a.distance,
                        b.distance
                    );
                }
            }
            (QueryOutcome::Ranked(a), QueryOutcome::Ranked(b)) => {
                assert_eq!(a.len(), b.len());
                for (x, y) in a.iter().zip(b) {
                    assert!((x.distance - y.distance).abs() < 1e-9);
                }
            }
            (QueryOutcome::Batch(a), QueryOutcome::Batch(b)) => {
                assert_eq!(a.len(), b.len());
                for (x, y) in a.iter().zip(b) {
                    assert!((x.distance - y.distance).abs() < 1e-9);
                }
            }
            (QueryOutcome::MaxRs(a), QueryOutcome::MaxRs(b)) => {
                assert_eq!(a.count, b.count, "MaxRS count must agree");
                if request.operation_name() == "max-rs" {
                    // Unconstrained MaxRS: the reported count is the real
                    // strict containment count of the returned region.
                    assert_eq!(ds.count_strictly_in(&b.region), b.count);
                } else {
                    // Class-constrained: only selected objects count.
                    assert!(b.count <= ds.count_strictly_in(&b.region));
                }
            }
            (a, b) => panic!("outcome shapes diverged: {a:?} vs {b:?}"),
        }
    }
}

/// Degenerate datasets: duplicates, collinear points, more shards than
/// objects (some shards empty), and the empty dataset — all must keep the
/// parity guarantee and never panic.
#[test]
fn degenerate_datasets_keep_parity() {
    // All-duplicate points.
    let schema = Schema::new(vec![AttributeDef::new(
        "category",
        AttributeKind::categorical(3),
    )]);
    let mut b = DatasetBuilder::new(schema.clone());
    for i in 0..9 {
        b.push(5.0, 5.0, vec![AttrValue::Cat(i % 3)]);
    }
    let duplicates = b.build().unwrap();

    // Collinear points.
    let mut b = DatasetBuilder::new(schema.clone());
    for i in 0..11 {
        b.push(i as f64, 2.0, vec![AttrValue::Cat(i % 3)]);
    }
    let collinear = b.build().unwrap();

    // Fewer objects than shards.
    let mut b = DatasetBuilder::new(schema);
    for i in 0..5 {
        b.push(i as f64 * 3.0, i as f64, vec![AttrValue::Cat(i % 3)]);
    }
    let sparse = b.build().unwrap();

    for ds in [duplicates, collinear, sparse] {
        let agg = CompositeAggregator::builder(ds.schema())
            .distribution("category", Selection::All)
            .build()
            .unwrap();
        let baseline = sharded_engine(&ds, &agg, 1, false);
        let unsharded = sharded_engine(&ds, &agg, 0, false);
        let requests = request_pool(&ds, &agg, 5);
        let similar = QueryRequest::similar(AsrsQuery::new(
            RegionSize::new(1.0, 1.0),
            FeatureVector::new(vec![0.4, 1.3, 0.7]),
            Weights::uniform(3),
        ));
        for &k in &SHARD_COUNTS {
            let sharded = sharded_engine(&ds, &agg, k, false);
            // Every shard is accounted for: either its slab executed or
            // routing pruned it (no rectangle reaches an empty slab).  The
            // planner sends datasets this small to the naive oracle, so
            // the scatter is pinned.
            let response = sharded
                .submit(&similar.clone().with_backend(Backend::DsSearch))
                .unwrap();
            assert_eq!(
                response.stats.shards_touched + response.stats.shards_pruned,
                k as u64,
                "shards {k} over {} objects",
                ds.len()
            );
            assert!(response.stats.shards_touched >= 1);
            // Unpinned, the oracle the plan reports is what runs: no slab,
            // and the unsharded engine's outcome.
            let planned = sharded.submit(&similar).unwrap();
            assert_eq!(planned.backend, Backend::Naive);
            assert_eq!(planned.stats.shards_touched, 0, "shards {k}");
            assert_eq!(
                serde::json::to_string(&planned.stats_stripped().outcome),
                serde::json::to_string(
                    &unsharded.submit(&similar).unwrap().stats_stripped().outcome
                ),
                "shards {k}"
            );
            for request in &requests {
                let a = canonical_bytes(&baseline.submit(request).unwrap());
                let b = canonical_bytes(&sharded.submit(request).unwrap());
                assert_eq!(a, b, "shards {k}, {}", request.operation_name());
            }
        }
    }

    // The empty dataset answers with the empty-region candidate whatever
    // the shard count.
    let empty = Dataset::new_unchecked(Schema::empty(), vec![]);
    let agg = CompositeAggregator::builder(empty.schema())
        .count(Selection::All)
        .build()
        .unwrap();
    let query = AsrsQuery::new(
        RegionSize::new(1.0, 1.0),
        FeatureVector::new(vec![2.0]),
        Weights::uniform(1),
    );
    // Pinned to the scatter, as the planner sends an empty dataset to the
    // naive oracle.
    let request = QueryRequest::similar(query).with_backend(Backend::DsSearch);
    let baseline = sharded_engine(&empty, &agg, 1, false);
    let a = baseline.submit(&request).unwrap();
    assert_eq!(a.best().unwrap().distance, 2.0);
    for &k in &SHARD_COUNTS {
        let sharded = sharded_engine(&empty, &agg, k, false);
        let b = sharded.submit(&request).unwrap();
        assert_eq!(canonical_bytes(&a), canonical_bytes(&b));
        // No rectangle reaches any slab: routing prunes every shard.
        assert_eq!(b.stats.shards_pruned, k as u64);
        assert_eq!(b.stats.shards_touched, 0);
    }
}

/// Regression test: a slab no *contributing* rectangle reaches used to be
/// dropped from the gather entirely, but its arrangement cells are still
/// candidates with the empty covering — and when the empty covering ties
/// the optimum, the dropped slab can hold the tie-break winner.  Selection
/// aggregators make this easy to hit: with contributing objects confined
/// to one corner and a zero target (optimum distance 0 everywhere empty),
/// shards whose slab holds no contributing rectangle must still offer
/// their empty-covering candidates or `shards(k)` diverges from
/// `shards(1)`.
#[test]
fn rect_free_slabs_still_offer_their_empty_covering_candidates() {
    let schema = Schema::new(vec![AttributeDef::new(
        "category",
        AttributeKind::categorical(2),
    )]);
    let mut b = DatasetBuilder::new(schema);
    // Non-contributing (cat 0) objects spread left and centre...
    for i in 0..12 {
        b.push(
            1.0 + 0.2 * i as f64,
            1.0 + 0.3 * i as f64,
            vec![AttrValue::Cat(0)],
        );
    }
    for i in 0..6 {
        b.push(
            50.0 + 0.4 * i as f64,
            2.0 + 0.5 * i as f64,
            vec![AttrValue::Cat(0)],
        );
    }
    // ...contributing (cat 1) objects only far right.
    for i in 0..8 {
        b.push(
            90.0 + 0.3 * i as f64,
            1.5 + 0.4 * i as f64,
            vec![AttrValue::Cat(1)],
        );
    }
    let ds = b.build().unwrap();
    let agg = CompositeAggregator::builder(ds.schema())
        .count(Selection::cat_equals(0, 1))
        .build()
        .unwrap();
    // Target 0: every cat-1-free region is optimal, so the tie plateau
    // spans the whole left of the extent — exactly where routing prunes.
    let request = QueryRequest::similar(AsrsQuery::new(
        RegionSize::new(2.0, 2.0),
        FeatureVector::new(vec![0.0]),
        Weights::uniform(1),
    ));
    let baseline = sharded_engine(&ds, &agg, 1, false);
    let expected = canonical_bytes(&baseline.submit(&request).unwrap());
    for &k in &[2usize, 3, 4, 7] {
        let sharded = sharded_engine(&ds, &agg, k, false);
        let response = sharded.submit(&request).unwrap();
        assert_eq!(
            canonical_bytes(&response),
            expected,
            "shards {k}: a rect-free slab dropped its tied candidates"
        );
    }
}

/// Error surfaces stay consistent across shard counts: invalid requests and
/// spent budgets fail with the same error variants the baseline reports.
/// Shard count 0 (the unsharded engine) is one more input: the one
/// operation dispatch answers malformed requests identically with and
/// without the scatter.
#[test]
fn error_behaviour_is_shard_count_invariant() {
    let (ds, agg) = uniform_workload(120, 9);
    let bad = AsrsQuery::new(
        RegionSize::new(-2.0, 1.0),
        FeatureVector::new(vec![1.0; 4]),
        Weights::uniform(4),
    );
    let dim_mismatch = AsrsQuery::new(
        RegionSize::new(2.0, 1.0),
        FeatureVector::new(vec![1.0]),
        Weights::uniform(1),
    );
    let good = AsrsQuery::new(
        RegionSize::new(8.0, 8.0),
        FeatureVector::new(vec![1.2, 0.4, 2.3, 0.9]),
        Weights::uniform(4),
    );
    for k in [0, 1, 2, 4, 7] {
        // A forced GI-DS needs an index, sharded or not.
        let index_less = sharded_engine(&ds, &agg, k, false);
        assert_eq!(
            index_less
                .submit(&QueryRequest::similar(good.clone()).with_backend(Backend::GiDs))
                .unwrap_err(),
            AsrsError::IndexRequired { backend: "gi-ds" },
            "shards {k}"
        );
        assert!(matches!(
            index_less.submit(&QueryRequest::top_k(good.clone(), 0)),
            Err(AsrsError::InvalidTopK)
        ));

        let engine = sharded_engine(&ds, &agg, k, true);
        assert!(matches!(
            engine.submit(&QueryRequest::similar(bad.clone())),
            Err(AsrsError::Query(_))
        ));
        assert!(matches!(
            engine.submit(&QueryRequest::similar(dim_mismatch.clone())),
            Err(AsrsError::Query(_))
        ));
        assert!(matches!(
            engine.submit(&QueryRequest::top_k(good.clone(), 0)),
            Err(AsrsError::InvalidTopK)
        ));
        assert!(matches!(
            engine.submit(&QueryRequest::max_rs(RegionSize::new(0.0, 1.0))),
            Err(AsrsError::InvalidRegionSize { .. })
        ));
        // A malformed δ must be rejected whatever the shard count — the
        // scatter answers approximate requests exactly, but acceptance of
        // a request cannot depend on the engine's shard configuration.
        assert!(matches!(
            engine.submit(&QueryRequest::approximate(good.clone(), -1.0)),
            Err(AsrsError::Config(ConfigError::InvalidDelta { .. }))
        ));
        assert!(matches!(
            engine.submit(&QueryRequest::approximate(good.clone(), f64::NAN)),
            Err(AsrsError::Config(ConfigError::InvalidDelta { .. }))
        ));
        assert!(matches!(
            engine.submit(&QueryRequest::similar(good.clone()).with_budget_ms(0)),
            Err(AsrsError::DeadlineExceeded { .. })
        ));
        // Forcing GI-DS works on indexed sharded engines (the planner
        // reads whole-dataset index geometry), and the plan's explain
        // names the scatter fan-out exactly when there is one.
        let plan = engine
            .plan(&QueryRequest::similar(good.clone()).with_backend(Backend::GiDs))
            .unwrap();
        assert_eq!(plan.backend, Backend::GiDs);
        assert_eq!(
            plan.explain().contains("fan-out"),
            k > 0,
            "explain must name the fan-out of a sharded engine only: {}",
            plan.explain()
        );
        assert!(engine
            .submit(&QueryRequest::similar(good.clone()).with_backend(Backend::GiDs))
            .is_ok());
    }
}

/// Cache keys are derived from the request alone, so a response cached by
/// one engine replays byte-identically — statistics included — and the key
/// space is shard-count independent by construction.
#[test]
fn cache_keys_and_hits_are_shard_count_independent() {
    let (ds, agg) = uniform_workload(180, 21);
    let request = QueryRequest::similar(AsrsQuery::new(
        RegionSize::new(9.0, 7.0),
        FeatureVector::new(vec![2.3, 0.4, 1.1, 0.8]),
        Weights::uniform(4),
    ));
    // The canonical fingerprint is a pure function of the request.
    assert_eq!(request.cache_key(), request.cache_key());
    let mut engines: Vec<AsrsEngine> = Vec::new();
    for k in [1usize, 3] {
        let engine = AsrsEngine::builder(ds.clone(), agg.clone())
            .shards(k)
            .build_index(16, 16)
            .cache_capacity(8)
            .build()
            .unwrap();
        let cold = engine.submit(&request).unwrap();
        let warm = engine.submit(&request).unwrap();
        assert_eq!(
            serde::json::to_string(&cold),
            serde::json::to_string(&warm),
            "shards {k}: cache replay must be byte-identical, stats included"
        );
        let stats = engine.cache_stats().unwrap();
        assert_eq!((stats.hits, stats.misses), (1, 1), "shards {k}");
        engines.push(engine);
    }
    // And the cached outcomes agree across shard counts too.
    let a = engines[0].submit(&request).unwrap();
    let b = engines[1].submit(&request).unwrap();
    assert_eq!(canonical_bytes(&a), canonical_bytes(&b));
}
