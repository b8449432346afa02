//! Differential parity harness for the generational mutable engine.
//!
//! The mutation machinery promises *rebuild equivalence*: after any
//! interleaving of appends, removals, TTL expiries and queries, the
//! engine's responses are **byte-identical** to those of a fresh engine
//! built from the equivalent final dataset — for the unsharded engine and
//! for shard counts {2, 4}, with the query-result cache enabled on the
//! mutated engine (generation-stamped keys make stale hits structurally
//! impossible, so warm submissions must replay the *current* generation's
//! answer, never a superseded one).
//!
//! The comparison form is the same one `tests/shard_parity.rs`
//! established for space: [`QueryResponse::stats_stripped`] serialized to
//! JSON and compared as raw bytes.  Statistics are exempt (they describe
//! the execution that ran: a mutated engine keeps the shard layout of its
//! seed, which legitimately differs from a rebuild's fresh partition, and
//! shard layout never affects answers).

use asrs_suite::prelude::*;

/// Shard configurations under test: the unsharded engine plus the
/// scatter-gather engine at 2 and 4 shards (`shards(1)` builds the
/// unsharded engine).
const SHARD_CONFIGS: [usize; 3] = [0, 2, 4];

/// A tiny seeded LCG so the interleavings sweep deterministically without
/// depending on the vendored rand API.
struct Lcg(u64);

impl Lcg {
    fn new(seed: u64) -> Self {
        Lcg(seed.wrapping_mul(0x9e3779b97f4a7c15) | 1)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0
    }

    fn next_f64(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64) / ((1u64 << 53) as f64)
    }

    fn in_range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    fn pick(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }
}

/// A categorical workload (count-vector statistics — the paper's primary
/// aggregator family).
fn categorical_workload(n: usize, seed: u64) -> (Dataset, CompositeAggregator) {
    let ds = UniformGenerator::default().generate(n, seed);
    let agg = CompositeAggregator::builder(ds.schema())
        .distribution("category", Selection::All)
        .build()
        .unwrap();
    (ds, agg)
}

/// A float-sum workload: sum and average aggregators over a numeric
/// attribute whose values are dyadic rationals (multiples of 0.25), so
/// statistics sums are exact in any accumulation order and byte parity is
/// meaningful for the float-sum pipeline too (the Kahan-compensated
/// accumulation keeps ill-conditioned sums order-independent as well, but
/// a parity *test* should not gamble on conditioning).
fn float_sum_workload(n: usize, seed: u64) -> (Dataset, CompositeAggregator) {
    let schema = Schema::new(vec![
        AttributeDef::new("category", AttributeKind::categorical(3)),
        AttributeDef::new("weight", AttributeKind::numeric(-64.0, 64.0)),
    ]);
    let mut lcg = Lcg::new(seed);
    let mut b = DatasetBuilder::new(schema);
    for _ in 0..n {
        let x = lcg.in_range(0.0, 100.0);
        let y = lcg.in_range(0.0, 100.0);
        let weight = (lcg.in_range(-64.0, 64.0) * 4.0).round() / 4.0;
        let cat = lcg.pick(3) as u32;
        b.push(x, y, vec![AttrValue::Cat(cat), AttrValue::Num(weight)]);
    }
    let ds = b.build().unwrap();
    let agg = CompositeAggregator::builder(ds.schema())
        .sum("weight", Selection::All)
        .average("weight", Selection::cat_equals(0, 1))
        .build()
        .unwrap();
    (ds, agg)
}

/// A pool of requests spanning the operation surface, seeded.
fn request_pool(ds: &Dataset, agg: &CompositeAggregator, seed: u64) -> Vec<QueryRequest> {
    let dim = agg.feature_dim();
    let bbox = ds.bounding_box().expect("non-empty dataset");
    let mut lcg = Lcg::new(seed);
    let mut query = |frac: f64| -> AsrsQuery {
        let size = RegionSize::new(
            (bbox.width() * frac).max(1e-3),
            (bbox.height() * frac * lcg.in_range(0.6, 1.4)).max(1e-3),
        );
        let target: Vec<f64> = (0..dim).map(|_| lcg.in_range(-2.0, 6.0)).collect();
        AsrsQuery::new(size, FeatureVector::new(target), Weights::uniform(dim))
    };
    let small = query(0.08);
    let medium = query(0.22);
    let straddling = query(0.5);
    vec![
        QueryRequest::similar(small.clone()),
        QueryRequest::similar(straddling.clone()),
        QueryRequest::top_k(medium.clone(), 3),
        QueryRequest::batch(vec![small, medium.clone()]),
        QueryRequest::approximate(medium, 0.25),
        QueryRequest::max_rs(RegionSize::new(
            (bbox.width() / 9.0).max(0.5),
            (bbox.height() / 11.0).max(0.5),
        )),
    ]
}

fn canonical_bytes(response: &QueryResponse) -> String {
    serde::json::to_string(&response.stats_stripped())
}

fn build_engine(ds: Dataset, agg: CompositeAggregator, shards: usize, cache: usize) -> AsrsEngine {
    let mut builder = AsrsEngine::builder(ds, agg)
        .build_index(12, 12)
        .cache_capacity(cache);
    if shards > 0 {
        builder = builder.shards(shards);
    }
    builder.build().unwrap()
}

/// One mutation drawn from the seeded stream.  Appends stay inside the
/// original extent most of the time (incremental index maintenance), leave
/// it occasionally (geometry rebuild), and sometimes
/// carry a zero TTL followed by a sweep (expiry path).
fn apply_random_mutation(
    engine: &AsrsEngine,
    lcg: &mut Lcg,
    bbox: &Rect,
    live_ids: &mut Vec<u64>,
    next_id: &mut u64,
    template: &SpatialObject,
) {
    match lcg.pick(10) {
        // Removal (when anything is removable).
        0 | 1 if !live_ids.is_empty() => {
            let idx = lcg.pick(live_ids.len());
            let id = live_ids.swap_remove(idx);
            engine.remove(id).unwrap();
        }
        // TTL'd append + immediate sweep: exercises the expiry path.
        2 => {
            let id = *next_id;
            *next_id += 1;
            let object = SpatialObject::new(
                id,
                Point::new(
                    bbox.min_x + bbox.width() * lcg.next_f64(),
                    bbox.min_y + bbox.height() * lcg.next_f64(),
                ),
                template.values.clone(),
            );
            engine
                .append_with_ttl(object, std::time::Duration::ZERO)
                .unwrap();
            let receipts = engine.sweep_expired().unwrap();
            assert_eq!(receipts.len(), 1, "the zero-TTL object expires at once");
            assert_eq!(receipts[0].kind, "expire");
        }
        // Rare exterior append: moves the bounding box, forcing the
        // geometry-rebuild path.
        3 => {
            let id = *next_id;
            *next_id += 1;
            let object = SpatialObject::new(
                id,
                Point::new(bbox.max_x + 1.0 + lcg.next_f64() * 5.0, bbox.min_y - 1.0),
                template.values.clone(),
            );
            engine.append(object).unwrap();
            live_ids.push(id);
        }
        // Interior append: the common case, incremental maintenance.
        _ => {
            let id = *next_id;
            *next_id += 1;
            let object = SpatialObject::new(
                id,
                Point::new(
                    bbox.min_x + bbox.width() * lcg.next_f64(),
                    bbox.min_y + bbox.height() * lcg.next_f64(),
                ),
                template.values.clone(),
            );
            engine.append(object).unwrap();
            live_ids.push(id);
        }
    }
}

/// The tentpole assertion: after every checkpoint of a seeded
/// append/remove/expire interleaving, the mutated engine (cache enabled)
/// answers byte-identically to a fresh engine rebuilt from the equivalent
/// final dataset — for the unsharded engine and shard counts {2, 4} —
/// and warm resubmissions replay the current generation, never a stale
/// one.
#[test]
fn mutated_engines_answer_like_fresh_rebuilds() {
    let workloads: [(&str, (Dataset, CompositeAggregator)); 2] = [
        ("categorical", categorical_workload(160, 11)),
        ("float-sum", float_sum_workload(140, 23)),
    ];
    for (name, (ds, agg)) in workloads {
        let bbox = ds.bounding_box().unwrap();
        let template = ds.object(0).clone();
        for shards in SHARD_CONFIGS {
            let engine = build_engine(ds.clone(), agg.clone(), shards, 64);
            let mut lcg = Lcg::new(1000 + shards as u64);
            let mut live_ids: Vec<u64> = Vec::new();
            let mut next_id = 1_000_000u64;
            let mut generation_floor = 0u64;
            for checkpoint in 0..3 {
                for _ in 0..8 {
                    apply_random_mutation(
                        &engine,
                        &mut lcg,
                        &bbox,
                        &mut live_ids,
                        &mut next_id,
                        &template,
                    );
                }
                assert!(
                    engine.generation() > generation_floor,
                    "every mutation bumps the generation"
                );
                generation_floor = engine.generation();

                // Fresh engine from the equivalent final dataset (same
                // builder settings, same shard count; no cache needed —
                // byte identity is on stripped responses).
                let rebuilt = build_engine((*engine.dataset()).clone(), agg.clone(), shards, 0);
                for request in request_pool(&engine.dataset(), &agg, 77 + checkpoint) {
                    let expected = canonical_bytes(&rebuilt.submit(&request).unwrap());
                    let cold = canonical_bytes(&engine.submit(&request).unwrap());
                    assert_eq!(
                        cold,
                        expected,
                        "{name}, shards {shards}, checkpoint {checkpoint}, \
                         {}: mutated engine diverged from rebuild",
                        request.operation_name()
                    );
                    // Warm resubmission: the cache may only replay the
                    // *current* generation's response.
                    let warm = canonical_bytes(&engine.submit(&request).unwrap());
                    assert_eq!(
                        warm,
                        expected,
                        "{name}, shards {shards}, checkpoint {checkpoint}, \
                         {}: warm submission replayed a stale generation",
                        request.operation_name()
                    );
                }
                // Unsharded engines must also agree on the planner inputs
                // (sharded layouts legitimately differ from a fresh
                // partition, but shard layout never affects answers).
                if shards == 0 {
                    assert_eq!(engine.statistics(), rebuilt.statistics(), "{name}");
                }
            }
            // The interleaving exercised the incremental path (sharded
            // engines keep no index to maintain).
            let stats = engine.mutation_stats();
            assert!(
                shards > 0 || stats.incremental_index_updates > 0,
                "{name}, shards {shards}: no incremental maintenance ran: {stats:?}"
            );
            assert_eq!(
                stats.generation,
                stats.appends + stats.removes + stats.expiries,
                "every applied mutation is one generation"
            );
        }
    }
}

/// The partition's outer edges are unbounded, so appends at the extent's
/// corners, on cut lines and far outside the seed extent all route to an
/// existing region: the layout never changes, and a 3-shard engine still
/// answers byte-identically to a rebuild from the final dataset.
#[test]
fn exterior_appends_keep_parity_with_fixed_regions() {
    let (ds, agg) = categorical_workload(120, 31);
    let bbox = ds.bounding_box().unwrap();
    let template = ds.object(0).clone();
    let engine = build_engine(ds.clone(), agg.clone(), 3, 16);
    let regions = engine.shard_regions().unwrap();
    let cut = regions
        .iter()
        .map(|r| r.max_x)
        .find(|x| x.is_finite())
        .expect("a 3-way split has a finite cut");

    let corners = [
        Point::new(bbox.min_x, bbox.min_y),
        Point::new(bbox.max_x, bbox.max_y),
        Point::new(bbox.min_x, bbox.max_y),
        Point::new(bbox.max_x, bbox.min_y),
        Point::new(cut, bbox.min_y + bbox.height() * 0.5),
    ];
    let outside = [
        Point::new(bbox.max_x + 30.0, bbox.max_y + 30.0),
        Point::new(bbox.min_x - 25.0, bbox.min_y - 10.0),
        Point::new(bbox.min_x - 5.0, bbox.max_y + 40.0),
        Point::new(cut, bbox.min_y - 15.0),
    ];
    let mut next_id = 900_000;
    for (label, points) in [("corner", &corners[..]), ("exterior", &outside[..])] {
        for &p in points {
            engine
                .append(SpatialObject::new(next_id, p, template.values.clone()))
                .unwrap();
            next_id += 1;
        }
        assert_eq!(engine.shard_regions().unwrap(), regions, "{label}");
        assert!(engine.audit().is_clean(), "{label}: {:?}", engine.audit());
        let rebuilt = build_engine((*engine.dataset()).clone(), agg.clone(), 3, 0);
        for request in request_pool(&engine.dataset(), &agg, 5) {
            let expected = canonical_bytes(&rebuilt.submit(&request).unwrap());
            for pass in ["cold", "warm"] {
                assert_eq!(
                    canonical_bytes(&engine.submit(&request).unwrap()),
                    expected,
                    "{label}, {pass}: {}",
                    request.operation_name()
                );
            }
        }
    }
}

/// A whole `append_batch` payload commits as **one** generation: every
/// receipt shares the generation and reports the folded-batch size, the
/// generation counter moves by exactly one, and the batched engine answers
/// byte-identically to both a rebuild and an engine that applied the same
/// appends one by one.
#[test]
fn append_batch_is_one_generation_and_matches_sequential_application() {
    let (ds, agg) = categorical_workload(120, 47);
    let bbox = ds.bounding_box().unwrap();
    let template = ds.object(0).clone();
    for shards in SHARD_CONFIGS {
        let batched = build_engine(ds.clone(), agg.clone(), shards, 32);
        let sequential = build_engine(ds.clone(), agg.clone(), shards, 0);
        let mut lcg = Lcg::new(4000 + shards as u64);
        let objects: Vec<SpatialObject> = (0..17u64)
            .map(|i| {
                SpatialObject::new(
                    700_000 + i,
                    Point::new(
                        bbox.min_x + bbox.width() * lcg.next_f64(),
                        bbox.min_y + bbox.height() * lcg.next_f64(),
                    ),
                    template.values.clone(),
                )
            })
            .collect();

        let before = batched.generation();
        let receipts = batched
            .append_batch(objects.iter().map(|o| (o.clone(), None)).collect())
            .unwrap();
        assert_eq!(receipts.len(), objects.len());
        assert_eq!(
            batched.generation(),
            before + 1,
            "shards {shards}: one payload, one published generation"
        );
        for (i, receipt) in receipts.iter().enumerate() {
            assert_eq!(receipt.generation, before + 1);
            assert_eq!(receipt.batch, objects.len());
            assert_eq!(receipt.kind, "append");
            assert_eq!(receipt.object_count, ds.len() + i + 1);
        }

        for object in &objects {
            sequential.append(object.clone()).unwrap();
        }
        assert_eq!(
            sequential.generation(),
            before + objects.len() as u64,
            "the solo path still publishes one generation per mutation"
        );

        let rebuilt = build_engine((*batched.dataset()).clone(), agg.clone(), shards, 0);
        for request in request_pool(&batched.dataset(), &agg, 9) {
            let expected = canonical_bytes(&rebuilt.submit(&request).unwrap());
            assert_eq!(
                canonical_bytes(&batched.submit(&request).unwrap()),
                expected,
                "shards {shards}, {}: batched engine diverged from rebuild",
                request.operation_name()
            );
            assert_eq!(
                canonical_bytes(&sequential.submit(&request).unwrap()),
                expected,
                "shards {shards}, {}: sequential engine diverged from batched",
                request.operation_name()
            );
        }
        if shards == 0 {
            assert_eq!(batched.statistics(), rebuilt.statistics());
        }
    }
}

/// Batch validation is all-or-nothing: a duplicate or schema-breaking
/// object anywhere in an `append_batch` payload rejects the entire payload
/// without publishing a generation or touching the dataset.
#[test]
fn append_batch_validation_is_atomic() {
    let (ds, agg) = categorical_workload(60, 51);
    let bbox = ds.bounding_box().unwrap();
    let template = ds.object(0).clone();
    let existing_id = ds.object(0).id;
    let engine = build_engine(ds.clone(), agg, 0, 0);
    let fresh = |id: u64| {
        SpatialObject::new(
            id,
            Point::new(bbox.min_x + 1.0, bbox.min_y + 1.0),
            template.values.clone(),
        )
    };

    // A collision with a live object rejects the payload.
    let err = engine
        .append_batch(vec![
            (fresh(800_000), None),
            (fresh(existing_id), None),
            (fresh(800_001), None),
        ])
        .unwrap_err();
    assert!(matches!(err, AsrsError::DuplicateObjectId { id } if id == existing_id));

    // So does a collision *within* the payload.
    let err = engine
        .append_batch(vec![(fresh(800_002), None), (fresh(800_002), None)])
        .unwrap_err();
    assert!(matches!(err, AsrsError::DuplicateObjectId { id } if id == 800_002));

    assert_eq!(engine.generation(), 0, "no generation published");
    assert_eq!(engine.dataset().len(), ds.len(), "no object landed");

    // The same ids are free for a clean retry.
    let receipts = engine
        .append_batch(vec![(fresh(800_000), None), (fresh(800_002), None)])
        .unwrap();
    assert_eq!(receipts.len(), 2);
    assert_eq!(engine.generation(), 1);
}

/// A sweep with several due TTLs publishes **one** generation for the
/// whole sweep (the old path published one per expired object), and
/// parity with a rebuild survives it.
#[test]
fn a_sweep_expires_everything_in_one_generation() {
    let (ds, agg) = categorical_workload(80, 53);
    let bbox = ds.bounding_box().unwrap();
    let template = ds.object(0).clone();
    for shards in SHARD_CONFIGS {
        let engine = build_engine(ds.clone(), agg.clone(), shards, 16);
        // Arm all five in one batch: armed sequentially, each later commit
        // would piggyback the earlier (already-due) expiries and leave
        // nothing for the sweep under test.
        engine
            .append_batch(
                (0..5u64)
                    .map(|i| {
                        (
                            SpatialObject::new(
                                850_000 + i,
                                Point::new(
                                    bbox.min_x + bbox.width() * 0.2 * (i as f64 + 0.5),
                                    bbox.min_y + bbox.height() * 0.5,
                                ),
                                template.values.clone(),
                            ),
                            Some(std::time::Duration::ZERO),
                        )
                    })
                    .collect(),
            )
            .unwrap();
        let before = engine.generation();
        let receipts = engine.sweep_expired().unwrap();
        assert_eq!(receipts.len(), 5, "shards {shards}: all five TTLs expire");
        assert_eq!(
            engine.generation(),
            before + 1,
            "shards {shards}: one sweep, one generation"
        );
        for receipt in &receipts {
            assert_eq!(receipt.kind, "expire");
            assert_eq!(receipt.generation, before + 1);
            assert_eq!(receipt.batch, 5);
        }
        assert_eq!(engine.mutation_stats().expiries, 5);

        let rebuilt = build_engine((*engine.dataset()).clone(), agg.clone(), shards, 0);
        for request in request_pool(&engine.dataset(), &agg, 13) {
            assert_eq!(
                canonical_bytes(&engine.submit(&request).unwrap()),
                canonical_bytes(&rebuilt.submit(&request).unwrap()),
                "shards {shards}, {}: post-sweep divergence",
                request.operation_name()
            );
        }
    }
}

/// While write traffic flows, due TTL expiries ride application commit
/// batches: an append issued after a zero-TTL deadline has passed folds
/// the expiry into its own generation — no explicit sweep — and parity
/// with a rebuild survives.  The expiry serializes before the append, so
/// the caller's receipt reports the combined batch.
#[test]
fn an_application_commit_piggybacks_due_expiries() {
    let (ds, agg) = categorical_workload(80, 57);
    let bbox = ds.bounding_box().unwrap();
    let template = ds.object(0).clone();
    for shards in SHARD_CONFIGS {
        let engine = build_engine(ds.clone(), agg.clone(), shards, 16);
        engine
            .append_with_ttl(
                SpatialObject::new(
                    860_000,
                    Point::new(
                        bbox.min_x + bbox.width() * 0.3,
                        bbox.min_y + bbox.height() * 0.4,
                    ),
                    template.values.clone(),
                ),
                std::time::Duration::ZERO,
            )
            .unwrap();
        assert_eq!(
            engine.mutation_stats().expiries,
            0,
            "shards {shards}: arming a TTL survives its own commit"
        );
        let before = engine.generation();
        let receipt = engine
            .append(SpatialObject::new(
                860_001,
                Point::new(
                    bbox.min_x + bbox.width() * 0.6,
                    bbox.min_y + bbox.height() * 0.6,
                ),
                template.values.clone(),
            ))
            .unwrap();
        assert_eq!(
            engine.generation(),
            before + 1,
            "shards {shards}: expiry + append publish one generation"
        );
        assert_eq!(
            receipt.batch, 2,
            "shards {shards}: the due expiry rode the append's batch"
        );
        assert_eq!(
            engine.mutation_stats().expiries,
            1,
            "shards {shards}: the append's commit expired the due object"
        );
        assert!(
            !engine.dataset().iter().any(|(_, o)| o.id == 860_000),
            "shards {shards}: the expired object left the dataset"
        );

        let rebuilt = build_engine((*engine.dataset()).clone(), agg.clone(), shards, 0);
        for request in request_pool(&engine.dataset(), &agg, 17) {
            assert_eq!(
                canonical_bytes(&engine.submit(&request).unwrap()),
                canonical_bytes(&rebuilt.submit(&request).unwrap()),
                "shards {shards}, {}: post-piggyback divergence",
                request.operation_name()
            );
        }
    }
}

/// Concurrent mutators coalesce: handles hammering appends and removals
/// from several threads produce receipts whose generations can fold many
/// mutations into one batch, every caller still gets its own receipt, and
/// the final engine answers byte-identically to a rebuild of its final
/// dataset.  Coalescing is scheduling-dependent, so the test retries a few
/// seeded rounds until it observes a folded batch (in practice the first
/// round has them).
#[test]
fn concurrent_mutations_coalesce_and_keep_parity() {
    let (ds, agg) = categorical_workload(100, 61);
    let bbox = ds.bounding_box().unwrap();
    let template = ds.object(0).clone();
    let engine = build_engine(ds.clone(), agg.clone(), 2, 32);
    let mut saw_folded_batch = false;

    for round in 0..50u64 {
        let threads = 4;
        let per_thread = 24;
        let barrier = std::sync::Arc::new(std::sync::Barrier::new(threads));
        let before = engine.generation();
        let mut joins = Vec::new();
        for t in 0..threads as u64 {
            let handle = engine.handle();
            let barrier = std::sync::Arc::clone(&barrier);
            let template = template.clone();
            joins.push(std::thread::spawn(move || {
                let mut lcg = Lcg::new(9000 + round * 31 + t);
                let mut mine: Vec<u64> = Vec::new();
                let mut max_batch = 1usize;
                barrier.wait();
                for i in 0..per_thread {
                    let receipt = if !mine.is_empty() && lcg.pick(4) == 0 {
                        let id = mine.swap_remove(lcg.pick(mine.len()));
                        handle.remove(id).unwrap()
                    } else {
                        let id = 1_000_000 + round * 10_000 + t * 1_000 + i;
                        let object = SpatialObject::new(
                            id,
                            Point::new(
                                bbox.min_x + bbox.width() * lcg.next_f64(),
                                bbox.min_y + bbox.height() * lcg.next_f64(),
                            ),
                            template.values.clone(),
                        );
                        let receipt = handle.append(object).unwrap();
                        mine.push(id);
                        receipt
                    };
                    assert!(receipt.generation > before);
                    assert!(receipt.batch >= 1);
                    max_batch = max_batch.max(receipt.batch);
                }
                // Leave this thread's survivors in place for the parity
                // check; report the largest fold observed.
                max_batch
            }));
        }
        let mut mutations_applied = 0u64;
        for join in joins {
            let max_batch = join.join().unwrap();
            saw_folded_batch |= max_batch > 1;
            mutations_applied += per_thread;
        }
        let published = engine.generation() - before;
        assert!(
            published >= 1 && published <= mutations_applied,
            "round {round}: {published} generations for {mutations_applied} mutations"
        );
        if saw_folded_batch {
            break;
        }
    }
    assert!(
        saw_folded_batch,
        "50 rounds of 4-thread contention never coalesced a batch"
    );

    let stats = engine.mutation_stats();
    assert!(
        stats.generation <= stats.appends + stats.removes + stats.expiries,
        "coalescing can only fold generations, never mint extras: {stats:?}"
    );

    let rebuilt = build_engine((*engine.dataset()).clone(), agg.clone(), 2, 0);
    for request in request_pool(&engine.dataset(), &agg, 21) {
        assert_eq!(
            canonical_bytes(&engine.submit(&request).unwrap()),
            canonical_bytes(&rebuilt.submit(&request).unwrap()),
            "{}: concurrent-mutation engine diverged from rebuild",
            request.operation_name()
        );
    }
}

/// Mutating down to (and back up from) the empty dataset must not wedge
/// the engine: the index is dropped when the last object leaves and
/// rebuilt when the first one returns, and parity holds throughout.
#[test]
fn draining_and_refilling_the_dataset_keeps_parity() {
    let schema = Schema::new(vec![AttributeDef::new(
        "category",
        AttributeKind::categorical(2),
    )]);
    let mut b = DatasetBuilder::new(schema);
    for i in 0..6 {
        b.push(
            i as f64 * 7.0,
            (i % 3) as f64 * 5.0,
            vec![AttrValue::Cat(i % 2)],
        );
    }
    let ds = b.build().unwrap();
    let agg = CompositeAggregator::builder(ds.schema())
        .distribution("category", Selection::All)
        .build()
        .unwrap();
    let engine = build_engine(ds.clone(), agg.clone(), 0, 8);

    // Drain everything.
    for id in 0..6 {
        engine.remove(id).unwrap();
    }
    assert_eq!(engine.dataset().len(), 0);
    assert!(engine.index().is_none(), "the index is dropped when empty");
    let query = AsrsQuery::new(
        RegionSize::new(2.0, 2.0),
        FeatureVector::new(vec![1.0, 1.0]),
        Weights::uniform(2),
    );
    // The empty engine still answers (the empty-region candidate).
    let response = engine
        .submit(&QueryRequest::similar(query.clone()))
        .unwrap();
    assert_eq!(response.best().unwrap().distance, 2.0);

    // Refill: the index comes back and parity holds.
    for i in 0..5u64 {
        engine
            .append(SpatialObject::new(
                100 + i,
                Point::new(3.0 + i as f64 * 4.0, 2.0 + i as f64),
                vec![AttrValue::Cat((i % 2) as u32)],
            ))
            .unwrap();
    }
    assert!(engine.index().is_some(), "the index returns with the data");
    let rebuilt = build_engine((*engine.dataset()).clone(), agg, 0, 0);
    assert_eq!(
        canonical_bytes(
            &engine
                .submit(&QueryRequest::similar(query.clone()))
                .unwrap()
        ),
        canonical_bytes(&rebuilt.submit(&QueryRequest::similar(query)).unwrap()),
    );
    assert_eq!(engine.statistics(), rebuilt.statistics());
}

/// The churn half of the parity promise: under a mixed read/append
/// interleaving the cache *carries* provably unaffected entries across
/// generations (see `asrs-core`'s `carry` module), and every carried hit
/// must still be byte-identical to a cold recomputation against a fresh
/// rebuild.  Debug builds additionally prove every individual carry by
/// recomputation before it becomes servable; this test is the release-mode
/// enforcement of the same obligation — `cargo test --release` runs the
/// exact comparison the debug proof path performs.
#[test]
fn churn_carried_hits_are_byte_identical_to_cold_recompute() {
    for (name, (ds, agg)) in [
        ("categorical", categorical_workload(400, 71)),
        ("float-sum", float_sum_workload(260, 72)),
    ] {
        for shards in SHARD_CONFIGS {
            let engine = build_engine(ds.clone(), agg.clone(), shards, 64);
            let bbox = ds.bounding_box().unwrap();
            let template = ds.objects().next().unwrap().clone();
            let requests = request_pool(&ds, &agg, 73);
            let mut lcg = Lcg::new(7000 + shards as u64);
            let mut next_id = 5_000_000u64;
            // Warm the cache, then interleave one interior append per full
            // read pass — the mixed-row cadence of the server bench.
            for request in &requests {
                engine.submit(request).unwrap();
            }
            for _ in 0..12 {
                let object = SpatialObject::new(
                    next_id,
                    Point::new(
                        bbox.min_x + bbox.width() * lcg.in_range(0.05, 0.95),
                        bbox.min_y + bbox.height() * lcg.in_range(0.05, 0.95),
                    ),
                    template.values.clone(),
                );
                next_id += 1;
                engine.append(object).unwrap();
                let rebuilt = build_engine((*engine.dataset()).clone(), agg.clone(), shards, 0);
                for request in &requests {
                    assert_eq!(
                        canonical_bytes(&engine.submit(request).unwrap()),
                        canonical_bytes(&rebuilt.submit(request).unwrap()),
                        "{name}, shards {shards}, {}: churned engine diverged \
                         from cold rebuild",
                        request.operation_name()
                    );
                }
            }
            let stats = engine.cache_stats().unwrap();
            assert_eq!(
                stats.carry_proof_failures, 0,
                "{name}, shards {shards}: the carry predicate accepted an \
                 entry the byte-identity proof rejected: {stats:?}"
            );
            // Every engine with a cache carries, sharded or not.
            assert!(
                stats.carried_forward > 0,
                "{name}, shards {shards}: the churn interleaving never \
                 exercised a carry — the run proves nothing about carried \
                 hits: {stats:?}"
            );
        }
    }
}

/// A stampede of identical cold queries coalesces onto one in-flight
/// computation: every caller gets a byte-identical response and at least
/// one follower waited on the leader's slot instead of recomputing.
#[test]
fn a_stampede_of_identical_cold_queries_coalesces() {
    let (ds, agg) = categorical_workload(600, 81);
    let bbox = ds.bounding_box().unwrap();
    let dim = agg.feature_dim();
    // Unsharded engine with the exhaustive oracle forced: the computation
    // is orders of magnitude longer than the in-flight table handoff, so
    // the barrier-released followers find the leader's flight in place.
    let engine = build_engine(ds, agg, 0, 16);
    let query = AsrsQuery::new(
        RegionSize::new(bbox.width() * 0.3, bbox.height() * 0.3),
        FeatureVector::new(vec![2.0; dim]),
        Weights::uniform(dim),
    );
    let request = QueryRequest::top_k(query, 3).with_backend(Backend::Naive);
    let threads = 8;
    let barrier = std::sync::Barrier::new(threads);
    let bytes: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    canonical_bytes(&engine.submit(&request).unwrap())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for b in &bytes[1..] {
        assert_eq!(b, &bytes[0], "stampede callers diverged");
    }
    let stats = engine.cache_stats().unwrap();
    assert!(
        stats.coalesced_waits >= 1,
        "no caller coalesced onto the in-flight computation: {stats:?}"
    );
}

/// The carry predicate's negative space: an append *inside* a reported
/// result region changes that entry's answer, so the publish pass must
/// reject the carry and the next submission must recompute cold.
#[test]
fn an_append_inside_a_reported_region_rejects_the_carry() {
    let (ds, agg) = categorical_workload(500, 91);
    let bbox = ds.bounding_box().unwrap();
    let dim = agg.feature_dim();
    let template = ds.objects().next().unwrap().clone();
    let engine = build_engine(ds, agg.clone(), 2, 16);
    let query = AsrsQuery::new(
        RegionSize::new(bbox.width() * 0.12, bbox.height() * 0.12),
        FeatureVector::new(vec![4.0; dim]),
        Weights::uniform(dim),
    );
    let request = QueryRequest::similar(query);
    let cold = engine.submit(&request).unwrap();
    let region = cold.best().unwrap().region;
    // Strictly inside the reported region *and* the dataset extent, so
    // the only carry gate this append can trip is the region check.
    let p = Point::new(
        (region.min_x + region.max_x) / 2.0,
        (region.min_y + region.max_y) / 2.0,
    );
    assert!(
        region.strictly_contains_point(&p) && bbox.strictly_contains_point(&p),
        "seed produced a region center outside the extent; re-seed the test"
    );
    engine
        .append(SpatialObject::new(9_999_999, p, template.values.clone()))
        .unwrap();
    assert_eq!(
        engine.dataset().bounding_box(),
        Some(bbox),
        "the interior append must not move the bounding box"
    );
    let stats = engine.cache_stats().unwrap();
    assert_eq!(
        stats.carried_forward, 0,
        "an entry whose reported region absorbed the append was carried: {stats:?}"
    );
    let misses_before = stats.misses;
    let warm = engine.submit(&request).unwrap();
    let stats = engine.cache_stats().unwrap();
    assert_eq!(
        stats.misses,
        misses_before + 1,
        "the rejected entry must recompute cold: {stats:?}"
    );
    let rebuilt = build_engine((*engine.dataset()).clone(), agg, 2, 0);
    assert_eq!(
        canonical_bytes(&warm),
        canonical_bytes(&rebuilt.submit(&request).unwrap()),
        "post-append recomputation diverged from a fresh rebuild"
    );
}

/// The MaxRS arm of the carry predicate: through the MaxRS → ASRS
/// reduction, a cached densest-region answer survives an append whose
/// influence window cannot reach the reported count, and the carried hit
/// serves bytes identical to a cold rebuild's answer.
#[test]
fn a_maxrs_entry_carries_across_a_distant_append() {
    let (ds, agg) = categorical_workload(500, 95);
    let bbox = ds.bounding_box().unwrap();
    let template = ds.objects().next().unwrap().clone();
    let engine = build_engine(ds, agg.clone(), 2, 16);
    let request = QueryRequest::max_rs(RegionSize::new(
        (bbox.width() / 9.0).max(0.5),
        (bbox.height() / 11.0).max(0.5),
    ));
    let cold = engine.submit(&request).unwrap();
    let region = cold.max_rs().unwrap().region;
    // An interior corner append: far from the dense winner, so its
    // influence window cannot hold a competitive candidate, and the
    // bounding box stays put (no batch-level rejection).
    let p = Point::new(
        bbox.min_x + bbox.width() * 0.02,
        bbox.min_y + bbox.height() * 0.02,
    );
    assert!(
        !region.contains_point(&p),
        "seed placed the densest region at the corner; re-seed the test"
    );
    engine
        .append(SpatialObject::new(9_999_998, p, template.values.clone()))
        .unwrap();
    assert_eq!(engine.dataset().bounding_box(), Some(bbox));
    let stats = engine.cache_stats().unwrap();
    assert_eq!(
        stats.carried_forward, 1,
        "the distant append must carry the MaxRS entry: {stats:?}"
    );
    let hits_before = stats.hits;
    let warm = engine.submit(&request).unwrap();
    let stats = engine.cache_stats().unwrap();
    assert_eq!(
        stats.hits,
        hits_before + 1,
        "the carried MaxRS entry must serve a hit: {stats:?}"
    );
    let rebuilt = build_engine((*engine.dataset()).clone(), agg, 2, 0);
    assert_eq!(
        canonical_bytes(&warm),
        canonical_bytes(&rebuilt.submit(&request).unwrap()),
        "carried MaxRS hit diverged from a cold rebuild"
    );
}

/// The MaxRS arm's negative space: an append inside the reported densest
/// region raises its count, so the carry must be rejected and the next
/// submission recomputes cold — finding the improved answer.
#[test]
fn an_append_inside_the_maxrs_region_rejects_the_carry() {
    let (ds, agg) = categorical_workload(500, 97);
    let bbox = ds.bounding_box().unwrap();
    let template = ds.objects().next().unwrap().clone();
    let engine = build_engine(ds, agg.clone(), 2, 16);
    let request = QueryRequest::max_rs(RegionSize::new(
        (bbox.width() / 9.0).max(0.5),
        (bbox.height() / 11.0).max(0.5),
    ));
    let cold = engine.submit(&request).unwrap();
    let result = cold.max_rs().unwrap();
    let p = Point::new(
        (result.region.min_x + result.region.max_x) / 2.0,
        (result.region.min_y + result.region.max_y) / 2.0,
    );
    assert!(
        result.region.strictly_contains_point(&p) && bbox.strictly_contains_point(&p),
        "seed produced a winner region on the extent edge; re-seed the test"
    );
    engine
        .append(SpatialObject::new(9_999_997, p, template.values.clone()))
        .unwrap();
    assert_eq!(engine.dataset().bounding_box(), Some(bbox));
    let stats = engine.cache_stats().unwrap();
    assert_eq!(
        stats.carried_forward, 0,
        "an entry whose region absorbed the append was carried: {stats:?}"
    );
    let misses_before = stats.misses;
    let warm = engine.submit(&request).unwrap();
    let stats = engine.cache_stats().unwrap();
    assert_eq!(
        stats.misses,
        misses_before + 1,
        "must recompute cold: {stats:?}"
    );
    assert!(
        warm.max_rs().unwrap().count >= result.count,
        "the interior append cannot lower the densest count"
    );
    let rebuilt = build_engine((*engine.dataset()).clone(), agg, 2, 0);
    assert_eq!(
        canonical_bytes(&warm),
        canonical_bytes(&rebuilt.submit(&request).unwrap()),
        "post-append recomputation diverged from a fresh rebuild"
    );
}

/// An approximate request on the shared seed of the approximate-carry
/// tests: a 12% window with a dense target, δ = 0.25.
fn approximate_request(bbox: Rect, dim: usize) -> QueryRequest {
    QueryRequest::approximate(
        AsrsQuery::new(
            RegionSize::new(bbox.width() * 0.12, bbox.height() * 0.12),
            FeatureVector::new(vec![4.0; dim]),
            Weights::uniform(dim),
        ),
        0.25,
    )
}

/// The approximate arm of the carry predicate: a sharded engine answers
/// an approximate request with the exact scatter, and the naive oracle has
/// no δ, so on those executors the cached entry carries across a distant
/// interior append exactly like a similar-region entry (an unsharded
/// engine pinned to the oracle included), and the carried hit serves bytes
/// identical to a cold rebuild's answer.
#[test]
fn an_approximate_entry_carries_across_a_distant_append() {
    for (shards, pin) in [(2, None), (4, None), (0, Some(Backend::Naive))] {
        let (ds, agg) = categorical_workload(500, 91);
        let bbox = ds.bounding_box().unwrap();
        let template = ds.objects().next().unwrap().clone();
        let engine = build_engine(ds, agg.clone(), shards, 16);
        let mut request = approximate_request(bbox, agg.feature_dim());
        if let Some(backend) = pin {
            request = request.with_backend(backend);
        }
        let region = engine.submit(&request).unwrap().best().unwrap().region;
        let p = Point::new(
            bbox.min_x + bbox.width() * 0.02,
            bbox.min_y + bbox.height() * 0.02,
        );
        assert!(
            !region.contains_point(&p),
            "seed placed the best region at the corner; re-seed the test"
        );
        engine
            .append(SpatialObject::new(9_999_996, p, template.values.clone()))
            .unwrap();
        assert_eq!(engine.dataset().bounding_box(), Some(bbox));
        let stats = engine.cache_stats().unwrap();
        assert_eq!(
            stats.carried_forward, 1,
            "{shards} shards: the distant append must carry the approximate entry: {stats:?}"
        );
        let hits_before = stats.hits;
        let warm = engine.submit(&request).unwrap();
        let stats = engine.cache_stats().unwrap();
        assert_eq!(
            stats.hits,
            hits_before + 1,
            "{shards} shards: the carried entry must serve a hit: {stats:?}"
        );
        let rebuilt = build_engine((*engine.dataset()).clone(), agg, shards, 0);
        assert_eq!(
            canonical_bytes(&warm),
            canonical_bytes(&rebuilt.submit(&request).unwrap()),
            "{shards} shards: carried approximate hit diverged from a cold rebuild"
        );
    }
}

/// The approximate arm's negative space: an append inside the reported
/// region rejects the carry on every shard count, and an unsharded
/// engine, whose planned backends prune against the (1+δ) band, never
/// carries a planned approximate entry at all.
#[test]
fn approximate_entries_reject_interior_appends_and_never_carry_unsharded() {
    for shards in [0, 2, 4] {
        let (ds, agg) = categorical_workload(500, 91);
        let bbox = ds.bounding_box().unwrap();
        let template = ds.objects().next().unwrap().clone();
        let engine = build_engine(ds, agg.clone(), shards, 16);
        let request = approximate_request(bbox, agg.feature_dim());
        let region = engine.submit(&request).unwrap().best().unwrap().region;
        let inside = Point::new(
            (region.min_x + region.max_x) / 2.0,
            (region.min_y + region.max_y) / 2.0,
        );
        let distant = Point::new(
            bbox.min_x + bbox.width() * 0.02,
            bbox.min_y + bbox.height() * 0.02,
        );
        assert!(
            region.strictly_contains_point(&inside) && bbox.strictly_contains_point(&inside),
            "seed produced a region center outside the extent; re-seed the test"
        );
        // Unsharded: even the distant append, which carries on every
        // sharded engine, must not carry.  Sharded: the interior one must
        // not.
        let p = if shards == 0 { distant } else { inside };
        engine
            .append(SpatialObject::new(9_999_995, p, template.values.clone()))
            .unwrap();
        assert_eq!(engine.dataset().bounding_box(), Some(bbox));
        let stats = engine.cache_stats().unwrap();
        assert_eq!(
            stats.carried_forward, 0,
            "{shards} shards: the approximate entry was carried: {stats:?}"
        );
        let misses_before = stats.misses;
        let warm = engine.submit(&request).unwrap();
        let stats = engine.cache_stats().unwrap();
        assert_eq!(
            stats.misses,
            misses_before + 1,
            "{shards} shards: must recompute cold: {stats:?}"
        );
        let rebuilt = build_engine((*engine.dataset()).clone(), agg, shards, 0);
        assert_eq!(
            canonical_bytes(&warm),
            canonical_bytes(&rebuilt.submit(&request).unwrap()),
            "{shards} shards: recomputation diverged from a fresh rebuild"
        );
    }
}
