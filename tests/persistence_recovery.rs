//! Crash-recovery parity harness for the persistence subsystem.
//!
//! The promise under test: an engine that dies — cleanly or mid-write —
//! and is reopened from its snapshot + write-ahead log answers
//! **byte-identically** to an engine that survived the same mutation
//! history in memory.  Same comparison form as `tests/mutation_parity.rs`
//! ([`QueryResponse::stats_stripped`] serialized to JSON, compared as raw
//! bytes), same shard sweep {0, 1, 2, 4}, query-result cache enabled on
//! the persistent engine throughout (generation stamping must hold across
//! a reboot: the restored engine resumes at the crashed engine's
//! generation, so warm hits can never replay a pre-crash answer for a
//! post-crash state).
//!
//! Every append the engine acknowledged is fsync'd to the log *before*
//! its generation publishes, so dropping the engine loses nothing; the
//! torn-tail test covers the harsher case of a frame cut mid-write, which
//! must cost exactly the unacknowledged mutation and nothing else.

use asrs_suite::prelude::*;
use std::path::PathBuf;

/// Shard configurations under test: the classic single engine plus the
/// scatter-gather engine at 1, 2 and 4 shards.
const SHARD_CONFIGS: [usize; 4] = [0, 1, 2, 4];

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

fn workload(n: usize, seed: u64) -> (Dataset, CompositeAggregator) {
    let ds = UniformGenerator::default().generate(n, seed);
    let agg = CompositeAggregator::builder(ds.schema())
        .distribution("category", Selection::All)
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
    let medium = query(0.25);
    vec![
        QueryRequest::similar(small.clone()),
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

fn engine_builder(
    ds: Dataset,
    agg: CompositeAggregator,
    shards: usize,
    cache: usize,
) -> EngineBuilder {
    let mut builder = AsrsEngine::builder(ds, agg)
        .build_index(12, 12)
        .cache_capacity(cache);
    if shards > 0 {
        builder = builder.shards(shards);
    }
    builder
}

fn temp_dir(tag: &str, shards: usize) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "asrs-recovery-{tag}-s{shards}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One deterministic mutation drawn from the seeded stream, applied to
/// *both* engines (the persistent one and the in-memory survivor).
fn apply_mutation_to_both(
    persistent: &AsrsEngine,
    survivor: &AsrsEngine,
    lcg: &mut Lcg,
    bbox: &Rect,
    live_ids: &mut Vec<u64>,
    next_id: &mut u64,
    template: &SpatialObject,
) {
    match lcg.pick(8) {
        0 | 1 if !live_ids.is_empty() => {
            let idx = lcg.pick(live_ids.len());
            let id = live_ids.swap_remove(idx);
            persistent.remove(id).unwrap();
            survivor.remove(id).unwrap();
        }
        // Zero-TTL append + immediate sweep: the expiry travels the WAL as
        // an `Expire` frame and must replay as its outcome (a removal).
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
            for engine in [persistent, survivor] {
                engine
                    .append_with_ttl(object.clone(), std::time::Duration::ZERO)
                    .unwrap();
                let receipts = engine.sweep_expired().unwrap();
                assert_eq!(receipts.len(), 1, "the zero-TTL object expires at once");
            }
        }
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
            persistent.append(object.clone()).unwrap();
            survivor.append(object).unwrap();
            live_ids.push(id);
        }
    }
}

fn assert_engines_agree(
    reopened: &AsrsEngine,
    survivor: &AsrsEngine,
    agg: &CompositeAggregator,
    seed: u64,
    context: &str,
) {
    assert_eq!(
        reopened.generation(),
        survivor.generation(),
        "{context}: the reopened engine must resume at the survivor's generation"
    );
    assert!(
        reopened
            .dataset()
            .objects()
            .eq(survivor.dataset().objects()),
        "{context}: datasets diverged"
    );
    for request in request_pool(&reopened.dataset(), agg, seed) {
        let expected = canonical_bytes(&survivor.submit(&request).unwrap());
        let cold = canonical_bytes(&reopened.submit(&request).unwrap());
        assert_eq!(
            cold,
            expected,
            "{context}, {}: reopened engine diverged from the survivor",
            request.operation_name()
        );
        // Warm resubmission through the reopened engine's cache.
        let warm = canonical_bytes(&reopened.submit(&request).unwrap());
        assert_eq!(
            warm,
            expected,
            "{context}, {}: warm submission replayed a stale generation",
            request.operation_name()
        );
    }
}

/// The tentpole assertion: drop the persistent engine at every checkpoint
/// of a seeded interleaving, reopen from snapshot + WAL, and require
/// byte-identical responses vs an engine that survived the same history in
/// memory — across shard counts {0, 1, 2, 4}, with a mid-stream snapshot
/// so later checkpoints recover from snapshot *plus* log tail.
#[test]
fn crashed_engines_reopen_byte_identical_to_survivors() {
    for shards in SHARD_CONFIGS {
        let (ds, agg) = workload(150, 41);
        let bbox = ds.bounding_box().unwrap();
        let template = ds.object(0).clone();
        let dir = temp_dir("crash", shards);

        let survivor = engine_builder(ds.clone(), agg.clone(), shards, 0)
            .build()
            .unwrap();
        let mut persistent = engine_builder(ds.clone(), agg.clone(), shards, 64)
            .persist_dir(&dir)
            .build()
            .unwrap();
        assert!(persistent.boot().cold_start);

        let mut lcg = Lcg::new(7000 + shards as u64);
        let mut live_ids: Vec<u64> = Vec::new();
        let mut next_id = 2_000_000u64;
        for checkpoint in 0..3 {
            for _ in 0..6 {
                apply_mutation_to_both(
                    persistent.engine(),
                    &survivor,
                    &mut lcg,
                    &bbox,
                    &mut live_ids,
                    &mut next_id,
                    &template,
                );
            }
            // Mid-stream snapshot at the second checkpoint: recovery after
            // it must stack the WAL tail on top of the newer snapshot.
            if checkpoint == 1 {
                let report = persistent.snapshot().unwrap();
                assert_eq!(report.generation, persistent.engine().generation());
                assert_eq!(report.wal_entries, 0, "snapshot compacts the log");
            }

            // "Kill" the engine (drop it) and reopen from disk.  Every
            // acknowledged mutation was fsync'd before its generation
            // published, so the reopened engine must not lose any of them.
            drop(persistent);
            persistent = engine_builder(ds.clone(), agg.clone(), shards, 64)
                .persist_dir(&dir)
                .build()
                .unwrap();
            assert!(!persistent.boot().cold_start);
            assert_engines_agree(
                persistent.engine(),
                &survivor,
                &agg,
                90 + checkpoint,
                &format!("shards {shards}, checkpoint {checkpoint}"),
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A WAL frame cut mid-write (the crash artifact fsync cannot prevent)
/// must cost exactly the torn mutation: the reopened engine matches a
/// survivor that never applied it, and keeps accepting mutations.
#[test]
fn torn_wal_tail_loses_only_the_unacknowledged_mutation() {
    for shards in [0usize, 2] {
        let (ds, agg) = workload(120, 43);
        let bbox = ds.bounding_box().unwrap();
        let template = ds.object(0).clone();
        let dir = temp_dir("torn", shards);

        let survivor = engine_builder(ds.clone(), agg.clone(), shards, 0)
            .build()
            .unwrap();
        let persistent = engine_builder(ds.clone(), agg.clone(), shards, 32)
            .persist_dir(&dir)
            .build()
            .unwrap();

        // Three mutations applied to both, one more applied only to the
        // persistent engine — its frame is then torn in half on disk.
        let mut lcg = Lcg::new(99);
        let mut ids = Vec::new();
        for i in 0..4u64 {
            let object = SpatialObject::new(
                3_000_000 + i,
                Point::new(bbox.min_x + 1.0 + i as f64, bbox.min_y + 2.0 + i as f64),
                template.values.clone(),
            );
            persistent.engine().append(object.clone()).unwrap();
            if i < 3 {
                survivor.append(object).unwrap();
                ids.push(3_000_000 + i);
            }
        }
        let _ = lcg.next_u64();
        drop(persistent);

        let wal_path = dir.join("wal.log");
        let full = std::fs::metadata(&wal_path).unwrap().len();
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(&wal_path)
            .unwrap();
        file.set_len(full - 7).unwrap();
        drop(file);

        let reopened = engine_builder(ds.clone(), agg.clone(), shards, 32)
            .persist_dir(&dir)
            .build()
            .unwrap();
        assert_eq!(
            reopened.boot().replayed_entries,
            3,
            "shards {shards}: the torn fourth frame must not replay"
        );
        assert!(reopened.boot().wal_truncated_bytes > 0);
        assert_engines_agree(
            reopened.engine(),
            &survivor,
            &agg,
            7,
            &format!("shards {shards}, torn tail"),
        );

        // The log is live again after the truncation.
        let object = SpatialObject::new(
            3_000_100,
            Point::new(bbox.min_x + 9.0, bbox.min_y + 9.0),
            template.values.clone(),
        );
        reopened.engine().append(object.clone()).unwrap();
        survivor.append(object).unwrap();
        assert_eq!(
            reopened.engine().generation(),
            survivor.generation(),
            "shards {shards}: post-recovery mutations stay aligned"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Snapshot round-trip without any WAL tail: snapshot a mutated engine,
/// reopen, and require byte identity plus zero replayed frames (the boot
/// must come from the snapshot alone, not a rebuild).
#[test]
fn snapshot_round_trip_restores_without_replay() {
    for shards in SHARD_CONFIGS {
        let (ds, agg) = workload(140, 47);
        let bbox = ds.bounding_box().unwrap();
        let template = ds.object(0).clone();
        let dir = temp_dir("roundtrip", shards);

        let survivor = engine_builder(ds.clone(), agg.clone(), shards, 0)
            .build()
            .unwrap();
        let persistent = engine_builder(ds.clone(), agg.clone(), shards, 64)
            .persist_dir(&dir)
            .build()
            .unwrap();
        let mut lcg = Lcg::new(1234);
        let mut live_ids = Vec::new();
        let mut next_id = 4_000_000u64;
        for _ in 0..10 {
            apply_mutation_to_both(
                persistent.engine(),
                &survivor,
                &mut lcg,
                &bbox,
                &mut live_ids,
                &mut next_id,
                &template,
            );
        }
        persistent.snapshot().unwrap();
        drop(persistent);

        let reopened = engine_builder(ds.clone(), agg.clone(), shards, 64)
            .persist_dir(&dir)
            .build()
            .unwrap();
        assert_eq!(
            reopened.boot().replayed_entries,
            0,
            "shards {shards}: a fresh snapshot leaves nothing to replay"
        );
        assert_eq!(
            reopened.boot().snapshot_generation,
            Some(survivor.generation())
        );
        // The restored index is the survivor's incrementally maintained
        // one, bit for bit, not merely an index that answers alike.
        let bits = |state: asrs_core::EngineState| {
            state.index.map(|index| {
                let table: Vec<u64> = index.base_table().iter().map(|v| v.to_bits()).collect();
                (index.granularity(), index.objects_indexed(), table)
            })
        };
        assert_eq!(
            bits(reopened.engine().export_state()),
            bits(survivor.export_state()),
            "shards {shards}: the restored index differs from the survivor's"
        );
        assert_engines_agree(
            reopened.engine(),
            &survivor,
            &agg,
            11,
            &format!("shards {shards}, round trip"),
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Group-committed batches must survive a crash: a history containing
/// `append_batch` payloads and a multi-expiry sweep — several WAL frames
/// per generation — reopens byte-identical to the in-memory survivor,
/// with the generation counter landing on the *batch* count, not the
/// frame count.
#[test]
fn batched_generations_replay_as_batches() {
    for shards in SHARD_CONFIGS {
        let (ds, agg) = workload(130, 59);
        let bbox = ds.bounding_box().unwrap();
        let template = ds.object(0).clone();
        let dir = temp_dir("batched", shards);

        let survivor = engine_builder(ds.clone(), agg.clone(), shards, 0)
            .build()
            .unwrap();
        let persistent = engine_builder(ds.clone(), agg.clone(), shards, 64)
            .persist_dir(&dir)
            .build()
            .unwrap();

        let mut lcg = Lcg::new(5500 + shards as u64);
        let mut frames = 0u64;
        // Two bulk payloads, an interleaved solo append, and a sweep that
        // expires three TTLs at once — four published generations, many
        // more WAL frames.
        for round in 0..2u64 {
            let payload: Vec<(SpatialObject, Option<std::time::Duration>)> = (0..6u64)
                .map(|i| {
                    (
                        SpatialObject::new(
                            5_000_000 + round * 100 + i,
                            Point::new(
                                bbox.min_x + bbox.width() * lcg.next_f64(),
                                bbox.min_y + bbox.height() * lcg.next_f64(),
                            ),
                            template.values.clone(),
                        ),
                        None,
                    )
                })
                .collect();
            for engine in [persistent.engine(), &survivor] {
                let receipts = engine.append_batch(payload.clone()).unwrap();
                assert_eq!(receipts.len(), 6);
            }
            frames += 6;
        }
        // One batch arms all three TTLs: armed by separate commits, each
        // later commit would piggyback the earlier (already-due) expiries
        // and leave the sweep below with only one.
        let ttl_payload: Vec<(SpatialObject, Option<std::time::Duration>)> = (0..3u64)
            .map(|i| {
                (
                    SpatialObject::new(
                        5_000_500 + i,
                        Point::new(
                            bbox.min_x + bbox.width() * 0.25 * (i as f64 + 0.5),
                            bbox.min_y + bbox.height() * 0.4,
                        ),
                        template.values.clone(),
                    ),
                    Some(std::time::Duration::ZERO),
                )
            })
            .collect();
        for engine in [persistent.engine(), &survivor] {
            let receipts = engine.append_batch(ttl_payload.clone()).unwrap();
            assert_eq!(receipts.len(), 3);
        }
        frames += 3;
        for engine in [persistent.engine(), &survivor] {
            let receipts = engine.sweep_expired().unwrap();
            assert_eq!(receipts.len(), 3, "all three TTLs expire in one sweep");
        }
        frames += 3;
        assert_eq!(
            persistent.engine().generation(),
            survivor.generation(),
            "shards {shards}: both engines publish the same batch count"
        );
        assert!(
            persistent.engine().generation() < frames,
            "shards {shards}: batches fold more than one frame per generation"
        );

        drop(persistent);
        let reopened = engine_builder(ds.clone(), agg.clone(), shards, 64)
            .persist_dir(&dir)
            .build()
            .unwrap();
        assert_eq!(
            reopened.boot().replayed_entries,
            frames,
            "shards {shards}: every frame of every batch replays"
        );
        assert_engines_agree(
            reopened.engine(),
            &survivor,
            &agg,
            17,
            &format!("shards {shards}, batched history"),
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The harshest batch-crash window: the WAL holds a whole batch — written
/// and fsync'd as one run of same-generation frames — but the engine died
/// before publishing it.  Reboot must replay the run as one atomic batch,
/// landing exactly one generation ahead, byte-identical to a survivor
/// that committed the batch normally.
#[test]
fn a_kill_between_batch_fsync_and_publish_replays_the_whole_batch() {
    for shards in [0usize, 2] {
        let (ds, agg) = workload(110, 67);
        let bbox = ds.bounding_box().unwrap();
        let template = ds.object(0).clone();
        let dir = temp_dir("fsync-gap", shards);

        let survivor = engine_builder(ds.clone(), agg.clone(), shards, 0)
            .build()
            .unwrap();
        let persistent = engine_builder(ds.clone(), agg.clone(), shards, 32)
            .persist_dir(&dir)
            .build()
            .unwrap();

        // Two acknowledged solo mutations, then the crash.
        let mut payload = Vec::new();
        for i in 0..2u64 {
            let object = SpatialObject::new(
                6_000_000 + i,
                Point::new(bbox.min_x + 2.0 + i as f64, bbox.min_y + 3.0),
                template.values.clone(),
            );
            persistent.engine().append(object.clone()).unwrap();
            survivor.append(object).unwrap();
        }
        for i in 0..4u64 {
            payload.push(SpatialObject::new(
                6_000_100 + i,
                Point::new(
                    bbox.min_x + bbox.width() * 0.2 * (i as f64 + 0.5),
                    bbox.min_y + bbox.height() * 0.6,
                ),
                template.values.clone(),
            ));
        }
        let at = persistent.engine().generation();
        drop(persistent);

        // Re-create the exact on-disk state of a mutator killed after the
        // batch fsync but before the epoch swap: the log gains one fsync'd
        // run of same-generation frames that no published core reflects.
        let (wal, _) = Wal::open(&dir.join("wal.log")).unwrap();
        let mutations: Vec<Mutation> = payload
            .iter()
            .map(|o| Mutation::Append { object: o.clone() })
            .collect();
        wal.append_batch(at + 1, &mutations).unwrap();
        drop(wal);

        // The survivor commits the same batch the normal way.
        let receipts = survivor
            .append_batch(payload.iter().map(|o| (o.clone(), None)).collect())
            .unwrap();
        assert_eq!(receipts.len(), 4);
        assert_eq!(survivor.generation(), at + 1);

        let reopened = engine_builder(ds.clone(), agg.clone(), shards, 32)
            .persist_dir(&dir)
            .build()
            .unwrap();
        assert_eq!(
            reopened.boot().boot_generation,
            at + 1,
            "shards {shards}: the whole run replays as one generation"
        );
        assert_engines_agree(
            reopened.engine(),
            &survivor,
            &agg,
            19,
            &format!("shards {shards}, fsync-publish gap"),
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A snapshot carries no shard layout: boot partitions the restored
/// dataset for whatever shard count the builder asks for, so an image a
/// 3-shard engine wrote (mutated past its seed) boots into a 2-shard
/// builder and answers like the 3-shard survivor.  A sharded engine keeps
/// no index, so the same image booted unsharded builds one and answers
/// like a fresh unsharded build over the survivor's dataset.
#[test]
fn a_three_shard_snapshot_boots_into_a_two_shard_builder() {
    let (ds, agg) = workload(120, 53);
    let bbox = ds.bounding_box().unwrap();
    let template = ds.object(0).clone();
    let dir = temp_dir("reshard", 3);
    let survivor = engine_builder(ds.clone(), agg.clone(), 3, 0)
        .build()
        .unwrap();
    let persistent = engine_builder(ds.clone(), agg.clone(), 3, 0)
        .persist_dir(&dir)
        .build()
        .unwrap();
    let mut lcg = Lcg::new(4321);
    let mut live_ids = Vec::new();
    let mut next_id = 6_000_000u64;
    for _ in 0..8 {
        apply_mutation_to_both(
            persistent.engine(),
            &survivor,
            &mut lcg,
            &bbox,
            &mut live_ids,
            &mut next_id,
            &template,
        );
    }
    persistent.snapshot().unwrap();
    drop(persistent);

    let reopened = engine_builder(ds.clone(), agg.clone(), 2, 16)
        .persist_dir(&dir)
        .build()
        .unwrap();
    assert_eq!(reopened.engine().shard_count(), 2);
    assert_eq!(reopened.boot().replayed_entries, 0);
    assert_engines_agree(reopened.engine(), &survivor, &agg, 23, "3 -> 2 shards");
    drop(reopened);

    let unsharded = engine_builder(ds, agg.clone(), 0, 16)
        .persist_dir(&dir)
        .build()
        .unwrap();
    assert_eq!(unsharded.engine().shard_count(), 0);
    assert_eq!(unsharded.engine().generation(), survivor.generation());
    assert!(unsharded
        .engine()
        .dataset()
        .objects()
        .eq(survivor.dataset().objects()));
    let fresh = engine_builder((*survivor.dataset()).clone(), agg.clone(), 0, 0)
        .build()
        .unwrap();
    for request in request_pool(&survivor.dataset(), &agg, 23) {
        assert_eq!(
            canonical_bytes(&unsharded.engine().submit(&request).unwrap()),
            canonical_bytes(&fresh.submit(&request).unwrap()),
            "3 -> 0 shards, {}: diverged from a fresh unsharded build",
            request.operation_name()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Rewrites the `ASNP` v2 snapshot at `path` as a version-1 file: the same
/// payload followed by a shard section (one shard listing every object
/// position, no shard index), with the checksum recomputed.
fn rewrite_as_version_one(path: &std::path::Path) {
    let bytes = std::fs::read(path).unwrap();
    assert_eq!(&bytes[4..8], &2u32.to_le_bytes());
    let mut payload = bytes[8..bytes.len() - 4].to_vec();
    let objects = payload_object_count(&payload);
    payload.push(1);
    payload.extend_from_slice(&1u64.to_le_bytes());
    for edge in [
        f64::NEG_INFINITY,
        f64::NEG_INFINITY,
        f64::INFINITY,
        f64::INFINITY,
    ] {
        payload.extend_from_slice(&edge.to_bits().to_le_bytes());
    }
    payload.extend_from_slice(&objects.to_le_bytes());
    for position in 0..objects {
        payload.extend_from_slice(&position.to_le_bytes());
    }
    payload.push(0);
    let mut v1 = b"ASNP".to_vec();
    v1.extend_from_slice(&1u32.to_le_bytes());
    v1.extend_from_slice(&payload);
    v1.extend_from_slice(&asrs_persist::crc::crc32(&payload).to_le_bytes());
    std::fs::write(path, v1).unwrap();
}

/// The object count of a v2 payload: after the generation and the
/// length-prefixed schema JSON.
fn payload_object_count(payload: &[u8]) -> u64 {
    let u64_at = |at: usize| u64::from_le_bytes(payload[at..at + 8].try_into().unwrap());
    let schema_len = u64_at(8) as usize;
    u64_at(16 + schema_len)
}

/// Version 1 of the snapshot format ended in a shard section.  A v1 file
/// must still boot — its shard section skipped, the layout recomputed —
/// rather than be passed over as corrupt, which would roll the engine
/// back to its seed once the WAL had been compacted.
#[test]
fn a_version_one_snapshot_still_boots() {
    let (ds, agg) = workload(120, 59);
    let bbox = ds.bounding_box().unwrap();
    let template = ds.object(0).clone();
    let dir = temp_dir("v1", 3);
    let survivor = engine_builder(ds.clone(), agg.clone(), 3, 0)
        .build()
        .unwrap();
    let persistent = engine_builder(ds.clone(), agg.clone(), 3, 0)
        .persist_dir(&dir)
        .build()
        .unwrap();
    let mut lcg = Lcg::new(8765);
    let mut live_ids = Vec::new();
    let mut next_id = 7_000_000u64;
    for _ in 0..8 {
        apply_mutation_to_both(
            persistent.engine(),
            &survivor,
            &mut lcg,
            &bbox,
            &mut live_ids,
            &mut next_id,
            &template,
        );
    }
    let report = persistent.snapshot().unwrap();
    assert_eq!(report.wal_entries, 0, "the snapshot compacts the whole log");
    drop(persistent);

    let path = dir.join(format!("snapshot-{:016x}.snap", survivor.generation()));
    rewrite_as_version_one(&path);
    assert!(asrs_persist::check_snapshot_file(&path)
        .unwrap()
        .findings
        .is_empty());

    let reopened = engine_builder(ds, agg.clone(), 3, 16)
        .persist_dir(&dir)
        .build()
        .unwrap();
    assert_eq!(
        reopened.boot().snapshot_generation,
        Some(survivor.generation())
    );
    assert_engines_agree(reopened.engine(), &survivor, &agg, 29, "v1 snapshot");
    let _ = std::fs::remove_dir_all(&dir);
}

/// An append at a non-finite location is refused before it reaches the
/// WAL (an accepted one made every later search panic on its invalid ASP
/// rectangle, in this process and after every reboot), and the normal
/// append after it survives WAL replay and snapshot restore.
#[test]
fn a_non_finite_append_is_refused_and_the_next_append_survives_reboots() {
    for shards in [0, 2] {
        let (ds, agg) = workload(80, 61);
        let template = ds.object(0).clone();
        let dir = temp_dir("nan", shards);
        let reboot = || {
            engine_builder(ds.clone(), agg.clone(), shards, 0)
                .persist_dir(&dir)
                .build()
                .unwrap()
        };
        let persistent = reboot();
        let located =
            |id: u64, location: Point| SpatialObject::new(id, location, template.values.clone());
        for location in [
            Point::new(f64::NAN, f64::NAN),
            Point::new(f64::INFINITY, template.location.y),
            Point::new(template.location.x, f64::NEG_INFINITY),
        ] {
            let refused = persistent.engine().append(located(9_000_000, location));
            assert!(
                matches!(
                    refused,
                    Err(AsrsError::NonFiniteLocation { id: 9_000_000, .. })
                ),
                "shards {shards}: {refused:?}"
            );
        }
        assert_eq!(persistent.engine().generation(), 0, "shards {shards}");
        persistent
            .engine()
            .append(located(9_000_001, template.location))
            .unwrap();
        let generation = persistent.engine().generation();
        let query = QueryRequest::similar(AsrsQuery::new(
            RegionSize::new(10.0, 10.0),
            FeatureVector::new(vec![1.0, 1.0, 1.0, 1.0]),
            Weights::uniform(4),
        ));
        let answer = persistent.engine().submit(&query).unwrap().stats_stripped();
        drop(persistent);

        let survived = |engine: &AsrsEngine, context: &str| {
            assert_eq!(
                engine.generation(),
                generation,
                "shards {shards}, {context}"
            );
            let dataset = engine.dataset();
            let find = |id| dataset.objects().find(|o| o.id == id);
            assert!(find(9_000_000).is_none(), "shards {shards}, {context}");
            assert!(
                find(9_000_001).is_some(),
                "shards {shards}, {context}: the append after the refusal survives"
            );
            assert_eq!(
                engine.submit(&query).unwrap().stats_stripped(),
                answer,
                "shards {shards}, {context}"
            );
        };
        let replayed = reboot();
        assert_eq!(replayed.boot().replayed_entries, 1);
        survived(replayed.engine(), "WAL replay");
        replayed.snapshot().unwrap();
        drop(replayed);
        let restored = reboot();
        assert_eq!(restored.boot().snapshot_generation, Some(generation));
        survived(restored.engine(), "snapshot");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Whether `asrs-fsck` reports a non-finite location in `dir` as an error.
fn fsck_flags_non_finite_location(dir: &std::path::Path) -> bool {
    use asrs_persist::fsck::{check_dir, FsckCategory, Severity};
    check_dir(dir)
        .unwrap()
        .all_findings()
        .iter()
        .any(|f| f.category == FsckCategory::NonFiniteLocation && f.severity == Severity::Error)
}

/// Regression test: a snapshot written before appends refused non-finite
/// locations used to boot, and every search then panicked on the record's
/// rectangle.  Boot now refuses the image with the error an append gets,
/// and `asrs-fsck` reports the record.
#[test]
fn a_snapshot_holding_a_non_finite_location_refuses_to_boot() {
    for shards in [0, 2] {
        let (ds, agg) = workload(80, 43);
        let dir = temp_dir("nan-snapshot", shards);
        std::fs::create_dir_all(&dir).unwrap();
        let mut objects: Vec<SpatialObject> = ds.objects().cloned().collect();
        objects[17].location = Point::new(f64::NAN, objects[17].location.y);
        let id = objects[17].id;
        let state = asrs_core::EngineState {
            generation: 5,
            dataset: std::sync::Arc::new(Dataset::new_unchecked(ds.schema().clone(), objects)),
            index: None,
        };
        asrs_persist::write_snapshot(&dir, &state).unwrap();
        assert!(fsck_flags_non_finite_location(&dir), "shards {shards}");
        let booted = engine_builder(ds, agg, shards, 0)
            .persist_dir(&dir)
            .build()
            .err();
        assert!(
            matches!(
                booted,
                Some(PersistError::Engine(AsrsError::NonFiniteLocation { id: refused, .. }))
                    if refused == id
            ),
            "shards {shards}: {booted:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Regression test: the same for a WAL append frame written before appends
/// refused non-finite locations — replay now refuses it.
#[test]
fn a_wal_append_holding_a_non_finite_location_refuses_to_boot() {
    for shards in [0, 2] {
        let (ds, agg) = workload(80, 47);
        let template = ds.object(0).clone();
        let dir = temp_dir("nan-wal", shards);
        let persistent = engine_builder(ds.clone(), agg.clone(), shards, 0)
            .persist_dir(&dir)
            .build()
            .unwrap();
        let generation = persistent.engine().generation();
        drop(persistent);
        let (wal, _) = Wal::open(&dir.join("wal.log")).unwrap();
        let object = SpatialObject::new(
            9_000_000,
            Point::new(template.location.x, f64::INFINITY),
            template.values.clone(),
        );
        wal.append(generation + 1, &Mutation::Append { object })
            .unwrap();
        drop(wal);
        assert!(fsck_flags_non_finite_location(&dir), "shards {shards}");
        let booted = engine_builder(ds, agg, shards, 0)
            .persist_dir(&dir)
            .build()
            .err();
        assert!(
            matches!(
                booted,
                Some(PersistError::Engine(AsrsError::NonFiniteLocation {
                    id: 9_000_000,
                    ..
                }))
            ),
            "shards {shards}: {booted:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
