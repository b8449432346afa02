//! The `asrs-fsck` fixture corpus: every class of on-disk damage the
//! verifier claims to detect, manufactured deliberately and checked for
//! the right category *and* the right process exit code.
//!
//! The corpus runs the real binary (`CARGO_BIN_EXE_asrs-fsck`), so the
//! CLI surface — JSON on stdout, summaries on stderr, the 0/1/2/3 exit
//! contract — is under test, not just the library functions.

use asrs_aggregator::{CompositeAggregator, Selection};
use asrs_audit::{check_dir, check_snapshot_file, FsckCategory, Severity};
use asrs_core::EngineState;
use asrs_core::{AsrsEngine, EngineBuilder};
use asrs_data::columnar;
use asrs_data::gen::UniformGenerator;
use asrs_data::{AttrValue, Dataset, Mutation, SpatialObject};
use asrs_geo::Point;
use asrs_persist::crc::crc32;
use asrs_persist::{PersistError, PersistExt, Wal};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Barrier;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("asrs-fsck-fixture-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn object(id: u64) -> SpatialObject {
    SpatialObject::new(
        id,
        Point::new(20.0 + id as f64 % 17.0, 80.0 - id as f64 % 5.0),
        vec![AttrValue::Cat(id as u32 % 4)],
    )
}

fn engine_builder(shards: usize) -> EngineBuilder {
    let ds = UniformGenerator::default().generate(160, 11);
    let agg = CompositeAggregator::builder(ds.schema())
        .distribution("category", Selection::All)
        .build()
        .unwrap();
    let builder = AsrsEngine::builder(ds, agg).build_index(8, 8);
    if shards > 0 {
        builder.shards(shards)
    } else {
        builder
    }
}

/// Builds a healthy persistence directory: a snapshotted engine plus a
/// few WAL frames, the way the recovery suite leaves them.
fn healthy_dir(tag: &str, shards: usize, mutations: u64) -> PathBuf {
    let dir = temp_dir(tag);
    let p = engine_builder(shards).persist_dir(&dir).build().unwrap();
    for id in 0..mutations {
        p.engine().append(object(2000 + id)).unwrap();
    }
    dir
}

fn snapshot_path(dir: &Path) -> PathBuf {
    fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|e| e == "snap"))
        .expect("a snapshot exists")
}

/// Runs the real asrs-fsck binary over `dirs` and returns (exit code,
/// stdout).
fn run_fsck(dirs: &[&Path]) -> (i32, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_asrs-fsck"))
        .arg("--quiet")
        .args(dirs)
        .output()
        .expect("asrs-fsck runs");
    (
        output.status.code().expect("fsck exits normally"),
        String::from_utf8_lossy(&output.stdout).into_owned(),
    )
}

#[test]
fn healthy_directories_exit_zero_with_a_clean_json_report() {
    let unsharded = healthy_dir("ok0", 0, 3);
    let sharded = healthy_dir("ok3", 3, 5);
    let (code, stdout) = run_fsck(&[&unsharded, &sharded]);
    assert_eq!(code, 0, "healthy directories must pass: {stdout}");
    assert!(stdout.contains("\"errors\":0"), "{stdout}");
    assert!(stdout.contains("\"warnings\":0"), "{stdout}");
    let _ = fs::remove_dir_all(&unsharded);
    let _ = fs::remove_dir_all(&sharded);
}

/// Directories written under concurrent load pass the real binary: writer
/// threads drive cloned engine handles with solo appends, batches and
/// removals (group commits), while a checkpointer snapshots whenever the
/// small compaction threshold says one is due, as the server's maintenance
/// thread does.  It skips the last round, so that round's frames stay in
/// the log.
#[test]
fn directories_written_under_concurrent_load_pass_fsck() {
    const WRITERS: u64 = 3;
    const ROUNDS: u64 = 4;
    let dirs: Vec<PathBuf> = [0usize, 2]
        .into_iter()
        .map(|shards| {
            let dir = temp_dir(&format!("load{shards}"));
            let p = engine_builder(shards)
                .persist_dir(&dir)
                .compaction_threshold(4)
                .build()
                .unwrap();
            let round = Barrier::new(WRITERS as usize + 1);
            std::thread::scope(|scope| {
                for writer in 0..WRITERS {
                    let handle = p.handle();
                    let round = &round;
                    scope.spawn(move || {
                        for r in 0..ROUNDS {
                            round.wait();
                            let id = 10_000 + writer * 1_000 + r * 10;
                            handle.append(object(id)).unwrap();
                            let batch = (id + 1..id + 4).map(|i| (object(i), None)).collect();
                            handle.append_batch(batch).unwrap();
                            handle.remove(id + 2).unwrap();
                        }
                    });
                }
                for r in 0..ROUNDS {
                    round.wait();
                    // Each finished round logged 15 frames, past the threshold.
                    if r + 1 < ROUNDS && p.persist().snapshot_due() {
                        p.snapshot().unwrap();
                    }
                }
            });

            let report = check_dir(&dir).unwrap();
            assert!(!report.snapshots.is_empty(), "shards {shards}: no snapshot");
            let frames = report.wal.as_ref().map_or(0, |w| w.frames);
            assert!(frames > 0, "shards {shards}: the log tail is empty");
            assert!(report.final_generation > 0);
            assert_eq!(report.final_generation, p.engine().generation());
            dir
        })
        .collect();

    let paths: Vec<&Path> = dirs.iter().map(PathBuf::as_path).collect();
    let (code, stdout) = run_fsck(&paths);
    assert_eq!(
        code, 0,
        "directories written under load must pass: {stdout}"
    );
    for dir in &dirs {
        let _ = fs::remove_dir_all(dir);
    }
}

#[test]
fn a_flipped_crc_byte_in_a_snapshot_is_a_checksum_error() {
    let dir = healthy_dir("crcflip", 0, 0);
    let snap = snapshot_path(&dir);
    // Flip one bit of the stored CRC itself — the payload is pristine,
    // only the trailer lies.
    let mut bytes = fs::read(&snap).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    fs::write(&snap, &bytes).unwrap();

    let report = check_dir(&dir).unwrap();
    let categories: Vec<_> = report
        .all_findings()
        .into_iter()
        .map(|f| f.category)
        .collect();
    assert!(
        categories.contains(&FsckCategory::ChecksumMismatch),
        "{categories:?}"
    );

    let (code, stdout) = run_fsck(&[&dir]);
    assert_eq!(code, 1, "corruption must exit nonzero: {stdout}");
    assert!(stdout.contains("ChecksumMismatch"), "{stdout}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_truncated_wal_frame_is_a_torn_tail_warning() {
    let dir = healthy_dir("torn", 0, 4);
    let wal = dir.join("wal.log");
    let full = fs::metadata(&wal).unwrap().len();
    let f = fs::OpenOptions::new().write(true).open(&wal).unwrap();
    f.set_len(full - 7).unwrap();
    drop(f);

    let report = check_dir(&dir).unwrap();
    let torn: Vec<_> = report
        .all_findings()
        .into_iter()
        .filter(|f| f.category == FsckCategory::TornTail)
        .collect();
    assert_eq!(torn.len(), 1);
    assert_eq!(torn[0].severity, Severity::Warning);
    assert_eq!(
        report.replayable_frames, 3,
        "the torn frame is not replayable"
    );

    let (code, stdout) = run_fsck(&[&dir]);
    assert_eq!(code, 2, "warnings exit 2: {stdout}");
    assert!(stdout.contains("TornTail"), "{stdout}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_generation_gap_in_the_wal_is_a_contiguity_error() {
    let dir = healthy_dir("gap", 0, 1);
    {
        let (wal, _) = Wal::open(&dir.join("wal.log")).unwrap();
        wal.append(40, &Mutation::Remove { id: 2000 }).unwrap();
    }
    let report = check_dir(&dir).unwrap();
    let categories: Vec<_> = report
        .all_findings()
        .into_iter()
        .map(|f| f.category)
        .collect();
    assert!(
        categories.contains(&FsckCategory::GenerationGap)
            || categories.contains(&FsckCategory::GenerationDiscontinuity),
        "{categories:?}"
    );

    let (code, stdout) = run_fsck(&[&dir]);
    assert_eq!(code, 1, "a history gap is corruption: {stdout}");
    let _ = fs::remove_dir_all(&dir);
}

/// Writes `snapshot-<generation>.snap` into `dir` around a hand-built
/// `index` section: a real dataset, then the index bytes.  The framing
/// (magic, version, CRC) is *valid* — only the content is poisoned, so
/// nothing but the payload decoder can catch it.
fn write_raw_snapshot(dir: &Path, generation: u64, ds: &Dataset, index: &[u8]) -> PathBuf {
    let mut payload = Vec::new();
    columnar::put_u64(&mut payload, generation);
    columnar::encode_dataset(ds, &mut payload);
    payload.extend_from_slice(index);

    let mut bytes = Vec::new();
    bytes.extend_from_slice(b"ASNP");
    bytes.extend_from_slice(&2u32.to_le_bytes());
    bytes.extend_from_slice(&payload);
    bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
    let snap = dir.join(format!("snapshot-{generation:016x}.snap"));
    fs::write(&snap, &bytes).unwrap();
    snap
}

/// A fresh directory holding only a generation-0 raw snapshot.
fn snapshot_with_index_section(tag: &str, index: &[u8]) -> (PathBuf, PathBuf) {
    let dir = temp_dir(tag);
    fs::create_dir_all(&dir).unwrap();
    let ds = UniformGenerator::default().generate(50, 23);
    let snap = write_raw_snapshot(&dir, 0, &ds, index);
    (dir, snap)
}

/// An index section: the rectangle, a 1x1 grid with one stats dim, and a
/// declared base-table length followed by no entries.
fn index_section(rect: [f64; 4], base_len: u64) -> Vec<u8> {
    let mut index = Vec::new();
    columnar::put_u8(&mut index, 1); // index present
    for v in rect {
        columnar::put_f64(&mut index, v);
    }
    for v in [1, 1, 1, 0] {
        columnar::put_u64(&mut index, v); // cols, rows, stats dims, objects
    }
    columnar::put_u64(&mut index, base_len);
    index
}

/// Asserts the snapshot decodes to exactly one `PayloadDecode` error, and
/// that the binary exits 1 (corruption) instead of crashing.
fn assert_payload_decode_error(dir: &Path, snap: &Path) {
    let check = check_snapshot_file(snap).unwrap();
    assert!(!check.loadable());
    assert_eq!(check.findings.len(), 1, "{:?}", check.findings);
    assert_eq!(check.findings[0].category, FsckCategory::PayloadDecode);

    let (code, stdout) = run_fsck(&[dir]);
    assert_eq!(code, 1, "{stdout}");
    assert!(stdout.contains("PayloadDecode"), "{stdout}");
}

#[test]
fn a_nan_index_rectangle_is_a_payload_decode_error() {
    let index = index_section([f64::NAN, 0.0, 1.0, 1.0], 4);
    let (dir, snap) = snapshot_with_index_section("nanrect", &index);
    assert_payload_decode_error(&dir, &snap);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn an_oversized_base_table_length_is_a_payload_decode_error() {
    let index = index_section([0.0, 0.0, 1.0, 1.0], u64::MAX / 4);
    let (dir, snap) = snapshot_with_index_section("hugelen", &index);
    assert_payload_decode_error(&dir, &snap);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_foreign_snapshot_file_is_a_bad_magic_error() {
    let dir = healthy_dir("magic", 0, 0);
    let snap = snapshot_path(&dir);
    let mut bytes = fs::read(&snap).unwrap();
    bytes[..4].copy_from_slice(b"NOPE");
    fs::write(&snap, &bytes).unwrap();

    let check = check_snapshot_file(&snap).unwrap();
    assert_eq!(check.findings[0].category, FsckCategory::BadMagic);
    let (code, _) = run_fsck(&[&dir]);
    assert_eq!(code, 1);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_future_format_version_is_a_bad_version_error() {
    let dir = healthy_dir("version", 0, 0);
    let snap = snapshot_path(&dir);
    let mut bytes = fs::read(&snap).unwrap();
    bytes[4..8].copy_from_slice(&9u32.to_le_bytes());
    fs::write(&snap, &bytes).unwrap();

    let check = check_snapshot_file(&snap).unwrap();
    assert_eq!(check.findings[0].category, FsckCategory::BadVersion);
    let (code, _) = run_fsck(&[&dir]);
    assert_eq!(code, 1);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn usage_errors_exit_three() {
    let output = Command::new(env!("CARGO_BIN_EXE_asrs-fsck"))
        .output()
        .expect("asrs-fsck runs");
    assert_eq!(
        output.status.code(),
        Some(3),
        "no directories is a usage error"
    );

    let missing = temp_dir("missing"); // never created
    let output = Command::new(env!("CARGO_BIN_EXE_asrs-fsck"))
        .arg(&missing)
        .output()
        .expect("asrs-fsck runs");
    assert_eq!(
        output.status.code(),
        Some(3),
        "unreadable directory is environmental"
    );
}

/// A persistence directory after `mutations` appends, and the state the
/// engine reached; the engine is shut down before either is returned.
fn persisted(tag: &str, shards: usize, mutations: u64) -> (PathBuf, EngineState) {
    let dir = temp_dir(tag);
    let p = engine_builder(shards).persist_dir(&dir).build().unwrap();
    for id in 0..mutations {
        p.engine().append(object(2000 + id)).unwrap();
    }
    (dir, p.engine().export_state())
}

/// Writes `state` as the newest snapshot without compacting the log, so
/// the generation-0 image and every frame stay behind it.
fn newest_snapshot(dir: &Path, state: &EngineState) -> PathBuf {
    asrs_persist::write_snapshot(dir, state).unwrap().path
}

fn flip_byte(path: &Path, at: impl Fn(usize) -> usize) {
    let mut bytes = fs::read(path).unwrap();
    let at = at(bytes.len());
    bytes[at] ^= 0x20;
    fs::write(path, &bytes).unwrap();
}

fn truncate_by(path: &Path, bytes: u64) {
    let full = fs::metadata(path).unwrap().len();
    let f = fs::OpenOptions::new().write(true).open(path).unwrap();
    f.set_len(full - bytes).unwrap();
}

fn append_frames(dir: &Path, generation: u64, mutations: &[Mutation]) {
    let (wal, _) = Wal::open(&dir.join("wal.log")).unwrap();
    wal.append_batch(generation, mutations).unwrap();
}

/// `state` with one object moved to a NaN location.
fn with_nan_object(state: &EngineState) -> EngineState {
    let mut objects: Vec<SpatialObject> = state.dataset.objects().cloned().collect();
    objects[7].location = Point::new(f64::NAN, objects[7].location.y);
    EngineState {
        generation: state.generation,
        dataset: std::sync::Arc::new(Dataset::new_unchecked(
            state.dataset.schema().clone(),
            objects,
        )),
        index: None,
    }
}

/// One directory of the agreement table: how many appends it holds, and
/// the damage done to it once the engine that wrote it shut down.
struct Case {
    name: &'static str,
    shards: usize,
    mutations: u64,
    damage: fn(&Path, &EngineState),
}

/// fsck predicts boot: for every directory, boot fails exactly when fsck
/// reports a generation discontinuity, a WAL header error or a
/// non-finite location in what boot restores or replays (no case here
/// logs one below the boot generation); otherwise fsck's boot plan is the
/// `BootReport` field for field.
#[test]
fn fsck_predicts_what_boot_does() {
    let cases = [
        Case {
            name: "healthy, unsharded",
            shards: 0,
            mutations: 3,
            damage: |_, _| {},
        },
        Case {
            name: "healthy, 2 shards",
            shards: 2,
            mutations: 3,
            damage: |_, _| {},
        },
        Case {
            name: "torn tail",
            shards: 0,
            mutations: 3,
            damage: |dir, _| truncate_by(&dir.join("wal.log"), 5),
        },
        Case {
            name: "bit flip mid-log",
            shards: 0,
            mutations: 3,
            damage: |dir, _| {
                let wal = dir.join("wal.log");
                let bytes = fs::read(&wal).unwrap();
                let first_len = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
                // Inside the second frame's payload.
                flip_byte(&wal, |_| 8 + 8 + first_len + 8 + 4);
            },
        },
        Case {
            name: "WAL generation gap",
            shards: 0,
            mutations: 1,
            damage: |dir, _| append_frames(dir, 9, &[Mutation::Remove { id: 2000 }]),
        },
        Case {
            name: "group-committed batches",
            shards: 2,
            mutations: 2,
            damage: |dir, state| {
                let batch: Vec<Mutation> = (0..4)
                    .map(|i| Mutation::Append {
                        object: object(3000 + i),
                    })
                    .collect();
                append_frames(dir, state.generation + 1, &batch);
            },
        },
        Case {
            name: "newest snapshot's CRC flipped, older one good",
            shards: 0,
            mutations: 3,
            damage: |dir, state| {
                let newest = newest_snapshot(dir, state);
                flip_byte(&newest, |len| len - 1);
            },
        },
        Case {
            name: "non-finite location in the newest snapshot",
            shards: 0,
            mutations: 2,
            damage: |dir, state| {
                newest_snapshot(dir, &with_nan_object(state));
            },
        },
        Case {
            name: "non-finite location in a replayed frame",
            shards: 2,
            mutations: 2,
            damage: |dir, state| {
                let mut nan = object(3000);
                nan.location = Point::new(f64::INFINITY, nan.location.y);
                append_frames(
                    dir,
                    state.generation + 1,
                    &[Mutation::Append { object: nan }],
                );
            },
        },
        Case {
            name: "foreign and .tmp files",
            shards: 0,
            mutations: 2,
            damage: |dir, _| {
                fs::write(dir.join("notes.txt"), b"hello").unwrap();
                fs::write(dir.join("snapshot-0000000000000009.snap.tmp"), b"half").unwrap();
            },
        },
        Case {
            name: "newest snapshot's index rejected by the engine",
            shards: 0,
            mutations: 3,
            damage: |dir, state| {
                // A 1x1 grid with one stats dim needs a 4-entry base
                // table; this one holds 3.
                let mut index = index_section([0.0, 0.0, 1.0, 1.0], 3);
                for _ in 0..3 {
                    columnar::put_f64(&mut index, 0.0);
                }
                write_raw_snapshot(dir, state.generation, &state.dataset, &index);
            },
        },
        Case {
            name: "snapshot name claims another generation than its payload",
            shards: 0,
            mutations: 3,
            damage: |dir, state| {
                let written = newest_snapshot(dir, state);
                fs::rename(written, dir.join("snapshot-0000000000000007.snap")).unwrap();
            },
        },
        Case {
            name: "empty wal.log",
            shards: 2,
            mutations: 2,
            damage: |dir, _| {
                truncate_by(
                    &dir.join("wal.log"),
                    fs::metadata(dir.join("wal.log")).unwrap().len(),
                )
            },
        },
    ];

    for (i, case) in cases.iter().enumerate() {
        let (dir, state) = persisted(&format!("agree{i}"), case.shards, case.mutations);
        (case.damage)(&dir, &state);
        let name = case.name;
        let report = check_dir(&dir).unwrap();
        let has = |findings: &[asrs_audit::FsckFinding], category| {
            findings.iter().any(|f| f.category == category)
        };
        let wal_findings = report.wal.as_ref().map_or(&[][..], |w| &w.findings[..]);
        let wal_header_error = [
            FsckCategory::Truncated,
            FsckCategory::BadMagic,
            FsckCategory::BadVersion,
        ]
        .into_iter()
        .any(|c| has(wal_findings, c));
        let restored_non_finite = report.snapshots.iter().any(|s| {
            !report.cold_start
                && s.loadable()
                && s.payload_generation == Some(report.boot_generation)
                && has(&s.findings, FsckCategory::NonFiniteLocation)
        });
        // Boot refuses a log damaged before its last frame rather than
        // truncate acknowledged frames away.
        let fails = has(&report.findings, FsckCategory::GenerationDiscontinuity)
            || wal_header_error
            || has(wal_findings, FsckCategory::CorruptFrame)
            || has(wal_findings, FsckCategory::OversizedFrame)
            || restored_non_finite
            || has(wal_findings, FsckCategory::NonFiniteLocation);

        match engine_builder(case.shards).persist_dir(&dir).build() {
            Ok(booted) => {
                assert!(!fails, "{name}: boot succeeded\n{}", report.summary());
                let boot = booted.boot();
                assert_eq!(report.cold_start, boot.cold_start, "{name}");
                assert_eq!(
                    Some(report.boot_generation),
                    boot.snapshot_generation.or(Some(0)),
                    "{name}"
                );
                assert_eq!(report.replayable_frames, boot.replayed_entries, "{name}");
                assert_eq!(report.final_generation, boot.boot_generation, "{name}");
                assert_eq!(
                    report.final_generation,
                    booted.engine().generation(),
                    "{name}"
                );
            }
            Err(e) => {
                assert!(fails, "{name}: boot failed with {e}\n{}", report.summary());
                assert!(
                    matches!(
                        e,
                        PersistError::Corrupt { .. }
                            | PersistError::CorruptWalFrame { .. }
                            | PersistError::Engine(_)
                    ),
                    "{name}: {e}"
                );
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
