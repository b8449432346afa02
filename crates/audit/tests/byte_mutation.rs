//! A seeded byte-mutation loop over the two on-disk formats, `ASNP`
//! snapshots and the `ASWL` write-ahead log.
//!
//! Healthy files are damaged with bit flips, truncations, length-field
//! overwrites and insertions, half the time with their checksums
//! recomputed so the damage reaches the payload decoders.  For every
//! input no reader may panic, and boot's reader and `asrs-fsck` must give
//! one verdict: a snapshot loads exactly when fsck calls it loadable, and
//! `Wal::open` recovers exactly the frames fsck counts.

use asrs_aggregator::{CompositeAggregator, Selection};
use asrs_audit::{check_snapshot_file, check_wal_file, FsckCategory};
use asrs_core::AsrsEngine;
use asrs_data::gen::UniformGenerator;
use asrs_data::{AttrValue, Mutation, SpatialObject};
use asrs_geo::Point;
use asrs_persist::crc::crc32;
use asrs_persist::{load_latest, read_snapshot, write_snapshot, Wal};
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use std::fs;
use std::path::PathBuf;

/// Inputs per format; the loop stays within about 2 s in a debug build.
const SNAPSHOT_ROUNDS: usize = 6000;
const WAL_ROUNDS: usize = 1500;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("asrs-mutation-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn object(id: u64) -> SpatialObject {
    SpatialObject::new(
        id,
        Point::new(10.0 + id as f64 % 7.0, 50.0 - id as f64 % 3.0),
        vec![AttrValue::Cat(id as u32 % 4)],
    )
}

/// Values a damaged length field plausibly holds: the edges of the
/// integer range, small counts and a random word.
fn length_value(rng: &mut SmallRng) -> u64 {
    match rng.gen_range(0..6) {
        0 => 0,
        1 => rng.gen_range(1..64),
        2 => u64::from(u32::MAX),
        3 => u64::MAX,
        4 => u64::MAX / 8,
        _ => rng.next_u64(),
    }
}

/// One seeded mutation of `bytes`.  `lengths` holds offsets of the
/// format's length fields and their widths.
fn mutate(rng: &mut SmallRng, bytes: &mut Vec<u8>, lengths: &[(usize, usize)]) {
    match rng.gen_range(0..4) {
        0 => {
            for _ in 0..rng.gen_range(1..4) {
                let at = rng.gen_range(0..bytes.len());
                bytes[at] ^= 1 << rng.gen_range(0..8);
            }
        }
        1 => bytes.truncate(rng.gen_range(0..bytes.len())),
        2 => {
            let (at, width) = lengths[rng.gen_range(0..lengths.len())];
            let value = length_value(rng).to_le_bytes();
            if at + width <= bytes.len() {
                bytes[at..at + width].copy_from_slice(&value[..width]);
            }
        }
        _ => {
            let at = rng.gen_range(0..=bytes.len());
            let count = rng.gen_range(1..16);
            let inserted: Vec<u8> = (0..count).map(|_| rng.gen_range(0..=255u8)).collect();
            bytes.splice(at..at, inserted);
        }
    }
}

/// Recomputes a snapshot's trailing CRC over its (damaged) payload.
fn reseal_snapshot(bytes: &mut [u8]) {
    if bytes.len() >= 12 {
        let tail = bytes.len() - 4;
        let crc = crc32(&bytes[8..tail]);
        bytes[tail..].copy_from_slice(&crc.to_le_bytes());
    }
}

/// Recomputes the CRC of every frame whose declared extent fits the file.
fn reseal_wal(bytes: &mut [u8]) {
    let mut at = 8;
    while at + 8 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        let Some(end) = (at + 8).checked_add(len).filter(|&end| end <= bytes.len()) else {
            break;
        };
        let crc = crc32(&bytes[at + 8..end]);
        bytes[at + 4..at + 8].copy_from_slice(&crc.to_le_bytes());
        at = end;
    }
}

/// Offsets of a frame-walk's length fields in a healthy log.
fn frame_length_fields(bytes: &[u8]) -> Vec<(usize, usize)> {
    let mut fields = Vec::new();
    let mut at = 8;
    while at + 8 <= bytes.len() {
        fields.push((at, 4));
        at += 8 + u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
    }
    fields
}

#[test]
fn damaged_snapshots_get_one_verdict_from_boot_and_fsck() {
    let dir = temp_dir("snap");
    let ds = UniformGenerator::default().generate(40, 5);
    let agg = CompositeAggregator::builder(ds.schema())
        .distribution("category", Selection::All)
        .build()
        .unwrap();
    let engine = AsrsEngine::builder(ds, agg)
        .build_index(4, 4)
        .build()
        .unwrap();
    let path = write_snapshot(&dir, &engine.export_state()).unwrap().path;
    let healthy = fs::read(&path).unwrap();
    // The generation, the schema JSON's length, and the object count
    // behind the schema.
    let schema_len = u64::from_le_bytes(healthy[16..24].try_into().unwrap()) as usize;
    let lengths = [(8, 8), (16, 8), (24 + schema_len, 8)];

    let mut rng = SmallRng::seed_from_u64(0x5eed_a5a9);
    let mut loadable = 0;
    for round in 0..SNAPSHOT_ROUNDS {
        let mut bytes = healthy.clone();
        mutate(&mut rng, &mut bytes, &lengths);
        if rng.gen_bool(0.5) {
            reseal_snapshot(&mut bytes);
        }
        fs::write(&path, &bytes).unwrap();
        let check = check_snapshot_file(&path).unwrap();
        let read = read_snapshot(&path);
        assert_eq!(
            check.loadable(),
            read.is_ok(),
            "round {round}: fsck {:?}, read {:?}",
            check.findings,
            read.err()
        );
        let latest = load_latest(&dir).unwrap();
        assert_eq!(check.loadable(), latest.is_some(), "round {round}");
        loadable += usize::from(check.loadable());
    }
    // The loop must reach past the framing, not only trip the checksum.
    assert!(loadable > 0 && loadable < SNAPSHOT_ROUNDS, "{loadable}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn damaged_logs_get_one_verdict_from_boot_and_fsck() {
    let dir = temp_dir("wal");
    let path = dir.join("wal.log");
    {
        let (wal, _) = Wal::open(&path).unwrap();
        wal.append(1, &Mutation::Append { object: object(1) })
            .unwrap();
        let batch: Vec<Mutation> = (2..5)
            .map(|id| Mutation::Append { object: object(id) })
            .collect();
        wal.append_batch(2, &batch).unwrap();
        wal.append(3, &Mutation::Remove { id: 2 }).unwrap();
        wal.append(4, &Mutation::Expire { id: 3 }).unwrap();
    }
    let healthy = fs::read(&path).unwrap();
    let mut lengths = frame_length_fields(&healthy);
    lengths.push((4, 4)); // the format version

    let copy = dir.join("copy.log");
    let mut rng = SmallRng::seed_from_u64(0xa5a1_0915);
    for round in 0..WAL_ROUNDS {
        let mut bytes = healthy.clone();
        mutate(&mut rng, &mut bytes, &lengths);
        if rng.gen_bool(0.5) {
            reseal_wal(&mut bytes);
        }
        fs::write(&path, &bytes).unwrap();
        let check = check_wal_file(&path).unwrap();
        // Boot refuses an unreadable header and a damaged frame with bytes
        // after it; everything else it recovers by truncation.
        let refused = check.findings.iter().any(|f| {
            matches!(
                f.category,
                FsckCategory::Truncated
                    | FsckCategory::BadMagic
                    | FsckCategory::BadVersion
                    | FsckCategory::CorruptFrame
            )
        });
        fs::write(&copy, &bytes).unwrap();
        match Wal::open(&copy) {
            Ok((_, recovery)) => {
                assert!(!refused, "round {round}: {:?}", check.findings);
                assert_eq!(
                    recovery.entries.len() as u64,
                    check.frames,
                    "round {round}: {:?}",
                    check.findings
                );
            }
            Err(e) => {
                assert!(refused, "round {round}: open failed with {e}");
                assert_eq!(
                    fs::read(&copy).unwrap(),
                    bytes,
                    "round {round}: refused log rewritten"
                );
            }
        }
        let _ = fs::remove_file(&copy);
    }
    let _ = fs::remove_dir_all(&dir);
}
