//! The columnar snapshot format: one versioned, checksummed file per
//! engine generation, loadable without re-indexing.
//!
//! # Format (version 2)
//!
//! ```text
//! [4]  magic  b"ASNP"
//! [4]  format version, little-endian u32 (currently 2)
//! [..] payload (below)
//! [4]  CRC-32 of the payload
//! ```
//!
//! The payload is column-oriented throughout (see
//! [`asrs_data::columnar`]): the generation number, the full dataset
//! (schema + id/x/y/attribute columns) and the optional whole-dataset grid
//! index.  Only the index's per-cell *base* table is stored; the suffix
//! tables are a deterministic pure function of it and are recomputed on
//! load ([`asrs_core::GridIndex::from_base_table`]), which halves the index
//! bytes while staying bit-identical.
//!
//! The image carries no shard layout: a sharded engine partitions the
//! restored dataset at boot, so an image restores into any shard count.
//! Version 1 is the same payload followed by a shard section (per-shard
//! regions, object positions and indexes); this build still reads it and
//! skips that section, which boot recomputes anyway.
//!
//! Decoding never trusts the payload: every declared length is bounded by
//! the bytes that remain, and rectangles must be ordered and NaN-free, so
//! a damaged file whose checksum happens to verify is reported as corrupt
//! instead of crashing the reader.
//!
//! Snapshot files are named `snapshot-<generation:016x>.snap`, written to
//! a temporary sibling, fsync'd and renamed into place, then the directory
//! itself is fsync'd — a crash mid-write leaves the previous snapshot
//! untouched.  [`load_latest`] picks the highest-generation file whose
//! checksum verifies, skipping damaged candidates.

use crate::crc::crc32;
use crate::error::PersistError;
use asrs_core::{EngineState, GridIndex};
use asrs_data::columnar::{self, ColumnarError, Reader};
use asrs_geo::{GridSpec, Rect};
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// File magic of the snapshot format.
pub(crate) const MAGIC: [u8; 4] = *b"ASNP";
/// Current format version.
pub(crate) const VERSION: u32 = 2;
/// The oldest format version this build reads.
pub(crate) const OLDEST_VERSION: u32 = 1;

/// A snapshot file on disk.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotFile {
    /// Where the file lives.
    pub path: PathBuf,
    /// The engine generation it captures.
    pub generation: u64,
    /// Total file size in bytes.
    pub bytes: u64,
}

/// The file name of the snapshot for `generation`.
fn file_name(generation: u64) -> String {
    format!("snapshot-{generation:016x}.snap")
}

/// Parses a generation out of a snapshot file name, `None` for foreign
/// files.
pub(crate) fn parse_generation(name: &str) -> Option<u64> {
    let hex = name.strip_prefix("snapshot-")?.strip_suffix(".snap")?;
    u64::from_str_radix(hex, 16).ok()
}

fn put_rect(out: &mut Vec<u8>, rect: &Rect) {
    columnar::put_f64(out, rect.min_x);
    columnar::put_f64(out, rect.min_y);
    columnar::put_f64(out, rect.max_x);
    columnar::put_f64(out, rect.max_y);
}

fn read_rect(reader: &mut Reader<'_>) -> Result<Rect, ColumnarError> {
    let [min_x, min_y, max_x, max_y] = [reader.f64()?, reader.f64()?, reader.f64()?, reader.f64()?];
    // `!(a <= b)` also rejects NaN, which `Rect::new` would panic on.
    if !(min_x <= max_x && min_y <= max_y) {
        return Err(ColumnarError::new(format!(
            "invalid rectangle [{min_x}, {max_x}] x [{min_y}, {max_y}]"
        )));
    }
    Ok(Rect::new(min_x, min_y, max_x, max_y))
}

fn put_index(out: &mut Vec<u8>, index: Option<&GridIndex>) {
    let Some(index) = index else {
        columnar::put_u8(out, 0);
        return;
    };
    columnar::put_u8(out, 1);
    put_rect(out, index.spec().space());
    columnar::put_u64(out, index.spec().cols() as u64);
    columnar::put_u64(out, index.spec().rows() as u64);
    columnar::put_u64(out, index.stats_dim() as u64);
    columnar::put_u64(out, index.objects_indexed() as u64);
    let base = index.base_table();
    columnar::put_u64(out, base.len() as u64);
    for &v in base {
        columnar::put_f64(out, v);
    }
}

fn read_index(reader: &mut Reader<'_>, path: &Path) -> Result<Option<GridIndex>, PersistError> {
    let decode = |e: ColumnarError| PersistError::corrupt(path, e.to_string());
    if reader.u8().map_err(decode)? == 0 {
        return Ok(None);
    }
    let space = read_rect(reader).map_err(decode)?;
    let cols = reader.u64().map_err(decode)? as usize;
    let rows = reader.u64().map_err(decode)? as usize;
    let stats_dim = reader.u64().map_err(decode)? as usize;
    let objects_indexed = reader.u64().map_err(decode)? as usize;
    let len = reader.len(8).map_err(decode)?;
    // `GridSpec::new` panics on an empty grid, and `from_base_table`
    // multiplies the shape out unchecked.
    let sized = cols > 0
        && rows > 0
        && cols
            .checked_add(1)
            .zip(rows.checked_add(1))
            .and_then(|(c, r)| c.checked_mul(r)?.checked_mul(stats_dim))
            .is_some();
    if !sized {
        return Err(PersistError::corrupt(
            path,
            format!("index grid {cols}x{rows} with {stats_dim} stats dims has no valid size"),
        ));
    }
    let mut base = Vec::with_capacity(len);
    for _ in 0..len {
        base.push(reader.f64().map_err(decode)?);
    }
    let spec = GridSpec::new(space, cols, rows);
    GridIndex::from_base_table(spec, stats_dim, objects_indexed, base)
        .map(Some)
        .map_err(PersistError::Engine)
}

/// Serializes `state` into the version-2 snapshot payload.
fn encode_payload(state: &EngineState) -> Vec<u8> {
    let mut out = Vec::new();
    columnar::put_u64(&mut out, state.generation);
    columnar::encode_dataset(&state.dataset, &mut out);
    put_index(&mut out, state.index.as_deref());
    out
}

/// Deserializes a payload of format `version` back into an
/// [`EngineState`].  A version-1 payload's trailing shard section is
/// skipped: its checksum already verified, and boot re-partitions.
pub(crate) fn decode_payload(
    payload: &[u8],
    version: u32,
    path: &Path,
) -> Result<EngineState, PersistError> {
    let decode = |e: ColumnarError| PersistError::corrupt(path, e.to_string());
    let mut reader = Reader::new(payload);
    let generation = reader.u64().map_err(decode)?;
    let dataset = Arc::new(columnar::decode_dataset(&mut reader).map_err(decode)?);
    let index = read_index(&mut reader, path)?.map(Arc::new);
    if version == VERSION && reader.remaining() != 0 {
        return Err(PersistError::corrupt(
            path,
            format!("{} trailing payload bytes", reader.remaining()),
        ));
    }
    Ok(EngineState {
        generation,
        dataset,
        index,
    })
}

/// Writes a snapshot of `state` into `dir` (atomically: temporary file,
/// fsync, rename, directory fsync) and returns its description.
pub fn write_snapshot(dir: &Path, state: &EngineState) -> Result<SnapshotFile, PersistError> {
    let payload = encode_payload(state);
    let mut bytes = Vec::with_capacity(payload.len() + 12);
    bytes.extend_from_slice(&MAGIC);
    bytes.extend_from_slice(&VERSION.to_le_bytes());
    bytes.extend_from_slice(&payload);
    bytes.extend_from_slice(&crc32(&payload).to_le_bytes());

    let path = dir.join(file_name(state.generation));
    let tmp = dir.join(format!("{}.tmp", file_name(state.generation)));
    let mut file =
        fs::File::create(&tmp).map_err(|e| PersistError::io("create snapshot", &tmp, e))?;
    file.write_all(&bytes)
        .map_err(|e| PersistError::io("write snapshot", &tmp, e))?;
    file.sync_all()
        .map_err(|e| PersistError::io("fsync snapshot", &tmp, e))?;
    drop(file);
    fs::rename(&tmp, &path).map_err(|e| PersistError::io("publish snapshot", &path, e))?;
    sync_dir(dir)?;
    Ok(SnapshotFile {
        path,
        generation: state.generation,
        bytes: bytes.len() as u64,
    })
}

/// Fsyncs a directory so a just-renamed file survives power loss.
pub(crate) fn sync_dir(dir: &Path) -> Result<(), PersistError> {
    let handle = fs::File::open(dir).map_err(|e| PersistError::io("open directory", dir, e))?;
    handle
        .sync_all()
        .map_err(|e| PersistError::io("fsync directory", dir, e))
}

/// Reads and fully validates one snapshot file.
pub fn read_snapshot(path: &Path) -> Result<EngineState, PersistError> {
    let bytes = fs::read(path).map_err(|e| PersistError::io("read snapshot", path, e))?;
    if bytes.len() < 12 {
        return Err(PersistError::corrupt(
            path,
            "shorter than the fixed framing",
        ));
    }
    if bytes[..4] != MAGIC {
        return Err(PersistError::corrupt(path, "bad magic"));
    }
    let version = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
    if !(OLDEST_VERSION..=VERSION).contains(&version) {
        return Err(PersistError::corrupt(
            path,
            format!("unsupported format version {version}"),
        ));
    }
    let payload = &bytes[8..bytes.len() - 4];
    let tail = bytes.len() - 4;
    let stored = u32::from_le_bytes([
        bytes[tail],
        bytes[tail + 1],
        bytes[tail + 2],
        bytes[tail + 3],
    ]);
    let computed = crc32(payload);
    if stored != computed {
        return Err(PersistError::corrupt(
            path,
            format!("checksum mismatch: stored {stored:08x}, computed {computed:08x}"),
        ));
    }
    decode_payload(payload, version, path)
}

/// Lists the snapshot files in `dir`, newest generation first.
fn list_snapshots(dir: &Path) -> Result<Vec<(u64, PathBuf)>, PersistError> {
    let mut found = Vec::new();
    let entries = match fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(found),
        Err(e) => return Err(PersistError::io("list snapshot directory", dir, e)),
    };
    for entry in entries {
        let entry = entry.map_err(|e| PersistError::io("list snapshot directory", dir, e))?;
        if let Some(generation) = entry.file_name().to_str().and_then(parse_generation) {
            found.push((generation, entry.path()));
        }
    }
    found.sort_by_key(|(generation, _)| std::cmp::Reverse(*generation));
    Ok(found)
}

/// Loads the newest valid snapshot in `dir`, or `None` when the directory
/// holds no loadable snapshot.  Damaged candidates (bad checksum,
/// truncation, undecodable payload) are skipped in favour of the next
/// older one — an interrupted snapshot write must never block recovery
/// from an older good image.
pub fn load_latest(dir: &Path) -> Result<Option<(EngineState, SnapshotFile)>, PersistError> {
    for (generation, path) in list_snapshots(dir)? {
        match read_snapshot(&path) {
            Ok(state) => {
                let bytes = fs::metadata(&path)
                    .map(|m| m.len())
                    .map_err(|e| PersistError::io("stat snapshot", &path, e))?;
                return Ok(Some((
                    state,
                    SnapshotFile {
                        path,
                        generation,
                        bytes,
                    },
                )));
            }
            Err(PersistError::Corrupt { .. }) => continue,
            Err(other) => return Err(other),
        }
    }
    Ok(None)
}

/// Deletes every snapshot older than `keep_generation` (best effort: a
/// file that refuses to die is left behind and retried next time).
pub fn prune_older_than(dir: &Path, keep_generation: u64) -> Result<(), PersistError> {
    for (generation, path) in list_snapshots(dir)? {
        if generation < keep_generation {
            let _ = fs::remove_file(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use asrs_aggregator::{CompositeAggregator, Selection};
    use asrs_core::AsrsEngine;
    use asrs_data::gen::UniformGenerator;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("asrs-snap-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn engine(shards: usize) -> AsrsEngine {
        let ds = UniformGenerator::default().generate(300, 17);
        let agg = CompositeAggregator::builder(ds.schema())
            .distribution("category", Selection::All)
            .build()
            .unwrap();
        let mut builder = AsrsEngine::builder(ds, agg).build_index(12, 12);
        if shards > 0 {
            builder = builder.shards(shards);
        }
        builder.build().unwrap()
    }

    #[test]
    fn snapshot_round_trips_unsharded_and_sharded() {
        for shards in [0usize, 3] {
            let dir = temp_dir(&format!("rt{shards}"));
            let engine = engine(shards);
            let state = engine.export_state();
            let written = write_snapshot(&dir, &state).unwrap();
            assert_eq!(written.generation, 0);
            let (loaded, file) = load_latest(&dir).unwrap().expect("one snapshot");
            assert_eq!(file, written);
            assert_eq!(loaded.generation, state.generation);
            assert!(loaded.dataset.objects().eq(state.dataset.objects()));
            match (&loaded.index, &state.index) {
                (Some(a), Some(b)) => assert_eq!(a.base_table(), b.base_table()),
                (None, None) => {}
                _ => panic!("index presence must round-trip"),
            }
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn corrupt_snapshots_are_skipped_in_favour_of_older_ones() {
        let dir = temp_dir("corrupt");
        let engine = engine(0);
        write_snapshot(&dir, &engine.export_state()).unwrap();
        // A newer, damaged snapshot: valid framing, flipped payload byte.
        let mut newer = engine.export_state();
        newer.generation = 7;
        let written = write_snapshot(&dir, &newer).unwrap();
        let mut bytes = fs::read(&written.path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&written.path, &bytes).unwrap();

        let (state, file) = load_latest(&dir).unwrap().expect("older snapshot loads");
        assert_eq!(
            file.generation, 0,
            "the damaged generation-7 file is skipped"
        );
        assert_eq!(state.generation, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn pruning_keeps_the_current_generation() {
        let dir = temp_dir("prune");
        let engine = engine(0);
        let mut state = engine.export_state();
        write_snapshot(&dir, &state).unwrap();
        state.generation = 5;
        write_snapshot(&dir, &state).unwrap();
        prune_older_than(&dir, 5).unwrap();
        let files = list_snapshots(&dir).unwrap();
        assert_eq!(files.len(), 1);
        assert_eq!(files[0].0, 5);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_directory_loads_nothing() {
        let dir = temp_dir("empty");
        assert!(load_latest(&dir).unwrap().is_none());
        // A missing directory is also "nothing", not an error.
        let _ = fs::remove_dir_all(&dir);
        assert!(load_latest(&dir).unwrap().is_none());
    }
}
