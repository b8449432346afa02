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
//! untouched.
//!
//! `decode_snapshot` is the one reader of the format, for
//! [`load_latest`], [`read_snapshot`] and
//! [`check_snapshot_file`](crate::check_snapshot_file): boot skips exactly
//! the files fsck calls unloadable, including an index the engine rejects
//! and a name that claims another generation than the payload.  A
//! non-finite location is no damage here: the image loads and the engine
//! then refuses it.

use crate::crc::crc32;
use crate::error::PersistError;
use crate::fsck::{Damage, FsckCategory};
use crate::le_u32;
use asrs_core::{EngineState, GridIndex};
use asrs_data::columnar::{self, ColumnarError, Reader};
use asrs_geo::{GridSpec, Rect};
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// File magic of the snapshot format.
const MAGIC: [u8; 4] = *b"ASNP";
/// Current format version.
const VERSION: u32 = 2;
/// The oldest format version this build reads.
const OLDEST_VERSION: u32 = 1;
/// Magic, version and trailing CRC around the payload.
const FRAMING_LEN: usize = 12;

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

/// The generation `path`'s file name claims, if it is a snapshot name.
pub(crate) fn name_generation(path: &Path) -> Option<u64> {
    path.file_name()?.to_str().and_then(parse_generation)
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

fn read_index(reader: &mut Reader<'_>) -> Result<Option<GridIndex>, Damage> {
    if reader.u8()? == 0 {
        return Ok(None);
    }
    let space = read_rect(reader)?;
    let cols = reader.u64()? as usize;
    let rows = reader.u64()? as usize;
    let stats_dim = reader.u64()? as usize;
    let objects_indexed = reader.u64()? as usize;
    let len = reader.len(8)?;
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
        let detail =
            format!("index grid {cols}x{rows} with {stats_dim} stats dims has no valid size");
        return Err(Damage::new(FsckCategory::PayloadDecode, detail));
    }
    let mut base = Vec::with_capacity(len);
    for _ in 0..len {
        base.push(reader.f64()?);
    }
    let spec = GridSpec::new(space, cols, rows);
    GridIndex::from_base_table(spec, stats_dim, objects_indexed, base)
        .map(Some)
        .map_err(|e| {
            let detail = format!("engine rejected persisted state: {e}");
            Damage::new(FsckCategory::StateRejected, detail)
        })
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
fn decode_payload(payload: &[u8], version: u32) -> Result<EngineState, Damage> {
    let mut reader = Reader::new(payload);
    let generation = reader.u64()?;
    let dataset = Arc::new(columnar::decode_dataset(&mut reader)?);
    let index = read_index(&mut reader)?.map(Arc::new);
    if version == VERSION && reader.remaining() != 0 {
        let detail = format!("{} trailing payload bytes", reader.remaining());
        return Err(Damage::new(FsckCategory::TrailingBytes, detail));
    }
    Ok(EngineState {
        generation,
        dataset,
        index,
    })
}

/// Checks the framing of a whole snapshot file, then decodes its payload
/// and, when the file name carries one, checks `name_generation` against
/// the payload's generation.  Framing layers are checked in order and the
/// first failure is the verdict: once one fails, the layers beneath it are
/// meaningless.
pub(crate) fn decode_snapshot(
    bytes: &[u8],
    name_generation: Option<u64>,
) -> Result<EngineState, Damage> {
    use FsckCategory::{BadMagic, BadVersion, ChecksumMismatch, GenerationMismatch, Truncated};
    if bytes.len() < FRAMING_LEN {
        let detail = format!(
            "{} bytes, shorter than the {FRAMING_LEN}-byte fixed framing",
            bytes.len()
        );
        return Err(Damage::new(Truncated, detail));
    }
    let magic = &bytes[..4];
    if magic != MAGIC {
        let detail = format!("magic {magic:02x?} is not ASNP ({MAGIC:02x?})");
        return Err(Damage::new(BadMagic, detail));
    }
    let version = le_u32(bytes, 4);
    if !(OLDEST_VERSION..=VERSION).contains(&version) {
        let detail = format!(
            "format version {version}; this build reads versions {OLDEST_VERSION} to {VERSION}"
        );
        return Err(Damage::new(BadVersion, detail));
    }
    let tail = bytes.len() - 4;
    let payload = &bytes[8..tail];
    let (stored, computed) = (le_u32(bytes, tail), crc32(payload));
    if stored != computed {
        let detail = format!("payload CRC-32 stored {stored:08x}, computed {computed:08x}");
        return Err(Damage::new(ChecksumMismatch, detail));
    }
    let state = decode_payload(payload, version)?;
    match name_generation {
        Some(name) if name != state.generation => {
            let detail = format!(
                "file name claims generation {name}, payload holds {}",
                state.generation
            );
            Err(Damage::new(GenerationMismatch, detail))
        }
        _ => Ok(state),
    }
}

/// Writes a snapshot of `state` into `dir` (atomically: temporary file,
/// fsync, rename, directory fsync) and returns its description.
pub fn write_snapshot(dir: &Path, state: &EngineState) -> Result<SnapshotFile, PersistError> {
    let payload = encode_payload(state);
    let mut bytes = Vec::with_capacity(payload.len() + FRAMING_LEN);
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
    decode_snapshot(&bytes, name_generation(path))
        .map_err(|damage| PersistError::corrupt(path, damage.detail))
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

/// Loads the newest snapshot in `dir` that decodes,
/// or `None` when the directory holds no loadable snapshot.  Every damaged
/// candidate is skipped in favour of the next older one — an interrupted
/// snapshot write must never block recovery from an older good image.
/// Only an I/O failure is an error.
pub fn load_latest(dir: &Path) -> Result<Option<(EngineState, SnapshotFile)>, PersistError> {
    for (generation, path) in list_snapshots(dir)? {
        let bytes = fs::read(&path).map_err(|e| PersistError::io("read snapshot", &path, e))?;
        if let Ok(state) = decode_snapshot(&bytes, Some(generation)) {
            let file = SnapshotFile {
                path,
                generation,
                bytes: bytes.len() as u64,
            };
            return Ok(Some((state, file)));
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
