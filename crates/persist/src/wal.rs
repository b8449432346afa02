//! The durable write-ahead log: length-prefixed, CRC-framed mutation
//! records, fsync'd before a generation is published.
//!
//! # Format (version 1)
//!
//! ```text
//! [4] magic  b"ASWL"
//! [4] format version, little-endian u32 (currently 1)
//! then zero or more frames:
//!   [4]   payload length, little-endian u32
//!   [4]   CRC-32 of the payload
//!   [len] payload = u64 generation + columnar mutation
//! ```
//!
//! Appends write one frame and `fdatasync` it before returning; the engine
//! publishes a generation only after its frame is durable, so an
//! acknowledged mutation is never lost.  A crash can leave a *torn tail* —
//! a partially written final frame — which [`Wal::open`] detects via the
//! length prefix and checksum and truncates away; everything before the
//! tear is intact by construction.  Compaction (after a snapshot) rewrites
//! the log keeping only frames newer than the snapshot generation, through
//! the same temp-file-and-rename dance the snapshots use.

use crate::crc::crc32;
use crate::error::PersistError;
use crate::snapshot::sync_dir;
use asrs_core::sync::Mutex;
use asrs_data::columnar::{self, Reader};
use asrs_data::Mutation;
use std::fs::{self, File, OpenOptions};
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// File magic of the write-ahead log.
pub(crate) const MAGIC: [u8; 4] = *b"ASWL";
/// Current format version.
pub(crate) const VERSION: u32 = 1;
/// Bytes before the first frame.
pub(crate) const HEADER_LEN: u64 = 8;
/// Ceiling on a single frame payload; anything larger is framing damage,
/// not a real record (a mutation is one object, not a dataset).
pub(crate) const MAX_FRAME_LEN: u32 = 64 * 1024 * 1024;

/// One replayable record recovered from the log.
#[derive(Debug, Clone, PartialEq)]
pub struct WalEntry {
    /// The generation the engine reached by applying this mutation.
    pub generation: u64,
    /// The mutation itself.
    pub mutation: Mutation,
}

/// What [`Wal::open`] found on disk.
#[derive(Debug)]
pub struct WalRecovery {
    /// Every intact frame, in append order.
    pub entries: Vec<WalEntry>,
    /// Bytes of torn tail discarded (0 for a clean shutdown).
    pub truncated_bytes: u64,
}

#[derive(Debug)]
struct WalInner {
    file: File,
    /// Frames currently in the file.
    entries: u64,
    /// File length in bytes (header included).
    bytes: u64,
}

/// Upper bounds (microseconds, inclusive) of the fsync-latency histogram
/// buckets; one implicit overflow bucket follows the last bound.  Shared
/// by [`Wal::fsync_latency`] and the server's `/metrics` rendering.
pub const FSYNC_BUCKET_BOUNDS_US: [u64; 10] = [
    50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000,
];

/// Lock-free fsync-latency counters: one bucket per
/// [`FSYNC_BUCKET_BOUNDS_US`] bound plus an overflow bucket, with total
/// count and accumulated microseconds for deriving a mean.
#[derive(Debug, Default)]
struct FsyncLatency {
    buckets: [AtomicU64; FSYNC_BUCKET_BOUNDS_US.len() + 1],
    count: AtomicU64,
    total_us: AtomicU64,
}

impl FsyncLatency {
    fn record(&self, micros: u64) {
        let slot = FSYNC_BUCKET_BOUNDS_US
            .iter()
            .position(|&bound| micros <= bound)
            .unwrap_or(FSYNC_BUCKET_BOUNDS_US.len());
        self.buckets[slot].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_us.fetch_add(micros, Ordering::Relaxed);
    }
}

/// An append-only, fsync'd mutation log.
///
/// All methods take `&self`; appends serialise on an internal mutex, which
/// is the ordering the engine's mutation path already imposes.
#[derive(Debug)]
pub struct Wal {
    path: PathBuf,
    inner: Mutex<WalInner>,
    fsync_latency: FsyncLatency,
}

/// Encodes one frame payload.
fn encode_entry(generation: u64, mutation: &Mutation) -> Vec<u8> {
    let mut payload = Vec::new();
    columnar::put_u64(&mut payload, generation);
    columnar::encode_mutation(mutation, &mut payload);
    payload
}

/// Decodes one frame payload.
pub(crate) fn decode_entry(payload: &[u8]) -> Option<WalEntry> {
    let mut reader = Reader::new(payload);
    let generation = reader.u64().ok()?;
    let mutation = columnar::decode_mutation(&mut reader).ok()?;
    if reader.remaining() != 0 {
        return None;
    }
    Some(WalEntry {
        generation,
        mutation,
    })
}

/// Scans `bytes` (past the header) into intact entries, returning the
/// offset where the intact prefix ends.
fn scan_frames(bytes: &[u8]) -> (Vec<WalEntry>, u64) {
    let mut entries = Vec::new();
    let mut at = 0usize;
    loop {
        let rest = &bytes[at..];
        if rest.len() < 8 {
            break;
        }
        let len = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]);
        let stored_crc = u32::from_le_bytes([rest[4], rest[5], rest[6], rest[7]]);
        if len > MAX_FRAME_LEN || rest.len() < 8 + len as usize {
            break;
        }
        let payload = &rest[8..8 + len as usize];
        if crc32(payload) != stored_crc {
            break;
        }
        let Some(entry) = decode_entry(payload) else {
            break;
        };
        entries.push(entry);
        at += 8 + len as usize;
    }
    (entries, HEADER_LEN + at as u64)
}

impl Wal {
    /// Opens (or creates) the log at `path`, recovering every intact frame
    /// and truncating any torn tail left by a crash.
    pub fn open(path: &Path) -> Result<(Wal, WalRecovery), PersistError> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(|e| PersistError::io("open WAL", path, e))?;
        let disk_len = file
            .metadata()
            .map_err(|e| PersistError::io("stat WAL", path, e))?
            .len();

        if disk_len == 0 {
            // Fresh log: write the header durably before first use.
            file.write_all(&MAGIC)
                .and_then(|()| file.write_all(&VERSION.to_le_bytes()))
                .and_then(|()| file.sync_all())
                .map_err(|e| PersistError::io("initialise WAL", path, e))?;
            if let Some(dir) = path.parent() {
                sync_dir(dir)?;
            }
            let wal = Wal {
                path: path.to_path_buf(),
                inner: Mutex::new(WalInner {
                    file,
                    entries: 0,
                    bytes: HEADER_LEN,
                }),
                fsync_latency: FsyncLatency::default(),
            };
            return Ok((
                wal,
                WalRecovery {
                    entries: Vec::new(),
                    truncated_bytes: 0,
                },
            ));
        }

        let mut bytes = Vec::with_capacity(disk_len as usize);
        file.rewind()
            .and_then(|()| file.read_to_end(&mut bytes))
            .map_err(|e| PersistError::io("read WAL", path, e))?;
        if bytes.len() < HEADER_LEN as usize || bytes[..4] != MAGIC {
            return Err(PersistError::corrupt(path, "bad WAL header"));
        }
        let version = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
        if version != VERSION {
            return Err(PersistError::corrupt(
                path,
                format!("unsupported WAL version {version}"),
            ));
        }

        let (entries, good_len) = scan_frames(&bytes[HEADER_LEN as usize..]);
        let truncated_bytes = disk_len - good_len;
        if truncated_bytes > 0 {
            file.set_len(good_len)
                .and_then(|()| file.sync_all())
                .map_err(|e| PersistError::io("truncate torn WAL tail", path, e))?;
        }
        file.seek(SeekFrom::Start(good_len))
            .map_err(|e| PersistError::io("seek WAL", path, e))?;

        let wal = Wal {
            path: path.to_path_buf(),
            inner: Mutex::new(WalInner {
                file,
                entries: entries.len() as u64,
                bytes: good_len,
            }),
            fsync_latency: FsyncLatency::default(),
        };
        Ok((
            wal,
            WalRecovery {
                entries,
                truncated_bytes,
            },
        ))
    }

    /// Appends one mutation frame and fsyncs it.  Returns only once the
    /// record is durable; the caller (the engine's publish path) must not
    /// expose the new generation before this returns.
    pub fn append(&self, generation: u64, mutation: &Mutation) -> Result<(), PersistError> {
        let payload = encode_entry(generation, mutation);
        let mut frame = Vec::with_capacity(payload.len() + 8);
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);

        // interlock:allow(the write+fsync under the WAL lock IS the durability critical section)
        // lint:allow(a poisoned WAL lock means a writer died mid-append; reusing the file handle could interleave a torn frame with a live one)
        let mut inner = self.inner.lock().expect("WAL lock poisoned");
        let started = Instant::now();
        inner
            .file
            .write_all(&frame)
            .and_then(|()| inner.file.sync_data())
            .map_err(|e| PersistError::io("append to WAL", &self.path, e))?;
        self.fsync_latency
            .record(started.elapsed().as_micros() as u64);
        inner.entries += 1;
        inner.bytes += frame.len() as u64;
        Ok(())
    }

    /// Appends one frame per mutation of a group-committed batch — all
    /// stamped with the same `generation` — with **one** write and **one**
    /// fsync for the whole batch.  The frame format is unchanged
    /// (replayers see `mutations.len()` consecutive frames sharing a
    /// generation), so logs written by this method read back with the same
    /// scanner; only the durability cost is amortised.  Returns only once
    /// every frame is durable.
    pub fn append_batch(
        &self,
        generation: u64,
        mutations: &[Mutation],
    ) -> Result<(), PersistError> {
        if mutations.is_empty() {
            return Ok(());
        }
        let mut frames = Vec::new();
        for mutation in mutations {
            let payload = encode_entry(generation, mutation);
            frames.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            frames.extend_from_slice(&crc32(&payload).to_le_bytes());
            frames.extend_from_slice(&payload);
        }

        // interlock:allow(the write+fsync under the WAL lock IS the durability critical section)
        // lint:allow(a poisoned WAL lock means a writer died mid-append; reusing the file handle could interleave a torn frame with a live one)
        let mut inner = self.inner.lock().expect("WAL lock poisoned");
        let started = Instant::now();
        inner
            .file
            .write_all(&frames)
            .and_then(|()| inner.file.sync_data())
            .map_err(|e| PersistError::io("append batch to WAL", &self.path, e))?;
        self.fsync_latency
            .record(started.elapsed().as_micros() as u64);
        inner.entries += mutations.len() as u64;
        inner.bytes += frames.len() as u64;
        Ok(())
    }

    /// Rewrites the log keeping only frames with `generation >
    /// keep_after` (atomically, via a temporary file).  Called after a
    /// snapshot makes the older prefix redundant.
    pub fn compact(&self, keep_after: u64) -> Result<(), PersistError> {
        // interlock:allow(compaction rewrites and atomically replaces the log file; appends must stall until the new inode is live)
        // lint:allow(a poisoned WAL lock means a writer died mid-append; compacting over unknown file state could drop durable frames)
        let mut inner = self.inner.lock().expect("WAL lock poisoned");

        // Re-scan the current file under the lock: the in-memory handle
        // only tracks counters, not the frames themselves.
        let mut bytes = Vec::new();
        inner
            .file
            .rewind()
            .and_then(|()| inner.file.read_to_end(&mut bytes))
            .map_err(|e| PersistError::io("read WAL for compaction", &self.path, e))?;
        let (entries, _) = scan_frames(&bytes[HEADER_LEN as usize..]);

        let tmp = self.path.with_extension("log.tmp");
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        let mut kept = 0u64;
        for entry in &entries {
            if entry.generation > keep_after {
                let payload = encode_entry(entry.generation, &entry.mutation);
                out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
                out.extend_from_slice(&crc32(&payload).to_le_bytes());
                out.extend_from_slice(&payload);
                kept += 1;
            }
        }
        let mut file =
            File::create(&tmp).map_err(|e| PersistError::io("create compacted WAL", &tmp, e))?;
        file.write_all(&out)
            .and_then(|()| file.sync_all())
            .map_err(|e| PersistError::io("write compacted WAL", &tmp, e))?;
        drop(file);
        fs::rename(&tmp, &self.path)
            .map_err(|e| PersistError::io("publish compacted WAL", &self.path, e))?;
        if let Some(dir) = self.path.parent() {
            sync_dir(dir)?;
        }

        // Reopen the append handle on the new inode.
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(&self.path)
            .map_err(|e| PersistError::io("reopen compacted WAL", &self.path, e))?;
        file.seek(SeekFrom::End(0))
            .map_err(|e| PersistError::io("seek compacted WAL", &self.path, e))?;
        inner.file = file;
        inner.entries = kept;
        inner.bytes = out.len() as u64;
        Ok(())
    }

    /// Number of frames currently in the log.
    pub fn len(&self) -> u64 {
        // lint:allow(poisoned WAL counters are untrustworthy; propagate the panic rather than report a wrong durable count)
        self.inner.lock().expect("WAL lock poisoned").entries
    }

    /// Whether the log holds no frames.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The durable-append latency counters: `(count, total_us, buckets)`,
    /// where `buckets` has one count per [`FSYNC_BUCKET_BOUNDS_US`] bound
    /// plus a trailing overflow bucket.  Each recorded value times one
    /// `write + fsync` critical section (solo or batch — group commit
    /// amortisation shows up as fewer, not faster, fsyncs).
    pub fn fsync_latency(&self) -> (u64, u64, Vec<u64>) {
        (
            self.fsync_latency.count.load(Ordering::Relaxed),
            self.fsync_latency.total_us.load(Ordering::Relaxed),
            self.fsync_latency
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        )
    }

    /// Current file size in bytes (header included).
    pub fn bytes(&self) -> u64 {
        // lint:allow(poisoned WAL counters are untrustworthy; propagate the panic rather than report a wrong durable count)
        self.inner.lock().expect("WAL lock poisoned").bytes
    }

    /// Where the log lives.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asrs_data::SpatialObject;
    use asrs_data::{AttrValue, Mutation};
    use asrs_geo::Point;

    fn temp_log(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("asrs-wal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir.join("wal.log")
    }

    fn object(id: u64) -> SpatialObject {
        SpatialObject::new(
            id,
            Point::new(id as f64, -(id as f64)),
            vec![AttrValue::Cat(id as u32 % 3)],
        )
    }

    fn mutations() -> Vec<(u64, Mutation)> {
        vec![
            (1, Mutation::Append { object: object(10) }),
            (2, Mutation::Append { object: object(11) }),
            (3, Mutation::Remove { id: 10 }),
            (4, Mutation::Expire { id: 11 }),
        ]
    }

    #[test]
    fn appends_recover_across_reopen() {
        let path = temp_log("reopen");
        {
            let (wal, recovery) = Wal::open(&path).unwrap();
            assert!(recovery.entries.is_empty());
            for (generation, m) in mutations() {
                wal.append(generation, &m).unwrap();
            }
            assert_eq!(wal.len(), 4);
        }
        let (wal, recovery) = Wal::open(&path).unwrap();
        assert_eq!(recovery.truncated_bytes, 0);
        assert_eq!(
            recovery
                .entries
                .iter()
                .map(|e| (e.generation, e.mutation.clone()))
                .collect::<Vec<_>>(),
            mutations()
        );
        assert_eq!(wal.len(), 4);
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let path = temp_log("torn");
        {
            let (wal, _) = Wal::open(&path).unwrap();
            for (generation, m) in mutations() {
                wal.append(generation, &m).unwrap();
            }
        }
        // Simulate a crash mid-append: chop bytes off the final frame.
        let full = fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(full - 5).unwrap();
        drop(f);

        let (wal, recovery) = Wal::open(&path).unwrap();
        assert_eq!(recovery.entries.len(), 3, "the torn fourth frame is gone");
        assert!(recovery.truncated_bytes > 0);
        // The log is usable again: the next append lands after the tear.
        wal.append(4, &Mutation::Remove { id: 11 }).unwrap();
        let (_, recovery) = Wal::open(&path).unwrap();
        assert_eq!(recovery.entries.len(), 4);
        assert_eq!(recovery.entries[3].mutation, Mutation::Remove { id: 11 });
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn corrupted_frame_truncates_from_the_damage_onward() {
        let path = temp_log("bitrot");
        {
            let (wal, _) = Wal::open(&path).unwrap();
            for (generation, m) in mutations() {
                wal.append(generation, &m).unwrap();
            }
        }
        // Flip a byte inside the second frame's payload.
        let mut bytes = fs::read(&path).unwrap();
        let second_frame_at = {
            let first_len = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
            8 + 8 + first_len
        };
        bytes[second_frame_at + 10] ^= 0x40;
        fs::write(&path, &bytes).unwrap();

        let (_, recovery) = Wal::open(&path).unwrap();
        assert_eq!(recovery.entries.len(), 1, "only the intact prefix survives");
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn compaction_drops_frames_covered_by_a_snapshot() {
        let path = temp_log("compact");
        let (wal, _) = Wal::open(&path).unwrap();
        for (generation, m) in mutations() {
            wal.append(generation, &m).unwrap();
        }
        wal.compact(2).unwrap();
        assert_eq!(wal.len(), 2);
        // The handle still appends correctly after the inode swap.
        wal.append(5, &Mutation::Append { object: object(12) })
            .unwrap();
        drop(wal);
        let (_, recovery) = Wal::open(&path).unwrap();
        let generations: Vec<u64> = recovery.entries.iter().map(|e| e.generation).collect();
        assert_eq!(generations, vec![3, 4, 5]);
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn foreign_file_is_rejected_as_corrupt() {
        let path = temp_log("foreign");
        fs::write(&path, b"not a wal at all").unwrap();
        match Wal::open(&path) {
            Err(PersistError::Corrupt { .. }) => {}
            other => panic!("expected corrupt error, got {other:?}"),
        }
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }
}
