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
//! a partially written final frame, a final frame whose payload never
//! reached the disk (it fails its checksum or decode), or a zero-filled
//! extension — which [`Wal::open`] detects via the length prefix and
//! checksum and truncates away; everything before the tear is intact by
//! construction.  A damaged frame with bytes after it is not a crash
//! artifact: the frames after it may be acknowledged mutations, so
//! [`Wal::open`] refuses the log ([`PersistError::CorruptWalFrame`]) and
//! leaves the file as it found it.  So does a length field past the frame
//! ceiling with any non-zero byte after its frame header: where such a
//! frame would end is unknown, so every later byte may belong to an
//! acknowledged frame.  An empty file (a crash before the
//! header was written) opens as a fresh log.  Compaction (after a snapshot)
//! rewrites the log keeping only frames newer than the snapshot generation,
//! through the same temp-file-and-rename dance the snapshots use.
//!
//! `scan` is the one reader of the format, for [`Wal::open`],
//! [`Wal::compact`] and [`check_wal_file`](crate::check_wal_file).

use crate::crc::crc32;
use crate::error::PersistError;
use crate::fsck::{Damage, FsckCategory};
use crate::le_u32;
use crate::snapshot::sync_dir;
use asrs_core::sync::Mutex;
use asrs_core::LatencyHistogram;
use asrs_data::columnar::{self, Reader};
use asrs_data::Mutation;
use std::fs::{self, File, OpenOptions};
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// File name of the write-ahead log inside a persistence directory.
pub(crate) const WAL_FILE: &str = "wal.log";
/// File magic of the write-ahead log.
const MAGIC: [u8; 4] = *b"ASWL";
/// Current format version.
const VERSION: u32 = 1;
/// Bytes before the first frame.
const HEADER_LEN: usize = 8;
/// Bytes of a frame before its payload: length and CRC-32.
const FRAME_HEADER_LEN: usize = 8;
/// Ceiling on a single frame payload; anything larger is framing damage,
/// not a real record (a mutation is one object, not a dataset).
const MAX_FRAME_LEN: u32 = 64 * 1024 * 1024;

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

/// The intact prefix of a log file.
#[derive(Debug)]
pub(crate) struct Scan {
    /// Every intact frame, in log order.
    pub entries: Vec<WalEntry>,
    /// File length up to the end of the last intact frame (header
    /// included; 0 for an empty file).
    pub intact_len: usize,
    /// Why the walk ended before the end of the file: a `TornTail`, or an
    /// `OversizedFrame` or `CorruptFrame` with bytes after it at offset
    /// `intact_len`.
    pub stop: Option<Damage>,
}

/// Reads a whole log file: the header check, then the frame walk.  An
/// empty file is a fresh log; an unreadable header is the `Err`.  The walk
/// stops at the first frame that is cut short, oversized, fails its
/// checksum or does not decode, because nothing after a damaged frame
/// boundary can be trusted.  A frame that fails its checksum or decode is
/// a torn tail when it is the last one or only zero bytes follow it, and a
/// `CorruptFrame` otherwise.  A frame header declaring a payload over the
/// ceiling is a torn tail when only zero bytes follow the header, and an
/// `OversizedFrame` otherwise.
pub(crate) fn scan(bytes: &[u8]) -> Result<Scan, Damage> {
    use FsckCategory::{BadMagic, BadVersion, CorruptFrame, OversizedFrame, TornTail, Truncated};
    let mut scan = Scan {
        entries: Vec::new(),
        intact_len: 0,
        stop: None,
    };
    if bytes.is_empty() {
        return Ok(scan);
    }
    if bytes.len() < HEADER_LEN {
        let detail = format!(
            "{} bytes, shorter than the {HEADER_LEN}-byte header",
            bytes.len()
        );
        return Err(Damage::new(Truncated, detail));
    }
    let magic = &bytes[..4];
    if magic != MAGIC {
        let detail = format!("magic {magic:02x?} is not ASWL ({MAGIC:02x?})");
        return Err(Damage::new(BadMagic, detail));
    }
    let version = le_u32(bytes, 4);
    if version != VERSION {
        let detail = format!("format version {version}; this build reads version {VERSION}");
        return Err(Damage::new(BadVersion, detail));
    }

    let mut at = HEADER_LEN;
    let stop = loop {
        let rest = bytes.len() - at;
        if rest == 0 {
            break None;
        }
        if rest < FRAME_HEADER_LEN {
            let detail = format!(
                "{rest} dangling byte(s) at offset {at}: a frame header cut short mid-append"
            );
            break Some(Damage::new(TornTail, detail));
        }
        let len = le_u32(bytes, at);
        if len > MAX_FRAME_LEN {
            if bytes[at + FRAME_HEADER_LEN..].iter().all(|&b| b == 0) {
                let detail = format!(
                    "frame at offset {at} declares a {len}-byte payload, over the {MAX_FRAME_LEN}-byte ceiling, and only zero bytes (if any) follow its header: an append that never reached the disk"
                );
                break Some(Damage::new(TornTail, detail));
            }
            let detail = format!(
                "frame at offset {at} declares a {len}-byte payload, over the {MAX_FRAME_LEN}-byte ceiling; {rest} byte(s) unreachable"
            );
            break Some(Damage::new(OversizedFrame, detail));
        }
        let needed = FRAME_HEADER_LEN + len as usize;
        if rest < needed {
            let detail = format!(
                "incomplete final frame at offset {at}: {rest} of {needed} byte(s) present"
            );
            break Some(Damage::new(TornTail, detail));
        }
        let payload = &bytes[at + FRAME_HEADER_LEN..at + needed];
        let (stored, computed) = (le_u32(bytes, at + 4), crc32(payload));
        let entry = if stored == computed {
            decode_entry(payload)
                .ok_or_else(|| "passes its checksum but its payload does not decode".to_string())
        } else {
            Err(format!(
                "fails its checksum (stored {stored:08x}, computed {computed:08x})"
            ))
        };
        let entry = match entry {
            Ok(entry) => entry,
            Err(what) if bytes[at + needed..].iter().all(|&b| b == 0) => {
                let detail = format!(
                    "frame at offset {at} {what}, and only zero bytes (if any) follow it: an append that never reached the disk"
                );
                break Some(Damage::new(TornTail, detail));
            }
            Err(what) => {
                let detail = format!(
                    "frame at offset {at} {what}; {} byte(s) follow it",
                    rest - needed
                );
                break Some(Damage::new(CorruptFrame, detail));
            }
        };
        scan.entries.push(entry);
        at += needed;
    };
    scan.intact_len = at;
    scan.stop = stop;
    Ok(scan)
}

impl Scan {
    /// The typed refusal of a walk that stopped at a damaged frame with
    /// bytes after it (a `CorruptFrame` or an `OversizedFrame`):
    /// truncating there would delete frames that may be acknowledged
    /// mutations.
    fn refuse_mid_log_damage(&self, path: &Path) -> Result<(), PersistError> {
        match &self.stop {
            Some(damage)
                if matches!(
                    damage.category,
                    FsckCategory::CorruptFrame | FsckCategory::OversizedFrame
                ) =>
            {
                Err(PersistError::CorruptWalFrame {
                    path: path.to_path_buf(),
                    offset: self.intact_len as u64,
                    message: damage.detail.clone(),
                })
            }
            _ => Ok(()),
        }
    }
}

/// The log header: magic, then the format version.
fn header() -> Vec<u8> {
    [MAGIC, VERSION.to_le_bytes()].concat()
}

/// Appends one frame — length, CRC-32, then the generation and the
/// columnar mutation — to `out`.
fn put_frame(out: &mut Vec<u8>, generation: u64, mutation: &Mutation) {
    let start = out.len();
    out.extend_from_slice(&[0; FRAME_HEADER_LEN]);
    columnar::put_u64(out, generation);
    columnar::encode_mutation(mutation, out);
    let payload = &out[start + FRAME_HEADER_LEN..];
    let (len, crc) = (payload.len() as u32, crc32(payload));
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
    out[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
}

/// Decodes one frame payload.
fn decode_entry(payload: &[u8]) -> Option<WalEntry> {
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

/// An append-only, fsync'd mutation log.
///
/// All methods take `&self`; appends serialise on an internal mutex, which
/// is the ordering the engine's mutation path already imposes.
#[derive(Debug)]
pub struct Wal {
    path: PathBuf,
    inner: Mutex<WalInner>,
    /// Latencies of the durable appends, over [`FSYNC_BUCKET_BOUNDS_US`].
    fsync_latency: LatencyHistogram,
}

impl Wal {
    /// Opens (or creates) the log at `path`, recovering every intact frame
    /// and truncating any torn tail left by a crash.
    ///
    /// # Errors
    ///
    /// [`PersistError::CorruptWalFrame`] when a frame with bytes after it
    /// fails its checksum or decode, or a frame header declares a payload
    /// over the size ceiling with non-zero bytes after it; the file is
    /// left untouched.
    pub fn open(path: &Path) -> Result<(Wal, WalRecovery), PersistError> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(|e| PersistError::io("open WAL", path, e))?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)
            .map_err(|e| PersistError::io("read WAL", path, e))?;
        let scan = scan(&bytes).map_err(|damage| PersistError::corrupt(path, damage.detail))?;
        scan.refuse_mid_log_damage(path)?;

        let len = if bytes.is_empty() {
            // Fresh log: write the header durably before first use.
            file.write_all(&header())
                .and_then(|()| file.sync_all())
                .map_err(|e| PersistError::io("initialise WAL", path, e))?;
            if let Some(dir) = path.parent() {
                sync_dir(dir)?;
            }
            HEADER_LEN
        } else {
            if scan.intact_len < bytes.len() {
                file.set_len(scan.intact_len as u64)
                    .and_then(|()| file.sync_all())
                    .map_err(|e| PersistError::io("truncate torn WAL tail", path, e))?;
            }
            file.seek(SeekFrom::Start(scan.intact_len as u64))
                .map_err(|e| PersistError::io("seek WAL", path, e))?;
            scan.intact_len
        };

        let wal = Wal {
            path: path.to_path_buf(),
            inner: Mutex::new(WalInner {
                file,
                entries: scan.entries.len() as u64,
                bytes: len as u64,
            }),
            fsync_latency: LatencyHistogram::new(&FSYNC_BUCKET_BOUNDS_US),
        };
        Ok((
            wal,
            WalRecovery {
                entries: scan.entries,
                truncated_bytes: (bytes.len() - scan.intact_len) as u64,
            },
        ))
    }

    /// Appends one mutation frame and fsyncs it: a batch of one.
    pub fn append(&self, generation: u64, mutation: &Mutation) -> Result<(), PersistError> {
        self.append_batch(generation, std::slice::from_ref(mutation))
    }

    /// Appends one frame per mutation of a group-committed batch — all
    /// stamped with the same `generation` — with **one** write and **one**
    /// fsync for the whole batch (replayers see `mutations.len()`
    /// consecutive frames sharing a generation).  Returns only once every
    /// frame is durable; the caller (the engine's publish path) must not
    /// expose the new generation before this returns.
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
            put_frame(&mut frames, generation, mutation);
        }

        // interlock:allow(the write+fsync under the WAL lock IS the durability critical section)
        // lint:allow(a poisoned WAL lock means a writer died mid-append; reusing the file handle could interleave a torn frame with a live one)
        let mut inner = self.inner.lock().expect("WAL lock poisoned");
        let started = Instant::now();
        inner
            .file
            .write_all(&frames)
            .and_then(|()| inner.file.sync_data())
            .map_err(|e| PersistError::io("append to WAL", &self.path, e))?;
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
        let scan =
            scan(&bytes).map_err(|damage| PersistError::corrupt(&self.path, damage.detail))?;
        scan.refuse_mid_log_damage(&self.path)?;

        let tmp = self.path.with_extension("log.tmp");
        let mut out = header();
        let mut kept = 0u64;
        for entry in scan.entries.iter().filter(|e| e.generation > keep_after) {
            put_frame(&mut out, entry.generation, &entry.mutation);
            kept += 1;
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
        self.fsync_latency.snapshot()
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
        dir.join(WAL_FILE)
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

    /// Writes the four test mutations and returns the log's bytes with the
    /// offset of each frame.
    fn written(path: &Path) -> (Vec<u8>, Vec<usize>) {
        {
            let (wal, _) = Wal::open(path).unwrap();
            for (generation, m) in mutations() {
                wal.append(generation, &m).unwrap();
            }
        }
        let bytes = fs::read(path).unwrap();
        let mut frames = Vec::new();
        let mut at = HEADER_LEN;
        while at < bytes.len() {
            frames.push(at);
            at += FRAME_HEADER_LEN + le_u32(&bytes, at) as usize;
        }
        (bytes, frames)
    }

    #[test]
    fn corrupted_frame_refuses_the_log_and_leaves_it_untouched() {
        let path = temp_log("bitrot");
        let (mut bytes, frames) = written(&path);
        // Flip a byte inside the second frame's payload: two acknowledged
        // frames follow it.
        bytes[frames[1] + 10] ^= 0x40;
        fs::write(&path, &bytes).unwrap();

        match Wal::open(&path) {
            Err(PersistError::CorruptWalFrame { offset, .. }) => {
                assert_eq!(offset, frames[1] as u64)
            }
            other => panic!("expected a corrupt-frame refusal, got {other:?}"),
        }
        assert_eq!(fs::read(&path).unwrap(), bytes, "the file is not rewritten");
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn one_flipped_byte_in_frame_two_of_three_refuses_boot() {
        let path = temp_log("flip2of3");
        {
            let (wal, _) = Wal::open(&path).unwrap();
            for (generation, m) in mutations().into_iter().take(3) {
                wal.append(generation, &m).unwrap();
            }
        }
        let healthy = fs::read(&path).unwrap();
        let second = HEADER_LEN + FRAME_HEADER_LEN + le_u32(&healthy, HEADER_LEN) as usize;
        let second_len = FRAME_HEADER_LEN + le_u32(&healthy, second) as usize;
        // Every byte of frame 2 after its length field: the CRC and each
        // payload byte.
        for at in second + 4..second + second_len {
            let mut bytes = healthy.clone();
            bytes[at] ^= 0x01;
            fs::write(&path, &bytes).unwrap();
            let err = Wal::open(&path).unwrap_err();
            assert!(
                matches!(err, PersistError::CorruptWalFrame { offset, .. } if offset == second as u64),
                "byte {at}: {err}"
            );
            assert!(err.to_string().contains(&second.to_string()), "{err}");
            assert_eq!(fs::read(&path).unwrap(), bytes, "byte {at}: file rewritten");
        }
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn an_oversized_length_in_frame_two_of_three_refuses_boot() {
        let path = temp_log("oversized2of3");
        {
            let (wal, _) = Wal::open(&path).unwrap();
            for (generation, m) in mutations().into_iter().take(3) {
                wal.append(generation, &m).unwrap();
            }
        }
        let healthy = fs::read(&path).unwrap();
        let second = HEADER_LEN + FRAME_HEADER_LEN + le_u32(&healthy, HEADER_LEN) as usize;
        // The high byte of frame 2's length field: a payload far past the
        // ceiling, with frame 3 still behind it.
        let mut bytes = healthy.clone();
        bytes[second + 3] ^= 0xff;
        assert!(le_u32(&bytes, second) > MAX_FRAME_LEN);
        fs::write(&path, &bytes).unwrap();
        let err = Wal::open(&path).unwrap_err();
        assert!(
            matches!(err, PersistError::CorruptWalFrame { offset, .. } if offset == second as u64),
            "{err}"
        );
        assert_eq!(fs::read(&path).unwrap(), bytes, "the file is not rewritten");

        // The same header followed only by zeros is a torn append.
        bytes[second + FRAME_HEADER_LEN..].fill(0);
        fs::write(&path, &bytes).unwrap();
        let (_, recovery) = Wal::open(&path).unwrap();
        assert_eq!(recovery.entries.len(), 1);
        assert_eq!(fs::metadata(&path).unwrap().len(), second as u64);
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn a_damaged_final_frame_is_a_torn_tail() {
        let path = temp_log("lastframe");
        let (mut bytes, frames) = written(&path);
        // The final frame's payload never reached the disk: it fails its
        // checksum, or zeros follow it.
        bytes[frames[3] + 10] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        let (_, recovery) = Wal::open(&path).unwrap();
        assert_eq!(recovery.entries.len(), 3);
        let _ = fs::remove_dir_all(path.parent().unwrap());

        let path = temp_log("zerofill");
        let (mut bytes, frames) = written(&path);
        bytes[frames[2] + 10] ^= 0x40;
        bytes[frames[3]..].fill(0);
        fs::write(&path, &bytes).unwrap();
        let (_, recovery) = Wal::open(&path).unwrap();
        assert_eq!(recovery.entries.len(), 2);
        assert_eq!(fs::metadata(&path).unwrap().len(), frames[2] as u64);
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
