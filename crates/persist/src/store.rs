//! Orchestration: wiring snapshots and the WAL into an engine's
//! lifecycle.
//!
//! The [`PersistExt`] extension trait turns an ordinary
//! [`EngineBuilder`] into a [`PersistentBuilder`]:
//!
//! ```no_run
//! use asrs_persist::PersistExt;
//! # use asrs_core::AsrsEngine;
//! # use asrs_aggregator::{CompositeAggregator, Selection};
//! # use asrs_data::gen::UniformGenerator;
//! # let ds = UniformGenerator::default().generate(100, 1);
//! # let agg = CompositeAggregator::builder(ds.schema())
//! #     .distribution("category", Selection::All).build().unwrap();
//! let persistent = AsrsEngine::builder(ds, agg)
//!     .build_index(16, 16)
//!     .persist_dir("/var/lib/asrs")
//!     .build()
//!     .unwrap();
//! ```
//!
//! Boot order: load the newest snapshot that decodes (if any) and restore
//! the engine from it without re-indexing; replay the WAL tail past the
//! snapshot's generation through the ordinary mutation path, as
//! `replay_plan` lays it out; only *then* attach the WAL as the engine's
//! durability sink, so replayed mutations are not logged twice.
//! `asrs-fsck` predicts a boot with the same snapshot reader, log scan and
//! replay plan.  From that point every mutation is fsync'd to
//! the log before its generation is published (see
//! `asrs_core::DurabilitySink`).
//!
//! Snapshots are taken from an exported [`EngineState`] — an `Arc`-backed
//! view of one immutable generation — so writers are never stalled while
//! the file is produced.  After a successful snapshot the WAL is compacted
//! down to the frames newer than the snapshot and older snapshot files are
//! pruned.  When the log grows past `compaction_threshold` frames, the
//! handle raises a `snapshot_due` flag; the serving layer's background
//! thread polls it and snapshots outside the write path.

use crate::error::PersistError;
use crate::fsck::{Damage, FsckCategory};
use crate::snapshot::{self, SnapshotFile};
use crate::wal::{Wal, WAL_FILE};
use asrs_core::sync::Mutex;
use asrs_core::{AsrsEngine, AsrsError, DurabilitySink, EngineBuilder, EngineState};
use asrs_data::Mutation;
use serde::{Deserialize, Serialize};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// The replay plan: which log frames boot applies on top of
/// `boot_generation`, given each intact frame's generation in log order.
///
/// Each run of consecutive frames sharing a generation (a group-committed
/// batch) replays as one batch.  A run at or below the generation reached
/// so far is redundant (left by a crash between snapshot and compaction)
/// and skipped; any other run must claim the next generation.  Returns the
/// runs to apply, as index ranges into the log, and the
/// `GenerationDiscontinuity` that ends the plan early, if any: boot refuses
/// such a log.
pub(crate) fn replay_plan(
    boot_generation: u64,
    generations: &[u64],
) -> (Vec<Range<usize>>, Option<Damage>) {
    let mut runs = Vec::new();
    let mut at = boot_generation;
    let mut start = 0;
    while let Some(&generation) = generations.get(start) {
        let same = generations[start..]
            .iter()
            .take_while(|&&g| g == generation);
        let end = start + same.count();
        if generation > at {
            if generation != at + 1 {
                let detail = format!(
                    "WAL jumps from generation {at} to {generation}; a snapshot or log segment is missing"
                );
                let jump = Damage::new(FsckCategory::GenerationDiscontinuity, detail);
                return (runs, Some(jump));
            }
            runs.push(start..end);
            at = generation;
        }
        start = end;
    }
    (runs, None)
}

/// How the engine came back at boot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BootReport {
    /// `true` when no usable snapshot existed and the engine was built
    /// from its seed dataset.
    pub cold_start: bool,
    /// Generation of the snapshot that was restored, if any.
    pub snapshot_generation: Option<u64>,
    /// Size in bytes of the restored snapshot, if any.
    pub snapshot_bytes: Option<u64>,
    /// WAL frames replayed on top of the snapshot (or seed).
    pub replayed_entries: u64,
    /// Torn-tail bytes discarded from the WAL (0 on clean shutdown).
    pub wal_truncated_bytes: u64,
    /// The engine generation once boot finished.
    pub boot_generation: u64,
}

/// Result of one snapshot operation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SnapshotReport {
    /// The generation the snapshot captures.
    pub generation: u64,
    /// Snapshot file size in bytes.
    pub bytes: u64,
    /// WAL frames remaining after the post-snapshot compaction.
    pub wal_entries: u64,
}

/// A point-in-time view of the persistence counters, served under
/// `/metrics`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PersistStats {
    /// Where the snapshot and log files live.
    pub directory: String,
    /// Generation of the newest on-disk snapshot, if one has been written.
    pub snapshot_generation: Option<u64>,
    /// Size in bytes of the newest snapshot.
    pub snapshot_bytes: Option<u64>,
    /// Snapshots written since this process opened the directory.
    pub snapshots_written: u64,
    /// Frames currently in the write-ahead log.
    pub wal_entries: u64,
    /// Write-ahead log size in bytes.
    pub wal_bytes: u64,
    /// Frames replayed by the most recent boot.
    pub replayed_on_boot: u64,
    /// WAL frames that trigger the `snapshot_due` flag.
    pub compaction_threshold: u64,
    /// Whether the log has outgrown the threshold and a snapshot is
    /// pending.
    pub snapshot_due: bool,
    /// Durable WAL appends (each one `write + fsync` critical section;
    /// a group-committed batch counts once).
    pub fsyncs: u64,
    /// Total microseconds spent in those critical sections.
    pub fsync_total_us: u64,
    /// Latency histogram bucket counts, one per
    /// [`crate::wal::FSYNC_BUCKET_BOUNDS_US`] bound plus a trailing
    /// overflow bucket.
    pub fsync_latency_us: Vec<u64>,
}

#[derive(Debug)]
struct StoreCounters {
    snapshot_generation: Option<u64>,
    snapshot_bytes: Option<u64>,
    snapshots_written: u64,
    replayed_on_boot: u64,
}

/// The live persistence state of one engine: the open WAL, the snapshot
/// directory, and the compaction bookkeeping.
///
/// The handle is deliberately engine-agnostic — it never holds an engine
/// reference (which would create a cycle through the engine's durability
/// sink).  Snapshots are fed an [`EngineState`] exported by the caller.
#[derive(Debug)]
pub struct PersistHandle {
    dir: PathBuf,
    wal: Wal,
    compaction_threshold: u64,
    snapshot_due: AtomicBool,
    counters: Mutex<StoreCounters>,
}

impl PersistHandle {
    /// Writes a snapshot of `state`, compacts the WAL down to frames newer
    /// than it, and prunes older snapshot files.
    ///
    /// `state` should come from [`AsrsEngine::export_state`] (or the
    /// handle equivalent); it is an `Arc`-backed view, so concurrent
    /// queries and mutations proceed untouched while the file is written.
    pub fn snapshot_now(&self, state: &EngineState) -> Result<SnapshotReport, PersistError> {
        let written = snapshot::write_snapshot(&self.dir, state)?;
        self.wal.compact(written.generation)?;
        snapshot::prune_older_than(&self.dir, written.generation)?;
        {
            // Counters are plain data; a poisoned lock (a panicking peer
            // thread) cannot leave them half-updated in a harmful way.
            let mut counters = self
                .counters
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            counters.snapshot_generation = Some(written.generation);
            counters.snapshot_bytes = Some(written.bytes);
            counters.snapshots_written += 1;
        }
        self.snapshot_due.store(false, Ordering::Release);
        Ok(SnapshotReport {
            generation: written.generation,
            bytes: written.bytes,
            wal_entries: self.wal.len(),
        })
    }

    /// Whether the WAL has outgrown the compaction threshold since the
    /// last snapshot.  Cleared by [`PersistHandle::snapshot_now`].
    pub fn snapshot_due(&self) -> bool {
        self.snapshot_due.load(Ordering::Acquire)
    }

    /// Current persistence counters.
    pub fn stats(&self) -> PersistStats {
        // Copy the counters in a tight block so the guard is not held
        // while `Wal::len`/`Wal::bytes` take the WAL lock (keeps
        // `store.counters` a leaf in LOCK_ORDER.md).
        let (snapshot_generation, snapshot_bytes, snapshots_written, replayed_on_boot) = {
            let counters = self
                .counters
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            (
                counters.snapshot_generation,
                counters.snapshot_bytes,
                counters.snapshots_written,
                counters.replayed_on_boot,
            )
        };
        let (fsyncs, fsync_total_us, fsync_latency_us) = self.wal.fsync_latency();
        PersistStats {
            directory: self.dir.display().to_string(),
            snapshot_generation,
            snapshot_bytes,
            snapshots_written,
            wal_entries: self.wal.len(),
            wal_bytes: self.wal.bytes(),
            replayed_on_boot,
            compaction_threshold: self.compaction_threshold,
            snapshot_due: self.snapshot_due.load(Ordering::Acquire),
            fsyncs,
            fsync_total_us,
            fsync_latency_us,
        }
    }

    /// The directory the handle persists into.
    pub fn directory(&self) -> &Path {
        &self.dir
    }
}

impl DurabilitySink for PersistHandle {
    fn log_batch(&self, generation: u64, mutations: &[Mutation]) -> Result<(), AsrsError> {
        self.wal
            .append_batch(generation, mutations)
            .map_err(PersistError::into_asrs)?;
        if self.wal.len() >= self.compaction_threshold {
            self.snapshot_due.store(true, Ordering::Release);
        }
        Ok(())
    }
}

/// An engine bundled with its persistence handle and boot report.
#[derive(Debug)]
pub struct PersistentEngine {
    engine: AsrsEngine,
    persist: Arc<PersistHandle>,
    boot: BootReport,
}

impl PersistentEngine {
    /// The engine itself.
    pub fn engine(&self) -> &AsrsEngine {
        &self.engine
    }

    /// A cloneable handle to the engine (queries and mutations).
    pub fn handle(&self) -> asrs_core::EngineHandle {
        self.engine.handle()
    }

    /// The persistence handle (snapshots, counters).
    pub fn persist(&self) -> &Arc<PersistHandle> {
        &self.persist
    }

    /// How this engine booted.
    pub fn boot(&self) -> &BootReport {
        &self.boot
    }

    /// Snapshots the engine's current generation.
    pub fn snapshot(&self) -> Result<SnapshotReport, PersistError> {
        self.persist.snapshot_now(&self.engine.export_state())
    }

    /// Splits into the engine and its persistence handle.
    pub fn into_parts(self) -> (AsrsEngine, Arc<PersistHandle>, BootReport) {
        (self.engine, self.persist, self.boot)
    }
}

/// Builder for a crash-safe engine: an [`EngineBuilder`] plus a
/// persistence directory.  Created by [`PersistExt::persist_dir`].
#[derive(Debug)]
pub struct PersistentBuilder {
    builder: EngineBuilder,
    dir: PathBuf,
    compaction_threshold: u64,
}

impl PersistentBuilder {
    /// WAL frames that trigger a background snapshot (default 1024).
    /// The flag is polled by the serving layer; libraries embedding the
    /// engine directly should poll [`PersistHandle::snapshot_due`]
    /// themselves or call [`PersistentEngine::snapshot`] at their own
    /// cadence.
    pub fn compaction_threshold(mut self, frames: u64) -> Self {
        self.compaction_threshold = frames.max(1);
        self
    }

    /// Boots the engine: restore from the newest valid snapshot (or build
    /// from the seed dataset when none exists), replay the WAL tail, then
    /// attach the log so subsequent mutations are durable.
    pub fn build(self) -> Result<PersistentEngine, PersistError> {
        std::fs::create_dir_all(&self.dir)
            .map_err(|e| PersistError::io("create persistence directory", &self.dir, e))?;
        let (wal, recovery) = Wal::open(&self.dir.join(WAL_FILE))?;

        let loaded = snapshot::load_latest(&self.dir)?;
        let (engine, snapshot_file): (AsrsEngine, Option<SnapshotFile>) = match loaded {
            Some((state, file)) => (self.builder.build_restored(state)?, Some(file)),
            None => (self.builder.build()?, None),
        };

        // Replay the tail: the frames the snapshot does not cover, one
        // batch per group-committed generation.  TTLs are not durable
        // (they are wall-clock relative); an expiry that made it to the
        // log replays as its outcome — the engine applies `Expire` records
        // as plain removals.
        let generations: Vec<u64> = recovery.entries.iter().map(|e| e.generation).collect();
        let (runs, jump) = replay_plan(engine.generation(), &generations);
        if let Some(jump) = jump {
            return Err(PersistError::corrupt(wal.path(), jump.detail));
        }
        let mut replayed = 0u64;
        for run in runs {
            let batch: Vec<Mutation> = recovery.entries[run.clone()]
                .iter()
                .map(|e| e.mutation.clone())
                .collect();
            let receipts = engine
                .apply_mutations(&batch)
                .map_err(PersistError::Engine)?;
            debug_assert!(receipts
                .iter()
                .all(|r| r.generation == generations[run.start]));
            replayed += run.len() as u64;
        }

        let boot = BootReport {
            cold_start: snapshot_file.is_none(),
            snapshot_generation: snapshot_file.as_ref().map(|f| f.generation),
            snapshot_bytes: snapshot_file.as_ref().map(|f| f.bytes),
            replayed_entries: replayed,
            wal_truncated_bytes: recovery.truncated_bytes,
            boot_generation: engine.generation(),
        };

        let persist = Arc::new(PersistHandle {
            dir: self.dir,
            wal,
            compaction_threshold: self.compaction_threshold,
            snapshot_due: AtomicBool::new(false),
            counters: Mutex::new(StoreCounters {
                snapshot_generation: boot.snapshot_generation,
                snapshot_bytes: boot.snapshot_bytes,
                snapshots_written: 0,
                replayed_on_boot: replayed,
            }),
        });

        // Re-establish the invariant "everything up to the current
        // generation is in a snapshot or the log": fresh directories get
        // their first snapshot, and a heavily-replayed boot compacts.
        if snapshot_file.is_none() || replayed >= self.compaction_threshold {
            persist.snapshot_now(&engine.export_state())?;
        }

        engine
            .attach_durability(persist.clone())
            .map_err(PersistError::Engine)?;

        Ok(PersistentEngine {
            engine,
            persist,
            boot,
        })
    }
}

/// Extension trait adding [`persist_dir`](PersistExt::persist_dir) to
/// [`EngineBuilder`].
pub trait PersistExt {
    /// Persists the engine into `dir`: boot restores the newest snapshot
    /// there and replays the write-ahead log; every later mutation is
    /// fsync'd to the log before it is acknowledged.
    fn persist_dir(self, dir: impl Into<PathBuf>) -> PersistentBuilder;
}

impl PersistExt for EngineBuilder {
    fn persist_dir(self, dir: impl Into<PathBuf>) -> PersistentBuilder {
        PersistentBuilder {
            builder: self,
            dir: dir.into(),
            compaction_threshold: 1024,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asrs_aggregator::{CompositeAggregator, Selection};
    use asrs_data::gen::UniformGenerator;
    use asrs_data::{AttrValue, SpatialObject};
    use asrs_geo::Point;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("asrs-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn builder(objects: usize, shards: usize) -> EngineBuilder {
        let ds = UniformGenerator::default().generate(objects, 5);
        let agg = CompositeAggregator::builder(ds.schema())
            .distribution("category", Selection::All)
            .build()
            .unwrap();
        let mut b = AsrsEngine::builder(ds, agg).build_index(10, 10);
        if shards > 0 {
            b = b.shards(shards);
        }
        b
    }

    fn object(id: u64) -> SpatialObject {
        SpatialObject::new(
            id,
            Point::new(40.0 + id as f64 % 7.0, 60.0 - id as f64 % 11.0),
            vec![AttrValue::Cat(id as u32 % 4)],
        )
    }

    #[test]
    fn cold_boot_writes_an_initial_snapshot_and_logs_mutations() {
        let dir = temp_dir("cold");
        let persistent = builder(120, 0).persist_dir(&dir).build().unwrap();
        assert!(persistent.boot().cold_start);
        assert_eq!(persistent.boot().boot_generation, 0);
        let stats = persistent.persist().stats();
        assert_eq!(
            stats.snapshots_written, 1,
            "a cold boot writes the first snapshot"
        );
        assert_eq!(stats.wal_entries, 0);

        persistent.engine().append(object(500)).unwrap();
        persistent.engine().remove(3).unwrap();
        let stats = persistent.persist().stats();
        assert_eq!(stats.wal_entries, 2);
        assert!(stats.wal_bytes > 8);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reboot_replays_the_wal_tail() {
        let dir = temp_dir("reboot");
        {
            let p = builder(120, 2).persist_dir(&dir).build().unwrap();
            p.engine().append(object(700)).unwrap();
            p.engine().append(object(701)).unwrap();
            p.engine().remove(700).unwrap();
            assert_eq!(p.engine().generation(), 3);
        }
        let p = builder(120, 2).persist_dir(&dir).build().unwrap();
        assert!(!p.boot().cold_start);
        assert_eq!(p.boot().snapshot_generation, Some(0));
        assert_eq!(p.boot().replayed_entries, 3);
        assert_eq!(p.engine().generation(), 3);
        assert!(p.engine().dataset().contains_id(701));
        assert!(!p.engine().dataset().contains_id(700));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_now_compacts_the_log_and_prunes_old_snapshots() {
        let dir = temp_dir("compact");
        let p = builder(100, 0)
            .persist_dir(&dir)
            .compaction_threshold(3)
            .build()
            .unwrap();
        assert!(!p.persist().snapshot_due());
        p.engine().append(object(800)).unwrap();
        p.engine().append(object(801)).unwrap();
        assert!(!p.persist().snapshot_due());
        p.engine().append(object(802)).unwrap();
        assert!(p.persist().snapshot_due(), "threshold of 3 reached");

        let report = p.snapshot().unwrap();
        assert_eq!(report.generation, 3);
        assert_eq!(report.wal_entries, 0);
        assert!(!p.persist().snapshot_due());
        let stats = p.persist().stats();
        assert_eq!(stats.snapshot_generation, Some(3));
        assert_eq!(stats.snapshots_written, 2);

        // Only the newest snapshot file remains on disk.
        let snaps: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".snap"))
            .collect();
        assert_eq!(snaps.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_past_threshold_triggers_a_boot_snapshot() {
        let dir = temp_dir("bootsnap");
        {
            let p = builder(80, 0).persist_dir(&dir).build().unwrap();
            for id in 900..905 {
                p.engine().append(object(id)).unwrap();
            }
        }
        let p = builder(80, 0)
            .persist_dir(&dir)
            .compaction_threshold(4)
            .build()
            .unwrap();
        assert_eq!(p.boot().replayed_entries, 5);
        let stats = p.persist().stats();
        assert_eq!(stats.wal_entries, 0, "boot compacted the replayed log");
        assert_eq!(stats.snapshot_generation, Some(5));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wal_generation_gap_is_reported_as_corruption() {
        let dir = temp_dir("gap");
        {
            let p = builder(60, 0).persist_dir(&dir).build().unwrap();
            p.engine().append(object(950)).unwrap();
        }
        // Delete the snapshot the WAL was built against *and* the first
        // frame's precondition: rebooting from the seed at generation 0
        // with a log claiming generation 1 still lines up, so instead
        // corrupt history by removing the snapshot and appending a frame
        // with a far-future generation.
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|e| e == "snap") {
                std::fs::remove_file(path).unwrap();
            }
        }
        {
            let (wal, _) = Wal::open(&dir.join(WAL_FILE)).unwrap();
            wal.append(9, &Mutation::Remove { id: 950 }).unwrap();
        }
        match builder(60, 0).persist_dir(&dir).build() {
            Err(PersistError::Corrupt { message, .. }) => {
                assert!(message.contains("jumps"), "{message}")
            }
            other => panic!("expected corruption, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
