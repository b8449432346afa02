//! Durability for the ASRS engine: crash-safe persistence with instant
//! boot.
//!
//! Two cooperating mechanisms:
//!
//! * **Columnar snapshots** ([`snapshot`]) — a versioned, checksummed file
//!   capturing one engine generation: the dataset's columns plus the grid
//!   index base table.  Loading one restores the engine *without
//!   re-indexing* (a sharded engine partitions the restored dataset,
//!   which costs one sort per split), so boot cost is close to file-read
//!   cost; the restored
//!   engine answers every query byte-identically to the one that wrote
//!   the snapshot.
//! * **A write-ahead log** ([`wal`]) — length-prefixed, CRC-framed
//!   mutation records, fsync'd *before* the engine publishes the mutated
//!   generation.  A crash loses at most the unacknowledged tail, which is
//!   detected and truncated on the next open; damage before the last
//!   frame refuses the open instead.
//!
//! [`store`] ties them together: [`PersistExt::persist_dir`] turns an
//! `EngineBuilder` into a [`PersistentBuilder`] whose `build` restores
//! snapshot + log, and whose [`PersistHandle`] keeps later mutations
//! durable and schedules log compaction.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod crc;
pub mod error;
pub mod fsck;
pub mod snapshot;
pub mod store;
pub mod wal;

pub use error::PersistError;
pub use fsck::{
    check_dir, check_snapshot_file, check_wal_file, FsckCategory, FsckFinding, FsckReport,
    Severity, SnapshotCheck, WalCheck,
};
pub use snapshot::{load_latest, read_snapshot, write_snapshot, SnapshotFile};
pub use store::{
    BootReport, PersistExt, PersistHandle, PersistStats, PersistentBuilder, PersistentEngine,
    SnapshotReport,
};
pub use wal::{Wal, WalEntry, WalRecovery, FSYNC_BUCKET_BOUNDS_US};

/// The little-endian `u32` at `bytes[at..at + 4]`; the caller has checked
/// the length.
pub(crate) fn le_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]])
}
