//! The correctness wall of the ASRS workspace, gathered under one roof.
//!
//! Three layers of static verification complement the behavioural test
//! suites:
//!
//! 1. **The deep invariant auditor** (implemented in `asrs-core`, report
//!    types re-exported here) — [`AuditReport`] from
//!    [`AsrsEngine::audit`](asrs_core::AsrsEngine::audit), which
//!    recomputes every redundant structure of a live engine generation
//!    (grid-index suffix tables, dataset bounding boxes, shard partition
//!    disjointness/cover/ownership, planner statistics, cache generation
//!    stamps) and compares bit-for-bit.  Debug builds run it automatically
//!    after every published mutation; the HTTP server exposes it at
//!    `GET /audit`.
//! 2. **The offline store verifier** (implemented in `asrs-persist::fsck`,
//!    re-exported here) — [`check_dir`] and friends, which structurally
//!    verify a persistence directory without booting an engine: per-file
//!    magic/version/CRC, a full snapshot payload decode, frame-by-frame WAL
//!    analysis with torn-tail classification, and cross-file generation
//!    contiguity.  They run the same snapshot reader, log scan and replay
//!    plan as boot, so their prediction is what boot does.  The
//!    **`asrs-fsck`** binary in this crate wraps them in a CLI with a JSON
//!    report and meaningful exit codes.
//! 3. **The source lint** (the separate `asrs-lint` xtask) — a
//!    dependency-free scan enforcing the workspace's panic-freedom and
//!    `forbid(unsafe_code)` policies.
//!
//! This crate deliberately contains almost no logic of its own: each
//! verifier lives next to the structures it checks (where the private
//! invariants are visible), and this crate is the single doorway CI and
//! operators go through.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use asrs_core::{AuditFinding, AuditReport};
pub use asrs_persist::fsck::{
    check_dir, check_snapshot_file, check_wal_file, FsckCategory, FsckFinding, FsckReport,
    Severity, SnapshotCheck, WalCheck,
};
