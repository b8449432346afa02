//! Offline structural verification of a persistence directory — the
//! `fsck` of the ASRS on-disk formats.
//!
//! Everything here is **read-only** and engine-free: no engine is booted,
//! no file is truncated or rewritten (unlike [`Wal::open`](crate::Wal),
//! which repairs torn tails in place).  That makes the checks safe to run
//! against the live directory of a serving process, against a backup, or
//! from the `asrs-fsck` binary in CI.
//!
//! fsck has no reader of its own: it classifies the verdicts of the
//! readers boot runs, so its prediction is what boot does.  Three layers:
//!
//! 1. **Per-snapshot** ([`check_snapshot_file`]) — the snapshot reader
//!    boot's [`load_latest`](crate::load_latest) uses: framing, magic,
//!    version, payload CRC-32, a full payload decode that bounds every
//!    declared length and checks the index's rectangle and base-table
//!    shape, and the file name's generation against the payload's.  Any
//!    damage makes the file unloadable, and boot skips exactly those
//!    files.  Every object's location must also be finite: such an image
//!    still loads, but the engine refuses it.
//! 2. **Per-WAL** ([`check_wal_file`]) — the log scan
//!    [`Wal::open`](crate::Wal::open) uses: the header check (an empty
//!    file is a fresh log), then the frame walk, whose stop is either a
//!    *torn tail* (an incomplete or damaged final frame: the expected
//!    crash artifact, a warning, truncated by boot) or damage (an
//!    oversized frame, which boot truncates at, or a checksum-failing or
//!    undecodable frame with bytes after it, which boot refuses: errors).
//!    On top, in-log generation contiguity and finite append locations.
//! 3. **Cross-file** ([`check_dir`]) — the directory as a whole: the boot
//!    plan (newest loadable snapshot, then the replay plan
//!    [`PersistentBuilder::build`](crate::PersistentBuilder) runs over the
//!    log) and a WAL that disagrees with snapshot history, which boot
//!    refuses.  Stale temporary files and foreign files are warnings.
//!
//! Reports serialize to JSON for machines and summarize for humans.

use crate::error::PersistError;
use crate::snapshot;
use crate::store::replay_plan;
use crate::wal::{self, WAL_FILE};
use asrs_data::columnar::ColumnarError;
use asrs_data::{Mutation, SpatialObject};
use serde::Serialize;
use std::fmt::Write as _;
use std::fs;
use std::path::Path;

/// How bad one finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Severity {
    /// Expected artifacts of a crash or interruption; boot recovers from
    /// these silently (torn WAL tail, leftover temporary file).
    Warning,
    /// Structural damage boot either skips over (a corrupt snapshot) or
    /// refuses outright (inconsistent generation history).
    Error,
}

/// What kind of damage a finding describes.  The variant set is the
/// machine-readable contract of the `asrs-fsck` binary; tests assert on
/// these, not on detail strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum FsckCategory {
    /// File shorter than its fixed framing.
    Truncated,
    /// The leading magic bytes are not the format's.
    BadMagic,
    /// The format version is one this build cannot read.
    BadVersion,
    /// A stored CRC-32 does not match the recomputed one.
    ChecksumMismatch,
    /// Bytes remain after the payload fully decoded.
    TrailingBytes,
    /// The payload does not decode as its declared version.
    PayloadDecode,
    /// The payload decoded but the engine-side constructors rejected it
    /// (e.g. an index base table whose length disagrees with its grid).
    StateRejected,
    /// A snapshot's file name claims a different generation than its
    /// payload.
    GenerationMismatch,
    /// A snapshot object or a WAL append holds a NaN or infinite location,
    /// which boot refuses.  Only files written before appends refused
    /// such locations can hold one.
    NonFiniteLocation,
    /// An incomplete final WAL frame, or a final frame that fails its
    /// checksum or decode — the expected crash artifact.
    TornTail,
    /// A complete WAL frame with bytes after it that fails its checksum or
    /// does not decode; boot refuses the log.
    CorruptFrame,
    /// A frame declares a payload beyond the format's size ceiling.
    OversizedFrame,
    /// Generations inside the WAL are not contiguous.
    GenerationGap,
    /// The WAL's replayable suffix does not continue where the newest
    /// loadable snapshot ends.
    GenerationDiscontinuity,
    /// A leftover `*.tmp` file from an interrupted atomic write.
    StaleTempFile,
    /// A file the persistence subsystem does not recognize.
    ForeignFile,
}

impl FsckCategory {
    /// Crash artifacts boot recovers from silently are warnings; the rest
    /// is damage.
    fn severity(self) -> Severity {
        match self {
            FsckCategory::TornTail | FsckCategory::StaleTempFile | FsckCategory::ForeignFile => {
                Severity::Warning
            }
            _ => Severity::Error,
        }
    }
}

/// A reader's verdict on bytes it refuses: the snapshot reader, the log
/// scan and the replay plan return one, boot reports its detail, and fsck
/// files it as a finding.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Damage {
    /// What kind of damage.
    pub category: FsckCategory,
    /// Human-readable description.
    pub detail: String,
}

impl Damage {
    pub(crate) fn new(category: FsckCategory, detail: String) -> Self {
        Damage { category, detail }
    }
}

impl From<ColumnarError> for Damage {
    fn from(e: ColumnarError) -> Self {
        Damage::new(FsckCategory::PayloadDecode, e.to_string())
    }
}

/// One problem found in one file (or in the directory as a whole).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FsckFinding {
    /// File the finding is about (file name for per-file findings, the
    /// directory path for cross-file ones).
    pub file: String,
    /// Machine-readable damage category.
    pub category: FsckCategory,
    /// Whether boot recovers from this silently or not.
    pub severity: Severity,
    /// Human-readable description.
    pub detail: String,
}

impl FsckFinding {
    fn new(file: &str, damage: Damage) -> Self {
        FsckFinding {
            file: file.to_string(),
            category: damage.category,
            severity: damage.category.severity(),
            detail: damage.detail,
        }
    }
}

/// Verification result for one snapshot file.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SnapshotCheck {
    /// The file's name.
    pub file: String,
    /// Generation parsed from the file name (`None` for a malformed name).
    pub name_generation: Option<u64>,
    /// Generation of the state the file loads, `None` when boot skips it.
    pub payload_generation: Option<u64>,
    /// File size in bytes.
    pub bytes: u64,
    /// Everything wrong with the file (empty for a healthy snapshot).
    pub findings: Vec<FsckFinding>,
}

impl SnapshotCheck {
    /// Whether boot's [`load_latest`](crate::load_latest) would restore
    /// from this file.  A non-finite location does not stop the load; the
    /// engine refuses the restored state afterwards.
    pub fn loadable(&self) -> bool {
        self.payload_generation.is_some()
    }
}

/// Verification result for the write-ahead log.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct WalCheck {
    /// The file's name.
    pub file: String,
    /// File size in bytes.
    pub bytes: u64,
    /// Intact frames, in log order.
    pub frames: u64,
    /// The generation of each intact frame, in log order.
    pub generations: Vec<u64>,
    /// Bytes of torn tail a boot would truncate (0 for a clean shutdown).
    pub torn_tail_bytes: u64,
    /// Everything wrong with the log (empty for a healthy one).
    pub findings: Vec<FsckFinding>,
}

/// Verification result for a whole persistence directory.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FsckReport {
    /// The directory that was checked.
    pub directory: String,
    /// Per-snapshot results, oldest generation first.
    pub snapshots: Vec<SnapshotCheck>,
    /// The WAL's result, `None` when no log exists yet.
    pub wal: Option<WalCheck>,
    /// The generation boot would restore from disk (0 for a cold start).
    pub boot_generation: u64,
    /// `true` when no loadable snapshot exists.
    pub cold_start: bool,
    /// WAL frames boot would replay on top of the restored snapshot.
    pub replayable_frames: u64,
    /// The generation the engine would reach after replay.
    pub final_generation: u64,
    /// Directory-level and cross-file findings.
    pub findings: Vec<FsckFinding>,
    /// Total [`Severity::Error`] findings across every section.
    pub errors: usize,
    /// Total [`Severity::Warning`] findings across every section.
    pub warnings: usize,
}

impl FsckReport {
    /// No findings of any severity.
    pub fn is_clean(&self) -> bool {
        self.errors == 0 && self.warnings == 0
    }

    /// At least one [`Severity::Error`] finding.
    pub fn has_errors(&self) -> bool {
        self.errors > 0
    }

    /// Every finding across every section, for uniform iteration.
    pub fn all_findings(&self) -> Vec<&FsckFinding> {
        self.snapshots
            .iter()
            .flat_map(|s| s.findings.iter())
            .chain(self.wal.iter().flat_map(|w| w.findings.iter()))
            .chain(self.findings.iter())
            .collect()
    }

    /// A short human-readable account, one line per finding.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}: {} snapshot(s), wal {}, boot generation {}{}, {} replayable frame(s) -> generation {}",
            self.directory,
            self.snapshots.len(),
            match &self.wal {
                Some(w) => format!("{} frame(s)", w.frames),
                None => "absent".to_string(),
            },
            self.boot_generation,
            if self.cold_start { " (cold start)" } else { "" },
            self.replayable_frames,
            self.final_generation,
        );
        for finding in self.all_findings() {
            let _ = writeln!(
                out,
                "  {} {}: {:?}: {}",
                match finding.severity {
                    Severity::Error => "ERROR",
                    Severity::Warning => "WARN ",
                },
                finding.file,
                finding.category,
                finding.detail
            );
        }
        if self.is_clean() {
            let _ = writeln!(out, "  clean");
        }
        out
    }
}

fn file_label(path: &Path) -> String {
    path.file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.display().to_string())
}

/// The finding for an object whose location boot refuses, if it has one.
fn non_finite_location(
    file: &str,
    object: &SpatialObject,
    place: std::fmt::Arguments<'_>,
) -> Option<FsckFinding> {
    let p = object.location;
    (!(p.x.is_finite() && p.y.is_finite())).then(|| {
        let detail = format!(
            "{place}: object {} has the non-finite location ({}, {}); boot refuses it",
            object.id, p.x, p.y
        );
        FsckFinding::new(file, Damage::new(FsckCategory::NonFiniteLocation, detail))
    })
}

/// Structurally verifies one snapshot file without booting an engine.
///
/// Only I/O failures are `Err`; structural damage comes back as findings
/// inside the [`SnapshotCheck`].
pub fn check_snapshot_file(path: &Path) -> Result<SnapshotCheck, PersistError> {
    let bytes = fs::read(path).map_err(|e| PersistError::io("read snapshot", path, e))?;
    let file = file_label(path);
    let name_generation = snapshot::name_generation(path);
    let mut check = SnapshotCheck {
        file: file.clone(),
        name_generation,
        payload_generation: None,
        bytes: bytes.len() as u64,
        findings: Vec::new(),
    };
    match snapshot::decode_snapshot(&bytes, name_generation) {
        Ok(state) => {
            check.payload_generation = Some(state.generation);
            for object in state.dataset.objects() {
                let place = format_args!("snapshot object");
                check
                    .findings
                    .extend(non_finite_location(&file, object, place));
            }
        }
        Err(damage) => check.findings.push(FsckFinding::new(&file, damage)),
    }
    Ok(check)
}

/// Structurally verifies a write-ahead log **without repairing it** —
/// unlike [`Wal::open`](crate::Wal), which truncates torn tails in place,
/// this never writes.
pub fn check_wal_file(path: &Path) -> Result<WalCheck, PersistError> {
    let bytes = fs::read(path).map_err(|e| PersistError::io("read WAL", path, e))?;
    let file = file_label(path);
    let mut check = WalCheck {
        file: file.clone(),
        bytes: bytes.len() as u64,
        frames: 0,
        generations: Vec::new(),
        torn_tail_bytes: 0,
        findings: Vec::new(),
    };
    let scan = match wal::scan(&bytes) {
        Ok(scan) => scan,
        Err(damage) => {
            check.findings.push(FsckFinding::new(&file, damage));
            return Ok(check);
        }
    };
    for (frame, entry) in scan.entries.iter().enumerate() {
        if let Some(&previous) = check.generations.last() {
            // Equal generations are a group-committed batch (several
            // frames, one fsync, one published generation); only an
            // actual jump is a gap.
            if entry.generation != previous && entry.generation != previous + 1 {
                let detail = format!(
                    "generation jumps from {previous} to {} at frame {frame}",
                    entry.generation
                );
                let gap = Damage::new(FsckCategory::GenerationGap, detail);
                check.findings.push(FsckFinding::new(&file, gap));
            }
        }
        if let Mutation::Append { object } = &entry.mutation {
            let place = format_args!("append in frame {frame}");
            check
                .findings
                .extend(non_finite_location(&file, object, place));
        }
        check.generations.push(entry.generation);
    }
    check.frames = scan.entries.len() as u64;
    if let Some(stop) = scan.stop {
        if stop.category == FsckCategory::TornTail {
            check.torn_tail_bytes = (bytes.len() - scan.intact_len) as u64;
        }
        check.findings.push(FsckFinding::new(&file, stop));
    }
    Ok(check)
}

/// Verifies a whole persistence directory: every snapshot, the WAL, and
/// the cross-file consistency a boot depends on.
///
/// `Err` only for I/O failures (unreadable directory or file); all
/// structural findings live in the report.  A missing directory is an
/// I/O error — fsck on a path that does not exist is a caller mistake,
/// not an empty-but-healthy store.
pub fn check_dir(dir: &Path) -> Result<FsckReport, PersistError> {
    let mut snapshots = Vec::new();
    let mut findings = Vec::new();
    let mut wal_check = None;

    let entries =
        fs::read_dir(dir).map_err(|e| PersistError::io("list persistence directory", dir, e))?;
    for entry in entries {
        let entry = entry.map_err(|e| PersistError::io("list persistence directory", dir, e))?;
        let path = entry.path();
        if !path.is_file() {
            continue;
        }
        let name = entry.file_name().to_string_lossy().into_owned();
        if name == WAL_FILE {
            wal_check = Some(check_wal_file(&path)?);
        } else if snapshot::parse_generation(&name).is_some() {
            snapshots.push(check_snapshot_file(&path)?);
        } else {
            let (category, detail) = if name.ends_with(".tmp") {
                let detail = "leftover temporary file from an interrupted atomic write";
                (FsckCategory::StaleTempFile, detail)
            } else {
                let detail = "not a snapshot, write-ahead log or temporary file";
                (FsckCategory::ForeignFile, detail)
            };
            findings.push(FsckFinding::new(
                &name,
                Damage::new(category, detail.to_string()),
            ));
        }
    }
    snapshots.sort_by_key(|s| s.name_generation);

    // The boot plan: restore the newest loadable snapshot (load_latest
    // skips exactly the unloadable ones), then run boot's replay plan over
    // the log's intact frames.
    let boot_generation = snapshots.iter().filter_map(|s| s.payload_generation).max();
    let generations = wal_check.as_ref().map_or(&[][..], |w| &w.generations[..]);
    let (runs, jump) = replay_plan(boot_generation.unwrap_or(0), generations);
    let final_generation = runs
        .last()
        .map_or(boot_generation.unwrap_or(0), |run| generations[run.start]);
    findings.extend(jump.map(|jump| FsckFinding::new(WAL_FILE, jump)));

    let mut report = FsckReport {
        directory: dir.display().to_string(),
        snapshots,
        wal: wal_check,
        boot_generation: boot_generation.unwrap_or(0),
        cold_start: boot_generation.is_none(),
        replayable_frames: runs.iter().map(|run| run.len() as u64).sum(),
        final_generation,
        findings,
        errors: 0,
        warnings: 0,
    };
    let all = report.all_findings();
    let errors = all.iter().filter(|f| f.severity == Severity::Error).count();
    (report.errors, report.warnings) = (errors, all.len() - errors);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::PersistExt;
    use asrs_aggregator::{CompositeAggregator, Selection};
    use asrs_core::AsrsEngine;
    use asrs_data::gen::UniformGenerator;
    use asrs_data::{AttrValue, Mutation, SpatialObject};
    use asrs_geo::Point;
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("asrs-fsck-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn object(id: u64) -> SpatialObject {
        SpatialObject::new(
            id,
            Point::new(30.0 + id as f64 % 13.0, 70.0 - id as f64 % 9.0),
            vec![AttrValue::Cat(id as u32 % 4)],
        )
    }

    fn populated_dir(tag: &str, shards: usize, mutations: u64) -> PathBuf {
        let dir = temp_dir(tag);
        let ds = UniformGenerator::default().generate(150, 3);
        let agg = CompositeAggregator::builder(ds.schema())
            .distribution("category", Selection::All)
            .build()
            .unwrap();
        let mut builder = AsrsEngine::builder(ds, agg).build_index(8, 8);
        if shards > 0 {
            builder = builder.shards(shards);
        }
        let p = builder.persist_dir(&dir).build().unwrap();
        for id in 0..mutations {
            p.engine().append(object(1000 + id)).unwrap();
        }
        dir
    }

    #[test]
    fn a_healthy_directory_is_clean() {
        for shards in [0usize, 3] {
            let dir = populated_dir(&format!("healthy{shards}"), shards, 4);
            let report = check_dir(&dir).unwrap();
            assert!(report.is_clean(), "{}", report.summary());
            assert!(!report.cold_start);
            assert_eq!(report.boot_generation, 0);
            assert_eq!(report.replayable_frames, 4);
            assert_eq!(report.final_generation, 4);
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn a_flipped_snapshot_byte_is_a_checksum_mismatch() {
        let dir = populated_dir("snapcrc", 0, 0);
        let snap = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .find(|p| p.extension().is_some_and(|e| e == "snap"))
            .unwrap();
        let mut bytes = fs::read(&snap).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        fs::write(&snap, &bytes).unwrap();

        let check = check_snapshot_file(&snap).unwrap();
        assert!(!check.loadable());
        assert_eq!(check.findings.len(), 1);
        assert_eq!(check.findings[0].category, FsckCategory::ChecksumMismatch);

        // Directory-level: the only snapshot is unloadable, so boot is a
        // cold start and the report carries the error.
        let report = check_dir(&dir).unwrap();
        assert!(report.has_errors());
        assert!(report.cold_start);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_torn_wal_tail_is_a_warning_not_an_error() {
        let dir = populated_dir("torn", 0, 3);
        let wal_path = dir.join(WAL_FILE);
        let full = fs::metadata(&wal_path).unwrap().len();
        let f = fs::OpenOptions::new().write(true).open(&wal_path).unwrap();
        f.set_len(full - 5).unwrap();
        drop(f);

        let check = check_wal_file(&wal_path).unwrap();
        assert_eq!(check.frames, 2, "the torn third frame does not count");
        assert!(check.torn_tail_bytes > 0);
        assert_eq!(check.findings.len(), 1);
        assert_eq!(check.findings[0].category, FsckCategory::TornTail);
        assert_eq!(check.findings[0].severity, Severity::Warning);

        let report = check_dir(&dir).unwrap();
        assert!(!report.has_errors());
        assert_eq!(report.warnings, 1);
        assert_eq!(report.replayable_frames, 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_mid_log_bitflip_is_a_corrupt_frame() {
        let dir = populated_dir("bitrot", 0, 3);
        let wal_path = dir.join(WAL_FILE);
        let mut bytes = fs::read(&wal_path).unwrap();
        let first_len = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
        let second_payload_at = 8 + 8 + first_len + 8;
        bytes[second_payload_at + 4] ^= 0x20;
        fs::write(&wal_path, &bytes).unwrap();

        let check = check_wal_file(&wal_path).unwrap();
        assert_eq!(check.frames, 1, "only the intact prefix counts");
        assert_eq!(check.findings.len(), 1);
        assert_eq!(check.findings[0].category, FsckCategory::CorruptFrame);
        assert_eq!(check.findings[0].severity, Severity::Error);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn group_committed_batches_are_clean() {
        // Two solo frames, then a run of four frames sharing one generation
        // (a group-committed batch fsync'd in one shot) — fsck must read
        // the run as one replayable generation, not a discontinuity.
        let dir = populated_dir("batch", 0, 2);
        {
            let (wal, _) = crate::Wal::open(&dir.join(WAL_FILE)).unwrap();
            let batch: Vec<Mutation> = (0..4u64)
                .map(|i| Mutation::Append {
                    object: object(2000 + i),
                })
                .collect();
            wal.append_batch(3, &batch).unwrap();
        }
        let report = check_dir(&dir).unwrap();
        assert!(report.is_clean(), "{}", report.summary());
        assert_eq!(report.replayable_frames, 6, "all six frames replay");
        assert_eq!(
            report.final_generation, 3,
            "the four-frame run folds into one generation"
        );

        let check = check_wal_file(&dir.join(WAL_FILE)).unwrap();
        assert_eq!(check.frames, 6);
        assert!(check.findings.is_empty(), "equal generations are no gap");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_generation_discontinuity_is_flagged_like_boot_would() {
        let dir = populated_dir("gap", 0, 1);
        // Append a far-future frame directly: generation 9 after 1.
        {
            let (wal, _) = crate::Wal::open(&dir.join(WAL_FILE)).unwrap();
            wal.append(9, &Mutation::Remove { id: 1000 }).unwrap();
        }
        let report = check_dir(&dir).unwrap();
        assert!(report.has_errors(), "{}", report.summary());
        let discontinuities: Vec<_> = report
            .all_findings()
            .into_iter()
            .filter(|f| {
                matches!(
                    f.category,
                    FsckCategory::GenerationGap | FsckCategory::GenerationDiscontinuity
                )
            })
            .collect();
        assert!(!discontinuities.is_empty());
        // Replay stops at the jump: only the contiguous frame counts.
        assert_eq!(report.replayable_frames, 1);
        assert_eq!(report.final_generation, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_and_temp_files_are_warnings() {
        let dir = populated_dir("foreign", 0, 0);
        fs::write(dir.join("notes.txt"), b"hello").unwrap();
        fs::write(dir.join("snapshot-00.snap.tmp"), b"half").unwrap();
        let report = check_dir(&dir).unwrap();
        assert!(!report.has_errors());
        assert_eq!(report.warnings, 2);
        let categories: Vec<_> = report.findings.iter().map(|f| f.category).collect();
        assert!(categories.contains(&FsckCategory::ForeignFile));
        assert!(categories.contains(&FsckCategory::StaleTempFile));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fsck_never_modifies_the_directory() {
        let dir = populated_dir("readonly", 2, 2);
        // Tear the WAL tail; fsck must report it but leave it in place.
        let wal_path = dir.join(WAL_FILE);
        let full = fs::metadata(&wal_path).unwrap().len();
        let f = fs::OpenOptions::new().write(true).open(&wal_path).unwrap();
        f.set_len(full - 3).unwrap();
        drop(f);
        let before = fs::read(&wal_path).unwrap();
        let report = check_dir(&dir).unwrap();
        assert_eq!(report.warnings, 1);
        assert_eq!(fs::read(&wal_path).unwrap(), before, "fsck is read-only");
        let _ = fs::remove_dir_all(&dir);
    }
}
