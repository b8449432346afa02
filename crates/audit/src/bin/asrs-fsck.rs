//! `asrs-fsck` — offline structural verification of ASRS persistence
//! directories.
//!
//! ```text
//! asrs-fsck [--quiet] DIR [DIR...]
//! ```
//!
//! For each directory the tool verifies every snapshot file (framing,
//! magic, version, CRC-32, full payload decode, name against payload
//! generation), the write-ahead log (frame by frame, distinguishing torn
//! tails from corrupt frames), and the cross-file generation contiguity a
//! boot depends on, with the readers boot itself runs.  Nothing is booted
//! and nothing is modified — it is safe to point at a live serving
//! directory or a backup.
//!
//! Output: one JSON [`FsckReport`] per directory
//! on stdout (a JSON array when more than one directory is given), plus a
//! human-readable summary on stderr unless `--quiet`.
//!
//! Exit codes:
//!
//! * `0` — every directory is fully clean.
//! * `1` — at least one corruption **error** (damage boot would skip over
//!   or refuse).
//! * `2` — warnings only (torn WAL tail, stale temporary file: artifacts
//!   boot recovers from silently).
//! * `3` — usage error or an I/O failure reading a directory.

use asrs_audit::{check_dir, FsckReport};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!("usage: asrs-fsck [--quiet] DIR [DIR...]");
    ExitCode::from(3)
}

fn main() -> ExitCode {
    let mut quiet = false;
    let mut dirs: Vec<PathBuf> = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--quiet" | "-q" => quiet = true,
            "--help" | "-h" => {
                return usage();
            }
            _ if arg.starts_with('-') => {
                eprintln!("asrs-fsck: unknown flag {arg}");
                return usage();
            }
            _ => dirs.push(PathBuf::from(arg)),
        }
    }
    if dirs.is_empty() {
        return usage();
    }

    let mut reports: Vec<FsckReport> = Vec::new();
    for dir in &dirs {
        match check_dir(dir) {
            Ok(report) => {
                if !quiet {
                    eprint!("{}", report.summary());
                }
                reports.push(report);
            }
            Err(e) => {
                eprintln!("asrs-fsck: {}: {e}", dir.display());
                return ExitCode::from(3);
            }
        }
    }

    let json = if reports.len() == 1 {
        serde::json::to_string(&reports[0])
    } else {
        serde::json::to_string(&reports)
    };
    println!("{json}");

    if reports.iter().any(FsckReport::has_errors) {
        ExitCode::from(1)
    } else if reports.iter().any(|r| !r.is_clean()) {
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    }
}
