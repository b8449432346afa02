//! The unified error type of the persistence subsystem.

use asrs_core::AsrsError;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

/// Errors raised by snapshot and write-ahead-log operations.
#[derive(Debug)]
pub enum PersistError {
    /// An underlying filesystem operation failed.
    Io {
        /// What was being attempted (e.g. `"append to WAL"`).
        context: String,
        /// The file involved.
        path: PathBuf,
        /// The operating-system error.
        source: io::Error,
    },
    /// A persisted file is structurally invalid: bad magic, unsupported
    /// version, checksum mismatch, or a payload that does not decode or
    /// that the engine-side constructors reject.
    /// Torn WAL *tails* are tolerated silently (they are the expected
    /// crash artifact); this variant covers damage recovery cannot explain.
    Corrupt {
        /// The file involved.
        path: PathBuf,
        /// Human-readable description of the damage.
        message: String,
    },
    /// A complete write-ahead-log frame with bytes after it fails its
    /// checksum or does not decode.  Unlike a torn tail this is not a
    /// crash artifact, and the frames after it may hold acknowledged
    /// mutations, so the log is refused and left as it is instead of
    /// being truncated.
    CorruptWalFrame {
        /// The log file.
        path: PathBuf,
        /// Byte offset of the damaged frame.
        offset: u64,
        /// Human-readable description of the damage.
        message: String,
    },
    /// The engine rejected a restore or replay (configuration mismatch,
    /// replayed mutation failing validation, …).
    Engine(AsrsError),
}

impl PersistError {
    pub(crate) fn io(context: impl Into<String>, path: &Path, source: io::Error) -> Self {
        PersistError::Io {
            context: context.into(),
            path: path.to_path_buf(),
            source,
        }
    }

    pub(crate) fn corrupt(path: &Path, message: impl Into<String>) -> Self {
        PersistError::Corrupt {
            path: path.to_path_buf(),
            message: message.into(),
        }
    }

    /// Converts into the engine-side error surface (for the
    /// [`DurabilitySink`](asrs_core::DurabilitySink) boundary and HTTP
    /// mapping).
    pub fn into_asrs(self) -> AsrsError {
        match self {
            PersistError::Engine(e) => e,
            other => AsrsError::Persistence {
                message: other.to_string(),
            },
        }
    }
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io {
                context,
                path,
                source,
            } => write!(f, "{} ({}): {}", context, path.display(), source),
            PersistError::Corrupt { path, message } => {
                write!(
                    f,
                    "corrupt persistence file {}: {}",
                    path.display(),
                    message
                )
            }
            PersistError::CorruptWalFrame {
                path,
                offset,
                message,
            } => write!(
                f,
                "write-ahead log {} is damaged at byte offset {offset} ({message}); refusing to drop the frames after it",
                path.display()
            ),
            PersistError::Engine(e) => write!(f, "engine rejected persisted state: {e}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io { source, .. } => Some(source),
            PersistError::Engine(e) => Some(e),
            PersistError::Corrupt { .. } | PersistError::CorruptWalFrame { .. } => None,
        }
    }
}

impl From<AsrsError> for PersistError {
    fn from(e: AsrsError) -> Self {
        PersistError::Engine(e)
    }
}
