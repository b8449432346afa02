//! The unified error type of the ASRS engine.
//!
//! Every fallible public operation in `asrs-core` — configuration
//! building, index construction, engine assembly and all `search*` paths —
//! reports failures through [`AsrsError`].  The per-layer error types
//! ([`QueryError`](crate::QueryError), [`ConfigError`]) convert into it via
//! `From`, so `?` composes across layers.

use crate::query::QueryError;
use asrs_data::SchemaError;
use std::fmt;
use std::time::Duration;

/// Errors raised when validating a [`SearchConfig`](crate::SearchConfig).
///
/// These replace the panicking `assert!`s the configuration builders used
/// to have: invalid settings are reported as values, never as panics.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// The discretisation grid is smaller than 2 × 2, so `Split` could
    /// never shrink a space.
    GridTooCoarse {
        /// Requested number of columns.
        ncols: usize,
        /// Requested number of rows.
        nrows: usize,
    },
    /// The approximation parameter δ is negative or not finite.
    InvalidDelta {
        /// The offending value.
        delta: f64,
    },
    /// An explicit GPS accuracy has a non-positive or non-finite component.
    InvalidAccuracy {
        /// Horizontal accuracy ΔX.
        dx: f64,
        /// Vertical accuracy ΔY.
        dy: f64,
    },
    /// The accuracy floor is negative or not finite.
    InvalidAccuracyFloor {
        /// The offending value.
        floor: f64,
    },
    /// A termination safety valve (`max_depth` / `max_spaces`) is zero, so
    /// the search could not process a single space.
    InvalidLimit {
        /// Name of the offending field.
        field: &'static str,
    },
    /// A grid-index granularity has a zero side.
    InvalidIndexGranularity {
        /// Requested number of columns.
        cols: usize,
        /// Requested number of rows.
        rows: usize,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::GridTooCoarse { ncols, nrows } => {
                write!(
                    f,
                    "discretisation grid must be at least 2 x 2, got {ncols} x {nrows}"
                )
            }
            ConfigError::InvalidDelta { delta } => {
                write!(
                    f,
                    "approximation parameter delta must be finite and non-negative, got {delta}"
                )
            }
            ConfigError::InvalidAccuracy { dx, dy } => {
                write!(
                    f,
                    "accuracy components must be finite and positive, got ({dx}, {dy})"
                )
            }
            ConfigError::InvalidAccuracyFloor { floor } => {
                write!(
                    f,
                    "accuracy floor must be finite and non-negative, got {floor}"
                )
            }
            ConfigError::InvalidLimit { field } => {
                write!(f, "termination limit `{field}` must be positive")
            }
            ConfigError::InvalidIndexGranularity { cols, rows } => {
                write!(
                    f,
                    "index grid must have at least one cell per axis, got {cols} x {rows}"
                )
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// The unified error type of every fallible `asrs-core` API.
#[derive(Debug, Clone, PartialEq)]
pub enum AsrsError {
    /// The query does not fit the engine's aggregator or is malformed.
    Query(QueryError),
    /// The search configuration is invalid.
    Config(ConfigError),
    /// The operation needs at least one object, but the dataset is empty
    /// (e.g. building a grid index).
    EmptyDataset,
    /// A backend that requires a grid index was requested, but the engine
    /// has none attached.
    IndexRequired {
        /// Name of the backend that needed the index.
        backend: &'static str,
    },
    /// An attached grid index was built for a different aggregator: its
    /// statistics vectors have the wrong dimensionality.
    IndexMismatch {
        /// Statistics dimensions stored per index cell.
        index_dims: usize,
        /// Statistics dimensions the engine's aggregator produces.
        aggregator_dims: usize,
    },
    /// `search_top_k` was asked for zero results.
    InvalidTopK,
    /// A MaxRS region size is non-positive or non-finite.
    InvalidRegionSize {
        /// Requested width.
        width: f64,
        /// Requested height.
        height: f64,
    },
    /// A request's wall-clock execution budget was spent before the search
    /// finished (see [`Budget`](crate::Budget)).
    DeadlineExceeded {
        /// The allowance the request started with.
        budget: Duration,
    },
    /// A backend was forced for an operation it cannot execute (e.g. GI-DS
    /// for MaxRS, which always runs on the DS-Search adaptation).
    BackendUnsupported {
        /// Name of the forced backend.
        backend: &'static str,
        /// Name of the operation it cannot run.
        operation: &'static str,
    },
    /// An appended object does not conform to the dataset schema.
    Schema(SchemaError),
    /// An object's location is not finite (NaN or ±∞).  Its ASP rectangle
    /// would be invalid and every later search would fail on it, so
    /// appends and the builder's seed dataset refuse it before anything
    /// reaches the write-ahead log, and boot refuses a persisted snapshot
    /// or WAL record holding one.
    NonFiniteLocation {
        /// Id of the offending object.
        id: u64,
        /// Its x coordinate.
        x: f64,
        /// Its y coordinate.
        y: f64,
    },
    /// An appended object carries an id that already exists in the dataset.
    /// Mutable engines enforce id uniqueness so removal-by-id stays
    /// unambiguous.
    DuplicateObjectId {
        /// The colliding id.
        id: u64,
    },
    /// A removal referenced an id no object carries.
    UnknownObjectId {
        /// The missing id.
        id: u64,
    },
    /// The planner's cost estimate for the chosen backend exceeds the
    /// engine's admission ceiling (see
    /// [`Planner::cost_ceiling`](crate::Planner::cost_ceiling)); the
    /// request was rejected *before* execution.  Servers map this to
    /// HTTP 429.
    CostCeilingExceeded {
        /// Estimated work of the chosen backend, in the planner's abstract
        /// rectangle-visit units.
        estimated: f64,
        /// The configured admission ceiling, in the same units.
        ceiling: f64,
    },
    /// A durability operation failed: a snapshot or write-ahead-log file
    /// could not be read, written or validated, or a persisted image does
    /// not match the engine configuration it is being restored into.
    /// Mutations refuse to publish when their WAL append fails, so a
    /// persistent engine never acknowledges a write it could lose.
    Persistence {
        /// Human-readable description of the failure.
        message: String,
    },
    /// An engine-internal failure that is a bug rather than bad input —
    /// most notably a panicking batch worker, which is caught and reported
    /// per query instead of aborting the process (a serving engine must
    /// outlive any single bad query).
    Internal {
        /// Human-readable description of the failure.
        message: String,
    },
}

impl fmt::Display for AsrsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AsrsError::Query(e) => write!(f, "invalid query: {e}"),
            AsrsError::Config(e) => write!(f, "invalid configuration: {e}"),
            AsrsError::EmptyDataset => write!(f, "operation requires a non-empty dataset"),
            AsrsError::IndexRequired { backend } => {
                write!(f, "backend {backend} requires a grid index, but none is attached")
            }
            AsrsError::IndexMismatch {
                index_dims,
                aggregator_dims,
            } => write!(
                f,
                "grid index stores {index_dims}-dimensional statistics, aggregator produces {aggregator_dims}"
            ),
            AsrsError::InvalidTopK => write!(f, "search_top_k requires k >= 1"),
            AsrsError::InvalidRegionSize { width, height } => {
                write!(f, "region size must be positive and finite, got {width} x {height}")
            }
            AsrsError::DeadlineExceeded { budget } => {
                write!(f, "query exceeded its execution budget of {budget:?}")
            }
            AsrsError::BackendUnsupported { backend, operation } => {
                write!(f, "backend {backend} cannot execute {operation} requests")
            }
            AsrsError::Schema(e) => write!(f, "object violates the dataset schema: {e}"),
            AsrsError::NonFiniteLocation { id, x, y } => {
                write!(f, "object {id} has a non-finite location ({x}, {y})")
            }
            AsrsError::DuplicateObjectId { id } => {
                write!(f, "an object with id {id} already exists in the dataset")
            }
            AsrsError::UnknownObjectId { id } => {
                write!(f, "no object with id {id} exists in the dataset")
            }
            AsrsError::CostCeilingExceeded { estimated, ceiling } => {
                write!(
                    f,
                    "estimated cost {estimated:.3e} exceeds the admission ceiling {ceiling:.3e}; \
                     request rejected before execution"
                )
            }
            AsrsError::Persistence { message } => {
                write!(f, "persistence failure: {message}")
            }
            AsrsError::Internal { message } => {
                write!(f, "internal engine error: {message}")
            }
        }
    }
}

impl std::error::Error for AsrsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AsrsError::Query(e) => Some(e),
            AsrsError::Config(e) => Some(e),
            AsrsError::Schema(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SchemaError> for AsrsError {
    fn from(e: SchemaError) -> Self {
        AsrsError::Schema(e)
    }
}

impl From<QueryError> for AsrsError {
    fn from(e: QueryError) -> Self {
        AsrsError::Query(e)
    }
}

impl From<ConfigError> for AsrsError {
    fn from(e: ConfigError) -> Self {
        AsrsError::Config(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = AsrsError::from(ConfigError::GridTooCoarse { ncols: 1, nrows: 9 });
        assert!(format!("{e}").contains("at least 2 x 2"));
        let e = AsrsError::from(QueryError::DegenerateRegion);
        assert!(format!("{e}").contains("invalid query"));
        assert!(format!("{}", AsrsError::EmptyDataset).contains("non-empty"));
        assert!(format!(
            "{}",
            AsrsError::IndexMismatch {
                index_dims: 3,
                aggregator_dims: 5
            }
        )
        .contains("3"));
        assert!(format!("{}", AsrsError::InvalidTopK).contains("k >= 1"));
        assert!(format!(
            "{}",
            AsrsError::DeadlineExceeded {
                budget: Duration::from_millis(5)
            }
        )
        .contains("budget"));
        assert!(format!(
            "{}",
            AsrsError::BackendUnsupported {
                backend: "gi-ds",
                operation: "max-rs"
            }
        )
        .contains("gi-ds"));
    }

    #[test]
    fn sources_chain_to_layer_errors() {
        use std::error::Error as _;
        let e = AsrsError::from(ConfigError::InvalidDelta { delta: -1.0 });
        assert!(e.source().is_some());
        assert!(AsrsError::EmptyDataset.source().is_none());
    }
}
