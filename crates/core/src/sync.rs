//! Lock shims for the generational engine: `std::sync` in normal builds,
//! an instrumented deterministic scheduler under `--features model`.
//!
//! Every lock in the engine's concurrency protocol — the epoch-swap
//! [`RwLock`] in the engine's shared state, the serialized mutator
//! [`Mutex`], the sharded query-cache locks, the batch/scatter result
//! slots — is constructed through this module instead of naming
//! `std::sync` directly.  The payoff:
//!
//! * **Normal builds** (`model` feature off): the types below *are*
//!   `std::sync::Mutex` / `std::sync::RwLock` — plain `pub use`
//!   re-exports, zero code, zero cost.  The `cfg(feature = "model")`
//!   gates guarantee it; the `layerbench` `hot_read` workload measures
//!   the release hit path that would show a shim left in.
//! * **Model builds** (`--features model`): the same names resolve to
//!   API-compatible wrappers in the `model` submodule (compiled only
//!   with the feature) that route every acquire and
//!   release through a cooperative scheduler, so a bounded-exhaustive
//!   explorer can run a multi-threaded protocol through *every*
//!   interleaving of its lock operations, detect deadlocks, verify the
//!   acquisition order against the committed lock-order manifest
//!   (`crates/interlock/LOCK_ORDER.md`), and replay any failing schedule
//!   deterministically.  Code that runs outside an exploration — the
//!   rest of the test suite compiled with the feature on — passes
//!   straight through to the underlying `std` primitives.
//!
//! The static half of the story lives in `crates/interlock`: a
//! source-level pass that extracts the same lock graph by scanning the
//! code.  The model checker is the dynamic half — `cargo test -p
//! asrs-core --features model --test model` drives the
//! mutator-publish / reader-snapshot / cache-insert / audit-pause
//! protocol through every schedule at the configured bound.

#[cfg(not(feature = "model"))]
pub use std::sync::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

#[cfg(feature = "model")]
pub mod model;

#[cfg(feature = "model")]
pub use model::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};
