//! Baseline algorithms for the ASRS reproduction.
//!
//! The paper evaluates DS-Search against two baselines:
//!
//! * **Base** — a sweep-line algorithm adapted from the MaxRS / BRS
//!   literature \[11, 21\] that enumerates every disjoint region of the
//!   reduced ASP instance (Section 4.1).  Its complexity is `O(n²)` in the
//!   number of objects.  Implemented in [`SweepBase`].
//! * **OE (Optimal Enclosure)** — the `O(n log n)` sweep-line algorithm for
//!   the MaxRS problem, built on a segment tree with range-add /
//!   range-maximum operations.  Implemented in [`OptimalEnclosure`], with
//!   the segment tree exposed as [`segment_tree::MaxAddSegmentTree`].
//!
//! In addition, [`naive`] provides an exhaustive arrangement-midpoint
//! oracle used as ground truth by the test-suite: it evaluates one probe
//! point per cell of the full rectangle arrangement, which is exact but
//! cubic in the number of objects.
//!
//! The baselines are standalone solvers, not engine backends: call
//! [`SweepBase::search`] (which validates the query itself) and compare
//! its answer with what [`AsrsEngine::submit`](asrs_core::AsrsEngine::submit)
//! returns.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod maxrs_oe;
pub mod naive;
pub mod segment_tree;
mod sweep;

pub use maxrs_oe::{MaxRsOutcome, OptimalEnclosure};
pub use sweep::SweepBase;
