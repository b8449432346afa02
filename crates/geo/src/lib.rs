//! Geometry substrate for the ASRS (attribute-aware similar region search)
//! reproduction.
//!
//! This crate provides the small set of planar, axis-aligned geometric
//! primitives that every algorithm in the workspace manipulates:
//!
//! * [`Point`] — a location in the plane.
//! * [`Rect`] — an axis-aligned rectangle with the containment semantics used
//!   by the paper (strict containment for "object inside region" /
//!   "rectangle covers point", see Lemma 1 of the paper).
//! * [`RegionSize`] — the `a × b` extent of a query region.
//! * [`GridSpec`] — a uniform grid laid over a rectangle, mapping between
//!   continuous coordinates and discrete cells.  Both the `Discretize`
//!   procedure of DS-Search (Section 4.3) and the grid index of GI-DS
//!   (Section 5.2) are built on top of it.
//! * [`Accuracy`] — the GPS horizontal/vertical accuracy constants ΔX / ΔY
//!   from Definition 7, used by the drop condition (Definition 8).
//!
//! The crate is dependency-light and purely computational so that it can be
//! unit- and property-tested exhaustively.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod accuracy;
mod grid;
mod point;
mod rect;
mod size;

pub use accuracy::{min_positive_gap, min_positive_gap_sorted, Accuracy};
pub use grid::{CellIdx, CellRange, GridEdges, GridSpec};
pub use point::Point;
pub use rect::Rect;
pub use size::RegionSize;

/// Numerical tolerance used when comparing floating point coordinates for
/// approximate equality in tests and assertions.
pub const EPSILON: f64 = 1e-9;

/// Returns `true` when two floating point values are equal within
/// [`EPSILON`] (absolute tolerance).
#[inline]
pub fn approx_eq(a: f64, b: f64) -> bool {
    (a - b).abs() <= EPSILON
}
