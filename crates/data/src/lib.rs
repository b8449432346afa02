//! Data substrate for the ASRS reproduction.
//!
//! The paper operates on *spatial objects*: points in the plane carrying a
//! set of attribute values (Section 3.1).  This crate provides:
//!
//! * [`AttributeKind`] / [`AttributeDef`] / [`Schema`] — attribute metadata:
//!   categorical attributes with a finite domain (e.g. POI category, day of
//!   the week) and numeric attributes with a declared value range (e.g.
//!   price, rating, number of visits).
//! * [`AttrValue`] — a single attribute value.
//! * [`SpatialObject`] — a location plus one value per schema attribute.
//! * [`Dataset`] — a collection of objects sharing a schema, with
//!   bounding-box, sampling and region-extraction helpers plus
//!   order-preserving [`Dataset::append`] / [`Dataset::remove_by_id`]
//!   mutators (the substrate of the generational engine in `asrs-core`).
//! * [`Mutation`] — a serializable dataset delta, what a generational
//!   engine applies and its write-ahead log records.
//! * [`SpatialPartition`] — longest-axis recursive spatial partitioning of
//!   the plane into `n` shard regions around a dataset (the shard layout of
//!   the sharded engine).
//! * [`io`] — a small CSV-like text format for saving and loading datasets.
//! * [`columnar`] — a bit-exact binary column-oriented encoding of datasets
//!   and mutations (the byte substrate of the `asrs-persist` snapshot and
//!   write-ahead-log formats).
//! * [`gen`] — synthetic workload generators reproducing the statistical
//!   shape of the paper's datasets (Tweet, POISyn, and the Singapore POI
//!   case-study city), plus uniform and clustered baseline generators.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod columnar;
mod dataset;
pub mod gen;
pub mod io;
mod mutation;
mod object;
mod partition;
mod schema;
mod value;

pub use dataset::{Dataset, DatasetBuilder};
pub use mutation::Mutation;
pub use object::SpatialObject;
pub use partition::SpatialPartition;
pub use schema::{AttributeDef, AttributeKind, Schema, SchemaError};
pub use value::AttrValue;
