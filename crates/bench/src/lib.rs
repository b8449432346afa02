//! Benchmark harness reproducing the evaluation of the ASRS paper
//! (Section 7): workload builders for the Tweet / POISyn analogues, the
//! paper's composite aggregators F1 and F2, query constructions, and
//! plain-text reporting helpers used by the `experiments` and
//! `casestudy` binaries.
//!
//! The harness runs the same parameter sweeps as the paper at
//! laptop-friendly cardinalities; `--scale` on `experiments` pushes them
//! towards the paper's sizes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod report;
pub mod workloads;

pub use report::{format_duration, Table};
pub use workloads::{
    f1_aggregator, f1_query, f2_aggregator, f2_query, poisyn_dataset, tweet_dataset,
    unit_query_size, Workload,
};
