#![allow(clippy::identity_op)] // `1 * MS` reads better than `MS` in timing code

//! # simstats — measurement and reporting
//!
//! Turns `netsim` run outputs into the paper's metrics: average and
//! tail (99.9th percentile) flow completion times, intra-/cross-DC
//! breakdowns, the Figs. 13–14 size buckets, Jain's fairness index, and
//! text-table and JSON rendering for the figure harness (see [`json`] for
//! the in-repo JSON writer).

pub mod fct;
pub mod json;
pub mod table;

pub use fct::{jain_index, mean, percentile, size_bucket, FctBreakdown, FctSummary, SIZE_BUCKETS};
pub use json::Value as JsonValue;
pub use table::TextTable;
