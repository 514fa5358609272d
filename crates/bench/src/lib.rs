#![allow(clippy::identity_op)] // `1 * MS` reads better than `MS` in timing code

//! # mlcc-bench — the reproduction harness
//!
//! One binary per figure of the paper's evaluation (`fig02` … `fig16`),
//! plus the extension studies (`ablation`, `hybrid`, `incast`,
//! `robustness`, `collective_bench`, `fault_sweep`) and the `fuzz_sim`
//! scenario fuzzer, all built on reusable scenario modules. Every figure
//! binary prints a CSV series or table and a summary of the paper-shape
//! checks (who wins, by roughly what factor); `results/` holds their
//! output. Engine timing lives in the repository benchmark
//! (`benchmark/`), not here.
//!
//! Run e.g. `cargo run --release -p mlcc-bench --bin fig11` and see
//! `EXPERIMENTS.md` at the repository root for paper-vs-measured notes.

pub mod algo;
pub mod scenarios;

pub use algo::Algo;
