//! # strudel-bench
//!
//! The benchmark and experiment harness of the **strudel** reproduction of
//! Arenas et al., VLDB 2014.
//!
//! * [`experiments`] — one module per table/figure of the paper's evaluation
//!   (Section 7), each producing a report comparing measured values with the
//!   published ones. The `experiments` binary
//!   (`cargo run -p strudel-bench --bin experiments -- all`) runs them and
//!   prints the reports; `--markdown` emits the rows used by
//!   `EXPERIMENTS.md`.
//! * [`budget`] — effort budgets (quick vs full).
//! * [`fitting`] — the least-squares fits used by the scalability figure.
//!
//! The one bench, `benches/bench_server.rs`, measures the refinement
//! service (`cargo bench -p strudel-bench --bench bench_server`); the
//! per-layer cost of the paper's pipeline is timed by the separate
//! `perfbench` package at the repository root.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod budget;
pub mod experiments;
pub mod fitting;

pub use budget::ExperimentBudget;
