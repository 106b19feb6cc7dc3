//! # cfva-bench — experiment harness
//!
//! Regenerates every figure and quantitative claim of the paper's
//! evaluation. The [`experiments`] module holds one runner per artifact
//! (see DESIGN.md §4 for the index); the `experiments` binary prints
//! them:
//!
//! ```text
//! cargo run -p cfva-bench --release --bin experiments -- all
//! cargo run -p cfva-bench --release --bin experiments -- eff
//! ```
//!
//! The [`workload`] module samples strides from the paper's population
//! model (family `x` with probability `2^-(x+1)`), and [`runner`] wraps
//! planner + simulator into one-call measurements. Both live in (and
//! are re-exported from) the `cfva-serve` crate since PR 5, so the
//! experiment harness, the criterion benches and the request-serving
//! front end all measure through **one** execution substrate — the
//! `BatchRunner` sessions in `cfva_serve::runner`.

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub use cfva_serve::runner;
pub use cfva_serve::workload;

pub mod experiments;
pub mod table;
