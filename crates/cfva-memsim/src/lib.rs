//! # cfva-memsim — cycle-accurate multi-module memory simulator
//!
//! The measurement substrate for the conflict-free vector access
//! reproduction: a discrete, cycle-accurate model of the memory system
//! of the paper's Figure 2 —
//!
//! * `M = 2^m` independent memory modules, each busy `T = 2^t` processor
//!   cycles per access;
//! * `q` input buffers and `q'` output buffers per module;
//! * a single return bus with a one-cycle delay;
//! * a processor that issues one request per cycle, stalling only when
//!   the target module's input buffer is full.
//!
//! The simulator executes an [`AccessPlan`](cfva_core::plan::AccessPlan)
//! and reports [`AccessStats`]: total latency, stalls, queueing
//! conflicts and per-module occupancy. For a conflict-free plan the
//! measured latency is exactly `T + L + 1` cycles (Section 2 of the
//! paper); the integration tests assert this across the whole Theorem 1
//! and Theorem 3 windows.
//!
//! One route runs every access. A single-port run first checks, in one
//! pass, whether the stream is conflict free in the paper's sense (every
//! window of `T` consecutive requests touches `T` distinct modules); if
//! it is, the statistics are fully determined (request `k` arrives at
//! `k + T + 1`). Otherwise the request-order solver times it in one
//! pass in issue order, stopping once its state recurs at a boundary of
//! the stream's period (every planned access carries the paper's `P_x`,
//! [`AccessPlan::period`](cfva_core::plan::AccessPlan::period)) and
//! copying the rest. Multi-port runs and the work-conserving co-runs of
//! [`multi`] step the per-cycle oracle.
//!
//! The oracle is the reference semantics every result is verified
//! against, reached by name: [`MemorySystem::run_oracle`],
//! [`MemorySystem::run_timed`] (which also returns each request's
//! [`Timing`]) and [`multi::run_multi_oracle`]. The route's statistics
//! are bit-identical to the oracle's.
//!
//! ## Example
//!
//! ```
//! use cfva_core::mapping::XorMatched;
//! use cfva_core::plan::{Planner, Strategy};
//! use cfva_core::VectorSpec;
//! use cfva_memsim::{MemConfig, MemorySystem};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let planner = Planner::matched(XorMatched::new(3, 3)?);
//! let vec = VectorSpec::new(16, 12, 64)?;
//! let plan = planner.plan(&vec, Strategy::ConflictFree)?;
//!
//! let mut sim = MemorySystem::new(MemConfig::new(3, 3)?);
//! let stats = sim.run_plan(&plan);
//! assert_eq!(stats.latency, 8 + 64 + 1); // T + L + 1
//! assert_eq!(stats.conflicts, 0);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod config;
mod module;
pub mod multi;
mod periodic;
mod solver;
mod stats;
mod system;

pub use config::MemConfig;
pub use multi::{run_multi, run_multi_oracle, IssuePolicy, MultiStats, StreamStats};
pub use stats::{AccessStats, Arrivals};
pub use system::{MemorySystem, Timing};
