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
//! [`Engine`] selects how a request stream runs, and its docs tabulate
//! the costs. Every engine's statistics are bit-identical to the
//! per-cycle oracle's ([`Engine::Cycle`], the default), except that
//! [`Engine::Analytic`] leaves the per-element vectors of a recurring
//! stream empty. Single-port runs of the others go through the
//! request-order solver, one pass in issue order, which stops once its
//! state recurs at a boundary of the stream's period (every planned
//! access carries the paper's `P_x`,
//! [`AccessPlan::period`](cfva_core::plan::AccessPlan::period)) and
//! copies the rest, or for `Analytic` only sums it in closed form.
//! Multi-port runs and the work-conserving co-runs of [`multi`] step
//! the oracle; [`MemorySystem::run_timed`] returns its per-request
//! [`Timing`]s.
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
mod event;
mod module;
pub mod multi;
mod periodic;
mod solver;
mod stats;
mod system;

pub use config::MemConfig;
pub use event::Engine;
pub use multi::{run_multi, IssuePolicy, MultiStats, StreamStats};
pub use stats::{AccessStats, Arrivals};
pub use system::{MemorySystem, Timing};
