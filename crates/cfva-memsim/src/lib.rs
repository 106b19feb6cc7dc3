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
//! Three interchangeable [`Engine`]s execute a request stream with
//! bit-identical results: the per-cycle loop (the oracle, default),
//! the periodic steady-state fast-forward engine of
//! [`Engine::Periodic`] (a single-port stream is solved in one pass in
//! request order instead of simulated, and once the solver's state
//! recurs at a period boundary the rest of a long stream is copied from
//! the logged window, shifted in time), and the verified conflict-free
//! fast path of [`Engine::FastPath`] (which falls back to `Periodic`).
//! The recurrence detector needs the stream's minimal period. An
//! in-order plan carries the paper's `P_x`
//! ([`AccessPlan::period`](cfva_core::plan::AccessPlan::period)), which
//! limits the period scan to the first `2·P_x` requests, or skips it
//! when fewer than three periods fit; other streams are scanned. Static
//! single-port co-runs of [`multi`] go through the same pass.
//! Multi-port runs of every engine step the oracle, and so do the
//! work-conserving co-runs of [`multi`]: the oracle's one cycle loop
//! issues by a work-conserving rotation over in-order streams, of which
//! a plain run is the one-stream case. [`MemorySystem::run_timed`]
//! returns the oracle's per-request [`Timing`]s. A fourth,
//! [`Engine::Analytic`], trades the per-element
//! vectors for closed-form **aggregate** estimates derived from a
//! handful of short probe prefixes, solved in one pass, reporting via
//! [`AnalyticEstimate::exact`] whether the estimate provably equals a
//! full simulation. See the `Engine` docs and the equivalence suites
//! under `tests/`.
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

mod analytic;
mod config;
mod event;
mod module;
pub mod multi;
mod periodic;
mod solver;
mod stats;
mod system;

pub use analytic::AnalyticEstimate;
pub use config::MemConfig;
pub use event::Engine;
pub use multi::{run_multi, IssuePolicy, MultiStats, StreamStats};
pub use stats::AccessStats;
pub use system::{MemorySystem, Timing};
