//! # cfva-serve — execution and serving substrate
//!
//! The scheduling layer under everything that measures: benches,
//! experiments and request serving all run on **one** substrate.
//!
//! * [`runner`] — measurement sessions: [`runner::BatchRunner`] owns a
//!   planner, one memory system and the plan/stats scratch buffers, so
//!   repeated measurement performs no heap allocation after warm-up.
//! * [`workload`] — stride populations under the paper's family model.
//! * [`pool`] — a hand-rolled session pool (`std::thread` +
//!   `Mutex`/`Condvar`, no external runtime): one bounded FIFO
//!   admission queue served by supervised workers, and
//!   [`pool::Ticket`] completion handles.
//!   [`runner::BatchRunner::sweep`] fans contiguous chunks out over
//!   `std::thread::scope` threads instead.
//! * [`service`] + [`api`] — plan/measure-as-a-service: a typed
//!   [`api::Request`]/[`api::Response`] schema (maps named by registry
//!   spec strings) behind a [`service::Service`] handle whose
//!   `submit()` returns a ticket; long-lived per-worker
//!   [`runner::BatchRunner`] sessions are cached by spec, and a full
//!   admission queue rejects with
//!   [`api::ServeError::Overloaded`] instead of queueing unboundedly.
//!   A sharded, byte-bounded **result cache**, keyed on the canonical
//!   spec plus the stride-equivalence class of the request (see
//!   [`cfva_core::StrideClass`]), resolves repeated requests without
//!   touching the pool — [`service::Service::stats`] reports its
//!   hit/miss/eviction counters. [`api::Request::MultiStream`] co-runs
//!   a set of streams under FIFO or conflict-aware wave partitioning
//!   (pairs scored by [`cfva_core::equiv::conflict_score`]) and
//!   measures the contended makespan against the sequential baseline.
//! * [`fault`] — the seeded, deterministic chaos injector
//!   ([`fault::FaultPlan`]): worker kills, job delays, queue bursts,
//!   cache poisoning and injected panics, threaded through the pool
//!   and service behind a hook that costs nothing when no plan is
//!   installed. The substrate it exercises is **self-healing**:
//!   supervised workers restart (in-flight jobs re-queued), panicked
//!   requests retry with backoff, per-request deadlines resolve
//!   [`api::ServeError::DeadlineExceeded`] instead of blocking, and a
//!   full queue answers [`api::ServeError::Overloaded`] — see
//!   `tests/chaos.rs` for the invariants (every accepted ticket resolves, bit-identical to a
//!   fault-free serial run, under any seeded schedule).
//!
//! ```
//! use cfva_serve::api::{Request, Response};
//! use cfva_serve::service::{Service, ServiceConfig};
//! use cfva_core::plan::Strategy;
//! use cfva_core::VectorSpec;
//!
//! let service = Service::new(ServiceConfig::default());
//! let ticket = service.submit(Request::Measure {
//!     spec: "xor-matched:t=3,s=3".into(),
//!     vec: VectorSpec::new(16, 12, 64)?,
//!     strategy: Strategy::Auto,
//! })?;
//! match ticket.wait()? {
//!     Response::Measured(Some(stats)) => assert_eq!(stats.latency, 8 + 64 + 1),
//!     other => panic!("unexpected response {other:?}"),
//! }
//! service.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod api;
mod cache;
pub mod fault;
pub mod locks;
pub mod pool;
pub mod runner;
mod sched;
pub mod service;
pub mod workload;

pub use cache::CacheStats;
