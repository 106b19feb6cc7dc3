//! The serving front end: a [`Service`] handle dispatching typed
//! [`Request`]s onto the session pool's single FIFO admission queue.
//!
//! # Sessions
//!
//! Each pool worker owns a cache of long-lived [`BatchRunner`]
//! sessions **keyed by canonical spec string** (at most
//! [`Service::SPEC_TABLE_CAPACITY`] of them; one is evicted when a new
//! spec arrives at a full map). `submit()` queues the
//! request at the back of the one shared queue and whichever worker is
//! free serves it from its own cache, building the session on first
//! touch; later requests against the same map hit a warm session
//! (planner, memory system, plan/stats scratch — no rebuild, no
//! allocation).
//!
//! # Backpressure and shutdown
//!
//! The admission queue is bounded ([`ServiceConfig::queue_capacity`]).
//! A full queue rejects with [`ServeError::Overloaded`] — callers get
//! a typed signal to back off instead of unbounded queueing. Every
//! request shape is refused alike; the service never answers
//! [`Response::Degraded`].
//! [`Service::shutdown`] stops admission ([`ServeError::ShuttingDown`])
//! and **drains**: every accepted request completes and resolves its
//! ticket before the workers exit.
//!
//! # Determinism
//!
//! Responses are pure functions of the request (plus `seed` where the
//! request samples): a pooled measurement is bit-identical to the same
//! call on a fresh serial [`BatchRunner`], whichever worker serves it
//! and however often the session was reused before —
//! `tests/service_equivalence.rs` pins this with a proptest.
//!
//! # Result cache
//!
//! Determinism makes responses memoizable, and stride equivalence
//! ([`cfva_core::StrideClass`]) makes the memo key *smaller than the
//! request*: `submit` consults a sharded, byte-bounded cache keyed on
//! the canonical spec string plus the class-reduced request **before**
//! touching the pool. A hit resolves the ticket immediately — the O(1)
//! serve path: no queueing, no session, no simulation. Cached responses
//! are shared, not copied: every hit on one entry returns the same
//! arrival buffer, and an entry is evicted by second chance (a hit sets
//! a reference bit that spares the entry once).
//!
//! The spec side of the key comes from the **spec table**: each
//! distinct raw spec string is parsed, canonicalized and built once
//! into a shared `SpecEntry` (canonical text, canonical [`MapSpec`],
//! the map's used address bits), so a repeated spelling costs one hash
//! probe and an `Arc` clone: no parse, no string allocation. Parse
//! errors are never stored.
//! The table holds at most [`Service::SPEC_TABLE_CAPACITY`] raw
//! strings; past that, each request with an unseen spelling resolves
//! a fresh entry of its own — slower, never different. Misses populate
//! the cache when the worker completes (successful responses only),
//! from a key's second miss on: a shard's admission window remembers
//! the keys it missed recently, so a key seen once costs no entry.
//! Bypass per request with [`Service::submit_uncached`], or disable
//! service-wide with [`ServiceConfig::cache_bytes`]` = 0`;
//! [`Service::stats`] reports hit/miss/eviction/bypass/oversize
//! counters and the bytes held against the bound. The
//! cache-on ≡ cache-off bit-identity is pinned by proptest in
//! `tests/service_cache.rs`.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cfva_core::equiv::plan_signature;
use cfva_core::mapping::{MapSpec, Registry};
use cfva_core::plan::{AccessPlan, Strategy};
use cfva_core::Stride;
use cfva_core::StrideClass;
use cfva_core::VectorSpec;
use cfva_memsim::multi::run_multi;
use cfva_memsim::IssuePolicy;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::api::{
    Estimator, FamilyPoint, MultiStreamOutcome, Request, Response, SchedulePlan, ServeError,
    ServeResult, StreamSummary,
};
use crate::cache::{CacheKey, CacheStats, Lookup, RequestKey, ResultCache};
use crate::fault::{FaultPlan, SubmitFault};
use crate::locks::{ClassedMutex, LockClass};
use crate::pool::{panic_message, Pool, PoolOptions, SubmitError, Ticket, Wake};
use crate::runner::{cycles_per_element, BatchRunner};
use crate::sched::{plan_waves, score_milli};
use crate::workload::StrideSampler;

/// A completion handle for one submitted request, deadline-aware: a
/// ticket submitted with a budget ([`Service::submit_with_budget`] or
/// [`Service::submit_with_wake`]) resolves with
/// [`ServeError::DeadlineExceeded`] instead of blocking past its
/// deadline — [`wait`](ServeTicket::wait) never outlives the budget.
#[must_use = "a ServeTicket is the only handle to the response; drop it and the response is lost"]
#[derive(Debug)]
pub struct ServeTicket {
    inner: Ticket<ServeResult>,
    /// The absolute deadline, when submitted with a budget.
    deadline: Option<Instant>,
    /// The budget itself (for the typed error).
    budget: Option<Duration>,
    /// The service's deadline-exceeded counter, bumped on caller-side
    /// expiry; `None` for tickets born resolved.
    counters: Option<Arc<ServeCounters>>,
    /// Set once the deadline error has been delivered through `poll`.
    expired: bool,
}

impl ServeTicket {
    /// A ticket born resolved: a cache hit.
    fn now(result: ServeResult) -> Self {
        ServeTicket {
            inner: Ticket::ready(result),
            deadline: None,
            budget: None,
            counters: None,
            expired: false,
        }
    }

    fn pending(
        inner: Ticket<ServeResult>,
        budget: Option<Duration>,
        deadline: Option<Instant>,
        counters: Arc<ServeCounters>,
    ) -> Self {
        ServeTicket {
            inner,
            deadline,
            budget,
            counters: Some(counters),
            expired: false,
        }
    }

    /// Whether the response (or its typed error) is ready to take:
    /// `true` exactly when [`poll`](ServeTicket::poll) would return
    /// `Some` — including a pending ticket past its deadline.
    pub fn is_ready(&self) -> bool {
        self.inner.is_ready()
            || self
                .deadline
                .is_some_and(|deadline| !self.expired && Instant::now() >= deadline)
    }

    /// The absolute deadline, for a ticket submitted with a budget.
    /// Past it, [`poll`](ServeTicket::poll) resolves a still-pending
    /// ticket to [`ServeError::DeadlineExceeded`].
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Non-blocking take — `Some` once resolved, and at most once.
    /// Past the deadline a still-pending ticket resolves to
    /// [`ServeError::DeadlineExceeded`] (also delivered at most once).
    /// A request the pool dropped unrun (every worker died for good)
    /// resolves to [`ServeError::WorkerPanicked`] with `attempts: 0`.
    pub fn poll(&mut self) -> Option<ServeResult> {
        if let Some(outcome) = self.inner.poll_outcome() {
            return Some(flatten(outcome));
        }
        match self.deadline {
            Some(deadline) if !self.expired && Instant::now() >= deadline => {
                self.expired = true;
                if let Some(counters) = &self.counters {
                    counters.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
                }
                Some(Err(ServeError::DeadlineExceeded {
                    budget: self.budget.unwrap_or_default(),
                }))
            }
            _ => None,
        }
    }

    /// Blocks until the response is ready — or, for a ticket with a
    /// budget, until the deadline, resolving
    /// [`ServeError::DeadlineExceeded`] instead of blocking forever.
    /// The abandoned in-flight result is discarded when it eventually
    /// completes (see [`Ticket`]: a dropped ticket discards its result).
    ///
    /// # Panics
    ///
    /// Panics if the response was already taken through
    /// [`poll`](ServeTicket::poll) (the double-take contract of
    /// [`Ticket::wait`]).
    pub fn wait(self) -> ServeResult {
        let Some(deadline) = self.deadline else {
            return flatten(self.inner.wait_outcome());
        };
        let budget = self.budget.unwrap_or_default();
        let counters = self.counters.clone();
        let now = Instant::now();
        let outcome = if now >= deadline {
            Err(self.inner)
        } else {
            self.inner.wait_timeout_outcome(deadline - now)
        };
        match outcome {
            Ok(outcome) => flatten(outcome),
            Err(abandoned) => {
                drop(abandoned); // the late result's send fails and it is discarded
                if let Some(counters) = &counters {
                    counters.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
                }
                Err(ServeError::DeadlineExceeded { budget })
            }
        }
    }

    /// Like [`wait`](ServeTicket::wait) but gives up after `timeout`,
    /// handing the still-pending ticket back as `Err`. A ticket whose
    /// *deadline* (not the timeout) elapsed resolves `Ok` with
    /// [`ServeError::DeadlineExceeded`] — the deadline is a resolution,
    /// the timeout is not.
    #[must_use = "on timeout the still-pending ticket comes back in the Err; dropping it loses the response"]
    pub fn wait_timeout(self, timeout: Duration) -> Result<ServeResult, ServeTicket> {
        let now = Instant::now();
        let capped = match self.deadline {
            Some(deadline) => timeout.min(deadline.saturating_duration_since(now)),
            None => timeout,
        };
        match self.inner.wait_timeout_outcome(capped) {
            Ok(outcome) => Ok(flatten(outcome)),
            Err(inner) => {
                let revived = ServeTicket { inner, ..self };
                match revived.deadline {
                    Some(deadline) if Instant::now() >= deadline => {
                        let budget = revived.budget.unwrap_or_default();
                        if let Some(counters) = &revived.counters {
                            counters.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
                        }
                        drop(revived); // abandon: the late result is discarded
                        Ok(Err(ServeError::DeadlineExceeded { budget }))
                    }
                    _ => Err(revived),
                }
            }
        }
    }
}

/// A pool outcome as a service result. Request panics are caught and
/// retried inside the job, so a panicked slot means the job was
/// dropped before it ever ran: the pool lost its last worker.
fn flatten(outcome: Result<ServeResult, String>) -> ServeResult {
    outcome.unwrap_or_else(|message| {
        Err(ServeError::WorkerPanicked {
            attempts: 0,
            message,
        })
    })
}

/// Service sizing and robustness knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Pool workers (each owning its session cache). Defaults to the
    /// machine's available parallelism.
    pub workers: usize,
    /// Admission-queue bound: requests waiting beyond this are
    /// rejected with [`ServeError::Overloaded`]. Defaults to
    /// `16 × workers`.
    pub queue_capacity: usize,
    /// Result-cache bound in bytes ([module docs](self) under "Result
    /// cache"). Each entry is charged its payload words plus a fixed
    /// overhead for its key, table slot and response header; each of
    /// the cache's eight shards holds at most an eighth of the bound,
    /// and a response charged more than that is answered but not
    /// cached. The bound also sizes the admission window: a key is
    /// cached on its second miss while the shard still remembers the
    /// first, and a shard remembers as many missed keys as its budget
    /// could hold entries, capped at 3,584 per shard (28,672 in all,
    /// about 0.8 MiB of fingerprints outside the bound; the cap binds
    /// at the default). `0` disables the cache entirely. Defaults to
    /// [`ServiceConfig::DEFAULT_CACHE_BYTES`].
    pub cache_bytes: usize,
    /// Worker-side execution retries after a panicking attempt
    /// (requests are idempotent — responses are pure functions of the
    /// request — so re-execution is always sound). Defaults to
    /// [`ServiceConfig::DEFAULT_MAX_RETRIES`]; `0` disables retry.
    pub max_retries: u32,
    /// Supervisor restart budget per pool worker
    /// ([`PoolOptions::max_restarts`]). Defaults to
    /// [`PoolOptions::DEFAULT_MAX_RESTARTS`].
    pub max_worker_restarts: u32,
    /// The chaos plan injected into this service and its pool
    /// ([`crate::fault`]). Defaults to `None`; the hooks cost nothing
    /// when absent.
    pub fault_plan: Option<Arc<FaultPlan>>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        ServiceConfig::with_workers(workers)
    }
}

impl ServiceConfig {
    /// Default result-cache bound, 8 MiB, chosen from repeated-request
    /// traffic whose hot set holds 1.92 MiB of payload: each shard's
    /// 1 MiB share keeps its part of that set, while at 4 MiB crowded
    /// shards evicted hot entries and the hit rate fell.
    pub const DEFAULT_CACHE_BYTES: usize = 8 << 20;

    /// Default worker-side retry budget per request.
    pub const DEFAULT_MAX_RETRIES: u32 = 2;

    /// A config with `workers` workers and the default queue bound for
    /// that worker count.
    pub fn with_workers(workers: usize) -> Self {
        ServiceConfig {
            workers,
            queue_capacity: 16 * workers,
            cache_bytes: Self::DEFAULT_CACHE_BYTES,
            max_retries: Self::DEFAULT_MAX_RETRIES,
            max_worker_restarts: PoolOptions::DEFAULT_MAX_RESTARTS,
            fault_plan: None,
        }
    }

    /// Replaces the admission-queue bound.
    #[must_use]
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Replaces the result-cache byte bound; `0` disables the cache.
    #[must_use]
    pub fn cache_bytes(mut self, bytes: usize) -> Self {
        self.cache_bytes = bytes;
        self
    }

    /// Replaces the worker-side retry budget; `0` disables retry.
    #[must_use]
    pub fn max_retries(mut self, retries: u32) -> Self {
        self.max_retries = retries;
        self
    }

    /// Replaces the supervisor's per-worker restart budget.
    #[must_use]
    pub fn max_worker_restarts(mut self, budget: u32) -> Self {
        self.max_worker_restarts = budget;
        self
    }

    /// Installs a fault plan (chaos injection; see [`crate::fault`]).
    #[must_use]
    pub fn fault_plan(mut self, plan: Arc<FaultPlan>) -> Self {
        self.fault_plan = Some(plan);
        self
    }
}

/// A point-in-time snapshot of service load, cache effectiveness and
/// robustness counters — [`Service::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceStats {
    /// Requests waiting for a worker (admitted, not yet picked up).
    pub queue_depth: usize,
    /// Requests admitted and not yet resolved (queued **or**
    /// executing); cache hits never count here.
    pub in_flight: usize,
    /// Cache counters, or `None` when the cache is disabled
    /// (`cache_bytes == 0`).
    pub cache: Option<CacheStats>,
    /// Worker-side execution retries after panicking attempts.
    pub retries: u64,
    /// Worker threads restarted by the pool supervisor.
    pub restarts: u64,
    /// Requests resolved with [`ServeError::DeadlineExceeded`]
    /// (requests a worker dropped unstarted and caller-side expiries
    /// combined).
    pub deadline_exceeded: u64,
    /// Requests answered as [`Response::Degraded`]. Always 0: a full
    /// queue answers [`ServeError::Overloaded`]. The field stays only
    /// because the v3 wire frame carries it, and goes with that
    /// frame's version bump.
    pub degraded: u64,
    /// Faults the installed [`FaultPlan`] has fired so far (0 without
    /// a plan).
    pub faults_injected: u64,
    /// Predicted pairwise conflict scores (×1000) summed over every
    /// executed [`Response::MultiStream`] wave.
    pub scheduler_predicted_conflicts_milli: u64,
    /// Measured conflicts summed over every executed
    /// [`Response::MultiStream`] wave — predicted-vs-actual in one
    /// snapshot.
    pub scheduler_actual_conflicts: u64,
    /// TCP connections a `cfva-wire` front end has accepted on behalf
    /// of this service. Always 0 from [`Service::stats`]: the service
    /// has no wire state of its own — `WireServer::stats` fills the
    /// `wire_*` trio in from its admission counters.
    pub wire_connections: u64,
    /// Requests a wire front end rejected at the connection boundary
    /// (per-connection in-flight cap, or service `Overloaded` /
    /// `ShuttingDown` forwarded onto the socket). Always 0 from
    /// [`Service::stats`].
    pub wire_rejections: u64,
    /// Wire-submitted requests currently in flight across every live
    /// connection. Always 0 from [`Service::stats`].
    pub wire_in_flight: usize,
}

/// The service's robustness counters, shared with every ticket.
#[derive(Debug, Default)]
struct ServeCounters {
    retries: AtomicU64,
    deadline_exceeded: AtomicU64,
    predicted_conflicts_milli: AtomicU64,
    actual_conflicts: AtomicU64,
}

/// One raw spec string, resolved once by the spec table: everything
/// the cache key and the session lookup need.
#[derive(Debug)]
struct SpecEntry {
    /// The canonical spec text (`MapSpec::canonical`), shared by every
    /// cache key and session built from this entry.
    canon: Arc<str>,
    /// The canonical spec itself.
    spec: MapSpec,
    /// The map's `address_bits_used` — the one map-side input of the
    /// stride-class reduction — or `None` when the spec parses but
    /// does not build (no sound cache key: such requests bypass).
    used_bits: Option<u32>,
}

/// A session cache: canonical spec text → warm session, holding at
/// most [`Service::SPEC_TABLE_CAPACITY`] sessions. One per pool worker.
#[derive(Debug, Default)]
struct SpecSessions {
    sessions: HashMap<Arc<str>, BatchRunner>,
}

impl SpecSessions {
    /// The session lookup; builds (and caches) the session on first
    /// touch, evicting an arbitrary session from a full map. The key is
    /// the entry's canonical text from the spec table — the hot path
    /// allocates nothing. Build failures are not cached — a transient
    /// failure (e.g. a matrix file appearing later) may succeed on
    /// retry.
    fn get_or_create(&mut self, entry: &SpecEntry) -> Result<&mut BatchRunner, ServeError> {
        if !self.sessions.contains_key(&*entry.canon) {
            let session = BatchRunner::from_spec(&entry.spec).map_err(ServeError::Spec)?;
            if self.sessions.len() >= Service::SPEC_TABLE_CAPACITY {
                if let Some(victim) = self.sessions.keys().next().cloned() {
                    self.sessions.remove(&victim);
                }
            }
            self.sessions.insert(Arc::clone(&entry.canon), session);
        }
        // cfva-lint: allow(L002, reason = "contains_key above guarantees the entry; the double lookup (vs the Entry API) keeps the hot path free of refcount traffic on the shared key")
        Ok(self.sessions.get_mut(&*entry.canon).expect("just ensured"))
    }
}

/// Decrements the in-flight gauge when the job finishes — held inside
/// the worker closure so a panicking request still decrements.
struct InFlightGuard(Arc<AtomicUsize>);

impl Drop for InFlightGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Plan/measure-as-a-service over the session pool. See
/// the [module docs](self).
///
/// # Examples
///
/// ```
/// use cfva_serve::api::{Request, Response};
/// use cfva_serve::service::{Service, ServiceConfig};
/// use cfva_core::plan::Strategy;
/// use cfva_core::VectorSpec;
///
/// let service = Service::new(ServiceConfig::with_workers(2));
/// let tickets: Vec<_> = (0..4u64)
///     .map(|i| {
///         service
///             .submit(Request::Measure {
///                 spec: "xor-matched:t=3,s=3".into(),
///                 vec: VectorSpec::new(16 + i, 12, 64).unwrap(),
///                 strategy: Strategy::Auto,
///             })
///             .expect("queue has room")
///     })
///     .collect();
/// for ticket in tickets {
///     assert!(matches!(ticket.wait(), Ok(Response::Measured(Some(_)))));
/// }
/// service.shutdown(); // drains in-flight work, then joins the workers
/// ```
#[derive(Debug)]
pub struct Service {
    pool: Pool<SpecSessions>,
    /// The memoized result cache; `None` when disabled.
    cache: Option<Arc<ResultCache>>,
    /// The spec table: raw spec string → its resolved [`SpecEntry`],
    /// so each spelling is parsed, canonicalized and built once. Holds
    /// at most [`Service::SPEC_TABLE_CAPACITY`] strings; past that,
    /// unseen spellings resolve a fresh entry per request. Parse
    /// errors are never stored. Keyed with `RandomState`: the strings
    /// come from clients.
    specs: ClassedMutex<HashMap<String, Arc<SpecEntry>>>,
    /// Admitted-but-unresolved gauge (queued or executing).
    in_flight: Arc<AtomicUsize>,
    /// Robustness counters, shared with every pending ticket.
    counters: Arc<ServeCounters>,
    /// Retry budget per request.
    max_retries: u32,
    /// The installed chaos plan; `None` (the default) costs nothing.
    faults: Option<Arc<FaultPlan>>,
    /// Submission index — the [`FaultPlan`]'s submit-side clock. Only
    /// advanced when a plan is installed.
    submit_seq: AtomicU64,
}

impl Service {
    /// The bound on the spec table's distinct raw spec strings, and on
    /// every session map's distinct canonical specs — what a client
    /// sending endless distinct specs can make the service hold.
    pub const SPEC_TABLE_CAPACITY: usize = 256;

    /// Spawns the worker pool. Workers start with empty session
    /// caches; sessions are built on first request per spec.
    ///
    /// # Panics
    ///
    /// Panics if `config.workers == 0` or `config.queue_capacity == 0`.
    pub fn new(config: ServiceConfig) -> Self {
        let mut options = PoolOptions::new().max_restarts(config.max_worker_restarts);
        if let Some(plan) = config.fault_plan.clone() {
            options = options.faults(plan);
        }
        let pool = Pool::with_options(config.workers, config.queue_capacity, options, |_| {
            SpecSessions::default()
        });
        Service {
            pool,
            cache: (config.cache_bytes > 0).then(|| Arc::new(ResultCache::new(config.cache_bytes))),
            specs: ClassedMutex::new(LockClass::SpecTable, HashMap::new()),
            in_flight: Arc::new(AtomicUsize::new(0)),
            counters: Arc::new(ServeCounters::default()),
            max_retries: config.max_retries,
            faults: config.fault_plan,
            submit_seq: AtomicU64::new(0),
        }
    }

    /// The worker count.
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// The admission-queue bound.
    pub fn queue_capacity(&self) -> usize {
        self.pool.capacity()
    }

    /// Requests currently waiting for a worker.
    pub fn queue_depth(&self) -> usize {
        self.pool.queue_depth()
    }

    /// A snapshot of service load, cache and robustness counters.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            queue_depth: self.pool.queue_depth(),
            in_flight: self.in_flight.load(Ordering::Relaxed),
            cache: self.cache.as_ref().map(|c| c.stats()),
            retries: self.counters.retries.load(Ordering::Relaxed),
            restarts: self.pool.restarts(),
            deadline_exceeded: self.counters.deadline_exceeded.load(Ordering::Relaxed),
            degraded: 0,
            faults_injected: self.faults.as_ref().map_or(0, |p| p.injected()),
            scheduler_predicted_conflicts_milli: self
                .counters
                .predicted_conflicts_milli
                .load(Ordering::Relaxed),
            scheduler_actual_conflicts: self.counters.actual_conflicts.load(Ordering::Relaxed),
            wire_connections: 0,
            wire_rejections: 0,
            wire_in_flight: 0,
        }
    }

    /// Validates and enqueues `request`, returning the ticket its
    /// response will resolve through. When the result cache holds this
    /// request's response already, the ticket comes back **resolved**
    /// — no pool round trip (see the [module docs](self)).
    ///
    /// Synchronous rejections (the request was **not** queued):
    ///
    /// * [`ServeError::Spec`] — the spec string does not parse;
    /// * [`ServeError::Request`] — invalid sweep/estimator parameters
    ///   (even `sigma`, zero `per_family`, …);
    /// * [`ServeError::Overloaded`] — admission queue full, whatever
    ///   the request's shape;
    /// * [`ServeError::ShuttingDown`] — [`shutdown`](Self::shutdown)
    ///   has begun.
    ///
    /// Session-side failures (a spec that parses but cannot build)
    /// resolve through the ticket as `Err`.
    #[must_use = "the ServeTicket inside is the only handle to the response"]
    pub fn submit(&self, request: Request) -> Result<ServeTicket, ServeError> {
        self.submit_inner(request, true, None, None)
    }

    /// [`submit`](Self::submit) without consulting or populating the
    /// result cache — the per-request bypass knob, for callers that
    /// want a fresh pooled execution (timing runs, cache-equivalence
    /// checks). Counted under [`CacheStats::bypasses`].
    #[must_use = "the ServeTicket inside is the only handle to the response"]
    pub fn submit_uncached(&self, request: Request) -> Result<ServeTicket, ServeError> {
        self.submit_inner(request, false, None, None)
    }

    /// [`submit`](Self::submit) with a per-request deadline budget. The
    /// returned
    /// ticket resolves with [`ServeError::DeadlineExceeded`] once the
    /// budget elapses: workers drop the request instead of starting it
    /// late, and [`ServeTicket::wait`] never blocks past the deadline.
    #[must_use = "the ServeTicket inside is the only handle to the response"]
    pub fn submit_with_budget(
        &self,
        request: Request,
        budget: Duration,
    ) -> Result<ServeTicket, ServeError> {
        self.submit_inner(request, true, Some(budget), None)
    }

    /// [`submit`](Self::submit) for an event-driven caller: `budget`,
    /// when given, bounds the request as in
    /// [`submit_with_budget`](Self::submit_with_budget), and `wake`
    /// runs on the worker once the response is on the ticket — also when the pool drops the request unrun. A ticket
    /// born resolved (a cache hit) never wakes, so poll every ticket once on receipt; a refused
    /// submission may still run `wake`.
    #[must_use = "the ServeTicket inside is the only handle to the response"]
    pub fn submit_with_wake(
        &self,
        request: Request,
        budget: Option<Duration>,
        wake: impl FnOnce() + Send + 'static,
    ) -> Result<ServeTicket, ServeError> {
        self.submit_inner(request, true, budget, Some(Box::new(wake)))
    }

    fn submit_inner(
        &self,
        request: Request,
        use_cache: bool,
        budget: Option<Duration>,
        wake: Option<Wake>,
    ) -> Result<ServeTicket, ServeError> {
        // The canonical text keys the sessions and the result cache, so
        // equivalent spellings share a session and a cache entry.
        let entry = self.resolve(request.spec())?;
        validate(&request)?;

        // Chaos hook: consume this submission index's scheduled fault
        // (if a plan is installed — the index only advances under one).
        let submit_fault = match &self.faults {
            Some(plan) => plan.take_submit_fault(self.submit_seq.fetch_add(1, Ordering::Relaxed)),
            None => None,
        };
        match submit_fault {
            // Poison *before* the cache consult, so this very request
            // sees the cold cache it just caused.
            Some(SubmitFault::PoisonCache) => {
                if let Some(cache) = &self.cache {
                    cache.invalidate_all();
                }
            }
            Some(SubmitFault::QueueBurst { jobs }) => {
                for _ in 0..jobs {
                    // Pressure jobs: no-ops whose tickets are dropped
                    // (abandoned) immediately; rejections are the point
                    // of the exercise, not an error.
                    let _ = self.pool.try_submit(|_sessions: &mut SpecSessions| ());
                }
            }
            _ => {}
        }
        let inject_panic = matches!(submit_fault, Some(SubmitFault::PanicJob));

        // Only an admitted miss carries its key to the worker.
        let populate = match &self.cache {
            Some(cache) if use_cache => match Self::cache_key(&entry, &request) {
                Some(key) => match cache.get(&key) {
                    Lookup::Hit(response) => return Ok(ServeTicket::now(Ok(response))),
                    Lookup::Miss { admit } => admit.then(|| (Arc::clone(cache), key)),
                },
                None => {
                    cache.note_bypass();
                    None
                }
            },
            Some(cache) => {
                cache.note_bypass();
                None
            }
            None => None,
        };

        let deadline = budget.map(|b| Instant::now() + b);
        self.in_flight.fetch_add(1, Ordering::Relaxed);
        // The guard rides inside the closure from here on: any way the
        // job can end — completion, panic, rejection at the queue, or
        // being dropped unrun during an abort — drops the closure and
        // decrements the gauge. No manual error-path bookkeeping.
        let guard = InFlightGuard(Arc::clone(&self.in_flight));
        let counters = Arc::clone(&self.counters);
        let max_retries = self.max_retries;
        let submitted = self.pool.try_submit_waking(
            move |sessions: &mut SpecSessions| {
                let _guard = guard;
                // Deadline drop → execute under `catch_unwind` → bounded
                // retry with backoff → typed `WorkerPanicked` once the
                // retries are spent. Requests are idempotent (responses
                // are pure functions of the request, sessions are rebuilt
                // on demand), so re-execution after a panic is sound.
                let mut panic_next = inject_panic;
                let mut attempt: u32 = 0;
                let result = loop {
                    // A request past its deadline is not worth starting
                    // (or re-starting): resolve the typed error instead.
                    if deadline.is_some_and(|deadline| Instant::now() >= deadline) {
                        counters.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
                        break Err(ServeError::DeadlineExceeded {
                            budget: budget.unwrap_or_default(),
                        });
                    }
                    let panic_now = std::mem::take(&mut panic_next);
                    let outcome = catch_unwind(AssertUnwindSafe(|| {
                        if panic_now {
                            // cfva-lint: allow(L002, reason = "the injected fault itself — fires only under an installed FaultPlan, and the surrounding retry loop is its test subject")
                            panic!("injected fault: request panicked by FaultPlan");
                        }
                        execute(sessions, &entry, &request)
                    }));
                    match outcome {
                        Ok(result) => break result,
                        Err(payload) => {
                            attempt += 1;
                            if attempt > max_retries {
                                break Err(ServeError::WorkerPanicked {
                                    attempts: attempt,
                                    message: panic_message(payload.as_ref()),
                                });
                            }
                            counters.retries.fetch_add(1, Ordering::Relaxed);
                            backoff(attempt);
                        }
                    }
                };
                // Predicted-vs-actual accounting for co-run responses.
                // Cache hits skip this by design: the counters track
                // executed co-runs, and a hit executes nothing.
                if let Ok(Response::MultiStream(outcome)) = &result {
                    counters
                        .predicted_conflicts_milli
                        .fetch_add(outcome.predicted_conflicts_milli, Ordering::Relaxed);
                    counters
                        .actual_conflicts
                        .fetch_add(outcome.actual_conflicts, Ordering::Relaxed);
                }
                if let (Some((cache, key)), Ok(response)) = (populate, &result) {
                    cache.insert(key, response);
                }
                result
            },
            wake,
        );
        match submitted {
            Ok(ticket) => Ok(ServeTicket::pending(
                ticket,
                budget,
                deadline,
                Arc::clone(&self.counters),
            )),
            Err(SubmitError::QueueFull {
                queue_depth,
                capacity,
            }) => Err(ServeError::Overloaded {
                queue_depth,
                capacity,
            }),
            Err(SubmitError::ShuttingDown) => Err(ServeError::ShuttingDown),
        }
    }

    /// The cache key of `request` under the resolved spec `entry`, or
    /// `None` when no sound key exists (the spec does not build, so
    /// there is no map to class-reduce measurements under).
    fn cache_key(entry: &SpecEntry, request: &Request) -> Option<CacheKey> {
        let req = match request {
            Request::Measure { vec, strategy, .. } => RequestKey::Measure {
                class: StrideClass::reduce_with_used(entry.used_bits?, vec),
                strategy: *strategy,
            },
            Request::MeasureBatch { accesses, .. } => {
                let used = entry.used_bits?;
                RequestKey::Batch {
                    items: accesses
                        .iter()
                        .map(|(vec, strategy)| {
                            (StrideClass::reduce_with_used(used, vec), *strategy)
                        })
                        .collect(),
                }
            }
            Request::FamilySweep {
                len, max_x, sigma, ..
            } => RequestKey::FamilySweep {
                len: *len,
                max_x: *max_x,
                sigma: *sigma,
            },
            Request::Efficiency {
                strategy,
                len,
                estimator,
                seed,
                ..
            } => RequestKey::Efficiency {
                strategy: *strategy,
                len: *len,
                estimator: *estimator,
                seed: *seed,
            },
            Request::MultiStream {
                streams,
                strategy,
                policy,
                schedule,
                ..
            } => {
                let used = entry.used_bits?;
                RequestKey::MultiStream {
                    streams: streams
                        .iter()
                        .map(|vec| StrideClass::reduce_with_used(used, vec))
                        .collect(),
                    strategy: *strategy,
                    policy: *policy,
                    schedule: *schedule,
                }
            }
        };
        Some(CacheKey {
            spec: Arc::clone(&entry.canon),
            req,
        })
    }

    /// The spec table lookup: `raw`'s resolved entry, resolving (and,
    /// below the cap, storing) it on first sight. The parse and map
    /// build run outside the lock; racing first touches each resolve,
    /// and all adopt whichever entry was stored first.
    fn resolve(&self, raw: &str) -> Result<Arc<SpecEntry>, ServeError> {
        if let Some(entry) = self.specs.lock().get(raw) {
            return Ok(Arc::clone(entry));
        }
        let spec = raw
            .parse::<MapSpec>()
            .map_err(ServeError::Spec)?
            .canonical();
        let built = Registry::builtin().build(&spec);
        let entry = Arc::new(SpecEntry {
            canon: spec.to_string().into(),
            used_bits: built.ok().map(|map| map.address_bits_used()),
            spec,
        });
        let mut specs = self.specs.lock();
        if specs.len() >= Self::SPEC_TABLE_CAPACITY {
            return Ok(entry);
        }
        Ok(Arc::clone(specs.entry(raw.to_string()).or_insert(entry)))
    }

    /// Graceful shutdown: stops admission (further [`submit`]s fail
    /// with [`ServeError::ShuttingDown`]), drains every queued and
    /// in-flight request (their tickets resolve), then joins the
    /// workers. Dropping the service does the same. Takes `&self` so a
    /// shared service (e.g. behind an `Arc` under a network front end)
    /// can be shut down while handlers still hold it.
    ///
    /// [`submit`]: Self::submit
    pub fn shutdown(&self) {
        self.pool.shutdown();
    }
}

/// The most elements one request may ask the service to plan and
/// simulate, summed over everything it runs. It bounds a request's
/// work and memory: without it one short frame could ask for a 2^40
/// element plan and abort the process on allocation failure, which
/// the pool's panic supervision cannot catch. Every workload the
/// workspace runs fits with room to spare (the largest, a 2^18
/// element sweep over 13 families, asks for 3.4M).
const MAX_REQUEST_ELEMENTS: u64 = 1 << 23;

/// The elements `request` asks for, in O(1) per request item:
/// Σ `len` over a measure, batch or co-run, `(max_x + 1)·len` for a
/// sweep, and `samples·len` or `(max_x + 1)·per_family·len` for an
/// estimate. Saturates instead of overflowing.
fn request_elements(request: &Request) -> u64 {
    match request {
        Request::Measure { vec, .. } => vec.len(),
        Request::MeasureBatch { accesses, .. } => accesses
            .iter()
            .map(|(vec, _)| vec.len())
            .fold(0, u64::saturating_add),
        Request::MultiStream { streams, .. } => streams
            .iter()
            .map(VectorSpec::len)
            .fold(0, u64::saturating_add),
        Request::FamilySweep { len, max_x, .. } => (u64::from(*max_x) + 1).saturating_mul(*len),
        Request::Efficiency { len, estimator, .. } => match estimator {
            Estimator::MonteCarlo { samples, .. } => u64::from(*samples).saturating_mul(*len),
            Estimator::Stratified { max_x, per_family } => (u64::from(*max_x) + 1)
                .saturating_mul(u64::from(*per_family))
                .saturating_mul(*len),
        },
    }
}

/// Submit-side parameter validation: everything that can be rejected
/// without a session is rejected before queueing, starting with the
/// element budget.
fn validate(request: &Request) -> Result<(), ServeError> {
    let elements = request_elements(request);
    if elements > MAX_REQUEST_ELEMENTS {
        return Err(ServeError::Request(cfva_core::ConfigError::OutOfRange {
            what: "request elements",
            value: elements,
            constraint: "at most 2^23 elements per request",
        }));
    }
    match request {
        Request::Measure { .. } | Request::MeasureBatch { .. } => Ok(()),
        Request::MultiStream { schedule, .. } => match schedule {
            SchedulePlan::FifoWaves { width: 0 } | SchedulePlan::ConflictAware { width: 0, .. } => {
                Err(ServeError::Request(cfva_core::ConfigError::OutOfRange {
                    what: "width",
                    value: 0,
                    constraint: "wave width must be at least 1",
                }))
            }
            _ => Ok(()),
        },
        Request::FamilySweep {
            sigma, max_x, len, ..
        } => {
            // One probe constructs the sweep's largest access: rejects
            // zero/even sigma, an overflowing sigma·2^max_x, len == 0
            // and an address stream leaving u64 — synchronously, per
            // the contract that `Request` errors never reach the
            // ticket.
            let stride = Stride::from_parts(*sigma, *max_x).map_err(ServeError::Request)?;
            VectorSpec::with_stride(16u64.into(), stride, *len)
                .map(|_| ())
                .map_err(ServeError::Request)
        }
        Request::Efficiency { estimator, len, .. } => {
            // Probe the estimator's worst-case access up front, so an
            // out-of-domain parameter is a typed synchronous rejection
            // — never a worker-side panic re-raised at ticket.wait()
            // (the sampler asserts `max_x ≤ 40`, and an oversized
            // `sigma · 2^max_x · len` would trip construction expects
            // deep inside the estimator loops).
            let (max_x, max_sigma) = match estimator {
                Estimator::MonteCarlo {
                    samples,
                    max_x,
                    max_sigma,
                } => {
                    if *samples == 0 {
                        return Err(ServeError::Request(cfva_core::ConfigError::OutOfRange {
                            what: "samples",
                            value: 0,
                            constraint: "samples must be at least 1",
                        }));
                    }
                    if *max_sigma == 0 {
                        return Err(ServeError::Request(cfva_core::ConfigError::OutOfRange {
                            what: "max_sigma",
                            value: 0,
                            constraint: "max_sigma must be at least 1",
                        }));
                    }
                    (*max_x, *max_sigma)
                }
                Estimator::Stratified { max_x, per_family } => {
                    if *per_family == 0 {
                        return Err(ServeError::Request(cfva_core::ConfigError::OutOfRange {
                            what: "per_family",
                            value: 0,
                            constraint: "per_family must be at least 1",
                        }));
                    }
                    // The stratified loop draws `sigma ∈ {1, 3, …, 15}`.
                    (*max_x, 15)
                }
            };
            if max_x > 40 {
                return Err(ServeError::Request(cfva_core::ConfigError::OutOfRange {
                    what: "max_x",
                    value: u64::from(max_x),
                    constraint: "max_x must be at most 40",
                }));
            }
            // The largest odd part either estimator can draw.
            let worst_odd = max_sigma - u64::from(max_sigma % 2 == 0);
            let worst_sigma = i64::try_from(worst_odd).map_err(|_| {
                ServeError::Request(cfva_core::ConfigError::OutOfRange {
                    what: "max_sigma",
                    value: max_sigma,
                    constraint: "max_sigma must fit in i64",
                })
            })?;
            let worst_stride =
                Stride::from_parts(worst_sigma, max_x).map_err(ServeError::Request)?;
            // Both estimators draw bases below 2^24; the largest
            // base/stride/len combination must stay addressable (this
            // also rejects `len == 0`).
            VectorSpec::with_stride(((1u64 << 24) - 1).into(), worst_stride, *len)
                .map(|_| ())
                .map_err(ServeError::Request)
        }
    }
}

/// Retry backoff: `2^attempt` scheduler yields. Deterministic in
/// structure (no wall-clock sleeps), cheap, and enough to let a
/// transiently-wedged resource settle between attempts.
fn backoff(attempt: u32) {
    for _ in 0..(1u32 << attempt.min(6)) {
        std::thread::yield_now();
    }
}

/// The worker-side request dispatch, against the worker's session
/// cache and the request's entry from the spec table.
fn execute(sessions: &mut SpecSessions, entry: &SpecEntry, request: &Request) -> ServeResult {
    let session = sessions.get_or_create(entry)?;
    match request {
        Request::Measure { vec, strategy, .. } => {
            Ok(Response::Measured(session.measure_owned(vec, *strategy)))
        }
        Request::MeasureBatch { accesses, .. } => {
            Ok(Response::Batch(session.measure_batch(accesses)))
        }
        Request::FamilySweep {
            len, max_x, sigma, ..
        } => family_sweep(session, *len, *max_x, *sigma),
        Request::MultiStream {
            streams,
            strategy,
            policy,
            schedule,
            ..
        } => multi_stream(session, streams, *strategy, *policy, *schedule),
        Request::Efficiency {
            strategy,
            len,
            estimator,
            seed,
            ..
        } => {
            let mut rng = StdRng::seed_from_u64(*seed);
            let eta = match estimator {
                Estimator::MonteCarlo {
                    samples,
                    max_x,
                    max_sigma,
                } => {
                    let sampler = StrideSampler::new(*max_x, *max_sigma);
                    session.simulated_efficiency(*strategy, *len, *samples, &sampler, &mut rng)
                }
                Estimator::Stratified { max_x, per_family } => {
                    session.stratified_efficiency(*strategy, *len, *max_x, *per_family, &mut rng)
                }
            };
            Ok(Response::Efficiency(eta))
        }
    }
}

fn family_sweep(session: &mut BatchRunner, len: u64, max_x: u32, sigma: i64) -> ServeResult {
    let mem = session.mem();
    let mut rows = Vec::with_capacity(max_x as usize + 1);
    for x in 0..=max_x {
        let stride = Stride::from_parts(sigma, x).map_err(ServeError::Request)?;
        let vec =
            VectorSpec::with_stride(16u64.into(), stride, len).map_err(ServeError::Request)?;
        let stats = session
            .measure(&vec, Strategy::Auto)
            // cfva-lint: allow(L002, reason = "Strategy::Auto falls back to naive order, which plans for every valid spec/vector pair — see plan::auto")
            .expect("auto always plans");
        rows.push(FamilyPoint {
            x,
            stride: stride.get(),
            latency: stats.latency,
            conflicts: stats.conflicts,
            stall_cycles: stats.stall_cycles,
            cycles_per_element: cycles_per_element(stats, mem),
        });
    }
    Ok(Response::FamilySweep(rows))
}

/// [`Request::MultiStream`] execution: plan every stream, partition
/// into co-run waves under the requested [`SchedulePlan`] (scored by
/// the conflict predictor for
/// [`ConflictAware`](SchedulePlan::ConflictAware)), co-run each wave
/// on the multi-stream engine, and report per-stream statistics plus
/// the total makespan against the streams-run-alone sequential
/// baseline. The response is independent of how the *service* was
/// scheduled — only the request's own [`SchedulePlan`] shapes it.
fn multi_stream(
    session: &mut BatchRunner,
    streams: &[VectorSpec],
    strategy: Strategy,
    policy: IssuePolicy,
    schedule: SchedulePlan,
) -> ServeResult {
    let cfg = session.mem();
    let mut plans = std::mem::take(&mut session.co_run_plans);
    plans.resize_with(streams.len(), AccessPlan::new);
    let (signatures, module_count) = {
        let planner = session.planner();
        let map = planner.map();
        for (vec, plan) in streams.iter().zip(plans.iter_mut()) {
            if planner.plan_into(vec, strategy, plan).is_err() {
                // The requested strategy cannot serve this stream's
                // family/length; measure it in the order Auto picks
                // rather than failing the whole co-run.
                planner
                    .plan_into(vec, Strategy::Auto, plan)
                    // cfva-lint: allow(L002, reason = "Strategy::Auto falls back to naive order, which plans for every valid spec/vector pair — see plan::auto")
                    .expect("auto always plans");
            }
        }
        let signatures: Vec<_> = streams
            .iter()
            .zip(plans.iter())
            .map(|(vec, plan)| plan_signature(map, vec, plan))
            .collect();
        (signatures, map.module_count() as f64)
    };
    let waves = plan_waves(streams.len(), schedule, |i, j| {
        score_milli(module_count, &signatures[i], &signatures[j])
    });
    let mut per_stream: Vec<Option<StreamSummary>> = streams.iter().map(|_| None).collect();
    let mut wave_makespans = Vec::with_capacity(waves.len());
    let mut predicted_conflicts_milli = 0u64;
    let mut actual_conflicts = 0u64;
    for (wave_ix, wave) in waves.iter().enumerate() {
        let refs: Vec<&AccessPlan> = wave.iter().map(|&i| &plans[i]).collect();
        let stats = run_multi(cfg, &refs, policy).map_err(ServeError::Request)?;
        actual_conflicts += stats.conflicts;
        for (pos, &i) in wave.iter().enumerate() {
            for &j in wave.iter().take(pos) {
                predicted_conflicts_milli +=
                    score_milli(module_count, &signatures[i], &signatures[j]);
            }
        }
        for (&i, stream) in wave.iter().zip(&stats.streams) {
            per_stream[i] = Some(StreamSummary {
                wave: wave_ix as u32,
                elements: stream.elements,
                first_issue: stream.first_issue,
                latency: stream.latency,
                spread: stream.spread,
                conflicts: stream.conflicts,
                stall_cycles: stream.stall_cycles,
            });
        }
        wave_makespans.push(stats.makespan);
    }
    // Waves run back to back: the schedule's makespan is their sum.
    let makespan = wave_makespans.iter().sum();
    let mut sequential_baseline = 0u64;
    for plan in &plans {
        sequential_baseline += session.run_plan(plan).latency;
    }
    session.co_run_plans = plans;
    Ok(Response::MultiStream(MultiStreamOutcome {
        // Waves partition the stream indices, so every slot is filled.
        per_stream: per_stream.into_iter().flatten().collect(),
        wave_makespans,
        makespan,
        sequential_baseline,
        predicted_conflicts_milli,
        actual_conflicts,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bad_spec_rejected_at_submit() {
        let service = Service::new(ServiceConfig::with_workers(1));
        let err = service
            .submit(Request::Measure {
                spec: "skewed:m".into(),
                vec: VectorSpec::new(0, 1, 16).unwrap(),
                strategy: Strategy::Auto,
            })
            .unwrap_err();
        assert!(matches!(err, ServeError::Spec(_)), "{err}");
        service.shutdown();
    }

    #[test]
    fn invalid_sweep_parameters_rejected_at_submit() {
        let service = Service::new(ServiceConfig::with_workers(1));
        // Even sigma, zero length, and an overflowing address stream
        // are all synchronous Request rejections — none may travel to
        // the worker and come back through the ticket.
        for (sigma, len, max_x) in [(4i64, 16u64, 3u32), (1, 0, 3), (1, 1 << 40, 40)] {
            let err = service
                .submit(Request::FamilySweep {
                    spec: "interleaved:m=3".into(),
                    len,
                    max_x,
                    sigma,
                })
                .map(|_| ())
                .unwrap_err();
            assert!(
                matches!(err, ServeError::Request(_)),
                "sigma {sigma} len {len} max_x {max_x}: {err}"
            );
        }
        service.shutdown();
    }

    #[test]
    fn out_of_domain_estimators_rejected_at_submit_not_worker_panic() {
        let service = Service::new(ServiceConfig::with_workers(1));
        let cases = [
            // Sampler cap: StdRng stride families top out at 40.
            Estimator::MonteCarlo {
                samples: 1,
                max_x: 41,
                max_sigma: 1,
            },
            // sigma · 2^max_x overflows i64.
            Estimator::Stratified {
                max_x: 63,
                per_family: 1,
            },
            // Stride fits, but base + stride·(len−1) leaves u64.
            Estimator::Stratified {
                max_x: 39,
                per_family: 1,
            },
        ];
        for (i, estimator) in cases.into_iter().enumerate() {
            let err = service
                .submit(Request::Efficiency {
                    spec: "interleaved:m=3".into(),
                    strategy: Strategy::Auto,
                    len: if i == 2 { 1 << 26 } else { 64 },
                    estimator,
                    seed: 0,
                })
                .map(|_| ())
                .unwrap_err();
            assert!(matches!(err, ServeError::Request(_)), "case {i}: {err}");
        }
        // The in-domain boundary still goes through.
        let ticket = service
            .submit(Request::Efficiency {
                spec: "interleaved:m=3".into(),
                strategy: Strategy::Auto,
                len: 64,
                estimator: Estimator::MonteCarlo {
                    samples: 4,
                    max_x: 40,
                    max_sigma: 9,
                },
                seed: 1,
            })
            .expect("in-domain estimator is accepted");
        assert!(matches!(ticket.wait(), Ok(Response::Efficiency(_))));
        service.shutdown();
    }

    fn measure(spec: &str) -> Request {
        Request::Measure {
            spec: spec.into(),
            vec: VectorSpec::new(16, 12, 64).unwrap(),
            strategy: Strategy::Auto,
        }
    }

    /// Sessions held by the single worker of `service`.
    fn worker_sessions(service: &Service) -> usize {
        service
            .pool
            .try_submit(|sessions: &mut SpecSessions| sessions.sessions.len())
            .expect("room")
            .wait()
    }

    #[test]
    fn spec_table_and_session_maps_stay_bounded() {
        const CAP: usize = Service::SPEC_TABLE_CAPACITY;
        let cached = Service::new(ServiceConfig::with_workers(1));
        let uncached = Service::new(ServiceConfig::with_workers(1).cache_bytes(0));
        // CAP + 8 distinct buildable canonical specs: two independent
        // GF(2) rows, the second one varying.
        for k in 2..CAP as u64 + 10 {
            let request = measure(&format!("custom-gf2:rows=1|{k}"));
            let warm = cached.submit(request.clone()).expect("room").wait();
            let cold = uncached.submit(request.clone()).expect("room").wait();
            assert!(warm.is_ok(), "rows=1|{k}: {warm:?}");
            assert_eq!(warm, cold, "rows=1|{k}");
        }
        for service in [&cached, &uncached] {
            assert_eq!(service.specs.lock().len(), CAP);
            assert_eq!(worker_sessions(service), CAP);
        }
        // Past the cap every spec still serves; an evicted session is
        // rebuilt on demand.
        let again = measure("custom-gf2:rows=1|2");
        assert_eq!(
            cached.submit_uncached(again.clone()).expect("room").wait(),
            uncached.submit(again).expect("room").wait()
        );
        cached.shutdown();
        uncached.shutdown();
    }

    #[test]
    fn spec_table_never_stores_parse_errors_and_stays_bounded_under_churn() {
        let service = Service::new(ServiceConfig::with_workers(1));
        for i in 0..Service::SPEC_TABLE_CAPACITY + 16 {
            let err = service.submit(measure(&format!("interleaved:m{i}")));
            assert!(matches!(err, Err(ServeError::Spec(_))), "{err:?}");
            let spelling = format!("interleaved:m={}3", "0".repeat(i));
            assert!(service
                .submit(measure(&spelling))
                .expect("room")
                .wait()
                .is_ok());
        }
        let specs = service.specs.lock();
        assert_eq!(specs.len(), Service::SPEC_TABLE_CAPACITY);
        for (raw, entry) in specs.iter() {
            assert!(
                raw.parse::<MapSpec>().is_ok(),
                "stored a parse error: {raw}"
            );
            assert_eq!(&*entry.canon, "interleaved:m=3");
        }
        drop(specs);
        service.shutdown();
    }

    #[test]
    fn concurrent_first_touch_stores_one_entry() {
        const THREADS: usize = 8;
        let service = Service::new(ServiceConfig::with_workers(2));
        let barrier = std::sync::Barrier::new(THREADS);
        let responses: Vec<ServeResult> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        service
                            .submit(measure("xor-matched:t=3,s=4"))
                            .expect("room")
                            .wait()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("joins"))
                .collect()
        });
        assert!(responses[0].is_ok(), "{:?}", responses[0]);
        assert!(responses.iter().all(|r| *r == responses[0]));
        assert_eq!(service.specs.lock().len(), 1);
        service.shutdown();
    }

    #[test]
    fn unbuildable_spec_resolves_through_ticket() {
        // `custom-gf2:rows=0b11|0b11` parses (valid grammar) but is
        // rank deficient: the failure belongs to the session build on
        // the worker, so it must come back through the ticket.
        let service = Service::new(ServiceConfig::with_workers(1));
        let ticket = service
            .submit(Request::Measure {
                spec: "custom-gf2:rows=0b11|0b11".into(),
                vec: VectorSpec::new(0, 1, 16).unwrap(),
                strategy: Strategy::Auto,
            })
            .expect("grammar is valid, submission succeeds");
        match ticket.wait() {
            Err(ServeError::Spec(e)) => {
                assert_eq!(e, cfva_core::ConfigError::SingularMatrix)
            }
            other => panic!("expected a spec build error, got {other:?}"),
        }
        service.shutdown();
    }
}
