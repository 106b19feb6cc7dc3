//! The typed request/response schema of plan/measure-as-a-service.
//!
//! One [`Request`] enum unifies the execution entry points that used to
//! be scattered across `BatchRunner` methods and experiment runners:
//! single measurements, batches, per-family spec sweeps and Section 5B
//! efficiency estimates. Maps are named by **registry spec strings**
//! (`"xor-matched:t=3,s=4"`, `"skewed:m=3,d=1"`, …— the grammar of
//! `cfva_core::mapping::MapSpec`), so a request fully describes the
//! machine to simulate; the service resolves the spec to a long-lived
//! per-worker session.
//!
//! Errors split by *where* they surface:
//!
//! * `Service::submit` rejects malformed requests synchronously —
//!   [`ServeError::Spec`] (unparseable spec string),
//!   [`ServeError::Request`] (invalid sweep/estimator parameters),
//!   [`ServeError::Overloaded`] (admission queue full — backpressure)
//!   and [`ServeError::ShuttingDown`];
//! * everything that needs the session — building the map (a
//!   rank-deficient matrix parses but does not construct), running the
//!   sweep — resolves through the returned ticket as the `Err` arm of
//!   [`ServeResult`].

use std::time::Duration;

use cfva_core::plan::Strategy;
use cfva_core::{ConfigError, VectorSpec};
use cfva_memsim::{AccessStats, IssuePolicy};

/// What a finished request resolves to: the response, or the typed
/// error the worker hit while serving it.
pub type ServeResult = Result<Response, ServeError>;

/// Section 5B efficiency estimator selection, mirroring the two
/// `BatchRunner` estimators.
///
/// `Hash` because the estimator parameters are part of the result
/// cache's request key (responses are deterministic in them).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Estimator {
    /// Monte-Carlo over the family population
    /// (`BatchRunner::simulated_efficiency`): `samples` random strides
    /// with family exponent capped at `max_x` and odd part capped at
    /// `max_sigma`.
    MonteCarlo {
        /// Number of sampled accesses.
        samples: u32,
        /// Family-exponent cap of the stride population.
        max_x: u32,
        /// Odd-part cap of the stride population.
        max_sigma: u64,
    },
    /// Stratified per-family estimate
    /// (`BatchRunner::stratified_efficiency`): `per_family` draws for
    /// each family `x ≤ max_x`, combined with the exact `2^-(x+1)`
    /// weights.
    Stratified {
        /// Largest family exponent measured directly.
        max_x: u32,
        /// Random draws per family.
        per_family: u32,
    },
}

/// One unit of service work. Every variant names its map by registry
/// spec string; each worker caches one session (planner, memory
/// system, scratch buffers) per spec and reuses it across requests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Plan and simulate one access (`BatchRunner::measure`).
    Measure {
        /// Map spec string, e.g. `"xor-matched:t=3,s=4"`.
        spec: String,
        /// The access to plan and simulate.
        vec: VectorSpec,
        /// Ordering strategy (use [`Strategy::Auto`] for the best
        /// available).
        strategy: Strategy,
    },
    /// Measure a batch of accesses through one session, results in
    /// submission order (`BatchRunner::measure_batch`).
    MeasureBatch {
        /// Map spec string.
        spec: String,
        /// The accesses, each with its strategy.
        accesses: Vec<(VectorSpec, Strategy)>,
    },
    /// Per-family latency sweep of the spec'd map — the request-shaped
    /// `experiments --map <spec>`: one representative stride
    /// `sigma · 2^x` per family `x ≤ max_x`, measured under
    /// [`Strategy::Auto`].
    FamilySweep {
        /// Map spec string.
        spec: String,
        /// Vector length of every swept access.
        len: u64,
        /// Largest family exponent swept.
        max_x: u32,
        /// Odd stride part shared by all families.
        sigma: i64,
    },
    /// Section 5B efficiency estimate of the spec'd map.
    Efficiency {
        /// Map spec string.
        spec: String,
        /// Ordering strategy for every sampled access.
        strategy: Strategy,
        /// Vector length of every sampled access.
        len: u64,
        /// Which estimator, with its parameters.
        estimator: Estimator,
        /// RNG seed — responses are deterministic in `(request, seed)`.
        seed: u64,
    },
    /// Co-schedule several vector streams through one memory system —
    /// the paper's Section 6 "several vectors simultaneously" scenario,
    /// served end to end: the streams are partitioned into **waves**
    /// per [`SchedulePlan`] (conflict-aware grouping uses the
    /// `equiv::conflict_score` predictor), each wave is co-run under
    /// the multi-stream engine (`cfva_memsim::run_multi`) with the
    /// requested [`IssuePolicy`], and the response reports per-stream
    /// statistics plus the makespan against the sequential baseline.
    MultiStream {
        /// Map spec string.
        spec: String,
        /// The concurrent streams, in submission order.
        streams: Vec<VectorSpec>,
        /// Ordering strategy for planning every stream (falls back to
        /// [`Strategy::Auto`] for streams it cannot plan, which always
        /// plans).
        strategy: Strategy,
        /// Per-stream issue arbitration within each wave.
        policy: IssuePolicy,
        /// How streams are partitioned into co-scheduled waves.
        schedule: SchedulePlan,
    },
}

/// How a [`Request::MultiStream`]'s streams are partitioned into
/// co-scheduled waves. All-integer so it can key the result cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedulePlan {
    /// All streams in one wave — raw contention, no scheduling.
    Together,
    /// FIFO: consecutive chunks of `width` streams per wave, in
    /// submission order — the baseline a conflict-aware schedule is
    /// measured against.
    FifoWaves {
        /// Streams per wave (at least 1).
        width: u32,
    },
    /// Conflict-aware: greedy graph coloring on the predicted pairwise
    /// conflict scores (`cfva_core::equiv::conflict_score`) — a stream
    /// joins the first wave with room whose members it scores at most
    /// `max_score_milli` (score × 1000) against; otherwise a new wave
    /// opens.
    ConflictAware {
        /// Streams per wave (at least 1).
        width: u32,
        /// Pairwise admission threshold, score × 1000 (1000 ≈ the
        /// uniform-random reference: predicted module collisions at
        /// chance rate).
        max_score_milli: u32,
    },
}

impl Request {
    /// The map spec string this request names.
    pub fn spec(&self) -> &str {
        match self {
            Request::Measure { spec, .. }
            | Request::MeasureBatch { spec, .. }
            | Request::FamilySweep { spec, .. }
            | Request::Efficiency { spec, .. }
            | Request::MultiStream { spec, .. } => spec,
        }
    }
}

/// One row of a [`Response::FamilySweep`]: the measured cost of the
/// family's representative stride.
#[derive(Debug, Clone, PartialEq)]
pub struct FamilyPoint {
    /// Family exponent `x`.
    pub x: u32,
    /// The measured stride `sigma · 2^x`.
    pub stride: i64,
    /// Total access latency in cycles.
    pub latency: u64,
    /// Module conflicts encountered.
    pub conflicts: u64,
    /// Stall cycles.
    pub stall_cycles: u64,
    /// Steady-state service cycles per element (1.0 ⇔ conflict free).
    pub cycles_per_element: f64,
}

/// One stream's view of a [`Response::MultiStream`] co-run: the
/// `AccessStats`-grade accounting of the wave it was scheduled into,
/// attributed to this stream by the multi-stream engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamSummary {
    /// Which wave the scheduler placed this stream into (0-based).
    pub wave: u32,
    /// Elements in this stream.
    pub elements: u64,
    /// Cycle the stream's first request issued, within its wave.
    pub first_issue: u64,
    /// First issue to last arrival, inclusive (0 for an empty stream).
    pub latency: u64,
    /// First arrival to last arrival, inclusive (0 for an empty
    /// stream).
    pub spread: u64,
    /// Module conflicts charged to this stream (it lost arbitration or
    /// queued behind a busy module).
    pub conflicts: u64,
    /// Issue-stall cycles charged to this stream.
    pub stall_cycles: u64,
}

/// What a [`Request::MultiStream`] resolves to: per-stream statistics,
/// the wave structure the scheduler chose, and the makespan against
/// the sequential baseline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultiStreamOutcome {
    /// One summary per requested stream, in submission order.
    pub per_stream: Vec<StreamSummary>,
    /// Simulated makespan of each wave, in wave order.
    pub wave_makespans: Vec<u64>,
    /// Total makespan: the waves run back to back, so this is the sum
    /// of the wave makespans.
    pub makespan: u64,
    /// Sum of each stream's latency measured **alone** — the
    /// no-co-scheduling baseline the makespan is compared against.
    pub sequential_baseline: u64,
    /// Sum of the predictor's pairwise conflict scores within each
    /// wave, × 1000 — what the schedule *predicted* it would pay.
    pub predicted_conflicts_milli: u64,
    /// Sum of measured conflicts across all waves — what it actually
    /// paid.
    pub actual_conflicts: u64,
}

/// What a [`Request`] produces, variant-for-variant.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// [`Request::Measure`]: the access statistics, or `None` when the
    /// requested strategy cannot plan the access (same contract as
    /// `BatchRunner::measure`).
    Measured(Option<AccessStats>),
    /// [`Request::MeasureBatch`]: one entry per access, in order.
    Batch(Vec<Option<AccessStats>>),
    /// [`Request::FamilySweep`]: one row per family, `x` ascending.
    FamilySweep(Vec<FamilyPoint>),
    /// [`Request::Efficiency`]: the estimated efficiency `η ∈ (0, 1]`.
    Efficiency(f64),
    /// [`Request::MultiStream`]: per-stream statistics, the wave
    /// structure the scheduler chose, and the contended makespan
    /// against the sequential baseline.
    MultiStream(MultiStreamOutcome),
    /// A response wrapped as served under overload. The service never
    /// produces it: a full admission queue answers
    /// [`ServeError::Overloaded`] for every request shape. The variant
    /// stays only because the version-3 wire frame encodes it and its
    /// clients match on it; the protocol's next version bump removes
    /// it.
    Degraded {
        /// The wrapped response.
        response: Box<Response>,
        /// Whether the wrapped response is the full one. The version-3
        /// frame carries it.
        exact: bool,
    },
}

/// Typed service errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// Backpressure: the admission queue already holds `queue_depth`
    /// requests against a capacity of `capacity`; this request was
    /// rejected, **not** queued. Retry later (or shed load).
    Overloaded {
        /// Requests waiting at the moment of rejection.
        queue_depth: usize,
        /// The configured admission capacity.
        capacity: usize,
    },
    /// The service is draining after `shutdown()`; no new requests.
    ShuttingDown,
    /// The request's map spec failed to parse or to build a session
    /// (unknown map, bad key/value, constraint violation — the
    /// diagnostic is the registry's own typed error).
    Spec(ConfigError),
    /// A non-spec request parameter is invalid (even sweep sigma, an
    /// overflowing address stream, …).
    Request(ConfigError),
    /// The request's deadline budget elapsed before a result was
    /// produced: either the worker dropped the request before executing
    /// it (the ticket resolves with this error), or the caller's
    /// `wait` on the ticket gave up at the deadline. The request is
    /// **not** retried past its deadline.
    DeadlineExceeded {
        /// The budget the request was submitted with.
        budget: Duration,
    },
    /// The request kept panicking on its workers: every execution
    /// attempt (1 initial + the configured retries) died. The last
    /// attempt's panic message is carried for diagnosis.
    WorkerPanicked {
        /// Execution attempts made (initial + retries).
        attempts: u32,
        /// The final attempt's panic message.
        message: String,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded {
                queue_depth,
                capacity,
            } => write!(
                f,
                "service overloaded: {queue_depth} request(s) queued, capacity {capacity}"
            ),
            ServeError::ShuttingDown => write!(f, "service is shutting down"),
            ServeError::Spec(e) => write!(f, "map spec rejected: {e}"),
            ServeError::Request(e) => write!(f, "request rejected: {e}"),
            ServeError::DeadlineExceeded { budget } => {
                write!(f, "deadline exceeded: budget {budget:?} elapsed")
            }
            ServeError::WorkerPanicked { attempts, message } => write!(
                f,
                "request panicked on its worker {attempts} time(s); last: {message}"
            ),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Spec(e) | ServeError::Request(e) => Some(e),
            _ => None,
        }
    }
}
