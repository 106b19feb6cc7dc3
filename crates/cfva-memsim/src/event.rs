//! The engine selector.
//!
//! Two engines do the work behind it. The per-cycle oracle
//! ([`MemorySystem::run_cycle`](crate::MemorySystem)) steps every cycle
//! over the occupied modules; it runs [`Engine::Cycle`], every
//! multi-port run and every work-conserving co-run, and records each
//! request's [`Timing`](crate::Timing). The request-order solver
//! (`solver.rs`) times a single-port stream in one pass without
//! stepping cycles; [`Engine::Periodic`], [`Engine::FastPath`] and
//! [`Engine::Analytic`] sit on top of it.

use std::fmt;

/// Which simulation core executes a request stream.
///
/// The three simulating engines produce bit-identical [`AccessStats`];
/// they differ only in cost. The fourth,
/// [`Analytic`](Engine::Analytic), reports the same aggregate
/// statistics, but leaves the per-element arrival and per-module busy
/// vectors empty once a stream recurs.
///
/// | engine | cost | role |
/// |---|---|---|
/// | [`Cycle`](Engine::Cycle) | `O(latency · occupied modules)` | the oracle — reference semantics, default |
/// | [`Periodic`](Engine::Periodic) | `O(P_x + transient)` solved, then one copy per later request | the request-order solver (`solver.rs`) plus a recurrence detector on its state (`periodic.rs`): once a period boundary's state recurs, the rest of the stream is copied from a log of the window, shifted in time; a stream with no recurrence is solved to the end in `O(requests)`; multi-port runs step the oracle |
/// | [`FastPath`](Engine::FastPath) | `O(requests)` | verified conflict-free shortcut, falls back to `Periodic` |
/// | [`Analytic`](Engine::Analytic) | `O(P_x + transient)` solved | the `Periodic` pass without the copy: once the state recurs, latency, stalls and conflicts of the rest follow in closed form; aggregates only past a recurrence, full vectors on a stream solved to the end or on the oracle |
///
/// Select an engine with [`MemConfig::with_engine`](crate::MemConfig::with_engine)
/// or [`MemorySystem::set_engine`]. The batch execution engine
/// (`cfva-serve::runner::BatchRunner`) defaults to `FastPath`, so each
/// access takes the cheapest proven path: the conflict-free shortcut,
/// then the request-order solver with periodic fast-forward.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum Engine {
    /// The per-cycle loop: every cycle runs the complete → bus → issue
    /// → start phases over the occupied modules. The slowest and the
    /// simplest — the oracle all verification compares against.
    #[default]
    Cycle,
    /// The steady-state fast-forward engine (`periodic.rs`): the
    /// request-order solver (`solver.rs`) plus recurrence detection on
    /// the solver's state at period boundaries of the stream's module
    /// sequence; once that state recurs, every later request is a
    /// time-shifted copy of its counterpart one window earlier, copied
    /// from a log instead of solved. Streams with no recurrence to
    /// detect (short or aperiodic vectors), or whose transient outlasts
    /// detection, are solved to the end. Multi-port runs step the
    /// oracle, exactly as [`Engine::Cycle`].
    Periodic,
    /// The verified conflict-free shortcut: a run first checks in one
    /// pass whether the request stream is conflict free in the paper's
    /// sense (every window of `T` consecutive requests touches `T`
    /// distinct modules). If it is — and the memory has a single port —
    /// the statistics are fully determined:
    /// request `k` starts service the cycle it is issued and arrives at
    /// `k + T + 1`, the access takes `T + L + 1` cycles, and no
    /// queueing occurs. Those are exactly the values the cycle engine
    /// produces (asserted bit-for-bit by `tests/fast_path.rs`), at a
    /// fraction of the cost. Every other stream falls back to
    /// [`Engine::Periodic`]. The batch execution engine
    /// (`cfva-serve::runner::BatchRunner`) starts its sessions here.
    FastPath,
    /// The aggregates-only form of [`Engine::Periodic`]: once the
    /// solver's state recurs, the rest of the stream's latency, stalls
    /// and conflicts follow in closed form, with no request copied, and
    /// the per-element arrival and per-module busy vectors are left
    /// **empty**. The aggregates always equal the oracle's. A stream
    /// that never recurs is solved to the end and keeps its vectors;
    /// multi-port streams step the oracle. See
    /// [`MemorySystem::analytic_estimate`](crate::MemorySystem::analytic_estimate).
    Analytic,
}

impl fmt::Display for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Engine::Cycle => "cycle",
            Engine::Periodic => "periodic",
            Engine::FastPath => "fast-path",
            Engine::Analytic => "analytic",
        })
    }
}
