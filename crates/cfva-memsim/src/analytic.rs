//! The closed-form steady-state estimator behind [`Engine::Analytic`].
//!
//! Long constant-stride streams settle into a steady state in which
//! every period of the module sequence replays the same events shifted
//! by a constant number of cycles (the observation the periodic
//! fast-forward engine exploits state-signature by state-signature).
//! This module derives the whole-stream aggregates from that property
//! **without simulating the stream**: it measures a handful of short
//! prefixes whose lengths are congruent to the full length modulo the
//! detected minimal period, confirms that the per-period deltas of
//! latency, stalls and conflicts are constant, and extrapolates the
//! remaining periods in closed form.
//!
//! * Prefix lengths share the full stream's residue `r = n mod P`, so
//!   every probe ends at the same point of the period and drains from
//!   a congruent boundary state — the tail cost is identical.
//! * Constant deltas across consecutive probe windows (checked for
//!   period spans 1, 2 and 3, catching multi-period beat patterns) are
//!   exactly the evidence the periodic engine accepts as a recurrence;
//!   when they hold the extrapolation is **exact**
//!   ([`AnalyticEstimate::exact`]) and bit-equal to the cycle oracle's
//!   aggregates — `tests/analytic.rs` asserts this across every spec in
//!   `Registry::builtin().all_specs()`.
//! * When the deltas refuse to settle the estimator falls back to a
//!   linear fit over the probes and reports `exact = false`.
//! * The probes are prefixes of one stream, and the request-order
//!   solver (`solver.rs`) times each request from the requests before
//!   it alone, so one solver pass over the longest probe yields every
//!   probe's aggregates.
//! * When the plan carries `P_x ≤ n/3`, the period scan reads only
//!   the first `2·P_x` requests (Fine–Wilf, as in `periodic.rs`); other
//!   streams, a larger `P_x` included, are scanned whole, so the
//!   reported period is always the minimal one.
//! * Streams too short to amortize probing are simply solved in full,
//!   and multi-port runs step the cycle oracle — trivially exact.
//!
//! Unlike the three simulating engines, [`Engine::Analytic`] reports
//! **aggregates only**: the per-element arrival and per-module busy
//! vectors of the output [`AccessStats`] are left empty on the
//! extrapolated path (they are `O(n)` — materializing them would defeat
//! the point). Callers needing per-element data want a simulating
//! engine.

use cfva_core::plan::AccessPlan;
use cfva_core::ModuleId;

use crate::periodic::minimal_period;
use crate::solver::Solved;
use crate::stats::AccessStats;
use crate::system::MemorySystem;

/// Number of prefix probes; spans up to 3 periods need at least 4
/// aligned probes each, and 7 consecutive probe indices contain every
/// residue class for all spans ≤ 3.
const PROBES: usize = 7;

/// A closed-form steady-state estimate of one access — the aggregates
/// of [`AccessStats`] plus the detected period and an exactness flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnalyticEstimate {
    /// Total latency in processor cycles (see [`AccessStats::latency`]).
    pub latency: u64,
    /// Number of elements in the access.
    pub elements: u64,
    /// Processor stall cycles (see [`AccessStats::stall_cycles`]).
    pub stall_cycles: u64,
    /// Queueing conflicts (see [`AccessStats::conflicts`]).
    pub conflicts: u64,
    /// Highest input-queue occupancy observed.
    pub max_in_q: usize,
    /// Minimal period of the stream's module sequence, in requests.
    pub period: u64,
    /// `true` when the estimate is provably equal to a full simulation
    /// (direct run, or constant per-period deltas confirmed across the
    /// probe window); `false` for the linear-fit fallback.
    pub exact: bool,
}

impl AnalyticEstimate {
    /// Elements delivered per cycle over the whole access — the
    /// steady-state throughput for long streams. Returns 0.0 for an
    /// empty access, never `NaN` or `inf`.
    pub fn throughput(&self) -> f64 {
        if self.elements == 0 || self.latency == 0 {
            return 0.0;
        }
        self.elements as f64 / self.latency as f64
    }

    /// Average cycles per element, the inverse of
    /// [`throughput`](Self::throughput) (0.0 for an empty access).
    pub fn cycles_per_element(&self) -> f64 {
        if self.elements == 0 {
            return 0.0;
        }
        self.latency as f64 / self.elements as f64
    }

    fn from_stats(stats: &AccessStats, period: u64) -> AnalyticEstimate {
        AnalyticEstimate {
            latency: stats.latency,
            elements: stats.elements,
            stall_cycles: stats.stall_cycles,
            conflicts: stats.conflicts,
            max_in_q: stats.max_in_q,
            period,
            exact: true,
        }
    }
}

impl MemorySystem {
    /// Estimates the steady-state statistics of an access plan in
    /// closed form — the engine-independent entry point of
    /// [`Engine::Analytic`](crate::Engine::Analytic). See the
    /// [module docs](self) for when the estimate is exact.
    #[must_use = "an AnalyticEstimate is the estimator's only output; dropping it wastes the probe runs"]
    pub fn analytic_estimate(&mut self, plan: &AccessPlan) -> AnalyticEstimate {
        let modules = plan.modules();
        let mut scratch = AccessStats::default();
        match plan.order() {
            None => self.run_analytic(
                modules.len(),
                plan.period(),
                &|k| (k as u64, modules[k]),
                &mut scratch,
            ),
            Some(order) => self.run_analytic(
                order.len(),
                plan.period(),
                &|k| {
                    let element = order[k];
                    (element, modules[element as usize])
                },
                &mut scratch,
            ),
        }
    }

    /// The estimator core: probes short congruent prefixes with the
    /// request-order solver and extrapolates. Writes the estimated
    /// aggregates into `out` (per-element and per-module vectors
    /// cleared on the extrapolated path, fully populated on the direct
    /// path). `known` is a true period of the module sequence, when one
    /// is known: at most `n / 3`, it bounds the period scan to the
    /// first `2 · known` requests.
    pub(crate) fn run_analytic<F>(
        &mut self,
        n: usize,
        known: Option<u64>,
        request: &F,
        out: &mut AccessStats,
    ) -> AnalyticEstimate
    where
        F: Fn(usize) -> (u64, ModuleId),
    {
        // Streams the probing machinery does not cover run directly:
        // multi-port issue (period boundaries are request-anchored) on
        // the cycle oracle, anything too short for period detection on
        // the request-order solver.
        if self.cfg.ports() != 1 {
            self.run_cycle(&[n], request, out);
            return AnalyticEstimate::from_stats(out, n.max(1) as u64);
        }
        if n < 4 {
            self.solve(n, request, out, |_, _, _| true);
            return AnalyticEstimate::from_stats(out, n.max(1) as u64);
        }

        let scratch = &mut self.periodic;
        // The minimal period of `2P` requests with period `P` divides
        // `P`, so it is the whole stream's.
        let scan = match known {
            Some(known) if (1..=n as u64 / 3).contains(&known) => 2 * known as usize,
            _ => n,
        };
        let p = minimal_period(scan, request, &mut scratch.seq, &mut scratch.fail, u64::MAX);

        let n_u64 = n as u64;
        let r = n_u64 % p;
        // First probe index: clear of the startup transient (the same
        // allowance the periodic engine grants, converted to whole
        // periods), and at least 2 so every span-1 window is past the
        // first boundary.
        let transient =
            4 * (self.cfg.t_cycles() + (self.cfg.q_in() + self.cfg.q_out()) as u64) + 64;
        let c1 = 2u64.max(transient / p + 2);
        let longest = r + (c1 + PROBES as u64 - 1) * p;
        if longest >= n_u64 {
            // Probing would simulate as much as the real stream: run it.
            self.solve(n, request, out, |_, _, _| true);
            return AnalyticEstimate::from_stats(out, p);
        }

        // The probes are prefixes of one stream, and a request's solved
        // timing depends only on the requests before it: one solver pass
        // over the longest probe yields every probe's aggregates. Probe
        // runs use identity element ids: a prefix of a permuted stream
        // is not itself a permutation of its own length, and the
        // aggregates being estimated do not depend on element labels.
        let probe_request = |k: usize| {
            let (_, module) = request(k);
            (k as u64, module)
        };
        // Each probe's aggregates are the solver's totals through its
        // last request.
        let mut probes = [Solved::default(); PROBES];
        let mut next = 0;
        let mut scratch = AccessStats::default();
        self.solve(
            longest as usize,
            &probe_request,
            &mut scratch,
            |k, sum, _| {
                let Some(probe) = probes.get_mut(next) else {
                    return false;
                };
                // Probe `next` ends at request `r + (c1 + next)·p - 1`.
                if (k + 1) as u64 == r + (c1 + next as u64) * p {
                    *probe = *sum;
                    next += 1;
                }
                true
            },
        );

        let k_n = (n_u64 - r) / p; // whole periods in the full stream
        let steady = probes.iter().all(|pr| pr.max_in_q == probes[0].max_in_q);
        let estimate = if steady {
            (1u64..=3).find_map(|span| extrapolate(&probes, c1, span, k_n))
        } else {
            None
        };
        let estimate = estimate.unwrap_or_else(|| approximate(&probes, c1, k_n));

        out.latency = estimate.latency;
        out.elements = n_u64;
        out.stall_cycles = estimate.stall_cycles;
        out.conflicts = estimate.conflicts;
        out.max_in_q = estimate.max_in_q;
        out.arrival.reset(0, 0);
        out.module_busy.clear();
        AnalyticEstimate {
            elements: n_u64,
            period: p,
            ..estimate
        }
    }
}

/// Exact extrapolation over a period span: if every consecutive
/// span-length window of probes shows identical deltas for latency,
/// stalls and conflicts, the stream is in steady state with that beat
/// and the aggregates at `k_n` periods follow in closed form from the
/// largest probe congruent to `k_n` modulo the span.
fn extrapolate(
    probes: &[Solved; PROBES],
    c1: u64,
    span: u64,
    k_n: u64,
) -> Option<AnalyticEstimate> {
    let s = span as usize;
    let delta = |f: fn(&Solved) -> u64| {
        let d = f(&probes[s]) - f(&probes[0]);
        probes
            .windows(s + 1)
            .all(|w| f(&w[s]) - f(&w[0]) == d)
            .then_some(d)
    };
    let (d_lat, d_stall, d_conf) = (
        delta(|p| p.latency)?,
        delta(|p| p.stall_cycles)?,
        delta(|p| p.conflicts)?,
    );
    // The largest probe index congruent to k_n (mod span); PROBES (7)
    // consecutive indices cover every residue for span ≤ 3.
    let j = (0..PROBES)
        .rev()
        .find(|&j| (k_n as i128 - (c1 + j as u64) as i128).rem_euclid(span as i128) == 0)?;
    let c_star = c1 + j as u64;
    debug_assert!(k_n >= c_star, "probe lengths are bounded by the stream");
    let steps = (k_n - c_star) / span;
    let base = &probes[j];
    Some(AnalyticEstimate {
        latency: base.latency + steps * d_lat,
        elements: 0, // caller fills
        stall_cycles: base.stall_cycles + steps * d_stall,
        conflicts: base.conflicts + steps * d_conf,
        max_in_q: base.max_in_q,
        period: 0, // caller fills
        exact: true,
    })
}

/// Linear-fit fallback when no span settles: per-period rates from the
/// probe endpoints, rounded to nearest — explicitly approximate.
fn approximate(probes: &[Solved; PROBES], c1: u64, k_n: u64) -> AnalyticEstimate {
    let first = &probes[0];
    // cfva-lint: allow(L002, reason = "probes is a fixed [Solved; PROBES] array, so PROBES - 1 is its last valid index")
    let last = &probes[PROBES - 1];
    let dc = (PROBES - 1) as u64;
    let c_last = c1 + dc;
    let fit = |a: u64, b: u64| {
        let rate_num = b - a; // monotone counters: b >= a
        b + (k_n.saturating_sub(c_last) * rate_num + dc / 2) / dc
    };
    AnalyticEstimate {
        latency: fit(first.latency, last.latency),
        elements: 0, // caller fills
        stall_cycles: fit(first.stall_cycles, last.stall_cycles),
        conflicts: fit(first.conflicts, last.conflicts),
        max_in_q: probes.iter().map(|p| p.max_in_q).max().unwrap_or(0),
        period: 0, // caller fills
        exact: false,
    }
}
