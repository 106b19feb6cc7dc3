//! The periodic steady-state fast-forward engine.
//!
//! The module sequence of any constant-stride vector is **periodic**
//! (Valero et al.'s central observation —
//! [`ModuleMap::period`](cfva_core::mapping::ModuleMap::period) gives
//! the closed form `P_x`). Once the memory system reaches steady state,
//! its state at one period boundary is a time-shifted copy of the state
//! at an earlier one, and every later request replays its counterpart
//! one window earlier, shifted by a constant number of cycles. Solving
//! each of those requests is redundant work.
//!
//! This engine is the request-order solver (`solver.rs`) plus a
//! recurrence detector that reads the solver's own state. At each
//! boundary of the stream's module-sequence period `P` the detector
//! takes the solver's **state signature**
//! ([`Solver::signature`](crate::solver::Solver::signature)): the
//! per-module rings, `done` cycles and held bus slots, relative to the
//! boundary's first possible issue cycle and clamped where they can no
//! longer delay a later request. While detection runs it logs each
//! request's bus grant, stall cycles and late start. When a signature
//! recurs — boundary `B` equals boundary `B'`, `Δt` cycles later —
//! request `j ≥ B` is request `j − i·(B − B')` of the window `[B', B)`,
//! `i·Δt` cycles later, for the `i ≥ 1` that lands it there. The pass
//! stops, and the rest of the stream is copied from the log, with
//! nothing simulated past the recurrence:
//!
//! * arrivals — the window, repeated in the log to a block of at least
//!   64 requests, one `Δt` per repeat, is written a block at a time:
//!   one grant load and one arrival write per copied request;
//! * stall cycles, conflicts, per-module busy time and latency — per
//!   window entry, times the number of copies it gets, in closed form.
//!
//! A caller that reads per-request timings (the co-run de-multiplexer)
//! gets every one, solved or copied, through its `each` callback; the
//! arrival copy builds none, so a no-op `each` costs nothing. Stats and
//! timings are bit-identical to the cycle oracle's — asserted across
//! every registered `ModuleMap` by `tests/periodic_engine.rs`, the
//! engine-agreement property suite and the unit test
//! `every_request_timing_matches_the_oracle`. A repeated element id
//! (outside the input contract) keeps its last delivery, copied or
//! solved, as in the oracle.
//!
//! ## The period
//!
//! The period comes from the caller, never from the requests. The
//! planner attaches the paper's `P_x` to every plan it builds, in
//! order or out of order
//! ([`AccessPlan::period`](cfva_core::plan::AccessPlan::period)), and a
//! round-robin co-run of equal-length plans carries `k·lcm(P_i)`
//! (`multi.rs`). Boundaries fall on multiples of that `P`, which need
//! not be the minimal period: a state that recurs every minimal period
//! recurs every `P` as well. A debug build checks that `P` is a true
//! period of the stream.
//!
//! A stream with no known period (raw request streams, concatenated
//! plans, other co-runs), with fewer than three whole periods
//! (`3P > n`), or whose transient outlasts the detection budget is simply solved
//! to the end. Multi-port runs never get here: they step the cycle
//! oracle.

use std::collections::VecDeque;

use cfva_core::ModuleId;

use crate::config::MemConfig;
use crate::solver::{deliver, Solved, Solver};
use crate::stats::AccessStats;
use crate::system::{MemorySystem, Timing};

/// Reusable buffers of the periodic engine, kept on the
/// [`MemorySystem`] so the working sets of repeated runs through a
/// long-lived system (the batch-runner hot path) are allocated once.
#[derive(Debug, Default)]
pub(crate) struct PeriodicScratch {
    /// Sorted distinct modules of one period — the only modules that
    /// ever hold work, since the module sequence is periodic.
    modules: Vec<usize>,
    /// Per request while detection runs, by request index: its
    /// timing; past a recurrence, the copy's block.
    log: Vec<Timing>,
    /// Recent boundaries, oldest first; a new signature is compared
    /// against all of them, so recurrences spanning several periods
    /// (beat patterns) are caught too.
    boundaries: VecDeque<Boundary>,
    /// The signature at the current boundary.
    sig: Vec<i64>,
}

/// One period boundary: the request it precedes, the first cycle that
/// request may issue, and the solver's state signature there.
#[derive(Debug)]
struct Boundary {
    req: usize,
    at: u64,
    sig: Vec<i64>,
}

/// How many recent boundaries a new signature is compared against.
const SIGNATURE_RING: usize = 4;

/// The fewest requests the copy writes per block, so that a short
/// window (one module: a period of one request) copies in long runs.
const COPY_BLOCK: usize = 64;

/// A detected recurrence: from request `to` on, the stream replays the
/// window of requests `from..to`, `dt` cycles later per window.
#[derive(Debug, Clone, Copy)]
struct Recurrence {
    from: usize,
    to: usize,
    dt: u64,
}

/// The recurrence detector, fed by the solver pass.
pub(crate) struct Detection<'s> {
    scratch: &'s mut PeriodicScratch,
    t: u64,
    /// The period of the stream's module sequence, in requests.
    p: usize,
    /// Request count at which to take the next signature, while
    /// detection runs.
    next_boundary: Option<usize>,
    /// Give up once the next boundary would exceed this (transient too
    /// long, or too little stream left to profit).
    limit: usize,
    /// The recurrence that stopped the pass, if one did.
    found: Option<Recurrence>,
}

impl<'s> Detection<'s> {
    /// Sets up detection for a single-port stream whose module sequence
    /// has the true period `known`, if one is known; `None` when the
    /// stream has no usable recurrence: detection needs a known period
    /// and at least three whole periods of it.
    pub(crate) fn new<F>(
        cfg: &MemConfig,
        n: usize,
        known: Option<u64>,
        request: &F,
        scratch: &'s mut PeriodicScratch,
    ) -> Option<Self>
    where
        F: Fn(usize) -> (u64, ModuleId),
    {
        let p = known
            .and_then(|p| usize::try_from(p).ok())
            .filter(|&p| p > 0 && p <= n / 3)?;
        debug_assert!(
            (p..n).all(|k| request(k).1 == request(k - p).1),
            "an attached period {p} that is not a period of the stream"
        );
        scratch.modules.clear();
        scratch
            .modules
            .extend((0..p).map(|k| request(k).1.get() as usize));
        scratch.modules.sort_unstable();
        scratch.modules.dedup();
        scratch.log.clear();
        scratch.boundaries.clear();
        // Startup transients are bounded by the pipeline filling (a few
        // service times and queue depths); past this allowance the
        // stream is not settling into a one-boundary recurrence and is
        // solved to the end.
        let transient = 4 * (cfg.t_cycles() as usize + cfg.q_in() + cfg.q_out()) + 64;
        Some(Detection {
            scratch,
            t: cfg.t_cycles(),
            p,
            next_boundary: Some(p),
            limit: (3 * p).max(p + transient).min(n - p),
            found: None,
        })
    }

    /// Logs solved request `j` and, at a boundary, compares the
    /// solver's signature with the recent ones. Returns `false` to stop
    /// the pass on a recurrence.
    pub(crate) fn visit(&mut self, j: usize, sum: &Solved, solver: &Solver) -> bool {
        let Some(boundary) = self.next_boundary else {
            return true;
        };
        let s = &mut *self.scratch;
        s.log.push(sum.timing);
        if j + 1 < boundary {
            return true;
        }
        let at = sum.timing.issue + 1;
        solver.signature(&s.modules, at, self.t, &mut s.sig);
        if let Some(prev) = s.boundaries.iter().rev().find(|b| b.sig == s.sig) {
            self.found = Some(Recurrence {
                from: prev.req,
                to: boundary,
                dt: at - prev.at,
            });
            return false;
        }
        if s.boundaries.len() == SIGNATURE_RING {
            s.boundaries.pop_front();
        }
        s.boundaries.push_back(Boundary {
            req: boundary,
            at,
            sig: s.sig.clone(),
        });
        // Past the limit the transient exhausted the budget: solve on.
        self.next_boundary = Some(boundary + self.p).filter(|&b| b <= self.limit);
        true
    }

    /// The request from which the rest of the stream is copied, once a
    /// recurrence is found.
    #[cfg(test)]
    pub(crate) fn matched_at(&self) -> Option<usize> {
        self.found.map(|found| found.to)
    }

    /// Completes a run whose pass stopped on a recurrence, with totals
    /// `sum`: every later request copies its counterpart in the logged
    /// window, shifted by `dt` per window (see the module docs), and
    /// `each` sees its timing. Does nothing when no recurrence was
    /// found.
    fn replay<F, E>(self, sum: &Solved, n: usize, request: &F, out: &mut AccessStats, each: &mut E)
    where
        F: Fn(usize) -> (u64, ModuleId),
        E: FnMut(usize, &Timing),
    {
        let Some(Recurrence { from, to, dt }) = self.found else {
            return;
        };
        let log = &mut self.scratch.log;
        let window = &log[from..to];
        let rest = n - to;
        let (whole, part) = (rest / window.len(), rest % window.len());
        let mut last = 0;
        out.stall_cycles = sum.stall_cycles;
        out.conflicts = sum.conflicts;
        for (i, timing) in window.iter().enumerate() {
            let copies = (whole + usize::from(i < part)) as u64;
            last = last.max(timing.grant + copies * dt);
            out.stall_cycles += copies * timing.stalls;
            out.conflicts += copies * u64::from(timing.start > timing.issue);
            // The solver checked this request's module against the memory.
            let m = request(from + i).1.get() as usize;
            out.module_busy[m] += copies * self.t;
        }
        out.latency = sum.latency.max(last + 2);

        // Repeat the window at the end of the log (which ends at `to`)
        // to a block, then copy blocks.
        let repeats = COPY_BLOCK.div_ceil(to - from);
        for k in from..from + (repeats - 1) * (to - from) {
            let timing = log[k].shifted(dt);
            log.push(timing);
        }
        let block = &log[from..];
        let arrival = out.arrival.make_mut();
        let (mut first, mut shift) = (to, dt);
        while first < n {
            let len = block.len().min(n - first);
            for (j, timing) in (first..).zip(&block[..len]) {
                let (element, _) = request(j);
                deliver(&mut arrival[element as usize], timing.grant + shift);
            }
            for (j, timing) in (first..).zip(&block[..len]) {
                each(j, &timing.shifted(shift));
            }
            first += len;
            shift += repeats as u64 * dt;
        }
    }
}

impl MemorySystem {
    /// The periodic steady-state fast-forward engine on a single-port
    /// stream: the request-order solver with the recurrence detector
    /// (see the module docs), given a true period `known` of the module
    /// sequence when one is known. Statistics land in `out`, reusing
    /// its buffers, and `each` sees every request's timing, solved or
    /// copied, in request order.
    ///
    /// # Panics
    ///
    /// Same conditions as [`run_plan`](Self::run_plan).
    pub(crate) fn run_periodic<F, E>(
        &mut self,
        n: usize,
        known: Option<u64>,
        request: &F,
        out: &mut AccessStats,
        mut each: E,
    ) where
        F: Fn(usize) -> (u64, ModuleId),
        E: FnMut(usize, &Timing),
    {
        let mut scratch = std::mem::take(&mut self.periodic);
        let mut detection = Detection::new(&self.cfg, n, known, request, &mut scratch);
        let sum = self.solve(n, request, out, |j, sum, solver| {
            each(j, &sum.timing);
            detection
                .as_mut()
                .is_none_or(|detection| detection.visit(j, sum, solver))
        });
        if let Some(detection) = detection {
            detection.replay(&sum, n, request, out, &mut each);
        }
        self.periodic = scratch;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfva_core::plan::{Planner, Strategy};
    use cfva_core::{Addr, VectorSpec};

    /// The request from which detection copies the rest of a stream
    /// with the true period `known`, or `None` when detection does not
    /// start or finds no recurrence.
    fn matched_at<F>(cfg: MemConfig, n: usize, known: Option<u64>, request: &F) -> Option<usize>
    where
        F: Fn(usize) -> (u64, ModuleId),
    {
        let mut scratch = PeriodicScratch::default();
        let mut detection = Detection::new(&cfg, n, known, request, &mut scratch)?;
        let mut out = AccessStats::default();
        MemorySystem::new(cfg).solve(n, request, &mut out, |j, sum, solver| {
            detection.visit(j, sum, solver)
        });
        detection.matched_at()
    }

    /// The detector on the two long conflicted plans the `periodic`
    /// bench times, with the plan's attached period: detection starts,
    /// a recurrence is found, and at least 90% of the requests are
    /// copied rather than solved. A detector that never starts or never
    /// matches fails here, where a timing ratio on a noisy machine
    /// might not.
    #[test]
    fn detection_copies_most_of_long_conflicted_plans() {
        use cfva_core::mapping::{Interleaved, XorMatched};

        let cases = [
            // Stride 12 (family x = 2) on the eq. (1) map: P_x = 32.
            (
                Planner::matched(XorMatched::new(3, 4).unwrap()),
                MemConfig::new(3, 3).unwrap(),
                VectorSpec::new(16, 12, 2048).unwrap(),
            ),
            // Stride 8 on low-order interleaving, T = 64: one module.
            (
                Planner::baseline(Interleaved::new(3).unwrap(), 6),
                MemConfig::new(3, 6).unwrap(),
                VectorSpec::new(0, 8, 4096).unwrap(),
            ),
        ];
        for (planner, cfg, vec) in cases {
            let plan = planner.plan(&vec, Strategy::Canonical).unwrap();
            assert!(plan.period().is_some(), "{vec:?} carries its period");
            let request = |k: usize| {
                let e = plan.request(k);
                (e.element(), e.module())
            };
            let n = plan.len() as usize;
            let to = matched_at(cfg, n, plan.period(), &request).expect("a recurrence is found");
            let copied = n - to;
            assert!(
                10 * copied >= 9 * n,
                "{vec:?}: matched at request {to}, only {copied} of {n} copied"
            );
        }
    }

    /// A plan whose module sequence repeats more often than its
    /// attached period: the `xor-matched` replay order of a unit-stride
    /// vector carries `P_0 = 128` but repeats every 8 requests.
    /// Boundaries fall on multiples of the attached period all the
    /// same, most of the stream is copied, and the run equals the
    /// oracle's.
    #[test]
    fn boundaries_fall_on_the_attached_period() {
        let spec = "xor-matched:t=3,s=4".parse().unwrap();
        let planner = Planner::from_spec(&spec).unwrap();
        let cfg = MemConfig::from_spec(&spec).unwrap();
        let plan = planner
            .plan(&VectorSpec::new(16, 1, 1024).unwrap(), Strategy::Auto)
            .unwrap();
        let request = |k: usize| {
            let e = plan.request(k);
            (e.element(), e.module())
        };
        let n = plan.len() as usize;
        let p = plan.period().unwrap() as usize;
        let minimal = (1..=p).find(|&q| (q..n).all(|k| request(k).1 == request(k - q).1));
        assert_eq!((p, minimal), (128, Some(8)));

        let to = matched_at(cfg, n, plan.period(), &request).expect("a recurrence is found");
        assert_eq!(to % p, 0, "matched at request {to}");
        assert!(2 * (n - to) >= n, "matched at request {to}");

        let oracle = MemorySystem::new(cfg).run_oracle(&plan);
        let mut out = AccessStats::default();
        MemorySystem::new(cfg).run_periodic(n, plan.period(), &request, &mut out, |_, _| {});
        assert_eq!(out, oracle);
    }

    /// Random periodic streams over a grid of memory shapes and queue
    /// depths, through one reused system per shape, each run with its
    /// pattern's period: every run equals the oracle, and most streams
    /// are copied past a recurrence, so the recurrence detector's signature is what keeps
    /// them equal. Some copied streams hold completions that a full
    /// output queue blocked. Dropping the held grants and bus slots from
    /// the signature fails this grid.
    #[test]
    fn random_periodic_streams_match_the_oracle() {
        let (mut total, mut copied, mut blocked) = (0, 0, 0);
        for m in 1..=3u32 {
            for t in 0..=4u32 {
                for (q_in, q_out) in [(1, 1), (2, 1), (1, 2), (4, 2), (3, 3), (1, 4), (8, 8)] {
                    let cfg = MemConfig::new(m, t)
                        .unwrap()
                        .with_queues(q_in, q_out)
                        .unwrap();
                    let mut sys = MemorySystem::new(cfg);
                    let mut out = AccessStats::default();
                    let shape = u64::from(8 * m + t) << 16 | (q_in << 8 | q_out) as u64;
                    let mut r = shape.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
                    let mut random = move || {
                        r ^= r << 13;
                        r ^= r >> 7;
                        r ^= r << 17;
                        r
                    };
                    for _ in 0..100 {
                        let r = random();
                        let period = (r % 12 + 1) as usize;
                        let n = period * ((r >> 8) % 41 + 3) as usize + (r >> 16) as usize % period;
                        let pattern: Vec<u64> = (0..period).map(|_| random() % (1 << m)).collect();
                        let stream: Vec<(u64, Addr, ModuleId)> = (0..n)
                            .map(|k| {
                                let module = ModuleId::new(pattern[k % period]);
                                (k as u64, Addr::new(k as u64), module)
                            })
                            .collect();
                        let label =
                            format!("m={m} t={t} q={q_in} q'={q_out} period={period} n={n}");
                        let (oracle, timings) = MemorySystem::new(cfg).run_timed(&stream);
                        let request = |k: usize| (stream[k].0, stream[k].2);
                        let known = Some(period as u64);
                        sys.run_periodic(n, known, &request, &mut out, |_, _| {});
                        assert_eq!(out, oracle, "{label}");
                        total += 1;
                        if matched_at(cfg, n, known, &request).is_some() {
                            copied += 1;
                            let t = cfg.t_cycles();
                            blocked += timings.iter().filter(|r| r.done > r.start + t).count();
                        }
                    }
                }
            }
        }
        assert!(
            2 * copied > total,
            "only {copied} of {total} streams copied"
        );
        assert!(blocked > 0, "no copied stream blocked a completion");
    }

    /// A repeated element id (outside the input contract) keeps its
    /// last delivery past a recurrence too, as in the oracle.
    #[test]
    fn repeated_element_ids_keep_their_last_delivery() {
        let cfg = MemConfig::new(3, 3).unwrap();
        let stream: Vec<(u64, Addr, ModuleId)> = (0..512u64)
            .map(|i| (i % 100, Addr::new(i), ModuleId::new(i % 3)))
            .collect();
        let request = |k: usize| (stream[k].0, stream[k].2);
        assert!(matched_at(cfg, 512, Some(3), &request).is_some());
        let mut out = AccessStats::default();
        MemorySystem::new(cfg).run_periodic(512, Some(3), &request, &mut out, |_, _| {});
        assert_eq!(out, MemorySystem::new(cfg).run_timed(&stream).0);
    }

    /// Every request's timing from the periodic pass, solved or copied,
    /// is the one the cycle oracle records for it: the co-run
    /// de-multiplexer charges each stream from these. Every registered
    /// map, five queue shapes, three streams of random addresses mapped
    /// onto the map's modules, each run with its pattern's period:
    ///
    /// * a long aperiodic stream, with no period, solved to the end;
    /// * a 7-address pattern repeated, which recurs, so most of its
    ///   timings are copied past the recurrence;
    /// * a 3-request pattern over two addresses on a `T = 128` memory,
    ///   whose grants run more than one 64-slot bitmap word ahead of the
    ///   floor, so the bus bitmap has to widen.
    #[test]
    fn every_request_timing_matches_the_oracle() {
        use cfva_core::mapping::Registry;

        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut random = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for (spec, map) in Registry::builtin().all_maps() {
            let bits = map.module_bits();
            let base = MemConfig::from_spec(&spec).unwrap();
            let stream = |addrs: Vec<u64>| -> Vec<(u64, Addr, ModuleId)> {
                addrs
                    .into_iter()
                    .enumerate()
                    .map(|(k, a)| (k as u64, Addr::new(a), map.module_of(Addr::new(a))))
                    .collect()
            };
            let aperiodic = stream((0..3000).map(|_| random() % (1 << 20)).collect());
            let pattern: Vec<u64> = (0..7).map(|_| random() % (1 << 20)).collect();
            let recurring = stream((0..3000).map(|k| pattern[k % 7]).collect());
            let pair = [random() % (1 << 20), random() % (1 << 20)];
            let far = stream((0..600).map(|k| pair[usize::from(k % 3 == 0)]).collect());
            for (q_in, q_out) in [(1, 1), (2, 1), (1, 2), (4, 2), (8, 8)] {
                let cfg = base.with_queues(q_in, q_out).unwrap();
                let slow = MemConfig::new(bits, 7)
                    .unwrap()
                    .with_queues(q_in, q_out)
                    .unwrap();
                for (name, cfg, known, requests) in [
                    ("aperiodic", cfg, None, &aperiodic),
                    ("recurring", cfg, Some(7), &recurring),
                    ("far", slow, Some(3), &far),
                ] {
                    let case = format!("{spec} q = ({q_in}, {q_out}), {name}");
                    let (stats, timings) = MemorySystem::new(cfg).run_timed(requests);
                    let request = |k: usize| {
                        let (element, _, module) = requests[k];
                        (element, module)
                    };
                    let n = requests.len();
                    let mut seen = Vec::with_capacity(n);
                    let mut out = AccessStats::default();
                    MemorySystem::new(cfg).run_periodic(
                        n,
                        known,
                        &request,
                        &mut out,
                        |j, timing: &Timing| seen.push((j, *timing)),
                    );
                    assert_eq!(out, stats, "{case}: statistics");
                    assert_eq!(seen.len(), n, "{case}: one timing per request");
                    for (k, (j, timing)) in seen.into_iter().enumerate() {
                        assert_eq!((j, timing), (k, timings[k]), "{case}: request {k}");
                    }

                    let copied = matched_at(cfg, n, known, &request).map_or(0, |to| n - to);
                    let ahead = timings
                        .iter()
                        .map(|t| t.grant - (t.issue + cfg.t_cycles()))
                        .max();
                    match name {
                        "aperiodic" => assert_eq!(copied, 0, "{case}: nothing recurs"),
                        "recurring" => assert!(2 * copied > n, "{case}: {copied} copied"),
                        _ => assert!(ahead > Some(64), "{case}: grants {ahead:?} ahead"),
                    }
                }
            }
        }
    }
}
