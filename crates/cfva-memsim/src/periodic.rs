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
//! boundary of the stream's minimal module-sequence period the
//! detector takes the solver's **state signature**
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
//! ## The minimal period
//!
//! The planner attaches the paper's `P_x` to every plan it builds, in
//! order or out of order
//! ([`AccessPlan::period`](cfva_core::plan::AccessPlan::period)), and a
//! round-robin co-run of equal-length plans carries `k·lcm(P_i)`
//! (`multi.rs`). With a known period `P` and `3P ≤ n`, the KMP scan
//! (`minimal_period`) reads only the first `2P` requests: by Fine–Wilf
//! their minimal period divides `P` and holds for the whole stream. A
//! known `P > n/3` leaves fewer than three periods: the stream is
//! solved unscanned. Other streams are scanned until their period is
//! found or known to exceed `n/3`.
//!
//! A stream with no recurrence to detect — shorter than three whole
//! periods of its module sequence, which covers short and aperiodic
//! vectors — or whose transient outlasts the detection budget is simply
//! solved to the end. Multi-port runs step the cycle oracle, exactly as
//! an [`Engine::Cycle`](crate::Engine::Cycle) run.

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
    /// The stream's module sequence and the KMP failure function over
    /// it (shared with the analytic estimator, which detects periods
    /// the same way).
    pub(crate) seq: Vec<u32>,
    pub(crate) fail: Vec<usize>,
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

/// Minimal period of the module sequence `request(0..n).module`, or
/// some value above `cap` as soon as the period is known to exceed it,
/// for `n >= 1` — the standard KMP border argument: `n - fail[n-1]`
/// satisfies `module(k) == module(k + p)` for every valid `k`, even
/// when `p` does not divide `n`. A prefix's minimal period never shrinks
/// as the prefix grows, so the scan stops at the first prefix whose
/// period exceeds `cap`. Once the scanned prefix holds two whole
/// periods, the rest is checked against it directly; the tables grow
/// again only if that check fails. `seq` receives the module sequence
/// as far as the tables go.
pub(crate) fn minimal_period<F>(
    n: usize,
    request: &F,
    seq: &mut Vec<u32>,
    fail: &mut Vec<usize>,
    cap: u64,
) -> u64
where
    F: Fn(usize) -> (u64, ModuleId),
{
    let module = |k: usize| request(k).1.get() as u32;
    seq.clear();
    seq.push(module(0));
    fail.clear();
    fail.push(0);
    let mut len = 0usize;
    let mut i = 1;
    while i < n {
        let p = i - len;
        if i >= 2 * p {
            // The prefix is p-periodic: continue it without the tables.
            let start = i;
            let mut j = i % p;
            // cfva-lint: allow(L002, reason = "j < p <= start = seq.len(): the index stays inside the scanned prefix")
            while i < n && module(i) == seq[j] {
                i += 1;
                j += 1;
                if j == p {
                    j = 0;
                }
            }
            if i == n {
                return p as u64;
            }
            // A mismatch: the verified stretch keeps period p, so its
            // table entries follow in closed form; resume the scan.
            for j in start..i {
                // cfva-lint: allow(L002, reason = "j >= start >= 2p, so j - p indexes the already-filled prefix")
                seq.push(seq[j - p]);
                fail.push(j + 1 - p);
            }
            len = i - p;
        }
        let mi = module(i);
        seq.push(mi);
        while len > 0 && mi != seq[len] {
            // cfva-lint: allow(L002, reason = "the loop condition len > 0 bounds len - 1 below the table length")
            len = fail[len - 1];
        }
        if mi == seq[len] {
            len += 1;
        }
        fail.push(len);
        i += 1;
        if (i - len) as u64 > cap {
            return (i - len) as u64;
        }
    }
    (n - len) as u64
}

/// The recurrence detector, fed by the solver pass.
pub(crate) struct Detection<'s> {
    scratch: &'s mut PeriodicScratch,
    t: u64,
    /// Minimal period of the stream's module sequence, in requests.
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

/// The minimal period of the stream's module sequence if it is at most
/// `n / 3`, else `None`; `scratch.seq` then starts with one period's
/// modules. A known true period `known` bounds the KMP scan to the
/// first `2 · known` requests, or skips it when `known > n / 3` (see
/// the module docs).
fn detectable_period<F>(
    n: usize,
    known: Option<u64>,
    request: &F,
    scratch: &mut PeriodicScratch,
) -> Option<usize>
where
    F: Fn(usize) -> (u64, ModuleId),
{
    let cap = n / 3;
    let len = match known {
        None => n,
        Some(known) => {
            2 * usize::try_from(known)
                .ok()
                .filter(|p| (1..=cap).contains(p))?
        }
    };
    let p = minimal_period(
        len,
        request,
        &mut scratch.seq,
        &mut scratch.fail,
        cap as u64,
    );
    let p = usize::try_from(p).ok().filter(|&p| p <= cap)?;
    debug_assert!(
        known.is_none() || (p..n).all(|k| request(k).1 == request(k - p).1),
        "an attached period {known:?} that is not a period of the stream"
    );
    Some(p)
}

impl<'s> Detection<'s> {
    /// Sets up detection for a single-port stream whose module sequence
    /// has the true period `known`, if one is known; `None` when the
    /// stream has no usable recurrence: detection needs at least three
    /// whole periods.
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
        if n < 4 {
            return None;
        }
        let p = detectable_period(n, known, request, scratch)?;
        scratch.modules.clear();
        scratch
            .modules
            .extend(scratch.seq.iter().take(p).map(|&m| m as usize));
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

    fn stream(mods: &[u32]) -> impl Fn(usize) -> (u64, ModuleId) {
        let mods = mods.to_vec();
        move |k| (k as u64, ModuleId::new(mods[k].into()))
    }

    /// The detector on the two long conflicted plans the `periodic`
    /// bench times, once with the plan's attached period and once
    /// scanning for it: detection starts, a recurrence is found, and at
    /// least 90% of the requests are copied rather than solved. A
    /// detector that never starts or never matches, on either path,
    /// fails here, where a timing ratio on a noisy machine might not.
    #[test]
    fn detection_copies_most_of_long_conflicted_plans() {
        use cfva_core::mapping::{Interleaved, XorMatched};
        use cfva_core::plan::{Planner, Strategy};
        use cfva_core::VectorSpec;

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
            for known in [None, plan.period()] {
                let mut scratch = PeriodicScratch::default();
                let mut detection = Detection::new(&cfg, n, known, &request, &mut scratch)
                    .expect("detection starts");
                let mut out = AccessStats::default();
                MemorySystem::new(cfg).solve(n, &request, &mut out, |j, sum, solver| {
                    detection.visit(j, sum, solver)
                });
                let to = detection.matched_at().expect("a recurrence is found");
                let copied = n - to;
                assert!(
                    10 * copied >= 9 * n,
                    "{vec:?}, period {known:?}: matched at request {to}, only {copied} of {n} copied"
                );
            }
        }
    }

    /// Every request's timing from the periodic pass, solved or copied,
    /// is the one the cycle oracle records for it: the co-run
    /// de-multiplexer charges each stream from these. Every registered
    /// map, five queue shapes, three streams of random addresses mapped
    /// onto the map's modules:
    ///
    /// * a long aperiodic stream, solved to the end;
    /// * a short address pattern repeated, which recurs, so most of its
    ///   timings are copied past the recurrence;
    /// * a two-address pattern on a `T = 128` memory, whose grants run
    ///   more than one 64-slot bitmap word ahead of the floor, so the
    ///   bus bitmap has to widen.
    #[test]
    fn every_request_timing_matches_the_oracle() {
        use cfva_core::mapping::Registry;
        use cfva_core::Addr;

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
                for (name, cfg, requests) in [
                    ("aperiodic", cfg, &aperiodic),
                    ("recurring", cfg, &recurring),
                    ("far", slow, &far),
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
                        None,
                        &request,
                        &mut out,
                        |j, timing: &Timing| seen.push((j, *timing)),
                    );
                    assert_eq!(out, stats, "{case}: statistics");
                    assert_eq!(seen.len(), n, "{case}: one timing per request");
                    for (k, (j, timing)) in seen.into_iter().enumerate() {
                        assert_eq!((j, timing), (k, timings[k]), "{case}: request {k}");
                    }

                    let mut scratch = PeriodicScratch::default();
                    let copied = Detection::new(&cfg, n, None, &request, &mut scratch)
                        .and_then(|mut detection| {
                            MemorySystem::new(cfg).solve(n, &request, &mut out, |j, sum, s| {
                                detection.visit(j, sum, s)
                            });
                            detection.matched_at()
                        })
                        .map_or(0, |to| n - to);
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

    #[test]
    fn minimal_period_of_streams() {
        let period = |seq: &[u32]| {
            minimal_period(
                seq.len(),
                &stream(seq),
                &mut Vec::new(),
                &mut Vec::new(),
                u64::MAX,
            )
        };
        assert_eq!(period(&[0, 1, 2, 0, 1, 2, 0, 1]), 3);
        assert_eq!(period(&[5, 5, 5, 5]), 1);
        assert_eq!(period(&[0, 1, 2, 3]), 4);
        // Weak periodicity: p need not divide n.
        assert_eq!(period(&[2, 7, 2, 7, 2]), 2);
    }

    #[test]
    fn minimal_period_stops_past_the_cap() {
        let s = stream(&[0, 1, 2, 3, 4, 5, 6, 0, 1, 2, 3, 4, 5, 6]);
        let (mut seq, mut fail) = (Vec::new(), Vec::new());
        assert_eq!(minimal_period(14, &s, &mut seq, &mut fail, u64::MAX), 7);
        assert_eq!(minimal_period(14, &s, &mut seq, &mut fail, 7), 7);
        // Known to exceed 4 after five elements: the scan stops there.
        assert_eq!(minimal_period(14, &s, &mut seq, &mut fail, 4), 5);
        assert_eq!(seq, [0, 1, 2, 3, 4]);
        // A long periodic run that breaks late still finds the full
        // period, and the tables resume exactly.
        let mut mods: Vec<u32> = (0..40).map(|k| k % 3).collect();
        mods.push(7);
        mods.extend_from_within(..41);
        let s = stream(&mods);
        assert_eq!(minimal_period(82, &s, &mut seq, &mut fail, u64::MAX), 41);
        assert_eq!(seq, mods);
    }

    #[test]
    fn minimal_period_matches_brute_force() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let (mut seq, mut fail) = (Vec::new(), Vec::new());
        for trial in 0..2000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            // Random repeats of a random pattern, sometimes perturbed.
            let n = (state % 60 + 1) as usize;
            let period = (state >> 8) % 7 + 1;
            let pattern: Vec<u32> = (0..period)
                .map(|k| ((state >> (16 + 3 * k)) % 3) as u32)
                .collect();
            let mut mods: Vec<u32> = (0..n).map(|k| pattern[k % period as usize]).collect();
            if trial % 3 == 0 {
                let at = (state >> 40) as usize % n;
                mods[at] = 9;
            }
            let brute = (1..=n)
                .find(|&p| (0..n - p).all(|k| mods[k] == mods[k + p]))
                .unwrap() as u64;
            let s = stream(&mods);
            assert_eq!(
                minimal_period(n, &s, &mut seq, &mut fail, u64::MAX),
                brute,
                "{mods:?}"
            );
            for cap in 0..n as u64 {
                let got = minimal_period(n, &s, &mut seq, &mut fail, cap);
                if brute <= cap {
                    assert_eq!(got, brute, "{mods:?} cap {cap}");
                } else {
                    assert!(got > cap && got <= brute, "{mods:?} cap {cap}: {got}");
                }
            }
        }
    }
}
