//! The periodic steady-state fast-forward engine.
//!
//! The module sequence of any constant-stride vector is **periodic**
//! (Valero et al.'s central observation —
//! [`ModuleMap::period`](cfva_core::mapping::ModuleMap::period) gives
//! the closed form `P_x`). Once the memory system reaches steady state,
//! its entire queue/occupancy state at one period boundary is a
//! time-shifted copy of the state at the previous boundary, and every
//! later period replays the same events shifted by a constant number of
//! cycles. Simulating each of those periods — as even the event kernel
//! does — is redundant work.
//!
//! This engine is the event kernel (`kernel.rs`) with a recurrence
//! detector as its observer. At each boundary of the stream's (minimal)
//! module-sequence period the detector reads a **state signature** from
//! the kernel's queues: per occupied module, the queued / in-service /
//! output requests encoded *relative* to the boundary (request index
//! minus the boundary request, cycles minus the boundary cycle). When a
//! signature recurs, the remaining `k` whole periods are **extrapolated
//! in closed form**:
//!
//! * per-element arrivals — each delivery in the reference window
//!   repeats `k` times, shifted by the period's request span and cycle
//!   span;
//! * stall cycles, per-module busy time and queueing conflicts — the
//!   reference window's deltas, times `k`,
//!
//! and the kernel state is shifted (held requests remapped to their
//! stream counterparts `k` periods later, all clocks advanced) so the
//! kernel finishes the tail and the drain exactly as the oracle would.
//! Stats are therefore bit-identical to the cycle engine — asserted
//! across every registered `ModuleMap` by `tests/periodic_engine.rs`
//! and the engine-agreement property suite. A traced run is not
//! extrapolated (no production caller traces a long stream), so its
//! trace is the kernel's own and equal to the oracle's as well.
//!
//! A stream with no recurrence to detect — shorter than three whole
//! periods of its module sequence, which covers short and aperiodic
//! vectors — never starts detection: untraced on one port, it is
//! solved in one pass in request order (`solver.rs`), the documented
//! fallback chain `FastPath → Periodic → solver`. Traced and multi-port
//! runs, and streams whose transient outlasts the detection budget,
//! run exactly as an [`Engine::Event`](crate::Engine::Event) run.

use std::collections::VecDeque;

use cfva_core::{Addr, ModuleId};

use crate::config::MemConfig;
use crate::kernel::{Observer, Run};
use crate::stats::AccessStats;
use crate::system::MemorySystem;

/// Reusable buffers of the periodic engine, kept on the
/// [`MemorySystem`] so the `O(n)` working sets of repeated runs
/// through a long-lived system (the batch-runner hot path) are
/// allocated once. The per-boundary records themselves are small
/// (`O(occupied modules)`, at most a handful per run) and are built
/// fresh each detection.
#[derive(Debug, Default)]
pub(crate) struct PeriodicScratch {
    /// The stream's module sequence and the KMP failure function over
    /// it (shared with the analytic estimator, which detects periods
    /// the same way).
    pub(crate) seq: Vec<u32>,
    pub(crate) fail: Vec<usize>,
    /// Delivery log while detection is active: `(request index, arrival
    /// cycle)` in delivery order.
    deliveries: Vec<(u64, u64)>,
}

/// One module's slot in a boundary state signature, in *relative*
/// coordinates: request indices relative to the boundary request,
/// cycles relative to the boundary cycle. Two boundaries with equal
/// signatures evolve identically (shifted) from there on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SigEntry {
    /// Start of one occupied module's slots.
    Module(usize),
    /// A queued input request.
    InQ { req: i64, issued: i64 },
    /// The in-service request and its completion cycle.
    Service { req: i64, issued: i64, ready: i64 },
    /// A finished request waiting on the return bus.
    OutQ { req: i64, issued: i64 },
}

/// Everything recorded at one period boundary.
#[derive(Debug)]
struct BoundaryRec {
    /// Requests issued at capture (a multiple of the period).
    req: u64,
    /// The cycle whose processing ended at this boundary.
    cycle: u64,
    stall_cycles: u64,
    conflicts: u64,
    delivered: u64,
    /// Length of the delivery log at capture.
    log_pos: usize,
    /// Busy cycles per period module, aligned with
    /// `Detection::period_modules`.
    busy: Vec<u64>,
    sig: Vec<SigEntry>,
}

/// The recurrence detector: a kernel [`Observer`] that captures a
/// signature at each period boundary and, on a recurrence,
/// fast-forwards the run.
struct Detection<'s> {
    scratch: &'s mut PeriodicScratch,
    /// Whether detection is still running.
    active: bool,
    /// Whether whole periods were skipped.
    extrapolated: bool,
    n: u64,
    /// Minimal period of the stream's module sequence, in requests.
    p: u64,
    /// Issued-request count to capture the next signature at.
    next_boundary: u64,
    /// Give up once the next boundary would exceed this (transient too
    /// long, or too little stream left to profit).
    limit: u64,
    /// Sorted distinct modules of one period — the only modules that
    /// ever hold work, since the module sequence is periodic.
    period_modules: Vec<usize>,
    /// Recent boundary records; a new signature is compared against all
    /// of them, so recurrences spanning several periods (beat patterns)
    /// are caught too.
    ring: VecDeque<BoundaryRec>,
}

/// How many recent boundaries a new signature is compared against.
const SIGNATURE_RING: usize = 4;

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
    F: Fn(usize) -> (u64, Addr, ModuleId),
{
    let module = |k: usize| request(k).2.get() as u32;
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
            // cfva-lint: allow(L002, reason = "i % p < p <= start = seq.len(): the index stays inside the scanned prefix")
            while i < n && module(i) == seq[i % p] {
                i += 1;
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

impl<'s> Detection<'s> {
    /// Sets up detection for a single-port stream, or `None` when the
    /// stream has no usable recurrence: boundaries are anchored on the
    /// processor's request counter, and detection needs at least three
    /// whole periods.
    fn new<F>(
        cfg: &MemConfig,
        n: usize,
        request: &F,
        scratch: &'s mut PeriodicScratch,
    ) -> Option<Self>
    where
        F: Fn(usize) -> (u64, Addr, ModuleId),
    {
        if n < 4 {
            return None;
        }
        let n_u64 = n as u64;
        let p = minimal_period(n, request, &mut scratch.seq, &mut scratch.fail, n_u64 / 3);
        if 3 * p > n_u64 {
            return None;
        }
        let mut period_modules: Vec<usize> = scratch.seq[..p as usize]
            .iter()
            .map(|&m| m as usize)
            .collect();
        period_modules.sort_unstable();
        period_modules.dedup();
        // Startup transients are bounded by the pipeline filling (a few
        // service times and queue depths); past this allowance the
        // stream is not settling into a one-boundary recurrence and the
        // plain event run is the right engine.
        let transient = 4 * (cfg.t_cycles() + (cfg.q_in() + cfg.q_out()) as u64) + 64;
        scratch.deliveries.clear();
        Some(Detection {
            scratch,
            active: true,
            extrapolated: false,
            n: n_u64,
            p,
            next_boundary: p,
            limit: (3 * p).max(p + transient).min(n_u64 - p),
            period_modules,
            ring: VecDeque::new(),
        })
    }

    /// The relative state signature and counters at a boundary, read
    /// from the kernel state.
    fn capture(&self, run: &Run<'_>) -> BoundaryRec {
        let req = run.next as u64;
        let kernel = run.kernel();
        let rel_req = |r: u32| i64::from(r) - req as i64;
        let rel_cyc = |c: u64| c as i64 - run.cycle as i64;
        let issued = |r: u32| rel_cyc(kernel.issue_at[r as usize]);
        let mut sig = Vec::new();
        for &m in &self.period_modules {
            let bank = &kernel.banks[m];
            if !bank.is_occupied() {
                continue;
            }
            sig.push(SigEntry::Module(m));
            for &r in &bank.inq {
                sig.push(SigEntry::InQ {
                    req: rel_req(r),
                    issued: issued(r),
                });
            }
            if let Some((r, ready)) = bank.svc {
                sig.push(SigEntry::Service {
                    req: rel_req(r),
                    issued: issued(r),
                    ready: rel_cyc(ready),
                });
            }
            for &r in &bank.outq {
                sig.push(SigEntry::OutQ {
                    req: rel_req(r),
                    issued: issued(r),
                });
            }
        }
        BoundaryRec {
            req,
            cycle: run.cycle,
            stall_cycles: run.stall_cycles,
            conflicts: run.conflicts,
            delivered: run.delivered,
            log_pos: self.scratch.deliveries.len(),
            busy: self
                .period_modules
                .iter()
                .map(|&m| run.out.module_busy[m])
                .collect(),
            sig,
        }
    }
}

impl Observer for Detection<'_> {
    fn delivered(&mut self, k: usize, when: u64) {
        if self.active {
            self.scratch.deliveries.push((k as u64, when));
        }
    }

    fn boundary_at(&self) -> usize {
        if self.active {
            self.next_boundary as usize
        } else {
            usize::MAX
        }
    }

    /// Capture, match, fast-forward.
    fn boundary<F>(&mut self, run: &mut Run<'_>, request: &F)
    where
        F: Fn(usize) -> (u64, Addr, ModuleId),
    {
        let rec = self.capture(run);
        let Some(prev) = self.ring.iter().rev().find(|r| r.sig == rec.sig) else {
            self.ring.push_back(rec);
            if self.ring.len() > SIGNATURE_RING {
                self.ring.pop_front();
            }
            self.next_boundary += self.p;
            // Past the limit the transient exhausted the budget: finish
            // as a plain event run.
            self.active = self.next_boundary <= self.limit;
            return;
        };
        // Whether or not any periods are left to skip, the detector has
        // done its job; the kernel finishes the tail and the drain.
        self.active = false;
        // Steady state: the window (prev, rec] will replay, time-shifted,
        // `k` more times. Skip them.
        let span = rec.req - prev.req;
        let dc = rec.cycle - prev.cycle;
        let k = (self.n - rec.req) / span;
        if k == 0 {
            return;
        }
        self.extrapolated = true;
        // Aggregate statistics of the skipped periods.
        run.stall_cycles += k * (rec.stall_cycles - prev.stall_cycles);
        run.conflicts += k * (rec.conflicts - prev.conflicts);
        let window_delivered = rec.delivered - prev.delivered;
        debug_assert_eq!(
            window_delivered, span,
            "matched boundaries must deliver one period per window"
        );
        run.delivered += k * window_delivered;
        run.next += (k * span) as usize;
        for (i, &m) in self.period_modules.iter().enumerate() {
            run.out.module_busy[m] += k * (rec.busy[i] - prev.busy[i]);
        }

        // Per-element arrivals of the skipped periods: every delivery in
        // the reference window recurs k times, shifted in request index
        // and time.
        let mut window_last = 0;
        for &(q, a) in &self.scratch.deliveries[prev.log_pos..rec.log_pos] {
            window_last = window_last.max(a);
            for i in 1..=k {
                let (element, _, _) = request((q + i * span) as usize);
                run.out.arrival[element as usize] = a + i * dc;
            }
        }
        run.last_arrival = run.last_arrival.max(window_last + k * dc);

        // Fast-forward the live machine state: every held request
        // becomes its stream counterpart k periods later, all clocks
        // advance k·dc.
        run.shift(&self.period_modules, k * dc, k * span, request);
    }
}

impl MemorySystem {
    /// The periodic steady-state fast-forward engine: the event kernel
    /// with the recurrence detector as its observer (see the module
    /// docs). A stream with no recurrence to detect runs on the
    /// request-order solver when untraced on one port, and on the plain
    /// kernel otherwise. Statistics land in `out`, reusing its buffers.
    ///
    /// # Panics
    ///
    /// Same conditions as [`run_plan`](Self::run_plan).
    pub(crate) fn run_periodic<F>(&mut self, n: usize, request: &F, out: &mut AccessStats)
    where
        F: Fn(usize) -> (u64, Addr, ModuleId),
    {
        if self.trace.is_enabled() || self.cfg.ports() != 1 {
            // Traced runs are not extrapolated (see the module docs),
            // and multi-port runs have no request-anchored boundaries.
            return self.run_event(n, request, out);
        }
        let mut scratch = std::mem::take(&mut self.periodic);
        let Some(mut detection) = Detection::new(&self.cfg, n, request, &mut scratch) else {
            self.periodic = scratch;
            return self.solve(n, request, out, |_, _| {});
        };
        self.run_kernel(n, request, out, &mut detection);
        let extrapolated = detection.extrapolated;
        self.periodic = scratch;
        // Extrapolated arrivals are written by stream position; they
        // equal the oracle's only when element ids are a permutation of
        // `0..n` (the input contract), and exactly then do the `n`
        // deliveries fill every slot. A stream breaking the contract
        // reruns as a plain event run.
        if extrapolated && out.arrival.contains(&u64::MAX) {
            self.run_event(n, request, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(mods: &[u32]) -> impl Fn(usize) -> (u64, Addr, ModuleId) {
        let mods = mods.to_vec();
        move |k| (k as u64, Addr::new(k as u64), ModuleId::new(mods[k].into()))
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
