//! The request-order solver: exact single-port statistics in one pass
//! over the requests, without stepping cycles.
//!
//! With one port the processor issues at most one request per cycle,
//! module queues are FIFO and the return bus grants the oldest issued
//! request first, so a request's timing depends only on the requests
//! issued before it. Request `j` goes to module `m`; `p_k(j)` is the
//! `k`-th earlier request on `m`, and a term is left out when that
//! request does not exist. In issue order the solver computes
//!
//! * issue `I_j = max(I_{j-1} + 1, S_{p_q(j)} + 1)` (`I_0 = 0`): the
//!   next cycle, once the input queue (`q` deep) has room;
//! * service start `S_j = max(I_j, D_{p_1(j)})`: once the previous
//!   service on `m` has left the module's service stage;
//! * completion `D_j = max(S_j + T, G_{p_q'(j)} + 1)`: after `T`
//!   cycles, once the output queue (`q'` deep) has room;
//! * bus grant `G_j`: the first cycle `≥ D_j` whose bus slot no
//!   earlier request holds — earlier requests win every tie, and a
//!   later one never delays an earlier one. The datum arrives at
//!   `G_j + 1`.
//!
//! Stalls, conflicts, input-queue occupancy and per-module busy time
//! follow from these times (see [`Solved`]). The statistics are
//! bit-identical to the cycle oracle's — asserted by
//! `tests/periodic_engine.rs` (aperiodic, back-pressured and deep-queue
//! streams), `tests/analytic.rs` and the root engine-agreement suites.
//!
//! Each request's times are the [`Timing`](crate::Timing) the cycle
//! oracle records for it, stalls charged to it included. The solver
//! serves every single-port run that no cheaper path covers under the
//! engines other than [`Engine::Cycle`](crate::Engine::Cycle):
//! [`Engine::Periodic`](crate::Engine::Periodic) (with its recurrence
//! detector reading [`Solver::signature`]), the `FastPath → Periodic`
//! chain (which also carries every single-port static multi-stream
//! co-run), and the analytic estimator's probes and direct runs.
//! `Engine::Cycle` runs,
//! multi-port runs and work-conserving co-runs step the cycle oracle.

use cfva_core::{Addr, ModuleId};

use crate::stats::AccessStats;
use crate::system::{MemorySystem, Timing};

/// Reusable state of the solver, kept on the [`MemorySystem`].
#[derive(Debug, Default)]
pub(crate) struct Solver {
    /// Requests seen so far, per module.
    count: Vec<u64>,
    /// Cycle the last request on each module left its service stage.
    done: Vec<u64>,
    /// Service start and bus grant of each module's most recent
    /// requests: a ring of `ring` slots per module, one request per
    /// slot in module order.
    starts: Vec<u64>,
    grants: Vec<u64>,
    ring: usize,
    /// Bus slots held by earlier requests, as a ring of 64-slot words
    /// tagged with the word they hold: slot `c` is bit `c % 64` of word
    /// `c / 64`. A word whose tag differs holds nothing, so words no
    /// later request can reach need no clearing; the ring doubles when
    /// a grant would land a whole ring ahead of the reachable floor.
    bus: Vec<(u64, u64)>,
    /// The highest bus slot taken so far.
    top: u64,
    /// The deepest back-reference, `max(q, q')`.
    depth: usize,
}

/// One solved request, plus the run's totals through it.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Solved {
    /// The request's timing, as the cycle oracle records it.
    pub(crate) timing: Timing,
    /// Latency of the prefix ending at this request.
    pub(crate) latency: u64,
    /// Stall cycles, conflicts and peak input-queue occupancy of the
    /// prefix.
    pub(crate) stall_cycles: u64,
    pub(crate) conflicts: u64,
    pub(crate) max_in_q: usize,
}

impl Solver {
    /// Sizes the state for a run of `n` requests on `modules` modules.
    /// The rings hold the deepest back-reference, `max(q, q')`
    /// requests, rounded up to a power of two; a stream shorter than
    /// that never reaches back so far.
    fn prepare(&mut self, modules: usize, depth: usize, n: usize) {
        self.depth = depth;
        self.ring = depth.min(n).max(1).next_power_of_two();
        self.top = 0;
        self.count.clear();
        self.count.resize(modules, 0);
        self.done.clear();
        self.done.resize(modules, 0);
        let slots = modules * self.ring;
        if self.starts.len() < slots {
            self.starts.resize(slots, 0);
            self.grants.resize(slots, 0);
        }
        if self.bus.is_empty() {
            self.bus.push((0, 0));
        }
        self.bus.fill((0, 0));
    }

    /// The held-slot bits of bus word `w`.
    fn word(&self, w: u64) -> u64 {
        let at = w as usize & (self.bus.len() - 1);
        match self.bus[at] {
            (tag, bits) if tag == w => bits,
            _ => 0,
        }
    }

    /// Takes the first bus slot at or after `ready` that no earlier
    /// request holds, and returns it. No later request searches below
    /// `floor`.
    fn grant(&mut self, ready: u64, floor: u64) -> u64 {
        let mut w = ready / 64;
        let mut free = !self.word(w) & (u64::MAX << (ready % 64));
        while free == 0 {
            w += 1;
            free = !self.word(w);
        }
        let slot = w * 64 + u64::from(free.trailing_zeros());
        // Every word that still holds a reachable slot lies in
        // `[floor / 64, floor / 64 + ring)`, so distinct ones never
        // share a ring entry.
        let base = floor / 64;
        while w - base >= self.bus.len() as u64 {
            let wider = vec![(0, 0); 2 * self.bus.len()];
            for (tag, bits) in std::mem::replace(&mut self.bus, wider) {
                if bits != 0 && tag >= base {
                    let at = tag as usize & (self.bus.len() - 1);
                    self.bus[at] = (tag, bits);
                }
            }
        }
        let at = w as usize & (self.bus.len() - 1);
        let entry = &mut self.bus[at];
        if entry.0 != w {
            *entry = (w, 0);
        }
        entry.1 |= 1 << (slot % 64);
        self.top = self.top.max(slot);
        slot
    }

    /// Writes into `sig` the state every later request depends on, in
    /// cycles relative to `at`, the first cycle the next request may
    /// issue (`I_j + 1` after request `j`). Each value is clamped where
    /// it can no longer delay a later request, which issues at or after
    /// `at`, starts there or later and so completes at `at + t` or
    /// later. Per module of `modules`: the ring entries held (at most
    /// `max(q, q')` are ever read back), `done` (below `at` reads as 0),
    /// then each held entry's start (below `at` reads as −1) and grant
    /// (below `at + t − 1` reads as `t − 1`), most recent first. Then
    /// every held bus slot at or above `at + t`. Two states with equal
    /// signatures, facing the same module sequence, evolve identically
    /// up to a constant time shift.
    pub(crate) fn signature(&self, modules: &[usize], at: u64, t: u64, sig: &mut Vec<i64>) {
        let rel = |c: u64| c as i64 - at as i64;
        let mask = self.ring - 1;
        sig.clear();
        for &m in modules {
            let rank = self.count[m];
            let held = rank.min(self.depth as u64);
            sig.push(held as i64);
            sig.push(rel(self.done[m]).max(0));
            for back in 1..=held {
                let slot = m * self.ring + ((rank - back) as usize & mask);
                sig.push(rel(self.starts[slot]).max(-1));
                sig.push(rel(self.grants[slot]).max(t as i64 - 1));
            }
        }
        let from = at + t;
        for w in from / 64..=self.top / 64 {
            let mut bits = self.word(w);
            if w == from / 64 {
                bits &= u64::MAX << (from % 64);
            }
            while bits != 0 {
                sig.push(rel(w * 64 + u64::from(bits.trailing_zeros())));
                bits &= bits - 1;
            }
        }
    }
}

/// Records a delivery granted the bus at `grant` for one element. A
/// repeated element id (outside the input contract) keeps its last
/// delivery, as in the oracle.
pub(crate) fn deliver(arrival: &mut u64, grant: u64) {
    if *arrival == u64::MAX || *arrival <= grant {
        *arrival = grant + 1;
    }
}

impl MemorySystem {
    /// Solves a single-port request stream in request order (see the
    /// module docs); statistics land in `out`, reusing its buffers.
    /// `visit` sees every request once its timing is known, with the
    /// solver state after it, and stops the pass by returning `false`;
    /// `out` then holds the statistics of the requests solved so far,
    /// and the returned totals are those through the last one.
    ///
    /// # Panics
    ///
    /// Same conditions as [`run_plan`](Self::run_plan).
    pub(crate) fn solve<F, V>(
        &mut self,
        n: usize,
        request: &F,
        out: &mut AccessStats,
        mut visit: V,
    ) -> Solved
    where
        F: Fn(usize) -> (u64, Addr, ModuleId),
        V: FnMut(usize, &Solved, &Solver) -> bool,
    {
        let cfg = self.cfg;
        debug_assert_eq!(cfg.ports(), 1, "the solver models one port");
        let modules = cfg.module_count() as usize;
        let (t, q_in, q_out) = (cfg.t_cycles(), cfg.q_in(), cfg.q_out());
        let s = &mut self.solver;
        s.prepare(modules, q_in.max(q_out), n);
        let mask = s.ring - 1;
        out.arrival.clear();
        out.arrival.resize(n, u64::MAX);
        out.module_busy.clear();
        out.module_busy.resize(modules, 0);

        let mut sum = Solved::default();
        let mut next_issue = 0;
        for j in 0..n {
            let (element, _, module) = request(j);
            let midx = module.get() as usize;
            assert!(
                midx < modules,
                "request targets module {module} but memory has {modules}"
            );
            let rank = s.count[midx];
            let base = midx * s.ring;
            // The ring slot of the request `back` places earlier on the
            // module, when there is one.
            let earlier = |back: usize| {
                (rank >= back as u64).then(|| base + ((rank - back as u64) as usize & mask))
            };

            let mut issue = next_issue;
            if let Some(at) = earlier(q_in) {
                issue = issue.max(s.starts[at] + 1);
            }
            let start = issue.max(s.done[midx]);
            let mut done = start + t;
            if let Some(at) = earlier(q_out) {
                done = done.max(s.grants[at] + 1);
            }
            // Input-queue occupancy once issued: this request plus the
            // earlier ones on the module that start at or after its
            // issue cycle (starts ascend in module order).
            let mut in_q = 1;
            for back in 1..q_in {
                match earlier(back) {
                    Some(at) if s.starts[at] >= issue => in_q += 1,
                    _ => break,
                }
            }
            // Every later request completes at or after `issue + t`.
            let grant = s.grant(done, issue + t);

            let slot = base + (rank as usize & mask);
            s.starts[slot] = start;
            s.grants[slot] = grant;
            s.done[midx] = done;
            s.count[midx] = rank + 1;
            deliver(&mut out.arrival[element as usize], grant);
            out.module_busy[midx] += t;

            sum.timing = Timing {
                issue,
                start,
                done,
                grant,
                stalls: issue - next_issue,
            };
            sum.latency = sum.latency.max(grant + 2);
            sum.stall_cycles += sum.timing.stalls;
            sum.conflicts += u64::from(start > issue);
            sum.max_in_q = sum.max_in_q.max(in_q);
            next_issue = issue + 1;
            if !visit(j, &sum, &*s) {
                break;
            }
        }

        // The first request issues at cycle 0: the latency runs to the
        // last arrival, inclusive.
        out.latency = sum.latency.max(1);
        out.elements = n as u64;
        out.stall_cycles = sum.stall_cycles;
        out.conflicts = sum.conflicts;
        out.max_in_q = sum.max_in_q;
        sum
    }
}
