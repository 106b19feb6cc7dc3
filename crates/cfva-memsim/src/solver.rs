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
//! streams) and the root engine-agreement suites.
//!
//! Each request's times are the [`Timing`](crate::Timing) the cycle
//! oracle records for it, stalls charged to it included. The solver
//! runs every single-port run that the conflict-free fast path does not
//! cover, with the recurrence detector of `periodic.rs` reading
//! [`Solver::signature`].
//!
//! ## State
//!
//! A step is a short chain of loads, maxima and one bus search, so its
//! cost is the layout of the state it reads:
//!
//! * **one record per module**, `2 + 2·max(q, q')` words: `D` of the
//!   module's last request, its request count (busy time, at the end),
//!   then `S` and `G` of its `max(q, q')` most recent requests, most
//!   recent first;
//! * **a sentinel** in ring entries no request has written, `u64::MAX`,
//!   whose `+ 1` wraps to 0: the terms of an absent `p_k(j)` vanish
//!   from the maxima without a branch;
//! * **a sliding bus bitmap**: slot `c` is bit `c mod 64` of word
//!   `⌊c / 64⌋`, kept in a power-of-two window of words from the lowest
//!   one a later request can reach (every later request completes at or
//!   after `I_j + T`). Words are cleared as that floor passes them, and
//!   the window doubles when a grant lands past its end.
//!
//! The depth-1 queues every service session uses run the same step
//! with the depth a compile-time constant.

use cfva_core::ModuleId;

use crate::stats::AccessStats;
use crate::system::{MemorySystem, Timing};

/// A ring entry no request has written yet (see the module docs).
const UNWRITTEN: u64 = u64::MAX;

/// Reusable state of the solver, kept on the [`MemorySystem`].
#[derive(Debug, Default)]
pub(crate) struct Solver {
    /// One record of `2 + 2 · depth` words per module (see the module
    /// docs): `done`, the request count, then `start` and `grant` of
    /// the request `b` places earlier at `2b` and `2b + 1`.
    records: Vec<u64>,
    /// The deepest back-reference, `max(q, q')`.
    depth: usize,
    bus: Bus,
}

/// Bus slots held by earlier requests, as a sliding bitmap (see the
/// module docs): word `w` sits at `w mod len`, for `w` in
/// `floor..floor + len`.
#[derive(Debug, Default)]
struct Bus {
    words: Vec<u64>,
    /// The lowest word a later request can reach.
    floor: u64,
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

impl Bus {
    /// Where word `w` sits in the bitmap.
    fn index(&self, w: u64) -> usize {
        w as usize & (self.words.len() - 1)
    }

    /// The held-slot bits of word `w`, for `w >= floor`.
    fn word(&self, w: u64) -> u64 {
        let at = self.index(w);
        let inside = w - self.floor < self.words.len() as u64;
        if inside {
            self.words[at]
        } else {
            0
        }
    }

    /// Takes the first slot at or after `ready` that no earlier request
    /// holds, and returns it. No later request searches below `floor`
    /// (at most `ready`), so the words below it are cleared.
    #[inline]
    fn grant(&mut self, ready: u64, floor: u64) -> u64 {
        for w in self.floor..(floor / 64).min(self.floor + self.words.len() as u64) {
            let at = self.index(w);
            self.words[at] = 0;
        }
        self.floor = self.floor.max(floor / 64);
        let mut w = ready / 64;
        let mut free = !self.word(w) & (u64::MAX << (ready % 64));
        while free == 0 {
            w += 1;
            free = !self.word(w);
        }
        if w - self.floor >= self.words.len() as u64 {
            self.widen(w);
        }
        let at = self.index(w);
        self.words[at] |= 1 << free.trailing_zeros();
        w * 64 + u64::from(free.trailing_zeros())
    }

    /// Doubles the bitmap until it covers word `w`.
    #[cold]
    fn widen(&mut self, w: u64) {
        while w - self.floor >= self.words.len() as u64 {
            let mut wider = vec![0; 2 * self.words.len()];
            for v in self.floor..self.floor + self.words.len() as u64 {
                let at = v as usize & (wider.len() - 1);
                wider[at] = self.word(v);
            }
            self.words = wider;
        }
    }
}

impl Solver {
    /// Sizes the state for a run on `modules` modules whose deepest
    /// back-reference is `depth` requests.
    fn prepare(&mut self, modules: usize, depth: usize) {
        self.depth = depth;
        self.records.clear();
        self.records.resize(modules * (2 + 2 * depth), UNWRITTEN);
        for record in self.records.chunks_exact_mut(2 + 2 * depth) {
            record[..2].fill(0);
        }
        // Every slot free; a bitmap widened by earlier runs stays wide.
        let width = self.bus.words.len().max(1);
        self.bus.words.clear();
        self.bus.words.resize(width, 0);
        self.bus.floor = 0;
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
        sig.clear();
        for record in modules
            .iter()
            .filter_map(|&m| self.records.chunks_exact(2 + 2 * self.depth).nth(m))
        {
            let held = record[1].min(self.depth as u64);
            sig.push(held as i64);
            sig.push(rel(record[0]).max(0));
            for entry in record[2..].chunks_exact(2).take(held as usize) {
                sig.push(rel(entry[0]).max(-1));
                sig.push(rel(entry[1]).max(t as i64 - 1));
            }
        }
        let from = at + t;
        for w in from / 64..self.bus.floor + self.bus.words.len() as u64 {
            let mut bits =
                self.bus.word(w) & (u64::MAX << if w == from / 64 { from % 64 } else { 0 });
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
        visit: V,
    ) -> Solved
    where
        F: Fn(usize) -> (u64, ModuleId),
        V: FnMut(usize, &Solved, &Solver) -> bool,
    {
        if (self.cfg.q_in(), self.cfg.q_out()) == (1, 1) {
            self.solve_queues::<true, F, V>(n, request, out, visit)
        } else {
            self.solve_queues::<false, F, V>(n, request, out, visit)
        }
    }

    /// [`solve`](Self::solve), with the depth-1 queues every service
    /// session uses (`ONE`) known at compile time.
    fn solve_queues<const ONE: bool, F, V>(
        &mut self,
        n: usize,
        request: &F,
        out: &mut AccessStats,
        mut visit: V,
    ) -> Solved
    where
        F: Fn(usize) -> (u64, ModuleId),
        V: FnMut(usize, &Solved, &Solver) -> bool,
    {
        let cfg = self.cfg;
        debug_assert_eq!(cfg.ports(), 1, "the solver models one port");
        let modules = cfg.module_count() as usize;
        let t = cfg.t_cycles();
        let (q_in, q_out) = if ONE {
            (1, 1)
        } else {
            (cfg.q_in(), cfg.q_out())
        };
        let depth = q_in.max(q_out);
        let stride = 2 + 2 * depth;
        // The start of the request `q` places earlier on the module,
        // and the grant of the one `q'` places earlier.
        let (start_q, grant_q) = (2 * q_in, 2 * q_out + 1);
        let s = &mut self.solver;
        s.prepare(modules, depth);
        let arrival = out.arrival.reset(n, u64::MAX);

        let mut sum = Solved::default();
        let mut next_issue = 0;
        for j in 0..n {
            let (element, module) = request(j);
            let midx = module.get() as usize;
            assert!(
                midx < modules,
                "request targets module {module} but memory has {modules}"
            );
            let at = midx * stride;
            // cfva-lint: allow(L002, reason = "midx < modules, asserted above, and records holds modules * stride words")
            let record = &mut s.records[at..at + stride];
            let issue = next_issue.max(record[start_q].wrapping_add(1));
            let start = issue.max(record[0]);
            let done = (start + t).max(record[grant_q].wrapping_add(1));
            // Input-queue occupancy once issued: this request plus the
            // earlier ones on the module that start at or after its
            // issue cycle (starts ascend in module order).
            let mut in_q = 1;
            for back in 1..q_in {
                // cfva-lint: allow(L002, reason = "back < q_in <= depth, so 2 * back lies inside the record")
                if record[2 * back].wrapping_add(1) <= issue {
                    break;
                }
                in_q += 1;
            }
            // Every later request completes at or after `issue + t`.
            let grant = s.bus.grant(done, issue + t);
            record[0] = done;
            record[1] += 1;
            record.copy_within(2..stride - 2, 4);
            record[2] = start;
            record[3] = grant;
            deliver(&mut arrival[element as usize], grant);

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

        out.module_busy.clear();
        out.module_busy
            .extend(s.records.chunks_exact(stride).map(|record| record[1] * t));
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
