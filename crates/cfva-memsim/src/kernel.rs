//! The event kernel: the compact simulation loop behind
//! [`Engine::Event`](crate::Engine::Event) and every traced or
//! multi-port run of the `Periodic`, `FastPath` and `Analytic` engines.
//! None of these is on the serving path: every untraced single-port run
//! of those engines — and the single-port static multi-stream co-run —
//! is solved in request order instead (`solver.rs`), without stepping
//! cycles.
//!
//! The kernel runs the oracle's four phases (complete → bus → issue →
//! start, see [`MemorySystem`]) but only at *processed* cycles — the
//! cycles where the state can change — and only over the modules that
//! have an event in that cycle:
//!
//! * **compact queues** — queues hold request indices (`u32`); a
//!   request's issue cycle lives once in a per-request table. The
//!   queues are reusable scratch on the [`MemorySystem`], so a run does
//!   not allocate;
//! * **completions in start order** — `T` is constant, so completion
//!   cycles are nondecreasing in start order: completions are a FIFO of
//!   `(ready cycle, module)`, ascending in module within a cycle;
//! * **bus arbiter** — one heap entry `(front issue cycle, module)` per
//!   module with output; a grant pops the minimum, as the oracle's scan
//!   does;
//! * **starts** — only a module that completed or was issued to this
//!   cycle can start service (every other module with queued input is
//!   already serving);
//! * **blocked completions** — a completion that finds its output queue
//!   full is retried in the cycle after that module's next bus grant,
//!   the first cycle its output queue has room.
//!
//! Between processed cycles only running services and a stalled
//! processor remain, so the kernel jumps to the next completion and
//! charges the skipped stall cycles in closed form (emitting the
//! per-cycle `Stall` trace events when tracing is on). Trace events keep
//! the oracle's order: ascending module within a phase.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use cfva_core::{Addr, ModuleId};

use crate::stats::AccessStats;
use crate::system::MemorySystem;
use crate::trace::Event;

/// One module's queues and service slot, holding request indices.
#[derive(Debug, Clone, Default)]
struct Bank {
    inq: VecDeque<u32>,
    /// The request in service and the cycle it finishes.
    svc: Option<(u32, u64)>,
    /// The in-service request finished but found the output queue full.
    blocked: bool,
    outq: VecDeque<u32>,
}

/// Reusable state of the kernel, kept on the [`MemorySystem`].
#[derive(Debug, Default)]
pub(crate) struct Kernel {
    banks: Vec<Bank>,
    /// Pending completions `(ready cycle, module)` in start order.
    completions: VecDeque<(u64, u32)>,
    /// Bus arbiter: `(issue cycle of the output front, module)`, one
    /// entry per module with output.
    bus: BinaryHeap<Reverse<(u64, u32)>>,
    /// Modules whose blocked completion retries next cycle.
    retry: Vec<u32>,
    /// Per-cycle scratch: modules completing, modules that may start.
    due: Vec<u32>,
    touched: Vec<u32>,
    /// Issue cycle per request index (valid once issued).
    issue_at: Vec<u64>,
}

impl Kernel {
    /// Sizes the state for a run of `n` requests and returns every
    /// module to idle, keeping the queue allocations.
    fn prepare(&mut self, modules: usize, q_in: usize, q_out: usize, n: usize) {
        self.banks.resize_with(modules, || Bank {
            inq: VecDeque::with_capacity(q_in),
            outq: VecDeque::with_capacity(q_out),
            ..Bank::default()
        });
        for bank in &mut self.banks {
            bank.inq.clear();
            bank.svc = None;
            bank.blocked = false;
            bank.outq.clear();
        }
        self.completions.clear();
        self.bus.clear();
        self.retry.clear();
        if self.issue_at.len() < n {
            self.issue_at.resize(n, 0);
        }
    }
}

impl MemorySystem {
    /// The event engine: the kernel loop. Statistics land in `out`,
    /// reusing its buffers.
    ///
    /// # Panics
    ///
    /// Same conditions as [`run_plan`](Self::run_plan), and on streams
    /// of 2^32 requests or more.
    pub(crate) fn run_event<F>(&mut self, n: usize, request: &F, out: &mut AccessStats)
    where
        F: Fn(usize) -> (u64, Addr, ModuleId),
    {
        let cfg = self.cfg;
        assert!(
            u32::try_from(n).is_ok(),
            "the event kernel runs fewer than 2^32 requests"
        );
        let modules = cfg.module_count() as usize;
        let (t, ports, n_u64) = (cfg.t_cycles(), cfg.ports(), n as u64);
        self.trace.clear();
        self.kernel.prepare(modules, cfg.q_in(), cfg.q_out(), n);
        out.arrival.clear();
        out.arrival.resize(n, u64::MAX);
        out.module_busy.clear();
        out.module_busy.resize(modules, 0);

        let k = &mut self.kernel;
        let trace = &mut self.trace;
        // The current (last processed) cycle and the requests issued.
        let (mut cycle, mut next) = (0, 0);
        let (mut delivered, mut last_arrival) = (0, 0);
        let (mut stall_cycles, mut conflicts) = (0, 0);
        let (q_in, q_out) = (cfg.q_in(), cfg.q_out());
        let mut first_issue: Option<u64> = None;
        let mut max_in_q = 0;
        let safety_bound = 1_000_000u64.max(n_u64 * t * 4 + 10_000);
        while delivered < n_u64 {
            assert!(
                cycle < safety_bound,
                "simulation exceeded {safety_bound} cycles — engine bug"
            );

            // Phase 1: completions due this cycle, plus blocked ones
            // whose output queue drained last cycle — ascending module.
            k.due.clear();
            while let Some(&(ready, m)) = k.completions.front() {
                if ready != cycle {
                    debug_assert!(ready > cycle, "a completion cycle was skipped");
                    break;
                }
                k.completions.pop_front();
                k.due.push(m);
            }
            if !k.retry.is_empty() {
                k.due.append(&mut k.retry);
                k.due.sort_unstable();
            }
            k.touched.clear();
            for &m in &k.due {
                let b = &mut k.banks[m as usize];
                let Some((req, _)) = b.svc else {
                    continue; // every due module is serving
                };
                if b.outq.len() == q_out {
                    b.blocked = true;
                    continue;
                }
                if b.outq.is_empty() {
                    k.bus.push(Reverse((k.issue_at[req as usize], m)));
                }
                b.outq.push_back(req);
                b.svc = None;
                b.blocked = false;
                k.touched.push(m);
                if trace.is_enabled() {
                    trace.push(Event::Complete {
                        cycle,
                        module: ModuleId::new(u64::from(m)),
                        element: request(req as usize).0,
                    });
                }
            }

            // Phase 2: bus grants — oldest issue first, lowest module on
            // ties; one grant per port.
            for _ in 0..ports {
                let Some(Reverse((_, m))) = k.bus.pop() else {
                    break;
                };
                let b = &mut k.banks[m as usize];
                let Some(req) = b.outq.pop_front() else {
                    break; // every module on the bus heap has output
                };
                if let Some(&front) = b.outq.front() {
                    k.bus.push(Reverse((k.issue_at[front as usize], m)));
                }
                if b.blocked {
                    b.blocked = false;
                    k.retry.push(m);
                }
                let when = cycle + 1; // one-cycle bus
                let element = request(req as usize).0;
                out.arrival[element as usize] = when;
                last_arrival = last_arrival.max(when);
                delivered += 1;
                trace.push(Event::Deliver {
                    cycle: when,
                    element,
                });
            }

            // Phase 3: processor issue — one request per port, in order
            // (a blocked request blocks the ports behind it).
            for _ in 0..ports {
                if next >= n {
                    break;
                }
                let (element, _, module) = request(next);
                let midx = module.get() as usize;
                assert!(
                    midx < modules,
                    "request targets module {module} but memory has {modules}"
                );
                let b = &mut k.banks[midx];
                if b.inq.len() == q_in {
                    stall_cycles += 1;
                    trace.push(Event::Stall { cycle, module });
                    break;
                }
                b.inq.push_back(next as u32);
                max_in_q = max_in_q.max(b.inq.len());
                k.issue_at[next] = cycle;
                k.touched.push(midx as u32);
                first_issue.get_or_insert(cycle);
                next += 1;
                trace.push(Event::Issue {
                    cycle,
                    element,
                    module,
                });
            }

            // Phase 4: service starts, at modules that completed or were
            // issued to this cycle — ascending module.
            if k.touched.len() > 1 {
                k.touched.sort_unstable();
                k.touched.dedup();
            }
            for &m in &k.touched {
                let b = &mut k.banks[m as usize];
                if b.svc.is_some() {
                    continue;
                }
                let Some(req) = b.inq.pop_front() else {
                    continue;
                };
                if cycle > k.issue_at[req as usize] {
                    conflicts += 1;
                }
                b.svc = Some((req, cycle + t));
                out.module_busy[m as usize] += t;
                k.completions.push_back((cycle + t, m));
                if trace.is_enabled() {
                    trace.push(Event::ServiceStart {
                        cycle,
                        module: ModuleId::new(u64::from(m)),
                        element: request(req as usize).0,
                    });
                }
            }

            // --- Scheduling: the next cycle anything can happen. ---
            //
            // The next cycle is live when a datum waits on the bus, a
            // blocked completion retries, or the processor's next
            // request fits its target's input buffer.
            let live = delivered >= n_u64
                || !k.bus.is_empty()
                || !k.retry.is_empty()
                || (next < n && {
                    // An out-of-range module fails the issue phase's
                    // range check next cycle.
                    let (_, _, module) = request(next);
                    let midx = module.get() as usize;
                    k.banks.get(midx).is_none_or(|b| b.inq.len() < q_in)
                });
            if live {
                cycle += 1;
                continue;
            }
            // Otherwise only running services remain (every output
            // queue is empty, and every module with queued input is
            // serving): jump to the next completion. Cycles skipped
            // over are pure stall cycles while requests remain.
            let target = k
                .completions
                .front()
                .map_or(cycle + 1, |&(ready, _)| ready.max(cycle + 1));
            if next < n {
                let skipped = target - (cycle + 1);
                stall_cycles += skipped;
                if trace.is_enabled() && skipped > 0 {
                    let (_, _, module) = request(next);
                    for c in cycle + 1..target {
                        trace.push(Event::Stall { cycle: c, module });
                    }
                }
            }
            cycle = target;
        }

        out.latency = last_arrival - first_issue.unwrap_or(0) + 1;
        out.elements = n_u64;
        out.stall_cycles = stall_cycles;
        out.conflicts = conflicts;
        out.max_in_q = max_in_q;
    }
}
