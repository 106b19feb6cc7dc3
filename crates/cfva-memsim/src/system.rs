//! The memory system: one simulating route, and the cycle oracle by name.

use std::fmt;

use cfva_core::plan::AccessPlan;
use cfva_core::{Addr, ModuleId};

use crate::config::MemConfig;
use crate::module::MemModule;
use crate::periodic::PeriodicScratch;
use crate::solver::Solver;
use crate::stats::AccessStats;

/// When one request passed each stage of the memory, in cycles.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Timing {
    /// Cycle the request won the address bus.
    pub issue: u64,
    /// Cycle its module started serving it; later than `issue` means
    /// it queued (a conflict).
    pub start: u64,
    /// Cycle its service completed and the datum entered the output
    /// queue: `start + T`, or later while that queue was full.
    pub done: u64,
    /// Cycle it was granted the return bus; the datum arrives at
    /// `grant + 1`.
    pub grant: u64,
    /// Address-bus stall cycles charged to it while it waited to issue.
    pub stalls: u64,
}

impl Timing {
    /// The same timing, `dt` cycles later.
    pub(crate) fn shifted(&self, dt: u64) -> Timing {
        Timing {
            issue: self.issue + dt,
            start: self.start + dt,
            done: self.done + dt,
            grant: self.grant + dt,
            stalls: self.stalls,
        }
    }
}

/// The simulated memory system of the paper's Figure 2: a module array
/// behind a single one-cycle return bus, driven by a processor that
/// issues one request per cycle.
///
/// Cycle phases (in order):
///
/// 1. **complete** — modules whose service time elapsed move the datum
///    to their output buffer (blocking if it is full);
/// 2. **bus** — the arbiter grants the bus to the oldest waiting output;
///    the processor receives the datum one cycle later;
/// 3. **issue** — the processor sends the next request unless the target
///    module's input buffer is full (a *stall*);
/// 4. **start** — idle modules pull the next request from their input
///    queue into service (`T` cycles).
///
/// A request that enters service the same cycle it was issued
/// experienced no conflict; anything later is counted in
/// [`AccessStats::conflicts`].
pub struct MemorySystem {
    pub(crate) cfg: MemConfig,
    /// The cycle oracle's module array, built on its first run.
    modules: Vec<MemModule>,
    /// Indices of modules currently holding work, kept in ascending
    /// order. The cycle loop touches only these, so simulation cost
    /// scales with the *occupied* modules (≈ `T` for a register-length
    /// access), not with the memory size `M` — the difference is large
    /// on unmatched memories where `M = T²`.
    active: Vec<usize>,
    /// The cycle oracle's next request per stream.
    cursors: Vec<usize>,
    /// Per request of the last cycle-oracle run, by request index.
    pub(crate) timings: Vec<Timing>,
    /// Scratch for the fast path's window check: last request index per
    /// module.
    last_start: Vec<u64>,
    /// Reusable buffers of the periodic fast-forward engine (see
    /// `periodic.rs`).
    pub(crate) periodic: PeriodicScratch,
    /// Reusable state of the request-order solver (see `solver.rs`).
    pub(crate) solver: Solver,
}

impl MemorySystem {
    /// Creates an idle memory system.
    pub fn new(cfg: MemConfig) -> Self {
        MemorySystem {
            cfg,
            modules: Vec::new(),
            active: Vec::new(),
            cursors: Vec::new(),
            timings: Vec::new(),
            last_start: Vec::new(),
            periodic: PeriodicScratch::default(),
            solver: Solver::default(),
        }
    }

    /// The configuration in use.
    pub const fn config(&self) -> MemConfig {
        self.cfg
    }

    /// Executes an access plan to completion and reports statistics.
    /// The module array is reset first, so a system can be reused across
    /// runs.
    ///
    /// A single-port run takes the verified conflict-free shortcut when
    /// the plan is conflict free, and the periodic pass otherwise; a
    /// multi-port run steps the oracle. The statistics are bit-identical
    /// to [`run_oracle`](Self::run_oracle)'s either way.
    ///
    /// # Panics
    ///
    /// Panics if the plan references a module outside this memory's
    /// range (plan built against a different mapping), or if the cycle
    /// oracle exceeds a hard safety bound of cycles (which would
    /// indicate an engine bug, not a property of the plan). The
    /// request-order solver steps no cycles and has no such bound.
    #[must_use = "the returned AccessStats are the simulation's only output; dropping them wastes the run"]
    pub fn run_plan(&mut self, plan: &AccessPlan) -> AccessStats {
        let mut stats = AccessStats::default();
        self.run_plan_into(plan, &mut stats);
        stats
    }

    /// Executes an access plan, writing the statistics into caller-owned
    /// storage.
    ///
    /// The in-place equivalent of [`run_plan`](Self::run_plan): the
    /// stats' per-element and per-module vectors are cleared and
    /// refilled, so a long-lived `AccessStats` makes repeated
    /// measurement allocation-free — the batch execution engine's hot
    /// path. The plan itself is read directly; no intermediate request
    /// buffer is built.
    ///
    /// # Panics
    ///
    /// Same conditions as [`run_plan`](Self::run_plan).
    pub fn run_plan_into(&mut self, plan: &AccessPlan, out: &mut AccessStats) {
        let modules = plan.modules();
        match plan.order() {
            None => self.run_core(
                modules.len(),
                plan.period(),
                |k| (k as u64, modules[k]),
                out,
            ),
            Some(order) => self.run_core(
                order.len(),
                plan.period(),
                |k| {
                    let element = order[k];
                    (element, modules[element as usize])
                },
                out,
            ),
        }
    }

    /// Executes an access plan on the per-cycle oracle: the reference
    /// semantics every other run is verified against.
    ///
    /// # Panics
    ///
    /// Same conditions as [`run_plan`](Self::run_plan).
    #[must_use = "the returned AccessStats are the simulation's only output; dropping them wastes the run"]
    pub fn run_oracle(&mut self, plan: &AccessPlan) -> AccessStats {
        let mut stats = AccessStats::default();
        let request = |k: usize| {
            let entry = plan.request(k);
            (entry.element(), entry.module())
        };
        self.run_cycle(&[plan.len() as usize], &request, &mut stats);
        stats
    }

    /// Executes an arbitrary request stream: `(element, addr, module)`
    /// triples in issue order, with element ids forming a permutation of
    /// `0..len`. Only the elements and modules matter to the timing; the
    /// addresses are not read.
    ///
    /// # Panics
    ///
    /// Same conditions as [`run_plan`](Self::run_plan).
    #[must_use = "the returned AccessStats are the simulation's only output; dropping them wastes the run"]
    pub fn run_requests(&mut self, requests: &[(u64, Addr, ModuleId)]) -> AccessStats {
        let mut stats = AccessStats::default();
        self.run_core(requests.len(), None, |k| project(requests[k]), &mut stats);
        stats
    }

    /// Executes a request stream as [`run_requests`](Self::run_requests)
    /// does, but on the cycle oracle, and also returns each request's [`Timing`], indexed like `requests`.
    ///
    /// # Panics
    ///
    /// Same conditions as [`run_plan`](Self::run_plan).
    #[must_use = "the returned statistics and timings are the run's only output"]
    pub fn run_timed(&mut self, requests: &[(u64, Addr, ModuleId)]) -> (AccessStats, Vec<Timing>) {
        let mut stats = AccessStats::default();
        self.run_cycle(&[requests.len()], &|k| project(requests[k]), &mut stats);
        (stats, std::mem::take(&mut self.timings))
    }

    /// One-pass conflict-free fast path: checks the paper's window
    /// property while accumulating the (fully determined) statistics.
    /// Returns `false` — leaving `out` in an unspecified but resizable
    /// state — as soon as a conflict is found, and the caller falls
    /// back to the periodic pass, which rewrites `out` from scratch.
    fn try_fast_path<F>(&mut self, n: usize, request: &F, out: &mut AccessStats) -> bool
    where
        F: Fn(usize) -> (u64, ModuleId),
    {
        let t = self.cfg.t_cycles();
        let m_count = self.cfg.module_count() as usize;
        self.last_start.clear();
        self.last_start.resize(m_count, u64::MAX);
        let arrival = out.arrival.reset(n, u64::MAX);
        out.module_busy.clear();
        out.module_busy.resize(m_count, 0);
        for k in 0..n {
            let (element, module) = request(k);
            let midx = module.get() as usize;
            assert!(
                midx < m_count,
                "request targets module {module} but memory has {m_count}"
            );
            let k = k as u64;
            let last = self.last_start[midx];
            if last != u64::MAX && k - last < t {
                return false; // conflict: the periodic pass takes over
            }
            self.last_start[midx] = k;
            // Request k issues at cycle k (no stalls), starts service
            // immediately, completes at k + T, crosses the bus in one
            // cycle.
            out.module_busy[midx] += t;
            arrival[element as usize] = k + t + 1;
        }
        out.latency = t + n as u64 + 1;
        out.elements = n as u64;
        out.stall_cycles = 0;
        out.conflicts = 0;
        out.max_in_q = 1;
        true
    }

    /// The route. `request(k)` yields the `k`-th request of the stream,
    /// and `period` is a true period of its module sequence when one is
    /// known (a planned access's `P_x`); statistics are written into
    /// `out`, reusing its buffers.
    fn run_core<F>(&mut self, n: usize, period: Option<u64>, request: F, out: &mut AccessStats)
    where
        F: Fn(usize) -> (u64, ModuleId),
    {
        if self.cfg.ports() != 1 {
            // Multi-port runs have no request-order solution.
            self.run_cycle(&[n], &request, out);
        } else if n == 0 || !self.try_fast_path(n, &request, out) {
            // A conflicted stream: solved in request order, and copied
            // forward once its state recurs.
            self.run_periodic(n, period, &request, out, |_, _| {});
        }
    }

    /// The per-cycle engine — the reference semantics (oracle) of the
    /// simulator, and the only loop that steps cycles: every cycle runs
    /// the four phases over the occupied modules. Each request's
    /// [`Timing`] lands in `self.timings`, by request index.
    ///
    /// `ends` splits the requests `0..n` into streams that each issue
    /// in order: stream `s` ends before request `ends[s]`, and the last
    /// end is `n`. Each cycle and port, the issue phase scans the
    /// streams from a rotation pointer and issues the first head
    /// request whose module has room; the pointer then moves past that
    /// stream. When every unfinished stream is blocked the processor
    /// stalls, charged to the next request of the first one scanned,
    /// and the remaining ports stay idle. With one stream this is plain
    /// in-order issue, where a blocked request blocks the ports behind
    /// it, like a real address bus's head-of-line stall.
    pub(crate) fn run_cycle<F>(&mut self, ends: &[usize], request: &F, out: &mut AccessStats)
    where
        F: Fn(usize) -> (u64, ModuleId),
    {
        let n = ends.last().copied().unwrap_or(0);
        let t = self.cfg.t_cycles();
        let m_count = self.cfg.module_count();
        for k in 0..n {
            let (_, module) = request(k);
            assert!(
                module.get() < m_count,
                "request targets module {module} but memory has {m_count}"
            );
        }
        if self.modules.is_empty() {
            self.modules = (0..m_count)
                .map(|_| MemModule::new(t, self.cfg.q_in(), self.cfg.q_out()))
                .collect();
        }
        let MemorySystem {
            cfg,
            modules,
            active,
            cursors,
            timings,
            ..
        } = self;
        for module in modules.iter_mut() {
            module.reset();
        }
        active.clear();
        cursors.clear();
        cursors.push(0);
        cursors.extend_from_slice(ends.split_last().map_or(&[], |(_, rest)| rest));
        timings.clear();
        timings.resize(n, Timing::default());
        let arrival = out.arrival.reset(n, u64::MAX);
        out.module_busy.clear();
        out.module_busy.resize(modules.len(), 0);

        let mut delivered = 0;
        let mut rotation = 0;
        let mut stall_cycles = 0;
        let mut last_arrival = 0;
        let safety_bound = 1_000_000u64.max(n as u64 * t * 4 + 10_000);
        let mut cycle = 0;
        while delivered < n {
            assert!(
                cycle < safety_bound,
                "simulation exceeded {safety_bound} cycles — engine bug"
            );

            // Phase 1: service completions (only occupied modules can
            // complete).
            for &idx in active.iter() {
                if let Some(id) = modules[idx].tick_complete(cycle) {
                    timings[id].done = cycle;
                }
            }

            // Phase 2: bus grants — oldest issue first, lowest module on
            // ties; one grant per port.
            for _ in 0..cfg.ports() {
                let grant = active
                    .iter()
                    .filter_map(|&idx| modules[idx].output().map(|id| (timings[id].issue, idx)))
                    .min();
                let Some((_, idx)) = grant else { break };
                let Some(id) = modules[idx].take_output() else {
                    break;
                };
                timings[id].grant = cycle;
                let (element, _) = request(id);
                last_arrival = cycle + 1; // one-cycle bus
                arrival[element as usize] = last_arrival;
                delivered += 1;
            }

            // Phase 3: processor issue — one request per port.
            for _ in 0..cfg.ports() {
                let mut head = None;
                let mut issued = false;
                for s in (rotation..ends.len()).chain(0..rotation) {
                    let id = cursors[s];
                    if id == ends[s] {
                        continue;
                    }
                    head.get_or_insert(id);
                    let (_, module) = request(id);
                    let midx = module.get() as usize;
                    if modules[midx].can_accept() {
                        modules[midx].accept(id);
                        if let Err(pos) = active.binary_search(&midx) {
                            active.insert(pos, midx);
                        }
                        timings[id].issue = cycle;
                        cursors[s] += 1;
                        rotation = (s + 1) % ends.len();
                        issued = true;
                        break;
                    }
                }
                if !issued {
                    if let Some(id) = head {
                        timings[id].stalls += 1;
                        stall_cycles += 1;
                    }
                    break;
                }
            }

            // Phase 4: service starts.
            for &idx in active.iter() {
                if let Some(id) = modules[idx].tick_start(cycle) {
                    timings[id].start = cycle;
                    out.module_busy[idx] += t;
                }
            }

            // Drop drained modules from the active set.
            active.retain(|&idx| modules[idx].is_active());

            cycle += 1;
        }

        // The first request issues at cycle 0: the latency runs to the
        // last arrival, inclusive.
        out.latency = last_arrival + 1;
        out.elements = n as u64;
        out.stall_cycles = stall_cycles;
        out.conflicts = timings.iter().filter(|r| r.start > r.issue).count() as u64;
        out.max_in_q = modules.iter().map(MemModule::max_in_q).max().unwrap_or(0);
    }
}

/// A request triple without its address, which no engine reads.
fn project((element, _, module): (u64, Addr, ModuleId)) -> (u64, ModuleId) {
    (element, module)
}

impl fmt::Debug for MemorySystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MemorySystem")
            .field("config", &self.cfg)
            .field("modules", &self.cfg.module_count())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfva_core::mapping::{Interleaved, XorMatched};
    use cfva_core::plan::{Planner, Strategy};
    use cfva_core::VectorSpec;

    fn run(planner: &Planner, vec: &VectorSpec, strategy: Strategy, cfg: MemConfig) -> AccessStats {
        let plan = planner.plan(vec, strategy).unwrap();
        MemorySystem::new(cfg).run_plan(&plan)
    }

    #[test]
    fn conflict_free_access_takes_t_plus_l_plus_1() {
        let planner = Planner::matched(XorMatched::new(3, 3).unwrap());
        let vec = VectorSpec::new(16, 12, 64).unwrap();
        let cfg = MemConfig::new(3, 3).unwrap();
        let stats = run(&planner, &vec, Strategy::ConflictFree, cfg);
        assert_eq!(stats.latency, 8 + 64 + 1);
        assert_eq!(stats.conflicts, 0);
        assert_eq!(stats.stall_cycles, 0);
        assert!(stats.is_conflict_free());
        assert_eq!(stats.efficiency(8), 1.0);
    }

    #[test]
    fn unit_stride_on_interleaving_is_minimal() {
        let planner = Planner::baseline(Interleaved::new(3).unwrap(), 3);
        let vec = VectorSpec::new(0, 1, 64).unwrap();
        let cfg = MemConfig::new(3, 3).unwrap();
        let stats = run(&planner, &vec, Strategy::Canonical, cfg);
        assert_eq!(stats.latency, 73);
        assert_eq!(stats.conflicts, 0);
    }

    #[test]
    fn clustered_stride_serialises_on_one_module() {
        // Stride 8 on low-order interleaving: every element in module 0:
        // latency ~ L·T.
        let planner = Planner::baseline(Interleaved::new(3).unwrap(), 3);
        let vec = VectorSpec::new(0, 8, 64).unwrap();
        let cfg = MemConfig::new(3, 3).unwrap();
        let stats = run(&planner, &vec, Strategy::Canonical, cfg);
        assert!(stats.latency >= 64 * 8, "latency {}", stats.latency);
        assert!(stats.conflicts > 0);
        assert!(stats.stall_cycles > 0);
        assert_eq!(stats.module_busy[0], 64 * 8);
    }

    #[test]
    fn arrivals_are_recorded_per_element() {
        let planner = Planner::matched(XorMatched::new(2, 2).unwrap());
        let vec = VectorSpec::new(0, 1, 16).unwrap();
        let plan = planner.plan(&vec, Strategy::ConflictFree).unwrap();
        let stats = MemorySystem::new(MemConfig::new(2, 2).unwrap()).run_plan(&plan);
        // The k-th issued request (whatever element it is) is sent at
        // cycle k and arrives T + 1 cycles later.
        for (k, entry) in plan.iter().enumerate() {
            assert_eq!(
                stats.arrival[entry.element() as usize],
                k as u64 + 4 + 1,
                "request {k} (element {})",
                entry.element()
            );
        }
    }

    #[test]
    fn timings_record_issue_and_grant() {
        let planner = Planner::matched(XorMatched::new(2, 2).unwrap());
        let vec = VectorSpec::new(0, 1, 16).unwrap();
        let plan = planner.plan(&vec, Strategy::ConflictFree).unwrap();
        let requests: Vec<_> = plan
            .iter()
            .map(|e| (e.element(), vec.element_addr(e.element()), e.module()))
            .collect();
        let (stats, timings) =
            MemorySystem::new(MemConfig::new(2, 2).unwrap()).run_timed(&requests);
        assert_eq!(timings.len(), 16);
        for (k, (timing, entry)) in timings.iter().zip(plan.iter()).enumerate() {
            assert_eq!(timing.issue, k as u64, "request {k}");
            assert_eq!(
                timing.grant + 1,
                stats.arrival[entry.element() as usize],
                "request {k}"
            );
        }
    }

    #[test]
    fn system_is_reusable_across_runs() {
        let planner = Planner::matched(XorMatched::new(3, 3).unwrap());
        let vec = VectorSpec::new(16, 12, 64).unwrap();
        let plan = planner.plan(&vec, Strategy::ConflictFree).unwrap();
        let mut sim = MemorySystem::new(MemConfig::new(3, 3).unwrap());
        let a = sim.run_plan(&plan);
        let oracle = sim.run_oracle(&plan);
        let b = sim.run_plan(&plan);
        assert_eq!(a, oracle);
        assert_eq!(b, oracle);
    }

    #[test]
    #[should_panic(expected = "request targets module")]
    fn module_range_validated() {
        let planner = Planner::matched(XorMatched::new(3, 3).unwrap());
        let vec = VectorSpec::new(16, 12, 64).unwrap();
        let plan = planner.plan(&vec, Strategy::ConflictFree).unwrap();
        // Memory with only 4 modules cannot run an 8-module plan.
        let mut sim = MemorySystem::new(MemConfig::new(2, 2).unwrap());
        let _ = sim.run_plan(&plan);
    }

    #[test]
    fn dual_port_memory_halves_issue_time() {
        // Future-work model: two ports help only when every window of
        // 2T requests covers 2T distinct modules. A unit-stride walk on
        // a 64-module interleaved memory does exactly that.
        let planner = Planner::baseline(Interleaved::new(6).unwrap(), 3);
        let vec = VectorSpec::new(0, 1, 128).unwrap();
        let plan = planner.plan(&vec, Strategy::Canonical).unwrap();

        let single = MemConfig::new(6, 3).unwrap();
        let dual = MemConfig::new(6, 3).unwrap().with_ports(2).unwrap();
        let lat1 = MemorySystem::new(single).run_plan(&plan).latency;
        let lat2 = MemorySystem::new(dual).run_plan(&plan).latency;
        assert_eq!(lat1, 8 + 128 + 1);
        assert_eq!(lat2, 8 + 64 + 1, "dual-port latency = T + L/2 + 1");
    }

    #[test]
    fn dual_port_gains_nothing_when_modules_saturate() {
        // A vector confined to T modules is module-bandwidth-bound:
        // extra ports cannot help (the distinction the future-work
        // extension would have to address).
        let planner = Planner::matched(XorMatched::new(3, 4).unwrap());
        let vec = VectorSpec::new(16, 12, 128).unwrap();
        let plan = planner.plan(&vec, Strategy::ConflictFree).unwrap();

        let single = MemConfig::new(3, 3).unwrap();
        let dual = MemConfig::new(3, 3).unwrap().with_ports(2).unwrap();
        let lat1 = MemorySystem::new(single).run_plan(&plan).latency;
        let lat2 = MemorySystem::new(dual).run_plan(&plan).latency;
        assert_eq!(lat1, 137);
        // Module busy time dominates: 128 elements / 8 modules * 8
        // cycles = 128 cycles of mandatory occupancy.
        assert!(lat2 >= 128, "dual-port latency {lat2}");
    }

    #[test]
    fn subsequence_order_bounded_by_2t_plus_l_with_buffers() {
        // The Section 3.1 claim, on the paper's own example.
        let planner = Planner::matched(XorMatched::new(3, 3).unwrap());
        let vec = VectorSpec::new(16, 12, 64).unwrap();
        let plan = planner.plan(&vec, Strategy::Subsequence).unwrap();
        let cfg = MemConfig::new(3, 3).unwrap().with_queues(2, 1).unwrap();
        let stats = MemorySystem::new(cfg).run_plan(&plan);
        assert!(
            stats.latency <= 2 * 8 + 64,
            "latency {} exceeds 2T+L",
            stats.latency
        );
    }
}
