//! Multi-vector access: several plans sharing one memory — the paper's
//! Section 6 open question ("the case in which several vectors are
//! accessed simultaneously"), modelled end to end.
//!
//! The model keeps the paper's single address bus (one request per
//! cycle) and single return bus, and adds an arbiter in front of the
//! address bus that picks which stream issues next. Three
//! [`IssuePolicy`] arbiters are provided:
//!
//! * [`IssuePolicy::RoundRobin`] — streams take turns; a stream whose
//!   turn it is blocks the bus if its target module is full
//!   (head-of-line, like a real in-order address bus).
//! * [`IssuePolicy::Priority`] — lower stream index always wins: the
//!   whole of stream 0 issues before stream 1 starts, but drain phases
//!   overlap (stream 1 issues while stream 0's last requests are still
//!   in service).
//! * [`IssuePolicy::WorkConserving`] — round-robin, but a stream whose
//!   head request targets a full module is *skipped* instead of
//!   stalling the bus; the processor stalls only when every pending
//!   stream is blocked.
//!
//! Accounting is per stream, [`AccessStats`](crate::AccessStats)-grade:
//! each [`StreamStats`] carries the stream's arrival cycles, first
//! issue, latency, spread, and — attributed to the stream that *lost*
//! arbitration — its queueing conflicts and bus stalls. Cross-stream
//! conflicts appear even when each stream is conflict free alone;
//! quantifying that is exactly the open question the authors pose, and
//! [`crate::multi`] plus the predictor in `cfva_core::equiv` answer it.
//!
//! ## Engines
//!
//! The static policies (`RoundRobin`, `Priority`) reduce to a merged
//! request stream and reuse the simulator's engine chain:
//!
//! * [`Engine::Cycle`] (the default config) runs the merged stream
//!   through the per-cycle oracle with tracing on and de-multiplexes
//!   per-stream statistics from the event trace. Multi-port memories
//!   take this path under every engine, as every multi-port run of
//!   one stream does, at `O(cycles × occupied modules)` plus the
//!   trace; nothing in the workspace co-runs on one.
//! * Any other engine on a single-port memory runs the merged stream
//!   on the request-order solver (`solver.rs`), conflict free or not,
//!   and the per-stream statistics come from its per-request records
//!   (issue cycle, late service start, stall cycles charged). `tests`
//!   prove `run_multi` bit-identical across the two paths for every
//!   registered map.
//!
//! [`IssuePolicy::WorkConserving`] issues based on live module state,
//! so it always runs its own cycle-accurate arbitration loop.
//!
//! ## Errors
//!
//! Unlike the early stub, nothing here panics: oversized stream counts,
//! oversized merged streams and out-of-range plan modules all surface
//! as [`ConfigError::OutOfRange`].

use cfva_core::plan::AccessPlan;
use cfva_core::{Addr, ConfigError, ModuleId};

use crate::config::MemConfig;
use crate::event::Engine;
use crate::module::MemModule;
use crate::solver::Solved;
use crate::stats::AccessStats;
use crate::system::{MemorySystem, Request};
use crate::trace::Event;

/// How the address-bus arbiter picks the next stream to issue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IssuePolicy {
    /// Streams take turns; the stream whose turn it is blocks the bus
    /// when its target module is full (head-of-line stall).
    RoundRobin,
    /// Lower stream index always wins — equivalent to issuing the
    /// streams back to back, with overlapping drain phases.
    Priority,
    /// Round-robin that skips streams whose head request is blocked;
    /// the bus stalls only when every pending stream is blocked.
    WorkConserving,
}

impl std::fmt::Display for IssuePolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            IssuePolicy::RoundRobin => "round-robin",
            IssuePolicy::Priority => "priority",
            IssuePolicy::WorkConserving => "work-conserving",
        })
    }
}

/// Per-stream measurements of a multi-vector run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultiStats {
    /// Per-stream views, indexed like the `plans` argument.
    pub streams: Vec<StreamStats>,
    /// Cycles from the first issue of any stream to the last arrival of
    /// any stream (the combined access time). `0` when no stream has
    /// elements.
    pub makespan: u64,
    /// Conflicts across the whole combined run (equals the sum of the
    /// per-stream conflicts).
    pub conflicts: u64,
    /// Processor stalls across the whole combined run (equals the sum
    /// of the per-stream stalls).
    pub stall_cycles: u64,
}

/// One stream's share of a multi-vector run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Number of elements in the stream.
    pub elements: u64,
    /// Arrival cycle of each element, indexed by element id.
    pub arrival: Vec<u64>,
    /// Cycle the stream's first request won the address bus. `0` for an
    /// empty stream.
    pub first_issue: u64,
    /// Cycles from the stream's first issue to its last arrival,
    /// inclusive — the stream's own access time inside the combined
    /// run. `0` for an empty stream.
    pub latency: u64,
    /// Cycles from the stream's first to last arrival, inclusive; `0`
    /// for an empty stream.
    pub spread: u64,
    /// Requests of *this* stream that had to queue behind a busy module
    /// — the conflicts this stream lost to the combined traffic.
    pub conflicts: u64,
    /// Address-bus stalls charged to this stream (its head request — or,
    /// under [`IssuePolicy::WorkConserving`], the rotation head while
    /// every stream was blocked — could not issue).
    pub stall_cycles: u64,
}

impl MultiStats {
    /// Sequential-execution baseline: the makespan if the same plans ran
    /// one after another, each at its measured-alone latency.
    pub fn sequential_baseline(latencies: &[u64]) -> u64 {
        latencies.iter().sum()
    }
}

/// One request of the merged stream: dense id `0..total` in issue
/// order, plus the side tables back to (stream, element).
struct Merged {
    requests: Vec<(u64, Addr, ModuleId)>,
    stream_of: Vec<u32>,
    elem_of: Vec<u64>,
}

/// Upper bound on concurrent streams (the stream side-table is `u32`;
/// the practical bound is far lower).
const MAX_STREAMS: u64 = 1 << 15;
/// Upper bound on the merged request stream.
const MAX_TOTAL_ELEMENTS: u64 = 1 << 32;

/// Validates stream count, combined length and module range up front so
/// the engines below cannot hit their internal contract panics.
fn validate(cfg: &MemConfig, plans: &[&AccessPlan]) -> Result<u64, ConfigError> {
    if plans.len() as u64 >= MAX_STREAMS {
        return Err(ConfigError::OutOfRange {
            what: "streams",
            value: plans.len() as u64,
            constraint: "fewer than 2^15 concurrent streams",
        });
    }
    let mut total: u64 = 0;
    for plan in plans {
        total = total.saturating_add(plan.len());
    }
    if total >= MAX_TOTAL_ELEMENTS {
        return Err(ConfigError::OutOfRange {
            what: "total elements",
            value: total,
            constraint: "fewer than 2^32 elements across all streams",
        });
    }
    let module_count = cfg.module_count();
    for plan in plans {
        for entry in plan.entries() {
            if entry.module().get() >= module_count {
                return Err(ConfigError::OutOfRange {
                    what: "module",
                    value: entry.module().get(),
                    constraint: "every plan module within the memory's range",
                });
            }
        }
    }
    Ok(total)
}

/// Runs several plans through one memory under an issue policy.
///
/// The config's [`Engine`] selects the execution path for the static
/// policies: [`Engine::Cycle`] (and any multi-port memory) is the
/// traced per-cycle oracle, anything else solves the merged stream in
/// request order — see the [module docs](self).
///
/// # Performance
///
/// A static co-run on a multi-port memory steps every cycle with
/// tracing on under every engine, so it costs
/// `O(cycles × occupied modules)` plus the trace, where a single-port
/// one costs `O(requests)`.
///
/// # Errors
///
/// [`ConfigError::OutOfRange`] on more than `2^15` streams, more than
/// `2^32` combined elements, or a plan module outside the memory.
pub fn run_multi(
    cfg: MemConfig,
    plans: &[&AccessPlan],
    policy: IssuePolicy,
) -> Result<MultiStats, ConfigError> {
    let total = validate(&cfg, plans)?;
    if total == 0 {
        return Ok(MultiStats {
            streams: plans.iter().map(|_| StreamStats::default()).collect(),
            makespan: 0,
            conflicts: 0,
            stall_cycles: 0,
        });
    }
    match policy {
        IssuePolicy::WorkConserving => Ok(run_work_conserving(cfg, plans, total)),
        IssuePolicy::RoundRobin | IssuePolicy::Priority => {
            let merged = merge(plans, total, policy);
            if matches!(cfg.engine(), Engine::Cycle) || cfg.ports() != 1 {
                Ok(run_traced(cfg, plans, &merged))
            } else {
                Ok(run_solved(cfg, plans, &merged))
            }
        }
    }
}

/// Runs several plans with round-robin issue — the historical entry
/// point, now a thin wrapper over [`run_multi`] with
/// [`IssuePolicy::RoundRobin`].
///
/// # Errors
///
/// Same conditions as [`run_multi`].
pub fn run_interleaved(cfg: MemConfig, plans: &[&AccessPlan]) -> Result<MultiStats, ConfigError> {
    run_multi(cfg, plans, IssuePolicy::RoundRobin)
}

/// Builds the merged issue order of a static policy: dense ids
/// `0..total` plus side tables — no bit-tagging of element ids.
fn merge(plans: &[&AccessPlan], total: u64, policy: IssuePolicy) -> Merged {
    let total = total as usize;
    let mut requests = Vec::with_capacity(total);
    let mut stream_of = Vec::with_capacity(total);
    let mut elem_of = Vec::with_capacity(total);
    fn push(
        requests: &mut Vec<(u64, Addr, ModuleId)>,
        stream_of: &mut Vec<u32>,
        elem_of: &mut Vec<u64>,
        s: usize,
        entry: &cfva_core::plan::PlanEntry,
    ) {
        requests.push((requests.len() as u64, entry.addr(), entry.module()));
        stream_of.push(s as u32);
        elem_of.push(entry.element());
    }
    match policy {
        IssuePolicy::Priority => {
            for (s, plan) in plans.iter().enumerate() {
                for entry in plan.entries() {
                    push(&mut requests, &mut stream_of, &mut elem_of, s, entry);
                }
            }
        }
        _ => {
            let mut cursors = vec![0usize; plans.len()];
            let mut turn = 0usize;
            while requests.len() < total {
                let s = turn % plans.len();
                turn += 1;
                let Some(entry) = plans[s].entries().get(cursors[s]) else {
                    continue;
                };
                push(&mut requests, &mut stream_of, &mut elem_of, s, entry);
                cursors[s] += 1;
            }
        }
    }
    Merged {
        requests,
        stream_of,
        elem_of,
    }
}

/// Runs the merged stream on the per-cycle oracle with tracing enabled
/// and rebuilds the per-request records from the event trace.
fn run_traced(cfg: MemConfig, plans: &[&AccessPlan], merged: &Merged) -> MultiStats {
    let mut sim = MemorySystem::new(cfg.with_engine(Engine::Cycle));
    sim.enable_trace();
    let combined = sim.run_requests(&merged.requests);
    let mut records = vec![Solved::default(); merged.requests.len()];
    let mut issued = 0usize;
    for event in sim.trace().events() {
        match *event {
            Event::Issue { cycle, element, .. } => {
                if let Some(record) = records.get_mut(element as usize) {
                    record.issue = cycle;
                }
                issued += 1;
            }
            // The stalled request is the next un-issued one.
            Event::Stall { .. } => {
                if let Some(record) = records.get_mut(issued) {
                    record.stalls += 1;
                }
            }
            Event::ServiceStart { cycle, element, .. } => {
                if let Some(record) = records.get_mut(element as usize) {
                    record.late = cycle > record.issue;
                }
            }
            _ => {}
        }
    }
    demux(plans, merged, &records, &combined)
}

/// Solves the merged single-port stream in request order, trace-free,
/// recording each request's issue cycle, late start and stall cycles.
fn run_solved(cfg: MemConfig, plans: &[&AccessPlan], merged: &Merged) -> MultiStats {
    let total = merged.requests.len();
    let mut records = Vec::with_capacity(total);
    let mut combined = AccessStats::default();
    MemorySystem::new(cfg).solve(
        total,
        &|k| merged.requests[k],
        &mut combined,
        |_, solved, _| {
            records.push(*solved);
            true
        },
    );
    demux(plans, merged, &records, &combined)
}

/// De-multiplexes per-stream statistics from the combined run and its
/// per-request records, indexed by merged request: each one's issue
/// cycle, late service start (a conflict) and stall cycles charged.
fn demux(
    plans: &[&AccessPlan],
    merged: &Merged,
    records: &[Solved],
    combined: &AccessStats,
) -> MultiStats {
    let mut streams = empty_streams(plans);
    let mut first_issue = vec![None; plans.len()];
    for (k, record) in records.iter().enumerate() {
        let s = merged.stream_of[k] as usize;
        let elem = merged.elem_of[k] as usize;
        if let Some(first) = first_issue.get_mut(s) {
            // Requests issue in merged order: the first seen is the
            // stream's first issue.
            first.get_or_insert(record.issue);
        }
        if let Some(stream) = streams.get_mut(s) {
            stream.conflicts += u64::from(record.late);
            stream.stall_cycles += record.stalls;
            if let Some(slot) = stream.arrival.get_mut(elem) {
                *slot = combined.arrival.get(k).copied().unwrap_or(0);
            }
        }
    }
    for (stream, first) in streams.iter_mut().zip(first_issue) {
        finalize_stream(stream, first);
    }
    MultiStats {
        streams,
        makespan: combined.latency,
        conflicts: combined.conflicts,
        stall_cycles: combined.stall_cycles,
    }
}

/// The work-conserving arbiter: its issue order depends on live module
/// state, so it runs its own cycle-accurate loop over the module array
/// (the same four phases as the cycle engine) and accounts per stream
/// directly at issue/service/delivery time.
fn run_work_conserving(cfg: MemConfig, plans: &[&AccessPlan], total: u64) -> MultiStats {
    let m_count = cfg.module_count() as usize;
    let t = cfg.t_cycles();
    let mut modules: Vec<MemModule> = (0..m_count)
        .map(|_| MemModule::new(t, cfg.q_in(), cfg.q_out()))
        .collect();
    let mut active: Vec<usize> = Vec::new();
    let mut cursors = vec![0usize; plans.len()];
    let mut streams = empty_streams(plans);
    let mut first_issue = vec![u64::MAX; plans.len()];
    // Side tables indexed by dense issue id (issue order).
    let mut issued_stream: Vec<u32> = Vec::with_capacity(total as usize);
    let mut issued_elem: Vec<u64> = Vec::with_capacity(total as usize);
    let mut rotation = 0usize;
    let mut delivered: u64 = 0;
    let mut first_issue_any: Option<u64> = None;
    let mut last_arrival: u64 = 0;
    let mut stall_total: u64 = 0;

    let safety_bound = 1_000_000u64.max(total * t * 4 + 10_000);
    let mut cycle: u64 = 0;
    while delivered < total {
        assert!(
            cycle < safety_bound,
            "multi-stream simulation exceeded {safety_bound} cycles — engine bug"
        );

        // Phase 1: service completions.
        for &idx in active.iter() {
            if let Some(module) = modules.get_mut(idx) {
                module.tick_complete(cycle);
            }
        }

        // Phase 2: bus grants — oldest issue first, lowest module on
        // ties; one grant per port.
        for _ in 0..cfg.ports() {
            let grant = active
                .iter()
                .filter_map(|&idx| {
                    modules
                        .get(idx)
                        .and_then(|m| m.output_ready().map(|r| (r, idx)))
                })
                .min();
            let Some((_, idx)) = grant else { break };
            let Some(req) = modules.get_mut(idx).and_then(MemModule::take_output) else {
                break;
            };
            let when = cycle + 1; // one-cycle bus
            let k = req.element as usize;
            let s = issued_stream.get(k).copied().unwrap_or(0) as usize;
            let elem = issued_elem.get(k).copied().unwrap_or(0) as usize;
            if let Some(stream) = streams.get_mut(s) {
                if let Some(slot) = stream.arrival.get_mut(elem) {
                    *slot = when;
                }
            }
            last_arrival = last_arrival.max(when);
            delivered += 1;
        }

        // Phase 3: work-conserving issue — scan streams from the
        // rotation pointer, skipping exhausted and blocked streams.
        for _ in 0..cfg.ports() {
            let mut issued_this_port = false;
            let mut first_pending: Option<usize> = None;
            for off in 0..plans.len() {
                let s = (rotation + off) % plans.len();
                let Some(entry) = plans[s].entries().get(cursors[s]) else {
                    continue;
                };
                if first_pending.is_none() {
                    first_pending = Some(s);
                }
                let midx = entry.module().get() as usize;
                let Some(module) = modules.get_mut(midx) else {
                    continue; // validated earlier; defensive
                };
                if !module.can_accept() {
                    continue;
                }
                let dense = issued_stream.len() as u64;
                module.accept(Request {
                    element: dense,
                    addr: entry.addr(),
                    module: entry.module(),
                    issue_cycle: cycle,
                });
                if let Err(pos) = active.binary_search(&midx) {
                    active.insert(pos, midx);
                }
                issued_stream.push(s as u32);
                issued_elem.push(entry.element());
                if let Some(first) = first_issue.get_mut(s) {
                    if *first == u64::MAX {
                        *first = cycle;
                    }
                }
                first_issue_any.get_or_insert(cycle);
                cursors[s] += 1;
                rotation = (s + 1) % plans.len();
                issued_this_port = true;
                break;
            }
            if !issued_this_port {
                if let Some(s) = first_pending {
                    // Every pending stream is blocked: a true stall,
                    // charged to the rotation head.
                    stall_total += 1;
                    if let Some(stream) = streams.get_mut(s) {
                        stream.stall_cycles += 1;
                    }
                }
                break;
            }
        }

        // Phase 4: service starts (+ per-stream conflict attribution).
        for &idx in active.iter() {
            let Some(module) = modules.get_mut(idx) else {
                continue;
            };
            let served_before = module.served();
            module.tick_start(cycle);
            if module.served() > served_before {
                if let Some(req) = module.in_service() {
                    if cycle > req.issue_cycle {
                        let k = req.element as usize;
                        let s = issued_stream.get(k).copied().unwrap_or(0) as usize;
                        if let Some(stream) = streams.get_mut(s) {
                            stream.conflicts += 1;
                        }
                    }
                }
            }
        }

        active.retain(|&idx| modules.get(idx).is_some_and(MemModule::is_active));
        cycle += 1;
    }

    for (stream, first) in streams.iter_mut().zip(&first_issue) {
        finalize_stream(
            stream,
            if *first == u64::MAX {
                None
            } else {
                Some(*first)
            },
        );
    }
    let conflicts = streams.iter().map(|s| s.conflicts).sum();
    MultiStats {
        streams,
        makespan: last_arrival - first_issue_any.unwrap_or(0) + 1,
        conflicts,
        stall_cycles: stall_total,
    }
}

/// Fresh zeroed per-stream stats, arrival buffers sized to the plans.
fn empty_streams(plans: &[&AccessPlan]) -> Vec<StreamStats> {
    plans
        .iter()
        .map(|p| StreamStats {
            elements: p.len(),
            arrival: vec![0; p.len() as usize],
            ..StreamStats::default()
        })
        .collect()
}

/// Derives `first_issue`, `latency` and `spread` from the filled
/// arrival buffer. An empty stream reports all three as `0` (the
/// regression the old stub got wrong: `last - first + 1` on default
/// zeros reported a spread of 1).
fn finalize_stream(stream: &mut StreamStats, first_issue: Option<u64>) {
    let Some(first_issue) = first_issue else {
        stream.first_issue = 0;
        stream.latency = 0;
        stream.spread = 0;
        return;
    };
    let first = stream.arrival.iter().copied().min().unwrap_or(0);
    let last = stream.arrival.iter().copied().max().unwrap_or(0);
    stream.first_issue = first_issue;
    stream.latency = last - first_issue + 1;
    stream.spread = last - first + 1;
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfva_core::mapping::XorMatched;
    use cfva_core::plan::{Planner, Strategy};
    use cfva_core::VectorSpec;

    fn cf_plan(base: u64, stride: i64) -> AccessPlan {
        let planner = Planner::matched(XorMatched::new(3, 4).unwrap());
        let vec = VectorSpec::new(base, stride, 128).unwrap();
        planner.plan(&vec, Strategy::ConflictFree).unwrap()
    }

    #[test]
    fn single_stream_reduces_to_run_plan() {
        let plan = cf_plan(16, 12);
        let cfg = MemConfig::new(3, 3).unwrap();
        let multi = run_interleaved(cfg, &[&plan]).unwrap();
        assert_eq!(multi.streams.len(), 1);
        assert_eq!(multi.makespan, 8 + 128 + 1);
        assert_eq!(multi.conflicts, 0);
        assert_eq!(multi.streams[0].latency, 8 + 128 + 1);
        assert_eq!(multi.streams[0].first_issue, 0);
    }

    #[test]
    fn two_streams_beat_sequential_execution() {
        let a = cf_plan(16, 12);
        let b = cf_plan(4096, 24);
        let cfg = MemConfig::new(3, 3).unwrap();
        let multi = run_interleaved(cfg, &[&a, &b]).unwrap();
        let sequential = MultiStats::sequential_baseline(&[137, 137]);
        assert!(
            multi.makespan < sequential,
            "makespan {} not better than sequential {}",
            multi.makespan,
            sequential
        );
        for s in &multi.streams {
            assert_eq!(s.elements, 128);
            assert!(s.arrival.iter().all(|&a| a > 0));
            assert!(s.latency >= s.spread);
        }
    }

    #[test]
    fn uneven_stream_lengths_complete() {
        let planner = Planner::matched(XorMatched::new(3, 4).unwrap());
        let a = planner
            .plan(&VectorSpec::new(0, 8, 128).unwrap(), Strategy::ConflictFree)
            .unwrap();
        let b = planner
            .plan(&VectorSpec::new(9999, 16, 32).unwrap(), Strategy::Canonical)
            .unwrap();
        let cfg = MemConfig::new(3, 3).unwrap();
        let multi = run_interleaved(cfg, &[&a, &b]).unwrap();
        assert_eq!(multi.streams[0].elements, 128);
        assert_eq!(multi.streams[1].elements, 32);
        assert!(multi.makespan >= 160);
    }

    #[test]
    fn four_streams_complete() {
        let plans: Vec<AccessPlan> = (0..4).map(|i| cf_plan(10_000 * i + 3, 8)).collect();
        let refs: Vec<&AccessPlan> = plans.iter().collect();
        let cfg = MemConfig::new(3, 3).unwrap();
        let multi = run_interleaved(cfg, &refs).unwrap();
        assert_eq!(multi.streams.len(), 4);
        assert!(multi.makespan >= 512);
    }

    #[test]
    fn empty_stream_reports_zero_spread_and_latency() {
        // Regression: the old stub reported spread = 1 for an empty
        // stream (`last - first + 1` on unwrap_or(0) defaults).
        let empty = AccessPlan::default();
        let plan = cf_plan(16, 12);
        let cfg = MemConfig::new(3, 3).unwrap();
        for policy in [
            IssuePolicy::RoundRobin,
            IssuePolicy::Priority,
            IssuePolicy::WorkConserving,
        ] {
            let multi = run_multi(cfg, &[&empty, &plan], policy).unwrap();
            assert_eq!(multi.streams[0].elements, 0);
            assert_eq!(multi.streams[0].spread, 0, "{policy}");
            assert_eq!(multi.streams[0].latency, 0, "{policy}");
            assert_eq!(multi.streams[0].first_issue, 0, "{policy}");
            assert!(multi.streams[1].spread > 0, "{policy}");
        }
        // All-empty runs are well-defined too.
        let multi = run_multi(cfg, &[&empty], IssuePolicy::RoundRobin).unwrap();
        assert_eq!(multi.makespan, 0);
        assert_eq!(multi.streams[0].spread, 0);
    }

    #[test]
    fn out_of_range_module_is_a_typed_error() {
        let plan = cf_plan(16, 12); // 8-module plan
        let cfg = MemConfig::new(2, 2).unwrap(); // 4-module memory
        let err = run_interleaved(cfg, &[&plan]).unwrap_err();
        assert!(
            matches!(err, ConfigError::OutOfRange { what: "module", .. }),
            "{err:?}"
        );
    }

    #[test]
    fn oversized_stream_count_is_a_typed_error() {
        let plan = AccessPlan::default();
        let plans: Vec<&AccessPlan> = (0..(1 << 15)).map(|_| &plan).collect();
        let cfg = MemConfig::new(3, 3).unwrap();
        let err = run_interleaved(cfg, &plans).unwrap_err();
        assert!(
            matches!(
                err,
                ConfigError::OutOfRange {
                    what: "streams",
                    ..
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn priority_policy_orders_streams_back_to_back() {
        let a = cf_plan(16, 12);
        let b = cf_plan(4096, 24);
        let cfg = MemConfig::new(3, 3).unwrap();
        let multi = run_multi(cfg, &[&a, &b], IssuePolicy::Priority).unwrap();
        // Stream 0 issues its whole plan first, so its stats match a
        // solo run; stream 1 starts 128 cycles later.
        assert_eq!(multi.streams[0].first_issue, 0);
        assert_eq!(multi.streams[0].latency, 137);
        assert_eq!(multi.streams[1].first_issue, 128);
        // Drain overlap: the combined run still beats sequential.
        assert!(multi.makespan < 137 * 2);
    }

    #[test]
    fn work_conserving_skips_blocked_streams() {
        // Stream A hammers one module (stride 0 ⇒ same address); stream
        // B is conflict free. Round-robin head-of-line blocks B behind
        // A's stalls; work-conserving issues B's requests while A waits.
        let planner = Planner::matched(XorMatched::new(3, 4).unwrap());
        let a = planner
            .plan(
                &VectorSpec::new(3, 1 << 7, 64).unwrap(),
                Strategy::Canonical,
            )
            .unwrap();
        let b = cf_plan(16, 12);
        let cfg = MemConfig::new(3, 3).unwrap();
        let rr = run_multi(cfg, &[&a, &b], IssuePolicy::RoundRobin).unwrap();
        let wc = run_multi(cfg, &[&a, &b], IssuePolicy::WorkConserving).unwrap();
        assert!(
            wc.streams[1].latency < rr.streams[1].latency,
            "work-conserving {} !< round-robin {}",
            wc.streams[1].latency,
            rr.streams[1].latency
        );
        // The clustered stream bears the brunt of the queueing it
        // causes; the conflict-free stream only collides where its
        // rotation crosses the hammered module.
        assert!(wc.streams[0].conflicts > 0);
        assert!(wc.streams[0].conflicts > wc.streams[1].conflicts);
    }

    #[test]
    fn per_stream_totals_add_up() {
        let planner = Planner::matched(XorMatched::new(3, 4).unwrap());
        let a = planner
            .plan(&VectorSpec::new(0, 8, 96).unwrap(), Strategy::Canonical)
            .unwrap();
        let b = planner
            .plan(&VectorSpec::new(5, 8, 96).unwrap(), Strategy::Canonical)
            .unwrap();
        let cfg = MemConfig::new(3, 3).unwrap();
        for policy in [
            IssuePolicy::RoundRobin,
            IssuePolicy::Priority,
            IssuePolicy::WorkConserving,
        ] {
            let multi = run_multi(cfg, &[&a, &b], policy).unwrap();
            assert_eq!(
                multi.conflicts,
                multi.streams.iter().map(|s| s.conflicts).sum::<u64>(),
                "{policy}"
            );
            assert_eq!(
                multi.stall_cycles,
                multi.streams.iter().map(|s| s.stall_cycles).sum::<u64>(),
                "{policy}"
            );
        }
    }

    #[test]
    fn fast_path_matches_cycle_oracle_on_conflicted_and_free_streams() {
        let planner = Planner::matched(XorMatched::new(3, 4).unwrap());
        let free_a = cf_plan(16, 12);
        let free_b = cf_plan(4096, 24);
        let clustered = planner
            .plan(
                &VectorSpec::new(0, 1 << 7, 48).unwrap(),
                Strategy::Canonical,
            )
            .unwrap();
        let single = MemConfig::new(3, 3).unwrap();
        // One port runs on the solver; two take the traced oracle route
        // under every engine.
        for cfg in [single, single.with_ports(2).unwrap()] {
            for policy in [IssuePolicy::RoundRobin, IssuePolicy::Priority] {
                for plans in [vec![&free_a, &free_b], vec![&free_a, &clustered]] {
                    let oracle = run_multi(cfg, &plans, policy).unwrap();
                    for engine in [Engine::FastPath, Engine::Periodic] {
                        let fast_path = run_multi(cfg.with_engine(engine), &plans, policy).unwrap();
                        assert_eq!(oracle, fast_path, "{policy} {engine:?} {}", cfg.ports());
                    }
                }
            }
        }
    }
}
