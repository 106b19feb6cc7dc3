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
//! Accounting is per stream, [`AccessStats`]-grade:
//! each [`StreamStats`] carries the stream's arrival cycles, first
//! issue, latency, spread, and — attributed to the stream that *lost*
//! arbitration — its queueing conflicts and bus stalls. Cross-stream
//! conflicts appear even when each stream is conflict free alone;
//! quantifying that is exactly the open question the authors pose, and
//! [`crate::multi`] plus the predictor in `cfva_core::equiv` answer it.
//!
//! ## Engines
//!
//! Every policy runs as streams that each issue in order. The static
//! policies (`RoundRobin`, `Priority`) merge the plans into one request
//! stream; [`IssuePolicy::WorkConserving`] keeps one stream per plan,
//! since its issue order depends on live module state. The cycle
//! oracle runs every multi-port memory and every work-conserving
//! co-run, at `O(cycles × occupied modules)`, and every co-run of
//! [`run_multi_oracle`]. [`run_multi`] sends a static policy's merged
//! stream on one port through the periodic pass (`periodic.rs`), solved
//! until its state recurs and copied after: a round-robin merge of `k`
//! equal-length plans with periods `P_i` carries `k·lcm(P_i)`, and any
//! other merge, having no known period, is solved to the end. Either
//! way each request's [`Timing`] goes to one de-multiplexer that
//! accumulates the per-stream statistics; `tests` prove the two entry
//! points bit-identical for every registered map.
//!
//! ## Errors
//!
//! Unlike the early stub, nothing here panics: oversized stream counts,
//! oversized merged streams and out-of-range plan modules all surface
//! as [`ConfigError::OutOfRange`].

use cfva_core::plan::{AccessPlan, PlanEntry};
use cfva_core::{ConfigError, ModuleId};

use crate::config::MemConfig;
use crate::stats::AccessStats;
use crate::system::{MemorySystem, Timing};

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

/// The merged request stream in merge order: each request's stream,
/// its element within that stream (below 2^32, as [`validate`] bounds
/// the total) and its module. Request `k` carries the dense id `k`.
type Merged = Vec<(u32, u32, ModuleId)>;

/// Upper bound on concurrent streams (the stream side-table is `u32`;
/// the practical bound is far lower).
const MAX_STREAMS: u64 = 1 << 15;
/// Upper bound on the merged request stream.
const MAX_TOTAL_ELEMENTS: u64 = 1 << 32;

/// Validates stream count and combined length up front (and [`merge`]
/// the module range) so the engines below cannot hit their internal
/// contract panics.
fn validate(plans: &[&AccessPlan]) -> Result<u64, ConfigError> {
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
    Ok(total)
}

/// Runs several plans through one memory under an issue policy.
///
/// Work-conserving co-runs and any multi-port memory step the per-cycle
/// oracle; a static policy's merged stream on one port is solved in
/// request order and copied past a recurrence — see the
/// [module docs](self). The statistics equal
/// [`run_multi_oracle`]'s.
///
/// # Performance
///
/// A co-run on the oracle costs `O(cycles × occupied modules)`, where a
/// solved one costs `O(requests)`, mostly copying once a periodic
/// stream recurs.
///
/// # Errors
///
/// [`ConfigError::OutOfRange`] on more than `2^15` streams, more than
/// `2^32` combined elements, or a plan module outside the memory.
#[must_use = "the co-run's statistics are its only output"]
pub fn run_multi(
    cfg: MemConfig,
    plans: &[&AccessPlan],
    policy: IssuePolicy,
) -> Result<MultiStats, ConfigError> {
    co_run(cfg, plans, policy, false)
}

/// [`run_multi`] on the per-cycle oracle, whatever the policy and the
/// port count: the reference semantics of a co-run.
///
/// # Errors
///
/// As [`run_multi`].
#[must_use = "the co-run's statistics are its only output"]
pub fn run_multi_oracle(
    cfg: MemConfig,
    plans: &[&AccessPlan],
    policy: IssuePolicy,
) -> Result<MultiStats, ConfigError> {
    co_run(cfg, plans, policy, true)
}

/// The co-run behind [`run_multi`] and, with `oracle`,
/// [`run_multi_oracle`].
fn co_run(
    cfg: MemConfig,
    plans: &[&AccessPlan],
    policy: IssuePolicy,
    oracle: bool,
) -> Result<MultiStats, ConfigError> {
    let total = validate(plans)?;
    if total == 0 {
        return Ok(MultiStats {
            streams: plans.iter().map(|_| StreamStats::default()).collect(),
            makespan: 0,
            conflicts: 0,
            stall_cycles: 0,
        });
    }
    let merged = merge(&cfg, plans, total, policy)?;
    let request = |k: usize| (k as u64, merged[k].2);
    let n = merged.len();
    let mut sim = MemorySystem::new(cfg);
    let mut combined = AccessStats::default();
    let mut demux = Demux::new(plans, &merged);
    let work_conserving = policy == IssuePolicy::WorkConserving;
    if oracle || work_conserving || cfg.ports() != 1 {
        // Work-conserving issue rotates over one stream per plan; a
        // static policy's merged stream is a single stream.
        let ends: Vec<usize> = if work_conserving {
            plans
                .iter()
                .scan(0, |end, plan| {
                    *end += plan.len() as usize;
                    Some(*end)
                })
                .collect()
        } else {
            vec![n]
        };
        sim.run_cycle(&ends, &request, &mut combined);
        for (k, timing) in sim.timings.iter().enumerate() {
            demux.record(k, timing);
        }
    } else {
        // The periodic pass: solved, and copied past a recurrence.
        let period = merged_period(plans, policy);
        sim.run_periodic(n, period, &request, &mut combined, |k, t| {
            demux.record(k, t)
        });
    }
    Ok(demux.finish(&combined))
}

/// A true period of the merged module sequence, when one is known: a
/// round-robin merge of `k` equal-length plans that each carry a period
/// `P_i` puts request `j` on plan `j mod k` at position `⌊j / k⌋`, so it
/// repeats every `k·lcm(P_i)` requests. `None` for other merges, for a
/// plan without a period, and on overflow.
fn merged_period(plans: &[&AccessPlan], policy: IssuePolicy) -> Option<u64> {
    let len = plans.first()?.len();
    if policy != IssuePolicy::RoundRobin || plans.iter().any(|p| p.len() != len) {
        return None;
    }
    let lcm = plans.iter().try_fold(1u64, |lcm, plan| {
        let p = plan.period().filter(|&p| p > 0)?;
        let (mut a, mut b) = (lcm, p);
        while b != 0 {
            (a, b) = (b, a % b);
        }
        (lcm / a).checked_mul(p)
    })?;
    lcm.checked_mul(plans.len() as u64)
}

/// Builds the merged request stream of `total` requests, checking each
/// module against the memory's range. Round-robin interleaves the
/// plans, taking the `r`-th request of every plan that has one in turn
/// `r`; the other policies concatenate them in plan order.
fn merge(
    cfg: &MemConfig,
    plans: &[&AccessPlan],
    total: u64,
    policy: IssuePolicy,
) -> Result<Merged, ConfigError> {
    let module_count = cfg.module_count();
    let mut merged = Vec::with_capacity(total as usize);
    let mut push = |s: usize, entry: PlanEntry| {
        if entry.module().get() >= module_count {
            return Err(ConfigError::OutOfRange {
                what: "module",
                value: entry.module().get(),
                constraint: "every plan module within the memory's range",
            });
        }
        merged.push((s as u32, entry.element() as u32, entry.module()));
        Ok(())
    };
    match policy {
        IssuePolicy::RoundRobin => {
            let longest = plans.iter().map(|p| p.len()).max().unwrap_or(0);
            for r in 0..longest {
                for (s, plan) in plans.iter().enumerate() {
                    if r < plan.len() {
                        push(s, plan.request(r as usize))?;
                    }
                }
            }
        }
        IssuePolicy::Priority | IssuePolicy::WorkConserving => {
            for (s, plan) in plans.iter().enumerate() {
                for entry in plan.iter() {
                    push(s, entry)?;
                }
            }
        }
    }
    Ok(merged)
}

/// The de-multiplexer: per-stream statistics accumulated from the
/// merged requests' timings, whichever engine produced them.
struct Demux<'m> {
    merged: &'m Merged,
    /// Per-stream stats; `first_issue` holds `u64::MAX` until the
    /// stream's first request is recorded.
    streams: Vec<StreamStats>,
}

impl<'m> Demux<'m> {
    /// Zeroed per-stream stats, arrival buffers sized to the plans.
    fn new(plans: &[&AccessPlan], merged: &'m Merged) -> Self {
        let streams = plans
            .iter()
            .map(|p| StreamStats {
                elements: p.len(),
                arrival: vec![0; p.len() as usize],
                first_issue: u64::MAX,
                ..StreamStats::default()
            })
            .collect();
        Demux { merged, streams }
    }

    /// Charges merged request `k` to its stream: its issue cycle, late
    /// service start (a conflict), stall cycles and arrival. Requests
    /// come in merged order.
    fn record(&mut self, k: usize, timing: &Timing) {
        let (s, element, _) = self.merged[k];
        if let Some(stream) = self.streams.get_mut(s as usize) {
            // Each stream issues in order: its first request is its
            // first issue.
            stream.first_issue = stream.first_issue.min(timing.issue);
            stream.conflicts += u64::from(timing.start > timing.issue);
            stream.stall_cycles += timing.stalls;
            if let Some(slot) = stream.arrival.get_mut(element as usize) {
                *slot = timing.grant + 1; // one-cycle bus
            }
        }
    }

    /// The run's statistics, with the combined run's totals.
    fn finish(self, combined: &AccessStats) -> MultiStats {
        let mut streams = self.streams;
        for stream in &mut streams {
            finalize_stream(stream);
        }
        MultiStats {
            streams,
            makespan: combined.latency,
            conflicts: combined.conflicts,
            stall_cycles: combined.stall_cycles,
        }
    }
}

/// Derives `latency` and `spread` from the filled arrival buffer and
/// the recorded first issue. An empty stream reports all three as `0`
/// (the regression the old stub got wrong: `last - first + 1` on
/// default zeros reported a spread of 1).
fn finalize_stream(stream: &mut StreamStats) {
    if stream.elements == 0 {
        stream.first_issue = 0;
        stream.latency = 0;
        stream.spread = 0;
        return;
    }
    let (first, last) = stream
        .arrival
        .iter()
        .fold((u64::MAX, 0), |(lo, hi), &a| (lo.min(a), hi.max(a)));
    stream.latency = last - stream.first_issue + 1;
    stream.spread = last - first + 1;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::periodic::{Detection, PeriodicScratch};
    use cfva_core::mapping::XorMatched;
    use cfva_core::plan::{Planner, Strategy};
    use cfva_core::VectorSpec;

    fn cf_plan(base: u64, stride: i64) -> AccessPlan {
        let planner = Planner::matched(XorMatched::new(3, 4).unwrap());
        let vec = VectorSpec::new(base, stride, 128).unwrap();
        planner.plan(&vec, Strategy::ConflictFree).unwrap()
    }

    /// The co-run twin of the detector guard in `periodic.rs`: a long
    /// two-stream conflicted round-robin co-run carries its merged
    /// period and, with it, finds a recurrence and copies at least 90%
    /// of its requests; its per-stream statistics still equal the cycle
    /// oracle's.
    #[test]
    fn detection_copies_most_of_a_long_conflicted_co_run() {
        let planner = Planner::matched(XorMatched::new(3, 4).unwrap());
        let cfg = MemConfig::new(3, 3).unwrap();
        let plan = |base, stride| {
            let vec = VectorSpec::new(base, stride, 2048).unwrap();
            planner.plan(&vec, Strategy::Canonical).unwrap()
        };
        // Families 2 and 3: P_x = 32 and 16.
        let (a, b) = (plan(16, 12), plan(4099, 24));
        let plans = [&a, &b];
        let period = merged_period(&plans, IssuePolicy::RoundRobin);
        assert_eq!(period, Some(2 * 32));
        let merged = merge(&cfg, &plans, 4096, IssuePolicy::RoundRobin).unwrap();
        let request = |k: usize| (k as u64, merged[k].2);
        let mut scratch = PeriodicScratch::default();
        let mut detection =
            Detection::new(&cfg, 4096, period, &request, &mut scratch).expect("detection starts");
        let mut out = AccessStats::default();
        let sum = MemorySystem::new(cfg).solve(4096, &request, &mut out, |j, sum, solver| {
            detection.visit(j, sum, solver)
        });
        assert!(sum.conflicts > 0);
        let to = detection.matched_at().expect("a recurrence is found");
        let copied = 4096 - to;
        assert!(10 * copied >= 9 * 4096, "only {copied} of 4096 copied");
        let oracle = run_multi_oracle(cfg, &plans, IssuePolicy::RoundRobin);
        assert_eq!(run_multi(cfg, &plans, IssuePolicy::RoundRobin), oracle);
    }

    #[test]
    fn merged_period_needs_equal_lengths_and_plan_periods() {
        let planner = Planner::matched(XorMatched::new(3, 4).unwrap());
        let canonical = |len| {
            let vec = VectorSpec::new(16, 12, len).unwrap();
            planner.plan(&vec, Strategy::Canonical).unwrap()
        };
        let (a, b, short) = (canonical(128), canonical(128), canonical(64));
        let replay = cf_plan(16, 12);
        let unknown = AccessPlan::concat([&a]);
        assert_eq!(merged_period(&[&a], IssuePolicy::RoundRobin), Some(32));
        assert_eq!(merged_period(&[&a, &b], IssuePolicy::RoundRobin), Some(64));
        assert_eq!(merged_period(&[&a, &short], IssuePolicy::RoundRobin), None);
        assert_eq!(merged_period(&[&a, &b], IssuePolicy::Priority), None);
        assert_eq!(
            merged_period(&[&a, &replay], IssuePolicy::RoundRobin),
            Some(64)
        );
        assert_eq!(
            merged_period(&[&a, &unknown], IssuePolicy::RoundRobin),
            None
        );
    }

    #[test]
    fn single_stream_reduces_to_run_plan() {
        let plan = cf_plan(16, 12);
        let cfg = MemConfig::new(3, 3).unwrap();
        let multi = run_multi(cfg, &[&plan], IssuePolicy::RoundRobin).unwrap();
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
        let multi = run_multi(cfg, &[&a, &b], IssuePolicy::RoundRobin).unwrap();
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
        let multi = run_multi(cfg, &[&a, &b], IssuePolicy::RoundRobin).unwrap();
        assert_eq!(multi.streams[0].elements, 128);
        assert_eq!(multi.streams[1].elements, 32);
        assert!(multi.makespan >= 160);
    }

    #[test]
    fn four_streams_complete() {
        let plans: Vec<AccessPlan> = (0..4).map(|i| cf_plan(10_000 * i + 3, 8)).collect();
        let refs: Vec<&AccessPlan> = plans.iter().collect();
        let cfg = MemConfig::new(3, 3).unwrap();
        let multi = run_multi(cfg, &refs, IssuePolicy::RoundRobin).unwrap();
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
        let err = run_multi(cfg, &[&plan], IssuePolicy::RoundRobin).unwrap_err();
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
        let err = run_multi(cfg, &plans, IssuePolicy::RoundRobin).unwrap_err();
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
    fn the_route_matches_the_oracle_on_conflicted_and_free_streams() {
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
        // One port runs on the solver; two step the oracle.
        for cfg in [single, single.with_ports(2).unwrap()] {
            for policy in [IssuePolicy::RoundRobin, IssuePolicy::Priority] {
                for plans in [vec![&free_a, &free_b], vec![&free_a, &clustered]] {
                    let oracle = run_multi_oracle(cfg, &plans, policy).unwrap();
                    let route = run_multi(cfg, &plans, policy).unwrap();
                    assert_eq!(oracle, route, "{policy} {}", cfg.ports());
                }
            }
        }
    }
}
