//! White-box timing invariants of the cycle engine.

use cfva_core::mapping::{Interleaved, XorMatched};
use cfva_core::plan::{Planner, Strategy};
use cfva_core::VectorSpec;
use cfva_memsim::{MemConfig, MemorySystem, Timing};

/// Unobstructed requests arrive exactly `T + 1` cycles after issue.
#[test]
fn arrival_is_issue_plus_t_plus_one() {
    for t in [1u32, 2, 3, 4] {
        let planner = Planner::matched(XorMatched::new(t, t).unwrap());
        let vec = VectorSpec::new(0, 1i64 << t, 1 << (t + 2)).unwrap(); // x = s = t
        let plan = planner.plan(&vec, Strategy::ConflictFree).unwrap();
        let stats = MemorySystem::new(MemConfig::new(t, t).unwrap()).run_plan(&plan);
        for (k, entry) in plan.iter().enumerate() {
            assert_eq!(
                stats.arrival[entry.element() as usize],
                k as u64 + (1 << t) + 1,
                "t={t} request {k}"
            );
        }
    }
}

/// Per-request timing sanity on a conflicted plan: issue ≤ start,
/// completion exactly `T` after the start (one output slot per module,
/// and the bus never holds one back here), and arrival one cycle after
/// the bus grant.
#[test]
fn timings_are_ordered_per_request() {
    let planner = Planner::matched(XorMatched::new(3, 3).unwrap());
    let vec = VectorSpec::new(16, 12, 64).unwrap();
    let plan = planner.plan(&vec, Strategy::Canonical).unwrap(); // has conflicts
    let requests: Vec<_> = plan
        .iter()
        .map(|e| (e.element(), vec.element_addr(e.element()), e.module()))
        .collect();
    let (stats, timings) = MemorySystem::new(MemConfig::new(3, 3).unwrap()).run_timed(&requests);
    assert!(stats.conflicts > 0);
    assert_eq!(timings.len(), 64);
    for (timing, &(element, _, _)) in timings.iter().zip(&requests) {
        let Timing {
            issue,
            start,
            done,
            grant,
            ..
        } = *timing;
        assert!(
            issue <= start,
            "element {element}: issue {issue} > start {start}"
        );
        assert_eq!(done, start + 8, "element {element}: service is 8 cycles");
        assert!(
            grant >= done,
            "element {element}: grant {grant} < done {done}"
        );
        assert_eq!(
            grant + 1,
            stats.arrival[element as usize],
            "element {element}"
        );
    }
}

/// With a single output buffer and a blocked bus, the module pipeline
/// back-pressures: total busy time still equals served × T.
#[test]
fn module_busy_accounting() {
    let planner = Planner::baseline(Interleaved::new(2).unwrap(), 3);
    let vec = VectorSpec::new(0, 4, 32).unwrap(); // all in module 0
    let plan = planner.plan(&vec, Strategy::Canonical).unwrap();
    let stats = MemorySystem::new(MemConfig::new(2, 3).unwrap()).run_plan(&plan);
    assert_eq!(stats.module_busy[0], 32 * 8);
    assert_eq!(stats.module_busy[1], 0);
    // Serialised latency: module 0 is the bottleneck.
    assert!(stats.latency >= 32 * 8);
    // Stalls: the single input buffer fills while the module is busy.
    assert!(stats.stall_cycles > 0);
}

/// The bus never delivers more than one element per cycle (single
/// port): arrival cycles are all distinct.
#[test]
fn bus_delivers_one_per_cycle() {
    let planner = Planner::matched(XorMatched::new(3, 3).unwrap());
    let vec = VectorSpec::new(16, 12, 64).unwrap();
    let plan = planner.plan(&vec, Strategy::Subsequence).unwrap();
    let cfg = MemConfig::new(3, 3).unwrap().with_queues(2, 1).unwrap();
    let stats = MemorySystem::new(cfg).run_plan(&plan);
    let mut arrivals = stats.arrival.to_vec();
    arrivals.sort_unstable();
    for w in arrivals.windows(2) {
        assert!(w[0] < w[1], "two deliveries at cycle {}", w[0]);
    }
}

/// Multi-port: with p ports, up to p deliveries per cycle, never more.
#[test]
fn multi_port_delivery_cap() {
    let planner = Planner::baseline(Interleaved::new(6).unwrap(), 3);
    let vec = VectorSpec::new(0, 1, 128).unwrap();
    let plan = planner.plan(&vec, Strategy::Canonical).unwrap();
    for ports in [2usize, 4] {
        let cfg = MemConfig::new(6, 3).unwrap().with_ports(ports).unwrap();
        let stats = MemorySystem::new(cfg).run_plan(&plan);
        let mut per_cycle = std::collections::HashMap::new();
        for &a in &stats.arrival {
            *per_cycle.entry(a).or_insert(0u32) += 1;
        }
        assert!(
            per_cycle.values().all(|&c| c <= ports as u32),
            "ports={ports}: more deliveries than ports in one cycle"
        );
    }
}

/// Stats invariants hold across a batch of random-ish plans.
#[test]
fn stats_invariants() {
    let planner = Planner::matched(XorMatched::new(3, 4).unwrap());
    let cfg = MemConfig::new(3, 3).unwrap();
    for (base, stride) in [(0u64, 1i64), (7, 6), (100, 12), (3, 48), (9, 96), (11, 7)] {
        let vec = VectorSpec::new(base, stride, 128).unwrap();
        let plan = planner.plan(&vec, Strategy::Auto).unwrap();
        let stats = MemorySystem::new(cfg).run_plan(&plan);
        // Latency at least the floor (T + L + 1), busy time conserved,
        // arrivals set.
        assert!(stats.latency > 8 + 128);
        assert_eq!(stats.module_busy.iter().sum::<u64>(), 128 * 8);
        assert_eq!(stats.arrival.len(), 128);
        assert!(stats.arrival.iter().all(|&a| a != u64::MAX));
        assert!(stats.throughput() <= 1.0);
        assert!(stats.efficiency(8) <= 1.0);
    }
}
