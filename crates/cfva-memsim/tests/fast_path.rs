//! Equivalence suite: the route's conflict-free fast path must produce
//! **bit-identical** `AccessStats` to the cycle oracle, for every kind
//! of plan — conflict free (where the shortcut engages), conflicted
//! (where it must fall back), buffered and multi-port configurations
//! (where it must not engage).

use cfva_core::mapping::{Interleaved, XorMatched, XorUnmatched};
use cfva_core::plan::{AccessPlan, Planner, Strategy};
use cfva_core::{Stride, VectorSpec};
use cfva_memsim::{MemConfig, MemorySystem};

/// Runs one plan through the oracle and the route on fresh systems and
/// asserts identical statistics.
fn assert_equivalent(cfg: MemConfig, plan: &AccessPlan, label: &str) {
    let oracle = MemorySystem::new(cfg).run_oracle(plan);
    let mut fast = MemorySystem::new(cfg);
    let shortcut = fast.run_plan(plan);
    assert_eq!(oracle, shortcut, "{label}");
    // And again through the same (reused) system: reuse must not leak
    // state between runs.
    let again = fast.run_plan(plan);
    assert_eq!(oracle, again, "{label} (reused system)");
}

#[test]
fn conflict_free_matched_plans_are_identical() {
    let planner = Planner::matched(XorMatched::new(3, 4).unwrap());
    let cfg = MemConfig::new(3, 3).unwrap();
    for x in 0..=4u32 {
        for sigma in [1i64, 3, 5, 7] {
            for base in [0u64, 16, 37, 1000] {
                let stride = Stride::from_parts(sigma, x).unwrap();
                let vec = VectorSpec::with_stride(base.into(), stride, 128).unwrap();
                let plan = planner.plan(&vec, Strategy::ConflictFree).unwrap();
                assert_equivalent(cfg, &plan, &format!("x={x} sigma={sigma} base={base}"));
            }
        }
    }
}

#[test]
fn conflict_free_unmatched_plans_are_identical() {
    let planner = Planner::unmatched(XorUnmatched::new(3, 4, 9).unwrap());
    let cfg = MemConfig::new(6, 3).unwrap();
    for x in 0..=9u32 {
        let stride = Stride::from_parts(3, x).unwrap();
        let vec = VectorSpec::with_stride(77u64.into(), stride, 128).unwrap();
        let plan = planner.plan(&vec, Strategy::ConflictFree).unwrap();
        assert_equivalent(cfg, &plan, &format!("unmatched x={x}"));
    }
}

#[test]
fn conflicted_plans_fall_back_to_the_engine() {
    let planner = Planner::matched(XorMatched::new(3, 4).unwrap());
    let cfg = MemConfig::new(3, 3).unwrap();
    // Canonical orders of in-window families conflict; families beyond
    // the window degrade badly (stride 256 clusters hard).
    for (base, stride) in [(16u64, 12i64), (0, 4), (9, 96), (0, 256), (5, 32)] {
        let vec = VectorSpec::new(base, stride, 128).unwrap();
        let plan = planner.plan(&vec, Strategy::Canonical).unwrap();
        assert_equivalent(
            cfg,
            &plan,
            &format!("canonical base={base} stride={stride}"),
        );
    }
    // Worst case: everything on one module.
    let clustered = Planner::baseline(Interleaved::new(3).unwrap(), 3);
    let vec = VectorSpec::new(0, 8, 64).unwrap();
    let plan = clustered.plan(&vec, Strategy::Canonical).unwrap();
    assert_equivalent(cfg, &plan, "fully clustered");
}

#[test]
fn buffered_and_multiport_configs_are_identical() {
    let planner = Planner::matched(XorMatched::new(3, 4).unwrap());
    let vec = VectorSpec::new(16, 12, 128).unwrap();

    // Buffered memory, subsequence order (conflicts at seams).
    let buffered = MemConfig::new(3, 3).unwrap().with_queues(2, 1).unwrap();
    let plan = planner.plan(&vec, Strategy::Subsequence).unwrap();
    assert_equivalent(buffered, &plan, "buffered subsequence");

    // Buffered memory, conflict-free plan (shortcut engages; q_in > 1
    // must not change the outcome).
    let plan = planner.plan(&vec, Strategy::ConflictFree).unwrap();
    assert_equivalent(buffered, &plan, "buffered conflict-free");

    // Multi-port memory: the shortcut must not engage (it models one
    // port); results still identical because the engine runs.
    let dual = MemConfig::new(6, 3).unwrap().with_ports(2).unwrap();
    let wide = Planner::baseline(Interleaved::new(6).unwrap(), 3);
    let plan = wide
        .plan(&VectorSpec::new(0, 1, 128).unwrap(), Strategy::Canonical)
        .unwrap();
    assert_equivalent(dual, &plan, "dual port");
}

#[test]
fn empty_plan_is_identical() {
    let cfg = MemConfig::new(3, 3).unwrap();
    let plan = AccessPlan::new();
    assert_equivalent(cfg, &plan, "empty plan");
}
