//! Property suite: the simulating route (the conflict-free fast path,
//! then the periodic steady-state fast-forward pass) agrees bit-for-bit
//! with the cycle oracle on randomly generated plans — across
//! **every registered `ModuleMap`** (the registry coverage set, so new
//! maps are covered on registration) — and on synthetic request
//! streams that mix conflict-free windows with bursts to a single
//! module.

use cfva::core::mapping::Registry;
use cfva::core::plan::{Planner, Strategy};
use cfva::memsim::{MemConfig, MemorySystem};
use cfva::{Addr, ModuleId, Stride, VectorSpec};
use proptest::prelude::*;

/// Number of registered maps: the `kind` dimension of the proptests.
fn registry_len() -> usize {
    Registry::builtin().all_specs().len()
}

/// One planner + memory configuration per registered map, both derived
/// from the same coverage spec (`xor-matched`/`xor-unmatched` get
/// their out-of-order planners and the unmatched `M = T²` geometry).
fn planner_for(kind: usize) -> (Planner, MemConfig) {
    let specs = Registry::builtin().all_specs();
    let spec = &specs[kind % specs.len()];
    (
        Planner::from_spec(spec).expect("coverage specs are buildable"),
        MemConfig::from_spec(spec).expect("coverage specs fit the simulator"),
    )
}

/// Runs one plan through the oracle and the route on fresh systems and
/// asserts identical statistics.
fn engines_agree_on_plan(
    planner: &Planner,
    cfg: MemConfig,
    vec: &VectorSpec,
    strategy: Strategy,
) -> Result<(), TestCaseError> {
    let Ok(plan) = planner.plan(vec, strategy) else {
        // Strategy cannot serve the access (e.g. family outside the
        // window for ConflictFree): nothing to compare.
        return Ok(());
    };
    let oracle = MemorySystem::new(cfg).run_oracle(&plan);
    let route = MemorySystem::new(cfg).run_plan(&plan);
    prop_assert_eq!(&oracle, &route, "oracle vs route");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random plans over every registered map, strategies and queue
    /// shapes: identical `AccessStats` from the oracle and the route.
    #[test]
    fn engines_agree_on_random_plans(
        kind in 0usize..registry_len(),
        x in 0u32..=7,
        sigma in prop::sample::select(vec![1i64, 3, 5, 7, 9]),
        base in 0u64..10_000,
        lambda in 4u32..=7,
        strategy in prop::sample::select(vec![
            Strategy::Canonical,
            Strategy::Auto,
            Strategy::ConflictFree,
            Strategy::Subsequence,
        ]),
        q_in in 1usize..=3,
        q_out in 1usize..=2,
    ) {
        let (planner, cfg) = planner_for(kind);
        let cfg = cfg.with_queues(q_in, q_out).expect("nonzero queues");
        let stride = Stride::from_parts(sigma, x).expect("odd sigma");
        let vec = VectorSpec::with_stride(base.into(), stride, 1 << lambda).expect("valid");
        engines_agree_on_plan(&planner, cfg, &vec, strategy)?;
    }

    /// Synthetic request streams alternating conflict-free rotations
    /// with bursts pinned to one module — the mixed regime where the
    /// fast path gives way and the request-order solver queues.
    #[test]
    fn engines_agree_on_mixed_window_burst_streams(
        m in 1u32..=3,
        t in 1u32..=5,
        cf_window in 1u64..=16,
        burst in 1u64..=16,
        burst_module in 0u64..8,
        q_in in 1usize..=3,
        q_out in 1usize..=2,
        // Long enough that the periodic engine's recurrence detection
        // and fast-forward actually engage on many cases.
        len in 1u64..=512,
    ) {
        let module_count = 1u64 << m;
        let burst_module = burst_module % module_count;
        let cfg = MemConfig::new(m, t)
            .expect("valid")
            .with_queues(q_in, q_out)
            .expect("nonzero queues");

        // Element i takes a rotating module during conflict-free
        // phases and the pinned module during burst phases.
        let period = cf_window + burst;
        let stream: Vec<(u64, Addr, ModuleId)> = (0..len)
            .map(|i| {
                let module = if i % period < cf_window {
                    i % module_count
                } else {
                    burst_module
                };
                (i, Addr::new(i), ModuleId::new(module))
            })
            .collect();

        let (oracle, _) = MemorySystem::new(cfg).run_timed(&stream);
        let route = MemorySystem::new(cfg).run_requests(&stream);
        prop_assert_eq!(&oracle, &route, "oracle vs route");
    }
}
