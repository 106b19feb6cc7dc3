//! Property tests of the paper's central claims: for ANY stride in the
//! window and ANY initial address, the replay order is conflict free
//! and the access completes in exactly `T + L + 1` cycles — simulated
//! on the cycle oracle (`MemorySystem::run_oracle`), not on the route,
//! whose conflict-free shortcut would assume what these tests check.

use cfva::core::mapping::{XorMatched, XorUnmatched};
use cfva::core::plan::{Planner, Strategy};
use cfva::core::{Stride, VectorSpec};
use cfva::memsim::{MemConfig, MemorySystem};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Theorem 1 + Section 3.2, matched memory: t = 3, s = 4, L = 128.
    #[test]
    fn matched_window_always_conflict_free(
        x in 0u32..=4,
        sigma in prop::sample::select(vec![1i64, 3, 5, 7, 9, 11, 13, 15]),
        base in 0u64..1_000_000,
    ) {
        let planner = Planner::matched(XorMatched::new(3, 4).unwrap());
        let stride = Stride::from_parts(sigma, x).unwrap();
        let vec = VectorSpec::with_stride(base.into(), stride, 128).unwrap();

        let plan = planner.plan(&vec, Strategy::ConflictFree).unwrap();
        prop_assert!(plan.is_conflict_free(8));

        let stats = MemorySystem::new(MemConfig::new(3, 3).unwrap()).run_oracle(&plan);
        prop_assert_eq!(stats.latency, 8 + 128 + 1);
        prop_assert_eq!(stats.conflicts, 0);
        prop_assert_eq!(stats.stall_cycles, 0);
    }

    /// Theorem 3 + Section 4.2, unmatched memory: t = 3, s = 4, y = 9.
    #[test]
    fn unmatched_window_always_conflict_free(
        x in 0u32..=9,
        sigma in prop::sample::select(vec![1i64, 3, 5, 7]),
        base in 0u64..1_000_000,
    ) {
        let planner = Planner::unmatched(XorUnmatched::new(3, 4, 9).unwrap());
        let stride = Stride::from_parts(sigma, x).unwrap();
        let vec = VectorSpec::with_stride(base.into(), stride, 128).unwrap();

        let plan = planner.plan(&vec, Strategy::ConflictFree).unwrap();
        prop_assert!(plan.is_conflict_free(8));

        let stats = MemorySystem::new(MemConfig::new(6, 3).unwrap()).run_oracle(&plan);
        prop_assert_eq!(stats.latency, 8 + 128 + 1);
        prop_assert_eq!(stats.conflicts, 0);
    }

    /// Negative strides are window members too (the module sequence is
    /// reversed but conflict-freedom is direction-independent).
    #[test]
    fn negative_strides_conflict_free(
        x in 0u32..=4,
        sigma in prop::sample::select(vec![-1i64, -3, -5, -7]),
        base in 1_000_000u64..2_000_000,
    ) {
        let planner = Planner::matched(XorMatched::new(3, 4).unwrap());
        let stride = Stride::from_parts(sigma, x).unwrap();
        let vec = VectorSpec::with_stride(base.into(), stride, 128).unwrap();
        let plan = planner.plan(&vec, Strategy::ConflictFree).unwrap();
        prop_assert!(plan.is_conflict_free(8));
    }

    /// Section 3.1 bound: subsequence order with q = 2, q' = 1 finishes
    /// within 2T + L cycles for any window family, σ, base.
    #[test]
    fn subsequence_order_within_2t_plus_l(
        x in 0u32..=4,
        sigma in prop::sample::select(vec![1i64, 3, 5, 7, 9, 11]),
        base in 0u64..1_000_000,
    ) {
        let planner = Planner::matched(XorMatched::new(3, 4).unwrap());
        let stride = Stride::from_parts(sigma, x).unwrap();
        let vec = VectorSpec::with_stride(base.into(), stride, 128).unwrap();

        let plan = planner.plan(&vec, Strategy::Subsequence).unwrap();
        let mem = MemConfig::new(3, 3).unwrap().with_queues(2, 1).unwrap();
        let stats = MemorySystem::new(mem).run_oracle(&plan);
        prop_assert!(
            stats.latency <= 2 * 8 + 128,
            "latency {} > 2T+L",
            stats.latency
        );
    }

    /// Every plan, of any strategy, is a permutation of the elements —
    /// nothing lost, nothing fetched twice.
    #[test]
    fn plans_are_permutations(
        x in 0u32..=6,
        sigma in prop::sample::select(vec![1i64, 3, 5]),
        base in 0u64..100_000,
        strategy in prop::sample::select(vec![
            Strategy::Canonical,
            Strategy::Subsequence,
            Strategy::ConflictFree,
            Strategy::Auto,
        ]),
    ) {
        let planner = Planner::matched(XorMatched::new(3, 4).unwrap());
        let stride = Stride::from_parts(sigma, x).unwrap();
        let vec = VectorSpec::with_stride(base.into(), stride, 128).unwrap();
        if let Ok(plan) = planner.plan(&vec, strategy) {
            let mut order = plan.element_order();
            order.sort_unstable();
            let want: Vec<u64> = (0..128).collect();
            prop_assert_eq!(order, want);
            // Requests agree with the map at the vector's addresses.
            let map = planner.map();
            for e in &plan {
                prop_assert_eq!(e.module(), map.module_of(vec.element_addr(e.element())));
            }
        }
    }

    /// Auto never fails and never does worse than canonical.
    #[test]
    fn auto_never_worse_than_canonical(
        x in 0u32..=8,
        sigma in prop::sample::select(vec![1i64, 3, 5]),
        base in 0u64..100_000,
    ) {
        let planner = Planner::matched(XorMatched::new(3, 4).unwrap());
        let stride = Stride::from_parts(sigma, x).unwrap();
        let vec = VectorSpec::with_stride(base.into(), stride, 128).unwrap();
        let mem = MemConfig::new(3, 3).unwrap();

        let auto = planner.plan(&vec, Strategy::Auto).unwrap();
        let canonical = planner.plan(&vec, Strategy::Canonical).unwrap();
        let auto_lat = MemorySystem::new(mem).run_oracle(&auto).latency;
        let canon_lat = MemorySystem::new(mem).run_oracle(&canonical).latency;
        prop_assert!(auto_lat <= canon_lat, "auto {auto_lat} > canonical {canon_lat}");
    }
}

/// The T-matched necessary condition (Section 2): families outside the
/// window produce vectors that are NOT T-matched, hence no order can be
/// conflict free.
#[test]
fn outside_window_not_t_matched() {
    use cfva::core::dist::SpatialDistribution;
    let map = XorMatched::new(3, 4).unwrap();
    for x in 5..=8u32 {
        let vec = VectorSpec::new(0, 1i64 << x, 128).unwrap();
        let sd = SpatialDistribution::compute(&map, &vec);
        assert!(!sd.is_t_matched(8), "family {x} should not be T-matched");
    }
}
