//! End-to-end checks of every worked example in the paper, through the
//! full planner → simulator pipeline, simulated on the cycle oracle
//! (`MemorySystem::run_oracle`).

use cfva::core::dist::{ctp, SpatialDistribution};
use cfva::core::mapping::{ModuleMap, XorMatched, XorUnmatched};
use cfva::core::plan::{Planner, Strategy};
use cfva::memsim::{MemConfig, MemorySystem};
use cfva::VectorSpec;

/// Section 3 example: stride 12, A1 = 16, m = t = 3, s = 3.
#[test]
fn section_3_running_example() {
    let map = XorMatched::new(3, 3).unwrap();
    let vec = VectorSpec::new(16, 12, 64).unwrap();

    // CTP from the paper text.
    let want: Vec<u64> = vec![2, 7, 5, 2, 0, 5, 3, 0, 6, 3, 1, 6, 4, 1, 7, 4];
    let got: Vec<u64> = ctp(&map, &vec).iter().map(|m| m.get()).collect();
    assert_eq!(got, want);

    // The vector is T-matched (8 elements per module).
    let sd = SpatialDistribution::compute(&map, &vec);
    assert_eq!(sd.counts(), &[8u64; 8]);

    // In order: conflicts; replayed: the exact minimum latency.
    let planner = Planner::matched(map);
    let mem = MemConfig::new(3, 3).unwrap();

    let canonical = planner.plan(&vec, Strategy::Canonical).unwrap();
    let stats = MemorySystem::new(mem).run_oracle(&canonical);
    assert!(stats.conflicts > 0);
    assert!(stats.latency > 73);

    let replay = planner.plan(&vec, Strategy::ConflictFree).unwrap();
    let stats = MemorySystem::new(mem).run_oracle(&replay);
    assert_eq!(stats.latency, 73);
    assert_eq!(stats.conflicts, 0);
}

/// Figure 3's grid positions, spot-checked through the public API.
#[test]
fn figure_3_spot_checks() {
    let map = XorMatched::new(3, 3).unwrap();
    // (address, module) pairs read off the figure.
    for (addr, module) in [
        (0u64, 0u64),
        (9, 0),
        (8, 1),
        (18, 0),
        (27, 0),
        (36, 0),
        (45, 0),
        (54, 0),
        (63, 0),
        (64, 0),
        (71, 7),
        (31, 4),
        (50, 4),
    ] {
        assert_eq!(map.module_of(addr.into()).get(), module, "address {addr}");
    }
}

/// Section 3.3: L = 128, m = t = 3, s = 4 gives conflict-free families
/// x = 0..4 — checked by simulation at the family representatives.
#[test]
fn section_3_3_window_example() {
    let planner = Planner::matched(XorMatched::new(3, 4).unwrap());
    let mem = MemConfig::new(3, 3).unwrap();
    for x in 0..=4u32 {
        let vec = VectorSpec::new(100, 1i64 << x, 128).unwrap();
        let plan = planner.plan(&vec, Strategy::ConflictFree).unwrap();
        let stats = MemorySystem::new(mem).run_oracle(&plan);
        assert_eq!(stats.latency, 8 + 128 + 1, "family {x}");
    }
    // x = 5 is outside.
    let vec = VectorSpec::new(100, 32, 128).unwrap();
    assert!(planner.plan(&vec, Strategy::ConflictFree).is_err());
}

/// Figure 7 and the Section 4.1 examples on the unmatched memory.
#[test]
fn section_4_unmatched_examples() {
    let map = XorUnmatched::new(2, 3, 7).unwrap();

    // The italic vector: A1 = 6, S = 16, λ = 5.
    let vec = VectorSpec::new(6, 16, 32).unwrap();
    let first_subseq: Vec<u64> = [0u64, 8, 16, 24]
        .iter()
        .map(|&e| map.module_of(vec.element_addr(e)).get())
        .collect();
    assert_eq!(first_subseq, vec![2, 6, 10, 14]);

    let planner = Planner::unmatched(map);
    let mem = MemConfig::new(4, 2).unwrap();
    let plan = planner.plan(&vec, Strategy::ConflictFree).unwrap();
    let stats = MemorySystem::new(mem).run_oracle(&plan);
    assert_eq!(stats.latency, 4 + 32 + 1);

    // x = 6, σ = 3: modules (0,12,8,4)/(4,0,12,8) pre-replay.
    let vec = VectorSpec::new(0, 192, 32).unwrap();
    let plan = planner.plan(&vec, Strategy::ConflictFree).unwrap();
    let stats = MemorySystem::new(mem).run_oracle(&plan);
    assert_eq!(stats.latency, 4 + 32 + 1);
    assert_eq!(stats.conflicts, 0);
}

/// Section 4.3: M = 64, T = 8, s = 4, y = 9 serves x = 0..9 for L=128.
#[test]
fn section_4_3_window_example() {
    let planner = Planner::unmatched(XorUnmatched::new(3, 4, 9).unwrap());
    let mem = MemConfig::new(6, 3).unwrap();
    for x in 0..=9u32 {
        let vec = VectorSpec::new(12345, 3i64 << x, 128).unwrap();
        let plan = planner.plan(&vec, Strategy::ConflictFree).unwrap();
        let stats = MemorySystem::new(mem).run_oracle(&plan);
        assert_eq!(stats.latency, 8 + 128 + 1, "family {x}");
        assert_eq!(stats.conflicts, 0, "family {x}");
    }
    let vec = VectorSpec::new(12345, 1 << 10, 128).unwrap();
    assert!(planner.plan(&vec, Strategy::ConflictFree).is_err());
}

/// Section 5's four headline efficiency numbers, as analytic values.
#[test]
fn section_5_headline_numbers() {
    use cfva::core::analysis;
    assert_eq!(analysis::fraction_conflict_free_exact(4), (31, 32));
    assert_eq!(analysis::fraction_conflict_free_exact(9), (1023, 1024));
    assert!((analysis::efficiency(4, 3) - 0.914).abs() < 5e-4);
    assert!((analysis::efficiency(9, 3) - 0.997).abs() < 5e-4);
    assert!((analysis::efficiency(0, 3) - 0.4).abs() < 1e-9);
    assert!((analysis::efficiency(3, 3) - 0.842).abs() < 5e-4);
}

/// The umbrella crate re-exports are usable as documented.
#[test]
fn umbrella_reexports() {
    let s: cfva::Stride = 24i64.try_into().unwrap();
    assert_eq!(s.family(), cfva::StrideFamily::new(3));
    let v = cfva::VectorSpec::new(0, 24, 64).unwrap();
    assert_eq!(v.lambda(), Some(6));
    let a = cfva::Addr::new(7);
    assert_eq!(a.get(), 7);
    let m = cfva::ModuleId::new(3);
    assert_eq!(m.get(), 3);
}
