//! Validates the closed-form conflict predictor
//! (`equiv::conflict_score`) against **measured** multi-stream
//! conflicts for every registered map, measured on the cycle oracle
//! (`run_multi_oracle`, `MemorySystem::run_oracle`).
//!
//! The predictor promises, per map:
//!
//! * score `0.0` for two streams whose occupancy signatures touch
//!   disjoint module sets — such pairs must co-run with zero measured
//!   conflicts when each stream is conflict-free alone;
//! * for streams that hammer a single shared module (`x ≥ u`, same
//!   module), a score near the module count and measured conflicts
//!   strictly above zero;
//! * class invariance and symmetry (unit-tested in `cfva-core`); here
//!   we check the *ordering*: among measured candidates, a max-score
//!   pair never measures fewer co-run conflicts than a zero-score pair.

use cfva::core::equiv::conflict_score;
use cfva::core::mapping::Registry;
use cfva::core::plan::{AccessPlan, Planner, Strategy};
use cfva::memsim::multi::{run_multi_oracle, IssuePolicy};
use cfva::memsim::{MemConfig, MemorySystem};
use cfva::{Stride, VectorSpec};

/// Streams that are conflict-free alone under this map, paired with
/// their specs (the predictor works on specs, not plans).
fn cf_candidates(planner: &Planner, cfg: MemConfig) -> Vec<(VectorSpec, AccessPlan)> {
    let mut out = Vec::new();
    for (base, sigma, x) in [
        (0u64, 1i64, 0u32),
        (3, 1, 0),
        (1 << 8, 3, 0),
        (65, 5, 0),
        (7, 1, 1),
        (1 << 10, 3, 1),
    ] {
        let Ok(stride) = Stride::from_parts(sigma, x) else {
            continue;
        };
        let Ok(vec) = VectorSpec::with_stride(base.into(), stride, 64) else {
            continue;
        };
        let Ok(plan) = planner.plan(&vec, Strategy::Auto) else {
            continue;
        };
        let alone = MemorySystem::new(cfg).run_oracle(&plan);
        if alone.conflicts == 0 && alone.stall_cycles == 0 {
            out.push((vec, plan));
        }
    }
    out
}

#[test]
fn zero_score_pairs_measure_zero_conflicts() {
    let registry = Registry::builtin();
    let mut checked = 0usize;
    for spec in registry.all_specs() {
        let map = registry.build(&spec).expect("coverage specs build");
        let planner = registry.planner(&spec).expect("coverage specs plan");
        let cfg = MemConfig::from_spec(&spec).expect("coverage specs simulate");
        let candidates = cf_candidates(&planner, cfg);
        for (i, (va, pa)) in candidates.iter().enumerate() {
            for (vb, pb) in candidates.iter().skip(i + 1) {
                let score = conflict_score(map.as_ref(), va, vb);
                if score != 0.0 {
                    continue;
                }
                // Disjoint modules + both CF alone: the co-run issues
                // each stream at half rate onto disjoint modules, so
                // spacing only grows — zero conflicts, guaranteed.
                let co = run_multi_oracle(cfg, &[pa, pb], IssuePolicy::RoundRobin)
                    .expect("two validated streams");
                assert_eq!(
                    co.conflicts, 0,
                    "map {}: predictor said disjoint but co-run conflicted",
                    spec
                );
                checked += 1;
            }
        }
    }
    // The menu must actually exercise the property on some maps.
    assert!(checked > 0, "no zero-score pairs found across the registry");
}

#[test]
fn clustered_same_module_pairs_score_high_and_measure_conflicts() {
    let registry = Registry::builtin();
    let mut checked = 0usize;
    for spec in registry.all_specs() {
        let map = registry.build(&spec).expect("coverage specs build");
        let used = map.address_bits_used();
        // Region's override saturates used to the full 64 bits; a
        // 2^64 stride is unrepresentable, so that map is covered by
        // the sampled-prefix unit tests instead.
        if used > 45 {
            continue;
        }
        let planner = registry.planner(&spec).expect("coverage specs plan");
        let cfg = MemConfig::from_spec(&spec).expect("coverage specs simulate");
        let module_count = map.module_count() as f64;
        // Stride 2^used from the same base: every element of both
        // streams maps to one and the same module.
        let stride = Stride::from_parts(1, used).expect("used <= 45");
        let va = VectorSpec::with_stride(0u64.into(), stride, 32).expect("valid");
        let vb = VectorSpec::with_stride(0u64.into(), stride, 32).expect("valid");
        let score = conflict_score(map.as_ref(), &va, &vb);
        assert!(
            (score - module_count).abs() < 1e-9,
            "map {}: clustered pair scored {score}, expected {module_count}",
            spec
        );
        let pa = planner.plan(&va, Strategy::Auto).expect("plannable");
        let pb = planner.plan(&vb, Strategy::Auto).expect("plannable");
        let co = run_multi_oracle(cfg, &[&pa, &pb], IssuePolicy::RoundRobin)
            .expect("two validated streams");
        assert!(
            co.conflicts > 0,
            "map {}: clustered co-run measured no conflicts",
            spec
        );
        checked += 1;
    }
    assert!(checked > 0, "no clustered pairs exercised");
}

#[test]
fn score_ordering_tracks_measured_conflicts() {
    let registry = Registry::builtin();
    let mut ordered = 0usize;
    for spec in registry.all_specs() {
        let map = registry.build(&spec).expect("coverage specs build");
        let used = map.address_bits_used();
        if used > 45 {
            // Region's per-region override saturates `used`; a 2^64
            // stride is unrepresentable. Covered by the unit tests.
            continue;
        }
        let planner = registry.planner(&spec).expect("coverage specs plan");
        let cfg = MemConfig::from_spec(&spec).expect("coverage specs simulate");
        // CF spread streams (pairwise score near the uniform 1.0 or
        // below) plus clustered single-module streams (score near M
        // against each other) so the extremes genuinely differ.
        let mut candidates = cf_candidates(&planner, cfg);
        let clustered = Stride::from_parts(1, used).expect("used <= 45");
        for base in [0u64, 1] {
            let Ok(vec) = VectorSpec::with_stride(base.into(), clustered, 32) else {
                continue;
            };
            if let Ok(plan) = planner.plan(&vec, Strategy::Auto) {
                candidates.push((vec, plan));
            }
        }
        // Score every pair, co-run the extremes.
        let mut best: Option<(f64, usize, usize)> = None;
        let mut worst: Option<(f64, usize, usize)> = None;
        for (i, (va, _)) in candidates.iter().enumerate() {
            for (j, (vb, _)) in candidates.iter().enumerate().skip(i + 1) {
                let score = conflict_score(map.as_ref(), va, vb);
                if best.is_none_or(|(s, _, _)| score > s) {
                    best = Some((score, i, j));
                }
                if worst.is_none_or(|(s, _, _)| score < s) {
                    worst = Some((score, i, j));
                }
            }
        }
        let (Some((hi, hi_i, hi_j)), Some((lo, lo_i, lo_j))) = (best, worst) else {
            continue;
        };
        // Only meaningful when the predictor actually separates the
        // pairs for this map.
        if hi < lo + 0.5 {
            continue;
        }
        // Cross-stream conflicts: the co-run total in excess of what
        // each stream suffers alone (clustered streams self-conflict
        // even solo; the predictor only speaks to the interaction).
        let measure = |i: usize, j: usize| {
            let co = run_multi_oracle(
                cfg,
                &[&candidates[i].1, &candidates[j].1],
                IssuePolicy::RoundRobin,
            )
            .expect("two validated streams")
            .conflicts;
            let mut system = MemorySystem::new(cfg);
            let alone = system.run_oracle(&candidates[i].1).conflicts
                + system.run_oracle(&candidates[j].1).conflicts;
            co.saturating_sub(alone)
        };
        let hi_measured = measure(hi_i, hi_j);
        let lo_measured = measure(lo_i, lo_j);
        assert!(
            hi_measured >= lo_measured,
            "map {}: score ordering inverted (score {hi:.2} -> {hi_measured} conflicts, \
             score {lo:.2} -> {lo_measured} conflicts)",
            spec
        );
        ordered += 1;
    }
    assert!(ordered > 0, "predictor never separated any pair");
}
