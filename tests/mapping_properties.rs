//! Property tests of the mapping layer: balance, period contracts, and
//! agreement between the specialised maps and the general GF(2) matrix
//! form.
//!
//! The cross-map properties iterate the **registry** coverage set
//! (`Registry::builtin().all_specs()`), not a hand-rolled type list:
//! registering a map is what opts it into every property below.

use cfva::core::dist::empirical_period;
use cfva::core::mapping::{
    Interleaved, Linear, MapSpec, ModuleMap, Registry, Skewed, XorMatched, XorUnmatched,
};
use cfva::core::plan::{AccessPlan, Planner, Strategy as PlanStrategy};
use cfva::core::{Addr, ModuleId, Stride, VectorSpec};
use proptest::prelude::*;

fn assert_balanced_block<M: ModuleMap>(map: &M, block: u64) {
    let span = 1u64 << map.balance_bits();
    let mut counts = vec![0u64; map.module_count() as usize];
    for a in block * span..(block + 1) * span {
        counts[map.module_of(Addr::new(a)).get() as usize] += 1;
    }
    let expect = span / map.module_count();
    assert!(
        counts.iter().all(|&c| c == expect),
        "unbalanced map in block {block}: {counts:?}"
    );
}

fn assert_balanced<M: ModuleMap>(map: &M) {
    assert!(
        map.balance_bits() <= 22,
        "balance check would iterate 2^{} addresses — pick a smaller configuration",
        map.balance_bits()
    );
    assert_balanced_block(map, 0);
    if map.balance_bits() < map.address_bits_used() {
        // A map balanced on a finer grain than it is determined (an
        // overridden RegionMap) can apply different schemes in
        // different blocks — block 0 only sees the default, so walk a
        // few more to reach the overrides.
        for block in 1..4 {
            assert_balanced_block(map, block);
        }
    }
}

/// The `ModuleMap` contract documented in `cfva-core/src/mapping/mod.rs`:
/// over any aligned block of `2^{balance_bits()}` consecutive
/// addresses, every module receives the same number of addresses.
/// Checked for **every registered map** via the registry's coverage
/// set, plus extra parameterizations per family of maps (the
/// per-type proptests below cover more).
#[test]
fn every_registered_map_is_balanced_over_one_period() {
    for (spec, map) in Registry::builtin().all_maps() {
        assert!(
            map.balance_bits() <= 22,
            "{spec}: coverage specs must keep the balance check enumerable"
        );
        assert_balanced(&map);
    }

    // Degenerate and boundary parameterizations the canonical coverage
    // specs do not reach (skew 0, skews beyond M, tiny widths).
    for m in 1..=5u32 {
        assert_balanced(&Interleaved::new(m).unwrap());
        for skew in [0u64, 7, 11] {
            assert_balanced(&Skewed::new(m, skew).unwrap());
        }
    }
    assert_balanced(&Linear::interleaved(4).unwrap());
    assert_balanced(&Linear::xor_matched(3, 5).unwrap());
    assert_balanced(&Linear::xor_unmatched(2, 3, 7).unwrap());
}

/// The registry's coverage specs, parsed once: the cross-map property
/// tests below draw a `kind` index into this list, so registering a
/// new map automatically adds it to every property.
fn registry_specs() -> Vec<MapSpec> {
    Registry::builtin().all_specs()
}

/// One representative per registered map, for the cross-map property
/// tests below.
fn map_for(kind: usize) -> Box<dyn ModuleMap + Send + Sync> {
    let specs = registry_specs();
    Registry::builtin()
        .build(&specs[kind % specs.len()])
        .expect("coverage specs are buildable")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `ModuleMap::period(family)` is a **true** period for every
    /// registered map: the module sequence of a random constant-stride
    /// vector repeats exactly after `P_x` elements.
    /// Note the contract is only that `P_x` is *a* period — it need
    /// not be the minimal one (some base/σ combinations repeat
    /// earlier), which is why the check is `seq[k] == seq[k + P_x]`
    /// and not minimality.
    #[test]
    fn period_is_a_true_period_for_all_registered_maps(
        kind in 0usize..registry_specs().len(),
        x in 0u32..=8,
        sigma in prop::sample::select(vec![1i64, 3, 5, 7, 9]),
        base in 0u64..1_000_000,
    ) {
        let map = map_for(kind);
        let stride = Stride::from_parts(sigma, x).expect("odd sigma");
        let p = map.period(stride.family());
        // Keep the enumeration bounded; every map above has
        // address_bits_used small enough that this covers p <= 2^14.
        if p <= 1 << 14 {
            let len = 2 * p + 17; // cover one full period plus a ragged tail
            let vec = VectorSpec::with_stride(base.into(), stride, len).expect("valid");
            for k in 0..p + 17 {
                let a = vec.element_addr(k);
                let b = vec.element_addr(k + p);
                prop_assert_eq!(
                    map.module_of(a),
                    map.module_of(b),
                    "kind {} x {} sigma {} base {}: element {} vs {}",
                    kind, x, sigma, base, k, k + p
                );
            }
        }
    }

    /// The bulk `map_stride_into` produces exactly the per-element
    /// `module_of` sequence for every registered map, stride sign and
    /// length — the contract `Planner::plan_into` relies on.
    #[test]
    fn bulk_mapping_matches_module_of_for_all_registered_maps(
        kind in 0usize..registry_specs().len(),
        x in 0u32..=6,
        sigma in prop::sample::select(vec![1i64, 3, 5, -3, -7]),
        base in 500_000u64..1_000_000,
        len in 1u64..=300,
    ) {
        let map = map_for(kind);
        let stride = Stride::from_parts(sigma, x).expect("odd sigma");
        let vec = VectorSpec::with_stride(base.into(), stride, len).expect("valid");
        let mut bulk = vec![cfva::ModuleId::new(0); len as usize];
        map.map_stride_into(vec.base(), vec.stride().get(), &mut bulk);
        for (k, &got) in bulk.iter().enumerate() {
            prop_assert_eq!(
                got,
                map.module_of(vec.element_addr(k as u64)),
                "kind {} stride {} base {} element {}",
                kind, vec.stride().get(), base, k
            );
        }
    }

    /// Every map distributes one full address period evenly over the
    /// modules (the balance requirement of the ModuleMap contract).
    #[test]
    fn xor_matched_is_balanced(t in 1u32..=3, extra in 0u32..=3) {
        assert_balanced(&XorMatched::new(t, t + extra).unwrap());
    }

    #[test]
    fn xor_unmatched_is_balanced(t in 1u32..=2, se in 0u32..=2, ye in 0u32..=2) {
        let s = t + se;
        let y = s + t + ye;
        assert_balanced(&XorUnmatched::new(t, s, y).unwrap());
    }

    #[test]
    fn skewed_is_balanced(m in 1u32..=4, skew in 0u64..16) {
        assert_balanced(&Skewed::new(m, skew).unwrap());
    }

    /// The closed-form period is a true period of the module sequence:
    /// the empirically observed period divides it.
    #[test]
    fn period_contract(
        t in 1u32..=3,
        extra in 0u32..=2,
        x in 0u32..=6,
        sigma in prop::sample::select(vec![1i64, 3, 5, 7]),
        base in 0u64..100_000,
    ) {
        let map = XorMatched::new(t, t + extra).unwrap();
        let stride = Stride::from_parts(sigma, x).unwrap();
        let vec = VectorSpec::with_stride(base.into(), stride, 1 << 12).unwrap();
        let p = map.period(vec.family());
        if p <= 1 << 10 {
            let emp = empirical_period(&map, &vec, 2 * p.max(2)).unwrap();
            prop_assert_eq!(p % emp, 0, "empirical {} does not divide {}", emp, p);
        }
    }

    /// The general GF(2) matrix map agrees with the hand-optimised
    /// special cases everywhere.
    #[test]
    fn linear_matches_special_cases(addr in 0u64..1_000_000) {
        let a = Addr::new(addr);

        let xm = XorMatched::new(3, 5).unwrap();
        let lm = Linear::xor_matched(3, 5).unwrap();
        prop_assert_eq!(xm.module_of(a), lm.module_of(a));

        let xu = XorUnmatched::new(2, 3, 7).unwrap();
        let lu = Linear::xor_unmatched(2, 3, 7).unwrap();
        prop_assert_eq!(xu.module_of(a), lu.module_of(a));

        let il = Interleaved::new(4).unwrap();
        let li = Linear::interleaved(4).unwrap();
        prop_assert_eq!(il.module_of(a), li.module_of(a));
    }

    /// (module, displacement) is injective: distinct addresses never
    /// collide in both coordinates.
    #[test]
    fn module_displacement_injective(seed in 0u64..1000) {
        use std::collections::HashSet;
        let map = XorUnmatched::new(2, 3, 7).unwrap();
        let mut seen = HashSet::new();
        for a in (seed * 512)..(seed * 512 + 512) {
            let key = (map.module_of(Addr::new(a)).get(), map.displacement_of(Addr::new(a)));
            prop_assert!(seen.insert(key), "collision at address {}", a);
        }
    }

    /// Matched in-order conflict freedom for family x = s (the prior
    /// art the paper builds on): any window of T consecutive elements
    /// hits T distinct modules.
    #[test]
    fn xor_matched_family_s_in_order(
        sigma in prop::sample::select(vec![1i64, 3, 5, 7]),
        base in 0u64..1_000_000,
    ) {
        let map = XorMatched::new(3, 4).unwrap();
        let stride = Stride::from_parts(sigma, 4).unwrap();
        let vec = VectorSpec::with_stride(base.into(), stride, 256).unwrap();
        let mods: Vec<u64> = vec.iter().map(|a| map.module_of(a).get()).collect();
        for w in mods.windows(8) {
            let set: std::collections::BTreeSet<&u64> = w.iter().collect();
            prop_assert_eq!(set.len(), 8);
        }
    }
}

/// The smallest `q ≥ 1` with `seq[k] == seq[k + q]` for every valid `k`.
fn minimal_period(seq: &[ModuleId]) -> usize {
    (1..=seq.len())
        .find(|&q| (0..seq.len() - q).all(|k| seq[k] == seq[k + q]))
        .unwrap_or(1)
}

/// Checks the period `plan` carries, if any: a true period of its module
/// sequence in request order, and — once two periods fit — divisible by
/// the minimal period of the first `2P` requests (Fine–Wilf). The
/// simulator's recurrence detector puts its boundaries on multiples of
/// this period. A concatenation carries none.
fn check_attached_period(plan: &AccessPlan, label: &str) {
    assert_eq!(AccessPlan::concat([plan]).period(), None, "{label}: concat");
    let Some(p) = plan.period() else {
        return;
    };
    let seq = plan.module_sequence();
    if p >= seq.len() as u64 {
        return; // holds vacuously
    }
    let p = p as usize;
    for k in 0..seq.len() - p {
        assert_eq!(
            seq[k],
            seq[k + p],
            "{label}: period {p} breaks at request {k}"
        );
    }
    if 2 * p <= seq.len() {
        let q = minimal_period(&seq[..2 * p]);
        assert_eq!(
            p % q,
            0,
            "{label}: minimal prefix period {q} does not divide {p}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every registered map × {canonical, conflict free and subsequence
    /// where they plan, auto}, with sampled strides (ascending and descending), bases
    /// and lengths: the period the planner attaches is a true period of
    /// the plan's module sequence. Bases below 4096 put the region
    /// map's short vectors inside its default regions, inside its
    /// override, and across the two.
    #[test]
    fn attached_plan_period_is_a_true_period(
        kind in 0usize..registry_specs().len(),
        x in 0u32..=8,
        sigma in prop::sample::select(vec![1i64, 3, 5, 7, 9, -1, -3]),
        base in 0u64..4096,
        len in 1u64..=400,
        strategy in prop::sample::select(vec![
            PlanStrategy::Canonical,
            PlanStrategy::ConflictFree,
            PlanStrategy::Subsequence,
            PlanStrategy::Auto,
        ]),
    ) {
        let spec = &registry_specs()[kind];
        let planner = Planner::from_spec(spec).expect("coverage specs are buildable");
        let stride = Stride::from_parts(sigma, x).expect("odd sigma");
        // A descending walk starts high enough to stay addressable.
        let base = base + if sigma < 0 { stride.magnitude() * (len - 1) } else { 0 };
        let vec = VectorSpec::with_stride(base.into(), stride, len).expect("valid");
        if let Ok(plan) = planner.plan(&vec, strategy) {
            check_attached_period(&plan, &format!("{spec} {vec} {strategy}"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A plan is the map's module table plus an element order: every
    /// registered map × {canonical, subsequence, conflict free, auto}
    /// wherever the strategy plans, ascending and descending strides,
    /// bases inside and across the region map's override. The element
    /// order is a permutation of `0..len`, every request's module is the
    /// map's module of the element's address, and the plan carries the
    /// vector's `P_x`, also when planned into a reused buffer.
    #[test]
    fn plans_are_permuted_module_tables(
        kind in 0usize..registry_specs().len(),
        x in 0u32..=8,
        sigma in prop::sample::select(vec![1i64, 3, 5, -1, -3, -7]),
        base in 0u64..4096,
        len in 1u64..=400,
        strategy in prop::sample::select(vec![
            PlanStrategy::Canonical,
            PlanStrategy::Subsequence,
            PlanStrategy::ConflictFree,
            PlanStrategy::Auto,
        ]),
    ) {
        let spec = &registry_specs()[kind];
        let planner = Planner::from_spec(spec).expect("coverage specs are buildable");
        let map = planner.map();
        let stride = Stride::from_parts(sigma, x).expect("odd sigma");
        // A descending walk starts high enough to stay addressable.
        let base = base + if sigma < 0 { stride.magnitude() * (len - 1) } else { 0 };
        let vec = VectorSpec::with_stride(base.into(), stride, len).expect("valid");
        let Ok(plan) = planner.plan(&vec, strategy) else {
            return Ok(());
        };
        let label = format!("{spec} {vec} {strategy}");
        let mut order = plan.element_order();
        prop_assert_eq!(plan.is_in_order(), order.iter().copied().eq(0..len), "{}", &label);
        order.sort_unstable();
        prop_assert!(order.iter().copied().eq(0..len), "{}: not a permutation", &label);
        prop_assert_eq!(plan.iter().len() as u64, len);
        for e in &plan {
            prop_assert_eq!(
                e.module(),
                map.module_of(vec.element_addr(e.element())),
                "{}: element {}", &label, e.element()
            );
        }
        prop_assert_eq!(plan.period(), Some(map.vector_period(&vec)), "{}", &label);
        // The same plan through a buffer that held a longer, permuted one.
        let mut reused = planner
            .plan(&VectorSpec::new(3, 12, 512).unwrap(), PlanStrategy::Auto)
            .unwrap();
        planner.plan_into(&vec, strategy, &mut reused).unwrap();
        prop_assert_eq!(&reused, &plan, "{}: reused buffer", &label);
        prop_assert_eq!(reused.period(), plan.period());
    }
}

/// The region map's per-vector period: a vector that stays under one
/// governing map — a default region, or the override — gets that map's
/// `P_x`, far below the family-wide bound of an overridden map, and
/// it is a true period; one that crosses into the override keeps the
/// loose bound.
#[test]
fn region_plans_carry_the_governing_period() {
    let spec: MapSpec = "region:t=3,bits=10,s=3,regions=1:6".parse().unwrap();
    let planner = Planner::from_spec(&spec).unwrap();
    let map = planner.map();
    for (base, stride, len, tight) in [
        (0u64, 4i64, 200u64, Some(16)), // region 0, s = 3: P_2 = 2^{3+3-2}
        (1024, 4, 250, Some(128)),      // region 1, the override s = 6
        (1000, 4, 20, None),            // crosses from region 0 into region 1
        (1030, -4, 20, None),           // descends from region 1 into region 0
        (2048, 4, 200, Some(16)),       // region 2, default again
    ] {
        let vec = VectorSpec::new(base, stride, len).unwrap();
        let plan = planner.plan(&vec, PlanStrategy::Canonical).unwrap();
        let expect = tight.unwrap_or_else(|| map.period(vec.family()));
        assert_eq!(plan.period(), Some(expect), "{vec}");
        check_attached_period(&plan, &format!("{vec}"));
    }
}

/// The out-of-order plans carry `P_x` as in-order plans do, and it is a
/// true period of their request-order module sequence: every
/// conflict-free, subsequence and `Auto` plan the xor planners build,
/// for every family in the window of `L = 2^λ` and one on each side,
/// ascending and descending strides, several bases and lengths.
#[test]
fn out_of_order_plans_repeat_on_the_vector_period() {
    let mut checked = 0;
    for spec in [
        "xor-matched:t=3,s=4",
        "xor-matched:t=2,s=3",
        "xor-matched:t=3,s=3",
        "xor-unmatched:t=3,s=4,y=9",
        "xor-unmatched:t=2,s=3,y=6",
    ] {
        let spec: MapSpec = spec.parse().unwrap();
        let planner = Planner::from_spec(&spec).unwrap();
        for lambda in 4..=9u32 {
            let (lo, hi) = planner.window(lambda).expect("an out-of-order planner");
            for x in lo.saturating_sub(1)..=hi + 1 {
                for sigma in [1i64, 3, -5] {
                    let stride = Stride::from_parts(sigma, x).unwrap();
                    for base in [0u64, 17, 1000, 4096 * 3 + 5] {
                        for len in [1u64 << lambda, 2 << lambda, (1 << lambda) + 8] {
                            // A descending walk starts high enough to stay addressable.
                            let base = base
                                + if sigma < 0 {
                                    stride.magnitude() * (len - 1)
                                } else {
                                    0
                                };
                            let vec = VectorSpec::with_stride(base.into(), stride, len).unwrap();
                            for strategy in [
                                PlanStrategy::ConflictFree,
                                PlanStrategy::Subsequence,
                                PlanStrategy::Auto,
                            ] {
                                let Ok(plan) = planner.plan(&vec, strategy) else {
                                    continue;
                                };
                                let p = planner.map().vector_period(&vec);
                                assert_eq!(
                                    plan.period(),
                                    Some(p),
                                    "{spec} {vec} {strategy}: the plan carries P_x"
                                );
                                let p = p as usize;
                                let seq = plan.module_sequence();
                                if p >= seq.len() {
                                    continue; // holds vacuously
                                }
                                for k in 0..seq.len() - p {
                                    assert_eq!(
                                        seq[k],
                                        seq[k + p],
                                        "{spec} {vec} {strategy}: P_x = {p} breaks at request {k}"
                                    );
                                }
                                checked += 1;
                            }
                        }
                    }
                }
            }
        }
    }
    assert!(
        checked > 5000,
        "only {checked} out-of-order plans span a period"
    );
}
