//! Stride-equivalence reduction: the canonical representative of all
//! `(base, stride, length)` accesses that produce one module sequence.
//!
//! Every map in this crate is a function of the low `u =`
//! [`address_bits_used`](crate::mapping::ModuleMap::address_bits_used)
//! address bits, so element `k` of a vector with base `A`, stride
//! `S = σ·2^x` lands in module `F((A + k·σ·2^x) mod 2^u)`. Two accesses
//! therefore produce **identical module sequences** whenever
//!
//! * their bases agree mod `2^u`,
//! * their odd parts agree mod `2^(u−x)` (because `k·σ·2^x ≡ k·σ'·2^x
//!   (mod 2^u)` exactly when `σ ≡ σ' (mod 2^(u−x))`),
//! * their family exponents `x` and lengths agree.
//!
//! [`StrideClass::reduce`] maps an access to the smallest such
//! representative. The exponent `x` is kept **exactly** (never clamped)
//! because planners select orders by family, not just by module
//! sequence — preserving `x` guarantees the planner makes the same
//! choice for every member of a class, which is what makes class-keyed
//! result caching sound: equal classes ⇒ identical plans ⇒ bit-identical
//! simulation statistics. `tests/stride_class.rs` pins this by proptest
//! across every registered map.

use crate::mapping::ModuleMap;
use crate::plan::AccessPlan;
use crate::stride::Stride;
use crate::vector::VectorSpec;
use crate::ModuleId;

/// The canonical representative of a stride-equivalence class under a
/// map using `used` low address bits — see the [module docs](self).
///
/// `Eq + Hash` make the class directly usable as a memoization key:
/// two accesses compare equal here exactly when they are provably
/// interchangeable (identical module sequence, identical family, same
/// length), and hence produce bit-identical measurement results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StrideClass {
    /// Base address reduced mod `2^used`.
    base: u64,
    /// Odd part reduced to its least non-negative residue mod
    /// `2^(used − x)` (always odd there), or `1` when `x ≥ used`
    /// (the stride is `≡ 0 mod 2^used`, so the module sequence is
    /// constant and the odd part is irrelevant).
    sigma: u64,
    /// The family exponent, preserved exactly.
    x: u32,
    /// The vector length, preserved exactly.
    len: u64,
    /// Low address bits the map consumes.
    used: u32,
}

impl StrideClass {
    /// Reduces `vec` to its class under `map`.
    pub fn reduce<M: ModuleMap + ?Sized>(map: &M, vec: &VectorSpec) -> StrideClass {
        StrideClass::reduce_with_used(map.address_bits_used(), vec)
    }

    /// Reduces `vec` to its class given the map's used-bit count
    /// directly — for callers that cached
    /// [`address_bits_used`](crate::mapping::ModuleMap::address_bits_used)
    /// and no longer hold the map.
    pub fn reduce_with_used(used: u32, vec: &VectorSpec) -> StrideClass {
        let mask = if used >= 64 {
            u64::MAX
        } else {
            (1u64 << used) - 1
        };
        let x = vec.stride().family().exponent();
        let sigma = if x >= used {
            // Stride ≡ 0 mod 2^used: every element hits the base's
            // module, so all odd parts are equivalent.
            1
        } else {
            let span = used - x;
            let sigma = vec.stride().odd_part();
            if span >= 64 {
                // Reduction mod 2^64 is the two's-complement cast.
                sigma as u64
            } else {
                (i128::from(sigma)).rem_euclid(1i128 << span) as u64
            }
        };
        StrideClass {
            base: vec.base().get() & mask,
            sigma,
            x,
            len: vec.len(),
            used,
        }
    }

    /// The canonical member of this class, if it is constructible as a
    /// [`VectorSpec`] (`None` only when the representative stride or
    /// address range fails construction-time overflow validation —
    /// irrelevant for key use, which needs no representative).
    pub fn representative(&self) -> Option<VectorSpec> {
        let sigma = i64::try_from(self.sigma).ok()?;
        let stride = Stride::from_parts(sigma, self.x).ok()?;
        VectorSpec::with_stride(self.base.into(), stride, self.len).ok()
    }

    /// Base address reduced mod `2^used`.
    pub const fn base(&self) -> u64 {
        self.base
    }

    /// The reduced odd part (see the field docs).
    pub const fn sigma(&self) -> u64 {
        self.sigma
    }

    /// The family exponent (preserved from the original access).
    pub const fn x(&self) -> u32 {
        self.x
    }

    /// The vector length.
    pub const fn len(&self) -> u64 {
        self.len
    }

    /// Whether the class describes an empty access. (`VectorSpec`
    /// forbids zero lengths, so this is always `false` for reduced
    /// classes — provided for `len`/`is_empty` API symmetry.)
    pub const fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Low address bits the map consumes.
    pub const fn used(&self) -> u32 {
        self.used
    }
}

/// Elements enumerated when building an [`OccupancySignature`]: one
/// full period of the module sequence when the period fits, otherwise
/// a sampled prefix of this many elements.
pub const SIGNATURE_PREFIX_CAP: u64 = 4096;

/// The predicted module-occupancy distribution of one constant-stride
/// access: which fraction of the stream's requests each module
/// receives.
///
/// Built **without simulating**: every map is periodic in the stride's
/// family ([`ModuleMap::period`] = `max(2^{used − x}, 1)`), so one
/// period of the module sequence — resolved through the bulk
/// [`ModuleMap::map_stride_into`] — determines the distribution in
/// closed form. For the built-in maps the period is modest and the
/// signature is [exact](Self::is_exact); maps whose period overflows
/// the [`SIGNATURE_PREFIX_CAP`] (a [`CustomGf2`](crate::mapping::CustomGf2)
/// or overridden [`RegionMap`](crate::mapping::RegionMap) consuming the
/// full address width) fall back to a sampled prefix of the stream.
///
/// The signature is a **class invariant**: accesses with equal
/// [`StrideClass`]es produce identical signatures (they share the
/// module sequence), so the serve layer may key predictions on reduced
/// classes.
#[derive(Debug, Clone, PartialEq)]
pub struct OccupancySignature {
    /// `(module, fraction)` pairs, sorted by module, fractions summing
    /// to 1; modules the stream never touches are absent (the support
    /// is at most `min(len, period, cap)` modules, so signatures stay
    /// small even on a `2^42`-module memory).
    weights: Vec<(u64, f64)>,
    exact: bool,
}

impl OccupancySignature {
    /// `(module, fraction)` pairs, sorted by module index.
    pub fn weights(&self) -> &[(u64, f64)] {
        &self.weights
    }

    /// Whether the signature is the exact distribution of the stream
    /// (the whole vector or at least one full period of its module
    /// sequence was enumerated) rather than a sampled-prefix estimate.
    /// When a full period was used the distribution of every *whole*
    /// period is exact; a final partial period of a non-multiple length
    /// can deviate slightly.
    pub const fn is_exact(&self) -> bool {
        self.exact
    }

    /// The inner product `Σ_m self[m]·other[m]` — the probability that
    /// a random request of each stream lands on the same module.
    pub fn overlap(&self, other: &OccupancySignature) -> f64 {
        let mut sum = 0.0;
        let (mut i, mut j) = (0usize, 0usize);
        while let (Some(&(ma, wa)), Some(&(mb, wb))) = (self.weights.get(i), other.weights.get(j)) {
            match ma.cmp(&mb) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    sum += wa * wb;
                    i += 1;
                    j += 1;
                }
            }
        }
        sum
    }
}

/// Predicts the module-occupancy signature of `vec` under `map` — see
/// [`OccupancySignature`].
pub fn occupancy_signature<M: ModuleMap + ?Sized>(map: &M, vec: &VectorSpec) -> OccupancySignature {
    let (n, exact) = signature_prefix(map, vec);
    let mut modules = vec![ModuleId::new(0); n];
    map.map_stride_into(vec.base(), vec.stride().get(), &mut modules);
    signature_of(&modules, exact, map.module_count())
}

/// The signature [`occupancy_signature`] predicts for `vec`, read off
/// the element-indexed module table of `plan`, a plan of `vec` under
/// `map` (any strategy: every plan maps every element), instead of
/// mapping the vector again.
///
/// # Panics
///
/// Panics if `plan` is shorter than `vec`.
pub fn plan_signature<M: ModuleMap + ?Sized>(
    map: &M,
    vec: &VectorSpec,
    plan: &AccessPlan,
) -> OccupancySignature {
    debug_assert_eq!(plan.len(), vec.len(), "a plan of another vector");
    let (n, exact) = signature_prefix(map, vec);
    signature_of(&plan.modules()[..n], exact, map.module_count())
}

/// How many leading elements a signature reads — one period of the
/// module sequence, at most the whole vector and the
/// [`SIGNATURE_PREFIX_CAP`] — and whether they determine the
/// distribution exactly.
fn signature_prefix<M: ModuleMap + ?Sized>(map: &M, vec: &VectorSpec) -> (usize, bool) {
    let period = map.period(vec.stride().family());
    let len = vec.len();
    let n = len.min(period).min(SIGNATURE_PREFIX_CAP);
    (n as usize, n == len || period <= n)
}

/// The signature of a module prefix: each module's weight is `1/n`
/// added once per request it receives, in the same repeated additions
/// whether the modules are counted (when the memory has at most `n`
/// modules) or sorted.
fn signature_of(modules: &[ModuleId], exact: bool, module_count: u64) -> OccupancySignature {
    let share = 1.0 / modules.len() as f64;
    let mut weights: Vec<(u64, f64)> = Vec::new();
    let mut add = |module: u64| match weights.last_mut() {
        Some((last, weight)) if *last == module => *weight += share,
        _ => weights.push((module, share)),
    };
    if module_count <= modules.len() as u64 {
        let mut counts = vec![0u32; module_count as usize];
        for m in modules {
            if let Some(count) = counts.get_mut(m.get() as usize) {
                *count += 1;
            }
        }
        for (module, &count) in counts.iter().enumerate() {
            for _ in 0..count {
                add(module as u64);
            }
        }
    } else {
        let mut hits: Vec<u64> = modules.iter().map(|m| m.get()).collect();
        hits.sort_unstable();
        for module in hits {
            add(module);
        }
    }
    OccupancySignature { weights, exact }
}

/// Pairwise conflict score of two streams under one map, **without
/// simulating**: `M · Σ_m o_a[m]·o_b[m]` over the two predicted
/// occupancy signatures, where `M` is the module count.
///
/// The normalisation makes `1.0` the uniform-random reference — the
/// module-bandwidth break-even point of two streams sharing the
/// single-bus memory:
///
/// * `0.0` — the streams touch disjoint module sets: co-scheduling is
///   free of cross-stream conflicts;
/// * `≈ 1.0` — as much overlap as two uniformly spread streams: the
///   modules can just absorb the combined rate;
/// * `≫ 1.0` (up to `M`) — both streams concentrate on the same few
///   modules: co-scheduling serialises on them.
///
/// The score is symmetric and a class invariant (equal
/// [`StrideClass`]es ⇒ equal scores). `tests/conflict_prediction.rs`
/// validates the ranking against *measured* cross-stream conflicts
/// from [`multi-stream runs`](../../cfva_memsim/multi/index.html)
/// across every registered map.
pub fn conflict_score<M: ModuleMap + ?Sized>(map: &M, a: &VectorSpec, b: &VectorSpec) -> f64 {
    let sig_a = occupancy_signature(map, a);
    let sig_b = occupancy_signature(map, b);
    map.module_count() as f64 * sig_a.overlap(&sig_b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::{ModuleMap, XorMatched};

    fn vec_of(base: u64, sigma: i64, x: u32, len: u64) -> VectorSpec {
        let stride = Stride::from_parts(sigma, x).expect("odd sigma");
        VectorSpec::with_stride(base.into(), stride, len).expect("bounded")
    }

    #[test]
    fn equivalent_accesses_share_a_class() {
        let map = XorMatched::new(3, 4).unwrap(); // used = 7
        let used = map.address_bits_used();
        assert_eq!(used, 7);
        // Base mod 2^7 and sigma mod 2^(7-2) both reduce.
        let a = vec_of(5, 3, 2, 64);
        let b = vec_of(5 + 128, 3 + 32, 2, 64);
        assert_eq!(StrideClass::reduce(&map, &a), StrideClass::reduce(&map, &b));
        // Negative odd parts reduce to the same positive residue.
        let c = vec_of((1 << 20) + 5, 3 - 32, 2, 64);
        assert_eq!(StrideClass::reduce(&map, &a), StrideClass::reduce(&map, &c));
    }

    #[test]
    fn distinct_family_or_length_splits_the_class() {
        let map = XorMatched::new(3, 4).unwrap();
        let a = StrideClass::reduce(&map, &vec_of(5, 3, 2, 64));
        assert_ne!(a, StrideClass::reduce(&map, &vec_of(5, 3, 3, 64)));
        assert_ne!(a, StrideClass::reduce(&map, &vec_of(5, 3, 2, 32)));
        assert_ne!(a, StrideClass::reduce(&map, &vec_of(6, 3, 2, 64)));
        assert_ne!(a, StrideClass::reduce(&map, &vec_of(5, 5, 2, 64)));
    }

    #[test]
    fn huge_exponent_collapses_sigma_but_keeps_x() {
        let map = XorMatched::new(3, 4).unwrap(); // used = 7
        let a = StrideClass::reduce(&map, &vec_of(9, 3, 7, 16));
        let b = StrideClass::reduce(&map, &vec_of(9, 11, 7, 16));
        assert_eq!(a, b, "x >= used: odd part is irrelevant");
        assert_eq!(a.sigma(), 1);
        assert_eq!(a.x(), 7, "the exponent itself is preserved");
        let c = StrideClass::reduce(&map, &vec_of(9, 3, 8, 16));
        assert_ne!(a, c, "different exponents stay distinct classes");
    }

    #[test]
    fn signature_weights_sum_to_one_and_follow_the_sequence() {
        let map = XorMatched::new(3, 4).unwrap(); // M = 8, used = 7
        let vec = vec_of(16, 3, 2, 64);
        let sig = occupancy_signature(&map, &vec);
        let total: f64 = sig.weights().iter().map(|&(_, w)| w).sum();
        assert!((total - 1.0).abs() < 1e-9, "weights sum to {total}");
        assert!(sig.is_exact(), "period 2^5 fits the cap");
        // Cross-check against the actual module sequence histogram.
        let n = vec.len().min(map.period(vec.stride().family()));
        let mut modules = vec![crate::ModuleId::new(0); n as usize];
        map.map_stride_into(vec.base(), vec.stride().get(), &mut modules);
        for &(module, weight) in sig.weights() {
            let count = modules.iter().filter(|m| m.get() == module).count();
            assert!((weight - count as f64 / n as f64).abs() < 1e-9);
        }
    }

    #[test]
    fn conflict_score_brackets_disjoint_uniform_and_clustered() {
        let map = XorMatched::new(3, 4).unwrap(); // M = 8, used = 7
                                                  // Unit-stride streams spread uniformly over all 8 modules.
        let a = vec_of(0, 1, 0, 64);
        let b = vec_of(32, 1, 0, 64);
        let uniform = conflict_score(&map, &a, &b);
        assert!((uniform - 1.0).abs() < 1e-9, "uniform overlap: {uniform}");
        // x >= used clusters each stream on one module. Bases 0 and 1
        // land on different modules (F(0) = 0, F(1) = 1): disjoint.
        let c = vec_of(0, 1, 7, 64);
        let d = vec_of(1, 1, 7, 64);
        assert_eq!(conflict_score(&map, &c, &d), 0.0);
        // Same base: both streams hammer one module — the maximum M.
        let clustered = conflict_score(&map, &c, &c);
        assert!((clustered - 8.0).abs() < 1e-9, "clustered: {clustered}");
        // Symmetry.
        let e = vec_of(5, 3, 1, 48);
        assert_eq!(conflict_score(&map, &a, &e), conflict_score(&map, &e, &a));
    }

    #[test]
    fn conflict_score_is_a_class_invariant() {
        let map = XorMatched::new(3, 4).unwrap(); // used = 7
        let probe = vec_of(3, 5, 1, 32);
        // Same class as `a` in `equivalent_accesses_share_a_class`.
        let a = vec_of(5, 3, 2, 64);
        let b = vec_of(5 + 128, 3 + 32, 2, 64);
        assert_eq!(StrideClass::reduce(&map, &a), StrideClass::reduce(&map, &b));
        assert_eq!(
            conflict_score(&map, &a, &probe),
            conflict_score(&map, &b, &probe)
        );
        assert_eq!(occupancy_signature(&map, &a), occupancy_signature(&map, &b));
    }

    #[test]
    fn huge_period_falls_back_to_sampled_prefix() {
        // A wide-shift XorMatched consumes 23 address bits, so the
        // family-0 period (2^23) overflows the cap and the signature
        // samples a bounded prefix.
        let map = crate::mapping::RegionMap::new(3, 30, 20).unwrap();
        let long = vec_of(0, 1, 0, SIGNATURE_PREFIX_CAP * 4);
        let sig = occupancy_signature(&map, &long);
        assert!(map.period(long.stride().family()) > SIGNATURE_PREFIX_CAP || sig.is_exact());
        let total: f64 = sig.weights().iter().map(|&(_, w)| w).sum();
        assert!((total - 1.0).abs() < 1e-9);
        // Short vectors are exact regardless of the period.
        let short = vec_of(0, 1, 0, 64);
        assert!(occupancy_signature(&map, &short).is_exact());
    }

    /// The sort-based construction signatures had before counting:
    /// every weight must match it bit for bit.
    fn sorted_signature<M: ModuleMap + ?Sized>(map: &M, vec: &VectorSpec) -> Vec<(u64, f64)> {
        let (n, _) = signature_prefix(map, vec);
        let mut modules = vec![ModuleId::new(0); n];
        map.map_stride_into(vec.base(), vec.stride().get(), &mut modules);
        let mut hits: Vec<u64> = modules.iter().map(|m| m.get()).collect();
        hits.sort_unstable();
        let mut weights: Vec<(u64, f64)> = Vec::new();
        let share = 1.0 / n as f64;
        for module in hits {
            match weights.last_mut() {
                Some((last, weight)) if *last == module => *weight += share,
                _ => weights.push((module, share)),
            }
        }
        weights
    }

    #[test]
    fn plan_signatures_match_mapped_and_sorted_signatures() {
        use crate::mapping::Registry;
        use crate::plan::Strategy;

        let registry = Registry::builtin();
        let mut counted = 0;
        for spec in registry.all_specs() {
            let planner = registry.planner(&spec).unwrap();
            let map = planner.map();
            for x in [0u32, 1, 2, 3, 5, 9] {
                for (base, len) in [(16u64, 64u64), (1000, 1000), (7, 4096), (3, 5000)] {
                    let vec = vec_of(base, 3, x, len);
                    let expected = sorted_signature(map, &vec);
                    let mapped = occupancy_signature(map, &vec);
                    assert_eq!(mapped.weights(), &expected[..], "{spec} {vec}");
                    counted +=
                        usize::from(map.module_count() <= signature_prefix(map, &vec).0 as u64);
                    for strategy in [Strategy::Canonical, Strategy::Auto, Strategy::ConflictFree] {
                        let Ok(plan) = planner.plan(&vec, strategy) else {
                            continue;
                        };
                        assert_eq!(
                            plan_signature(map, &vec, &plan),
                            mapped,
                            "{spec} {vec} {strategy}"
                        );
                    }
                }
            }
        }
        assert!(counted > 0, "no signature took the counting path");
    }

    #[test]
    fn reduction_is_idempotent_and_representative_matches_sequences() {
        let map = XorMatched::new(3, 4).unwrap();
        for (base, sigma, x, len) in [
            (123_456u64, 7i64, 0u32, 64u64),
            (98_765, -13, 3, 128),
            (1 << 40, 2_001, 5, 32),
            (77, 1, 9, 16),
        ] {
            let vec = vec_of(base, sigma, x, len);
            let class = StrideClass::reduce(&map, &vec);
            let rep = class.representative().expect("small representatives build");
            assert_eq!(
                StrideClass::reduce(&map, &rep),
                class,
                "reduce(representative) is a fixed point"
            );
            let mut orig = vec![crate::ModuleId::new(0); len as usize];
            let mut reduced = orig.clone();
            map.map_stride_into(vec.base(), vec.stride().get(), &mut orig);
            map.map_stride_into(rep.base(), rep.stride().get(), &mut reduced);
            assert_eq!(orig, reduced, "identical module sequences");
        }
    }
}
