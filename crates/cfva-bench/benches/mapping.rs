//! Address-mapping throughput: the module-number computation sits on
//! the critical path of every memory request, so it must be a handful
//! of gate delays (here: a handful of ALU ops).
//!
//! The `map_stride_into` group measures the bulk mapping API against
//! the per-element `module_of` loop over a `&dyn ModuleMap` — the
//! delta `Planner::plan_into` gains by resolving all modules of a plan
//! through one virtual call (periodic head + cyclic copy) instead of
//! one call per element.
//!
//! The `plan_into` group times whole plans into a reused buffer. A plan
//! stores only that element-indexed module table and, when the order is
//! not the identity, the element order, so an in-order plan costs about
//! one bulk mapping; `auto_*` are the strategy a serving session plans
//! with, on an out-of-order (`xor-matched`) and an in-order
//! (`pseudo-random`) planner.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use cfva_core::mapping::{
    Interleaved, Linear, ModuleMap, Registry, Skewed, XorMatched, XorUnmatched,
};
use cfva_core::plan::{AccessPlan, Planner, Strategy};
use cfva_core::{Addr, ModuleId, VectorSpec};

fn bench_maps(c: &mut Criterion) {
    let mut group = c.benchmark_group("module_of");
    let addrs: Vec<Addr> = (0..1024u64).map(|i| Addr::new(i * 2654435761)).collect();

    let interleaved = Interleaved::new(3).unwrap();
    group.bench_function(BenchmarkId::new("interleaved", "m=3"), |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for &a in &addrs {
                acc ^= interleaved.module_of(black_box(a)).get();
            }
            acc
        })
    });

    let skewed = Skewed::new(3, 1).unwrap();
    group.bench_function(BenchmarkId::new("skewed", "m=3 d=1"), |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for &a in &addrs {
                acc ^= skewed.module_of(black_box(a)).get();
            }
            acc
        })
    });

    let xor_m = XorMatched::new(3, 4).expect("valid");
    group.bench_function(BenchmarkId::new("xor_matched", "t=3 s=4"), |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for &a in &addrs {
                acc ^= xor_m.module_of(black_box(a)).get();
            }
            acc
        })
    });

    let xor_u = XorUnmatched::new(3, 4, 9).expect("valid");
    group.bench_function(BenchmarkId::new("xor_unmatched", "t=3 s=4 y=9"), |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for &a in &addrs {
                acc ^= xor_u.module_of(black_box(a)).get();
            }
            acc
        })
    });

    let linear = Linear::xor_unmatched(3, 4, 9).expect("valid");
    group.bench_function(BenchmarkId::new("linear_matrix", "t=3 s=4 y=9"), |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for &a in &addrs {
                acc ^= linear.module_of(black_box(a)).get();
            }
            acc
        })
    });

    group.finish();
}

/// Bulk stride mapping vs the per-element virtual-call loop, for every
/// registered map: the registry's coverage set is the bench matrix, so
/// a newly registered map (including runtime `custom-gf2` matrices) is
/// measured automatically.
fn bench_bulk_mapping(c: &mut Criterion) {
    const LEN: usize = 4096;
    let maps = Registry::builtin().all_maps();

    let mut group = c.benchmark_group("map_stride_into");
    group.throughput(Throughput::Elements(LEN as u64));
    let base = Addr::new(16);
    let stride = 12i64;
    for (spec, map) in &maps {
        let name = spec.name();
        let map: &dyn ModuleMap = map.as_ref();
        let mut out = vec![ModuleId::new(0); LEN];
        group.bench_function(BenchmarkId::new(format!("{name}_per_element"), LEN), |b| {
            b.iter(|| {
                let mut addr = base.get();
                for slot in out.iter_mut() {
                    *slot = map.module_of(black_box(Addr::new(addr)));
                    addr = addr.wrapping_add_signed(stride);
                }
            })
        });
        group.bench_function(BenchmarkId::new(format!("{name}_bulk"), LEN), |b| {
            b.iter(|| map.map_stride_into(black_box(base), black_box(stride), &mut out))
        });
    }
    group.finish();

    // The downstream payoff: plan construction through the reused
    // buffer. A plan is one map_stride_into fill plus, out of order,
    // the element order, so `canonical` should sit near the bulk
    // mapping above.
    let mut group = c.benchmark_group("plan_into");
    group.throughput(Throughput::Elements(LEN as u64));
    let planner = Planner::matched(XorMatched::new(3, 4).expect("valid"));
    let vec = VectorSpec::new(16, 12, LEN as u64).expect("valid");
    let mut plan = AccessPlan::new();
    for strategy in [Strategy::Canonical, Strategy::ConflictFree] {
        group.bench_function(BenchmarkId::new(format!("{strategy}"), LEN), |b| {
            b.iter(|| {
                planner
                    .plan_into(black_box(&vec), strategy, &mut plan)
                    .expect("plannable")
            })
        });
    }
    // `Auto` as a serving session plans: a reused buffer, on an
    // out-of-order planner and on an in-order one.
    for name in ["xor-matched", "pseudo-random"] {
        let spec = Registry::builtin()
            .all_specs()
            .into_iter()
            .find(|spec| spec.name() == name)
            .expect("a registered map");
        let planner = Planner::from_spec(&spec).expect("coverage specs are buildable");
        group.bench_function(BenchmarkId::new(format!("auto_{name}"), LEN), |b| {
            b.iter(|| {
                planner
                    .plan_into(black_box(&vec), Strategy::Auto, &mut plan)
                    .expect("auto always plans")
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_maps, bench_bulk_mapping);
criterion_main!(benches);
