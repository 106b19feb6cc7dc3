//! Cycle-oracle throughput: fresh systems running
//! `MemorySystem::run_oracle`, construction included, across memory
//! sizes and plan kinds.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use cfva_core::mapping::{XorMatched, XorUnmatched};
use cfva_core::plan::{Planner, Strategy};
use cfva_core::VectorSpec;
use cfva_memsim::{MemConfig, MemorySystem};

fn bench_simulation(c: &mut Criterion) {
    let mut group = c.benchmark_group("memsim");

    // Matched, conflict-free plan (no queueing).
    let planner = Planner::matched(XorMatched::new(3, 4).expect("valid"));
    for len in [128u64, 1024] {
        let vec = VectorSpec::new(16, 12, len).expect("valid");
        let plan = planner
            .plan(&vec, Strategy::ConflictFree)
            .expect("in window");
        let mem = MemConfig::new(3, 3).expect("valid");
        group.throughput(Throughput::Elements(len));
        group.bench_function(BenchmarkId::new("conflict_free", len), |b| {
            b.iter(|| MemorySystem::new(mem).run_oracle(black_box(&plan)))
        });
    }

    // Matched, canonical plan with conflicts (the queueing path).
    let vec = VectorSpec::new(16, 12, 128).expect("valid");
    let plan = planner.plan(&vec, Strategy::Canonical).expect("plannable");
    let mem = MemConfig::new(3, 3).expect("valid");
    group.bench_function(BenchmarkId::new("conflicting_canonical", 128u64), |b| {
        b.iter(|| MemorySystem::new(mem).run_oracle(black_box(&plan)))
    });

    // Unmatched memory: 64 modules.
    let planner = Planner::unmatched(XorUnmatched::new(3, 4, 9).expect("valid"));
    let vec = VectorSpec::new(6, 96, 128).expect("valid"); // x = 5: section replay
    let plan = planner
        .plan(&vec, Strategy::ConflictFree)
        .expect("in window");
    let mem = MemConfig::new(6, 3).expect("valid");
    group.bench_function(BenchmarkId::new("unmatched_64_modules", 128u64), |b| {
        b.iter(|| MemorySystem::new(mem).run_oracle(black_box(&plan)))
    });

    group.finish();
}

criterion_group!(benches, bench_simulation);
criterion_main!(benches);
