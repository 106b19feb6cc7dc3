//! The route (`MemorySystem::run_plan_into`) on the long-vector
//! regimes the periodic steady-state fast-forward pass targets: the
//! `*_periodic` ids are conflicted plans, which the fast path's check
//! rejects at their first conflict and the periodic pass copies, and
//! `conflict_free_fast-path` a conflict-free plan the fast path takes.
//! The detector behind these numbers has a deterministic guard: the
//! `periodic.rs` unit test `detection_copies_most_of_long_conflicted_plans`
//! requires it to copy at least 90% of the requests of the x = 2 and
//! one-module plans timed here.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use cfva_core::mapping::{Interleaved, XorMatched};
use cfva_core::plan::{Planner, Strategy};
use cfva_core::VectorSpec;
use cfva_memsim::{AccessStats, MemConfig, MemorySystem};

fn bench_periodic(c: &mut Criterion) {
    let mut group = c.benchmark_group("periodic");

    // Long-vector conflicted stride: family x = 2 in canonical order on
    // the eq. (1) map — conflicted but not serialized. P_x = 32;
    // lengths are 16..256 periods.
    let planner = Planner::matched(XorMatched::new(3, 4).expect("valid"));
    let cfg = MemConfig::new(3, 3).expect("valid");
    for len in [512u64, 2048, 8192] {
        let vec = VectorSpec::new(16, 12, len).expect("valid");
        let plan = planner.plan(&vec, Strategy::Canonical).expect("plans");
        group.throughput(Throughput::Elements(len));
        let mut sys = MemorySystem::new(cfg);
        let mut out = AccessStats::default();
        group.bench_function(BenchmarkId::new("conflicted_x2_periodic", len), |b| {
            b.iter(|| sys.run_plan_into(black_box(&plan), &mut out))
        });
    }

    // Fully serialized worst case: stride = M on low-order interleaving
    // (module-sequence period 1), long service time T = 64.
    let planner = Planner::baseline(Interleaved::new(3).expect("m in range"), 6);
    let cfg = MemConfig::new(3, 6).expect("valid");
    for len in [1024u64, 4096] {
        let vec = VectorSpec::new(0, 8, len).expect("valid");
        let plan = planner.plan(&vec, Strategy::Canonical).expect("plans");
        group.throughput(Throughput::Elements(len));
        let mut sys = MemorySystem::new(cfg);
        let mut out = AccessStats::default();
        group.bench_function(BenchmarkId::new("one_module_periodic", len), |b| {
            b.iter(|| sys.run_plan_into(black_box(&plan), &mut out))
        });
    }

    // Conflict-free replay plan: period T, zero conflicts — the fast
    // path verifies and writes it in one pass.
    let planner = Planner::matched(XorMatched::new(3, 4).expect("valid"));
    let cfg = MemConfig::new(3, 3).expect("valid");
    let vec = VectorSpec::new(16, 12, 4096).expect("valid");
    let plan = planner.plan(&vec, Strategy::ConflictFree).expect("window");
    group.throughput(Throughput::Elements(4096));
    let mut sys = MemorySystem::new(cfg);
    let mut out = AccessStats::default();
    group.bench_function(BenchmarkId::new("conflict_free_fast-path", 4096u64), |b| {
        b.iter(|| sys.run_plan_into(black_box(&plan), &mut out))
    });

    group.finish();
}

criterion_group!(benches, bench_periodic);
criterion_main!(benches);
