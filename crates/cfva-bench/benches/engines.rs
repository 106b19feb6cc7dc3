//! The cycle oracle (`MemorySystem::run_oracle`, the `*_cycle` ids) on
//! the regimes the engines target, against the route (`run_plan_into`,
//! the `*_fast-path` ids) where it applies: the worst-case
//! all-requests-one-module stride (stride = M on low-order interleaving,
//! T = 64), a conflicted canonical plan, a conflict-free plan, and a
//! dense aperiodic stream with no recurrence to extrapolate, where the
//! route lands on the request-order solver. Last, a two-stream
//! round-robin co-run against the same two plans run alone, both on the
//! route and in ns per request (the co-run target is at most twice the
//! solo cost).

use criterion::{
    black_box, criterion_group, criterion_main, BenchmarkGroup, BenchmarkId, Criterion, Throughput,
};

use cfva_core::mapping::MapSpec;
use cfva_core::plan::{AccessPlan, Planner, Strategy};
use cfva_core::VectorSpec;
use cfva_memsim::{run_multi, AccessStats, IssuePolicy, MemConfig, MemorySystem};

/// Planner + memory geometry from one registry spec — engines are
/// engine-vs-engine comparisons, so both sides must come from the same
/// runtime-selected configuration.
fn from_spec(spec: &str) -> (Planner, MemConfig) {
    let spec: MapSpec = spec.parse().expect("static spec");
    (
        Planner::from_spec(&spec).expect("static spec"),
        MemConfig::from_spec(&spec).expect("static spec"),
    )
}

/// Times `plan` on the oracle as `{name}_cycle` and on the route as
/// `{name}_fast-path`.
fn oracle_and_route(group: &mut BenchmarkGroup<'_>, name: &str, cfg: MemConfig, plan: &AccessPlan) {
    let mut sys = MemorySystem::new(cfg);
    group.bench_function(BenchmarkId::new(format!("{name}_cycle"), plan.len()), |b| {
        b.iter(|| sys.run_oracle(black_box(plan)))
    });
    let mut out = AccessStats::default();
    group.bench_function(
        BenchmarkId::new(format!("{name}_fast-path"), plan.len()),
        |b| b.iter(|| sys.run_plan_into(black_box(plan), &mut out)),
    );
}

fn bench_engines(c: &mut Criterion) {
    let mut group = c.benchmark_group("engines");

    // Worst case: every request on one module (stride 8 on 8-way
    // low-order interleaving), long service time T = 64. The cycle
    // loop walks ~L·T cycles.
    let (planner, cfg) = from_spec("interleaved:m=3,t=6");
    for len in [128u64, 512] {
        let vec = VectorSpec::new(0, 8, len).expect("valid");
        let plan = planner.plan(&vec, Strategy::Canonical).expect("plans");
        group.throughput(Throughput::Elements(len));
        let mut sys = MemorySystem::new(cfg);
        group.bench_function(BenchmarkId::new("one_module_cycle", len), |b| {
            b.iter(|| sys.run_oracle(black_box(&plan)))
        });
    }

    // Mixed regime: canonical order of an in-window family — bursts of
    // conflicts separated by conflict-free stretches.
    let (planner, cfg) = from_spec("xor-matched:t=3,s=4");
    let vec = VectorSpec::new(16, 12, 128).expect("valid");
    let plan = planner.plan(&vec, Strategy::Canonical).expect("plans");
    group.throughput(Throughput::Elements(128));
    let mut sys = MemorySystem::new(cfg);
    group.bench_function(
        BenchmarkId::new("conflicted_canonical_cycle", 128u64),
        |b| b.iter(|| sys.run_oracle(black_box(&plan))),
    );

    // Conflict-free plan: the fast path's home turf.
    let plan = planner.plan(&vec, Strategy::ConflictFree).expect("window");
    oracle_and_route(&mut group, "conflict_free", cfg, &plan);

    // Dense aperiodic: the pseudo-random map's module sequence does not
    // recur within the vector, so nothing extrapolates (the route falls
    // through the periodic pass to the request-order solver) and
    // conflicts keep every cycle busy.
    let (planner, cfg) = from_spec("pseudo-random:m=3,bits=14");
    let vec = VectorSpec::new(0, 3, 4096).expect("valid");
    let plan = planner.plan(&vec, Strategy::Auto).expect("plans");
    group.throughput(Throughput::Elements(4096));
    oracle_and_route(&mut group, "dense_aperiodic", cfg, &plan);

    // Co-run: two conflicted 1024-element in-order plans (P_x = 32
    // and 16) merged round-robin, through the periodic pass, against
    // the same plans run alone on one system. Both report per request
    // of the pair (2048 requests).
    let (planner, cfg) = from_spec("xor-matched:t=3,s=4");
    let a = planner
        .plan(
            &VectorSpec::new(16, 12, 1024).expect("valid"),
            Strategy::Canonical,
        )
        .expect("plans");
    let b = planner
        .plan(
            &VectorSpec::new(4099, 24, 1024).expect("valid"),
            Strategy::Canonical,
        )
        .expect("plans");
    group.throughput(Throughput::Elements(2048));
    group.bench_function(
        BenchmarkId::new("co_run_round-robin_fast-path", 2048u64),
        |bench| bench.iter(|| run_multi(cfg, black_box(&[&a, &b]), IssuePolicy::RoundRobin)),
    );
    let mut sys = MemorySystem::new(cfg);
    let mut out = AccessStats::default();
    group.bench_function(
        BenchmarkId::new("co_run_solo_pair_fast-path", 2048u64),
        |bench| {
            bench.iter(|| {
                sys.run_plan_into(black_box(&a), &mut out);
                sys.run_plan_into(black_box(&b), &mut out);
            })
        },
    );

    group.finish();
}

criterion_group!(benches, bench_engines);
criterion_main!(benches);
