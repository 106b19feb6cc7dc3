//! Validation suite for the aggregates-only engine: every
//! `Engine::Analytic` run must report exactly the per-cycle oracle's
//! aggregate statistics — across every map in the registry coverage
//! set, stride families, bases, queue depths, port counts and the
//! long-vector regime where the rest of a recurring stream is summed
//! in closed form — and every run it simulates to the end (no
//! recurrence, multi-port, tiny) must be bit-identical, per-element
//! vectors included.

use cfva_core::mapping::{Interleaved, MapSpec, Registry, XorMatched};
use cfva_core::plan::{AccessPlan, Planner, Strategy};
use cfva_core::{Addr, ModuleId, Stride, VectorSpec};
use cfva_memsim::{AccessStats, Engine, MemConfig, MemorySystem};

/// Runs one plan through the oracle and the analytic engine and checks
/// the contract: the estimate's aggregates equal the oracle's, the
/// `Engine::Analytic` dispatch path returns the same statistics as the
/// estimate, and a run that kept its vectors equals the oracle's
/// outright.
fn assert_analytic_valid(cfg: MemConfig, plan: &AccessPlan, label: &str) {
    let oracle = MemorySystem::new(cfg).run_plan(plan);

    let mut sys = MemorySystem::new(cfg.with_engine(Engine::Analytic));
    assert_eq!(sys.engine(), Engine::Analytic);
    let est = sys.analytic_estimate(plan);

    assert_eq!(est.elements, oracle.elements, "{label}: elements");
    assert_eq!(est.latency, oracle.latency, "{label}: latency");
    assert_eq!(est.stall_cycles, oracle.stall_cycles, "{label}: stalls");
    assert_eq!(est.conflicts, oracle.conflicts, "{label}: conflicts");
    assert_eq!(est.max_in_q, oracle.max_in_q, "{label}: max_in_q");

    // The engine-dispatch path gives the estimate, and a reused system
    // keeps giving the same answer.
    assert_eq!(sys.run_plan(plan), est, "{label}: engine path");
    assert_eq!(sys.analytic_estimate(plan), est, "{label}: reused system");

    if !est.arrival.is_empty() {
        // Simulated to the end: bit-identical, vectors included.
        assert_eq!(oracle, est, "{label}: direct path is bit-identical");
    }
}

/// Strides across families and bases at both probe-dominated (direct)
/// and extrapolated lengths.
fn sweep(planner: &Planner, cfg: MemConfig, label: &str) {
    for x in 0..=6u32 {
        for sigma in [1i64, 3] {
            let stride = Stride::from_parts(sigma, x).expect("odd sigma");
            for base in [0u64, 37] {
                let vec = VectorSpec::with_stride(base.into(), stride, 64).expect("valid");
                let plan = planner
                    .plan(&vec, Strategy::Canonical)
                    .expect("canonical always plans");
                assert_analytic_valid(
                    cfg,
                    &plan,
                    &format!("{label} x={x} sigma={sigma} base={base}"),
                );
            }
        }
    }
    // Long vectors: enough whole periods that the rest of the stream is
    // summed in closed form.
    for x in [0u32, 2, 4] {
        let stride = Stride::from_parts(3, x).expect("odd sigma");
        let p = planner.map().period(stride.family());
        // Saturating: maps with no finite period (the overridden region
        // map) just get the cap.
        let len = p.saturating_mul(192).clamp(1024, 16_384);
        // Off-period length: a partial window is summed too.
        let len = len + (p / 3).min(97);
        let vec = VectorSpec::with_stride(11u64.into(), stride, len).expect("valid");
        let plan = planner
            .plan(&vec, Strategy::Canonical)
            .expect("canonical always plans");
        assert_analytic_valid(cfg, &plan, &format!("{label} long x={x} len={len}"));
    }
}

/// Every registered map: registering a map in the registry opts it into
/// this sweep with no test edits.
#[test]
fn every_registered_map_is_validated_against_the_oracle() {
    for spec in Registry::builtin().all_specs() {
        let planner = Planner::from_spec(&spec).expect("coverage specs are buildable");
        let cfg = MemConfig::from_spec(&spec).expect("coverage specs fit the simulator");
        sweep(&planner, cfg, &spec.to_string());
    }
}

/// The serialized worst case (every request on one module) settles into
/// a period-1 steady state: a stride of `M` on low-order interleaving
/// carries `P = 1`, and the rest of the stream past the recurrence must
/// be summed exactly, with no vectors built.
#[test]
fn one_module_streams_extrapolate_exactly() {
    for (m, t) in [(3u32, 3u32), (3, 6), (2, 4)] {
        let cfg = MemConfig::new(m, t).unwrap();
        let planner = Planner::baseline(Interleaved::new(m).unwrap(), t);
        let vec = VectorSpec::new(0, 1 << m, 8192).unwrap();
        let plan = planner.plan(&vec, Strategy::Canonical).unwrap();
        assert_eq!(plan.period(), Some(1), "m={m} t={t}");
        let oracle = MemorySystem::new(cfg).run_plan(&plan);
        let stats = MemorySystem::new(cfg.with_engine(Engine::Analytic)).run_plan(&plan);
        assert!(
            stats.arrival.is_empty(),
            "m={m} t={t}: a long one-module stream recurs"
        );
        assert_eq!(stats.latency, oracle.latency, "m={m} t={t}: latency");
        assert_eq!(
            stats.stall_cycles, oracle.stall_cycles,
            "m={m} t={t}: stalls"
        );
        assert_eq!(stats.conflicts, oracle.conflicts, "m={m} t={t}: conflicts");
        assert_eq!(stats.max_in_q, oracle.max_in_q, "m={m} t={t}: max_in_q");
    }
}

/// Queue depths change the steady-state shape; the estimate must track
/// the oracle through all of them.
#[test]
fn queue_depths_are_validated() {
    let planner = Planner::matched(XorMatched::new(3, 4).unwrap());
    let vec = VectorSpec::new(16, 12, 4096).unwrap();
    for (q_in, q_out) in [(1usize, 1usize), (2, 1), (1, 2), (4, 4), (8, 2)] {
        let cfg = MemConfig::new(3, 3)
            .unwrap()
            .with_queues(q_in, q_out)
            .unwrap();
        for strategy in [Strategy::Canonical, Strategy::Subsequence] {
            let plan = planner.plan(&vec, strategy).unwrap();
            assert_analytic_valid(cfg, &plan, &format!("q={q_in} q'={q_out} {strategy}"));
        }
    }
}

/// Multi-port, tiny and empty streams run the direct path — trivially
/// exact and bit-identical.
#[test]
fn direct_paths_are_bit_identical() {
    let wide = Planner::baseline(Interleaved::new(6).unwrap(), 3);
    let plan = wide
        .plan(&VectorSpec::new(0, 1, 128).unwrap(), Strategy::Canonical)
        .unwrap();
    for ports in [2usize, 4] {
        let cfg = MemConfig::new(6, 3).unwrap().with_ports(ports).unwrap();
        assert_analytic_valid(cfg, &plan, &format!("ports={ports}"));
    }

    let cfg = MemConfig::new(3, 3).unwrap();
    assert_analytic_valid(cfg, &AccessPlan::new(), "empty plan");
    let tiny = [(0u64, Addr::new(5), ModuleId::new(3))];
    let oracle = MemorySystem::new(cfg).run_requests(&tiny);
    let analytic = MemorySystem::new(cfg.with_engine(Engine::Analytic)).run_requests(&tiny);
    assert_eq!(oracle, analytic, "single request");
}

/// A raw request stream carries no period: it is solved to the end,
/// vectors included.
#[test]
fn aperiodic_streams_take_the_direct_path() {
    let cfg = MemConfig::new(3, 3).unwrap();
    let stream: Vec<(u64, Addr, ModuleId)> = (0..256u64)
        .map(|i| (i, Addr::new(i), ModuleId::new((i * i + i / 3) % 8)))
        .collect();
    let oracle = MemorySystem::new(cfg).run_requests(&stream);
    let analytic = MemorySystem::new(cfg.with_engine(Engine::Analytic)).run_requests(&stream);
    assert_eq!(oracle, analytic, "aperiodic stream is run, not estimated");
}

/// The estimate's derived rate is consistent with its own aggregates.
#[test]
fn throughput_is_consistent() {
    let planner = Planner::matched(XorMatched::new(3, 4).unwrap());
    let plan = planner
        .plan(&VectorSpec::new(16, 12, 4096).unwrap(), Strategy::Canonical)
        .unwrap();
    let cfg = MemConfig::new(3, 3).unwrap();
    let est = MemorySystem::new(cfg.with_engine(Engine::Analytic)).analytic_estimate(&plan);
    assert!((est.throughput() - est.elements as f64 / est.latency as f64).abs() < 1e-12);

    let empty =
        MemorySystem::new(cfg.with_engine(Engine::Analytic)).analytic_estimate(&AccessPlan::new());
    assert_eq!(empty.throughput(), 0.0);
}

/// A reused `AccessStats` buffer from a vector-bearing run must come
/// back with its per-element vectors **cleared** once a run recurs —
/// stale arrivals would silently masquerade as estimator output.
#[test]
fn recurring_runs_clear_reused_buffers() {
    let cfg = MemConfig::new(3, 3).unwrap();
    let mut sys = MemorySystem::new(cfg.with_engine(Engine::Analytic));
    let mut out = AccessStats::default();

    let planner = Planner::matched(XorMatched::new(3, 4).unwrap());
    let short = planner
        .plan(&VectorSpec::new(16, 12, 32).unwrap(), Strategy::Canonical)
        .unwrap();
    sys.run_plan_into(&short, &mut out);
    assert_eq!(out.arrival.len(), 32, "short plan runs directly");

    let long = planner
        .plan(&VectorSpec::new(16, 12, 8192).unwrap(), Strategy::Canonical)
        .unwrap();
    sys.run_plan_into(&long, &mut out);
    assert!(
        out.arrival.is_empty(),
        "a recurring run clears stale arrivals"
    );
    assert!(
        out.module_busy.is_empty(),
        "a recurring run clears busy vector"
    );
    assert_eq!(out.elements, 8192);
}

/// Region vectors that cross into the override carry the map's
/// family-wide bound as their period, far above the minimal one: a
/// loose period only leaves the stream solved to the end, and every
/// run still equals the oracle.
#[test]
fn loose_region_periods_match_the_oracle() {
    let spec: MapSpec = "region:t=3,bits=10,s=3,regions=1:6".parse().unwrap();
    let planner = Planner::from_spec(&spec).unwrap();
    let cfg = MemConfig::from_spec(&spec).unwrap();
    for x in 0..=10u32 {
        for base in [0u64, 1000, 1024] {
            for len in [1024u64, 3000] {
                let stride = Stride::from_parts(1, x).expect("odd sigma");
                let vec = VectorSpec::with_stride(base.into(), stride, len).expect("valid");
                let plan = planner.plan(&vec, Strategy::Canonical).unwrap();
                assert_analytic_valid(cfg, &plan, &format!("{vec}"));
            }
        }
    }
}
