//! Equivalence suite for the event-queue engine: `Engine::Event` (and
//! `Engine::FastPath`, which falls back to it) must produce
//! **bit-identical** `AccessStats` — and, where traced, identical
//! `Trace` output — to the per-cycle oracle, across **every map in the
//! registry coverage set** (a map registered in
//! `cfva_core::mapping::Registry` is swept here automatically), stride
//! families, queue depths, port counts and pathological same-module
//! streams — plus the dense regime the event kernel targets: long
//! `Strategy::Auto` plans of every registered map, conflicted
//! multi-port streams whose same-cycle issues tie at the bus, and
//! output back-pressure. Plus the enforced performance claim: the
//! event engine beats the cycle loop ≥ 2× on a worst-case
//! all-requests-one-module stride.

use std::time::Instant;

use cfva_core::mapping::{Interleaved, Registry, XorMatched};
use cfva_core::plan::{AccessPlan, Planner, Strategy};
use cfva_core::{Addr, ModuleId, Stride, VectorSpec};
use cfva_memsim::{AccessStats, Engine, Event, MemConfig, MemorySystem};

/// Runs one plan through all three engines on fresh systems and
/// asserts identical statistics; also re-runs on the reused event
/// system (state must not leak between runs) and compares full traces
/// cycle-for-cycle.
fn assert_engines_equivalent(cfg: MemConfig, plan: &AccessPlan, label: &str) {
    let oracle = MemorySystem::new(cfg).run_plan(plan);

    let mut event = MemorySystem::new(cfg.with_engine(Engine::Event));
    assert_eq!(event.engine(), Engine::Event);
    let evented = event.run_plan(plan);
    assert_eq!(oracle, evented, "{label} (event engine)");
    let again = event.run_plan(plan);
    assert_eq!(oracle, again, "{label} (event engine, reused system)");

    let mut fast = MemorySystem::new(cfg.with_engine(Engine::FastPath));
    let shortcut = fast.run_plan(plan);
    assert_eq!(oracle, shortcut, "{label} (fast path over event)");

    // Trace equivalence: the event engine must reconstruct the exact
    // per-cycle event stream, including the stall runs it skips over.
    let mut traced_oracle = MemorySystem::new(cfg);
    traced_oracle.enable_trace();
    let _ = traced_oracle.run_plan(plan); // run for the trace; stats are compared above
    let mut traced_event = MemorySystem::new(cfg.with_engine(Engine::Event));
    traced_event.enable_trace();
    let _ = traced_event.run_plan(plan);
    assert_eq!(
        traced_oracle.trace().events(),
        traced_event.trace().events(),
        "{label} (trace)"
    );
}

/// Runs a raw request stream through the oracle and the event engine.
fn assert_stream_equivalent(cfg: MemConfig, stream: &[(u64, Addr, ModuleId)], label: &str) {
    let oracle = MemorySystem::new(cfg).run_requests(stream);
    let evented = MemorySystem::new(cfg.with_engine(Engine::Event)).run_requests(stream);
    assert_eq!(oracle, evented, "{label}");
}

/// Every in-order (canonical) plan a map can produce, over a spread of
/// stride families and bases — the conflicted regime the event engine
/// exists for.
fn sweep_canonical(planner: &Planner, cfg: MemConfig, label: &str) {
    for x in 0..=6u32 {
        for sigma in [1i64, 3, 7] {
            for base in [0u64, 16, 37] {
                let stride = Stride::from_parts(sigma, x).expect("odd sigma");
                let vec = VectorSpec::with_stride(base.into(), stride, 64).expect("valid");
                let plan = planner
                    .plan(&vec, Strategy::Canonical)
                    .expect("canonical always plans");
                assert_engines_equivalent(
                    cfg,
                    &plan,
                    &format!("{label} x={x} sigma={sigma} base={base}"),
                );
            }
        }
    }
}

/// Every registered map, canonical order, over the stride/base spread:
/// registering a map in the registry opts it into this sweep (and the
/// periodic-engine twin) with no test edits.
#[test]
fn every_registered_map_is_identical() {
    for spec in Registry::builtin().all_specs() {
        let planner = Planner::from_spec(&spec).expect("coverage specs are buildable");
        let cfg = MemConfig::from_spec(&spec).expect("coverage specs fit the simulator");
        sweep_canonical(&planner, cfg, &spec.to_string());
    }
}

/// Extra skew parameterizations the coverage spec does not reach
/// (degenerate skew 0 rides the interleaving path).
#[test]
fn skew_variants_are_identical() {
    let registry = Registry::builtin();
    for skew in [0u64, 1] {
        let planner = registry
            .planner(&format!("skewed:m=3,d={skew}").parse().unwrap())
            .unwrap();
        sweep_canonical(
            &planner,
            MemConfig::new(3, 3).unwrap(),
            &format!("skewed d={skew}"),
        );
    }
}

/// Out-of-order conflict-free and subsequence plans of the matched
/// map: the replay regime the canonical sweep cannot reach.
#[test]
fn xor_matched_out_of_order_plans_are_identical() {
    let spec = "xor-matched:t=3,s=4".parse().unwrap();
    let planner = Planner::from_spec(&spec).unwrap();
    let cfg = MemConfig::from_spec(&spec).unwrap();
    for x in 0..=4u32 {
        let stride = Stride::from_parts(3, x).unwrap();
        let vec = VectorSpec::with_stride(16u64.into(), stride, 128).unwrap();
        for strategy in [Strategy::ConflictFree, Strategy::Subsequence] {
            let plan = planner.plan(&vec, strategy).expect("in window");
            assert_engines_equivalent(cfg, &plan, &format!("xor-matched {strategy} x={x}"));
        }
    }
}

/// Conflict-free replay plans of the unmatched map, both windows.
#[test]
fn xor_unmatched_replay_plans_are_identical() {
    let spec = "xor-unmatched:t=3,s=4,y=9".parse().unwrap();
    let planner = Planner::from_spec(&spec).unwrap();
    let cfg = MemConfig::from_spec(&spec).unwrap();
    for x in [0u32, 4, 7, 9] {
        let stride = Stride::from_parts(3, x).unwrap();
        let vec = VectorSpec::with_stride(77u64.into(), stride, 128).unwrap();
        let plan = planner.plan(&vec, Strategy::ConflictFree).expect("window");
        assert_engines_equivalent(cfg, &plan, &format!("xor-unmatched cf x={x}"));
    }
}

#[test]
fn queue_depths_and_ports_are_identical() {
    let planner = Planner::matched(XorMatched::new(3, 4).unwrap());
    let vec = VectorSpec::new(16, 12, 128).unwrap();
    for (q_in, q_out) in [(1usize, 1usize), (2, 1), (1, 2), (4, 4), (8, 2)] {
        let cfg = MemConfig::new(3, 3)
            .unwrap()
            .with_queues(q_in, q_out)
            .unwrap();
        for strategy in [Strategy::Canonical, Strategy::Subsequence] {
            let plan = planner.plan(&vec, strategy).unwrap();
            assert_engines_equivalent(cfg, &plan, &format!("q={q_in} q'={q_out} {strategy}"));
        }
    }
    // Multi-port memories (the fast path must not engage; the event
    // engine must model per-port issue and grant).
    let wide = Planner::baseline(Interleaved::new(6).unwrap(), 3);
    let plan = wide
        .plan(&VectorSpec::new(0, 1, 128).unwrap(), Strategy::Canonical)
        .unwrap();
    for ports in [1usize, 2, 4] {
        let cfg = MemConfig::new(6, 3).unwrap().with_ports(ports).unwrap();
        assert_engines_equivalent(cfg, &plan, &format!("ports={ports}"));
    }
}

/// The request stream of a plan, in issue order.
fn stream_of(plan: &AccessPlan) -> Vec<(u64, Addr, ModuleId)> {
    plan.iter()
        .map(|e| (e.element(), e.addr(), e.module()))
        .collect()
}

/// One traced oracle run against a traced and an untraced event run:
/// statistics and full traces must be equal. Returns the oracle trace
/// so callers can check their scenario actually occurred.
fn assert_traced_stream_equivalent(
    cfg: MemConfig,
    stream: &[(u64, Addr, ModuleId)],
    label: &str,
) -> Vec<Event> {
    let mut oracle = MemorySystem::new(cfg);
    oracle.enable_trace();
    let expected = oracle.run_requests(stream);
    let mut traced = MemorySystem::new(cfg.with_engine(Engine::Event));
    traced.enable_trace();
    assert_eq!(expected, traced.run_requests(stream), "{label} (traced)");
    assert_eq!(
        oracle.trace().events(),
        traced.trace().events(),
        "{label} (trace)"
    );
    let untraced = MemorySystem::new(cfg.with_engine(Engine::Event)).run_requests(stream);
    assert_eq!(expected, untraced, "{label} (untraced)");
    oracle.trace().events().to_vec()
}

/// Cycles in which two or more modules complete a service.
fn same_cycle_completions(trace: &[Event]) -> usize {
    let mut cycles: Vec<u64> = trace
        .iter()
        .filter(|e| matches!(e, Event::Complete { .. }))
        .map(Event::cycle)
        .collect();
    let total = cycles.len();
    cycles.dedup();
    total - cycles.len()
}

/// Completions deferred past their service time by a full output
/// queue.
fn deferred_completions(trace: &[Event], t: u64) -> usize {
    let mut started = std::collections::HashMap::new();
    let mut deferred = 0;
    for event in trace {
        match *event {
            Event::ServiceStart { cycle, element, .. } => {
                started.insert(element, cycle);
            }
            Event::Complete { cycle, element, .. } => {
                deferred += usize::from(cycle > started[&element] + t);
            }
            _ => {}
        }
    }
    deferred
}

/// A deterministic pseudo-random stream over modules `0..width`
/// (xorshift64).
fn random_stream(seed: u64, len: u64, width: u64) -> Vec<(u64, Addr, ModuleId)> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|i| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (i, Addr::new(i), ModuleId::new(state % width))
        })
        .collect()
}

/// The dense regime the event kernel exists for: long `Auto` plans of
/// every registered map, across stride families, traced and untraced.
/// One test per queue depth, so the sweep spreads over the test
/// threads.
fn long_auto_sweep(q_in: usize, q_out: usize) {
    for spec in Registry::builtin().all_specs() {
        let planner = Planner::from_spec(&spec).expect("coverage specs are buildable");
        let cfg = MemConfig::from_spec(&spec)
            .expect("coverage specs fit the simulator")
            .with_queues(q_in, q_out)
            .expect("nonzero queues");
        for x in 0..=3u32 {
            for len in [1024u64, 4096, 8192] {
                let stride = Stride::from_parts(3, x).expect("odd sigma");
                let vec = VectorSpec::with_stride(7u64.into(), stride, len).expect("valid");
                let plan = planner
                    .plan(&vec, Strategy::Auto)
                    .expect("auto always plans");
                assert_traced_stream_equivalent(
                    cfg,
                    &stream_of(&plan),
                    &format!("{spec} auto x={x} len={len} q={q_in} q'={q_out}"),
                );
            }
        }
    }
}

#[test]
fn long_auto_plans_are_identical_q1_1() {
    long_auto_sweep(1, 1);
}

#[test]
fn long_auto_plans_are_identical_q2_1() {
    long_auto_sweep(2, 1);
}

#[test]
fn long_auto_plans_are_identical_q1_2() {
    long_auto_sweep(1, 2);
}

#[test]
fn long_auto_plans_are_identical_q4_2() {
    long_auto_sweep(4, 2);
}

/// Conflicted 2- and 4-port streams: requests issued in the same cycle
/// start, complete and reach the bus together, where the arbiter breaks
/// the tie by module.
#[test]
fn conflicted_multi_port_streams_are_identical() {
    let spec = "xor-matched:t=3,s=4".parse().unwrap();
    let planner = Planner::from_spec(&spec).unwrap();
    let mut ties = 0;
    for ports in [2usize, 4] {
        for (q_in, q_out) in [(1usize, 1usize), (2, 1), (4, 2)] {
            let cfg = MemConfig::from_spec(&spec)
                .unwrap()
                .with_queues(q_in, q_out)
                .unwrap()
                .with_ports(ports)
                .unwrap();
            for x in 0..=4u32 {
                let stride = Stride::from_parts(3, x).unwrap();
                let vec = VectorSpec::with_stride(16u64.into(), stride, 256).unwrap();
                let plan = planner.plan(&vec, Strategy::Canonical).unwrap();
                let label = format!("ports={ports} q={q_in} q'={q_out} x={x}");
                let trace = assert_traced_stream_equivalent(cfg, &stream_of(&plan), &label);
                ties += same_cycle_completions(&trace);
            }
            let stream = random_stream(ports as u64, 256, 5);
            let label = format!("ports={ports} q={q_in} q'={q_out} random");
            let trace = assert_traced_stream_equivalent(cfg, &stream, &label);
            ties += same_cycle_completions(&trace);
        }
    }
    assert!(
        ties > 0,
        "no same-cycle completions: the bus tie-break went untested"
    );
}

/// Output back-pressure: with one output slot, modules that finish in
/// the same cycle queue for the bus, and a module whose datum is not
/// granted before its next service ends blocks that completion.
#[test]
fn output_back_pressure_is_identical() {
    let (mut simultaneous, mut deferred) = (0, 0);
    for (m, t, ports, q_in) in [
        (2u32, 1u32, 1usize, 2usize),
        (3, 1, 1, 3),
        (2, 0, 2, 2),
        (3, 0, 2, 3),
        (3, 0, 4, 2),
    ] {
        let cfg = MemConfig::new(m, t)
            .unwrap()
            .with_queues(q_in, 1)
            .unwrap()
            .with_ports(ports)
            .unwrap();
        for seed in 1..=12u64 {
            let stream = random_stream(seed, 96, (1 << m) - 1);
            let label = format!("m={m} t={t} ports={ports} q={q_in} seed={seed}");
            let trace = assert_traced_stream_equivalent(cfg, &stream, &label);
            simultaneous += same_cycle_completions(&trace);
            deferred += deferred_completions(&trace, cfg.t_cycles());
        }
    }
    assert!(
        simultaneous > 0,
        "no two modules finished in the same cycle"
    );
    assert!(
        deferred > 0,
        "no completion was blocked by a full output queue"
    );
}

#[test]
fn pathological_same_module_streams_are_identical() {
    // Everything lands on one module — the queueing regime the event
    // engine collapses to completion events.
    for (m, t) in [(3u32, 3u32), (3, 6), (2, 4)] {
        let cfg = MemConfig::new(m, t).unwrap();
        for len in [1u64, 2, 7, 64] {
            let stream: Vec<(u64, Addr, ModuleId)> = (0..len)
                .map(|i| (i, Addr::new(i << m), ModuleId::new(0)))
                .collect();
            assert_stream_equivalent(cfg, &stream, &format!("one-module m={m} t={t} len={len}"));
        }
        // Two modules, alternating burst lengths.
        let stream: Vec<(u64, Addr, ModuleId)> = (0..96u64)
            .map(|i| (i, Addr::new(i), ModuleId::new(u64::from(i % 13 < 7))))
            .collect();
        assert_stream_equivalent(cfg, &stream, &format!("two-module bursts m={m} t={t}"));
    }
    // Deep queues in front of one module.
    let cfg = MemConfig::new(3, 3).unwrap().with_queues(4, 2).unwrap();
    let stream: Vec<(u64, Addr, ModuleId)> = (0..64u64)
        .map(|i| (i, Addr::new(i * 8), ModuleId::new(0)))
        .collect();
    assert_stream_equivalent(cfg, &stream, "one-module deep queues");
}

#[test]
fn conflict_free_windows_mixed_with_bursts_are_identical() {
    // Alternate conflict-free rotations with bursts to module 0: the
    // stream flips between the regimes the fast path and the event
    // engine each specialise in.
    let cfg = MemConfig::new(3, 3).unwrap();
    let mut stream = Vec::new();
    let mut element = 0u64;
    for chunk in 0..8u64 {
        for i in 0..8u64 {
            let module = if chunk % 2 == 0 { i } else { 0 };
            stream.push((element, Addr::new(element), ModuleId::new(module)));
            element += 1;
        }
    }
    assert_stream_equivalent(cfg, &stream, "cf windows mixed with bursts");
}

#[test]
fn empty_and_single_request_plans_are_identical() {
    let cfg = MemConfig::new(3, 3).unwrap();
    assert_engines_equivalent(cfg, &AccessPlan::new(), "empty plan");
    let stream = [(0u64, Addr::new(5), ModuleId::new(3))];
    assert_stream_equivalent(cfg, &stream, "single request");
}

#[test]
fn event_engine_reports_same_fields_on_worst_case() {
    // Spot-check the actual numbers on the fully serialized stride so
    // a symmetric bug in both engines can't hide behind `assert_eq`.
    let planner = Planner::baseline(Interleaved::new(3).unwrap(), 3);
    let vec = VectorSpec::new(0, 8, 64).unwrap();
    let plan = planner.plan(&vec, Strategy::Canonical).unwrap();
    let stats =
        MemorySystem::new(MemConfig::new(3, 3).unwrap().with_engine(Engine::Event)).run_plan(&plan);
    assert!(stats.latency >= 64 * 8, "latency {}", stats.latency);
    assert!(stats.conflicts > 0);
    assert!(stats.stall_cycles > 0);
    assert_eq!(stats.module_busy[0], 64 * 8);
    assert_eq!(stats.elements, 64);
}

/// The enforced performance claim: on an all-requests-one-module
/// stride (stride = M on low-order interleaving) with a long service
/// time, the event engine must beat the per-cycle loop by at least 2×.
/// The bench twin of this assertion lives in
/// `cfva-bench/benches/engines.rs`.
#[test]
fn event_engine_at_least_2x_faster_on_all_conflicts_stride() {
    // M = 8, T = 64: the cycle engine walks ~L·T ≈ 33k cycles; the
    // event engine processes ~3 cycles per T-cycle service period.
    let planner = Planner::baseline(Interleaved::new(3).unwrap(), 6);
    let vec = VectorSpec::new(0, 8, 512).unwrap();
    let plan = planner.plan(&vec, Strategy::Canonical).unwrap();
    let cfg = MemConfig::new(3, 6).unwrap();

    let mut cycle_sys = MemorySystem::new(cfg);
    let mut event_sys = MemorySystem::new(cfg.with_engine(Engine::Event));
    let mut out = AccessStats::default();

    // Equivalence first — a fast wrong answer doesn't count.
    let reference = cycle_sys.run_plan(&plan);
    assert_eq!(reference, event_sys.run_plan(&plan));

    const ROUNDS: usize = 5;
    const RUNS: usize = 8;
    let time = |sys: &mut MemorySystem, out: &mut AccessStats| {
        (0..ROUNDS)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..RUNS {
                    sys.run_plan_into(std::hint::black_box(&plan), out);
                }
                start.elapsed()
            })
            .min()
            .unwrap()
    };
    let cycle_time = time(&mut cycle_sys, &mut out);
    let event_time = time(&mut event_sys, &mut out);

    let speedup = cycle_time.as_secs_f64() / event_time.as_secs_f64();
    assert!(
        speedup >= 2.0,
        "event engine must be >= 2x faster than the cycle loop on an \
         all-conflicts stride, got {speedup:.2}x (cycle {cycle_time:?}, event {event_time:?})"
    );
}
