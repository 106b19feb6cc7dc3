//! Equivalence suite for the periodic steady-state fast-forward pass:
//! the route (`MemorySystem::run_plan` and `run_requests`: the
//! conflict-free fast path, then the periodic pass) must produce
//! **bit-identical** `AccessStats` to the per-cycle oracle
//! (`run_oracle`, `run_timed`), across
//! **every map in the registry coverage set** (a map registered in
//! `cfva_core::mapping::Registry` is swept here automatically), stride
//! families, queue depths, port counts, pathological same-module
//! streams and the long-vector regime the extrapolation targets — plus
//! the dense regime: long `Strategy::Auto` plans of every registered
//! map, conflicted multi-port streams whose same-cycle issues tie at the
//! bus, and output back-pressure — and the request-order solver that
//! serves single-port streams with no recurrence to detect: raw request
//! streams, which carry no period (aperiodic, periodic, back-pressured
//! and hot-module ones over a grid of memory shapes), and the deepest
//! queues behind one slow module. Random periodic streams run with
//! their period, and so copied past a recurrence, in the unit tests of
//! `src/periodic.rs`.
//! Multi-port runs step the oracle itself; the multi-port inputs pin
//! that routing. The oracle's per-request timings witness that the
//! same-cycle and back-pressured scenarios actually occur.

use cfva_core::mapping::{Interleaved, Registry, XorMatched};
use cfva_core::plan::{AccessPlan, Planner, Strategy};
use cfva_core::{Addr, ModuleId, Stride, VectorSpec};
use cfva_memsim::{MemConfig, MemorySystem, Timing};

/// Runs one plan through the oracle and the route (fresh and reused
/// systems, and into a reused buffer that last held a longer run) and
/// asserts identical statistics.
fn assert_periodic_equivalent(cfg: MemConfig, plan: &AccessPlan, label: &str) {
    let oracle = MemorySystem::new(cfg).run_oracle(plan);

    let mut route = MemorySystem::new(cfg);
    let fresh = route.run_plan(plan);
    assert_eq!(oracle, fresh, "{label}");
    let again = route.run_plan(plan);
    assert_eq!(oracle, again, "{label} (reused system)");

    let mut stale = route.run_requests(&stale_stream(plan.len() + 96));
    route.run_plan_into(plan, &mut stale);
    assert_eq!(oracle, stale, "{label} (reused buffer)");
}

/// A conflicted request stream on modules 0 and 1, to leave a long run
/// in a buffer before a shorter one reuses it.
fn stale_stream(len: u64) -> Vec<(u64, Addr, ModuleId)> {
    (0..len)
        .map(|i| (i, Addr::new(i), ModuleId::new(i % 2)))
        .collect()
}

/// Runs a raw request stream through the oracle and the route, which
/// solves it to the end: it carries no period.
fn assert_stream_equivalent(cfg: MemConfig, stream: &[(u64, Addr, ModuleId)], label: &str) {
    let (oracle, _) = MemorySystem::new(cfg).run_timed(stream);
    let route = MemorySystem::new(cfg).run_requests(stream);
    assert_eq!(oracle, route, "{label}");
}

/// Canonical plans over a spread of families and bases — the conflicted
/// regime the extrapolation exists for — plus the long-vector case
/// (`len = 16·P_x`) where whole periods are actually skipped.
fn sweep_canonical(planner: &Planner, cfg: MemConfig, label: &str) {
    for x in 0..=6u32 {
        for sigma in [1i64, 3, 7] {
            for base in [0u64, 16, 37] {
                let stride = Stride::from_parts(sigma, x).expect("odd sigma");
                let vec = VectorSpec::with_stride(base.into(), stride, 64).expect("valid");
                let plan = planner
                    .plan(&vec, Strategy::Canonical)
                    .expect("canonical always plans");
                assert_periodic_equivalent(
                    cfg,
                    &plan,
                    &format!("{label} x={x} sigma={sigma} base={base}"),
                );
            }
        }
    }
    // Long vectors: many whole periods beyond the transient, and a
    // longer off-period length whose last window is partial.
    for x in [0u32, 2, 4] {
        let stride = Stride::from_parts(3, x).expect("odd sigma");
        let p = planner.map().period(stride.family());
        // Saturating: maps with no finite period (the overridden region
        // map) just get the cap.
        let whole = p.saturating_mul(16).clamp(64, 4096);
        let partial = p.saturating_mul(192).clamp(1024, 16_384) + (p / 3).min(97);
        for len in [whole, partial] {
            let vec = VectorSpec::with_stride(11u64.into(), stride, len).expect("valid");
            let plan = planner
                .plan(&vec, Strategy::Canonical)
                .expect("canonical always plans");
            assert_periodic_equivalent(cfg, &plan, &format!("{label} long x={x} len={len}"));
        }
    }
}

/// Every registered map, canonical order, over the stride/base spread
/// plus the long-vector extrapolation regime: registering a map in the
/// registry opts it into this sweep with no test edits.
#[test]
fn every_registered_map_is_identical() {
    for spec in Registry::builtin().all_specs() {
        let planner = Planner::from_spec(&spec).expect("coverage specs are buildable");
        let cfg = MemConfig::from_spec(&spec).expect("coverage specs fit the simulator");
        sweep_canonical(&planner, cfg, &spec.to_string());
    }
}

/// Extra skew parameterizations the coverage spec does not reach.
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
            assert_periodic_equivalent(cfg, &plan, &format!("xor-matched {strategy} x={x}"));
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
        assert_periodic_equivalent(cfg, &plan, &format!("xor-unmatched cf x={x}"));
    }
}

#[test]
fn queue_depths_and_ports_are_identical() {
    let planner = Planner::matched(XorMatched::new(3, 4).unwrap());
    for (q_in, q_out) in [(1usize, 1usize), (2, 1), (1, 2), (4, 4), (8, 2)] {
        let cfg = MemConfig::new(3, 3)
            .unwrap()
            .with_queues(q_in, q_out)
            .unwrap();
        for len in [128u64, 512, 4096] {
            let vec = VectorSpec::new(16, 12, len).unwrap();
            for strategy in [Strategy::Canonical, Strategy::Subsequence] {
                let plan = planner.plan(&vec, strategy).unwrap();
                let label = format!("q={q_in} q'={q_out} {strategy} len={len}");
                assert_periodic_equivalent(cfg, &plan, &label);
            }
        }
    }
    // Aperiodic conflicted streams on one port: no recurrence to
    // detect, so these run on the request-order solver.
    let spec = "xor-matched:t=3,s=4".parse().unwrap();
    for (q_in, q_out) in [(1usize, 1usize), (2, 1), (4, 2)] {
        let cfg = MemConfig::from_spec(&spec)
            .unwrap()
            .with_queues(q_in, q_out)
            .unwrap();
        for seed in 1..=4u64 {
            let stream = random_stream(seed, 256, 5);
            let label = format!("q={q_in} q'={q_out} random seed={seed}");
            assert_timed_stream_equivalent(cfg, &stream, &label);
        }
    }
    // Multi-port memories: boundary detection is request-anchored and
    // the solver models one port, so the route runs these on
    // the oracle.
    let wide = Planner::baseline(Interleaved::new(6).unwrap(), 3);
    let plan = wide
        .plan(&VectorSpec::new(0, 1, 128).unwrap(), Strategy::Canonical)
        .unwrap();
    for ports in [1usize, 2, 4] {
        let cfg = MemConfig::new(6, 3).unwrap().with_ports(ports).unwrap();
        assert_periodic_equivalent(cfg, &plan, &format!("ports={ports}"));
    }
}

/// The request stream of a plan of `vec`, in issue order.
fn stream_of(vec: &VectorSpec, plan: &AccessPlan) -> Vec<(u64, Addr, ModuleId)> {
    plan.iter()
        .map(|e| (e.element(), vec.element_addr(e.element()), e.module()))
        .collect()
}

/// One timed oracle run against a periodic run: statistics must be
/// equal. Returns the oracle's per-request timings so callers can
/// check their scenario actually occurred.
fn assert_timed_stream_equivalent(
    cfg: MemConfig,
    stream: &[(u64, Addr, ModuleId)],
    label: &str,
) -> Vec<Timing> {
    let (expected, timings) = MemorySystem::new(cfg).run_timed(stream);
    let untraced = MemorySystem::new(cfg).run_requests(stream);
    assert_eq!(expected, untraced, "{label} (untraced)");
    timings
}

/// Completions that share their cycle with an earlier one: two or more
/// modules completing a service together.
fn same_cycle_completions(timings: &[Timing]) -> usize {
    let mut cycles: Vec<u64> = timings.iter().map(|r| r.done).collect();
    cycles.sort_unstable();
    let total = cycles.len();
    cycles.dedup();
    total - cycles.len()
}

/// Completions deferred past their service time by a full output
/// queue.
fn deferred_completions(timings: &[Timing], t: u64) -> usize {
    timings.iter().filter(|r| r.done > r.start + t).count()
}

/// A deterministic pseudo-random stream over modules `0..width`
/// (xorshift64) — aperiodic, so the periodic engine never detects a
/// recurrence in it.
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

/// A deterministic pseudo-random module pattern of length `period`
/// over modules `0..width` (xorshift64), repeated to `len` requests.
fn periodic_random_stream(
    seed: u64,
    period: u64,
    len: u64,
    width: u64,
) -> Vec<(u64, Addr, ModuleId)> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let pattern: Vec<u64> = (0..period)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % width
        })
        .collect();
    (0..len)
        .map(|i| {
            let module = pattern[(i % period) as usize];
            (i, Addr::new(i), ModuleId::new(module))
        })
        .collect()
}

/// The dense regime: long `Auto` plans of every registered map, across
/// stride families.
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
                assert_timed_stream_equivalent(
                    cfg,
                    &stream_of(&vec, &plan),
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
/// the tie by module. Multi-port runs take no boundaries, so these step
/// the oracle.
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
                let timings = assert_timed_stream_equivalent(cfg, &stream_of(&vec, &plan), &label);
                ties += same_cycle_completions(&timings);
            }
            let stream = random_stream(ports as u64, 256, 5);
            let label = format!("ports={ports} q={q_in} q'={q_out} random");
            let timings = assert_timed_stream_equivalent(cfg, &stream, &label);
            ties += same_cycle_completions(&timings);
        }
    }
    assert!(
        ties > 0,
        "no same-cycle completions: the bus tie-break went untested"
    );
}

/// Output back-pressure on periodic streams: with one output slot,
/// modules that finish in the same cycle queue for the bus and some
/// completions block, which the solver must time exactly. The
/// multi-port shapes step the oracle.
#[test]
fn output_back_pressure_is_identical() {
    let (mut simultaneous, mut deferred, mut aperiodic_deferred) = (0, 0, 0);
    for (m, t, ports, q_in) in [
        (2u32, 1u32, 1usize, 2usize),
        (3, 1, 1, 3),
        (2, 1, 1, 3),
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
            for period in [5u64, 12] {
                let stream = periodic_random_stream(seed, period, 480, (1 << m) - 1);
                let label =
                    format!("m={m} t={t} ports={ports} q={q_in} seed={seed} period={period}");
                let timings = assert_timed_stream_equivalent(cfg, &stream, &label);
                simultaneous += same_cycle_completions(&timings);
                deferred += deferred_completions(&timings, cfg.t_cycles());
            }
            // Aperiodic streams: on one port solved in request order,
            // blocked completions included.
            let stream = random_stream(seed, 96, (1 << m) - 1);
            let label = format!("m={m} t={t} ports={ports} q={q_in} seed={seed} aperiodic");
            let timings = assert_timed_stream_equivalent(cfg, &stream, &label);
            aperiodic_deferred += deferred_completions(&timings, cfg.t_cycles());
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
    assert!(
        aperiodic_deferred > 0,
        "no aperiodic completion was blocked by a full output queue"
    );
}

/// Element ids are a permutation of `0..n` by contract; a stream that
/// repeats ids still matches the oracle (a repeated id keeps its last
/// delivery).
#[test]
fn repeated_element_ids_match_the_oracle() {
    let cfg = MemConfig::new(3, 3).unwrap();
    let stream: Vec<(u64, Addr, ModuleId)> = (0..512u64)
        .map(|i| (i % 100, Addr::new(i), ModuleId::new(i % 3)))
        .collect();
    assert_stream_equivalent(cfg, &stream, "repeated element ids");
    // The same on an aperiodic stream, which is solved in request
    // order: a repeated id keeps its last delivery.
    let stream: Vec<(u64, Addr, ModuleId)> = random_stream(7, 512, 3)
        .into_iter()
        .map(|(i, addr, module)| (i % 100, addr, module))
        .collect();
    assert_stream_equivalent(cfg, &stream, "repeated element ids, aperiodic");
}

#[test]
fn pathological_same_module_streams_are_identical() {
    // Everything lands on one module: period 1, steady state after the
    // queue fills.
    for (m, t) in [(3u32, 3u32), (3, 6), (2, 4)] {
        let cfg = MemConfig::new(m, t).unwrap();
        for len in [1u64, 2, 7, 64, 1024] {
            let stream: Vec<(u64, Addr, ModuleId)> = (0..len)
                .map(|i| (i, Addr::new(i << m), ModuleId::new(0)))
                .collect();
            assert_stream_equivalent(cfg, &stream, &format!("one-module m={m} t={t} len={len}"));
        }
        // The same stride as a plan, which carries `P = 1`: a long one
        // is copied past the recurrence.
        let planner = Planner::baseline(Interleaved::new(m).unwrap(), t);
        let plan = planner
            .plan(
                &VectorSpec::new(0, 1 << m, 8192).unwrap(),
                Strategy::Canonical,
            )
            .unwrap();
        assert_eq!(plan.period(), Some(1), "m={m} t={t}");
        assert_periodic_equivalent(cfg, &plan, &format!("one-module plan m={m} t={t}"));
        // Two modules, alternating burst lengths (period 13).
        for len in [96u64, 512] {
            let stream: Vec<(u64, Addr, ModuleId)> = (0..len)
                .map(|i| (i, Addr::new(i), ModuleId::new(u64::from(i % 13 < 7))))
                .collect();
            let label = format!("two-module bursts m={m} t={t} len={len}");
            assert_stream_equivalent(cfg, &stream, &label);
        }
    }
    // Conflict-free rotations alternating with bursts to module 0: the
    // stream flips between the fast path's regime and the queueing one.
    let cfg = MemConfig::new(3, 3).unwrap();
    let stream: Vec<(u64, Addr, ModuleId)> = (0..64u64)
        .map(|i| {
            let module = if (i / 8) % 2 == 0 { i % 8 } else { 0 };
            (i, Addr::new(i), ModuleId::new(module))
        })
        .collect();
    assert_stream_equivalent(cfg, &stream, "cf windows mixed with bursts");
    // Spot-check the fields on the fully serialized stride (stride 8 on
    // low-order interleaving), so a bug shared with the oracle cannot
    // hide behind `assert_eq`.
    let planner = Planner::baseline(Interleaved::new(3).unwrap(), 3);
    let plan = planner
        .plan(&VectorSpec::new(0, 8, 64).unwrap(), Strategy::Canonical)
        .unwrap();
    let stats = MemorySystem::new(cfg).run_plan(&plan);
    assert!(stats.latency >= 64 * 8, "latency {}", stats.latency);
    assert!(stats.conflicts > 0);
    assert!(stats.stall_cycles > 0);
    assert_eq!(stats.module_busy[0], 64 * 8);
    assert_eq!(stats.elements, 64);
    // Deep queues in front of one module.
    let cfg = MemConfig::new(3, 3).unwrap().with_queues(4, 2).unwrap();
    let stream: Vec<(u64, Addr, ModuleId)> = (0..512u64)
        .map(|i| (i, Addr::new(i * 8), ModuleId::new(0)))
        .collect();
    assert_stream_equivalent(cfg, &stream, "one-module deep queues");
    // The widest bus-slot range a legal stream reaches: the deepest
    // queues behind one slow module, 8192 requests. One request to the
    // other module at either end makes the stream aperiodic, so it is
    // solved in request order rather than extrapolated.
    let cfg = MemConfig::new(1, 6).unwrap().with_queues(8, 8).unwrap();
    for odd in [0u64, 8191] {
        let stream: Vec<(u64, Addr, ModuleId)> = (0..8192u64)
            .map(|i| (i, Addr::new(i * 2), ModuleId::new(u64::from(i == odd))))
            .collect();
        assert_stream_equivalent(cfg, &stream, &format!("deepest one-module odd={odd}"));
    }
}

#[test]
fn aperiodic_and_tiny_streams_are_identical() {
    let cfg = MemConfig::new(3, 3).unwrap();
    assert_periodic_equivalent(cfg, &AccessPlan::new(), "empty plan");
    let stream = [(0u64, Addr::new(5), ModuleId::new(3))];
    assert_stream_equivalent(cfg, &stream, "single request");
    // An aperiodic module sequence: detection never starts, and the run
    // is solved in request order.
    for len in [64u64, 256] {
        let stream: Vec<(u64, Addr, ModuleId)> = (0..len)
            .map(|i| (i, Addr::new(i), ModuleId::new((i * i + i / 3) % 8)))
            .collect();
        assert_stream_equivalent(cfg, &stream, &format!("aperiodic stream len={len}"));
    }
    // Periodic but with a one-off perturbation: the module sequence's
    // minimal period degenerates to ~n, so no extrapolation applies.
    let stream: Vec<(u64, Addr, ModuleId)> = (0..96u64)
        .map(|i| {
            let m = if i == 61 { 5 } else { i % 4 };
            (i, Addr::new(i), ModuleId::new(m))
        })
        .collect();
    assert_stream_equivalent(cfg, &stream, "perturbed periodic stream");

    // Random streams over a grid of memory shapes, solved in request
    // order by a reused system: uniform module choices, and streams
    // biased towards one hot module so input queues fill, the
    // processor stalls and output queues back up.
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for m in [1u32, 2, 3] {
        for t in 0..=3u32 {
            for (q_in, q_out) in [(1usize, 1usize), (2, 1), (1, 2), (4, 2), (3, 3)] {
                let cfg = MemConfig::new(m, t)
                    .unwrap()
                    .with_queues(q_in, q_out)
                    .unwrap();
                let mut route = MemorySystem::new(cfg);
                for trial in 0..12 {
                    let len = next() % 160 + 1;
                    let hot = trial % 2 == 1;
                    let stream: Vec<(u64, Addr, ModuleId)> = (0..len)
                        .map(|i| {
                            let r = next();
                            let module = if hot && r % 3 != 0 {
                                0
                            } else {
                                (r >> 8) % (1 << m)
                            };
                            (i, Addr::new(i), ModuleId::new(module))
                        })
                        .collect();
                    let label = format!("m={m} t={t} q={q_in} q'={q_out} trial={trial}");
                    let (oracle, _) = MemorySystem::new(cfg).run_timed(&stream);
                    assert_eq!(oracle, route.run_requests(&stream), "{label}");
                }
            }
        }
    }
}

#[test]
fn non_pow2_lengths_leave_a_tail_to_simulate() {
    // Lengths that are not multiples of the period end in a partial
    // window: only the first requests of the copied window recur, and
    // their stalls, conflicts and busy time count once more than the
    // rest.
    let planner = Planner::baseline(Interleaved::new(3).unwrap(), 3);
    let cfg = MemConfig::new(3, 3).unwrap();
    for len in [65u64, 100, 250, 1000, 1023] {
        for stride in [2i64, 4, 8] {
            let vec = VectorSpec::new(5, stride, len).unwrap();
            let plan = planner.plan(&vec, Strategy::Canonical).unwrap();
            assert_periodic_equivalent(cfg, &plan, &format!("tail len={len} stride={stride}"));
        }
    }
}

/// Region vectors that cross into the override carry the map's
/// family-wide bound as their period, far above the minimal one: a
/// loose period only leaves the stream solved to the end, and every
/// run still equals the oracle.
#[test]
fn loose_region_periods_match_the_oracle() {
    let spec = "region:t=3,bits=10,s=3,regions=1:6".parse().unwrap();
    let planner = Planner::from_spec(&spec).unwrap();
    let cfg = MemConfig::from_spec(&spec).unwrap();
    for x in 0..=10u32 {
        for base in [0u64, 1000, 1024] {
            for len in [1024u64, 3000] {
                let stride = Stride::from_parts(1, x).expect("odd sigma");
                let vec = VectorSpec::with_stride(base.into(), stride, len).expect("valid");
                let plan = planner.plan(&vec, Strategy::Canonical).unwrap();
                assert_periodic_equivalent(cfg, &plan, &format!("{vec}"));
            }
        }
    }
}
