//! Multi-stream engine properties across **every registered map** (the
//! registry coverage set, so new maps are covered on registration):
//!
//! * the route (`run_multi`: request-order solver records) is
//!   bit-identical to the cycle oracle (`run_multi_oracle`) for both
//!   static issue policies;
//! * per-stream statistics of conflict-free co-scheduled batches, on
//!   the oracle, are permutation-invariant: reordering the streams permutes the
//!   per-stream views (up to the deterministic issue-slot shift of the
//!   arrivals) and changes nothing else.

use cfva::core::mapping::Registry;
use cfva::core::plan::{AccessPlan, Planner, Strategy};
use cfva::memsim::multi::{run_multi, run_multi_oracle, IssuePolicy, MultiStats};
use cfva::memsim::{MemConfig, MemorySystem};
use cfva::{Stride, VectorSpec};
use proptest::prelude::*;

fn registry_len() -> usize {
    Registry::builtin().all_specs().len()
}

fn planner_for(kind: usize) -> (Planner, MemConfig) {
    let specs = Registry::builtin().all_specs();
    let spec = &specs[kind % specs.len()];
    (
        Planner::from_spec(spec).expect("coverage specs are buildable"),
        MemConfig::from_spec(spec).expect("coverage specs fit the simulator"),
    )
}

/// A small stream menu per map: spread strides, a conflicted family,
/// uneven lengths.
fn stream_menu(planner: &Planner) -> Vec<AccessPlan> {
    let mut plans = Vec::new();
    for (base, sigma, x, len) in [
        (0u64, 1i64, 0u32, 96u64),
        (17, 3, 0, 96),
        (5, 1, 2, 64),
        (1 << 9, 5, 1, 48),
    ] {
        let Ok(stride) = Stride::from_parts(sigma, x) else {
            continue;
        };
        let Ok(vec) = VectorSpec::with_stride(base.into(), stride, len) else {
            continue;
        };
        if let Ok(plan) = planner.plan(&vec, Strategy::Auto) {
            plans.push(plan);
        }
    }
    plans
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Route ≡ cycle oracle, bit for bit, for every registered map,
    /// both static policies, any stream subset.
    #[test]
    fn multi_stream_fast_path_bit_identical_to_cycle_oracle(
        kind in 0usize..64,
        mask in 1usize..15,
        policy_ix in 0usize..2,
    ) {
        let kind = kind % registry_len();
        let (planner, cfg) = planner_for(kind);
        let menu = stream_menu(&planner);
        let plans: Vec<&AccessPlan> = menu
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, p)| p)
            .collect();
        prop_assume!(!plans.is_empty());
        let policy = [IssuePolicy::RoundRobin, IssuePolicy::Priority][policy_ix];
        let oracle = run_multi_oracle(cfg, &plans, policy).expect("validated plans");
        let fast = run_multi(cfg, &plans, policy).expect("validated plans");
        prop_assert_eq!(&oracle, &fast, "map {} policy {}", kind, policy);
        // The totals are the per-stream sums under both paths.
        prop_assert_eq!(
            oracle.conflicts,
            oracle.streams.iter().map(|s| s.conflicts).sum::<u64>()
        );
        prop_assert_eq!(
            oracle.stall_cycles,
            oracle.streams.iter().map(|s| s.stall_cycles).sum::<u64>()
        );
    }

    /// Work-conserving runs are deterministic and account the same
    /// element counts as the static policies.
    #[test]
    fn work_conserving_is_deterministic_and_complete(
        kind in 0usize..64,
        mask in 1usize..15,
    ) {
        let kind = kind % registry_len();
        let (planner, cfg) = planner_for(kind);
        let menu = stream_menu(&planner);
        let plans: Vec<&AccessPlan> = menu
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, p)| p)
            .collect();
        prop_assume!(!plans.is_empty());
        let a = run_multi(cfg, &plans, IssuePolicy::WorkConserving).expect("validated");
        let b = run_multi(cfg, &plans, IssuePolicy::WorkConserving).expect("validated");
        prop_assert_eq!(&a, &b);
        for (stream, plan) in a.streams.iter().zip(&plans) {
            prop_assert_eq!(stream.elements, plan.len());
            prop_assert!(stream.arrival.iter().all(|&c| c > 0) || plan.is_empty());
        }
    }

    /// Permutation invariance of conflict-free co-scheduled batches:
    /// for equal-length streams whose round-robin co-run is conflict
    /// free, each stream's latency/spread/conflict/stall statistics do
    /// not depend on its position in the batch, and its arrivals shift
    /// by exactly its issue-slot offset.
    ///
    /// The batch is the canonical conflict-free co-schedule: `T`
    /// clustered streams (stride `2^u`, each pinned to a distinct
    /// module), so the round-robin rotation gives every module exactly
    /// `T` cycles between accesses. Each stream conflicts heavily
    /// *alone* — only the co-schedule is conflict free, which is
    /// precisely the scheduler's value proposition.
    #[test]
    fn conflict_free_coscheduled_stats_are_permutation_invariant(
        kind in 0usize..64,
        rotation in 1usize..8,
    ) {
        let kind = kind % registry_len();
        let specs = Registry::builtin().all_specs();
        let spec = &specs[kind];
        let registry = Registry::builtin();
        let map = registry.build(spec).expect("coverage specs build");
        let used = map.address_bits_used();
        prop_assume!(used <= 45); // Region saturates `used`; stride 2^64 unrepresentable
        let (planner, cfg) = planner_for(kind);
        let t_cycles = planner.t_cycles();
        prop_assume!(t_cycles <= 16);
        let rotation = rotation % t_cycles.max(2) as usize;
        prop_assume!(rotation > 0);
        // One stream per distinct module among small bases; need T of
        // them so the rotation spaces each module by exactly T cycles.
        let stride = Stride::from_parts(1, used).expect("used <= 45");
        let mut menu = Vec::new();
        let mut seen_modules = Vec::new();
        for base in 0u64..64 {
            if menu.len() as u64 == t_cycles {
                break;
            }
            let module = map.module_of(base.into());
            if seen_modules.contains(&module) {
                continue;
            }
            let Ok(vec) = VectorSpec::with_stride(base.into(), stride, 32) else { continue };
            if let Ok(plan) = planner.plan(&vec, Strategy::Auto) {
                seen_modules.push(module);
                menu.push(plan);
            }
        }
        prop_assume!(menu.len() as u64 == t_cycles);
        let plans: Vec<&AccessPlan> = menu.iter().collect();
        let baseline = run_multi_oracle(cfg, &plans, IssuePolicy::RoundRobin).expect("validated");
        prop_assert_eq!(baseline.conflicts, 0, "disjoint clustered batch is CF");
        prop_assert_eq!(baseline.stall_cycles, 0);

        let rotated: Vec<&AccessPlan> = (0..plans.len())
            .map(|i| plans[(i + rotation) % plans.len()])
            .collect();
        let permuted =
            run_multi_oracle(cfg, &rotated, IssuePolicy::RoundRobin).expect("validated");
        prop_assert_eq!(permuted.conflicts, 0);
        prop_assert_eq!(permuted.stall_cycles, 0);
        prop_assert_eq!(permuted.makespan, baseline.makespan);
        for (new_pos, stream) in permuted.streams.iter().enumerate() {
            let old_pos = (new_pos + rotation) % plans.len();
            let original = &baseline.streams[old_pos];
            prop_assert_eq!(stream.elements, original.elements);
            prop_assert_eq!(stream.latency, original.latency, "latency is position-free");
            prop_assert_eq!(stream.spread, original.spread, "spread is position-free");
            prop_assert_eq!(stream.conflicts, original.conflicts);
            prop_assert_eq!(stream.stall_cycles, original.stall_cycles);
            // Arrivals shift by the issue-slot delta, nothing else.
            let shift = new_pos as i64 - old_pos as i64;
            for (a, b) in stream.arrival.iter().zip(&original.arrival) {
                prop_assert_eq!(*a as i64 - *b as i64, shift);
            }
        }
    }
}

/// Deterministic anchor on the analyzable low-order map (`m = 3`,
/// matched `T = 8`): stride-2 streams from bases 0 and 1 own the even
/// and odd modules respectively. Each conflicts alone (same module
/// every 4 cycles, `T = 8`); interleaved, each module sees exactly
/// `T`-cycle spacing — the co-schedule is conflict free and beats the
/// sum of the solo runs. The reverse pair (bases 0 and 2, both on the
/// even modules) keeps conflicting, which is exactly the contrast the
/// conflict predictor scores.
#[test]
fn module_disjoint_pair_co_runs_conflict_free_on_the_low_order_map() {
    let specs = Registry::builtin().all_specs();
    let spec = specs
        .iter()
        .find(|s| format!("{s}").starts_with("interleaved"))
        .expect("interleaved is builtin");
    let planner = Planner::from_spec(spec).expect("buildable");
    let cfg = MemConfig::from_spec(spec).expect("buildable");
    let plan = |base: u64| {
        planner
            .plan(&VectorSpec::new(base, 2, 64).unwrap(), Strategy::Auto)
            .unwrap()
    };
    let (even, odd, even2) = (plan(0), plan(1), plan(2));

    let disjoint =
        run_multi_oracle(cfg, &[&even, &odd], IssuePolicy::RoundRobin).expect("validated");
    assert_eq!(disjoint.conflicts, 0, "disjoint module sets co-run CF");
    assert_eq!(disjoint.stall_cycles, 0);

    let shared =
        run_multi_oracle(cfg, &[&even, &even2], IssuePolicy::RoundRobin).expect("validated");
    assert!(shared.conflicts > 0, "shared module sets keep conflicting");

    // The CF co-schedule beats running the two streams back to back.
    let solo: Vec<u64> = [&even, &odd]
        .iter()
        .map(|p| MemorySystem::new(cfg).run_oracle(p).latency)
        .collect();
    assert!(disjoint.makespan < MultiStats::sequential_baseline(&solo));
}

/// FNV-1a over a run's numbers, in a fixed order.
fn fold(digest: &mut u64, values: impl IntoIterator<Item = u64>) {
    for value in values {
        for byte in value.to_le_bytes() {
            *digest ^= u64::from(byte);
            *digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn fold_multi(digest: &mut u64, multi: &MultiStats) {
    fold(
        digest,
        [multi.makespan, multi.conflicts, multi.stall_cycles],
    );
    for s in &multi.streams {
        fold(
            digest,
            [
                s.elements,
                s.first_issue,
                s.latency,
                s.spread,
                s.conflicts,
                s.stall_cycles,
            ],
        );
        fold(digest, s.arrival.iter().copied());
    }
}

/// Pinned digests of every co-run and 2-port solo run, per registered
/// map in registration order: each subset of the stream menu under all
/// three issue policies, on 1 and 2 ports, with queues (1,1), (2,1) and
/// (1,2), then each menu plan alone through `run_oracle` on 2 ports, all
/// on the oracle by name. The constants pin the oracle's co-run
/// semantics (including work-conserving issue and multi-port grants),
/// which the route also steps for those runs, so no other path is
/// compared against them.
#[test]
fn co_run_and_multi_port_digests_are_pinned() {
    const PINNED: &[u64] = &[
        0x8020_f7aa_7291_0ab0,
        0xed01_cab6_ac0a_e63f,
        0x1417_89a5_ec9c_6278,
        0x3984_fd9f_2e44_d89f,
        0x45e7_250b_ddaf_69bb,
        0x012b_24f6_5e8d_c0ed,
        0xfb49_be1b_09ee_7635,
        0xfb49_be1b_09ee_7635,
    ];
    let mut digests = Vec::new();
    for spec in Registry::builtin().all_specs() {
        let planner = Planner::from_spec(&spec).expect("coverage specs are buildable");
        let base = MemConfig::from_spec(&spec).expect("coverage specs fit the simulator");
        let menu = stream_menu(&planner);
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        for ports in [1usize, 2] {
            for (q_in, q_out) in [(1usize, 1usize), (2, 1), (1, 2)] {
                let cfg = base
                    .with_queues(q_in, q_out)
                    .and_then(|c| c.with_ports(ports))
                    .expect("valid shape");
                for mask in 1usize..1 << menu.len() {
                    let plans: Vec<&AccessPlan> = menu
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| mask & (1 << i) != 0)
                        .map(|(_, p)| p)
                        .collect();
                    for policy in [
                        IssuePolicy::RoundRobin,
                        IssuePolicy::Priority,
                        IssuePolicy::WorkConserving,
                    ] {
                        let multi = run_multi_oracle(cfg, &plans, policy).expect("validated plans");
                        fold_multi(&mut digest, &multi);
                    }
                }
                if ports == 2 {
                    for plan in &menu {
                        let stats = MemorySystem::new(cfg).run_oracle(plan);
                        fold(
                            &mut digest,
                            [
                                stats.latency,
                                stats.elements,
                                stats.stall_cycles,
                                stats.conflicts,
                                stats.max_in_q as u64,
                            ],
                        );
                        fold(&mut digest, stats.arrival.iter().copied());
                        fold(&mut digest, stats.module_busy.iter().copied());
                    }
                }
            }
        }
        digests.push(digest);
    }
    assert_eq!(digests, PINNED);
}

/// A one-stream work-conserving co-run is the in-order oracle run of
/// that stream.
#[test]
fn one_stream_work_conserving_equals_run_plan() {
    for spec in Registry::builtin().all_specs() {
        let planner = Planner::from_spec(&spec).expect("coverage specs are buildable");
        let base = MemConfig::from_spec(&spec).expect("coverage specs fit the simulator");
        for (q_in, q_out) in [(1usize, 1usize), (2, 1), (1, 2)] {
            for ports in [1usize, 2] {
                let cfg = base
                    .with_queues(q_in, q_out)
                    .and_then(|c| c.with_ports(ports))
                    .expect("valid shape");
                for plan in stream_menu(&planner) {
                    let label = format!("{spec} q={q_in} q'={q_out} ports={ports}");
                    let solo = MemorySystem::new(cfg).run_plan(&plan);
                    let multi = run_multi(cfg, &[&plan], IssuePolicy::WorkConserving)
                        .expect("validated plans");
                    let stream = &multi.streams[0];
                    assert_eq!(multi.makespan, solo.latency, "{label}");
                    assert_eq!(stream.latency, solo.latency, "{label}");
                    assert_eq!(stream.first_issue, 0, "{label}");
                    assert_eq!(stream.arrival, solo.arrival, "{label}");
                    assert_eq!(stream.conflicts, solo.conflicts, "{label}");
                    assert_eq!(multi.conflicts, solo.conflicts, "{label}");
                    assert_eq!(stream.stall_cycles, solo.stall_cycles, "{label}");
                    assert_eq!(multi.stall_cycles, solo.stall_cycles, "{label}");
                }
            }
        }
    }
}
