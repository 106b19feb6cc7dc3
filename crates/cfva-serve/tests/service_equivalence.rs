//! The serving determinism contract: a response from the pooled
//! service is **bit-identical** to the same computation on a fresh
//! serial [`BatchRunner`] — whichever worker served it, however warm
//! its session cache, and whatever else was in flight.

use cfva_core::mapping::Registry;
use cfva_core::plan::Strategy;
use cfva_core::{Stride, VectorSpec};
use cfva_memsim::IssuePolicy;
use cfva_serve::api::{Estimator, Request, Response, SchedulePlan, ServeError};
use cfva_serve::fault::FaultPlan;
use cfva_serve::runner::BatchRunner;
use cfva_serve::service::{Service, ServiceConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Every registered coverage spec, as owned strings.
fn all_specs() -> Vec<String> {
    Registry::builtin()
        .all_specs()
        .iter()
        .map(|s| s.to_string())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Pooled `Measure` == fresh serial `BatchRunner::measure_owned`,
    /// for random registered specs, strides and strategies.
    #[test]
    fn pooled_measure_bit_identical_to_fresh_serial_session(
        kind in 0usize..64,
        sigma_idx in 0i64..8,
        x in 0u32..8,
        base in 0u64..1_000_000,
        len_pow in 3u32..9,
        strategy_idx in 0usize..2,
    ) {
        let specs = all_specs();
        let spec = &specs[kind % specs.len()];
        let sigma = 2 * sigma_idx + 1;
        let stride = Stride::from_parts(sigma, x).expect("odd sigma");
        let vec = VectorSpec::with_stride(base.into(), stride, 1 << len_pow)
            .expect("bounded base");
        let strategy = [Strategy::Auto, Strategy::Canonical][strategy_idx];

        // Three workers and a shared warm service would also work, but
        // a per-case service additionally covers cold session builds
        // on whichever worker pops the request.
        let service = Service::new(ServiceConfig::with_workers(3));
        let ticket = service
            .submit(Request::Measure {
                spec: spec.clone(),
                vec,
                strategy,
            })
            .expect("queue has room");
        let pooled = match ticket.wait() {
            Ok(Response::Measured(stats)) => stats,
            other => panic!("unexpected response {other:?}"),
        };
        service.shutdown();

        let serial = BatchRunner::from_spec_str(spec)
            .expect("registered specs build")
            .measure_owned(&vec, strategy);
        prop_assert_eq!(pooled, serial, "{}: {} {}", spec, vec, strategy);
    }
}

#[test]
fn warm_sessions_stay_bit_identical_across_many_requests() {
    // One service, many requests per spec: later requests hit cached
    // sessions whose scratch buffers served other strides in between —
    // reuse must not leak state into results.
    let specs = all_specs();
    let service = Service::new(ServiceConfig::with_workers(2).queue_capacity(1024));
    let mut rng = StdRng::seed_from_u64(1992);

    let mut cases = Vec::new();
    for round in 0..6 {
        for spec in &specs {
            let sigma = 2 * rng.gen_range(0i64..8) + 1;
            let x = rng.gen_range(0u32..7);
            let stride = Stride::from_parts(sigma, x).expect("odd sigma");
            let vec = VectorSpec::with_stride(
                rng.gen_range(0u64..1 << 20).into(),
                stride,
                64 << (round % 3),
            )
            .expect("bounded base");
            let ticket = service
                .submit(Request::Measure {
                    spec: spec.clone(),
                    vec,
                    strategy: Strategy::Auto,
                })
                .expect("queue has room");
            cases.push((spec.clone(), vec, ticket));
        }
    }

    let mut serial_sessions: std::collections::HashMap<String, BatchRunner> = specs
        .iter()
        .map(|s| (s.clone(), BatchRunner::from_spec_str(s).expect("builds")))
        .collect();
    for (spec, vec, ticket) in cases {
        let pooled = match ticket.wait() {
            Ok(Response::Measured(stats)) => stats,
            other => panic!("unexpected response {other:?}"),
        };
        let serial = serial_sessions
            .get_mut(&spec)
            .expect("session exists")
            .measure_owned(&vec, Strategy::Auto);
        assert_eq!(pooled, serial, "{spec}: {vec}");
    }
    service.shutdown();
}

#[test]
fn batch_and_sweep_and_efficiency_match_direct_session_calls() {
    let spec = "xor-matched:t=3,s=4";
    let service = Service::new(ServiceConfig::with_workers(2));
    let mut direct = BatchRunner::from_spec_str(spec).expect("builds");

    // MeasureBatch == measure_batch.
    let accesses: Vec<(VectorSpec, Strategy)> = [(16u64, 12i64), (0, 16), (7, 96), (3, 160)]
        .into_iter()
        .map(|(base, stride)| {
            (
                VectorSpec::new(base, stride, 128).expect("valid"),
                Strategy::Auto,
            )
        })
        .collect();
    let ticket = service
        .submit(Request::MeasureBatch {
            spec: spec.into(),
            accesses: accesses.clone(),
        })
        .expect("room");
    assert_eq!(
        ticket.wait(),
        Ok(Response::Batch(direct.measure_batch(&accesses)))
    );

    // FamilySweep rows == per-family direct measurements.
    let ticket = service
        .submit(Request::FamilySweep {
            spec: spec.into(),
            len: 64,
            max_x: 5,
            sigma: 3,
        })
        .expect("room");
    let rows = match ticket.wait() {
        Ok(Response::FamilySweep(rows)) => rows,
        other => panic!("unexpected response {other:?}"),
    };
    assert_eq!(rows.len(), 6);
    for (x, row) in rows.iter().enumerate() {
        let stride = Stride::from_parts(3, x as u32).expect("odd");
        let vec = VectorSpec::with_stride(16u64.into(), stride, 64).expect("valid");
        let stats = direct
            .measure_owned(&vec, Strategy::Auto)
            .expect("auto plans");
        assert_eq!(row.x, x as u32);
        assert_eq!(row.stride, stride.get());
        assert_eq!(row.latency, stats.latency);
        assert_eq!(row.conflicts, stats.conflicts);
        assert_eq!(row.stall_cycles, stats.stall_cycles);
        assert_eq!(row.cycles_per_element, direct.cycles_per_element(&stats));
    }

    // Efficiency == the session estimator with the same seed.
    for (estimator, expected) in [
        (
            Estimator::Stratified {
                max_x: 6,
                per_family: 3,
            },
            direct.stratified_efficiency(Strategy::Auto, 64, 6, 3, &mut StdRng::seed_from_u64(7)),
        ),
        (
            Estimator::MonteCarlo {
                samples: 50,
                max_x: 8,
                max_sigma: 9,
            },
            direct.simulated_efficiency(
                Strategy::Auto,
                64,
                50,
                &cfva_serve::workload::StrideSampler::new(8, 9),
                &mut StdRng::seed_from_u64(7),
            ),
        ),
    ] {
        let ticket = service
            .submit(Request::Efficiency {
                spec: spec.into(),
                strategy: Strategy::Auto,
                len: 64,
                estimator,
                seed: 7,
            })
            .expect("room");
        let eta = match ticket.wait() {
            Ok(Response::Efficiency(eta)) => eta,
            other => panic!("unexpected response {other:?}"),
        };
        assert_eq!(eta.to_bits(), expected.to_bits(), "{estimator:?}");
    }
    service.shutdown();
}

#[test]
fn overloaded_burst_rejects_typed_and_every_accepted_ticket_resolves() {
    // One worker wedged by a held job, a queue of two, and a burst:
    // exactly two submissions fit behind the wedge, every other one
    // comes back Overloaded (typed, with the observed depth), and
    // everything accepted still resolves.
    let (plan, gate) = FaultPlan::new().hold_at(0);
    let service = Service::new(
        ServiceConfig::with_workers(1)
            .queue_capacity(2)
            .fault_plan(Arc::new(plan)),
    );
    // Bound after the service, so a failing assert drops (opens) the
    // gate before the service's drain waits on the held worker.
    let mut gate = gate;
    let heavy = service
        .submit(Request::Efficiency {
            spec: "xor-matched:t=3,s=4".into(),
            strategy: Strategy::Auto,
            len: 512,
            estimator: Estimator::MonteCarlo {
                samples: 4_000,
                max_x: 10,
                max_sigma: 15,
            },
            seed: 3,
        })
        .expect("room");
    // Pool job 0 is held at the gate once the worker pops it: from
    // here on the queue cannot drain until the burst is over.
    gate.wait_held();

    let mut accepted = Vec::new();
    let mut overloads = 0u32;
    for i in 0..200u64 {
        match service.submit(Request::Measure {
            spec: "xor-matched:t=3,s=4".into(),
            vec: VectorSpec::new(i, 12, 64).expect("valid"),
            strategy: Strategy::Auto,
        }) {
            Ok(ticket) => accepted.push(ticket),
            Err(ServeError::Overloaded {
                queue_depth,
                capacity,
            }) => {
                assert_eq!((queue_depth, capacity), (2, 2));
                overloads += 1;
            }
            Err(e) => panic!("unexpected submit error: {e}"),
        }
    }
    assert_eq!(accepted.len(), 2, "exactly the queue's capacity fits");
    assert_eq!(overloads, 198, "every other submission is refused");
    // Every request shape is refused alike behind the full queue: the
    // service never serves a refused request itself.
    let spec = "xor-matched:t=3,s=4";
    let vec = VectorSpec::new(1000, 12, 64).expect("valid");
    let shapes = [
        Request::Measure {
            spec: spec.into(),
            vec,
            strategy: Strategy::Auto,
        },
        Request::MeasureBatch {
            spec: spec.into(),
            accesses: vec![(vec, Strategy::Auto), (vec, Strategy::Canonical)],
        },
        Request::FamilySweep {
            spec: spec.into(),
            len: 64,
            max_x: 4,
            sigma: 3,
        },
        Request::Efficiency {
            spec: spec.into(),
            strategy: Strategy::Auto,
            len: 64,
            estimator: Estimator::Stratified {
                max_x: 4,
                per_family: 2,
            },
            seed: 11,
        },
        Request::MultiStream {
            spec: spec.into(),
            streams: vec![vec, VectorSpec::new(1001, 12, 64).expect("valid")],
            strategy: Strategy::Auto,
            policy: IssuePolicy::RoundRobin,
            schedule: SchedulePlan::Together,
        },
    ];
    for request in shapes {
        match service.submit(request.clone()) {
            Err(ServeError::Overloaded {
                queue_depth,
                capacity,
            }) => assert_eq!((queue_depth, capacity), (2, 2), "{request:?}"),
            Ok(mut ticket) => match ticket.poll() {
                Some(Ok(Response::Degraded { .. })) => {
                    panic!("a full queue served {request:?} on the caller's thread")
                }
                other => panic!("a full queue admitted {request:?}: {other:?}"),
            },
            Err(e) => panic!("unexpected submit error for {request:?}: {e}"),
        }
    }
    assert_eq!(service.stats().degraded, 0, "nothing is ever degraded");
    gate.release();
    for ticket in accepted {
        assert!(matches!(ticket.wait(), Ok(Response::Measured(Some(_)))));
    }
    assert!(matches!(heavy.wait(), Ok(Response::Efficiency(_))));
    service.shutdown();
}

#[test]
fn shutdown_drains_in_flight_service_requests() {
    let service = Service::new(ServiceConfig::with_workers(2).queue_capacity(256));
    let tickets: Vec<_> = (0..40u64)
        .map(|i| {
            service
                .submit(Request::Measure {
                    spec: "skewed:m=3,d=1".into(),
                    vec: VectorSpec::new(i, 8, 256).expect("valid"),
                    strategy: Strategy::Auto,
                })
                .expect("room")
        })
        .collect();
    service.shutdown();
    for mut ticket in tickets {
        let result = ticket
            .poll()
            .expect("shutdown drained, so the response must be ready");
        assert!(matches!(result, Ok(Response::Measured(Some(_)))));
    }
}

#[test]
fn spec_and_request_errors_reject_synchronously_and_typed() {
    let service = Service::new(ServiceConfig::with_workers(1));
    // Unparseable spec string: a submit-side `ServeError::Spec`.
    let bad_spec = service.submit(Request::FamilySweep {
        spec: ":::not a spec:::".into(),
        len: 64,
        max_x: 2,
        sigma: 3,
    });
    assert!(matches!(bad_spec, Err(ServeError::Spec(_))));
    // Even sigma: a submit-side `ServeError::Request`.
    let bad_sigma = service.submit(Request::FamilySweep {
        spec: "xor-matched:t=3,s=4".into(),
        len: 64,
        max_x: 2,
        sigma: 4,
    });
    assert!(matches!(bad_sigma, Err(ServeError::Request(_))));
    service.shutdown();
}

#[test]
fn submits_after_shutdown_are_refused_as_shutting_down() {
    let service = Service::new(ServiceConfig::with_workers(1));
    service.shutdown();
    let refused = service.submit(Request::Measure {
        spec: "interleaved:m=3".into(),
        vec: VectorSpec::new(0, 1, 16).expect("valid"),
        strategy: Strategy::Auto,
    });
    assert!(matches!(refused, Err(ServeError::ShuttingDown)));
}

#[test]
fn exhausted_retries_resolve_worker_panicked_with_the_message() {
    // A panic injected at submission 0 with retries disabled: the
    // ticket resolves the typed error, the worker survives, and the
    // service keeps serving bit-identically.
    let plan = Arc::new(FaultPlan::new().panic_at(0));
    let service = Service::new(
        ServiceConfig::with_workers(1)
            .max_retries(0)
            .fault_plan(plan),
    );
    let vec = VectorSpec::new(0, 3, 64).expect("valid");
    let doomed = service
        .submit(Request::Measure {
            spec: "interleaved:m=3".into(),
            vec,
            strategy: Strategy::Auto,
        })
        .expect("room");
    match doomed.wait() {
        Err(ServeError::WorkerPanicked { attempts, message }) => {
            assert_eq!(attempts, 1);
            assert!(message.contains("injected fault"), "{message}");
        }
        other => panic!("expected WorkerPanicked, got {other:?}"),
    }
    // The follow-up request (no fault scheduled) matches a fresh
    // serial session exactly.
    let vec = VectorSpec::new(0, 3, 64).expect("valid");
    let served = service
        .submit(Request::Measure {
            spec: "interleaved:m=3".into(),
            vec,
            strategy: Strategy::Auto,
        })
        .expect("room")
        .wait()
        .expect("serves");
    let mut serial =
        BatchRunner::from_spec(&"interleaved:m=3".parse().expect("valid")).expect("builds");
    let vec = VectorSpec::new(0, 3, 64).expect("valid");
    assert_eq!(
        served,
        Response::Measured(serial.measure_owned(&vec, Strategy::Auto))
    );
    service.shutdown();
}

#[test]
fn a_zero_budget_behind_a_busy_worker_resolves_deadline_exceeded() {
    use std::time::Duration;
    // `ServeError::DeadlineExceeded`: a zero budget against a wedged
    // worker resolves typed, never blocks.
    let service = Service::new(ServiceConfig::with_workers(1).queue_capacity(8));
    let wedge = service
        .submit_uncached(Request::FamilySweep {
            spec: "xor-matched:t=3,s=4".into(),
            len: 65536,
            max_x: 8,
            sigma: 7,
        })
        .expect("room");
    let vec = VectorSpec::new(0, 5, 64).expect("valid");
    let budgeted = service
        .submit_with_budget(
            Request::Measure {
                spec: "xor-matched:t=3,s=4".into(),
                vec,
                strategy: Strategy::Auto,
            },
            Duration::ZERO,
        )
        .expect("room");
    assert!(matches!(
        budgeted.wait(),
        Err(ServeError::DeadlineExceeded { .. })
    ));
    wedge.wait().expect("the wedge itself serves normally");
    service.shutdown();
}

#[test]
fn a_pending_ticket_past_its_deadline_is_ready() {
    use std::time::Duration;
    // A zero budget queued behind a wedged worker: the ticket is still
    // pending, but past its deadline `poll` resolves it, so `is_ready`
    // must say so before the poll and stop saying so after it.
    let (plan, gate) = FaultPlan::new().hold_at(0);
    let service = Service::new(
        ServiceConfig::with_workers(1)
            .queue_capacity(8)
            .cache_bytes(0)
            .fault_plan(Arc::new(plan)),
    );
    // Bound after the service, so a failing assert drops (opens) the
    // gate before the service's drain waits on the held worker.
    let mut gate = gate;
    let wedge = service
        .submit(Request::Measure {
            spec: "xor-matched:t=3,s=4".into(),
            vec: VectorSpec::new(0, 12, 64).expect("valid"),
            strategy: Strategy::Auto,
        })
        .expect("room");
    // The wedge has started: the budgeted request cannot run before
    // the asserts below.
    gate.wait_held();
    let mut budgeted = service
        .submit_with_budget(
            Request::Measure {
                spec: "xor-matched:t=3,s=4".into(),
                vec: VectorSpec::new(0, 5, 64).expect("valid"),
                strategy: Strategy::Auto,
            },
            Duration::ZERO,
        )
        .expect("room");
    assert!(budgeted.is_ready(), "past its deadline, poll would resolve");
    assert!(matches!(
        budgeted.poll(),
        Some(Err(ServeError::DeadlineExceeded { budget })) if budget == Duration::ZERO
    ));
    assert!(!budgeted.is_ready(), "the deadline error is delivered once");
    drop(budgeted);
    gate.release();
    wedge.wait().expect("the wedge itself serves normally");
    service.shutdown();
}

#[test]
fn multi_stream_conflict_aware_beats_fifo_and_reconciles_with_serial() {
    // interleaved:m=3, stride 2: even bases cover the even modules,
    // odd bases the odd ones. Arrival order [0, 2, 1, 3] makes naive
    // FIFO pairing co-run same-parity (conflicting) neighbours, while
    // the conflict-aware planner re-pairs the disjoint ones.
    let spec = "interleaved:m=3";
    let streams: Vec<VectorSpec> = [0u64, 2, 1, 3]
        .into_iter()
        .map(|base| VectorSpec::new(base, 2, 64).expect("valid"))
        .collect();
    let service = Service::new(ServiceConfig::with_workers(1).cache_bytes(0));
    let run = |schedule: SchedulePlan| {
        let ticket = service
            .submit(Request::MultiStream {
                spec: spec.into(),
                streams: streams.clone(),
                strategy: Strategy::Auto,
                policy: IssuePolicy::RoundRobin,
                schedule,
            })
            .expect("queue has room");
        match ticket.wait() {
            Ok(Response::MultiStream(outcome)) => outcome,
            other => panic!("unexpected response {other:?}"),
        }
    };

    let fifo = run(SchedulePlan::FifoWaves { width: 2 });
    let aware = run(SchedulePlan::ConflictAware {
        width: 2,
        max_score_milli: 0,
    });

    // Internal consistency of each outcome.
    for (label, outcome) in [("fifo", &fifo), ("aware", &aware)] {
        assert_eq!(outcome.per_stream.len(), streams.len(), "{label}");
        assert_eq!(
            outcome.makespan,
            outcome.wave_makespans.iter().sum::<u64>(),
            "{label}: makespan is the sum of its waves"
        );
        assert_eq!(
            outcome.actual_conflicts,
            outcome.per_stream.iter().map(|s| s.conflicts).sum::<u64>(),
            "{label}: conflicts aggregate over streams"
        );
        for summary in &outcome.per_stream {
            assert!(
                (summary.wave as usize) < outcome.wave_makespans.len(),
                "{label}: wave id in range"
            );
            assert_eq!(summary.elements, 64, "{label}");
        }
    }

    // The predictor steered the planner to conflict-free pairs; FIFO
    // co-ran the clashing ones.
    assert_eq!(aware.actual_conflicts, 0, "re-paired waves co-run CF");
    assert_eq!(aware.predicted_conflicts_milli, 0);
    assert!(fifo.actual_conflicts > 0, "FIFO pairs same-parity streams");
    assert!(fifo.predicted_conflicts_milli > 0);
    assert!(
        aware.makespan < fifo.makespan,
        "conflict-aware {} must beat FIFO {}",
        aware.makespan,
        fifo.makespan
    );

    // The sequential baseline is exactly what a serial session measures
    // one stream at a time.
    let mut serial = BatchRunner::from_spec_str(spec).expect("builds");
    let solo: u64 = streams
        .iter()
        .map(|vec| {
            serial
                .measure_owned(vec, Strategy::Auto)
                .expect("auto always plans")
                .latency
        })
        .sum();
    assert_eq!(fifo.sequential_baseline, solo);
    assert_eq!(aware.sequential_baseline, solo);
    // And co-running disjoint pairs strictly beats running them one by
    // one — the throughput win wave planning is built around.
    assert!(aware.makespan < solo, "co-run CF pairs beat sequential");
    service.shutdown();
}

#[test]
fn scheduler_stats_expose_every_counter_in_one_snapshot() {
    // A contended MultiStream co-run, then the full `ServiceStats`
    // snapshot field by field.
    let service = Service::new(ServiceConfig::with_workers(1).cache_bytes(0));
    let outcome = service
        .submit(Request::MultiStream {
            spec: "interleaved:m=3".into(),
            streams: vec![
                VectorSpec::new(0, 2, 64).expect("valid"),
                VectorSpec::new(2, 2, 64).expect("valid"),
            ],
            strategy: Strategy::Auto,
            policy: IssuePolicy::RoundRobin,
            schedule: SchedulePlan::Together,
        })
        .expect("queue has room")
        .wait();
    let outcome = match outcome {
        Ok(Response::MultiStream(outcome)) => outcome,
        other => panic!("unexpected response {other:?}"),
    };
    assert!(outcome.actual_conflicts > 0, "same-parity co-run conflicts");
    assert!(
        outcome.predicted_conflicts_milli > 0,
        "and was predicted to"
    );

    let stats = service.stats();
    assert_eq!(stats.queue_depth, 0, "drained");
    assert_eq!(stats.in_flight, 0, "all tickets resolved");
    assert!(stats.cache.is_none(), "cache disabled at capacity 0");
    assert_eq!(stats.retries, 0);
    assert_eq!(stats.restarts, 0);
    assert_eq!(stats.deadline_exceeded, 0);
    assert_eq!(stats.degraded, 0);
    assert_eq!(stats.faults_injected, 0);
    // One executed co-run: the predicted/actual pair is exactly its
    // outcome's.
    assert_eq!(
        stats.scheduler_predicted_conflicts_milli,
        outcome.predicted_conflicts_milli
    );
    assert_eq!(stats.scheduler_actual_conflicts, outcome.actual_conflicts);
    // No wire front end is attached to this service, so its snapshot
    // reports the wire counters as zero; the live values are asserted
    // in cfva-wire's equivalence suite.
    assert_eq!(stats.wire_connections, 0, "no wire front end attached");
    assert_eq!(stats.wire_rejections, 0);
    assert_eq!(stats.wire_in_flight, 0);
    service.shutdown();
}
