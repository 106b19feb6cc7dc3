//! The chaos contract: under any seeded [`FaultPlan`] schedule —
//! worker kills, job panics, queue-pressure bursts, cache poisoning,
//! injected delays — the hardened service keeps every promise it makes
//! under fair weather:
//!
//! * every **accepted** ticket resolves (no caller is ever stranded);
//! * shutdown still drains and joins;
//! * responses stay **bit-identical** to a fault-free serial run
//!   (recovery is invisible in the data, not just "mostly works");
//! * the result cache stays equivalent to no cache at all;
//! * a poisoned ticket slot (a re-raised job panic) never leaks to
//!   unrelated requests.
//!
//! The fixed seeds exercised here are the same ones CI's chaos-smoke
//! step runs in release mode.

use std::sync::Arc;
use std::time::Duration;

use cfva_core::plan::Strategy;
use cfva_core::{Stride, VectorSpec};
use cfva_serve::api::{Request, Response, ServeError};
use cfva_serve::fault::FaultPlan;
use cfva_serve::pool::Pool;
use cfva_serve::runner::BatchRunner;
use cfva_serve::service::{Service, ServiceConfig, ServiceStats};
use proptest::prelude::*;

/// The seeds CI pins for the release chaos-smoke run.
const SMOKE_SEEDS: [u64; 3] = [7, 1992, 0xCF5A];

/// A deterministic little request mix: measures across three specs and
/// stride families, plus a sweep — enough shape diversity to exercise
/// the queue, sessions and the cache under fire.
fn request_mix(n: u64) -> Vec<Request> {
    let specs = [
        "xor-matched:t=3,s=3",
        "xor-matched:t=3,s=4",
        "interleaved:m=3",
    ];
    (0..n)
        .map(|i| {
            if i % 16 == 15 {
                Request::FamilySweep {
                    spec: specs[(i % 3) as usize].into(),
                    len: 64,
                    max_x: 4,
                    sigma: 3,
                }
            } else {
                let sigma = 2 * (i % 5) as i64 + 1;
                let x = (i % 6) as u32;
                let stride = Stride::from_parts(sigma, x).expect("odd sigma");
                let vec = VectorSpec::with_stride((100 + 8 * i).into(), stride, 64)
                    .expect("bounded base");
                Request::Measure {
                    spec: specs[(i % 3) as usize].into(),
                    vec,
                    strategy: Strategy::Auto,
                }
            }
        })
        .collect()
}

/// The fault-free ground truth for [`request_mix`], from fresh serial
/// sessions.
fn serial_truth(requests: &[Request]) -> Vec<Response> {
    requests
        .iter()
        .map(|request| match request {
            Request::Measure {
                spec,
                vec,
                strategy,
            } => {
                let mut session =
                    BatchRunner::from_spec(&spec.parse().expect("valid spec")).expect("builds");
                Response::Measured(session.measure_owned(vec, *strategy))
            }
            Request::FamilySweep { .. } => {
                // The sweep's truth comes from the service itself with
                // no faults installed — same code path, no chaos.
                let calm = Service::new(ServiceConfig::with_workers(1).cache_bytes(0));
                let response = calm
                    .submit(request.clone())
                    .expect("calm queue has room")
                    .wait()
                    .expect("sweep serves");
                calm.shutdown();
                response
            }
            _ => unreachable!("request_mix only builds measures and sweeps"),
        })
        .collect()
}

/// Drives `requests` through a chaos-rigged service and returns the
/// resolved results plus the closing stats. Every accepted ticket is
/// waited on with a generous timeout so a hang fails the test instead
/// of wedging it.
fn drive(
    config: ServiceConfig,
    requests: &[Request],
) -> (Vec<Result<Response, ServeError>>, ServiceStats) {
    let service = Service::new(config);
    let results: Vec<Result<Response, ServeError>> = requests
        .iter()
        .map(|request| {
            let ticket = service
                .submit(request.clone())
                .expect("queue is sized for the whole mix");
            match ticket.wait_timeout(Duration::from_secs(60)) {
                Ok(result) => result,
                Err(_pending) => panic!("accepted ticket failed to resolve within 60 s"),
            }
        })
        .collect();
    let stats = service.stats();
    service.shutdown();
    (results, stats)
}

/// A chaos config: every recovery mechanism armed, queue sized so the
/// mix itself is never rejected (bursts may be), retries ample for
/// one-shot injected panics.
fn chaos_config(seed: u64, horizon: u64) -> ServiceConfig {
    ServiceConfig::with_workers(3)
        .queue_capacity(512)
        .max_retries(2)
        .fault_plan(Arc::new(FaultPlan::seeded(seed, horizon)))
}

#[test]
fn fixed_seed_chaos_runs_are_bit_identical_to_fault_free_serial() {
    let requests = request_mix(96);
    let truth = serial_truth(&requests);
    for seed in SMOKE_SEEDS {
        let (results, stats) = drive(chaos_config(seed, 4096), &requests);
        for (i, (result, expected)) in results.iter().zip(&truth).enumerate() {
            let got = result
                .as_ref()
                .unwrap_or_else(|e| panic!("seed {seed}: request {i} failed: {e}"));
            assert_eq!(
                got, expected,
                "seed {seed}: request {i} diverged from the fault-free run"
            );
        }
        assert!(
            stats.faults_injected > 0,
            "seed {seed}: the schedule must actually fire over 96 submissions"
        );
    }
}

#[test]
fn chaos_recovery_counters_account_for_the_injections() {
    // Deterministic plan: one job panic (retried), one worker kill
    // (restarted), one cache poison, one burst. The counters must tell
    // that exact story.
    let plan = Arc::new(
        FaultPlan::new()
            .panic_at(3)
            .kill_worker_at(5)
            .poison_cache_at(7)
            .burst_at(9, 4),
    );
    let config = ServiceConfig::with_workers(2)
        .queue_capacity(256)
        .max_retries(2)
        .fault_plan(Arc::clone(&plan));
    // A repeat of request 0 as submission 1: its second miss populates
    // the cache, so the poison at 7 has an entry to flush.
    let mut requests = request_mix(32);
    requests.insert(1, requests[0].clone());
    let truth = serial_truth(&requests);
    let (results, stats) = drive(config, &requests);
    for (i, (result, expected)) in results.iter().zip(&truth).enumerate() {
        assert_eq!(
            result.as_ref().expect("all faults here are recoverable"),
            expected,
            "request {i} diverged"
        );
    }
    assert_eq!(plan.injected(), 4, "all four scheduled faults fire");
    assert!(stats.retries >= 1, "the injected panic is retried");
    assert_eq!(stats.restarts, 1, "the killed worker is restarted");
    assert_eq!(stats.deadline_exceeded, 0);
    assert_eq!(stats.degraded, 0, "a full queue never degrades");
    let cache = stats.cache.expect("cache enabled");
    assert!(
        cache.invalidations >= 1,
        "the poison flushed the entry populated by submission 1"
    );
}

#[test]
fn cache_on_equals_cache_off_under_chaos() {
    let requests = request_mix(64);
    let seed = SMOKE_SEEDS[0];
    let cached = drive(chaos_config(seed, 4096), &requests).0;
    let uncached = drive(chaos_config(seed, 4096).cache_bytes(0), &requests).0;
    for (i, (a, b)) in cached.iter().zip(&uncached).enumerate() {
        assert_eq!(
            a.as_ref().expect("recoverable"),
            b.as_ref().expect("recoverable"),
            "request {i}: cache-on and cache-off diverged under chaos"
        );
    }
}

#[test]
fn a_panicking_job_never_leaks_to_unrelated_requests() {
    // A job panic re-raised through `Ticket::wait` unwinds out of that
    // one ticket. Unrelated requests — before, concurrent, and after —
    // must be untouched: the failure is scoped to the one ticket, and
    // the worker (which caught the panic at the job boundary) keeps
    // serving.
    let pool = Pool::new(2, 32, |_| ());
    let before = pool.try_submit(|(): &mut ()| 1u32).expect("room");
    let poisoned = pool
        .try_submit(|(): &mut ()| -> u32 { panic!("boom") })
        .expect("room");
    let during: Vec<_> = (0..8u32)
        .map(|i| pool.try_submit(move |(): &mut ()| i).expect("room"))
        .collect();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || poisoned.wait()));
    assert!(outcome.is_err(), "the panic re-raises at wait()");
    assert_eq!(before.wait(), 1);
    for (i, t) in during.into_iter().enumerate() {
        assert_eq!(t.wait(), i as u32);
    }
    assert_eq!(pool.try_submit(|(): &mut ()| 9u32).expect("room").wait(), 9);
    pool.shutdown();
}

#[test]
fn a_request_dropped_unrun_resolves_worker_panicked_instead_of_panicking() {
    // One worker, no restart budget, a kill on the first pool job: the
    // pool dies with that request still queued and drops it unrun. The
    // ticket resolves to a typed error, and later submits are refused.
    let service = Service::new(
        ServiceConfig::with_workers(1)
            .max_worker_restarts(0)
            .fault_plan(Arc::new(FaultPlan::new().kill_worker_at(0))),
    );
    let measure = |base: u64| Request::Measure {
        spec: "interleaved:m=3".into(),
        vec: VectorSpec::new(base, 1, 16).expect("valid"),
        strategy: Strategy::Auto,
    };
    let doomed = service.submit(measure(0)).expect("an empty queue admits");
    match doomed.wait_timeout(Duration::from_secs(60)) {
        Ok(Err(ServeError::WorkerPanicked { attempts, message })) => {
            assert_eq!(attempts, 0, "the request never ran");
            assert!(message.contains("dropped"), "{message}");
        }
        Ok(other) => panic!("expected WorkerPanicked, got {other:?}"),
        Err(_pending) => panic!("the dropped request's ticket never resolved"),
    }
    assert!(matches!(
        service.submit(measure(1)),
        Err(ServeError::ShuttingDown)
    ));
    assert_eq!(service.stats().restarts, 0);
    service.shutdown();
}

#[test]
fn deadline_budget_resolves_typed_error_instead_of_blocking() {
    let service = Service::new(ServiceConfig::with_workers(1).queue_capacity(16));
    // Wedge the only worker behind a slow request so the budgeted one
    // cannot start before its (zero) budget elapses.
    let slow: Vec<_> = (0..4)
        .map(|_| {
            service
                .submit_uncached(Request::FamilySweep {
                    spec: "xor-matched:t=3,s=4".into(),
                    len: 4096,
                    max_x: 10,
                    sigma: 9,
                })
                .expect("queue has room")
        })
        .collect();
    let stride = Stride::from_parts(3, 2).expect("odd sigma");
    let vec = VectorSpec::with_stride(64u64.into(), stride, 64).expect("bounded");
    let budgeted = service
        .submit_with_budget(
            Request::Measure {
                spec: "xor-matched:t=3,s=4".into(),
                vec,
                strategy: Strategy::Auto,
            },
            Duration::ZERO,
        )
        .expect("queue has room");
    match budgeted.wait() {
        Err(ServeError::DeadlineExceeded { budget }) => assert_eq!(budget, Duration::ZERO),
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    assert!(service.stats().deadline_exceeded >= 1);
    for t in slow {
        t.wait().expect("slow requests finish normally");
    }
    service.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The headline liveness-and-correctness property: for *any* seed,
    /// every accepted ticket resolves, responses match the fault-free
    /// truth, and shutdown drains.
    #[test]
    fn any_seeded_schedule_preserves_liveness_and_bit_identity(seed in 0u64..u64::MAX) {
        // The fault-free truth is seed-independent; compute it once.
        static TRUTH: std::sync::OnceLock<(Vec<Request>, Vec<Response>)> =
            std::sync::OnceLock::new();
        let (requests, truth) = TRUTH.get_or_init(|| {
            let requests = request_mix(48);
            let truth = serial_truth(&requests);
            (requests, truth)
        });
        let (results, _stats) = drive(chaos_config(seed, 4096), requests);
        for (i, (result, expected)) in results.iter().zip(truth.iter()).enumerate() {
            let got = result
                .as_ref()
                .unwrap_or_else(|e| panic!("seed {seed}: request {i} failed: {e}"));
            prop_assert_eq!(got, expected, "seed {}: request {} diverged", seed, i);
        }
    }
}
