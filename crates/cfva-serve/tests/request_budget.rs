//! The per-request element budget: a request that asks the service to
//! plan and simulate more elements than one request may is a typed,
//! synchronous `ServeError::Request` — never a worker allocation that
//! aborts the process — and the service keeps answering normal
//! requests exactly as a serial session does.

use cfva_core::plan::Strategy;
use cfva_core::VectorSpec;
use cfva_memsim::IssuePolicy;
use cfva_serve::api::{Estimator, Request, Response, SchedulePlan, ServeError};
use cfva_serve::runner::BatchRunner;
use cfva_serve::service::{Service, ServiceConfig};

const SPEC: &str = "xor-matched:t=3,s=4";

/// One request per shape, each over the budget. The 2^40-element
/// measure comes first: without the budget it aborts the test process
/// on allocation failure instead of running for hours.
fn oversized() -> Vec<(&'static str, Request)> {
    let long = VectorSpec::new(0, 1, 1 << 22).unwrap();
    vec![
        (
            "2^40-element measure",
            Request::Measure {
                spec: SPEC.into(),
                vec: VectorSpec::new(0, 1, 1 << 40).unwrap(),
                strategy: Strategy::Auto,
            },
        ),
        (
            "2^22-element sweep over 13 families",
            Request::FamilySweep {
                spec: SPEC.into(),
                len: 1 << 22,
                max_x: 12,
                sigma: 1,
            },
        ),
        (
            "u32::MAX-sample estimate",
            Request::Efficiency {
                spec: SPEC.into(),
                strategy: Strategy::Auto,
                len: 64,
                estimator: Estimator::MonteCarlo {
                    samples: u32::MAX,
                    max_x: 10,
                    max_sigma: 15,
                },
                seed: 1,
            },
        ),
        (
            "stratified estimate",
            Request::Efficiency {
                spec: SPEC.into(),
                strategy: Strategy::Auto,
                len: 1 << 16,
                estimator: Estimator::Stratified {
                    max_x: 40,
                    per_family: 4,
                },
                seed: 1,
            },
        ),
        (
            "batch",
            Request::MeasureBatch {
                spec: SPEC.into(),
                accesses: vec![(long, Strategy::Auto); 3],
            },
        ),
        (
            "co-run",
            Request::MultiStream {
                spec: SPEC.into(),
                streams: vec![long; 3],
                strategy: Strategy::Auto,
                policy: IssuePolicy::RoundRobin,
                schedule: SchedulePlan::Together,
            },
        ),
    ]
}

/// A normal request, and its answer from a fresh serial session.
fn normal() -> (Request, Response) {
    let vec = VectorSpec::new(16, 12, 4096).unwrap();
    let serial = BatchRunner::from_spec_str(SPEC)
        .expect("builds")
        .measure_owned(&vec, Strategy::Canonical);
    let request = Request::Measure {
        spec: SPEC.into(),
        vec,
        strategy: Strategy::Canonical,
    };
    (request, Response::Measured(serial))
}

#[test]
fn oversized_requests_are_rejected_at_submit() {
    let service = Service::new(ServiceConfig::with_workers(1));
    for (label, request) in oversized() {
        match service.submit(request).map(|_| ()) {
            Err(ServeError::Request(e)) => {
                assert!(e.to_string().contains("request elements"), "{label}: {e}")
            }
            other => panic!("{label}: expected a typed rejection, got {other:?}"),
        }
    }
    let (request, expect) = normal();
    let ticket = service
        .submit(request)
        .expect("a normal request is admitted");
    assert_eq!(ticket.wait(), Ok(expect));
    service.shutdown();
}
