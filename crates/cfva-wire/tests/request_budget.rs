//! The per-request element budget over loopback: each oversized
//! request frame — a ~100-byte `Measure` of 2^40 elements among them —
//! comes back as a typed `ServeError::Request`, counted as a wire
//! rejection, and the same connection then gets a normal answer
//! bit-identical to a serial session's.

use std::sync::Arc;

use cfva_core::plan::Strategy;
use cfva_core::VectorSpec;
use cfva_serve::api::{Estimator, Request, Response, ServeError};
use cfva_serve::runner::BatchRunner;
use cfva_serve::service::{Service, ServiceConfig};
use cfva_wire::client::WireClient;
use cfva_wire::server::{WireServer, WireServerConfig};

const SPEC: &str = "xor-matched:t=3,s=4";

#[test]
fn oversized_requests_are_rejected_over_the_wire() {
    let service = Arc::new(Service::new(ServiceConfig::with_workers(1)));
    let server = WireServer::bind(
        Arc::clone(&service),
        "127.0.0.1:0",
        WireServerConfig::default(),
    )
    .expect("loopback bind");
    let mut client = WireClient::connect(server.local_addr()).expect("connect");

    // The measure comes first: without the budget it aborts the server
    // (this process) on allocation failure instead of running for hours.
    let oversized = [
        Request::Measure {
            spec: SPEC.into(),
            vec: VectorSpec::new(0, 1, 1 << 40).unwrap(),
            strategy: Strategy::Auto,
        },
        Request::FamilySweep {
            spec: SPEC.into(),
            len: 1 << 22,
            max_x: 12,
            sigma: 1,
        },
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
    ];
    let count = oversized.len() as u64;
    for request in oversized {
        let label = format!("{request:?}");
        let ticket = client.submit(request).expect("wire submit");
        match client.wait(ticket).expect("wire transport") {
            Err(ServeError::Request(e)) => {
                assert!(e.to_string().contains("request elements"), "{label}: {e}")
            }
            other => panic!("{label}: expected a typed rejection, got {other:?}"),
        }
    }
    assert_eq!(client.stats().expect("stats").wire_rejections, count);

    let vec = VectorSpec::new(16, 12, 4096).unwrap();
    let serial = BatchRunner::from_spec_str(SPEC)
        .expect("builds")
        .measure_owned(&vec, Strategy::Canonical);
    let ticket = client
        .submit(Request::Measure {
            spec: SPEC.into(),
            vec,
            strategy: Strategy::Canonical,
        })
        .expect("wire submit");
    assert_eq!(
        client.wait(ticket).expect("wire transport"),
        Ok(Response::Measured(serial))
    );

    drop(client);
    server.shutdown();
    service.shutdown();
}
