//! Connection reaping: a long-running [`WireServer`] must not keep a
//! descriptor per closed connection. Finished connections are dropped
//! from the registry on the next accept, so after a burst of one-shot
//! clients the process's open descriptors return to their baseline
//! within a small constant.
//!
//! This lives in its own test binary because it counts the whole
//! process's descriptors: sockets opened by concurrently running tests
//! would skew the count.
#![cfg(target_os = "linux")]

use std::sync::Arc;

use cfva_core::plan::Strategy;
use cfva_core::VectorSpec;
use cfva_serve::api::{Request, Response};
use cfva_serve::service::{Service, ServiceConfig};
use cfva_wire::client::WireClient;
use cfva_wire::server::{WireServer, WireServerConfig};

/// One-shot clients in the burst.
const CLIENTS: usize = 200;

/// Descriptors a few not-yet-reaped connections may still hold (three
/// each while their threads run, one after).
const SLACK: usize = 12;

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .expect("procfs is mounted")
        .count()
}

/// Connects, serves one request, and hangs up.
fn one_shot(server: &WireServer) {
    let mut client = WireClient::connect(server.local_addr()).expect("connect");
    let ticket = client
        .submit(Request::Measure {
            spec: "xor-matched:t=3,s=3".into(),
            vec: VectorSpec::new(16, 12, 64).expect("valid"),
            strategy: Strategy::Auto,
        })
        .expect("wire submit");
    match client.wait(ticket).expect("wire transport") {
        Ok(Response::Measured(Some(_))) => {}
        other => panic!("unexpected response {other:?}"),
    }
}

#[test]
fn closed_connections_release_their_descriptors() {
    let service = Arc::new(Service::new(ServiceConfig::with_workers(1)));
    let server = WireServer::bind(
        Arc::clone(&service),
        "127.0.0.1:0",
        WireServerConfig::default(),
    )
    .expect("loopback bind");
    let baseline = open_fds();

    for _ in 0..CLIENTS {
        one_shot(&server);
    }
    // Reaping happens on accept, so the last few connections are only
    // released by later ones: keep probing until the count settles.
    let mut settled = open_fds();
    for _ in 0..CLIENTS {
        if settled <= baseline + SLACK {
            break;
        }
        one_shot(&server);
        settled = open_fds();
    }
    assert!(
        settled <= baseline + SLACK,
        "{CLIENTS} closed connections left {} descriptors open (baseline {baseline})",
        settled - baseline
    );
    assert_eq!(server.stats().wire_in_flight, 0);
    server.shutdown();
    service.shutdown();
}
