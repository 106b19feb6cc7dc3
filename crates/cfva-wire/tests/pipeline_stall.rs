//! A client that stops reading must not wedge its connection.
//!
//! One client warms a cached 4096-element `Measure`, then submits it
//! 100,000 times before its first `wait`: about 15 MB of requests,
//! whose answers would take about 2 GB. The server cannot buffer
//! that, so its writes time out and the connection stalls. The reader
//! must keep reading and answer what the per-connection cap does not
//! admit with a typed `Overloaded`; once the client reads again,
//! every ticket resolves and the connection's threads are reaped.
//!
//! This lives in its own test binary because it counts the whole
//! process's descriptors, as `conn_reap.rs` does.
#![cfg(target_os = "linux")]

use std::net::SocketAddr;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::Duration;

use cfva_core::plan::Strategy;
use cfva_core::VectorSpec;
use cfva_serve::api::{Request, Response, ServeError};
use cfva_serve::service::{Service, ServiceConfig};
use cfva_wire::client::WireClient;
use cfva_wire::server::{WireServer, WireServerConfig};
use cfva_wire::WireError;

/// Submissions before the client's first `wait`.
const SUBMITS: usize = 100_000;

/// How long the stalled client may take, debug build included, before
/// the test calls the connection wedged.
const LIMIT: Duration = Duration::from_secs(120);

/// Descriptors a few not-yet-reaped connections may still hold.
const SLACK: usize = 12;

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .expect("procfs is mounted")
        .count()
}

fn hot_request() -> Request {
    Request::Measure {
        spec: "xor-matched:t=3,s=4".into(),
        vec: VectorSpec::new(16, 3, 4096).expect("valid"),
        strategy: Strategy::Auto,
    }
}

/// Warms the key, submits it [`SUBMITS`] times without reading, then
/// waits on every ticket: `(answered, overloaded)`.
fn stalled_client(addr: SocketAddr) -> Result<(usize, usize), WireError> {
    let mut client = WireClient::connect(addr)?;
    // Admission caches a key on its second miss: the third submit hits.
    for _ in 0..3 {
        let ticket = client.submit(hot_request())?;
        assert!(matches!(
            client.wait(ticket)?,
            Ok(Response::Measured(Some(_)))
        ));
    }
    let tickets = (0..SUBMITS)
        .map(|_| client.submit(hot_request()))
        .collect::<Result<Vec<_>, _>>()?;
    let (mut answered, mut overloaded) = (0, 0);
    for ticket in tickets {
        match client.wait(ticket)? {
            Ok(Response::Measured(Some(_))) => answered += 1,
            Err(ServeError::Overloaded { .. }) => overloaded += 1,
            other => panic!("expected an answer or Overloaded, got {other:?}"),
        }
    }
    Ok((answered, overloaded))
}

/// Connects, serves one request, and hangs up.
fn one_shot(addr: SocketAddr) {
    let mut client = WireClient::connect(addr).expect("connect");
    let ticket = client.submit(hot_request()).expect("wire submit");
    assert!(matches!(
        client.wait(ticket).expect("wire transport"),
        Ok(Response::Measured(Some(_)))
    ));
}

#[test]
fn a_client_that_stops_reading_gets_every_ticket_answered_or_overloaded() {
    let service = Arc::new(Service::new(ServiceConfig::with_workers(1)));
    let server = WireServer::bind(
        Arc::clone(&service),
        "127.0.0.1:0",
        WireServerConfig::default(),
    )
    .expect("loopback bind");
    let addr = server.local_addr();
    let baseline = open_fds();

    let (tx, rx) = mpsc::channel();
    let client = std::thread::spawn(move || {
        let _ = tx.send(stalled_client(addr));
    });
    let outcome = match rx.recv_timeout(LIMIT) {
        Ok(outcome) => outcome,
        Err(e) => {
            // Dropping the server would drain a wedged connection and
            // hang the test instead of failing it.
            std::mem::forget(server);
            match e {
                RecvTimeoutError::Timeout => {
                    panic!("{SUBMITS} pipelined submissions did not resolve within {LIMIT:?}")
                }
                RecvTimeoutError::Disconnected => panic!("the stalled client panicked"),
            }
        }
    };
    client.join().expect("the client thread finished cleanly");
    let (answered, overloaded) = outcome.expect("the transport stays up");
    assert_eq!(answered + overloaded, SUBMITS);
    // Answering every one would take about 2 GB of socket buffers: the
    // connection must have stalled and met the cap.
    assert!(overloaded > 0, "no submission met the per-connection cap");

    // The stalled connection's threads exit once its client hangs up,
    // and the next accepts reap them.
    let mut settled = open_fds();
    for _ in 0..100 {
        if settled <= baseline + SLACK {
            break;
        }
        one_shot(addr);
        settled = open_fds();
    }
    assert!(
        settled <= baseline + SLACK,
        "the stalled connection left {} descriptors open (baseline {baseline})",
        settled - baseline
    );
    assert_eq!(server.stats().wire_in_flight, 0);
    server.shutdown();
    service.shutdown();
}
