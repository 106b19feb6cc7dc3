//! The client's batching contract: a submit only queues its frame, and
//! queued frames leave together before any read that can block, in
//! `stats`, and when the client is dropped.

use std::io::{BufReader, ErrorKind, Read};
use std::net::TcpListener;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use cfva_core::plan::Strategy;
use cfva_core::VectorSpec;
use cfva_serve::api::{Request, ServeError};
use cfva_serve::fault::FaultPlan;
use cfva_serve::service::{Service, ServiceConfig};
use cfva_wire::client::WireClient;
use cfva_wire::frame::{self, PROTOCOL_VERSION};
use cfva_wire::json::{self, ClientFrame, ServerFrame};
use cfva_wire::server::{WireServer, WireServerConfig};

/// How long a test waits for something that should happen at once.
const PATIENCE: Duration = Duration::from_secs(10);

fn serve_pair(config: ServiceConfig) -> (Arc<Service>, WireServer) {
    let service = Arc::new(Service::new(config));
    let server = WireServer::bind(
        Arc::clone(&service),
        "127.0.0.1:0",
        WireServerConfig::default(),
    )
    .expect("loopback bind");
    (service, server)
}

fn measure(base: u64) -> Request {
    Request::Measure {
        spec: "interleaved:m=3".to_string(),
        vec: VectorSpec::new(base, 1, 16).expect("valid"),
        strategy: Strategy::Auto,
    }
}

#[test]
fn stats_is_a_barrier_for_queued_submits() {
    const N: u64 = 32;
    let (service, server) = serve_pair(ServiceConfig::with_workers(1));
    let mut client = WireClient::connect(server.local_addr()).expect("connect");
    let tickets: Vec<_> = (0..N)
        .map(|i| client.submit(measure(i % 4)).expect("queued"))
        .collect();
    // Every submit consults the cache once, when the server reads it.
    let cache = client.stats().expect("stats").cache.expect("cache on");
    assert_eq!(cache.hits + cache.misses, N);
    for ticket in tickets {
        client.wait(ticket).expect("transport").expect("serves");
    }
    drop(client);
    server.shutdown();
    service.shutdown();
}

#[test]
fn dropping_the_client_sends_its_queued_submits() {
    let (plan, gate) = FaultPlan::new().hold_at(0);
    let (service, server) = serve_pair(
        ServiceConfig::with_workers(1)
            .cache_bytes(0)
            .fault_plan(Arc::new(plan)),
    );
    let mut client = WireClient::connect(server.local_addr()).expect("connect");
    let _abandoned = client.submit(measure(0)).expect("queued");
    drop(client);
    // The request reaches a worker only if the drop sent it.
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let mut gate = gate;
        gate.wait_held();
        let _ = tx.send(gate);
    });
    let gate = rx
        .recv_timeout(PATIENCE)
        .expect("the dropped client's submit reached a worker");
    gate.release();
    server.shutdown();
    service.shutdown();
}

#[test]
fn nothing_leaves_before_the_client_blocks() {
    const SUBMITS: u64 = 8;
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let connecting = std::thread::spawn(move || WireClient::connect(addr));
    // The hello, by hand.
    let (mut peer, _) = listener.accept().expect("accept");
    peer.set_read_timeout(Some(PATIENCE)).expect("read timeout");
    let mut reader = BufReader::new(peer.try_clone().expect("clone"));
    let hello = frame::read_frame(&mut reader).expect("the client's hello");
    assert!(matches!(
        json::decode_client_frame(&hello),
        Ok(ClientFrame::Hello { .. })
    ));
    let answer = json::encode_server_frame(&ServerFrame::Hello {
        proto: PROTOCOL_VERSION,
        max_in_flight: 64,
    });
    frame::write_frame(&mut peer, &answer).expect("hello back");
    let mut client = connecting
        .join()
        .expect("connect thread")
        .expect("the client accepts the hello");

    let tickets: Vec<_> = (0..SUBMITS)
        .map(|i| client.submit(measure(i)).expect("queued"))
        .collect();
    // A slow scheduler could let this pass falsely; a frame that did
    // leave always fails it.
    peer.set_read_timeout(Some(Duration::from_millis(200)))
        .expect("read timeout");
    assert!(reader.buffer().is_empty(), "nothing but the hello arrived");
    match reader.get_mut().read(&mut [0u8; 1]) {
        Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
        other => panic!("a queued submit left before the client blocked: {other:?}"),
    }

    // Waiting sends all of them; answer each with its own id.
    let waiting = std::thread::spawn(move || {
        tickets
            .into_iter()
            .map(|ticket| (ticket.request_id(), client.wait(ticket)))
            .collect::<Vec<_>>()
    });
    peer.set_read_timeout(Some(PATIENCE)).expect("read timeout");
    for expected in 0..SUBMITS {
        let text = frame::read_frame(&mut reader).expect("a queued submit");
        let Ok(ClientFrame::Submit { id, .. }) = json::decode_client_frame(&text) else {
            panic!("expected a submit, got {text}");
        };
        assert_eq!(id, expected, "submits leave in order");
        let result = json::encode_server_frame(&ServerFrame::Result {
            id,
            result: Err(ServeError::Overloaded {
                queue_depth: id as usize,
                capacity: 64,
            }),
        });
        frame::write_frame(&mut peer, &result).expect("answer");
    }
    let answers = waiting.join().expect("wait thread");
    assert_eq!(answers.len() as u64, SUBMITS);
    for (id, answer) in answers {
        match answer.expect("transport") {
            Err(ServeError::Overloaded { queue_depth, .. }) => {
                assert_eq!(queue_depth as u64, id, "each wait gets its own answer");
            }
            other => panic!("unexpected answer {other:?}"),
        }
    }
}
