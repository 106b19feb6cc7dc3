//! Shutdown must not wait forever on a client that stopped reading.
//!
//! A raw client warms a cached 4096-element `Measure`, then writes
//! 20,000 submits of it and never reads an answer: the server's
//! writes time out and the connection stalls. `shutdown` gives that
//! client up after a bounded stall, still reaps every pending ticket,
//! and releases every descriptor.
//!
//! This lives in its own test binary because it counts the whole
//! process's descriptors, as `conn_reap.rs` does.
#![cfg(target_os = "linux")]

use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cfva_core::plan::Strategy;
use cfva_core::VectorSpec;
use cfva_serve::api::Request;
use cfva_serve::service::{Service, ServiceConfig};
use cfva_wire::frame::{self, PROTOCOL_VERSION};
use cfva_wire::json::{self, ClientFrame, ServerFrame};
use cfva_wire::server::{WireServer, WireServerConfig};

/// Submissions the client writes and never reads the answers of.
const SUBMITS: u64 = 20_000;

/// How long `shutdown` may take, debug build included.
const LIMIT: Duration = Duration::from_secs(10);

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .expect("procfs is mounted")
        .count()
}

fn submit_frame(id: u64) -> Vec<u8> {
    let text = json::encode_client_frame(&ClientFrame::Submit {
        id,
        request: Request::Measure {
            spec: "xor-matched:t=3,s=4".into(),
            vec: VectorSpec::new(16, 3, 4096).expect("valid"),
            strategy: Strategy::Auto,
        },
        budget: None,
    });
    let mut bytes = Vec::new();
    frame::write_frame(&mut bytes, &text).expect("encode");
    bytes
}

fn next_frame(reader: &mut BufReader<TcpStream>) -> ServerFrame {
    let text = frame::read_frame(reader).expect("the server answers");
    json::decode_server_frame(&text).expect("decodes")
}

#[test]
fn shutdown_gives_up_a_client_that_stopped_reading() {
    let service = Arc::new(Service::new(ServiceConfig::with_workers(1)));
    let server = WireServer::bind(
        Arc::clone(&service),
        "127.0.0.1:0",
        WireServerConfig::default(),
    )
    .expect("loopback bind");
    let baseline = open_fds();

    let mut raw = TcpStream::connect(server.local_addr()).expect("connect");
    raw.set_read_timeout(Some(LIMIT)).expect("read timeout");
    let hello = json::encode_client_frame(&ClientFrame::Hello {
        proto: PROTOCOL_VERSION,
    });
    frame::write_frame(&mut raw, &hello).expect("write hello");
    let mut reader = BufReader::new(raw.try_clone().expect("clone"));
    assert!(matches!(next_frame(&mut reader), ServerFrame::Hello { .. }));
    // Admission caches a key on its second miss: every later submit hits.
    for id in 0..2 {
        raw.write_all(&submit_frame(id)).expect("write submit");
        assert!(matches!(
            next_frame(&mut reader),
            ServerFrame::Result { .. }
        ));
    }
    let burst: Vec<u8> = (2..2 + SUBMITS).flat_map(submit_frame).collect();
    raw.write_all(&burst).expect("the server keeps reading");
    // The cap rejects a hit only once the connection has stalled.
    let stalled_by = Instant::now() + LIMIT;
    while server.stats().wire_rejections == 0 {
        assert!(Instant::now() < stalled_by, "the connection never stalled");
        std::thread::sleep(Duration::from_millis(1));
    }

    let (tx, rx) = mpsc::channel();
    let stopping = std::thread::spawn(move || {
        server.shutdown();
        let _ = tx.send(server.stats().wire_in_flight);
    });
    let Ok(in_flight) = rx.recv_timeout(LIMIT) else {
        panic!("shutdown waited more than {LIMIT:?} on a client that stopped reading");
    };
    stopping
        .join()
        .expect("the shutdown thread finished cleanly");
    assert_eq!(in_flight, 0, "every pending ticket was reaped");

    drop((raw, reader));
    let settled = open_fds();
    assert!(
        settled <= baseline,
        "shutdown left {} descriptors open (baseline {baseline})",
        settled - baseline
    );
    service.shutdown();
}
