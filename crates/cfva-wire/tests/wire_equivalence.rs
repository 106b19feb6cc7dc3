//! The wire transparency contract: a response fetched through a
//! loopback [`WireClient`] is **bit-identical** to the same request
//! submitted directly to the [`Service`] — the socket adds transport,
//! never semantics. Backpressure stays typed across the wire: both
//! the service queue bound and the per-connection admission cap
//! surface as [`ServeError::Overloaded`] with their own capacities,
//! and the `wire_*` counters in [`ServiceStats`] account for every
//! connection, rejection and in-flight ticket.

use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use cfva_core::mapping::Registry;
use cfva_core::plan::Strategy;
use cfva_core::{Stride, VectorSpec};
use cfva_memsim::IssuePolicy;
use cfva_serve::api::{Estimator, Request, Response, SchedulePlan, ServeError, ServeResult};
use cfva_serve::fault::FaultPlan;
use cfva_serve::service::{Service, ServiceConfig};
use cfva_wire::client::WireClient;
use cfva_wire::frame::{self, PROTOCOL_VERSION};
use cfva_wire::json::{self, ClientFrame, ServerFrame};
use cfva_wire::server::{WireServer, WireServerConfig};
use cfva_wire::WireError;
use proptest::prelude::*;

/// Every registered coverage spec, as owned strings.
fn all_specs() -> Vec<String> {
    Registry::builtin()
        .all_specs()
        .iter()
        .map(|s| s.to_string())
        .collect()
}

fn serve_pair(config: ServiceConfig, wire: WireServerConfig) -> (Arc<Service>, WireServer) {
    let service = Arc::new(Service::new(config));
    let server =
        WireServer::bind(Arc::clone(&service), "127.0.0.1:0", wire).expect("loopback bind");
    (service, server)
}

/// A raw connection past the hello exchange, for tests that need to
/// see frames in the order the server wrote them. Reads time out, so
/// a missing answer fails the test instead of hanging it.
fn raw_connect(addr: std::net::SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let mut raw = TcpStream::connect(addr).expect("connect");
    raw.set_nodelay(true).expect("nodelay");
    raw.set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    let hello = json::encode_client_frame(&ClientFrame::Hello {
        proto: PROTOCOL_VERSION,
    });
    frame::write_frame(&mut raw, &hello).expect("write hello");
    let mut reader = BufReader::new(raw.try_clone().expect("clone"));
    let text = frame::read_frame(&mut reader).expect("server answers the hello");
    assert!(matches!(
        json::decode_server_frame(&text).expect("decodes"),
        ServerFrame::Hello { .. }
    ));
    (raw, reader)
}

fn raw_submit(raw: &mut TcpStream, id: u64, request: Request, budget: Option<Duration>) {
    let submit = json::encode_client_frame(&ClientFrame::Submit {
        id,
        request,
        budget,
    });
    frame::write_frame(raw, &submit).expect("write submit");
}

/// The next `Result` frame's `(request_id, result)`.
fn raw_result(reader: &mut BufReader<TcpStream>) -> (u64, ServeResult) {
    let text = frame::read_frame(reader).expect("a result frame before the read timeout");
    match json::decode_server_frame(&text).expect("decodes") {
        ServerFrame::Result { id, result } => (id, result),
        other => panic!("expected a Result frame, got {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Loopback `Measure` through the wire == the same submit against
    /// the same service directly, for random registered specs, strides
    /// and lengths — bit for bit, including the full per-element
    /// arrival vector inside `AccessStats`.
    #[test]
    fn wire_measure_bit_identical_to_direct_submit(
        kind in 0usize..64,
        sigma_idx in 0i64..8,
        x in 0u32..7,
        base in 0u64..1_000_000,
        len_pow in 3u32..8,
    ) {
        let specs = all_specs();
        let spec = specs[kind % specs.len()].clone();
        let sigma = 2 * sigma_idx + 1;
        let stride = Stride::from_parts(sigma, x).expect("odd sigma");
        let vec = VectorSpec::with_stride(base.into(), stride, 1 << len_pow)
            .expect("bounded base");

        let (service, server) =
            serve_pair(ServiceConfig::with_workers(2), WireServerConfig::default());
        let mut client = WireClient::connect(server.local_addr()).expect("connect");

        let request = Request::Measure {
            spec: spec.clone(),
            vec,
            strategy: Strategy::Auto,
        };
        let ticket = client.submit(request.clone()).expect("wire submit");
        let over_wire = client.wait(ticket).expect("wire transport");
        let direct = service
            .submit(request)
            .expect("queue has room")
            .wait();
        prop_assert_eq!(over_wire, direct, "{}: {}", spec, vec);

        drop(client);
        server.shutdown();
        service.shutdown();
    }
}

#[test]
fn every_request_shape_is_wire_transparent() {
    // One connection, every Request variant, results collected out of
    // submission order: each wire response equals its direct twin.
    let spec = "xor-matched:t=3,s=4".to_string();
    let (service, server) = serve_pair(ServiceConfig::with_workers(2), WireServerConfig::default());
    let mut client = WireClient::connect(server.local_addr()).expect("connect");

    let requests = vec![
        Request::Measure {
            spec: spec.clone(),
            vec: VectorSpec::new(16, 12, 64).expect("valid"),
            strategy: Strategy::Auto,
        },
        Request::MeasureBatch {
            spec: spec.clone(),
            accesses: vec![
                (VectorSpec::new(0, 1, 32).expect("valid"), Strategy::Auto),
                (
                    VectorSpec::new(64, 96, 32).expect("valid"),
                    Strategy::Canonical,
                ),
            ],
        },
        Request::FamilySweep {
            spec: spec.clone(),
            len: 64,
            max_x: 4,
            sigma: 3,
        },
        Request::Efficiency {
            spec: spec.clone(),
            strategy: Strategy::Auto,
            len: 64,
            estimator: Estimator::Stratified {
                max_x: 5,
                per_family: 3,
            },
            seed: 7,
        },
        Request::MultiStream {
            spec: spec.clone(),
            streams: vec![
                VectorSpec::new(0, 2, 64).expect("valid"),
                VectorSpec::new(2, 2, 64).expect("valid"),
                VectorSpec::new(1, 2, 64).expect("valid"),
            ],
            strategy: Strategy::Auto,
            policy: IssuePolicy::RoundRobin,
            schedule: SchedulePlan::ConflictAware {
                width: 2,
                max_score_milli: 1000,
            },
        },
    ];

    // Pipeline all submissions first, then redeem the tickets in
    // reverse — exercising the out-of-order correlation path.
    let tickets: Vec<_> = requests
        .iter()
        .map(|r| client.submit(r.clone()).expect("wire submit"))
        .collect();
    let mut wire_results: Vec<_> = tickets
        .into_iter()
        .rev()
        .map(|t| client.wait(t).expect("wire transport"))
        .collect();
    wire_results.reverse();

    for (request, over_wire) in requests.into_iter().zip(wire_results) {
        let direct = service
            .submit(request.clone())
            .expect("queue has room")
            .wait();
        assert_eq!(over_wire, direct, "{request:?}");
    }

    drop(client);
    server.shutdown();
    service.shutdown();
}

#[test]
fn per_connection_cap_rejects_typed_overloaded_through_the_socket() {
    // One worker wedged by a heavy estimate, a per-connection cap of 4:
    // a burst must surface typed Overloaded frames naming *that* cap,
    // every admitted ticket must still resolve, and the wire counters
    // must account for all of it.
    let (service, server) = serve_pair(
        ServiceConfig::with_workers(1).queue_capacity(256),
        WireServerConfig {
            max_in_flight_per_conn: 4,
        },
    );
    let mut client = WireClient::connect(server.local_addr()).expect("connect");
    assert_eq!(client.max_in_flight(), 4, "the hello announces the cap");

    let wedge = client
        .submit(Request::Efficiency {
            spec: "xor-matched:t=3,s=4".to_string(),
            strategy: Strategy::Auto,
            len: 512,
            estimator: Estimator::MonteCarlo {
                samples: 4_000,
                max_x: 10,
                max_sigma: 15,
            },
            seed: 3,
        })
        .expect("wire submit");

    let tickets: Vec<_> = (0..50u64)
        .map(|i| {
            client
                .submit(Request::Measure {
                    spec: "xor-matched:t=3,s=4".to_string(),
                    vec: VectorSpec::new(i, 12, 64).expect("valid"),
                    strategy: Strategy::Auto,
                })
                .expect("wire submit never fails on transport here")
        })
        .collect();

    let mut rejected = 0u64;
    let mut served = 0u64;
    for ticket in tickets {
        match client.wait(ticket).expect("wire transport") {
            Ok(Response::Measured(Some(_))) => served += 1,
            Err(ServeError::Overloaded {
                queue_depth,
                capacity,
            }) => {
                assert_eq!(capacity, 4, "the per-connection cap, not the queue's");
                assert!(queue_depth >= capacity, "refused below the cap");
                rejected += 1;
            }
            other => panic!("unexpected wire result {other:?}"),
        }
    }
    assert!(rejected > 0, "a 50-burst against a cap of 4 must reject");
    assert!(served > 0, "admitted requests must still serve");
    assert_eq!(rejected + served, 50, "zero lost tickets");
    assert!(matches!(
        client.wait(wedge).expect("wire transport"),
        Ok(Response::Efficiency(_))
    ));

    // Live wire counters, fetched through the socket itself.
    let stats = client.stats().expect("stats probe");
    assert_eq!(stats.wire_connections, 1);
    assert!(
        stats.wire_rejections >= rejected,
        "every cap rejection is counted"
    );
    assert_eq!(
        stats.wire_in_flight, 0,
        "all tickets reaped once their results were read"
    );
    // The server-side snapshot agrees.
    let direct = server.stats();
    assert_eq!(direct.wire_connections, 1);
    assert_eq!(direct.wire_rejections, stats.wire_rejections);
    assert_eq!(direct.wire_in_flight, 0);

    drop(client);
    server.shutdown();
    service.shutdown();
}

#[test]
fn service_shutdown_surfaces_shutting_down_through_the_socket() {
    let (service, server) = serve_pair(ServiceConfig::with_workers(1), WireServerConfig::default());
    let mut client = WireClient::connect(server.local_addr()).expect("connect");
    service.shutdown();
    let ticket = client
        .submit(Request::Measure {
            spec: "interleaved:m=3".to_string(),
            vec: VectorSpec::new(0, 1, 16).expect("valid"),
            strategy: Strategy::Auto,
        })
        .expect("transport still up");
    assert!(matches!(
        client.wait(ticket).expect("wire transport"),
        Err(ServeError::ShuttingDown)
    ));
    drop(client);
    server.shutdown();
}

#[test]
fn a_request_dropped_unrun_answers_worker_panicked_and_the_writer_survives() {
    // One worker, no restart budget, a kill on the first pool job: the
    // pool dies with that request still queued and drops it unrun. The
    // socket must answer it with a typed WorkerPanicked, and a second
    // submit on the same connection must still be answered (the dead
    // pool refuses it as ShuttingDown) — proof the writer is alive.
    let (service, server) = serve_pair(
        ServiceConfig::with_workers(1)
            .max_worker_restarts(0)
            .fault_plan(Arc::new(FaultPlan::new().kill_worker_at(0))),
        WireServerConfig::default(),
    );
    let addr = server.local_addr();
    let measure = |base: u64| Request::Measure {
        spec: "interleaved:m=3".to_string(),
        vec: VectorSpec::new(base, 1, 16).expect("valid"),
        strategy: Strategy::Auto,
    };
    // The client runs on its own thread so a hang fails this test on a
    // bounded timeout instead of wedging it.
    let (done, outcome) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let round_trips = (|| {
            let mut client = WireClient::connect(addr)?;
            let first = client.submit(measure(0))?;
            let first = client.wait(first)?;
            let second = client.submit(measure(1))?;
            let second = client.wait(second)?;
            Ok::<_, WireError>((first, second))
        })();
        let _ = done.send(round_trips);
    });
    let (first, second) = outcome
        .recv_timeout(Duration::from_secs(30))
        .expect("the wire client hung: the dropped job took the connection's writer down")
        .expect("wire transport");
    match first {
        Err(ServeError::WorkerPanicked { attempts, message }) => {
            assert_eq!(attempts, 0, "the request never ran");
            assert!(message.contains("dropped"), "{message}");
        }
        other => panic!("expected WorkerPanicked, got {other:?}"),
    }
    assert!(
        matches!(second, Err(ServeError::ShuttingDown)),
        "expected ShuttingDown from the dead pool, got {second:?}"
    );
    server.shutdown();
    service.shutdown();
}

#[test]
fn deadline_budgets_are_forwarded_across_the_wire() {
    // A zero budget against a wedged single worker must come back as
    // the typed DeadlineExceeded carrying the submitted budget —
    // proving the budget rode the Submit frame to `submit_with_budget`.
    let (service, server) = serve_pair(
        ServiceConfig::with_workers(1)
            .queue_capacity(8)
            .cache_bytes(0),
        WireServerConfig::default(),
    );
    let mut client = WireClient::connect(server.local_addr()).expect("connect");
    let wedge = client
        .submit(Request::FamilySweep {
            spec: "xor-matched:t=3,s=4".to_string(),
            len: 65536,
            max_x: 8,
            sigma: 7,
        })
        .expect("wire submit");
    let budgeted = client
        .submit_with_budget(
            Request::Measure {
                spec: "xor-matched:t=3,s=4".to_string(),
                vec: VectorSpec::new(0, 5, 64).expect("valid"),
                strategy: Strategy::Auto,
            },
            Duration::ZERO,
        )
        .expect("wire submit");
    match client.wait(budgeted).expect("wire transport") {
        Err(ServeError::DeadlineExceeded { budget }) => {
            assert_eq!(budget, Duration::ZERO, "the submitted budget, echoed");
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    client.wait(wedge).expect("wire transport").expect("serves");
    drop(client);
    server.shutdown();
    service.shutdown();
}

#[test]
fn a_request_running_past_its_budget_answers_deadline_exceeded_as_in_process() {
    // Two workers, no cache. Request A is held at a gate until B has
    // answered; request B, a sweep far longer than its 10 ms budget,
    // starts at once on the other worker. In-process, B's ticket
    // resolves DeadlineExceeded at its deadline while the sweep runs
    // on; over the wire B must answer the same, before A — whichever of
    // the two jobs finishes first.
    let (plan, gate) = FaultPlan::new().hold_at(0);
    let (service, server) = serve_pair(
        ServiceConfig::with_workers(2)
            .cache_bytes(0)
            .fault_plan(Arc::new(plan)),
        WireServerConfig::default(),
    );
    // Bound after the service and server, so a failing assert drops
    // (opens) the gate before their drains wait on the held worker.
    let mut gate = gate;
    let before = service.stats().deadline_exceeded;
    let (mut raw, mut reader) = raw_connect(server.local_addr());
    let budget = Duration::from_millis(10);
    raw_submit(
        &mut raw,
        0,
        Request::Measure {
            spec: "interleaved:m=3".to_string(),
            vec: VectorSpec::new(0, 1, 16).expect("valid"),
            strategy: Strategy::Auto,
        },
        None,
    );
    gate.wait_held();
    raw_submit(
        &mut raw,
        1,
        Request::FamilySweep {
            spec: "xor-matched:t=3,s=4".to_string(),
            len: 1 << 18,
            max_x: 12,
            sigma: 9,
        },
        Some(budget),
    );
    match raw_result(&mut reader) {
        (1, Err(ServeError::DeadlineExceeded { budget: echoed })) => {
            assert_eq!(echoed, budget, "the submitted budget, echoed");
        }
        other => panic!("expected B's DeadlineExceeded first, got {other:?}"),
    }
    gate.release();
    match raw_result(&mut reader) {
        (0, Ok(Response::Measured(Some(_)))) => {}
        other => panic!("expected A's response second, got {other:?}"),
    }
    assert_eq!(
        service.stats().deadline_exceeded - before,
        1,
        "B's expiry is counted once, as in-process"
    );
    drop((raw, reader));
    server.shutdown();
    service.shutdown();
}

#[test]
fn duplicate_in_flight_request_ids_are_each_answered() {
    // The request_id is the client's correlation tag, not a key the
    // server may rely on: two submits reusing one id, both in flight
    // behind a wedged worker, must each get a Result frame.
    let (plan, gate) = FaultPlan::new().hold_at(0);
    let (service, server) = serve_pair(
        ServiceConfig::with_workers(1)
            .cache_bytes(0)
            .fault_plan(Arc::new(plan)),
        WireServerConfig::default(),
    );
    // Bound after the service and server, so a failing assert drops
    // (opens) the gate before their drains wait on the held worker.
    let mut gate = gate;
    let (mut raw, mut reader) = raw_connect(server.local_addr());
    for base in [0u64, 64] {
        raw_submit(
            &mut raw,
            7,
            Request::Measure {
                spec: "interleaved:m=3".to_string(),
                vec: VectorSpec::new(base, 1, 16).expect("valid"),
                strategy: Strategy::Auto,
            },
            None,
        );
    }
    // The first is held on the worker; release it once the second is
    // queued behind it.
    gate.wait_held();
    while service.stats().queue_depth == 0 {
        std::thread::yield_now();
    }
    gate.release();
    for _ in 0..2 {
        match raw_result(&mut reader) {
            (7, Ok(Response::Measured(Some(_)))) => {}
            other => panic!("expected an answer to id 7, got {other:?}"),
        }
    }
    drop((raw, reader));
    server.shutdown();
    service.shutdown();
}

/// The flush rule: the server flushes before any read that can block.
/// One write carries a whole cache-hit frame and the first bytes of a
/// second frame; the hit's answer must arrive before the rest is sent.
#[test]
fn a_half_sent_frame_does_not_hold_back_an_answer() {
    let (service, server) = serve_pair(ServiceConfig::with_workers(1), WireServerConfig::default());
    let (mut raw, mut reader) = raw_connect(server.local_addr());
    // A missing answer fails in seconds, not at the helper's minute.
    raw.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let request = Request::Measure {
        spec: "xor-matched:t=3,s=4".to_string(),
        vec: VectorSpec::new(16, 12, 64).expect("valid"),
        strategy: Strategy::Auto,
    };
    // Admission caches a key on its second miss.
    for id in 0..2 {
        raw_submit(&mut raw, id, request.clone(), None);
        let (got, result) = raw_result(&mut reader);
        assert_eq!(got, id);
        result.expect("valid request");
    }
    let framed = |id| {
        let text = json::encode_client_frame(&ClientFrame::Submit {
            id,
            request: request.clone(),
            budget: None,
        });
        let mut bytes = Vec::new();
        frame::write_frame(&mut bytes, &text).expect("encode");
        bytes
    };
    let (hit, next) = (framed(2), framed(3));
    let (head, tail) = next.split_at(6);
    raw.write_all(&[hit.as_slice(), head].concat())
        .expect("write a frame and a half");
    let (id, answer) = raw_result(&mut reader);
    assert_eq!(id, 2);
    assert_eq!(
        service.stats().cache.expect("cache on").hits,
        1,
        "frame 2 was a cache hit"
    );
    let direct = service.submit(request.clone()).expect("room").wait();
    assert_eq!(answer, direct);
    raw.write_all(tail).expect("write the rest");
    assert_eq!(raw_result(&mut reader), (3, direct));

    drop((raw, reader));
    server.shutdown();
    service.shutdown();
}

#[test]
fn graceful_drain_flushes_every_accepted_ticket() {
    // Submit a pile, then shut the server down *before* reading any
    // result: the drain must flush every accepted ticket's response to
    // the socket, and the client must be able to redeem all of them
    // afterwards.
    let (service, server) = serve_pair(
        ServiceConfig::with_workers(2).queue_capacity(256),
        WireServerConfig::default(),
    );
    let mut client = WireClient::connect(server.local_addr()).expect("connect");
    let tickets: Vec<_> = (0..16u64)
        .map(|i| {
            client
                .submit(Request::Measure {
                    spec: "skewed:m=3,d=1".to_string(),
                    vec: VectorSpec::new(i, 8, 128).expect("valid"),
                    strategy: Strategy::Auto,
                })
                .expect("wire submit")
        })
        .collect();

    // The socket is FIFO, so a stats round trip is a sync barrier: its
    // reply proves the server consumed (and admitted) every submit
    // frame written before it. Without it, the drain below could close
    // the read half while submits still sit in the kernel buffer —
    // those would be unaccepted, not lost.
    let before = client.stats().expect("sync barrier");
    assert!(before.wire_in_flight <= 16);

    server.shutdown(); // blocks until every writer flushed its pending tickets

    for ticket in tickets {
        let result = client.wait(ticket).expect("drained results are readable");
        assert!(
            matches!(result, Ok(Response::Measured(Some(_)))),
            "every accepted ticket resolves across a drain"
        );
    }
    service.shutdown();
}

#[test]
fn multiple_connections_are_counted_and_isolated() {
    let (service, server) = serve_pair(
        ServiceConfig::with_workers(2),
        WireServerConfig {
            max_in_flight_per_conn: 8,
        },
    );
    let mut clients: Vec<_> = (0..3)
        .map(|_| WireClient::connect(server.local_addr()).expect("connect"))
        .collect();
    for (i, client) in clients.iter_mut().enumerate() {
        let base = u64::try_from(i).expect("small") * 64;
        let ticket = client
            .submit(Request::Measure {
                spec: "interleaved:m=3".to_string(),
                vec: VectorSpec::new(base, 2, 64).expect("valid"),
                strategy: Strategy::Auto,
            })
            .expect("wire submit");
        assert!(matches!(
            client.wait(ticket).expect("wire transport"),
            Ok(Response::Measured(Some(_)))
        ));
    }
    let stats = server.stats();
    assert_eq!(
        stats.wire_connections, 3,
        "every accepted connection counts"
    );
    assert_eq!(stats.wire_in_flight, 0);
    drop(clients);
    server.shutdown();
    service.shutdown();
}

#[test]
fn version_mismatch_is_refused_with_a_typed_fatal() {
    use std::io::Write;

    let (service, server) = serve_pair(ServiceConfig::with_workers(1), WireServerConfig::default());

    // A hello from the future: the server must answer Fatal, not
    // mis-decode the rest of the stream.
    let mut raw = TcpStream::connect(server.local_addr()).expect("connect");
    let hello = json::encode_client_frame(&ClientFrame::Hello {
        proto: PROTOCOL_VERSION + 1,
    });
    frame::write_frame(&mut raw, &hello).expect("write");
    raw.flush().expect("flush");
    let mut reader = BufReader::new(raw.try_clone().expect("clone"));
    let text = frame::read_frame(&mut reader).expect("server answers");
    match json::decode_server_frame(&text).expect("decodes") {
        ServerFrame::Fatal { reason } => {
            assert!(reason.contains("version"), "names the problem: {reason}");
        }
        other => panic!("expected Fatal, got {other:?}"),
    }
    drop(reader);

    // A first frame that is not a hello at all: same refusal.
    let mut raw = TcpStream::connect(server.local_addr()).expect("connect");
    let premature = json::encode_client_frame(&ClientFrame::Stats { id: 1 });
    frame::write_frame(&mut raw, &premature).expect("write");
    raw.flush().expect("flush");
    let mut reader = BufReader::new(raw.try_clone().expect("clone"));
    let text = frame::read_frame(&mut reader).expect("server answers");
    assert!(matches!(
        json::decode_server_frame(&text).expect("decodes"),
        ServerFrame::Fatal { .. }
    ));

    // A well-versioned client still connects fine afterwards.
    let mut client = WireClient::connect(server.local_addr()).expect("connect");
    let ticket = client
        .submit(Request::Measure {
            spec: "interleaved:m=3".to_string(),
            vec: VectorSpec::new(0, 1, 16).expect("valid"),
            strategy: Strategy::Auto,
        })
        .expect("wire submit");
    assert!(client.wait(ticket).expect("transport").is_ok());

    drop(client);
    server.shutdown();
    service.shutdown();
}
