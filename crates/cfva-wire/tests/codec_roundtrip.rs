//! Round-trip and adversarial tests for the wire codec.
//!
//! Every `Request` / `Response` / `ServeError` variant must round
//! trip bit-identically through `encode_* → decode_*` — cfva-lint's
//! L004 refuses any variant this suite does not name. The adversarial
//! half feeds the frame layer and the parser truncated, oversize,
//! non-UTF-8 and malformed inputs and requires typed errors, never a
//! panic.

use std::io::{Cursor, Read};
use std::time::Duration;

use cfva_core::plan::Strategy;
use cfva_core::{ConfigError, VectorSpec};
use cfva_memsim::{AccessStats, IssuePolicy};
use cfva_serve::api::{
    Estimator, FamilyPoint, MultiStreamOutcome, Request, Response, SchedulePlan, ServeError,
    ServeResult, StreamSummary,
};
use cfva_serve::service::ServiceStats;
use cfva_serve::CacheStats;
use cfva_wire::frame::{self, FrameError, MAX_FRAME_LEN};
use cfva_wire::json::{self, ClientFrame, DecodeError, ServerFrame};
use proptest::prelude::*;

// ---------------------------------------------------------------
// Round-trip helpers
// ---------------------------------------------------------------

fn rt_request(r: &Request) {
    let text = json::encode_request(r);
    let back = json::decode_request(&text).expect("request should decode");
    assert_eq!(*r, back, "request round trip changed the value: {text}");
}

fn rt_response(r: &Response) {
    let text = json::encode_response(r);
    let back = json::decode_response(&text).expect("response should decode");
    assert_eq!(*r, back, "response round trip changed the value: {text}");
}

fn rt_serve_error(e: &ServeError) {
    let text = json::encode_serve_error(e);
    let back = json::decode_serve_error(&text).expect("serve error should decode");
    assert_eq!(*e, back, "serve error round trip changed the value: {text}");
}

fn vec_spec(base: u64, stride: i64, len: u64) -> VectorSpec {
    VectorSpec::new(base, stride, len).expect("test vector spec must be valid")
}

fn access_stats(k: u64) -> AccessStats {
    AccessStats {
        latency: 100 + k,
        elements: 64,
        stall_cycles: k % 7,
        conflicts: k % 5,
        arrival: vec![k, k + 1, k + 3, k + 9].into(),
        module_busy: vec![8, 9, 10, k % 11],
        max_in_q: usize::try_from(k % 4).unwrap(),
    }
}

fn all_config_errors() -> Vec<ConfigError> {
    vec![
        ConfigError::NotPowerOfTwo {
            what: "modules",
            value: 12,
        },
        ConfigError::OutOfRange {
            what: "s",
            value: 3,
            constraint: "s >= t",
        },
        ConfigError::ZeroStride,
        ConfigError::SingularMatrix,
        ConfigError::AddressOverflow,
        ConfigError::SpecSyntax {
            spec: "xor:".to_string(),
            reason: "empty key".to_string(),
        },
        ConfigError::UnknownMap {
            name: "warp".to_string(),
            registered: vec!["xor".to_string(), "interleave".to_string()],
        },
        ConfigError::MissingKey {
            map: "xor".to_string(),
            key: "t",
        },
        ConfigError::UnknownKey {
            map: "xor".to_string(),
            key: "q".to_string(),
            accepted: &["t", "s"],
        },
        ConfigError::DuplicateKey {
            key: "t".to_string(),
        },
        ConfigError::InvalidValue {
            key: "t".to_string(),
            value: "x9".to_string(),
            expected: "an unsigned integer",
        },
        ConfigError::MatrixFile {
            path: "m.txt".to_string(),
            reason: "no such file".to_string(),
        },
        ConfigError::DuplicateMap {
            name: "xor".to_string(),
        },
    ]
}

// ---------------------------------------------------------------
// Request variants
// ---------------------------------------------------------------

#[test]
fn request_measure_round_trips() {
    rt_request(&Request::Measure {
        spec: "xor-matched:t=3,s=4".to_string(),
        vec: vec_spec(16, 12, 64),
        strategy: Strategy::Auto,
    });
    rt_request(&Request::Measure {
        spec: "interleave:t=2".to_string(),
        vec: vec_spec(0, -7, 1),
        strategy: Strategy::ConflictFree,
    });
}

#[test]
fn request_measure_batch_round_trips() {
    rt_request(&Request::MeasureBatch {
        spec: "xor-matched:t=3,s=3".to_string(),
        accesses: vec![
            (vec_spec(0, 1, 8), Strategy::Canonical),
            (vec_spec(64, -3, 16), Strategy::Subsequence),
            (vec_spec(128, 32, 4), Strategy::ConflictFree),
            (vec_spec(4096, 5, 33), Strategy::Auto),
        ],
    });
    rt_request(&Request::MeasureBatch {
        spec: "interleave:t=4".to_string(),
        accesses: Vec::new(),
    });
}

#[test]
fn request_family_sweep_round_trips() {
    rt_request(&Request::FamilySweep {
        spec: "xor-matched:t=3,s=4".to_string(),
        len: 256,
        max_x: 6,
        sigma: 3,
    });
    rt_request(&Request::FamilySweep {
        spec: "interleave:t=3".to_string(),
        len: 1,
        max_x: 0,
        sigma: -5,
    });
}

#[test]
fn request_efficiency_round_trips() {
    rt_request(&Request::Efficiency {
        spec: "xor-matched:t=3,s=3".to_string(),
        strategy: Strategy::Auto,
        len: 64,
        estimator: Estimator::MonteCarlo {
            samples: 500,
            max_x: 8,
            max_sigma: 63,
        },
        seed: 0xDEAD_BEEF,
    });
    rt_request(&Request::Efficiency {
        spec: "interleave:t=2".to_string(),
        strategy: Strategy::Canonical,
        len: 128,
        estimator: Estimator::Stratified {
            max_x: 10,
            per_family: 40,
        },
        seed: u64::MAX,
    });
}

#[test]
fn request_multi_stream_round_trips() {
    let streams = vec![
        vec_spec(0, 1, 64),
        vec_spec(8192, 12, 64),
        vec_spec(64, -2, 32),
    ];
    for policy in [
        IssuePolicy::RoundRobin,
        IssuePolicy::Priority,
        IssuePolicy::WorkConserving,
    ] {
        for schedule in [
            SchedulePlan::Together,
            SchedulePlan::FifoWaves { width: 2 },
            SchedulePlan::ConflictAware {
                width: 3,
                max_score_milli: 1500,
            },
        ] {
            rt_request(&Request::MultiStream {
                spec: "xor-matched:t=3,s=4".to_string(),
                streams: streams.clone(),
                strategy: Strategy::Auto,
                policy,
                schedule,
            });
        }
    }
}

// ---------------------------------------------------------------
// Response variants
// ---------------------------------------------------------------

#[test]
fn response_measured_round_trips() {
    rt_response(&Response::Measured(Some(access_stats(17))));
    rt_response(&Response::Measured(None));
}

#[test]
fn response_batch_round_trips() {
    rt_response(&Response::Batch(vec![
        Some(access_stats(1)),
        None,
        Some(access_stats(2)),
    ]));
    rt_response(&Response::Batch(Vec::new()));
}

#[test]
fn response_family_sweep_round_trips() {
    rt_response(&Response::FamilySweep(vec![
        FamilyPoint {
            x: 0,
            stride: 3,
            latency: 73,
            conflicts: 0,
            stall_cycles: 0,
            cycles_per_element: 1.0,
        },
        FamilyPoint {
            x: 5,
            stride: -96,
            latency: 901,
            conflicts: 320,
            stall_cycles: 512,
            cycles_per_element: 0.1 + 0.2, // deliberately not representable as 0.3
        },
    ]));
}

#[test]
fn response_efficiency_round_trips() {
    for eta in [1.0, 0.5, 0.1 + 0.2, 1e-300, f64::MIN_POSITIVE, -0.0, 5e-324] {
        rt_response(&Response::Efficiency(eta));
    }
}

#[test]
fn response_efficiency_nonfinite_floats_survive() {
    // NaN breaks PartialEq, so check the lanes by hand.
    let text = json::encode_response(&Response::Efficiency(f64::NAN));
    match json::decode_response(&text).expect("nan should decode") {
        Response::Efficiency(eta) => assert!(eta.is_nan()),
        other => panic!("wrong shape back: {other:?}"),
    }
    for inf in [f64::INFINITY, f64::NEG_INFINITY] {
        rt_response(&Response::Efficiency(inf));
    }
}

#[test]
fn response_multi_stream_round_trips() {
    rt_response(&Response::MultiStream(MultiStreamOutcome {
        per_stream: vec![
            StreamSummary {
                wave: 0,
                elements: 64,
                first_issue: 0,
                latency: 73,
                spread: 63,
                conflicts: 0,
                stall_cycles: 0,
            },
            StreamSummary {
                wave: 1,
                elements: 32,
                first_issue: 2,
                latency: 120,
                spread: 80,
                conflicts: 17,
                stall_cycles: 9,
            },
        ],
        wave_makespans: vec![73, 130],
        makespan: 203,
        sequential_baseline: 193,
        predicted_conflicts_milli: 2125,
        actual_conflicts: 17,
    }));
}

#[test]
fn response_degraded_round_trips() {
    rt_response(&Response::Degraded {
        response: Box::new(Response::Measured(Some(access_stats(3)))),
        exact: true,
    });
    rt_response(&Response::Degraded {
        response: Box::new(Response::FamilySweep(vec![FamilyPoint {
            x: 2,
            stride: 12,
            latency: 200,
            conflicts: 40,
            stall_cycles: 30,
            cycles_per_element: 2.75,
        }])),
        exact: false,
    });
    // Nested degradation is not produced by the service today, but the
    // codec must not be the layer that forbids it.
    rt_response(&Response::Degraded {
        response: Box::new(Response::Degraded {
            response: Box::new(Response::Measured(None)),
            exact: false,
        }),
        exact: true,
    });
}

// ---------------------------------------------------------------
// ServeError variants
// ---------------------------------------------------------------

#[test]
fn serve_error_overloaded_round_trips() {
    rt_serve_error(&ServeError::Overloaded {
        queue_depth: 129,
        capacity: 128,
    });
}

#[test]
fn serve_error_shutting_down_round_trips() {
    rt_serve_error(&ServeError::ShuttingDown);
}

#[test]
fn serve_error_spec_round_trips() {
    for e in all_config_errors() {
        rt_serve_error(&ServeError::Spec(e));
    }
}

#[test]
fn serve_error_request_round_trips() {
    for e in all_config_errors() {
        rt_serve_error(&ServeError::Request(e));
    }
}

#[test]
fn serve_error_deadline_exceeded_round_trips() {
    rt_serve_error(&ServeError::DeadlineExceeded {
        budget: Duration::new(3, 141_592_653),
    });
    rt_serve_error(&ServeError::DeadlineExceeded {
        budget: Duration::ZERO,
    });
}

#[test]
fn serve_error_worker_panicked_round_trips() {
    rt_serve_error(&ServeError::WorkerPanicked {
        attempts: 4,
        message: "index out of bounds: the len is 0 but the index is 0".to_string(),
    });
    rt_serve_error(&ServeError::WorkerPanicked {
        attempts: 1,
        message: String::new(),
    });
}

#[test]
fn serve_result_round_trips() {
    let ok: ServeResult = Ok(Response::Efficiency(0.875));
    let text = json::encode_serve_result(&ok);
    assert_eq!(json::decode_serve_result(&text).expect("ok decodes"), ok);

    let err: ServeResult = Err(ServeError::ShuttingDown);
    let text = json::encode_serve_result(&err);
    assert_eq!(json::decode_serve_result(&text).expect("err decodes"), err);
}

// ---------------------------------------------------------------
// ServiceStats and frame envelopes
// ---------------------------------------------------------------

#[test]
fn service_stats_round_trips() {
    let stats = ServiceStats {
        queue_depth: 3,
        in_flight: 2,
        cache: Some(CacheStats {
            hits: 10,
            misses: 20,
            evictions: 3,
            bypasses: 4,
            invalidations: 5,
            oversize: 6,
            entries: 17,
            bytes: 48_000,
            capacity_bytes: 65_536,
        }),
        retries: 6,
        restarts: 7,
        deadline_exceeded: 8,
        degraded: 9,
        faults_injected: 10,
        scheduler_predicted_conflicts_milli: 11,
        scheduler_actual_conflicts: 12,
        wire_connections: 13,
        wire_rejections: 14,
        wire_in_flight: 15,
    };
    let text = json::encode_service_stats(&stats);
    assert_eq!(
        json::decode_service_stats(&text).expect("stats decode"),
        stats
    );

    let no_cache = ServiceStats {
        cache: None,
        ..stats
    };
    let text = json::encode_service_stats(&no_cache);
    assert_eq!(
        json::decode_service_stats(&text).expect("stats decode"),
        no_cache
    );
}

#[test]
fn client_frames_round_trip() {
    let frames = vec![
        ClientFrame::Hello {
            proto: frame::PROTOCOL_VERSION,
        },
        ClientFrame::Submit {
            id: 42,
            request: Request::Measure {
                spec: "xor-matched:t=3,s=3".to_string(),
                vec: vec_spec(16, 12, 64),
                strategy: Strategy::Auto,
            },
            budget: Some(Duration::from_millis(250)),
        },
        ClientFrame::Submit {
            id: u64::MAX,
            request: Request::FamilySweep {
                spec: "interleave:t=3".to_string(),
                len: 64,
                max_x: 4,
                sigma: 1,
            },
            budget: None,
        },
        ClientFrame::Stats { id: 7 },
    ];
    for f in &frames {
        let text = json::encode_client_frame(f);
        let back = json::decode_client_frame(&text).expect("client frame decodes");
        assert_eq!(*f, back, "client frame changed: {text}");
    }
}

#[test]
fn server_frames_round_trip() {
    // ServerFrame carries ServeTicket-free results only, but is not
    // PartialEq (ServiceStats inside is, Response is; keep it simple):
    // bit-identity is asserted on the re-encoded text instead.
    let frames = vec![
        ServerFrame::Hello {
            proto: frame::PROTOCOL_VERSION,
            max_in_flight: 64,
        },
        ServerFrame::Result {
            id: 3,
            result: Ok(Response::Measured(Some(access_stats(5)))),
        },
        ServerFrame::Result {
            id: 4,
            result: Err(ServeError::Overloaded {
                queue_depth: 9,
                capacity: 8,
            }),
        },
        ServerFrame::Stats {
            id: 5,
            stats: ServiceStats {
                queue_depth: 0,
                in_flight: 0,
                cache: None,
                retries: 0,
                restarts: 0,
                deadline_exceeded: 0,
                degraded: 0,
                faults_injected: 0,
                scheduler_predicted_conflicts_milli: 0,
                scheduler_actual_conflicts: 0,
                wire_connections: 1,
                wire_rejections: 2,
                wire_in_flight: 3,
            },
        },
        ServerFrame::Fatal {
            reason: "first frame must be a hello".to_string(),
        },
    ];
    for f in &frames {
        let text = json::encode_server_frame(f);
        let back = json::decode_server_frame(&text).expect("server frame decodes");
        assert_eq!(
            json::encode_server_frame(&back),
            text,
            "server frame changed across the round trip"
        );
    }
}

// ---------------------------------------------------------------
// Frame layer: truncation, oversize, UTF-8
// ---------------------------------------------------------------

#[test]
fn frame_round_trips_through_a_buffer() {
    let payload = json::encode_request(&Request::FamilySweep {
        spec: "xor-matched:t=3,s=4".to_string(),
        len: 256,
        max_x: 6,
        sigma: 3,
    });
    let mut buf = Vec::new();
    frame::write_frame(&mut buf, &payload).expect("write");
    let back = frame::read_frame(&mut Cursor::new(&buf)).expect("read");
    assert_eq!(back, payload);
}

#[test]
fn empty_stream_reads_as_closed() {
    match frame::read_frame(&mut Cursor::new(Vec::<u8>::new())) {
        Err(FrameError::Closed) => {}
        other => panic!("expected Closed, got {other:?}"),
    }
}

#[test]
fn truncated_frames_are_io_errors_not_panics() {
    let mut buf = Vec::new();
    frame::write_frame(&mut buf, "{\"x\":1}").expect("write");
    // Cut the frame at every possible byte boundary except 0 and the end.
    for cut in 1..buf.len() {
        let head = &buf[..cut];
        match frame::read_frame(&mut Cursor::new(head)) {
            Err(FrameError::Io(e)) => {
                assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof, "cut at {cut}");
            }
            other => panic!("cut at {cut}: expected UnexpectedEof, got {other:?}"),
        }
    }
}

#[test]
fn oversize_length_words_are_rejected() {
    let hostile = (MAX_FRAME_LEN + 1).to_be_bytes();
    match frame::read_frame(&mut Cursor::new(hostile)) {
        Err(FrameError::Oversize { len, max }) => {
            assert_eq!(len, MAX_FRAME_LEN + 1);
            assert_eq!(max, MAX_FRAME_LEN);
        }
        other => panic!("expected Oversize, got {other:?}"),
    }
    // u32::MAX: the classic length-word attack; must not allocate 4 GiB.
    let hostile = u32::MAX.to_be_bytes();
    assert!(matches!(
        frame::read_frame(&mut Cursor::new(hostile)),
        Err(FrameError::Oversize { .. })
    ));
}

/// A reader over fixed bytes that records the largest buffer a caller
/// offered it — a stand-in for how much the caller allocated up front.
struct LargestRead {
    bytes: Cursor<Vec<u8>>,
    largest: usize,
}

impl Read for LargestRead {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.largest = self.largest.max(buf.len());
        self.bytes.read(buf)
    }
}

#[test]
fn max_length_header_with_a_short_payload_is_unexpected_eof() {
    // A legal but huge length word followed by a few bytes and EOF: the
    // reader must report the truncation, having buffered only what
    // actually arrived rather than the advertised 64 MiB up front.
    let mut buf = MAX_FRAME_LEN.to_be_bytes().to_vec();
    buf.extend_from_slice(b"{\"x\"");
    let mut reader = LargestRead {
        bytes: Cursor::new(buf),
        largest: 0,
    };
    match frame::read_frame(&mut reader) {
        Err(FrameError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof),
        other => panic!("expected UnexpectedEof, got {other:?}"),
    }
    assert!(
        reader.largest < 1 << 20,
        "a bare length word made the reader offer a {}-byte buffer",
        reader.largest
    );
}

#[test]
fn non_utf8_payloads_are_rejected() {
    let mut buf = Vec::new();
    buf.extend_from_slice(&4u32.to_be_bytes());
    buf.extend_from_slice(&[b'o', b'k', 0xFF, 0xFE]);
    match frame::read_frame(&mut Cursor::new(buf)) {
        Err(FrameError::InvalidUtf8 { valid_up_to }) => assert_eq!(valid_up_to, 2),
        other => panic!("expected InvalidUtf8, got {other:?}"),
    }
}

/// A read's outcome, comparable across `read_frame` and
/// `read_frame_into`: the text, or the error's variant and IO kind.
fn frame_outcome(read: Result<&str, &FrameError>) -> Result<String, String> {
    read.map(str::to_string).map_err(|e| match e {
        FrameError::Io(e) => format!("io {:?}", e.kind()),
        other => other.to_string(),
    })
}

#[test]
fn read_frame_into_reads_as_read_frame_does_into_one_reused_buffer() {
    let mut valid = Vec::new();
    frame::write_frame(&mut valid, "{\"x\":1}").expect("write");
    let mut cases: Vec<Vec<u8>> = (0..=valid.len()).map(|cut| valid[..cut].to_vec()).collect();
    cases.push((MAX_FRAME_LEN + 1).to_be_bytes().to_vec());
    cases.push(u32::MAX.to_be_bytes().to_vec());
    cases.push([&4u32.to_be_bytes()[..], &[b'o', b'k', 0xFF, 0xFE]].concat());
    // One buffer for every case, starting with stale bytes and the
    // capacity of a large frame.
    let mut buf = vec![b'z'; 1 << 20];
    for bytes in &cases {
        let fresh = frame::read_frame(&mut Cursor::new(bytes));
        let reused = frame::read_frame_into(&mut Cursor::new(bytes), &mut buf);
        assert_eq!(
            frame_outcome(reused.as_deref()),
            frame_outcome(fresh.as_deref()),
            "bytes {bytes:?}"
        );
        assert!(
            buf.capacity() < 1 << 20,
            "the buffer shrinks back after a large frame"
        );
    }

    // Back to back on one stream, a bare 64 MiB length word last: only
    // the bytes that arrive are buffered.
    let mut stream = Vec::new();
    for payload in ["{}", "[1,2,3]", ""] {
        frame::write_frame(&mut stream, payload).expect("write");
    }
    stream.extend_from_slice(&MAX_FRAME_LEN.to_be_bytes());
    stream.extend_from_slice(b"{\"x\"");
    let mut reader = LargestRead {
        bytes: Cursor::new(stream),
        largest: 0,
    };
    for payload in ["{}", "[1,2,3]", ""] {
        assert_eq!(
            frame::read_frame_into(&mut reader, &mut buf).expect("frame reads back"),
            payload
        );
    }
    match frame::read_frame_into(&mut reader, &mut buf) {
        Err(FrameError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof),
        other => panic!("expected UnexpectedEof, got {other:?}"),
    }
    assert!(
        reader.largest < 1 << 20,
        "a bare length word made the reader offer a {}-byte buffer",
        reader.largest
    );
}

#[test]
fn oversize_writes_are_refused_before_touching_the_stream() {
    let huge = "x".repeat(MAX_FRAME_LEN as usize + 1);
    let mut buf = Vec::new();
    assert!(matches!(
        frame::write_frame(&mut buf, &huge),
        Err(FrameError::Oversize { .. })
    ));
    assert!(buf.is_empty(), "a refused frame must write nothing");
}

// ---------------------------------------------------------------
// Parser: malformed JSON, wrong schema, deep nesting
// ---------------------------------------------------------------

#[test]
fn malformed_json_is_a_typed_syntax_error() {
    for bad in [
        "",
        "   ",
        "{",
        "}",
        "[1,",
        "{\"a\":}",
        "{\"a\" 1}",
        "tru",
        "nul",
        "+5",
        "1e",
        "0x10",
        "\"unterminated",
        "\"bad escape \\q\"",
        "\"half surrogate \\ud800\"",
        "{\"a\":1} trailing",
        "[1,2,]",
        "{\"a\":1,}",
    ] {
        match json::parse(bad) {
            Err(DecodeError::Syntax { .. }) => {}
            other => panic!("{bad:?}: expected Syntax error, got {other:?}"),
        }
    }
}

#[test]
fn deep_nesting_hits_the_recursion_cap_not_the_stack() {
    let deep = "[".repeat(10_000);
    assert!(matches!(
        json::parse(&deep),
        Err(DecodeError::Syntax { .. })
    ));
    let deep_objs = "{\"a\":".repeat(10_000);
    assert!(matches!(
        json::parse(&deep_objs),
        Err(DecodeError::Syntax { .. })
    ));
}

#[test]
fn wrong_shapes_are_schema_errors() {
    // Valid JSON, wrong schema: typed Schema errors, not panics.
    for bad in [
        "42",
        "\"no_such_variant\"",
        "{\"no_such_variant\":{}}",
        "{\"measure\":{}}",
        "{\"measure\":{\"spec\":1,\"vec\":{\"base\":0,\"stride\":1,\"len\":1},\"strategy\":\"auto\"}}",
    ] {
        match json::decode_request(bad) {
            Err(DecodeError::Schema { .. }) => {}
            other => panic!("{bad:?}: expected Schema error, got {other:?}"),
        }
    }
}

#[test]
fn invalid_vector_specs_surface_the_registry_error() {
    // Well-formed JSON whose VectorSpec violates its own invariants:
    // the decoder must route through `VectorSpec::new` and surface the
    // typed ConfigError, not construct an illegal spec.
    let zero_stride = "{\"measure\":{\"spec\":\"m\",\"vec\":{\"base\":0,\"stride\":0,\"len\":4},\"strategy\":\"auto\"}}";
    match json::decode_request(zero_stride) {
        Err(DecodeError::Invalid(ConfigError::ZeroStride)) => {}
        other => panic!("expected Invalid(ZeroStride), got {other:?}"),
    }
}

// ---------------------------------------------------------------
// Golden wire format
// ---------------------------------------------------------------

/// One instance of every frame envelope, every `Request`, `Response`
/// and `ServeError` variant, and every `ConfigError` field shape,
/// each paired with its encoding.
fn golden_cases() -> Vec<(&'static str, String)> {
    let measure = Request::Measure {
        spec: "xor-matched:t=3,s=4".to_string(),
        vec: vec_spec(16, 12, 64),
        strategy: Strategy::Auto,
    };
    let stats = ServiceStats {
        queue_depth: 3,
        in_flight: 2,
        cache: Some(CacheStats {
            hits: 10,
            misses: 20,
            evictions: 3,
            bypasses: 4,
            invalidations: 5,
            oversize: 6,
            entries: 17,
            bytes: 48_000,
            capacity_bytes: 65_536,
        }),
        retries: 6,
        restarts: 7,
        deadline_exceeded: 8,
        degraded: 9,
        faults_injected: 10,
        scheduler_predicted_conflicts_milli: 11,
        scheduler_actual_conflicts: 12,
        wire_connections: 13,
        wire_rejections: 14,
        wire_in_flight: 15,
    };
    let mut cases = vec![
        (
            "client hello",
            json::encode_client_frame(&ClientFrame::Hello {
                proto: frame::PROTOCOL_VERSION,
            }),
        ),
        (
            "client submit with budget",
            json::encode_client_frame(&ClientFrame::Submit {
                id: 42,
                request: measure.clone(),
                budget: Some(Duration::new(1, 250_000_000)),
            }),
        ),
        (
            "client submit without budget",
            json::encode_client_frame(&ClientFrame::Submit {
                id: u64::MAX,
                request: measure.clone(),
                budget: None,
            }),
        ),
        (
            "client stats",
            json::encode_client_frame(&ClientFrame::Stats { id: 7 }),
        ),
        (
            "server hello",
            json::encode_server_frame(&ServerFrame::Hello {
                proto: frame::PROTOCOL_VERSION,
                max_in_flight: 64,
            }),
        ),
        (
            "server result",
            json::encode_server_frame(&ServerFrame::Result {
                id: 3,
                result: Ok(Response::Measured(Some(access_stats(5)))),
            }),
        ),
        (
            "server stats",
            json::encode_server_frame(&ServerFrame::Stats { id: 5, stats }),
        ),
        (
            "server stats without cache",
            json::encode_service_stats(&ServiceStats {
                cache: None,
                ..stats
            }),
        ),
        (
            "server fatal",
            json::encode_server_frame(&ServerFrame::Fatal {
                reason: "bad \"hello\"\\\n\r\t\u{8}\u{c}\u{1}\u{1f} é ∑ 🦀".to_string(),
            }),
        ),
        ("request measure", json::encode_request(&measure)),
        (
            "request measure_batch",
            json::encode_request(&Request::MeasureBatch {
                spec: "interleave:t=2".to_string(),
                accesses: vec![
                    (vec_spec(0, 1, 8), Strategy::Canonical),
                    (vec_spec(64, -3, 16), Strategy::Subsequence),
                    (vec_spec(128, 32, 4), Strategy::ConflictFree),
                ],
            }),
        ),
        (
            "request family_sweep",
            json::encode_request(&Request::FamilySweep {
                spec: "xor-matched:t=3,s=4".to_string(),
                len: 256,
                max_x: 6,
                sigma: -5,
            }),
        ),
        (
            "request efficiency monte_carlo",
            json::encode_request(&Request::Efficiency {
                spec: "xor-matched:t=3,s=3".to_string(),
                strategy: Strategy::Auto,
                len: 64,
                estimator: Estimator::MonteCarlo {
                    samples: 500,
                    max_x: 8,
                    max_sigma: 63,
                },
                seed: u64::MAX,
            }),
        ),
        (
            "request efficiency stratified",
            json::encode_request(&Request::Efficiency {
                spec: "interleave:t=2".to_string(),
                strategy: Strategy::Canonical,
                len: 128,
                estimator: Estimator::Stratified {
                    max_x: 10,
                    per_family: 40,
                },
                seed: 0,
            }),
        ),
    ];
    for (label, policy, schedule) in [
        (
            "request multi_stream together",
            IssuePolicy::RoundRobin,
            SchedulePlan::Together,
        ),
        (
            "request multi_stream fifo_waves",
            IssuePolicy::Priority,
            SchedulePlan::FifoWaves { width: 2 },
        ),
        (
            "request multi_stream conflict_aware",
            IssuePolicy::WorkConserving,
            SchedulePlan::ConflictAware {
                width: 3,
                max_score_milli: 1500,
            },
        ),
    ] {
        cases.push((
            label,
            json::encode_request(&Request::MultiStream {
                spec: "xor-matched:t=3,s=4".to_string(),
                streams: vec![vec_spec(0, 1, 64), vec_spec(64, -2, 32)],
                strategy: Strategy::ConflictFree,
                policy,
                schedule,
            }),
        ));
    }
    let point = FamilyPoint {
        x: 5,
        stride: -96,
        latency: 901,
        conflicts: 320,
        stall_cycles: 512,
        cycles_per_element: 0.1 + 0.2,
    };
    cases.extend([
        (
            "response measured",
            json::encode_response(&Response::Measured(Some(access_stats(17)))),
        ),
        (
            "response measured none",
            json::encode_response(&Response::Measured(None)),
        ),
        (
            "response batch",
            json::encode_response(&Response::Batch(vec![Some(access_stats(1)), None])),
        ),
        (
            "response family_sweep",
            json::encode_response(&Response::FamilySweep(vec![
                point.clone(),
                FamilyPoint {
                    cycles_per_element: 1.0,
                    ..point.clone()
                },
            ])),
        ),
        (
            "response multi_stream",
            json::encode_response(&Response::MultiStream(MultiStreamOutcome {
                per_stream: vec![StreamSummary {
                    wave: 1,
                    elements: 32,
                    first_issue: 2,
                    latency: 120,
                    spread: 80,
                    conflicts: 17,
                    stall_cycles: 9,
                }],
                wave_makespans: vec![73, 130],
                makespan: 203,
                sequential_baseline: 193,
                predicted_conflicts_milli: 2125,
                actual_conflicts: 17,
            })),
        ),
        (
            "response degraded",
            json::encode_response(&Response::Degraded {
                response: Box::new(Response::FamilySweep(vec![point])),
                exact: false,
            }),
        ),
    ]);
    for (label, eta) in [
        ("response efficiency", 0.875),
        ("response efficiency tiny", 5e-324),
        ("response efficiency huge", 1e300),
        ("response efficiency negative zero", -0.0),
        ("response efficiency nan", f64::NAN),
        ("response efficiency inf", f64::INFINITY),
        ("response efficiency -inf", f64::NEG_INFINITY),
    ] {
        cases.push((label, json::encode_response(&Response::Efficiency(eta))));
    }
    cases.extend([
        (
            "error overloaded",
            json::encode_serve_error(&ServeError::Overloaded {
                queue_depth: 129,
                capacity: 128,
            }),
        ),
        (
            "error shutting_down",
            json::encode_serve_error(&ServeError::ShuttingDown),
        ),
        (
            "error request",
            json::encode_serve_error(&ServeError::Request(ConfigError::ZeroStride)),
        ),
        (
            "error deadline_exceeded",
            json::encode_serve_error(&ServeError::DeadlineExceeded {
                budget: Duration::new(3, 141_592_653),
            }),
        ),
        (
            "error worker_panicked",
            json::encode_serve_error(&ServeError::WorkerPanicked {
                attempts: 4,
                message: "index out of bounds".to_string(),
            }),
        ),
        (
            "result ok",
            json::encode_serve_result(&Ok(Response::Efficiency(1.0))),
        ),
        (
            "result err",
            json::encode_serve_result(&Err(ServeError::ShuttingDown)),
        ),
    ]);
    for e in all_config_errors() {
        cases.push(("error spec", json::encode_serve_error(&ServeError::Spec(e))));
    }
    cases
}

/// The exact text of every `golden_cases` encoding, recorded from the
/// `Value`-tree encoder the direct codec replaced. Changing one byte
/// here changes the wire format, which needs a `PROTOCOL_VERSION`
/// bump.
const GOLDEN: &[(&str, &str)] = &[
    ("client hello", r#"{"hello":{"proto":3}}"#),
    (
        "client submit with budget",
        r#"{"submit":{"id":42,"request":{"measure":{"spec":"xor-matched:t=3,s=4","vec":{"base":16,"stride":12,"len":64},"strategy":"auto"}},"budget":{"secs":1,"nanos":250000000}}}"#,
    ),
    (
        "client submit without budget",
        r#"{"submit":{"id":18446744073709551615,"request":{"measure":{"spec":"xor-matched:t=3,s=4","vec":{"base":16,"stride":12,"len":64},"strategy":"auto"}}}}"#,
    ),
    ("client stats", r#"{"stats":{"id":7}}"#),
    (
        "server hello",
        r#"{"hello":{"proto":3,"max_in_flight":64}}"#,
    ),
    (
        "server result",
        r#"{"result":{"id":3,"result":{"ok":{"measured":{"latency":105,"elements":64,"stall_cycles":5,"conflicts":0,"arrival":[5,6,8,14],"module_busy":[8,9,10,5],"max_in_q":1}}}}}"#,
    ),
    (
        "server stats",
        r#"{"stats":{"id":5,"stats":{"queue_depth":3,"in_flight":2,"cache":{"hits":10,"misses":20,"evictions":3,"bypasses":4,"invalidations":5,"oversize":6,"entries":17,"bytes":48000,"capacity_bytes":65536},"retries":6,"restarts":7,"deadline_exceeded":8,"degraded":9,"faults_injected":10,"scheduler_predicted_conflicts_milli":11,"scheduler_actual_conflicts":12,"wire_connections":13,"wire_rejections":14,"wire_in_flight":15}}}"#,
    ),
    (
        "server stats without cache",
        r#"{"queue_depth":3,"in_flight":2,"cache":null,"retries":6,"restarts":7,"deadline_exceeded":8,"degraded":9,"faults_injected":10,"scheduler_predicted_conflicts_milli":11,"scheduler_actual_conflicts":12,"wire_connections":13,"wire_rejections":14,"wire_in_flight":15}"#,
    ),
    (
        "server fatal",
        r#"{"fatal":{"reason":"bad \"hello\"\\\n\r\t\b\f\u0001\u001f é ∑ 🦀"}}"#,
    ),
    (
        "request measure",
        r#"{"measure":{"spec":"xor-matched:t=3,s=4","vec":{"base":16,"stride":12,"len":64},"strategy":"auto"}}"#,
    ),
    (
        "request measure_batch",
        r#"{"measure_batch":{"spec":"interleave:t=2","accesses":[{"vec":{"base":0,"stride":1,"len":8},"strategy":"canonical"},{"vec":{"base":64,"stride":-3,"len":16},"strategy":"subsequence"},{"vec":{"base":128,"stride":32,"len":4},"strategy":"conflict-free"}]}}"#,
    ),
    (
        "request family_sweep",
        r#"{"family_sweep":{"spec":"xor-matched:t=3,s=4","len":256,"max_x":6,"sigma":-5}}"#,
    ),
    (
        "request efficiency monte_carlo",
        r#"{"efficiency":{"spec":"xor-matched:t=3,s=3","strategy":"auto","len":64,"estimator":{"monte_carlo":{"samples":500,"max_x":8,"max_sigma":63}},"seed":18446744073709551615}}"#,
    ),
    (
        "request efficiency stratified",
        r#"{"efficiency":{"spec":"interleave:t=2","strategy":"canonical","len":128,"estimator":{"stratified":{"max_x":10,"per_family":40}},"seed":0}}"#,
    ),
    (
        "request multi_stream together",
        r#"{"multi_stream":{"spec":"xor-matched:t=3,s=4","streams":[{"base":0,"stride":1,"len":64},{"base":64,"stride":-2,"len":32}],"strategy":"conflict-free","policy":"round-robin","schedule":"together"}}"#,
    ),
    (
        "request multi_stream fifo_waves",
        r#"{"multi_stream":{"spec":"xor-matched:t=3,s=4","streams":[{"base":0,"stride":1,"len":64},{"base":64,"stride":-2,"len":32}],"strategy":"conflict-free","policy":"priority","schedule":{"fifo_waves":{"width":2}}}}"#,
    ),
    (
        "request multi_stream conflict_aware",
        r#"{"multi_stream":{"spec":"xor-matched:t=3,s=4","streams":[{"base":0,"stride":1,"len":64},{"base":64,"stride":-2,"len":32}],"strategy":"conflict-free","policy":"work-conserving","schedule":{"conflict_aware":{"width":3,"max_score_milli":1500}}}}"#,
    ),
    (
        "response measured",
        r#"{"measured":{"latency":117,"elements":64,"stall_cycles":3,"conflicts":2,"arrival":[17,18,20,26],"module_busy":[8,9,10,6],"max_in_q":1}}"#,
    ),
    ("response measured none", r#"{"measured":null}"#),
    (
        "response batch",
        r#"{"batch":[{"latency":101,"elements":64,"stall_cycles":1,"conflicts":1,"arrival":[1,2,4,10],"module_busy":[8,9,10,1],"max_in_q":1},null]}"#,
    ),
    (
        "response family_sweep",
        r#"{"family_sweep":[{"x":5,"stride":-96,"latency":901,"conflicts":320,"stall_cycles":512,"cycles_per_element":0.30000000000000004},{"x":5,"stride":-96,"latency":901,"conflicts":320,"stall_cycles":512,"cycles_per_element":1.0}]}"#,
    ),
    (
        "response multi_stream",
        r#"{"multi_stream":{"per_stream":[{"wave":1,"elements":32,"first_issue":2,"latency":120,"spread":80,"conflicts":17,"stall_cycles":9}],"wave_makespans":[73,130],"makespan":203,"sequential_baseline":193,"predicted_conflicts_milli":2125,"actual_conflicts":17}}"#,
    ),
    (
        "response degraded",
        r#"{"degraded":{"response":{"family_sweep":[{"x":5,"stride":-96,"latency":901,"conflicts":320,"stall_cycles":512,"cycles_per_element":0.30000000000000004}]},"exact":false}}"#,
    ),
    ("response efficiency", r#"{"efficiency":0.875}"#),
    ("response efficiency tiny", r#"{"efficiency":5e-324}"#),
    ("response efficiency huge", r#"{"efficiency":1e300}"#),
    (
        "response efficiency negative zero",
        r#"{"efficiency":-0.0}"#,
    ),
    ("response efficiency nan", r#"{"efficiency":"nan"}"#),
    ("response efficiency inf", r#"{"efficiency":"inf"}"#),
    ("response efficiency -inf", r#"{"efficiency":"-inf"}"#),
    (
        "error overloaded",
        r#"{"overloaded":{"queue_depth":129,"capacity":128}}"#,
    ),
    ("error shutting_down", r#""shutting_down""#),
    ("error request", r#"{"request":"zero_stride"}"#),
    (
        "error deadline_exceeded",
        r#"{"deadline_exceeded":{"secs":3,"nanos":141592653}}"#,
    ),
    (
        "error worker_panicked",
        r#"{"worker_panicked":{"attempts":4,"message":"index out of bounds"}}"#,
    ),
    ("result ok", r#"{"ok":{"efficiency":1.0}}"#),
    ("result err", r#"{"err":"shutting_down"}"#),
    (
        "error spec",
        r#"{"spec":{"not_power_of_two":{"what":"modules","value":12}}}"#,
    ),
    (
        "error spec",
        r#"{"spec":{"out_of_range":{"what":"s","value":3,"constraint":"s >= t"}}}"#,
    ),
    ("error spec", r#"{"spec":"zero_stride"}"#),
    ("error spec", r#"{"spec":"singular_matrix"}"#),
    ("error spec", r#"{"spec":"address_overflow"}"#),
    (
        "error spec",
        r#"{"spec":{"spec_syntax":{"spec":"xor:","reason":"empty key"}}}"#,
    ),
    (
        "error spec",
        r#"{"spec":{"unknown_map":{"name":"warp","registered":["xor","interleave"]}}}"#,
    ),
    (
        "error spec",
        r#"{"spec":{"missing_key":{"map":"xor","key":"t"}}}"#,
    ),
    (
        "error spec",
        r#"{"spec":{"unknown_key":{"map":"xor","key":"q","accepted":["t","s"]}}}"#,
    ),
    ("error spec", r#"{"spec":{"duplicate_key":{"key":"t"}}}"#),
    (
        "error spec",
        r#"{"spec":{"invalid_value":{"key":"t","value":"x9","expected":"an unsigned integer"}}}"#,
    ),
    (
        "error spec",
        r#"{"spec":{"matrix_file":{"path":"m.txt","reason":"no such file"}}}"#,
    ),
    ("error spec", r#"{"spec":{"duplicate_map":{"name":"xor"}}}"#),
];

#[test]
fn wire_format_matches_the_golden_text() {
    assert_eq!(
        frame::PROTOCOL_VERSION,
        3,
        "the golden text below is protocol version 3"
    );
    let cases = golden_cases();
    assert_eq!(cases.len(), GOLDEN.len(), "one golden text per case");
    for ((label, text), (golden_label, golden)) in cases.iter().zip(GOLDEN) {
        assert_eq!(label, golden_label, "case order changed");
        assert_eq!(text, golden, "{label}: the encoding changed");
    }
}

// ---------------------------------------------------------------
// Decoder tolerance and adversarial input
// ---------------------------------------------------------------

#[test]
fn loose_frames_decode_like_their_canonical_text() {
    // Every key reordered, whitespace around every token, unknown keys
    // holding objects and arrays, and an escaped `spec`.
    let canonical = ClientFrame::Submit {
        id: 42,
        request: Request::Measure {
            spec: "xor-matched:t=3,s=4".to_string(),
            vec: vec_spec(16, 12, 64),
            strategy: Strategy::Auto,
        },
        budget: Some(Duration::new(1, 5)),
    };
    let loose = concat!(
        " { \"submit\" : { \"budget\" : { \"nanos\" : 5 , \"secs\" : 1 } ,\n",
        "\t\"extra\" : { \"a\" : [ 1 , { \"b\" : null } ] , \"c\" : \"\\u0041\" } ,\r\n",
        " \"request\" : { \"measure\" : { \"strategy\" : \"auto\" ,",
        " \"notes\" : [ \"x\" , -2.5e3 , true , [ ] , { } ] ,",
        " \"vec\" : { \"len\" : 64 , \"stride\" : 12 , \"base\" : 16 } ,",
        " \"spec\" : \"xor\\u002dmatched:t\\u003d3,s=4\" } } , \"id\" : 42 } } \n",
    );
    assert_eq!(
        json::decode_client_frame(loose).expect("a loose client frame decodes"),
        canonical
    );

    let loose = concat!(
        "{ \"measured\" : { \"max_in_q\" : 1 , \"arrival\" : [ 9 , 10 , 12 , 18 ] ,",
        " \"module_busy\" : [8,9,10,9] , \"unknown\" : [ [ ] , { \"k\" : [ ] } ] ,",
        " \"conflicts\" : 4 , \"stall_cycles\" : 2 , \"elements\" : 64 , \"latency\" : 109 } }",
    );
    assert_eq!(
        json::decode_response(loose).expect("a loose response decodes"),
        Response::Measured(Some(access_stats(9)))
    );

    let loose = concat!(
        "{\"result\": {\"result\": {\"ok\": {\"efficiency\": 0.875}}, \"trace\": [1, {}],",
        " \"id\": 3}}",
    );
    let back = json::decode_server_frame(loose).expect("a loose server frame decodes");
    assert_eq!(
        json::encode_server_frame(&back),
        r#"{"result":{"id":3,"result":{"ok":{"efficiency":0.875}}}}"#
    );
}

#[test]
fn a_duplicate_key_takes_its_first_value() {
    let text = concat!(
        r#"{"measure":{"spec":"first","spec":"second","#,
        r#""vec":{"base":16,"stride":12,"len":64,"len":"not a number"},"#,
        r#""strategy":"auto","strategy":7}}"#,
    );
    assert_eq!(
        json::decode_request(text).expect("duplicate keys decode"),
        Request::Measure {
            spec: "first".to_string(),
            vec: vec_spec(16, 12, 64),
            strategy: Strategy::Auto,
        }
    );
}

#[test]
fn deep_degraded_chains_hit_the_depth_cap_not_the_stack() {
    let open = "{\"degraded\":{\"response\":".repeat(10_000);
    assert!(matches!(
        json::decode_response(&open),
        Err(DecodeError::Syntax { .. })
    ));
    let frame = format!("{{\"result\":{{\"id\":1,\"result\":{{\"ok\":{open}");
    assert!(matches!(
        json::decode_server_frame(&frame),
        Err(DecodeError::Syntax { .. })
    ));
    // Closed and otherwise well-formed, the chain is still too deep.
    let closed = format!(
        "{open}{{\"measured\":null}}{}",
        ",\"exact\":true}}".repeat(10_000)
    );
    assert!(matches!(
        json::decode_response(&closed),
        Err(DecodeError::Syntax { .. })
    ));
    // A chain well inside the cap decodes.
    let mut nested = Response::Measured(None);
    for _ in 0..20 {
        nested = Response::Degraded {
            response: Box::new(nested),
            exact: true,
        };
    }
    rt_response(&nested);
}

#[test]
fn malformed_text_after_a_shape_problem_is_still_a_syntax_error() {
    for bad in [
        // A wrong-typed field, then a trailing comma.
        r#"{"measure":{"spec":1,"vec":{"base":0,"stride":1,"len":1},"strategy":"auto",}}"#,
        // An unknown variant whose body is malformed.
        r#"{"no_such_variant":{"a":[1,2,}}"#,
        // Two variant tags, the second value malformed.
        r#"{"measure":{},"extra":tru}"#,
        // A shape problem, then trailing data.
        r#"{"measure":{}} x"#,
        // An invalid vector spec, then a bad escape in an unknown key.
        r#"{"measure":{"vec":{"base":0,"stride":0,"len":4},"junk":"\q","spec":"m","strategy":"auto"}}"#,
        // A wrong-typed field, then an integer past u64.
        r#"{"measure":{"spec":false,"junk":99999999999999999999999}}"#,
    ] {
        match json::decode_request(bad) {
            Err(DecodeError::Syntax { .. }) => {}
            other => panic!("{bad:?}: expected Syntax error, got {other:?}"),
        }
    }
    // Well-formed, reordered, with a zero stride: the constructor's own
    // error, not a shape error.
    let zero_stride =
        r#"{"measure":{"strategy":"auto","vec":{"len":4,"stride":0,"base":0},"spec":"m"}}"#;
    match json::decode_request(zero_stride) {
        Err(DecodeError::Invalid(ConfigError::ZeroStride)) => {}
        other => panic!("expected Invalid(ZeroStride), got {other:?}"),
    }
}

#[test]
fn integers_encode_as_their_decimal_text_at_every_power_of_ten() {
    let mut values = vec![0, u64::MAX];
    for k in 0..=19 {
        let p = 10u64.pow(k);
        values.extend([p - 1, p, p + 1]);
    }
    for &v in &values {
        let text = json::encode_response(&Response::Measured(Some(AccessStats {
            latency: v,
            arrival: values.clone().into(),
            ..access_stats(0)
        })));
        assert!(
            text.starts_with(&format!("{{\"measured\":{{\"latency\":{v},")),
            "{v}: {text}"
        );
        let arrival: Vec<String> = values.iter().map(u64::to_string).collect();
        assert!(
            text.contains(&format!("\"arrival\":[{}]", arrival.join(","))),
            "{text}"
        );
    }
}

/// A splitmix64 step: the integer-array property's own word stream.
fn next_word(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A value of one of the widths the one-pass array reader must tell
/// apart: zero, short, 19 digits, 20 digits, `u64::MAX`, any.
fn array_value(state: &mut u64) -> u64 {
    const E18: u64 = 1_000_000_000_000_000_000;
    const E19: u64 = 10_000_000_000_000_000_000;
    let w = next_word(state);
    match w % 6 {
        0 => 0,
        1 => u64::MAX,
        2 => w % 1000,
        3 => E18 + w % (E19 - E18),
        4 => E19 + w % (u64::MAX - E19),
        _ => w,
    }
}

// ---------------------------------------------------------------
// Property tests
// ---------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn prop_measure_requests_round_trip(
        // Base far enough from zero that a negative stride cannot walk
        // the stream below address 0 (VectorSpec rejects that).
        base in 3_000_000u64..10_000_000,
        stride in -4096i64..4096,
        len in 1u64..512,
        strat in prop::sample::select(vec![
            Strategy::Canonical,
            Strategy::Subsequence,
            Strategy::ConflictFree,
            Strategy::Auto,
        ]),
    ) {
        prop_assume!(stride != 0);
        let r = Request::Measure {
            spec: format!("xor-matched:t=3,s={}", 3 + (base % 4)),
            vec: VectorSpec::new(base, stride, len).expect("valid by construction"),
            strategy: strat,
        };
        let text = json::encode_request(&r);
        prop_assert_eq!(json::decode_request(&text).expect("decodes"), r);
    }

    #[test]
    fn prop_multi_stream_requests_round_trip(
        n in 0usize..6,
        seed in 0u64..1_000_000,
        width in 1u32..5,
        policy in prop::sample::select(vec![
            IssuePolicy::RoundRobin,
            IssuePolicy::Priority,
            IssuePolicy::WorkConserving,
        ]),
    ) {
        let streams: Vec<VectorSpec> = (0..n)
            .map(|i| {
                let i = u64::try_from(i).expect("small");
                let stride = 1 + i64::try_from((seed + i) % 97).expect("small");
                VectorSpec::new(seed + i * 64, stride, 1 + (seed + i) % 128)
                    .expect("valid by construction")
            })
            .collect();
        let r = Request::MultiStream {
            spec: "xor-matched:t=3,s=4".to_string(),
            streams,
            strategy: Strategy::Auto,
            policy,
            schedule: SchedulePlan::ConflictAware {
                width,
                max_score_milli: u32::try_from(seed % 3000).expect("small"),
            },
        };
        let text = json::encode_request(&r);
        prop_assert_eq!(json::decode_request(&text).expect("decodes"), r);
    }

    #[test]
    fn prop_floats_round_trip_bit_exact(bits in 0u64..u64::MAX) {
        let eta = f64::from_bits(bits);
        prop_assume!(!eta.is_nan());
        let text = json::encode_response(&Response::Efficiency(eta));
        match json::decode_response(&text).expect("decodes") {
            Response::Efficiency(back) => {
                prop_assert_eq!(back.to_bits(), eta.to_bits(), "text was {}", text);
            }
            other => return Err(TestCaseError::fail(format!("wrong shape {other:?}"))),
        }
    }

    #[test]
    fn prop_service_stats_round_trip(a in 0u64..u64::MAX, b in 0usize..100_000) {
        let stats = ServiceStats {
            queue_depth: b,
            in_flight: b / 2,
            cache: if a % 2 == 0 {
                Some(CacheStats {
                    hits: a,
                    misses: a / 3,
                    evictions: a % 101,
                    bypasses: a % 7,
                    invalidations: a % 11,
                    oversize: a % 5,
                    entries: b % 257,
                    bytes: b * 3,
                    capacity_bytes: 1 + b % 1024 * 8,
                })
            } else {
                None
            },
            retries: a % 13,
            restarts: a % 17,
            deadline_exceeded: a % 19,
            degraded: a % 23,
            faults_injected: a % 29,
            scheduler_predicted_conflicts_milli: a % 47,
            scheduler_actual_conflicts: a % 53,
            wire_connections: a % 59,
            wire_rejections: a % 61,
            wire_in_flight: b % 67,
        };
        let text = json::encode_service_stats(&stats);
        prop_assert_eq!(json::decode_service_stats(&text).expect("decodes"), stats);
    }

    /// The one-pass integer-array reader returns exactly what the
    /// general item-by-item reader returns, consuming the same bytes,
    /// or consumes nothing and falls back. It must take every compact
    /// array of values up to 19 digits.
    #[test]
    fn prop_one_pass_uint_arrays_match_the_general_reader(
        seed in 0u64..u64::MAX,
        len in 0usize..24,
        shape in 0usize..10,
        at in 0usize..1000,
    ) {
        let mut state = seed;
        let values: Vec<u64> = (0..len).map(|_| array_value(&mut state)).collect();
        let mut items: Vec<String> = values.iter().map(u64::to_string).collect();
        let well_formed = match shape {
            3 if !items.is_empty() => {
                items.insert(at % (items.len() + 1), String::new());
                false
            }
            4 => {
                items.push(String::new());
                false
            }
            6 if !items.is_empty() => {
                let i = at % items.len();
                items[i].insert(0, if at % 2 == 0 { '-' } else { '+' });
                false
            }
            7 => {
                items.insert(at % (items.len() + 1), "18446744073709551616".to_string());
                false
            }
            _ => true,
        };
        let mut body = format!("[{}]", items.join(","));
        let well_formed = match shape {
            5 => {
                // Whitespace between tokens: valid JSON, not compact.
                let gaps: Vec<usize> = body.match_indices(['[', ',']).map(|(i, _)| i + 1).collect();
                body.insert(gaps[at % gaps.len()], ' ');
                well_formed
            }
            8 => {
                body.pop();
                false
            }
            _ => well_formed,
        };
        // Text after the array, as inside a document.
        let text = if shape == 8 { body } else { format!("{body},\"next\":[7]}}") };

        let json::UintArrayReads { one_pass, one_pass_end, general, general_end } =
            json::uint_array_readers(&text);
        match one_pass {
            Some(read) => {
                prop_assert_eq!(general, Ok(read), "text was {}", text);
                prop_assert_eq!(one_pass_end, general_end, "text was {}", text);
            }
            None => {
                prop_assert_eq!(one_pass_end, 0, "a fallback consumed bytes of {}", text);
                let plain = shape != 5 && values.iter().all(|v| v.to_string().len() <= 19);
                prop_assert!(!(well_formed && plain), "the one-pass reader refused {}", text);
                if well_formed {
                    prop_assert_eq!(general, Ok(values), "text was {}", text);
                }
            }
        }
    }

    #[test]
    fn prop_parser_never_panics_on_mutated_input(
        seed in 0u64..u64::MAX,
        cut in 0usize..200,
        flip in 0usize..200,
    ) {
        // Take a valid encoding, truncate it and flip a byte: decode
        // must return (Ok or typed Err), never panic.
        let r = Request::Efficiency {
            spec: "xor-matched:t=3,s=3".to_string(),
            strategy: Strategy::Auto,
            len: 1 + seed % 256,
            estimator: Estimator::MonteCarlo {
                samples: 100,
                max_x: 8,
                max_sigma: 63,
            },
            seed,
        };
        let text = json::encode_request(&r);
        let cut = cut.min(text.len());
        let mut bytes = text.as_bytes()[..cut].to_vec();
        if !bytes.is_empty() {
            let at = flip % bytes.len();
            bytes[at] = bytes[at].wrapping_add(1 + (seed % 255) as u8);
        }
        if let Ok(mutated) = String::from_utf8(bytes) {
            let _ = json::decode_request(&mutated);
        }
        // Same property through the frame layer, with a hostile frame.
        let mut framed = Vec::new();
        frame::write_frame(&mut framed, &text).expect("write");
        let keep = cut.min(framed.len());
        let _ = frame::read_frame(&mut Cursor::new(&framed[..keep]));

        // A mutated `Measured` result frame: the typed decoder must not
        // panic, and must call the text malformed exactly when the
        // generic parser does.
        let text = json::encode_server_frame(&ServerFrame::Result {
            id: seed,
            result: Ok(Response::Measured(Some(access_stats(seed % 1000)))),
        });
        let mut bytes = text.as_bytes()[..cut.min(text.len())].to_vec();
        if !bytes.is_empty() {
            let at = flip % bytes.len();
            bytes[at] = bytes[at].wrapping_add(1 + (seed % 255) as u8);
        }
        if let Ok(mutated) = String::from_utf8(bytes) {
            let typed = json::decode_server_frame(&mutated);
            prop_assert_eq!(
                matches!(typed, Err(DecodeError::Syntax { .. })),
                json::parse(&mutated).is_err(),
                "text was {}",
                mutated
            );
        }
    }
}
