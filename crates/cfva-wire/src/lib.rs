//! # cfva-wire — a TCP front door for the serve substrate
//!
//! Everything `cfva-serve` can do in-process, over a socket: the
//! typed [`Request`](cfva_serve::api::Request) /
//! [`Response`](cfva_serve::api::Response) schema travels as
//! length-prefixed JSON frames between a [`client::WireClient`] and a
//! [`server::WireServer`] that feeds
//! [`Service::submit_with_wake`](cfva_serve::service::Service::submit_with_wake).
//!
//! The crate is dependency-free by policy (no external serde — the
//! workspace vendors its dependencies), so the codec is hand-rolled:
//!
//! * [`json`] — a direct codec for every API type that crosses the
//!   wire (`Request`, `Response`, `ServeError`, `ServiceStats`, and the
//!   frame envelopes): each type writes its JSON straight into a
//!   caller-owned buffer and reads itself straight off one
//!   recursion-capped lexer, with no document tree in between. The
//!   same lexer backs a small generic document API ([`json::Value`],
//!   [`json::parse`]). Round-trips are bit-identical — proven by
//!   proptest in `tests/codec_roundtrip.rs`, which also pins the exact
//!   text of every variant, and cfva-lint's L004 refuses any API
//!   variant the round-trip suite does not reach.
//! * [`frame`] — the transport framing: a big-endian `u32` payload
//!   length followed by that many bytes of UTF-8 JSON, with an
//!   oversize cap and typed errors for truncation, bad lengths and
//!   invalid UTF-8. Both ends queue frames, length words and payloads,
//!   in one reused per-connection buffer and send each burst with one
//!   write, and read every frame into one reused buffer. A versioned
//!   hello opens every connection.
//! * [`server`] — [`server::WireServer`]: one acceptor thread and
//!   per-connection reader/writer threads. The reader answers what
//!   needs no waiting (cache hits, stats, rejections) on its own
//!   thread, flushing once per burst; the writer is completion-driven:
//!   each request's wake hook tells it a response is ready, and it
//!   otherwise sleeps until the next message or the earliest pending
//!   deadline (responses are correlated by `request_id` and may return
//!   out of submission order). A client that stops reading stalls its
//!   connection without wedging the reader. Per-connection admission
//!   caps surface typed
//!   [`ServeError::Overloaded`](cfva_serve::api::ServeError) and
//!   [`ServeError::ShuttingDown`](cfva_serve::api::ServeError) on the
//!   wire, and a graceful drain: shutdown stops accepting, flushes
//!   every accepted ticket to its client (giving up a client that has
//!   stopped reading after a bounded stall), then closes.
//! * [`client`] — [`client::WireClient`]: a blocking
//!   connect/submit/wait API mirroring `Service`, so callers can swap
//!   transports without restructuring. A submit only queues its frame:
//!   queued submits leave in one write before the client blocks on a
//!   read, in `stats` (a barrier), past 64 KiB, and on drop.
//!
//! Locking reuses `cfva-serve`'s [`ClassedMutex`] leaf discipline
//! (classes `WireConns`, `WireIntern` and `WireSink`) — no new lock
//! hierarchy,
//! and the same static (L001) and debug-build dynamic checkers apply.
//!
//! ```no_run
//! use cfva_serve::api::{Request, Response};
//! use cfva_serve::service::{Service, ServiceConfig};
//! use cfva_core::plan::Strategy;
//! use cfva_core::VectorSpec;
//! use cfva_wire::client::WireClient;
//! use cfva_wire::server::{WireServer, WireServerConfig};
//! use std::sync::Arc;
//!
//! let service = Arc::new(Service::new(ServiceConfig::default()));
//! let server = WireServer::bind(
//!     Arc::clone(&service),
//!     "127.0.0.1:0",
//!     WireServerConfig::default(),
//! )?;
//!
//! let mut client = WireClient::connect(server.local_addr())?;
//! let ticket = client.submit(Request::Measure {
//!     spec: "xor-matched:t=3,s=3".into(),
//!     vec: VectorSpec::new(16, 12, 64)?,
//!     strategy: Strategy::Auto,
//! })?;
//! match client.wait(ticket)?? {
//!     Response::Measured(Some(stats)) => assert_eq!(stats.latency, 8 + 64 + 1),
//!     other => panic!("unexpected response {other:?}"),
//! }
//!
//! drop(client);
//! server.shutdown();
//! service.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod client;
pub mod frame;
pub mod json;
pub mod server;

/// Errors a wire endpoint can surface to its caller: transport
/// (framing/IO), codec (malformed or mis-shaped JSON), or protocol
/// (well-formed frames in an order or shape the handshake forbids).
///
/// Service-level failures ([`cfva_serve::api::ServeError`]) are *not*
/// wire errors — they travel inside a successful
/// [`frame`]d response, exactly as `Service::submit` returns them
/// in-process.
#[derive(Debug)]
pub enum WireError {
    /// The transport failed: IO error, truncated or oversize frame,
    /// or a payload that was not UTF-8.
    Frame(frame::FrameError),
    /// A frame's JSON payload did not decode to the expected type.
    Decode(json::DecodeError),
    /// Frames arrived in an order or shape the protocol forbids
    /// (missing hello, unsupported version, unknown envelope).
    Protocol {
        /// Human-readable description of the violation.
        reason: String,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Frame(e) => write!(f, "frame error: {e}"),
            WireError::Decode(e) => write!(f, "decode error: {e}"),
            WireError::Protocol { reason } => write!(f, "protocol error: {reason}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<frame::FrameError> for WireError {
    fn from(e: frame::FrameError) -> Self {
        WireError::Frame(e)
    }
}

impl From<json::DecodeError> for WireError {
    fn from(e: json::DecodeError) -> Self {
        WireError::Decode(e)
    }
}
