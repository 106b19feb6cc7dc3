//! The calling side of the wire: a blocking client mirroring the
//! in-process [`Service`](cfva_serve::service::Service) surface.
//!
//! [`WireClient::submit`] returns a [`WireTicket`] the way
//! `Service::submit` returns a `ServeTicket`; [`WireClient::wait`]
//! blocks until *that* ticket's result arrives. Because the server
//! reaps tickets in completion order, results may arrive out of
//! submission order — the client stashes early arrivals by
//! `request_id` and hands each one to whichever `wait` asked for it,
//! so callers can pipeline submissions and collect results in any
//! order over one connection.
//!
//! # When a submit leaves
//!
//! A submit only queues its frame. Queued frames leave together, in
//! one write, under the flush rule the server obeys too: before any
//! read that can block (inside `wait` or `stats` when no whole answer
//! is buffered yet), in [`stats`](WireClient::stats), once 64 KiB are
//! queued, and, best effort, when the client is dropped. So a
//! pipelined burst costs one `send`, not one per request. A deadline
//! budget starts when the server receives the frame, not at `submit`.
//! A caller that waits for the server's side effects elsewhere (on
//! another connection, or in process) calls
//! [`stats`](WireClient::stats) first: it returns only after the
//! server has read every earlier submit.
//!
//! The client is deliberately single-threaded (`&mut self`
//! everywhere, no locks): one connection, one caller. Fan-out across
//! threads wants one client per thread — connections are cheap and
//! the server's admission caps are per-connection anyway.

use std::collections::HashMap;
use std::io::BufReader;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use cfva_serve::api::{Request, ServeResult};
use cfva_serve::service::ServiceStats;

use crate::frame::{self, Outbox, PROTOCOL_VERSION};
use crate::json::{self, ClientFrame, ServerFrame};
use crate::WireError;

/// Queued bytes that make a submit flush (64 KiB): a caller that
/// never waits cannot grow the client's memory without bound.
const FLUSH_BYTES: usize = 64 << 10;

/// How long the flush on drop may wait for a server that stopped
/// reading before it gives the queued frames up.
const DROP_STALL: Duration = Duration::from_millis(100);

/// A handle for one in-flight wire request, redeemed with
/// [`WireClient::wait`]. Dropping it without waiting abandons the
/// response: a later `wait` or `stats` that reads it along the way
/// stashes it, and it is freed only when the client is dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WireTicket {
    id: u64,
}

impl WireTicket {
    /// The `request_id` correlating this ticket with its response
    /// frame.
    #[must_use]
    pub fn request_id(&self) -> u64 {
        self.id
    }
}

/// A blocking TCP client for a [`server::WireServer`](crate::server::WireServer).
#[derive(Debug)]
pub struct WireClient {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    /// Submits not yet sent; they leave together in one write.
    outbox: Outbox,
    /// The reused receive buffer: each answer's payload, in turn.
    payload: Vec<u8>,
    next_id: u64,
    /// The per-connection in-flight cap the server announced in its
    /// hello.
    max_in_flight: u32,
    /// Results that arrived while `wait` was looking for a different
    /// id, keyed by `request_id`.
    stash: HashMap<u64, ServeResult>,
}

impl WireClient {
    /// Connects and performs the versioned hello exchange.
    ///
    /// Fails with [`WireError::Protocol`] if the server's first frame
    /// is not a hello (e.g. a `Fatal` refusing our protocol version).
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<WireClient, WireError> {
        let writer = TcpStream::connect(addr).map_err(frame::FrameError::Io)?;
        // A burst leaves in one write and the client then waits for
        // the answers: TCP_NODELAY sends it at once instead of letting
        // Nagle hold it behind the server's delayed ACK. Best effort.
        let _ = writer.set_nodelay(true);
        let read_half = writer.try_clone().map_err(frame::FrameError::Io)?;
        let mut client = WireClient {
            writer,
            reader: BufReader::new(read_half),
            outbox: Outbox::default(),
            payload: Vec::new(),
            next_id: 0,
            max_in_flight: 0,
            stash: HashMap::new(),
        };
        client.outbox.push(&ClientFrame::Hello {
            proto: PROTOCOL_VERSION,
        })?;
        match client.recv()? {
            ServerFrame::Hello {
                proto,
                max_in_flight,
            } => {
                if proto != PROTOCOL_VERSION {
                    return Err(WireError::Protocol {
                        reason: format!(
                            "server answered protocol version {proto}, expected {PROTOCOL_VERSION}"
                        ),
                    });
                }
                client.max_in_flight = max_in_flight;
                Ok(client)
            }
            ServerFrame::Fatal { reason } => Err(WireError::Protocol { reason }),
            _ => Err(WireError::Protocol {
                reason: "server's first frame was not a hello".to_string(),
            }),
        }
    }

    /// The per-connection in-flight cap the server announced.
    /// Submissions beyond it come back as typed
    /// [`ServeError::Overloaded`](cfva_serve::api::ServeError).
    #[must_use]
    pub fn max_in_flight(&self) -> u32 {
        self.max_in_flight
    }

    /// Submits a request; mirrors
    /// [`Service::submit`](cfva_serve::service::Service::submit).
    /// The frame is queued, and leaves as the [module docs](self) say.
    ///
    /// An `Err` here is a *transport* failure of this frame or, when
    /// the queue reached 64 KiB, of the flush. Service-level
    /// rejections (`Overloaded`, `ShuttingDown`, …) arrive as the
    /// ticket's result from [`wait`](WireClient::wait), exactly as
    /// they would in-process.
    #[must_use = "a dropped ticket abandons its response"]
    pub fn submit(&mut self, request: Request) -> Result<WireTicket, WireError> {
        self.submit_inner(request, None)
    }

    /// Submits a request with a deadline budget; mirrors
    /// [`Service::submit_with_budget`](cfva_serve::service::Service::submit_with_budget).
    #[must_use = "a dropped ticket abandons its response"]
    pub fn submit_with_budget(
        &mut self,
        request: Request,
        budget: Duration,
    ) -> Result<WireTicket, WireError> {
        self.submit_inner(request, Some(budget))
    }

    fn submit_inner(
        &mut self,
        request: Request,
        budget: Option<Duration>,
    ) -> Result<WireTicket, WireError> {
        let id = self.next_id;
        self.next_id += 1;
        self.outbox.push(&ClientFrame::Submit {
            id,
            request,
            budget,
        })?;
        if self.outbox.queued() >= FLUSH_BYTES {
            self.flush()?;
        }
        Ok(WireTicket { id })
    }

    /// Blocks until `ticket`'s result arrives; mirrors
    /// [`ServeTicket::wait`](cfva_serve::service::ServeTicket::wait).
    ///
    /// Results for *other* tickets read along the way are stashed and
    /// handed out by their own `wait` calls, so tickets may be
    /// redeemed in any order.
    pub fn wait(&mut self, ticket: WireTicket) -> Result<ServeResult, WireError> {
        if let Some(result) = self.stash.remove(&ticket.id) {
            return Ok(result);
        }
        loop {
            match self.recv()? {
                ServerFrame::Result { id, result } if id == ticket.id => return Ok(result),
                ServerFrame::Result { id, result } => {
                    self.stash.insert(id, result);
                }
                ServerFrame::Stats { .. } => {
                    // A stale stats reply nobody is waiting on.
                }
                ServerFrame::Fatal { reason } => {
                    return Err(WireError::Protocol { reason });
                }
                ServerFrame::Hello { .. } => {
                    return Err(WireError::Protocol {
                        reason: "unexpected mid-stream hello from server".to_string(),
                    });
                }
            }
        }
    }

    /// Fetches the server's [`ServiceStats`] snapshot, `wire_*`
    /// counters included; mirrors
    /// [`Service::stats`](cfva_serve::service::Service::stats).
    ///
    /// A barrier: every queued submit leaves first, and the server
    /// reads them all before it takes the snapshot.
    pub fn stats(&mut self) -> Result<ServiceStats, WireError> {
        let id = self.next_id;
        self.next_id += 1;
        self.outbox.push(&ClientFrame::Stats { id })?;
        self.flush()?;
        loop {
            match self.recv()? {
                ServerFrame::Stats { id: got, stats } if got == id => return Ok(stats),
                ServerFrame::Stats { .. } => {}
                ServerFrame::Result { id, result } => {
                    self.stash.insert(id, result);
                }
                ServerFrame::Fatal { reason } => {
                    return Err(WireError::Protocol { reason });
                }
                ServerFrame::Hello { .. } => {
                    return Err(WireError::Protocol {
                        reason: "unexpected mid-stream hello from server".to_string(),
                    });
                }
            }
        }
    }

    /// Sends every queued frame in one write. The socket has no write
    /// timeout, so this returns only once every byte has left.
    fn flush(&mut self) -> Result<(), WireError> {
        self.outbox.flush(&mut self.writer)?;
        Ok(())
    }

    /// The next answer. Flushes first unless a whole frame is already
    /// buffered, so no read blocks while a submit is still queued.
    fn recv(&mut self) -> Result<ServerFrame, WireError> {
        if !frame::holds_frame(self.reader.buffer()) {
            self.flush()?;
        }
        let text = frame::read_frame_into(&mut self.reader, &mut self.payload)?;
        Ok(json::decode_server_frame(text)?)
    }
}

impl Drop for WireClient {
    /// Sends the queued submits, best effort: a server that stopped
    /// reading gets `DROP_STALL` per write, not forever.
    fn drop(&mut self) {
        if self.outbox.queued() > 0 {
            let _ = self.writer.set_write_timeout(Some(DROP_STALL));
            let _ = self.outbox.flush(&mut self.writer);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn queued_submits_stay_below_the_flush_bound_plus_one_frame() {
        const SUBMITS: u64 = 10_000;
        // A peer that answers the hello, then counts what it receives.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let peer = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            frame::read_frame(&mut stream).expect("the client's hello");
            let hello = json::encode_server_frame(&ServerFrame::Hello {
                proto: PROTOCOL_VERSION,
                max_in_flight: 64,
            });
            frame::write_frame(&mut stream, &hello).expect("hello back");
            std::io::copy(&mut stream, &mut std::io::sink()).expect("reads to the end")
        });
        let request = Request::FamilySweep {
            spec: "xor-matched:t=3,s=4".to_string(),
            len: 64,
            max_x: 4,
            sigma: 3,
        };
        let framed = |id| {
            let frame = ClientFrame::Submit {
                id,
                request: request.clone(),
                budget: None,
            };
            4 + json::encode_client_frame(&frame).len()
        };

        let mut client = WireClient::connect(addr).expect("connect");
        let mut most = 0;
        for _ in 0..SUBMITS {
            let _ = client.submit(request.clone()).expect("queued");
            most = most.max(client.outbox.queued());
        }
        assert!(most < FLUSH_BYTES + framed(SUBMITS), "{most} bytes queued");
        assert!(
            most + framed(SUBMITS) >= FLUSH_BYTES,
            "submits left before the bound"
        );
        drop(client);
        let sent: usize = (0..SUBMITS).map(framed).sum();
        assert_eq!(
            peer.join().expect("peer thread"),
            sent as u64,
            "the drop sent the rest"
        );
    }
}
