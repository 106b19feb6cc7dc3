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
    /// The reused send buffer: every frame leaves in one write.
    outbox: Outbox,
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
        // Each frame leaves in one write and the client then waits for
        // the answer: TCP_NODELAY sends it at once instead of letting
        // Nagle hold it behind the server's delayed ACK. Best effort.
        let _ = writer.set_nodelay(true);
        let read_half = writer.try_clone().map_err(frame::FrameError::Io)?;
        let mut client = WireClient {
            writer,
            reader: BufReader::new(read_half),
            outbox: Outbox::default(),
            next_id: 0,
            max_in_flight: 0,
            stash: HashMap::new(),
        };
        client.send(&ClientFrame::Hello {
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
    ///
    /// An `Err` here is a *transport* failure. Service-level
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
        self.send(&ClientFrame::Submit {
            id,
            request,
            budget,
        })?;
        Ok(WireTicket { id })
    }

    /// Blocks until `ticket`'s result arrives; mirrors
    /// [`ServeTicket::wait`](cfva_serve::service::ServeTicket::wait).
    ///
    /// Results for *other* tickets read along the way are stashed and
    /// handed out by their own `wait` calls, so tickets may be
    /// redeemed in any order.
    pub fn wait(&mut self, ticket: WireTicket) -> Result<ServeResult, WireError> {
        loop {
            if let Some(result) = self.stash.remove(&ticket.id) {
                return Ok(result);
            }
            match self.recv()? {
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
    pub fn stats(&mut self) -> Result<ServiceStats, WireError> {
        let id = self.next_id;
        self.next_id += 1;
        self.send(&ClientFrame::Stats { id })?;
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

    /// Sends one frame, length word and payload, with one write.
    fn send(&mut self, msg: &ClientFrame) -> Result<(), WireError> {
        self.outbox.push(msg)?;
        // The socket has no write timeout, so the flush returns only
        // once every byte has left.
        self.outbox.flush(&mut self.writer)?;
        Ok(())
    }

    fn recv(&mut self) -> Result<ServerFrame, WireError> {
        let text = frame::read_frame(&mut self.reader)?;
        Ok(json::decode_server_frame(&text)?)
    }
}
