//! The serving side of the wire: accept connections, feed
//! [`Service::submit_with_wake`], reap tickets back onto the socket.
//!
//! # Thread anatomy
//!
//! One **acceptor** thread owns the listener. Each connection gets a
//! **reader** and a **writer** thread, joined by one channel:
//!
//! * the reader parses frames, enforces the per-connection admission
//!   cap, checks the shutdown flag and submits to the service — every
//!   outcome (a live ticket under a reader-assigned sequence number,
//!   or an immediate typed rejection) is handed to the writer over the
//!   channel. When it stops reading it says so with an explicit
//!   message;
//! * each admitted request carries a wake hook that, on completion,
//!   pushes the ticket's sequence number onto the same channel;
//! * the writer owns the socket's write half and the connection's
//!   pending tickets, keyed by sequence number (clients may reuse a
//!   `request_id`). It polls a ticket once on receipt and again on its
//!   wake, and otherwise sleeps until the next message or the earliest
//!   pending deadline — responses return **out of submission order**,
//!   correlated by `request_id`. It keeps reaping even if the socket
//!   dies, so no accepted ticket is ever abandoned. Frames are encoded
//!   in place into one reused buffer ([`frame::Outbox`](crate::frame))
//!   and every batch of messages the writer wakes to leaves in one
//!   write.
//!
//! # Admission control is per-client
//!
//! The service's global queue bound backpressures the process; the
//! per-connection in-flight cap ([`WireServerConfig`]) backpressures
//! each client before it can monopolize that queue (the
//! OLTP-scheduling argument: admission decisions belong at the
//! boundary where the client is identifiable). Both rejections travel
//! as typed [`ServeError::Overloaded`] — queue depth and capacity
//! tell the client which limit it hit — and a draining server answers
//! [`ServeError::ShuttingDown`].
//!
//! # Graceful drain
//!
//! [`WireServer::shutdown`] stops accepting, closes every
//! connection's read half (no new submissions), lets each writer
//! flush every accepted ticket's result to its client, then joins all
//! threads. Zero lost tickets, verified by the CI wire smoke.

use std::collections::HashMap;
use std::io::BufReader;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use cfva_serve::api::{ServeError, ServeResult};
use cfva_serve::locks::{ClassedMutex, LockClass};
use cfva_serve::service::{ServeTicket, Service, ServiceStats};

use crate::frame::{self, FrameError, Outbox, PROTOCOL_VERSION};
use crate::json::{self, ClientFrame, ServerFrame};

/// Tuning knobs for a [`WireServer`].
#[derive(Debug, Clone, Copy)]
pub struct WireServerConfig {
    /// Requests one connection may have in flight before further
    /// submissions are rejected with a typed
    /// [`ServeError::Overloaded`] naming this cap. Minimum 1.
    pub max_in_flight_per_conn: usize,
}

impl Default for WireServerConfig {
    fn default() -> Self {
        WireServerConfig {
            max_in_flight_per_conn: 64,
        }
    }
}

/// Wire-boundary admission counters, surfaced as the `wire_*` fields
/// of [`ServiceStats`] by [`WireServer::stats`].
#[derive(Debug, Default)]
struct WireCounters {
    connections: AtomicU64,
    rejections: AtomicU64,
    in_flight: AtomicUsize,
}

/// Everything the acceptor and `shutdown` hand off to each other,
/// behind one `WireConns` lock: the acceptor's join handle and the
/// live-connection registry. Threads are joined strictly *outside*
/// the lock (a joined thread may be blocked on a serve lock).
#[derive(Debug, Default)]
struct ServerState {
    acceptor: Option<JoinHandle<()>>,
    conns: Vec<ConnHandle>,
}

#[derive(Debug)]
struct ConnHandle {
    /// A clone of the connection socket, kept so drain can close the
    /// read half and unblock the reader.
    stream: TcpStream,
    reader: JoinHandle<()>,
    writer: JoinHandle<()>,
}

impl ConnHandle {
    /// Both threads have exited: the connection is over and its
    /// handle only pins the registry's socket clone.
    fn is_finished(&self) -> bool {
        self.reader.is_finished() && self.writer.is_finished()
    }
}

/// What a reader — or a completing request's wake hook — hands its
/// connection's writer.
enum Outgoing {
    /// The client's hello checked out: answer it.
    Hello,
    /// An immediate outcome with no ticket (rejection or decode-level
    /// service error).
    Ready(u64, ServeResult),
    /// An admitted ticket to reap, answering `request_id` `id`, under
    /// the reader-assigned sequence number `seq`.
    Ticket {
        seq: u64,
        id: u64,
        ticket: ServeTicket,
    },
    /// The request behind sequence number `seq` has its response on
    /// the ticket. It may arrive before that ticket does.
    Wake(u64),
    /// A stats snapshot to send.
    Stats(u64, ServiceStats),
    /// A protocol violation: report it, then stop writing.
    Fatal(String),
    /// The reader has stopped: nothing more will be admitted. Sent
    /// explicitly because pending wake hooks keep the channel open.
    Closed,
}

/// A TCP front door for one [`Service`].
///
/// Dropping the server shuts it down gracefully (idempotent with an
/// explicit [`shutdown`](WireServer::shutdown)). The service itself
/// is shared and stays up — callers own its lifecycle.
#[derive(Debug)]
pub struct WireServer {
    service: Arc<Service>,
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    counters: Arc<WireCounters>,
    state: Arc<ClassedMutex<ServerState>>,
}

impl WireServer {
    /// Binds a listener and starts the acceptor thread.
    ///
    /// Bind to port 0 for an ephemeral port and recover it with
    /// [`local_addr`](WireServer::local_addr).
    pub fn bind<A: ToSocketAddrs>(
        service: Arc<Service>,
        addr: A,
        config: WireServerConfig,
    ) -> std::io::Result<WireServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(WireCounters::default());
        let state = Arc::new(ClassedMutex::new(
            LockClass::WireConns,
            ServerState::default(),
        ));
        let config = WireServerConfig {
            max_in_flight_per_conn: config.max_in_flight_per_conn.max(1),
        };

        let acceptor = {
            let service = Arc::clone(&service);
            let shutdown = Arc::clone(&shutdown);
            let counters = Arc::clone(&counters);
            let state = Arc::clone(&state);
            std::thread::spawn(move || {
                accept_loop(&listener, &service, &shutdown, &counters, &state, config);
            })
        };
        state.lock().acceptor = Some(acceptor);

        Ok(WireServer {
            service,
            addr,
            shutdown,
            counters,
            state,
        })
    }

    /// The bound address — the ephemeral port when bound to port 0.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The service snapshot with the `wire_*` admission counters
    /// filled in — the same snapshot a [`ClientFrame::Stats`] probe
    /// receives.
    #[must_use]
    pub fn stats(&self) -> ServiceStats {
        wire_stats(&self.service, &self.counters)
    }

    /// Graceful drain: stop accepting, close every connection's read
    /// half, flush every accepted ticket's result to its client, join
    /// all threads. Idempotent; also runs on drop.
    pub fn shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the acceptor's blocking accept with a dummy
        // connection, then join it before draining the registry, so
        // no connection can be registered afterwards.
        let _ = TcpStream::connect(self.addr);
        let acceptor = self.state.lock().acceptor.take();
        if let Some(handle) = acceptor {
            let _ = handle.join();
        }
        let conns = std::mem::take(&mut self.state.lock().conns);
        for conn in &conns {
            // No new frames: the reader unblocks and exits, the
            // writer drains what was admitted.
            let _ = conn.stream.shutdown(Shutdown::Read);
        }
        for conn in conns {
            let _ = conn.reader.join();
            let _ = conn.writer.join();
        }
    }
}

impl Drop for WireServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn wire_stats(service: &Service, counters: &WireCounters) -> ServiceStats {
    let mut stats = service.stats();
    stats.wire_connections = counters.connections.load(Ordering::Relaxed);
    stats.wire_rejections = counters.rejections.load(Ordering::Relaxed);
    stats.wire_in_flight = counters.in_flight.load(Ordering::Relaxed);
    stats
}

fn accept_loop(
    listener: &TcpListener,
    service: &Arc<Service>,
    shutdown: &Arc<AtomicBool>,
    counters: &Arc<WireCounters>,
    state: &Arc<ClassedMutex<ServerState>>,
    config: WireServerConfig,
) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shutdown.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if shutdown.load(Ordering::SeqCst) {
            // The drain's dummy connection, or a client racing it:
            // either way, admission is closed.
            return;
        }
        // Without TCP_NODELAY a response written while an earlier
        // one is still unacknowledged waits for the peer's delayed
        // ACK (~40 ms per round trip on loopback). Best effort — a
        // socket that can't set the option still works, just slower.
        let _ = stream.set_nodelay(true);
        let Ok(read_half) = stream.try_clone() else {
            continue;
        };
        let Ok(registry_clone) = stream.try_clone() else {
            continue;
        };
        counters.connections.fetch_add(1, Ordering::Relaxed);

        let (tx, rx) = std::sync::mpsc::channel::<Outgoing>();
        let conn_in_flight = Arc::new(AtomicUsize::new(0));

        let reader = {
            let service = Arc::clone(service);
            let shutdown = Arc::clone(shutdown);
            let counters = Arc::clone(counters);
            let conn_in_flight = Arc::clone(&conn_in_flight);
            std::thread::spawn(move || {
                reader_loop(
                    read_half,
                    &tx,
                    &service,
                    &shutdown,
                    &counters,
                    &conn_in_flight,
                    config.max_in_flight_per_conn,
                );
                let _ = tx.send(Outgoing::Closed);
            })
        };
        let writer = {
            let counters = Arc::clone(counters);
            let conn_in_flight = Arc::clone(&conn_in_flight);
            let max = config.max_in_flight_per_conn;
            std::thread::spawn(move || {
                writer_loop(stream, &rx, &counters, &conn_in_flight, max);
            })
        };
        // Reap on every accept: finished connections leave the
        // registry, closing its socket clone. Their threads have
        // exited, so the joins after the lock is released return at
        // once.
        let finished: Vec<ConnHandle> = {
            let mut state = state.lock();
            let finished = state
                .conns
                .extract_if(.., |conn| conn.is_finished())
                .collect();
            state.conns.push(ConnHandle {
                stream: registry_clone,
                reader,
                writer,
            });
            finished
        };
        for conn in finished {
            let _ = conn.reader.join();
            let _ = conn.writer.join();
        }
    }
}

/// Parses and admits one connection's frames. Every submission gets
/// exactly one eventual `Result` frame: a live ticket handed to the
/// writer, or an immediate typed rejection.
fn reader_loop(
    stream: TcpStream,
    tx: &Sender<Outgoing>,
    service: &Service,
    shutdown: &AtomicBool,
    counters: &WireCounters,
    conn_in_flight: &AtomicUsize,
    max_in_flight: usize,
) {
    let mut reader = BufReader::new(stream);
    let mut next_seq = 0u64;

    // The handshake: exactly one hello, version-checked, before
    // anything else.
    match frame::read_frame(&mut reader) {
        Ok(text) => match json::decode_client_frame(&text) {
            Ok(ClientFrame::Hello { proto }) if proto == PROTOCOL_VERSION => {
                let _ = tx.send(Outgoing::Hello);
            }
            Ok(ClientFrame::Hello { proto }) => {
                let _ = tx.send(Outgoing::Fatal(format!(
                    "unsupported protocol version {proto} (server speaks {PROTOCOL_VERSION})"
                )));
                return;
            }
            Ok(_) => {
                let _ = tx.send(Outgoing::Fatal("first frame must be a hello".to_string()));
                return;
            }
            Err(e) => {
                let _ = tx.send(Outgoing::Fatal(e.to_string()));
                return;
            }
        },
        Err(FrameError::Closed) | Err(FrameError::Io(_)) => return,
        Err(e) => {
            let _ = tx.send(Outgoing::Fatal(e.to_string()));
            return;
        }
    }

    loop {
        let text = match frame::read_frame(&mut reader) {
            Ok(text) => text,
            // Clean goodbye or a lost/drained peer: stop reading; the
            // writer drains whatever was admitted.
            Err(FrameError::Closed) | Err(FrameError::Io(_)) => return,
            // Oversize length or bad UTF-8: the stream may be
            // misaligned, so report and close rather than mis-parse.
            Err(e) => {
                let _ = tx.send(Outgoing::Fatal(e.to_string()));
                return;
            }
        };
        match json::decode_client_frame(&text) {
            Ok(ClientFrame::Submit {
                id,
                request,
                budget,
            }) => {
                if shutdown.load(Ordering::SeqCst) {
                    counters.rejections.fetch_add(1, Ordering::Relaxed);
                    let _ = tx.send(Outgoing::Ready(id, Err(ServeError::ShuttingDown)));
                    continue;
                }
                let held = conn_in_flight.load(Ordering::Relaxed);
                if held >= max_in_flight {
                    counters.rejections.fetch_add(1, Ordering::Relaxed);
                    let _ = tx.send(Outgoing::Ready(
                        id,
                        Err(ServeError::Overloaded {
                            queue_depth: held,
                            capacity: max_in_flight,
                        }),
                    ));
                    continue;
                }
                let seq = next_seq;
                next_seq += 1;
                let waker = tx.clone();
                let wake = move || {
                    let _ = waker.send(Outgoing::Wake(seq));
                };
                match service.submit_with_wake(request, budget, wake) {
                    Ok(ticket) => {
                        conn_in_flight.fetch_add(1, Ordering::Relaxed);
                        counters.in_flight.fetch_add(1, Ordering::Relaxed);
                        let _ = tx.send(Outgoing::Ticket { seq, id, ticket });
                    }
                    Err(e) => {
                        counters.rejections.fetch_add(1, Ordering::Relaxed);
                        let _ = tx.send(Outgoing::Ready(id, Err(e)));
                    }
                }
            }
            Ok(ClientFrame::Stats { id }) => {
                let _ = tx.send(Outgoing::Stats(id, wire_stats(service, counters)));
            }
            Ok(ClientFrame::Hello { .. }) => {
                let _ = tx.send(Outgoing::Fatal("duplicate hello".to_string()));
                return;
            }
            Err(e) => {
                let _ = tx.send(Outgoing::Fatal(e.to_string()));
                return;
            }
        }
    }
}

/// A connection's write half. Frames queue in one reused buffer and
/// leave with one write per [`flush`](Sink::flush); once the socket
/// fails or a fatal frame is out, `broken` is set and later frames are
/// dropped.
struct Sink {
    stream: TcpStream,
    outbox: Outbox,
    broken: bool,
}

impl Sink {
    fn send(&mut self, frame_msg: &ServerFrame) {
        if !self.broken && self.outbox.push(frame_msg).is_err() {
            self.broken = true;
        }
    }

    fn flush(&mut self) {
        if self.outbox.flush(&mut self.stream).is_err() {
            self.broken = true;
        }
    }
}

/// The writer's state: the write half and the pending tickets, keyed
/// by sequence number, each with the `request_id` it answers.
struct Writer<'a> {
    sink: Sink,
    pending: HashMap<u64, (u64, ServeTicket)>,
    counters: &'a WireCounters,
    conn_in_flight: &'a AtomicUsize,
    max_in_flight: usize,
    /// `false` once the reader has stopped: no new tickets.
    reading: bool,
}

/// Owns the write half and the pending tickets. Writes whichever
/// ticket resolves first; never abandons a ticket, even when the
/// socket dies mid-connection.
fn writer_loop(
    stream: TcpStream,
    rx: &Receiver<Outgoing>,
    counters: &WireCounters,
    conn_in_flight: &AtomicUsize,
    max_in_flight: usize,
) {
    let mut w = Writer {
        sink: Sink {
            stream,
            outbox: Outbox::default(),
            broken: false,
        },
        pending: HashMap::new(),
        counters,
        conn_in_flight,
        max_in_flight,
        reading: true,
    };
    while w.reading || !w.pending.is_empty() {
        // Sleep until a message arrives or the earliest pending
        // deadline passes, whichever is first.
        let earliest = w.pending.values().filter_map(|(_, t)| t.deadline()).min();
        let next = match earliest {
            Some(deadline) => rx.recv_timeout(deadline.saturating_duration_since(Instant::now())),
            None => rx.recv().map_err(RecvTimeoutError::from),
        };
        match next {
            Ok(msg) => {
                w.handle(msg);
                // Batch whatever else queued up into the same write.
                while let Ok(msg) = rx.try_recv() {
                    w.handle(msg);
                }
            }
            // A deadline passed: those tickets now poll as resolved.
            Err(RecvTimeoutError::Timeout) => {
                let seqs: Vec<u64> = w.pending.keys().copied().collect();
                seqs.into_iter().for_each(|seq| w.reap(seq));
            }
            // Every sender is gone (the reader died without saying so),
            // and with them every wake hook: each pending ticket's wake
            // was handled, so nothing is left pending.
            Err(RecvTimeoutError::Disconnected) => break,
        }
        w.sink.flush();
    }
}

impl Writer<'_> {
    fn handle(&mut self, msg: Outgoing) {
        match msg {
            Outgoing::Hello => {
                let max = u32::try_from(self.max_in_flight).unwrap_or(u32::MAX);
                self.sink.send(&ServerFrame::Hello {
                    proto: PROTOCOL_VERSION,
                    max_in_flight: max,
                });
            }
            Outgoing::Ready(id, result) => self.sink.send(&ServerFrame::Result { id, result }),
            Outgoing::Ticket { seq, id, ticket } => {
                self.pending.insert(seq, (id, ticket));
                self.reap(seq);
            }
            // A wake for an unknown sequence number was either reaped
            // already or has not arrived yet (then it is polled on
            // receipt).
            Outgoing::Wake(seq) => self.reap(seq),
            Outgoing::Stats(id, stats) => self.sink.send(&ServerFrame::Stats { id, stats }),
            Outgoing::Fatal(reason) => {
                self.sink.send(&ServerFrame::Fatal { reason });
                self.sink.flush();
                self.sink.broken = true;
            }
            Outgoing::Closed => self.reading = false,
        }
    }

    /// Writes ticket `seq`'s result if it has one.
    fn reap(&mut self, seq: u64) {
        let Some((id, ticket)) = self.pending.get_mut(&seq) else {
            return;
        };
        let id = *id;
        let Some(result) = ticket.poll() else {
            return;
        };
        self.pending.remove(&seq);
        self.conn_in_flight.fetch_sub(1, Ordering::Relaxed);
        self.counters.in_flight.fetch_sub(1, Ordering::Relaxed);
        self.sink.send(&ServerFrame::Result { id, result });
    }
}
