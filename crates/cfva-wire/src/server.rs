//! The serving side of the wire: accept connections, feed
//! [`Service::submit_with_wake`], answer on the socket.
//!
//! # Thread anatomy
//!
//! One **acceptor** thread owns the listener. Each connection gets a
//! **reader** and a **writer** thread. They share the connection's
//! sink — its write half and one reused frame buffer
//! ([`frame::Outbox`](crate::frame)) — behind a `WireSink` lock that
//! is held only to queue or flush frames, never across a service call,
//! and they are joined by one channel.
//!
//! * The reader parses frames, enforces the per-connection admission
//!   cap, checks the shutdown flag and submits to the service. It
//!   answers everything that needs no waiting itself, encoding the
//!   frame into the sink: the hello, stats, every immediate typed
//!   rejection and every ticket the service returns already resolved
//!   (a cache hit). A ticket still running goes to the writer under a
//!   reader-assigned sequence number. When the reader stops reading it
//!   says so with an explicit message.
//! * Each admitted request carries a wake hook that, on completion,
//!   pushes the ticket's sequence number onto the same channel.
//! * The writer holds the connection's pending tickets, keyed by
//!   sequence number (clients may reuse a `request_id`). It polls a
//!   ticket once on receipt and again on its wake, and otherwise sleeps
//!   until the next message or the earliest pending deadline —
//!   responses return **out of submission order**, correlated by
//!   `request_id`. It keeps reaping even if the socket dies, so no
//!   accepted ticket is ever abandoned. Every batch of messages it
//!   wakes to leaves in one flush.
//!
//! # The flush rule
//!
//! The reader flushes the sink before any read that can block: once
//! per burst, whenever its buffer holds no complete frame. So a
//! pipelined burst is answered with one write, and an answer never
//! waits behind a frame the client has only half sent.
//!
//! # A client that stops reading
//!
//! Its socket buffers fill, and a blocking write would wedge the
//! reader. So the socket carries a short write timeout
//! (`WRITE_STALL`) and a flush is resumable: a write that times out
//! leaves the rest queued and marks the connection stalled. The writer
//! then owns the drain. It retries until the client reads again (or,
//! once shutdown has begun, gives the client up; see below), and
//! until then the reader writes nothing: it hands every answer to the
//! writer, and every ticket, cache hits included, through the ticket
//! path, which counts it against the per-connection cap. So a stalled
//! client's further submissions come back as typed
//! [`ServeError::Overloaded`] instead of growing the sink, and the
//! reader keeps reading.
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
//! threads. Zero lost tickets, verified by the CI wire smoke. A client
//! that has stopped reading is given up once its drain has sent
//! nothing for `DRAIN_STALL`: its writer still reaps every pending
//! ticket, and drops the answers.

use std::collections::HashMap;
use std::io::BufReader;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cfva_serve::api::{Request, ServeError};
use cfva_serve::locks::{ClassedMutex, LockClass};
use cfva_serve::service::{ServeTicket, Service, ServiceStats};

use crate::frame::{self, FrameError, Outbox, PROTOCOL_VERSION};
use crate::json::{self, ClientFrame, ServerFrame};

/// How long one write to a client may block. A write that times out
/// stalls the connection until the writer drains it (see the
/// [module docs](self)).
const WRITE_STALL: Duration = Duration::from_millis(10);

/// How long a drain may send nothing, once shutdown has begun, before
/// it gives the client up: `shutdown` must not wait forever on a client
/// that stopped reading.
const DRAIN_STALL: Duration = Duration::from_secs(1);

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
    /// A frame to send: an answer the reader could not write itself
    /// because the connection is stalled.
    Frame(ServerFrame),
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
    /// The reader's flush timed out: drain the sink.
    Drain,
    /// A protocol violation: report it, then stop writing.
    Fatal(String),
    /// The reader has stopped: nothing more will be admitted. Sent
    /// explicitly because pending wake hooks keep the channel open.
    Closed,
}

/// What a connection's reader and writer share.
struct Conn {
    sink: ClassedMutex<Sink>,
    /// A flush timed out with bytes unsent. Until one drains them, only
    /// the writer flushes, and the reader hands it every answer.
    /// Written under the sink lock, read without it.
    stalled: AtomicBool,
    /// Tickets handed to the writer and not yet answered.
    in_flight: AtomicUsize,
    max_in_flight: usize,
    /// The server's shutdown flag.
    shutdown: Arc<AtomicBool>,
}

impl Conn {
    fn send(&self, frame_msg: &ServerFrame) {
        self.sink.lock().send(frame_msg);
    }

    /// One flush attempt; the bytes it left queued.
    fn flush(&self) -> usize {
        let mut sink = self.sink.lock();
        let left = sink.flush();
        self.stalled.store(left > 0, Ordering::Release);
        left
    }

    /// Flushes until nothing is left queued, however long the client
    /// takes to read: each attempt blocks at most [`WRITE_STALL`].
    /// Once shutdown has begun, a drain that sends nothing for
    /// [`DRAIN_STALL`] breaks the sink and drops the unsent bytes.
    fn drain(&self) {
        let mut left = self.flush();
        let mut progress = Instant::now();
        while left > 0 {
            let now_left = self.flush();
            if now_left < left || !self.shutdown.load(Ordering::SeqCst) {
                progress = Instant::now();
            } else if progress.elapsed() >= DRAIN_STALL {
                self.sink.lock().abandon();
                self.stalled.store(false, Ordering::Release);
                return;
            }
            left = now_left;
        }
    }
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
        // A client that stops reading must not wedge the reader: a
        // timed-out write leaves the drain to the writer.
        let _ = stream.set_write_timeout(Some(WRITE_STALL));
        let Ok(read_half) = stream.try_clone() else {
            continue;
        };
        let Ok(registry_clone) = stream.try_clone() else {
            continue;
        };
        counters.connections.fetch_add(1, Ordering::Relaxed);

        let (tx, rx) = std::sync::mpsc::channel::<Outgoing>();
        let conn = Arc::new(Conn {
            sink: ClassedMutex::new(
                LockClass::WireSink,
                Sink {
                    stream,
                    outbox: Outbox::default(),
                    broken: false,
                },
            ),
            stalled: AtomicBool::new(false),
            in_flight: AtomicUsize::new(0),
            max_in_flight: config.max_in_flight_per_conn,
            shutdown: Arc::clone(shutdown),
        });

        let reader = {
            let mut reader = Reader {
                tx,
                conn: Arc::clone(&conn),
                service: Arc::clone(service),
                counters: Arc::clone(counters),
                next_seq: 0,
            };
            std::thread::spawn(move || {
                reader.run(read_half);
                let _ = reader.tx.send(Outgoing::Closed);
            })
        };
        let writer = {
            let counters = Arc::clone(counters);
            std::thread::spawn(move || writer_loop(&conn, &rx, &counters))
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

/// One connection's reader: parses and admits its frames. Every
/// submission gets exactly one `Result` frame: written here if it
/// needs no waiting, else by the writer.
struct Reader {
    tx: Sender<Outgoing>,
    conn: Arc<Conn>,
    service: Arc<Service>,
    counters: Arc<WireCounters>,
    next_seq: u64,
}

impl Reader {
    fn run(&mut self, stream: TcpStream) {
        let mut reader = BufReader::new(stream);
        // Every frame's payload, in turn.
        let mut payload = Vec::new();

        // The handshake: exactly one hello, version-checked, before
        // anything else.
        match frame::read_frame_into(&mut reader, &mut payload) {
            Ok(text) => match json::decode_client_frame(text) {
                Ok(ClientFrame::Hello { proto }) if proto == PROTOCOL_VERSION => {
                    self.answer(ServerFrame::Hello {
                        proto: PROTOCOL_VERSION,
                        max_in_flight: u32::try_from(self.conn.max_in_flight).unwrap_or(u32::MAX),
                    });
                }
                Ok(ClientFrame::Hello { proto }) => {
                    return self.fatal(format!(
                        "unsupported protocol version {proto} (server speaks {PROTOCOL_VERSION})"
                    ));
                }
                Ok(_) => return self.fatal("first frame must be a hello".to_string()),
                Err(e) => return self.fatal(e.to_string()),
            },
            Err(FrameError::Closed) | Err(FrameError::Io(_)) => return,
            Err(e) => return self.fatal(e.to_string()),
        }

        loop {
            // The flush rule: flush before any read that can block.
            if !frame::holds_frame(reader.buffer()) {
                self.flush();
            }
            let text = match frame::read_frame_into(&mut reader, &mut payload) {
                Ok(text) => text,
                // Clean goodbye or a lost/drained peer: stop reading;
                // the writer flushes and drains whatever was admitted.
                Err(FrameError::Closed) | Err(FrameError::Io(_)) => return,
                // Oversize length or bad UTF-8: the stream may be
                // misaligned, so report and close rather than mis-parse.
                Err(e) => return self.fatal(e.to_string()),
            };
            match json::decode_client_frame(text) {
                Ok(ClientFrame::Submit {
                    id,
                    request,
                    budget,
                }) => self.submit(id, request, budget),
                Ok(ClientFrame::Stats { id }) => {
                    let stats = wire_stats(&self.service, &self.counters);
                    self.answer(ServerFrame::Stats { id, stats });
                }
                Ok(ClientFrame::Hello { .. }) => return self.fatal("duplicate hello".to_string()),
                Err(e) => return self.fatal(e.to_string()),
            }
        }
    }

    fn submit(&mut self, id: u64, request: Request, budget: Option<Duration>) {
        if self.conn.shutdown.load(Ordering::SeqCst) {
            return self.reject(id, ServeError::ShuttingDown);
        }
        let held = self.conn.in_flight.load(Ordering::Relaxed);
        if held >= self.conn.max_in_flight {
            return self.reject(
                id,
                ServeError::Overloaded {
                    queue_depth: held,
                    capacity: self.conn.max_in_flight,
                },
            );
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let waker = self.tx.clone();
        let wake = move || {
            let _ = waker.send(Outgoing::Wake(seq));
        };
        let mut ticket = match self.service.submit_with_wake(request, budget, wake) {
            Ok(ticket) => ticket,
            Err(e) => return self.reject(id, e),
        };
        // A cache hit is born resolved: answer it here, unless the
        // connection is stalled and it must count against the cap.
        if !self.conn.stalled.load(Ordering::Acquire) {
            if let Some(result) = ticket.poll() {
                return self.answer(ServerFrame::Result { id, result });
            }
        }
        self.conn.in_flight.fetch_add(1, Ordering::Relaxed);
        self.counters.in_flight.fetch_add(1, Ordering::Relaxed);
        let _ = self.tx.send(Outgoing::Ticket { seq, id, ticket });
    }

    fn reject(&self, id: u64, error: ServeError) {
        self.counters.rejections.fetch_add(1, Ordering::Relaxed);
        self.answer(ServerFrame::Result {
            id,
            result: Err(error),
        });
    }

    /// Queues `frame` in the sink, or hands it to the writer while the
    /// connection is stalled.
    fn answer(&self, frame: ServerFrame) {
        if self.conn.stalled.load(Ordering::Acquire) {
            let _ = self.tx.send(Outgoing::Frame(frame));
        } else {
            self.conn.send(&frame);
        }
    }

    /// The end of a burst: flushes unless the writer owns a stalled
    /// flush, and hands the drain to the writer if this one stalls.
    fn flush(&self) {
        if !self.conn.stalled.load(Ordering::Acquire) && self.conn.flush() > 0 {
            let _ = self.tx.send(Outgoing::Drain);
        }
    }

    /// Reports a protocol violation through the writer, behind every
    /// answer queued before it, and stops reading.
    fn fatal(&self, reason: String) {
        let _ = self.tx.send(Outgoing::Fatal(reason));
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

    /// One flush; returns the bytes a timed-out write left queued for
    /// the next one.
    fn flush(&mut self) -> usize {
        if self.outbox.flush(&mut self.stream).is_err() {
            self.broken = true;
        }
        self.outbox.queued()
    }

    /// Gives the client up: drops the unsent bytes and every later
    /// frame.
    fn abandon(&mut self) {
        self.outbox = Outbox::default();
        self.broken = true;
    }
}

/// The writer's state: the pending tickets, keyed by sequence number,
/// each with the `request_id` it answers.
struct Writer<'a> {
    conn: &'a Conn,
    pending: HashMap<u64, (u64, ServeTicket)>,
    counters: &'a WireCounters,
    /// `false` once the reader has stopped: no new tickets.
    reading: bool,
}

/// Reaps the pending tickets onto the sink. Writes whichever ticket
/// resolves first; never abandons a ticket, even when the socket dies
/// mid-connection.
fn writer_loop(conn: &Conn, rx: &Receiver<Outgoing>, counters: &WireCounters) {
    let mut w = Writer {
        conn,
        pending: HashMap::new(),
        counters,
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
        conn.drain();
    }
}

impl Writer<'_> {
    fn handle(&mut self, msg: Outgoing) {
        match msg {
            Outgoing::Frame(frame_msg) => self.conn.send(&frame_msg),
            Outgoing::Ticket { seq, id, ticket } => {
                self.pending.insert(seq, (id, ticket));
                self.reap(seq);
            }
            // A wake for an unknown sequence number was either reaped
            // already or has not arrived yet (then it is polled on
            // receipt).
            Outgoing::Wake(seq) => self.reap(seq),
            // The loop drains after every batch.
            Outgoing::Drain => {}
            Outgoing::Fatal(reason) => {
                self.conn.send(&ServerFrame::Fatal { reason });
                self.conn.drain();
                self.conn.sink.lock().broken = true;
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
        self.conn.in_flight.fetch_sub(1, Ordering::Relaxed);
        self.counters.in_flight.fetch_sub(1, Ordering::Relaxed);
        self.conn.send(&ServerFrame::Result { id, result });
    }
}
