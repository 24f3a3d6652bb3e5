//! [`AnyKServer`]: the blocking TCP front end over
//! [`QueryService`](crate::QueryService).
//!
//! # Threading model
//!
//! One accept thread pulls from a `TcpListener` and feeds accepted
//! connections through an `mpsc` channel to a **bounded pool** of worker
//! threads ([`NetConfig::workers`]); each worker owns one connection at a
//! time and runs its whole request/response loop. There is no per-connection
//! thread, so a flood of connections cannot exhaust the process — beyond the
//! pool, accepted connections queue; beyond [`NetConfig::max_connections`],
//! they are **shed at accept** with a protocol-level
//! `Overloaded { retry_after }` frame before any handshake or session work.
//!
//! # Deadlines
//!
//! Every connection socket gets OS-level read/write timeouts
//! ([`NetConfig::read_timeout`] / [`NetConfig::write_timeout`]), and each
//! frame additionally races a whole-frame deadline
//! ([`NetConfig::frame_deadline`]) measured on the injectable
//! [`Clock`] — the slow-loris defence: a peer dribbling one byte per
//! `read_timeout` never trips the OS timer, but cannot stretch a single
//! frame past the deadline.
//!
//! # Shutdown choreography
//!
//! [`AnyKServer::shutdown`] must unblock threads parked in blocking syscalls
//! without help from the OS:
//!
//! 1. set the shutdown flag (no new work is started);
//! 2. self-connect to the listening address, waking `accept()`; the accept
//!    thread observes the flag and exits, dropping the channel sender;
//! 3. `TcpStream::shutdown(Read)` every live connection, turning each
//!    worker's blocking read into a clean EOF **at the next frame
//!    boundary** — a request already being served finishes and its response
//!    frame is written (in-flight pages drain, never tear);
//! 4. workers drain still-queued connections (answered with
//!    `ErrShuttingDown`), see the channel disconnect, and exit;
//! 5. every connection's sessions are closed as it unwinds, returning the
//!    Governor's MEM gauge to zero; then all threads are joined.

use super::protocol::{
    encode_page_response, encode_response, read_frame, write_frame, FrameReadError, Request,
    Response, WireError, WireOverloadReason, DEFAULT_MAX_FRAME_BYTES, VERSION,
};
use crate::service::{QueryService, SessionId};
use anyk_core::faults;
use anyk_engine::Answer;
use anyk_obs::{Clock, MonotonicClock};
use anyk_query::QuerySpec;
use std::collections::HashMap;
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Transport-level tuning for [`AnyKServer`]. The defaults suit tests and
/// small deployments; see the crate-level tuning guide for how these caps
/// compose with [`crate::GovernorConfig`].
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Worker threads serving connections. Also the number of connections
    /// making progress at any instant; accepted connections beyond it queue.
    pub workers: usize,
    /// Cap on connections alive at once (being served *or* queued). Beyond
    /// it, accepts are shed with `Overloaded { reason: Connections }` before
    /// any handshake work.
    pub max_connections: usize,
    /// Per-frame payload cap, both directions (see
    /// [`super::protocol::DEFAULT_MAX_FRAME_BYTES`]).
    pub max_frame_bytes: u32,
    /// OS-level socket read timeout (`set_read_timeout`). Also the idle
    /// lifetime of a connection parked between requests.
    pub read_timeout: Duration,
    /// OS-level socket write timeout (`set_write_timeout`).
    pub write_timeout: Duration,
    /// Wall-clock budget for receiving one whole frame, measured on
    /// [`NetConfig::clock`] — the slow-loris defence.
    pub frame_deadline: Duration,
    /// Server-side clamp on `NextPage` page sizes, bounding response-frame
    /// growth independently of what clients ask for.
    pub max_page_size: usize,
    /// Retry hint carried in connection-cap sheds (admission-control sheds
    /// carry the Governor's own hint).
    pub retry_after_hint: Duration,
    /// Time source for frame deadlines. Injectable for tests
    /// ([`crate::ManualClock`]); defaults to [`MonotonicClock`].
    pub clock: Arc<dyn Clock>,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            workers: 8,
            max_connections: 64,
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(10),
            frame_deadline: Duration::from_secs(10),
            max_page_size: 4096,
            retry_after_hint: Duration::from_millis(50),
            clock: Arc::new(MonotonicClock::new()),
        }
    }
}

struct Shared {
    service: Arc<QueryService>,
    cfg: NetConfig,
    shutdown: AtomicBool,
    /// Live connections (served + queued), compared against
    /// `cfg.max_connections` at accept.
    next_conn_id: AtomicU64,
    /// Read-half handles of live connections, kept so [`AnyKServer::shutdown`]
    /// can unblock workers parked in `read()`. Keyed by connection id; the
    /// map's size is the live-connection gauge.
    live: Mutex<HashMap<u64, TcpStream>>,
}

impl Shared {
    fn bump(&self, f: impl FnOnce(&mut crate::governor::GovState)) {
        self.service.governor().with(f);
    }
}

/// A blocking TCP server exposing a [`QueryService`] over the wire protocol
/// documented in [`super::protocol`]. Construction binds and starts serving
/// immediately; drop (or [`AnyKServer::shutdown`]) drains and joins.
pub struct AnyKServer {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for AnyKServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AnyKServer")
            .field("local_addr", &self.local_addr)
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl AnyKServer {
    /// Bind `addr` (use port 0 for an ephemeral port) and start serving
    /// `service` with the given transport config.
    pub fn bind(
        service: Arc<QueryService>,
        addr: impl ToSocketAddrs,
        cfg: NetConfig,
    ) -> io::Result<AnyKServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let workers_n = cfg.workers.max(1);
        let shared = Arc::new(Shared {
            service,
            cfg,
            shutdown: AtomicBool::new(false),
            next_conn_id: AtomicU64::new(1),
            live: Mutex::new(HashMap::new()),
        });

        let (tx, rx) = mpsc::channel::<(u64, TcpStream)>();
        let rx = Arc::new(Mutex::new(rx));
        let mut workers = Vec::with_capacity(workers_n);
        for _ in 0..workers_n {
            let shared = Arc::clone(&shared);
            let rx = Arc::clone(&rx);
            workers.push(std::thread::spawn(move || worker_loop(&shared, &rx)));
        }
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&shared, &listener, &tx))
        };

        Ok(AnyKServer {
            shared,
            local_addr,
            accept: Some(accept),
            workers,
        })
    }

    /// The bound address — with port 0, where the ephemeral port landed.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Graceful shutdown: stop accepting, drain in-flight requests, close
    /// every connection's sessions, join all threads. Idempotent; also runs
    /// on drop. See the module docs for the choreography.
    pub fn shutdown(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the accept thread out of its blocking accept(). The woken
        // accept sees the flag and exits without handing the waker to a
        // worker, so the waker never counts as a served connection.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // Unblock workers parked in read(): shutting down the read half
        // makes the pending read return 0 (clean EOF at a frame boundary).
        // A worker mid-request is untouched — it finishes and writes its
        // response before the next read observes EOF.
        {
            let live = lock_live(&self.shared);
            for stream in live.values() {
                let _ = stream.shutdown(Shutdown::Read);
            }
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for AnyKServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn lock_live(shared: &Shared) -> std::sync::MutexGuard<'_, HashMap<u64, TcpStream>> {
    shared
        .live
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn is_timeout_io(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

fn accept_loop(shared: &Shared, listener: &TcpListener, tx: &Sender<(u64, TcpStream)>) {
    loop {
        // The accept() syscall itself must stay outside catch_unwind only in
        // spirit — wrapping the whole iteration keeps a `net.accept` panic
        // action (or any per-connection setup panic) from killing the
        // listener.
        let keep_going = catch_unwind(AssertUnwindSafe(|| {
            let stream = match listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => return true,
                // ConnectionAborted and friends are per-connection noise;
                // anything else (listener closed) ends the loop.
                Err(e) if is_timeout_io(&e) || e.kind() == io::ErrorKind::ConnectionAborted => {
                    return true
                }
                Err(_) => return false,
            };
            if shared.shutdown.load(Ordering::SeqCst) {
                // The shutdown waker (or a late real client): close without
                // serving. Real clients see a connection reset and retry
                // elsewhere; the waker ignores it.
                return false;
            }
            // Chaos site: an error action simulates the OS failing the
            // accept — the connection is dropped before any accounting.
            if faults::check("net.accept").is_err() {
                return true;
            }
            let live_now = lock_live(shared).len();
            if live_now >= shared.cfg.max_connections {
                shared.bump(|s| s.connections_shed_at_accept += 1);
                shed_at_accept(shared, stream);
                return true;
            }
            let conn_id = shared.next_conn_id.fetch_add(1, Ordering::Relaxed);
            if stream
                .set_read_timeout(Some(shared.cfg.read_timeout))
                .is_err()
                || stream
                    .set_write_timeout(Some(shared.cfg.write_timeout))
                    .is_err()
            {
                return true;
            }
            let Ok(read_half) = stream.try_clone() else {
                return true;
            };
            shared.bump(|s| s.connections_accepted += 1);
            lock_live(shared).insert(conn_id, read_half);
            if tx.send((conn_id, stream)).is_err() {
                // Workers are gone (shutdown already joined them); undo.
                lock_live(shared).remove(&conn_id);
                return false;
            }
            true
        }))
        .unwrap_or(true);
        if !keep_going || shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
    }
}

/// Best-effort `Overloaded { Connections }` frame to a connection shed at
/// the cap — one write, no reads, then close. A peer that cannot even take
/// the frame is simply dropped.
fn shed_at_accept(shared: &Shared, mut stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(shared.cfg.write_timeout));
    let mut frame = Vec::new();
    let mut payload = Vec::new();
    encode_response(
        &mut frame,
        &mut payload,
        &Response::Err(WireError::Overloaded {
            reason: WireOverloadReason::Connections,
            retry_after: shared.cfg.retry_after_hint,
        }),
    );
    let _ = write_frame(&mut stream, &frame);
    let _ = stream.shutdown(Shutdown::Both);
}

fn worker_loop(shared: &Shared, rx: &Arc<Mutex<Receiver<(u64, TcpStream)>>>) {
    loop {
        // Hold the receiver lock only for the recv itself; serving happens
        // unlocked so the other workers keep pulling.
        let next = {
            let rx = rx.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
            rx.recv()
        };
        let Ok((conn_id, stream)) = next else {
            // Sender dropped (accept thread exited) and the queue is empty.
            return;
        };
        let shutting_down = shared.shutdown.load(Ordering::SeqCst);
        let mut conn = Connection {
            shared,
            stream,
            sessions: HashMap::new(),
            next_wire_id: 1,
            page: Vec::new(),
            frame: Vec::new(),
            payload: Vec::new(),
            scratch: Vec::new(),
        };
        if shutting_down {
            // Queued behind the shutdown: answered, never served.
            let _ = conn.reply(&Response::Err(WireError::ShuttingDown));
        } else {
            // Contain request-path panics (e.g. a `net.*` panic fault
            // action) to this one connection; the worker and its neighbours
            // keep serving.
            let _ = catch_unwind(AssertUnwindSafe(|| conn.serve()));
        }
        conn.close_owned_sessions();
        let _ = conn.stream.shutdown(Shutdown::Both);
        lock_live(shared).remove(&conn_id);
        if shared.shutdown.load(Ordering::SeqCst) {
            shared.bump(|s| s.connections_drained_on_shutdown += 1);
        }
    }
}

/// What [`Connection::dispatch`] answers a request with.
enum Reply {
    Response(Response),
    /// The page just pulled into [`Connection::page`].
    Page {
        done: bool,
    },
}

/// One live connection's state: its socket, its private wire-id → session
/// map (a connection can only ever address sessions it opened itself), and
/// reusable page, encode and decode buffers.
struct Connection<'s> {
    shared: &'s Shared,
    stream: TcpStream,
    sessions: HashMap<u64, SessionId>,
    next_wire_id: u64,
    /// The answers of the page being served, pulled with `next_page_into`
    /// and encoded from the borrowed slice.
    page: Vec<Answer>,
    frame: Vec<u8>,
    payload: Vec<u8>,
    scratch: Vec<u8>,
}

impl Connection<'_> {
    fn serve(&mut self) {
        loop {
            let kind = match self.read_request_frame() {
                Ok(kind) => kind,
                Err(stop) => {
                    if let Some(resp) = stop {
                        let _ = self.reply(&resp);
                    }
                    return;
                }
            };
            // Decode errors are typed protocol errors, then the connection
            // closes: a peer that framed correctly but encoded garbage is
            // not a peer worth resynchronising with.
            let req = match Request::decode(kind, &self.scratch) {
                Ok(req) => req,
                Err(e) => {
                    let _ = self.reply(&Response::Err(e));
                    return;
                }
            };
            let sent = match self.dispatch(req) {
                Reply::Response(resp) => self.reply(&resp),
                Reply::Page { done } => self.reply_page(done),
            };
            if sent.is_err() {
                return;
            }
            if self.shared.shutdown.load(Ordering::SeqCst) {
                // Drain point: the in-flight request was answered in full;
                // now stop taking new ones.
                return;
            }
        }
    }

    /// Read one frame into `self.scratch`, returning its kind byte.
    /// `Err(Some(resp))` means "send this typed error, then close";
    /// `Err(None)` means "close silently".
    fn read_request_frame(&mut self) -> Result<u8, Option<Response>> {
        let clock = Arc::clone(self.shared.service.clock());
        let deadline = self.shared.cfg.frame_deadline;
        let start = clock.now_nanos();
        let exceeded = move || {
            clock.now_nanos().saturating_sub(start)
                >= deadline.as_nanos().min(u64::MAX as u128) as u64
        };
        let max = self.shared.cfg.max_frame_bytes;
        // Phase note: the span covers the blocking wait for the next
        // request too, so `wire_read` time includes client idle/think time
        // — it bounds how long workers sit in reads, not pure socket cost.
        let read = {
            let _span = anyk_obs::phase::span(anyk_obs::Phase::WireRead);
            read_frame(&mut self.stream, max, &mut self.scratch, &exceeded)
        };
        match read {
            // Chaos site, checked as the read completes (a worker parked in
            // a blocking read sees a plan armed meanwhile): the received
            // frame is discarded as if the read had failed, the client gets
            // the typed fault, and the connection closes.
            Ok(_) if faults::check("net.read").is_err() => {
                Err(Some(Response::Err(WireError::Fault("net.read".into()))))
            }
            Ok(kind) => Ok(kind),
            Err(FrameReadError::CleanEof) | Err(FrameReadError::TornEof) => Err(None),
            Err(FrameReadError::TimedOut) => {
                self.shared.bump(|s| s.net_read_timeouts += 1);
                Err(None)
            }
            Err(FrameReadError::TooLarge { max, .. }) => {
                Err(Some(Response::Err(WireError::FrameTooLarge { max })))
            }
            Err(FrameReadError::BadVersion(_)) => {
                Err(Some(Response::Err(WireError::UnsupportedVersion {
                    supported: VERSION,
                })))
            }
            Err(FrameReadError::BadMagic(b)) => Err(Some(Response::Err(WireError::Protocol(
                format!("bad magic byte {b:#04x}"),
            )))),
            Err(FrameReadError::BadReserved(b)) => Err(Some(Response::Err(WireError::Protocol(
                format!("non-zero reserved byte {b:#04x}"),
            )))),
            Err(FrameReadError::Io(_)) => Err(None),
        }
    }

    fn dispatch(&mut self, req: Request) -> Reply {
        let svc = &self.shared.service;
        let resp = match req {
            Request::Ping => Response::Pong,
            Request::Prepare(text) => match QuerySpec::parse(&text) {
                Ok(spec) => match svc.prepare_spec(&spec) {
                    Ok(_) => Response::Prepared(spec.plan_key()),
                    Err(e) => Response::from_service_error(&e, 0),
                },
                Err(e) => Response::Err(WireError::Parse(e.to_string())),
            },
            Request::OpenSession(text) => match svc.open_session_text(&text) {
                Ok(id) => {
                    let wire = self.next_wire_id;
                    self.next_wire_id += 1;
                    self.sessions.insert(wire, id);
                    Response::SessionOpened(wire)
                }
                Err(e) => Response::from_service_error(&e, 0),
            },
            Request::NextPage { session, page_size } => {
                let Some(&id) = self.sessions.get(&session) else {
                    return Reply::Response(Response::Err(WireError::UnknownSession(session)));
                };
                let size = (page_size as usize).clamp(1, self.shared.cfg.max_page_size);
                match svc.next_page_into(id, size, &mut self.page) {
                    Ok(done) => return Reply::Page { done },
                    Err(e) => {
                        if matches!(
                            e,
                            crate::ServiceError::UnknownSession(_)
                                | crate::ServiceError::SessionExpired(_)
                                | crate::ServiceError::SessionPoisoned(_)
                        ) {
                            // The service-side state is gone (or doomed);
                            // forget the handle so disconnect cleanup skips
                            // it.
                            self.sessions.remove(&session);
                        }
                        Response::from_service_error(&e, session)
                    }
                }
            }
            Request::Cancel(session) => {
                let Some(&id) = self.sessions.get(&session) else {
                    return Reply::Response(Response::Err(WireError::UnknownSession(session)));
                };
                match svc.cancel_session(id) {
                    Ok(()) => Response::Cancelled,
                    Err(e) => Response::from_service_error(&e, session),
                }
            }
            Request::Close(session) => {
                let existed = self
                    .sessions
                    .remove(&session)
                    .map(|id| svc.close_session(id))
                    .unwrap_or(false);
                Response::Closed { existed }
            }
            Request::Ingest(batch) => match svc.ingest(&batch) {
                Ok(generation) => Response::Ingested(generation),
                Err(e) => Response::from_service_error(&e, 0),
            },
            Request::Stats => Response::Stats(Box::new(svc.stats_snapshot())),
        };
        Reply::Response(resp)
    }

    fn reply(&mut self, resp: &Response) -> io::Result<()> {
        encode_response(&mut self.frame, &mut self.payload, resp);
        self.send_frame()
    }

    /// Answer with the page in `self.page`.
    fn reply_page(&mut self, done: bool) -> io::Result<()> {
        encode_page_response(&mut self.frame, &mut self.payload, done, &self.page);
        self.send_frame()
    }

    /// Write the frame just encoded into `self.frame`.
    fn send_frame(&mut self) -> io::Result<()> {
        if self.frame.len() > super::protocol::HEADER_LEN + self.shared.cfg.max_frame_bytes as usize
        {
            // The encoded response (a fat page) exceeds our own frame cap:
            // substitute the typed error so the client can shrink its page
            // size. The already-pulled answers are dropped — the server-side
            // clamp (`max_page_size`) exists to make this unreachable for
            // sanely configured servers.
            encode_response(
                &mut self.frame,
                &mut self.payload,
                &Response::Err(WireError::FrameTooLarge {
                    max: self.shared.cfg.max_frame_bytes,
                }),
            );
        }
        if faults::check("net.write").is_err() {
            // Chaos site: simulate the response write failing — the
            // connection drops exactly as if the peer vanished mid-reply.
            return Err(io::Error::other("injected net.write fault"));
        }
        let _span = anyk_obs::phase::span(anyk_obs::Phase::WireWrite);
        match write_frame(&mut self.stream, &self.frame) {
            Ok(()) => Ok(()),
            Err(e) => {
                if is_timeout_io(&e) {
                    self.shared.bump(|s| s.net_write_timeouts += 1);
                }
                Err(e)
            }
        }
    }

    /// Close every session this connection opened and never closed — the
    /// disconnect path (clean, torn, timed-out, or panicked alike), so a
    /// vanished client can never leak Governor slots or MEM units.
    fn close_owned_sessions(&mut self) {
        for (_, id) in self.sessions.drain() {
            let _ = self.shared.service.close_session(id);
        }
    }
}
