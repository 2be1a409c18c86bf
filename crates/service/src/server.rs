//! The event-driven TCP server: one [`SummaryService`] behind both wire
//! front-ends — the binary frame protocol of [`crate::frame`] and the
//! text line protocol of [`crate::protocol`] — on a fixed worker pool.
//!
//! Instead of a thread per connection, the server runs `workers`
//! event-loop threads and no other. Every worker registers the shared
//! nonblocking listener in its own level-triggered [`Poller`] beside
//! its connections; on listener readiness it accepts one connection and
//! registers it before polling again, so a new connection's first
//! request is served at once, and a burst of connects spreads over the
//! workers that wake for it. Ten thousand idle clients cost ten
//! thousand registered fds — not ten thousand stacks. Every connection is
//! nonblocking with an input and an output buffer: reads drain the
//! socket until `WouldBlock`, complete requests are answered in arrival
//! order (so clients may **pipeline** freely), and unflushed responses
//! arm writable interest instead of blocking the loop.
//!
//! The two protocols share one dispatch: the first byte of each request
//! picks the front-end (`0xB5` opens a binary frame, anything else is a
//! text line), both decode to the one [`Request`] vocabulary, and a
//! single `respond` answers it and writes the [`Response`] in the same
//! format as its request — so a debug `telnet` session and a binary load
//! generator can even share a connection. The cluster admin requests
//! (`EPOCH STATE`, `CHECKPOINT`, `RESTORE`) ride the same dispatch; they
//! only ever arrive as binary frames (the text grammar has no line for
//! them), and only a [`ServiceServer::spawn_admin`] endpoint answers them
//! with anything but `ERR`.
//!
//! `INGEST` goes through a mutex around the service's ingest path
//! (frames from concurrent connections interleave, but each frame is
//! ingested atomically and epochs stay frame-aligned). A binary
//! `INGEST` payload takes the **zero-copy fast path**: the little-endian
//! value slice, still borrowed from the connection's read buffer, goes
//! straight to [`SummaryService::ingest_frame_le`] — no per-request
//! allocation. The service decodes it into its reused batch buffer and
//! runs the kernel, and any due epoch publish, on this event-loop thread
//! before the ack is written, so for every shard count an `INGEST` ack
//! means the frame has been applied. Every query answers from the
//! published epoch snapshot through a [`QueryHandle`] and serializes its
//! response (including the `SNAPSHOT` sample, borrowed from the
//! snapshot's cache) straight into the connection's out-buffer, so the
//! read path never contends with ingestion and never copies the sample.
//! Binding port 0 asks the OS for an ephemeral port
//! ([`ServiceServer::port`] reports it), which is what CI and tests use
//! to avoid bind collisions.

use crate::frame;
use crate::protocol::{put_sample, Op, Request, Response, ServiceStats, Wire};
use crate::service::{QueryHandle, SummaryService};
use crate::tenant::{TenantArena, TenantArenaConfig};
use polling::{Event, Poller};
use robust_sampling_core::engine::{SnapshotCodec, StreamSummary};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Bind address; port 0 = OS-assigned ephemeral port.
    pub addr: String,
    /// Universe bound `U` used by the `QUERY KS` drift monitor. Must be
    /// positive: [`ServiceServer::spawn`] rejects 0.
    pub universe: u64,
    /// Event-loop worker threads. Every worker polls the shared listener
    /// beside its own connections and keeps each one it accepts.
    pub workers: usize,
    /// When set, the server additionally hosts a [`TenantArena`] with
    /// this sizing and answers the tenant requests
    /// (`TINGEST`/`TQUERY`/`TSNAPSHOT` and their binary frames). When
    /// `None`, tenant requests answer `ERR`. [`ServiceServer::spawn`]
    /// rejects an arena config with `universe < 2` or ε, δ outside
    /// (0, 1).
    pub tenants: Option<TenantArenaConfig>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            universe: 1 << 20,
            workers: 4,
            tenants: None,
        }
    }
}

/// Answers the cluster admin requests on a
/// [`ServiceServer::spawn_admin`] endpoint. `RESTORE` replaces the
/// service wholesale under the mutex, and its published snapshot goes
/// into the cell every query reads before the acknowledgement, so no
/// query window ever mixes old and new state. A checkpoint with a
/// different shard count is rejected.
fn answer_admin(req: Request, shared: &Shared) -> Response {
    let lock = || shared.service.lock().expect("service lock poisoned");
    match req {
        Request::EpochState { since } => {
            let service = lock();
            let snap = service.snapshot();
            // The requester already holds this epoch: skip the encode.
            let state = (since != Some(snap.epoch())).then(|| {
                let mut state = Vec::new();
                snap.summary().save_into(&mut state);
                state
            });
            Response::EpochState {
                epoch: snap.epoch(),
                items: snap.items() as u64,
                frames_acked: service.frames_acked(),
                state,
            }
        }
        Request::Checkpoint => {
            let service = lock();
            Response::Checkpoint {
                frames_acked: service.frames_acked(),
                bytes: service.checkpoint(),
            }
        }
        Request::Restore(bytes) => match SummaryService::restore(&bytes) {
            Ok(restored) => {
                let frames_acked = restored.frames_acked();
                let mut service = lock();
                // A node keeps its shard count: the cluster's bit-identity
                // with the offline merge assumes one shard per node.
                let (got, serving) = (restored.num_shards(), service.num_shards());
                if got != serving {
                    return Response::Err(format!(
                        "restore rejected: checkpoint has {got} shards, this node serves {serving}"
                    ));
                }
                service.replace(restored);
                Response::Restored { frames_acked }
            }
            Err(e) => Response::Err(format!("restore rejected: {e}")),
        },
        _ => unreachable!("only admin requests reach the admin hook"),
    }
}

struct Shared {
    service: Mutex<SummaryService>,
    /// The service's published cell. An admin `RESTORE` writes the
    /// restored snapshot into the same cell, so this handle never
    /// changes.
    queries: QueryHandle,
    universe: u64,
    /// Answer the cluster admin requests (set by `spawn_admin`); when
    /// false they get `ERR`.
    admin: bool,
    /// The keyed per-tenant arena, when enabled. Ingest and tenant
    /// queries share this mutex — tenant queries must revive evicted
    /// tenants, so they mutate the arena and cannot ride the snapshot
    /// read path.
    arena: Option<Mutex<TenantArena>>,
}

/// How long a worker sleeps in `poll` before re-checking the stop flag
/// when nothing wakes it.
const POLL_TICK: Duration = Duration::from_millis(10);

/// The poller key of the shared listener; connection keys count up
/// from 0 and never reach it.
const LISTENER_KEY: usize = usize::MAX;

/// A running server. Dropping it (or calling
/// [`shutdown`](ServiceServer::shutdown)) stops the worker pool;
/// established connections are closed by their workers on the way out.
#[derive(Debug)]
pub struct ServiceServer {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    worker_handles: Vec<JoinHandle<()>>,
}

impl ServiceServer {
    /// Bind `config.addr` and serve `service` until shutdown. Returns as
    /// soon as the listener is bound — the fixed worker pool accepts and
    /// serves on its own threads; no thread is ever spawned per
    /// connection.
    ///
    /// # Errors
    ///
    /// `InvalidInput`, before anything is bound, if `config.universe` is
    /// 0 or `config.tenants` is out of range (`universe < 2`, or ε or δ
    /// outside (0, 1)); otherwise any error binding `config.addr`.
    pub fn spawn(service: SummaryService, config: ServiceConfig) -> std::io::Result<Self> {
        Self::spawn_inner(service, config, false)
    }

    /// Like [`spawn`](Self::spawn), but with the **cluster control
    /// plane** enabled: the endpoint additionally answers the binary
    /// admin frames — `EPOCH STATE` (pull the published epoch snapshot
    /// for a coordinator's shard-order merge; only its header when the
    /// request's `since` is the published epoch), `CHECKPOINT` (pull the
    /// full checkpoint envelope), and `RESTORE` (swap in a service
    /// rebuilt from an envelope; the restored published snapshot goes
    /// into the cell queries read, in one swap). This is what a cluster
    /// node's serving endpoint runs; the plain `spawn` answers admin
    /// frames with `ERR`, so no client of it can read or replace the
    /// served state. Admin requests are binary-only: the text grammar
    /// has no line for them. Fails as `spawn` does.
    pub fn spawn_admin(service: SummaryService, config: ServiceConfig) -> std::io::Result<Self> {
        Self::spawn_inner(service, config, true)
    }

    fn spawn_inner(
        service: SummaryService,
        config: ServiceConfig,
        admin: bool,
    ) -> std::io::Result<Self> {
        if config.universe == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "universe must be positive: QUERY KS measures against {0, …, universe − 1}",
            ));
        }
        if let Some(tenants) = &config.tenants {
            tenants.check()?;
        }
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let listener = Arc::new(listener);
        let stop = Arc::new(AtomicBool::new(false));
        let shared = Arc::new(Shared {
            queries: service.query_handle(),
            service: Mutex::new(service),
            universe: config.universe,
            admin,
            arena: config.tenants.map(|c| Mutex::new(TenantArena::new(c))),
        });
        let worker_handles = (0..config.workers.max(1))
            .map(|i| {
                let (listener, shared, stop) = (
                    Arc::clone(&listener),
                    Arc::clone(&shared),
                    Arc::clone(&stop),
                );
                std::thread::Builder::new()
                    .name(format!("svc-worker-{i}"))
                    .spawn(move || worker_loop(&listener, &shared, &stop))
                    .expect("spawn worker thread")
            })
            .collect();
        Ok(Self {
            local_addr,
            stop,
            worker_handles,
        })
    }

    /// The bound address (the resolved port when 0 was requested).
    pub fn addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The bound port.
    pub fn port(&self) -> u16 {
        self.local_addr.port()
    }

    /// Stop the worker pool. Workers close their established
    /// connections on exit, so shutdown does not wait on remote clients.
    pub fn shutdown(mut self) {
        self.stop_all();
    }

    /// Set the stop flag, then connect once to the server's own port:
    /// the pending connection makes the listener readable in every
    /// worker's poll, and a stopping worker never accepts it, so all of
    /// them wake at once and exit. If that connect fails, each worker
    /// still sees the flag within one [`POLL_TICK`].
    fn stop_all(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        // Held open until every worker has joined. (Linux routes a
        // connect to an unspecified bind address to the local host.)
        let _wake = TcpStream::connect_timeout(&self.local_addr, POLL_TICK);
        for h in self.worker_handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for ServiceServer {
    fn drop(&mut self) {
        self.stop_all();
    }
}

/// Longest text request line the server will buffer: a full
/// [`MAX_INGEST_FRAME`](crate::protocol::MAX_INGEST_FRAME) of 20-digit
/// values plus separators fits comfortably. A longer line is discarded
/// as it streams in (memory stays bounded per connection), the client
/// gets one `ERR` for it, and parsing resumes at the next newline — the
/// line's tail is *drained*, never misread as fresh commands.
const MAX_LINE_BYTES: usize = 2 << 20;

/// Per-read scratch size; also the flushed-prefix threshold above which
/// the output buffer is compacted.
const IO_CHUNK: usize = 64 * 1024;

/// One worker's event loop: poll the shared listener and this worker's
/// connections, accept at most one connection per wake, and drive
/// readable/writable connections forward.
fn worker_loop(listener: &TcpListener, shared: &Shared, stop: &AtomicBool) {
    let Ok(poller) = Poller::new() else { return };
    if poller.add(listener, Event::readable(LISTENER_KEY)).is_err() {
        return;
    }
    let mut conns: HashMap<usize, Conn> = HashMap::new();
    let mut next_key = 0usize;
    let mut events: Vec<Event> = Vec::new();
    let mut scratch = vec![0u8; IO_CHUNK];
    while !stop.load(Ordering::Relaxed) {
        events.clear();
        let _ = poller.wait(&mut events, Some(POLL_TICK));
        for ev in &events {
            if ev.key == LISTENER_KEY {
                // A stopping worker leaves the shutdown's wake
                // connection in the backlog for its siblings' polls.
                // Any accept error is retried on the next wake.
                if stop.load(Ordering::Relaxed) {
                    continue;
                }
                if let Ok((stream, _)) = listener.accept() {
                    if stream.set_nonblocking(true).is_ok()
                        && poller.add(&stream, Event::readable(next_key)).is_ok()
                    {
                        let _ = stream.set_nodelay(true);
                        conns.insert(next_key, Conn::new(stream));
                        next_key += 1;
                    }
                }
                continue;
            }
            let Some(conn) = conns.get_mut(&ev.key) else {
                continue;
            };
            if conn.drive(ev, shared, &mut scratch) {
                conn.update_interest(&poller, ev.key);
            } else {
                let _ = poller.delete(&conn.stream);
                conns.remove(&ev.key);
            }
        }
    }
    // Workers own their connections; exiting closes them.
}

/// One nonblocking connection: unconsumed input, unflushed output, and
/// the small state machine between them.
struct Conn {
    stream: TcpStream,
    inbuf: Vec<u8>,
    outbuf: Vec<u8>,
    /// Flushed prefix of `outbuf` (compacted past [`IO_CHUNK`]).
    outpos: usize,
    /// Discarding an oversized text line until its newline.
    draining_line: bool,
    /// Close once the output buffer flushes (after `QUIT`, a binary
    /// framing error, or EOF).
    closing: bool,
    /// Currently registered for writable interest too.
    want_write: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Conn {
            stream,
            inbuf: Vec::new(),
            outbuf: Vec::new(),
            outpos: 0,
            draining_line: false,
            closing: false,
            want_write: false,
        }
    }

    /// Advance the connection for one readiness event. Returns `false`
    /// when the connection is finished and must be deregistered.
    fn drive(&mut self, ev: &Event, shared: &Shared, scratch: &mut [u8]) -> bool {
        if ev.readable && !self.closing {
            loop {
                match self.stream.read(scratch) {
                    Ok(0) => {
                        self.process(shared);
                        self.finish_at_eof(shared);
                        self.closing = true;
                        break;
                    }
                    Ok(n) => {
                        self.inbuf.extend_from_slice(&scratch[..n]);
                        // Process *between* reads once the buffer holds a
                        // cap's worth — an endless newline-free flood must
                        // be detected and discarded as it streams in, not
                        // accumulated until the socket runs dry.
                        if self.inbuf.len() >= MAX_LINE_BYTES {
                            self.process(shared);
                            if self.closing {
                                break;
                            }
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        self.process(shared);
                        break;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => return false,
                }
            }
        }
        if !self.flush() {
            return false;
        }
        // Stay alive until a closing connection has fully flushed.
        !self.closing || self.has_output()
    }

    /// Consume every complete request in the input buffer, appending
    /// each response (in request order) to the output buffer.
    fn process(&mut self, shared: &Shared) {
        let mut pos = 0;
        while !self.closing {
            if self.draining_line {
                match memchr_nl(&self.inbuf[pos..]) {
                    Some(i) => {
                        pos += i + 1;
                        self.draining_line = false;
                        // The ERR for this line was emitted when the
                        // overflow was detected; parsing resumes here.
                    }
                    None => {
                        pos = self.inbuf.len();
                        break;
                    }
                }
                continue;
            }
            let buf = &self.inbuf[pos..];
            let Some(&first) = buf.first() else { break };
            if frame::is_frame_start(first) {
                match frame::decode_request_frame(buf) {
                    // The zero-copy ingest fast path: the payload slice
                    // (borrowed from the input buffer) is decoded straight
                    // into the service's reused batch buffers — no
                    // per-request Vec<u64> is ever built.
                    Ok(Some((frame::RequestFrame::IngestLe(payload), consumed))) => {
                        let total = shared
                            .service
                            .lock()
                            .expect("service lock poisoned")
                            .ingest_frame_le(payload);
                        pos += consumed;
                        frame::encode_response(&Response::Ingested(total), &mut self.outbuf);
                    }
                    // The tenant analogue: the borrowed value chunk goes
                    // straight into the tenant's reservoir.
                    Ok(Some((
                        frame::RequestFrame::TenantIngestLe { tenant, payload },
                        consumed,
                    ))) => {
                        pos += consumed;
                        let resp = match &shared.arena {
                            Some(arena) => Response::Ingested(
                                arena
                                    .lock()
                                    .expect("arena lock poisoned")
                                    .ingest_le(tenant, payload),
                            ),
                            None => Response::Err(NO_ARENA.into()),
                        };
                        frame::encode_response(&resp, &mut self.outbuf);
                    }
                    Ok(Some((frame::RequestFrame::Owned(req), consumed))) => {
                        pos += consumed;
                        self.respond(Ok(req), Wire::Binary, shared);
                    }
                    Ok(None) => break,
                    Err(e) => {
                        // The stream cannot be resynchronized after a
                        // framing violation: report and close.
                        self.respond(Err(e.to_string()), Wire::Binary, shared);
                        self.closing = true;
                        pos = self.inbuf.len();
                    }
                }
            } else {
                match memchr_nl(buf) {
                    Some(i) if i >= MAX_LINE_BYTES => {
                        // Complete, but too long to be a legal command
                        // (can happen when the newline arrived in the
                        // same read burst as the flood).
                        pos += i + 1;
                        self.respond(Err(LINE_OVER_CAP.into()), Wire::Text, shared);
                    }
                    Some(i) => {
                        let line_end = pos + i;
                        let (head, _) = self.inbuf.split_at(line_end);
                        let req = parse_text_line(&head[pos..]);
                        pos = line_end + 1;
                        self.respond(req, Wire::Text, shared);
                    }
                    None => {
                        if buf.len() >= MAX_LINE_BYTES {
                            // Too long to ever parse: answer now, then
                            // discard until the newline shows up.
                            self.respond(Err(LINE_OVER_CAP.into()), Wire::Text, shared);
                            self.draining_line = true;
                            pos = self.inbuf.len();
                        }
                        break;
                    }
                }
            }
        }
        if pos > 0 {
            self.inbuf.drain(..pos);
        }
    }

    /// EOF housekeeping: a final unterminated text line still gets
    /// parsed and answered (matching the old blocking server), a
    /// partial binary frame is silently dropped.
    fn finish_at_eof(&mut self, shared: &Shared) {
        if self.draining_line || self.inbuf.is_empty() {
            return;
        }
        if !frame::is_frame_start(self.inbuf[0]) && self.inbuf.len() < MAX_LINE_BYTES {
            let line = std::mem::take(&mut self.inbuf);
            self.respond(parse_text_line(&line), Wire::Text, shared);
        }
        self.inbuf.clear();
    }

    /// Answer one request — or the error that stood in for it — and
    /// write the response to the out-buffer in the request's own wire
    /// format. `SNAPSHOT` and `TSNAPSHOT` write the sample straight from
    /// the snapshot's cached slice or the tenant's reservoir, with no
    /// intermediate [`Response`] (a text `TSNAPSHOT` copies the sample
    /// first, to format it outside the arena lock).
    fn respond(&mut self, req: Result<Request, String>, wire: Wire, shared: &Shared) {
        let resp = match req {
            Ok(Request::Snapshot) => {
                let snap = shared.queries.snapshot();
                let (epoch, items, sample) = (snap.epoch(), snap.items(), snap.visible_ref());
                return wire.put(&mut self.outbuf, |w| {
                    put_sample(w, Op::OkSnapshot, epoch, items, sample)
                });
            }
            Ok(Request::TenantSnapshot { tenant }) if let Some(arena) = &shared.arena => {
                let mut arena = arena.lock().expect("arena lock poisoned");
                let (items, sample) = arena.snapshot(tenant);
                // A binary sample is one copy, made under the lock; text
                // formats k decimals, so it copies the sample and formats
                // it with the lock released.
                if wire == Wire::Binary {
                    return wire.put(&mut self.outbuf, |w| {
                        put_sample(w, Op::OkTenantSnapshot, tenant, items, sample)
                    });
                }
                let sample = sample.to_vec();
                drop(arena);
                return wire.put(&mut self.outbuf, |w| {
                    put_sample(w, Op::OkTenantSnapshot, tenant, items, &sample)
                });
            }
            Ok(Request::Quit) => {
                self.closing = true;
                Response::Bye
            }
            Ok(req) => answer(req, shared),
            Err(msg) => Response::Err(msg),
        };
        wire.put(&mut self.outbuf, |w| resp.put(w));
    }

    /// Write until `WouldBlock` or the buffer empties. Returns `false`
    /// when the connection broke.
    fn flush(&mut self) -> bool {
        while self.outpos < self.outbuf.len() {
            match self.stream.write(&self.outbuf[self.outpos..]) {
                Ok(0) => return false,
                Ok(n) => self.outpos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        if self.outpos == self.outbuf.len() {
            self.outbuf.clear();
            self.outpos = 0;
        } else if self.outpos > IO_CHUNK {
            self.outbuf.drain(..self.outpos);
            self.outpos = 0;
        }
        true
    }

    fn has_output(&self) -> bool {
        self.outpos < self.outbuf.len()
    }

    /// Arm writable interest only while output is pending — the
    /// level-triggered poller would otherwise report an idle socket's
    /// writability on every wait.
    fn update_interest(&mut self, poller: &Poller, key: usize) {
        let want_write = self.has_output();
        if want_write != self.want_write {
            let interest = if want_write {
                Event::all(key)
            } else {
                Event::readable(key)
            };
            if poller.modify(&self.stream, interest).is_ok() {
                self.want_write = want_write;
            }
        }
    }
}

/// First newline in `buf`, if any.
fn memchr_nl(buf: &[u8]) -> Option<usize> {
    buf.iter().position(|&b| b == b'\n')
}

/// Decode one text line (everything before the newline) into a request.
fn parse_text_line(raw: &[u8]) -> Result<Request, String> {
    let line = std::str::from_utf8(raw).map_err(|_| "request line is not UTF-8".to_string())?;
    Request::parse(line.trim_end_matches(['\r', '\n']))
}

/// The error every tenant request gets on a server spawned without an
/// arena.
const NO_ARENA: &str = "tenant arena is not enabled on this endpoint";

/// The error for a text line longer than [`MAX_LINE_BYTES`].
const LINE_OVER_CAP: &str = "request line exceeds the per-line byte cap";

fn answer(req: Request, shared: &Shared) -> Response {
    // `TenantSnapshot` gets here only on a server without an arena, for
    // the `NO_ARENA` error; with one, `Conn::respond` answers it from the
    // borrowed sample.
    if matches!(
        req,
        Request::TenantIngest { .. }
            | Request::TenantQueryCount { .. }
            | Request::TenantQueryQuantile { .. }
            | Request::TenantSnapshot { .. }
    ) {
        let Some(arena) = &shared.arena else {
            return Response::Err(NO_ARENA.into());
        };
        let mut arena = arena.lock().expect("arena lock poisoned");
        return match req {
            Request::TenantIngest { tenant, values } => {
                Response::Ingested(arena.ingest(tenant, &values))
            }
            Request::TenantQueryCount { tenant, x } => Response::Count(arena.count(tenant, x)),
            Request::TenantQueryQuantile { tenant, q } => {
                Response::Quantile(arena.quantile(tenant, q))
            }
            _ => unreachable!("matched tenant requests above"),
        };
    }
    match req {
        Request::Ingest(vs) => {
            let mut service = shared.service.lock().expect("service lock poisoned");
            Response::Ingested(service.ingest_frame(&vs))
        }
        Request::QueryCount(x) => Response::Count(shared.queries.snapshot().count(x)),
        Request::QueryQuantile(q) => Response::Quantile(shared.queries.snapshot().quantile(q)),
        Request::QueryHeavy(t) => Response::Heavy(shared.queries.snapshot().heavy(t)),
        Request::QueryKs => Response::Ks(shared.queries.snapshot().ks_uniform(shared.universe)),
        Request::Stats => {
            let snap = shared.queries.snapshot();
            let service = shared.service.lock().expect("service lock poisoned");
            let space = snap.summary().space();
            let (arena_tenants, arena_bytes, arena_evictions) = match &shared.arena {
                Some(arena) => {
                    let arena = arena.lock().expect("arena lock poisoned");
                    (
                        arena.known_tenants(),
                        arena.resident_bytes(),
                        arena.counters().evictions,
                    )
                }
                None => (0, 0, 0),
            };
            Response::Stats(ServiceStats {
                items: service.items_routed(),
                epoch: snap.epoch(),
                shards: service.num_shards(),
                space,
                snapshot_items: snap.items(),
                shard_bytes: 8 * space,
                arena_tenants,
                arena_bytes,
                arena_evictions,
            })
        }
        Request::EpochState { .. } | Request::Checkpoint | Request::Restore(_) => {
            if shared.admin {
                answer_admin(req, shared)
            } else {
                Response::Err("admin frames are not enabled on this endpoint".into())
            }
        }
        Request::Snapshot | Request::Quit => unreachable!("answered by `Conn::respond`"),
        Request::TenantIngest { .. }
        | Request::TenantQueryCount { .. }
        | Request::TenantQueryQuantile { .. }
        | Request::TenantSnapshot { .. } => unreachable!("dispatched to the arena above"),
    }
}
