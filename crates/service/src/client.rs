//! [`ServiceClient`]: a blocking TCP client that doubles as the
//! remote-duel bridge.
//!
//! The client speaks either wire format the server offers —
//! [`connect`](ServiceClient::connect) uses the text line protocol of
//! [`crate::protocol`] (handy for debugging: its traffic is readable in
//! `tcpdump` and composable with `telnet`),
//! [`connect_binary`](ServiceClient::connect_binary) the framed binary
//! protocol of [`crate::frame`] — behind one request API, so every
//! caller (and both trait bridges below) is format-agnostic. On top of
//! the one-at-a-time request methods, [`pipeline`](ServiceClient::pipeline)
//! writes any number of requests before reading and returns the
//! responses in order — one flush and one socket round trip for a whole
//! batch, which is where the binary protocol's throughput headroom
//! comes from. Every request, the cluster admin ones included, leaves
//! through one send path — which refuses, with `InvalidInput` and before
//! writing a byte, any request the connection's wire cannot carry — and
//! every reply arrives through one receive path. The blocking methods
//! are one send and one receive each, and the cluster router uses the
//! crate-private halves to put a request on every node's connection
//! before it reads any reply. The router also sends `INGEST` frames with
//! their acks left owed, at most 16 per connection, and without a flush:
//! they queue in the connection's 8 KiB write buffer, which goes out
//! when it fills and before the receive path's first socket read, so a
//! routed chunk costs a node a fraction of a write. The connection counts
//! the owed acks, and the receive path and
//! [`pipeline`](ServiceClient::pipeline) read them before any later
//! reply, so no call misreads an ack. The admin requests
//! (`EPOCH STATE`, `CHECKPOINT`, `RESTORE`) are binary-only.
//!
//! Besides the plain request methods, the client implements the core
//! engine and attack traits —
//! [`StreamSummary`] (ingest = `INGEST` frames),
//! [`StateOracle`] (count/quantile oracles = `QUERY` round trips), and
//! [`ObservableDefense`] (visible state = `SNAPSHOT`) — so a live
//! service slots in anywhere a local summary would. In particular,
//! [`Duel::run`](robust_sampling_core::attack::Duel) plays any registered
//! [`AttackStrategy`](robust_sampling_core::attack::AttackStrategy)
//! against a remote service **unchanged**: every round the attack reads
//! the served epoch snapshot over the socket, picks its element, and
//! `INGEST`s it — the paper's adaptive game across a real client/server
//! boundary. (Serve with `epoch_every = 1` so the adversary's view is
//! fresh each round.)
//!
//! The trait impls take `&self`/`&mut self` but must do socket I/O, so
//! the connection lives in a `RefCell`; the client is single-threaded by
//! construction (one connection per client, one client per thread). A
//! connection is one socket: requests are written through its buffered
//! writer, and replies of either wire are read straight from it into one
//! buffer and cut there — a frame at its length, a text reply at its
//! newline.
//! Trait-path I/O errors panic — in the harness a dead service run is a
//! failed experiment, not a recoverable condition; the inherent methods
//! return `io::Result` for callers that want to handle failure.

use crate::frame::MAX_FRAME_PAYLOAD;
use crate::protocol::{put_ingest, Request, Response, ServiceStats, Wire, MAX_INGEST_FRAME};
use robust_sampling_core::attack::{ObservableDefense, StateOracle};
use robust_sampling_core::engine::StreamSummary;
use std::cell::{Cell, RefCell};
use std::io::{BufWriter, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

struct Conn {
    /// The connection's one socket: written through the buffer, read
    /// through [`BufWriter::get_ref`] into `rbuf`. Every send but an owed
    /// `INGEST` flushes; the receive path flushes before it reads, so a
    /// queued frame is on the wire before any reply is awaited.
    writer: BufWriter<TcpStream>,
    wire: Wire,
    /// Read buffer: `rbuf[..filled]` holds the bytes read past the last
    /// decoded reply. It only grows, so a read does not zero it again.
    rbuf: Vec<u8>,
    filled: usize,
    /// Reusable serialization scratch: every outgoing request is encoded
    /// into this buffer, so steady-state sends allocate nothing.
    wbuf: Vec<u8>,
    /// `INGESTED` acks owed: frames sent by
    /// [`send_ingest_owed`](ServiceClient::send_ingest_owed) whose acks
    /// are still unread. They precede every later reply, so each read of
    /// a reply drains them first.
    owed: usize,
}

/// The most `INGESTED` acks one connection may owe: the same pipelining
/// depth a single-node client reaches by writing 16 frames per batch.
const MAX_OWED_ACKS: usize = 16;

/// Why `wire` cannot carry `req`, if it cannot: a binary frame holds an
/// ingest chunk of 1..=[`MAX_INGEST_FRAME`] values and a non-empty
/// `RESTORE` envelope of at most [`MAX_FRAME_PAYLOAD`] bytes, and the
/// admin requests have no text form. (The text wire carries any ingest
/// line; the server answers a bad one with `ERR`.)
fn unsendable(req: &Request, wire: Wire) -> Option<String> {
    match (wire, req) {
        (Wire::Text, req) if req.is_admin() => {
            Some("admin requests are binary-only; connect with connect_binary".into())
        }
        (Wire::Binary, Request::Ingest(vs) | Request::TenantIngest { values: vs, .. })
            if vs.is_empty() || vs.len() > MAX_INGEST_FRAME =>
        {
            Some(format!(
                "an ingest frame carries 1..={MAX_INGEST_FRAME} values, got {}",
                vs.len()
            ))
        }
        (Wire::Binary, Request::Restore(bytes))
            if bytes.is_empty() || bytes.len() > MAX_FRAME_PAYLOAD =>
        {
            Some(format!(
                "a RESTORE envelope is 1..={MAX_FRAME_PAYLOAD} bytes, got {}",
                bytes.len()
            ))
        }
        _ => None,
    }
}

impl Conn {
    /// The one send path: check every request against this wire, then
    /// encode and write each through the reusable scratch. A request the
    /// wire cannot carry fails the whole batch with `InvalidInput` before
    /// any byte is written, so the connection stays in sync.
    fn send(&mut self, reqs: &[Request]) -> std::io::Result<()> {
        if let Some(why) = reqs.iter().find_map(|req| unsendable(req, self.wire)) {
            return Err(std::io::Error::new(std::io::ErrorKind::InvalidInput, why));
        }
        for req in reqs {
            self.wbuf.clear();
            self.wire.put(&mut self.wbuf, |w| req.put(w));
            self.writer.write_all(&self.wbuf)?;
        }
        Ok(())
    }

    /// Encode an `INGEST` frame — or, with a tenant, a `TINGEST` frame —
    /// straight from the value slice: no owned `Request::Ingest(Vec<u64>)`
    /// is ever built on the ingest path.
    fn send_ingest(&mut self, tenant: Option<u64>, chunk: &[u64]) -> std::io::Result<()> {
        self.wbuf.clear();
        self.wire
            .put(&mut self.wbuf, |w| put_ingest(w, tenant, chunk));
        self.writer.write_all(&self.wbuf)
    }

    /// The one receive path: read the next reply in this wire's format,
    /// flushing the write buffer before the first socket read. Each read
    /// asks the socket for at least 8 KiB, as `BufReader` would, and for
    /// as much again as is buffered once a reply outgrows that, so a long
    /// reply takes few reads.
    fn receive(&mut self) -> std::io::Result<Response> {
        loop {
            let buffered = &self.rbuf[..self.filled];
            if let Some((resp, consumed)) = self
                .wire
                .take_response(buffered)
                .map_err(std::io::Error::other)?
            {
                self.rbuf.copy_within(consumed..self.filled, 0);
                self.filled -= consumed;
                return Ok(resp);
            }
            // Requests still in the write buffer go out before the first
            // read: the reply may answer one of them.
            self.writer.flush()?;
            let want = self.filled + self.filled.max(8 << 10);
            if self.rbuf.len() < want {
                self.rbuf.resize(want, 0);
            }
            match self.writer.get_ref().read(&mut self.rbuf[self.filled..]) {
                Ok(0) => return Err(closed()),
                Ok(n) => self.filled += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// An `INGESTED` ack's running item count; any other reply is an error.
fn ack(reply: Response) -> std::io::Result<usize> {
    match reply {
        Response::Ingested(n) => Ok(n),
        Response::Err(msg) => Err(service_error(msg)),
        other => Err(std::io::Error::other(format!(
            "expected INGESTED response, got {other:?}"
        ))),
    }
}

/// Read every ack `conn` owes, oldest first. Each owed reply is read even
/// after one fails, so the connection stays in step with its requests;
/// the first failure is returned.
fn drain(conn: &mut Conn) -> std::io::Result<()> {
    let mut result = Ok(());
    for _ in 0..std::mem::take(&mut conn.owed) {
        result = result.and(conn.receive().and_then(ack).map(drop));
    }
    result
}

fn service_error(msg: impl std::fmt::Display) -> std::io::Error {
    std::io::Error::other(format!("service error: {msg}"))
}

fn closed() -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::UnexpectedEof,
        "service closed the connection",
    )
}

/// One `EPOCH STATE` reply: `(epoch, boundary items, frame high-water
/// mark, summary codec bytes)`, the bytes `None` when the node's epoch
/// equals the request's `since`.
pub type EpochState = (u64, usize, u64, Option<Vec<u8>>);

/// A blocking client over one TCP connection, speaking either the text
/// or the binary wire format.
pub struct ServiceClient {
    conn: RefCell<Conn>,
    /// Total items on the service per its last `INGESTED`/`STATS` reply.
    last_items: Cell<usize>,
    /// Sample length of the last `SNAPSHOT` reply.
    last_sample_len: Cell<usize>,
}

impl std::fmt::Debug for ServiceClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceClient")
            .field("last_items", &self.last_items.get())
            .finish()
    }
}

impl ServiceClient {
    /// Connect to a serving [`ServiceServer`](crate::ServiceServer)
    /// speaking the text line protocol.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        Self::connect_wire(addr, Wire::Text)
    }

    /// Connect speaking the binary frame protocol — same API, but every
    /// request travels as one length-prefixed frame and `INGEST` batches
    /// move as flat `u64` chunks the server never re-parses per element.
    pub fn connect_binary(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        Self::connect_wire(addr, Wire::Binary)
    }

    fn connect_wire(addr: impl ToSocketAddrs, wire: Wire) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self {
            conn: RefCell::new(Conn {
                writer: BufWriter::new(stream),
                wire,
                rbuf: Vec::new(),
                filled: 0,
                wbuf: Vec::new(),
                owed: 0,
            }),
            last_items: Cell::new(0),
            last_sample_len: Cell::new(0),
        })
    }

    /// Send half of one request: write and flush it and return without
    /// reading the reply. A caller holding several connections (the
    /// cluster router) puts a request on each before waiting on any.
    pub(crate) fn send(&self, req: &Request) -> std::io::Result<()> {
        let mut conn = self.conn.borrow_mut();
        conn.send(std::slice::from_ref(req))?;
        conn.writer.flush()
    }

    /// Receive half: the next reply, a service-side `ERR` turned into an
    /// error. Owed acks are drained first; if one of them failed, its
    /// error is returned once this request's own reply has been read.
    fn recv(&self) -> std::io::Result<Response> {
        let mut conn = self.conn.borrow_mut();
        let drained = drain(&mut conn);
        let reply = conn.receive();
        drained?;
        match reply? {
            Response::Err(msg) => Err(service_error(msg)),
            resp => Ok(resp),
        }
    }

    /// One request/response round trip.
    fn round_trip(&self, req: &Request) -> std::io::Result<Response> {
        self.send(req)?;
        self.recv()
    }

    /// **Pipelining**: write every request back-to-back with one flush,
    /// then read the responses — the server guarantees arrival order, so
    /// `out[i]` answers `reqs[i]`. A whole batch costs one network round
    /// trip instead of `reqs.len()`. Service-level errors come back as
    /// [`Response::Err`] values in the output (the pipeline keeps going);
    /// only transport failures error out. A request the connection's
    /// wire cannot carry (an empty or over-cap binary ingest frame, an
    /// admin request on a text connection, …) fails the call with
    /// `InvalidInput` before anything is sent.
    pub fn pipeline(&self, reqs: &[Request]) -> std::io::Result<Vec<Response>> {
        let mut conn = self.conn.borrow_mut();
        drain(&mut conn)?;
        conn.send(reqs)?;
        conn.writer.flush()?;
        let mut out = Vec::with_capacity(reqs.len());
        for _ in reqs {
            let resp = conn.receive()?;
            match &resp {
                Response::Ingested(n) => self.last_items.set(*n),
                Response::Stats(st) => self.last_items.set(st.items),
                Response::Snapshot { sample, .. } => self.last_sample_len.set(sample.len()),
                _ => {}
            }
            out.push(resp);
        }
        Ok(out)
    }

    fn unexpected<T>(&self, what: &str, got: impl std::fmt::Debug) -> std::io::Result<T> {
        Err(std::io::Error::other(format!(
            "expected {what} response, got {got:?}"
        )))
    }

    /// Send half of `INGEST` (or, with a tenant, `TINGEST`): encode one
    /// frame of at most [`MAX_INGEST_FRAME`] values straight from `chunk`
    /// into the connection's reusable write scratch, write and flush it,
    /// and return without reading the ack.
    fn send_ingest(&self, tenant: Option<u64>, chunk: &[u64]) -> std::io::Result<()> {
        debug_assert!(chunk.len() <= MAX_INGEST_FRAME);
        let mut conn = self.conn.borrow_mut();
        conn.send_ingest(tenant, chunk)?;
        conn.writer.flush()
    }

    /// Queue one `INGEST` frame of at most [`MAX_INGEST_FRAME`] values in
    /// the connection's write buffer and leave its ack owed. Nothing is
    /// flushed: the frame reaches the socket when the buffer fills, at
    /// the connection's next read, or when the client is dropped, so a
    /// caller that only sends (the cluster router) pays one write per
    /// buffer of frames. When the connection already owes
    /// [`MAX_OWED_ACKS`], the oldest ack is read first, so that caller
    /// waits on a round trip once per 16 frames instead of once per
    /// frame.
    pub(crate) fn send_ingest_owed(&self, chunk: &[u64]) -> std::io::Result<()> {
        let mut conn = self.conn.borrow_mut();
        if conn.owed == MAX_OWED_ACKS {
            conn.owed -= 1;
            conn.receive().and_then(ack)?;
        }
        debug_assert!(chunk.len() <= MAX_INGEST_FRAME);
        conn.send_ingest(None, chunk)?;
        conn.owed += 1;
        Ok(())
    }

    /// Read every ack this connection owes; see [`drain`].
    pub(crate) fn drain_owed(&self) -> std::io::Result<()> {
        drain(&mut self.conn.borrow_mut())
    }

    /// Send `xs` in frames under the protocol's frame cap, one round trip
    /// each; the last ack's running count, or `None` for empty `xs`.
    fn ingest_frames(&self, tenant: Option<u64>, xs: &[u64]) -> std::io::Result<Option<usize>> {
        let mut total = None;
        for chunk in xs.chunks(MAX_INGEST_FRAME) {
            self.send_ingest(tenant, chunk)?;
            total = Some(self.recv().and_then(ack)?);
        }
        Ok(total)
    }

    /// `INGEST` a frame (chunked under the protocol's frame cap);
    /// returns the service's total item count afterwards. The frames are
    /// encoded straight from `xs` into the connection's reusable write
    /// scratch — the ingest path builds no owned request.
    pub fn ingest(&self, xs: &[u64]) -> std::io::Result<usize> {
        let total = self
            .ingest_frames(None, xs)?
            .unwrap_or(self.last_items.get());
        self.last_items.set(total);
        Ok(total)
    }

    /// `TINGEST tenant …`: ingest a frame into one tenant's summary
    /// (chunked under the protocol's frame cap); returns that tenant's
    /// total item count afterwards.
    pub fn tenant_ingest(&self, tenant: u64, xs: &[u64]) -> std::io::Result<usize> {
        Ok(self.ingest_frames(Some(tenant), xs)?.unwrap_or(0))
    }

    /// `TQUERY COUNT tenant x`.
    pub fn tenant_count(&self, tenant: u64, x: u64) -> std::io::Result<f64> {
        match self.round_trip(&Request::TenantQueryCount { tenant, x })? {
            Response::Count(c) => Ok(c),
            other => self.unexpected("COUNT", other),
        }
    }

    /// `TQUERY QUANTILE tenant q`.
    pub fn tenant_quantile(&self, tenant: u64, q: f64) -> std::io::Result<Option<u64>> {
        match self.round_trip(&Request::TenantQueryQuantile { tenant, q })? {
            Response::Quantile(v) => Ok(v),
            other => self.unexpected("QUANTILE", other),
        }
    }

    /// `TSNAPSHOT tenant`: the tenant's item count and current sample.
    pub fn tenant_snapshot(&self, tenant: u64) -> std::io::Result<(usize, Vec<u64>)> {
        match self.round_trip(&Request::TenantSnapshot { tenant })? {
            Response::TenantSnapshot { items, sample, .. } => Ok((items, sample)),
            other => self.unexpected("TSNAPSHOT", other),
        }
    }

    /// Receive half of [`epoch_state`](Self::epoch_state).
    pub(crate) fn recv_epoch_state(&self) -> std::io::Result<EpochState> {
        match self.recv()? {
            Response::EpochState {
                epoch,
                items,
                frames_acked,
                state,
            } => Ok((epoch, items as usize, frames_acked, state)),
            other => self.unexpected("EPOCH STATE", other),
        }
    }

    /// Receive half of [`checkpoint`](Self::checkpoint).
    pub(crate) fn recv_checkpoint(&self) -> std::io::Result<(u64, Vec<u8>)> {
        match self.recv()? {
            Response::Checkpoint {
                frames_acked,
                bytes,
            } => Ok((frames_acked, bytes)),
            other => self.unexpected("CHECKPOINT", other),
        }
    }

    /// `EPOCH STATE` (admin): the node's published epoch, its boundary
    /// item count, the frame high-water mark, and the published merged
    /// summary's codec bytes — what a cluster coordinator merges in
    /// shard order. The bytes are `None` when the published epoch equals
    /// `since` (the caller's copy is current); with `since: None` they
    /// are always present. Requires [`connect_binary`](Self::connect_binary)
    /// and a [`spawn_admin`](crate::ServiceServer::spawn_admin)
    /// endpoint.
    pub fn epoch_state(&self, since: Option<u64>) -> std::io::Result<EpochState> {
        self.send(&Request::EpochState { since })?;
        self.recv_epoch_state()
    }

    /// `CHECKPOINT` (admin): the node's full checkpoint envelope plus
    /// the frame high-water mark it was cut at.
    pub fn checkpoint(&self) -> std::io::Result<(u64, Vec<u8>)> {
        self.send(&Request::Checkpoint)?;
        self.recv_checkpoint()
    }

    /// `RESTORE` (admin): seed the node from a checkpoint envelope and
    /// return the restored service's frame high-water mark — the router
    /// replays only retained frames at or past it. An empty envelope, or
    /// one over [`MAX_FRAME_PAYLOAD`], fails with `InvalidInput` unsent.
    pub fn restore(&self, envelope: &[u8]) -> std::io::Result<u64> {
        match self.round_trip(&Request::Restore(envelope.to_vec()))? {
            Response::Restored { frames_acked } => Ok(frames_acked),
            other => self.unexpected("RESTORED", other),
        }
    }

    /// `QUERY COUNT x`.
    pub fn query_count(&self, x: u64) -> std::io::Result<f64> {
        match self.round_trip(&Request::QueryCount(x))? {
            Response::Count(c) => Ok(c),
            other => self.unexpected("COUNT", other),
        }
    }

    /// `QUERY QUANTILE q`.
    pub fn query_quantile(&self, q: f64) -> std::io::Result<Option<u64>> {
        match self.round_trip(&Request::QueryQuantile(q))? {
            Response::Quantile(v) => Ok(v),
            other => self.unexpected("QUANTILE", other),
        }
    }

    /// `QUERY HH threshold`.
    pub fn query_heavy(&self, threshold: f64) -> std::io::Result<Vec<(u64, f64)>> {
        match self.round_trip(&Request::QueryHeavy(threshold))? {
            Response::Heavy(items) => Ok(items),
            other => self.unexpected("HH", other),
        }
    }

    /// `QUERY KS`.
    pub fn query_ks(&self) -> std::io::Result<f64> {
        match self.round_trip(&Request::QueryKs)? {
            Response::Ks(d) => Ok(d),
            other => self.unexpected("KS", other),
        }
    }

    /// `SNAPSHOT`: the published epoch, its boundary item count, and the
    /// visible sample.
    pub fn snapshot(&self) -> std::io::Result<(u64, usize, Vec<u64>)> {
        match self.round_trip(&Request::Snapshot)? {
            Response::Snapshot {
                epoch,
                items,
                sample,
            } => {
                self.last_sample_len.set(sample.len());
                Ok((epoch, items, sample))
            }
            other => self.unexpected("SNAPSHOT", other),
        }
    }

    /// `STATS`.
    pub fn stats(&self) -> std::io::Result<ServiceStats> {
        match self.round_trip(&Request::Stats)? {
            Response::Stats(st) => {
                self.last_items.set(st.items);
                Ok(st)
            }
            other => self.unexpected("STATS", other),
        }
    }

    /// `QUIT` and close the connection.
    pub fn quit(self) -> std::io::Result<()> {
        match self.round_trip(&Request::Quit)? {
            Response::Bye => Ok(()),
            other => self.unexpected("BYE", other),
        }
    }
}

/// Ingestion over the wire. Panics on I/O errors (see the module docs).
impl StreamSummary<u64> for ServiceClient {
    fn ingest(&mut self, x: u64) {
        ServiceClient::ingest(self, &[x]).expect("service INGEST failed");
    }

    fn ingest_batch(&mut self, xs: &[u64]) {
        ServiceClient::ingest(self, xs).expect("service INGEST failed");
    }

    fn items_seen(&self) -> usize {
        self.last_items.get()
    }

    fn space(&self) -> usize {
        self.last_sample_len.get()
    }

    fn summary_name(&self) -> &'static str {
        "remote-service"
    }
}

/// The remote oracle: live count/quantile answers over the wire — the
/// full-state queries the paper's adversary is entitled to, served from
/// the published epoch snapshot. Panics on I/O errors (module docs).
impl StateOracle for ServiceClient {
    fn count_estimate(&self, x: u64) -> Option<f64> {
        Some(self.query_count(x).expect("service QUERY COUNT failed"))
    }

    fn quantile_estimate(&self, q: f64) -> Option<u64> {
        self.query_quantile(q)
            .expect("service QUERY QUANTILE failed")
    }
}

/// The remote observable state: the served epoch snapshot's sample — so
/// `Duel::run` plays registered attacks against a live service.
impl ObservableDefense for ServiceClient {
    fn visible_into(&self, out: &mut Vec<u64>) {
        let (_, _, sample) = self.snapshot().expect("service SNAPSHOT failed");
        out.extend_from_slice(&sample);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ServiceConfig, ServiceServer, SummaryService};
    use robust_sampling_core::sampler::ReservoirSampler;

    #[test]
    fn owed_ingest_frames_stay_queued_until_the_next_read() {
        let service = SummaryService::start(1, 5, 4, |_, s| ReservoirSampler::with_seed(8, s));
        let server = ServiceServer::spawn(
            service,
            ServiceConfig {
                workers: 1,
                ..ServiceConfig::default()
            },
        )
        .expect("serve");
        let router = ServiceClient::connect_binary(server.addr()).expect("connect");
        let observer = ServiceClient::connect_binary(server.addr()).expect("connect");
        let items = || observer.stats().expect("STATS").items;
        let frames: [&[u64]; 3] = [&[1, 2, 3], &[4, 5, 6, 7, 8], &[9; 7]];

        for frame in frames {
            router.send_ingest_owed(frame).expect("queue a frame");
        }
        assert_eq!(items(), 0, "a queued frame is not on the wire");
        // The receive path `drain_owed` reads through flushes the queue
        // first; the acks then carry the running counts in frame order.
        {
            let mut conn = router.conn.borrow_mut();
            let acks: Vec<usize> = (0..conn.owed)
                .map(|_| conn.receive().and_then(ack))
                .collect::<std::io::Result<_>>()
                .expect("acks");
            assert_eq!(acks, [3, 8, 15]);
            conn.owed = 0;
        }
        assert_eq!(items(), 15);

        for frame in frames {
            router.send_ingest_owed(frame).expect("queue a frame");
        }
        assert_eq!(items(), 15, "a queued frame is not on the wire");
        router.drain_owed().expect("drain");
        assert_eq!(router.conn.borrow().owed, 0);
        assert_eq!(items(), 30);
        server.shutdown();
    }
}
