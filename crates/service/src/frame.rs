//! The length-prefixed **binary frame protocol** — the serving path's
//! fast wire format, with the text line protocol of [`crate::protocol`]
//! kept as the debug front-end behind the same dispatch.
//!
//! Every frame is an 8-byte envelope followed by a payload:
//!
//! ```text
//! offset  size  field
//! 0       2     magic  = 0xB5 0x52  (first byte is non-ASCII, so a
//!                                    server can tell a binary frame
//!                                    from a text command at byte one)
//! 2       1     version = 1
//! 3       1     opcode
//! 4       4     payload length, u32 little-endian
//! 8       len   payload (opcode-specific, little-endian throughout)
//! ```
//!
//! Request opcodes (`0x01`–`0x0F`) and response opcodes (`0x81`–`0x8C`,
//! plus `0xC0` = ERR) encode the one [`Request`]/[`Response`] vocabulary
//! the text grammar of [`crate::protocol`] also carries, so the server's
//! dispatch and the client's API are format-agnostic:
//!
//! ```text
//! opcode  request            payload
//! 0x01    INGEST             count × u64   (count = len / 8)
//! 0x02    QUERY COUNT        u64 item
//! 0x03    QUERY QUANTILE     f64 rank bits
//! 0x04    QUERY HH           f64 threshold bits
//! 0x05    QUERY KS           (empty)
//! 0x06    SNAPSHOT           (empty)
//! 0x07    STATS              (empty)
//! 0x08    QUIT               (empty)
//! 0x09    EPOCH STATE        (empty) or u64 since epoch  [admin]
//! 0x0A    CHECKPOINT         (empty)                     [admin]
//! 0x0B    RESTORE            checkpoint envelope bytes   [admin]
//! 0x0C    TINGEST            u64 tenant, then count × u64
//! 0x0D    TQUERY COUNT       u64 tenant, u64 item
//! 0x0E    TQUERY QUANTILE    u64 tenant, f64 rank bits
//! 0x0F    TSNAPSHOT          u64 tenant
//!
//! opcode  response           payload
//! 0x81    INGESTED           u64 total items
//! 0x82    COUNT              f64 estimate bits
//! 0x83    QUANTILE           u8 tag (0 = NONE) [+ u64 value]
//! 0x84    HH                 u32 count, then count × (u64 item, f64 density)
//! 0x85    KS                 f64 distance bits
//! 0x86    SNAPSHOT           u64 epoch, u64 items, u32 k, then k × u64
//! 0x87    STATS              9 × u64 (items, epoch, shards, space,
//!                            snapshot_items, shard_bytes, arena_tenants,
//!                            arena_bytes, arena_evictions)
//! 0x88    BYE                (empty)
//! 0x89    EPOCH STATE        u64 epoch, u64 items, u64 frames acked,
//!                            then the published summary's codec bytes
//!                            (none when the epoch equals `since`)
//! 0x8A    CHECKPOINT         u64 frames acked, then envelope bytes
//! 0x8B    RESTORED           u64 frames acked
//! 0x8C    TSNAPSHOT          u64 tenant, u64 items, u32 k, then k × u64
//! 0xC0    ERR                UTF-8 message bytes
//! ```
//!
//! The `[admin]` opcodes are the **cluster control plane**: the
//! binary-only variants [`Request::EpochState`], [`Request::Checkpoint`]
//! and [`Request::Restore`] (no text grammar) a coordinator or failover
//! router exchanges with a cluster node. `EPOCH STATE` pulls the node's
//! published epoch snapshot for the coordinator's shard-order merge
//! (given a `since` epoch, a node still at that epoch answers with the
//! 24-byte header alone; no summary codec writes zero bytes, so the
//! empty state is unambiguous), `CHECKPOINT` pulls the node's full
//! checkpoint envelope, and `RESTORE` seeds a fresh node with one. They
//! share the codec, the decoders and the `ERR` reply with every other
//! request; a server that has not enabled admin dispatch answers them
//! with `ERR`.
//!
//! A response whose payload would pass [`MAX_FRAME_PAYLOAD`] (a
//! `SNAPSHOT`, `HH`, `EPOCH STATE` or `CHECKPOINT` of a very large
//! summary) is written as an `ERR` naming the response and its size, so
//! the peer reads a typed error and the connection stays in sync.
//!
//! Floats travel as raw bit patterns (`f64::to_bits`), so — like the
//! text protocol's shortest-round-trip decimals — every value survives
//! the wire exactly. An `INGEST` frame carries up to
//! [`MAX_INGEST_FRAME`] values as one flat `u64` chunk: the server
//! routes the decoded slice straight into the service's sharded ingest
//! channels with **no per-element parsing**, which is where the binary
//! protocol's throughput over the text front-end comes from. Frames are
//! independent, so a client may **pipeline**: write any number of
//! request frames before reading, and the server answers each in order.
//! Every run of `u64` values (`INGEST`/`TINGEST` payloads, `SNAPSHOT`/
//! `TSNAPSHOT` samples) is written and read by the checkpoint codec's
//! [`put_u64_run`] and [`extend_u64_run`], so frames and checkpoints
//! share one u64-run codec.
//!
//! Decoding is incremental ([`decode_request`] / [`decode_response`]
//! return `Ok(None)` on a truncated buffer) and every structural
//! violation — wrong magic, unknown version or opcode, oversized or
//! mis-sized payload, out-of-range rank — is a typed [`FrameError`]
//! raised *before* any payload is buffered past [`MAX_FRAME_PAYLOAD`].

use crate::protocol::{Request, Response, ServiceStats, MAX_INGEST_FRAME};
use bytes::{Buf, BufMut};
use robust_sampling_core::engine::snapshot::{extend_u64_run, put_u64_run};
use std::fmt;

/// The two magic bytes opening every binary frame. `0xB5` is not valid
/// ASCII, so the first byte of a connection (or of any pipelined
/// request) cleanly separates binary frames from text commands.
pub const FRAME_MAGIC: [u8; 2] = [0xB5, 0x52];

/// Binary protocol version carried in every envelope.
pub const FRAME_VERSION: u8 = 1;

/// Envelope size preceding every payload.
pub const HEADER_BYTES: usize = 8;

/// Hard cap on a frame's payload: a full [`MAX_INGEST_FRAME`] of `u64`
/// values (the largest request), with room for the snapshot response's
/// bookkeeping. A peer announcing more is hostile or corrupt and is
/// rejected from the 8-byte header alone — the oversized payload is
/// never buffered.
pub const MAX_FRAME_PAYLOAD: usize = 8 * MAX_INGEST_FRAME + 64;

mod opcode {
    pub const INGEST: u8 = 0x01;
    pub const QUERY_COUNT: u8 = 0x02;
    pub const QUERY_QUANTILE: u8 = 0x03;
    pub const QUERY_HH: u8 = 0x04;
    pub const QUERY_KS: u8 = 0x05;
    pub const SNAPSHOT: u8 = 0x06;
    pub const STATS: u8 = 0x07;
    pub const QUIT: u8 = 0x08;

    // Cluster administration requests (binary-only; no text form).
    pub const EPOCH_STATE: u8 = 0x09;
    pub const CHECKPOINT: u8 = 0x0A;
    pub const RESTORE: u8 = 0x0B;

    // Tenant-arena requests (text forms TINGEST/TQUERY/TSNAPSHOT).
    pub const TENANT_INGEST: u8 = 0x0C;
    pub const TENANT_QUERY_COUNT: u8 = 0x0D;
    pub const TENANT_QUERY_QUANTILE: u8 = 0x0E;
    pub const TENANT_SNAPSHOT: u8 = 0x0F;

    pub const INGESTED: u8 = 0x81;
    pub const COUNT: u8 = 0x82;
    pub const QUANTILE: u8 = 0x83;
    pub const HH: u8 = 0x84;
    pub const KS: u8 = 0x85;
    pub const R_SNAPSHOT: u8 = 0x86;
    pub const R_STATS: u8 = 0x87;
    pub const BYE: u8 = 0x88;

    // Cluster administration responses.
    pub const R_EPOCH_STATE: u8 = 0x89;
    pub const R_CHECKPOINT: u8 = 0x8A;
    pub const RESTORED: u8 = 0x8B;

    // Tenant-arena responses.
    pub const R_TENANT_SNAPSHOT: u8 = 0x8C;

    pub const ERR: u8 = 0xC0;
}

/// A structural violation of the binary framing. Unlike a truncated
/// buffer (which just needs more bytes), a `FrameError` means the byte
/// stream is not speaking this protocol — the connection cannot be
/// resynchronized and must be closed after reporting the error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The first two bytes are not [`FRAME_MAGIC`].
    BadMagic([u8; 2]),
    /// Unknown protocol version.
    BadVersion(u8),
    /// Opcode outside the request (or response) space.
    BadOpcode(u8),
    /// Announced payload length exceeds [`MAX_FRAME_PAYLOAD`].
    Oversized {
        /// The frame's opcode.
        opcode: u8,
        /// The announced payload length.
        len: u64,
    },
    /// Payload present but structurally wrong for its opcode.
    Malformed(&'static str),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::BadMagic(m) => {
                write!(f, "bad frame magic {:#04x} {:#04x}", m[0], m[1])
            }
            FrameError::BadVersion(v) => write!(f, "unsupported frame version {v}"),
            FrameError::BadOpcode(op) => write!(f, "unknown frame opcode {op:#04x}"),
            FrameError::Oversized { opcode, len } => {
                write!(
                    f,
                    "frame opcode {opcode:#04x} announces {len} payload bytes \
                     (cap {MAX_FRAME_PAYLOAD})"
                )
            }
            FrameError::Malformed(what) => write!(f, "malformed frame payload: {what}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Whether `first` opens a binary frame (vs a text command) — the
/// one-byte version negotiation between the two front-ends.
pub fn is_frame_start(first: u8) -> bool {
    first == FRAME_MAGIC[0]
}

fn put_header(out: &mut Vec<u8>, op: u8, payload_len: usize) {
    debug_assert!(payload_len <= MAX_FRAME_PAYLOAD, "payload over cap");
    out.put_slice(&FRAME_MAGIC);
    out.put_u8(FRAME_VERSION);
    out.put_u8(op);
    out.put_u32_le(payload_len as u32);
}

/// Open a response frame of `len` payload bytes and return `true` — or,
/// when `len` is over [`MAX_FRAME_PAYLOAD`], write an `ERR` naming the
/// `what` response and its size instead and return `false`, so the
/// caller skips the payload and the peer stays in sync.
fn open_response(out: &mut Vec<u8>, op: u8, what: &str, len: usize) -> bool {
    if len > MAX_FRAME_PAYLOAD {
        let msg = format!(
            "{what} response ({op:#04x}) needs {len} payload bytes, over the \
             {MAX_FRAME_PAYLOAD}-byte frame cap"
        );
        encode_response(&Response::Err(msg), out);
        return false;
    }
    put_header(out, op, len);
    true
}

/// Append an `INGEST` frame carrying `vs` to `out` — the slice-based
/// encoder the client's zero-copy ingest path uses (no intermediate
/// owned `Request` is built).
///
/// # Panics
///
/// Panics if `vs` exceeds [`MAX_INGEST_FRAME`] values or is empty — the
/// caller chunks batches, exactly as on the text path.
pub fn encode_ingest_slice(vs: &[u64], out: &mut Vec<u8>) {
    assert!(
        !vs.is_empty() && vs.len() <= MAX_INGEST_FRAME,
        "INGEST frame must carry 1..={MAX_INGEST_FRAME} values, got {}",
        vs.len()
    );
    put_header(out, opcode::INGEST, 8 * vs.len());
    put_u64_run(out, vs);
}

/// Append a `TINGEST` frame carrying `vs` for `tenant` to `out` — the
/// tenant analogue of [`encode_ingest_slice`] (no owned `Request` is
/// built on the client's tenant ingest path).
///
/// # Panics
///
/// Panics if `vs` exceeds [`MAX_INGEST_FRAME`] values or is empty.
pub fn encode_tenant_ingest_slice(tenant: u64, vs: &[u64], out: &mut Vec<u8>) {
    assert!(
        !vs.is_empty() && vs.len() <= MAX_INGEST_FRAME,
        "TINGEST frame must carry 1..={MAX_INGEST_FRAME} values, got {}",
        vs.len()
    );
    put_header(out, opcode::TENANT_INGEST, 8 + 8 * vs.len());
    out.put_u64_le(tenant);
    put_u64_run(out, vs);
}

/// Append a `SNAPSHOT` response frame to `out` straight from a borrowed
/// sample slice — the server serializes [`EpochSnapshot::visible_ref`]
/// directly into the connection's out-buffer through this, never
/// materializing an owned copy of the sample. A sample too large for one
/// frame is written as an `ERR` (see the module docs).
///
/// [`EpochSnapshot::visible_ref`]: crate::EpochSnapshot::visible_ref
pub fn encode_snapshot_slice(epoch: u64, items: usize, sample: &[u64], out: &mut Vec<u8>) {
    put_sampled(out, opcode::R_SNAPSHOT, "SNAPSHOT", epoch, items, sample);
}

/// The payload `SNAPSHOT` and `TSNAPSHOT` share: `head` (epoch or
/// tenant), items, `k`, then the `k` sample values.
fn put_sampled(out: &mut Vec<u8>, op: u8, what: &str, head: u64, items: usize, sample: &[u64]) {
    if open_response(out, op, what, 20 + 8 * sample.len()) {
        out.put_u64_le(head);
        out.put_u64_le(items as u64);
        out.put_u32_le(sample.len() as u32);
        put_u64_run(out, sample);
    }
}

/// Append `req` to `out` as one binary frame.
///
/// # Panics
///
/// Panics if an `Ingest`/`TenantIngest` frame exceeds
/// [`MAX_INGEST_FRAME`] values or is empty, or a `Restore` envelope is
/// empty or exceeds [`MAX_FRAME_PAYLOAD`] bytes — the client checks both
/// before encoding, and chunks batches exactly as on the text path.
pub fn encode_request(req: &Request, out: &mut Vec<u8>) {
    match req {
        Request::Ingest(vs) => encode_ingest_slice(vs, out),
        Request::QueryCount(x) => {
            put_header(out, opcode::QUERY_COUNT, 8);
            out.put_u64_le(*x);
        }
        Request::QueryQuantile(q) => {
            put_header(out, opcode::QUERY_QUANTILE, 8);
            out.put_f64_le(*q);
        }
        Request::QueryHeavy(t) => {
            put_header(out, opcode::QUERY_HH, 8);
            out.put_f64_le(*t);
        }
        Request::QueryKs => put_header(out, opcode::QUERY_KS, 0),
        Request::Snapshot => put_header(out, opcode::SNAPSHOT, 0),
        Request::TenantIngest { tenant, values } => {
            encode_tenant_ingest_slice(*tenant, values, out)
        }
        Request::TenantQueryCount { tenant, x } => {
            put_header(out, opcode::TENANT_QUERY_COUNT, 16);
            out.put_u64_le(*tenant);
            out.put_u64_le(*x);
        }
        Request::TenantQueryQuantile { tenant, q } => {
            put_header(out, opcode::TENANT_QUERY_QUANTILE, 16);
            out.put_u64_le(*tenant);
            out.put_f64_le(*q);
        }
        Request::TenantSnapshot { tenant } => {
            put_header(out, opcode::TENANT_SNAPSHOT, 8);
            out.put_u64_le(*tenant);
        }
        Request::Stats => put_header(out, opcode::STATS, 0),
        Request::Quit => put_header(out, opcode::QUIT, 0),
        Request::EpochState { since: None } => put_header(out, opcode::EPOCH_STATE, 0),
        Request::EpochState { since: Some(e) } => {
            put_header(out, opcode::EPOCH_STATE, 8);
            out.put_u64_le(*e);
        }
        Request::Checkpoint => put_header(out, opcode::CHECKPOINT, 0),
        Request::Restore(bytes) => {
            assert!(
                !bytes.is_empty() && bytes.len() <= MAX_FRAME_PAYLOAD,
                "RESTORE envelope must be 1..={MAX_FRAME_PAYLOAD} bytes, got {}",
                bytes.len()
            );
            put_header(out, opcode::RESTORE, bytes.len());
            out.put_slice(bytes);
        }
    }
}

/// Append `resp` to `out` as one binary frame. A pathological ERR
/// message is truncated to fit the payload cap, and any other response
/// whose payload would pass it is written as an `ERR` naming it and its
/// size; the fixed-shape responses always fit.
///
/// # Panics
///
/// Panics if an `EpochState` carries `Some` empty state, which would
/// decode as `None` (no summary codec writes zero bytes).
pub fn encode_response(resp: &Response, out: &mut Vec<u8>) {
    match resp {
        Response::Ingested(n) => {
            put_header(out, opcode::INGESTED, 8);
            out.put_u64_le(*n as u64);
        }
        Response::Count(c) => {
            put_header(out, opcode::COUNT, 8);
            out.put_f64_le(*c);
        }
        Response::Quantile(None) => {
            put_header(out, opcode::QUANTILE, 1);
            out.put_u8(0);
        }
        Response::Quantile(Some(v)) => {
            put_header(out, opcode::QUANTILE, 9);
            out.put_u8(1);
            out.put_u64_le(*v);
        }
        Response::Heavy(items) => {
            if open_response(out, opcode::HH, "HH", 4 + 16 * items.len()) {
                out.put_u32_le(items.len() as u32);
                for &(v, d) in items {
                    out.put_u64_le(v);
                    out.put_f64_le(d);
                }
            }
        }
        Response::Ks(d) => {
            put_header(out, opcode::KS, 8);
            out.put_f64_le(*d);
        }
        Response::Snapshot {
            epoch,
            items,
            sample,
        } => encode_snapshot_slice(*epoch, *items, sample, out),
        Response::TenantSnapshot {
            tenant,
            items,
            sample,
        } => put_sampled(
            out,
            opcode::R_TENANT_SNAPSHOT,
            "TSNAPSHOT",
            *tenant,
            *items,
            sample,
        ),
        Response::Stats(st) => {
            put_header(out, opcode::R_STATS, 72);
            out.put_u64_le(st.items as u64);
            out.put_u64_le(st.epoch);
            out.put_u64_le(st.shards as u64);
            out.put_u64_le(st.space as u64);
            out.put_u64_le(st.snapshot_items as u64);
            out.put_u64_le(st.shard_bytes as u64);
            out.put_u64_le(st.arena_tenants as u64);
            out.put_u64_le(st.arena_bytes as u64);
            out.put_u64_le(st.arena_evictions);
        }
        Response::Bye => put_header(out, opcode::BYE, 0),
        Response::Err(msg) => {
            let bytes = msg.as_bytes();
            let take = floor_char_boundary(msg, bytes.len().min(MAX_FRAME_PAYLOAD));
            put_header(out, opcode::ERR, take);
            out.put_slice(&bytes[..take]);
        }
        Response::EpochState {
            epoch,
            items,
            frames_acked,
            state,
        } => {
            let state: &[u8] = match state {
                Some(bytes) => {
                    assert!(
                        !bytes.is_empty(),
                        "an EPOCH STATE summary state is never empty"
                    );
                    bytes
                }
                None => &[],
            };
            let len = 24 + state.len();
            if open_response(out, opcode::R_EPOCH_STATE, "EPOCH STATE", len) {
                out.put_u64_le(*epoch);
                out.put_u64_le(*items);
                out.put_u64_le(*frames_acked);
                out.put_slice(state);
            }
        }
        Response::Checkpoint {
            frames_acked,
            bytes,
        } => {
            if open_response(out, opcode::R_CHECKPOINT, "CHECKPOINT", 8 + bytes.len()) {
                out.put_u64_le(*frames_acked);
                out.put_slice(bytes);
            }
        }
        Response::Restored { frames_acked } => {
            put_header(out, opcode::RESTORED, 8);
            out.put_u64_le(*frames_acked);
        }
    }
}

/// Largest `i <= at` that is a char boundary of `s` (stable stand-in for
/// the unstable `str::floor_char_boundary`).
fn floor_char_boundary(s: &str, at: usize) -> usize {
    let mut i = at;
    while !s.is_char_boundary(i) {
        i -= 1;
    }
    i
}

/// The envelope, validated progressively: magic and version are checked
/// from the very first bytes (so garbage fails fast, without waiting for
/// a full header), the payload cap from the header alone.
fn decode_header(buf: &[u8]) -> Result<Option<(u8, usize)>, FrameError> {
    if let Some(&b0) = buf.first() {
        if b0 != FRAME_MAGIC[0] {
            return Err(FrameError::BadMagic([b0, *buf.get(1).unwrap_or(&0)]));
        }
    }
    if let Some(&b1) = buf.get(1) {
        if b1 != FRAME_MAGIC[1] {
            return Err(FrameError::BadMagic([buf[0], b1]));
        }
    }
    if let Some(&v) = buf.get(2) {
        if v != FRAME_VERSION {
            return Err(FrameError::BadVersion(v));
        }
    }
    if buf.len() < HEADER_BYTES {
        return Ok(None);
    }
    let mut h = &buf[3..HEADER_BYTES];
    let op = h.get_u8();
    let len = h.get_u32_le() as usize;
    if len > MAX_FRAME_PAYLOAD {
        return Err(FrameError::Oversized {
            opcode: op,
            len: len as u64,
        });
    }
    Ok(Some((op, len)))
}

fn expect_len(payload: &[u8], want: usize, what: &'static str) -> Result<(), FrameError> {
    if payload.len() != want {
        return Err(FrameError::Malformed(what));
    }
    Ok(())
}

fn unit_f64(bits_src: &mut &[u8], what: &'static str) -> Result<f64, FrameError> {
    let v = bits_src.get_f64_le();
    if !v.is_finite() || !(0.0..=1.0).contains(&v) {
        return Err(FrameError::Malformed(what));
    }
    Ok(v)
}

/// A decoded request frame whose bulk payload stays **borrowed** from
/// the connection's read buffer. This is what the server's zero-copy
/// ingest path consumes: an `INGEST` frame's values are never collected
/// into an intermediate `Vec<u64>` — the raw little-endian byte slice is
/// routed straight into the service's in-place round-robin deal
/// (`SummaryService::ingest_frame_le`). Every other request is small and
/// decodes to the owned [`Request`] as before.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestFrame<'a> {
    /// An `INGEST` frame's payload: `len / 8` values as one flat
    /// little-endian `u64` chunk, borrowed from the read buffer.
    /// Guaranteed non-empty and a multiple of 8 bytes.
    IngestLe(&'a [u8]),
    /// A `TINGEST` frame: the tenant key plus its value chunk, borrowed
    /// from the read buffer with the same guarantees as
    /// [`IngestLe`](Self::IngestLe).
    TenantIngestLe {
        /// Tenant key.
        tenant: u64,
        /// The frame's values as flat little-endian `u64` bytes.
        payload: &'a [u8],
    },
    /// Any non-bulk request, decoded to its owned form.
    Owned(Request),
}

impl RequestFrame<'_> {
    /// Materialize the owned [`Request`] (decoding an `IngestLe` payload
    /// into a fresh `Vec<u64>`) — the compatibility bridge for callers
    /// that do not run the zero-copy path.
    pub fn into_owned(self) -> Request {
        match self {
            RequestFrame::IngestLe(payload) => Request::Ingest(le_u64s(payload)),
            RequestFrame::TenantIngestLe { tenant, payload } => Request::TenantIngest {
                tenant,
                values: le_u64s(payload),
            },
            RequestFrame::Owned(req) => req,
        }
    }
}

/// Decode one request frame from the front of `buf`, keeping bulk
/// payloads borrowed (see [`RequestFrame`]).
///
/// Returns `Ok(Some((frame, consumed)))` for a complete frame,
/// `Ok(None)` when `buf` holds only a prefix (read more and retry), and
/// `Err` on a structural violation (close the connection).
pub fn decode_request_frame(buf: &[u8]) -> Result<Option<(RequestFrame<'_>, usize)>, FrameError> {
    let Some((op, len)) = decode_header(buf)? else {
        return Ok(None);
    };
    if buf.len() < HEADER_BYTES + len {
        return Ok(None);
    }
    let mut payload = &buf[HEADER_BYTES..HEADER_BYTES + len];
    let consumed = HEADER_BYTES + len;
    let req = match op {
        opcode::INGEST => {
            if len == 0 || len % 8 != 0 {
                return Err(FrameError::Malformed(
                    "INGEST payload must be a non-empty multiple of 8 bytes",
                ));
            }
            return Ok(Some((RequestFrame::IngestLe(payload), consumed)));
        }
        opcode::QUERY_COUNT => {
            expect_len(payload, 8, "COUNT payload must be one u64")?;
            Request::QueryCount(payload.get_u64_le())
        }
        opcode::QUERY_QUANTILE => {
            expect_len(payload, 8, "QUANTILE payload must be one f64")?;
            Request::QueryQuantile(unit_f64(&mut payload, "QUANTILE rank must be in [0,1]")?)
        }
        opcode::QUERY_HH => {
            expect_len(payload, 8, "HH payload must be one f64")?;
            Request::QueryHeavy(unit_f64(&mut payload, "HH threshold must be in [0,1]")?)
        }
        opcode::QUERY_KS => {
            expect_len(payload, 0, "KS carries no payload")?;
            Request::QueryKs
        }
        opcode::SNAPSHOT => {
            expect_len(payload, 0, "SNAPSHOT carries no payload")?;
            Request::Snapshot
        }
        opcode::STATS => {
            expect_len(payload, 0, "STATS carries no payload")?;
            Request::Stats
        }
        opcode::QUIT => {
            expect_len(payload, 0, "QUIT carries no payload")?;
            Request::Quit
        }
        opcode::TENANT_INGEST => {
            if len < 16 || (len - 8) % 8 != 0 {
                return Err(FrameError::Malformed(
                    "TINGEST payload must be a tenant key plus a non-empty \
                     multiple of 8 bytes",
                ));
            }
            let tenant = payload.get_u64_le();
            return Ok(Some((
                RequestFrame::TenantIngestLe { tenant, payload },
                consumed,
            )));
        }
        opcode::TENANT_QUERY_COUNT => {
            expect_len(payload, 16, "TQUERY COUNT payload must be two u64 words")?;
            Request::TenantQueryCount {
                tenant: payload.get_u64_le(),
                x: payload.get_u64_le(),
            }
        }
        opcode::TENANT_QUERY_QUANTILE => {
            expect_len(payload, 16, "TQUERY QUANTILE payload must be u64 + f64")?;
            let tenant = payload.get_u64_le();
            Request::TenantQueryQuantile {
                tenant,
                q: unit_f64(&mut payload, "TQUERY QUANTILE rank must be in [0,1]")?,
            }
        }
        opcode::TENANT_SNAPSHOT => {
            expect_len(payload, 8, "TSNAPSHOT payload must be one u64")?;
            Request::TenantSnapshot {
                tenant: payload.get_u64_le(),
            }
        }
        opcode::EPOCH_STATE => Request::EpochState {
            since: match len {
                0 => None,
                8 => Some(payload.get_u64_le()),
                _ => {
                    return Err(FrameError::Malformed(
                        "EPOCH STATE payload must be empty or one u64",
                    ))
                }
            },
        },
        opcode::CHECKPOINT => {
            expect_len(payload, 0, "CHECKPOINT carries no payload")?;
            Request::Checkpoint
        }
        opcode::RESTORE => {
            if len == 0 {
                return Err(FrameError::Malformed(
                    "RESTORE payload must carry a checkpoint envelope",
                ));
            }
            Request::Restore(payload.to_vec())
        }
        other => return Err(FrameError::BadOpcode(other)),
    };
    Ok(Some((RequestFrame::Owned(req), consumed)))
}

/// Decode one request frame from the front of `buf` into its owned form.
///
/// Returns `Ok(Some((request, consumed)))` for a complete frame,
/// `Ok(None)` when `buf` holds only a prefix (read more and retry), and
/// `Err` on a structural violation (close the connection). The serving
/// hot path uses [`decode_request_frame`] instead, which keeps `INGEST`
/// payloads borrowed.
pub fn decode_request(buf: &[u8]) -> Result<Option<(Request, usize)>, FrameError> {
    Ok(decode_request_frame(buf)?.map(|(frame, consumed)| (frame.into_owned(), consumed)))
}

/// The little-endian `u64` values of `bytes` (a multiple of 8 long).
fn le_u64s(bytes: &[u8]) -> Vec<u64> {
    let mut out = Vec::with_capacity(bytes.len() / 8);
    extend_u64_run(&mut out, bytes);
    out
}

/// Decode the payload `SNAPSHOT` and `TSNAPSHOT` share: a leading u64
/// (epoch or tenant), u64 items, u32 `k`, then `k` × u64.
fn get_sampled(
    mut payload: &[u8],
    what: &'static str,
) -> Result<(u64, usize, Vec<u64>), FrameError> {
    if payload.len() < 20 {
        return Err(FrameError::Malformed(what));
    }
    let head = payload.get_u64_le();
    let items = payload.get_u64_le() as usize;
    let k = payload.get_u32_le() as usize;
    if payload.remaining() != 8 * k {
        return Err(FrameError::Malformed(what));
    }
    Ok((head, items, le_u64s(payload)))
}

/// Decode one response frame from the front of `buf`. Same contract as
/// [`decode_request`].
pub fn decode_response(buf: &[u8]) -> Result<Option<(Response, usize)>, FrameError> {
    let Some((op, len)) = decode_header(buf)? else {
        return Ok(None);
    };
    if buf.len() < HEADER_BYTES + len {
        return Ok(None);
    }
    let mut payload = &buf[HEADER_BYTES..HEADER_BYTES + len];
    let consumed = HEADER_BYTES + len;
    let resp = match op {
        opcode::INGESTED => {
            expect_len(payload, 8, "INGESTED payload must be one u64")?;
            Response::Ingested(payload.get_u64_le() as usize)
        }
        opcode::COUNT => {
            expect_len(payload, 8, "COUNT payload must be one f64")?;
            Response::Count(payload.get_f64_le())
        }
        opcode::QUANTILE => match payload.first() {
            Some(0) => {
                expect_len(payload, 1, "QUANTILE NONE carries only its tag")?;
                Response::Quantile(None)
            }
            Some(1) => {
                expect_len(payload, 9, "QUANTILE value payload must be tag + u64")?;
                payload.get_u8();
                Response::Quantile(Some(payload.get_u64_le()))
            }
            _ => return Err(FrameError::Malformed("QUANTILE tag must be 0 or 1")),
        },
        opcode::HH => {
            if len < 4 {
                return Err(FrameError::Malformed("HH payload missing its count"));
            }
            let count = payload.get_u32_le() as usize;
            if payload.remaining() != 16 * count {
                return Err(FrameError::Malformed(
                    "HH count disagrees with payload size",
                ));
            }
            let mut items = Vec::with_capacity(count);
            for _ in 0..count {
                let v = payload.get_u64_le();
                let d = payload.get_f64_le();
                items.push((v, d));
            }
            Response::Heavy(items)
        }
        opcode::KS => {
            expect_len(payload, 8, "KS payload must be one f64")?;
            Response::Ks(payload.get_f64_le())
        }
        opcode::R_SNAPSHOT => {
            let (epoch, items, sample) = get_sampled(payload, "SNAPSHOT")?;
            Response::Snapshot {
                epoch,
                items,
                sample,
            }
        }
        opcode::R_TENANT_SNAPSHOT => {
            let (tenant, items, sample) = get_sampled(payload, "TSNAPSHOT")?;
            Response::TenantSnapshot {
                tenant,
                items,
                sample,
            }
        }
        opcode::R_STATS => {
            expect_len(payload, 72, "STATS payload must be nine u64 words")?;
            Response::Stats(ServiceStats {
                items: payload.get_u64_le() as usize,
                epoch: payload.get_u64_le(),
                shards: payload.get_u64_le() as usize,
                space: payload.get_u64_le() as usize,
                snapshot_items: payload.get_u64_le() as usize,
                shard_bytes: payload.get_u64_le() as usize,
                arena_tenants: payload.get_u64_le() as usize,
                arena_bytes: payload.get_u64_le() as usize,
                arena_evictions: payload.get_u64_le(),
            })
        }
        opcode::BYE => {
            expect_len(payload, 0, "BYE carries no payload")?;
            Response::Bye
        }
        opcode::ERR => {
            let msg = std::str::from_utf8(payload)
                .map_err(|_| FrameError::Malformed("ERR message must be UTF-8"))?;
            Response::Err(msg.to_string())
        }
        opcode::R_EPOCH_STATE => {
            if len < 24 {
                return Err(FrameError::Malformed(
                    "EPOCH STATE payload missing its header",
                ));
            }
            Response::EpochState {
                epoch: payload.get_u64_le(),
                items: payload.get_u64_le(),
                frames_acked: payload.get_u64_le(),
                state: (!payload.is_empty()).then(|| payload.to_vec()),
            }
        }
        opcode::R_CHECKPOINT => {
            if len < 8 {
                return Err(FrameError::Malformed(
                    "CHECKPOINT payload missing its high-water mark",
                ));
            }
            Response::Checkpoint {
                frames_acked: payload.get_u64_le(),
                bytes: payload.to_vec(),
            }
        }
        opcode::RESTORED => {
            expect_len(payload, 8, "RESTORED payload must be one u64")?;
            Response::Restored {
                frames_acked: payload.get_u64_le(),
            }
        }
        other => return Err(FrameError::BadOpcode(other)),
    };
    Ok(Some((resp, consumed)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_requests() -> Vec<Request> {
        vec![
            Request::Ingest(vec![0, 1, u64::MAX]),
            Request::QueryCount(u64::MAX),
            Request::QueryQuantile(0.999),
            Request::QueryHeavy(0.0),
            Request::QueryKs,
            Request::Snapshot,
            Request::TenantIngest {
                tenant: 17,
                values: vec![4, 8, u64::MAX],
            },
            Request::TenantQueryCount {
                tenant: u64::MAX,
                x: 4,
            },
            Request::TenantQueryQuantile { tenant: 0, q: 0.25 },
            Request::TenantSnapshot { tenant: 9 },
            Request::Stats,
            Request::Quit,
            Request::EpochState { since: None },
            Request::EpochState { since: Some(0) },
            Request::EpochState {
                since: Some(u64::MAX),
            },
            Request::Checkpoint,
            Request::Restore(vec![0xAB; 120]),
        ]
    }

    fn all_responses() -> Vec<Response> {
        vec![
            Response::Ingested(usize::MAX >> 1),
            Response::Count(1234.5678),
            Response::Quantile(None),
            Response::Quantile(Some(42)),
            Response::Heavy(vec![(7, 0.25), (9, 1.0 / 3.0)]),
            Response::Ks(0.123456789012345),
            Response::Snapshot {
                epoch: 5,
                items: 10_000,
                sample: vec![3, 1, 4, 1, 5],
            },
            Response::TenantSnapshot {
                tenant: 9,
                items: 77,
                sample: vec![2, 7, 1],
            },
            Response::Stats(ServiceStats {
                items: 10,
                epoch: 2,
                shards: 4,
                space: 64,
                snapshot_items: 8,
                shard_bytes: 512,
                arena_tenants: 1_000_000,
                arena_bytes: 4096,
                arena_evictions: 31,
            }),
            Response::Bye,
            Response::Err("boom × unicode".into()),
            Response::EpochState {
                epoch: 3,
                items: 9_000,
                frames_acked: 17,
                state: Some(vec![1, 2, 3, 4, 5, 6, 7, 8]),
            },
            Response::EpochState {
                epoch: 3,
                items: 9_000,
                frames_acked: 18,
                state: None,
            },
            Response::Checkpoint {
                frames_acked: 42,
                bytes: vec![9; 64],
            },
            Response::Restored { frames_acked: 42 },
        ]
    }

    /// FNV-1a over one frame: a compact pin for exact wire bytes.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    #[test]
    fn every_encoder_writes_the_pinned_bytes() {
        // (opcode, frame length, digest) per frame, in the order below:
        // every request, every response, then the three slice encoders.
        // Captured from the encoders as they stood when the admin frames
        // had an encoder pair of their own, so peers built before and
        // after the fold exchange identical bytes.
        let pins: [(u8, usize, u64); 35] = [
            (0x01, 32, 0x0f64_8535_e5b9_c2ed),
            (0x02, 16, 0x333c_d4db_0ef5_ebf5),
            (0x03, 16, 0xc935_bdfd_e039_c078),
            (0x04, 16, 0x96e0_cb16_29eb_44eb),
            (0x05, 8, 0xc2e1_3e5c_30e2_16a0),
            (0x06, 8, 0xe8ed_e7db_a8d0_55c9),
            (0x0C, 40, 0xfe91_dba9_f4c8_64de),
            (0x0D, 24, 0x195f_88a6_ad8f_aca4),
            (0x0E, 24, 0x425d_0546_877d_e3ac),
            (0x0F, 16, 0x68f5_beae_8f2e_4fdf),
            (0x07, 8, 0xdc3f_04b1_2b80_eb66),
            (0x08, 8, 0x67c2_c784_8dea_7da7),
            (0x09, 8, 0x5b13_e45a_109b_1344),
            (0x09, 16, 0xc63f_ae57_727c_e94c),
            (0x09, 16, 0x44c9_7d03_8c37_83c4),
            (0x0A, 8, 0x8120_8dd9_8889_526d),
            (0x0B, 128, 0xef61_06d0_3038_affa),
            (0x81, 16, 0x6c1c_e752_6389_c69c),
            (0x82, 16, 0xdfa9_b715_9487_0419),
            (0x83, 9, 0xf3d6_b98c_2843_6519),
            (0x83, 17, 0x8117_7b6d_0bb5_c8d4),
            (0x84, 44, 0x81cb_617a_162d_9a9c),
            (0x85, 16, 0x3a10_b2cb_f2b3_5c9e),
            (0x86, 68, 0xf275_630c_16b1_831a),
            (0x8C, 52, 0x7f49_f329_1257_0874),
            (0x87, 80, 0xe520_1667_7785_c9a2),
            (0x88, 8, 0x1051_3245_e635_4c27),
            (0xC0, 23, 0x0fe0_761b_30cc_82ac),
            (0x89, 40, 0xcb7e_48ed_18b3_be9b),
            (0x89, 32, 0x28a6_b63d_0830_2c20),
            (0x8A, 80, 0x995e_0e20_2c69_c7af),
            (0x8B, 16, 0x3276_7777_c8c8_a728),
            (0x01, 24, 0x4197_fe6c_1dbd_9673),
            (0x0C, 32, 0xb065_d64e_1bb5_e123),
            (0x86, 52, 0x1754_988c_b1b4_e695),
        ];
        let mut frames: Vec<Vec<u8>> = Vec::new();
        let mut push = |encode: &dyn Fn(&mut Vec<u8>)| {
            let mut buf = Vec::new();
            encode(&mut buf);
            frames.push(buf);
        };
        for req in all_requests() {
            push(&|out| encode_request(&req, out));
        }
        for resp in all_responses() {
            push(&|out| encode_response(&resp, out));
        }
        push(&|out| encode_ingest_slice(&[7, u64::MAX], out));
        push(&|out| encode_tenant_ingest_slice(3, &[1, 2], out));
        push(&|out| encode_snapshot_slice(4, 99, &[5, 6, 7], out));
        let got: Vec<(u8, usize, u64)> = frames.iter().map(|f| (f[3], f.len(), fnv1a(f))).collect();
        assert_eq!(got, pins);
    }

    #[test]
    fn over_cap_responses_become_a_typed_err() {
        let big = MAX_FRAME_PAYLOAD / 8;
        let over = [
            Response::Snapshot {
                epoch: 1,
                items: big,
                sample: vec![7; big],
            },
            Response::TenantSnapshot {
                tenant: 2,
                items: big,
                sample: vec![7; big],
            },
            Response::Heavy(vec![(7, 0.5); big / 2]),
            Response::EpochState {
                epoch: 1,
                items: 2,
                frames_acked: 3,
                state: Some(vec![1; MAX_FRAME_PAYLOAD]),
            },
            Response::Checkpoint {
                frames_acked: 3,
                bytes: vec![1; MAX_FRAME_PAYLOAD],
            },
        ];
        for resp in over {
            let mut buf = Vec::new();
            encode_response(&resp, &mut buf);
            let (back, consumed) = decode_response(&buf).unwrap().unwrap();
            assert_eq!(consumed, buf.len());
            match back {
                Response::Err(msg) => assert!(msg.contains("frame cap"), "{msg}"),
                other => panic!("expected ERR, got {other:?}"),
            }
        }
        // The largest snapshot that fits still goes out whole.
        let fits = (MAX_FRAME_PAYLOAD - 20) / 8;
        let mut buf = Vec::new();
        encode_snapshot_slice(1, fits, &vec![7; fits], &mut buf);
        assert!(matches!(
            decode_response(&buf).unwrap().unwrap().0,
            Response::Snapshot { .. }
        ));
    }

    #[test]
    fn every_request_round_trips() {
        for req in all_requests() {
            let mut buf = Vec::new();
            encode_request(&req, &mut buf);
            let (back, consumed) = decode_request(&buf).unwrap().unwrap();
            assert_eq!(back, req);
            assert_eq!(consumed, buf.len());
        }
    }

    #[test]
    fn every_response_round_trips() {
        for resp in all_responses() {
            let mut buf = Vec::new();
            encode_response(&resp, &mut buf);
            let (back, consumed) = decode_response(&buf).unwrap().unwrap();
            assert_eq!(back, resp);
            assert_eq!(consumed, buf.len());
        }
    }

    #[test]
    fn every_truncation_is_incomplete_not_an_error() {
        for req in all_requests() {
            let mut buf = Vec::new();
            encode_request(&req, &mut buf);
            for cut in 0..buf.len() {
                assert_eq!(
                    decode_request(&buf[..cut]).unwrap(),
                    None,
                    "cut at {cut} of {req:?}"
                );
            }
        }
        for resp in all_responses() {
            let mut buf = Vec::new();
            encode_response(&resp, &mut buf);
            for cut in 0..buf.len() {
                assert_eq!(
                    decode_response(&buf[..cut]).unwrap(),
                    None,
                    "cut at {cut} of {resp:?}"
                );
            }
        }
    }

    #[test]
    fn pipelined_frames_decode_in_order() {
        let reqs = all_requests();
        let mut buf = Vec::new();
        for req in &reqs {
            encode_request(req, &mut buf);
        }
        let mut at = 0;
        for want in &reqs {
            let (got, consumed) = decode_request(&buf[at..]).unwrap().unwrap();
            assert_eq!(&got, want);
            at += consumed;
        }
        assert_eq!(at, buf.len());
    }

    #[test]
    fn max_length_ingest_round_trips_and_one_more_is_rejected() {
        let max: Vec<u64> = (0..MAX_INGEST_FRAME as u64).collect();
        let mut buf = Vec::new();
        encode_request(&Request::Ingest(max.clone()), &mut buf);
        assert_eq!(buf.len(), HEADER_BYTES + 8 * MAX_INGEST_FRAME);
        let (back, _) = decode_request(&buf).unwrap().unwrap();
        assert_eq!(back, Request::Ingest(max));
        // A handcrafted header announcing a payload over the cap is
        // rejected from the envelope alone — no payload is buffered.
        let mut over = vec![
            FRAME_MAGIC[0],
            FRAME_MAGIC[1],
            FRAME_VERSION,
            opcode::INGEST,
        ];
        over.put_u32_le((MAX_FRAME_PAYLOAD + 8) as u32);
        assert!(matches!(
            decode_request(&over),
            Err(FrameError::Oversized { .. })
        ));
    }

    #[test]
    fn garbage_fails_from_the_first_bytes() {
        assert!(matches!(
            decode_request(b"INGEST 1 2 3\n"),
            Err(FrameError::BadMagic(_))
        ));
        assert!(matches!(
            decode_request(&[FRAME_MAGIC[0], 0x00]),
            Err(FrameError::BadMagic(_))
        ));
        assert!(matches!(
            decode_request(&[FRAME_MAGIC[0], FRAME_MAGIC[1], 99]),
            Err(FrameError::BadVersion(99))
        ));
        let mut resp_as_req = Vec::new();
        encode_response(&Response::Bye, &mut resp_as_req);
        assert!(matches!(
            decode_request(&resp_as_req),
            Err(FrameError::BadOpcode(_))
        ));
        let mut req_as_resp = Vec::new();
        encode_request(&Request::Quit, &mut req_as_resp);
        assert!(matches!(
            decode_response(&req_as_resp),
            Err(FrameError::BadOpcode(_))
        ));
    }

    #[test]
    fn missized_payloads_are_malformed() {
        // KS with a stray payload byte.
        let mut buf = Vec::new();
        put_header(&mut buf, opcode::QUERY_KS, 1);
        buf.push(0);
        assert!(matches!(
            decode_request(&buf),
            Err(FrameError::Malformed(_))
        ));
        // INGEST with a ragged (non-multiple-of-8) payload.
        let mut buf = Vec::new();
        put_header(&mut buf, opcode::INGEST, 7);
        buf.extend_from_slice(&[0; 7]);
        assert!(matches!(
            decode_request(&buf),
            Err(FrameError::Malformed(_))
        ));
        // HH whose count disagrees with its payload size.
        let mut buf = Vec::new();
        put_header(&mut buf, opcode::HH, 4);
        buf.put_u32_le(3);
        assert!(matches!(
            decode_response(&buf),
            Err(FrameError::Malformed(_))
        ));
        // Out-of-range quantile rank.
        let mut buf = Vec::new();
        put_header(&mut buf, opcode::QUERY_QUANTILE, 8);
        buf.put_f64_le(1.5);
        assert!(matches!(
            decode_request(&buf),
            Err(FrameError::Malformed(_))
        ));
        // TINGEST with only a tenant key and no values.
        let mut buf = Vec::new();
        put_header(&mut buf, opcode::TENANT_INGEST, 8);
        buf.put_u64_le(3);
        assert!(matches!(
            decode_request(&buf),
            Err(FrameError::Malformed(_))
        ));
        // TINGEST with a ragged value chunk.
        let mut buf = Vec::new();
        put_header(&mut buf, opcode::TENANT_INGEST, 15);
        buf.extend_from_slice(&[0; 15]);
        assert!(matches!(
            decode_request(&buf),
            Err(FrameError::Malformed(_))
        ));
        // TQUERY QUANTILE with an out-of-range rank.
        let mut buf = Vec::new();
        put_header(&mut buf, opcode::TENANT_QUERY_QUANTILE, 16);
        buf.put_u64_le(3);
        buf.put_f64_le(-0.5);
        assert!(matches!(
            decode_request(&buf),
            Err(FrameError::Malformed(_))
        ));
        // TSNAPSHOT response whose sample length disagrees with the size.
        let mut buf = Vec::new();
        put_header(&mut buf, opcode::R_TENANT_SNAPSHOT, 20);
        buf.put_u64_le(1);
        buf.put_u64_le(5);
        buf.put_u32_le(2);
        assert!(matches!(
            decode_response(&buf),
            Err(FrameError::Malformed(_))
        ));
    }

    #[test]
    fn tenant_ingest_frames_decode_borrowed_on_the_zero_copy_path() {
        let vs: Vec<u64> = vec![11, 0, u64::MAX];
        let mut buf = Vec::new();
        encode_tenant_ingest_slice(31, &vs, &mut buf);
        let (frame, consumed) = decode_request_frame(&buf).unwrap().unwrap();
        assert_eq!(consumed, buf.len());
        match frame {
            RequestFrame::TenantIngestLe { tenant, payload } => {
                assert_eq!(tenant, 31);
                // The value chunk is the read buffer's own bytes, offset
                // past the tenant word — not a copy.
                assert!(std::ptr::eq(
                    payload.as_ptr(),
                    buf[HEADER_BYTES + 8..].as_ptr()
                ));
                assert_eq!(
                    RequestFrame::TenantIngestLe { tenant, payload }.into_owned(),
                    Request::TenantIngest {
                        tenant: 31,
                        values: vs
                    }
                );
            }
            other => panic!("expected TenantIngestLe, got {other:?}"),
        }
    }

    #[test]
    fn malformed_admin_payloads_are_typed_errors() {
        // EPOCH STATE requests whose payload is neither empty nor one u64.
        for len in [1, 7, 9, 16] {
            let mut buf = Vec::new();
            put_header(&mut buf, opcode::EPOCH_STATE, len);
            buf.resize(HEADER_BYTES + len, 0);
            assert!(
                matches!(decode_request_frame(&buf), Err(FrameError::Malformed(_))),
                "{len}-byte EPOCH STATE payload"
            );
        }
        // RESTORE with an empty envelope.
        let mut buf = Vec::new();
        put_header(&mut buf, opcode::RESTORE, 0);
        assert!(matches!(
            decode_request_frame(&buf),
            Err(FrameError::Malformed(_))
        ));
        // EPOCH STATE response shorter than its fixed header.
        let mut buf = Vec::new();
        put_header(&mut buf, opcode::R_EPOCH_STATE, 16);
        buf.extend_from_slice(&[0; 16]);
        assert!(matches!(
            decode_response(&buf),
            Err(FrameError::Malformed(_))
        ));
        // CHECKPOINT response missing its high-water mark.
        let mut buf = Vec::new();
        put_header(&mut buf, opcode::R_CHECKPOINT, 4);
        buf.extend_from_slice(&[0; 4]);
        assert!(matches!(
            decode_response(&buf),
            Err(FrameError::Malformed(_))
        ));
        // RESTORED with a missized payload.
        let mut buf = Vec::new();
        put_header(&mut buf, opcode::RESTORED, 9);
        buf.extend_from_slice(&[0; 9]);
        assert!(matches!(
            decode_response(&buf),
            Err(FrameError::Malformed(_))
        ));
    }

    #[test]
    fn floats_survive_the_wire_bit_for_bit() {
        for &x in &[0.1, 2.0 / 3.0, 1e-17, 0.9999999999999999] {
            let mut buf = Vec::new();
            encode_response(&Response::Ks(x), &mut buf);
            match decode_response(&buf).unwrap().unwrap().0 {
                Response::Ks(y) => assert_eq!(x.to_bits(), y.to_bits()),
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn ingest_frames_decode_borrowed_on_the_zero_copy_path() {
        let vs: Vec<u64> = vec![1, u64::MAX, 42];
        let mut buf = Vec::new();
        encode_ingest_slice(&vs, &mut buf);
        let (frame, consumed) = decode_request_frame(&buf).unwrap().unwrap();
        assert_eq!(consumed, buf.len());
        match frame {
            RequestFrame::IngestLe(payload) => {
                // The payload is the read buffer's own bytes, not a copy.
                assert!(std::ptr::eq(payload.as_ptr(), buf[HEADER_BYTES..].as_ptr()));
                assert_eq!(
                    RequestFrame::IngestLe(payload).into_owned(),
                    Request::Ingest(vs)
                );
            }
            other => panic!("expected IngestLe, got {other:?}"),
        }
        // Non-bulk requests come out owned.
        let mut buf = Vec::new();
        encode_request(&Request::Stats, &mut buf);
        assert_eq!(
            decode_request_frame(&buf).unwrap().unwrap().0,
            RequestFrame::Owned(Request::Stats)
        );
    }

    #[test]
    fn snapshot_slice_encoder_matches_the_owned_response_encoder() {
        let sample = vec![3u64, 1, 4, 1, 5];
        let mut borrowed = Vec::new();
        encode_snapshot_slice(9, 77, &sample, &mut borrowed);
        let mut owned = Vec::new();
        encode_response(
            &Response::Snapshot {
                epoch: 9,
                items: 77,
                sample,
            },
            &mut owned,
        );
        assert_eq!(borrowed, owned);
    }

    #[test]
    fn text_and_binary_dispatch_disagree_on_no_byte() {
        // Every text command starts with an ASCII letter; a binary frame
        // starts with 0xB5. One byte decides the front-end.
        for line in ["INGEST 1", "QUERY KS", "SNAPSHOT", "STATS", "QUIT"] {
            assert!(!is_frame_start(line.as_bytes()[0]));
        }
        assert!(is_frame_start(FRAME_MAGIC[0]));
    }
}
