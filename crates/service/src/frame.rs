//! The length-prefixed **binary frame protocol** — the serving path's
//! fast wire format, beside the text line protocol the server keeps as
//! its debug front-end behind the same dispatch.
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
//! The opcodes and payloads are the one table of [`crate::protocol`]:
//! each [`Request`]/[`Response`] variant has one opcode, one text verb
//! and one field list, written by one encoder and read by one decoder
//! for both wires. This module is the binary half of that codec — the
//! envelope, a field writer that appends a frame's payload and a field
//! reader that walks one — so the server's dispatch and the client's
//! API are format-agnostic. The cluster admin opcodes (`0x09`–`0x0B`,
//! `0x89`–`0x8B`) travel only here; a server that has not enabled admin
//! dispatch answers them with `ERR`.
//!
//! A response whose payload would pass [`MAX_FRAME_PAYLOAD`] (a
//! `SNAPSHOT`, `HH`, `EPOCH STATE` or `CHECKPOINT` of a very large
//! summary) is written as an `ERR` naming the response and its size, so
//! the peer reads a typed error and the connection stays in sync.
//!
//! Floats travel as raw bit patterns (`f64::to_bits`), so — like the
//! text protocol's shortest-round-trip decimals — every value survives
//! the wire exactly. An `INGEST` frame carries up to
//! [`MAX_INGEST_FRAME`] values as one flat `u64` chunk: the server hands
//! the payload, still borrowed from its read buffer, straight to the
//! service's in-place round-robin deal with **no per-element parsing**,
//! which is where the binary protocol's throughput over the text
//! front-end comes from. Frames are independent, so a client may
//! **pipeline**: write any number of request frames before reading, and
//! the server answers each in order. Every run of `u64` values
//! (`INGEST`/`TINGEST` payloads, `SNAPSHOT`/`TSNAPSHOT` samples) is
//! written and read by the checkpoint codec's [`put_u64_run`] and
//! [`extend_u64_run`], so frames and checkpoints share one u64-run
//! codec.
//!
//! [`extend_u64_run`]: robust_sampling_core::engine::snapshot::extend_u64_run
//!
//! Decoding is incremental ([`decode_request`] / [`decode_response`]
//! return `Ok(None)` on a truncated buffer) and every structural
//! violation — wrong magic, unknown version or opcode, oversized or
//! mis-sized payload, out-of-range rank — is a typed [`FrameError`]
//! raised *before* any payload is buffered past [`MAX_FRAME_PAYLOAD`].

use crate::protocol::{
    le_u64s, put_ingest, put_sample, read_request, read_response, Field, FieldReader, FieldWriter,
    Op, Request, Response, Wire, MAX_INGEST_FRAME,
};
use bytes::BufMut;
use robust_sampling_core::engine::snapshot::put_u64_run;
use std::borrow::Cow;
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
    out.put_slice(&FRAME_MAGIC);
    out.put_u8(FRAME_VERSION);
    out.put_u8(op);
    out.put_u32_le(payload_len as u32);
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
    encode_tenant_ingest(None, vs, out);
}

/// Append a `TINGEST` frame carrying `vs` for `tenant` to `out` — the
/// tenant analogue of [`encode_ingest_slice`] (no owned `Request` is
/// built on the client's tenant ingest path).
///
/// # Panics
///
/// Panics if `vs` exceeds [`MAX_INGEST_FRAME`] values or is empty.
pub fn encode_tenant_ingest_slice(tenant: u64, vs: &[u64], out: &mut Vec<u8>) {
    encode_tenant_ingest(Some(tenant), vs, out);
}

fn encode_tenant_ingest(tenant: Option<u64>, vs: &[u64], out: &mut Vec<u8>) {
    assert!(
        (1..=MAX_INGEST_FRAME).contains(&vs.len()),
        "an ingest frame must carry 1..={MAX_INGEST_FRAME} values, got {}",
        vs.len()
    );
    put_frame(out, |w| put_ingest(w, tenant, vs));
}

/// Append a `SNAPSHOT` response frame to `out` straight from a borrowed
/// sample slice — the server serializes [`EpochSnapshot::visible_ref`]
/// directly into the connection's out-buffer through the same fields,
/// never materializing an owned copy of the sample. A sample too large
/// for one frame is written as an `ERR` (see the module docs).
///
/// [`EpochSnapshot::visible_ref`]: crate::EpochSnapshot::visible_ref
pub fn encode_snapshot_slice(epoch: u64, items: usize, sample: &[u64], out: &mut Vec<u8>) {
    put_frame(out, |w| put_sample(w, Op::OkSnapshot, epoch, items, sample));
}

/// Append `req` to `out` as one binary frame. An ingest request should
/// carry 1..=[`MAX_INGEST_FRAME`] values and a `Restore` envelope should
/// be non-empty; the peer rejects others, and the client checks both
/// before encoding.
///
/// # Panics
///
/// Panics if the request's payload passes [`MAX_FRAME_PAYLOAD`].
pub fn encode_request(req: &Request, out: &mut Vec<u8>) {
    Wire::Binary.put(out, |w| req.put(w));
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
    Wire::Binary.put(out, |w| resp.put(w));
}

/// Append one frame to `out`, `put` writing its fields: the header goes
/// out with a zero length, which is patched in once the payload is
/// written. A response whose payload passed [`MAX_FRAME_PAYLOAD`] is
/// replaced by an `ERR` naming it and its size.
pub(crate) fn put_frame(out: &mut Vec<u8>, put: impl FnOnce(&mut dyn FieldWriter)) {
    let start = out.len();
    put(&mut Frame(out));
    let (op, len) = (out[start + 3], out.len() - start - HEADER_BYTES);
    if len > MAX_FRAME_PAYLOAD {
        assert!(op >= 0x80, "a request payload passes the frame cap");
        out.truncate(start);
        let name = Op::from_code(op, true)
            .map_or("?", Op::verb)
            .trim_start_matches("OK ");
        let msg = format!(
            "{name} response ({op:#04x}) needs {len} payload bytes, over the \
             {MAX_FRAME_PAYLOAD}-byte frame cap"
        );
        return encode_response(&Response::Err(msg), out);
    }
    out[start + 4..start + HEADER_BYTES].copy_from_slice(&(len as u32).to_le_bytes());
}

/// The binary wire's field writer: appends one frame to its buffer.
struct Frame<'a>(&'a mut Vec<u8>);

impl FieldWriter for Frame<'_> {
    fn write(&mut self, op: Op, fields: &[Field<'_>]) {
        let out = &mut *self.0;
        put_header(out, op.code(), 0);
        for field in fields {
            match *field {
                Field::U64(v) | Field::Kv(_, v) => out.put_u64_le(v),
                Field::F64(v) => out.put_f64_le(v),
                Field::Opt(None) => out.put_u8(0),
                Field::Opt(Some(v)) => {
                    out.put_u8(1);
                    out.put_u64_le(v);
                }
                Field::Count(n) => out.put_u32_le(n as u32),
                Field::Pairs(pairs) => pairs.iter().for_each(|&(v, d)| {
                    out.put_u64_le(v);
                    out.put_f64_le(d);
                }),
                Field::Run(vs) => put_u64_run(out, vs),
                Field::Bytes(b) => out.put_slice(b),
                Field::Msg(m) => {
                    out.put_slice(&m.as_bytes()[..m.floor_char_boundary(MAX_FRAME_PAYLOAD)])
                }
            }
        }
    }
}

/// The envelope, validated progressively: magic and version are checked
/// from the very first bytes (so garbage fails fast, without waiting for
/// a full header), the payload cap from the header alone. Once the whole
/// frame is in `buf`, its opcode and payload.
fn decode_header(buf: &[u8]) -> Result<Option<(u8, &[u8])>, FrameError> {
    if buf.iter().zip(FRAME_MAGIC).any(|(&b, m)| b != m) {
        return Err(FrameError::BadMagic([buf[0], *buf.get(1).unwrap_or(&0)]));
    }
    if let Some(&v) = buf.get(2).filter(|&&v| v != FRAME_VERSION) {
        return Err(FrameError::BadVersion(v));
    }
    let Some(&[_, _, _, op, l0, l1, l2, l3]) = buf.first_chunk::<HEADER_BYTES>() else {
        return Ok(None);
    };
    let len = u32::from_le_bytes([l0, l1, l2, l3]) as usize;
    if len > MAX_FRAME_PAYLOAD {
        return Err(FrameError::Oversized {
            opcode: op,
            len: len as u64,
        });
    }
    Ok(buf[HEADER_BYTES..].get(..len).map(|payload| (op, payload)))
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
    decode(buf, false, |op, payload| read_request(op, payload))
}

/// Decode the frame at the front of `buf` with `read`, given the table
/// row of its request (or, with `response`, response) opcode.
fn decode<'a, T>(
    buf: &'a [u8],
    response: bool,
    read: impl FnOnce(Op, &mut Payload<'a>) -> Result<T, &'static str>,
) -> Result<Option<(T, usize)>, FrameError> {
    let Some((code, payload)) = decode_header(buf)? else {
        return Ok(None);
    };
    let op = Op::from_code(code, response).ok_or(FrameError::BadOpcode(code))?;
    let decoded = read(op, &mut Payload(payload)).map_err(FrameError::Malformed)?;
    Ok(Some((decoded, HEADER_BYTES + payload.len())))
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

/// Decode one response frame from the front of `buf`. Same contract as
/// [`decode_request`].
pub fn decode_response(buf: &[u8]) -> Result<Option<(Response, usize)>, FrameError> {
    decode(buf, true, |op, payload| read_response(op, payload))
}

/// The binary wire's field reader: the unread rest of one frame's
/// payload.
struct Payload<'a>(&'a [u8]);

impl Payload<'_> {
    fn take<const N: usize>(&mut self) -> Result<[u8; N], &'static str> {
        let (field, rest) = self
            .0
            .split_first_chunk::<N>()
            .ok_or("payload ends inside a field")?;
        self.0 = rest;
        Ok(*field)
    }
}

impl<'a> FieldReader<'a> for Payload<'a> {
    fn u64(&mut self) -> Result<u64, &'static str> {
        self.take().map(u64::from_le_bytes)
    }

    fn f64(&mut self) -> Result<f64, &'static str> {
        self.take().map(f64::from_le_bytes)
    }

    fn kv(&mut self, _: &str) -> Result<u64, &'static str> {
        self.u64()
    }

    fn opt_u64(&mut self) -> Result<Option<u64>, &'static str> {
        match self.take()? {
            [0] => Ok(None),
            [1] => self.u64().map(Some),
            _ => Err("QUANTILE tag must be 0 or 1"),
        }
    }

    fn count(&mut self, width: usize) -> Result<usize, &'static str> {
        let n = u32::from_le_bytes(self.take()?) as usize;
        if self.0.len() != width * n {
            return Err("count disagrees with the payload size");
        }
        Ok(n)
    }

    fn pair(&mut self) -> Result<(u64, f64), &'static str> {
        Ok((self.u64()?, self.f64()?))
    }

    fn run(&mut self) -> Result<Cow<'a, [u8]>, &'static str> {
        if !self.0.len().is_multiple_of(8) {
            return Err("u64 run is not a multiple of 8 bytes");
        }
        self.bytes().map(Cow::Borrowed)
    }

    fn bytes(&mut self) -> Result<&'a [u8], &'static str> {
        Ok(std::mem::take(&mut self.0))
    }

    fn more(&self) -> bool {
        !self.0.is_empty()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::protocol::ServiceStats;

    pub(crate) fn all_requests() -> Vec<Request> {
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

    pub(crate) fn all_responses() -> Vec<Response> {
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
    pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
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
            Op::Ingest.code(),
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
        put_header(&mut buf, Op::QueryKs.code(), 1);
        buf.push(0);
        assert!(matches!(
            decode_request(&buf),
            Err(FrameError::Malformed(_))
        ));
        // INGEST with a ragged (non-multiple-of-8) payload.
        let mut buf = Vec::new();
        put_header(&mut buf, Op::Ingest.code(), 7);
        buf.extend_from_slice(&[0; 7]);
        assert!(matches!(
            decode_request(&buf),
            Err(FrameError::Malformed(_))
        ));
        // HH whose count disagrees with its payload size.
        let mut buf = Vec::new();
        put_header(&mut buf, Op::OkHeavy.code(), 4);
        buf.put_u32_le(3);
        assert!(matches!(
            decode_response(&buf),
            Err(FrameError::Malformed(_))
        ));
        // Out-of-range quantile rank.
        let mut buf = Vec::new();
        put_header(&mut buf, Op::QueryQuantile.code(), 8);
        buf.put_f64_le(1.5);
        assert!(matches!(
            decode_request(&buf),
            Err(FrameError::Malformed(_))
        ));
        // TINGEST with only a tenant key and no values.
        let mut buf = Vec::new();
        put_header(&mut buf, Op::TenantIngest.code(), 8);
        buf.put_u64_le(3);
        assert!(matches!(
            decode_request(&buf),
            Err(FrameError::Malformed(_))
        ));
        // TINGEST with a ragged value chunk.
        let mut buf = Vec::new();
        put_header(&mut buf, Op::TenantIngest.code(), 15);
        buf.extend_from_slice(&[0; 15]);
        assert!(matches!(
            decode_request(&buf),
            Err(FrameError::Malformed(_))
        ));
        // TQUERY QUANTILE with an out-of-range rank.
        let mut buf = Vec::new();
        put_header(&mut buf, Op::TenantQueryQuantile.code(), 16);
        buf.put_u64_le(3);
        buf.put_f64_le(-0.5);
        assert!(matches!(
            decode_request(&buf),
            Err(FrameError::Malformed(_))
        ));
        // TSNAPSHOT response whose sample length disagrees with the size.
        let mut buf = Vec::new();
        put_header(&mut buf, Op::OkTenantSnapshot.code(), 20);
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
            put_header(&mut buf, Op::EpochState.code(), len);
            buf.resize(HEADER_BYTES + len, 0);
            assert!(
                matches!(decode_request_frame(&buf), Err(FrameError::Malformed(_))),
                "{len}-byte EPOCH STATE payload"
            );
        }
        // RESTORE with an empty envelope.
        let mut buf = Vec::new();
        put_header(&mut buf, Op::Restore.code(), 0);
        assert!(matches!(
            decode_request_frame(&buf),
            Err(FrameError::Malformed(_))
        ));
        // EPOCH STATE response shorter than its fixed header.
        let mut buf = Vec::new();
        put_header(&mut buf, Op::OkEpochState.code(), 16);
        buf.extend_from_slice(&[0; 16]);
        assert!(matches!(
            decode_response(&buf),
            Err(FrameError::Malformed(_))
        ));
        // CHECKPOINT response missing its high-water mark.
        let mut buf = Vec::new();
        put_header(&mut buf, Op::OkCheckpoint.code(), 4);
        buf.extend_from_slice(&[0; 4]);
        assert!(matches!(
            decode_response(&buf),
            Err(FrameError::Malformed(_))
        ));
        // RESTORED with a missized payload.
        let mut buf = Vec::new();
        put_header(&mut buf, Op::OkRestored.code(), 9);
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
