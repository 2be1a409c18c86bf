//! The request vocabulary — [`Request`] and [`Response`], the one set of
//! enums both wire formats carry — and its one codec: an opcode table,
//! one encoder and one decoder per enum, and a field writer and reader
//! with two implementations, the binary frame payload of
//! [`crate::frame`] and the text line of this module.
//!
//! Every variant has one row in the table: its binary opcode, its text
//! verb and its fields, in one order. The encoders (`Request::put`,
//! `Response::put`) write those fields through a field writer, the
//! decoders (`read_request`, `read_response`) read them back through a
//! field reader and make the checks once for both wires: a rank or
//! threshold in `[0, 1]`, an ingest of `1..=`[`MAX_INGEST_FRAME`] values,
//! and no field left over. On the text wire a field is one token:
//! decimal `u64`s, `f64`s in Rust's shortest-round-trip form (so floats
//! survive exactly), `key=value` for the `STATS` counters and
//! `item:density` for `HH` pairs. The binary wire is little-endian
//! throughout and floats travel as their bits.
//!
//! ```text
//! opcode  request                      binary payload
//! 0x01    INGEST <v> <v> ...           count × u64 (count = len / 8)
//! 0x02    QUERY COUNT <x>              u64 item
//! 0x03    QUERY QUANTILE <q>           f64 rank
//! 0x04    QUERY HH <threshold>         f64 threshold
//! 0x05    QUERY KS                     (empty)
//! 0x06    SNAPSHOT                     (empty)
//! 0x07    STATS                        (empty)
//! 0x08    QUIT                         (empty)
//! 0x09    EPOCH STATE          [admin] (empty) or u64 since epoch
//! 0x0A    CHECKPOINT           [admin] (empty)
//! 0x0B    RESTORE              [admin] checkpoint envelope bytes
//! 0x0C    TINGEST <t> <v> ...          u64 tenant, then count × u64
//! 0x0D    TQUERY COUNT <t> <x>         u64 tenant, u64 item
//! 0x0E    TQUERY QUANTILE <t> <q>      u64 tenant, f64 rank
//! 0x0F    TSNAPSHOT <t>                u64 tenant
//!
//! opcode  response                     binary payload
//! 0x81    OK INGESTED <n>              u64 total items
//! 0x82    OK COUNT <estimate>          f64 estimate
//! 0x83    OK QUANTILE <v> | NONE       u8 tag (0 = NONE) [+ u64 value]
//! 0x84    OK HH <item>:<density> ...   u32 count, then count × (u64, f64)
//! 0x85    OK KS <distance>             f64 distance
//! 0x86    OK SNAPSHOT <e> <n> <v> ...  u64 epoch, u64 items, u32 k, k × u64
//! 0x87    OK STATS items=<n> epoch=<e> shards=<k> space=<s>
//!         snapshot_items=<m> shard_bytes=<b> arena_tenants=<t>
//!         arena_bytes=<b> arena_evictions=<e>
//!                                      9 × u64, in that order
//! 0x88    OK BYE                       (empty)
//! 0x89    OK EPOCH STATE       [admin] u64 epoch, u64 items, u64 frames
//!                                      acked, then the summary's codec
//!                                      bytes (none when the epoch
//!                                      equals `since`)
//! 0x8A    OK CHECKPOINT        [admin] u64 frames acked, envelope bytes
//! 0x8B    OK RESTORED          [admin] u64 frames acked
//! 0x8C    OK TSNAPSHOT <t> <n> <v> ... u64 tenant, u64 items, u32 k, k × u64
//! 0xC0    ERR <reason>                 UTF-8 message bytes
//! ```
//!
//! A text request is one line, answered by one line; `TINGEST` answers
//! `OK INGESTED` with the tenant's item count, `TQUERY` answers
//! `OK COUNT`/`OK QUANTILE`, and anything the grammar rejects answers
//! `ERR <reason>`. The `T*` commands address one tenant of the server's
//! [`TenantArena`](crate::tenant::TenantArena); on a server spawned
//! without an arena they answer `ERR`.
//!
//! The `[admin]` variants — [`Request::EpochState`],
//! [`Request::Checkpoint`], [`Request::Restore`] and their replies — are
//! the cluster control plane and **binary-only**: on the text wire a
//! request writes its bare verb, which [`Request::parse`] rejects, a
//! reply writes an `ERR` line, and the client refuses to send them on a
//! text connection ([`Request::is_admin`]).

use crate::frame::{self, RequestFrame};
use robust_sampling_core::engine::snapshot::extend_u64_run;
use std::borrow::Cow;
use std::io::Write as _;

/// Which wire format a request arrived in or a connection speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Wire {
    /// The text line protocol of this module.
    Text,
    /// The binary frames of [`crate::frame`].
    Binary,
}

impl Wire {
    /// Append one message to `out` in this wire's form, `put` writing
    /// it: a binary frame, or a text line and its newline.
    pub(crate) fn put(self, out: &mut Vec<u8>, put: impl FnOnce(&mut dyn FieldWriter)) {
        match self {
            Wire::Binary => frame::put_frame(out, put),
            Wire::Text => {
                put(&mut Line(out));
                out.push(b'\n');
            }
        }
    }

    /// Decode the reply at the front of `buf`: `Ok(Some((reply,
    /// consumed)))` once it is complete (a text reply ends at its
    /// newline), `Ok(None)` while it is not.
    pub(crate) fn take_response(self, buf: &[u8]) -> Result<Option<(Response, usize)>, String> {
        if self == Wire::Binary {
            return frame::decode_response(buf).map_err(|e| format!("frame error: {e}"));
        }
        let Some(end) = buf.iter().position(|&b| b == b'\n') else {
            return Ok(None);
        };
        let line = std::str::from_utf8(&buf[..end]).map_err(|_| "reply line is not UTF-8")?;
        let resp = Response::parse(line.trim_end_matches('\r'));
        resp.map(|r| Some((r, end + 1)))
            .map_err(|msg| format!("protocol error: {msg}"))
    }
}

/// Cap on values per `INGEST`/`TINGEST` request on either wire (keeps a
/// hostile request from ballooning server memory; the client chunks
/// longer batches).
pub const MAX_INGEST_FRAME: usize = 65_536;

/// A client→server request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Ingest a frame of values.
    Ingest(Vec<u64>),
    /// Count estimate for one item.
    QueryCount(u64),
    /// `q`-quantile estimate, `q ∈ [0, 1]`.
    QueryQuantile(f64),
    /// Heavy items at a density threshold, `threshold ∈ [0, 1]`.
    QueryHeavy(f64),
    /// Kolmogorov–Smirnov distance of the snapshot sample to uniform.
    QueryKs,
    /// The published snapshot's epoch, boundary, and visible sample.
    Snapshot,
    /// Ingest a frame of values into one tenant's summary.
    TenantIngest {
        /// Tenant key.
        tenant: u64,
        /// The frame.
        values: Vec<u64>,
    },
    /// Count estimate for one item in one tenant's stream.
    TenantQueryCount {
        /// Tenant key.
        tenant: u64,
        /// Queried item.
        x: u64,
    },
    /// `q`-quantile of one tenant's stream, `q ∈ [0, 1]`.
    TenantQueryQuantile {
        /// Tenant key.
        tenant: u64,
        /// Quantile rank.
        q: f64,
    },
    /// One tenant's current sample.
    TenantSnapshot {
        /// Tenant key.
        tenant: u64,
    },
    /// Service counters.
    Stats,
    /// Close the connection.
    Quit,
    /// Cluster admin (binary-only): pull the node's published epoch
    /// state for the coordinator's shard-order merge. With
    /// `since: Some(e)`, a node whose published epoch is still `e` leaves
    /// the summary out of its reply.
    EpochState {
        /// The epoch the requester already holds, if any.
        since: Option<u64>,
    },
    /// Cluster admin (binary-only): pull the node's full checkpoint
    /// envelope.
    Checkpoint,
    /// Cluster admin (binary-only): seed the node from a checkpoint
    /// envelope (failover restore). The envelope must be non-empty.
    Restore(Vec<u8>),
}

/// Service counters reported by `STATS`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceStats {
    /// Elements ingested so far.
    pub items: usize,
    /// Epoch of the published snapshot.
    pub epoch: u64,
    /// Ingest shard count `K`.
    pub shards: usize,
    /// Space of the published merged summary, in retained units.
    pub space: usize,
    /// Stream length at the published snapshot's boundary.
    pub snapshot_items: usize,
    /// Estimated resident bytes of the sharded summary (retained units
    /// × 8, the memory-accounting view of `space`).
    pub shard_bytes: usize,
    /// Tenants known to the arena (resident + cold); 0 when the
    /// server has no arena.
    pub arena_tenants: usize,
    /// Bytes of resident arena state charged against the budget.
    pub arena_bytes: usize,
    /// Evictions into the arena's cold tier since it was created.
    pub arena_evictions: u64,
}

/// A server→client response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Frame accepted; total items ingested so far.
    Ingested(usize),
    /// Count estimate.
    Count(f64),
    /// Quantile estimate (`None` before the first element).
    Quantile(Option<u64>),
    /// Heavy items as `(item, density)`, densest first.
    Heavy(Vec<(u64, f64)>),
    /// KS-to-uniform distance.
    Ks(f64),
    /// Published snapshot: epoch, boundary item count, visible sample.
    Snapshot {
        /// Epoch counter of the published snapshot.
        epoch: u64,
        /// Stream length at the snapshot boundary.
        items: usize,
        /// The snapshot's retained elements (the observable state).
        sample: Vec<u64>,
    },
    /// One tenant's sample: tenant key, its item count, its sample.
    TenantSnapshot {
        /// Tenant key.
        tenant: u64,
        /// Items the tenant has streamed.
        items: usize,
        /// The tenant's retained sample.
        sample: Vec<u64>,
    },
    /// Service counters.
    Stats(ServiceStats),
    /// Connection closing.
    Bye,
    /// Request failed.
    Err(String),
    /// Reply to [`Request::EpochState`]: the node's published epoch, the
    /// stream length at its boundary, the ingest frames the node has
    /// applied, and the published merged summary's [`SnapshotCodec`]
    /// bytes — `None` when the request's `since` equals `epoch` (the
    /// requester's copy is current).
    ///
    /// [`SnapshotCodec`]: robust_sampling_core::engine::SnapshotCodec
    EpochState {
        /// Published epoch number.
        epoch: u64,
        /// Stream length at the epoch boundary.
        items: u64,
        /// Ingest frames the node has applied so far.
        frames_acked: u64,
        /// The published merged summary's codec bytes, if sent.
        state: Option<Vec<u8>>,
    },
    /// Reply to [`Request::Checkpoint`]: the envelope plus the frame
    /// high-water mark it was cut at (so the router can trim its replay
    /// window without peeking inside the envelope).
    Checkpoint {
        /// Frame high-water mark at checkpoint time.
        frames_acked: u64,
        /// The full checkpoint envelope bytes.
        bytes: Vec<u8>,
    },
    /// Reply to [`Request::Restore`]: the restored service's frame
    /// high-water mark — the router replays only retained frames at or
    /// past it.
    Restored {
        /// Frame high-water mark of the restored service.
        frames_acked: u64,
    },
}

/// One row of the opcode table, naming a [`Request`] or [`Response`]
/// variant: its discriminant is the binary opcode and [`Op::verb`] its
/// text verb. Encoders name their row, so no writer looks a verb up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub(crate) enum Op {
    Ingest = 0x01,
    QueryCount = 0x02,
    QueryQuantile = 0x03,
    QueryHeavy = 0x04,
    QueryKs = 0x05,
    Snapshot = 0x06,
    Stats = 0x07,
    Quit = 0x08,
    EpochState = 0x09,
    Checkpoint = 0x0A,
    Restore = 0x0B,
    TenantIngest = 0x0C,
    TenantQueryCount = 0x0D,
    TenantQueryQuantile = 0x0E,
    TenantSnapshot = 0x0F,
    OkIngested = 0x81,
    OkCount = 0x82,
    OkQuantile = 0x83,
    OkHeavy = 0x84,
    OkKs = 0x85,
    OkSnapshot = 0x86,
    OkStats = 0x87,
    OkBye = 0x88,
    OkEpochState = 0x89,
    OkCheckpoint = 0x8A,
    OkRestored = 0x8B,
    OkTenantSnapshot = 0x8C,
    Err = 0xC0,
}

/// The opcode table: every row with its text verb. Requests take
/// `0x01`–`0x0F`, responses `0x81`–`0x8C` and `ERR` `0xC0`; the admin rows
/// (`0x09`–`0x0B`, `0x89`–`0x8B`) name variants the text wire does not
/// carry.
const OPCODES: [(Op, &str); 28] = [
    (Op::Ingest, "INGEST"),
    (Op::QueryCount, "QUERY COUNT"),
    (Op::QueryQuantile, "QUERY QUANTILE"),
    (Op::QueryHeavy, "QUERY HH"),
    (Op::QueryKs, "QUERY KS"),
    (Op::Snapshot, "SNAPSHOT"),
    (Op::Stats, "STATS"),
    (Op::Quit, "QUIT"),
    (Op::EpochState, "EPOCH STATE"),
    (Op::Checkpoint, "CHECKPOINT"),
    (Op::Restore, "RESTORE"),
    (Op::TenantIngest, "TINGEST"),
    (Op::TenantQueryCount, "TQUERY COUNT"),
    (Op::TenantQueryQuantile, "TQUERY QUANTILE"),
    (Op::TenantSnapshot, "TSNAPSHOT"),
    (Op::OkIngested, "OK INGESTED"),
    (Op::OkCount, "OK COUNT"),
    (Op::OkQuantile, "OK QUANTILE"),
    (Op::OkHeavy, "OK HH"),
    (Op::OkKs, "OK KS"),
    (Op::OkSnapshot, "OK SNAPSHOT"),
    (Op::OkStats, "OK STATS"),
    (Op::OkBye, "OK BYE"),
    (Op::OkEpochState, "OK EPOCH STATE"),
    (Op::OkCheckpoint, "OK CHECKPOINT"),
    (Op::OkRestored, "OK RESTORED"),
    (Op::OkTenantSnapshot, "OK TSNAPSHOT"),
    (Op::Err, "ERR"),
];

impl Op {
    /// The row of request (or, with `response`, response) opcode `code`.
    pub(crate) fn from_code(code: u8, response: bool) -> Option<Op> {
        OPCODES
            .iter()
            .map(|&(op, _)| op)
            .find(|&op| op.code() == code && op.is_response() == response)
    }

    /// The binary opcode.
    pub(crate) fn code(self) -> u8 {
        self as u8
    }

    /// The text verb.
    pub(crate) fn verb(self) -> &'static str {
        OPCODES
            .iter()
            .find(|&&(op, _)| op == self)
            .expect("every row is in the table")
            .1
    }

    fn is_response(self) -> bool {
        self.code() >= 0x80
    }

    /// Whether this is a binary-only cluster admin row.
    fn binary_only(self) -> bool {
        matches!(self.code() & 0x7F, 0x09..=0x0B)
    }
}

/// One field of a message, as an encoder hands it to a [`FieldWriter`].
pub(crate) enum Field<'x> {
    /// One `u64`.
    U64(u64),
    /// One `f64`, exact on both wires.
    F64(f64),
    /// One named `u64` (`key=v` on the text wire).
    Kv(&'x str, u64),
    /// One optional `u64` (a tag byte, or `NONE` on the text wire).
    Opt(Option<u64>),
    /// The length of the run that follows (implied on the text wire).
    Count(usize),
    /// `(item, density)` pairs (`item:density` tokens on the text wire).
    Pairs(&'x [(u64, f64)]),
    /// The message's closing run of `u64` values.
    Run(&'x [u64]),
    /// The message's closing bytes (admin messages only).
    Bytes(&'x [u8]),
    /// The message's closing error text.
    Msg(&'x str),
}

/// Where an encoder writes a message: a binary frame (see
/// [`crate::frame`]) or a text line.
pub(crate) trait FieldWriter {
    /// Write the message `op` names — its frame header or its text
    /// verb — and then its `fields`.
    fn write(&mut self, op: Op, fields: &[Field<'_>]);
}

/// Where a decoder reads a message's fields back from, one method per
/// kind of [`Field`]. An error names the malformed field.
pub(crate) trait FieldReader<'a> {
    /// One `u64`.
    fn u64(&mut self) -> Result<u64, &'static str>;
    /// One `f64` (finite on the text wire).
    fn f64(&mut self) -> Result<f64, &'static str>;
    /// One `u64` named `key`.
    fn kv(&mut self, key: &str) -> Result<u64, &'static str>;
    /// One optional `u64`.
    fn opt_u64(&mut self) -> Result<Option<u64>, &'static str>;
    /// The length of the run that follows, whose elements take `width`
    /// bytes each on the binary wire.
    fn count(&mut self, width: usize) -> Result<usize, &'static str>;
    /// One `(item, density)` pair.
    fn pair(&mut self) -> Result<(u64, f64), &'static str>;
    /// The message's closing run of `u64` values as little-endian words:
    /// still borrowed from a binary frame, parsed from a text line.
    fn run(&mut self) -> Result<Cow<'a, [u8]>, &'static str>;
    /// The message's closing bytes (the rest of a text line).
    fn bytes(&mut self) -> Result<&'a [u8], &'static str>;
    /// Whether any field is left.
    fn more(&self) -> bool;

    /// The message's closing error text.
    fn msg(&mut self) -> Result<&'a str, &'static str> {
        std::str::from_utf8(self.bytes()?).map_err(|_| "ERR message must be UTF-8")
    }
}

/// The values of a run of little-endian `u64` words.
pub(crate) fn le_u64s(words: &[u8]) -> Vec<u64> {
    let mut out = Vec::with_capacity(words.len() / 8);
    extend_u64_run(&mut out, words);
    out
}

/// Write an `INGEST` of `vs`, or with a tenant a `TINGEST` — the one
/// encoding of both, which the client also writes straight from a
/// borrowed slice.
pub(crate) fn put_ingest(w: &mut dyn FieldWriter, tenant: Option<u64>, vs: &[u64]) {
    match tenant {
        None => w.write(Op::Ingest, &[Field::Run(vs)]),
        Some(t) => w.write(Op::TenantIngest, &[Field::U64(t), Field::Run(vs)]),
    }
}

/// Write the fields `OK SNAPSHOT` and `OK TSNAPSHOT` share: `head`
/// (epoch or tenant), items, then the sample — which the server also
/// writes straight from a snapshot's borrowed sample.
pub(crate) fn put_sample(w: &mut dyn FieldWriter, op: Op, head: u64, items: usize, sample: &[u64]) {
    use Field::*;
    w.write(
        op,
        &[
            U64(head),
            U64(items as u64),
            Count(sample.len()),
            Run(sample),
        ],
    );
}

/// One message as a text line, without its newline.
fn text_line(put: impl FnOnce(&mut dyn FieldWriter)) -> String {
    let mut out = Vec::new();
    Wire::Text.put(&mut out, put);
    out.pop();
    String::from_utf8(out).expect("protocol lines are UTF-8")
}

impl Request {
    /// Whether this is a binary-only cluster admin request
    /// (`EPOCH STATE`, `CHECKPOINT` or `RESTORE`).
    pub fn is_admin(&self) -> bool {
        matches!(
            self,
            Request::EpochState { .. } | Request::Checkpoint | Request::Restore(_)
        )
    }

    /// The one request encoder: write this request through `w`.
    pub(crate) fn put(&self, w: &mut dyn FieldWriter) {
        use Field::*;
        match self {
            Request::Ingest(vs) => put_ingest(w, None, vs),
            Request::TenantIngest { tenant, values } => put_ingest(w, Some(*tenant), values),
            Request::QueryCount(x) => w.write(Op::QueryCount, &[U64(*x)]),
            Request::QueryQuantile(q) => w.write(Op::QueryQuantile, &[F64(*q)]),
            Request::QueryHeavy(t) => w.write(Op::QueryHeavy, &[F64(*t)]),
            Request::QueryKs => w.write(Op::QueryKs, &[]),
            Request::Snapshot => w.write(Op::Snapshot, &[]),
            Request::TenantQueryCount { tenant, x } => {
                w.write(Op::TenantQueryCount, &[U64(*tenant), U64(*x)])
            }
            Request::TenantQueryQuantile { tenant, q } => {
                w.write(Op::TenantQueryQuantile, &[U64(*tenant), F64(*q)])
            }
            Request::TenantSnapshot { tenant } => w.write(Op::TenantSnapshot, &[U64(*tenant)]),
            Request::Stats => w.write(Op::Stats, &[]),
            Request::Quit => w.write(Op::Quit, &[]),
            Request::EpochState { since } => w.write(Op::EpochState, since.map(U64).as_slice()),
            Request::Checkpoint => w.write(Op::Checkpoint, &[]),
            Request::Restore(bytes) => w.write(Op::Restore, &[Bytes(bytes)]),
        }
    }

    /// Encode as one text line (without its newline). An admin request
    /// writes its bare verb, which [`parse`](Self::parse) rejects.
    pub fn encode(&self) -> String {
        text_line(|w| self.put(w))
    }

    /// Parse one text request line (without its newline).
    pub fn parse(line: &str) -> Result<Self, String> {
        let mut tokens = Tokens(line);
        let op = tokens.verb(false)?;
        Ok(read_request(op, &mut tokens)?.into_owned())
    }
}

impl Response {
    /// The one response encoder: write this response through `w`.
    ///
    /// # Panics
    ///
    /// Panics if an `EpochState` carries `Some` empty state, which would
    /// decode as `None` (no summary codec writes zero bytes).
    pub(crate) fn put(&self, w: &mut dyn FieldWriter) {
        use Field::*;
        match self {
            Response::Ingested(n) => w.write(Op::OkIngested, &[U64(*n as u64)]),
            Response::Count(c) => w.write(Op::OkCount, &[F64(*c)]),
            Response::Quantile(v) => w.write(Op::OkQuantile, &[Opt(*v)]),
            Response::Heavy(items) => w.write(Op::OkHeavy, &[Count(items.len()), Pairs(items)]),
            Response::Ks(d) => w.write(Op::OkKs, &[F64(*d)]),
            Response::Snapshot {
                epoch,
                items,
                sample,
            } => put_sample(w, Op::OkSnapshot, *epoch, *items, sample),
            Response::TenantSnapshot {
                tenant,
                items,
                sample,
            } => put_sample(w, Op::OkTenantSnapshot, *tenant, *items, sample),
            Response::Stats(st) => w.write(
                Op::OkStats,
                &[
                    Kv("items", st.items as u64),
                    Kv("epoch", st.epoch),
                    Kv("shards", st.shards as u64),
                    Kv("space", st.space as u64),
                    Kv("snapshot_items", st.snapshot_items as u64),
                    Kv("shard_bytes", st.shard_bytes as u64),
                    Kv("arena_tenants", st.arena_tenants as u64),
                    Kv("arena_bytes", st.arena_bytes as u64),
                    Kv("arena_evictions", st.arena_evictions),
                ],
            ),
            Response::Bye => w.write(Op::OkBye, &[]),
            Response::Err(msg) => w.write(Op::Err, &[Msg(msg)]),
            Response::EpochState {
                epoch,
                items,
                frames_acked,
                state,
            } => {
                assert!(
                    state.as_ref().is_none_or(|s| !s.is_empty()),
                    "an EPOCH STATE summary state is never empty"
                );
                let state = Bytes(state.as_deref().unwrap_or_default());
                w.write(
                    Op::OkEpochState,
                    &[U64(*epoch), U64(*items), U64(*frames_acked), state],
                )
            }
            Response::Checkpoint {
                frames_acked,
                bytes,
            } => w.write(Op::OkCheckpoint, &[U64(*frames_acked), Bytes(bytes)]),
            Response::Restored { frames_acked } => w.write(Op::OkRestored, &[U64(*frames_acked)]),
        }
    }

    /// Encode as one text line (without its newline). An admin reply
    /// writes an `ERR` line.
    pub fn encode(&self) -> String {
        text_line(|w| self.put(w))
    }

    /// Parse one text reply line (without its newline).
    pub fn parse(line: &str) -> Result<Self, String> {
        let mut tokens = Tokens(line);
        let op = tokens.verb(true)?;
        Ok(read_response(op, &mut tokens)?)
    }
}

/// `v` if it is a rank or threshold in `[0, 1]`.
fn unit(v: f64) -> Result<f64, &'static str> {
    let in_range = (0.0..=1.0).contains(&v);
    in_range
        .then_some(v)
        .ok_or("rank or threshold must be in [0,1]")
}

/// The one request decoder: read the fields of the request `op` names
/// from `r` and check them. An `INGEST`/`TINGEST` read from a binary
/// payload stays borrowed (see [`RequestFrame`]).
pub(crate) fn read_request<'a>(
    op: Op,
    r: &mut dyn FieldReader<'a>,
) -> Result<RequestFrame<'a>, &'static str> {
    let req = match op {
        Op::Ingest | Op::TenantIngest => {
            let tenant = (op == Op::TenantIngest).then(|| r.u64()).transpose()?;
            let run = r.run()?;
            if !(1..=MAX_INGEST_FRAME).contains(&(run.len() / 8)) {
                return Err("ingest value count outside 1..=MAX_INGEST_FRAME");
            }
            return Ok(match (tenant, run) {
                (None, Cow::Borrowed(payload)) => RequestFrame::IngestLe(payload),
                (Some(tenant), Cow::Borrowed(payload)) => {
                    RequestFrame::TenantIngestLe { tenant, payload }
                }
                (None, run) => RequestFrame::Owned(Request::Ingest(le_u64s(&run))),
                (Some(tenant), run) => RequestFrame::Owned(Request::TenantIngest {
                    tenant,
                    values: le_u64s(&run),
                }),
            });
        }
        Op::QueryCount => Request::QueryCount(r.u64()?),
        Op::QueryQuantile => Request::QueryQuantile(unit(r.f64()?)?),
        Op::QueryHeavy => Request::QueryHeavy(unit(r.f64()?)?),
        Op::QueryKs => Request::QueryKs,
        Op::Snapshot => Request::Snapshot,
        Op::TenantQueryCount => Request::TenantQueryCount {
            tenant: r.u64()?,
            x: r.u64()?,
        },
        Op::TenantQueryQuantile => Request::TenantQueryQuantile {
            tenant: r.u64()?,
            q: unit(r.f64()?)?,
        },
        Op::TenantSnapshot => Request::TenantSnapshot { tenant: r.u64()? },
        Op::Stats => Request::Stats,
        Op::Quit => Request::Quit,
        Op::EpochState => Request::EpochState {
            since: if r.more() { Some(r.u64()?) } else { None },
        },
        Op::Checkpoint => Request::Checkpoint,
        Op::Restore => match r.bytes()? {
            [] => return Err("RESTORE carries a checkpoint envelope"),
            envelope => Request::Restore(envelope.to_vec()),
        },
        _ => return Err("not a request"),
    };
    if r.more() {
        return Err("fields left over after the request");
    }
    Ok(RequestFrame::Owned(req))
}

/// The one response decoder: read the fields of the response `op` names
/// from `r` and check them.
pub(crate) fn read_response<'a>(
    op: Op,
    r: &mut dyn FieldReader<'a>,
) -> Result<Response, &'static str> {
    let resp = match op {
        Op::OkIngested => Response::Ingested(r.u64()? as usize),
        Op::OkCount => Response::Count(r.f64()?),
        Op::OkQuantile => Response::Quantile(r.opt_u64()?),
        Op::OkHeavy => {
            let n = r.count(16)?;
            Response::Heavy((0..n).map(|_| r.pair()).collect::<Result<_, _>>()?)
        }
        Op::OkKs => Response::Ks(r.f64()?),
        Op::OkSnapshot => Response::Snapshot {
            epoch: r.u64()?,
            items: r.u64()? as usize,
            sample: read_sample(r)?,
        },
        Op::OkTenantSnapshot => Response::TenantSnapshot {
            tenant: r.u64()?,
            items: r.u64()? as usize,
            sample: read_sample(r)?,
        },
        Op::OkStats => Response::Stats(ServiceStats {
            items: r.kv("items")? as usize,
            epoch: r.kv("epoch")?,
            shards: r.kv("shards")? as usize,
            space: r.kv("space")? as usize,
            snapshot_items: r.kv("snapshot_items")? as usize,
            shard_bytes: r.kv("shard_bytes")? as usize,
            arena_tenants: r.kv("arena_tenants")? as usize,
            arena_bytes: r.kv("arena_bytes")? as usize,
            arena_evictions: r.kv("arena_evictions")?,
        }),
        Op::OkBye => Response::Bye,
        Op::Err => Response::Err(r.msg()?.to_string()),
        Op::OkEpochState => Response::EpochState {
            epoch: r.u64()?,
            items: r.u64()?,
            frames_acked: r.u64()?,
            state: r
                .more()
                .then(|| r.bytes().map(<[u8]>::to_vec))
                .transpose()?,
        },
        Op::OkCheckpoint => Response::Checkpoint {
            frames_acked: r.u64()?,
            bytes: r.bytes()?.to_vec(),
        },
        Op::OkRestored => Response::Restored {
            frames_acked: r.u64()?,
        },
        _ => return Err("not a response"),
    };
    if r.more() {
        return Err("fields left over after the response");
    }
    Ok(resp)
}

/// A sample run: its length, then its values.
fn read_sample(r: &mut dyn FieldReader<'_>) -> Result<Vec<u64>, &'static str> {
    r.count(8)?;
    Ok(le_u64s(&r.run()?))
}

/// The text wire's field writer: a line of space-separated tokens.
struct Line<'a>(&'a mut Vec<u8>);

impl FieldWriter for Line<'_> {
    fn write(&mut self, op: Op, fields: &[Field<'_>]) {
        let out = &mut *self.0;
        if op.binary_only() {
            // An admin message has no line: a request writes its bare
            // verb, which the parser rejects, and a reply an `ERR`.
            let line = if op.is_response() {
                "ERR admin replies have no text form"
            } else {
                op.verb()
            };
            return out.extend_from_slice(line.as_bytes());
        }
        out.extend_from_slice(op.verb().as_bytes());
        for field in fields {
            let _ = match *field {
                Field::U64(v) | Field::Opt(Some(v)) => write!(out, " {v}"),
                Field::F64(v) => write!(out, " {v}"),
                Field::Kv(key, v) => write!(out, " {key}={v}"),
                Field::Opt(None) => write!(out, " NONE"),
                Field::Pairs(pairs) => pairs.iter().try_for_each(|(v, d)| write!(out, " {v}:{d}")),
                Field::Run(vs) => vs.iter().try_for_each(|v| write!(out, " {v}")),
                Field::Msg(m) => write!(out, " {}", m.replace(['\r', '\n'], " ")),
                Field::Count(_) | Field::Bytes(_) => Ok(()),
            };
        }
    }
}

/// The text wire's field reader: the rest of one line, a token per field
/// (an `ERR` reply's message is the whole rest).
struct Tokens<'a>(&'a str);

impl<'a> Tokens<'a> {
    fn next(&mut self) -> Result<&'a str, &'static str> {
        let s = self.0.trim_ascii_start();
        let end = s.find(|c: char| c.is_ascii_whitespace()).unwrap_or(s.len());
        self.0 = &s[end..];
        (end > 0).then(|| &s[..end]).ok_or("missing field")
    }

    /// Consume the verb opening the line: the request (or, with
    /// `response`, the response) verb whose words come first. The line's
    /// first words are split once, so a long token is scanned once, not
    /// once per table row.
    fn verb(&mut self, response: bool) -> Result<Op, String> {
        let mut rest = Tokens(self.0);
        let words: [Option<(&str, &str)>; 3] =
            std::array::from_fn(|_| rest.next().ok().map(|word| (word, rest.0)));
        for &(op, verb) in &OPCODES {
            let mut heads = verb.split(' ').zip(&words);
            if op.is_response() == response && heads.all(|(v, w)| w.is_some_and(|(w, _)| w == v)) {
                if op.binary_only() {
                    return Err(format!("{verb} is binary-only"));
                }
                self.0 = words[verb.split(' ').count() - 1].map_or("", |(_, rest)| rest);
                return Ok(op);
            }
        }
        Err(format!(
            "unknown verb {:?}",
            words[0].map_or("", |(w, _)| w)
        ))
    }
}

fn parse_u64(tok: &str) -> Result<u64, &'static str> {
    tok.parse().map_err(|_| "bad u64 field")
}

fn parse_f64(tok: &str) -> Result<f64, &'static str> {
    match tok.parse::<f64>() {
        Ok(v) if v.is_finite() => Ok(v),
        _ => Err("bad f64 field"),
    }
}

impl<'a> FieldReader<'a> for Tokens<'a> {
    fn u64(&mut self) -> Result<u64, &'static str> {
        parse_u64(self.next()?)
    }

    fn f64(&mut self) -> Result<f64, &'static str> {
        parse_f64(self.next()?)
    }

    fn kv(&mut self, key: &str) -> Result<u64, &'static str> {
        let tok = self.next()?;
        match tok.strip_prefix(key).and_then(|v| v.strip_prefix('=')) {
            Some(v) => parse_u64(v),
            None => Err("missing key=value field"),
        }
    }

    fn opt_u64(&mut self) -> Result<Option<u64>, &'static str> {
        match self.next()? {
            "NONE" => Ok(None),
            tok => parse_u64(tok).map(Some),
        }
    }

    fn count(&mut self, _: usize) -> Result<usize, &'static str> {
        Ok(self.0.split_ascii_whitespace().count())
    }

    fn pair(&mut self) -> Result<(u64, f64), &'static str> {
        let (v, d) = self
            .next()?
            .split_once(':')
            .ok_or("bad item:density pair")?;
        Ok((parse_u64(v)?, parse_f64(d)?))
    }

    fn run(&mut self) -> Result<Cow<'a, [u8]>, &'static str> {
        let mut words = Vec::new();
        for tok in std::mem::take(&mut self.0).split_ascii_whitespace() {
            words.extend_from_slice(&parse_u64(tok)?.to_le_bytes());
        }
        Ok(Cow::Owned(words))
    }

    fn bytes(&mut self) -> Result<&'a [u8], &'static str> {
        let rest = std::mem::take(&mut self.0);
        Ok(rest.strip_prefix(' ').unwrap_or(rest).as_bytes())
    }

    fn more(&self) -> bool {
        !self.0.trim_ascii().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::tests::{all_requests, all_responses, fnv1a};

    /// The text counterpart of `every_encoder_writes_the_pinned_bytes`:
    /// (length, FNV-1a) of the line every request and every response of
    /// the frame module's lists writes, in that order. The admin requests
    /// write their bare verb and the admin replies an `ERR` line.
    #[test]
    fn every_text_line_is_pinned() {
        let pins: [(usize, u64); 32] = [
            (31, 0x973b_2f67_5548_cc57),
            (32, 0xfa05_2e4f_053a_7a71),
            (20, 0xf6ef_112b_17cb_392b),
            (10, 0xe930_4be1_fe7b_3b29),
            (8, 0x0a5d_9ef3_579e_6fff),
            (8, 0x1173_8c87_4cab_f4ad),
            (35, 0xb35f_b904_9484_3876),
            (35, 0xf365_0771_0bdb_be1b),
            (22, 0x3501_43ac_10c0_3641),
            (11, 0x7d01_89d3_406a_9aa0),
            (5, 0x9a0b_c308_546c_8c6c),
            (4, 0x3206_6213_15ca_57b6),
            (11, 0x0f12_8f3e_d3dc_63d7),
            (11, 0x0f12_8f3e_d3dc_63d7),
            (11, 0x0f12_8f3e_d3dc_63d7),
            (10, 0x7333_dfd1_cf3b_a95f),
            (7, 0x0e9f_0608_5f84_dbd1),
            (31, 0xfa1c_9b10_ba77_9348),
            (18, 0x1ad5_ab16_d47e_3786),
            (16, 0x4c04_6f58_ebbe_9316),
            (14, 0xdabb_ce1b_b5e3_62c6),
            (33, 0xabf4_5b44_47d0_58e2),
            (23, 0xf01e_b53f_cf41_d485),
            (29, 0x650d_f69f_d7c8_a313),
            (23, 0x377e_e50a_48c5_4332),
            (134, 0x511e_9a32_a55a_7587),
            (6, 0x419b_08cb_b44a_c9db),
            (19, 0xf2b6_26eb_c1eb_3830),
            (35, 0x996d_dfc4_c8e1_774d),
            (35, 0x996d_dfc4_c8e1_774d),
            (35, 0x996d_dfc4_c8e1_774d),
            (35, 0x996d_dfc4_c8e1_774d),
        ];
        let got: Vec<(usize, u64)> = all_requests()
            .iter()
            .map(Request::encode)
            .chain(all_responses().iter().map(Response::encode))
            .map(|line| (line.len(), fnv1a(line.as_bytes())))
            .collect();
        assert_eq!(got, pins);
    }

    #[test]
    fn requests_round_trip() {
        let cases = vec![
            Request::Ingest(vec![1, 2, u64::MAX]),
            Request::QueryCount(777),
            Request::QueryQuantile(0.999),
            Request::QueryHeavy(0.05),
            Request::QueryKs,
            Request::Snapshot,
            Request::TenantIngest {
                tenant: 17,
                values: vec![4, 8, u64::MAX],
            },
            Request::TenantQueryCount { tenant: 17, x: 4 },
            Request::TenantQueryQuantile {
                tenant: 17,
                q: 0.25,
            },
            Request::TenantSnapshot { tenant: u64::MAX },
            Request::Stats,
            Request::Quit,
        ];
        for req in cases {
            let line = req.encode();
            assert_eq!(Request::parse(&line), Ok(req.clone()), "line {line:?}");
        }
    }

    #[test]
    fn responses_round_trip_exactly() {
        let cases = vec![
            Response::Ingested(123),
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
            Response::Err("boom".into()),
        ];
        for resp in cases {
            let line = resp.encode();
            assert_eq!(Response::parse(&line), Ok(resp.clone()), "line {line:?}");
        }
    }

    #[test]
    fn borrowed_snapshot_line_matches_the_owned_encoder() {
        let sample = vec![9u64, 2, 6];
        let mut borrowed = Vec::new();
        Wire::Text.put(&mut borrowed, |w| {
            put_sample(w, Op::OkSnapshot, 4, 300, &sample)
        });
        let owned = Response::Snapshot {
            epoch: 4,
            items: 300,
            sample,
        }
        .encode();
        assert_eq!(borrowed, format!("{owned}\n").as_bytes());
    }

    #[test]
    fn borrowed_tenant_ingest_line_matches_the_owned_encoder() {
        let values = vec![5u64, 0, 12];
        let mut borrowed = Vec::new();
        Wire::Text.put(&mut borrowed, |w| put_ingest(w, Some(8), &values));
        let owned = Request::TenantIngest { tenant: 8, values }.encode();
        assert_eq!(borrowed, format!("{owned}\n").as_bytes());
    }

    #[test]
    fn floats_survive_the_wire_bit_for_bit() {
        // Rust's shortest-round-trip formatting guarantees parse(encode(x)) == x.
        for &x in &[0.1, 2.0 / 3.0, 1e-17, 0.9999999999999999] {
            match Response::parse(&Response::Ks(x).encode()) {
                Ok(Response::Ks(y)) => assert_eq!(x.to_bits(), y.to_bits()),
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn malformed_responses_are_rejected() {
        let stats = "OK STATS items=1 epoch=0 shards=1 space=1 snapshot_items=0 \
                     shard_bytes=8 arena_tenants=0 arena_bytes=0 arena_evictions=0";
        assert!(Response::parse(stats).is_ok());
        for line in [
            "",
            "OK",
            "NOPE",
            "OK NOPE",
            "OK BYE x",
            &format!("{stats} junk"),
            "OK STATS items=1",
            "OK STATS epoch=0 items=1 shards=1 space=1 snapshot_items=0 shard_bytes=8 \
             arena_tenants=0 arena_bytes=0 arena_evictions=0",
            "OK INGESTED",
            "OK INGESTED 3 4",
            "OK INGESTED -3",
            "OK COUNT inf",
            "OK COUNT 1 2",
            "OK QUANTILE",
            "OK QUANTILE NONE 4",
            "OK QUANTILE x",
            "OK HH 7",
            "OK HH 7:x",
            "OK HH 7:0.5 junk",
            "OK KS",
            "OK KS 0.1 x",
            "OK SNAPSHOT 5",
            "OK SNAPSHOT 5 10 x",
            "OK TSNAPSHOT 9",
            // The admin replies have no text form.
            "OK EPOCH STATE 1 2 3",
            "OK CHECKPOINT 3",
            "OK RESTORED 3",
        ] {
            assert!(Response::parse(line).is_err(), "accepted {line:?}");
        }
    }

    #[test]
    fn malformed_requests_are_rejected() {
        for line in [
            "",
            "NOPE",
            "INGEST",
            "INGEST x",
            "QUERY",
            "QUERY COUNT",
            "QUERY COUNT 1 2",
            "QUERY QUANTILE 1.5",
            "QUERY QUANTILE nan",
            "QUERY HH -0.1",
            "QUERY KS extra",
            "SNAPSHOT extra",
            "STATS extra",
            "TINGEST",
            "TINGEST 3",
            "TINGEST x 1",
            "TQUERY COUNT 3",
            "TQUERY QUANTILE 3 1.5",
            "TQUERY HH 3 0.1",
            "TSNAPSHOT",
            "TSNAPSHOT 3 extra",
            "QUIT extra",
        ] {
            assert!(Request::parse(line).is_err(), "accepted {line:?}");
        }
    }

    #[test]
    fn admin_requests_have_no_text_form() {
        // The binary-only verbs never parse, and the bare verb an admin
        // request writes is rejected like any unknown command.
        for req in [
            Request::EpochState { since: None },
            Request::EpochState { since: Some(3) },
            Request::Checkpoint,
            Request::Restore(vec![1, 2]),
        ] {
            assert!(req.is_admin());
            assert!(Request::parse(&req.encode()).is_err(), "{req:?}");
        }
        for line in [
            "EPOCH STATE",
            "EPOCH STATE 3",
            "CHECKPOINT",
            "RESTORE",
            "RESTORE 1 2",
        ] {
            assert!(Request::parse(line).is_err(), "accepted {line:?}");
        }
        // An admin reply written as text is an ERR line.
        for resp in [
            Response::EpochState {
                epoch: 1,
                items: 2,
                frames_acked: 3,
                state: None,
            },
            Response::Checkpoint {
                frames_acked: 3,
                bytes: vec![4],
            },
            Response::Restored { frames_acked: 3 },
        ] {
            assert!(matches!(
                Response::parse(&resp.encode()),
                Ok(Response::Err(_))
            ));
        }
    }

    #[test]
    fn oversized_ingest_frame_is_rejected() {
        let mut line = String::from("INGEST");
        for _ in 0..(MAX_INGEST_FRAME + 1) {
            line.push_str(" 1");
        }
        assert!(Request::parse(&line).is_err());
    }

    #[test]
    fn err_payload_never_splits_lines() {
        let r = Response::Err("multi\nline\rmessage".into());
        assert!(!r.encode().contains('\n'));
        assert!(!r.encode().contains('\r'));
    }
}
