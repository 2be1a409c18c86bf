//! The request vocabulary — [`Request`] and [`Response`], the one set of
//! enums both wire formats carry — and its text line form, the
//! dependency-free debug front-end the service speaks over TCP beside
//! the binary frames of [`crate::frame`].
//!
//! One request per line, one response line per request, ASCII throughout
//! (`u64` values in decimal, `f64` in Rust's shortest-round-trip decimal
//! form, so floats survive the wire exactly). The grammar:
//!
//! ```text
//! INGEST <v> <v> ...          -> OK INGESTED <total items>
//! QUERY COUNT <x>             -> OK COUNT <estimate>
//! QUERY QUANTILE <q>          -> OK QUANTILE <value> | OK QUANTILE NONE
//! QUERY HH <threshold>        -> OK HH <item>:<density> ...
//! QUERY KS                    -> OK KS <distance>
//! SNAPSHOT                    -> OK SNAPSHOT <epoch> <items> <v> ...
//! TINGEST <t> <v> <v> ...     -> OK INGESTED <tenant items>
//! TQUERY COUNT <t> <x>        -> OK COUNT <estimate>
//! TQUERY QUANTILE <t> <q>     -> OK QUANTILE <value> | OK QUANTILE NONE
//! TSNAPSHOT <t>               -> OK TSNAPSHOT <t> <items> <v> ...
//! STATS                       -> OK STATS items=<n> epoch=<e> shards=<k>
//!                                         space=<s> snapshot_items=<m>
//!                                         shard_bytes=<b> arena_tenants=<t>
//!                                         arena_bytes=<b> arena_evictions=<e>
//! QUIT                        -> OK BYE
//! anything else               -> ERR <reason>
//! ```
//!
//! The `T*` commands address one tenant of the server's
//! [`TenantArena`](crate::tenant::TenantArena); on a server spawned
//! without an arena they answer `ERR`.
//!
//! The cluster admin variants — [`Request::EpochState`],
//! [`Request::Checkpoint`], [`Request::Restore`] and their replies — are
//! **binary-only**: the grammar above has no line for them,
//! [`Request::parse`] rejects their verbs, and the client refuses to send
//! them on a text connection ([`Request::is_admin`]).
//!
//! [`Request`] and [`Response`] each encode to and parse from a line, and
//! both directions are round-trip tested — the server and the blocking
//! client share this one grammar definition.

use std::fmt::Write as _;

/// Which wire format a request arrived in or a connection speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Wire {
    /// The text line protocol of this module.
    Text,
    /// The binary frames of [`crate::frame`].
    Binary,
}

/// Cap on values per `INGEST` line (keeps a hostile line from ballooning
/// server memory; the client chunks longer batches).
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
    /// Tenants known to the arena (resident + checkpointed); 0 when the
    /// server has no arena.
    pub arena_tenants: usize,
    /// Bytes of resident arena state charged against the budget.
    pub arena_bytes: usize,
    /// Checkpoint-on-evict events since the arena was created.
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

fn parse_u64(tok: &str, what: &'static str) -> Result<u64, String> {
    tok.parse::<u64>()
        .map_err(|_| format!("bad {what}: {tok:?}"))
}

fn parse_f64(tok: &str, what: &'static str) -> Result<f64, String> {
    match tok.parse::<f64>() {
        Ok(v) if v.is_finite() => Ok(v),
        _ => Err(format!("bad {what}: {tok:?}")),
    }
}

fn parse_unit(tok: &str, what: &'static str) -> Result<f64, String> {
    let v = parse_f64(tok, what)?;
    if !(0.0..=1.0).contains(&v) {
        return Err(format!("{what} must be in [0,1], got {tok}"));
    }
    Ok(v)
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

    /// Parse one request line (without its trailing newline).
    pub fn parse(line: &str) -> Result<Self, String> {
        let mut toks = line.split_ascii_whitespace();
        match toks.next() {
            Some("INGEST") => {
                let vs: Vec<u64> = toks
                    .map(|t| parse_u64(t, "INGEST value"))
                    .collect::<Result<_, _>>()?;
                if vs.is_empty() {
                    return Err("INGEST needs at least one value".into());
                }
                if vs.len() > MAX_INGEST_FRAME {
                    return Err(format!("INGEST frame exceeds {MAX_INGEST_FRAME} values"));
                }
                Ok(Request::Ingest(vs))
            }
            Some("QUERY") => match toks.next() {
                Some("COUNT") => match (toks.next(), toks.next()) {
                    (Some(x), None) => Ok(Request::QueryCount(parse_u64(x, "COUNT item")?)),
                    _ => Err("usage: QUERY COUNT <item>".into()),
                },
                Some("QUANTILE") => match (toks.next(), toks.next()) {
                    (Some(q), None) => Ok(Request::QueryQuantile(parse_unit(q, "QUANTILE rank")?)),
                    _ => Err("usage: QUERY QUANTILE <q>".into()),
                },
                Some("HH") => match (toks.next(), toks.next()) {
                    (Some(t), None) => Ok(Request::QueryHeavy(parse_unit(t, "HH threshold")?)),
                    _ => Err("usage: QUERY HH <threshold>".into()),
                },
                Some("KS") => match toks.next() {
                    None => Ok(Request::QueryKs),
                    Some(_) => Err("usage: QUERY KS".into()),
                },
                other => Err(format!(
                    "unknown query {other:?}; expected COUNT|QUANTILE|HH|KS"
                )),
            },
            Some("SNAPSHOT") => match toks.next() {
                None => Ok(Request::Snapshot),
                Some(_) => Err("usage: SNAPSHOT".into()),
            },
            Some("TINGEST") => {
                let tenant = parse_u64(
                    toks.next().ok_or("TINGEST needs a tenant key")?,
                    "TINGEST tenant",
                )?;
                let values: Vec<u64> = toks
                    .map(|t| parse_u64(t, "TINGEST value"))
                    .collect::<Result<_, _>>()?;
                if values.is_empty() {
                    return Err("TINGEST needs at least one value".into());
                }
                if values.len() > MAX_INGEST_FRAME {
                    return Err(format!("TINGEST frame exceeds {MAX_INGEST_FRAME} values"));
                }
                Ok(Request::TenantIngest { tenant, values })
            }
            Some("TQUERY") => match toks.next() {
                Some("COUNT") => match (toks.next(), toks.next(), toks.next()) {
                    (Some(t), Some(x), None) => Ok(Request::TenantQueryCount {
                        tenant: parse_u64(t, "TQUERY tenant")?,
                        x: parse_u64(x, "COUNT item")?,
                    }),
                    _ => Err("usage: TQUERY COUNT <tenant> <item>".into()),
                },
                Some("QUANTILE") => match (toks.next(), toks.next(), toks.next()) {
                    (Some(t), Some(q), None) => Ok(Request::TenantQueryQuantile {
                        tenant: parse_u64(t, "TQUERY tenant")?,
                        q: parse_unit(q, "QUANTILE rank")?,
                    }),
                    _ => Err("usage: TQUERY QUANTILE <tenant> <q>".into()),
                },
                other => Err(format!(
                    "unknown tenant query {other:?}; expected COUNT|QUANTILE"
                )),
            },
            Some("TSNAPSHOT") => match (toks.next(), toks.next()) {
                (Some(t), None) => Ok(Request::TenantSnapshot {
                    tenant: parse_u64(t, "TSNAPSHOT tenant")?,
                }),
                _ => Err("usage: TSNAPSHOT <tenant>".into()),
            },
            Some("STATS") => match toks.next() {
                None => Ok(Request::Stats),
                Some(_) => Err("usage: STATS".into()),
            },
            Some("QUIT") => match toks.next() {
                None => Ok(Request::Quit),
                Some(_) => Err("usage: QUIT".into()),
            },
            Some(other) => Err(format!("unknown command {other:?}")),
            None => Err("empty request".into()),
        }
    }

    /// Encode as one line (without trailing newline).
    pub fn encode(&self) -> String {
        let mut out = Vec::new();
        self.write_line(&mut out);
        String::from_utf8(out).expect("protocol lines are UTF-8")
    }

    /// Append the encoded line (without trailing newline) directly to a
    /// byte buffer — the client's reusable-scratch send path; same
    /// grammar as [`encode`](Self::encode) (which delegates here). An
    /// admin request has no line: it writes its bare verb, which
    /// [`parse`](Self::parse) rejects.
    pub fn write_line(&self, out: &mut Vec<u8>) {
        if let Request::Ingest(vs) = self {
            return write_ingest_line(vs, out);
        }
        if let Request::TenantIngest { tenant, values } = self {
            return write_tenant_ingest_line(*tenant, values, out);
        }
        let mut w = ByteLine(out);
        match self {
            Request::Ingest(_) | Request::TenantIngest { .. } => unreachable!("handled above"),
            Request::QueryCount(x) => {
                let _ = write!(w, "QUERY COUNT {x}");
            }
            Request::QueryQuantile(q) => {
                let _ = write!(w, "QUERY QUANTILE {q}");
            }
            Request::QueryHeavy(t) => {
                let _ = write!(w, "QUERY HH {t}");
            }
            Request::QueryKs => {
                let _ = w.write_str("QUERY KS");
            }
            Request::Snapshot => {
                let _ = w.write_str("SNAPSHOT");
            }
            Request::TenantQueryCount { tenant, x } => {
                let _ = write!(w, "TQUERY COUNT {tenant} {x}");
            }
            Request::TenantQueryQuantile { tenant, q } => {
                let _ = write!(w, "TQUERY QUANTILE {tenant} {q}");
            }
            Request::TenantSnapshot { tenant } => {
                let _ = write!(w, "TSNAPSHOT {tenant}");
            }
            Request::Stats => {
                let _ = w.write_str("STATS");
            }
            Request::Quit => {
                let _ = w.write_str("QUIT");
            }
            Request::EpochState { .. } => {
                let _ = w.write_str("EPOCH STATE");
            }
            Request::Checkpoint => {
                let _ = w.write_str("CHECKPOINT");
            }
            Request::Restore(_) => {
                let _ = w.write_str("RESTORE");
            }
        }
    }
}

/// Append the `INGEST …` line for a **borrowed** value slice directly to
/// `out` (no trailing newline) — the client's text ingest path encodes
/// straight from the caller's slice through this, never building an
/// owned `Request::Ingest`.
pub fn write_ingest_line(vs: &[u64], out: &mut Vec<u8>) {
    let mut w = ByteLine(out);
    let _ = w.write_str("INGEST");
    for v in vs {
        let _ = write!(w, " {v}");
    }
}

/// Append the `TINGEST …` line for a **borrowed** value slice directly
/// to `out` (no trailing newline) — the tenant analogue of
/// [`write_ingest_line`].
pub fn write_tenant_ingest_line(tenant: u64, vs: &[u64], out: &mut Vec<u8>) {
    let mut w = ByteLine(out);
    let _ = write!(w, "TINGEST {tenant}");
    for v in vs {
        let _ = write!(w, " {v}");
    }
}

/// `fmt::Write` adapter appending UTF-8 straight into a byte buffer —
/// lets the borrowed line writers reuse the `write!` grammar without an
/// intermediate `String`.
struct ByteLine<'a>(&'a mut Vec<u8>);

impl std::fmt::Write for ByteLine<'_> {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.0.extend_from_slice(s.as_bytes());
        Ok(())
    }
}

/// Append the `OK SNAPSHOT …` line for a **borrowed** sample slice
/// directly to `out` (no trailing newline) — the server's text path
/// serializes `EpochSnapshot::visible_ref` through this without
/// materializing an owned sample or an intermediate `String`.
pub fn write_snapshot_line(epoch: u64, items: usize, sample: &[u64], out: &mut Vec<u8>) {
    let mut w = ByteLine(out);
    let _ = write!(w, "OK SNAPSHOT {epoch} {items}");
    for v in sample {
        let _ = write!(w, " {v}");
    }
}

fn parse_kv(tok: Option<&str>, key: &'static str) -> Result<u64, String> {
    let tok = tok.ok_or_else(|| format!("STATS missing {key}"))?;
    match tok.strip_prefix(key).and_then(|r| r.strip_prefix('=')) {
        Some(v) => parse_u64(v, key),
        None => Err(format!("expected {key}=<n>, got {tok:?}")),
    }
}

impl Response {
    /// Encode as one line (without trailing newline).
    pub fn encode(&self) -> String {
        let mut out = Vec::new();
        self.write_into(&mut out);
        String::from_utf8(out).expect("protocol lines are UTF-8")
    }

    /// Append the encoded line (without trailing newline) directly to a
    /// byte buffer — the path the server uses to serialize responses
    /// straight into a connection's out-buffer, with no intermediate
    /// `String`. The grammar is identical to [`encode`](Self::encode)
    /// (which delegates here). An admin reply has no line and writes an
    /// `ERR` instead.
    pub fn write_into(&self, out: &mut Vec<u8>) {
        if let Response::Snapshot {
            epoch,
            items,
            sample,
        } = self
        {
            return write_snapshot_line(*epoch, *items, sample, out);
        }
        let mut w = ByteLine(out);
        match self {
            Response::Ingested(n) => {
                let _ = write!(w, "OK INGESTED {n}");
            }
            Response::Count(c) => {
                let _ = write!(w, "OK COUNT {c}");
            }
            Response::Quantile(None) => {
                let _ = w.write_str("OK QUANTILE NONE");
            }
            Response::Quantile(Some(v)) => {
                let _ = write!(w, "OK QUANTILE {v}");
            }
            Response::Heavy(items) => {
                let _ = w.write_str("OK HH");
                for (v, d) in items {
                    let _ = write!(w, " {v}:{d}");
                }
            }
            Response::Ks(d) => {
                let _ = write!(w, "OK KS {d}");
            }
            Response::Snapshot { .. } => unreachable!("handled above"),
            Response::TenantSnapshot {
                tenant,
                items,
                sample,
            } => {
                let _ = write!(w, "OK TSNAPSHOT {tenant} {items}");
                for v in sample {
                    let _ = write!(w, " {v}");
                }
            }
            Response::Stats(st) => {
                let _ = write!(
                    w,
                    "OK STATS items={} epoch={} shards={} space={} snapshot_items={} \
                     shard_bytes={} arena_tenants={} arena_bytes={} arena_evictions={}",
                    st.items,
                    st.epoch,
                    st.shards,
                    st.space,
                    st.snapshot_items,
                    st.shard_bytes,
                    st.arena_tenants,
                    st.arena_bytes,
                    st.arena_evictions
                );
            }
            Response::Bye => {
                let _ = w.write_str("OK BYE");
            }
            Response::Err(msg) => {
                let _ = write!(w, "ERR {}", msg.replace(['\r', '\n'], " "));
            }
            Response::EpochState { .. }
            | Response::Checkpoint { .. }
            | Response::Restored { .. } => {
                let _ = w.write_str("ERR admin replies have no text form");
            }
        }
    }

    /// Parse one response line (without its trailing newline).
    pub fn parse(line: &str) -> Result<Self, String> {
        if let Some(msg) = line.strip_prefix("ERR ") {
            return Ok(Response::Err(msg.to_string()));
        }
        let mut toks = line.split_ascii_whitespace();
        if toks.next() != Some("OK") {
            return Err(format!("malformed response {line:?}"));
        }
        match toks.next() {
            Some("INGESTED") => match (toks.next(), toks.next()) {
                (Some(n), None) => Ok(Response::Ingested(parse_u64(n, "INGESTED count")? as usize)),
                _ => Err("malformed INGESTED response".into()),
            },
            Some("COUNT") => match (toks.next(), toks.next()) {
                (Some(c), None) => Ok(Response::Count(parse_f64(c, "COUNT estimate")?)),
                _ => Err("malformed COUNT response".into()),
            },
            Some("QUANTILE") => match (toks.next(), toks.next()) {
                (Some("NONE"), None) => Ok(Response::Quantile(None)),
                (Some(v), None) => Ok(Response::Quantile(Some(parse_u64(v, "QUANTILE value")?))),
                _ => Err("malformed QUANTILE response".into()),
            },
            Some("HH") => {
                let mut items = Vec::new();
                for tok in toks {
                    let (v, d) = tok
                        .split_once(':')
                        .ok_or_else(|| format!("bad HH pair {tok:?}"))?;
                    items.push((parse_u64(v, "HH item")?, parse_f64(d, "HH density")?));
                }
                Ok(Response::Heavy(items))
            }
            Some("KS") => match (toks.next(), toks.next()) {
                (Some(d), None) => Ok(Response::Ks(parse_f64(d, "KS distance")?)),
                _ => Err("malformed KS response".into()),
            },
            Some("SNAPSHOT") => {
                let epoch = parse_u64(
                    toks.next().ok_or("SNAPSHOT missing epoch")?,
                    "SNAPSHOT epoch",
                )?;
                let items = parse_u64(
                    toks.next().ok_or("SNAPSHOT missing items")?,
                    "SNAPSHOT items",
                )? as usize;
                let sample: Vec<u64> = toks
                    .map(|t| parse_u64(t, "SNAPSHOT value"))
                    .collect::<Result<_, _>>()?;
                Ok(Response::Snapshot {
                    epoch,
                    items,
                    sample,
                })
            }
            Some("TSNAPSHOT") => {
                let tenant = parse_u64(
                    toks.next().ok_or("TSNAPSHOT missing tenant")?,
                    "TSNAPSHOT tenant",
                )?;
                let items = parse_u64(
                    toks.next().ok_or("TSNAPSHOT missing items")?,
                    "TSNAPSHOT items",
                )? as usize;
                let sample: Vec<u64> = toks
                    .map(|t| parse_u64(t, "TSNAPSHOT value"))
                    .collect::<Result<_, _>>()?;
                Ok(Response::TenantSnapshot {
                    tenant,
                    items,
                    sample,
                })
            }
            Some("STATS") => {
                let items = parse_kv(toks.next(), "items")? as usize;
                let epoch = parse_kv(toks.next(), "epoch")?;
                let shards = parse_kv(toks.next(), "shards")? as usize;
                let space = parse_kv(toks.next(), "space")? as usize;
                let snapshot_items = parse_kv(toks.next(), "snapshot_items")? as usize;
                let shard_bytes = parse_kv(toks.next(), "shard_bytes")? as usize;
                let arena_tenants = parse_kv(toks.next(), "arena_tenants")? as usize;
                let arena_bytes = parse_kv(toks.next(), "arena_bytes")? as usize;
                let arena_evictions = parse_kv(toks.next(), "arena_evictions")?;
                Ok(Response::Stats(ServiceStats {
                    items,
                    epoch,
                    shards,
                    space,
                    snapshot_items,
                    shard_bytes,
                    arena_tenants,
                    arena_bytes,
                    arena_evictions,
                }))
            }
            Some("BYE") => Ok(Response::Bye),
            other => Err(format!("unknown response kind {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
            // The byte writer is the same grammar.
            let mut bytes = Vec::new();
            resp.write_into(&mut bytes);
            assert_eq!(bytes, line.as_bytes(), "write_into of {resp:?}");
        }
    }

    #[test]
    fn borrowed_snapshot_line_matches_the_owned_encoder() {
        let sample = vec![9u64, 2, 6];
        let mut borrowed = Vec::new();
        write_snapshot_line(4, 300, &sample, &mut borrowed);
        let owned = Response::Snapshot {
            epoch: 4,
            items: 300,
            sample,
        }
        .encode();
        assert_eq!(borrowed, owned.as_bytes());
    }

    #[test]
    fn borrowed_tenant_ingest_line_matches_the_owned_encoder() {
        let values = vec![5u64, 0, 12];
        let mut borrowed = Vec::new();
        write_tenant_ingest_line(8, &values, &mut borrowed);
        let owned = Request::TenantIngest { tenant: 8, values }.encode();
        assert_eq!(borrowed, owned.as_bytes());
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
