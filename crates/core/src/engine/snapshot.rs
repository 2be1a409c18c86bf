//! [`SnapshotCodec`]: checkpointable summaries, with no serde dependency.
//!
//! A long-running serving deployment (the `service` crate) must be able to
//! stop, persist its summaries, and resume with **state-identical**
//! behaviour — the restored summary answers every query exactly as the
//! uninterrupted one would, and keeps ingesting with the identical RNG
//! stream. That is a stronger contract than "round-trips the sample": it
//! includes the private algorithmic state (Algorithm L thresholds, pending
//! geometric gaps, raw RNG words) that the paper's adversary never sees
//! but a resumed process needs.
//!
//! The encoding is deliberately primitive: a flat little-endian byte
//! string of `u64`/`f64` words and length-prefixed sequences, written by
//! the `put_*` helpers and read back through [`SnapshotReader`]. No
//! versioned schema, no external crates — the service layer wraps the raw
//! bytes in its own magic/version envelope.
//!
//! Runs of `u64` words (a reservoir's sample, a frame's payload) go
//! through one writer, [`put_u64_run`], and one decoder,
//! [`extend_u64_run`]: each is a single resize or reserve and a
//! fixed-stride copy, so a checkpoint's cost is a memory copy of its
//! sample.
//!
//! Implemented by the summaries the serving layer checkpoints:
//! [`BernoulliSampler<u64>`](crate::sampler::BernoulliSampler),
//! [`ReservoirSampler<u64>`](crate::sampler::ReservoirSampler), both
//! robust sketches, and [`ShardedSummary`](crate::engine::ShardedSummary)
//! over any codec-capable shard type. The round-trip law
//! (`save` → [`restore`](SnapshotCodec::restore) → continue ≡
//! uninterrupted run, per seed) is property-tested in
//! `tests/service_determinism.rs`.

use std::fmt;

/// Why a snapshot failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The byte string ended before the decoder was done.
    UnexpectedEof,
    /// A decoded value violated an invariant of the target type.
    Corrupt(&'static str),
    /// Decoding finished with bytes left over (wrong type or envelope).
    TrailingBytes(usize),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::UnexpectedEof => write!(f, "snapshot truncated"),
            SnapshotError::Corrupt(what) => write!(f, "snapshot corrupt: {what}"),
            SnapshotError::TrailingBytes(n) => {
                write!(f, "snapshot has {n} trailing bytes")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Append one little-endian `u64` word.
#[inline]
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append one `f64` as its raw bit pattern (exact round-trip, NaN-safe).
#[inline]
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// Append a `usize` (as `u64`; summaries never exceed `u64` counts).
#[inline]
pub fn put_usize(out: &mut Vec<u8>, v: usize) {
    put_u64(out, v as u64);
}

/// Append a run of little-endian `u64` words, with no length prefix.
///
/// The one u64-run writer behind [`put_u64_seq`] and the service
/// crate's binary frames: a single `resize` of `out`, then one 8-byte
/// store per word into the new tail, so a reservoir-sized run is written
/// at copy speed instead of one `extend_from_slice` per word.
pub fn put_u64_run(out: &mut Vec<u8>, vs: &[u64]) {
    let start = out.len();
    out.resize(start + 8 * vs.len(), 0);
    for (dst, v) in out[start..].chunks_exact_mut(8).zip(vs) {
        dst.copy_from_slice(&v.to_le_bytes());
    }
}

/// Append the little-endian `u64` words of `bytes` to `out`; a tail
/// shorter than one word is ignored.
///
/// The one u64-run decoder behind [`SnapshotReader::u64_seq`] and
/// the service crate's binary frames. Callers pass a range they have
/// already length-checked, so the loop has no error path: one `reserve`
/// of `out`, then one 8-byte load per word.
pub fn extend_u64_run(out: &mut Vec<u64>, bytes: &[u8]) {
    out.extend(
        bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk"))),
    );
}

/// The `i`-th little-endian `u64` word of `bytes`: the indexed view a
/// wire payload is ingested through (see
/// [`StreamSummary::ingest_by`](crate::engine::StreamSummary::ingest_by)),
/// so a skip kernel decodes only the words it stores.
///
/// # Panics
///
/// Panics if `bytes` holds fewer than `i + 1` whole words.
#[inline]
pub fn le_word(bytes: &[u8], i: usize) -> u64 {
    u64::from_le_bytes(bytes[8 * i..8 * i + 8].try_into().expect("8-byte word"))
}

/// Append a length-prefixed `u64` sequence.
pub fn put_u64_seq(out: &mut Vec<u8>, vs: &[u64]) {
    put_usize(out, vs.len());
    put_u64_run(out, vs);
}

/// Cursor over an encoded snapshot byte string.
#[derive(Debug, Clone, Copy)]
pub struct SnapshotReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapshotReader<'a> {
    /// Read from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Run `decode` over all of `bytes`: its result, or
    /// [`SnapshotError::TrailingBytes`] if it left bytes unread. This is
    /// [`SnapshotCodec::restore`] for decoders that take more than the
    /// reader.
    pub fn decode_all<T>(
        bytes: &'a [u8],
        decode: impl FnOnce(&mut SnapshotReader<'a>) -> Result<T, SnapshotError>,
    ) -> Result<T, SnapshotError> {
        let mut r = SnapshotReader::new(bytes);
        let v = decode(&mut r)?;
        if r.remaining() != 0 {
            return Err(SnapshotError::TrailingBytes(r.remaining()));
        }
        Ok(v)
    }

    /// The next `u64` word.
    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        let end = self.pos + 8;
        if end > self.buf.len() {
            return Err(SnapshotError::UnexpectedEof);
        }
        let mut w = [0u8; 8];
        w.copy_from_slice(&self.buf[self.pos..end]);
        self.pos = end;
        Ok(u64::from_le_bytes(w))
    }

    /// The next `f64` (bit-pattern encoded).
    pub fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// The next `usize` (encoded as `u64`).
    pub fn usize(&mut self) -> Result<usize, SnapshotError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| SnapshotError::Corrupt("usize overflow"))
    }

    /// The next length-prefixed `u64` sequence. The length prefix is
    /// checked against the bytes left before anything is allocated, so a
    /// forged length cannot make it allocate.
    pub fn u64_seq(&mut self) -> Result<Vec<u64>, SnapshotError> {
        let len = self.usize()?;
        if len.saturating_mul(8) > self.remaining() {
            return Err(SnapshotError::UnexpectedEof);
        }
        let end = self.pos + 8 * len;
        let mut out = Vec::with_capacity(len);
        extend_u64_run(&mut out, &self.buf[self.pos..end]);
        self.pos = end;
        Ok(out)
    }
}

/// The **frame high-water mark** a serving checkpoint envelope carries:
/// how many ingest frames the checkpointed process had fully applied
/// ("acked") at the moment the cut was taken.
///
/// The mark is what makes checkpoint-based failover replayable without
/// idempotent ingest: a router that retains the frame window since the
/// last checkpoint restores a crashed node from its envelope, reads the
/// mark back, and re-sends **only** the frames with index at or past it
/// — every earlier frame is already inside the restored summary state,
/// so replaying it would double-count. Frames are counted at the ingest
/// boundary (one mark increment per applied frame, empty or not), so
/// the router's send counter and the node's ack counter advance in
/// lockstep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, PartialOrd, Ord)]
pub struct FrameHwm(pub u64);

impl FrameHwm {
    /// Count one more applied frame.
    #[inline]
    pub fn ack(&mut self) {
        self.0 += 1;
    }

    /// Frames applied so far.
    #[inline]
    pub fn frames(self) -> u64 {
        self.0
    }
}

impl SnapshotCodec for FrameHwm {
    fn save_into(&self, out: &mut Vec<u8>) {
        put_u64(out, self.0);
    }

    fn restore_from(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(FrameHwm(r.u64()?))
    }
}

/// A summary that can be persisted and resumed with state-identical
/// behaviour.
///
/// The contract: for any summary `s`,
/// `Self::restore(&s.save())` succeeds and the restored value is
/// indistinguishable from `s` under every operation — same query answers,
/// same retained elements, and the **same RNG stream** for all future
/// ingestion, so `save → restore → continue` equals the uninterrupted
/// run element for element.
pub trait SnapshotCodec: Sized {
    /// Append this summary's full state to `out`.
    fn save_into(&self, out: &mut Vec<u8>);

    /// Decode one summary from the reader, leaving the cursor just past
    /// its encoding (so codecs nest — sharded containers decode their
    /// shards in sequence).
    fn restore_from(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError>;

    /// The state as one owned byte string.
    fn save(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.save_into(&mut out);
        out
    }

    /// Decode from exactly `bytes` (trailing bytes are an error).
    fn restore(bytes: &[u8]) -> Result<Self, SnapshotError> {
        SnapshotReader::decode_all(bytes, Self::restore_from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_round_trip() {
        let mut out = Vec::new();
        put_u64(&mut out, 7);
        put_f64(&mut out, -0.25);
        put_u64_seq(&mut out, &[1, 2, 3]);
        let mut r = SnapshotReader::new(&out);
        assert_eq!(r.u64().unwrap(), 7);
        assert_eq!(r.f64().unwrap(), -0.25);
        assert_eq!(r.u64_seq().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn truncation_is_detected() {
        let mut out = Vec::new();
        put_u64_seq(&mut out, &[1, 2, 3]);
        let mut r = SnapshotReader::new(&out[..out.len() - 1]);
        assert_eq!(r.u64_seq(), Err(SnapshotError::UnexpectedEof));
    }

    #[test]
    fn bogus_length_prefix_is_rejected_before_allocating() {
        let mut out = Vec::new();
        put_u64(&mut out, u64::MAX);
        let mut r = SnapshotReader::new(&out);
        assert!(r.u64_seq().is_err());
    }

    #[test]
    fn frame_hwm_round_trips_and_orders() {
        let mut hwm = FrameHwm::default();
        assert_eq!(hwm.frames(), 0);
        for _ in 0..3 {
            hwm.ack();
        }
        assert_eq!(hwm, FrameHwm(3));
        assert!(FrameHwm(2) < hwm);
        let bytes = hwm.save();
        assert_eq!(bytes.len(), 8);
        assert_eq!(FrameHwm::restore(&bytes).unwrap(), hwm);
        assert_eq!(
            FrameHwm::restore(&bytes[..7]),
            Err(SnapshotError::UnexpectedEof)
        );
    }

    /// Forged high-water marks: every truncation and any trailing bytes
    /// are typed errors; any full word is a mark (the service envelope
    /// rejects `u64::MAX` itself, since its next frame would overflow).
    #[test]
    fn forged_frame_hwm_is_a_typed_error() {
        let bytes = FrameHwm(0x0123_4567_89ab_cdef).save();
        for len in 0..bytes.len() {
            assert_eq!(
                FrameHwm::restore(&bytes[..len]),
                Err(SnapshotError::UnexpectedEof),
                "truncated to {len} bytes"
            );
        }
        for extra in 1..=9 {
            let mut trailing = bytes.clone();
            trailing.resize(bytes.len() + extra, 0xA5);
            assert_eq!(
                FrameHwm::restore(&trailing),
                Err(SnapshotError::TrailingBytes(extra))
            );
        }
        for mark in [0, 1, u64::MAX] {
            assert_eq!(FrameHwm::restore(&mark.to_le_bytes()), Ok(FrameHwm(mark)));
        }
    }

    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// Every `SnapshotCodec` implementation's `save()` bytes, pinned as
    /// (length, FNV-1a digest). The constants were captured from the
    /// per-word codec that preceded the bulk u64-run helpers, so a byte
    /// the helpers move, drop or reorder fails here.
    #[test]
    fn every_codec_writes_the_pinned_bytes() {
        use crate::engine::{ShardedSummary, StreamSummary};
        use crate::sampler::{BernoulliSampler, ReservoirSampler};
        use crate::sketch::{RobustHeavyHitterSketch, RobustQuantileSketch};
        let stream: Vec<u64> = (0..20_000u64)
            .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 44)
            .collect();
        let ln_u = 20.0 * std::f64::consts::LN_2;

        let mut bernoulli = BernoulliSampler::<u64>::with_seed(0.05, 1);
        bernoulli.observe_batch(&stream);
        let mut partial = ReservoirSampler::<u64>::with_seed(256, 2);
        partial.observe_batch(&stream[..100]);
        let mut full = ReservoirSampler::<u64>::with_seed(256, 3);
        full.observe_batch(&stream);
        // A full merge leaves its threshold re-draw pending until the
        // next ingest; the checkpoint writes the settled state.
        let mut merged = full.clone();
        let mut other = ReservoirSampler::<u64>::with_seed(256, 4);
        other.observe_batch(&stream[..5_000]);
        merged.merge(other);
        let mut sharded =
            ShardedSummary::new(3, 5, |_, seed| ReservoirSampler::<u64>::with_seed(64, seed));
        sharded.ingest_batch(&stream);
        let hwm = FrameHwm(0x0123_4567_89ab_cdef);
        let mut quantiles = RobustQuantileSketch::<u64>::new(ln_u, 0.1, 0.05, 6);
        quantiles.observe_batch(&stream);
        let mut hitters = RobustHeavyHitterSketch::<u64>::new(ln_u, 0.2, 0.1, 0.05, 7);
        hitters.observe_batch(&stream);

        let got = [
            ("bernoulli", bernoulli.save()),
            ("reservoir partial", partial.save()),
            ("reservoir full", full.save()),
            ("reservoir merged, re-draw pending", merged.save()),
            ("sharded", sharded.save()),
            ("frame hwm", hwm.save()),
            ("robust quantiles", quantiles.save()),
            ("robust heavy hitters", hitters.save()),
        ];
        let pinned: [(usize, u64); 8] = [
            (8064, 0x5ca2_d285_7b55_9782),
            (880, 0x3c93_c8bd_06b9_c987),
            (2128, 0x3498_d179_0b3d_10b8),
            (2128, 0x091e_d4ea_6e78_2657),
            (1800, 0xbf7c_9d14_fa63_1f57),
            (8, 0x37eb_3f33_4776_1c55),
            (28184, 0xd83e_63d2_14bc_fc8c),
            (160_096, 0x4877_0d53_9c56_893a),
        ];
        for ((name, bytes), (len, digest)) in got.iter().zip(pinned) {
            assert_eq!((bytes.len(), fnv1a(bytes)), (len, digest), "{name}");
        }
    }

    #[test]
    fn nan_f64_round_trips_exactly() {
        let mut out = Vec::new();
        put_f64(&mut out, f64::NAN);
        put_f64(&mut out, f64::INFINITY);
        let mut r = SnapshotReader::new(&out);
        assert!(r.f64().unwrap().is_nan());
        assert_eq!(r.f64().unwrap(), f64::INFINITY);
    }
}
