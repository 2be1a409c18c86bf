//! Offline stand-in for the published `bytes` crate.
//!
//! The build environment has no crates.io access, so the small
//! [`Bytes`]/[`BytesMut`]/[`Buf`]/[`BufMut`] subset the service crate's
//! frame codec uses is implemented locally. [`Bytes`] is a plain
//! owned buffer with a read cursor rather than a refcounted slice view —
//! the semantics the workspace relies on (cheap `freeze`, advancing
//! little-endian reads, length of the *remaining* bytes) are identical.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// An immutable byte buffer with a read cursor.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Bytes {
    data: Vec<u8>,
    pos: usize,
}

impl Bytes {
    /// Wrap a static byte slice.
    pub fn from_static(bytes: &'static [u8]) -> Self {
        Bytes {
            data: bytes.to_vec(),
            pos: 0,
        }
    }

    /// Number of unread bytes.
    pub fn len(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Whether all bytes have been consumed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The unread bytes as a slice.
    pub fn as_slice(&self) -> &[u8] {
        &self.data[self.pos..]
    }

    fn take(&mut self, n: usize) -> &[u8] {
        assert!(self.len() >= n, "buffer underflow: {} < {n}", self.len());
        let start = self.pos;
        self.pos += n;
        &self.data[start..self.pos]
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(data: Vec<u8>) -> Self {
        Bytes { data, pos: 0 }
    }
}

/// Sequential little-endian reads that advance an internal cursor.
pub trait Buf {
    /// Read one `u8`.
    fn get_u8(&mut self) -> u8;
    /// Read a little-endian `u32`.
    fn get_u32_le(&mut self) -> u32;
    /// Read a little-endian `u64`.
    fn get_u64_le(&mut self) -> u64;
    /// Read a little-endian `f64` (bit-pattern exact, NaN-safe).
    fn get_f64_le(&mut self) -> f64 {
        f64::from_bits(self.get_u64_le())
    }
    /// Unread byte count.
    fn remaining(&self) -> usize;
}

/// Reads from a byte slice advance it in place (the published crate's
/// `impl Buf for &[u8]`).
impl Buf for &[u8] {
    fn get_u8(&mut self) -> u8 {
        let (head, rest) = self.split_at(1);
        *self = rest;
        head[0]
    }

    fn get_u32_le(&mut self) -> u32 {
        let (head, rest) = self.split_at(4);
        *self = rest;
        u32::from_le_bytes(head.try_into().expect("4 bytes"))
    }

    fn get_u64_le(&mut self) -> u64 {
        let (head, rest) = self.split_at(8);
        *self = rest;
        u64::from_le_bytes(head.try_into().expect("8 bytes"))
    }

    fn remaining(&self) -> usize {
        self.len()
    }
}

impl Buf for Bytes {
    fn get_u8(&mut self) -> u8 {
        self.take(1)[0]
    }

    fn get_u32_le(&mut self) -> u32 {
        u32::from_le_bytes(self.take(4).try_into().expect("4 bytes"))
    }

    fn get_u64_le(&mut self) -> u64 {
        u64::from_le_bytes(self.take(8).try_into().expect("8 bytes"))
    }

    fn remaining(&self) -> usize {
        self.len()
    }
}

/// A growable byte buffer for frame assembly.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty buffer with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut {
            data: Vec::with_capacity(cap),
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Convert into an immutable [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.data)
    }
}

/// Sequential little-endian writes.
pub trait BufMut {
    /// Append one `u8`.
    fn put_u8(&mut self, v: u8);
    /// Append a little-endian `u32`.
    fn put_u32_le(&mut self, v: u32);
    /// Append a little-endian `u64`.
    fn put_u64_le(&mut self, v: u64);
    /// Append a little-endian `f64` (bit-pattern exact, NaN-safe).
    fn put_f64_le(&mut self, v: f64) {
        self.put_u64_le(v.to_bits());
    }
    /// Append a byte slice.
    fn put_slice(&mut self, v: &[u8]);
}

/// Frame assembly straight into a `Vec<u8>` (the published crate's
/// `impl BufMut for Vec<u8>`).
impl BufMut for Vec<u8> {
    fn put_u8(&mut self, v: u8) {
        self.push(v);
    }

    fn put_u32_le(&mut self, v: u32) {
        self.extend_from_slice(&v.to_le_bytes());
    }

    fn put_u64_le(&mut self, v: u64) {
        self.extend_from_slice(&v.to_le_bytes());
    }

    fn put_slice(&mut self, v: &[u8]) {
        self.extend_from_slice(v);
    }
}

impl BufMut for BytesMut {
    fn put_u8(&mut self, v: u8) {
        self.data.push(v);
    }

    fn put_u32_le(&mut self, v: u32) {
        self.data.extend_from_slice(&v.to_le_bytes());
    }

    fn put_u64_le(&mut self, v: u64) {
        self.data.extend_from_slice(&v.to_le_bytes());
    }

    fn put_slice(&mut self, v: &[u8]) {
        self.data.extend_from_slice(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_mixed_fields() {
        let mut buf = BytesMut::with_capacity(16);
        buf.put_u64_le(0xDEAD_BEEF_0123_4567);
        buf.put_u32_le(42);
        buf.put_u8(7);
        let mut frame = buf.freeze();
        assert_eq!(frame.len(), 13);
        assert_eq!(frame.get_u64_le(), 0xDEAD_BEEF_0123_4567);
        assert_eq!(frame.get_u32_le(), 42);
        assert_eq!(frame.len(), 1);
        assert_eq!(frame.get_u8(), 7);
        assert!(frame.is_empty());
    }

    #[test]
    #[should_panic(expected = "buffer underflow")]
    fn underflow_panics() {
        let mut b = Bytes::from_static(&[1, 2, 3]);
        let _ = b.get_u64_le();
    }

    #[test]
    fn slice_and_vec_impls_round_trip() {
        let mut out: Vec<u8> = Vec::new();
        out.put_u8(9);
        out.put_u32_le(77);
        out.put_u64_le(0x0123_4567_89AB_CDEF);
        out.put_f64_le(-0.125);
        out.put_slice(b"xy");
        let mut r: &[u8] = &out;
        assert_eq!(r.get_u8(), 9);
        assert_eq!(r.get_u32_le(), 77);
        assert_eq!(r.get_u64_le(), 0x0123_4567_89AB_CDEF);
        assert_eq!(r.get_f64_le().to_bits(), (-0.125f64).to_bits());
        assert_eq!(r.remaining(), 2);
        assert_eq!(r, b"xy");
    }
}
