//! Hand-rolled binary encoding helpers.
//!
//! Precise, self-describing page layouts are part of this reproduction (the
//! paper's space accounting depends on how many bytes each entry occupies on
//! each device), so encoding is done by hand rather than through a
//! serialization framework. All integers are little-endian. Variable-length
//! byte strings are length-prefixed.
//!
//! [`ByteWriter`] appends to a growable buffer; [`ByteReader`] consumes a
//! slice and returns [`TsbError::Corruption`] on truncation or malformed
//! input, never panicking.

use crate::error::{TsbError, TsbResult};
use crate::interval::{Interval, UpperBound};
use crate::key::{Key, KeyRange};
use crate::record::{TsState, TxnId, Version};
use crate::time::{TimeBound, TimeRange, Timestamp};

/// A point on one axis of a node's rectangle — a [`Key`] or a
/// [`Timestamp`] — as the codec writes it, so one interval codec serves
/// both axes.
pub trait Point: Ord + Clone + Sized {
    /// Writes the point.
    fn put(&self, w: &mut ByteWriter);
    /// Reads a point.
    fn get(r: &mut ByteReader<'_>) -> TsbResult<Self>;
    /// Encoded size in bytes.
    fn encoded_size(&self) -> usize;
}

impl Point for Key {
    #[inline]
    fn put(&self, w: &mut ByteWriter) {
        w.put_key(self);
    }

    #[inline]
    fn get(r: &mut ByteReader<'_>) -> TsbResult<Self> {
        r.get_key()
    }

    #[inline]
    fn encoded_size(&self) -> usize {
        size::key(self)
    }
}

impl Point for Timestamp {
    #[inline]
    fn put(&self, w: &mut ByteWriter) {
        w.put_timestamp(*self);
    }

    #[inline]
    fn get(r: &mut ByteReader<'_>) -> TsbResult<Self> {
        r.get_timestamp()
    }

    #[inline]
    fn encoded_size(&self) -> usize {
        8
    }
}

/// Appends primitive values to a growable byte buffer.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        ByteWriter { buf: Vec::new() }
    }

    /// Creates a writer with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        ByteWriter {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Creates a writer that appends to `buf`, keeping what it holds.
    pub fn from_vec(buf: Vec<u8>) -> Self {
        ByteWriter { buf }
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, returning the buffer.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }

    /// A view of the bytes written so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Writes a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u16` (little-endian).
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u32` (little-endian).
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64` (little-endian).
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes raw bytes with no length prefix.
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Writes a `u32`-length-prefixed byte string.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_u32(bytes.len() as u32);
        self.buf.extend_from_slice(bytes);
    }

    /// Writes a key (length-prefixed).
    pub fn put_key(&mut self, key: &Key) {
        self.put_bytes(key.as_bytes());
    }

    /// Writes a timestamp.
    pub fn put_timestamp(&mut self, t: Timestamp) {
        self.put_u64(t.0);
    }

    /// Writes an interval of either axis: its lower point, then its upper
    /// bound as a tag (0 finite, 1 `+∞`) followed by a finite bound's point.
    pub fn put_interval<T: Point>(&mut self, range: &Interval<T>) {
        range.lo.put(self);
        match &range.hi {
            UpperBound::Finite(hi) => {
                self.put_u8(0);
                hi.put(self);
            }
            UpperBound::PlusInfinity => self.put_u8(1),
        }
    }

    /// Writes a timestamp state (committed/uncommitted tag + payload).
    pub fn put_ts_state(&mut self, state: &TsState) {
        match state {
            TsState::Committed(t) => {
                self.put_u8(0);
                self.put_timestamp(*t);
            }
            TsState::Uncommitted(id) => {
                self.put_u8(1);
                self.put_u64(id.0);
            }
        }
    }

    /// Writes a full version entry (key, state, tombstone flag, value).
    pub fn put_version(&mut self, v: &Version) {
        self.put_key(&v.key);
        self.put_ts_state(&v.state);
        match &v.value {
            Some(bytes) => {
                self.put_u8(1);
                self.put_bytes(bytes);
            }
            None => self.put_u8(0),
        }
    }
}

/// Encoded size helpers, used by split logic to decide whether an entry fits
/// without actually encoding it.
pub mod size {
    use super::*;

    /// Encoded size of a length-prefixed byte string.
    pub fn bytes(len: usize) -> usize {
        4 + len
    }

    /// Encoded size of a key.
    pub fn key(k: &Key) -> usize {
        bytes(k.len())
    }

    /// Encoded size of an interval of either axis.
    pub fn interval<T: Point>(r: &Interval<T>) -> usize {
        r.lo.encoded_size() + 1 + r.hi.as_finite().map_or(0, Point::encoded_size)
    }

    /// Encoded size of a timestamp state.
    pub fn ts_state() -> usize {
        1 + 8
    }

    /// Encoded size of a version entry.
    pub fn version(v: &Version) -> usize {
        key(&v.key)
            + ts_state()
            + 1
            + match &v.value {
                Some(bytes_) => bytes(bytes_.len()),
                None => 0,
            }
    }
}

/// The error for a bad discriminant byte, built out of line so decoders
/// that match on a tag inline to a compare and a branch.
#[cold]
#[inline(never)]
pub fn invalid_tag(what: &str, tag: u8) -> TsbError {
    TsbError::corruption(format!("invalid {what} tag {tag}"))
}

/// Reads primitive values from a byte slice, failing with
/// [`TsbError::Corruption`] instead of panicking.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Creates a reader over `buf`.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Current read offset.
    #[inline]
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Number of bytes remaining.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the reader is exhausted.
    #[inline]
    pub fn is_exhausted(&self) -> bool {
        self.pos >= self.buf.len()
    }

    #[inline]
    fn take(&mut self, n: usize) -> TsbResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(self.truncated(n));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Error construction stays out of line so the accessors inline to a
    /// bounds check and a load.
    #[cold]
    #[inline(never)]
    fn truncated(&self, n: usize) -> TsbError {
        TsbError::corruption(format!(
            "truncated input: need {n} bytes at offset {}, only {} remaining",
            self.pos,
            self.remaining()
        ))
    }

    /// Reads a single byte.
    #[inline]
    pub fn get_u8(&mut self) -> TsbResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u16`.
    #[inline]
    pub fn get_u16(&mut self) -> TsbResult<u16> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a `u32`.
    #[inline]
    pub fn get_u32(&mut self) -> TsbResult<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a `u64`.
    #[inline]
    pub fn get_u64(&mut self) -> TsbResult<u64> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    /// Reads `n` raw bytes.
    #[inline]
    pub fn get_raw(&mut self, n: usize) -> TsbResult<&'a [u8]> {
        self.take(n)
    }

    /// Reads a `u32`-length-prefixed byte string.
    #[inline]
    pub fn get_bytes(&mut self) -> TsbResult<Vec<u8>> {
        let len = self.get_u32()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    /// Reads a key. Decodes straight from the input slice, so small keys
    /// are materialized inline without a heap allocation.
    #[inline]
    pub fn get_key(&mut self) -> TsbResult<Key> {
        let len = self.get_u32()? as usize;
        Ok(Key::from_bytes(self.take(len)?))
    }

    /// Reads a timestamp.
    #[inline]
    pub fn get_timestamp(&mut self) -> TsbResult<Timestamp> {
        Ok(Timestamp(self.get_u64()?))
    }

    /// Reads an interval of either axis (the layout of
    /// [`ByteWriter::put_interval`]).
    #[inline]
    pub fn get_interval<T: Point>(&mut self) -> TsbResult<Interval<T>> {
        let lo = T::get(self)?;
        Ok(Interval::new(lo, self.get_bound()?))
    }

    /// Reads an interval's upper bound.
    #[inline]
    pub fn get_bound<T: Point>(&mut self) -> TsbResult<UpperBound<T>> {
        match self.get_u8()? {
            0 => Ok(UpperBound::Finite(T::get(self)?)),
            1 => Ok(UpperBound::PlusInfinity),
            t => Err(invalid_tag("upper-bound", t)),
        }
    }

    /// [`Self::get_interval`] over keys: the per-axis spelling the
    /// golden node-image tests read a header with.
    pub fn get_key_range(&mut self) -> TsbResult<KeyRange> {
        self.get_interval()
    }

    /// [`Self::get_interval`] over timestamps.
    pub fn get_time_range(&mut self) -> TsbResult<TimeRange> {
        self.get_interval()
    }

    /// [`Self::get_bound`] over timestamps.
    pub fn get_time_bound(&mut self) -> TsbResult<TimeBound> {
        self.get_bound()
    }

    /// Reads a timestamp state.
    #[inline]
    pub fn get_ts_state(&mut self) -> TsbResult<TsState> {
        match self.get_u8()? {
            0 => Ok(TsState::Committed(self.get_timestamp()?)),
            1 => Ok(TsState::Uncommitted(TxnId(self.get_u64()?))),
            t => Err(invalid_tag("ts-state", t)),
        }
    }

    /// Reads a version entry.
    #[inline]
    pub fn get_version(&mut self) -> TsbResult<Version> {
        let key = self.get_key()?;
        let state = self.get_ts_state()?;
        let value = match self.get_u8()? {
            0 => None,
            1 => Some(self.get_bytes()?),
            t => return Err(invalid_tag("version value", t)),
        };
        Ok(Version { key, state, value })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = ByteWriter::new();
        w.put_u8(0xAB);
        w.put_u16(0xBEEF);
        w.put_u32(0xDEADBEEF);
        w.put_u64(0x0123_4567_89AB_CDEF);
        w.put_bytes(b"hello");
        let buf = w.into_vec();

        let mut r = ByteReader::new(&buf);
        assert_eq!(r.get_u8().unwrap(), 0xAB);
        assert_eq!(r.get_u16().unwrap(), 0xBEEF);
        assert_eq!(r.get_u32().unwrap(), 0xDEADBEEF);
        assert_eq!(r.get_u64().unwrap(), 0x0123_4567_89AB_CDEF);
        assert_eq!(r.get_bytes().unwrap(), b"hello");
        assert!(r.is_exhausted());
    }

    #[test]
    fn truncated_input_is_an_error_not_a_panic() {
        let mut w = ByteWriter::new();
        w.put_u64(42);
        let buf = w.into_vec();
        let mut r = ByteReader::new(&buf[..5]);
        assert!(matches!(r.get_u64(), Err(TsbError::Corruption(_))));

        let mut r = ByteReader::new(&[0u8, 200, 0, 0, 0]); // claims 200-byte string
        let _tag = r.get_u8().unwrap();
        assert!(r.get_bytes().is_err());
    }

    #[test]
    fn invalid_tags_are_corruption() {
        let mut r = ByteReader::new(&[9]);
        assert!(matches!(r.get_bound::<Key>(), Err(TsbError::Corruption(_))));
        let mut r = ByteReader::new(&[9]);
        assert!(matches!(r.get_time_bound(), Err(TsbError::Corruption(_))));
        let mut r = ByteReader::new(&[9]);
        assert!(matches!(r.get_ts_state(), Err(TsbError::Corruption(_))));
    }

    #[test]
    fn domain_types_round_trip() {
        let range = KeyRange::bounded(Key::from_u64(10), Key::from_u64(99));
        let open = KeyRange::new(Key::from("m"), UpperBound::PlusInfinity);
        let trange = TimeRange::bounded(Timestamp(3), Timestamp(17));
        let topen = TimeRange::from(Timestamp(5));
        let v1 = Version::committed(50u64, Timestamp(3), b"Joe".to_vec());
        let v2 = Version::tombstone("gone", Timestamp(8));
        let v3 = Version::uncommitted(70u64, TxnId(12), b"Sue".to_vec());

        let mut w = ByteWriter::new();
        w.put_interval(&range);
        w.put_interval(&open);
        w.put_interval(&trange);
        w.put_interval(&topen);
        w.put_version(&v1);
        w.put_version(&v2);
        w.put_version(&v3);
        let buf = w.into_vec();

        let mut r = ByteReader::new(&buf);
        assert_eq!(r.get_key_range().unwrap(), range);
        assert_eq!(r.get_key_range().unwrap(), open);
        assert_eq!(r.get_time_range().unwrap(), trange);
        assert_eq!(r.get_time_range().unwrap(), topen);
        assert_eq!(r.get_version().unwrap(), v1);
        assert_eq!(r.get_version().unwrap(), v2);
        assert_eq!(r.get_version().unwrap(), v3);
        assert!(r.is_exhausted());
    }

    #[test]
    fn size_helpers_match_encoded_size() {
        let v = Version::committed(50u64, Timestamp(3), vec![7u8; 100]);
        let mut w = ByteWriter::new();
        w.put_version(&v);
        assert_eq!(w.len(), size::version(&v));

        let t = Version::tombstone(1u64, Timestamp(1));
        let mut w = ByteWriter::new();
        w.put_version(&t);
        assert_eq!(w.len(), size::version(&t));

        let r = KeyRange::full();
        let mut w = ByteWriter::new();
        w.put_interval(&r);
        assert_eq!(w.len(), size::interval(&r));

        let tr = TimeRange::from(Timestamp(9));
        let mut w = ByteWriter::new();
        w.put_interval(&tr);
        assert_eq!(w.len(), size::interval(&tr));
    }
}
