//! Addresses of stored nodes on the two devices.
//!
//! Current nodes live in fixed-size pages on the magnetic store and are
//! addressed by [`PageId`]. Historical nodes are variable-length byte strings
//! appended to the WORM store and are addressed by [`HistAddr`] — "the index
//! pointer to a historical node needs only to record its address on the
//! optical disk and its length" (§3.4).

use std::fmt;

use tsb_common::encode::{ByteReader, ByteWriter};
use tsb_common::TsbResult;

/// Identifier of a fixed-size page on the magnetic (current) store.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct PageId(pub u64);

impl PageId {
    /// The raw page number.
    pub const fn value(&self) -> u64 {
        self.0
    }
}

impl fmt::Display for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "page:{}", self.0)
    }
}

/// Address of a historical node on the WORM store: byte offset plus length.
///
/// The offset is always sector-aligned (appends start on a sector boundary);
/// the length is the exact payload length, which is how the store knows how
/// much of the final sector is real data when computing utilization.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct HistAddr {
    /// Byte offset of the first sector of the record.
    pub offset: u64,
    /// Exact payload length in bytes.
    pub len: u32,
}

impl HistAddr {
    /// Creates an address.
    pub const fn new(offset: u64, len: u32) -> Self {
        HistAddr { offset, len }
    }

    /// Encodes the address (12 bytes).
    pub fn encode(&self, w: &mut ByteWriter) {
        w.put_u64(self.offset);
        w.put_u32(self.len);
    }

    /// Decodes an address.
    #[inline]
    pub fn decode(r: &mut ByteReader<'_>) -> TsbResult<Self> {
        let offset = r.get_u64()?;
        let len = r.get_u32()?;
        Ok(HistAddr { offset, len })
    }

    /// Encoded size in bytes.
    pub const fn encoded_size() -> usize {
        12
    }
}

impl fmt::Display for HistAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "worm:{}+{}", self.offset, self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_id_display() {
        assert_eq!(PageId(7).to_string(), "page:7");
        assert_eq!(PageId(7).value(), 7);
    }

    #[test]
    fn hist_addr_round_trip() {
        let a = HistAddr::new(4096, 517);
        let mut w = ByteWriter::new();
        a.encode(&mut w);
        assert_eq!(w.len(), HistAddr::encoded_size());
        let mut r = ByteReader::new(w.as_slice());
        assert_eq!(HistAddr::decode(&mut r).unwrap(), a);
        assert_eq!(a.to_string(), "worm:4096+517");
    }
}
