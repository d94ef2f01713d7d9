//! Node addresses spanning the two devices.
//!
//! A TSB-tree node lives either on the erasable current store (a magnetic
//! page, rewritable in place) or on the write-once historical store (a
//! consolidated byte string addressed by offset + length, §3.4). Index
//! entries carry a [`NodeAddr`] so one index structure spans both devices —
//! "a single unified index enables retrieval from both the historical and
//! the current database" (§1).

use std::fmt;

use tsb_common::encode::{invalid_tag, ByteReader, ByteWriter};
use tsb_common::TsbResult;
use tsb_storage::{HistAddr, PageId};

/// The location of a TSB-tree node.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub(crate) enum NodeAddr {
    /// A current node: a page on the erasable magnetic store.
    Current(PageId),
    /// A historical node: an immutable record on the WORM store.
    Historical(HistAddr),
}

impl NodeAddr {
    /// Whether this address points at the current (erasable) store.
    pub(crate) fn is_current(&self) -> bool {
        matches!(self, NodeAddr::Current(_))
    }

    /// Whether this address points at the historical (write-once) store.
    pub(crate) fn is_historical(&self) -> bool {
        matches!(self, NodeAddr::Historical(_))
    }

    /// The page id, if current.
    pub(crate) fn as_page(&self) -> Option<PageId> {
        match self {
            NodeAddr::Current(p) => Some(*p),
            NodeAddr::Historical(_) => None,
        }
    }

    /// The historical address, if historical.
    pub(crate) fn as_hist(&self) -> Option<HistAddr> {
        match self {
            NodeAddr::Current(_) => None,
            NodeAddr::Historical(h) => Some(*h),
        }
    }

    /// Encodes the address (tag byte + payload).
    pub(crate) fn encode(&self, w: &mut ByteWriter) {
        match self {
            NodeAddr::Current(p) => {
                w.put_u8(0);
                w.put_u64(p.0);
            }
            NodeAddr::Historical(h) => {
                w.put_u8(1);
                h.encode(w);
            }
        }
    }

    /// Decodes an address.
    #[inline]
    pub(crate) fn decode(r: &mut ByteReader<'_>) -> TsbResult<Self> {
        match r.get_u8()? {
            0 => Ok(NodeAddr::Current(PageId(r.get_u64()?))),
            1 => Ok(NodeAddr::Historical(HistAddr::decode(r)?)),
            t => Err(invalid_tag("node-addr", t)),
        }
    }

    /// Encoded size of this address in bytes.
    pub(crate) const fn encoded_size(&self) -> usize {
        match self {
            NodeAddr::Current(_) => 1 + 8,
            NodeAddr::Historical(_) => 1 + HistAddr::encoded_size(),
        }
    }
}

impl fmt::Display for NodeAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeAddr::Current(p) => write!(f, "{p}"),
            NodeAddr::Historical(h) => write!(f, "{h}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsb_common::TsbError;

    #[test]
    fn round_trip_both_variants() {
        let cases = [
            NodeAddr::Current(PageId(42)),
            NodeAddr::Historical(HistAddr::new(1024, 300)),
        ];
        for addr in cases {
            let mut w = ByteWriter::new();
            addr.encode(&mut w);
            assert_eq!(w.len(), addr.encoded_size());
            assert!(w.len() <= 1 + HistAddr::encoded_size());
            let mut r = ByteReader::new(w.as_slice());
            assert_eq!(NodeAddr::decode(&mut r).unwrap(), addr);
        }
    }

    #[test]
    fn accessors() {
        let c = NodeAddr::Current(PageId(1));
        let h = NodeAddr::Historical(HistAddr::new(0, 5));
        assert!(c.is_current() && !c.is_historical());
        assert!(h.is_historical() && !h.is_current());
        assert_eq!(c.as_page(), Some(PageId(1)));
        assert_eq!(c.as_hist(), None);
        assert_eq!(h.as_hist(), Some(HistAddr::new(0, 5)));
        assert_eq!(h.as_page(), None);
        assert_eq!(c.to_string(), "page:1");
        assert_eq!(h.to_string(), "worm:0+5");
    }

    #[test]
    fn bad_tag_is_corruption() {
        let mut r = ByteReader::new(&[7]);
        assert!(matches!(
            NodeAddr::decode(&mut r),
            Err(TsbError::Corruption(_))
        ));
    }
}
