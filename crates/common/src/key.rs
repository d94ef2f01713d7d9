//! Keys, and the key axis of a node's rectangle.
//!
//! The paper's examples use small integer keys ("50 Joe", "90 Alice"), but the
//! TSB-tree itself only needs a totally ordered key space with a minimum
//! element. We use variable-length byte strings ordered lexicographically,
//! which subsumes integers (encoded big-endian) and strings, and is what a
//! production storage engine would expose.
//!
//! A [`KeyRange`] is the key-space interval spanned by a TSB-tree node — what
//! the paper calls a *key range* in §3.5. It is the one interval type,
//! [`Interval`], over keys: half-open `[lo, hi)`, with `hi` possibly `+∞`
//! ([`UpperBound::PlusInfinity`]). The left-most node's `lo` is [`Key::MIN`]
//! (the empty byte string), playing the role of the paper's "lowest possible
//! key value (minus infinity)".

use std::borrow::Borrow;
use std::fmt;

use crate::interval::{Interval, UpperBound};

/// Keys of at most this many bytes are stored inline in the [`Key`] value
/// itself, with no heap allocation — enough for every fixed-width integer
/// encoding and most short string keys. The enum cannot share bytes with
/// the `Vec` variant's fields (no niche packing for a payload this size),
/// so `Key` is 32 bytes — one word more than the 24-byte `Vec<u8>` it
/// replaced — which buys allocation-free construction, cloning, and
/// comparison for small keys; a compile-time assertion below pins the
/// size so the trade-off stays visible.
pub const KEY_INLINE_CAP: usize = 22;

/// The two storage forms of a key. Keys of length `<= KEY_INLINE_CAP` are
/// *always* stored inline (the representation is canonical), so equality,
/// ordering, and hashing over the byte content — implemented on
/// [`Key::as_bytes`] — never depend on which variant holds the bytes.
#[derive(Clone)]
enum Repr {
    /// `buf[..len]` is the key; the tail is zero padding.
    Inline { len: u8, buf: [u8; KEY_INLINE_CAP] },
    /// Keys longer than [`KEY_INLINE_CAP`] spill to the heap.
    Heap(Vec<u8>),
}

/// A variable-length, lexicographically ordered key.
///
/// `Key::MIN` (the empty byte string) sorts before every other key and stands
/// in for the paper's "minus infinity" key used in root entries.
///
/// # Inline representation
///
/// Keys of at most [`KEY_INLINE_CAP`] (22) bytes are stored inline in the
/// `Key` value itself — creating or cloning such a key is a plain memcpy
/// and never touches the heap. Longer keys spill to a heap allocation.
/// Since every workload generator in this workspace produces 8-byte
/// (big-endian `u64`) keys, the tree's descent hot path — probe keys,
/// routing comparisons, copy-on-write of leaf entries — is allocation-free
/// for them. The inline form is canonical: a short key is never
/// heap-backed, so `Clone` on small keys is always cheap.
pub struct Key(Repr);

// The size trade-off documented on `KEY_INLINE_CAP`, pinned: if `Key` ever
// grows past 32 bytes (or a layout change shrinks it), this fails to
// compile and the docs must be revisited.
const _: () = assert!(std::mem::size_of::<Key>() == 32);

impl Key {
    /// The minimum key (empty byte string); sorts before every other key.
    pub const MIN: Key = Key(Repr::Inline {
        len: 0,
        buf: [0; KEY_INLINE_CAP],
    });

    fn inline(bytes: &[u8]) -> Self {
        debug_assert!(bytes.len() <= KEY_INLINE_CAP);
        let mut buf = [0u8; KEY_INLINE_CAP];
        buf[..bytes.len()].copy_from_slice(bytes);
        Key(Repr::Inline {
            len: bytes.len() as u8,
            buf,
        })
    }

    /// Creates a key from raw bytes. Allocation-free for inputs of at most
    /// [`KEY_INLINE_CAP`] bytes.
    pub fn from_bytes(bytes: impl AsRef<[u8]>) -> Self {
        let bytes = bytes.as_ref();
        if bytes.len() <= KEY_INLINE_CAP {
            Key::inline(bytes)
        } else {
            Key(Repr::Heap(bytes.to_vec()))
        }
    }

    /// Creates a key from an owned byte vector, reusing its allocation when
    /// the key is too long to store inline.
    pub fn from_vec(bytes: Vec<u8>) -> Self {
        if bytes.len() <= KEY_INLINE_CAP {
            Key::inline(&bytes)
        } else {
            Key(Repr::Heap(bytes))
        }
    }

    /// Creates a key from an unsigned integer, encoded big-endian so that the
    /// lexicographic byte order matches the numeric order. Never allocates.
    pub fn from_u64(v: u64) -> Self {
        Key::inline(&v.to_be_bytes())
    }

    /// Attempts to read the key back as a big-endian `u64`.
    ///
    /// Returns `None` if the key is not exactly 8 bytes long.
    pub fn as_u64(&self) -> Option<u64> {
        let bytes = self.as_bytes();
        if bytes.len() == 8 {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(bytes);
            Some(u64::from_be_bytes(buf))
        } else {
            None
        }
    }

    /// The raw bytes of the key.
    pub fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, buf } => &buf[..*len as usize],
            Repr::Heap(v) => v,
        }
    }

    /// Length of the key in bytes.
    pub fn len(&self) -> usize {
        match &self.0 {
            Repr::Inline { len, .. } => *len as usize,
            Repr::Heap(v) => v.len(),
        }
    }

    /// Whether this is the empty (minimum) key.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether this is the minimum key.
    pub fn is_min(&self) -> bool {
        self.is_empty()
    }

    /// Whether the key is stored inline (no heap allocation backs it).
    pub fn is_inline(&self) -> bool {
        matches!(self.0, Repr::Inline { .. })
    }

    /// Consumes the key, returning its bytes (allocating for inline keys).
    pub fn into_bytes(self) -> Vec<u8> {
        match self.0 {
            Repr::Inline { len, buf } => buf[..len as usize].to_vec(),
            Repr::Heap(v) => v,
        }
    }
}

impl Clone for Key {
    fn clone(&self) -> Self {
        Key(self.0.clone())
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for Key {}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_bytes().cmp(other.as_bytes())
    }
}

// Hashing goes through the byte slice so that `Borrow<[u8]>` keeps its
// contract: `hash(key) == hash(key.borrow())` for map lookups by `&[u8]`.
impl std::hash::Hash for Key {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_bytes().hash(state)
    }
}

impl Default for Key {
    fn default() -> Self {
        Key::MIN
    }
}

impl fmt::Debug for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "Key(-inf)");
        }
        if let Some(v) = self.as_u64() {
            return write!(f, "Key({v})");
        }
        match std::str::from_utf8(self.as_bytes()) {
            Ok(s) if s.chars().all(|c| !c.is_control()) => write!(f, "Key({s:?})"),
            _ => write!(f, "Key(0x{})", hex(self.as_bytes())),
        }
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "-inf");
        }
        if let Some(v) = self.as_u64() {
            return write!(f, "{v}");
        }
        match std::str::from_utf8(self.as_bytes()) {
            Ok(s) if s.chars().all(|c| !c.is_control()) => write!(f, "{s}"),
            _ => write!(f, "0x{}", hex(self.as_bytes())),
        }
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

impl From<u64> for Key {
    fn from(v: u64) -> Self {
        Key::from_u64(v)
    }
}

impl From<&str> for Key {
    fn from(s: &str) -> Self {
        Key::from_bytes(s.as_bytes())
    }
}

impl From<String> for Key {
    fn from(s: String) -> Self {
        Key::from_vec(s.into_bytes())
    }
}

impl From<Vec<u8>> for Key {
    fn from(v: Vec<u8>) -> Self {
        Key::from_vec(v)
    }
}

impl From<&[u8]> for Key {
    fn from(v: &[u8]) -> Self {
        Key::from_bytes(v)
    }
}

impl Borrow<[u8]> for Key {
    fn borrow(&self) -> &[u8] {
        self.as_bytes()
    }
}

impl AsRef<[u8]> for Key {
    fn as_ref(&self) -> &[u8] {
        self.as_bytes()
    }
}

/// An upper bound on a key range: a finite, exclusive key or `+∞`.
pub type KeyBound = UpperBound<Key>;

/// A half-open key-space interval `[lo, hi)` — the paper's *key range*
/// (§3.5): the set of keys a TSB-tree node is responsible for.
pub type KeyRange = Interval<Key>;

impl KeyRange {
    /// The range containing exactly `key`: `[key, key ++ 0x00)`. In
    /// lexicographic byte order nothing sorts between a key and itself
    /// extended by a zero byte.
    pub fn point(key: &Key) -> Self {
        KeyRange::bounded(key.clone(), Key::from_vec([key.as_bytes(), &[0]].concat()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_keys_order_numerically() {
        let a = Key::from_u64(1);
        let b = Key::from_u64(255);
        let c = Key::from_u64(256);
        let d = Key::from_u64(u64::MAX);
        assert!(a < b && b < c && c < d);
        assert_eq!(b.as_u64(), Some(255));
    }

    #[test]
    fn min_key_sorts_first() {
        let strings = ["a", "zzz", "0"];
        for s in strings {
            assert!(Key::MIN < Key::from(s));
        }
        assert!(Key::MIN < Key::from_u64(0));
        assert!(Key::MIN.is_min());
    }

    #[test]
    fn small_keys_are_inline_and_long_keys_spill() {
        assert!(Key::MIN.is_inline());
        assert!(Key::from_u64(42).is_inline());
        assert!(Key::from_bytes(vec![7u8; KEY_INLINE_CAP]).is_inline());
        assert!(!Key::from_bytes(vec![7u8; KEY_INLINE_CAP + 1]).is_inline());
        // The representation is canonical: short keys built from owned
        // vectors are still inline, so clones stay allocation-free.
        assert!(Key::from_vec(b"short".to_vec()).is_inline());
        assert!(Key::from_vec(b"short".to_vec()).clone().is_inline());
        // Round trips and equality cross the representation boundary.
        for len in [0, 1, 8, KEY_INLINE_CAP, KEY_INLINE_CAP + 1, 100] {
            let bytes = vec![0xAB; len];
            let k = Key::from_bytes(&bytes);
            assert_eq!(k.as_bytes(), &bytes[..]);
            assert_eq!(k.len(), len);
            assert_eq!(k.clone().into_bytes(), bytes);
            assert_eq!(k, Key::from_vec(bytes));
        }
    }

    #[test]
    fn ordering_and_hash_cross_representations() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let short = Key::from_bytes(vec![5u8; KEY_INLINE_CAP]);
        let long = Key::from_bytes(vec![5u8; KEY_INLINE_CAP + 4]);
        assert!(short < long, "prefix sorts first regardless of repr");
        assert!(Key::from_bytes(vec![9u8; 2]) > long);
        // Hash must agree with the borrowed byte slice (Borrow contract).
        let hash_of = |h: &dyn Fn(&mut DefaultHasher)| {
            let mut s = DefaultHasher::new();
            h(&mut s);
            s.finish()
        };
        for k in [&short, &long] {
            let via_key = hash_of(&|s| k.hash(s));
            let via_slice = hash_of(&|s| {
                let b: &[u8] = k.borrow();
                b.hash(s)
            });
            assert_eq!(via_key, via_slice);
        }
    }

    #[test]
    fn key_display_and_debug() {
        assert_eq!(format!("{}", Key::from_u64(42)), "42");
        assert_eq!(format!("{}", Key::from("alice")), "alice");
        assert_eq!(format!("{}", Key::MIN), "-inf");
        assert_eq!(format!("{:?}", Key::from_u64(7)), "Key(7)");
    }

    #[test]
    fn key_bound_ordering() {
        let f1 = KeyBound::Finite(Key::from_u64(10));
        let f2 = KeyBound::Finite(Key::from_u64(20));
        let inf = KeyBound::PlusInfinity;
        assert!(f1 < f2);
        assert!(f2 < inf);
        assert_eq!(f2.clone().min(inf.clone()), f2);
        assert!(inf.is_infinite());
        assert!(!f1.is_infinite());
    }

    #[test]
    fn range_contains() {
        let r = KeyRange::bounded(Key::from_u64(10), Key::from_u64(20));
        assert!(r.contains(Key::from_u64(10)));
        assert!(r.contains(Key::from_u64(19)));
        assert!(!r.contains(Key::from_u64(20)));
        assert!(!r.contains(Key::from_u64(9)));
        assert!(KeyRange::full().contains(Key::from_u64(9)));
        assert!(KeyRange::full().contains(&Key::MIN));
    }

    #[test]
    fn point_range_holds_exactly_its_key() {
        for key in [
            Key::MIN,
            Key::from_u64(7),
            Key::from_bytes([9u8; KEY_INLINE_CAP]),
        ] {
            let r = KeyRange::point(&key);
            assert!(!r.is_empty());
            assert!(r.contains(&key));
            let mut longer = key.as_bytes().to_vec();
            longer.push(0);
            assert!(!r.contains(Key::from_vec(longer)), "successor excluded");
        }
        assert!(!KeyRange::point(&Key::from_u64(7)).contains(Key::from_u64(6)));
        assert!(!KeyRange::point(&Key::from_u64(7)).contains(Key::from_u64(8)));
    }

    #[test]
    fn range_strictly_contains() {
        let r = KeyRange::bounded(Key::from_u64(10), Key::from_u64(20));
        assert!(!r.strictly_contains(Key::from_u64(10)));
        assert!(r.strictly_contains(Key::from_u64(15)));
        assert!(!r.strictly_contains(Key::from_u64(20)));
        let open = KeyRange::new(Key::from_u64(10), KeyBound::PlusInfinity);
        assert!(open.strictly_contains(Key::from_u64(u64::MAX)));
    }

    #[test]
    fn range_split() {
        let r = KeyRange::full();
        let (l, rr) = r.split_at(Key::from_u64(50)).unwrap();
        assert!(l.contains(Key::from_u64(49)));
        assert!(!l.contains(Key::from_u64(50)));
        assert!(rr.contains(Key::from_u64(50)));
        assert!(rr.hi.is_infinite());
        // Splitting at the lower bound is rejected.
        assert!(rr.split_at(Key::from_u64(50)).is_none());
    }

    #[test]
    fn range_overlap_and_containment() {
        let a = KeyRange::bounded(Key::from_u64(10), Key::from_u64(20));
        let b = KeyRange::bounded(Key::from_u64(15), Key::from_u64(25));
        let c = KeyRange::bounded(Key::from_u64(20), Key::from_u64(30));
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
        assert!(KeyRange::full().contains_range(&a));
        assert!(!a.contains_range(&b));
        let i = a.intersection(&b);
        assert_eq!(i, KeyRange::bounded(Key::from_u64(15), Key::from_u64(20)));
        let empty = a.intersection(&c);
        assert!(empty.is_empty());
    }

    #[test]
    fn empty_range() {
        let e = KeyRange::bounded(Key::from_u64(10), Key::from_u64(10));
        assert!(e.is_empty());
        assert!(!e.contains(Key::from_u64(10)));
        assert!(!e.overlaps(&KeyRange::full()));
    }

    #[test]
    fn entirely_below_and_above() {
        let r = KeyRange::bounded(Key::from_u64(10), Key::from_u64(20));
        assert!(r.entirely_below(Key::from_u64(20)));
        assert!(r.entirely_below(Key::from_u64(25)));
        assert!(!r.entirely_below(Key::from_u64(15)));
        assert!(r.entirely_at_or_above(Key::from_u64(10)));
        assert!(!r.entirely_at_or_above(Key::from_u64(11)));
        let open = KeyRange::new(Key::from_u64(10), KeyBound::PlusInfinity);
        assert!(!open.entirely_below(Key::from_u64(u64::MAX)));
    }
}
