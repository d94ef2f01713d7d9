//! Index nodes.
//!
//! An index entry refers to a lower-level node that "spans a keyspace
//! interval as well as a time interval" (§3.5). The paper stores entries as
//! `(key, timestamp, pointer)` triples and derives the spanned rectangle
//! implicitly from neighbouring entries; we store the rectangle explicitly
//! (see DESIGN.md), which makes the split rules and the search invariant —
//! *for any point of the node's rectangle exactly one child entry contains
//! it* — direct to implement and to verify.
//!
//! Index entries referencing **historical** children may stick out of the
//! node's own key range: the Index Node Keyspace Split Rule (item 4) copies
//! entries whose key range strictly contains the split value into both new
//! nodes, which is what makes the TSB-tree a DAG rather than a tree. Entries
//! referencing **current** children always lie inside the node's rectangle.
//!
//! # In memory an index node is its page image
//!
//! Like a leaf ([`super::data`]), an index node in memory is the encoded
//! entries exactly as they sit on the device plus a table of `u32` offsets,
//! one per entry. Decoding walks the image once to check lengths, tags and
//! the region layout; routing binary-searches the offsets, comparing the
//! probe against key bytes in place, and hands out a borrowed
//! [`IndexEntryRef`]. [`IndexEntry`] is the owned form, used to build nodes
//! and by the cold callers (splits, WAL replay) that rearrange one.

use std::cmp::Ordering;
use std::fmt;

use tsb_common::encode::{invalid_tag, size, ByteReader, ByteWriter};
use tsb_common::{Key, KeyBound, KeyRange, TimeBound, TimeRange, Timestamp, TsbError, TsbResult};
use tsb_storage::{HistAddr, PageId};

use super::addr::NodeAddr;
use super::image::{le32, le64, past, EntryImage, Walked};

/// Node type tag burned into the first byte of every encoded node.
pub(crate) const INDEX_NODE_TAG: u8 = 2;

/// Encoded bytes of the smallest entry — empty lower key, `+∞` upper key
/// bound, open time range, current child — which bounds the entry count an
/// image of a given length can hold.
const MIN_ENTRY_BYTES: usize = (4 + 1) + (8 + 1) + (1 + 8);

/// One child reference: the child's key × time rectangle plus its address.
#[derive(Clone, PartialEq, Eq, Debug)]
pub(crate) struct IndexEntry {
    /// Key range spanned by the child.
    pub key_range: KeyRange,
    /// Time range spanned by the child (`hi = +∞` ⇔ the child is current).
    pub time_range: TimeRange,
    /// Where the child lives.
    pub child: NodeAddr,
}

impl IndexEntry {
    /// Creates an entry.
    pub(crate) fn new(key_range: KeyRange, time_range: TimeRange, child: NodeAddr) -> Self {
        IndexEntry {
            key_range,
            time_range,
            child,
        }
    }

    /// Whether the entry's rectangle overlaps `key_range × time_range`.
    pub(crate) fn overlaps(&self, key_range: &KeyRange, time_range: &TimeRange) -> bool {
        self.key_range.overlaps(key_range) && self.time_range.overlaps(time_range)
    }

    /// Whether the entry references a current (erasable) child.
    pub(crate) fn is_current(&self) -> bool {
        self.child.is_current()
    }

    /// Encoded size in bytes.
    pub(crate) fn encoded_size(&self) -> usize {
        size::key_range(&self.key_range)
            + size::time_range(&self.time_range)
            + self.child.encoded_size()
    }

    /// Encodes the entry.
    pub(crate) fn encode(&self, w: &mut ByteWriter) {
        w.put_key_range(&self.key_range);
        w.put_time_range(&self.time_range);
        self.child.encode(w);
    }

    /// Decodes an entry.
    #[inline]
    pub(crate) fn decode(r: &mut ByteReader<'_>) -> TsbResult<Self> {
        let key_range = r.get_key_range()?;
        let time_range = r.get_time_range()?;
        let child = NodeAddr::decode(r)?;
        Ok(IndexEntry {
            key_range,
            time_range,
            child,
        })
    }
}

/// A child reference borrowed from an index node's image: [`IndexEntry`]
/// with the key range's bounds as slices of the node's bytes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct IndexEntryRef<'a> {
    /// The key range's inclusive lower bound.
    pub key_lo: &'a [u8],
    /// The key range's exclusive upper bound; `None` is `+∞`.
    pub key_hi: Option<&'a [u8]>,
    /// Time range spanned by the child (`hi = +∞` ⇔ the child is current).
    pub time_range: TimeRange,
    /// Where the child lives.
    pub child: NodeAddr,
}

/// `key < hi`, where a missing bound is `+∞`.
#[inline]
fn below(key: &[u8], hi: Option<&[u8]>) -> bool {
    hi.is_none_or(|hi| key < hi)
}

impl IndexEntryRef<'_> {
    /// Whether the entry's rectangle contains the point `(key, ts)`.
    #[inline]
    pub(crate) fn contains(&self, key: &Key, ts: Timestamp) -> bool {
        let key = key.as_bytes();
        key >= self.key_lo && below(key, self.key_hi) && self.time_range.contains(ts)
    }

    /// Whether the entry's key range shares a key with `keys`
    /// ([`KeyRange::overlaps`], on the borrowed bounds).
    pub(crate) fn key_overlaps(&self, keys: &KeyRange) -> bool {
        let keys_hi = keys.hi.as_finite().map(Key::as_bytes);
        below(self.key_lo, keys_hi)
            && below(keys.lo.as_bytes(), self.key_hi)
            && below(self.key_lo, self.key_hi)
            && !keys.is_empty()
    }

    /// Whether the entry's rectangle overlaps `keys × window`.
    pub(crate) fn overlaps(&self, keys: &KeyRange, window: &TimeRange) -> bool {
        self.key_overlaps(keys) && self.time_range.overlaps(window)
    }

    /// Whether the entry references a current (erasable) child.
    pub(crate) fn is_current(&self) -> bool {
        self.child.is_current()
    }

    /// The key range as an owned [`KeyRange`].
    pub(crate) fn key_range(&self) -> KeyRange {
        KeyRange::new(
            Key::from_bytes(self.key_lo),
            self.key_hi.map_or(KeyBound::PlusInfinity, |hi| {
                KeyBound::Finite(Key::from_bytes(hi))
            }),
        )
    }

    /// Copies the entry out of the image.
    pub(crate) fn to_entry(self) -> IndexEntry {
        IndexEntry::new(self.key_range(), self.time_range, self.child)
    }
}

/// The key range of the entry at the head of `entry` and the offset of its
/// time range. The caller guarantees `entry` starts at an offset
/// [`IndexNode::decode`] or a mutation recorded.
#[inline]
fn entry_keys(entry: &[u8]) -> (&[u8], Option<&[u8]>, usize) {
    let hi_tag_at = 4 + le32(entry, 0);
    let key_lo = &entry[4..hi_tag_at];
    match entry[hi_tag_at] {
        0 => {
            let hi_at = hi_tag_at + 5;
            let time_at = hi_at + le32(entry, hi_tag_at + 1);
            (key_lo, Some(&entry[hi_at..time_at]), time_at)
        }
        _ => (key_lo, None, hi_tag_at + 1),
    }
}

/// The region sort key `(key lo, time lo)` of the entry at the head of
/// `entry`.
#[inline]
fn entry_sort_key(entry: &[u8]) -> (&[u8], Timestamp) {
    let (key_lo, _, time_at) = entry_keys(entry);
    (key_lo, Timestamp(le64(entry, time_at)))
}

/// The entry at the head of `entry` and the bytes it occupies (same caller
/// guarantee as [`entry_keys`]).
#[inline]
fn parse_entry(entry: &[u8]) -> (IndexEntryRef<'_>, usize) {
    let (key_lo, key_hi, time_at) = entry_keys(entry);
    let lo = Timestamp(le64(entry, time_at));
    let (hi, child_at) = match entry[time_at + 8] {
        0 => (
            TimeBound::Finite(Timestamp(le64(entry, time_at + 9))),
            time_at + 17,
        ),
        _ => (TimeBound::Infinity, time_at + 9),
    };
    let (child, len) = match entry[child_at] {
        0 => (
            NodeAddr::Current(PageId(le64(entry, child_at + 1))),
            child_at + 9,
        ),
        _ => {
            let len = le32(entry, child_at + 9) as u32;
            (
                NodeAddr::Historical(HistAddr::new(le64(entry, child_at + 1), len)),
                child_at + 13,
            )
        }
    };
    let entry = IndexEntryRef {
        key_lo,
        key_hi,
        time_range: TimeRange { lo, hi },
        child,
    };
    (entry, len)
}

/// What the layout check needs of one entry: its region sort key
/// `(key lo, time lo)` and whether its time range is open (a current-region
/// entry).
type LayoutKey<'a> = ((&'a [u8], Timestamp), bool);

/// Walks the encoded entry at `at`, checking every length and tag the way
/// [`IndexEntry::decode`] does, without copying anything out. Returns where
/// the next entry starts and the entry's [`LayoutKey`]. Fixed-size fields
/// are read in runs, one bounds check each: the lower key's length; the
/// key with the upper bound's tag; a finite upper key's length, then its
/// bytes; the lower time with the time bound's tag; a finite upper time
/// with the child's tag, or the child's tag alone; the child's address.
#[inline]
fn skip_entry(image: &[u8], at: usize) -> TsbResult<(usize, LayoutKey<'_>)> {
    let lo_at = past(image, at, 4)?;
    let hi_tag_at = past(image, lo_at, le32(image, at).saturating_add(1))? - 1;
    let key_lo = &image[lo_at..hi_tag_at];
    let time_at = match image[hi_tag_at] {
        0 => {
            let hi_at = past(image, hi_tag_at + 1, 4)?;
            past(image, hi_at, le32(image, hi_tag_at + 1))?
        }
        1 => hi_tag_at + 1,
        t => return Err(invalid_tag("key-bound", t)),
    };
    let bound_end = past(image, time_at, 8 + 1)?;
    let time_lo = Timestamp(le64(image, time_at));
    let (child_at, current) = match image[bound_end - 1] {
        0 => (past(image, bound_end, 8 + 1)? - 1, false),
        1 => (past(image, bound_end, 1)? - 1, true),
        t => return Err(invalid_tag("time-bound", t)),
    };
    let end = match image[child_at] {
        0 => past(image, child_at + 1, 8)?,
        1 => past(image, child_at + 1, 8 + 4)?,
        t => return Err(invalid_tag("node-addr", t)),
    };
    Ok((end, ((key_lo, time_lo), current)))
}

/// The entry walk [`skip_entry`] replaced, one [`ByteReader`] field at a
/// time: the reference it is held to. Returns the entry's [`LayoutKey`].
#[cfg(test)]
fn skip_entry_reference<'a>(r: &mut ByteReader<'a>) -> TsbResult<LayoutKey<'a>> {
    let lo_len = r.get_u32()? as usize;
    let key_lo = r.get_raw(lo_len)?;
    match r.get_u8()? {
        0 => {
            let hi_len = r.get_u32()? as usize;
            r.get_raw(hi_len)?;
        }
        1 => {}
        t => return Err(invalid_tag("key-bound", t)),
    }
    let time_lo = r.get_timestamp()?;
    let current = match r.get_u8()? {
        0 => {
            r.get_u64()?;
            false
        }
        1 => true,
        t => return Err(invalid_tag("time-bound", t)),
    };
    match r.get_u8()? {
        0 => r.get_raw(8)?,
        1 => r.get_raw(8 + 4)?,
        t => return Err(invalid_tag("node-addr", t)),
    };
    Ok(((key_lo, time_lo), current))
}

/// The region-layout check a decoding walk folds over its entries: the
/// historical entries first, each region in sort order.
#[derive(Default)]
struct LayoutCheck<'a> {
    historical: usize,
    out_of_layout: bool,
    previous: Option<LayoutKey<'a>>,
}

impl<'a> LayoutCheck<'a> {
    fn note(&mut self, (sort_key, current): LayoutKey<'a>) {
        if let Some((prev_key, prev_current)) = self.previous {
            self.out_of_layout |= match (prev_current, current) {
                (false, true) => false,
                (true, false) => true,
                _ => prev_key > sort_key,
            };
        }
        self.previous = Some((sort_key, current));
        self.historical += usize::from(!current);
    }

    /// The historical entry count, and whether the entries were in layout.
    fn finish(self) -> (usize, bool) {
        (self.historical, !self.out_of_layout)
    }
}

/// Iterator over a run of encoded entries, front to back. Entries describe
/// their own length, so the walk never consults the offset table.
pub(crate) struct Entries<'a> {
    run: &'a [u8],
}

impl<'a> Iterator for Entries<'a> {
    type Item = IndexEntryRef<'a>;

    #[inline]
    fn next(&mut self) -> Option<IndexEntryRef<'a>> {
        if self.run.is_empty() {
            return None;
        }
        let (entry, len) = parse_entry(self.run);
        self.run = &self.run[len..];
        Some(entry)
    }
}

/// An index node: a rectangle of the key × time plane plus the child entries
/// that tile it.
///
/// # Partition invariant (routing layout)
///
/// Entries are stored in two regions, one after the other in the image,
/// maintained incrementally by [`IndexNode::insert`] /
/// [`IndexNode::replace_child`] rather than rebuilt per descent:
///
/// * entries `..current_start` — the **historical region**: entries with a
///   closed time range, sorted by `(key_range.lo, time_range.lo)`;
/// * entries `current_start..` — the **current region**: entries with an
///   open-ended time range, sorted by `key_range.lo`.
///
/// Current entries all extend to `+∞` in time, so any two of them overlap
/// in the time projection; pairwise rectangle disjointness therefore forces
/// their *key ranges* to be pairwise disjoint. That makes the current
/// region binary-searchable by key alone: only the entry whose
/// `key_range.lo` is the greatest lower bound `<= key` can contain the key.
/// A `ts == Timestamp::MAX` descent — every insert, current lookup, and
/// transaction commit — is thus O(log fanout) with zero allocations, where
/// it used to be an O(fanout) linear scan. Past-time descents binary-search
/// the current region first, then seek into the historical region at the
/// `(key, ts)` partition point and scan only entries that could contain
/// the probe. [`IndexNode::validate`] checks the region layout alongside
/// the geometric invariants, and `find_child` cross-checks the partitioned
/// answer against the linear reference scan under `debug_assertions`.
#[derive(Clone)]
pub(crate) struct IndexNode {
    /// Key range this node is responsible for.
    pub key_range: KeyRange,
    /// Time range this node is responsible for.
    pub time_range: TimeRange,
    /// The encoded entries, laid out per the partition invariant above.
    image: EntryImage,
    /// Boundary between the historical and current regions.
    current_start: usize,
}

/// Summary of an index node's contents used when deciding how to split it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct IndexComposition {
    /// Total entries.
    pub total_entries: usize,
    /// Entries referencing current children.
    pub current_entries: usize,
    /// Entries referencing historical children.
    pub historical_entries: usize,
    /// The earliest `time_range.lo` among entries referencing current
    /// children, if any — the largest usable local time-split point
    /// (see §3.5 / Figure 8).
    pub min_current_start: Option<Timestamp>,
    /// Number of distinct `key_range.lo` values strictly greater than the
    /// node's own lower key bound — candidate key-split values.
    pub key_split_candidates: usize,
}

/// Region sort order: `(key_range.lo, time_range.lo)`, fully borrowed.
fn region_cmp(a: &IndexEntry, b: &IndexEntry) -> Ordering {
    a.key_range
        .lo
        .cmp(&b.key_range.lo)
        .then_with(|| a.time_range.lo.cmp(&b.time_range.lo))
}

impl PartialEq for IndexNode {
    fn eq(&self, other: &Self) -> bool {
        self.key_range == other.key_range
            && self.time_range == other.time_range
            && self.image.entries() == other.image.entries()
    }
}

impl Eq for IndexNode {}

impl fmt::Debug for IndexNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("IndexNode")
            .field("key_range", &self.key_range)
            .field("time_range", &self.time_range)
            .field("entries", &self.to_entries())
            .field("current_start", &self.current_start)
            .finish()
    }
}

impl IndexNode {
    /// Creates an empty index node covering `key_range` × `time_range`.
    #[cfg(test)]
    pub(crate) fn new(key_range: KeyRange, time_range: TimeRange) -> Self {
        IndexNode {
            key_range,
            time_range,
            image: EntryImage::default(),
            current_start: 0,
        }
    }

    /// Creates an index node from entries (re-partitioned and re-sorted
    /// defensively into the historical-then-current region layout).
    pub(crate) fn from_entries(
        key_range: KeyRange,
        time_range: TimeRange,
        entries: Vec<IndexEntry>,
    ) -> Self {
        let (mut historical, mut current): (Vec<_>, Vec<_>) = entries
            .into_iter()
            .partition(|e| !e.time_range.is_current());
        historical.sort_by(region_cmp);
        current.sort_by(region_cmp);
        IndexNode {
            key_range,
            time_range,
            image: EntryImage::build(
                historical.iter().chain(&current),
                IndexEntry::encoded_size,
                IndexEntry::encode,
            ),
            current_start: historical.len(),
        }
    }

    #[inline]
    fn entry_at(&self, offset: u32) -> IndexEntryRef<'_> {
        parse_entry(self.image.at(offset)).0
    }

    /// The lower key bound of the entry at `offset` — an entry's first
    /// field, so a routing probe reads nothing else.
    #[inline]
    fn key_lo_at(&self, offset: u32) -> &[u8] {
        let entry = self.image.at(offset);
        &entry[4..4 + le32(entry, 0)]
    }

    fn run(&self, from: usize, to: usize) -> Entries<'_> {
        Entries {
            run: self.image.run(from, to),
        }
    }

    /// The entries: the historical region (sorted by `(key lo, time lo)`)
    /// followed by the current region (sorted by `key lo`).
    pub(crate) fn iter(&self) -> Entries<'_> {
        self.run(0, self.len())
    }

    /// Every entry copied out as an owned [`IndexEntry`] — for the cold
    /// callers (splits, WAL replay, validation) that rearrange a whole node.
    pub(crate) fn to_entries(&self) -> Vec<IndexEntry> {
        self.iter().map(|e| e.to_entry()).collect()
    }

    /// The historical-region entries (closed time ranges), sorted by
    /// `(key_range.lo, time_range.lo)`.
    pub(crate) fn historical_region(&self) -> Entries<'_> {
        self.run(0, self.current_start)
    }

    /// The current-region entries (open time ranges), sorted by
    /// `key_range.lo`; their key ranges are pairwise disjoint in any valid
    /// node.
    #[cfg(test)]
    pub(crate) fn current_region(&self) -> Entries<'_> {
        self.run(self.current_start, self.len())
    }

    /// Number of entries.
    pub(crate) fn len(&self) -> usize {
        self.image.len()
    }

    /// Whether this node is current (open-ended time range).
    pub(crate) fn is_current(&self) -> bool {
        self.time_range.is_current()
    }

    /// Adds an entry, keeping the region partition and per-region sort
    /// order (incremental maintenance — no rebuild, no key clones): the
    /// encoded entry is spliced into the image at its place.
    pub(crate) fn insert(&mut self, entry: IndexEntry) {
        let current = entry.time_range.is_current();
        let (region_lo, region_hi) = if current {
            (self.current_start, self.len())
        } else {
            (0, self.current_start)
        };
        let probe = (entry.key_range.lo.as_bytes(), entry.time_range.lo);
        let pos = region_lo
            + self.image.offsets()[region_lo..region_hi]
                .partition_point(|&o| entry_sort_key(self.image.at(o)) <= probe);
        self.image.insert(pos, |w| entry.encode(w));
        if !current {
            self.current_start += 1;
        }
    }

    /// Removes the entry referencing `child` (there is at most one within a
    /// single index node), returning it.
    pub(crate) fn remove_child(&mut self, child: &NodeAddr) -> Option<IndexEntry> {
        let pos = self.iter().position(|e| e.child == *child)?;
        let removed = parse_entry(self.image.entry(pos)).0.to_entry();
        self.image.remove(pos);
        if pos < self.current_start {
            self.current_start -= 1;
        }
        Some(removed)
    }

    /// Replaces the entry referencing `old_child` with `replacements`
    /// (2 for a plain split, 3 for a time-then-key split). Returns an error
    /// if the old child is not present.
    pub(crate) fn replace_child(
        &mut self,
        old_child: &NodeAddr,
        replacements: Vec<IndexEntry>,
    ) -> TsbResult<()> {
        if self.remove_child(old_child).is_none() {
            return Err(TsbError::internal(format!(
                "index node has no entry for child {old_child}"
            )));
        }
        for e in replacements {
            self.insert(e);
        }
        Ok(())
    }

    /// The unique entry whose rectangle contains `(key, ts)`.
    ///
    /// Returns `None` only if the point lies outside every entry — which for
    /// a well-formed node means the point is outside the node's own
    /// rectangle (or in the empty-root corner case).
    ///
    /// Routing is O(log fanout) over the region layout (see the type-level
    /// docs): the current region is binary-searched by `key`, and — for
    /// past timestamps — the historical region is entered at the
    /// `(key, ts)` partition point. The routing proptest holds it equal to
    /// the linear reference scan, `find_child_linear`, and in this crate's
    /// unit tests every descent cross-checks it under `debug_assertions`.
    pub(crate) fn find_child(&self, key: &Key, ts: Timestamp) -> Option<IndexEntryRef<'_>> {
        let found = self.find_child_partitioned(key, ts);
        #[cfg(test)]
        debug_assert_eq!(
            found.map(|e| e.child),
            self.find_child_linear(key, ts).map(|e| e.child),
            "partitioned routing diverged from the linear reference scan \
             for (key {key}, ts {ts}) in node {} x {}",
            self.key_range,
            self.time_range,
        );
        found
    }

    fn find_child_partitioned(&self, key: &Key, ts: Timestamp) -> Option<IndexEntryRef<'_>> {
        let (historical, current) = self.image.offsets().split_at(self.current_start);
        // Current region: key ranges are pairwise disjoint and sorted by
        // lower bound, so the only candidate is the predecessor of the
        // first entry whose lower bound exceeds the probe key.
        let p = current.partition_point(|&o| self.key_lo_at(o) <= key.as_bytes());
        if p > 0 {
            let e = self.entry_at(current[p - 1]);
            if e.contains(key, ts) {
                return Some(e);
            }
        }
        // Open time ranges contain MAX, closed ones never do — so a MAX
        // probe (every insert / current lookup / commit) ends here.
        if ts == Timestamp::MAX {
            return None;
        }
        // Historical region: entries are sorted by (key lo, time lo), so
        // every entry at or past the (key, ts) partition point either
        // starts above the probe key or starts (in time) after the probe
        // instant — neither can contain the point. Seek there and scan
        // backwards; the first containing entry is unique by disjointness.
        let probe = (key.as_bytes(), ts);
        let p = historical.partition_point(|&o| entry_sort_key(self.image.at(o)) <= probe);
        historical[..p]
            .iter()
            .rev()
            .map(|&o| self.entry_at(o))
            .find(|e| e.contains(key, ts))
    }

    /// Reference implementation of [`Self::find_child`]: a linear scan over
    /// every entry, which the routing proptest checks it against.
    #[cfg(test)]
    pub(crate) fn find_child_linear(&self, key: &Key, ts: Timestamp) -> Option<IndexEntryRef<'_>> {
        self.iter().find(|e| e.contains(key, ts))
    }

    /// The current-region entries whose key ranges overlap `range`, as a
    /// contiguous run located by two binary searches.
    ///
    /// The current region is sorted by `key_range.lo` with pairwise
    /// disjoint key ranges, so the overlapping entries form one run: it
    /// ends at the first entry whose lower bound is at or past the query's
    /// upper bound, and it starts either at the first entry whose lower
    /// bound is inside the query or one earlier (the unique predecessor
    /// that can span the query's lower bound). Range scans and snapshots
    /// route through this instead of filtering every entry — and at
    /// `ts == MAX` they skip the historical region entirely, so a
    /// current-time scan's per-node cost no longer grows with migrated
    /// history.
    pub(crate) fn current_children_overlapping(&self, range: &KeyRange) -> Entries<'_> {
        let current = &self.image.offsets()[self.current_start..];
        let range_hi = range.hi.as_finite().map(Key::as_bytes);
        let end = current.partition_point(|&o| below(self.key_lo_at(o), range_hi));
        let mut start =
            current[..end].partition_point(|&o| self.key_lo_at(o) <= range.lo.as_bytes());
        if start > 0 && self.entry_at(current[start - 1]).key_overlaps(range) {
            start -= 1;
        }
        self.run(
            self.current_start + start.min(end),
            self.current_start + end,
        )
    }

    /// The entries whose rectangle overlaps `keys × window` — the descent
    /// step of every key × time query. The current region contributes its
    /// binary-searched run; the historical region, sorted by
    /// `(key lo, time lo)`, ends at the first entry whose key range starts
    /// at or past `keys.hi`. No lower cut exists there: an old entry may
    /// span the whole key space.
    pub(crate) fn children_overlapping<'a>(
        &'a self,
        keys: &'a KeyRange,
        window: &'a TimeRange,
    ) -> impl Iterator<Item = IndexEntryRef<'a>> + 'a {
        let keys_hi = keys.hi.as_finite().map(Key::as_bytes);
        let end = self.image.offsets()[..self.current_start]
            .partition_point(|&o| below(self.key_lo_at(o), keys_hi));
        self.run(0, end)
            .chain(self.current_children_overlapping(keys))
            .filter(move |e| e.overlaps(keys, window))
    }

    /// Summarizes the node for split decisions.
    pub(crate) fn composition(&self) -> IndexComposition {
        let current = self.iter().filter(|e| e.is_current()).count();
        let min_current_start = self
            .iter()
            .filter(|e| e.is_current())
            .map(|e| e.time_range.lo)
            .min();
        let mut candidates: Vec<&[u8]> = self
            .iter()
            .map(|e| e.key_lo)
            .filter(|k| *k > self.key_range.lo.as_bytes())
            .collect();
        candidates.sort();
        candidates.dedup();
        IndexComposition {
            total_entries: self.len(),
            current_entries: current,
            historical_entries: self.len() - current,
            min_current_start,
            key_split_candidates: candidates.len(),
        }
    }

    /// Encoded size in bytes — no entry is looked at.
    pub(crate) fn encoded_size(&self) -> usize {
        self.image.encoded_size(&self.key_range, &self.time_range)
    }

    /// Encodes the node: the header, then the entries copied as they are.
    pub(crate) fn encode(&self) -> Vec<u8> {
        self.image
            .encode(INDEX_NODE_TAG, &self.key_range, &self.time_range)
    }

    /// Decodes a node previously produced by [`Self::encode`], keeping
    /// `image` — the buffer the device read returned — as the node's body.
    ///
    /// Every entry is walked once to check its lengths and tags and to
    /// record where it starts; nothing is copied out. [`Self::encode`]
    /// writes the entries as they lie, so the encoded order *is* the region
    /// layout, and the same pass checks it. Only an image that breaks the
    /// layout is re-partitioned through [`Self::from_entries`]. Bytes after
    /// the last entry are dropped.
    pub(crate) fn decode(image: Vec<u8>) -> TsbResult<Self> {
        let mut r = ByteReader::new(&image);
        let (count, key_range, time_range) =
            EntryImage::read_header(&mut r, INDEX_NODE_TAG, "index")?;
        let mut layout = LayoutCheck::default();
        let walked = EntryImage::walk(&image, r.position(), count, MIN_ENTRY_BYTES, |at| {
            let (next, key) = skip_entry(&image, at)?;
            layout.note(key);
            Ok(next)
        })?;
        let (historical, in_layout) = layout.finish();
        Ok(Self::from_walk(
            key_range, time_range, walked, image, historical, in_layout,
        ))
    }

    /// [`Self::decode`] through the reference walk
    /// ([`EntryImage::walk_reference`]).
    #[cfg(test)]
    pub(super) fn decode_reference(image: Vec<u8>) -> TsbResult<Self> {
        let mut r = ByteReader::new(&image);
        let (count, key_range, time_range) =
            EntryImage::read_header(&mut r, INDEX_NODE_TAG, "index")?;
        let mut layout = LayoutCheck::default();
        let walked = EntryImage::walk_reference(&mut r, count, MIN_ENTRY_BYTES, |r| {
            layout.note(skip_entry_reference(r)?);
            Ok(())
        })?;
        let (historical, in_layout) = layout.finish();
        Ok(Self::from_walk(
            key_range, time_range, walked, image, historical, in_layout,
        ))
    }

    /// What the decoding walk recorded ([`EntryImage::shape`]) and the
    /// region boundary.
    #[cfg(test)]
    pub(super) fn image_shape(&self) -> ((usize, &[u32], usize), usize) {
        (self.image.shape(), self.current_start)
    }

    /// The node a walk of `image` found: the image taken over as it lies
    /// when its entries are in the region layout, re-partitioned through
    /// [`Self::from_entries`] when they are not.
    fn from_walk(
        key_range: KeyRange,
        time_range: TimeRange,
        walked: Walked,
        image: Vec<u8>,
        historical: usize,
        in_layout: bool,
    ) -> Self {
        let node = IndexNode {
            key_range,
            time_range,
            image: walked.into_image(image),
            // In layout, every historical entry precedes every current one.
            current_start: historical,
        };
        if in_layout {
            node
        } else {
            IndexNode::from_entries(node.key_range.clone(), node.time_range, node.to_entries())
        }
    }

    /// Checks the node's internal invariants:
    ///
    /// * the region partition holds: historical entries (closed time
    ///   ranges) before `current_start` sorted by `(key lo, time lo)`,
    ///   current entries (open time ranges) after it sorted by `key lo`,
    /// * entries referencing current children lie inside the node rectangle
    ///   and have open-ended time ranges,
    /// * entry rectangles are pairwise disjoint,
    /// * every point of the node's rectangle is covered by some entry
    ///   (checked at the corner points of the rectangle subdivision induced
    ///   by the entries — sufficient because all rectangles are axis-aligned
    ///   half-open boxes).
    pub(crate) fn validate(&self) -> TsbResult<()> {
        let entries = self.to_entries();
        if self.current_start > entries.len() {
            return Err(TsbError::invariant(format!(
                "index region boundary {} past entry count {}",
                self.current_start,
                entries.len()
            )));
        }
        for (i, e) in entries.iter().enumerate() {
            let in_current_region = i >= self.current_start;
            if e.time_range.is_current() != in_current_region {
                return Err(TsbError::invariant(format!(
                    "entry for child {} ({} x {}) is in the wrong index region",
                    e.child, e.key_range, e.time_range
                )));
            }
        }
        let (historical, current) = entries.split_at(self.current_start);
        for region in [historical, current] {
            for w in region.windows(2) {
                if region_cmp(&w[0], &w[1]) == Ordering::Greater {
                    return Err(TsbError::invariant(format!(
                        "index region out of order: {} x {} before {} x {}",
                        w[0].key_range, w[0].time_range, w[1].key_range, w[1].time_range
                    )));
                }
            }
        }
        for e in &entries {
            if e.key_range.is_empty() || e.time_range.is_empty() {
                return Err(TsbError::invariant(format!(
                    "index entry with empty rectangle: {} x {}",
                    e.key_range, e.time_range
                )));
            }
            if e.is_current() != e.time_range.is_current() {
                return Err(TsbError::invariant(format!(
                    "entry for child {} has mismatched device/time-range: {} x {}",
                    e.child, e.key_range, e.time_range
                )));
            }
            if e.is_current()
                && (!self.key_range.contains_range(&e.key_range)
                    || !self.time_range.contains_range(&e.time_range))
            {
                return Err(TsbError::invariant(format!(
                    "current child {} rectangle {} x {} outside node rectangle {} x {}",
                    e.child, e.key_range, e.time_range, self.key_range, self.time_range
                )));
            }
        }
        // Pairwise disjointness.
        for (i, a) in entries.iter().enumerate() {
            for b in &entries[i + 1..] {
                if a.overlaps(&b.key_range, &b.time_range) {
                    return Err(TsbError::invariant(format!(
                        "index entries overlap: {} x {} ({}) and {} x {} ({})",
                        a.key_range, a.time_range, a.child, b.key_range, b.time_range, b.child
                    )));
                }
            }
        }
        // Coverage: every corner point of the induced grid that lies inside
        // the node rectangle must be inside some entry.
        if entries.is_empty() {
            return Ok(());
        }
        let mut key_points: Vec<Key> = vec![self.key_range.lo.clone()];
        let mut time_points: Vec<Timestamp> = vec![self.time_range.lo];
        for e in &entries {
            if self.key_range.contains(&e.key_range.lo) {
                key_points.push(e.key_range.lo.clone());
            }
            if let Some(hi) = e.key_range.hi.as_finite() {
                if self.key_range.contains(hi) {
                    key_points.push(hi.clone());
                }
            }
            if self.time_range.contains(e.time_range.lo) {
                time_points.push(e.time_range.lo);
            }
            if let Some(hi) = e.time_range.hi.as_finite() {
                if self.time_range.contains(hi) {
                    time_points.push(hi);
                }
            }
        }
        key_points.sort();
        key_points.dedup();
        time_points.sort();
        time_points.dedup();
        for k in &key_points {
            for t in &time_points {
                if self.find_child(k, *t).is_none() {
                    return Err(TsbError::invariant(format!(
                        "point (key {k}, time {t}) inside node rectangle {} x {} is not covered by any entry",
                        self.key_range, self.time_range
                    )));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use tsb_storage::{HistAddr, PageId};

    fn kr(lo: u64, hi: Option<u64>) -> KeyRange {
        match hi {
            Some(h) => KeyRange::bounded(Key::from_u64(lo), Key::from_u64(h)),
            None => KeyRange::new(Key::from_u64(lo), tsb_common::KeyBound::PlusInfinity),
        }
    }

    fn cur(page: u64, key: KeyRange, from: u64) -> IndexEntry {
        IndexEntry::new(
            key,
            TimeRange::from(Timestamp(from)),
            NodeAddr::Current(PageId(page)),
        )
    }

    fn hist(off: u64, key: KeyRange, lo: u64, hi: u64) -> IndexEntry {
        IndexEntry::new(
            key,
            TimeRange::bounded(Timestamp(lo), Timestamp(hi)),
            NodeAddr::Historical(HistAddr::new(off, 100)),
        )
    }

    /// Index node shaped like the paper's Figure 7 end state: a historical
    /// child spanning the whole key range before T=4, plus two current
    /// children after a key split at 100.
    fn figure_like_node() -> IndexNode {
        let full = KeyRange::new(Key::MIN, tsb_common::KeyBound::PlusInfinity);
        IndexNode::from_entries(
            full.clone(),
            TimeRange::full(),
            vec![
                hist(0, full, 0, 4),
                cur(1, kr(0, Some(100)).into_full_lo(), 4),
                cur(2, kr(100, None), 4),
            ],
        )
    }

    trait IntoFullLo {
        fn into_full_lo(self) -> KeyRange;
    }
    impl IntoFullLo for KeyRange {
        // Helper: replace the lower bound with -inf (for the leftmost child).
        fn into_full_lo(self) -> KeyRange {
            KeyRange::new(Key::MIN, self.hi)
        }
    }

    #[test]
    fn find_child_routes_by_key_and_time() {
        let n = figure_like_node();
        n.validate().unwrap();
        // Old times route to the historical child regardless of key.
        assert!(n
            .find_child(&Key::from_u64(500), Timestamp(2))
            .unwrap()
            .child
            .is_historical());
        // Recent times route by key.
        assert_eq!(
            n.find_child(&Key::from_u64(50), Timestamp(9))
                .unwrap()
                .child,
            NodeAddr::Current(PageId(1))
        );
        assert_eq!(
            n.find_child(&Key::from_u64(150), Timestamp(9))
                .unwrap()
                .child,
            NodeAddr::Current(PageId(2))
        );
    }

    #[test]
    fn children_queries() {
        let n = figure_like_node();
        let full = TimeRange::full();
        let point = KeyRange::point(&Key::from_u64(150));
        assert_eq!(n.children_overlapping(&point, &full).count(), 2); // historical + right current child
        let low = KeyRange::bounded(Key::from_u64(0), Key::from_u64(10));
        let since = TimeRange::from(Timestamp(0));
        assert_eq!(n.children_overlapping(&low, &since).count(), 2); // historical + left current child
        let first_tick = TimeRange::bounded(Timestamp(0), Timestamp(1));
        assert_eq!(
            n.children_overlapping(&KeyRange::full(), &first_tick)
                .count(),
            1
        );
        // The window prunes: after the historical child closed at T=4 only
        // the current child for the key remains.
        let late = TimeRange::from(Timestamp(4));
        let hit: Vec<_> = n.children_overlapping(&point, &late).collect();
        assert_eq!(hit.len(), 1);
        assert_eq!(hit[0].child, NodeAddr::Current(PageId(2)));
        let empty = KeyRange::bounded(Key::from_u64(5), Key::from_u64(5));
        assert_eq!(n.children_overlapping(&empty, &full).count(), 0);
    }

    #[test]
    fn replace_child_swaps_entries() {
        let mut n = figure_like_node();
        let old = NodeAddr::Current(PageId(2));
        n.replace_child(
            &old,
            vec![hist(64, kr(100, None), 4, 9), cur(2, kr(100, None), 9)],
        )
        .unwrap();
        assert_eq!(n.len(), 4);
        n.validate().unwrap();
        assert!(n
            .replace_child(&NodeAddr::Current(PageId(99)), vec![])
            .is_err());
    }

    #[test]
    fn composition_counts() {
        let n = figure_like_node();
        let c = n.composition();
        assert_eq!(c.total_entries, 3);
        assert_eq!(c.current_entries, 2);
        assert_eq!(c.historical_entries, 1);
        assert_eq!(c.min_current_start, Some(Timestamp(4)));
        assert_eq!(c.key_split_candidates, 1); // key 100
    }

    #[test]
    fn validate_rejects_overlap_and_gaps() {
        let full = KeyRange::full();
        // Overlapping current children.
        let n = IndexNode::from_entries(
            full.clone(),
            TimeRange::full(),
            vec![
                cur(1, kr(0, Some(100)).into_full_lo(), 0),
                cur(2, kr(50, None), 0),
            ],
        );
        assert!(n.validate().is_err());

        // Gap: nothing covers keys >= 100.
        let n = IndexNode::from_entries(
            full.clone(),
            TimeRange::full(),
            vec![cur(1, kr(0, Some(100)).into_full_lo(), 0)],
        );
        assert!(n.validate().is_err());

        // Current child marked with a finite time range is inconsistent.
        let n = IndexNode::from_entries(
            full,
            TimeRange::full(),
            vec![IndexEntry::new(
                KeyRange::full(),
                TimeRange::bounded(Timestamp(0), Timestamp(5)),
                NodeAddr::Current(PageId(1)),
            )],
        );
        assert!(n.validate().is_err());
    }

    #[test]
    fn historical_entries_may_stick_out_of_the_node_key_range() {
        // After an index keyspace split at 100, the left node owns keys
        // [-inf, 100) but may carry a historical entry spanning [50, 150).
        let left = IndexNode::from_entries(
            KeyRange::new(Key::MIN, tsb_common::KeyBound::Finite(Key::from_u64(100))),
            TimeRange::full(),
            vec![
                hist(0, kr(50, Some(150)), 0, 4),
                hist(
                    64,
                    KeyRange::new(Key::MIN, tsb_common::KeyBound::Finite(Key::from_u64(50))),
                    0,
                    4,
                ),
                cur(
                    1,
                    KeyRange::new(Key::MIN, tsb_common::KeyBound::Finite(Key::from_u64(100))),
                    4,
                ),
            ],
        );
        left.validate().unwrap();
    }

    #[test]
    fn encode_decode_round_trip() {
        let n = figure_like_node();
        let bytes = n.encode();
        assert_eq!(bytes.len(), n.encoded_size());
        let decoded = IndexNode::decode(bytes.clone()).unwrap();
        assert_eq!(decoded, n);
        let mut bad = bytes.clone();
        bad[0] = 77;
        assert!(IndexNode::decode(bad).is_err());
        assert!(IndexNode::decode(bytes[..10].to_vec()).is_err());
    }

    #[test]
    fn empty_index_node_is_valid_and_has_no_child() {
        let n = IndexNode::new(KeyRange::full(), TimeRange::full());
        n.validate().unwrap();
        assert!(n.find_child(&Key::from_u64(1), Timestamp(1)).is_none());
        assert_eq!(n.len(), 0);
    }

    /// The entry vector the image replaced, maintained the way
    /// `IndexNode::insert` / `remove_child` maintained it.
    #[derive(Default)]
    struct VecModel {
        entries: Vec<IndexEntry>,
        current_start: usize,
    }

    impl VecModel {
        fn insert(&mut self, entry: IndexEntry) {
            let (lo, hi) = if entry.time_range.is_current() {
                (self.current_start, self.entries.len())
            } else {
                (0, self.current_start)
            };
            let offset = self.entries[lo..hi]
                .partition_point(|e| region_cmp(e, &entry) != Ordering::Greater);
            if !entry.time_range.is_current() {
                self.current_start += 1;
            }
            self.entries.insert(lo + offset, entry);
        }

        fn remove_child(&mut self, child: &NodeAddr) -> Option<IndexEntry> {
            let pos = self.entries.iter().position(|e| e.child == *child)?;
            if pos < self.current_start {
                self.current_start -= 1;
            }
            Some(self.entries.remove(pos))
        }
    }

    proptest::proptest! {
        /// Splicing entries into and out of the image keeps exactly the
        /// entries, order, region boundary and bytes that the entry vector
        /// did — also when the image came off a device with its header
        /// still in front.
        #[test]
        fn spliced_image_equals_the_entry_vector(
            steps in proptest::prop::collection::vec(
                (0u8..4, 0u8..12, 0u8..12, 0u8..6, 0u8..24),
                1..60,
            ),
        ) {
            let key = |k: u8| {
                if k < 10 {
                    Key::from_u64(u64::from(k) * 10)
                } else {
                    Key::from(format!("a-bound-too-long-for-the-inline-form-{k}"))
                }
            };
            let full = KeyRange::full();
            let mut node = IndexNode::new(full.clone(), TimeRange::full());
            let mut model = VecModel::default();
            for (op, lo, hi, t, id) in steps {
                let child = if id % 2 == 0 {
                    NodeAddr::Current(PageId(u64::from(id)))
                } else {
                    NodeAddr::Historical(HistAddr::new(u64::from(id) * 64, 100))
                };
                match op {
                    0 => {
                        proptest::prop_assert_eq!(
                            node.remove_child(&child),
                            model.remove_child(&child)
                        );
                    }
                    1 => node = IndexNode::decode(node.encode()).unwrap(),
                    _ => {
                        let key_range = if hi > lo {
                            KeyRange::new(key(lo), tsb_common::KeyBound::Finite(key(hi)))
                        } else {
                            KeyRange::new(key(lo), tsb_common::KeyBound::PlusInfinity)
                        };
                        let time_range = if child.is_current() {
                            TimeRange::from(Timestamp(u64::from(t)))
                        } else {
                            TimeRange::bounded(Timestamp(u64::from(t)), Timestamp(u64::from(t) + 3))
                        };
                        let entry = IndexEntry::new(key_range, time_range, child);
                        node.insert(entry.clone());
                        model.insert(entry);
                    }
                }
                proptest::prop_assert_eq!(node.to_entries(), model.entries.clone());
                proptest::prop_assert_eq!(node.len(), model.entries.len());
                proptest::prop_assert_eq!(
                    node.historical_region().count(),
                    model.current_start
                );
                let rebuilt = IndexNode::from_entries(
                    full.clone(),
                    TimeRange::full(),
                    model.entries.clone(),
                );
                proptest::prop_assert_eq!(&node, &rebuilt);
                proptest::prop_assert_eq!(node.encode(), rebuilt.encode());
                proptest::prop_assert_eq!(node.encoded_size(), node.encode().len());
                proptest::prop_assert_eq!(
                    node.iter().find(|e| e.child == child).map(|e| e.to_entry()),
                    model.entries.iter().find(|e| e.child == child).cloned()
                );
                for (probe, e) in node.iter().zip(&model.entries) {
                    for k in 0..12u8 {
                        proptest::prop_assert_eq!(
                            probe.contains(&key(k), Timestamp(u64::from(t))),
                            e.key_range.contains(&key(k))
                                && e.time_range.contains(Timestamp(u64::from(t)))
                        );
                    }
                }
            }
        }
    }

    // ---------- partitioned index routing ---------------------------------------
    //
    // `IndexNode::find_child` routes descents through a two-region layout
    // (historical entries binary-searched by `(key, ts)`, current entries by
    // key). The property: on *arbitrary valid* index nodes — generated as
    // arbitrary rectangle tilings of the key x time plane, optionally put
    // through a real index keyspace split so historical entries straddle the
    // node's key range — the partitioned routing agrees with the linear
    // reference scan at every probe point, including entry boundary corners,
    // past timestamps, and `Timestamp::MAX`.

    /// Builds a valid index node by recursively splitting the full rectangle.
    /// Each instruction `(which, at, dim)` picks a rectangle and bisects it at a
    /// key or time point strictly inside it (no-op when the point falls on or
    /// outside the boundary).
    fn tiling_node(splits: &[(u16, u16, u8)]) -> IndexNode {
        use tsb_common::TimeBound;
        let mut rects: Vec<(KeyRange, TimeRange)> = vec![(KeyRange::full(), TimeRange::full())];
        for (which, at, dim) in splits {
            let idx = *which as usize % rects.len();
            let (kr, tr) = rects[idx].clone();
            if dim % 2 == 0 {
                let split = Key::from_u64(u64::from(at % 1000) + 1);
                if let Some((left, right)) = kr.split_at(&split) {
                    rects[idx] = (left, tr);
                    rects.push((right, tr));
                }
            } else {
                let t = Timestamp(u64::from(at % 1000) + 1);
                let strictly_inside = tr.lo < t
                    && match tr.hi {
                        TimeBound::Finite(h) => t < h,
                        TimeBound::Infinity => true,
                    };
                if strictly_inside {
                    rects[idx] = (kr.clone(), TimeRange::new(tr.lo, TimeBound::Finite(t)));
                    rects.push((kr, TimeRange::new(t, tr.hi)));
                }
            }
        }
        let entries: Vec<IndexEntry> = rects
            .into_iter()
            .enumerate()
            .map(|(i, (kr, tr))| {
                let addr = if tr.is_current() {
                    NodeAddr::Current(PageId(i as u64 + 1))
                } else {
                    NodeAddr::Historical(HistAddr::new(i as u64 * 128, 64))
                };
                IndexEntry::new(kr, tr, addr)
            })
            .collect();
        IndexNode::from_entries(KeyRange::full(), TimeRange::full(), entries)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn partitioned_find_child_agrees_with_linear_scan(
            splits in prop::collection::vec((any::<u16>(), any::<u16>(), any::<u8>()), 0..48),
            keyspace_split in (any::<u8>(), any::<u8>()),
            probes in prop::collection::vec((any::<u16>(), any::<u16>()), 0..64),
        ) {
            use tsb_common::KeyBound;
            use crate::split::partition_index_by_key;

            let mut node = tiling_node(&splits);
            node.validate().unwrap();

            // With 3-in-4 probability, apply a genuine index keyspace split
            // (paper rule set, straddling historical entries copied to both
            // halves) and keep one half, so the node carries historical
            // entries sticking out of its own key range.
            let (pick, side) = keyspace_split;
            if pick % 4 != 0 {
                // Split values must be current-entry lower bounds: in a real
                // tree every entry's lower bound is a current keyspace
                // boundary, so a split never straddles a current child.
                let candidates: Vec<Key> = node
                    .current_region()
                    .map(|e| Key::from_bytes(e.key_lo))
                    .filter(|k| !k.is_min())
                    .collect();
                if !candidates.is_empty() {
                    let split = candidates[pick as usize % candidates.len()].clone();
                    let parts = partition_index_by_key(&node.to_entries(), &split);
                    let (range, entries) = if side % 2 == 0 {
                        (
                            KeyRange::new(Key::MIN, KeyBound::Finite(split)),
                            parts.left,
                        )
                    } else {
                        (
                            KeyRange::new(split, KeyBound::PlusInfinity),
                            parts.right,
                        )
                    };
                    node = IndexNode::from_entries(range, TimeRange::full(), entries);
                    node.validate().unwrap();
                }
            }

            let compare = |key: &Key, ts: Timestamp| {
                let partitioned = node.find_child(key, ts).map(|e| e.child);
                let linear = node.find_child_linear(key, ts).map(|e| e.child);
                prop_assert_eq!(
                    partitioned, linear,
                    "divergence at (key {}, ts {})", key, ts
                );
                Ok(())
            };

            // Every entry's corner points, probed at the entry's own start
            // time, just before its end, and at the end of time.
            let corner_entries: Vec<(Key, Timestamp, Option<Timestamp>)> = node
                .iter()
                .map(|e| {
                    (
                        Key::from_bytes(e.key_lo),
                        e.time_range.lo,
                        e.time_range.hi.as_finite(),
                    )
                })
                .collect();
            for (lo, t_lo, t_hi) in &corner_entries {
                compare(lo, *t_lo)?;
                compare(lo, Timestamp::MAX)?;
                if let Some(h) = t_hi {
                    compare(lo, *h)?;
                    if h.value() > 0 {
                        compare(lo, h.prev())?;
                    }
                }
            }
            // Random probes, with a bias toward MAX (the hot descent).
            for (a, b) in &probes {
                let key = Key::from_u64(u64::from(a % 1200));
                let ts = if b % 8 == 0 {
                    Timestamp::MAX
                } else {
                    Timestamp(u64::from(b % 1100))
                };
                compare(&key, ts)?;
            }
            // Rectangle routing: the pruned overlap query returns exactly what
            // a filter over every entry returns, in the same (storage) order.
            for pair in probes.chunks_exact(2) {
                let ((a, b), (c, d)) = (pair[0], pair[1]);
                let lo = Key::from_u64(u64::from(a % 1200));
                let from = Timestamp(u64::from(b % 1100));
                let rectangles = [
                    (
                        KeyRange::bounded(lo.clone(), Key::from_u64(u64::from(c % 1200))),
                        TimeRange::bounded(from, Timestamp(u64::from(d % 1100))),
                    ),
                    (KeyRange::point(&lo), TimeRange::from(from)),
                    (KeyRange::new(lo, KeyBound::PlusInfinity), TimeRange::full()),
                ];
                for (keys, window) in &rectangles {
                    let pruned: Vec<_> = node
                        .children_overlapping(keys, window)
                        .map(|e| e.child)
                        .collect();
                    // The filter runs on owned entries: it also holds the
                    // borrowed-bounds overlap test to `KeyRange::overlaps`.
                    let linear: Vec<_> = node
                        .to_entries()
                        .iter()
                        .filter(|e| e.overlaps(keys, window))
                        .map(|e| e.child)
                        .collect();
                    prop_assert_eq!(pruned, linear, "rectangle {} x {}", keys, window);
                }
            }
        }
    }
}
