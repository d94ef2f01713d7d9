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

use tsb_common::encode::{size, ByteReader, ByteWriter};
use tsb_common::{Key, KeyRange, TimeRange, Timestamp, TsbError, TsbResult};

use super::addr::NodeAddr;

/// Node type tag burned into the first byte of every encoded node.
pub const INDEX_NODE_TAG: u8 = 2;

/// One child reference: the child's key × time rectangle plus its address.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct IndexEntry {
    /// Key range spanned by the child.
    pub key_range: KeyRange,
    /// Time range spanned by the child (`hi = +∞` ⇔ the child is current).
    pub time_range: TimeRange,
    /// Where the child lives.
    pub child: NodeAddr,
}

impl IndexEntry {
    /// Creates an entry.
    pub fn new(key_range: KeyRange, time_range: TimeRange, child: NodeAddr) -> Self {
        IndexEntry {
            key_range,
            time_range,
            child,
        }
    }

    /// Whether the entry's rectangle contains the point `(key, ts)`.
    pub fn contains(&self, key: &Key, ts: Timestamp) -> bool {
        self.key_range.contains(key) && self.time_range.contains(ts)
    }

    /// Whether the entry's rectangle overlaps `key_range × time_range`.
    pub fn overlaps(&self, key_range: &KeyRange, time_range: &TimeRange) -> bool {
        self.key_range.overlaps(key_range) && self.time_range.overlaps(time_range)
    }

    /// Whether the entry references a current (erasable) child.
    pub fn is_current(&self) -> bool {
        self.child.is_current()
    }

    /// Encoded size in bytes.
    pub fn encoded_size(&self) -> usize {
        size::key_range(&self.key_range) + size::time_range(&self.time_range) + {
            let mut w = ByteWriter::new();
            self.child.encode(&mut w);
            w.len()
        }
    }

    /// Encodes the entry.
    pub fn encode(&self, w: &mut ByteWriter) {
        w.put_key_range(&self.key_range);
        w.put_time_range(&self.time_range);
        self.child.encode(w);
    }

    /// Decodes an entry.
    pub fn decode(r: &mut ByteReader<'_>) -> TsbResult<Self> {
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

/// An index node: a rectangle of the key × time plane plus the child entries
/// that tile it.
///
/// # Partition invariant (routing layout)
///
/// Entries are stored in two regions inside one vector, maintained
/// incrementally by [`IndexNode::insert`] / [`IndexNode::replace_child`]
/// rather than rebuilt per descent:
///
/// * `entries[..current_start]` — the **historical region**: entries with a
///   closed time range, sorted by `(key_range.lo, time_range.lo)`;
/// * `entries[current_start..]` — the **current region**: entries with an
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
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct IndexNode {
    /// Key range this node is responsible for.
    pub key_range: KeyRange,
    /// Time range this node is responsible for.
    pub time_range: TimeRange,
    /// Child entries, laid out per the partition invariant above.
    entries: Vec<IndexEntry>,
    /// Boundary between the historical and current regions.
    current_start: usize,
}

/// Summary of an index node's contents used when deciding how to split it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IndexComposition {
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
fn region_cmp(a: &IndexEntry, b: &IndexEntry) -> std::cmp::Ordering {
    a.key_range
        .lo
        .cmp(&b.key_range.lo)
        .then_with(|| a.time_range.lo.cmp(&b.time_range.lo))
}

impl IndexNode {
    /// Creates an empty index node covering `key_range` × `time_range`.
    pub fn new(key_range: KeyRange, time_range: TimeRange) -> Self {
        IndexNode {
            key_range,
            time_range,
            entries: Vec::new(),
            current_start: 0,
        }
    }

    /// Creates an index node from entries (re-partitioned and re-sorted
    /// defensively into the historical-then-current region layout).
    pub fn from_entries(
        key_range: KeyRange,
        time_range: TimeRange,
        entries: Vec<IndexEntry>,
    ) -> Self {
        let (mut historical, mut current): (Vec<_>, Vec<_>) = entries
            .into_iter()
            .partition(|e| !e.time_range.is_current());
        historical.sort_by(region_cmp);
        current.sort_by(region_cmp);
        let current_start = historical.len();
        historical.extend(current);
        IndexNode {
            key_range,
            time_range,
            entries: historical,
            current_start,
        }
    }

    /// The entries: the historical region (sorted by `(key lo, time lo)`)
    /// followed by the current region (sorted by `key lo`).
    pub fn entries(&self) -> &[IndexEntry] {
        &self.entries
    }

    /// The historical-region entries (closed time ranges), sorted by
    /// `(key_range.lo, time_range.lo)`.
    pub fn historical_region(&self) -> &[IndexEntry] {
        &self.entries[..self.current_start]
    }

    /// The current-region entries (open time ranges), sorted by
    /// `key_range.lo`; their key ranges are pairwise disjoint in any valid
    /// node.
    pub fn current_region(&self) -> &[IndexEntry] {
        &self.entries[self.current_start..]
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether there are no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether this node is current (open-ended time range).
    pub fn is_current(&self) -> bool {
        self.time_range.is_current()
    }

    /// Adds an entry, keeping the region partition and per-region sort
    /// order (incremental maintenance — no rebuild, no key clones).
    pub fn insert(&mut self, entry: IndexEntry) {
        let (region_lo, region_hi) = if entry.time_range.is_current() {
            (self.current_start, self.entries.len())
        } else {
            (0, self.current_start)
        };
        let offset = self.entries[region_lo..region_hi]
            .partition_point(|e| region_cmp(e, &entry) != std::cmp::Ordering::Greater);
        if !entry.time_range.is_current() {
            self.current_start += 1;
        }
        self.entries.insert(region_lo + offset, entry);
    }

    /// Removes the entry referencing `child` (there is at most one within a
    /// single index node), returning it.
    pub fn remove_child(&mut self, child: &NodeAddr) -> Option<IndexEntry> {
        let pos = self.entries.iter().position(|e| e.child == *child)?;
        if pos < self.current_start {
            self.current_start -= 1;
        }
        Some(self.entries.remove(pos))
    }

    /// The entry referencing `child`, if present.
    pub fn find_child_entry(&self, child: &NodeAddr) -> Option<&IndexEntry> {
        self.entries.iter().find(|e| e.child == *child)
    }

    /// Replaces the entry referencing `old_child` with `replacements`
    /// (2 for a plain split, 3 for a time-then-key split). Returns an error
    /// if the old child is not present.
    pub fn replace_child(
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
    /// `(key, ts)` partition point. Under `debug_assertions` the result is
    /// cross-checked against [`Self::find_child_linear`].
    pub fn find_child(&self, key: &Key, ts: Timestamp) -> Option<&IndexEntry> {
        let found = self.find_child_partitioned(key, ts);
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

    fn find_child_partitioned(&self, key: &Key, ts: Timestamp) -> Option<&IndexEntry> {
        // Current region: key ranges are pairwise disjoint and sorted by
        // lower bound, so the only candidate is the predecessor of the
        // first entry whose lower bound exceeds the probe key.
        let current = self.current_region();
        let p = current.partition_point(|e| e.key_range.lo <= *key);
        if p > 0 {
            let e = &current[p - 1];
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
        let historical = self.historical_region();
        let p = historical.partition_point(|e| (&e.key_range.lo, e.time_range.lo) <= (key, ts));
        historical[..p].iter().rev().find(|e| e.contains(key, ts))
    }

    /// Reference implementation of [`Self::find_child`]: a linear scan over
    /// every entry. Kept for the property tests and benchmarks that check
    /// and measure the partitioned routing against it.
    pub fn find_child_linear(&self, key: &Key, ts: Timestamp) -> Option<&IndexEntry> {
        self.entries.iter().find(|e| e.contains(key, ts))
    }

    /// The current-region entries whose key ranges overlap `range`, as a
    /// contiguous slice located by two binary searches.
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
    pub fn current_children_overlapping(&self, range: &KeyRange) -> &[IndexEntry] {
        let current = self.current_region();
        let end = current.partition_point(|e| range.hi.is_above(&e.key_range.lo));
        let mut start = current[..end].partition_point(|e| e.key_range.lo <= range.lo);
        if start > 0 && current[start - 1].key_range.overlaps(range) {
            start -= 1;
        }
        &current[start.min(end)..end]
    }

    /// The entries whose rectangle overlaps `keys × window` — the descent
    /// step of every key × time query. The current region contributes its
    /// binary-searched run; the historical region, sorted by
    /// `(key lo, time lo)`, ends at the first entry whose key range starts
    /// at or past `keys.hi`. No lower cut exists there: an old entry may
    /// span the whole key space.
    pub fn children_overlapping<'a>(
        &'a self,
        keys: &'a KeyRange,
        window: &'a TimeRange,
    ) -> impl Iterator<Item = &'a IndexEntry> + 'a {
        let historical = self.historical_region();
        let end = historical.partition_point(|e| keys.hi.is_above(&e.key_range.lo));
        historical[..end]
            .iter()
            .chain(self.current_children_overlapping(keys))
            .filter(move |e| e.overlaps(keys, window))
    }

    /// Summarizes the node for split decisions.
    pub fn composition(&self) -> IndexComposition {
        let current = self.entries.iter().filter(|e| e.is_current()).count();
        let min_current_start = self
            .entries
            .iter()
            .filter(|e| e.is_current())
            .map(|e| e.time_range.lo)
            .min();
        let mut candidates: Vec<&Key> = self
            .entries
            .iter()
            .map(|e| &e.key_range.lo)
            .filter(|k| **k > self.key_range.lo)
            .collect();
        candidates.sort();
        candidates.dedup();
        IndexComposition {
            total_entries: self.entries.len(),
            current_entries: current,
            historical_entries: self.entries.len() - current,
            min_current_start,
            key_split_candidates: candidates.len(),
        }
    }

    /// Encoded size in bytes.
    pub fn encoded_size(&self) -> usize {
        1 + 4
            + size::key_range(&self.key_range)
            + size::time_range(&self.time_range)
            + self
                .entries
                .iter()
                .map(IndexEntry::encoded_size)
                .sum::<usize>()
    }

    /// Encodes the node.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::with_capacity(self.encoded_size());
        w.put_u8(INDEX_NODE_TAG);
        w.put_u32(self.entries.len() as u32);
        w.put_key_range(&self.key_range);
        w.put_time_range(&self.time_range);
        for e in &self.entries {
            e.encode(&mut w);
        }
        debug_assert_eq!(w.len(), self.encoded_size());
        w.into_vec()
    }

    /// Decodes a node previously produced by [`Self::encode`].
    pub fn decode(bytes: &[u8]) -> TsbResult<Self> {
        let mut r = ByteReader::new(bytes);
        let tag = r.get_u8()?;
        if tag != INDEX_NODE_TAG {
            return Err(TsbError::corruption(format!(
                "expected index node tag {INDEX_NODE_TAG}, found {tag}"
            )));
        }
        let count = r.get_u32()? as usize;
        let key_range = r.get_key_range()?;
        let time_range = r.get_time_range()?;
        let mut entries = Vec::with_capacity(count);
        for _ in 0..count {
            entries.push(IndexEntry::decode(&mut r)?);
        }
        // Re-partitioning is a stable identity on the encoded (already
        // partitioned) order, so decode(encode(n)) == n.
        Ok(IndexNode::from_entries(key_range, time_range, entries))
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
    pub fn validate(&self) -> TsbResult<()> {
        if self.current_start > self.entries.len() {
            return Err(TsbError::invariant(format!(
                "index region boundary {} past entry count {}",
                self.current_start,
                self.entries.len()
            )));
        }
        for (i, e) in self.entries.iter().enumerate() {
            let in_current_region = i >= self.current_start;
            if e.time_range.is_current() != in_current_region {
                return Err(TsbError::invariant(format!(
                    "entry for child {} ({} x {}) is in the wrong index region",
                    e.child, e.key_range, e.time_range
                )));
            }
        }
        for region in [self.historical_region(), self.current_region()] {
            for w in region.windows(2) {
                if region_cmp(&w[0], &w[1]) == std::cmp::Ordering::Greater {
                    return Err(TsbError::invariant(format!(
                        "index region out of order: {} x {} before {} x {}",
                        w[0].key_range, w[0].time_range, w[1].key_range, w[1].time_range
                    )));
                }
            }
        }
        for e in &self.entries {
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
        for i in 0..self.entries.len() {
            for j in (i + 1)..self.entries.len() {
                let a = &self.entries[i];
                let b = &self.entries[j];
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
        if self.entries.is_empty() {
            return Ok(());
        }
        let mut key_points: Vec<Key> = vec![self.key_range.lo.clone()];
        let mut time_points: Vec<Timestamp> = vec![self.time_range.lo];
        for e in &self.entries {
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
        let decoded = IndexNode::decode(&bytes).unwrap();
        assert_eq!(decoded, n);
        let mut bad = bytes.clone();
        bad[0] = 77;
        assert!(IndexNode::decode(&bad).is_err());
        assert!(IndexNode::decode(&bytes[..10]).is_err());
    }

    #[test]
    fn empty_index_node_is_valid_and_has_no_child() {
        let n = IndexNode::new(KeyRange::full(), TimeRange::full());
        n.validate().unwrap();
        assert!(n.find_child(&Key::from_u64(1), Timestamp(1)).is_none());
        assert!(n.is_empty());
    }
}
