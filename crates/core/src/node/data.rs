//! Data (leaf) nodes.
//!
//! A data node holds record versions for a rectangle of the key × time
//! plane: a key range (§3.5's *key range*) crossed with a time range. The
//! current node for a key range has an open-ended time range and lives on
//! the magnetic store; historical nodes produced by time splits have a
//! closed time range and live on the WORM store.
//!
//! Unlike the WOBT (which must keep entries in insertion order because its
//! sectors are write-once), TSB-tree current nodes live on an erasable
//! device, so entries are maintained sorted by `(key, version order)`; that
//! is what makes "normal" B+-tree-style key splits possible (§3, §5).
//!
//! One wrinkle inherited from the time-split rule (§3.1, rule 3): a data
//! node's entries may include a version whose commit time is *earlier* than
//! the node's time-range start — the copy of the version that was valid at
//! the split time. [`DataNode::validate`] checks exactly that shape.
//!
//! # In memory a leaf is its page image
//!
//! The paper puts history on a write-once device so that a historical node,
//! once written, is only ever *read* (§2.2, §3.4). The in-memory leaf honours
//! that: it is the encoded entries exactly as they sit on the device, plus a
//! table of `u32` offsets, one per entry — not a `Vec` of owned versions.
//!
//! * **Decode** takes ownership of the buffer the device read returned and
//!   walks it once, checking every length and tag and recording where each
//!   entry starts. No key or value is copied; the cost is two allocations
//!   (the image, which already exists, and the offsets) whatever the entry
//!   count.
//! * **Queries** binary-search the offsets, comparing the probe against key
//!   bytes in place, and hand out a borrowed [`VersionRef`]. An owned
//!   [`Version`] is built only at the API boundary, for the one entry asked
//!   for.
//! * **Mutations** splice the encoded entry into the image and shift the
//!   offsets behind it. Copy-on-write of a leaf ([`Clone`]) is two `memcpy`s.
//! * **Encode** is a header followed by one `memcpy` of the entries, and the
//!   encoded size is known without looking at any entry.
//! * **Drop** frees two allocations.
//!
//! This is the only leaf representation, for current and historical nodes
//! alike; the on-device bytes are unchanged. Index nodes are built the same
//! way; what the two share — the offset arithmetic, the splice, the bound on
//! an entry count read from an image — is `node/image.rs`.

use std::fmt;

use tsb_common::encode::{invalid_tag, size, ByteReader};
use tsb_common::{
    Key, KeyBound, KeyRange, TimeRange, Timestamp, TsState, TsbError, TsbResult, TxnId, Version,
    VersionOrder,
};

use super::image::{le32, le64, past, EntryImage};

/// Node type tag burned into the first byte of every encoded node.
pub(crate) const DATA_NODE_TAG: u8 = 1;

/// Encoded bytes of an entry with an empty key and no value: key length,
/// state tag, timestamp or transaction id, value tag. No entry is smaller,
/// which bounds the entry count an image of a given length can hold.
const MIN_ENTRY_BYTES: usize = 4 + 1 + 8 + 1;

/// A record version borrowed from a leaf's image: [`Version`] with the key
/// and value as slices of the node's bytes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct VersionRef<'a> {
    /// The record key's bytes.
    pub key: &'a [u8],
    /// Commit timestamp or writer transaction id.
    pub state: TsState,
    /// The record payload; `None` is a tombstone.
    pub value: Option<&'a [u8]>,
}

impl VersionRef<'_> {
    /// Whether the version is a tombstone.
    pub(crate) fn is_tombstone(&self) -> bool {
        self.value.is_none()
    }

    /// The commit timestamp, if committed.
    pub(crate) fn commit_time(&self) -> Option<Timestamp> {
        self.state.commit_time()
    }

    /// The key as an owned [`Key`] (inline, allocation-free, for short keys).
    pub(crate) fn to_key(self) -> Key {
        Key::from_bytes(self.key)
    }

    /// Bytes this version occupies in an encoded node.
    pub(crate) fn encoded_size(&self) -> usize {
        MIN_ENTRY_BYTES + self.key.len() + self.value.map_or(0, |v| size::bytes(v.len()))
    }

    /// Copies the version out of the image.
    pub(crate) fn to_version(self) -> Version {
        Version {
            key: self.to_key(),
            state: self.state,
            value: self.value.map(<[u8]>::to_vec),
        }
    }
}

/// The `(key, state)` of the entry starting at the head of `entry`, and the
/// offset of its value tag. The caller guarantees `entry` starts at an
/// offset [`DataNode::decode`] or a mutation recorded.
#[inline]
fn entry_head(entry: &[u8]) -> (&[u8], TsState, usize) {
    let state_at = 4 + le32(entry, 0);
    let key = &entry[4..state_at];
    let word = le64(entry, state_at + 1);
    let state = match entry[state_at] {
        0 => TsState::Committed(Timestamp(word)),
        _ => TsState::Uncommitted(TxnId(word)),
    };
    (key, state, state_at + 9)
}

/// The entry at the head of `entry` and the bytes it occupies (same caller
/// guarantee as [`entry_head`]).
#[inline]
fn parse_entry(entry: &[u8]) -> (VersionRef<'_>, usize) {
    let (key, state, value_tag_at) = entry_head(entry);
    let (value, len) = match entry[value_tag_at] {
        0 => (None, value_tag_at + 1),
        _ => {
            let start = value_tag_at + 5;
            let end = start + le32(entry, value_tag_at + 1);
            (Some(&entry[start..end]), end)
        }
    };
    (VersionRef { key, state, value }, len)
}

/// Iterator over a run of encoded entries, front to back. Entries describe
/// their own length, so the walk never consults the offset table.
pub(crate) struct Versions<'a> {
    run: &'a [u8],
}

impl<'a> Iterator for Versions<'a> {
    type Item = VersionRef<'a>;

    #[inline]
    fn next(&mut self) -> Option<VersionRef<'a>> {
        if self.run.is_empty() {
            return None;
        }
        let (version, len) = parse_entry(self.run);
        self.run = &self.run[len..];
        Some(version)
    }
}

/// Walks the encoded entry at `at`, checking every length and tag the way
/// [`ByteReader::get_version`] does, without copying anything out, and
/// returns where the next entry starts. Fixed-size fields are read in runs,
/// one bounds check each: the key length; the key with the state tag,
/// timestamp or transaction id, and value tag behind it; then, for a value,
/// its length, and its bytes.
#[inline]
fn skip_entry(image: &[u8], at: usize) -> TsbResult<usize> {
    let key_at = past(image, at, 4)?;
    let tail = 1 + 8 + 1;
    let value_at = past(image, key_at, le32(image, at).saturating_add(tail))?;
    let state_tag = image[value_at - tail];
    if state_tag > 1 {
        return Err(invalid_tag("ts-state", state_tag));
    }
    match image[value_at - 1] {
        0 => Ok(value_at),
        1 => {
            let bytes_at = past(image, value_at, 4)?;
            past(image, bytes_at, le32(image, value_at))
        }
        t => Err(invalid_tag("version value", t)),
    }
}

/// The entry walk [`skip_entry`] replaced, one [`ByteReader`] field at a
/// time: the reference it is held to.
#[cfg(test)]
fn skip_entry_reference(r: &mut ByteReader<'_>) -> TsbResult<()> {
    let key_len = r.get_u32()? as usize;
    r.get_raw(key_len)?;
    match r.get_u8()? {
        0 | 1 => {}
        t => return Err(invalid_tag("ts-state", t)),
    }
    r.get_u64()?;
    match r.get_u8()? {
        0 => {}
        1 => {
            let value_len = r.get_u32()? as usize;
            r.get_raw(value_len)?;
        }
        t => return Err(invalid_tag("version value", t)),
    }
    Ok(())
}

/// Summary of what a full data node contains, used by the split policy
/// (§3.2: "the kind of split used depends on what is in the node").
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct DataComposition {
    /// Total number of entries.
    pub total_entries: usize,
    /// Number of distinct keys.
    pub distinct_keys: usize,
    /// Entries that are the newest committed version of their key and not a
    /// tombstone (the node's share of the *current database*).
    pub live_entries: usize,
    /// Committed entries superseded by a newer version (or tombstones):
    /// candidates for migration to the historical store.
    pub historical_entries: usize,
    /// Uncommitted entries (never migrated, erasable).
    pub uncommitted_entries: usize,
    /// Encoded bytes of all entries.
    pub entry_bytes: usize,
    /// Encoded bytes of the live + uncommitted entries only.
    pub live_entry_bytes: usize,
    /// Commit time of the newest version that *superseded* an older version
    /// of the same key (i.e. the last genuine update, as opposed to a fresh
    /// insert). `None` if every key has a single version.
    pub last_update_time: Option<Timestamp>,
    /// Median of the distinct commit timestamps present.
    pub median_commit_time: Option<Timestamp>,
    /// Smallest commit timestamp present.
    pub min_commit_time: Option<Timestamp>,
    /// Largest commit timestamp present.
    pub max_commit_time: Option<Timestamp>,
}

impl DataComposition {
    /// Fraction of committed entries that are live, in `[0, 1]`.
    /// Returns 1.0 for an empty node.
    pub(crate) fn live_fraction(&self) -> f64 {
        let committed = self.live_entries + self.historical_entries;
        if committed == 0 {
            1.0
        } else {
            self.live_entries as f64 / committed as f64
        }
    }
}

/// A leaf node holding record versions (see the module docs for the
/// in-memory layout).
#[derive(Clone)]
pub(crate) struct DataNode {
    /// The key range this node is responsible for.
    pub key_range: KeyRange,
    /// The time range this node is responsible for (`hi = +∞` ⇔ current).
    pub time_range: TimeRange,
    /// The encoded entries, sorted by `(key, version order)`.
    image: EntryImage,
}

impl PartialEq for DataNode {
    fn eq(&self, other: &Self) -> bool {
        self.key_range == other.key_range
            && self.time_range == other.time_range
            && self.image.entries() == other.image.entries()
    }
}

impl Eq for DataNode {}

impl fmt::Debug for DataNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DataNode")
            .field("key_range", &self.key_range)
            .field("time_range", &self.time_range)
            .field("entries", &self.to_versions())
            .finish()
    }
}

impl DataNode {
    /// Creates an empty data node covering `key_range` × `time_range`.
    pub(crate) fn new(key_range: KeyRange, time_range: TimeRange) -> Self {
        DataNode {
            key_range,
            time_range,
            image: EntryImage::default(),
        }
    }

    /// Creates the initial root data node covering the whole plane.
    pub(crate) fn initial_root() -> Self {
        DataNode::new(KeyRange::full(), TimeRange::full())
    }

    /// Creates a node from entries (used by splits). The entries are sorted
    /// defensively.
    pub(crate) fn from_entries(
        key_range: KeyRange,
        time_range: TimeRange,
        mut entries: Vec<Version>,
    ) -> Self {
        entries.sort_by(Version::sort_cmp);
        DataNode {
            key_range,
            time_range,
            image: EntryImage::build(entries.iter(), size::version, |v, w| w.put_version(v)),
        }
    }

    /// Number of entries.
    pub(crate) fn len(&self) -> usize {
        self.image.len()
    }

    /// Whether the node is a current node (open-ended time range).
    pub(crate) fn is_current(&self) -> bool {
        self.time_range.is_current()
    }

    /// Entry `i`, in `(key, version order)` order. Panics past the end.
    pub(crate) fn get(&self, i: usize) -> VersionRef<'_> {
        parse_entry(self.image.entry(i)).0
    }

    /// The entries, sorted by `(key, version order)`.
    pub(crate) fn iter(&self) -> Versions<'_> {
        self.run(0, self.len())
    }

    /// Entries `from..to`.
    fn run(&self, from: usize, to: usize) -> Versions<'_> {
        Versions {
            run: self.image.run(from, to),
        }
    }

    /// Every entry copied out as an owned [`Version`] — for the cold callers
    /// (splits, WAL replay) that rearrange a whole node.
    pub(crate) fn to_versions(&self) -> Vec<Version> {
        self.iter().map(|v| v.to_version()).collect()
    }

    /// The key of the entry at `offset` — an entry's first field, so a
    /// key-only probe reads nothing else.
    #[inline]
    fn key_at(&self, offset: u32) -> &[u8] {
        let entry = self.image.at(offset);
        &entry[4..4 + le32(entry, 0)]
    }

    #[inline]
    fn sort_key_at(&self, offset: u32) -> (&[u8], VersionOrder) {
        let (key, state, _) = entry_head(self.image.at(offset));
        (key, state.into())
    }

    /// Index of the first entry at or after `(key, order)`. Probes compare
    /// against the key bytes where they lie; nothing is cloned.
    #[inline]
    fn lower_bound(&self, key: &[u8], order: VersionOrder) -> usize {
        self.image
            .offsets()
            .partition_point(|&o| self.sort_key_at(o) < (key, order))
    }

    /// Index of the first entry whose key is at or after `key`.
    #[inline]
    fn key_lower_bound(&self, key: &[u8]) -> usize {
        self.image
            .offsets()
            .partition_point(|&o| self.key_at(o) < key)
    }

    /// Index one past the last entry of `i`'s key group.
    #[inline]
    fn group_end(&self, i: usize) -> usize {
        let offsets = self.image.offsets();
        let key = self.key_at(offsets[i]);
        offsets[i + 1..]
            .iter()
            .position(|&o| self.key_at(o) != key)
            .map_or(self.len(), |p| i + 1 + p)
    }

    /// Inserts (or replaces) a version. Replacement happens when an entry
    /// with the same `(key, state)` already exists — e.g. a transaction
    /// overwriting its own uncommitted write.
    ///
    /// Returns an error if the key lies outside the node's key range (that
    /// would indicate a routing bug in the caller).
    pub(crate) fn insert(&mut self, version: &Version) -> TsbResult<()> {
        if !self.key_range.contains(&version.key) {
            return Err(TsbError::internal(format!(
                "key {} routed to node with key range {}",
                version.key, self.key_range
            )));
        }
        let probe = (version.key.as_bytes(), version.order());
        let pos = self.lower_bound(probe.0, probe.1);
        if pos < self.len() && self.sort_key_at(self.image.offsets()[pos]) == probe {
            self.image.remove(pos);
        }
        self.image.insert(pos, |w| w.put_version(version));
        Ok(())
    }

    /// Copy-on-write [`Self::insert`]: a copy of this node with `version`
    /// inserted, allocated once at its final size. This is the put path —
    /// the cached leaf stays shared with concurrent readers.
    pub(crate) fn with_inserted(&self, version: &Version) -> TsbResult<Self> {
        let mut copy = DataNode {
            key_range: self.key_range.clone(),
            time_range: self.time_range,
            image: self.image.clone_with_room(size::version(version)),
        };
        copy.insert(version)?;
        Ok(copy)
    }

    /// Removes the uncommitted version of `key` written by `txn`, if any.
    pub(crate) fn remove_uncommitted(&mut self, key: &Key, txn: TxnId) -> Option<Version> {
        let probe = (key.as_bytes(), VersionOrder::Uncommitted(txn));
        let pos = self.lower_bound(probe.0, probe.1);
        if pos == self.len() || self.sort_key_at(self.image.offsets()[pos]) != probe {
            return None;
        }
        let removed = self.get(pos).to_version();
        self.image.remove(pos);
        Some(removed)
    }

    /// The uncommitted version of `key`, if any (written by any transaction —
    /// there is at most one, because writers conflict on uncommitted keys).
    pub(crate) fn find_uncommitted(&self, key: &Key) -> Option<VersionRef<'_>> {
        // Uncommitted versions sort after every committed one of their key.
        let pos = self.lower_bound(key.as_bytes(), VersionOrder::Uncommitted(TxnId(0)));
        (pos < self.len())
            .then(|| self.get(pos))
            .filter(|v| v.key == key.as_bytes())
    }

    /// All versions of `key` in this node, in version order.
    pub(crate) fn versions_of(&self, key: &Key) -> Versions<'_> {
        let start = self.key_lower_bound(key.as_bytes());
        let end = self
            .image
            .offsets()
            .partition_point(|&o| self.key_at(o) <= key.as_bytes());
        self.run(start, end)
    }

    /// All versions of the keys in `keys`, in `(key, version order)` order:
    /// two binary searches, then a walk of exactly the matching run.
    pub(crate) fn versions_in(&self, keys: &KeyRange) -> Versions<'_> {
        let end = match &keys.hi {
            KeyBound::Finite(hi) => self.key_lower_bound(hi.as_bytes()),
            KeyBound::PlusInfinity => self.len(),
        };
        let start = self.key_lower_bound(keys.lo.as_bytes()).min(end);
        self.run(start, end)
    }

    /// The version of `key` governing time `ts`: the committed version with
    /// the largest commit time ≤ `ts`. Uncommitted versions are invisible.
    pub(crate) fn find_as_of(&self, key: &Key, ts: Timestamp) -> Option<VersionRef<'_>> {
        // Within a key, committed versions sort by commit time and before
        // every uncommitted one, so the governing version is the last entry
        // at or below `(key, Committed(ts))` — if that entry is of this key.
        let probe = (key.as_bytes(), VersionOrder::Committed(ts));
        let end = self
            .image
            .offsets()
            .partition_point(|&o| self.sort_key_at(o) <= probe);
        let candidate = self.get(end.checked_sub(1)?);
        (candidate.key == key.as_bytes()).then_some(candidate)
    }

    /// The newest committed version of `key` (which may be a tombstone).
    pub(crate) fn find_latest_committed(&self, key: &Key) -> Option<VersionRef<'_>> {
        self.find_as_of(key, Timestamp::MAX)
    }

    /// The distinct keys present, in order.
    #[cfg(test)]
    pub(crate) fn distinct_keys(&self) -> Vec<Key> {
        let mut keys = Vec::new();
        let mut i = 0;
        while i < self.len() {
            keys.push(self.get(i).to_key());
            i = self.group_end(i);
        }
        keys
    }

    /// Summarizes the node contents for the split policy.
    pub(crate) fn composition(&self) -> DataComposition {
        let mut distinct_keys = 0usize;
        let mut live = 0usize;
        let mut historical = 0usize;
        let mut uncommitted = 0usize;
        let mut live_bytes = 0usize;
        let mut last_update: Option<Timestamp> = None;
        let mut commit_times: Vec<Timestamp> = Vec::new();

        let mut i = 0;
        while i < self.len() {
            distinct_keys += 1;
            let group_end = self.group_end(i);
            // Newest committed version in the group, if any.
            let latest_committed = (i..group_end)
                .rev()
                .find(|&j| self.get(j).state.is_committed());
            let mut versions_seen = 0usize;
            for j in i..group_end {
                let e = self.get(j);
                match e.state {
                    TsState::Committed(t) => {
                        commit_times.push(t);
                        versions_seen += 1;
                        if Some(j) == latest_committed && !e.is_tombstone() {
                            live += 1;
                            live_bytes += e.encoded_size();
                        } else {
                            historical += 1;
                        }
                        // A version that supersedes an earlier one is an "update".
                        if versions_seen > 1 {
                            last_update = Some(last_update.map_or(t, |cur| cur.max(t)));
                        }
                    }
                    TsState::Uncommitted(_) => {
                        uncommitted += 1;
                        live_bytes += e.encoded_size();
                    }
                }
            }
            i = group_end;
        }

        commit_times.sort();
        commit_times.dedup();
        let median = if commit_times.is_empty() {
            None
        } else {
            Some(commit_times[commit_times.len() / 2])
        };

        DataComposition {
            total_entries: self.len(),
            distinct_keys,
            live_entries: live,
            historical_entries: historical,
            uncommitted_entries: uncommitted,
            entry_bytes: self.image.entries().len(),
            live_entry_bytes: live_bytes,
            last_update_time: last_update,
            median_commit_time: median,
            min_commit_time: commit_times.first().copied(),
            max_commit_time: commit_times.last().copied(),
        }
    }

    /// Encoded size of the node in bytes — no entry is looked at.
    pub(crate) fn encoded_size(&self) -> usize {
        self.image.encoded_size(&self.key_range, &self.time_range)
    }

    /// Encodes the node: the header, then the entries copied as they are.
    pub(crate) fn encode(&self) -> Vec<u8> {
        self.image
            .encode(DATA_NODE_TAG, &self.key_range, &self.time_range)
    }

    /// Decodes a node previously produced by [`Self::encode`], keeping
    /// `image` — the buffer the device read returned — as the node's body.
    ///
    /// Every entry is walked once to check its lengths and tags and to
    /// record where it starts; nothing is copied out. Bytes after the last
    /// entry are dropped.
    pub(crate) fn decode(image: Vec<u8>) -> TsbResult<Self> {
        let mut r = ByteReader::new(&image);
        let (count, key_range, time_range) =
            EntryImage::read_header(&mut r, DATA_NODE_TAG, "data")?;
        let walked = EntryImage::walk(&image, r.position(), count, MIN_ENTRY_BYTES, |at| {
            skip_entry(&image, at)
        })?;
        Ok(DataNode {
            key_range,
            time_range,
            image: walked.into_image(image),
        })
    }

    /// [`Self::decode`] through the reference walk
    /// ([`EntryImage::walk_reference`]).
    #[cfg(test)]
    pub(super) fn decode_reference(image: Vec<u8>) -> TsbResult<Self> {
        let mut r = ByteReader::new(&image);
        let (count, key_range, time_range) =
            EntryImage::read_header(&mut r, DATA_NODE_TAG, "data")?;
        let walked =
            EntryImage::walk_reference(&mut r, count, MIN_ENTRY_BYTES, skip_entry_reference)?;
        Ok(DataNode {
            key_range,
            time_range,
            image: walked.into_image(image),
        })
    }

    /// What the decoding walk recorded ([`EntryImage::shape`]).
    #[cfg(test)]
    pub(super) fn image_shape(&self) -> (usize, &[u32], usize) {
        self.image.shape()
    }

    /// Checks the node's internal invariants:
    ///
    /// * entries are sorted by `(key, version order)` and unique,
    /// * every key lies in the node's key range,
    /// * every commit time is below the time range's upper bound,
    /// * at most one version per key has a commit time below the time range's
    ///   lower bound, and it is that key's earliest version in the node (the
    ///   rule-3 duplicate of the version valid at the split time),
    /// * historical (closed time range) nodes contain no uncommitted entries.
    pub(crate) fn validate(&self) -> TsbResult<()> {
        for (i, pair) in self.image.offsets().windows(2).enumerate() {
            if self.sort_key_at(pair[0]) >= self.sort_key_at(pair[1]) {
                return Err(TsbError::invariant(format!(
                    "data node entries out of order: {} then {}",
                    self.get(i).to_version(),
                    self.get(i + 1).to_version()
                )));
            }
        }
        for (idx, e) in self.iter().enumerate() {
            let key = e.to_key();
            if !self.key_range.contains(&key) {
                return Err(TsbError::invariant(format!(
                    "entry {} outside node key range {}",
                    e.to_version(),
                    self.key_range
                )));
            }
            if let Some(t) = e.commit_time() {
                if !self.time_range.hi.is_above(t) {
                    return Err(TsbError::invariant(format!(
                        "entry {} at or beyond node time-range end {}",
                        e.to_version(),
                        self.time_range
                    )));
                }
                // Sorted and unique (checked above), so "its key's earliest
                // entry" is "the first of its group" — which also rules out
                // a second pre-range entry for the same key.
                if t < self.time_range.lo && idx > 0 && self.get(idx - 1).key == e.key {
                    return Err(TsbError::invariant(format!(
                        "entry {} predates node time range {} but is not its key's earliest entry",
                        e.to_version(),
                        self.time_range
                    )));
                }
            } else if !self.is_current() {
                return Err(TsbError::invariant(format!(
                    "historical node contains uncommitted entry {}",
                    e.to_version()
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(key: u64, ts: u64, val: &str) -> Version {
        Version::committed(key, Timestamp(ts), val.as_bytes().to_vec())
    }

    fn sample_node() -> DataNode {
        let mut n = DataNode::initial_root();
        n.insert(&v(50, 1, "Joe")).unwrap();
        n.insert(&v(60, 2, "Pete")).unwrap();
        n.insert(&v(60, 4, "Pete v2")).unwrap();
        n.insert(&v(70, 3, "Mary")).unwrap();
        n.insert(&Version::uncommitted(80u64, TxnId(9), b"Sue".to_vec()))
            .unwrap();
        n
    }

    #[test]
    fn entries_stay_sorted_and_replace_on_same_state() {
        let n = sample_node();
        let keys: Vec<_> = n.iter().map(|e| e.to_key()).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        n.validate().unwrap();

        // Same (key, state) replaces.
        let mut n = sample_node();
        n.insert(&v(60, 4, "Pete rewritten")).unwrap();
        assert_eq!(n.len(), 5);
        assert_eq!(
            n.find_as_of(&Key::from_u64(60), Timestamp(9))
                .unwrap()
                .value,
            Some(&b"Pete rewritten"[..])
        );
    }

    #[test]
    fn out_of_range_key_is_rejected() {
        let mut n = DataNode::new(
            KeyRange::bounded(Key::from_u64(10), Key::from_u64(20)),
            TimeRange::full(),
        );
        assert!(n.insert(&v(25, 1, "x")).is_err());
        assert!(n.insert(&v(15, 1, "ok")).is_ok());
    }

    #[test]
    fn as_of_semantics_are_stepwise_constant() {
        let n = sample_node();
        let k = Key::from_u64(60);
        // Before the first version: not present.
        assert!(n.find_as_of(&k, Timestamp(1)).is_none());
        // Between versions: the earlier version governs (Figure 1).
        assert_eq!(
            n.find_as_of(&k, Timestamp(3)).unwrap().value,
            Some(&b"Pete"[..])
        );
        // At and after the update.
        assert_eq!(
            n.find_as_of(&k, Timestamp(4)).unwrap().value,
            Some(&b"Pete v2"[..])
        );
        assert_eq!(
            n.find_as_of(&k, Timestamp(100)).unwrap().value,
            Some(&b"Pete v2"[..])
        );
    }

    #[test]
    fn uncommitted_versions_are_invisible_to_reads_but_findable() {
        let n = sample_node();
        let k = Key::from_u64(80);
        assert!(n.find_as_of(&k, Timestamp(100)).is_none());
        assert!(n.find_latest_committed(&k).is_none());
        assert!(n.find_uncommitted(&k).is_some());
        assert_eq!(
            n.find_uncommitted(&k).unwrap().state.txn_id(),
            Some(TxnId(9))
        );
    }

    #[test]
    fn remove_uncommitted_only_removes_the_right_entry() {
        let mut n = sample_node();
        assert!(n.remove_uncommitted(&Key::from_u64(80), TxnId(1)).is_none());
        let removed = n.remove_uncommitted(&Key::from_u64(80), TxnId(9)).unwrap();
        assert_eq!(removed.key, Key::from_u64(80));
        assert_eq!(n.len(), 4);
        n.validate().unwrap();
    }

    #[test]
    fn composition_reflects_live_vs_historical() {
        let n = sample_node();
        let c = n.composition();
        assert_eq!(c.total_entries, 5);
        assert_eq!(c.distinct_keys, 4);
        assert_eq!(c.live_entries, 3); // 50, 60@4, 70
        assert_eq!(c.historical_entries, 1); // 60@2
        assert_eq!(c.uncommitted_entries, 1);
        assert_eq!(c.last_update_time, Some(Timestamp(4)));
        assert_eq!(c.min_commit_time, Some(Timestamp(1)));
        assert_eq!(c.max_commit_time, Some(Timestamp(4)));
        assert!(c.live_fraction() > 0.7 && c.live_fraction() < 0.8);

        // A tombstone as the latest version means the key is not live.
        let mut n = DataNode::initial_root();
        n.insert(&v(1, 1, "a")).unwrap();
        n.insert(&Version::tombstone(1u64, Timestamp(2))).unwrap();
        let c = n.composition();
        assert_eq!(c.live_entries, 0);
        assert_eq!(c.historical_entries, 2);
        assert_eq!(c.last_update_time, Some(Timestamp(2)));
    }

    #[test]
    fn empty_node_composition() {
        let n = DataNode::initial_root();
        let c = n.composition();
        assert_eq!(c.total_entries, 0);
        assert_eq!(c.live_fraction(), 1.0);
        assert_eq!(c.median_commit_time, None);
        assert_eq!(n.len(), 0);
    }

    #[test]
    fn encode_decode_round_trip() {
        let n = sample_node();
        let bytes = n.encode();
        assert_eq!(bytes.len(), n.encoded_size());
        let decoded = DataNode::decode(bytes.clone()).unwrap();
        assert_eq!(decoded, n);

        // Wrong tag is rejected.
        let mut bad = bytes.clone();
        bad[0] = 99;
        assert!(DataNode::decode(bad).is_err());
        // Truncation is rejected.
        assert!(DataNode::decode(bytes[..bytes.len() - 3].to_vec()).is_err());
    }

    #[test]
    fn validate_catches_rule3_violations() {
        // An entry before the time-range start must be its key's earliest
        // entry; two such entries for one key are invalid.
        let node = DataNode::from_entries(
            KeyRange::full(),
            TimeRange::from(Timestamp(10)),
            vec![v(1, 3, "a"), v(1, 5, "b"), v(1, 12, "c")],
        );
        assert!(node.validate().is_err());

        // A single pre-split entry per key is the legal rule-3 duplicate.
        let node = DataNode::from_entries(
            KeyRange::full(),
            TimeRange::from(Timestamp(10)),
            vec![v(1, 5, "b"), v(1, 12, "c"), v(2, 11, "d")],
        );
        node.validate().unwrap();
    }

    #[test]
    fn validate_catches_time_range_end_violation_and_uncommitted_in_historical() {
        let node = DataNode::from_entries(
            KeyRange::full(),
            TimeRange::bounded(Timestamp(0), Timestamp(5)),
            vec![v(1, 7, "late")],
        );
        assert!(node.validate().is_err());

        let node = DataNode::from_entries(
            KeyRange::full(),
            TimeRange::bounded(Timestamp(0), Timestamp(5)),
            vec![Version::uncommitted(1u64, TxnId(1), b"x".to_vec())],
        );
        assert!(node.validate().is_err());
    }

    #[test]
    fn versions_of_iterates_only_that_key() {
        let n = sample_node();
        let versions: Vec<_> = n.versions_of(&Key::from_u64(60)).collect();
        assert_eq!(versions.len(), 2);
        assert!(versions.iter().all(|e| e.to_key() == Key::from_u64(60)));
        assert_eq!(n.versions_of(&Key::from_u64(99)).count(), 0);
        assert_eq!(n.distinct_keys().len(), 4);
    }
}
