//! What both node kinds are in memory: their encoded entries, as they sit on
//! the device, plus where each one starts.
//!
//! The paper puts history on a write-once device so that a historical node,
//! once written, is only ever *read* (§2.2, §3.4). [`EntryImage`] honours
//! that: a node read from a device keeps the read's buffer and records one
//! `u32` offset per entry — no entry is rebuilt into owned values, so a
//! cache miss costs two allocations (the buffer, which already exists, and
//! the table) whatever the entry count, and an eviction two frees.
//!
//! This module knows nothing of what an entry *is*: [`super::data`] and
//! [`super::index`] parse the bytes an offset points at. It owns what they
//! share — the offset arithmetic, splicing an entry in or out, the bound on
//! an entry count read from an unchecksummed image, and the node header and
//! body layout of [`encode`](EntryImage::encode).

use tsb_common::encode::{size, ByteReader, ByteWriter};
use tsb_common::{KeyRange, TimeRange, TsbError, TsbResult};

/// Reads the little-endian `u32` at `at` as a length.
#[inline]
pub(super) fn le32(bytes: &[u8], at: usize) -> usize {
    let mut word = [0u8; 4];
    word.copy_from_slice(&bytes[at..at + 4]);
    u32::from_le_bytes(word) as usize
}

/// Reads the little-endian `u64` at `at`.
#[inline]
pub(super) fn le64(bytes: &[u8], at: usize) -> u64 {
    let mut word = [0u8; 8];
    word.copy_from_slice(&bytes[at..at + 8]);
    u64::from_le_bytes(word)
}

/// The offset just past the `n` bytes at `at` (at most `image.len()`), or
/// the truncation error when the image ends before them: one bounds check
/// for a whole run of fixed-size fields, which is how the decoders' entry
/// walks step forward.
#[inline]
pub(super) fn past(image: &[u8], at: usize, n: usize) -> TsbResult<usize> {
    if n <= image.len() - at {
        Ok(at + n)
    } else {
        Err(truncated(image, at, n))
    }
}

/// Error construction stays out of line so [`past`] inlines to a compare
/// and a branch.
#[cold]
#[inline(never)]
fn truncated(image: &[u8], at: usize, n: usize) -> TsbError {
    TsbError::corruption(format!(
        "truncated node entry: need {n} bytes at offset {at}, only {} remaining",
        image.len() - at
    ))
}

/// A node's encoded entries, back to back, and the offset of each.
#[derive(Clone, Default)]
pub(super) struct EntryImage {
    /// The entries run from `entries_start` to the end. An image taken over
    /// from a device read still has the node header it arrived with in
    /// front; nothing reads that again — the node's `key_range` and
    /// `time_range` fields are the truth.
    bytes: Vec<u8>,
    entries_start: usize,
    /// Where each entry starts in `bytes`, ascending.
    offsets: Vec<u32>,
}

impl EntryImage {
    /// Encodes `entries`, in the order given, into a fresh image.
    pub(super) fn build<'a, T: 'a>(
        entries: impl Iterator<Item = &'a T> + Clone,
        encoded_size: impl Fn(&T) -> usize,
        encode: impl Fn(&T, &mut ByteWriter),
    ) -> Self {
        let mut bytes = ByteWriter::with_capacity(entries.clone().map(&encoded_size).sum());
        let mut offsets = Vec::with_capacity(entries.size_hint().0);
        for entry in entries {
            offsets.push(table_offset(bytes.len()));
            encode(entry, &mut bytes);
        }
        EntryImage {
            bytes: bytes.into_vec(),
            entries_start: 0,
            offsets,
        }
    }

    /// Reads the header [`Self::encode`] writes — tag, entry count, key
    /// range, time range — returning the last three.
    pub(super) fn read_header(
        r: &mut ByteReader<'_>,
        tag: u8,
        kind: &str,
    ) -> TsbResult<(usize, KeyRange, TimeRange)> {
        let found = r.get_u8()?;
        if found != tag {
            return Err(TsbError::corruption(format!(
                "expected {kind} node tag {tag}, found {found}"
            )));
        }
        let count = r.get_u32()? as usize;
        Ok((count, r.get_interval()?, r.get_interval()?))
    }

    /// Walks the `count` entries of `image` that start at `entries_start`,
    /// just past the header, recording where each starts. `skip_entry`
    /// takes an entry's offset, must check every length and tag of that
    /// entry, and returns where the next one starts.
    ///
    /// `count` comes from an unchecksummed image, so it is held to what the
    /// remaining bytes could contain (`min_entry_bytes` each) *before*
    /// anything is allocated for it.
    pub(super) fn walk(
        image: &[u8],
        entries_start: usize,
        count: usize,
        min_entry_bytes: usize,
        mut skip_entry: impl FnMut(usize) -> TsbResult<usize>,
    ) -> TsbResult<Walked> {
        if u32::try_from(image.len()).is_err() {
            return Err(TsbError::corruption(format!(
                "node image of {} bytes exceeds the offset range",
                image.len()
            )));
        }
        let remaining = image.len() - entries_start;
        if count > remaining / min_entry_bytes {
            return Err(TsbError::corruption(format!(
                "node claims {count} entries in {remaining} bytes"
            )));
        }
        let mut offsets = Vec::with_capacity(count);
        let mut at = entries_start;
        for _ in 0..count {
            offsets.push(at as u32);
            at = skip_entry(at)?;
        }
        Ok(Walked {
            entries_start,
            offsets,
            end: at,
        })
    }

    /// The walk [`Self::walk`] replaced, through a [`ByteReader`] one field
    /// at a time: the reference the tight walks are held to. `skip_entry`
    /// must check every length and tag of one entry and leave `r` at the
    /// next.
    #[cfg(test)]
    pub(super) fn walk_reference<'a>(
        r: &mut ByteReader<'a>,
        count: usize,
        min_entry_bytes: usize,
        mut skip_entry: impl FnMut(&mut ByteReader<'a>) -> TsbResult<()>,
    ) -> TsbResult<Walked> {
        let image_len = r.position() + r.remaining();
        if u32::try_from(image_len).is_err() {
            return Err(TsbError::corruption(format!(
                "node image of {image_len} bytes exceeds the offset range"
            )));
        }
        if count > r.remaining() / min_entry_bytes {
            return Err(TsbError::corruption(format!(
                "node claims {count} entries in {} bytes",
                r.remaining()
            )));
        }
        let entries_start = r.position();
        let mut offsets = Vec::with_capacity(count);
        for _ in 0..count {
            offsets.push(r.position() as u32);
            skip_entry(r)?;
        }
        Ok(Walked {
            entries_start,
            offsets,
            end: r.position(),
        })
    }

    /// A copy with room for one more entry of `entry_bytes` bytes, so that
    /// the insert a copy-on-write clone is made for does not reallocate
    /// what was just allocated.
    pub(super) fn clone_with_room(&self, entry_bytes: usize) -> Self {
        let mut bytes = Vec::with_capacity(self.bytes.len() + entry_bytes);
        bytes.extend_from_slice(&self.bytes);
        let mut offsets = Vec::with_capacity(self.offsets.len() + 1);
        offsets.extend_from_slice(&self.offsets);
        EntryImage {
            bytes,
            entries_start: self.entries_start,
            offsets,
        }
    }

    /// Where the entries start, each entry's offset, and where the image
    /// ends: what a walk recorded.
    #[cfg(test)]
    pub(super) fn shape(&self) -> (usize, &[u32], usize) {
        (self.entries_start, &self.offsets, self.bytes.len())
    }

    /// Number of entries.
    pub(super) fn len(&self) -> usize {
        self.offsets.len()
    }

    /// The offset table: where each entry starts, for binary searches that
    /// probe with [`Self::at`].
    pub(super) fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// The image from `offset` (an entry's start) on.
    #[inline]
    pub(super) fn at(&self, offset: u32) -> &[u8] {
        &self.bytes[offset as usize..]
    }

    /// The image from entry `i` on. Panics past the end.
    #[inline]
    pub(super) fn entry(&self, i: usize) -> &[u8] {
        self.at(self.offsets[i])
    }

    /// Where entry `i` starts; the image's end for `i == len`.
    fn offset(&self, i: usize) -> usize {
        self.offsets
            .get(i)
            .map_or(self.bytes.len(), |&o| o as usize)
    }

    /// The bytes of entries `from..to`.
    pub(super) fn run(&self, from: usize, to: usize) -> &[u8] {
        &self.bytes[self.offset(from)..self.offset(to)]
    }

    /// Every entry's bytes.
    pub(super) fn entries(&self) -> &[u8] {
        &self.bytes[self.entries_start..]
    }

    /// Splices the entry `encode` writes in as entry `pos`: it is encoded
    /// at the end and rotated into place — one pass over the tail, no
    /// scratch buffer — and the offsets behind it shift.
    pub(super) fn insert(&mut self, pos: usize, encode: impl FnOnce(&mut ByteWriter)) {
        let (at, end) = (self.offset(pos), self.bytes.len());
        let mut bytes = ByteWriter::from_vec(std::mem::take(&mut self.bytes));
        encode(&mut bytes);
        self.bytes = bytes.into_vec();
        // The whole image fits the table, hence every offset in it does.
        let added = table_offset(self.bytes.len()) - end as u32;
        self.bytes[at..].rotate_right(added as usize);
        self.offsets.insert(pos, at as u32);
        for o in &mut self.offsets[pos + 1..] {
            *o += added;
        }
    }

    /// Cuts entry `pos` out; the offsets behind it shift.
    pub(super) fn remove(&mut self, pos: usize) {
        let (at, end) = (self.offset(pos), self.offset(pos + 1));
        self.bytes.drain(at..end);
        self.offsets.remove(pos);
        for o in &mut self.offsets[pos..] {
            *o -= (end - at) as u32;
        }
    }

    /// Encoded size of a node with this body — no entry is looked at.
    pub(super) fn encoded_size(&self, key_range: &KeyRange, time_range: &TimeRange) -> usize {
        // tag + entry count + key range + time range + entries
        1 + 4 + size::interval(key_range) + size::interval(time_range) + self.entries().len()
    }

    /// Encodes a node: the header, then the entries copied as they are.
    pub(super) fn encode(&self, tag: u8, key_range: &KeyRange, time_range: &TimeRange) -> Vec<u8> {
        let mut w = ByteWriter::with_capacity(self.encoded_size(key_range, time_range));
        w.put_u8(tag);
        w.put_u32(self.len() as u32);
        w.put_interval(key_range);
        w.put_interval(time_range);
        w.put_raw(self.entries());
        w.into_vec()
    }
}

/// What [`EntryImage::walk`] found, to be joined with the buffer once the
/// reader's borrow of it has ended.
pub(super) struct Walked {
    entries_start: usize,
    offsets: Vec<u32>,
    end: usize,
}

impl Walked {
    /// The image: `bytes` — the buffer the device read returned, which the
    /// walk read — taken over as the entries' home, cut off after the last
    /// entry.
    pub(super) fn into_image(self, mut bytes: Vec<u8>) -> EntryImage {
        bytes.truncate(self.end);
        EntryImage {
            bytes,
            entries_start: self.entries_start,
            offsets: self.offsets,
        }
    }
}

/// An offset as the table stores it. Every node that reaches a device fits
/// a page, and [`EntryImage::walk`] refuses an image past `u32`.
fn table_offset(at: usize) -> u32 {
    u32::try_from(at).expect("a node image is bounded by its page size, far below 4 GiB")
}
