//! Golden node images and a corruption sweep over them.
//!
//! [`LEAF`] and [`INDEX`] were produced by the commit before the leaf became
//! its page image (`DataNode::encode` / `IndexNode::encode` over owned
//! entries), so they pin the on-device format from outside this code: they
//! must decode, answer, and re-encode to exactly themselves. The sweep then
//! damages them every way a device can and holds the decoders to two rules:
//! damage is `Err(Corruption)`, never a panic or an abort, and nothing the
//! old entry-by-entry decoders rejected is accepted now.

use tsb_common::encode::ByteReader;
use tsb_common::{Key, KeyBound, KeyRange, TimeRange, Timestamp, TsbError, TsbResult, TxnId};
use tsb_storage::{HistAddr, PageId};

use super::{DataNode, IndexEntry, IndexNode, Node, NodeAddr};

/// A current leaf over `[10, "zebra-key-…")` × `[5, +∞)` holding: 50@3 (a
/// pre-range rule-3 copy), 60@6, 60@9 with an empty value, a tombstone 60@12,
/// an uncommitted 60 by txn 7, 70@8 with 40 bytes, an uncommitted tombstone
/// of 80 by txn 9, and a 36-byte key (too long for the inline form) @11.
const LEAF: [u8; 353] = [
    0x01, 0x08, 0x00, 0x00, 0x00, 0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x0a, 0x00, 0x24, 0x00, 0x00, 0x00, 0x7a, 0x65, 0x62, 0x72, 0x61, 0x2d, 0x6b, 0x65, 0x79, 0x2d,
    0x74, 0x68, 0x61, 0x74, 0x2d, 0x69, 0x73, 0x2d, 0x6c, 0x6f, 0x6e, 0x67, 0x65, 0x72, 0x2d, 0x74,
    0x68, 0x61, 0x6e, 0x2d, 0x69, 0x6e, 0x6c, 0x69, 0x6e, 0x65, 0x05, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x01, 0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x32, 0x00,
    0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x03, 0x00, 0x00, 0x00, 0x4a, 0x6f, 0x65,
    0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x3c, 0x00, 0x06, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x04, 0x00, 0x00, 0x00, 0x50, 0x65, 0x74, 0x65, 0x08, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x3c, 0x00, 0x09, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x3c, 0x00, 0x0c, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x08, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x3c, 0x01, 0x07, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x01, 0x07, 0x00, 0x00, 0x00, 0x70, 0x65, 0x6e, 0x64, 0x69, 0x6e, 0x67, 0x08,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x46, 0x00, 0x08, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x01, 0x28, 0x00, 0x00, 0x00, 0xab, 0xab, 0xab, 0xab, 0xab, 0xab, 0xab,
    0xab, 0xab, 0xab, 0xab, 0xab, 0xab, 0xab, 0xab, 0xab, 0xab, 0xab, 0xab, 0xab, 0xab, 0xab, 0xab,
    0xab, 0xab, 0xab, 0xab, 0xab, 0xab, 0xab, 0xab, 0xab, 0xab, 0xab, 0xab, 0xab, 0xab, 0xab, 0xab,
    0xab, 0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x50, 0x01, 0x09, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x24, 0x00, 0x00, 0x00, 0x61, 0x2d, 0x6c, 0x6f, 0x6e,
    0x67, 0x2d, 0x6b, 0x65, 0x79, 0x2d, 0x73, 0x70, 0x69, 0x6c, 0x6c, 0x69, 0x6e, 0x67, 0x2d, 0x74,
    0x6f, 0x2d, 0x74, 0x68, 0x65, 0x2d, 0x68, 0x65, 0x61, 0x70, 0x2d, 0x30, 0x30, 0x30, 0x31, 0x00,
    0x0b, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x04, 0x00, 0x00, 0x00, 0x68, 0x65, 0x61,
    0x70,
];

/// An index node over `[-∞, 500)` × all time: three historical children
/// (everything before 4; `[100, 700)` and `[700, +∞)` over `[4, 9)`, both
/// sticking out of the node's key range) then two current ones (`[-∞, 100)`
/// from 4 on page 11, `[100, 500)` from 9 on page 12).
const INDEX: [u8; 242] = [
    0x02, 0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x08, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x01, 0xf4, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00,
    0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x2c, 0x01,
    0x00, 0x00, 0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x64, 0x00, 0x08,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0xbc, 0x04, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x09, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x04, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x09, 0x03, 0x00, 0x00, 0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x02, 0xbc, 0x01, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x09,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x7b, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x64, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x0b,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x64, 0x00, 0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0xf4,
    0x09, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x0c, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00,
];

const LONG_KEY: &str = "a-long-key-spilling-to-the-heap-0001";

#[test]
fn golden_leaf_decodes_answers_and_reencodes_to_itself() {
    let leaf = DataNode::decode(LEAF.to_vec()).unwrap();
    assert_eq!(
        leaf.key_range,
        KeyRange::bounded(
            Key::from_u64(10),
            Key::from("zebra-key-that-is-longer-than-inline")
        )
    );
    assert_eq!(leaf.time_range, TimeRange::from(Timestamp(5)));
    assert_eq!(leaf.len(), 8);
    leaf.validate().unwrap();

    let k60 = Key::from_u64(60);
    assert!(leaf.find_as_of(&k60, Timestamp(5)).is_none());
    assert_eq!(
        leaf.find_as_of(&k60, Timestamp(8)).unwrap().value,
        Some(&b"Pete"[..])
    );
    assert_eq!(
        leaf.find_as_of(&k60, Timestamp(9)).unwrap().value,
        Some(&b""[..])
    );
    let latest = leaf.find_latest_committed(&k60).unwrap();
    assert!(latest.is_tombstone());
    assert_eq!(latest.commit_time(), Some(Timestamp(12)));
    let pending = leaf.find_uncommitted(&k60).unwrap();
    assert_eq!(pending.state.txn_id(), Some(TxnId(7)));
    assert_eq!(pending.value, Some(&b"pending"[..]));
    assert_eq!(leaf.versions_of(&k60).count(), 4);
    let gone = leaf.find_uncommitted(&Key::from_u64(80)).unwrap();
    assert!(gone.is_tombstone());
    assert_eq!(gone.state.txn_id(), Some(TxnId(9)));
    assert_eq!(
        leaf.find_as_of(&Key::from_u64(50), Timestamp(100))
            .unwrap()
            .value,
        Some(&b"Joe"[..])
    );
    assert_eq!(
        leaf.find_as_of(&Key::from_u64(70), Timestamp(8))
            .unwrap()
            .value,
        Some(&[0xAB; 40][..])
    );
    assert_eq!(
        leaf.find_latest_committed(&Key::from(LONG_KEY))
            .unwrap()
            .value,
        Some(&b"heap"[..])
    );
    assert_eq!(leaf.distinct_keys().len(), 5);

    assert_eq!(leaf.encoded_size(), LEAF.len());
    assert_eq!(leaf.encode(), LEAF);
    assert_eq!(Node::decode(LEAF.to_vec()).unwrap().encode(), LEAF);
    // A leaf that has been written to still encodes the entries it kept
    // byte for byte: take the pending write out and put it back.
    let mut rewritten = leaf.clone();
    let pending = rewritten.remove_uncommitted(&k60, TxnId(7)).unwrap();
    assert_ne!(rewritten.encode(), LEAF);
    rewritten.insert(&pending).unwrap();
    assert_eq!(rewritten.encode(), LEAF);
}

#[test]
fn golden_index_decodes_answers_and_reencodes_to_itself() {
    let index = index(&INDEX).unwrap();
    assert_eq!(
        index.key_range,
        KeyRange::new(Key::MIN, KeyBound::Finite(Key::from_u64(500)))
    );
    assert_eq!(index.time_range, TimeRange::full());
    assert_eq!(index.historical_region().count(), 3);
    assert_eq!(index.current_region().count(), 2);
    index.validate().unwrap();
    let child = |key: u64, ts: u64| {
        index
            .find_child(&Key::from_u64(key), Timestamp(ts))
            .unwrap()
            .child
    };
    assert_eq!(child(50, 9), NodeAddr::Current(PageId(11)));
    assert_eq!(child(499, u64::MAX), NodeAddr::Current(PageId(12)));
    assert_eq!(child(499, 3), NodeAddr::Historical(HistAddr::new(0, 300)));
    assert_eq!(
        child(499, 8),
        NodeAddr::Historical(HistAddr::new(1024, 777))
    );
    assert_eq!(
        index
            .iter()
            .find(|e| e.child == NodeAddr::Historical(HistAddr::new(2048, 123)))
            .unwrap()
            .key_range(),
        KeyRange::new(Key::from_u64(700), KeyBound::PlusInfinity)
    );

    assert_eq!(index.encoded_size(), INDEX.len());
    assert_eq!(index.encode(), INDEX);
    assert_eq!(Node::decode(INDEX.to_vec()).unwrap().encode(), INDEX);
}

/// The leaf decoder as it was: one owned `Version` per entry through
/// `ByteReader::get_version`. (Without its `Vec::with_capacity(count)`,
/// which is the abort the count bound fixes.)
fn old_leaf_decode(bytes: &[u8]) -> TsbResult<DataNode> {
    let mut r = ByteReader::new(bytes);
    if r.get_u8()? != super::DATA_NODE_TAG {
        return Err(TsbError::corruption("tag"));
    }
    let count = r.get_u32()?;
    let key_range = r.get_key_range()?;
    let time_range = r.get_time_range()?;
    let mut entries = Vec::new();
    for _ in 0..count {
        entries.push(r.get_version()?);
    }
    let old = super::data_model::ModelNode::in_image_order(key_range, time_range, entries);
    DataNode::decode(old.encode())
}

/// The index decoder as it was: every entry, then `from_entries`.
fn old_index_decode(bytes: &[u8]) -> TsbResult<IndexNode> {
    let mut r = ByteReader::new(bytes);
    if r.get_u8()? != super::INDEX_NODE_TAG {
        return Err(TsbError::corruption("tag"));
    }
    let count = r.get_u32()?;
    let key_range = r.get_key_range()?;
    let time_range = r.get_time_range()?;
    let mut entries = Vec::new();
    for _ in 0..count {
        entries.push(IndexEntry::decode(&mut r)?);
    }
    Ok(IndexNode::from_entries(key_range, time_range, entries))
}

fn leaf(bytes: &[u8]) -> TsbResult<DataNode> {
    DataNode::decode(bytes.to_vec())
}

fn index(bytes: &[u8]) -> TsbResult<IndexNode> {
    IndexNode::decode(bytes.to_vec())
}

fn assert_corrupt<T: std::fmt::Debug>(result: TsbResult<T>, what: &str) {
    assert!(
        matches!(result, Err(TsbError::Corruption(_))),
        "{what}: {result:?}"
    );
}

/// Offsets of every tag byte and every `u32` length field in a leaf image.
fn leaf_fields(bytes: &[u8]) -> (Vec<usize>, Vec<usize>) {
    let (mut tags, mut lengths) = (vec![0], Vec::new());
    let mut r = ByteReader::new(bytes);
    r.get_u8().unwrap();
    let count = r.get_u32().unwrap();
    lengths.push(r.position());
    r.get_key().unwrap();
    tags.push(r.position());
    if r.get_u8().unwrap() == 0 {
        lengths.push(r.position());
        r.get_key().unwrap();
    }
    r.get_timestamp().unwrap();
    tags.push(r.position());
    r.get_time_bound().unwrap();
    for _ in 0..count {
        lengths.push(r.position());
        r.get_key().unwrap();
        tags.push(r.position());
        r.get_ts_state().unwrap();
        tags.push(r.position());
        if r.get_u8().unwrap() == 1 {
            lengths.push(r.position());
            r.get_bytes().unwrap();
        }
    }
    assert!(r.is_exhausted());
    (tags, lengths)
}

/// Offsets of every tag byte and every `u32` key length in an index image.
fn index_fields(bytes: &[u8]) -> (Vec<usize>, Vec<usize>) {
    fn key_range(r: &mut ByteReader<'_>, tags: &mut Vec<usize>, lengths: &mut Vec<usize>) {
        lengths.push(r.position());
        r.get_key().unwrap();
        tags.push(r.position());
        if r.get_u8().unwrap() == 0 {
            lengths.push(r.position());
            r.get_key().unwrap();
        }
    }
    let (mut tags, mut lengths) = (vec![0], Vec::new());
    let mut r = ByteReader::new(bytes);
    r.get_u8().unwrap();
    let count = r.get_u32().unwrap();
    for _ in 0..=count {
        key_range(&mut r, &mut tags, &mut lengths);
        r.get_timestamp().unwrap();
        tags.push(r.position());
        r.get_time_bound().unwrap();
        if tags.len() > 3 {
            // Past the node's own header: an entry ends with its child.
            tags.push(r.position());
            NodeAddr::decode(&mut r).unwrap();
        }
    }
    assert!(r.is_exhausted());
    (tags, lengths)
}

#[test]
fn damaged_leaf_images_are_corruption_never_a_panic() {
    for len in 0..LEAF.len() {
        assert_corrupt(leaf(&LEAF[..len]), &format!("truncated to {len}"));
        assert_corrupt(
            Node::decode(LEAF[..len].to_vec()),
            &format!("truncated to {len}"),
        );
    }
    let (tags, lengths) = leaf_fields(&LEAF);
    assert_eq!(tags.len(), 3 + 2 * 8);
    for at in tags {
        let mut bad = LEAF.to_vec();
        bad[at] = 9;
        assert_corrupt(leaf(&bad), &format!("tag at {at}"));
    }
    for at in lengths {
        for len in [u32::MAX, (LEAF.len() - at) as u32] {
            let mut bad = LEAF.to_vec();
            bad[at..at + 4].copy_from_slice(&len.to_le_bytes());
            assert_corrupt(leaf(&bad), &format!("length {len} at {at}"));
        }
    }
    // An entry count the image cannot hold is refused before anything is
    // allocated for it (4 billion entries would be a ~300 GB request).
    for count in [9u32, 26, 1 << 20, u32::MAX] {
        let mut bad = LEAF.to_vec();
        bad[1..5].copy_from_slice(&count.to_le_bytes());
        assert_corrupt(leaf(&bad), &format!("count {count}"));
    }
}

#[test]
fn damaged_index_images_are_corruption_never_a_panic() {
    for len in 0..INDEX.len() {
        assert_corrupt(index(&INDEX[..len]), &format!("truncated to {len}"));
    }
    let (tags, lengths) = index_fields(&INDEX);
    assert_eq!(tags.len(), 3 + 3 * 5);
    for at in tags {
        let mut bad = INDEX.to_vec();
        bad[at] = 9;
        assert_corrupt(index(&bad), &format!("tag at {at}"));
    }
    for at in lengths {
        for len in [u32::MAX, (INDEX.len() - at) as u32] {
            let mut bad = INDEX.to_vec();
            bad[at..at + 4].copy_from_slice(&len.to_le_bytes());
            assert_corrupt(index(&bad), &format!("length {len} at {at}"));
        }
    }
    for count in [6u32, 11, 1 << 20, u32::MAX] {
        let mut bad = INDEX.to_vec();
        bad[1..5].copy_from_slice(&count.to_le_bytes());
        assert_corrupt(index(&bad), &format!("count {count}"));
    }
}

/// Every single-byte change of the golden images — each byte to each of
/// its 255 other values: the new decoders accept exactly what the old ones
/// accepted, and produce the same node when they do.
#[test]
fn decoders_accept_exactly_what_the_old_decoders_accepted() {
    for at in 0..LEAF.len() {
        for value in 0..=u8::MAX {
            let mut image = LEAF.to_vec();
            image[at] = value;
            match (leaf(&image), old_leaf_decode(&image)) {
                (Ok(new), Ok(old)) => assert_eq!(new, old, "leaf byte {at} = {value}"),
                (Err(e), Err(_)) => assert_corrupt::<()>(Err(e), "leaf"),
                (new, old) => panic!("leaf byte {at} = {value}: new {new:?}, old {old:?}"),
            }
        }
    }
    let mut refused_layouts = 0;
    for at in 0..INDEX.len() {
        for value in 0..=u8::MAX {
            let mut image = INDEX.to_vec();
            image[at] = value;
            match (index(&image), old_index_decode(&image)) {
                (Ok(new), Ok(old)) => {
                    assert_eq!(new, old, "index byte {at} = {value}");
                    refused_layouts += usize::from(new.encode() != image);
                }
                (Err(e), Err(_)) => assert_corrupt::<()>(Err(e), "index"),
                (new, old) => panic!("index byte {at} = {value}: new {new:?}, old {old:?}"),
            }
        }
    }
    assert!(
        refused_layouts > 0,
        "the sweep never reached the out-of-layout fallback"
    );
}
