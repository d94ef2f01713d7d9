//! The tight entry walks against the [`ByteReader`] walks they replaced.
//!
//! Each decoder has one walk outside `#[cfg(test)]`: it reads runs of
//! fixed-size fields with one bounds check per run. The field-at-a-time
//! walks are kept here as references ([`DataNode::decode_reference`],
//! [`IndexNode::decode_reference`]), and a proptest damages the images the
//! golden tests pin — every truncation length of an image with random bytes
//! changed — and holds the two to the same verdict: both refuse with
//! `Corruption`, or both accept and record the same entry offsets, the same
//! image end and (for an index node) the same region boundary.
//!
//! [`ByteReader`]: tsb_common::encode::ByteReader

use tsb_common::{
    Key, KeyBound, KeyRange, TimeRange, Timestamp, TsState, TsbError, TxnId, Version,
};
use tsb_storage::{HistAddr, PageId};

use super::{DataNode, IndexEntry, IndexNode, NodeAddr};

const LONG_KEY: &str = "a-long-key-spilling-to-the-heap-0001";

/// The golden leaf (`golden.rs`), rebuilt from its entries.
fn golden_leaf() -> Vec<u8> {
    let committed =
        |key: u64, ts: u64, value: &[u8]| Version::committed(key, Timestamp(ts), value.to_vec());
    DataNode::from_entries(
        KeyRange::bounded(
            Key::from_u64(10),
            Key::from("zebra-key-that-is-longer-than-inline"),
        ),
        TimeRange::from(Timestamp(5)),
        vec![
            committed(50, 3, b"Joe"),
            committed(60, 6, b"Pete"),
            committed(60, 9, b""),
            Version::tombstone(60u64, Timestamp(12)),
            Version::uncommitted(60u64, TxnId(7), b"pending".to_vec()),
            committed(70, 8, &[0xAB; 40]),
            Version {
                key: Key::from_u64(80),
                state: TsState::Uncommitted(TxnId(9)),
                value: None,
            },
            Version::committed(LONG_KEY, Timestamp(11), b"heap".to_vec()),
        ],
    )
    .encode()
}

/// The golden index node (`golden.rs`), rebuilt from its entries.
fn golden_index() -> Vec<u8> {
    let keys = |lo: Option<u64>, hi: Option<u64>| {
        KeyRange::new(
            lo.map_or(Key::MIN, Key::from_u64),
            hi.map_or(KeyBound::PlusInfinity, |hi| {
                KeyBound::Finite(Key::from_u64(hi))
            }),
        )
    };
    let hist = |off, len| NodeAddr::Historical(HistAddr::new(off, len));
    let closed = |lo, hi| TimeRange::bounded(Timestamp(lo), Timestamp(hi));
    let open = |lo| TimeRange::from(Timestamp(lo));
    IndexNode::from_entries(
        keys(None, Some(500)),
        TimeRange::full(),
        vec![
            IndexEntry::new(keys(None, None), closed(0, 4), hist(0, 300)),
            IndexEntry::new(keys(Some(100), Some(700)), closed(4, 9), hist(1024, 777)),
            IndexEntry::new(keys(Some(700), None), closed(4, 9), hist(2048, 123)),
            IndexEntry::new(
                keys(None, Some(100)),
                open(4),
                NodeAddr::Current(PageId(11)),
            ),
            IndexEntry::new(
                keys(Some(100), Some(500)),
                open(9),
                NodeAddr::Current(PageId(12)),
            ),
        ],
    )
    .encode()
}

/// Whether the tight and the reference walk agree on `image`.
fn walks_agree(image: &[u8]) -> Result<(), String> {
    let corrupt = |e: &TsbError| matches!(e, TsbError::Corruption(_));
    match image.first() {
        Some(&super::DATA_NODE_TAG) => {
            match (
                DataNode::decode(image.to_vec()),
                DataNode::decode_reference(image.to_vec()),
            ) {
                (Ok(tight), Ok(reference)) if tight.image_shape() == reference.image_shape() => {
                    Ok(())
                }
                (Err(a), Err(b)) if corrupt(&a) && corrupt(&b) => Ok(()),
                (tight, reference) => Err(format!("leaf: {tight:?} against {reference:?}")),
            }
        }
        _ => match (
            IndexNode::decode(image.to_vec()),
            IndexNode::decode_reference(image.to_vec()),
        ) {
            (Ok(tight), Ok(reference)) if tight.image_shape() == reference.image_shape() => Ok(()),
            (Err(a), Err(b)) if corrupt(&a) && corrupt(&b) => Ok(()),
            (tight, reference) => Err(format!("index: {tight:?} against {reference:?}")),
        },
    }
}

#[test]
fn the_rebuilt_golden_images_decode_to_themselves() {
    for image in [golden_leaf(), golden_index()] {
        walks_agree(&image).unwrap();
        assert_eq!(super::Node::decode(image.clone()).unwrap().encode(), image);
    }
    assert_eq!(golden_leaf().len(), 353);
    assert_eq!(golden_index().len(), 242);
}

proptest::proptest! {
    #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(512))]

    /// Random byte changes to a golden image, then every truncation of the
    /// result: the tight walk accepts exactly what the reference accepted,
    /// with the same offsets, end and region boundary.
    #[test]
    fn the_tight_walks_accept_and_reject_exactly_what_the_reference_walks_did(
        leaf in proptest::strategy::any::<bool>(),
        flips in proptest::prop::collection::vec(
            (proptest::strategy::any::<u16>(), proptest::strategy::any::<u8>()),
            0..4,
        ),
    ) {
        let mut image = if leaf { golden_leaf() } else { golden_index() };
        for (at, value) in flips {
            let at = usize::from(at) % image.len();
            image[at] = value;
        }
        for len in 0..=image.len() {
            if let Err(diverged) = walks_agree(&image[..len]) {
                proptest::prop_assert!(false, "{len} of {image:?}: {diverged}");
            }
        }
    }
}
