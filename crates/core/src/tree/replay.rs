//! Page replay: the state a page has while the log is folded over it
//! ([`ReplayPage`]), how one logged [`PageOp`] re-applies to it, and the
//! **page rule** ([`apply_page_record`]) every reader of the log folds its
//! page records through — recovery, a replica's re-seed, a replica's live
//! apply. Which records to fold, and up to where, is [`super::recover`]'s.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use tsb_common::encode::{ByteReader, ByteWriter};
use tsb_common::{TsbError, TsbResult};
use tsb_storage::{PageId, PageOp, WalRecord};

use crate::node::{DataNode, IndexEntry, IndexNode, Node, NodeAddr};

/// A page being rebuilt by recovery's replay: the newest logged image,
/// decoded lazily — only when a delta actually has to be applied, so
/// pages whose last record is an image (structural rewrites) are restored
/// without a decode/encode round trip.
///
/// Also the unit of a replication replica's *apply overlay*
/// ([`crate::replica`]): shipped page records accumulate here between
/// fences and are installed onto the device only when their fence arrives.
#[derive(Clone)]
pub(crate) enum ReplayPage {
    /// The image bytes as logged; no delta has touched them yet.
    Raw(Vec<u8>),
    /// The decoded node with at least one delta applied.
    Decoded(Node),
}

impl ReplayPage {
    /// Re-applies one logged delta, decoding the base image on first use.
    ///
    /// Content ops replay as slot assignments; structural ops re-run the
    /// same pure partition functions the forward split path ran, against
    /// the identical node state the log has rebuilt, so they land on the
    /// identical outcome.
    pub(crate) fn apply(&mut self, op: &PageOp) -> TsbResult<()> {
        if let ReplayPage::Raw(bytes) = self {
            *self = ReplayPage::Decoded(Node::decode(std::mem::take(bytes))?);
        }
        let ReplayPage::Decoded(node) = self else {
            unreachable!("Raw was just decoded");
        };
        fn data_op(node: &mut Node) -> TsbResult<&mut DataNode> {
            match node {
                Node::Data(data) => Ok(data),
                Node::Index(_) => Err(TsbError::corruption("WAL data delta targets an index node")),
            }
        }
        fn index_op(node: &mut Node) -> TsbResult<&mut IndexNode> {
            match node {
                Node::Index(index) => Ok(index),
                Node::Data(_) => Err(TsbError::corruption("WAL index delta targets a data node")),
            }
        }
        match op {
            PageOp::InsertVersion(version) => data_op(node)?.insert(version),
            PageOp::RemoveUncommitted { key, txn } => {
                data_op(node)?.remove_uncommitted(key, *txn);
                Ok(())
            }
            PageOp::DataTimeSplit { split_time } => {
                let data = data_op(node)?;
                let parts = crate::split::partition_by_time(&data.to_versions(), *split_time);
                *data = DataNode::from_entries(
                    data.key_range.clone(),
                    tsb_common::TimeRange::new(*split_time, data.time_range.hi),
                    parts.current,
                );
                Ok(())
            }
            PageOp::DataKeySplit {
                split_key,
                keep_low,
            } => {
                let data = data_op(node)?;
                let (left, right) = crate::split::partition_by_key(&data.to_versions(), split_key);
                let (left_range, right_range) =
                    data.key_range.split_at(split_key).ok_or_else(|| {
                        TsbError::corruption("WAL key-split delta outside the node key range")
                    })?;
                *data = if *keep_low {
                    DataNode::from_entries(left_range, data.time_range, left)
                } else {
                    DataNode::from_entries(right_range, data.time_range, right)
                };
                Ok(())
            }
            PageOp::IndexTimeSplit { split_time } => {
                let index = index_op(node)?;
                let parts = crate::split::partition_index_by_time(&index.to_entries(), *split_time);
                *index = IndexNode::from_entries(
                    index.key_range.clone(),
                    tsb_common::TimeRange::new(*split_time, index.time_range.hi),
                    parts.current,
                );
                Ok(())
            }
            PageOp::IndexKeySplit {
                split_key,
                keep_low,
            } => {
                let index = index_op(node)?;
                let parts = crate::split::partition_index_by_key(&index.to_entries(), split_key);
                let (left_range, right_range) =
                    index.key_range.split_at(split_key).ok_or_else(|| {
                        TsbError::corruption("WAL index key-split delta outside the node key range")
                    })?;
                *index = if *keep_low {
                    IndexNode::from_entries(left_range, index.time_range, parts.left)
                } else {
                    IndexNode::from_entries(right_range, index.time_range, parts.right)
                };
                Ok(())
            }
            PageOp::IndexReplaceChild { payload } => {
                let index = index_op(node)?;
                let (old_child, replacements) = decode_replace_child(payload)?;
                index.replace_child(&old_child, replacements)
            }
        }
    }

    /// The page's final image for [`MagneticStore::restore`].
    pub(crate) fn into_bytes(self) -> Vec<u8> {
        match self {
            ReplayPage::Raw(bytes) => bytes,
            ReplayPage::Decoded(node) => node.encode(),
        }
    }
}

/// The **page rule**: folds one page record into `pages`. An image
/// replaces the page's state; a delta applies to the page's newest state,
/// which for a page the map lacks is whatever `base` supplies — `None`
/// makes the delta corruption (recovery: the first-touch rule guarantees
/// an in-log image precedes every delta of its page within a log
/// generation, so replay never reads the possibly-torn device copy).
/// Returns `false`, touching nothing, for a record that is not a page
/// record.
pub(crate) fn apply_page_record(
    pages: &mut HashMap<PageId, ReplayPage>,
    record: WalRecord,
    base: impl FnOnce(PageId) -> TsbResult<Option<ReplayPage>>,
) -> TsbResult<bool> {
    match record {
        WalRecord::PageImage { page, bytes } => {
            pages.insert(page, ReplayPage::Raw(bytes));
        }
        WalRecord::PageDelta { page, op } => {
            let state = match pages.entry(page) {
                Entry::Occupied(e) => e.into_mut(),
                Entry::Vacant(e) => e.insert(base(page)?.ok_or_else(|| {
                    TsbError::corruption(format!(
                        "WAL delta for page {page} precedes the page's image in this \
                         log generation (first-touch rule violated)"
                    ))
                })?),
            };
            state.apply(&op)?;
        }
        _ => return Ok(false),
    }
    Ok(true)
}

/// Encodes the payload of a [`PageOp::IndexReplaceChild`] delta: the old
/// child address followed by the replacement entries. Opaque to
/// `tsb-storage` (like `Commit.meta`); only this module and
/// [`decode_replace_child`] know the layout.
pub(crate) fn encode_replace_child(old_child: &NodeAddr, replacements: &[IndexEntry]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    old_child.encode(&mut w);
    w.put_u32(replacements.len() as u32);
    for entry in replacements {
        entry.encode(&mut w);
    }
    w.into_vec()
}

fn decode_replace_child(payload: &[u8]) -> TsbResult<(NodeAddr, Vec<IndexEntry>)> {
    let mut r = ByteReader::new(payload);
    let old_child = NodeAddr::decode(&mut r)?;
    let count = r.get_u32()? as usize;
    let mut replacements = Vec::with_capacity(count);
    for _ in 0..count {
        replacements.push(IndexEntry::decode(&mut r)?);
    }
    Ok((old_child, replacements))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsb_common::{Key, Timestamp, Version};

    fn empty_leaf() -> Vec<u8> {
        Node::Data(DataNode::initial_root()).encode()
    }

    fn image(page: u64) -> WalRecord {
        WalRecord::PageImage {
            page: PageId(page),
            bytes: empty_leaf(),
        }
    }

    fn delta(page: u64, key: u64) -> WalRecord {
        WalRecord::PageDelta {
            page: PageId(page),
            op: PageOp::InsertVersion(Version::committed(key, Timestamp(4), b"v".to_vec())),
        }
    }

    #[test]
    fn a_delta_without_an_in_log_image_is_corruption_unless_a_base_is_supplied() {
        // Recovery supplies no base: the first-touch rule was violated.
        let mut pages = HashMap::new();
        assert!(matches!(
            apply_page_record(&mut pages, delta(2, 7), |_| Ok(None)),
            Err(TsbError::Corruption(_))
        ));
        assert!(pages.is_empty());
        // Live apply supplies one (the fenced overlay, or the device).
        let from_device = |page| {
            assert_eq!(page, PageId(2));
            Ok(Some(ReplayPage::Raw(empty_leaf())))
        };
        assert!(apply_page_record(&mut pages, delta(2, 7), from_device).unwrap());
        // A page the map holds never asks for a base; an image replaces
        // whatever state the page had.
        let never = |_| -> TsbResult<Option<ReplayPage>> { panic!("the map holds the page") };
        assert!(apply_page_record(&mut pages, delta(2, 8), never).unwrap());
        let keys = |pages: &HashMap<PageId, ReplayPage>| {
            let bytes = pages[&PageId(2)].clone().into_bytes();
            match Node::decode(bytes).unwrap() {
                Node::Data(leaf) => leaf.iter().map(|v| v.to_key()).collect::<Vec<Key>>(),
                Node::Index(_) => panic!("a leaf image decoded to an index node"),
            }
        };
        assert_eq!(keys(&pages), vec![Key::from_u64(7), Key::from_u64(8)]);
        assert!(apply_page_record(&mut pages, image(2), never).unwrap());
        assert!(keys(&pages).is_empty());
        // Anything else is not a page record and touches nothing.
        let commit = WalRecord::Commit {
            ts: 5,
            worm_len: 0,
            meta: Vec::new(),
        };
        assert!(!apply_page_record(&mut pages, commit, never).unwrap());
        assert_eq!(pages.len(), 1);
    }
}
