//! Replay: the state a page has while the log is folded over it
//! ([`ReplayPage`]), how one logged [`PageOp`] re-applies to it, the
//! **page rule** ([`apply_page_record`]), and the one [`Applier`] that
//! folds a log's records, fence by fence, for every reader of the log —
//! a primary's recovery, a replica's restart and a replica's live apply.
//! What a fence says is [`super::recover`]'s fence rule.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use tsb_common::encode::{ByteReader, ByteWriter};
use tsb_common::{Timestamp, TsbError, TsbResult};
use tsb_storage::{Lsn, PageId, PageOp, WalRecord};

use super::recover::{fence_rule, FenceReading, FenceState};
use crate::node::{DataNode, IndexEntry, IndexNode, Node, NodeAddr};

/// A page being rebuilt by the [`Applier`]: the newest logged image,
/// decoded lazily — only when a delta actually has to be applied, so
/// pages whose last record is an image (structural rewrites) are restored
/// without a decode/encode round trip.
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

/// A shard's newest fence, as the [`Applier`] read it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Fence {
    /// The fence record's LSN.
    pub(crate) lsn: Lsn,
    /// The state it describes for the shard.
    pub(crate) state: FenceState,
    /// Timestamp of the shard's newest commit the applier has read, if
    /// any (a checkpoint carries none).
    pub(crate) commit_ts: Option<Timestamp>,
}

/// A shard's page states as of its newest fence.
pub(crate) type FencedPages = HashMap<PageId, ReplayPage>;

/// One shard's side of the [`Applier`].
#[derive(Default)]
struct ShardApply {
    /// The shard's page records since its newest fence, in LSN order. No
    /// fence covers them yet, so they may still be discarded: they never
    /// reach a page state.
    staged: Vec<WalRecord>,
    /// Page states as of the shard's newest fence, while it awaits
    /// install.
    fenced: Option<FencedPages>,
    /// The shard's newest fence.
    fence: Option<Fence>,
}

/// The one fold of a log: fed its records in LSN order, it stages each
/// shard's page records and, at a fence that passes the fence rule, folds
/// the stage of each shard the fence names into that shard's fenced page
/// states, in place, through the page rule. What to do with a fence past
/// its device, with the stage left at the end, and when to install, is
/// the caller's.
pub(crate) struct Applier {
    shards: Vec<ShardApply>,
    /// The shard the log's tag names after the newest record fed.
    tag: u32,
    /// LSN of the newest record fed.
    last_lsn: Lsn,
}

impl Applier {
    /// An applier of a `shards`-shard log, to be fed from a point where
    /// the log's tag names shard 0: its start, or a checkpoint.
    pub(crate) fn new(shards: usize) -> Applier {
        Applier {
            shards: (0..shards).map(|_| ShardApply::default()).collect(),
            tag: 0,
            last_lsn: 0,
        }
    }

    /// Feeds the record at `lsn`, read against the WORM bytes on each
    /// shard's device, and returns what the fence rule read in it: a page
    /// record or a shard switch is staged on the shard the tag names; a
    /// usable fence folds the stage of each shard it names into that
    /// shard's fenced page states (a checkpoint first discards every
    /// stage: what no fence covered before a new log generation was thrown
    /// away with the old one); a fence past its device changes nothing. A
    /// page a folded delta finds in no fenced state takes its base from
    /// `base(shard, page)`; `None` makes the delta corruption (see
    /// [`apply_page_record`]).
    pub(crate) fn feed(
        &mut self,
        lsn: Lsn,
        record: WalRecord,
        worm_on_device: &[u64],
        mut base: impl FnMut(usize, PageId) -> TsbResult<Option<ReplayPage>>,
    ) -> TsbResult<FenceReading> {
        let tag = record.tag_after(self.tag);
        let fences = &self.shards;
        let prev = |shard: usize| fences.get(shard)?.fence.map(|f| f.state);
        let reading = fence_rule(&record, tag, prev, worm_on_device)?;
        match &reading {
            FenceReading::PastDevice { .. } => return Ok(reading),
            FenceReading::NotAFence => {
                let n = self.shards.len();
                let shard = self.shards.get_mut(tag as usize).ok_or_else(|| {
                    TsbError::corruption(format!("WAL records of shard {tag} in a {n}-shard log"))
                })?;
                shard.staged.push(record);
            }
            FenceReading::Describes { states, commit_ts } => {
                if commit_ts.is_none() {
                    self.shards.iter_mut().for_each(|s| s.staged.clear());
                }
                for &(index, state) in states {
                    let shard = &mut self.shards[index];
                    let pages = shard.fenced.get_or_insert_with(HashMap::new);
                    for record in shard.staged.drain(..) {
                        apply_page_record(pages, record, |page| base(index, page))?;
                    }
                    let commit_ts = commit_ts.or(shard.fence.and_then(|f| f.commit_ts));
                    shard.fence = Some(Fence {
                        lsn,
                        state,
                        commit_ts,
                    });
                }
            }
        }
        self.tag = tag;
        self.last_lsn = lsn;
        Ok(reading)
    }

    /// The newest fence of `shard` and its page states since the last
    /// install, if a fence awaits install; the shard counts as installed
    /// from then on.
    pub(crate) fn take_pending(&mut self, shard: usize) -> Option<(Fence, FencedPages)> {
        let shard = self.shards.get_mut(shard)?;
        shard.fence.zip(shard.fenced.take())
    }

    /// LSN of the newest fence folded, if any: where the log stands.
    pub(crate) fn cut(&self) -> Option<Lsn> {
        self.shards.iter().filter_map(|s| Some(s.fence?.lsn)).max()
    }

    /// LSN of the newest record fed: a replica's resume cursor.
    pub(crate) fn last_lsn(&self) -> Lsn {
        self.last_lsn
    }
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
        // Live apply supplies one (the device).
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

    /// A checkpoint starts a new log generation: page records no fence
    /// covered before it are dropped from the stage, so no later fence
    /// folds them — the state they describe was thrown away with the old
    /// generation.
    #[test]
    fn a_checkpoint_drops_the_stage_no_fence_covered() {
        let meta = |root| {
            let root = NodeAddr::Current(PageId(root));
            crate::tree::TsbTree::encode_meta(root, Timestamp(5), 1)
        };
        let mut applier = Applier::new(1);
        let mut feed = |lsn, record| applier.feed(lsn, record, &[0], |_, _| Ok(None)).unwrap();
        feed(1, image(2));
        let checkpoint = WalRecord::Checkpoint {
            worm_len: 0,
            meta: meta(1),
        };
        assert!(matches!(
            feed(2, checkpoint),
            FenceReading::Describes {
                commit_ts: None,
                ..
            }
        ));
        feed(3, image(3));
        let commit = WalRecord::Commit {
            ts: 6,
            worm_len: 0,
            meta: meta(3),
        };
        feed(4, commit);
        let (fence, pages) = applier.take_pending(0).unwrap();
        assert_eq!((fence.lsn, fence.commit_ts), (4, Some(Timestamp(6))));
        assert_eq!(pages.keys().collect::<Vec<_>>(), vec![&PageId(3)]);
    }
}
