//! Node splitting: policy (key vs. time), split-time choice, and the pure
//! partitioning mechanics for data and index nodes.
//!
//! The TSB-tree's contribution over the WOBT is concentrated here (§3):
//! pure B+-tree-style key splits, time splits at a *chosen* time rather than
//! the current time, the TIME-SPLIT RULE that keeps the version valid at the
//! split time in the current node, and for index nodes one three-way rule
//! applied on either axis — an entry wholly below the split value goes low,
//! one wholly at or above it goes high, one straddling it goes to both —
//! which duplicates straddling historical references on a keyspace split and
//! keeps current references out of the write-once half of a local index
//! time split.
//!
//! A split is written once: [`Node::key_split`] and [`Node::time_split`]
//! return both halves for either node kind. The tree's insert path writes
//! them to their devices, and log replay calls the same two functions to
//! rebuild the half a page kept.

mod data_split;
mod index_split;
mod policy;
mod time_choice;

pub(crate) use data_split::choose_split_key;
pub(crate) use index_split::{choose_index_split_key, local_time_split_point};
pub(crate) use policy::{plan_data_split, SplitPlan};
pub(crate) use time_choice::choose_split_time;

use data_split::{partition_by_key, partition_by_time};
use index_split::partition_index;
use tsb_common::{Key, KeyRange, TimeRange, Timestamp, Version};

use crate::node::{DataNode, IndexEntry, IndexNode, Node};

/// The two sides of a split's entries: `low` below the split value (on the
/// time axis, the historical half), `high` at or above it (the current
/// half), and how many entries went to both.
pub(crate) struct Halves<E> {
    /// Entries of the low half.
    pub low: Vec<E>,
    /// Entries of the high half.
    pub high: Vec<E>,
    /// Entries present in both halves: the redundancy the split adds.
    pub duplicated: usize,
}

impl<E> Default for Halves<E> {
    fn default() -> Self {
        Halves {
            low: Vec::new(),
            high: Vec::new(),
            duplicated: 0,
        }
    }
}

/// One half's rectangle.
type Rect = (KeyRange, TimeRange);

impl Node {
    /// Splits the node's key range at `split_key` into its low and high
    /// halves, both over the node's whole time range: a leaf's versions by
    /// key, an index node's entries by the three-way rule. `None` when
    /// `split_key` is not strictly inside the node's key range.
    pub(crate) fn key_split(&self, split_key: &Key) -> Option<(Node, Node)> {
        let (low, high) = self.key_range().split_at(split_key)?;
        let times = self.time_range();
        Some(self.split_by(
            (low, times),
            (high, times),
            |versions| partition_by_key(versions, split_key),
            |entries| partition_index(entries, |e| &e.key_range, split_key),
        ))
    }

    /// Splits the node's time range at `split_time` into its historical
    /// half `[lo, split_time)` and its current half `[split_time, hi)`, both
    /// over the node's key range: a leaf by the TIME-SPLIT RULE, an index
    /// node's entries by the three-way rule.
    pub(crate) fn time_split(&self, split_time: Timestamp) -> (Node, Node) {
        let (keys, times) = (self.key_range(), self.time_range());
        self.split_by(
            (keys.clone(), TimeRange::bounded(times.lo, split_time)),
            (keys.clone(), TimeRange::new(split_time, times.hi)),
            |versions| partition_by_time(versions, split_time),
            |entries| partition_index(entries, |e| &e.time_range, &split_time),
        )
    }

    /// Partitions the node's entries by the rule of its kind and builds the
    /// two halves over `low` and `high`.
    fn split_by(
        &self,
        (low_keys, low_times): Rect,
        (high_keys, high_times): Rect,
        leaf: impl FnOnce(&[Version]) -> Halves<Version>,
        index: impl FnOnce(&[IndexEntry]) -> Halves<IndexEntry>,
    ) -> (Node, Node) {
        match self {
            Node::Data(data) => {
                let halves = leaf(&data.to_versions());
                (
                    Node::Data(DataNode::from_entries(low_keys, low_times, halves.low)),
                    Node::Data(DataNode::from_entries(high_keys, high_times, halves.high)),
                )
            }
            Node::Index(node) => {
                let halves = index(&node.to_entries());
                (
                    Node::Index(IndexNode::from_entries(low_keys, low_times, halves.low)),
                    Node::Index(IndexNode::from_entries(high_keys, high_times, halves.high)),
                )
            }
        }
    }
}

#[cfg(test)]
mod tests;
