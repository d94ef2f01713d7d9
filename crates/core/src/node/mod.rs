//! TSB-tree nodes: addresses, data (leaf) nodes, and index nodes.
//!
//! Every node spans a rectangle of the key × time plane. A node whose time
//! range is open-ended (`hi = +∞`) is *current* and lives on the erasable
//! magnetic store; a node with a closed time range is *historical*,
//! immutable, and lives on the WORM store.

mod addr;
mod data;
#[cfg(test)]
mod data_model;
#[cfg(test)]
mod golden;
mod image;
mod index;
#[cfg(test)]
mod walk_equivalence;

pub(crate) use addr::NodeAddr;
pub(crate) use data::{DataComposition, DataNode, VersionRef, DATA_NODE_TAG};
#[cfg(test)]
pub(crate) use index::tests::tiling_node;
pub(crate) use index::{IndexEntry, IndexNode, INDEX_NODE_TAG};

use tsb_common::{KeyRange, TimeRange, TsbError, TsbResult};

/// A decoded node of either kind.
#[derive(Clone, PartialEq, Eq, Debug)]
pub(crate) enum Node {
    /// A leaf node holding record versions.
    Data(DataNode),
    /// An internal node holding child rectangles.
    Index(IndexNode),
}

impl Node {
    /// Decodes a node, dispatching on the type tag in the first byte. The
    /// node keeps `image` — the buffer a device read returned — as its body.
    pub(crate) fn decode(image: Vec<u8>) -> TsbResult<Self> {
        match image.first() {
            Some(&DATA_NODE_TAG) => Ok(Node::Data(DataNode::decode(image)?)),
            Some(&INDEX_NODE_TAG) => Ok(Node::Index(IndexNode::decode(image)?)),
            Some(&t) => Err(TsbError::corruption(format!("unknown node tag {t}"))),
            None => Err(TsbError::corruption("empty node image")),
        }
    }

    /// Encodes the node.
    pub(crate) fn encode(&self) -> Vec<u8> {
        match self {
            Node::Data(n) => n.encode(),
            Node::Index(n) => n.encode(),
        }
    }

    /// Encoded size in bytes.
    pub(crate) fn encoded_size(&self) -> usize {
        match self {
            Node::Data(n) => n.encoded_size(),
            Node::Index(n) => n.encoded_size(),
        }
    }

    /// The key range the node spans.
    pub(crate) fn key_range(&self) -> &KeyRange {
        match self {
            Node::Data(n) => &n.key_range,
            Node::Index(n) => &n.key_range,
        }
    }

    /// The time range the node spans.
    pub(crate) fn time_range(&self) -> TimeRange {
        match self {
            Node::Data(n) => n.time_range,
            Node::Index(n) => n.time_range,
        }
    }

    /// Number of entries.
    pub(crate) fn len(&self) -> usize {
        match self {
            Node::Data(n) => n.len(),
            Node::Index(n) => n.len(),
        }
    }

    /// Runs the node-local invariant checks.
    pub(crate) fn validate(&self) -> TsbResult<()> {
        match self {
            Node::Data(n) => n.validate(),
            Node::Index(n) => n.validate(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsb_common::{KeyRange, TimeRange, Timestamp, Version};

    #[test]
    fn dispatching_decode() {
        let mut data = DataNode::initial_root();
        data.insert(&Version::committed(1u64, Timestamp(1), b"x".to_vec()))
            .unwrap();
        let index = IndexNode::new(KeyRange::full(), TimeRange::full());

        let d = Node::Data(data.clone());
        let i = Node::Index(index.clone());
        assert_eq!(Node::decode(d.encode()).unwrap(), d);
        assert_eq!(Node::decode(i.encode()).unwrap(), i);
        assert_eq!(d.encoded_size(), data.encoded_size());
        assert_eq!(i.encoded_size(), index.encoded_size());
        assert!(matches!(d, Node::Data(_)) && matches!(i, Node::Index(_)));
        d.validate().unwrap();
        i.validate().unwrap();

        assert!(Node::decode(Vec::new()).is_err());
        assert!(Node::decode(vec![9, 9, 9]).is_err());
    }
}
