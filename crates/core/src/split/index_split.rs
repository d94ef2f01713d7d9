//! Index-node split mechanics (§3.5).
//!
//! Index entries reference nodes that span a key range *and* a time range,
//! so splitting an index node needs rules analogous to the data-node rules:
//!
//! * **Keyspace split** (always possible): the paper's Index Node Keyspace
//!   Split Rule. The split value must be a key actually used as an entry's
//!   lower bound; entries whose key range lies entirely below the value go
//!   left, entirely at/above go right, and entries whose key range
//!   *strictly contains* the value — which are guaranteed to reference
//!   historical nodes — are **copied to both** (Figure 7). This is what
//!   makes the TSB-tree a DAG.
//! * **Local time split** (when possible): find a time `T` before which
//!   *every* reference is to a historical node; entries lying entirely
//!   before `T` migrate to a historical index node, entries spanning `T` are
//!   copied to both, and no entry referencing a current child may end up in
//!   the historical index node (current children can still split, which
//!   would require updating the — write-once — historical index node,
//!   Figure 9). When no such `T` exists the node must be keyspace split
//!   instead (and the blocking child can be marked for a time split at its
//!   next opportunity).

use tsb_common::{Key, Timestamp};

use crate::node::{IndexEntry, IndexNode};

/// Outcome of partitioning an index node's entries at a key value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct IndexKeySplitParts {
    /// Entries for the left node (key ranges at or below the split value,
    /// plus duplicated straddlers).
    pub left: Vec<IndexEntry>,
    /// Entries for the right node.
    pub right: Vec<IndexEntry>,
    /// Number of entries copied into both halves (all of them reference
    /// historical nodes).
    pub duplicated: usize,
}

/// Applies the Index Node Keyspace Split Rule at `split_key`.
pub(crate) fn partition_index_by_key(
    entries: &[IndexEntry],
    split_key: &Key,
) -> IndexKeySplitParts {
    let mut left = Vec::new();
    let mut right = Vec::new();
    let mut duplicated = 0usize;
    for e in entries {
        if e.key_range.entirely_below(split_key) {
            left.push(e.clone());
        } else if e.key_range.entirely_at_or_above(split_key) {
            right.push(e.clone());
        } else {
            // Rule 4: the key range strictly contains the split value.
            debug_assert!(e.key_range.strictly_contains(split_key));
            left.push(e.clone());
            right.push(e.clone());
            duplicated += 1;
        }
    }
    IndexKeySplitParts {
        left,
        right,
        duplicated,
    }
}

/// Chooses the key value for an index keyspace split: the median among the
/// distinct entry lower bounds that lie strictly above the node's own lower
/// bound (rule 1: "the split value may be any key value actually used in an
/// index entry in the node"). Returns `None` when no such value exists.
pub(crate) fn choose_index_split_key(node: &IndexNode) -> Option<Key> {
    let mut candidates: Vec<&[u8]> = node
        .iter()
        .map(|e| e.key_lo)
        .filter(|k| *k > node.key_range.lo.as_bytes())
        .collect();
    if candidates.is_empty() {
        return None;
    }
    candidates.sort();
    candidates.dedup();
    Some(Key::from_bytes(candidates[candidates.len() / 2]))
}

/// Finds the time `T` for a *local* index time split, if one exists:
/// the earliest start time among entries referencing current children.
///
/// `T` is usable only if it lies strictly after the node's own time-range
/// start and at least one entry lies entirely before it (otherwise nothing
/// would migrate). Returns `None` when the node cannot be locally time split
/// — the Figure 9 situation, where an old current child still holds data
/// from before every candidate time.
pub(crate) fn local_time_split_point(node: &IndexNode) -> Option<Timestamp> {
    let t = node
        .iter()
        .filter(|e| e.is_current())
        .map(|e| e.time_range.lo)
        .min()?;
    if t <= node.time_range.lo {
        return None;
    }
    // At least one entry must lie entirely before T for the split to migrate
    // anything.
    let migrates = node
        .iter()
        .any(|e| matches!(e.time_range.hi, tsb_common::TimeBound::Finite(h) if h <= t));
    if migrates {
        Some(t)
    } else {
        None
    }
}

/// Outcome of partitioning an index node's entries at a time value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct IndexTimeSplitParts {
    /// Entries for the historical index node (time ranges intersecting
    /// `[node start, T)`).
    pub historical: Vec<IndexEntry>,
    /// Entries kept in the current index node (time ranges intersecting
    /// `[T, +∞)`).
    pub current: Vec<IndexEntry>,
    /// Entries present in both halves (they span `T`; all reference
    /// historical children).
    pub duplicated: usize,
}

/// Partitions index entries at time `T` for a local time split.
///
/// The caller must have obtained `T` from [`local_time_split_point`], which
/// guarantees that every entry intersecting `[.., T)` references a
/// historical child.
pub(crate) fn partition_index_by_time(
    entries: &[IndexEntry],
    split_time: Timestamp,
) -> IndexTimeSplitParts {
    let mut historical = Vec::new();
    let mut current = Vec::new();
    let mut duplicated = 0usize;
    for e in entries {
        let starts_before = e.time_range.lo < split_time;
        // The entry's half-open time range contains some time >= split_time
        // exactly when its upper bound is above split_time.
        let extends_at_or_past = match e.time_range.hi {
            tsb_common::TimeBound::Infinity => true,
            tsb_common::TimeBound::Finite(h) => h > split_time,
        };
        if starts_before {
            historical.push(e.clone());
        }
        if extends_at_or_past {
            current.push(e.clone());
        }
        if starts_before && extends_at_or_past {
            duplicated += 1;
        }
    }
    IndexTimeSplitParts {
        historical,
        current,
        duplicated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeAddr;
    use tsb_common::{KeyBound, KeyRange, TimeRange};
    use tsb_storage::{HistAddr, PageId};

    fn kr(lo: Option<u64>, hi: Option<u64>) -> KeyRange {
        let lo = lo.map(Key::from_u64).unwrap_or(Key::MIN);
        let hi = hi
            .map(|h| KeyBound::Finite(Key::from_u64(h)))
            .unwrap_or(KeyBound::PlusInfinity);
        KeyRange::new(lo, hi)
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
            NodeAddr::Historical(HistAddr::new(off, 64)),
        )
    }

    /// The Figure 7 situation: a historical child spans keys [50, +inf)
    /// across old times because the key range was refined (time split, then
    /// key split) after it was written.
    fn figure7_node() -> IndexNode {
        IndexNode::from_entries(
            KeyRange::full(),
            TimeRange::full(),
            vec![
                hist(0, kr(None, Some(50)), 0, 8),  // old left part
                hist(64, kr(Some(50), None), 0, 7), // old right part (straddles 100)
                cur(1, kr(None, Some(50)), 8),
                cur(2, kr(Some(50), Some(100)), 7),
                cur(3, kr(Some(100), None), 7),
            ],
        )
    }

    #[test]
    fn keyspace_split_duplicates_only_straddling_historical_entries() {
        let node = figure7_node();
        node.validate().unwrap();
        let parts = partition_index_by_key(&node.to_entries(), &Key::from_u64(100));
        assert_eq!(parts.duplicated, 1);
        // The duplicated entry is the historical [50, +inf) one.
        let dup: Vec<_> = parts
            .left
            .iter()
            .filter(|e| parts.right.contains(e))
            .collect();
        assert_eq!(dup.len(), 1);
        assert!(dup[0].child.is_historical());
        // Left gets everything ending at or below 100, right the rest.
        assert_eq!(parts.left.len(), 4);
        assert_eq!(parts.right.len(), 2);
    }

    #[test]
    fn split_key_must_be_an_entry_lower_bound() {
        let node = figure7_node();
        let k = choose_index_split_key(&node).unwrap();
        assert!(node.iter().any(|e| e.key_lo == k.as_bytes()));
        assert!(k > node.key_range.lo);

        // A node whose entries all share the node's own lower bound offers no
        // split value.
        let no_candidates = IndexNode::from_entries(
            KeyRange::full(),
            TimeRange::full(),
            vec![hist(0, kr(None, None), 0, 4), cur(1, kr(None, None), 4)],
        );
        assert_eq!(choose_index_split_key(&no_candidates), None);
    }

    #[test]
    fn local_time_split_point_exists_when_all_old_references_are_historical() {
        // Figure 8-like: a current child starting at T=4 and historical
        // children entirely before T=4.
        let node = IndexNode::from_entries(
            KeyRange::full(),
            TimeRange::full(),
            vec![
                hist(0, kr(None, None), 0, 4),
                cur(1, kr(None, Some(50)), 4),
                cur(2, kr(Some(50), None), 4),
            ],
        );
        assert_eq!(local_time_split_point(&node), Some(Timestamp(4)));
    }

    #[test]
    fn local_time_split_blocked_by_an_old_current_child() {
        // Figure 9-like: one current child still starts at time 0 — every
        // candidate T would strand a current reference in the historical
        // index node.
        let node = IndexNode::from_entries(
            KeyRange::full(),
            TimeRange::full(),
            vec![
                hist(0, kr(None, Some(50)), 0, 4),
                cur(1, kr(None, Some(50)), 4),
                cur(2, kr(Some(50), None), 0), // never time split
            ],
        );
        assert_eq!(local_time_split_point(&node), None);

        // A node that was itself just created by a time split at 4 cannot
        // split again at 4.
        let fresh = IndexNode::from_entries(
            KeyRange::full(),
            TimeRange::from(Timestamp(4)),
            vec![cur(1, kr(None, None), 4)],
        );
        assert_eq!(local_time_split_point(&fresh), None);
    }

    #[test]
    fn time_partition_keeps_current_references_out_of_the_historical_node() {
        let node = figure7_node();
        // min current start = 7
        let t = local_time_split_point(&node).unwrap();
        assert_eq!(t, Timestamp(7));
        let parts = partition_index_by_time(&node.to_entries(), t);
        assert!(parts.historical.iter().all(|e| e.child.is_historical()));
        // Every current reference stays in the current node.
        assert_eq!(
            parts
                .current
                .iter()
                .filter(|e| e.child.is_current())
                .count(),
            3
        );
        // The historical entry [0, 8) spans T=7 and is duplicated.
        assert_eq!(parts.duplicated, 1);
        // Nothing is lost.
        for e in node.to_entries() {
            assert!(parts.historical.contains(&e) || parts.current.contains(&e));
        }
    }

    #[test]
    fn time_partition_boundary_cases() {
        // An entry ending exactly at T belongs only to the historical half.
        let e_end_at_t = hist(0, kr(None, None), 0, 5);
        // An entry starting exactly at T belongs only to the current half.
        let e_start_at_t = cur(1, kr(None, None), 5);
        let parts =
            partition_index_by_time(&[e_end_at_t.clone(), e_start_at_t.clone()], Timestamp(5));
        assert_eq!(parts.historical, vec![e_end_at_t]);
        assert_eq!(parts.current, vec![e_start_at_t]);
        assert_eq!(parts.duplicated, 0);
    }
}
