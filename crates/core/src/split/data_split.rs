//! Data-node split mechanics (§3.1).
//!
//! Pure functions that partition a node's entries for the two kinds of data
//! node split:
//!
//! * **Key split** — "more like those in B+-trees since we need not keep the
//!   old node intact": entries with keys below the split value stay in the
//!   old node, the rest move to one new node. Used when the node is mostly
//!   live data.
//! * **Time split** — the TIME-SPLIT RULE: entries with commit time `< T` go
//!   to the (historical) node, entries `>= T` go to the (current) node, and
//!   for every key the version valid *at* `T` is duplicated into the current
//!   node so that any snapshot at or after `T` can be answered entirely from
//!   the current node. Uncommitted entries always stay current (§4); they
//!   are never migrated and can therefore always be erased.
//!
//! The split *policy* (which kind, which time) lives in
//! [`super::policy`] / [`super::time_choice`]; the orchestration that writes
//! nodes to devices lives in the tree insert path.

use tsb_common::{Key, Timestamp, Version};

use crate::node::DataNode;

/// The two halves of a key split: `(stay, move_right)`.
pub(crate) fn partition_by_key(
    entries: &[Version],
    split_key: &Key,
) -> (Vec<Version>, Vec<Version>) {
    let mut left = Vec::new();
    let mut right = Vec::new();
    for e in entries {
        if e.key < *split_key {
            left.push(e.clone());
        } else {
            right.push(e.clone());
        }
    }
    (left, right)
}

/// The result of applying the time-split rule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct TimeSplitParts {
    /// Entries migrated to the historical node (commit time `< T`).
    pub historical: Vec<Version>,
    /// Entries kept in the current node (commit time `>= T`, the rule-3
    /// duplicates valid at `T`, and all uncommitted entries).
    pub current: Vec<Version>,
    /// Number of committed versions present in *both* halves — the
    /// redundancy introduced by this split.
    pub duplicated: usize,
}

/// Applies the paper's TIME-SPLIT RULE at `split_time`.
///
/// Tombstone versions are *not* duplicated into the current node: a key
/// whose governing version at `T` is a tombstone is simply absent from the
/// current node, which answers all queries at or after `T` identically
/// (documented extension; the tombstone itself is preserved in the
/// historical node).
pub(crate) fn partition_by_time(entries: &[Version], split_time: Timestamp) -> TimeSplitParts {
    let mut historical = Vec::new();
    let mut current = Vec::new();
    let mut duplicated = 0usize;

    let mut i = 0;
    while i < entries.len() {
        let key = &entries[i].key;
        let group_end = entries[i..]
            .iter()
            .position(|e| e.key != *key)
            .map(|p| i + p)
            .unwrap_or(entries.len());
        let group = &entries[i..group_end];

        // Rule 1 / 2: partition committed versions by the split time.
        for e in group {
            match e.commit_time() {
                Some(t) if t < split_time => historical.push(e.clone()),
                Some(_) => current.push(e.clone()),
                None => current.push(e.clone()), // uncommitted: always current
            }
        }
        // Rule 3: the version valid at `split_time` must be in the current
        // node. That is the committed version with the largest commit time
        // <= split_time (strictly: < split_time would already be historical;
        // == split_time is already current by rule 2).
        let valid_at_split = group
            .iter()
            .rfind(|e| e.commit_time().map(|t| t <= split_time).unwrap_or(false));
        if let Some(v) = valid_at_split {
            let t = v.commit_time().expect("filtered to committed");
            if t < split_time && !v.is_tombstone() {
                current.push(v.clone());
                duplicated += 1;
            }
        }
        i = group_end;
    }

    historical.sort_by(Version::sort_cmp);
    current.sort_by(Version::sort_cmp);
    TimeSplitParts {
        historical,
        current,
        duplicated,
    }
}

/// Chooses the key to split a data node at: the smallest distinct key whose
/// group boundary is at or past half of the node's entry bytes. Returns
/// `None` when the node holds fewer than two distinct keys (a key split
/// would be useless — §3.2's boundary condition).
pub(crate) fn choose_split_key(node: &DataNode) -> Option<Key> {
    let total_bytes: usize = node.iter().map(|e| e.encoded_size()).sum();
    let mut cumulative = 0usize;
    let mut previous: Option<&[u8]> = None;
    for e in node.iter() {
        if previous != Some(e.key) {
            // A group boundary past the first: split here once half the
            // bytes lie below it.
            if previous.is_some() && cumulative * 2 >= total_bytes {
                return Some(e.to_key());
            }
            previous = Some(e.key);
        }
        cumulative += e.encoded_size();
    }
    // No boundary reached the halfway mark; fall back to the last distinct
    // key if there are at least two distinct keys.
    let last = node.get(node.len().checked_sub(1)?);
    (node.get(0).key != last.key).then(|| last.to_key())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsb_common::{KeyRange, TimeRange, TxnId};

    fn v(key: u64, ts: u64) -> Version {
        Version::committed(key, Timestamp(ts), format!("val-{key}-{ts}").into_bytes())
    }

    fn sorted(mut entries: Vec<Version>) -> Vec<Version> {
        entries.sort_by(Version::sort_cmp);
        entries
    }

    fn node(entries: Vec<Version>) -> DataNode {
        DataNode::from_entries(KeyRange::full(), TimeRange::full(), entries)
    }

    #[test]
    fn key_split_partitions_by_key_only() {
        let entries = sorted(vec![v(50, 1), v(60, 2), v(60, 4), v(70, 3), v(90, 6)]);
        let (left, right) = partition_by_key(&entries, &Key::from_u64(70));
        assert!(left.iter().all(|e| e.key < Key::from_u64(70)));
        assert!(right.iter().all(|e| e.key >= Key::from_u64(70)));
        assert_eq!(left.len(), 3);
        assert_eq!(right.len(), 2);
    }

    #[test]
    fn figure6_time_split_at_t4_has_no_redundancy() {
        // Figure 6: versions of key 60 at T=1 (Joe), T=2 (Pete), T=4 (Mary),
        // then 90 Alice at T=6 arrives. Splitting at T=4: Joe and Pete go to
        // the historical node; Mary (valid at 4, committed at 4) stays
        // current by rule 2 — no duplication.
        let entries = sorted(vec![v(60, 1), v(60, 2), v(60, 4), v(90, 6)]);
        let parts = partition_by_time(&entries, Timestamp(4));
        assert_eq!(parts.historical.len(), 2);
        assert_eq!(parts.current.len(), 2);
        assert_eq!(parts.duplicated, 0);
    }

    #[test]
    fn figure6_time_split_at_t5_duplicates_the_spanning_version() {
        // Splitting at T=5 instead: Mary (T=4) is historical by rule 1 but is
        // the version valid at T=5, so rule 3 copies it into the current
        // node as well.
        let entries = sorted(vec![v(60, 1), v(60, 2), v(60, 4), v(90, 6)]);
        let parts = partition_by_time(&entries, Timestamp(5));
        assert_eq!(parts.historical.len(), 3);
        assert_eq!(parts.current.len(), 2); // Mary duplicate + Alice
        assert_eq!(parts.duplicated, 1);
        // The duplicate really is the T=4 version of key 60.
        assert!(parts
            .current
            .iter()
            .any(|e| e.key == Key::from_u64(60) && e.commit_time() == Some(Timestamp(4))));
        assert!(parts
            .historical
            .iter()
            .any(|e| e.key == Key::from_u64(60) && e.commit_time() == Some(Timestamp(4))));
    }

    #[test]
    fn every_key_with_history_before_t_is_represented_in_the_current_node() {
        // Keys 1..5 each have a single version before T; all must be copied
        // into the current node so snapshots at/after T see them.
        let entries = sorted((1..=5).map(|k| v(k, k)).collect());
        let parts = partition_by_time(&entries, Timestamp(10));
        assert_eq!(parts.historical.len(), 5);
        assert_eq!(parts.current.len(), 5);
        assert_eq!(parts.duplicated, 5);
    }

    #[test]
    fn uncommitted_entries_always_stay_current() {
        let mut entries = sorted(vec![v(1, 1), v(1, 3)]);
        entries.push(Version::uncommitted(1u64, TxnId(7), b"pending".to_vec()));
        let parts = partition_by_time(&entries, Timestamp(5));
        assert!(parts.historical.iter().all(|e| e.state.is_committed()));
        assert!(parts.current.iter().any(|e| e.state.is_uncommitted()));
    }

    #[test]
    fn tombstones_are_not_duplicated_forward() {
        let entries = sorted(vec![
            v(1, 1),
            Version::tombstone(1u64, Timestamp(3)),
            v(2, 4),
        ]);
        let parts = partition_by_time(&entries, Timestamp(5));
        // Key 1's governing version at T=5 is a tombstone: not carried forward.
        assert!(parts.current.iter().all(|e| e.key != Key::from_u64(1)));
        // Key 2's version is duplicated (it is live at T).
        assert!(parts.current.iter().any(|e| e.key == Key::from_u64(2)));
        // Both of key 1's versions are preserved in history.
        assert_eq!(
            parts
                .historical
                .iter()
                .filter(|e| e.key == Key::from_u64(1))
                .count(),
            2
        );
    }

    #[test]
    fn split_key_choice_needs_two_distinct_keys() {
        let single_key = node(vec![v(5, 1), v(5, 2), v(5, 3)]);
        assert_eq!(choose_split_key(&single_key), None);
        assert_eq!(choose_split_key(&node(Vec::new())), None);

        let entries = vec![v(1, 1), v(2, 2), v(3, 3), v(4, 4)];
        let k = choose_split_key(&node(entries.clone())).unwrap();
        assert!(k > Key::from_u64(1) && k <= Key::from_u64(4));
        // The chosen key must be an actual key (group boundary).
        assert!(entries.iter().any(|e| e.key == k));
    }

    #[test]
    fn split_key_is_byte_balanced() {
        // Key 1 has many versions; the split point should come right after it
        // rather than at the middle key by count.
        let mut entries: Vec<Version> = (1..=20).map(|t| v(1, t)).collect();
        entries.extend((2..=5).map(|k| v(k, 100 + k)));
        let k = choose_split_key(&node(entries)).unwrap();
        assert_eq!(k, Key::from_u64(2));
    }

    #[test]
    fn time_split_then_reassembled_covers_all_entries() {
        let entries = sorted(vec![v(1, 1), v(1, 5), v(2, 3), v(3, 8), v(4, 2)]);
        let parts = partition_by_time(&entries, Timestamp(5));
        // Every original entry appears in at least one half.
        for e in &entries {
            let in_hist = parts.historical.contains(e);
            let in_cur = parts.current.contains(e);
            assert!(in_hist || in_cur, "entry {e} lost by the split");
        }
        // Historical strictly below T, current at/above T except rule-3 copies.
        assert!(parts
            .historical
            .iter()
            .all(|e| e.commit_time().unwrap() < Timestamp(5)));
    }
}
