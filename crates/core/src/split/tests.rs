//! The paper's split figures (5–9) and the split rules' properties, on
//! the pure partitioning functions: the data node split by key (Figure 5)
//! and by time (Figure 6, the TIME-SPLIT RULE), the index keyspace split
//! that duplicates straddling historical entries (Figure 7), the local
//! index time split condition (Figures 8 and 9), and the one three-way
//! rule both index splits follow.

use proptest::prelude::*;

use tsb_common::{
    Interval, Key, KeyBound, KeyRange, SplitPolicyKind, TimeRange, Timestamp, TsbConfig, Version,
};
use tsb_storage::{HistAddr, PageId};

use super::{
    choose_index_split_key, local_time_split_point, partition_by_key, partition_by_time,
    partition_index, Halves,
};
use crate::node::{tiling_node, IndexEntry, IndexNode, Node, NodeAddr};
use crate::EngineHandle;

fn v(key: u64, ts: u64, name: &str) -> Version {
    Version::committed(key, Timestamp(ts), name.as_bytes().to_vec())
}

/// Figure 5: a TSB-tree data node holding only insertions is split purely by
/// key; nothing migrates and the new index entries carry the old entry's
/// timestamp (here: both halves keep the node's original time range).
#[test]
fn figure5_pure_key_split_for_insert_only_nodes() {
    let entries: Vec<Version> = vec![
        v(60, 1, "Joe"),
        v(70, 3, "Pete"),
        v(80, 1, "Mary"),
        v(90, 6, "Alice"),
    ];
    let Halves {
        low: left,
        high: right,
        ..
    } = partition_by_key(&entries, &Key::from_u64(80));
    assert_eq!(left.len(), 2);
    assert_eq!(right.len(), 2);
    // No entry was duplicated and nothing was designated historical.
    assert_eq!(left.len() + right.len(), entries.len());

    // End-to-end: an insert-only workload under the threshold policy never
    // touches the WORM store.
    let cfg = TsbConfig::small_pages().with_split_policy(SplitPolicyKind::default());
    let tree = crate::TsbOptions::in_memory().config(cfg).open().unwrap();
    for i in 0..200u64 {
        tree.insert(Key::from_u64(i), format!("ins-{i}").into_bytes())
            .unwrap();
    }
    assert_eq!(
        tree.tree_stats().unwrap().space.worm_bytes,
        0,
        "insert-only data never migrates"
    );
    tree.verify().unwrap();
}

/// Figure 6: the same node time-split at T=4 versus T=5. At T=4 there is no
/// redundancy; at T=5 the version valid at the split time ("Mary", T=4) is
/// copied into both the historical and the current node.
#[test]
fn figure6_split_time_choice_controls_redundancy() {
    let entries = vec![
        v(60, 1, "Joe"),
        v(60, 2, "Pete"),
        v(60, 4, "Mary"),
        v(90, 6, "Alice"),
    ];

    let at_4 = partition_by_time(&entries, Timestamp(4));
    assert_eq!(at_4.duplicated, 0, "T=4: no redundancy (Figure 6 top)");
    assert_eq!(at_4.low.len(), 2);
    assert_eq!(at_4.high.len(), 2);

    let at_5 = partition_by_time(&entries, Timestamp(5));
    assert_eq!(
        at_5.duplicated, 1,
        "T=5: Mary is in both nodes (Figure 6 bottom)"
    );
    assert!(at_5.low.iter().any(|e| e.value == Some(b"Mary".to_vec())));
    assert!(at_5.high.iter().any(|e| e.value == Some(b"Mary".to_vec())));
}

/// Figure 7: an index keyspace split must duplicate the (historical) entry
/// whose key range strictly contains the split value; entries on one side go
/// to one node only.
#[test]
fn figure7_index_keyspace_split_duplicates_straddling_historical_entries() {
    let full = KeyRange::full();
    let hist_wide = IndexEntry::new(
        KeyRange::new(Key::from_u64(50), KeyBound::PlusInfinity),
        TimeRange::bounded(Timestamp(0), Timestamp(7)),
        NodeAddr::Historical(HistAddr::new(0, 64)),
    );
    let node = IndexNode::from_entries(
        full,
        TimeRange::full(),
        vec![
            IndexEntry::new(
                KeyRange::new(Key::MIN, KeyBound::Finite(Key::from_u64(50))),
                TimeRange::bounded(Timestamp(0), Timestamp(8)),
                NodeAddr::Historical(HistAddr::new(64, 64)),
            ),
            hist_wide.clone(),
            IndexEntry::new(
                KeyRange::new(Key::MIN, KeyBound::Finite(Key::from_u64(50))),
                TimeRange::from(Timestamp(8)),
                NodeAddr::Current(PageId(1)),
            ),
            IndexEntry::new(
                KeyRange::bounded(Key::from_u64(50), Key::from_u64(100)),
                TimeRange::from(Timestamp(7)),
                NodeAddr::Current(PageId(2)),
            ),
            IndexEntry::new(
                KeyRange::new(Key::from_u64(100), KeyBound::PlusInfinity),
                TimeRange::from(Timestamp(7)),
                NodeAddr::Current(PageId(3)),
            ),
        ],
    );
    node.validate().unwrap();
    let split_key = choose_index_split_key(&node).unwrap();
    assert_eq!(split_key, Key::from_u64(100));
    let parts = partition_index(&node.to_entries(), |e| &e.key_range, &split_key);
    assert_eq!(parts.duplicated, 1);
    let dup: Vec<_> = parts
        .low
        .iter()
        .filter(|e| parts.high.contains(e))
        .collect();
    assert_eq!(
        dup,
        vec![&hist_wide],
        "only the straddling historical entry is duplicated"
    );
}

/// Figures 8 and 9: an index node can be time split *locally* only when
/// there is a time before which every reference is historical; an old
/// current child blocks it.
#[test]
fn figures8_and_9_local_index_time_split_condition() {
    let hist = |off: u64, lo: u64, hi: u64| {
        IndexEntry::new(
            KeyRange::full(),
            TimeRange::bounded(Timestamp(lo), Timestamp(hi)),
            NodeAddr::Historical(HistAddr::new(off, 64)),
        )
    };
    // Figure 8: both current children start at T=4; everything before 4 is
    // historical, so a local time split at 4 is possible.
    let splittable = IndexNode::from_entries(
        KeyRange::full(),
        TimeRange::full(),
        vec![
            hist(0, 0, 4),
            IndexEntry::new(
                KeyRange::new(Key::MIN, KeyBound::Finite(Key::from_u64(50))),
                TimeRange::from(Timestamp(4)),
                NodeAddr::Current(PageId(1)),
            ),
            IndexEntry::new(
                KeyRange::new(Key::from_u64(50), KeyBound::PlusInfinity),
                TimeRange::from(Timestamp(4)),
                NodeAddr::Current(PageId(2)),
            ),
        ],
    );
    assert_eq!(local_time_split_point(&splittable), Some(Timestamp(4)));

    // Figure 9: one current child has never been time split (it still starts
    // at T=0), so no local time split exists.
    let blocked = IndexNode::from_entries(
        KeyRange::full(),
        TimeRange::full(),
        vec![
            hist(0, 0, 4),
            IndexEntry::new(
                KeyRange::new(Key::MIN, KeyBound::Finite(Key::from_u64(50))),
                TimeRange::from(Timestamp(4)),
                NodeAddr::Current(PageId(1)),
            ),
            IndexEntry::new(
                KeyRange::new(Key::from_u64(50), KeyBound::PlusInfinity),
                TimeRange::from(Timestamp(0)),
                NodeAddr::Current(PageId(2)),
            ),
        ],
    );
    assert_eq!(local_time_split_point(&blocked), None);
}

fn version_strategy() -> impl Strategy<Value = Version> {
    (
        0u64..16,
        1u64..64,
        prop::option::of(prop::collection::vec(any::<u8>(), 0..12)),
    )
        .prop_map(|(key, ts, value)| Version {
            key: Key::from_u64(key),
            state: tsb_common::TsState::Committed(Timestamp(ts)),
            value,
        })
}

fn sorted_versions(mut v: Vec<Version>) -> Vec<Version> {
    v.sort_by(Version::sort_cmp);
    v.dedup_by(|a, b| a.sort_key() == b.sort_key());
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The TIME-SPLIT RULE: nothing is lost, the historical half holds
    /// exactly the strictly-older versions, and for every key alive at the
    /// split time the governing version is present in the current half.
    #[test]
    fn time_split_rule_properties(
        versions in prop::collection::vec(version_strategy(), 1..40),
        split in 1u64..80,
    ) {
        let entries = sorted_versions(versions);
        let split_time = Timestamp(split);
        let parts = partition_by_time(&entries, split_time);

        // Nothing lost.
        for e in &entries {
            prop_assert!(parts.low.contains(e) || parts.high.contains(e));
        }
        // Historical = strictly older.
        for e in &parts.low {
            prop_assert!(e.commit_time().unwrap() < split_time);
        }
        // The version valid at the split time is in the current half (unless
        // it is a tombstone, which may be elided).
        let mut keys: Vec<Key> = entries.iter().map(|e| e.key.clone()).collect();
        keys.dedup();
        for key in keys {
            let governing = entries
                .iter()
                .rfind(|e| e.key == key && e.commit_time().unwrap() <= split_time);
            if let Some(g) = governing {
                if !g.is_tombstone() {
                    prop_assert!(
                        parts.high.contains(g),
                        "version valid at the split time must be in the current node"
                    );
                }
            }
        }
        // Redundancy accounting is exact.
        let both = parts
            .low
            .iter()
            .filter(|e| parts.high.contains(e))
            .count();
        prop_assert_eq!(both, parts.duplicated);
    }

    /// Key splits partition by key with no loss and no duplication.
    #[test]
    fn key_split_partitions_cleanly(
        versions in prop::collection::vec(version_strategy(), 1..40),
        split_key in 0u64..16,
    ) {
        let entries = sorted_versions(versions);
        let split = Key::from_u64(split_key);
        let Halves { low: left, high: right, .. } = partition_by_key(&entries, &split);
        prop_assert_eq!(left.len() + right.len(), entries.len());
        prop_assert!(left.iter().all(|e| e.key < split));
        prop_assert!(right.iter().all(|e| e.key >= split));
    }
}

/// Holds one index split to the three-way rule, stated independently of
/// its code: an entry goes low exactly when its interval on the split's
/// axis starts below `at`, high exactly when it reaches past `at`, and
/// `duplicated` counts the entries that went to both. `halves` are the
/// nodes the split built; each holds exactly its side's entries, and every
/// one of them overlaps that half's rectangle.
fn check_index_split<T: Ord + Clone>(
    node: &IndexNode,
    axis: impl Fn(&IndexEntry) -> &Interval<T>,
    at: &T,
    halves: (Node, Node),
) -> Result<(IndexNode, IndexNode), TestCaseError> {
    let entries = node.to_entries();
    let parts = partition_index(&entries, &axis, at);
    let mut both = 0;
    for e in &entries {
        let (in_low, in_high) = (parts.low.contains(e), parts.high.contains(e));
        prop_assert_eq!(in_low, axis(e).lo < *at, "low side of {:?}", e);
        prop_assert_eq!(in_high, axis(e).hi.is_above(at), "high side of {:?}", e);
        both += usize::from(in_low && in_high);
    }
    prop_assert_eq!(parts.duplicated, both);
    let (Node::Index(low), Node::Index(high)) = halves else {
        panic!("an index node split into a leaf");
    };
    for (half, side) in [(&low, &parts.low), (&high, &parts.high)] {
        prop_assert_eq!(&half.to_entries(), side);
        for e in half.to_entries() {
            prop_assert!(e.overlaps(&half.key_range, &half.time_range), "{:?}", e);
        }
    }
    Ok((low, high))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Index partitions on random well-formed index nodes (rectangle
    /// tilings, and the halves of their keyspace splits, whose historical
    /// entries stick out of the node's key range): a keyspace split at
    /// `choose_index_split_key` and a local time split at
    /// `local_time_split_point` both follow the three-way rule, and the
    /// time split leaves no current child in its historical half.
    #[test]
    fn index_partitions_follow_the_three_way_rule(
        splits in prop::collection::vec((any::<u16>(), any::<u16>(), any::<u8>()), 0..48),
    ) {
        let mut nodes = vec![tiling_node(&splits)];
        let mut key_splits = 0;
        while let Some(node) = nodes.pop() {
            node.validate().unwrap();
            let whole = Node::Index(node.clone());
            if let Some(t) = local_time_split_point(&node) {
                let halves = whole.time_split(t);
                let (past, _) = check_index_split(&node, |e| &e.time_range, &t, halves)?;
                prop_assert!(past.iter().all(|e| !e.is_current()));
            }
            if let Some(k) = choose_index_split_key(&node) {
                let halves = whole.key_split(&k).unwrap();
                let (low, high) = check_index_split(&node, |e| &e.key_range, &k, halves)?;
                // Split the halves once more where the split was one a tree
                // makes: there only a historical child straddles the key.
                let straddles = |e: &IndexEntry| e.key_range.strictly_contains(&k);
                key_splits += 1;
                if key_splits == 1 && !node.to_entries().iter().any(|e| e.is_current() && straddles(e)) {
                    nodes.extend([low, high]);
                }
            }
        }
    }
}
