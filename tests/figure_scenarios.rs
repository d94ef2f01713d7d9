//! Executable reproductions of the paper's structural figures (F1–F9 in
//! DESIGN.md). The paper has no measured tables; its figures illustrate how
//! the structures behave on tiny scripted histories, and these tests pin
//! that behaviour.

use tsb_common::{
    Key, KeyRange, SplitPolicyKind, SplitTimeChoice, TimeRange, Timestamp, TsbConfig, Version,
};
use tsb_core::split::{
    choose_index_split_key, local_time_split_point, partition_by_key, partition_by_time,
    partition_index_by_key,
};
use tsb_core::{EngineHandle, IndexEntry, IndexNode, NodeAddr};
use tsb_storage::{HistAddr, PageId};
use tsb_wobt::{Wobt, WobtConfig};

fn v(key: u64, ts: u64, name: &str) -> Version {
    Version::committed(key, Timestamp(ts), name.as_bytes().to_vec())
}

/// Figure 1: stepwise-constant data. "To find the balance of an account at a
/// given time T, we look at the last entry made before T."
#[test]
fn figure1_stepwise_constant_account_balance() {
    let tree = tsb_core::TsbOptions::in_memory()
        .config(TsbConfig::default())
        .open()
        .unwrap();
    let key = Key::from("account");
    // Nine other accounts' entries precede each of this account's.
    let entry = |value: &[u8]| {
        for other in 0..9u64 {
            tree.insert(Key::from_u64(other), b"0".to_vec()).unwrap();
        }
        tree.insert(key.clone(), value.to_vec()).unwrap()
    };
    let t100 = entry(b"100");
    let t250 = entry(b"250");
    let t80 = entry(b"80");
    assert_eq!(
        (t100, t250, t80),
        (Timestamp(10), Timestamp(20), Timestamp(30))
    );

    assert_eq!(tree.get_as_of(&key, t100.prev()).unwrap(), None);
    for t in t100.value()..t250.value() {
        assert_eq!(tree.get_as_of(&key, Timestamp(t)).unwrap().unwrap(), b"100");
    }
    for t in t250.value()..t80.value() {
        assert_eq!(tree.get_as_of(&key, Timestamp(t)).unwrap().unwrap(), b"250");
    }
    assert_eq!(tree.get_as_of(&key, Timestamp(99)).unwrap().unwrap(), b"80");
}

/// Figures 3 and 4: WOBT splits. A full WOBT node splits by key value and
/// current time (two new nodes holding only current versions, the old node
/// remains) or, when few current versions remain, by current time only (one
/// new node). In both cases the reorganization duplicates current data and
/// every incremental insert burns a whole sector.
#[test]
fn figures3_and_4_wobt_splits_duplicate_current_data() {
    // Key+time split: distinct keys force two (or more) new nodes.
    let mut wobt = Wobt::new_in_memory(WobtConfig::small()).unwrap();
    for i in 0..40u64 {
        wobt.insert(i, format!("record-{i}").into_bytes()).unwrap();
    }
    let stats = wobt.stats().unwrap();
    assert!(
        stats.data_nodes > 1,
        "key+time splits created new data nodes"
    );
    assert!(
        stats.redundant_copies > 0,
        "current versions were copied into the new nodes while the old nodes remain"
    );

    // Pure time split: repeated updates of few keys leave few current
    // versions, so splits copy only those and redundancy per split is small,
    // but the old versions still occupy their original sectors.
    let mut wobt = Wobt::new_in_memory(WobtConfig::small()).unwrap();
    for round in 0..40u64 {
        wobt.insert(7u64, format!("round-{round}").into_bytes())
            .unwrap();
    }
    let stats = wobt.stats().unwrap();
    assert_eq!(stats.distinct_versions, 40);
    assert!(stats.data_nodes > 1);
    // Every version remains readable as of its time.
    assert_eq!(
        wobt.get_as_of(&Key::from_u64(7), Timestamp(1))
            .unwrap()
            .unwrap(),
        b"round-0".to_vec()
    );
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
    let (left, right) = partition_by_key(&entries, &Key::from_u64(80));
    assert_eq!(left.len(), 2);
    assert_eq!(right.len(), 2);
    // No entry was duplicated and nothing was designated historical.
    assert_eq!(left.len() + right.len(), entries.len());

    // End-to-end: an insert-only workload under the threshold policy never
    // touches the WORM store.
    let cfg = TsbConfig::small_pages().with_split_policy(SplitPolicyKind::default());
    let tree = tsb_core::TsbOptions::in_memory()
        .config(cfg)
        .open()
        .unwrap();
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
    assert_eq!(at_4.historical.len(), 2);
    assert_eq!(at_4.current.len(), 2);

    let at_5 = partition_by_time(&entries, Timestamp(5));
    assert_eq!(
        at_5.duplicated, 1,
        "T=5: Mary is in both nodes (Figure 6 bottom)"
    );
    assert!(at_5
        .historical
        .iter()
        .any(|e| e.value == Some(b"Mary".to_vec())));
    assert!(at_5
        .current
        .iter()
        .any(|e| e.value == Some(b"Mary".to_vec())));
}

/// Figure 7: an index keyspace split must duplicate the (historical) entry
/// whose key range strictly contains the split value; entries on one side go
/// to one node only.
#[test]
fn figure7_index_keyspace_split_duplicates_straddling_historical_entries() {
    let full = KeyRange::full();
    let hist_wide = IndexEntry::new(
        KeyRange::new(Key::from_u64(50), tsb_common::KeyBound::PlusInfinity),
        TimeRange::bounded(Timestamp(0), Timestamp(7)),
        NodeAddr::Historical(HistAddr::new(0, 64)),
    );
    let node = IndexNode::from_entries(
        full,
        TimeRange::full(),
        vec![
            IndexEntry::new(
                KeyRange::new(Key::MIN, tsb_common::KeyBound::Finite(Key::from_u64(50))),
                TimeRange::bounded(Timestamp(0), Timestamp(8)),
                NodeAddr::Historical(HistAddr::new(64, 64)),
            ),
            hist_wide.clone(),
            IndexEntry::new(
                KeyRange::new(Key::MIN, tsb_common::KeyBound::Finite(Key::from_u64(50))),
                TimeRange::from(Timestamp(8)),
                NodeAddr::Current(PageId(1)),
            ),
            IndexEntry::new(
                KeyRange::bounded(Key::from_u64(50), Key::from_u64(100)),
                TimeRange::from(Timestamp(7)),
                NodeAddr::Current(PageId(2)),
            ),
            IndexEntry::new(
                KeyRange::new(Key::from_u64(100), tsb_common::KeyBound::PlusInfinity),
                TimeRange::from(Timestamp(7)),
                NodeAddr::Current(PageId(3)),
            ),
        ],
    );
    node.validate().unwrap();
    let split_key = choose_index_split_key(&node).unwrap();
    assert_eq!(split_key, Key::from_u64(100));
    let parts = partition_index_by_key(&node.to_entries(), &split_key);
    assert_eq!(parts.duplicated, 1);
    let dup: Vec<_> = parts
        .left
        .iter()
        .filter(|e| parts.right.contains(e))
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
                KeyRange::new(Key::MIN, tsb_common::KeyBound::Finite(Key::from_u64(50))),
                TimeRange::from(Timestamp(4)),
                NodeAddr::Current(PageId(1)),
            ),
            IndexEntry::new(
                KeyRange::new(Key::from_u64(50), tsb_common::KeyBound::PlusInfinity),
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
                KeyRange::new(Key::MIN, tsb_common::KeyBound::Finite(Key::from_u64(50))),
                TimeRange::from(Timestamp(4)),
                NodeAddr::Current(PageId(1)),
            ),
            IndexEntry::new(
                KeyRange::new(Key::from_u64(50), tsb_common::KeyBound::PlusInfinity),
                TimeRange::from(Timestamp(0)),
                NodeAddr::Current(PageId(2)),
            ),
        ],
    );
    assert_eq!(local_time_split_point(&blocked), None);
}

/// End-to-end check of the WOBT-vs-TSB contrast the figures build up to:
/// the same update-heavy history costs the WOBT far more WORM space than the
/// TSB-tree, whose consolidation before migration keeps sector utilization
/// high (§1, §2.6, §3.4).
#[test]
fn consolidation_beats_one_entry_per_sector() {
    let tree = tsb_core::TsbOptions::in_memory()
        .config(
            TsbConfig::small_pages()
                .with_split_policy(SplitPolicyKind::TimePreferring)
                .with_split_time_choice(SplitTimeChoice::CurrentTime),
        )
        .open()
        .unwrap();
    let mut wobt = Wobt::new_in_memory(WobtConfig {
        sector_size: 64,
        node_sectors: 4,
        max_key_len: 16,
    })
    .unwrap();
    for i in 0..400u64 {
        let key = i % 20;
        let value = format!("v{i}").into_bytes();
        tree.insert(Key::from_u64(key), value.clone()).unwrap();
        wobt.insert(key, value).unwrap();
    }
    let tsb_util = tree
        .tree_stats()
        .unwrap()
        .space
        .worm_utilization()
        .unwrap_or(1.0);
    let wobt_util = wobt.stats().unwrap().utilization();
    assert!(
        tsb_util > wobt_util,
        "TSB consolidation ({tsb_util:.3}) must beat WOBT one-entry-per-sector ({wobt_util:.3})"
    );
    // And the WOBT's write-once-only operation created redundant copies of
    // current data at every reorganization (§2.6); the full space comparison
    // across policies is experiment E7/E8 in the bench harness.
    assert!(wobt.stats().unwrap().redundant_copies > 0);
}
