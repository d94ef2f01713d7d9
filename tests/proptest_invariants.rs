//! Property-based tests over the core invariants:
//!
//! * **Oracle equivalence**: for arbitrary operation sequences and arbitrary
//!   policy configurations, the TSB-tree answers every point/as-of/current
//!   query exactly like the reference multiversion map, and the structural
//!   verifier passes after every batch.
//! * **Rectangle queries**: for arbitrary write streams (plain, after a
//!   gap in the key space's timestamps, transactions) and arbitrary
//!   key × time rectangles, the pruned temporal queries return exactly the
//!   oracle's filtered history.
//! * **Time-split rule**: for arbitrary version multisets and split times,
//!   the partition loses nothing, puts strictly-older versions in the
//!   historical half, and always carries the version valid at the split time
//!   into the current half.
//! * **Index keyspace split rule**: partitions preserve every entry,
//!   duplicate only straddling entries, and route every key to exactly one
//!   side.
//! * **Composite-key encoding** (secondary indexes): order-preserving and
//!   loss-free.

use proptest::prelude::*;

use tsb_common::{
    Key, KeyRange, SplitPolicyKind, SplitTimeChoice, TimeRange, Timestamp, TsbConfig, Version,
};
use tsb_core::split::{partition_by_key, partition_by_time};
use tsb_core::{composite_key, split_composite_key, EngineHandle};
use tsb_workload::Oracle;

// ---------- generators -------------------------------------------------------

#[derive(Clone, Debug)]
enum PropOp {
    Put { key: u8, len: u8 },
    Delete { key: u8 },
}

fn op_strategy() -> impl Strategy<Value = PropOp> {
    prop_oneof![
        4 => (any::<u8>(), any::<u8>()).prop_map(|(key, len)| PropOp::Put { key: key % 32, len }),
        1 => any::<u8>().prop_map(|key| PropOp::Delete { key: key % 32 }),
    ]
}

fn policy_strategy() -> impl Strategy<Value = (SplitPolicyKind, SplitTimeChoice)> {
    let policy = prop_oneof![
        Just(SplitPolicyKind::WobtLike),
        Just(SplitPolicyKind::TimePreferring),
        Just(SplitPolicyKind::KeyPreferring),
        Just(SplitPolicyKind::KeyOnly),
        Just(SplitPolicyKind::CostBased),
        (0.1f64..0.95).prop_map(|f| SplitPolicyKind::Threshold {
            key_split_live_fraction: f,
        }),
    ];
    let choice = prop_oneof![
        Just(SplitTimeChoice::CurrentTime),
        Just(SplitTimeChoice::LastUpdate),
        Just(SplitTimeChoice::MedianVersion),
    ];
    (policy, choice)
}

/// A write stream for the rectangle-query property: plain writes, writes
/// that follow a gap in the queried keys' timestamps, and transactions.
#[derive(Clone, Debug)]
enum HistoryOp {
    Put {
        key: u8,
        len: u8,
    },
    Delete {
        key: u8,
    },
    PutAfter {
        key: u8,
        len: u8,
        skip: u8,
    },
    Txn {
        writes: Vec<(u8, Option<u8>)>,
        commit: bool,
    },
}

fn history_op_strategy() -> impl Strategy<Value = HistoryOp> {
    let key = || any::<u8>().prop_map(|k| k % 32);
    prop_oneof![
        5 => (key(), any::<u8>()).prop_map(|(key, len)| HistoryOp::Put { key, len }),
        1 => key().prop_map(|key| HistoryOp::Delete { key }),
        2 => (key(), any::<u8>(), 0u8..4)
            .prop_map(|(key, len, skip)| HistoryOp::PutAfter { key, len, skip }),
        1 => (
            prop::collection::vec((key(), prop::option::of(any::<u8>())), 1..5),
            any::<bool>(),
        )
            .prop_map(|(writes, commit)| HistoryOp::Txn { writes, commit }),
    ]
}

/// A window over a time axis of `0..=1000` thousandths of "now": full,
/// open-ended, or bounded with the bounds in either order (so empty windows
/// occur). Scaled to real timestamps once the history exists.
fn window_strategy() -> impl Strategy<Value = (u64, Option<u64>)> {
    prop_oneof![
        1 => Just((0, None)),
        2 => (0u64..1100).prop_map(|lo| (lo, None)),
        6 => (0u64..1100, 0u64..1100).prop_map(|(lo, hi)| (lo, Some(hi))),
    ]
}

/// The key a [`HistoryOp::PutAfter`] gap is written to: outside the 32-key
/// space and the `0..34` probes and bounded ranges.
const GAP_KEY: u64 = 99;

/// A key range over the 32-key space: full, or bounded with the bounds in
/// either order.
fn key_range_strategy() -> impl Strategy<Value = KeyRange> {
    prop_oneof![
        1 => Just(KeyRange::full()),
        5 => (0u64..34, 0u64..34)
            .prop_map(|(lo, hi)| KeyRange::bounded(Key::from_u64(lo), Key::from_u64(hi))),
    ]
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

// ---------- properties -------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary operation sequences under arbitrary policies behave exactly
    /// like the in-memory oracle, and the structure verifies throughout.
    #[test]
    fn tree_matches_oracle_for_arbitrary_ops(
        ops in prop::collection::vec(op_strategy(), 1..250),
        (policy, choice) in policy_strategy(),
    ) {
        let cfg = TsbConfig::small_pages()
            .with_split_policy(policy)
            .with_split_time_choice(choice);
        let tree = tsb_core::TsbOptions::in_memory().config(cfg).open().unwrap();
        let mut oracle = Oracle::new();
        let mut log = Vec::new();
        for op in &ops {
            match op {
                PropOp::Put { key, len } => {
                    let value = vec![*key; (*len % 24) as usize];
                    let ts = tree.insert(Key::from_u64(*key as u64), value.clone()).unwrap();
                    oracle.put(*key as u64, ts, value.clone());
                    log.push((Key::from_u64(*key as u64), ts, Some(value)));
                }
                PropOp::Delete { key } => {
                    let ts = tree.delete(Key::from_u64(*key as u64)).unwrap();
                    oracle.delete(*key as u64, ts);
                    log.push((Key::from_u64(*key as u64), ts, None));
                }
            }
        }
        tree.verify().unwrap();
        // As-of reads at every recorded commit time.
        for (key, ts, value) in &log {
            prop_assert_eq!(&tree.get_as_of(key, *ts).unwrap(), value);
        }
        // Current reads and histories for every key.
        for key in oracle.keys() {
            prop_assert_eq!(tree.get_current(key).unwrap(), oracle.get_current(key));
            let got: Vec<Timestamp> = tree
                .versions(key).unwrap()
                .iter()
                .map(|v| v.commit_time().unwrap())
                .collect();
            let expected: Vec<Timestamp> = oracle.versions(key).iter().map(|(t, _)| *t).collect();
            prop_assert_eq!(got, expected);
        }
        // A snapshot at the median commit time.
        let times = oracle.all_timestamps();
        if !times.is_empty() {
            let mid = times[times.len() / 2];
            prop_assert_eq!(tree.snapshot_at(mid).unwrap(), oracle.snapshot_at(mid));
        }
    }

    /// Pruned equals unpruned, everywhere: `history_between`,
    /// `scan_versions`, `changed_keys_between`, `versions` and
    /// `version_count` answer arbitrary rectangles exactly like the oracle's
    /// filtered history — under every policy, with rule-3 copies, explicit
    /// timestamps, committed and aborted transactions, and a write still
    /// uncommitted while the queries run.
    #[test]
    fn rectangle_queries_match_the_oracle(
        ops in prop::collection::vec(history_op_strategy(), 1..220),
        (policy, choice) in policy_strategy(),
        rectangles in prop::collection::vec((key_range_strategy(), window_strategy()), 1..16),
        probe_keys in prop::collection::vec(0u64..34, 1..6),
    ) {
        let cfg = TsbConfig::small_pages()
            .with_split_policy(policy)
            .with_split_time_choice(choice);
        let tree = tsb_core::TsbOptions::in_memory().config(cfg).open().unwrap();
        let mut oracle = Oracle::new();
        let value = |key: u8, len: u8| vec![key; (len % 24) as usize];
        for op in &ops {
            match op {
                HistoryOp::Put { key, len } => {
                    let ts = tree.insert(Key::from_u64(*key as u64), value(*key, *len)).unwrap();
                    oracle.put(*key as u64, ts, value(*key, *len));
                }
                HistoryOp::Delete { key } => {
                    let ts = tree.delete(Key::from_u64(*key as u64)).unwrap();
                    oracle.delete(*key as u64, ts);
                }
                HistoryOp::PutAfter { key, len, skip } => {
                    // The gap: `skip` writes to a key no probe or bounded
                    // range names.
                    for _ in 0..*skip {
                        let ts = tree.insert(Key::from_u64(GAP_KEY), b"gap".to_vec()).unwrap();
                        oracle.put(GAP_KEY, ts, b"gap".to_vec());
                    }
                    let ts = tree.insert(Key::from_u64(*key as u64), value(*key, *len)).unwrap();
                    oracle.put(*key as u64, ts, value(*key, *len));
                }
                HistoryOp::Txn { writes, commit } => {
                    let txn = tree.begin_txn().unwrap();
                    let mut last: std::collections::BTreeMap<u8, Option<u8>> = Default::default();
                    for (key, len) in writes {
                        match len {
                            Some(len) => {
                                let key_bytes = Key::from_u64(*key as u64);
                                tree.txn_insert(txn, key_bytes, value(*key, *len)).unwrap()
                            }
                            None => tree.txn_delete(txn, Key::from_u64(*key as u64)).unwrap(),
                        }
                        last.insert(*key, *len);
                    }
                    if *commit {
                        let ts = tree.commit_txn(txn).unwrap();
                        for (key, len) in last {
                            let value = len.map(|len| value(key, len));
                            oracle.apply_put(Key::from_u64(key as u64), ts, value);
                        }
                    } else {
                        tree.abort_txn(txn).unwrap();
                    }
                }
            }
        }
        // An uncommitted write is in no history.
        let pending = tree.begin_txn().unwrap();
        tree.txn_insert(pending, Key::from_u64(3), b"pending".to_vec()).unwrap();
        tree.verify().unwrap();

        let expected_in = |keys: &KeyRange, window: &TimeRange| -> Vec<Version> {
            oracle
                .keys()
                .filter(|key| keys.contains(key))
                .flat_map(|key| {
                    oracle
                        .versions(key)
                        .into_iter()
                        .filter(|(ts, _)| window.contains(*ts))
                        .map(|(ts, value)| Version {
                            key: key.clone(),
                            state: tsb_common::TsState::Committed(ts),
                            value,
                        })
                })
                .collect()
        };
        let now = tree.now().value();
        for (keys, (lo, hi)) in &rectangles {
            let scale = |thousandths: u64| Timestamp(thousandths * (now + 1) / 1000);
            let window = match hi {
                Some(hi) => TimeRange::bounded(scale(*lo), scale(*hi)),
                None => TimeRange::from(scale(*lo)),
            };
            let expected = expected_in(keys, &window);
            prop_assert_eq!(&tree.scan_versions(keys, window).unwrap(), &expected);
            let mut changed: Vec<Key> = expected.into_iter().map(|v| v.key).collect();
            changed.dedup();
            prop_assert_eq!(tree.changed_keys_between(keys, window).unwrap(), changed);
            for key in &probe_keys {
                let key = Key::from_u64(*key);
                prop_assert_eq!(
                    tree.history_between(&key, window).unwrap(),
                    expected_in(&KeyRange::point(&key), &window)
                );
            }
        }
        for key in &probe_keys {
            let key = Key::from_u64(*key);
            let all = expected_in(&KeyRange::point(&key), &TimeRange::full());
            prop_assert_eq!(tree.version_count(&key).unwrap(), all.len());
            prop_assert_eq!(tree.versions(&key).unwrap(), all);
        }
    }

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
            prop_assert!(parts.historical.contains(e) || parts.current.contains(e));
        }
        // Historical = strictly older.
        for e in &parts.historical {
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
                        parts.current.contains(g),
                        "version valid at the split time must be in the current node"
                    );
                }
            }
        }
        // Redundancy accounting is exact.
        let both = parts
            .historical
            .iter()
            .filter(|e| parts.current.contains(e))
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
        let (left, right) = partition_by_key(&entries, &split);
        prop_assert_eq!(left.len() + right.len(), entries.len());
        prop_assert!(left.iter().all(|e| e.key < split));
        prop_assert!(right.iter().all(|e| e.key >= split));
    }

    /// The composite (secondary, primary) encoding is loss-free and
    /// order-preserving — the property the secondary index relies on for its
    /// prefix scans.
    #[test]
    fn composite_key_encoding_round_trips_and_preserves_order(
        pairs in prop::collection::vec(
            (prop::collection::vec(any::<u8>(), 0..12), prop::collection::vec(any::<u8>(), 0..12)),
            1..30
        ),
    ) {
        let mut tuples: Vec<(Key, Key)> = pairs
            .into_iter()
            .map(|(s, p)| (Key::from_bytes(s), Key::from_bytes(p)))
            .collect();
        for (s, p) in &tuples {
            let c = composite_key(s, p);
            let (s2, p2) = split_composite_key(&c).unwrap();
            prop_assert_eq!(&s2, s);
            prop_assert_eq!(&p2, p);
        }
        // Order preservation: sorting by tuple equals sorting by encoding.
        let mut by_encoding: Vec<(Key, Key)> = tuples.clone();
        by_encoding.sort_by_key(|(s, p)| composite_key(s, p));
        tuples.sort();
        prop_assert_eq!(by_encoding, tuples);
    }
}

// ---------- partitioned index routing ---------------------------------------
//
// `IndexNode::find_child` routes descents through a two-region layout
// (historical entries binary-searched by `(key, ts)`, current entries by
// key). The property: on *arbitrary valid* index nodes — generated as
// arbitrary rectangle tilings of the key x time plane, optionally put
// through a real index keyspace split so historical entries straddle the
// node's key range — the partitioned routing agrees with the linear
// reference scan at every probe point, including entry boundary corners,
// past timestamps, and `Timestamp::MAX`.

/// Builds a valid index node by recursively splitting the full rectangle.
/// Each instruction `(which, at, dim)` picks a rectangle and bisects it at a
/// key or time point strictly inside it (no-op when the point falls on or
/// outside the boundary).
fn tiling_node(splits: &[(u16, u16, u8)]) -> tsb_core::IndexNode {
    use tsb_common::{KeyRange, TimeBound, TimeRange};
    let mut rects: Vec<(KeyRange, TimeRange)> = vec![(KeyRange::full(), TimeRange::full())];
    for (which, at, dim) in splits {
        let idx = *which as usize % rects.len();
        let (kr, tr) = rects[idx].clone();
        if dim % 2 == 0 {
            let split = Key::from_u64(u64::from(at % 1000) + 1);
            if let Some((left, right)) = kr.split_at(&split) {
                rects[idx] = (left, tr);
                rects.push((right, tr));
            }
        } else {
            let t = Timestamp(u64::from(at % 1000) + 1);
            let strictly_inside = tr.lo < t
                && match tr.hi {
                    TimeBound::Finite(h) => t < h,
                    TimeBound::Infinity => true,
                };
            if strictly_inside {
                rects[idx] = (kr.clone(), TimeRange::new(tr.lo, TimeBound::Finite(t)));
                rects.push((kr, TimeRange::new(t, tr.hi)));
            }
        }
    }
    let entries: Vec<tsb_core::IndexEntry> = rects
        .into_iter()
        .enumerate()
        .map(|(i, (kr, tr))| {
            let addr = if tr.is_current() {
                tsb_core::NodeAddr::Current(tsb_storage::PageId(i as u64 + 1))
            } else {
                tsb_core::NodeAddr::Historical(tsb_storage::HistAddr::new(i as u64 * 128, 64))
            };
            tsb_core::IndexEntry::new(kr, tr, addr)
        })
        .collect();
    tsb_core::IndexNode::from_entries(KeyRange::full(), TimeRange::full(), entries)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn partitioned_find_child_agrees_with_linear_scan(
        splits in prop::collection::vec((any::<u16>(), any::<u16>(), any::<u8>()), 0..48),
        keyspace_split in (any::<u8>(), any::<u8>()),
        probes in prop::collection::vec((any::<u16>(), any::<u16>()), 0..64),
    ) {
        use tsb_common::{KeyBound, KeyRange, TimeRange};
        use tsb_core::split::partition_index_by_key;

        let mut node = tiling_node(&splits);
        node.validate().unwrap();

        // With 3-in-4 probability, apply a genuine index keyspace split
        // (paper rule set, straddling historical entries copied to both
        // halves) and keep one half, so the node carries historical
        // entries sticking out of its own key range.
        let (pick, side) = keyspace_split;
        if pick % 4 != 0 {
            // Split values must be current-entry lower bounds: in a real
            // tree every entry's lower bound is a current keyspace
            // boundary, so a split never straddles a current child.
            let candidates: Vec<Key> = node
                .current_region()
                .map(|e| Key::from_bytes(e.key_lo))
                .filter(|k| !k.is_min())
                .collect();
            if !candidates.is_empty() {
                let split = candidates[pick as usize % candidates.len()].clone();
                let parts = partition_index_by_key(&node.to_entries(), &split);
                let (range, entries) = if side % 2 == 0 {
                    (
                        KeyRange::new(Key::MIN, KeyBound::Finite(split)),
                        parts.left,
                    )
                } else {
                    (
                        KeyRange::new(split, KeyBound::PlusInfinity),
                        parts.right,
                    )
                };
                node = tsb_core::IndexNode::from_entries(range, TimeRange::full(), entries);
                node.validate().unwrap();
            }
        }

        let compare = |key: &Key, ts: Timestamp| {
            let partitioned = node.find_child(key, ts).map(|e| e.child);
            let linear = node.find_child_linear(key, ts).map(|e| e.child);
            prop_assert_eq!(
                partitioned, linear,
                "divergence at (key {}, ts {})", key, ts
            );
            Ok(())
        };

        // Every entry's corner points, probed at the entry's own start
        // time, just before its end, and at the end of time.
        let corner_entries: Vec<(Key, Timestamp, Option<Timestamp>)> = node
            .iter()
            .map(|e| {
                (
                    Key::from_bytes(e.key_lo),
                    e.time_range.lo,
                    e.time_range.hi.as_finite(),
                )
            })
            .collect();
        for (lo, t_lo, t_hi) in &corner_entries {
            compare(lo, *t_lo)?;
            compare(lo, Timestamp::MAX)?;
            if let Some(h) = t_hi {
                compare(lo, *h)?;
                if h.value() > 0 {
                    compare(lo, h.prev())?;
                }
            }
        }
        // Random probes, with a bias toward MAX (the hot descent).
        for (a, b) in &probes {
            let key = Key::from_u64(u64::from(a % 1200));
            let ts = if b % 8 == 0 {
                Timestamp::MAX
            } else {
                Timestamp(u64::from(b % 1100))
            };
            compare(&key, ts)?;
        }
        // Rectangle routing: the pruned overlap query returns exactly what
        // a filter over every entry returns, in the same (storage) order.
        for pair in probes.chunks_exact(2) {
            let ((a, b), (c, d)) = (pair[0], pair[1]);
            let lo = Key::from_u64(u64::from(a % 1200));
            let from = Timestamp(u64::from(b % 1100));
            let rectangles = [
                (
                    KeyRange::bounded(lo.clone(), Key::from_u64(u64::from(c % 1200))),
                    TimeRange::bounded(from, Timestamp(u64::from(d % 1100))),
                ),
                (KeyRange::point(&lo), TimeRange::from(from)),
                (KeyRange::new(lo, KeyBound::PlusInfinity), TimeRange::full()),
            ];
            for (keys, window) in &rectangles {
                let pruned: Vec<_> = node
                    .children_overlapping(keys, window)
                    .map(|e| e.child)
                    .collect();
                // The filter runs on owned entries: it also holds the
                // borrowed-bounds overlap test to `KeyRange::overlaps`.
                let linear: Vec<_> = node
                    .to_entries()
                    .iter()
                    .filter(|e| e.overlaps(keys, window))
                    .map(|e| e.child)
                    .collect();
                prop_assert_eq!(pruned, linear, "rectangle {} x {}", keys, window);
            }
        }
    }
}
