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
//!
//! The properties of single nodes and keys — the split rules, index
//! routing, the composite-key encoding — are `tsb-core`'s unit tests
//! (`split::tests`, `node::index::tests`, `secondary::tests`).

use proptest::prelude::*;

use tsb_common::{
    Key, KeyRange, SplitPolicyKind, SplitTimeChoice, TimeRange, Timestamp, TsbConfig, Version,
};
use tsb_core::EngineHandle;
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
                .filter(|key| keys.contains(*key))
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
}
