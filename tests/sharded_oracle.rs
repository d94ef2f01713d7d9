//! Sharding correctness: routing stability and oracle equivalence.
//!
//! Two property families back the sharded engine:
//!
//! * **Routing is a stable pure partition** — every key maps to exactly one
//!   shard, the mapping depends on nothing but the key bytes and the shard
//!   count, and it is identical before and after a durable reopen (the
//!   manifest pins the count, the hash pins everything else).
//! * **Oracle equivalence at every pinned fence** — for arbitrary operation
//!   sequences (plain writes, deletes, and multi-key transactions that
//!   straddle shards), an `N`-shard engine answers `get` / `get_as_of` /
//!   range scans / version histories exactly like a 1-shard engine fed the
//!   same sequence *and* exactly like the in-memory oracle — with the same
//!   commit timestamps, because both engines tick the same amount from a
//!   logically identical global clock.

use proptest::prelude::*;

use tsb_common::{Key, KeyBound, KeyRange, TimeRange, Timestamp, TsbConfig};
use tsb_core::sharded::shard_of;
use tsb_core::{EngineHandle, ShardedTsb};
use tsb_workload::Oracle;

// ---------- generators -------------------------------------------------------

#[derive(Clone, Debug)]
enum ShardOp {
    /// A single-key autocommit write.
    Put { key: u8, len: u8 },
    /// A single-key logical delete.
    Delete { key: u8 },
    /// A multi-key transaction: all listed keys written atomically. With
    /// several shards the key set usually straddles them, exercising the
    /// one fence naming several shards; occasionally it lands on one shard
    /// or is empty.
    Txn { keys: Vec<u8>, commit: bool },
}

fn op_strategy() -> impl Strategy<Value = ShardOp> {
    prop_oneof![
        5 => (any::<u8>(), any::<u8>()).prop_map(|(key, len)| ShardOp::Put { key: key % 48, len }),
        1 => any::<u8>().prop_map(|key| ShardOp::Delete { key: key % 48 }),
        2 => (prop::collection::vec(any::<u8>(), 0..6), any::<bool>()).prop_map(
            |(mut keys, commit)| {
                for k in &mut keys {
                    *k %= 48;
                }
                keys.sort_unstable();
                keys.dedup();
                ShardOp::Txn { keys, commit }
            }
        ),
    ]
}

/// Replays `ops` into a sharded engine and the in-memory oracle, returning
/// the `(key, ts, value)` commit log. Transaction writes enter the oracle
/// only on commit, all at the commit timestamp.
fn replay(
    db: &ShardedTsb,
    oracle: &mut Oracle,
    ops: &[ShardOp],
) -> Vec<(Key, Timestamp, Option<Vec<u8>>)> {
    let mut log = Vec::new();
    for (n, op) in ops.iter().enumerate() {
        match op {
            ShardOp::Put { key, len } => {
                let value = vec![*key; (*len % 24) as usize];
                let ts = db
                    .insert(Key::from_u64(*key as u64), value.clone())
                    .unwrap();
                oracle.put(*key as u64, ts, value.clone());
                log.push((Key::from_u64(*key as u64), ts, Some(value)));
            }
            ShardOp::Delete { key } => {
                let ts = db.delete(Key::from_u64(*key as u64)).unwrap();
                oracle.delete(*key as u64, ts);
                log.push((Key::from_u64(*key as u64), ts, None));
            }
            ShardOp::Txn { keys, commit } => {
                let txn = db.begin_txn().unwrap();
                for key in keys {
                    let value = vec![*key, n as u8];
                    db.txn_insert(txn, Key::from_u64(*key as u64), value)
                        .unwrap();
                }
                if *commit {
                    let ts = db.commit_txn(txn).unwrap();
                    for key in keys {
                        let value = vec![*key, n as u8];
                        oracle.put(*key as u64, ts, value.clone());
                        log.push((Key::from_u64(*key as u64), ts, Some(value)));
                    }
                } else {
                    db.abort_txn(txn).unwrap();
                }
            }
        }
    }
    log
}

fn mid_range() -> KeyRange {
    KeyRange::new(Key::from_u64(8), KeyBound::Finite(Key::from_u64(40)))
}

// ---------- routing ----------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The routing hash is a total function onto `0..n`, deterministic, and
    /// depends only on the key bytes — two differently-built equal keys
    /// route identically, and the assignment over a key population touches
    /// every shard.
    #[test]
    fn routing_is_a_pure_total_partition(
        keys in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..24), 1..120),
        n in 1usize..9,
    ) {
        for bytes in &keys {
            let key = Key::from_bytes(bytes);
            let s = shard_of(&key, n);
            prop_assert!(s < n, "route out of range: {s} >= {n}");
            prop_assert_eq!(s, shard_of(&key, n), "routing must be deterministic");
            let rebuilt = Key::from_vec(bytes.clone());
            prop_assert_eq!(s, shard_of(&rebuilt, n), "routing must depend only on bytes");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Reopening a durable sharded directory preserves the partition: every
    /// key answers from the same shard, with the same value, after reopen.
    #[test]
    fn routing_is_identical_across_reopen(seed in any::<u64>()) {
        let dir = std::env::temp_dir().join(format!(
            "tsb-shard-reopen-{}-{seed:x}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let shards = 1 + (seed % 4) as usize; // 1..=4, including the flat layout
        let cfg = TsbConfig::small_pages();
        let mut routes = Vec::new();
        {
            let db = tsb_core::TsbOptions::durable(&dir).config(cfg.clone()).shards(shards).open().unwrap();
            for i in 0..64u64 {
                let key = Key::from_u64(seed.wrapping_add(i));
                db.insert(key.clone(), vec![i as u8]).unwrap();
                routes.push((key.clone(), db.shard_of(&key), vec![i as u8]));
            }
        }
        let db = tsb_core::TsbOptions::durable(&dir).config(cfg).shards(shards).open().unwrap();
        for (key, shard, value) in &routes {
            prop_assert_eq!(db.shard_of(key), *shard, "partition moved across reopen");
            // The value is found — which it could not be if the key were
            // now routed to a shard that never stored it.
            prop_assert_eq!(db.get_current(key).unwrap(), Some(value.clone()));
        }
        // A contradictory shard count is rejected, not silently re-partitioned.
        let wrong = if shards == 4 { 2 } else { shards + 1 };
        prop_assert!(tsb_core::TsbOptions::durable(&dir).config(TsbConfig::small_pages()).shards(wrong).open().is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// ---------- oracle equivalence -----------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// An `N`-shard engine fed an arbitrary op sequence answers every query
    /// exactly like a 1-shard engine fed the same sequence and exactly like
    /// the in-memory oracle — same commit timestamps, same values, same
    /// histories, at every recorded commit time and at the pinned snapshot
    /// fence.
    #[test]
    fn sharded_matches_single_shard_and_oracle(
        ops in prop::collection::vec(op_strategy(), 1..150),
        n in 2usize..5,
    ) {
        let cfg = TsbConfig::small_pages();
        let sharded = tsb_core::TsbOptions::in_memory().config(cfg.clone()).shards(n).open().unwrap();
        let single = tsb_core::TsbOptions::in_memory().config(cfg).shards(1).open().unwrap();
        let mut oracle = Oracle::new();
        let mut shadow = Oracle::new();

        let log = replay(&sharded, &mut oracle, &ops);
        let single_log = replay(&single, &mut shadow, &ops);

        // Same sequence → same global commit timestamps, shard count be damned.
        prop_assert_eq!(&log, &single_log, "commit logs diverged between 1 and {} shards", n);
        prop_assert_eq!(sharded.now(), single.now());

        sharded.verify().unwrap();

        // Point reads at every recorded commit time.
        for (key, ts, value) in &log {
            prop_assert_eq!(&sharded.get_as_of(key, *ts).unwrap(), value);
            prop_assert_eq!(
                sharded.get_as_of(key, *ts).unwrap(),
                single.get_as_of(key, *ts).unwrap()
            );
        }

        // Current reads and full version histories for every key ever written.
        for key in oracle.keys() {
            prop_assert_eq!(sharded.get_current(key).unwrap(), oracle.get_current(key));
            let got: Vec<(Timestamp, Option<Vec<u8>>)> = sharded
                .versions(key).unwrap()
                .into_iter()
                .map(|v| (v.state.commit_time().unwrap(), v.value))
                .collect();
            prop_assert_eq!(got, oracle.versions(key), "history mismatch for {:?}", key);
            prop_assert_eq!(
                sharded.history_between(key, TimeRange::full()).unwrap(),
                single.history_between(key, TimeRange::full()).unwrap()
            );
        }

        // Range scans: full and partial, at the fence, a midpoint, and now.
        let fence = sharded.begin_snapshot();
        let single_fence = single.begin_snapshot();
        prop_assert_eq!(fence.timestamp(), single_fence.timestamp());
        prop_assert_eq!(fence.dump().unwrap(), oracle.snapshot_at(fence.timestamp()));
        prop_assert_eq!(fence.dump().unwrap(), single_fence.dump().unwrap());

        let mut probes = vec![fence.timestamp(), sharded.now()];
        if let Some((_, mid_ts, _)) = log.get(log.len() / 2) {
            probes.push(*mid_ts);
        }
        let range = mid_range();
        for ts in probes {
            prop_assert_eq!(sharded.scan_as_of(&KeyRange::full(), ts).unwrap(), oracle.snapshot_at(ts));
            prop_assert_eq!(sharded.scan_as_of(&range, ts).unwrap(), oracle.scan_as_of(&range, ts));
            prop_assert_eq!(
                sharded.scan_as_of(&range, ts).unwrap(),
                single.scan_as_of(&range, ts).unwrap()
            );
            prop_assert_eq!(sharded.count_as_of(&KeyRange::full(), ts).unwrap(), oracle.count_as_of(&KeyRange::full(), ts));
        }

        // The temporal queries over key × time rectangles, merged across
        // shards into one shard's order: the whole history, and a key range
        // over the older half of time.
        let half = Timestamp(sharded.now().value() / 2 + 1);
        for (keys, window) in [
            (KeyRange::full(), TimeRange::full()),
            (range, TimeRange::bounded(Timestamp::ZERO, half)),
        ] {
            let versions = sharded.scan_versions(&keys, window).unwrap();
            prop_assert_eq!(&versions, &single.scan_versions(&keys, window).unwrap());
            let got: Vec<(Key, Timestamp, Option<Vec<u8>>)> = versions
                .into_iter()
                .map(|v| (v.key, v.state.commit_time().unwrap(), v.value))
                .collect();
            prop_assert_eq!(got, oracle_rectangle(&oracle, &keys, window));

            let changed = sharded.changed_keys_between(&keys, window).unwrap();
            prop_assert_eq!(&changed, &single.changed_keys_between(&keys, window).unwrap());
            let mut want: Vec<Key> =
                oracle_rectangle(&oracle, &keys, window).into_iter().map(|(k, _, _)| k).collect();
            want.dedup();
            prop_assert_eq!(changed, want);
        }
        for key in oracle.keys() {
            let count = sharded.version_count(key).unwrap();
            prop_assert_eq!(count, single.version_count(key).unwrap());
            prop_assert_eq!(count, oracle.versions(key).len());
        }
        sharded.verify_cache_coherence().unwrap();
    }
}

/// Every version the oracle holds in the `keys` × `window` rectangle, by
/// key and then commit time.
fn oracle_rectangle(
    oracle: &Oracle,
    keys: &KeyRange,
    window: TimeRange,
) -> Vec<(Key, Timestamp, Option<Vec<u8>>)> {
    let mut out = Vec::new();
    for key in oracle.keys().filter(|k| keys.contains(k)) {
        for (ts, value) in oracle.versions(key) {
            if window.contains(ts) {
                out.push((key.clone(), ts, value));
            }
        }
    }
    out.sort_by(|a, b| (&a.0, a.1).cmp(&(&b.0, b.1)));
    out
}

// ---------- directed edges ---------------------------------------------------

/// The merged scan respects key order even when adjacent keys live on
/// different shards (interleaved routing is the common case, not the edge).
#[test]
fn merged_scans_interleave_shards_in_key_order() {
    let db = tsb_core::TsbOptions::in_memory()
        .config(TsbConfig::small_pages())
        .shards(4)
        .open()
        .unwrap();
    for i in 0..200u64 {
        db.insert(Key::from_u64(i), vec![i as u8]).unwrap();
    }
    let rows = db.scan_current(&KeyRange::full()).unwrap();
    assert_eq!(rows.len(), 200);
    assert!(rows.windows(2).all(|w| w[0].0 < w[1].0));
    // Adjacent keys land on different shards somewhere in the population —
    // otherwise this test exercises nothing.
    assert!(
        (0..199u64).any(|i| db.shard_of(&Key::from_u64(i)) != db.shard_of(&Key::from_u64(i + 1))),
        "workload never crossed a shard boundary"
    );
}

/// A snapshot pinned at the fence never mixes shard states across it: a
/// cross-shard transaction committed after the pin is invisible on every
/// shard, and one committed before is visible on every shard.
#[test]
fn pinned_fence_is_atomic_with_respect_to_cross_shard_commits() {
    let db = tsb_core::TsbOptions::in_memory()
        .config(TsbConfig::small_pages())
        .shards(4)
        .open()
        .unwrap();
    let before = db.begin_txn().unwrap();
    for i in 0..32u64 {
        db.txn_insert(before, Key::from_u64(i), b"before".to_vec())
            .unwrap();
    }
    db.commit_txn(before).unwrap();

    let snap = db.begin_snapshot();

    let after = db.begin_txn().unwrap();
    for i in 0..32u64 {
        db.txn_insert(after, Key::from_u64(i), b"after".to_vec())
            .unwrap();
    }
    db.commit_txn(after).unwrap();

    let rows = snap.dump().unwrap();
    assert_eq!(rows.len(), 32);
    for (key, value) in rows {
        assert_eq!(
            value,
            b"before".to_vec(),
            "snapshot mixed fences at {key:?}"
        );
    }
    // A fresh snapshot sees the post-pin commit on every shard at once.
    let fresh = db.begin_snapshot();
    for (_, value) in fresh.dump().unwrap() {
        assert_eq!(value, b"after".to_vec());
    }
}
