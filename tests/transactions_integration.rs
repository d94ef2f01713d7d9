//! Transaction semantics (§4) exercised across splits, migrations, and
//! concurrent read-only snapshots, against the oracle.

use tsb_common::{Key, KeyRange, SplitPolicyKind, Timestamp, TsbConfig};
use tsb_core::{EngineHandle, ShardedTsb};
use tsb_workload::Oracle;

fn tree(policy: SplitPolicyKind) -> ShardedTsb {
    tsb_core::TsbOptions::in_memory()
        .config(TsbConfig::small_pages().with_split_policy(policy))
        .open()
        .unwrap()
}

#[test]
fn interleaved_transactions_with_aborts_match_the_oracle() {
    let t = tree(SplitPolicyKind::TimePreferring);
    let mut oracle = Oracle::new();

    // Deterministic interleaving: every 3rd transaction aborts.
    for round in 0..100u64 {
        let txn = t.begin_txn().unwrap();
        let keys: Vec<u64> = (0..4).map(|i| (round * 3 + i) % 25).collect();
        for &k in &keys {
            t.txn_insert(txn, Key::from_u64(k), format!("r{round}-k{k}").into_bytes())
                .unwrap();
        }
        if round % 3 == 2 {
            t.abort_txn(txn).unwrap();
        } else {
            let ts = t.commit_txn(txn).unwrap();
            for &k in &keys {
                oracle.put(k, ts, format!("r{round}-k{k}").into_bytes());
            }
        }
    }
    t.verify().unwrap();

    // Current values match (aborted rounds never became visible).
    for k in 0..25u64 {
        assert_eq!(
            t.get_current(&Key::from_u64(k)).unwrap(),
            oracle.get_current(&Key::from_u64(k)),
            "key {k}"
        );
    }
    // All committed versions are present, no aborted version leaked.
    for k in oracle.keys() {
        let got: Vec<Timestamp> = t
            .versions(k)
            .unwrap()
            .iter()
            .map(|v| v.commit_time().unwrap())
            .collect();
        let expected: Vec<Timestamp> = oracle.versions(k).iter().map(|(ts, _)| *ts).collect();
        assert_eq!(got, expected, "history of {k}");
    }
    // Snapshots agree at several past times.
    for ts in oracle.all_timestamps().iter().step_by(7) {
        assert_eq!(t.snapshot_at(*ts).unwrap(), oracle.snapshot_at(*ts));
    }
    // Every transaction finished: no uncommitted version is left behind.
    assert_eq!(t.tree_stats().unwrap().uncommitted_versions, 0);
}

#[test]
fn atomicity_all_of_a_transactions_writes_share_one_timestamp() {
    let t = tree(SplitPolicyKind::default());
    // Fill the tree so commits land in different leaves.
    for i in 0..200u64 {
        t.insert(Key::from_u64(i), b"seed".to_vec()).unwrap();
    }
    let txn = t.begin_txn().unwrap();
    let touched: Vec<u64> = vec![3, 77, 150, 199];
    for &k in &touched {
        t.txn_insert(txn, Key::from_u64(k), b"multi-leaf commit".to_vec())
            .unwrap();
    }
    let commit_ts = t.commit_txn(txn).unwrap();
    for &k in &touched {
        let version = t
            .get_version_as_of(&Key::from_u64(k), commit_ts)
            .unwrap()
            .unwrap();
        assert_eq!(version.commit_time(), Some(commit_ts));
        assert_eq!(version.value, Some(b"multi-leaf commit".to_vec()));
        // Just before the commit timestamp, the old value is still visible.
        assert_eq!(
            t.get_as_of(&Key::from_u64(k), commit_ts.prev())
                .unwrap()
                .unwrap(),
            b"seed".to_vec()
        );
    }
    t.verify().unwrap();
}

#[test]
fn snapshot_backup_is_unaffected_by_later_commits_and_in_flight_writers() {
    let t = tree(SplitPolicyKind::TimePreferring);
    for i in 0..100u64 {
        t.insert(Key::from_u64(i), b"v1".to_vec()).unwrap();
    }
    // An in-flight writer exists when the backup begins.
    let writer = t.begin_txn().unwrap();
    t.txn_insert(
        writer,
        Key::from_u64(500),
        b"uncommitted at backup time".to_vec(),
    )
    .unwrap();

    let snapshot = t.begin_snapshot();
    let backup_ts = snapshot.timestamp();

    // Lots of later activity, including the in-flight writer committing and
    // enough churn to force splits and migration.
    for round in 0..5u64 {
        for i in 0..100u64 {
            t.insert(Key::from_u64(i), format!("v2-round{round}").into_bytes())
                .unwrap();
        }
    }
    t.commit_txn(writer).unwrap();

    let backup = snapshot.dump().unwrap();
    assert_eq!(backup.len(), 100);
    assert!(backup.iter().all(|(_, v)| v == b"v1"));
    assert!(!backup.iter().any(|(k, _)| k.as_u64() == Some(500)));

    // The backup scan interface agrees with point reads at the same time.
    let range = KeyRange::bounded(Key::from_u64(10), Key::from_u64(20));
    let scanned = snapshot.scan(&range).unwrap();
    assert_eq!(scanned.len(), 10);
    for (k, val) in scanned {
        assert_eq!(t.get_as_of(&k, backup_ts).unwrap().unwrap(), val);
    }
    t.verify().unwrap();
}

#[test]
fn write_conflicts_resolve_after_commit_or_abort() {
    let t = tree(SplitPolicyKind::default());
    let a = t.begin_txn().unwrap();
    let b = t.begin_txn().unwrap();
    t.txn_insert(a, Key::from_u64(1), b"a".to_vec()).unwrap();
    assert!(t.txn_insert(b, Key::from_u64(1), b"b".to_vec()).is_err());
    t.abort_txn(a).unwrap();
    // After the abort, b can write and commit the key.
    t.txn_insert(b, Key::from_u64(1), b"b".to_vec()).unwrap();
    t.commit_txn(b).unwrap();
    assert_eq!(
        t.get_current(&Key::from_u64(1)).unwrap().unwrap(),
        b"b".to_vec()
    );

    // Single-shot writes (auto-commit) conflict with in-flight transactions
    // only through the uncommitted-version check; they are independent here.
    let c = t.begin_txn().unwrap();
    t.txn_delete(c, Key::from_u64(1)).unwrap();
    t.commit_txn(c).unwrap();
    assert!(t.get_current(&Key::from_u64(1)).unwrap().is_none());
    t.verify().unwrap();
}
