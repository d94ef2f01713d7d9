//! Shared helpers for the cross-crate integration and property tests.
//!
//! The central helper is [`replay`]: it applies the same operation stream to
//! a TSB-tree engine, the WOBT baseline, and the in-memory [`Oracle`], so
//! tests can demand that every structure answers every temporal query
//! identically.

#![forbid(unsafe_code)]

use tsb_common::Timestamp;
use tsb_core::{EngineHandle, ShardedTsb};
use tsb_wobt::Wobt;
use tsb_workload::{Op, Oracle};

/// The commit log produced by replaying a workload: `(key, timestamp,
/// value-or-tombstone)` in commit order.
pub type CommitLog = Vec<(tsb_common::Key, Timestamp, Option<Vec<u8>>)>;

/// Replays `ops` into the engine and the oracle, returning the commit log.
pub fn replay(db: &ShardedTsb, oracle: &mut Oracle, ops: &[Op]) -> CommitLog {
    let mut log = Vec::with_capacity(ops.len());
    for op in ops {
        match op {
            Op::Put { key, value } => {
                let ts = db.insert(key.clone(), value.clone()).expect("insert");
                oracle.put(key.clone(), ts, value.clone());
                log.push((key.clone(), ts, Some(value.clone())));
            }
            Op::Delete { key } => {
                let ts = db.delete(key.clone()).expect("delete");
                oracle.delete(key.clone(), ts);
                log.push((key.clone(), ts, None));
            }
        }
    }
    log
}

/// Replays a commit log (produced by [`replay`]) into a WOBT at the same
/// timestamps, so the two structures hold identical logical content.
pub fn replay_into_wobt(wobt: &mut Wobt, log: &CommitLog) {
    for (key, ts, value) in log {
        match value {
            Some(v) => wobt
                .insert_at(key.clone(), v.clone(), *ts)
                .expect("wobt insert"),
            None => {
                // The WOBT has no explicit timestamped delete helper; replay
                // deletes as tombstones at the next tick, which the
                // comparisons account for by querying at recorded times only.
                wobt.delete(key.clone()).expect("wobt delete");
            }
        }
    }
}

/// Asserts that the engine and the oracle agree on every query class at a
/// sample of timestamps drawn from the commit log.
pub fn assert_tree_matches_oracle(tree: &ShardedTsb, oracle: &Oracle, log: &CommitLog) {
    use tsb_common::KeyRange;

    // Every recorded version is readable as of its own commit time.
    for (key, ts, value) in log {
        let got = tree.get_as_of(key, *ts).expect("as-of read");
        assert_eq!(&got, value, "key {key} as of {ts}");
    }
    // Current reads match for every key ever touched.
    for key in oracle.keys() {
        assert_eq!(
            tree.get_current(key).expect("current read"),
            oracle.get_current(key),
            "current value of {key}"
        );
        let tree_versions: Vec<Timestamp> = tree
            .versions(key)
            .expect("versions")
            .iter()
            .map(|v| v.commit_time().unwrap())
            .collect();
        let oracle_versions: Vec<Timestamp> =
            oracle.versions(key).iter().map(|(t, _)| *t).collect();
        assert_eq!(tree_versions, oracle_versions, "history of {key}");
    }
    // Snapshots agree at a spread of past times.
    let times = oracle.all_timestamps();
    for idx in [0, times.len() / 4, times.len() / 2, times.len() - 1] {
        let ts = times[idx.min(times.len() - 1)];
        assert_eq!(
            tree.snapshot_at(ts).expect("snapshot"),
            oracle.snapshot_at(ts),
            "snapshot at {ts}"
        );
    }
    // A few range scans agree.
    let keys: Vec<_> = oracle.keys().cloned().collect();
    if keys.len() >= 4 {
        let lo = keys[keys.len() / 4].clone();
        let hi = keys[3 * keys.len() / 4].clone();
        let range = KeyRange::new(lo, tsb_common::KeyBound::Finite(hi));
        let ts = times[times.len() / 2];
        assert_eq!(
            tree.scan_as_of(&range, ts).expect("range scan"),
            oracle.scan_as_of(&range, ts),
            "range scan at {ts}"
        );
    }
}

/// Asserts that the WOBT agrees with the oracle on as-of point reads at the
/// recorded commit times and on current reads.
pub fn assert_wobt_matches_oracle(wobt: &Wobt, oracle: &Oracle, log: &CommitLog) {
    for (key, ts, value) in log {
        if value.is_none() {
            // Tombstones were replayed at a shifted timestamp; skip the exact
            // point check but still verify via current reads below.
            continue;
        }
        assert_eq!(
            &wobt.get_as_of(key, *ts).expect("wobt as-of"),
            value,
            "WOBT: key {key} as of {ts}"
        );
    }
    for key in oracle.keys() {
        assert_eq!(
            wobt.get_current(key).expect("wobt current"),
            oracle.get_current(key),
            "WOBT current value of {key}"
        );
    }
}
