//! Engine-generic oracle equivalence, expressed over
//! [`EngineHandle`] so one replay/check pair covers every engine flavour —
//! a `ShardedTsb` at any shard count, primary or synced replica, answers
//! through the same trait.
//!
//! [`replay_engine`] drives a scripted [`Op`] stream through the trait's
//! deferred-durability write verbs and records each acknowledged commit in
//! an [`Oracle`]; [`assert_engine_matches_oracle`] then demands identical
//! answers for current reads, as-of reads at every recorded commit time,
//! and per-key version histories. Together they are the operational
//! meaning of "no version is ever lost and every snapshot is consistent",
//! checked through the exact API servers and drivers use.

use tsb_common::{KeyRange, TimeRange, Timestamp, TsbResult};
use tsb_core::EngineHandle;

use crate::generator::Op;
use crate::oracle::Oracle;

/// Replays `ops` through `db`'s deferred write verbs, waiting once at the
/// end for the durable watermark to cover everything, and returns the
/// oracle of acknowledged commits.
pub fn replay_engine(db: &dyn EngineHandle, ops: &[Op]) -> TsbResult<Oracle> {
    let mut oracle = Oracle::new();
    // The newest durability position on the engine's one log: one wait on
    // it at the end acknowledges the whole stream.
    let mut tail = None;
    for op in ops {
        let pos = match op {
            Op::Put { key, value } => {
                let (ts, pos) = db.insert_deferred(key.clone(), value.clone())?;
                oracle.apply_put(key.clone(), ts, Some(value.clone()));
                pos
            }
            Op::Delete { key } => {
                let (ts, pos) = db.delete_deferred(key.clone())?;
                oracle.apply_put(key.clone(), ts, None);
                pos
            }
        };
        tail = tail.max(pos);
    }
    if let Some(lsn) = tail {
        db.wait_durable(lsn)?;
    }
    Ok(oracle)
}

/// Panics unless `db` answers every query shape exactly as `oracle` does:
/// the full current state, per-key current reads, as-of snapshots at every
/// `sample_every`-th recorded commit time, and complete version histories.
pub fn assert_engine_matches_oracle(db: &dyn EngineHandle, oracle: &Oracle, sample_every: usize) {
    let range = KeyRange::full();
    assert_eq!(
        db.scan_current(&range).expect("scan_current"),
        oracle.snapshot_at(Timestamp::MAX),
        "current snapshot diverged from the oracle"
    );

    for key in oracle.keys() {
        assert_eq!(
            db.get_current(key).expect("get_current"),
            oracle.get_current(key),
            "current read diverged on {key:?}"
        );
        let engine_versions: Vec<(Timestamp, Option<Vec<u8>>)> = db
            .history_between(key, TimeRange::full())
            .expect("history_between")
            .into_iter()
            .map(|v| {
                (
                    v.state
                        .commit_time()
                        .expect("history of a quiesced engine is all committed"),
                    v.value,
                )
            })
            .collect();
        assert_eq!(
            engine_versions,
            oracle.versions(key),
            "version history diverged on {key:?}"
        );
    }

    for ts in oracle
        .all_timestamps()
        .into_iter()
        .step_by(sample_every.max(1))
    {
        assert_eq!(
            db.scan_as_of(&range, ts).expect("scan_as_of"),
            oracle.scan_as_of(&range, ts),
            "as-of snapshot diverged at {ts:?}"
        );
    }
}
