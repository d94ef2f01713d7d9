//! Sharded crash recovery: per-shard crash points and the two-phase fence
//! windows.
//!
//! The single-engine recovery matrix (`recovery.rs`) proves one WAL replays
//! to its durable prefix. This file proves the *sharded* claims on top:
//!
//! * A crash at any per-shard device write loses no acknowledged single-key
//!   write — each shard's WAL is an independent durability domain and a
//!   power cut (the tripped injector kills every shard at once) leaves each
//!   at some durable prefix covering everything acknowledged.
//! * A crash anywhere inside the two-phase fence — after `k` of `n`
//!   prepares, at the coordinator's decision append, in the window after
//!   the decision is durable but before any participant stamped its local
//!   commit, or between participant commits — never commits a cross-shard
//!   transaction partially. Recovery resolves surviving prepares against
//!   the coordinator's decision record: present on every shard or absent
//!   from every shard, with one commit timestamp everywhere.

use std::path::PathBuf;
use std::sync::Arc;

use tsb_common::{FsyncPolicy, Key, SplitPolicyKind, Timestamp, TsbConfig};
use tsb_core::sharded::shard_of;
use tsb_core::{CrashPoint, EngineHandle, FaultInjector};
use tsb_storage::{IoStats, Wal, WalRecord};

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "tsb-shcrash-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn crash_cfg() -> TsbConfig {
    TsbConfig::small_pages()
        .with_split_policy(SplitPolicyKind::TimePreferring)
        .with_fsync_policy(FsyncPolicy::Always)
}

const SHARDS: usize = 4;

/// Picks one key per shard (so every transaction genuinely straddles all
/// `SHARDS` shards and must run the two-phase fence), derived from `round`
/// so every round's key set is disjoint.
fn straddling_keys(round: u64) -> Vec<u64> {
    let mut picked: Vec<Option<u64>> = vec![None; SHARDS];
    let mut candidate = round * 10_000;
    while picked.iter().any(Option::is_none) {
        let shard = shard_of(&Key::from_u64(candidate), SHARDS);
        if picked[shard].is_none() {
            picked[shard] = Some(candidate);
        }
        candidate += 1;
    }
    picked.into_iter().map(Option::unwrap).collect()
}

fn txn_value(round: u64, key: u64) -> Vec<u8> {
    format!("t{round}-k{key}").into_bytes()
}

/// What a fence-window scenario demands of the *first crashed* transaction
/// after recovery.
#[derive(Clone, Copy, Debug)]
enum Expect {
    /// The crash landed before the decision was durable: presumed abort.
    Aborted,
    /// The crash landed after the decision was durable: rolled forward.
    Committed,
    /// The crash may land on either side (skip counts drift with page
    /// images); only atomicity is demanded.
    Either,
}

/// One two-phase-fence crash scenario: baseline writes, arm the injector,
/// drive cross-shard transactions into the crash, reopen, and assert
/// atomicity (twice — recovery must be a fixed point).
fn run_two_pc_crash(tag: &str, point: CrashPoint, skip: u64, expect: Expect) {
    let cfg = crash_cfg();
    let dir = TempDir::new(tag);
    let db = tsb_core::TsbOptions::durable(&dir.0)
        .config(cfg.clone())
        .shards(SHARDS)
        .open()
        .unwrap();

    // Baseline: acknowledged single-key writes on every shard, committed
    // before the injector exists. They must survive any later crash.
    for i in 0..16u64 {
        db.insert(Key::from_u64(900_000 + i), format!("base-{i}").into_bytes())
            .unwrap();
    }

    let injector = Arc::new(FaultInjector::new());
    db.set_fault_injector(Arc::clone(&injector));
    injector.crash_at(point, skip);

    // Cross-shard transactions until the injected crash (or the budget —
    // large skips may outlive the run, which is a clean shutdown).
    let mut acked: Vec<(Vec<u64>, Timestamp, u64)> = Vec::new();
    let mut attempted: Vec<(Vec<u64>, u64)> = Vec::new();
    let mut first_crashed: Option<u64> = None;
    for round in 0..24u64 {
        let keys = straddling_keys(round);
        let txn = db.begin_txn().unwrap();
        attempted.push((keys.clone(), round));
        let mut dead = false;
        for k in &keys {
            if db
                .txn_insert(txn, Key::from_u64(*k), txn_value(round, *k))
                .is_err()
            {
                dead = true;
                break;
            }
        }
        if dead {
            first_crashed = Some(round);
            break;
        }
        match db.commit_txn(txn) {
            Ok(ts) => acked.push((keys, ts, round)),
            Err(_) => {
                first_crashed = Some(round);
                break;
            }
        }
    }
    let crashed = injector.tripped();
    if !matches!(expect, Expect::Either) {
        assert!(
            crashed,
            "{tag}: the workload never reached {point:?} (skip {skip}) — the scenario tested nothing"
        );
    }
    drop(db); // power cut: caches and transaction tables are gone
    assert_no_commit_without_its_decision(&dir.0, tag);

    for generation in 0..2 {
        let db = tsb_core::TsbOptions::durable(&dir.0)
            .config(cfg.clone())
            .shards(SHARDS)
            .open()
            .unwrap();
        db.verify().unwrap();

        // Zero acknowledged loss: the baseline and every acked transaction.
        for i in 0..16u64 {
            assert_eq!(
                db.get_current(&Key::from_u64(900_000 + i)).unwrap(),
                Some(format!("base-{i}").into_bytes()),
                "{tag}: baseline key lost (gen {generation})"
            );
        }
        for (keys, ts, round) in &acked {
            for k in keys {
                let v = db
                    .get_version_as_of(&Key::from_u64(*k), *ts)
                    .unwrap()
                    .unwrap_or_else(|| {
                        panic!("{tag}: acked txn {round} lost key {k} (gen {generation})")
                    });
                assert_eq!(v.state.commit_time(), Some(*ts), "{tag}: txn {round}");
                assert_eq!(v.value, Some(txn_value(*round, *k)), "{tag}: txn {round}");
            }
        }

        // No partial commit: every attempted transaction is all-or-nothing,
        // and when present, present at one timestamp on every shard.
        for (keys, round) in &attempted {
            let mut times = Vec::new();
            for k in keys {
                match db.get_current(&Key::from_u64(*k)).unwrap() {
                    Some(v) => {
                        assert_eq!(v, txn_value(*round, *k), "{tag}: foreign value on {k}");
                        let ver = db
                            .get_version_as_of(&Key::from_u64(*k), Timestamp::MAX)
                            .unwrap()
                            .expect("present key has a version");
                        times.push(ver.state.commit_time().unwrap());
                    }
                    None => times.push(Timestamp::ZERO),
                }
            }
            let committed = times.iter().filter(|t| **t > Timestamp::ZERO).count();
            assert!(
                committed == 0 || committed == keys.len(),
                "{tag}: txn {round} committed on {committed}/{} shards (gen {generation})",
                keys.len()
            );
            if committed > 0 {
                assert!(
                    times.windows(2).all(|w| w[0] == w[1]),
                    "{tag}: txn {round} committed at mixed timestamps {times:?}"
                );
            }
        }

        // The directed expectation for the transaction the crash hit.
        if generation == 0 && crashed {
            if let Some(round) = first_crashed {
                let keys = straddling_keys(round);
                let survived = db.get_current(&Key::from_u64(keys[0])).unwrap().is_some();
                match expect {
                    Expect::Aborted => assert!(
                        !survived,
                        "{tag}: txn {round} committed though its decision never became durable"
                    ),
                    Expect::Committed => assert!(
                        survived,
                        "{tag}: txn {round} aborted though its decision was durable"
                    ),
                    Expect::Either => {}
                }
            }
        }
    }
}

/// The protocol's order, read off the logs the crash left behind: a
/// participant's `Commit` of a prepared transaction may be in its log only
/// if the coordinator's log holds the `Decision` — the commits are appended
/// after the decision is durable, never beside it. (No checkpoint runs in
/// these scenarios, so every record ever appended is still in its log.)
fn assert_no_commit_without_its_decision(dir: &std::path::Path, tag: &str) {
    let logs: Vec<Vec<WalRecord>> = (0..SHARDS)
        .map(|i| {
            // Scan a copy: opening a log truncates and forces it.
            let copy = dir.join(format!("scan-{i}.wal"));
            std::fs::copy(dir.join(format!("shard-{i:03}/redo.wal")), &copy).unwrap();
            let (wal, scan) = Wal::open(&copy, FsyncPolicy::Os, Arc::new(IoStats::new())).unwrap();
            drop(wal);
            std::fs::remove_file(&copy).unwrap();
            scan.records.into_iter().map(|(_, r)| r).collect()
        })
        .collect();
    for (shard, log) in logs.iter().enumerate() {
        for record in log {
            let WalRecord::Prepare {
                ts, coordinator, ..
            } = record
            else {
                continue;
            };
            let committed = log
                .iter()
                .any(|r| matches!(r, WalRecord::Commit { ts: c, .. } if c == ts));
            let decided = logs[*coordinator as usize]
                .iter()
                .any(|r| matches!(r, WalRecord::Decision { ts: d, .. } if d == ts));
            assert!(
                !committed || decided,
                "{tag}: shard {shard} logged the commit of ts {ts} but coordinator \
                 {coordinator} never logged its decision"
            );
        }
    }
}

/// Crash after `k` of `n` prepares: no decision can exist, so the
/// transaction must vanish from every shard (presumed abort), including
/// the shards whose prepare *did* reach their WALs.
#[test]
fn crash_after_k_of_n_prepares_aborts_everywhere() {
    for skip in [0u64, 1, 2, 3] {
        run_two_pc_crash(
            &format!("prep-{skip}"),
            CrashPoint::WalPrepare,
            skip,
            Expect::Aborted,
        );
    }
    // Skips past the first transaction's prepares land inside later ones.
    for skip in [5u64, 10] {
        run_two_pc_crash(
            &format!("prep-late-{skip}"),
            CrashPoint::WalPrepare,
            skip,
            Expect::Aborted,
        );
    }
}

/// Crash at the coordinator's decision append: every prepare is durable
/// but the commit decision is not — presumed abort on every shard.
#[test]
fn crash_at_the_decision_aborts_everywhere() {
    for skip in [0u64, 1, 3] {
        run_two_pc_crash(
            &format!("dec-{skip}"),
            CrashPoint::WalDecision,
            skip,
            Expect::Aborted,
        );
    }
}

/// Crash in the in-doubt window — decision durable, zero participants
/// stamped: recovery must roll the prepared writes forward on every shard
/// from the decision record alone.
#[test]
fn crash_after_the_decision_commits_everywhere() {
    for skip in [0u64, 1, 3] {
        run_two_pc_crash(
            &format!("ack-{skip}"),
            CrashPoint::TwoPcAck,
            skip,
            Expect::Committed,
        );
    }
}

/// Crashes landing at arbitrary WAL appends and syncs inside the fence —
/// including between participant phase-2 commits ("before participant
/// ack"). Whichever side of the decision the trip lands on, the outcome is
/// atomic.
#[test]
fn arbitrary_wal_crashes_inside_the_fence_stay_atomic() {
    for (point, skips) in [
        (CrashPoint::WalAppend, [0u64, 3, 9, 17].as_slice()),
        (CrashPoint::WalSync, [0u64, 2, 5, 11].as_slice()),
        (CrashPoint::WalSyncPublish, [0u64, 4].as_slice()),
    ] {
        for &skip in skips {
            run_two_pc_crash(
                &format!("fence-{point:?}-{skip}"),
                point,
                skip,
                Expect::Either,
            );
        }
    }
}

/// A cross-shard commit over all four shards forces 2P+1 = 9 times, in
/// three rounds whose forces overlap: the prepares (in any order), the
/// decision, the commits (in any order). Under `Always` the four
/// `txn_insert`s before it force once each, so counting from the armed
/// injector the first transaction's forces are: inserts 1–4, prepares
/// 5–8, the decision 9, commits 10–13. Failing the k-th of them, for
/// every k, must leave that transaction atomic — and on the side of the
/// decision its round says: a failed insert or prepare force means no
/// decision was ever appended; a failed commit force means the decision
/// was already durable. (A failed *decision* force leaves the record
/// appended but unforced, which the simulated power cut keeps.)
#[test]
fn failing_any_one_force_of_a_cross_shard_commit_stays_atomic() {
    const P: u64 = SHARDS as u64;
    for k in 0..=3 * P {
        let expect = match k {
            k if k < 2 * P => Expect::Aborted,
            k if k == 2 * P => Expect::Either,
            _ => Expect::Committed,
        };
        run_two_pc_crash(&format!("force-{k}"), CrashPoint::WalSync, k, expect);
    }
}

/// Per-shard crash points under plain single-key traffic: the injected
/// power cut kills all four shards at once, and nothing any shard
/// acknowledged may be missing after the sharded reopen.
#[test]
fn per_shard_crash_points_lose_no_acknowledged_writes() {
    for point in [
        CrashPoint::MagneticWrite,
        CrashPoint::WormAppend,
        CrashPoint::WalAppend,
        CrashPoint::WalSync,
        CrashPoint::WalSyncPublish,
        CrashPoint::WalCheckpoint,
    ] {
        for skip in [0u64, 7, 40] {
            let cfg = crash_cfg();
            let dir = TempDir::new(&format!("pt-{point:?}-{skip}"));
            let db = tsb_core::TsbOptions::durable(&dir.0)
                .config(cfg.clone())
                .shards(SHARDS)
                .open()
                .unwrap();
            let injector = Arc::new(FaultInjector::new());
            db.set_fault_injector(Arc::clone(&injector));
            injector.crash_at(point, skip);

            let mut acked: Vec<(u64, Vec<u8>)> = Vec::new();
            for i in 0..160u64 {
                // Periodic checkpoints reach the magnetic / checkpoint
                // stages; a failing checkpoint is the crash.
                if i > 0 && i % 50 == 0 && db.checkpoint().is_err() {
                    break;
                }
                let value = format!("v{i}").into_bytes();
                match db.insert(Key::from_u64(i), value.clone()) {
                    Ok(_) => acked.push((i, value)),
                    Err(_) => break,
                }
            }
            drop(db);

            let recovered = tsb_core::TsbOptions::durable(&dir.0)
                .config(cfg)
                .shards(SHARDS)
                .open()
                .unwrap();
            recovered.verify().unwrap();
            for (k, value) in &acked {
                assert_eq!(
                    recovered.get_current(&Key::from_u64(*k)).unwrap().as_ref(),
                    Some(value),
                    "{point:?}/{skip}: acknowledged key {k} lost"
                );
            }
        }
    }
}

/// A healthy cross-shard commit survives a clean (no-crash) reopen whole:
/// the happy path of the same assertions the crash matrix makes.
#[test]
fn committed_cross_shard_transactions_survive_reopen_whole() {
    let cfg = crash_cfg();
    let dir = TempDir::new("clean");
    let mut committed = Vec::new();
    {
        let db = tsb_core::TsbOptions::durable(&dir.0)
            .config(cfg.clone())
            .shards(SHARDS)
            .open()
            .unwrap();
        for round in 0..6u64 {
            let keys = straddling_keys(round);
            let txn = db.begin_txn().unwrap();
            for k in &keys {
                db.txn_insert(txn, Key::from_u64(*k), txn_value(round, *k))
                    .unwrap();
            }
            let ts = db.commit_txn(txn).unwrap();
            committed.push((keys, ts, round));
        }
        // No checkpoint, no clean shutdown: only the WALs speak.
    }
    let db = tsb_core::TsbOptions::durable(&dir.0)
        .config(cfg)
        .shards(SHARDS)
        .open()
        .unwrap();
    db.verify().unwrap();
    for (keys, ts, round) in &committed {
        for k in keys {
            let v = db
                .get_version_as_of(&Key::from_u64(*k), *ts)
                .unwrap()
                .expect("committed key survived");
            assert_eq!(v.state.commit_time(), Some(*ts));
            assert_eq!(v.value, Some(txn_value(*round, *k)));
        }
    }
    assert!(db.last_durable_commit().unwrap() >= committed.last().unwrap().1);
}
