//! Sharded crash recovery over the one redo log every shard appends to:
//! per-shard crash points, and every crash point inside cross-shard
//! transactions.
//!
//! The single-engine recovery matrix (`recovery.rs`) proves one tree's log
//! replays to its durable prefix. This file proves the *sharded* claims on
//! top:
//!
//! * A crash at any device write loses no acknowledged single-key write —
//!   a power cut (the tripped injector kills every shard at once) leaves
//!   the shared log at some durable prefix covering everything
//!   acknowledged.
//! * A crash anywhere inside a cross-shard transaction — while its writes
//!   are logged, while a checkpoint flushes them uncommitted, at its one
//!   commit fence, at that fence's force — never commits it partially. The
//!   fence is one record naming every participant, so recovery replays it
//!   on every participant or on none, at one commit timestamp.
//! * A directory of the first sharded layout (a log per shard) is refused
//!   with a typed error, and nothing in it changes.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use tsb_common::{FsyncPolicy, Key, SplitPolicyKind, Timestamp, TsbConfig, TsbError};
use tsb_core::sharded::shard_of;
use tsb_core::{CrashPoint, EngineHandle, FaultInjector, ShardedTsb};
use tsb_storage::ALL_CRASH_POINTS;

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

/// One key on each of shards `0..p`, derived from `round` so every
/// round's key set is disjoint.
fn keys_on_shards(round: u64, p: usize) -> Vec<u64> {
    let mut picked: Vec<Option<u64>> = vec![None; p];
    let mut candidate = round * 10_000;
    while picked.iter().any(Option::is_none) {
        let shard = shard_of(&Key::from_u64(candidate), SHARDS);
        if shard < p && picked[shard].is_none() {
            picked[shard] = Some(candidate);
        }
        candidate += 1;
    }
    picked.into_iter().map(Option::unwrap).collect()
}

/// One key per shard, so a transaction over them straddles all `SHARDS`.
fn straddling_keys(round: u64) -> Vec<u64> {
    keys_on_shards(round, SHARDS)
}

fn txn_value(round: u64, key: u64) -> Vec<u8> {
    format!("t{round}-k{key}").into_bytes()
}

fn open(dir: &Path) -> ShardedTsb {
    tsb_core::TsbOptions::durable(dir)
        .config(crash_cfg())
        .shards(SHARDS)
        .open()
        .unwrap()
}

/// What a scenario demands of the transaction the crash hit.
#[derive(Clone, Copy, Debug)]
enum Expect {
    /// The crash landed before its fence reached the log: erased.
    Aborted,
    /// The crash landed after its fence reached the log: committed.
    Committed,
    /// Either side; only atomicity is demanded.
    Either,
}

/// Transactions a scenario runs into the crash. Every round rewrites the
/// same keys, so their leaves fill with history and time splits migrate
/// it to the WORM inside a transaction.
const ROUNDS: u64 = 3;

/// One crash scenario: acknowledged baseline writes, then the injector
/// armed at the `skip + 1`-th `point`, then `ROUNDS` transactions over
/// shards `0..p` — each writes its keys, the first also checkpoints while
/// its writes are uncommitted, then commits. Reopens twice (recovery must
/// be a fixed point) and asserts no acknowledged loss and every attempted
/// transaction all-or-nothing at one timestamp. Returns whether the crash
/// fired.
fn run_crash(tag: &str, point: CrashPoint, skip: u64, p: usize, expect: Expect) -> bool {
    let dir = TempDir::new(tag);
    let db = open(&dir.0);
    let keys = keys_on_shards(1, p);
    // Baseline, acknowledged before the injector exists: history on every
    // transaction key, and a key on every shard.
    for i in 0..16u64 {
        db.insert(Key::from_u64(900_000 + i), format!("base-{i}").into_bytes())
            .unwrap();
    }
    for version in 0..3u64 {
        for k in &keys {
            db.insert(Key::from_u64(*k), format!("pre-{version}").into_bytes())
                .unwrap();
        }
    }

    let injector = Arc::new(FaultInjector::new());
    db.set_fault_injector(Arc::clone(&injector));
    injector.crash_at(point, skip);

    let mut acked: Vec<(u64, Timestamp)> = Vec::new();
    let mut attempted = Vec::new();
    let mut first_crashed = None;
    for round in 0..ROUNDS {
        attempted.push(round);
        let ran = (|| {
            let txn = db.begin_txn()?;
            for k in &keys {
                db.txn_insert(txn, Key::from_u64(*k), txn_value(round, *k))?;
            }
            if round == 0 {
                db.checkpoint()?;
            }
            db.commit_txn(txn)
        })();
        match ran {
            Ok(ts) => acked.push((round, ts)),
            Err(_) => {
                first_crashed = Some(round);
                break;
            }
        }
    }
    let crashed = injector.tripped();
    drop(db); // power cut: caches and transaction tables are gone

    for generation in 0..2 {
        let db = open(&dir.0);
        db.verify().unwrap();
        let at = format!("{tag} (gen {generation})");
        for i in 0..16u64 {
            assert_eq!(
                db.get_current(&Key::from_u64(900_000 + i)).unwrap(),
                Some(format!("base-{i}").into_bytes()),
                "{at}: baseline key lost"
            );
        }
        // Each attempted transaction's keys: the commit time of its value
        // on each, or none.
        let committed = |round: u64| -> Vec<Option<Timestamp>> {
            keys.iter()
                .map(|k| {
                    let versions = db.versions(&Key::from_u64(*k)).unwrap();
                    let value = Some(txn_value(round, *k));
                    let ours = versions.into_iter().find(|v| v.value == value);
                    ours.map(|v| v.state.commit_time().unwrap())
                })
                .collect()
        };
        for (round, ts) in &acked {
            assert!(
                committed(*round).iter().all(|t| *t == Some(*ts)),
                "{at}: acknowledged txn {round} lost a key or its timestamp"
            );
        }
        for round in &attempted {
            let times = committed(*round);
            assert!(
                times.iter().all(|t| *t == times[0]),
                "{at}: txn {round} is partial or at mixed timestamps: {times:?}"
            );
        }
        if let (0, true, Some(round)) = (generation, crashed, first_crashed) {
            let survived = committed(round)[0].is_some();
            match expect {
                Expect::Aborted => assert!(!survived, "{at}: txn {round} committed"),
                Expect::Committed => assert!(survived, "{at}: txn {round} was lost"),
                Expect::Either => {}
            }
        }
    }
    crashed
}

/// Every crash point, at every one of its occurrences inside cross-shard
/// transactions over 2, 3 and 4 shards — its writes' appends and forces,
/// a checkpoint flushing them uncommitted, WORM migrations, the one
/// commit fence and its force: whatever the crash interrupts, recovery
/// commits each transaction on every participant at one timestamp or on
/// none.
#[test]
fn every_crash_point_inside_a_cross_shard_commit_is_all_or_nothing() {
    for p in [2usize, 3, 4] {
        for &point in ALL_CRASH_POINTS {
            let mut reached = 0;
            while run_crash(
                &format!("matrix-{p}-{point:?}-{reached}"),
                point,
                reached,
                p,
                Expect::Either,
            ) {
                reached += 1;
                assert!(reached < 500, "{point:?} at P = {p} never stops occurring");
            }
            assert!(
                reached > 0,
                "{point:?} never occurs in a {p}-shard transaction: the matrix tests nothing"
            );
        }
    }
}

/// Crashes landing at arbitrary WAL appends and syncs inside cross-shard
/// transactions over every shard: whichever side of the fence the trip
/// lands on, the outcome is atomic.
#[test]
fn arbitrary_wal_crashes_inside_the_fence_stay_atomic() {
    for (point, skips) in [
        (CrashPoint::WalAppend, [0u64, 3, 9, 17].as_slice()),
        (CrashPoint::WalSync, [0u64, 2, 5, 11].as_slice()),
        (CrashPoint::WalSyncPublish, [0u64, 4].as_slice()),
    ] {
        for &skip in skips {
            run_crash(
                &format!("fence-{point:?}-{skip}"),
                point,
                skip,
                SHARDS,
                Expect::Either,
            );
        }
    }
}

/// A cross-shard commit over all four shards forces the log once, and its
/// `txn_insert`s force nothing: they return once applied, and the commit's
/// fence follows them on the one log. Counting from the armed injector,
/// the forces are: 0, the first transaction's checkpoint, whose write-back
/// barrier forces the log before the uncommitted leaves reach the device;
/// then one per commit fence, 1 to `ROUNDS`. Failing the k-th must leave
/// the transaction atomic, and on the side of its fence that k says: a
/// failed checkpoint force means no fence was ever appended; a failed
/// fence force leaves the fence appended but unforced, which the simulated
/// power cut keeps.
#[test]
fn failing_any_one_force_of_a_cross_shard_commit_stays_atomic() {
    for k in 0..=ROUNDS {
        let expect = match k {
            0 => Expect::Aborted,
            _ => Expect::Committed,
        };
        assert!(
            run_crash(
                &format!("force-{k}"),
                CrashPoint::WalSync,
                k,
                SHARDS,
                expect
            ),
            "force {k} never happened"
        );
    }
    assert!(
        !run_crash(
            "force-past",
            CrashPoint::WalSync,
            ROUNDS + 1,
            SHARDS,
            Expect::Either
        ),
        "a force beyond the checkpoint and the commit fences"
    );
}

/// Every file under `dir`, by path, with its bytes.
fn snapshot(dir: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    let mut files = BTreeMap::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            files.extend(snapshot(&path));
        } else {
            files.insert(path.clone(), std::fs::read(&path).unwrap());
        }
    }
    files
}

/// A directory of the first sharded layout — a manifest v1 and a redo log
/// in every `shard-NNN` — opens to the typed old-layout error, from its
/// root at any shard count and from a shard directory alike, and every
/// file in it is byte-for-byte what it was before the attempts (so
/// sha256-equal too), with none added.
#[test]
fn a_first_layout_sharded_directory_is_refused_untouched() {
    let dir = TempDir::new("old-layout");
    for i in 0..SHARDS {
        let shard_dir = dir.0.join(format!("shard-{i:03}"));
        let tree = tsb_core::TsbOptions::durable(&shard_dir)
            .config(crash_cfg())
            .open()
            .unwrap();
        for k in 0..8u64 {
            tree.insert(k.into(), format!("v{k}").into_bytes()).unwrap();
        }
    }
    std::fs::write(
        dir.0.join("shards.manifest"),
        "tsb-sharded v1\nshards 4\nhash fnv1a64\n",
    )
    .unwrap();
    let before = snapshot(&dir.0);
    assert!(before.keys().any(|p| p.ends_with("shard-002/redo.wal")));

    for shards in [SHARDS, 1] {
        let opened = tsb_core::TsbOptions::durable(&dir.0)
            .config(crash_cfg())
            .shards(shards)
            .open();
        assert!(
            matches!(opened, Err(TsbError::OldLayout(_))),
            "{shards} shards: {opened:?}"
        );
    }
    let as_tree = tsb_core::TsbOptions::durable(dir.0.join("shard-001"))
        .config(crash_cfg())
        .open_tree();
    assert!(matches!(as_tree, Err(TsbError::OldLayout(_))));
    assert_eq!(snapshot(&dir.0), before, "the refused directory changed");
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
