use super::*;
use crate::engine::EngineRole;
use tsb_common::{FsyncPolicy, Key, KeyRange, TimeRange};
use tsb_storage::DEFAULT_BATCH_BYTES;

struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "tsb-replica-{tag}-{}-{:?}",
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

fn opts(dir: &TempDir, shards: usize) -> crate::TsbOptions {
    crate::TsbOptions::durable(&dir.0)
        .small_pages()
        .fsync(FsyncPolicy::Always)
        .shards(shards)
}

/// A replica at `dir`, at whatever shard count its base brings.
fn open_replica(dir: &TempDir) -> ShardedTsb {
    crate::TsbOptions::durable(&dir.0)
        .small_pages()
        .fsync(FsyncPolicy::Always)
        .open_replica()
        .unwrap()
}

/// Ships until caught up, re-basing whenever asked; the replica to serve.
fn sync_until_caught_up(source: &ReplicationSource, mut replica: ShardedTsb) -> ShardedTsb {
    loop {
        if replica.needs_base() {
            replica = replica.install_base(&source.base().unwrap()).unwrap();
        }
        let cursor = replica.resume_lsn().expect("serving");
        let batch = source
            .poll(cursor, &replica.worm_have(), DEFAULT_BATCH_BYTES)
            .unwrap();
        if batch.needs_rebase {
            replica = replica.install_base(&source.base().unwrap()).unwrap();
            continue;
        }
        if batch.records.is_empty() {
            return replica;
        }
        replica.apply_batch(&batch).unwrap();
    }
}

fn assert_replica_matches(primary: &ShardedTsb, replica: &ShardedTsb) {
    let range = KeyRange::full();
    let p = primary.scan_current(&range).unwrap();
    let r = replica.scan_current(&range).unwrap();
    assert_eq!(p, r, "replica diverges from primary at the applied fence");
    assert_eq!(primary.last_durable_commit(), replica.last_durable_commit());
}

#[test]
fn base_then_stream_converges_and_serves_as_of_reads() {
    for shards in [1, 4] {
        let pdir = TempDir::new("src-a");
        let rdir = TempDir::new("dst-a");
        let primary = opts(&pdir, shards).open().unwrap();
        let mut stamps = Vec::new();
        for i in 0..40u64 {
            let value = format!("v{i}").into_bytes();
            let ts = primary.insert(Key::from_u64(i % 8), value.clone()).unwrap();
            stamps.push((i % 8, ts, value));
        }
        let source = ReplicationSource::new(&primary).unwrap();
        let replica = open_replica(&rdir);
        assert!(replica.needs_base());
        assert_eq!(replica.role(), EngineRole::Replica);
        assert!(replica.get_current(&Key::from_u64(0)).is_err());
        assert!(replica.scan_current(&KeyRange::full()).is_err());

        let replica = sync_until_caught_up(&source, replica);
        assert_replica_matches(&primary, &replica);

        // Incremental: more writes stream without a new base.
        for i in 40..80u64 {
            let value = format!("v{i}").into_bytes();
            primary.insert(Key::from_u64(i % 8), value).unwrap();
        }
        let replica = sync_until_caught_up(&source, replica);
        assert_replica_matches(&primary, &replica);

        // As-of reads against historical stamps answer exactly as the
        // primary does (history migrated to the WORM shipped too).
        for (k, ts, v) in &stamps {
            let got = replica.get_as_of(&Key::from_u64(*k), *ts).unwrap();
            assert_eq!(got.as_ref(), Some(v), "as-of read diverged at ts {ts:?}");
        }
        let status = replica.replica_status().unwrap();
        assert!(status.serving);
        assert_eq!(status.lag_records, 0);
    }
}

#[test]
fn replica_restart_resumes_from_its_local_log() {
    for shards in [1, 4] {
        let pdir = TempDir::new("src-b");
        let rdir = TempDir::new("dst-b");
        let primary = opts(&pdir, shards).open().unwrap();
        let source = ReplicationSource::new(&primary).unwrap();
        for i in 0..30u64 {
            let value = format!("a{i}").into_bytes();
            primary.insert(Key::from_u64(i), value).unwrap();
        }
        let replica = open_replica(&rdir);
        let replica = sync_until_caught_up(&source, replica);
        let resume = replica.resume_lsn().unwrap();
        drop(replica);

        // Restart: recovery from the local log copy, no new base needed.
        let replica = open_replica(&rdir);
        assert!(!replica.needs_base());
        assert_eq!(replica.resume_lsn(), Some(resume));
        assert_replica_matches(&primary, &replica);

        for i in 0..30u64 {
            let value = format!("b{i}").into_bytes();
            primary.insert(Key::from_u64(i), value).unwrap();
        }
        let replica = sync_until_caught_up(&source, replica);
        assert_replica_matches(&primary, &replica);
    }
}

#[test]
fn primary_checkpoint_applies_in_place_when_caught_up_and_rebases_when_behind() {
    for shards in [1, 4] {
        let pdir = TempDir::new("src-c");
        let rdir = TempDir::new("dst-c");
        let primary = opts(&pdir, shards).open().unwrap();
        let source = ReplicationSource::new(&primary).unwrap();
        for i in 0..20u64 {
            primary.insert(Key::from_u64(i), b"one".to_vec()).unwrap();
        }
        let replica = open_replica(&rdir);
        let replica = sync_until_caught_up(&source, replica);

        // Caught up: the checkpoint record streams and applies in place.
        primary.checkpoint().unwrap();
        let replica = sync_until_caught_up(&source, replica);
        assert_replica_matches(&primary, &replica);
        // A restart replays from the shipped checkpoint, on every shard.
        let replica = replica.reopen().unwrap();
        assert_replica_matches(&primary, &replica);

        // Behind a reset: writes + checkpoint while the replica is not
        // polling discard its resume point → rebase from a fresh base.
        for i in 20..40u64 {
            primary.insert(Key::from_u64(i), b"two".to_vec()).unwrap();
        }
        primary.checkpoint().unwrap();
        let cursor = replica.resume_lsn().unwrap();
        let batch = source
            .poll(cursor, &replica.worm_have(), DEFAULT_BATCH_BYTES)
            .unwrap();
        assert!(batch.needs_rebase, "a reset past the cursor must rebase");
        let replica = sync_until_caught_up(&source, replica);
        assert_replica_matches(&primary, &replica);
    }
}

/// A `Batch` reply is input from outside the process. One whose fences
/// reference history it does not carry must be refused before the fence
/// reaches the local log — not installed over a WORM device that lacks
/// the bytes (reads past the device, and a restart that refuses its own
/// log).
#[test]
fn a_fence_over_history_the_replica_lacks_is_refused_before_it_is_logged() {
    let pdir = TempDir::new("src-f");
    let rdir = TempDir::new("dst-f");
    let primary = opts(&pdir, 1).open().unwrap();
    let source = ReplicationSource::new(&primary).unwrap();
    let probe = Key::from_u64(0);
    primary.insert(probe.clone(), b"base".to_vec()).unwrap();
    let replica = sync_until_caught_up(&source, open_replica(&rdir));
    let applied = replica.durable_lsn();

    // Updates until history migrates onto the primary's WORM, so the
    // next batch's fences reference bytes the replica does not hold.
    for i in 0..80u64 {
        let value = format!("v{i}").into_bytes();
        primary.insert(Key::from_u64(i % 4), value).unwrap();
    }
    let poll = |replica: &ShardedTsb| {
        let cursor = replica.resume_lsn().expect("serving");
        source
            .poll(cursor, &replica.worm_have(), DEFAULT_BATCH_BYTES)
            .unwrap()
    };
    let mut short = poll(&replica);
    assert!(
        short.worm.iter().any(|(_, bytes)| !bytes.is_empty()),
        "the batch must carry new history"
    );
    short.worm.clear();

    let refused = replica.apply_batch(&short);
    assert!(
        matches!(&refused, Err(TsbError::Corruption(msg)) if msg.contains("shipped fence")),
        "a fence past the local WORM device must be refused, got {refused:?}"
    );
    // The replica stops applying but keeps serving its last installed
    // fence…
    assert_eq!(replica.resume_lsn(), None, "a failed apply stops applying");
    assert_eq!(replica.durable_lsn(), applied);
    assert_eq!(replica.get_current(&probe).unwrap(), Some(b"base".to_vec()));
    let history = replica.history_between(&probe, TimeRange::full()).unwrap();
    assert_eq!(history.len(), 1);
    // …and its local log never saw the refused fence: a restart opens (at
    // the newest fence the batch held *before* it, whose history is on the
    // device).
    drop(replica);
    let replica = open_replica(&rdir);
    assert!(!replica.needs_base());
    assert!(replica.durable_lsn() >= applied);
    replica.verify().unwrap();

    // A primary that ships the history on the next poll heals it.
    let intact = poll(&replica);
    assert!(intact.worm.iter().any(|(_, bytes)| !bytes.is_empty()));
    replica.apply_batch(&intact).unwrap();
    let replica = sync_until_caught_up(&source, replica);
    assert_replica_matches(&primary, &replica);
    assert_eq!(
        replica.history_between(&probe, TimeRange::full()).unwrap(),
        primary.history_between(&probe, TimeRange::full()).unwrap()
    );
}

#[test]
fn half_installed_base_is_wiped_on_open() {
    for shards in [1, 4] {
        let pdir = TempDir::new("src-d");
        let rdir = TempDir::new("dst-d");
        let primary = opts(&pdir, shards).open().unwrap();
        primary.insert(Key::from_u64(1), b"x".to_vec()).unwrap();
        let source = ReplicationSource::new(&primary).unwrap();
        let replica = open_replica(&rdir);
        drop(sync_until_caught_up(&source, replica));

        // Simulate a death mid-install: the marker survives alongside
        // stale-looking files.
        std::fs::write(rdir.0.join(INSTALLING_MARKER), b"").unwrap();
        let replica = open_replica(&rdir);
        assert!(replica.needs_base(), "marker must force a re-base");
        let replica = sync_until_caught_up(&source, replica);
        assert_replica_matches(&primary, &replica);
    }
}

/// A replica takes its shard count from the base it installs, and keeps
/// it across a reopen; a base of another count (a rebase onto another
/// primary) lays the directory out afresh.
#[test]
fn a_replica_takes_the_shard_count_of_its_base() {
    let rdir = TempDir::new("dst-g");
    let mut replica = open_replica(&rdir);
    for shards in [4, 1, 4] {
        let pdir = TempDir::new("src-g");
        let primary = opts(&pdir, shards).open().unwrap();
        for i in 0..24u64 {
            let value = format!("{shards}-{i}").into_bytes();
            primary.insert(Key::from_u64(i), value).unwrap();
        }
        let source = ReplicationSource::new(&primary).unwrap();
        replica = replica.install_base(&source.base().unwrap()).unwrap();
        assert_eq!(replica.shard_count(), shards);
        let replica_again = replica.reopen().unwrap();
        assert_eq!(replica_again.shard_count(), shards);
        replica = sync_until_caught_up(&source, replica_again);
        assert_replica_matches(&primary, &replica);
        // The subscriber reports one WORM length per shard of the primary.
        let other = if shards == 1 { 4 } else { 1 };
        assert!(source
            .poll(0, &vec![0; other], DEFAULT_BATCH_BYTES)
            .is_err());
    }
}

#[test]
fn transactions_stream_with_their_uncommitted_windows() {
    for shards in [1, 4] {
        let pdir = TempDir::new("src-e");
        let rdir = TempDir::new("dst-e");
        let primary = opts(&pdir, shards).open().unwrap();
        let source = ReplicationSource::new(&primary).unwrap();
        let replica = open_replica(&rdir);

        // An open transaction's uncommitted versions ship inside the
        // stream (they are page content); the replica must serve reads
        // that skip them, then surface the commit once fenced.
        let txn = primary.begin_txn().unwrap();
        for key in [7u64, 8, 9, 10] {
            primary
                .txn_insert(txn, Key::from_u64(key), b"pending".to_vec())
                .unwrap();
        }
        primary.insert(Key::from_u64(1), b"seen".to_vec()).unwrap();
        let replica = sync_until_caught_up(&source, replica);
        assert_eq!(replica.get_current(&Key::from_u64(7)).unwrap(), None);
        let seen = replica.get_current(&Key::from_u64(1)).unwrap();
        assert_eq!(seen, Some(b"seen".to_vec()));

        primary.commit_txn(txn).unwrap();
        let replica = sync_until_caught_up(&source, replica);
        for key in [7u64, 8, 9, 10] {
            let got = replica.get_current(&Key::from_u64(key)).unwrap();
            assert_eq!(got, Some(b"pending".to_vec()));
        }
        assert_replica_matches(&primary, &replica);
    }
}

/// A cross-shard commit is one fence: a read pinned at the replica's
/// `last_installed` sees it on every participant or on none — between
/// batches, and while a batch installs under a concurrent reader.
#[test]
fn a_read_pinned_at_the_fence_sees_a_cross_shard_commit_whole_or_not_at_all() {
    let pdir = TempDir::new("src-h");
    let rdir = TempDir::new("dst-h");
    let primary = opts(&pdir, 4).open().unwrap();
    let keys: Vec<Key> = (0..16u64).map(Key::from_u64).collect();
    let shards: std::collections::HashSet<usize> =
        keys.iter().map(|k| primary.shard_of(k)).collect();
    assert_eq!(shards.len(), 4, "the transaction spans every shard");
    for key in &keys {
        primary.insert(key.clone(), b"round-0".to_vec()).unwrap();
    }
    let source = ReplicationSource::new(&primary).unwrap();
    let replica = sync_until_caught_up(&source, open_replica(&rdir));
    for round in 1..=12 {
        let txn = primary.begin_txn().unwrap();
        for key in &keys {
            let value = format!("round-{round}").into_bytes();
            primary.txn_insert(txn, key.clone(), value).unwrap();
        }
        primary.commit_txn(txn).unwrap();
    }

    let whole = |replica: &ShardedTsb| {
        let rows = replica
            .scan_as_of(&KeyRange::full(), replica.last_installed())
            .unwrap();
        assert_eq!(rows.len(), keys.len(), "a key vanished at the fence");
        let round = rows[0].1.clone();
        assert!(
            rows.iter().all(|(_, v)| *v == round),
            "a torn cross-shard commit at the fence: {rows:?}"
        );
        round
    };
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(Ordering::Acquire) {
                whole(&replica);
            }
        });
        loop {
            let cursor = replica.resume_lsn().unwrap();
            let batch = source.poll(cursor, &replica.worm_have(), 256).unwrap();
            assert!(!batch.needs_rebase);
            if batch.records.is_empty() {
                break;
            }
            replica.apply_batch(&batch).unwrap();
            whole(&replica);
        }
        stop.store(true, Ordering::Release);
    });
    assert_eq!(whole(&replica), b"round-12".to_vec());
}

/// Promotion stops applying in place: the engine answers as a primary,
/// keeps the installed prefix, erases what only the old primary's open
/// transaction wrote, accepts writes, and its directory reopens as a
/// primary holding them.
#[test]
fn promotion_stops_applying_and_the_engine_serves_as_a_primary() {
    for shards in [1, 4] {
        let pdir = TempDir::new("src-p");
        let rdir = TempDir::new("dst-p");
        let primary = opts(&pdir, shards).open().unwrap();
        let source = ReplicationSource::new(&primary).unwrap();
        for i in 0..24u64 {
            primary.insert(Key::from_u64(i), b"kept".to_vec()).unwrap();
        }
        let open = primary.begin_txn().unwrap();
        primary
            .txn_insert(open, Key::from_u64(100), b"never".to_vec())
            .unwrap();
        primary
            .insert(Key::from_u64(0), b"fenced".to_vec())
            .unwrap();
        let replica = sync_until_caught_up(&source, open_replica(&rdir));
        assert!(matches!(
            replica.insert(Key::from_u64(1), b"no".to_vec()),
            Err(TsbError::ReadOnly)
        ));

        replica.promote().unwrap();
        replica.promote().unwrap();
        assert_eq!(replica.role(), EngineRole::Primary);
        assert!(replica.replica_status().is_none());
        assert_eq!(replica.get_current(&Key::from_u64(100)).unwrap(), None);
        let fenced = replica.get_current(&Key::from_u64(0)).unwrap();
        assert_eq!(fenced, Some(b"fenced".to_vec()));
        let ts = replica.insert(Key::from_u64(200), b"new".to_vec()).unwrap();
        assert_eq!(replica.last_durable_commit(), Some(ts));
        replica.verify().unwrap();
        let rows = replica.scan_current(&KeyRange::full()).unwrap();
        drop(replica);

        let reopened = opts(&rdir, shards).open().unwrap();
        assert_eq!(reopened.scan_current(&KeyRange::full()).unwrap(), rows);
    }
}

/// A batch whose install fails part-way — some shards installed, one
/// torn — leaves an engine that refuses promotion. The engine its reopen
/// returns promotes, with the cross-shard commit whole or absent, in
/// memory and once the directory reopens as a primary.
#[test]
fn a_replica_whose_install_failed_is_promoted_only_after_a_reopen() {
    use tsb_storage::{CrashPoint, FaultInjector};
    // Every shard holds a key, so the install writes at least four pages:
    // each skip fails it on a different page.
    let mut torn = false;
    for skip in 0..4 {
        let pdir = TempDir::new("src-i");
        let rdir = TempDir::new("dst-i");
        let primary = opts(&pdir, 4).open().unwrap();
        let keys: Vec<Key> = (0..16u64).map(Key::from_u64).collect();
        for key in &keys {
            primary.insert(key.clone(), b"before".to_vec()).unwrap();
        }
        let source = ReplicationSource::new(&primary).unwrap();
        let replica = sync_until_caught_up(&source, open_replica(&rdir));
        let txn = primary.begin_txn().unwrap();
        for key in &keys {
            primary
                .txn_insert(txn, key.clone(), b"after".to_vec())
                .unwrap();
        }
        primary.commit_txn(txn).unwrap();
        let cursor = replica.resume_lsn().unwrap();
        let batch = source
            .poll(cursor, &replica.worm_have(), DEFAULT_BATCH_BYTES)
            .unwrap();

        let faults = Arc::new(FaultInjector::new());
        faults.crash_at(CrashPoint::MagneticWrite, skip);
        replica.set_fault_injector(Arc::clone(&faults));
        assert!(replica.apply_batch(&batch).is_err());
        assert!(faults.tripped(), "the install must fail (skip {skip})");
        let whole = |db: &ShardedTsb| {
            let rows = db.scan_current(&KeyRange::full()).unwrap();
            rows.len() == keys.len() && rows.iter().all(|(_, v)| *v == rows[0].1)
        };
        torn |= !whole(&replica);
        let refused = replica.promote();
        assert!(
            matches!(&refused, Err(TsbError::Config(msg)) if msg.contains("reopen")),
            "a part-way engine must not be promoted, got {refused:?}"
        );
        assert_eq!(replica.role(), EngineRole::Replica);
        let promoted = replica.reopen().unwrap();
        promoted.promote().unwrap();
        assert_eq!(promoted.role(), EngineRole::Primary);
        assert!(whole(&promoted), "a torn commit promoted (skip {skip})");
        drop((promoted, replica));
        let reopened = opts(&rdir, 4).open().unwrap();
        assert!(whole(&reopened), "a torn commit reopened (skip {skip})");
    }
    assert!(torn, "no install failed between two shards");
}

/// Every file under `dir` with its bytes, by path.
fn files_under(dir: &Path) -> std::collections::BTreeMap<PathBuf, Vec<u8>> {
    let mut files = std::collections::BTreeMap::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            files.extend(files_under(&path));
        } else {
            files.insert(path.clone(), std::fs::read(&path).unwrap());
        }
    }
    files
}

/// A base of an older promotion epoch than the replica's own is refused
/// before anything is touched: every file of the directory, its epoch
/// file included, stays as it was, and the engine serves on. A base of a
/// newer epoch is adopted, in memory and on disk.
#[test]
fn a_base_of_an_older_epoch_is_refused_and_leaves_the_directory_alone() {
    use crate::epoch::INITIAL_EPOCH;
    let pdir = TempDir::new("src-e");
    let rdir = TempDir::new("dst-e");
    let primary = opts(&pdir, 1).open().unwrap();
    let key = Key::from_u64(7);
    primary.insert(key.clone(), b"kept".to_vec()).unwrap();
    let source = ReplicationSource::new(&primary).unwrap();
    let replica = sync_until_caught_up(&source, open_replica(&rdir));
    assert_eq!(replica.epoch(), INITIAL_EPOCH);
    drop(replica);
    persist_epoch(&rdir.0, 4).unwrap();
    let replica = open_replica(&rdir);
    assert_eq!(replica.epoch(), 4, "the engine reads its directory's epoch");

    let before = files_under(&rdir.0);
    let base = source.base().unwrap();
    assert_eq!(base.epoch, INITIAL_EPOCH);
    let refused = replica.install_base(&base);
    assert!(
        matches!(&refused, Err(TsbError::Config(msg)) if msg.contains("epoch")),
        "an older base must be refused, got {:?}",
        refused.err()
    );
    assert_eq!(
        files_under(&rdir.0),
        before,
        "the refusal touched the directory"
    );
    assert_eq!(read_epoch(&rdir.0).unwrap(), 4);
    assert_eq!(replica.epoch(), 4);
    assert_eq!(replica.get_current(&key).unwrap(), Some(b"kept".to_vec()));

    let newer = ReplicaBase { epoch: 6, ..base };
    let installed = replica.install_base(&newer).unwrap();
    assert_eq!(installed.epoch(), 6);
    assert_eq!(read_epoch(&rdir.0).unwrap(), 6);
}

/// A promotion that fails after its epoch bump leaves an engine whose
/// epoch is the one its directory holds, which a reopen reads back; the
/// reopened engine promotes one epoch further.
#[test]
fn after_a_failed_promotion_the_engines_epoch_is_its_epoch_file() {
    use crate::epoch::INITIAL_EPOCH;
    use tsb_storage::{CrashPoint, FaultInjector};
    let pdir = TempDir::new("src-f");
    let rdir = TempDir::new("dst-f");
    let primary = opts(&pdir, 4).open().unwrap();
    for i in 0..16u64 {
        primary.insert(Key::from_u64(i), b"v".to_vec()).unwrap();
    }
    let source = ReplicationSource::new(&primary).unwrap();
    let replica = sync_until_caught_up(&source, open_replica(&rdir));

    let faults = Arc::new(FaultInjector::new());
    faults.crash_at(CrashPoint::WalCheckpoint, 0);
    replica.set_fault_injector(Arc::clone(&faults));
    assert!(replica.promote().is_err(), "the checkpoint must fail");
    assert!(faults.tripped());
    assert_eq!(replica.role(), EngineRole::Replica);
    assert_eq!(replica.epoch(), read_epoch(&rdir.0).unwrap());
    assert_eq!(replica.epoch(), INITIAL_EPOCH + 1);

    let reopened = replica.reopen().unwrap();
    assert_eq!(reopened.epoch(), INITIAL_EPOCH + 1);
    assert_eq!(reopened.promote().unwrap(), INITIAL_EPOCH + 2);
    assert_eq!(read_epoch(&rdir.0).unwrap(), INITIAL_EPOCH + 2);
}
