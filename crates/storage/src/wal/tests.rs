//! Tests of the log as a whole — records through frames through the file
//! and back, the fsync policies, the checkpoint reset — kept in one module
//! so their names stay `wal::tests::*`.

use std::fs::OpenOptions;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::{Arc, Barrier, Condvar, Mutex as StdMutex};
use std::time::Duration;

use tsb_common::{FsyncPolicy, Key, Timestamp, TxnId, Version};

use super::*;
use crate::fault::{CrashPoint, FaultInjector};
use crate::page::PageId;
use crate::stats::IoStats;

fn temp_wal_path(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "tsb-wal-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("test.wal")
}

/// Every record a scan reads back.
fn all(scan: &WalScan) -> Vec<(Lsn, WalRecord)> {
    scan.records().map(Result::unwrap).collect()
}

fn page_image(page: u64, fill: u8) -> WalRecord {
    WalRecord::PageImage {
        page: PageId(page),
        bytes: vec![fill; 32],
    }
}

fn commit(ts: u64) -> WalRecord {
    WalRecord::Commit {
        ts,
        worm_len: 0,
        meta: vec![0xAB; 16],
    }
}

#[test]
fn records_round_trip_through_the_file() {
    let path = temp_wal_path("roundtrip");
    let _ = std::fs::remove_file(&path);
    let stats = Arc::new(IoStats::new());
    let written = [
        page_image(7, 1),
        page_image(9, 2),
        commit(42),
        WalRecord::Checkpoint {
            worm_len: 128,
            meta: vec![1, 2, 3],
        },
    ];
    {
        let wal = Wal::create(&path, FsyncPolicy::Always, Arc::clone(&stats)).unwrap();
        for (i, rec) in written.iter().enumerate() {
            assert_eq!(wal.append(rec).unwrap(), (i + 1) as Lsn);
        }
        assert_eq!(wal.last_lsn(), 4);
    }
    let (wal, scan) = Wal::open(&path, FsyncPolicy::Always, stats).unwrap();
    assert!(!scan.truncated_torn_tail);
    assert_eq!(all(&scan).len(), written.len());
    for (i, (lsn, rec)) in all(&scan).iter().enumerate() {
        assert_eq!(*lsn, (i + 1) as Lsn);
        assert_eq!(rec, &written[i]);
    }
    // Appending continues the LSN sequence.
    assert_eq!(wal.append(&page_image(1, 3)).unwrap(), 5);
    let _ = std::fs::remove_file(&path);
}

fn delta(page: u64, key: u64, ts: u64) -> WalRecord {
    WalRecord::PageDelta {
        page: PageId(page),
        op: PageOp::InsertVersion(Version::committed(key, Timestamp(ts), vec![b'v'; 12])),
    }
}

#[test]
fn every_page_op_round_trips() {
    let ops = [
        PageOp::InsertVersion(Version::committed(9u64, Timestamp(4), b"val".to_vec())),
        PageOp::RemoveUncommitted {
            key: Key::from_u64(7),
            txn: TxnId(3),
        },
        PageOp::DataTimeSplit {
            split_time: Timestamp(17),
        },
        PageOp::DataKeySplit {
            split_key: Key::from_u64(100),
            keep_low: true,
        },
        PageOp::IndexTimeSplit {
            split_time: Timestamp(23),
        },
        PageOp::IndexKeySplit {
            split_key: Key::from_u64(50),
            keep_low: false,
        },
        PageOp::IndexReplaceChild {
            payload: vec![1, 2, 3, 4],
        },
    ];
    for op in ops {
        let record = WalRecord::PageDelta {
            page: PageId(11),
            op: op.clone(),
        };
        let body = record.encode_body(5);
        let (lsn, decoded) = WalRecord::decode_body(&body).unwrap();
        assert_eq!(lsn, 5);
        assert_eq!(decoded, record, "op {op:?}");
    }
}

#[test]
fn torn_tail_mid_delta_run_keeps_the_image_and_drops_trailing_deltas() {
    // A delta run: image base, commit, then three deltas and a commit.
    // Tearing into the *middle* delta must keep the image and the first
    // delta (everything before the tear) and drop the rest — a delta
    // run truncates record-by-record like any other tail.
    let path = temp_wal_path("torn-delta");
    let _ = std::fs::remove_file(&path);
    let stats = Arc::new(IoStats::new());
    {
        let wal = Wal::create(&path, FsyncPolicy::Os, Arc::clone(&stats)).unwrap();
        wal.append(&page_image(1, 1)).unwrap();
        wal.append(&commit(1)).unwrap();
        wal.append(&delta(1, 10, 2)).unwrap();
        wal.append(&delta(1, 11, 3)).unwrap();
        wal.append(&delta(1, 12, 4)).unwrap();
        wal.append(&commit(4)).unwrap();
    }
    // Cut into the third delta: the commit and the tail of that delta
    // vanish; the second delta's frame stays intact.
    let len = std::fs::metadata(&path).unwrap().len();
    let commit_len = 8 + commit(4).encode_body(6).len() as u64;
    let file = OpenOptions::new().write(true).open(&path).unwrap();
    file.set_len(len - commit_len - 5).unwrap();
    drop(file);

    let (_, scan) = Wal::open(&path, FsyncPolicy::Os, stats).unwrap();
    assert!(scan.truncated_torn_tail);
    assert_eq!(all(&scan).len(), 4, "image, commit, two intact deltas");
    assert!(matches!(all(&scan)[0].1, WalRecord::PageImage { .. }));
    assert!(matches!(all(&scan)[2].1, WalRecord::PageDelta { .. }));
    assert!(matches!(all(&scan)[3].1, WalRecord::PageDelta { .. }));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn mutation_group_coalesces_into_one_file_write() {
    // Appends buffer in process memory until a fence record lands; the
    // file grows only at the commit append (one write_all per group).
    let path = temp_wal_path("coalesce");
    let _ = std::fs::remove_file(&path);
    let stats = Arc::new(IoStats::new());
    let wal = Wal::create(&path, FsyncPolicy::Os, Arc::clone(&stats)).unwrap();
    wal.append(&page_image(1, 1)).unwrap();
    wal.append(&delta(1, 5, 1)).unwrap();
    assert_eq!(
        std::fs::metadata(&path).unwrap().len(),
        0,
        "non-fence records stay buffered"
    );
    wal.append(&commit(1)).unwrap();
    assert_eq!(
        std::fs::metadata(&path).unwrap().len(),
        wal.bytes(),
        "the commit flushed the whole group"
    );
    // The flushed-LSN barrier also drains the buffer (before fsync).
    wal.append(&page_image(2, 2)).unwrap();
    wal.sync().unwrap();
    assert_eq!(std::fs::metadata(&path).unwrap().len(), wal.bytes());
    assert_eq!(stats.snapshot().wal_bytes_appended, wal.bytes());
    let _ = std::fs::remove_file(&path);
}

#[test]
fn page_table_first_touch_and_interval_reset() {
    let table = WalPageTable::new();
    assert!(table.first_touch(PageId(3)), "first touch logs the image");
    assert!(!table.first_touch(PageId(3)), "second touch logs deltas");
    table.record(PageId(3), 9);
    // A checkpoint resets the interval: bases and coverage are gone.
    table.begin_interval();
    assert!(!table.is_covered(PageId(3)));
    assert!(
        table.first_touch(PageId(3)),
        "a new interval logs the image again"
    );
    table.record(PageId(3), 12);
    // Reallocation forgets a page's base and coverage entirely.
    table.forget(PageId(3));
    assert!(!table.is_covered(PageId(3)));
    assert!(
        table.first_touch(PageId(3)),
        "a recycled page logs its image"
    );
    assert!(!table.first_touch(PageId(3)));
}

#[test]
fn torn_tail_is_truncated_to_the_intact_prefix() {
    let path = temp_wal_path("torn");
    let _ = std::fs::remove_file(&path);
    let stats = Arc::new(IoStats::new());
    {
        let wal = Wal::create(&path, FsyncPolicy::Os, Arc::clone(&stats)).unwrap();
        wal.append(&page_image(1, 1)).unwrap();
        wal.append(&commit(1)).unwrap();
        wal.append(&page_image(2, 2)).unwrap();
    }
    // Tear the last record: cut 3 bytes off the end.
    let len = std::fs::metadata(&path).unwrap().len();
    let file = OpenOptions::new().write(true).open(&path).unwrap();
    file.set_len(len - 3).unwrap();
    drop(file);

    let (wal, scan) = Wal::open(&path, FsyncPolicy::Os, Arc::clone(&stats)).unwrap();
    assert!(scan.truncated_torn_tail);
    assert_eq!(all(&scan).len(), 2, "intact prefix only");
    assert!(matches!(all(&scan)[1].1, WalRecord::Commit { ts: 1, .. }));
    // The torn bytes are gone from the file; appends restart cleanly.
    wal.append(&page_image(3, 3)).unwrap();
    drop(wal);
    let (_, rescan) = Wal::open(&path, FsyncPolicy::Os, stats).unwrap();
    assert!(!rescan.truncated_torn_tail);
    assert_eq!(all(&rescan).len(), 3);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn corrupt_crc_mid_log_discards_everything_after() {
    let path = temp_wal_path("crc");
    let _ = std::fs::remove_file(&path);
    let stats = Arc::new(IoStats::new());
    {
        let wal = Wal::create(&path, FsyncPolicy::Os, Arc::clone(&stats)).unwrap();
        wal.append(&commit(1)).unwrap();
        wal.append(&commit(2)).unwrap();
        wal.append(&commit(3)).unwrap();
    }
    // Flip one byte in the middle record's body.
    let mut bytes = std::fs::read(&path).unwrap();
    let record_len = bytes.len() / 3;
    bytes[record_len + 12] ^= 0xFF;
    std::fs::write(&path, &bytes).unwrap();

    let (_, scan) = Wal::open(&path, FsyncPolicy::Os, stats).unwrap();
    assert!(scan.truncated_torn_tail);
    assert_eq!(
        all(&scan).len(),
        1,
        "records after a corrupt one are untrustworthy"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn fsync_policy_governs_commit_syncs() {
    let cases: &[(FsyncPolicy, u64)] = &[
        // 6 commits: Always syncs each; Os never.
        (FsyncPolicy::Always, 6),
        (FsyncPolicy::Os, 0),
    ];
    for (policy, expected_syncs) in cases {
        let path = temp_wal_path(&format!("policy-{expected_syncs}"));
        let _ = std::fs::remove_file(&path);
        let stats = Arc::new(IoStats::new());
        let wal = Wal::create(&path, *policy, Arc::clone(&stats)).unwrap();
        for ts in 0..6 {
            wal.append(&page_image(ts, 0)).unwrap(); // images never sync
            wal.append(&commit(ts)).unwrap();
        }
        assert_eq!(
            stats.snapshot().wal_syncs,
            *expected_syncs,
            "policy {policy:?}"
        );
        // A checkpoint always syncs.
        wal.append(&WalRecord::Checkpoint {
            worm_len: 0,
            meta: vec![],
        })
        .unwrap();
        assert_eq!(stats.snapshot().wal_syncs, *expected_syncs + 1);
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn reset_with_bounds_the_log_and_keeps_lsns_continuous() {
    let path = temp_wal_path("reset");
    let _ = std::fs::remove_file(&path);
    let stats = Arc::new(IoStats::new());
    {
        let wal = Wal::create(&path, FsyncPolicy::Os, Arc::clone(&stats)).unwrap();
        for ts in 0..20 {
            wal.append(&page_image(ts, 0)).unwrap();
            wal.append(&commit(ts)).unwrap();
        }
        let grown = wal.bytes();
        let fence_lsn = wal
            .reset_with(&WalRecord::Checkpoint {
                worm_len: 7,
                meta: vec![9; 8],
            })
            .unwrap();
        assert_eq!(fence_lsn, 41, "LSNs keep counting across generations");
        assert_eq!(wal.durable_lsn(), fence_lsn, "the checkpoint is durable");
        assert!(wal.bytes() < grown / 10, "the log shrank to one record");
        // Appends continue on the new generation.
        assert_eq!(wal.append(&commit(99)).unwrap(), 42);
    }
    let (_, scan) = Wal::open(&path, FsyncPolicy::Os, stats).unwrap();
    assert!(!scan.truncated_torn_tail);
    assert_eq!(all(&scan).len(), 2);
    assert_eq!(all(&scan)[0].0, 41, "first record keeps its high LSN");
    assert!(matches!(
        all(&scan)[0].1,
        WalRecord::Checkpoint { worm_len: 7, .. }
    ));
    assert_eq!(all(&scan)[1].0, 42);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn leftover_intact_fenced_reset_tmp_is_rolled_forward() {
    let path = temp_wal_path("tmp-fwd");
    let tmp = path.with_extension("wal.tmp");
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&tmp);
    let stats = Arc::new(IoStats::new());
    {
        // An old fence-less generation (a first create's page images)…
        let wal = Wal::create(&path, FsyncPolicy::Os, Arc::clone(&stats)).unwrap();
        wal.append(&page_image(1, 1)).unwrap();
        // …and a fully written replacement the crash kept from being
        // renamed: reset_with's temp file, holding the checkpoint.
        let replacement = Wal::create(&tmp, FsyncPolicy::Os, Arc::clone(&stats)).unwrap();
        replacement
            .append(&WalRecord::Checkpoint {
                worm_len: 11,
                meta: vec![7; 8],
            })
            .unwrap();
    }
    let (_, scan) = Wal::open(&path, FsyncPolicy::Os, stats).unwrap();
    assert!(!tmp.exists(), "the rename was completed");
    assert_eq!(all(&scan).len(), 1);
    assert!(
        matches!(all(&scan)[0].1, WalRecord::Checkpoint { worm_len: 11, .. }),
        "the fenced replacement generation won, not the fence-less old one"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn create_discards_a_stale_reset_tmp_from_a_dead_generation() {
    let path = temp_wal_path("tmp-create");
    let tmp = path.with_extension("wal.tmp");
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&tmp);
    let stats = Arc::new(IoStats::new());
    {
        // An intact, fenced temp file a dead incarnation left behind…
        let stale = Wal::create(&tmp, FsyncPolicy::Os, Arc::clone(&stats)).unwrap();
        stale
            .append(&WalRecord::Checkpoint {
                worm_len: 99,
                meta: vec![3; 8],
            })
            .unwrap();
        // …must not outlive a fresh create: rolled forward later, it
        // would clobber the new log with the dead generation's fence.
        let wal = Wal::create(&path, FsyncPolicy::Os, Arc::clone(&stats)).unwrap();
        assert!(!tmp.exists(), "create removed the stale temp file");
        wal.append(&commit(1)).unwrap();
    }
    let (_, scan) = Wal::open(&path, FsyncPolicy::Os, stats).unwrap();
    assert_eq!(all(&scan).len(), 1);
    assert!(matches!(all(&scan)[0].1, WalRecord::Commit { ts: 1, .. }));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn leftover_unusable_reset_tmp_is_rolled_back() {
    for garbage in [&b"torn mid-write"[..], &[][..]] {
        let path = temp_wal_path("tmp-back");
        let tmp = path.with_extension("wal.tmp");
        let _ = std::fs::remove_file(&path);
        let stats = Arc::new(IoStats::new());
        {
            let wal = Wal::create(&path, FsyncPolicy::Os, Arc::clone(&stats)).unwrap();
            wal.append(&page_image(1, 1)).unwrap();
            wal.append(&commit(5)).unwrap();
        }
        std::fs::write(&tmp, garbage).unwrap();
        let (_, scan) = Wal::open(&path, FsyncPolicy::Os, stats).unwrap();
        assert!(!tmp.exists(), "the unfinished temp write was discarded");
        assert!(!scan.truncated_torn_tail);
        assert_eq!(all(&scan).len(), 2, "the main log stands untouched");
        assert!(matches!(all(&scan)[1].1, WalRecord::Commit { ts: 5, .. }));
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn sync_is_a_noop_when_clean() {
    let path = temp_wal_path("ensure");
    let _ = std::fs::remove_file(&path);
    let stats = Arc::new(IoStats::new());
    let wal = Wal::create(&path, FsyncPolicy::Os, Arc::clone(&stats)).unwrap();
    wal.append(&page_image(1, 1)).unwrap();
    wal.sync().unwrap();
    assert_eq!(
        stats.snapshot().wal_syncs,
        1,
        "pending record forced a sync"
    );
    wal.sync().unwrap();
    wal.sync().unwrap();
    assert_eq!(stats.snapshot().wal_syncs, 1, "nothing pending, no syncs");
    let _ = std::fs::remove_file(&path);
}

/// Readable is not durable: a log written under `Os` and dropped was
/// never fsynced, yet recovery installs pages from its scan and the
/// watermark lets dirty pages past the write-back barrier.
#[test]
fn open_forces_what_it_scanned_before_calling_it_durable() {
    let path = temp_wal_path("open-force");
    let _ = std::fs::remove_file(&path);
    {
        let wal = Wal::create(&path, FsyncPolicy::Os, Arc::new(IoStats::new())).unwrap();
        wal.append(&page_image(1, 7)).unwrap();
        wal.append(&commit(5)).unwrap();
        assert_eq!(wal.durable_lsn(), 0, "`Os` never forced these records");
    }
    for policy in [FsyncPolicy::Always, FsyncPolicy::Os] {
        let stats = Arc::new(IoStats::new());
        let (wal, scan) = Wal::open(&path, policy, Arc::clone(&stats)).unwrap();
        assert_eq!(all(&scan).len(), 2);
        assert_eq!(stats.snapshot().wal_syncs, 1, "{policy:?}: one force");
        assert_eq!(wal.durable_lsn(), wal.last_lsn());
        // The watermark now tells the truth, so the barrier has nothing
        // left to force.
        wal.sync().unwrap();
        assert_eq!(stats.snapshot().wal_syncs, 1);
    }
    // A path that did not exist pays nothing.
    let fresh = path.with_file_name("fresh.wal");
    let _ = std::fs::remove_file(&fresh);
    let stats = Arc::new(IoStats::new());
    let (wal, scan) = Wal::open(&fresh, FsyncPolicy::Always, Arc::clone(&stats)).unwrap();
    assert!(all(&scan).is_empty());
    assert_eq!(stats.snapshot().wal_syncs, 0);
    assert_eq!(wal.durable_lsn(), 0);
    drop(wal);
    let _ = std::fs::remove_file(&fresh);
    let _ = std::fs::remove_file(&path);
}

/// A sync is asked for by whoever waits, not whoever appends: commits
/// appended and never waited on cost no fsync at all, and one wait on the
/// newest of them is one fsync covering every one. Counts, not timings.
#[test]
fn appended_commits_share_the_sync_their_waiter_asks_for() {
    let path = temp_wal_path("waiter-asks");
    let _ = std::fs::remove_file(&path);
    let stats = Arc::new(IoStats::new());
    let wal = Wal::create(&path, FsyncPolicy::Always, Arc::clone(&stats)).unwrap();
    let mut last = 0;
    for ts in 1..=64u64 {
        let (lsn, boundary) = wal.append_for(0, &commit(ts)).unwrap();
        assert_eq!(boundary, Some(lsn), "`Always` hands out a position");
        last = lsn;
    }
    // Nothing can be pending on the committer thread: no request exists.
    assert_eq!(stats.snapshot().wal_syncs, 0, "an append asked for a sync");
    assert_eq!(wal.durable_lsn(), 0);
    wal.wait_durable(last).unwrap();
    let snap = stats.snapshot();
    assert_eq!(snap.wal_syncs, 1, "one wait, one fsync");
    assert_eq!(snap.wal_commits, 64, "covering every commit");
    assert_eq!(wal.durable_lsn(), last);
    drop(wal);

    // `Os` hands out nothing to wait on, so nothing changes for it.
    let _ = std::fs::remove_file(&path);
    let stats = Arc::new(IoStats::new());
    let wal = Wal::create(&path, FsyncPolicy::Os, Arc::clone(&stats)).unwrap();
    for ts in 1..=64u64 {
        let (_, boundary) = wal.append_for(0, &commit(ts)).unwrap();
        assert_eq!(boundary, None);
    }
    assert_eq!(stats.snapshot().wal_syncs, 0);
    assert_eq!(wal.durable_lsn(), 0);
    let _ = std::fs::remove_file(&path);
}

/// A position past the newest appended record was never handed out, and
/// no sync could ever reach it: the wait must fail as a typed error —
/// not park forever, not leave the committer thread spinning on a target
/// beyond the tail — and the log must keep working.
#[test]
fn waiting_past_the_tail_is_an_error_not_a_hang() {
    let path = temp_wal_path("past-tail");
    let _ = std::fs::remove_file(&path);
    let stats = Arc::new(IoStats::new());
    let wal = Arc::new(Wal::create(&path, FsyncPolicy::Always, Arc::clone(&stats)).unwrap());
    wal.append(&commit(1)).unwrap();
    let bogus = wal.last_lsn() + 1;

    let (tx, rx) = std::sync::mpsc::channel();
    let waiter = Arc::clone(&wal);
    std::thread::spawn(move || {
        let _ = tx.send(waiter.wait_durable(bogus));
    });
    let result = rx
        .recv_timeout(std::time::Duration::from_secs(2))
        .expect("a wait past the tail parked instead of failing");
    assert!(
        matches!(result, Err(tsb_common::TsbError::Config(_))),
        "expected a config error, got {result:?}"
    );

    // No target beyond the tail was recorded: the next commit is one
    // append, one wait, one fsync.
    let syncs = stats.snapshot().wal_syncs;
    wal.append(&commit(2)).unwrap();
    assert_eq!(wal.durable_lsn(), wal.last_lsn());
    assert_eq!(stats.snapshot().wal_syncs, syncs + 1);
    let _ = std::fs::remove_file(&path);
}

/// A sync failure is sticky for an inline sync too. Once a drain has
/// published one, `sync()` — a replica batch end's, a write-back
/// barrier's — must not fsync "successfully" and move the watermark past the bytes
/// that failed: a waiter that had not parked yet would then acknowledge a
/// commit the failed fsync may have dropped.
#[test]
fn a_failed_sync_stays_failed_when_the_sync_runs_inline() {
    let path = temp_wal_path("sticky-inline");
    let _ = std::fs::remove_file(&path);
    let stats = Arc::new(IoStats::new());
    let wal = Wal::create(&path, FsyncPolicy::Always, Arc::clone(&stats)).unwrap();
    // The pre-sync hook fails the first sync only; a retry would succeed.
    let failed = AtomicBool::new(false);
    wal.set_pre_sync_hook(Box::new(move || {
        if failed.swap(true, Ordering::SeqCst) {
            Ok(())
        } else {
            Err(std::io::Error::other("injected sync failure").into())
        }
    }));
    wal.append(&page_image(1, 1)).unwrap();
    let (lsn, _) = wal.append_for(0, &commit(1)).unwrap();
    assert!(wal.wait_durable(lsn).is_err(), "the drain's failure");
    let syncs = stats.snapshot().wal_syncs;

    assert!(wal.sync().is_err(), "an inline sync ran past the failure");
    assert_eq!(wal.durable_lsn(), 0, "the watermark moved past the failure");
    assert_eq!(
        stats.snapshot().wal_syncs,
        syncs,
        "the failed log was synced"
    );
    assert!(
        wal.wait_durable(lsn).is_err(),
        "a commit the failed fsync may have dropped was acknowledged"
    );
    let _ = std::fs::remove_file(&path);
}

/// Runs `body` on a thread of its own and fails the test if it has not
/// returned within two seconds: a waiter wedged on a sync that never
/// publishes shows up as a failure, not as a hung suite.
fn within_two_seconds(body: impl FnOnce() + Send + 'static) {
    let (tx, rx) = std::sync::mpsc::channel();
    let runner = std::thread::spawn(move || {
        body();
        let _ = tx.send(());
    });
    match rx.recv_timeout(Duration::from_secs(2)) {
        Ok(()) => runner.join().unwrap(),
        // The body panicked: report its panic, not a timeout.
        Err(RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(runner.join().unwrap_err())
        }
        Err(RecvTimeoutError::Timeout) => panic!("a waiter was still parked after 2 s"),
    }
}

/// Holds the first sync of a log inside its pre-sync hook — after the
/// sync captured the tail, before it reaches the device — until released.
#[derive(Default)]
struct HookHold {
    /// 0: no sync held yet; 1: a sync is held; 2: released.
    state: StdMutex<u8>,
    changed: Condvar,
}

impl HookHold {
    /// Called from the hook: holds the first sync until [`Self::release`];
    /// later syncs pass. Returns whether this call was the held one.
    fn hold_first(&self) -> bool {
        let mut state = self.state.lock().unwrap();
        if *state != 0 {
            return false;
        }
        *state = 1;
        self.changed.notify_all();
        while *state == 1 {
            state = self.changed.wait(state).unwrap();
        }
        true
    }

    fn wait_until_held(&self) {
        let mut state = self.state.lock().unwrap();
        while *state == 0 {
            state = self.changed.wait(state).unwrap();
        }
    }

    fn release(&self) {
        *self.state.lock().unwrap() = 2;
        self.changed.notify_all();
    }
}

/// A log whose pre-sync hook goes through `hold`, then panics if `panic`
/// is set and the call was the held one.
fn held_log(tag: &str, hold: &Arc<HookHold>, panic: bool) -> (Arc<Wal>, Arc<IoStats>) {
    let path = temp_wal_path(tag);
    let _ = std::fs::remove_file(&path);
    let stats = Arc::new(IoStats::new());
    let wal = Wal::create(&path, FsyncPolicy::Always, Arc::clone(&stats)).unwrap();
    let hold = Arc::clone(hold);
    wal.set_pre_sync_hook(Box::new(move || {
        if hold.hold_first() && panic {
            panic!("injected panic in the pre-sync hook");
        }
        Ok(())
    }));
    (Arc::new(wal), stats)
}

/// While a sync is on the device, every other waiter parks on it and the
/// next sync is led by one of them: commits appended past the held sync's
/// capture cost exactly one more fsync between them, not one each.
#[test]
fn followers_share_one_sync() {
    within_two_seconds(|| {
        let hold = Arc::new(HookHold::default());
        let (wal, stats) = held_log("followers", &hold, false);
        let (first, _) = wal.append_for(0, &commit(1)).unwrap();
        let leader = {
            let wal = Arc::clone(&wal);
            std::thread::spawn(move || wal.wait_durable(first))
        };
        hold.wait_until_held();

        let appended = Arc::new(Barrier::new(5));
        let followers: Vec<_> = (2..=5u64)
            .map(|ts| {
                let wal = Arc::clone(&wal);
                let appended = Arc::clone(&appended);
                std::thread::spawn(move || {
                    let (lsn, _) = wal.append_for(0, &commit(ts)).unwrap();
                    appended.wait();
                    wal.wait_durable(lsn)
                })
            })
            .collect();
        appended.wait();
        // Time for the followers to reach the gate while the sync is held.
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(
            stats.snapshot().wal_syncs,
            0,
            "a follower synced beside the held sync"
        );

        hold.release();
        leader.join().unwrap().unwrap();
        for follower in followers {
            follower.join().unwrap().unwrap();
        }
        assert_eq!(stats.snapshot().wal_syncs, 2, "the held sync and one more");
        assert_eq!(wal.durable_lsn(), wal.last_lsn());
        let _ = std::fs::remove_file(wal.path());
    });
}

/// A leader that panics mid-sync still opens the gate: its parked follower
/// wakes, finds no sync on the device, and leads the next one.
#[test]
fn a_panicking_sync_leader_does_not_wedge_its_follower() {
    within_two_seconds(|| {
        let hold = Arc::new(HookHold::default());
        let (wal, stats) = held_log("panicking-leader", &hold, true);
        let (lsn, _) = wal.append_for(0, &commit(1)).unwrap();
        let leader = {
            let wal = Arc::clone(&wal);
            std::thread::spawn(move || wal.wait_durable(lsn))
        };
        hold.wait_until_held();
        let follower = {
            let wal = Arc::clone(&wal);
            std::thread::spawn(move || wal.wait_durable(lsn))
        };
        // Time for the follower to park on the held sync.
        std::thread::sleep(Duration::from_millis(50));

        hold.release();
        assert!(leader.join().is_err(), "the leader's hook did not panic");
        follower
            .join()
            .unwrap()
            .expect("the follower leads the next sync");
        assert_eq!(stats.snapshot().wal_syncs, 1);
        assert_eq!(wal.durable_lsn(), wal.last_lsn());
        let _ = std::fs::remove_file(wal.path());
    });
}

/// The write-back barrier lets a page through only under a durable
/// *fence*. A drain can capture the tail in the middle of a mutation, and
/// recovery discards page records no fence covers, so a durable LSN at or
/// above the page's record proves nothing.
#[test]
fn the_write_back_barrier_reads_the_durable_fence_not_the_durable_lsn() {
    let path = temp_wal_path("fence-barrier");
    let _ = std::fs::remove_file(&path);
    let stats = Arc::new(IoStats::new());
    let wal = Wal::create(&path, FsyncPolicy::Os, Arc::clone(&stats)).unwrap();
    let table = WalPageTable::new();
    let page = PageId(5);
    table.record(page, wal.append(&page_image(5, 1)).unwrap());
    let fence = wal.append(&commit(1)).unwrap();
    wal.sync().unwrap();

    // A mutation in flight: the page's delta is forced, its fence is not
    // appended yet, and more of the mutation follows.
    table.record(page, wal.append(&delta(5, 9, 2)).unwrap());
    wal.sync().unwrap();
    assert!(wal.durable_lsn() >= table.lsn_of(page).unwrap());
    wal.append(&page_image(6, 2)).unwrap();
    let syncs = stats.snapshot().wal_syncs;
    table.ensure_durable(page, fence, &wal).unwrap();
    assert_eq!(
        stats.snapshot().wal_syncs,
        syncs + 1,
        "the page went through ahead of its fence"
    );

    // The mutation's fence lands and is forced: now it covers the page.
    let fence = wal.append(&commit(2)).unwrap();
    wal.sync().unwrap();
    let syncs = stats.snapshot().wal_syncs;
    table.ensure_durable(page, fence, &wal).unwrap();
    assert_eq!(
        stats.snapshot().wal_syncs,
        syncs,
        "a covered page forced the log"
    );
    let _ = std::fs::remove_file(&path);
}

/// The shard tag costs a one-shard log nothing: a switch is written only
/// where the appending shard changes, a fence naming its shards never
/// needs one, a checkpoint reset starts the next generation on shard 0,
/// and a reopened log resumes on the shard its last switch names.
#[test]
fn the_shard_tag_is_written_only_where_the_appending_shard_changes() {
    let path = temp_wal_path("shard-tag");
    let _ = std::fs::remove_file(&path);
    let stats = Arc::new(IoStats::new());
    let sharded_commit = WalRecord::ShardCommit {
        ts: 9,
        parts: (0..2)
            .map(|shard| ShardFence {
                shard,
                worm_len: 64 * u64::from(shard),
                meta: vec![shard as u8; 4],
            })
            .collect(),
    };
    {
        let wal = Wal::create(&path, FsyncPolicy::Os, Arc::clone(&stats)).unwrap();
        wal.append_for(0, &page_image(1, 1)).unwrap();
        wal.append_for(0, &commit(1)).unwrap();
        wal.append_for(1, &page_image(2, 2)).unwrap();
        wal.append_for(1, &delta(2, 3, 4)).unwrap();
        wal.append_for(0, &sharded_commit).unwrap();
        wal.append_for(1, &commit(10)).unwrap();
    }
    let kinds = |records: &[(Lsn, WalRecord)]| -> Vec<String> {
        let name = |r: &WalRecord| {
            format!("{r:?}")
                .split([' ', '{'])
                .next()
                .unwrap()
                .to_string()
        };
        records.iter().map(|(_, r)| name(r)).collect()
    };
    let (wal, scan) = Wal::open(&path, FsyncPolicy::Os, Arc::clone(&stats)).unwrap();
    assert_eq!(
        kinds(&all(&scan)),
        [
            "PageImage",
            "Commit",
            "Shard",
            "PageImage",
            "PageDelta",
            "ShardCommit",
            "Commit"
        ]
    );
    assert_eq!(all(&scan)[2].1, WalRecord::Shard { shard: 1 });
    assert_eq!(all(&scan)[5].1, sharded_commit, "the parts round-trip");
    // Reopened, the log is still on shard 1.
    let (lsn, _) = wal.append_for(1, &commit(11)).unwrap();
    assert_eq!(lsn, wal.last_lsn(), "no switch before shard 1's commit");
    wal.reset_with(&WalRecord::ShardCheckpoint { parts: Vec::new() })
        .unwrap();
    wal.append_for(0, &commit(12)).unwrap();
    wal.append_for(1, &commit(13)).unwrap();
    drop(wal);
    let (_, scan) = Wal::open(&path, FsyncPolicy::Os, stats).unwrap();
    assert_eq!(
        kinds(&all(&scan)),
        ["ShardCheckpoint", "Commit", "Shard", "Commit"],
        "a reset restarts on shard 0"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn fault_injector_kills_appends() {
    let path = temp_wal_path("fault");
    let _ = std::fs::remove_file(&path);
    let stats = Arc::new(IoStats::new());
    let wal = Wal::create(&path, FsyncPolicy::Os, stats).unwrap();
    let injector = Arc::new(FaultInjector::new());
    wal.set_fault_injector(Arc::clone(&injector));
    injector.crash_at(CrashPoint::WalAppend, 1);
    wal.append(&commit(1)).unwrap();
    assert!(wal.append(&commit(2)).is_err());
    assert!(wal.append(&commit(3)).is_err(), "dead forever");
    assert_eq!(wal.last_lsn(), 1);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn page_table_tracks_coverage() {
    let table = WalPageTable::new();
    assert!(!table.is_covered(PageId(5)));
    table.record(PageId(5), 17);
    assert!(table.is_covered(PageId(5)));
    assert_eq!(table.lsn_of(PageId(5)), Some(17));
    table.assert_covered(PageId(5));
}

/// A log written by the commit before the CRC kernel changed (PR 13,
/// byte-at-a-time table), pinned as hex: an image, a delta, a commit
/// and a checkpoint, with bodies of 53, 56, 45 and 24 bytes. It must
/// replay whole, and today's appender must write exactly these bytes —
/// the record format did not move.
#[test]
fn golden_log_from_the_parent_commit_replays_and_rewrites_identically() {
    const GOLDEN: &str = "\
        35000000b54ef1700100000000000000010700000000000000200000000101010101\
        01010101010101010101010101010101010101010101010101010138000000b51a26\
        bd020000000000000004070000000000000001080000000000000000000003002900\
        000000000000010c0000007676767676767676767676762d00000080dee4ce030000\
        0000000000022a00000000000000000000000000000010000000abababababababab\
        abababababababab18000000a4539d36040000000000000003800000000000000003\
        000000010203";
    let golden: Vec<u8> = (0..GOLDEN.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&GOLDEN[i..i + 2], 16).unwrap())
        .collect();
    let written = [
        page_image(7, 1),
        delta(7, 3, 41),
        commit(42),
        WalRecord::Checkpoint {
            worm_len: 128,
            meta: vec![1, 2, 3],
        },
    ];

    let path = temp_wal_path("golden");
    std::fs::write(&path, &golden).unwrap();
    let stats = Arc::new(IoStats::new());
    let (wal, scan) = Wal::open(&path, FsyncPolicy::Always, Arc::clone(&stats)).unwrap();
    assert!(!scan.truncated_torn_tail);
    assert_eq!(all(&scan).len(), written.len());
    for (i, (lsn, rec)) in all(&scan).iter().enumerate() {
        assert_eq!(*lsn, (i + 1) as Lsn);
        assert_eq!(rec, &written[i]);
    }
    drop(wal);

    let _ = std::fs::remove_file(&path);
    {
        let wal = Wal::create(&path, FsyncPolicy::Always, stats).unwrap();
        for rec in &written {
            wal.append(rec).unwrap();
        }
    }
    assert_eq!(std::fs::read(&path).unwrap(), golden);
    let _ = std::fs::remove_file(&path);
}
