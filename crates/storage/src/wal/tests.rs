//! Tests of the log as a whole — records through frames through the file
//! and back, the fsync policies, the checkpoint reset — kept in one module
//! so their names stay `wal::tests::*`.

use std::fs::OpenOptions;
use std::sync::Arc;

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
    assert_eq!(scan.records.len(), written.len());
    for (i, (lsn, rec)) in scan.records.iter().enumerate() {
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
    assert_eq!(scan.records.len(), 4, "image, commit, two intact deltas");
    assert!(matches!(scan.records[0].1, WalRecord::PageImage { .. }));
    assert!(matches!(scan.records[2].1, WalRecord::PageDelta { .. }));
    assert!(matches!(scan.records[3].1, WalRecord::PageDelta { .. }));
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
    assert!(!table.is_imaged(PageId(3)));
    assert!(table.first_touch(PageId(3)), "first touch logs the image");
    assert!(!table.first_touch(PageId(3)), "second touch logs deltas");
    assert!(table.is_imaged(PageId(3)));
    table.record(PageId(3), 9);
    // A checkpoint resets the interval: bases and coverage are gone.
    table.begin_interval();
    assert!(!table.is_imaged(PageId(3)));
    assert!(!table.is_covered(PageId(3)));
    // Reallocation forgets a page's base entirely.
    assert!(table.first_touch(PageId(3)));
    table.record(PageId(3), 12);
    table.forget(PageId(3));
    assert!(!table.is_imaged(PageId(3)));
    assert!(!table.is_covered(PageId(3)));
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
    assert_eq!(scan.records.len(), 2, "intact prefix only");
    assert!(matches!(scan.records[1].1, WalRecord::Commit { ts: 1, .. }));
    // The torn bytes are gone from the file; appends restart cleanly.
    wal.append(&page_image(3, 3)).unwrap();
    drop(wal);
    let (_, rescan) = Wal::open(&path, FsyncPolicy::Os, stats).unwrap();
    assert!(!rescan.truncated_torn_tail);
    assert_eq!(rescan.records.len(), 3);
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
        scan.records.len(),
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
        assert!(wal.bytes() < grown / 10, "the log shrank to one record");
        // Appends continue on the new generation.
        assert_eq!(wal.append(&commit(99)).unwrap(), 42);
    }
    let (_, scan) = Wal::open(&path, FsyncPolicy::Os, stats).unwrap();
    assert!(!scan.truncated_torn_tail);
    assert_eq!(scan.records.len(), 2);
    assert_eq!(scan.records[0].0, 41, "first record keeps its high LSN");
    assert!(matches!(
        scan.records[0].1,
        WalRecord::Checkpoint { worm_len: 7, .. }
    ));
    assert_eq!(scan.records[1].0, 42);
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
    assert_eq!(scan.records.len(), 1);
    assert!(
        matches!(
            scan.records[0].1,
            WalRecord::Checkpoint { worm_len: 11, .. }
        ),
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
    assert_eq!(scan.records.len(), 1);
    assert!(matches!(scan.records[0].1, WalRecord::Commit { ts: 1, .. }));
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
        assert_eq!(scan.records.len(), 2, "the main log stands untouched");
        assert!(matches!(scan.records[1].1, WalRecord::Commit { ts: 5, .. }));
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
        assert_eq!(scan.records.len(), 2);
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
    assert!(scan.records.is_empty());
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
        let (lsn, boundary) = wal.append_commit(&commit(ts)).unwrap();
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
        let (_, boundary) = wal.append_commit(&commit(ts)).unwrap();
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
    assert!(wal.request_durable(bogus).is_err());

    // No target beyond the tail was recorded: the next commit is one
    // append, one wait, one fsync.
    let syncs = stats.snapshot().wal_syncs;
    wal.append(&commit(2)).unwrap();
    assert_eq!(wal.durable_lsn(), wal.last_lsn());
    assert_eq!(stats.snapshot().wal_syncs, syncs + 1);
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
    assert_eq!(scan.records.len(), written.len());
    for (i, (lsn, rec)) in scan.records.iter().enumerate() {
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
