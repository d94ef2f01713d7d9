//! Crash recovery: after *any* injected device death, reopening the
//! surviving files must yield a tree that passes `verify()`, equals the
//! oracle's replay of the durable prefix (every commit whose fence record
//! survived in the WAL — and nothing after it), and preserves all WORM
//! history. The fault-injection matrix crashes at every instrumented write
//! stage and at arbitrary write budgets; the proptest crashes at arbitrary
//! points in arbitrary op streams.
//!
//! Environment knobs for the CI recovery-stress job:
//! * `TSB_CRASH_SEED` — workload seed for the `#[ignore]`d stress variant.
//! * `TSB_CRASH_POINT` — restrict the stress matrix to one crash point
//!   (e.g. `WalAppend`); unset runs all of them.
//! * `TSB_STRESS_SCALE` — multiplies workload size and crash depths
//!   (the scheduled long-stress job passes a larger value).

use std::path::PathBuf;
use std::sync::Arc;

use proptest::prelude::*;

use tsb_common::{FsyncPolicy, Key, SplitPolicyKind, Timestamp, TsbConfig};
use tsb_core::{CrashPoint, EngineHandle, FaultInjector, ShardedTsb};
use tsb_storage::{IoStats, MagneticStore};
use tsb_workload::{crash_matrix, generate_ops, CrashSpec, CrashTrigger, Op, Oracle, WorkloadSpec};

/// Ops between the driver's periodic checkpoints, so the crash matrix also
/// lands inside checkpoint flushes (`MagneticWrite` / `MagneticSync` /
/// `WalCheckpoint` stages).
const CHECKPOINT_EVERY: usize = 100;

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "tsb-rec-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }
    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn crash_cfg() -> TsbConfig {
    TsbConfig::small_pages().with_split_policy(SplitPolicyKind::TimePreferring)
}

/// The commit log a crash scenario attempted: `(key, ts, value-or-tombstone)`
/// with the timestamp the engine stamped each op with — `now()` just before
/// it, which the op returns when it succeeds — so even ops that died
/// mid-write have a known timestamp.
type AttemptLog = Vec<(Key, Timestamp, Option<Vec<u8>>)>;

/// Replays `ops` (stamped `1..` by the engine), checkpointing every
/// [`CHECKPOINT_EVERY`] ops, until the injected crash kills the engine (or
/// the stream ends). Returns every *attempted* op.
fn replay_until_crash(db: &ShardedTsb, ops: &[Op]) -> AttemptLog {
    let mut log = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        if i > 0 && i % CHECKPOINT_EVERY == 0 && db.checkpoint().is_err() {
            break;
        }
        let ts = db.now();
        let result = match op {
            Op::Put { key, value } => {
                log.push((key.clone(), ts, Some(value.clone())));
                db.insert(key.clone(), value.clone())
            }
            Op::Delete { key } => {
                log.push((key.clone(), ts, None));
                db.delete(key.clone())
            }
        };
        match result {
            Ok(stamped) => assert_eq!(stamped, ts, "op {i}"),
            Err(_) => break,
        }
    }
    log
}

/// The scenario's ground truth: the oracle holding the attempted ops whose
/// timestamps are at or below the recovered tree's durable cut.
fn durable_oracle(log: &AttemptLog, cut: Timestamp) -> Oracle {
    let mut oracle = Oracle::new();
    for (key, ts, value) in log {
        if *ts <= cut {
            oracle.apply_put(key.clone(), *ts, value.clone());
        }
    }
    oracle
}

/// The core assertion: the recovered tree answers exactly like the oracle
/// replay of the durable prefix — at every attempted timestamp, at the cut,
/// and at the end of time (nothing past the cut survived).
fn assert_recovered_matches_durable_prefix(tree: &ShardedTsb, log: &AttemptLog, crashed: bool) {
    tree.verify().unwrap();
    let cut = tree
        .last_durable_commit()
        .expect("a recovered tree reports its durable cut");
    if !crashed {
        // Without a crash every attempted commit must be durable: the WAL
        // held every fence when the process "died" (dropped its caches).
        assert_eq!(cut, log.last().map(|(_, ts, _)| *ts).unwrap_or(cut));
    }
    let oracle = durable_oracle(log, cut);
    // Point reads across all of history (this also exercises the WORM
    // store: migrated versions answer from historical nodes).
    for (key, ts, _) in log {
        assert_eq!(
            tree.get_as_of(key, *ts).unwrap(),
            oracle.get_as_of(key, *ts),
            "key {key} as of {ts} (cut {cut})"
        );
    }
    // Version histories contain the durable prefix and nothing more.
    for key in oracle.keys() {
        let tree_history: Vec<Timestamp> = tree
            .versions(key)
            .unwrap()
            .iter()
            .map(|v| v.commit_time().unwrap())
            .collect();
        let oracle_history: Vec<Timestamp> = oracle.versions(key).iter().map(|(t, _)| *t).collect();
        assert_eq!(tree_history, oracle_history, "history of {key}");
    }
    // Whole-database snapshots at the cut and at the end of time agree —
    // the latter proves no un-fenced write resurfaced.
    assert_eq!(tree.snapshot_at(cut).unwrap(), oracle.snapshot_at(cut));
    assert_eq!(
        tree.snapshot_at(Timestamp::MAX).unwrap(),
        oracle.snapshot_at(Timestamp::MAX)
    );
}

/// Runs one crash scenario end to end and returns the recovered tree's cut.
fn run_crash_scenario(tag: &str, spec: &CrashSpec, cfg: &TsbConfig) -> Timestamp {
    let dir = TempDir::new(tag);
    let ops = generate_ops(&spec.workload);
    let (db, injector) = open_durable_with_injector(&dir, cfg);
    spec.trigger.arm(&injector);
    let log = replay_until_crash(&db, &ops);
    let crashed = injector.tripped();
    drop(db); // the crashed process's memory is gone

    let recovered = tsb_core::TsbOptions::durable(&dir.0)
        .config(cfg.clone())
        .open()
        .unwrap();
    assert_recovered_matches_durable_prefix(&recovered, &log, crashed);
    recovered.last_durable_commit().unwrap()
}

#[test]
fn fault_injection_matrix_recovers_at_every_crash_point() {
    let cfg = crash_cfg();
    for (i, spec) in crash_matrix(1, 1).iter().enumerate() {
        run_crash_scenario(&format!("matrix-{i}"), spec, &cfg);
    }
}

/// The CI recovery-stress matrix entry point: seed, crash-point filter, and
/// scale come from the environment (see the module docs).
#[test]
#[ignore = "high-iteration stress variant, run explicitly (CI recovery-stress job)"]
fn fault_injection_stress_matrix() {
    let seed: u64 = std::env::var("TSB_CRASH_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    let scale: u64 = std::env::var("TSB_STRESS_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2);
    let point_filter = std::env::var("TSB_CRASH_POINT")
        .ok()
        .and_then(|s| CrashPoint::parse(&s));
    let cfg = crash_cfg();
    for (i, spec) in crash_matrix(seed, scale).iter().enumerate() {
        if let Some(filter) = point_filter {
            match spec.trigger {
                CrashTrigger::AtPoint { point, .. } if point == filter => {}
                _ => continue,
            }
        }
        let mut spec = spec.clone();
        spec.workload.num_ops *= scale.max(1) as usize;
        run_crash_scenario(&format!("stress-{seed}-{i}"), &spec, &cfg);
    }
}

#[test]
fn recovered_tree_keeps_serving_and_recovers_again() {
    let cfg = crash_cfg();
    let dir = TempDir::new("reuse");
    let spec = CrashSpec::new(7, CrashTrigger::AfterWrites(300));
    let ops = generate_ops(&spec.workload);
    let (db, injector) = open_durable_with_injector(&dir, &cfg);
    spec.trigger.arm(&injector);
    let log = replay_until_crash(&db, &ops);
    drop(db);

    // First recovery, then a second generation of writes on the recovered
    // engine (no injector this time), then a second recovery.
    let recovered = tsb_core::TsbOptions::durable(&dir.0)
        .config(cfg.clone())
        .open()
        .unwrap();
    let cut = recovered.last_durable_commit().unwrap();
    let mut oracle = durable_oracle(&log, cut);
    for i in 0..150u64 {
        let key = i % 20;
        let ts = recovered
            .insert(Key::from_u64(key), format!("gen2-{i}").into_bytes())
            .unwrap();
        oracle.put(key, ts, format!("gen2-{i}").into_bytes());
    }
    recovered.verify().unwrap();
    drop(recovered); // again: no flush, no checkpoint

    let tree = tsb_core::TsbOptions::durable(&dir.0)
        .config(cfg)
        .open()
        .unwrap();
    tree.verify().unwrap();
    for key in oracle.keys() {
        assert_eq!(
            tree.get_current(key).unwrap(),
            oracle.get_current(key),
            "current value of {key} after second recovery"
        );
    }
    assert_eq!(
        tree.snapshot_at(Timestamp::MAX).unwrap(),
        oracle.snapshot_at(Timestamp::MAX)
    );
}

#[test]
fn recovery_reclaims_unreachable_magnetic_pages() {
    // The redo log has no record kind for page frees, so replay can only
    // ever allocate: any page freed since the last checkpoint would come
    // back allocated-but-unreachable after a crash. Recovery must rebuild
    // the free list from reachability instead of leaking such pages
    // forever (verify() treats a leaked page as a hard error, so without
    // the reclaim this store would be unrecoverable).
    let cfg = crash_cfg();
    let dir = TempDir::new("reclaim");
    let (db, _injector) = open_durable_with_injector(&dir, &cfg);
    for i in 0..200u64 {
        db.insert(Key::from_u64(i % 25), format!("value-{i}").into_bytes())
            .unwrap();
    }
    db.checkpoint().unwrap();
    drop(db); // crash: no flush, no checkpoint

    // Inflict the wound a free-less log leaves behind: a page that is
    // allocated in the durable superblock but reachable from nothing.
    let stats = Arc::new(IoStats::new());
    let magnetic =
        MagneticStore::open_file(dir.path("current.pages"), cfg.page_size, stats).unwrap();
    let orphan = magnetic.allocate().unwrap();
    magnetic
        .write(orphan, b"allocated but unreachable")
        .unwrap();
    magnetic.sync().unwrap();
    drop(magnetic);

    // The same workload, checkpointed by a build whose checkpoints also
    // wrote the tree's state to a metadata page, the lowest magnetic page
    // id. Nothing reads that page now: a directory written then holds it
    // allocated but unreachable.
    let old = TempDir::new("reclaim-metadata-page");
    let fixture = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/metadata_page");
    for name in ["current.pages", "history.worm", "redo.wal"] {
        std::fs::copy(fixture.join(name), old.path(name)).unwrap();
    }

    for dir in [&dir, &old] {
        let recovered = tsb_core::TsbOptions::durable(&dir.0)
            .config(cfg.clone())
            .open()
            .unwrap();
        // verify() distinguishes leaked from reclaimed: it hard-errors if
        // any allocated page is unreachable from the root.
        recovered.verify().unwrap();
        for key in 0..25u64 {
            assert_eq!(
                recovered.get_current(&Key::from_u64(key)).unwrap(),
                Some(format!("value-{}", 175 + key).into_bytes()),
                "key {key} survived recovery of {}",
                dir.0.display()
            );
        }
    }
}

#[test]
fn torn_wal_tail_truncates_to_a_clean_prefix() {
    let cfg = crash_cfg();
    // Tear the log at several depths; every tear must recover cleanly to
    // some durable prefix.
    for cut_bytes in [1u64, 3, 17, 64, 257] {
        let dir = TempDir::new(&format!("torn-{cut_bytes}"));
        let ops = generate_ops(
            &WorkloadSpec::default()
                .with_ops(200)
                .with_keys(20)
                .with_value_size(24)
                .with_seed(3),
        );
        let (db, _injector) = open_durable_with_injector(&dir, &cfg);
        let log = replay_until_crash(&db, &ops);
        drop(db);

        let wal_path = dir.path("redo.wal");
        let len = std::fs::metadata(&wal_path).unwrap().len();
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(&wal_path)
            .unwrap();
        file.set_len(len - cut_bytes.min(len)).unwrap();
        drop(file);

        let recovered = tsb_core::TsbOptions::durable(&dir.0)
            .config(cfg.clone())
            .open()
            .unwrap();
        // The tear may have eaten the last commit(s): the recovered cut can
        // be below the last attempted ts, but consistency must hold.
        assert_recovered_matches_durable_prefix(&recovered, &log, true);
    }
}

#[test]
fn wal_before_page_holds_under_heavy_cache_pressure() {
    // Tiny node cache: dirty-overflow write-back fires constantly. The one
    // write-back site debug_asserts the WAL-before-page invariant (this
    // test exercises it in debug builds) and recovery must still reproduce
    // the full history over the pages it wrote. Fewer forces than
    // write-backs means some pages went out under an already durable fence
    // without a force of their own, so the recovery check covers those too.
    let ops = generate_ops(
        &WorkloadSpec::default()
            .with_ops(800)
            .with_keys(80)
            .with_update_ratio(3.0)
            .with_value_size(24)
            .with_seed(11),
    );
    for policy in [FsyncPolicy::Always, FsyncPolicy::Os] {
        let mut cfg = crash_cfg().with_fsync_policy(policy);
        cfg.node_cache_entries = 8;
        let dir = TempDir::new(&format!("pressure-{policy:?}"));
        let (db, _injector) = open_durable_with_injector(&dir, &cfg);
        let log = replay_until_crash(&db, &ops);
        let run = db.io_snapshot();
        assert!(
            run.node_encodes > 0,
            "{policy:?}: the tiny cache must have forced overflow write-backs"
        );
        assert!(
            0 < run.wal_syncs && run.wal_syncs < run.magnetic_writes,
            "{policy:?}: {} forces for {} write-backs",
            run.wal_syncs,
            run.magnetic_writes
        );
        drop(db);
        let recovered = tsb_core::TsbOptions::durable(&dir.0)
            .config(cfg)
            .open()
            .unwrap();
        assert_recovered_matches_durable_prefix(&recovered, &log, false);
    }
}

#[test]
fn uncommitted_transactions_die_with_the_crash() {
    let cfg = crash_cfg();
    let dir = TempDir::new("txn");
    let (db, _injector) = open_durable_with_injector(&dir, &cfg);
    let t1 = db.insert(Key::from_u64(1), b"durable".to_vec()).unwrap();
    let txn = db.begin_txn().unwrap();
    db.txn_insert(txn, Key::from_u64(1), b"pending-update".to_vec())
        .unwrap();
    db.txn_insert(txn, Key::from_u64(50), b"pending-insert".to_vec())
        .unwrap();
    drop(db); // crash with the transaction open

    let tree = tsb_core::TsbOptions::durable(&dir.0)
        .config(cfg)
        .open()
        .unwrap();
    tree.verify().unwrap();
    assert_eq!(
        tree.get_current(&Key::from_u64(1)).unwrap().unwrap(),
        b"durable".to_vec()
    );
    assert!(tree.get_current(&Key::from_u64(50)).unwrap().is_none());
    assert_eq!(tree.tree_stats().unwrap().uncommitted_versions, 0);
    assert!(tree.last_durable_commit().unwrap() >= t1);
}

#[test]
fn committed_transactions_survive_whole_or_not_at_all() {
    let cfg = crash_cfg();
    let dir = TempDir::new("txn-commit");
    let (db, _injector) = open_durable_with_injector(&dir, &cfg);
    let txn = db.begin_txn().unwrap();
    for k in 0..6u64 {
        db.txn_insert(txn, Key::from_u64(k), vec![b'a'; 8]).unwrap();
    }
    let ts = db.commit_txn(txn).unwrap();
    drop(db);

    let tree = tsb_core::TsbOptions::durable(&dir.0)
        .config(cfg)
        .open()
        .unwrap();
    for k in 0..6u64 {
        let v = tree
            .get_version_as_of(&Key::from_u64(k), ts)
            .unwrap()
            .expect("committed key survived");
        assert_eq!(v.commit_time(), Some(ts), "atomic commit timestamp");
    }
}

#[test]
fn fsync_policies_trade_syncs_for_throughput_observably() {
    let mut syncs = Vec::new();
    for policy in [FsyncPolicy::Always, FsyncPolicy::Os] {
        let dir = TempDir::new(&format!("fsync-{policy:?}"));
        let cfg = crash_cfg().with_fsync_policy(policy);
        let (db, _injector) = open_durable_with_injector(&dir, &cfg);
        let before = db.io_snapshot();
        for i in 0..64u64 {
            db.insert(Key::from_u64(i % 8), vec![b'v'; 16]).unwrap();
        }
        let delta = db.io_snapshot().delta_since(&before);
        syncs.push(delta.wal_syncs);
        // Whatever the policy, the records themselves are always appended.
        assert!(delta.wal_appends >= 64, "{policy:?}");
    }
    let (always, os) = (syncs[0], syncs[1]);
    assert_eq!(always, 64, "Always fsyncs each commit");
    assert_eq!(os, 0, "Os never fsyncs outside checkpoints");
}

#[test]
fn concurrent_engine_recovers_after_concurrent_traffic() {
    let cfg = crash_cfg();
    let dir = TempDir::new("concurrent");
    {
        let db = tsb_core::TsbOptions::durable(&dir.0)
            .config(cfg.clone())
            .open()
            .unwrap();
        std::thread::scope(|s| {
            {
                let db = db.clone();
                s.spawn(move || {
                    for i in 0..400u64 {
                        db.insert(Key::from_u64(i % 40), format!("w{i}").into_bytes())
                            .unwrap();
                    }
                });
            }
            for _ in 0..2 {
                let db = db.clone();
                s.spawn(move || {
                    for _ in 0..200 {
                        let ts = db.last_installed();
                        let _ = db.snapshot_at(ts).unwrap();
                    }
                });
            }
        });
        db.verify().unwrap();
        // Crash without checkpoint: drop every cache.
    }
    let db = tsb_core::TsbOptions::durable(&dir.0)
        .config(cfg)
        .open()
        .unwrap();
    db.verify().unwrap();
    let cut = db.last_durable_commit().unwrap();
    assert_eq!(cut.value(), 400, "every commit was WAL-fenced");
    for key in 0..40u64 {
        assert_eq!(
            db.get_current(&Key::from_u64(key)).unwrap().unwrap(),
            format!("w{}", 360 + key).into_bytes()
        );
    }
}

/// A fresh durable engine opened through the door, one injector wired
/// into every write site (both stores and the log) once the open is done.
fn open_durable_with_injector(dir: &TempDir, cfg: &TsbConfig) -> (ShardedTsb, Arc<FaultInjector>) {
    let db = tsb_core::TsbOptions::durable(&dir.0)
        .config(cfg.clone())
        .open()
        .unwrap();
    let injector = Arc::new(FaultInjector::new());
    db.set_fault_injector(Arc::clone(&injector));
    (db, injector)
}

/// Runs `threads` closed-loop writers against a fresh `Always`-policy engine
/// with the injector armed at `point` (after `skip` occurrences), records
/// which commits were *acknowledged* (insert returned Ok), and returns them
/// together with whether the crash fired. Keys are unique per (thread, op),
/// so every acknowledged key maps to exactly one expected value.
fn drive_committer_crash(
    dir: &TempDir,
    cfg: &TsbConfig,
    threads: u64,
    ops_per_thread: u64,
    point: CrashPoint,
    skip: u64,
) -> (Vec<(u64, Timestamp)>, bool) {
    let (db, injector) = open_durable_with_injector(dir, cfg);
    injector.crash_at(point, skip);
    let acked = std::sync::Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for t in 0..threads {
            let db = db.clone();
            let acked = &acked;
            s.spawn(move || {
                for i in 0..ops_per_thread {
                    let key = t * 1_000_000 + i;
                    match db.insert(Key::from_u64(key), format!("v{key}").into_bytes()) {
                        Ok(ts) => acked.lock().unwrap().push((key, ts)),
                        Err(_) => break,
                    }
                }
            });
        }
    });
    let crashed = injector.tripped();
    (acked.into_inner().unwrap(), crashed)
}

/// Asserts the zero-acknowledged-commit-loss contract: every commit the
/// engine acknowledged before the crash is present value-exact after
/// recovery, at or below the recovered durable cut.
fn assert_no_acknowledged_loss(dir: &TempDir, cfg: &TsbConfig, acked: &[(u64, Timestamp)]) {
    let recovered = tsb_core::TsbOptions::durable(&dir.0)
        .config(cfg.clone())
        .open()
        .unwrap();
    recovered.verify().unwrap();
    let cut = recovered.last_durable_commit().unwrap();
    for (key, ts) in acked {
        assert!(
            *ts <= cut,
            "acknowledged commit key {key} @ {ts} sits above the recovered cut {cut}"
        );
        assert_eq!(
            recovered.get_current(&Key::from_u64(*key)).unwrap(),
            Some(format!("v{key}").into_bytes()),
            "acknowledged commit key {key} @ {ts} lost (cut {cut})"
        );
    }
}

/// A committing thread leading a sync (a "drain" below) dies mid-capture
/// (`WalSync`: before the device sync is issued) or in the window between
/// the fsync completing and the durable-LSN watermark being published
/// (`WalSyncPublish`), with the other writers parked on it as followers.
/// Either way, no commit the engine *acknowledged* may be lost — the
/// pipelined path must never acknowledge ahead of the device.
#[test]
fn committer_thread_crash_never_loses_acknowledged_commits() {
    let cfg = crash_cfg().with_fsync_policy(FsyncPolicy::Always);
    for point in [CrashPoint::WalSync, CrashPoint::WalSyncPublish] {
        for skip in [0u64, 3, 11] {
            let dir = TempDir::new(&format!("gc-{point:?}-{skip}"));
            let (acked, crashed) = drive_committer_crash(&dir, &cfg, 4, 60, point, skip);
            assert!(
                crashed,
                "{point:?} skip {skip}: the workload must reach the drain"
            );
            // With the crash landing after `skip` drains, at most a handful
            // of commits were acknowledged — but never fewer than the
            // drains that completed.
            assert!(
                acked.len() as u64 >= skip,
                "{point:?}: each completed drain acknowledges at least one commit"
            );
            assert_no_acknowledged_loss(&dir, &cfg, &acked);
        }
    }
}

#[test]
fn torn_tail_mid_delta_run_recovers_the_logged_prefix() {
    // Hammer a handful of keys so the log tail is a pure delta run (one
    // first-touch image per page, then InsertVersion deltas), then tear the
    // file at several depths that land *inside* delta records. The page
    // image survives, the trailing deltas are dropped, and recovery still
    // verifies and equals the durable prefix.
    let cfg = crash_cfg();
    for cut_bytes in [2u64, 9, 33, 70, 141] {
        let dir = TempDir::new(&format!("torn-delta-{cut_bytes}"));
        let (db, _injector) = open_durable_with_injector(&dir, &cfg);
        let mut log: AttemptLog = Vec::new();
        let mut wrote_deltas = false;
        for i in 0..160u64 {
            let key = Key::from_u64(i % 4); // few keys: updates, not splits, dominate
            let value = format!("d{i}").into_bytes();
            let before = db.io_snapshot();
            let ts = db.insert(key.clone(), value.clone()).unwrap();
            log.push((key, ts, Some(value)));
            let delta = db.io_snapshot().delta_since(&before);
            // One commit + at least one page record; when only deltas were
            // appended, the op logged no page image.
            wrote_deltas |= delta.wal_bytes_appended < 200;
        }
        assert!(wrote_deltas, "the workload must exercise the delta path");
        drop(db);

        let wal_path = dir.path("redo.wal");
        let len = std::fs::metadata(&wal_path).unwrap().len();
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(&wal_path)
            .unwrap();
        file.set_len(len - cut_bytes.min(len)).unwrap();
        drop(file);

        let recovered = tsb_core::TsbOptions::durable(&dir.0)
            .config(cfg.clone())
            .open()
            .unwrap();
        assert_recovered_matches_durable_prefix(&recovered, &log, true);
    }
}

/// Steady-state WAL traffic guard (also run by the CI recovery-stress job):
/// after warmup, the hybrid log must stay under a checked-in byte budget
/// per mutation, and under `Os` no write waits on the durable watermark. `TSB_WAL_BYTES_PER_OP_BUDGET` overrides the budget for
/// noisy containers or deliberate format experiments.
#[test]
fn steady_state_wal_bytes_per_op_stays_within_budget() {
    const DEFAULT_BUDGET: f64 = 300.0;
    let budget: f64 = std::env::var("TSB_WAL_BYTES_PER_OP_BUDGET")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_BUDGET);
    let mut cfg = TsbConfig::default()
        .with_page_size(1024)
        .with_split_policy(SplitPolicyKind::TimePreferring)
        .with_fsync_policy(FsyncPolicy::Os);
    cfg.max_key_len = 64;
    let dir = TempDir::new("wal-budget");
    let (db, _injector) = open_durable_with_injector(&dir, &cfg);
    let spec = WorkloadSpec::default()
        .with_ops(2_000)
        .with_keys(200)
        .with_update_ratio(4.0)
        .with_value_size(48)
        .with_seed(5);
    let ops = generate_ops(&spec);
    let (warmup, steady) = ops.split_at(ops.len() / 4);
    fn replay(db: &ShardedTsb, ops: &[Op]) {
        for op in ops {
            match op {
                Op::Put { key, value } => {
                    db.insert(key.clone(), value.clone()).unwrap();
                }
                Op::Delete { key } => {
                    db.delete(key.clone()).unwrap();
                }
            }
        }
    }
    replay(&db, warmup);
    let before = db.io_snapshot();
    replay(&db, steady);
    let delta = db.io_snapshot().delta_since(&before);
    assert_eq!(
        delta.group_commit_waits, 0,
        "`Os` acknowledges without waiting on the durable watermark"
    );
    let bytes_per_op = delta.wal_bytes_appended as f64 / steady.len() as f64;
    assert!(
        bytes_per_op <= budget,
        "steady-state WAL traffic regressed: {bytes_per_op:.1} B/op > budget {budget:.1} \
         (override with TSB_WAL_BYTES_PER_OP_BUDGET only for deliberate format changes)"
    );
}

// ---------- the log's bytes are pinned ----------------------------------------

/// One step of a log-pin workload.
enum PinStep {
    Put(u64, Vec<u8>),
    Delete(u64),
    /// A transaction's writes (`None` deletes the key), then commit (`true`)
    /// or abort.
    Txn(Vec<(u64, Option<Vec<u8>>)>, bool),
    Checkpoint,
}

/// `ops` deterministic steps over 300 keys: puts of 8–47-byte values, a
/// delete every 7th step, a three-write transaction every 10th (one in
/// five of them aborted), and one checkpoint half-way.
fn pin_steps(seed: u64, ops: usize) -> Vec<PinStep> {
    let mut state = seed;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let value = |i: usize, r: u64| -> Vec<u8> {
        let len = 8 + (r % 40) as usize;
        (0..len).map(|j| (i + j) as u8).collect()
    };
    (0..ops)
        .map(|i| {
            if i == ops / 2 {
                PinStep::Checkpoint
            } else if i % 10 == 9 {
                let writes = (0..3)
                    .map(|w| {
                        let r = next();
                        let write = (w < 2 || i % 20 != 19).then(|| value(i, r >> 16));
                        (r % 300, write)
                    })
                    .collect();
                PinStep::Txn(writes, i % 50 != 49)
            } else if i % 7 == 6 {
                PinStep::Delete(next() % 300)
            } else {
                let r = next();
                PinStep::Put(r % 300, value(i, r >> 16))
            }
        })
        .collect()
}

fn drive_pin_steps(db: &ShardedTsb, steps: &[PinStep]) {
    for step in steps {
        match step {
            PinStep::Put(k, v) => {
                db.insert(Key::from_u64(*k), v.clone()).unwrap();
            }
            PinStep::Delete(k) => {
                db.delete(Key::from_u64(*k)).unwrap();
            }
            PinStep::Txn(writes, commit) => {
                let txn = db.begin_txn().unwrap();
                for (k, v) in writes {
                    match v {
                        Some(v) => db.txn_insert(txn, Key::from_u64(*k), v.clone()),
                        None => db.txn_delete(txn, Key::from_u64(*k)),
                    }
                    .unwrap();
                }
                if *commit {
                    db.commit_txn(txn).unwrap();
                } else {
                    db.abort_txn(txn).unwrap();
                }
            }
            PinStep::Checkpoint => db.checkpoint().unwrap(),
        }
    }
}

/// The redo log's bytes are pinned: five deterministic workloads — four
/// split policies on one shard, the default policy on four — each leave a
/// `redo.wal` whose CRC-32 and length must equal the constants below. A
/// change to what the write path logs, or in what order, fails here even
/// when every replay still agrees. A deliberate format change re-pins the
/// constants (the failure prints the new ones).
#[test]
fn the_redo_log_bytes_match_their_pins() {
    const PINS: [(&str, u32, u64); 5] = [
        ("threshold", 0x58C9FCC9, 357_947),
        ("key-only", 0x070E4567, 341_947),
        ("time-preferring", 0x7EB9B75B, 367_021),
        ("wobt-like", 0xC1AA5B6D, 369_388),
        ("four-shards", 0x278B2788, 388_604),
    ];
    let small = || TsbConfig::small_pages().with_fsync_policy(FsyncPolicy::Os);
    let one_shard = |policy| (small().with_split_policy(policy), 1);
    let runs = [
        one_shard(SplitPolicyKind::Threshold {
            key_split_live_fraction: 0.6,
        }),
        one_shard(SplitPolicyKind::KeyOnly),
        one_shard(SplitPolicyKind::TimePreferring),
        one_shard(SplitPolicyKind::WobtLike),
        (small(), 4),
    ];
    let mut got = Vec::new();
    for (((name, ..), (cfg, shards)), seed) in PINS.iter().zip(runs).zip(1u64..) {
        let dir = TempDir::new(&format!("log-pin-{name}"));
        {
            let db = tsb_core::TsbOptions::durable(&dir.0)
                .config(cfg)
                .shards(shards)
                .open()
                .unwrap();
            drive_pin_steps(&db, &pin_steps(seed, 2_000));
        }
        let log = std::fs::read(dir.path("redo.wal")).unwrap();
        got.push((*name, tsb_common::checksum::crc32(&log), log.len() as u64));
    }
    assert_eq!(
        got, PINS,
        "the redo log's bytes changed; a deliberate format change re-pins these"
    );
}

// ---------- property: acknowledged commits survive committer crashes ---------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The `Always` contract, pipelined: an insert that returned `Ok` was
    /// durable *before* it was acknowledged, so crashing whichever
    /// committer leads an arbitrary sync — mid-capture or in the
    /// fsync→publish window — loses nothing acknowledged; and recovery lands exactly on
    /// the durable watermark (re-recovering is a fixed point; a clean
    /// shutdown recovers to precisely the last acknowledged commit).
    #[test]
    fn acknowledged_commits_survive_committer_crashes(
        threads in 1u64..5,
        ops_per_thread in 1u64..40,
        publish_stage in any::<bool>(),
        skip in 0u64..24,
    ) {
        let point = if publish_stage {
            CrashPoint::WalSyncPublish
        } else {
            CrashPoint::WalSync
        };
        let cfg = crash_cfg().with_fsync_policy(FsyncPolicy::Always);
        let dir = TempDir::new("gc-prop");
        let (acked, crashed) =
            drive_committer_crash(&dir, &cfg, threads, ops_per_thread, point, skip);
        if !crashed {
            // The skip outlived the run: a clean shutdown. Every op must
            // have been acknowledged, and recovery must land exactly on
            // the last acknowledged commit.
            prop_assert_eq!(acked.len() as u64, threads * ops_per_thread);
        }
        assert_no_acknowledged_loss(&dir, &cfg, &acked);
        let first_cut = {
            let db = tsb_core::TsbOptions::durable(&dir.0).config(cfg.clone()).open().unwrap();
            db.last_durable_commit().unwrap()
        };
        if !crashed {
            let newest_ack = acked.iter().map(|(_, ts)| *ts).max().unwrap_or(Timestamp(0));
            prop_assert_eq!(first_cut, newest_ack);
        }
        // Recovery is exact: recovering the recovered state moves nothing.
        let db = tsb_core::TsbOptions::durable(&dir.0).config(cfg).open().unwrap();
        prop_assert_eq!(db.last_durable_commit(), Some(first_cut));
    }
}

// ---------- property: recovery is prefix-consistent --------------------------

#[derive(Clone, Debug)]
enum PropOp {
    Put { key: u8, len: u8 },
    Delete { key: u8 },
}

fn prop_ops() -> impl Strategy<Value = Vec<PropOp>> {
    prop::collection::vec(
        prop_oneof![
            5 => (any::<u8>(), any::<u8>()).prop_map(|(key, len)| PropOp::Put {
                key: key % 24,
                len: len % 32,
            }),
            1 => any::<u8>().prop_map(|key| PropOp::Delete { key: key % 24 }),
        ],
        1..200,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Arbitrary op sequence, crash after an arbitrary number of device
    /// writes, optional mid-stream checkpoint: the reopened tree equals the
    /// oracle replay of the durable prefix.
    #[test]
    fn recovery_is_prefix_consistent(
        ops in prop_ops(),
        budget in 1u64..600,
        checkpoint_at in prop::option::of(0usize..180),
    ) {
        let cfg = crash_cfg();
        let dir = TempDir::new("prop");
        let (db, injector) = open_durable_with_injector(&dir, &cfg);
        // Arm the write budget after the optional mid-stream checkpoint so
        // the checkpoint itself succeeds and moves the replay base.
        let arm_at = checkpoint_at.map(|c| c + 1).unwrap_or(0);
        let mut log: AttemptLog = Vec::new();
        if arm_at == 0 {
            injector.fail_after_writes(budget);
        }
        for (i, op) in ops.iter().enumerate() {
            if Some(i) == checkpoint_at && db.checkpoint().is_err() {
                break;
            }
            if i == arm_at && arm_at > 0 {
                injector.fail_after_writes(budget);
            }
            let ts = db.now();
            let result = match op {
                PropOp::Put { key, len } => {
                    let value = vec![*key; *len as usize + 1];
                    log.push((Key::from_u64(*key as u64), ts, Some(value.clone())));
                    db.insert(Key::from_u64(*key as u64), value)
                }
                PropOp::Delete { key } => {
                    log.push((Key::from_u64(*key as u64), ts, None));
                    db.delete(Key::from_u64(*key as u64))
                }
            };
            match result {
                Ok(stamped) => prop_assert_eq!(stamped, ts),
                Err(_) => break,
            }
        }
        let crashed = injector.tripped();
        drop(db);
        let recovered = tsb_core::TsbOptions::durable(&dir.0).config(cfg).open().unwrap();
        assert_recovered_matches_durable_prefix(&recovered, &log, crashed);
    }
}

// ---------- property: hybrid deltas replay exactly like full images ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The log's deltas are only trustworthy if they are *interchangeable*
    /// with the images they stand for: an arbitrary op stream crashed at an
    /// arbitrary depth (optionally checkpointed mid-stream, so deltas
    /// straddle a log reset) must recover to the identical tree whether
    /// the log carried logical deltas (the log as shipped) or a full page
    /// image per rewrite (the reference, reachable only through
    /// `TsbOptions`' hidden test switch).
    #[test]
    fn delta_replay_equals_image_replay(
        ops in prop_ops(),
        crash_depth in 1usize..200,
        checkpoint_at in prop::option::of(0usize..150),
    ) {
        let mut recovered: Vec<ShardedTsb> = Vec::new();
        let mut dirs = Vec::new(); // keep tempdirs alive until compared
        let mut attempted = 0usize;
        for images_only in [false, true] {
            let dir = TempDir::new(&format!("images-only-{images_only}"));
            let opts = || {
                let opts = tsb_core::TsbOptions::durable(&dir.0).config(crash_cfg());
                if images_only { opts.reference_image_log() } else { opts }
            };
            let db = opts().open().unwrap();
            attempted = 0;
            for (i, op) in ops.iter().take(crash_depth).enumerate() {
                if Some(i) == checkpoint_at {
                    db.checkpoint().unwrap();
                }
                let ts = match op {
                    PropOp::Put { key, len } => {
                        db.insert(Key::from_u64(*key as u64), vec![*key; *len as usize + 1])
                    }
                    PropOp::Delete { key } => db.delete(Key::from_u64(*key as u64)),
                };
                prop_assert_eq!(ts.unwrap(), Timestamp(i as u64 + 1));
                attempted = i + 1;
            }
            drop(db); // crash: caches gone, only the WAL speaks
            recovered.push(opts().open().unwrap());
            dirs.push(dir);
        }
        let (hybrid, images) = (&recovered[0], &recovered[1]);
        hybrid.verify().unwrap();
        images.verify().unwrap();
        prop_assert_eq!(hybrid.last_durable_commit(), images.last_durable_commit());
        // Identical answers across all of history: every attempted
        // timestamp, the cut, and the end of time.
        for probe in 0..=attempted as u64 {
            prop_assert_eq!(
                hybrid.snapshot_at(Timestamp(probe)).unwrap(),
                images.snapshot_at(Timestamp(probe)).unwrap(),
                "snapshots diverge at ts {}", probe
            );
        }
        prop_assert_eq!(
            hybrid.snapshot_at(Timestamp::MAX).unwrap(),
            images.snapshot_at(Timestamp::MAX).unwrap()
        );
        for key in 0..24u64 {
            let key = Key::from_u64(key);
            prop_assert_eq!(
                hybrid.versions(&key).unwrap(),
                images.versions(&key).unwrap(),
                "version history diverges for {}", key
            );
        }
    }
}
