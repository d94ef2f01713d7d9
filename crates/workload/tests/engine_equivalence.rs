//! One oracle, every engine: the same scripted workload replayed through
//! [`EngineHandle`] must produce identical answers from the writable
//! engine at several shard counts (one shard *is* the single-tree case)
//! and from a replica that only ever saw the shipped log. The test is
//! deliberately API-shaped — everything goes through the trait object,
//! exactly as the server's dispatch does, so a divergence here is a
//! divergence a client could see.

use tsb_common::{FsyncPolicy, Key, Timestamp, TsbError, TsbResult};
use tsb_core::{EngineHandle, ReplicationSource, ShardedTsb, TsbOptions};
use tsb_storage::{Lsn, WalRecord};
use tsb_workload::{
    assert_engine_matches_oracle, generate_ops, replay_engine, KeyDistribution, Oracle,
    WorkloadSpec,
};

struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "tsb-engine-equiv-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn spec() -> WorkloadSpec {
    WorkloadSpec {
        num_ops: 600,
        num_keys: 64,
        update_fraction: 0.55,
        delete_fraction: 0.12,
        value_size: (8, 40),
        distribution: KeyDistribution::Hotspot {
            hot_fraction: 0.2,
            hot_probability: 0.8,
        },
        seed: 0x5EED_E001,
    }
}

/// A durable `shards`-shard engine in `dir` whose every ack means fsynced.
fn open_always(dir: &TempDir, shards: usize) -> ShardedTsb {
    let opts = TsbOptions::durable(&dir.0).small_pages();
    let opts = opts.fsync(FsyncPolicy::Always).shards(shards);
    opts.open().unwrap()
}

fn check(db: &dyn EngineHandle) {
    let ops = generate_ops(&spec());
    let oracle = replay_engine(db, &ops).unwrap();
    assert_engine_matches_oracle(db, &oracle, 7);
}

#[test]
fn sharded_engine_matches_oracle_through_the_trait() {
    for shards in [1usize, 4] {
        let dir = TempDir::new("shard");
        let db = TsbOptions::durable(&dir.0)
            .small_pages()
            .fsync(FsyncPolicy::Os)
            .shards(shards)
            .open()
            .unwrap();
        check(&db);
    }
}

/// Ships `primary`'s whole log into a fresh replica at `dir`, which takes
/// the primary's shard count from its base.
fn synced_replica(primary: &dyn EngineHandle, dir: &TempDir) -> ShardedTsb {
    let source = primary.replication_source().unwrap();
    let mut replica = TsbOptions::durable(&dir.0)
        .small_pages()
        .fsync(FsyncPolicy::Always)
        .open_replica()
        .unwrap();
    loop {
        if replica.needs_base() {
            replica = replica.install_base(&source.base().unwrap()).unwrap();
        }
        let batch = source
            .poll(
                replica.resume_lsn().expect("serving replica has a cursor"),
                &replica.worm_have(),
                1 << 20,
            )
            .unwrap();
        if batch.needs_rebase {
            replica = replica.install_base(&source.base().unwrap()).unwrap();
            continue;
        }
        let done = batch.records.is_empty();
        replica.apply_batch(&batch).unwrap();
        if done {
            return replica;
        }
    }
}

#[test]
fn synced_replica_matches_the_primary_oracle_through_the_trait() {
    for shards in [1usize, 4] {
        let pdir = TempDir::new("prim");
        let rdir = TempDir::new("repl");
        let primary = open_always(&pdir, shards);

        // Build the oracle by replaying on the primary, then ship the
        // whole log and demand the replica answers for it — reads only,
        // through the same trait surface.
        let ops = generate_ops(&spec());
        let oracle = replay_engine(&primary, &ops).unwrap();
        let replica = synced_replica(&primary, &rdir);
        assert_engine_matches_oracle(&replica, &oracle, 7);
    }
}

/// A tailer of the engine's one log, with the LSN the log started the
/// test at. Log shipping stops at the durable watermark, so what the
/// tailer hands out *is* the durable prefix.
struct DurablePrefix {
    source: ReplicationSource,
    start: Lsn,
    shards: usize,
}

impl DurablePrefix {
    fn of(db: &ShardedTsb) -> DurablePrefix {
        let source = ReplicationSource::new(db).unwrap();
        let start = source.durable_lsn();
        let shards = db.shard_count();
        DurablePrefix {
            source,
            start,
            shards,
        }
    }

    /// Whether the commit stamped `ts` is durable right now.
    fn holds(&self, ts: Timestamp) -> bool {
        let worm_have = vec![u64::MAX; self.shards];
        let batch = self.source.poll(self.start, &worm_have, 1 << 30).unwrap();
        assert!(!batch.needs_rebase, "nothing checkpoints mid-test");
        batch.records.iter().any(|body| {
            matches!(
                WalRecord::decode_body(body).unwrap(),
                (_, WalRecord::Commit { ts: fence, .. }) if fence == ts.value()
            )
        })
    }
}

/// The blocking verbs are defined once, on the trait (`*_deferred` then
/// `wait_durable`): under `Always` each must return only once its commit
/// is durable, and the answers must be the oracle's. On a replica the
/// same three verbs must refuse, like the deferred halves they are made of.
#[test]
fn provided_blocking_verbs_return_durable_and_match_the_oracle() {
    for shards in [1usize, 4] {
        let dir = TempDir::new("block");
        let opened = open_always(&dir, shards);
        let db: &dyn EngineHandle = &opened;
        let durable = DurablePrefix::of(&opened);
        let mut oracle = Oracle::new();
        for i in 0..24u64 {
            let (key, value) = (Key::from_u64(i % 8), format!("v{i}").into_bytes());
            let ts = db.insert(key.clone(), value.clone()).unwrap();
            assert!(durable.holds(ts), "insert {i} acked early");
            oracle.apply_put(key, ts, Some(value));
        }
        for i in 0..4u64 {
            let key = Key::from_u64(i);
            let ts = db.delete(key.clone()).unwrap();
            assert!(durable.holds(ts), "delete {i} acked early");
            oracle.apply_put(key, ts, None);
        }
        // One key: a single-shard commit, whose fence is a `Commit` record
        // the durable prefix check can find by timestamp.
        let key = Key::from_u64(5);
        let txn = db.begin_txn().unwrap();
        db.txn_insert(txn, key.clone(), b"txn".to_vec()).unwrap();
        let ts = db.commit_txn(txn).unwrap();
        assert!(durable.holds(ts), "commit_txn acked early");
        oracle.apply_put(key.clone(), ts, Some(b"txn".to_vec()));
        assert_engine_matches_oracle(db, &oracle, 1);

        let rdir = TempDir::new("block-replica");
        let replica = synced_replica(db, &rdir);
        let replica: &dyn EngineHandle = &replica;
        let refused = |r: TsbResult<Timestamp>| matches!(r, Err(TsbError::ReadOnly));
        assert!(refused(replica.insert(key.clone(), b"no".to_vec())));
        assert!(refused(replica.delete(key.clone())));
        assert!(refused(replica.commit_txn(txn)));
        assert_eq!(replica.get_current(&key).unwrap(), Some(b"txn".to_vec()));
    }
}
