//! Promotion at the engine level: a replica that has applied through the
//! primary's durable LSN stops applying and serves as a primary in place
//! — and its directory reopens as one — without losing a single applied
//! record, across plain streaming, an in-place primary checkpoint, and a
//! forced rebase, at one shard and at four.

use std::collections::BTreeMap;

use tsb_common::{FsyncPolicy, Key, KeyRange, TsbConfig};
use tsb_core::{EngineHandle, EngineRole, ReplicationSource, ShardedTsb, TsbOptions};

struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("tsb-promotion-{tag}-{}", std::process::id()));
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

fn opts(dir: &TempDir, shards: usize) -> TsbOptions {
    let cfg = TsbConfig::small_pages().with_fsync_policy(FsyncPolicy::Always);
    TsbOptions::durable(&dir.0).config(cfg).shards(shards)
}

/// One shipping step: poll once (small batches, like the live runner's
/// frame-capped subscribes) and apply; rebase when the primary's log
/// reset discarded the cursor.
fn ship_once(source: &ReplicationSource, replica: ShardedTsb) -> ShardedTsb {
    let cursor = replica.resume_lsn().unwrap();
    let batch = source.poll(cursor, &replica.worm_have(), 512).unwrap();
    if batch.needs_rebase {
        return replica.install_base(&source.base().unwrap()).unwrap();
    }
    replica.apply_batch(&batch).unwrap();
    replica
}

/// Ships until the replica has applied through the *primary's* durable
/// LSN — the honest catch-up criterion. The replica's own lag counters
/// are relative to the watermark it last polled, so they can read zero
/// while the primary holds newer durable records that never shipped;
/// promoting inside that window loses them.
fn ship_until_caught_up(source: &ReplicationSource, mut replica: ShardedTsb) -> ShardedTsb {
    while replica.durable_lsn() < source.durable_lsn() {
        replica = ship_once(source, replica);
    }
    replica
}

#[test]
fn promotion_preserves_the_applied_prefix() {
    for shards in [1, 4] {
        let pdir = TempDir::new(&format!("primary-{shards}"));
        let rdir = TempDir::new(&format!("replica-{shards}"));
        let primary = opts(&pdir, shards).open().unwrap();
        let source = ReplicationSource::new(&primary).unwrap();
        // Bootstrap from an empty primary (the server flow: the replica
        // comes up before the first write), then stream everything. The
        // replica takes its shard count from the base.
        let replica = opts(&rdir, 1).open_replica().unwrap();
        let mut replica = replica.install_base(&source.base().unwrap()).unwrap();

        let mut expect = BTreeMap::new();
        for i in 0..40u64 {
            let value = format!("v-{i}").into_bytes();
            primary.insert(Key::from_u64(i), value.clone()).unwrap();
            expect.insert(Key::from_u64(i), value);
            // Interleave shipping with the writes, in live-runner-sized
            // batches, and cross a primary checkpoint mid-stream: both the
            // in-place checkpoint apply and the rebase path must end in a
            // promotable local state.
            if i == 20 {
                replica = ship_until_caught_up(&source, replica);
                primary.checkpoint().unwrap();
            }
            replica = ship_once(&source, replica);
        }
        let replica = ship_until_caught_up(&source, replica);
        let status = replica.replica_status().unwrap();
        assert!(status.serving && status.lag_records == 0, "{status:?}");

        // Promote in place: every applied record is still there, and the
        // engine takes writes.
        replica.promote().unwrap();
        assert_eq!(replica.role(), EngineRole::Primary);
        for (key, value) in &expect {
            assert_eq!(
                replica.get_current(key).unwrap().as_ref(),
                Some(value),
                "promotion lost applied key {key:?}"
            );
        }
        assert_eq!(
            replica.scan_current(&KeyRange::full()).unwrap().len(),
            expect.len()
        );
        primary.insert(Key::from_u64(999), b"old".to_vec()).unwrap();
        replica
            .insert(Key::from_u64(1000), b"new".to_vec())
            .unwrap();
        expect.insert(Key::from_u64(1000), b"new".to_vec());
        drop(replica);

        // The promoted directory is a primary's: ordinary recovery reopens
        // it on the same lineage.
        let promoted = opts(&rdir, shards).open().unwrap();
        let rows: BTreeMap<Key, Vec<u8>> = promoted
            .scan_current(&KeyRange::full())
            .unwrap()
            .into_iter()
            .collect();
        assert_eq!(rows, expect);
    }
}
