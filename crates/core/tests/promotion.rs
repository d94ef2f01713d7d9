//! Promotion at the engine level: a replica that has applied through the
//! primary's durable LSN can be closed and reopened as a primary
//! (ordinary recovery) without losing a single applied record — across
//! plain streaming, an in-place primary checkpoint, and a forced rebase.

use std::collections::BTreeMap;

use tsb_common::{FsyncPolicy, Key, KeyRange, TsbConfig};
use tsb_core::{ReplicaEngine, ReplicationSource, TsbOptions};

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

fn cfg() -> TsbConfig {
    TsbConfig::small_pages().with_fsync_policy(FsyncPolicy::Always)
}

/// One shipping step: poll once (small batches, like the live runner's
/// frame-capped subscribes) and apply; rebase when the primary's log
/// reset discarded the cursor.
fn ship_once(source: &ReplicationSource, replica: &ReplicaEngine) {
    if replica.needs_base() {
        replica.install_base(&source.base().unwrap()).unwrap();
    }
    let batch = source
        .poll(replica.resume_lsn().unwrap(), replica.worm_have(), 512)
        .unwrap();
    if batch.needs_rebase {
        replica.install_base(&source.base().unwrap()).unwrap();
        return;
    }
    replica.apply_batch(&batch).unwrap();
}

/// Ships until the replica has applied through the *primary's* durable
/// LSN — the honest catch-up criterion. The replica's own lag counters
/// are relative to the watermark it last polled, so they can read zero
/// while the primary holds newer durable records that never shipped;
/// promoting inside that window loses them.
fn ship_until_caught_up(source: &ReplicationSource, replica: &ReplicaEngine) {
    while replica.status().applied_lsn < source.durable_lsn() {
        ship_once(source, replica);
    }
}

#[test]
fn promotion_preserves_the_applied_prefix() {
    let pdir = TempDir::new("primary");
    let rdir = TempDir::new("replica");
    let primary = TsbOptions::durable(&pdir.0)
        .config(cfg())
        .open_concurrent()
        .unwrap();
    let source = ReplicationSource::new(&primary).unwrap();
    let replica = TsbOptions::durable(&rdir.0)
        .config(cfg())
        .open_replica()
        .unwrap();
    // Bootstrap from an empty primary (the server flow: the replica comes
    // up before the first write), then stream everything.
    replica.install_base(&source.base().unwrap()).unwrap();

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
            ship_until_caught_up(&source, &replica);
            primary.checkpoint().unwrap();
        }
        ship_once(&source, &replica);
    }
    ship_until_caught_up(&source, &replica);
    let status = replica.status();
    assert!(status.serving && status.lag_records == 0, "{status:?}");

    // Promote: close the replica, reopen the directory as a primary with
    // ordinary recovery. Every applied record must survive the cut.
    replica.close();
    let promoted = TsbOptions::durable(&rdir.0)
        .config(cfg())
        .open_concurrent()
        .unwrap();
    for (key, value) in &expect {
        assert_eq!(
            promoted.get_current(key).unwrap().as_ref(),
            Some(value),
            "promotion lost applied key {key:?}"
        );
    }
    assert_eq!(
        promoted.scan_current(&KeyRange::full()).unwrap().len(),
        expect.len()
    );

    // The promoted node is a writable primary on the same lineage.
    primary.insert(Key::from_u64(999), b"old".to_vec()).unwrap();
    promoted
        .insert(Key::from_u64(1000), b"new".to_vec())
        .unwrap();
    assert_eq!(
        promoted.get_current(&Key::from_u64(1000)).unwrap(),
        Some(b"new".to_vec())
    );
}
