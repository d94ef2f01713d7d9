//! Property: a replica always equals the primary's durable prefix.
//!
//! Arbitrary interleavings of primary writes (puts, deletes, multi-key
//! transactions, checkpoints), shipping steps (including tiny partial
//! batches), and kills on both ends — the replica killed mid-apply by a
//! fault injector at an arbitrary durable-write count and reopened from
//! its own disk; the primary dropped without a checkpoint and recovered —
//! must leave a final synced replica that answers every current and as-of
//! read exactly as the primary does — whether the primary's log carries
//! deltas (as shipped) or a full image per rewrite (the reference), and
//! whether one shard writes the log or four share it. A caught-up
//! replica's next poll must also be a fixed point (an empty batch).

use std::sync::Arc;

use proptest::prelude::*;

use tsb_common::{FsyncPolicy, Key, KeyRange, Timestamp};
use tsb_core::{EngineHandle, FaultInjector, ReplicationSource, ShardedTsb, TsbOptions};

struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "tsb-prop-repl-{tag}-{}-{}",
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

#[derive(Clone, Debug)]
enum Step {
    /// Insert `key % KEYSPACE` with a value derived from the op index.
    Put { key: u64 },
    /// Tombstone a key.
    Delete { key: u64 },
    /// A multi-key transaction committing `writes` keys atomically.
    Txn { writes: Vec<u64> },
    /// Checkpoint the primary (resets its log generation).
    Checkpoint,
    /// Ship at most one batch of `max_bytes` to the replica.
    Ship { max_bytes: usize },
    /// Arm the replica's fault injector to die after `budget` durable
    /// writes, ship until it trips, then reopen the replica from disk.
    KillReplicaAfter { budget: u64 },
    /// Drop the primary without a checkpoint and recover it from disk.
    KillPrimary,
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        8 => (0u64..24).prop_map(|key| Step::Put { key }),
        2 => (0u64..24).prop_map(|key| Step::Delete { key }),
        2 => prop::collection::vec(0u64..24, 1..5).prop_map(|writes| Step::Txn { writes }),
        1 => Just(Step::Checkpoint),
        4 => (64usize..4096).prop_map(|max_bytes| Step::Ship { max_bytes }),
        2 => (1u64..40).prop_map(|budget| Step::KillReplicaAfter { budget }),
        1 => Just(Step::KillPrimary),
    ]
}

/// `images_only` selects the reference log (a full image per rewrite)
/// through `TsbOptions`' hidden test switch.
fn opts(dir: &std::path::Path, shards: usize, images_only: bool) -> TsbOptions {
    let opts = TsbOptions::durable(dir)
        .small_pages()
        .fsync(FsyncPolicy::Always)
        .shards(shards);
    if images_only {
        opts.reference_image_log()
    } else {
        opts
    }
}

/// Ships one poll's worth; rebases first if the replica has no base or
/// the primary reset past its cursor, arming a rebased replica with
/// `injector` as the one it replaces was. Returns whether the replica is
/// now caught up.
fn ship_once(
    source: &ReplicationSource,
    replica: &mut ShardedTsb,
    max_bytes: usize,
    injector: Option<&Arc<FaultInjector>>,
) -> tsb_common::TsbResult<bool> {
    let rebase = |replica: &mut ShardedTsb| -> tsb_common::TsbResult<()> {
        *replica = replica.install_base(&source.base()?)?;
        if let Some(injector) = injector {
            replica.set_fault_injector(Arc::clone(injector));
        }
        Ok(())
    };
    if replica.needs_base() {
        rebase(replica)?;
    }
    let batch = source.poll(
        replica.resume_lsn().expect("serving replica has a cursor"),
        &replica.worm_have(),
        max_bytes,
    )?;
    if batch.needs_rebase {
        rebase(replica)?;
        return Ok(false);
    }
    let caught_up = batch.records.is_empty();
    replica.apply_batch(&batch)?;
    Ok(caught_up)
}

fn ship_all(source: &ReplicationSource, replica: &mut ShardedTsb) {
    while !ship_once(source, replica, 1 << 20, None).expect("ship") {}
}

fn run_case(shards: usize, images_only: bool, steps: &[Step]) -> Result<(), TestCaseError> {
    let pdir = TempDir::new("p");
    let rdir = TempDir::new("r");
    let opts = |dir: &TempDir| opts(&dir.0, shards, images_only);
    let mut primary = opts(&pdir).open().unwrap();
    let mut source = Some(ReplicationSource::new(&primary).unwrap());
    // A replica takes its shard count from its base, and logs exactly
    // what it is shipped.
    let open_replica = || {
        let opts = TsbOptions::durable(&rdir.0).small_pages();
        opts.fsync(FsyncPolicy::Always).open_replica().unwrap()
    };
    let mut replica = open_replica();

    // Every acknowledged (commit-stamped) write, for the as-of oracle.
    let mut stamps: Vec<(u64, Timestamp)> = Vec::new();

    for (i, s) in steps.iter().enumerate() {
        match s {
            Step::Put { key } => {
                let value = format!("v{i}-{key}").into_bytes();
                let ts = primary.insert(Key::from_u64(*key), value).unwrap();
                stamps.push((*key, ts));
            }
            Step::Delete { key } => {
                let ts = primary.delete(Key::from_u64(*key)).unwrap();
                stamps.push((*key, ts));
            }
            Step::Txn { writes } => {
                let txn = primary.begin_txn().unwrap();
                for key in writes {
                    primary
                        .txn_insert(txn, Key::from_u64(*key), format!("t{i}-{key}").into_bytes())
                        .unwrap();
                }
                let ts = primary.commit_txn(txn).unwrap();
                for key in writes {
                    stamps.push((*key, ts));
                }
            }
            Step::Checkpoint => primary.checkpoint().unwrap(),
            Step::Ship { max_bytes } => {
                let src = source.as_ref().unwrap();
                ship_once(src, &mut replica, *max_bytes, None).expect("ship");
            }
            Step::KillReplicaAfter { budget } => {
                let injector = Arc::new(FaultInjector::new());
                replica.set_fault_injector(Arc::clone(&injector));
                injector.fail_after_writes(*budget);
                // Ship until the injector trips (an error) or the stream
                // drains without reaching the budget.
                let src = source.as_ref().unwrap();
                loop {
                    match ship_once(src, &mut replica, 512, Some(&injector)) {
                        Ok(true) => break,
                        Ok(false) => continue,
                        Err(_) => break, // crash landed mid-apply
                    }
                }
                // Crash-equivalent restart: reopen from whatever the disk
                // holds, with a disarmed process.
                drop(replica);
                replica = open_replica();
            }
            Step::KillPrimary => {
                // No checkpoint, no graceful anything: drop every handle
                // and recover from the directory.
                drop(source.take());
                drop(primary);
                primary = opts(&pdir).open().unwrap();
                source = Some(ReplicationSource::new(&primary).unwrap());
            }
        }
    }

    // Final convergence, then the oracle comparison.
    let src = source.as_ref().unwrap();
    ship_all(src, &mut replica);

    let range = KeyRange::full();
    let p = primary.scan_current(&range).unwrap();
    let r = replica.scan_current(&range).unwrap();
    prop_assert_eq!(
        p,
        r,
        "replica current state diverged ({} shards, images_only: {})",
        shards,
        images_only
    );

    for (key, ts) in &stamps {
        let key = Key::from_u64(*key);
        prop_assert_eq!(
            replica.get_as_of(&key, *ts).unwrap(),
            primary.get_as_of(&key, *ts).unwrap(),
            "as-of read diverged at {:?} ({} shards, images_only: {})",
            ts,
            shards,
            images_only
        );
    }

    // Re-subscribing at the caught-up cursor is a fixed point.
    let fixed = src
        .poll(replica.resume_lsn().unwrap(), &replica.worm_have(), 1 << 20)
        .unwrap();
    prop_assert!(!fixed.needs_rebase, "caught-up cursor asked to rebase");
    prop_assert!(
        fixed.records.is_empty(),
        "caught-up cursor was shipped {} records",
        fixed.records.len()
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn replica_equals_primary_durable_prefix(
        steps in prop::collection::vec(step(), 1..36),
    ) {
        for shards in [1, 4] {
            run_case(shards, false, &steps)?;
            run_case(shards, true, &steps)?;
        }
    }
}
