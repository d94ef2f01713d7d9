//! Property: snapshot stability under concurrent writes.
//!
//! A [`ShardedSnapshot`](tsb_core::ShardedSnapshot) pinned at the install
//! fence is a fixed point: dumped **before** a concurrent write batch
//! starts, **during** it (from another thread, while inserts, updates,
//! deletes, splits, and WORM migration are happening), and **after** it
//! finishes, it returns the identical version set every time. A second
//! snapshot begun by another thread *while* the batch runs must be one too:
//! at four shards that is `begin_snapshot` pinning every shard's fence
//! while the writer moves them. The batches are arbitrary
//! (proptest-generated) and include enough writes to force node splits
//! under `small_pages`, so the snapshot's stability is exercised across
//! genuine structural churn, not just leaf rewrites.

use std::thread;

use proptest::prelude::*;

use tsb_common::{KeyRange, TsbConfig};
use tsb_core::{EngineHandle, Key, ShardedTsb};

#[derive(Clone, Debug)]
enum BatchOp {
    Put { key: u8, len: u8 },
    Delete { key: u8 },
}

fn batch_strategy() -> impl Strategy<Value = Vec<BatchOp>> {
    prop::collection::vec(
        prop_oneof![
            5 => (any::<u8>(), any::<u8>()).prop_map(|(key, len)| BatchOp::Put {
                key: key % 24,
                len: len % 48,
            }),
            1 => any::<u8>().prop_map(|key| BatchOp::Delete { key: key % 24 }),
        ],
        20..300,
    )
}

fn apply(db: &ShardedTsb, op: &BatchOp) {
    match op {
        BatchOp::Put { key, len } => {
            db.insert(Key::from_u64(*key as u64), vec![b'x'; *len as usize])
                .unwrap();
        }
        BatchOp::Delete { key } => {
            db.delete(Key::from_u64(*key as u64)).unwrap();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn snapshots_are_stable_before_during_and_after_concurrent_batches(
        seed_batch in batch_strategy(),
        concurrent_batch in batch_strategy(),
    ) {
        for shards in [1usize, 4] {
            let db = tsb_core::TsbOptions::in_memory()
                .config(TsbConfig::small_pages())
                .shards(shards)
                .open()
                .unwrap();
            for op in &seed_batch {
                apply(&db, op);
            }

            let snap = db.begin_snapshot();
            let before = snap.dump().unwrap();
            let count_before = snap.count(&KeyRange::full()).unwrap();
            prop_assert_eq!(count_before, before.len());

            // Dump the pinned snapshot from another thread while the writer
            // races through an arbitrary batch.
            let (during_dumps, (mid, mid_during)) = thread::scope(|s| {
                let writer = {
                    let db = db.clone();
                    let batch = concurrent_batch.clone();
                    s.spawn(move || {
                        for op in &batch {
                            apply(&db, op);
                        }
                    })
                };
                let dumper = {
                    let snap = snap.clone();
                    s.spawn(move || {
                        let mut dumps = Vec::new();
                        for _ in 0..8 {
                            dumps.push(snap.dump().unwrap());
                            thread::yield_now();
                        }
                        dumps
                    })
                };
                // Another thread pins a snapshot mid-batch and dumps it; the
                // same dump after the batch must not have moved.
                let pinner = {
                    let db = db.clone();
                    s.spawn(move || {
                        thread::yield_now();
                        let mid = db.begin_snapshot();
                        let dump = mid.dump().unwrap();
                        (mid, dump)
                    })
                };
                writer.join().unwrap();
                (dumper.join().unwrap(), pinner.join().unwrap())
            });

            for (i, dump) in during_dumps.iter().enumerate() {
                prop_assert_eq!(
                    dump, &before,
                    "dump {} taken during the concurrent batch diverged", i
                );
            }

            // After the batch the snapshot still answers identically, even
            // though the live database may have moved arbitrarily far.
            let after = snap.dump().unwrap();
            prop_assert_eq!(&after, &before, "post-batch dump diverged");
            prop_assert_eq!(
                mid.dump().unwrap(), mid_during,
                "a snapshot pinned mid-batch diverged after it"
            );
            prop_assert!(mid.timestamp() >= snap.timestamp());
            for (key, value) in &before {
                let got = snap.get(key).unwrap();
                prop_assert_eq!(
                    got.as_ref(),
                    Some(value),
                    "pinned point read of {} diverged", key
                );
            }

            // Sanity: the snapshot was genuinely pinned in the past — the
            // install fence advanced past it by exactly the concurrent batch.
            let fresh = db.begin_snapshot();
            if concurrent_batch.is_empty() {
                prop_assert_eq!(fresh.timestamp(), snap.timestamp());
            } else {
                prop_assert!(fresh.timestamp() > snap.timestamp());
            }
            db.verify().unwrap();
            db.verify_cache_coherence().unwrap();
        }
    }
}
