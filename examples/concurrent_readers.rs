//! Shared-tree reads under a single-writer pipeline, on persistent stores.
//!
//! The paper's operating model (§1, §4.1): the historical database is
//! immutable once written, so as-of queries and backups can be served to
//! any number of readers while the current database keeps absorbing
//! updates. This example opens a durable two-shard engine in a directory:
//! four reader threads continuously answer snapshot-pinned as-of lookups
//! and dumps while one writer commits a burst of account updates; then the
//! engine is checkpointed, dropped, and reopened — recovery runs over the
//! directory's redo log — to show that every version survived.
//!
//! Run with: `cargo run -p tsb-examples --example concurrent_readers`

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use tsb_core::{EngineHandle, FsyncPolicy, Key, KeyRange, TsbConfig, TsbOptions};

const ACCOUNTS: u64 = 64;
const UPDATES: u64 = 4_000;
const SHARDS: usize = 2;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join(format!("tsb-concurrent-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // `Os` leaves syncing to the operating system, so the burst stays
    // fast; the checkpoint below forces everything down before the reopen.
    let options = TsbOptions::durable(&dir)
        .config(TsbConfig::small_pages())
        .fsync(FsyncPolicy::Os)
        .shards(SHARDS);

    // ----- phase 1: concurrent traffic ------------------------------------
    let db = options.clone().open()?;
    for account in 0..ACCOUNTS {
        db.insert(Key::from_u64(account), b"balance=0".to_vec())?;
    }

    let stop = AtomicBool::new(false);
    let reads = AtomicU64::new(0);
    // Worker closures return `TsbResult` instead of unwrapping, so an
    // engine error inside a thread surfaces through `join` as the error
    // message the README promises, not a panic-induced abort.
    std::thread::scope(|s| -> tsb_core::TsbResult<()> {
        let writer = {
            let db = db.clone();
            s.spawn(move || -> tsb_core::TsbResult<()> {
                for i in 0..UPDATES {
                    let account = i % ACCOUNTS;
                    db.insert(
                        Key::from_u64(account),
                        format!("balance={}", i * 10).into_bytes(),
                    )?;
                }
                Ok(())
            })
        };
        let mut readers = Vec::new();
        for r in 0..4u64 {
            let db = db.clone();
            let stop = &stop;
            let reads = &reads;
            readers.push(s.spawn(move || -> tsb_core::TsbResult<()> {
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    // Fence-pinned reads: always a fully-installed state.
                    let snap = db.begin_snapshot();
                    let account = Key::from_u64((r * 17 + i) % ACCOUNTS);
                    let balance = snap.get(&account)?;
                    assert!(balance.is_some(), "seeded account vanished");
                    if i.is_multiple_of(64) {
                        let rows = snap.dump()?;
                        assert_eq!(rows.len(), ACCOUNTS as usize);
                    }
                    reads.fetch_add(1, Ordering::Relaxed);
                    i += 1;
                }
                Ok(())
            }));
        }
        let written = writer.join().expect("writer thread panicked");
        stop.store(true, Ordering::Relaxed);
        written?;
        for reader in readers {
            reader.join().expect("reader thread panicked")?;
        }
        Ok(())
    })?;

    db.verify()?;
    db.verify_cache_coherence()?;
    println!(
        "phase 1: {} updates committed, {} concurrent reads served, fence at T={}",
        UPDATES,
        reads.load(Ordering::Relaxed),
        db.last_installed()
    );

    // ----- phase 2: checkpoint, drop, reopen ------------------------------
    db.checkpoint()?;
    let final_state = db.begin_snapshot().dump()?;
    drop(db);

    let reopened = options.open()?;
    reopened.verify()?;
    let recovered = reopened.scan_current(&KeyRange::full())?;
    assert_eq!(recovered, final_state, "reopened state diverged");
    // Deep history survived on the WORM store too: the oldest version of
    // account 0 is still its seed value.
    let first = reopened
        .versions(&Key::from_u64(0))?
        .into_iter()
        .next()
        .ok_or("account 0 lost its history across reopen")?;
    assert_eq!(first.value.as_deref(), Some(b"balance=0".as_ref()));
    println!(
        "phase 2: recovered {} over {} shards — {} accounts, history intact",
        dir.display(),
        reopened.shard_count(),
        recovered.len()
    );

    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
