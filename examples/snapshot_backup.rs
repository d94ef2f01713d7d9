//! Lock-free backups with read-only transactions (§4.1).
//!
//! "A read-only transaction, e.g., one that does file backup, can run
//! without concurrency control ... it is given a timestamp when it is
//! initiated ... it will never have to wait for an updater." The example
//! starts a backup, keeps committing new transactions while the backup is
//! "running", and shows that the backup sees exactly the state as of its
//! start timestamp — including ignoring a transaction that was in flight
//! (uncommitted) when the backup began.
//!
//! Run with: `cargo run -p tsb-examples --example snapshot_backup`

use tsb_core::{EngineHandle, Key, TsbConfig, TsbOptions};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let store = TsbOptions::in_memory()
        .config(TsbConfig::default())
        .open()?;

    // Seed the database.
    for i in 0..500u64 {
        store.insert(
            Key::from_u64(i),
            format!("document {i}, revision 1").into_bytes(),
        )?;
    }

    // A writer transaction is in flight when the backup starts; its data must
    // not appear in the backup even after it commits later.
    let in_flight = store.begin_txn()?;
    store.txn_insert(in_flight, Key::from_u64(999), b"not yet committed".to_vec())?;

    // Start the backup: it is pinned to the current time and takes no locks.
    let snapshot = store.begin_snapshot();
    println!("backup started at T={}", snapshot.timestamp());

    // Meanwhile, normal traffic continues: revisions, new documents, deletes,
    // and the in-flight transaction commits.
    for i in 0..250u64 {
        store.insert(
            Key::from_u64(i),
            format!("document {i}, revision 2").into_bytes(),
        )?;
    }
    for i in 500..600u64 {
        store.insert(
            Key::from_u64(i),
            format!("document {i}, revision 1").into_bytes(),
        )?;
    }
    store.delete(Key::from_u64(42))?;
    let late_commit = store.commit_txn(in_flight)?;
    println!("concurrent activity finished (late commit at T={late_commit})");

    // Run the backup against the pinned timestamp.
    let backup = snapshot.dump()?;
    println!("backup contains {} documents", backup.len());

    // The backup is exactly the pre-activity state.
    assert_eq!(
        backup.len(),
        500,
        "new documents and late commits are excluded"
    );
    assert!(
        backup
            .iter()
            .all(|(_, v)| String::from_utf8_lossy(v).contains("revision 1")),
        "the backup never observes revision 2"
    );
    assert!(
        backup.iter().any(|(k, _)| k.as_u64() == Some(42)),
        "the document deleted after the backup started is still in the backup"
    );
    assert!(
        !backup.iter().any(|(k, _)| k.as_u64() == Some(999)),
        "data uncommitted at backup start is excluded even though it committed later"
    );

    // The live database, by contrast, reflects everything.
    let live = store.scan_current(&tsb_core::KeyRange::full())?;
    println!("live database contains {} documents", live.len());
    assert_eq!(live.len(), 600); // 500 - 1 deleted + 100 new + key 999

    // Restoring from the backup is just replaying it into a fresh engine.
    let restored = TsbOptions::in_memory()
        .config(TsbConfig::default())
        .open()?;
    for (key, value) in &backup {
        restored.insert(key.clone(), value.clone())?;
    }
    assert_eq!(
        restored.scan_current(&tsb_core::KeyRange::full())?.len(),
        backup.len()
    );
    println!(
        "restore into a fresh engine verified ({} documents)",
        backup.len()
    );

    store.verify()?;
    Ok(())
}
