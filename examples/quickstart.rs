//! Quickstart: open a TSB-tree engine, write a small multiversion history,
//! and run every kind of temporal query the paper describes.
//!
//! Run with: `cargo run -p tsb-examples --example quickstart`

use tsb_core::{EngineHandle, Key, KeyRange, TsbConfig, TsbOptions};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // An engine over in-memory simulated devices: a magnetic-disk page store
    // for the current database and a write-once sector store for history.
    let db = TsbOptions::in_memory()
        .config(TsbConfig::default())
        .open()?;

    // --- write a little stepwise-constant history (Figure 1) --------------
    let t_open = db.insert(Key::from("acct-1001"), b"owner=Joe;balance=100".to_vec())?;
    db.insert(Key::from("acct-1002"), b"owner=Pete;balance=50".to_vec())?;
    let t_deposit = db.insert(Key::from("acct-1001"), b"owner=Joe;balance=250".to_vec())?;
    let t_close = db.delete(Key::from("acct-1002"))?;
    println!("wrote history: open@{t_open}, deposit@{t_deposit}, close@{t_close}");

    // --- current lookups ---------------------------------------------------
    let now_1001 = db
        .get_current(&Key::from("acct-1001"))?
        .ok_or("acct-1001 missing from the current store")?;
    println!(
        "acct-1001 now:           {}",
        String::from_utf8_lossy(&now_1001)
    );
    assert!(db.get_current(&Key::from("acct-1002"))?.is_none());
    println!("acct-1002 now:           <deleted>");

    // --- as-of lookups (rollback database) ----------------------------------
    let at_open = db
        .get_as_of(&Key::from("acct-1001"), t_open)?
        .ok_or("acct-1001 invisible at its own open time")?;
    println!(
        "acct-1001 as of T={t_open}:    {}",
        String::from_utf8_lossy(&at_open)
    );
    let before_close = db
        .get_as_of(&Key::from("acct-1002"), t_close.prev())?
        .ok_or("acct-1002 invisible just before its close")?;
    println!(
        "acct-1002 just before close: {}",
        String::from_utf8_lossy(&before_close)
    );

    // --- snapshots and range scans ------------------------------------------
    let snapshot = db.snapshot_at(t_deposit)?;
    println!("snapshot at T={t_deposit}: {} records", snapshot.len());
    let range = KeyRange::bounded(Key::from("acct-1000"), Key::from("acct-1999"));
    let current_accounts = db.scan_current(&range)?;
    println!("live accounts in range:  {}", current_accounts.len());

    // --- full version history ------------------------------------------------
    for version in db.versions(&Key::from("acct-1001"))? {
        println!(
            "acct-1001 history: {} -> {}",
            version
                .commit_time()
                .ok_or("uncommitted version in history")?,
            version
                .value
                .as_deref()
                .map(String::from_utf8_lossy)
                .unwrap_or_else(|| "<tombstone>".into())
        );
    }

    // --- transactions ---------------------------------------------------------
    let txn = db.begin_txn()?;
    db.txn_insert(
        txn,
        Key::from("acct-1003"),
        b"owner=Sue;balance=10".to_vec(),
    )?;
    // Uncommitted data is invisible to readers and erasable on abort.
    assert!(db.get_current(&Key::from("acct-1003"))?.is_none());
    let commit_ts = db.commit_txn(txn)?;
    println!("acct-1003 committed at T={commit_ts}");

    // --- structure and space ---------------------------------------------------
    let stats = db.tree_stats()?;
    println!("\ntree census:\n{stats}");
    db.verify()?;
    println!("structural invariants verified");
    Ok(())
}
