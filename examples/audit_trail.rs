//! Audit trail: time-range queries over the key × time plane.
//!
//! Regulators rarely ask for a single balance; they ask "show me every
//! change to these accounts during this quarter" and "which accounts changed
//! at all since the last audit?". Because every TSB-tree node spans a key
//! range × time range rectangle, both questions are answered by descending
//! only into the nodes whose rectangles overlap the query rectangle —
//! regardless of whether those nodes now live on the magnetic or the
//! write-once store.
//!
//! Run with: `cargo run -p tsb-examples --example audit_trail`

use tsb_core::{EngineHandle, Key, KeyRange, SplitPolicyKind, TimeRange, TsbConfig, TsbOptions};
use tsb_workload::{generate_ops, scenarios, Op};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg =
        TsbConfig::default()
            .with_page_size(2048)
            .with_split_policy(SplitPolicyKind::Threshold {
                key_split_live_fraction: 0.6,
            });
    let ledger = TsbOptions::in_memory().config(cfg).open()?;

    // Replay a year of activity over 150 accounts, remembering the timestamp
    // at the end of each "quarter".
    let ops = generate_ops(&scenarios::bank_ledger(150, 6_000, 7));
    let mut quarter_ends = Vec::new();
    for (i, op) in ops.into_iter().enumerate() {
        match op {
            Op::Put { key, value } => {
                ledger.insert(key, value)?;
            }
            Op::Delete { key } => {
                ledger.delete(key)?;
            }
        }
        if (i + 1) % 1500 == 0 {
            quarter_ends.push(ledger.now().prev());
        }
    }
    println!("year replayed; quarter ends at T = {quarter_ends:?}\n");

    // --- Q3 audit over a block of accounts ------------------------------------
    let accounts = KeyRange::bounded(Key::from_u64(10), Key::from_u64(30));
    let q3 = TimeRange::bounded(quarter_ends[1].next(), quarter_ends[2].next());
    let q3_changes = ledger.scan_versions(&accounts, q3)?;
    println!(
        "Q3 audit: {} balance changes across accounts 10..30",
        q3_changes.len()
    );
    for v in q3_changes.iter().take(5) {
        println!(
            "  account {:>3}  T={:<6} {}",
            v.key,
            v.commit_time().ok_or("uncommitted version in audit")?,
            String::from_utf8_lossy(v.value.as_deref().unwrap_or(b"<deleted>"))
        );
    }
    if q3_changes.len() > 5 {
        println!("  ... and {} more", q3_changes.len() - 5);
    }

    // --- single-account statement for the same quarter --------------------------
    let account = Key::from_u64(12);
    let statement = ledger.history_between(&account, q3)?;
    println!(
        "\naccount 12 statement for Q3: {} changes (lifetime total {})",
        statement.len(),
        ledger.version_count(&account)?
    );

    // --- incremental audit: what changed since the last audit? -------------------
    let since_last_audit = TimeRange::from(quarter_ends[2].next());
    let changed = ledger.changed_keys_between(&KeyRange::full(), since_last_audit)?;
    println!(
        "\nincremental audit since Q3 close: {} of 150 accounts changed",
        changed.len()
    );

    // Cross-check one cell of the audit against point queries.
    if let Some(v) = q3_changes.first() {
        let ts = v.commit_time().ok_or("uncommitted version in audit")?;
        assert_eq!(ledger.get_as_of(&v.key, ts)?, v.value);
    }
    ledger.verify()?;
    println!("\nstructure verified; audit complete");
    Ok(())
}
