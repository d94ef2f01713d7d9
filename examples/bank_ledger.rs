//! Bank ledger: the paper's motivating financial-records scenario (§1,
//! Figure 1). A fixed set of accounts receives a long stream of balance
//! updates; the ledger must never forget a balance, auditors ask "what was
//! the balance of account X on date T?", and regulators take end-of-quarter
//! snapshots.
//!
//! The example replays the `bank_ledger` workload into a TSB-tree engine whose
//! time-preferring policy migrates superseded balances to the (cheap,
//! write-once) historical store, then answers the audit queries and reports
//! where the bytes ended up.
//!
//! Run with: `cargo run -p tsb-examples --example bank_ledger`

use tsb_core::{EngineHandle, Key, SplitPolicyKind, Timestamp, TsbConfig, TsbOptions};
use tsb_workload::{generate_ops, scenarios, Op, Oracle};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let accounts = 200u64;
    let transactions = 8_000usize;

    let cfg =
        TsbConfig::default()
            .with_page_size(2048)
            .with_split_policy(SplitPolicyKind::Threshold {
                key_split_live_fraction: 0.6,
            });
    let ledger = TsbOptions::in_memory().config(cfg).open()?;
    let mut oracle = Oracle::new();

    println!("replaying {transactions} transactions against {accounts} accounts...");
    let spec = scenarios::bank_ledger(accounts, transactions, 2026);
    let mut quarter_marks: Vec<Timestamp> = Vec::new();
    for (i, op) in generate_ops(&spec).into_iter().enumerate() {
        match op {
            Op::Put { key, value } => {
                let ts = ledger.insert(key.clone(), value.clone())?;
                oracle.put(key, ts, value);
            }
            Op::Delete { key } => {
                let ts = ledger.delete(key.clone())?;
                oracle.delete(key, ts);
            }
        }
        // Remember an "end of quarter" timestamp every 2000 transactions.
        if (i + 1) % 2000 == 0 {
            quarter_marks.push(ledger.now().prev());
        }
    }

    // --- audit: spot-check balances at each quarter end ------------------------
    println!("\nquarter-end audit (account 0..4):");
    for (q, ts) in quarter_marks.iter().enumerate() {
        print!("  Q{}  T={ts:<6}", q + 1);
        for account in 0..4u64 {
            let key = Key::from_u64(account);
            let ledger_view = ledger.get_as_of(&key, *ts)?;
            let oracle_view = oracle.get_as_of(&key, *ts);
            assert_eq!(
                ledger_view, oracle_view,
                "audit mismatch for account {account}"
            );
            print!(
                " acct{account}={}",
                ledger_view
                    .as_deref()
                    .map(|v| String::from_utf8_lossy(v).into_owned())
                    .unwrap_or_else(|| "-".into())
            );
        }
        println!();
    }

    // --- regulator snapshot: every account balance at the last quarter ---------
    let last_quarter = *quarter_marks.last().ok_or("no quarters recorded")?;
    let snapshot = ledger.snapshot_at(last_quarter)?;
    assert_eq!(snapshot, oracle.snapshot_at(last_quarter));
    println!(
        "\nsnapshot at T={last_quarter}: {} accounts, consistent with the oracle",
        snapshot.len()
    );

    // --- account statement: the full history of one busy account ---------------
    let busy = Key::from_u64(0);
    let statement = ledger.versions(&busy)?;
    println!("account 0 statement: {} balance changes", statement.len());
    assert_eq!(statement.len(), oracle.versions(&busy).len());

    // --- where did the bytes go? -------------------------------------------------
    let stats = ledger.tree_stats()?;
    println!("\nledger census:\n{stats}");
    println!(
        "\ncurrent store holds {} live balances; {} superseded versions were migrated to the write-once store",
        stats.live_versions,
        stats.version_copies - stats.live_versions
    );
    ledger.verify()?;
    Ok(())
}
