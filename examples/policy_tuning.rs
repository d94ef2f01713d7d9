//! Policy tuning: run the same update-heavy workload under every splitting
//! policy and split-time choice, and print the trade-off the paper describes
//! in §3.2/§3.3 — time splits minimize the (expensive, erasable) current
//! store at the price of redundancy; key splits minimize total space and
//! redundancy at the price of a larger current store; the cost-based policy
//! follows whichever device is cheaper.
//!
//! Run with: `cargo run -p tsb-examples --example policy_tuning`

use tsb_core::{EngineHandle, SplitPolicyKind, SplitTimeChoice, TsbConfig, TsbOptions};
use tsb_workload::{generate_ops, Op, WorkloadSpec};

fn run(
    policy: SplitPolicyKind,
    choice: SplitTimeChoice,
    ops: &[Op],
) -> tsb_core::TsbResult<tsb_core::TreeStats> {
    let mut cfg = TsbConfig::default()
        .with_page_size(1024)
        .with_worm_sector_size(512)
        .with_split_policy(policy)
        .with_split_time_choice(choice);
    cfg.max_key_len = 64;
    let tree = TsbOptions::in_memory().config(cfg).open()?;
    for op in ops {
        match op {
            Op::Put { key, value } => {
                tree.insert(key.clone(), value.clone())?;
            }
            Op::Delete { key } => {
                tree.delete(key.clone())?;
            }
        }
    }
    tree.verify()?;
    tree.tree_stats()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = WorkloadSpec::default()
        .with_ops(6_000)
        .with_keys(300)
        .with_update_ratio(4.0) // 4 updates per insert
        .with_value_size(64);
    let ops = generate_ops(&spec);
    println!(
        "workload: {} operations over {} keys, update:insert = 4:1\n",
        spec.num_ops, spec.num_keys
    );

    println!(
        "{:<28} {:>12} {:>12} {:>12} {:>12} {:>10}",
        "policy", "magnetic KB", "worm KB", "total KB", "redundancy", "cost CS"
    );
    let policies: Vec<(String, SplitPolicyKind, SplitTimeChoice)> = vec![
        (
            "wobt-like (time@now)".into(),
            SplitPolicyKind::WobtLike,
            SplitTimeChoice::CurrentTime,
        ),
        (
            "time-preferring/now".into(),
            SplitPolicyKind::TimePreferring,
            SplitTimeChoice::CurrentTime,
        ),
        (
            "time-preferring/last-update".into(),
            SplitPolicyKind::TimePreferring,
            SplitTimeChoice::LastUpdate,
        ),
        (
            "time-preferring/median".into(),
            SplitPolicyKind::TimePreferring,
            SplitTimeChoice::MedianVersion,
        ),
        (
            "threshold 2/3".into(),
            SplitPolicyKind::default(),
            SplitTimeChoice::LastUpdate,
        ),
        (
            "cost-based".into(),
            SplitPolicyKind::CostBased,
            SplitTimeChoice::LastUpdate,
        ),
        (
            "key-preferring".into(),
            SplitPolicyKind::KeyPreferring,
            SplitTimeChoice::LastUpdate,
        ),
        (
            "key-only (naive B+-tree)".into(),
            SplitPolicyKind::KeyOnly,
            SplitTimeChoice::LastUpdate,
        ),
    ];

    for (label, policy, choice) in policies {
        let stats = run(policy, choice, &ops)?;
        println!(
            "{:<28} {:>12.1} {:>12.1} {:>12.1} {:>12.3} {:>10.0}",
            label,
            stats.space.magnetic_bytes as f64 / 1024.0,
            stats.space.worm_bytes as f64 / 1024.0,
            stats.space.total_bytes() as f64 / 1024.0,
            stats.redundancy_ratio(),
            stats.storage_cost,
        );
    }

    println!(
        "\nreading the table: time splits shrink the magnetic column and grow the worm and \
         redundancy columns; key splits do the opposite; choosing the split time at the last \
         update (instead of 'now') cuts redundancy versus the WOBT-like policy."
    );
    Ok(())
}
