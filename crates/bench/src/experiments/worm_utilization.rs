//! E7: WORM sector utilization — the TSB-tree's consolidation-then-append
//! migration (§3.4) versus the WOBT's one-new-entry-per-sector writes (§2.1),
//! which is the space problem the paper opens with (§1).

use tsb_common::{SplitPolicyKind, SplitTimeChoice};
use tsb_workload::generate_ops;

use crate::measure::{default_workload, measure_tsb, measure_wobt, Scale};
use crate::report::{kib, Table};

/// Runs the utilization comparison across value sizes (small records waste
/// the most WORM space under the WOBT).
pub fn run(scale: Scale) -> Vec<Table> {
    let note = format!(
        "{} operations over {} keys, update:insert = 4:1; 1 KiB WORM sectors",
        scale.ops(),
        scale.keys()
    );
    let mut table = Table::new(
        "E7: WORM sector utilization — consolidation vs. one entry per sector",
        note,
        &[
            "record size",
            "structure",
            "worm KiB",
            "payload KiB",
            "utilization",
        ],
    );
    for &value_size in &[32usize, 100, 400] {
        let mut spec = default_workload(scale);
        spec.value_size = (value_size, value_size);
        let ops = generate_ops(&spec);

        let (_, _, tsb) = measure_tsb(
            "tsb",
            SplitPolicyKind::TimePreferring,
            SplitTimeChoice::LastUpdate,
            &ops,
        );
        let (_w, wobt) = measure_wobt("wobt", &ops);

        let tsb_stats = tsb.tree_stats.as_ref().expect("tsb stats");
        table.push_row(vec![
            format!("{value_size} B"),
            "TSB-tree (historical store)".into(),
            kib(tsb.worm_bytes),
            kib(tsb_stats.space.worm_payload_bytes),
            tsb.worm_utilization
                .map(|u| format!("{:.2}", u))
                .unwrap_or_else(|| "-".into()),
        ]);
        let wobt_stats = wobt.wobt_stats.as_ref().expect("wobt stats");
        table.push_row(vec![
            format!("{value_size} B"),
            "WOBT (whole database)".into(),
            kib(wobt.worm_bytes),
            kib(wobt_stats.payload_bytes),
            format!("{:.2}", wobt_stats.utilization()),
        ]);
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consolidated_migration_beats_single_entry_sectors_for_small_records() {
        let mut spec = default_workload(Scale::Tiny);
        spec.value_size = (32, 32);
        let ops = generate_ops(&spec);
        let (_, _, tsb) = measure_tsb(
            "tsb",
            SplitPolicyKind::TimePreferring,
            SplitTimeChoice::LastUpdate,
            &ops,
        );
        let (_w, wobt) = measure_wobt("wobt", &ops);
        let tsb_util = tsb.worm_utilization.unwrap_or(1.0);
        let wobt_util = wobt.worm_utilization.unwrap();
        assert!(
            tsb_util > wobt_util,
            "TSB {tsb_util:.3} must beat WOBT {wobt_util:.3} for 32-byte records"
        );
    }
}
