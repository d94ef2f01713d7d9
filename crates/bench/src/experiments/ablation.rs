//! E9 (ablation): the two secondary design knobs DESIGN.md calls out.
//!
//! * **Recalcitrant-child marking** (§3.5's closing optimization): when a
//!   local index time split is blocked by a current child that still holds
//!   old data (Figure 9), the TSB-tree can mark that child so it prefers a
//!   time split at its next opportunity. The ablation runs the same workload
//!   with the optimization on and off and reports how much more history
//!   migrates (and what it costs in redundancy).
//! * **Split fill threshold**: splitting before a node is completely full
//!   trades space utilization for fewer entry moves. The paper assumes
//!   split-on-overflow; the ablation quantifies the effect of earlier
//!   splits.

use tsb_common::{SplitPolicyKind, SplitTimeChoice};
use tsb_workload::generate_ops;

use crate::measure::{default_workload, experiment_config, load_engine, Scale};
use crate::report::{kib, ratio, Table};

/// Runs both ablations.
pub fn run(scale: Scale) -> Vec<Table> {
    let spec = default_workload(scale);
    let ops = generate_ops(&spec);
    let note = format!(
        "{} operations over {} keys, update:insert = 4:1; threshold 2/3 policy, split time = last update",
        spec.num_ops, spec.num_keys
    );

    // --- marking ablation ---------------------------------------------------
    let mut marking = Table::new(
        "E9a: ablation — recalcitrant-child marking (§3.5 optimization)",
        note.clone(),
        &[
            "marking",
            "magnetic KiB",
            "worm KiB",
            "historical index nodes",
            "redundancy",
        ],
    );
    for (label, enabled) in [("enabled", true), ("disabled", false)] {
        let mut cfg = experiment_config(
            SplitPolicyKind::Threshold {
                key_split_live_fraction: 2.0 / 3.0,
            },
            SplitTimeChoice::LastUpdate,
        );
        cfg.mark_recalcitrant_children = enabled;
        let (tree, _) = load_engine(cfg, &ops);
        let stats = tree.tree_stats().expect("stats");
        marking.push_row(vec![
            label.to_string(),
            kib(stats.space.magnetic_bytes),
            kib(stats.space.worm_bytes),
            stats.historical_index_nodes.to_string(),
            ratio(stats.redundancy_ratio()),
        ]);
    }

    // --- fill-threshold ablation ---------------------------------------------
    let mut fill = Table::new(
        "E9b: ablation — split fill threshold",
        note,
        &[
            "fill threshold",
            "magnetic KiB",
            "worm KiB",
            "current data nodes",
            "redundancy",
        ],
    );
    for threshold in [1.0f64, 0.85, 0.7] {
        let mut cfg = experiment_config(
            SplitPolicyKind::Threshold {
                key_split_live_fraction: 2.0 / 3.0,
            },
            SplitTimeChoice::LastUpdate,
        );
        cfg.split_fill_threshold = threshold;
        let (tree, _) = load_engine(cfg, &ops);
        let stats = tree.tree_stats().expect("stats");
        fill.push_row(vec![
            format!("{threshold:.2}"),
            kib(stats.space.magnetic_bytes),
            kib(stats.space.worm_bytes),
            stats.current_data_nodes.to_string(),
            ratio(stats.redundancy_ratio()),
        ]);
    }

    vec![marking, fill]
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsb_core::EngineHandle;

    #[test]
    fn ablation_runs_and_lower_fill_threshold_uses_more_current_nodes() {
        let spec = default_workload(Scale::Tiny);
        let ops = generate_ops(&spec);
        let policy = SplitPolicyKind::Threshold {
            key_split_live_fraction: 2.0 / 3.0,
        };
        let mut tight = experiment_config(policy, SplitTimeChoice::LastUpdate);
        tight.split_fill_threshold = 1.0;
        let mut eager = experiment_config(policy, SplitTimeChoice::LastUpdate);
        eager.split_fill_threshold = 0.7;
        let (tight_tree, _) = load_engine(tight, &ops);
        let (eager_tree, _) = load_engine(eager, &ops);
        tight_tree.verify().unwrap();
        eager_tree.verify().unwrap();
        let tight_nodes = tight_tree.tree_stats().unwrap().current_data_nodes;
        let eager_nodes = eager_tree.tree_stats().unwrap().current_data_nodes;
        assert!(
            eager_nodes >= tight_nodes,
            "splitting earlier ({eager_nodes} nodes) cannot use fewer nodes than splitting on overflow ({tight_nodes})"
        );

        // Both marking settings verify and produce tables.
        let tables = run(Scale::Tiny);
        assert_eq!(tables.len(), 2);
        assert_eq!(tables[0].rows.len(), 2);
        assert_eq!(tables[1].rows.len(), 3);
    }
}
