//! Cross-crate equivalence tests: the TSB-tree (under every splitting
//! policy) and the WOBT baseline must answer every temporal query exactly
//! like the in-memory oracle, for a variety of workload shapes.

use tsb_common::{SplitPolicyKind, SplitTimeChoice, TsbConfig};
use tsb_core::EngineHandle;
use tsb_integration::{
    assert_tree_matches_oracle, assert_wobt_matches_oracle, replay, replay_into_wobt,
};
use tsb_wobt::{Wobt, WobtConfig};
use tsb_workload::{generate_ops, scenarios, KeyDistribution, Oracle, WorkloadSpec};

fn small_cfg(policy: SplitPolicyKind, choice: SplitTimeChoice) -> TsbConfig {
    TsbConfig::small_pages()
        .with_split_policy(policy)
        .with_split_time_choice(choice)
}

fn check_policy(policy: SplitPolicyKind, choice: SplitTimeChoice, spec: &WorkloadSpec) {
    let ops = generate_ops(spec);
    let tree = tsb_core::TsbOptions::in_memory()
        .config(small_cfg(policy, choice))
        .open()
        .unwrap();
    let mut oracle = Oracle::new();
    let log = replay(&tree, &mut oracle, &ops);
    tree.verify()
        .unwrap_or_else(|e| panic!("{policy:?}/{choice:?}: {e}"));
    assert_tree_matches_oracle(&tree, &oracle, &log);
}

#[test]
fn every_policy_matches_the_oracle_on_a_mixed_workload() {
    let spec = WorkloadSpec::default()
        .with_ops(1_200)
        .with_keys(120)
        .with_update_ratio(3.0)
        .with_value_size(24);
    for policy in [
        SplitPolicyKind::WobtLike,
        SplitPolicyKind::TimePreferring,
        SplitPolicyKind::KeyPreferring,
        SplitPolicyKind::KeyOnly,
        SplitPolicyKind::CostBased,
        SplitPolicyKind::Threshold {
            key_split_live_fraction: 0.6,
        },
    ] {
        check_policy(policy, SplitTimeChoice::LastUpdate, &spec);
    }
}

#[test]
fn every_split_time_choice_matches_the_oracle() {
    let spec = WorkloadSpec::default()
        .with_ops(1_000)
        .with_keys(80)
        .with_update_ratio(6.0)
        .with_value_size(20);
    for choice in [
        SplitTimeChoice::CurrentTime,
        SplitTimeChoice::LastUpdate,
        SplitTimeChoice::MedianVersion,
    ] {
        check_policy(SplitPolicyKind::TimePreferring, choice, &spec);
    }
}

#[test]
fn insert_only_and_delete_heavy_workloads_match_the_oracle() {
    // Insert-only: the boundary condition where only key splits make sense.
    let insert_only = WorkloadSpec::default()
        .with_ops(900)
        .with_keys(900)
        .with_update_ratio(0.0)
        .with_value_size(16);
    check_policy(
        SplitPolicyKind::default(),
        SplitTimeChoice::LastUpdate,
        &insert_only,
    );

    // Delete-heavy: tombstones flow through splits and snapshots.
    let deletes = WorkloadSpec {
        delete_fraction: 0.2,
        ..WorkloadSpec::default()
            .with_ops(800)
            .with_keys(100)
            .with_update_ratio(2.0)
            .with_value_size(16)
    };
    check_policy(
        SplitPolicyKind::TimePreferring,
        SplitTimeChoice::LastUpdate,
        &deletes,
    );
}

#[test]
fn skewed_distributions_match_the_oracle() {
    for distribution in [
        KeyDistribution::Zipfian { theta: 0.9 },
        KeyDistribution::Hotspot {
            hot_fraction: 0.1,
            hot_probability: 0.9,
        },
        KeyDistribution::Sequential,
    ] {
        let spec = WorkloadSpec::default()
            .with_ops(800)
            .with_keys(60)
            .with_update_ratio(5.0)
            .with_value_size(20)
            .with_distribution(distribution);
        check_policy(
            SplitPolicyKind::default(),
            SplitTimeChoice::LastUpdate,
            &spec,
        );
    }
}

#[test]
fn named_scenarios_match_the_oracle() {
    // The named scenarios carry larger payloads (up to 400 bytes), so they
    // run against 1 KiB pages rather than the tiny test pages.
    for spec in [
        scenarios::bank_ledger(40, 800, 11),
        scenarios::personnel(150, 700, 12),
        scenarios::engineering_versions(10, 300, 13),
    ] {
        let mut cfg = TsbConfig::default()
            .with_page_size(1024)
            .with_worm_sector_size(256)
            .with_split_policy(SplitPolicyKind::default())
            .with_split_time_choice(SplitTimeChoice::LastUpdate);
        cfg.max_key_len = 64;
        let ops = generate_ops(&spec);
        let tree = tsb_core::TsbOptions::in_memory()
            .config(cfg)
            .open()
            .unwrap();
        let mut oracle = Oracle::new();
        let log = replay(&tree, &mut oracle, &ops);
        tree.verify().unwrap();
        assert_tree_matches_oracle(&tree, &oracle, &log);
    }
}

#[test]
fn wobt_baseline_matches_the_oracle_on_the_same_history() {
    let spec = WorkloadSpec::default()
        .with_ops(800)
        .with_keys(80)
        .with_update_ratio(4.0)
        .with_value_size(20);
    let ops = generate_ops(&spec);

    let tree = tsb_core::TsbOptions::in_memory()
        .config(small_cfg(
            SplitPolicyKind::default(),
            SplitTimeChoice::LastUpdate,
        ))
        .open()
        .unwrap();
    let mut oracle = Oracle::new();
    let log = replay(&tree, &mut oracle, &ops);

    let mut wobt = Wobt::new_in_memory(WobtConfig::small()).unwrap();
    replay_into_wobt(&mut wobt, &log);

    assert_tree_matches_oracle(&tree, &oracle, &log);
    assert_wobt_matches_oracle(&wobt, &oracle, &log);

    // Both structures also agree with each other on snapshots at recorded times.
    let times = oracle.all_timestamps();
    let mid = times[times.len() / 2];
    assert_eq!(
        tree.snapshot_at(mid).unwrap(),
        wobt.snapshot_at(mid).unwrap()
    );
    assert_eq!(
        tree.snapshot_at(tsb_common::Timestamp::MAX).unwrap(),
        wobt.snapshot_at(tsb_common::Timestamp::MAX).unwrap()
    );
}

#[test]
fn larger_pages_and_default_config_also_match() {
    // The default (4 KiB pages) configuration on a bigger workload.
    let spec = WorkloadSpec::default()
        .with_ops(3_000)
        .with_keys(300)
        .with_update_ratio(4.0)
        .with_value_size(100);
    let ops = generate_ops(&spec);
    let tree = tsb_core::TsbOptions::in_memory()
        .config(TsbConfig::default())
        .open()
        .unwrap();
    let mut oracle = Oracle::new();
    let log = replay(&tree, &mut oracle, &ops);
    tree.verify().unwrap();
    assert_tree_matches_oracle(&tree, &oracle, &log);
    let stats = tree.tree_stats().unwrap();
    assert_eq!(stats.distinct_versions, 3_000);
}
