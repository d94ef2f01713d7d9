//! Executable reproductions of the paper's structural figures (F1–F9 in
//! DESIGN.md). The paper has no measured tables; its figures illustrate how
//! the structures behave on tiny scripted histories, and these tests pin
//! that behaviour through the engine and the WOBT baseline. Figures 5–9,
//! which split single nodes by hand, are `tsb-core`'s `split::tests`.

use tsb_common::{Key, SplitPolicyKind, SplitTimeChoice, Timestamp, TsbConfig};
use tsb_core::EngineHandle;
use tsb_wobt::{Wobt, WobtConfig};

/// Figure 1: stepwise-constant data. "To find the balance of an account at a
/// given time T, we look at the last entry made before T."
#[test]
fn figure1_stepwise_constant_account_balance() {
    let tree = tsb_core::TsbOptions::in_memory()
        .config(TsbConfig::default())
        .open()
        .unwrap();
    let key = Key::from("account");
    // Nine other accounts' entries precede each of this account's.
    let entry = |value: &[u8]| {
        for other in 0..9u64 {
            tree.insert(Key::from_u64(other), b"0".to_vec()).unwrap();
        }
        tree.insert(key.clone(), value.to_vec()).unwrap()
    };
    let t100 = entry(b"100");
    let t250 = entry(b"250");
    let t80 = entry(b"80");
    assert_eq!(
        (t100, t250, t80),
        (Timestamp(10), Timestamp(20), Timestamp(30))
    );

    assert_eq!(tree.get_as_of(&key, t100.prev()).unwrap(), None);
    for t in t100.value()..t250.value() {
        assert_eq!(tree.get_as_of(&key, Timestamp(t)).unwrap().unwrap(), b"100");
    }
    for t in t250.value()..t80.value() {
        assert_eq!(tree.get_as_of(&key, Timestamp(t)).unwrap().unwrap(), b"250");
    }
    assert_eq!(tree.get_as_of(&key, Timestamp(99)).unwrap().unwrap(), b"80");
}

/// Figures 3 and 4: WOBT splits. A full WOBT node splits by key value and
/// current time (two new nodes holding only current versions, the old node
/// remains) or, when few current versions remain, by current time only (one
/// new node). In both cases the reorganization duplicates current data and
/// every incremental insert burns a whole sector.
#[test]
fn figures3_and_4_wobt_splits_duplicate_current_data() {
    // Key+time split: distinct keys force two (or more) new nodes.
    let mut wobt = Wobt::new_in_memory(WobtConfig::small()).unwrap();
    for i in 0..40u64 {
        wobt.insert(i, format!("record-{i}").into_bytes()).unwrap();
    }
    let stats = wobt.stats().unwrap();
    assert!(
        stats.data_nodes > 1,
        "key+time splits created new data nodes"
    );
    assert!(
        stats.redundant_copies > 0,
        "current versions were copied into the new nodes while the old nodes remain"
    );

    // Pure time split: repeated updates of few keys leave few current
    // versions, so splits copy only those and redundancy per split is small,
    // but the old versions still occupy their original sectors.
    let mut wobt = Wobt::new_in_memory(WobtConfig::small()).unwrap();
    for round in 0..40u64 {
        wobt.insert(7u64, format!("round-{round}").into_bytes())
            .unwrap();
    }
    let stats = wobt.stats().unwrap();
    assert_eq!(stats.distinct_versions, 40);
    assert!(stats.data_nodes > 1);
    // Every version remains readable as of its time.
    assert_eq!(
        wobt.get_as_of(&Key::from_u64(7), Timestamp(1))
            .unwrap()
            .unwrap(),
        b"round-0".to_vec()
    );
}

/// End-to-end check of the WOBT-vs-TSB contrast the figures build up to:
/// the same update-heavy history costs the WOBT far more WORM space than the
/// TSB-tree, whose consolidation before migration keeps sector utilization
/// high (§1, §2.6, §3.4).
#[test]
fn consolidation_beats_one_entry_per_sector() {
    let tree = tsb_core::TsbOptions::in_memory()
        .config(
            TsbConfig::small_pages()
                .with_split_policy(SplitPolicyKind::TimePreferring)
                .with_split_time_choice(SplitTimeChoice::CurrentTime),
        )
        .open()
        .unwrap();
    let mut wobt = Wobt::new_in_memory(WobtConfig {
        sector_size: 64,
        node_sectors: 4,
        max_key_len: 16,
    })
    .unwrap();
    for i in 0..400u64 {
        let key = i % 20;
        let value = format!("v{i}").into_bytes();
        tree.insert(Key::from_u64(key), value.clone()).unwrap();
        wobt.insert(key, value).unwrap();
    }
    let tsb_util = tree
        .tree_stats()
        .unwrap()
        .space
        .worm_utilization()
        .unwrap_or(1.0);
    let wobt_util = wobt.stats().unwrap().utilization();
    assert!(
        tsb_util > wobt_util,
        "TSB consolidation ({tsb_util:.3}) must beat WOBT one-entry-per-sector ({wobt_util:.3})"
    );
    // And the WOBT's write-once-only operation created redundant copies of
    // current data at every reorganization (§2.6); the full space comparison
    // across policies is experiment E7/E8 in the bench harness.
    assert!(wobt.stats().unwrap().redundant_copies > 0);
}
