//! Cross-crate tests for the rectangle (key × time) query surface and for
//! keeping a secondary index (§3.6) consistent with its primary tree under a
//! realistic workload.

use std::collections::BTreeSet;

use tsb_common::{Key, KeyRange, SplitPolicyKind, TimeRange, Timestamp, TsbConfig};
use tsb_core::{EngineHandle, SecondaryIndex};
use tsb_workload::{generate_ops, Op, Oracle, WorkloadSpec};

fn cfg(policy: SplitPolicyKind) -> TsbConfig {
    TsbConfig::small_pages().with_split_policy(policy)
}

/// Oracle-side equivalent of `scan_versions`: every `(key, ts, value)` whose
/// key is in `keys` and whose commit time is in `window`.
fn oracle_versions_in(
    oracle: &Oracle,
    keys: &KeyRange,
    window: &TimeRange,
) -> Vec<(Key, Timestamp)> {
    let mut out = Vec::new();
    for key in oracle.keys() {
        if !keys.contains(key) {
            continue;
        }
        for (ts, _) in oracle.versions(key) {
            if window.contains(ts) {
                out.push((key.clone(), ts));
            }
        }
    }
    out.sort();
    out
}

#[test]
fn rectangle_queries_match_the_oracle_under_every_policy() {
    let spec = WorkloadSpec::default()
        .with_ops(900)
        .with_keys(90)
        .with_update_ratio(4.0)
        .with_value_size(24);
    let ops = generate_ops(&spec);

    for policy in [
        SplitPolicyKind::TimePreferring,
        SplitPolicyKind::KeyPreferring,
        SplitPolicyKind::Threshold {
            key_split_live_fraction: 0.6,
        },
    ] {
        let tree = tsb_core::TsbOptions::in_memory()
            .config(cfg(policy))
            .open()
            .unwrap();
        let mut oracle = Oracle::new();
        for op in &ops {
            match op {
                Op::Put { key, value } => {
                    let ts = tree.insert(key.clone(), value.clone()).unwrap();
                    oracle.put(key.clone(), ts, value.clone());
                }
                Op::Delete { key } => {
                    let ts = tree.delete(key.clone()).unwrap();
                    oracle.delete(key.clone(), ts);
                }
            }
        }
        tree.verify().unwrap();

        let times = oracle.all_timestamps();
        let quarter = times[times.len() / 4];
        let three_quarters = times[3 * times.len() / 4];
        let windows = [
            TimeRange::bounded(quarter, three_quarters),
            TimeRange::from(three_quarters),
            TimeRange::bounded(Timestamp(1), quarter),
        ];
        let ranges = [
            KeyRange::full(),
            KeyRange::bounded(Key::from_u64(10), Key::from_u64(40)),
        ];
        for window in &windows {
            for range in &ranges {
                let got: Vec<(Key, Timestamp)> = tree
                    .scan_versions(range, *window)
                    .unwrap()
                    .into_iter()
                    .map(|v| (v.key.clone(), v.commit_time().unwrap()))
                    .collect();
                let expected = oracle_versions_in(&oracle, range, window);
                assert_eq!(got, expected, "{policy:?}, window {window}, range {range}");
            }
        }

        // history_between agrees with the filtered full history for a sample
        // of keys.
        for key in oracle.keys().take(10) {
            let window = TimeRange::bounded(quarter, three_quarters);
            let got: Vec<Timestamp> = tree
                .history_between(key, window)
                .unwrap()
                .iter()
                .map(|v| v.commit_time().unwrap())
                .collect();
            let expected: Vec<Timestamp> = oracle
                .versions(key)
                .into_iter()
                .map(|(t, _)| t)
                .filter(|t| window.contains(*t))
                .collect();
            assert_eq!(got, expected, "history_between for {key}");
        }

        // changed_keys_between equals the distinct keys of the oracle's
        // versions in the window.
        let window = TimeRange::from(three_quarters);
        let got: BTreeSet<Key> = tree
            .changed_keys_between(&KeyRange::full(), window)
            .unwrap()
            .into_iter()
            .collect();
        let expected: BTreeSet<Key> = oracle_versions_in(&oracle, &KeyRange::full(), &window)
            .into_iter()
            .map(|(k, _)| k)
            .collect();
        assert_eq!(got, expected);
    }
}

#[test]
fn secondary_index_stays_consistent_with_its_primary_under_churn() {
    // Employees (primary) carry a department (secondary attribute). Every
    // primary change is mirrored into the secondary index with the same
    // timestamp, as §3.6 prescribes. At any past time, grouping the primary
    // snapshot by department must equal the secondary index's answer.
    let people = tsb_core::TsbOptions::in_memory()
        .config(cfg(SplitPolicyKind::default()))
        .open()
        .unwrap();
    let mut by_dept = SecondaryIndex::new_in_memory(cfg(SplitPolicyKind::TimePreferring)).unwrap();
    let depts = ["eng", "sales", "ops", "hr"];
    let dept_of = |employee: u64, generation: u64| depts[((employee + generation) % 4) as usize];

    let mut checkpoints: Vec<Timestamp> = Vec::new();
    let mut generation_of: Vec<u64> = vec![0; 120];
    // Hire everyone.
    for emp in 0..120u64 {
        let dept = dept_of(emp, 0);
        let ts = people
            .insert(Key::from_u64(emp), format!("dept={dept}").into_bytes())
            .unwrap();
        by_dept
            .insert_entry(&Key::from(dept), &Key::from_u64(emp), ts)
            .unwrap();
    }
    checkpoints.push(people.now().prev());
    // Three waves of transfers.
    for wave in 1..=3u64 {
        for emp in (0..120u64).filter(|e| e % (wave + 1) == 0) {
            let old_gen = generation_of[emp as usize];
            let old_dept = dept_of(emp, old_gen);
            let new_gen = old_gen + 1;
            let new_dept = dept_of(emp, new_gen);
            let ts = people
                .insert(Key::from_u64(emp), format!("dept={new_dept}").into_bytes())
                .unwrap();
            by_dept
                .record_change(
                    Some(&Key::from(old_dept)),
                    Some(&Key::from(new_dept)),
                    &Key::from_u64(emp),
                    ts,
                )
                .unwrap();
            generation_of[emp as usize] = new_gen;
        }
        checkpoints.push(people.now().prev());
    }
    people.verify().unwrap();
    by_dept.verify().unwrap();

    // At every checkpoint, the secondary index agrees with a group-by over
    // the primary snapshot.
    for ts in checkpoints {
        let snapshot = people.snapshot_at(ts).unwrap();
        for dept in depts {
            let expected: BTreeSet<Key> = snapshot
                .iter()
                .filter(|(_, v)| v == format!("dept={dept}").as_bytes())
                .map(|(k, _)| k.clone())
                .collect();
            let got: BTreeSet<Key> = by_dept
                .primaries_as_of(&Key::from(dept), ts)
                .unwrap()
                .into_iter()
                .collect();
            assert_eq!(got, expected, "dept {dept} at {ts}");
            assert_eq!(
                by_dept.count_as_of(&Key::from(dept), ts).unwrap(),
                expected.len()
            );
        }
    }
}
