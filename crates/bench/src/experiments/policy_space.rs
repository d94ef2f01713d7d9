//! E1–E3: the paper's §5 evaluation — total space, current-database space,
//! and redundancy, under different splitting policies (E1, E2) and different
//! split-time choices (E3, §3.3 / Figure 6).

use tsb_common::{SplitPolicyKind, SplitTimeChoice};
use tsb_workload::generate_ops;

use crate::measure::{default_workload, measure_tsb, measure_wobt, Measurement, Scale};
use crate::report::{kib, ratio, Table};

/// The policy set every space experiment compares.
pub fn policy_matrix() -> Vec<(&'static str, SplitPolicyKind, SplitTimeChoice)> {
    vec![
        (
            "wobt-like (time @ now)",
            SplitPolicyKind::WobtLike,
            SplitTimeChoice::CurrentTime,
        ),
        (
            "time-preferring",
            SplitPolicyKind::TimePreferring,
            SplitTimeChoice::LastUpdate,
        ),
        (
            "threshold 2/3",
            SplitPolicyKind::Threshold {
                key_split_live_fraction: 2.0 / 3.0,
            },
            SplitTimeChoice::LastUpdate,
        ),
        (
            "cost-based",
            SplitPolicyKind::CostBased,
            SplitTimeChoice::LastUpdate,
        ),
        (
            "key-preferring",
            SplitPolicyKind::KeyPreferring,
            SplitTimeChoice::LastUpdate,
        ),
        (
            "key-only (naive B+-tree)",
            SplitPolicyKind::KeyOnly,
            SplitTimeChoice::LastUpdate,
        ),
    ]
}

/// Runs the shared workload under every policy (plus the WOBT) and produces
/// the E1, E2, and E3 tables, in that order.
pub fn run(scale: Scale) -> Vec<Table> {
    let spec = default_workload(scale);
    let ops = generate_ops(&spec);
    let note = format!(
        "{} operations over {} keys, update:insert = 4:1, {}-byte values",
        spec.num_ops, spec.num_keys, spec.value_size.0
    );

    let mut measurements: Vec<Measurement> = Vec::new();
    for (label, policy, choice) in policy_matrix() {
        let (_, _, m) = measure_tsb(label, policy, choice, &ops);
        measurements.push(m);
    }
    let (_wobt, wobt_m) = measure_wobt("WOBT (all data on WORM)", &ops);
    measurements.push(wobt_m);

    // E1: total space.
    let mut e1 = Table::new(
        "E1: total space use by splitting policy (SpaceM + SpaceO)",
        note.clone(),
        &["policy", "magnetic KiB", "worm KiB", "total KiB", "vs best"],
    );
    let best_total = measurements
        .iter()
        .map(Measurement::total_bytes)
        .min()
        .unwrap_or(1)
        .max(1);
    for m in &measurements {
        e1.push_row(vec![
            m.label.clone(),
            kib(m.magnetic_bytes),
            kib(m.worm_bytes),
            kib(m.total_bytes()),
            format!("{:.2}x", m.total_bytes() as f64 / best_total as f64),
        ]);
    }

    // E2: current-database space (the paper's SpaceM, the expensive device).
    let mut e2 = Table::new(
        "E2: current-database (magnetic) space by splitting policy",
        note.clone(),
        &["policy", "magnetic KiB", "live versions", "vs best"],
    );
    let best_mag = measurements
        .iter()
        .filter(|m| m.tree_stats.is_some())
        .map(|m| m.magnetic_bytes)
        .min()
        .unwrap_or(1)
        .max(1);
    for m in &measurements {
        let live = m
            .tree_stats
            .as_ref()
            .map(|s| s.live_versions.to_string())
            .unwrap_or_else(|| "-".to_string());
        let vs = if m.tree_stats.is_some() {
            format!("{:.2}x", m.magnetic_bytes as f64 / best_mag as f64)
        } else {
            "n/a".to_string()
        };
        e2.push_row(vec![m.label.clone(), kib(m.magnetic_bytes), live, vs]);
    }

    // E3: redundancy by policy and, for the time-preferring policy, by
    // split-time choice.
    let mut e3 = Table::new(
        "E3: redundancy by splitting policy and split-time choice",
        note,
        &[
            "policy / split-time choice",
            "version copies",
            "distinct",
            "redundant",
            "ratio",
        ],
    );
    for m in &measurements {
        e3.push_row(vec![
            m.label.clone(),
            (m.redundant_copies + m.distinct_versions).to_string(),
            m.distinct_versions.to_string(),
            m.redundant_copies.to_string(),
            ratio(m.redundancy_ratio),
        ]);
    }
    for (label, choice) in [
        (
            "time-preferring / split @ now",
            SplitTimeChoice::CurrentTime,
        ),
        (
            "time-preferring / split @ last update",
            SplitTimeChoice::LastUpdate,
        ),
        (
            "time-preferring / split @ median",
            SplitTimeChoice::MedianVersion,
        ),
    ] {
        let (_, _, m) = measure_tsb(label, SplitPolicyKind::TimePreferring, choice, &ops);
        e3.push_row(vec![
            m.label.clone(),
            (m.redundant_copies + m.distinct_versions).to_string(),
            m.distinct_versions.to_string(),
            m.redundant_copies.to_string(),
            ratio(m.redundancy_ratio),
        ]);
    }

    vec![e1, e2, e3]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_match_the_paper_expectations() {
        let tables = run(Scale::Tiny);
        assert_eq!(tables.len(), 3);
        // Re-run the underlying measurements to assert on the numbers rather
        // than parsing table strings.
        let ops = generate_ops(&default_workload(Scale::Tiny));
        let (_, _, time_pref) = measure_tsb(
            "time",
            SplitPolicyKind::TimePreferring,
            SplitTimeChoice::LastUpdate,
            &ops,
        );
        let (_, _, key_pref) = measure_tsb(
            "key",
            SplitPolicyKind::KeyPreferring,
            SplitTimeChoice::LastUpdate,
            &ops,
        );
        let (_w, wobt) = measure_wobt("wobt", &ops);
        // Time splits minimize the current store; key splits minimize
        // redundancy; the WOBT (everything on WORM, duplicating on every
        // reorganization) uses the most total space.
        assert!(time_pref.magnetic_bytes <= key_pref.magnetic_bytes);
        assert!(key_pref.redundancy_ratio <= time_pref.redundancy_ratio);
        assert!(wobt.total_bytes() >= key_pref.total_bytes());
    }
}
