//! E4: the §5 parameter sweep over the rate of update versus insertion.
//!
//! Expected shape: with no updates (insert-only) every policy behaves like a
//! B+-tree (no migration, no redundancy); as the update share grows, the
//! historical store grows, the time-splitting policies hold the current
//! store flat while the single-store baseline balloons, and redundancy rises
//! for policies that duplicate spanning versions.

use tsb_common::{SplitPolicyKind, SplitTimeChoice};
use tsb_workload::{generate_ops, scenarios};

use crate::measure::{measure_tsb, Scale};
use crate::report::{kib, ratio, Table};

/// The update:insert ratios swept (updates per insert).
pub const RATIOS: &[f64] = &[0.0, 1.0, 4.0, 9.0, 19.0];

/// Runs the sweep for a representative policy trio.
pub fn run(scale: Scale) -> Vec<Table> {
    let note = format!(
        "{} operations, 100-byte values; ratios are updates per insert; the key space of \
         each row is ops/(1+ratio) so the mix is exact",
        scale.ops()
    );
    let sweep = scenarios::update_ratio_sweep(scale.ops(), RATIOS, 0xA11CE);

    let policies = [
        (
            "threshold 2/3",
            SplitPolicyKind::Threshold {
                key_split_live_fraction: 2.0 / 3.0,
            },
        ),
        ("time-preferring", SplitPolicyKind::TimePreferring),
        ("key-only (naive B+-tree)", SplitPolicyKind::KeyOnly),
    ];

    let mut table = Table::new(
        "E4: space and redundancy vs. update:insert ratio",
        note,
        &[
            "update:insert",
            "policy",
            "magnetic KiB",
            "worm KiB",
            "total KiB",
            "redundancy",
        ],
    );
    for (r, spec) in &sweep {
        let mut spec = spec.clone();
        spec.value_size = (100, 100);
        let ops = generate_ops(&spec);
        for (label, policy) in &policies {
            let (_, _, m) = measure_tsb(label, *policy, SplitTimeChoice::LastUpdate, &ops);
            table.push_row(vec![
                format!("{r}:1"),
                label.to_string(),
                kib(m.magnetic_bytes),
                kib(m.worm_bytes),
                kib(m.total_bytes()),
                ratio(m.redundancy_ratio),
            ]);
        }
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsb_workload::WorkloadSpec;

    #[test]
    fn higher_update_ratios_shift_data_to_the_historical_store() {
        let base = WorkloadSpec::default()
            .with_ops(Scale::Tiny.ops())
            .with_value_size(100);
        // Insert-only needs a key space at least as large as the op count.
        let insert_only = generate_ops(
            &base
                .clone()
                .with_keys(Scale::Tiny.ops() as u64)
                .with_update_ratio(0.0),
        );
        let update_heavy = generate_ops(&base.with_keys(Scale::Tiny.keys()).with_update_ratio(9.0));

        let policy = SplitPolicyKind::Threshold {
            key_split_live_fraction: 2.0 / 3.0,
        };
        let (_, _, m_ins) = measure_tsb("ins", policy, SplitTimeChoice::LastUpdate, &insert_only);
        let (_, _, m_upd) = measure_tsb("upd", policy, SplitTimeChoice::LastUpdate, &update_heavy);

        // Insert-only: nothing migrates, nothing is redundant.
        assert_eq!(m_ins.worm_bytes, 0);
        assert_eq!(m_ins.redundant_copies, 0);
        // Update-heavy: history migrates and the current store is smaller
        // than the insert-only current store (fewer live records).
        assert!(m_upd.worm_bytes > 0);
        assert!(m_upd.magnetic_bytes <= m_ins.magnetic_bytes);
    }
}
