//! E6: query cost by query class and structure.
//!
//! The paper's design goal is "faster access to the most recent records
//! while tolerating slower access to the older, historical records" (§1),
//! with current data concentrated in a small number of (fast) magnetic
//! nodes and historical data on the (slow, ~3× seek) optical device. The
//! experiment measures logical node accesses per query — split by device —
//! and converts them to an estimated access time with the device model, for
//! the TSB-tree, the single-store baseline, and the WOBT.

use tsb_common::{CostParams, SplitPolicyKind, SplitTimeChoice};
use tsb_workload::generate_ops;

use crate::measure::{
    default_workload, measure_tsb, measure_wobt, query_batches, tsb_query_cost, wobt_query_cost,
    Scale,
};
use crate::report::{node_cache_cells, Table, NODE_CACHE_HEADERS};

/// Runs the query-cost experiment.
pub fn run(scale: Scale) -> Vec<Table> {
    let spec = default_workload(scale);
    let ops = generate_ops(&spec);
    let params = CostParams::default();
    let note = format!(
        "database built from {} operations (4 updates per insert); {} queries per class; \
         magnetic access {} ms, optical access {} ms",
        spec.num_ops,
        scale.queries(),
        params.magnetic_access_ms,
        params.worm_access_ms
    );

    let (tsb, oracle, _) = measure_tsb(
        "tsb (threshold 2/3)",
        SplitPolicyKind::Threshold {
            key_split_live_fraction: 2.0 / 3.0,
        },
        SplitTimeChoice::LastUpdate,
        &ops,
    );
    let (naive, _, _) = measure_tsb(
        "key-only baseline",
        SplitPolicyKind::KeyOnly,
        SplitTimeChoice::LastUpdate,
        &ops,
    );
    let (wobt, _) = measure_wobt("WOBT", &ops);

    let headers: Vec<&str> = [
        "query class",
        "structure",
        "magnetic accesses",
        "optical accesses",
        "est. ms/query",
    ]
    .into_iter()
    .chain(NODE_CACHE_HEADERS)
    .collect();
    let mut table = Table::new(
        "E6: query cost by query class (mean node accesses per query)",
        note,
        &headers,
    );
    for (class, queries) in query_batches(&oracle, scale.queries()) {
        let tsb_cost = tsb_query_cost(&tsb, &queries, &params);
        let naive_cost = tsb_query_cost(&naive, &queries, &params);
        let wobt_cost = wobt_query_cost(&wobt, &queries, &params);
        for (structure, cost) in [
            ("TSB-tree (threshold 2/3)", tsb_cost),
            ("single-store versioned B+-tree", naive_cost),
            ("WOBT (all on optical)", wobt_cost),
        ] {
            let mut row = vec![
                class.to_string(),
                structure.to_string(),
                format!("{:.2}", cost.mean_current_accesses),
                format!("{:.2}", cost.mean_historical_accesses),
                format!("{:.1}", cost.mean_ms),
            ];
            row.extend(node_cache_cells(&cost.io_delta));
            table.push_row(row);
        }
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn current_lookups_stay_on_the_magnetic_device() {
        let spec = default_workload(Scale::Tiny);
        let ops = generate_ops(&spec);
        let params = CostParams::default();
        let (tsb, oracle, _) = measure_tsb(
            "tsb",
            SplitPolicyKind::Threshold {
                key_split_live_fraction: 2.0 / 3.0,
            },
            SplitTimeChoice::LastUpdate,
            &ops,
        );
        let (wobt, _) = measure_wobt("wobt", &ops);
        let batches = query_batches(&oracle, Scale::Tiny.queries());
        let (_, current_queries) = &batches[0];
        let tsb_cost = tsb_query_cost(&tsb, current_queries, &params);
        let wobt_cost = wobt_query_cost(&wobt, current_queries, &params);
        // Current lookups in the TSB-tree never touch the optical device.
        assert_eq!(tsb_cost.mean_historical_accesses, 0.0);
        assert!(tsb_cost.mean_current_accesses >= 1.0);
        // The WOBT pays optical-device prices even for current data.
        assert!(wobt_cost.mean_ms > tsb_cost.mean_ms);
    }
}
