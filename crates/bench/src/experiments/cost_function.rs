//! E5: the §3.2 cost function `CS = SpaceM·CM + SpaceO·CO`.
//!
//! The experiment varies the magnetic:optical price ratio and evaluates the
//! cost of the layouts produced by fixed policies and by the cost-based
//! policy (which sees the prices when deciding each split). Expected shape:
//! when magnetic storage is much more expensive, time-splitting layouts are
//! cheapest; as the prices converge, key-splitting layouts win because they
//! avoid redundant bytes; the cost-based policy tracks whichever fixed
//! policy is better at each price point.

use tsb_common::{CostParams, SplitPolicyKind, SplitTimeChoice, TsbConfig};
use tsb_workload::{generate_ops, Op};

use crate::measure::{default_workload, load_engine, Scale};
use crate::report::Table;

/// The magnetic-per-byte : optical-per-byte price ratios swept.
pub const PRICE_RATIOS: &[f64] = &[2.0, 5.0, 10.0, 20.0];

fn run_with_cost(policy: SplitPolicyKind, cost: CostParams, ops: &[Op]) -> (u64, u64) {
    let mut cfg = TsbConfig::default()
        .with_page_size(1024)
        .with_worm_sector_size(1024)
        .with_split_policy(policy)
        .with_split_time_choice(SplitTimeChoice::LastUpdate)
        .with_cost(cost);
    cfg.max_key_len = 64;
    let space = load_engine(cfg, ops).tree_stats().expect("stats").space;
    (space.magnetic_bytes, space.worm_bytes)
}

/// Runs the price sweep.
pub fn run(scale: Scale) -> Vec<Table> {
    let spec = default_workload(scale);
    let ops = generate_ops(&spec);
    let note = format!(
        "{} operations over {} keys, update:insert = 4:1; CS = SpaceM*CM + SpaceO*CO (CO = 1)",
        spec.num_ops, spec.num_keys
    );
    let mut table = Table::new(
        "E5: storage cost CS under different device price ratios",
        note,
        &[
            "CM : CO",
            "policy",
            "magnetic KiB",
            "worm KiB",
            "cost CS",
            "cheapest?",
        ],
    );

    for &cm in PRICE_RATIOS {
        let cost = CostParams {
            magnetic_cost_per_byte: cm,
            worm_cost_per_byte: 1.0,
            ..CostParams::default()
        };
        let candidates = [
            ("time-preferring", SplitPolicyKind::TimePreferring),
            (
                "threshold 2/3",
                SplitPolicyKind::Threshold {
                    key_split_live_fraction: 2.0 / 3.0,
                },
            ),
            ("key-preferring", SplitPolicyKind::KeyPreferring),
            ("cost-based", SplitPolicyKind::CostBased),
        ];
        let results: Vec<(&str, u64, u64, f64)> = candidates
            .iter()
            .map(|(label, policy)| {
                let (mag, worm) = run_with_cost(*policy, cost, &ops);
                (*label, mag, worm, cost.storage_cost(mag, worm))
            })
            .collect();
        let min_cost = results
            .iter()
            .map(|(_, _, _, c)| *c)
            .fold(f64::INFINITY, f64::min);
        for (label, mag, worm, cs) in results {
            table.push_row(vec![
                format!("{cm}:1"),
                label.to_string(),
                crate::report::kib(mag),
                crate::report::kib(worm),
                format!("{cs:.0}"),
                if (cs - min_cost).abs() < 1e-9 {
                    "*".into()
                } else {
                    "".into()
                },
            ]);
        }
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_based_policy_is_never_far_from_the_best_fixed_policy() {
        let spec = default_workload(Scale::Tiny);
        let ops = generate_ops(&spec);
        for &cm in &[2.0, 20.0] {
            let cost = CostParams {
                magnetic_cost_per_byte: cm,
                worm_cost_per_byte: 1.0,
                ..CostParams::default()
            };
            let fixed = [
                SplitPolicyKind::TimePreferring,
                SplitPolicyKind::KeyPreferring,
                SplitPolicyKind::Threshold {
                    key_split_live_fraction: 2.0 / 3.0,
                },
            ];
            let best_fixed = fixed
                .iter()
                .map(|p| {
                    let (m, w) = run_with_cost(*p, cost, &ops);
                    cost.storage_cost(m, w)
                })
                .fold(f64::INFINITY, f64::min);
            let (m, w) = run_with_cost(SplitPolicyKind::CostBased, cost, &ops);
            let cost_based = cost.storage_cost(m, w);
            // The adaptive policy should be within 2x of the best fixed
            // layout at every price point (it usually matches it).
            assert!(
                cost_based <= best_fixed * 2.0,
                "CM={cm}: cost-based {cost_based:.0} vs best fixed {best_fixed:.0}"
            );
        }
    }
}
