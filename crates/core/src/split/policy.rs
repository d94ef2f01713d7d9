//! Deciding whether to split a full data node by key or by time (§3.2).
//!
//! The paper fixes two boundary conditions and leaves the interior to an
//! adjustable policy:
//!
//! * a node containing only insertions (every entry is current) must be
//!   **key split** — time splitting would migrate nothing and duplicate
//!   everything;
//! * a node containing only versions of a single record must be **time
//!   split** — there is no key to split on;
//! * in between, "the more out-of-date (historical) data is on a node, the
//!   more likely it is that time splitting should be used", and the choice
//!   may be driven by the cost function `CS = SpaceM·CM + SpaceO·CO`.
//!
//! [`plan_data_split`] applies the boundary conditions first and then the
//! configured [`SplitPolicyKind`].

use tsb_common::{
    Key, SplitPolicyKind, SplitTimeChoice, Timestamp, TsbConfig, TsbError, TsbResult,
};

use crate::node::DataNode;

use super::data_split::choose_split_key;
use super::time_choice::choose_split_time;

/// The plan for splitting a full data node.
#[derive(Clone, PartialEq, Eq, Debug)]
pub(crate) enum SplitPlan {
    /// Split the key space at `split_key`; both halves stay current.
    Key {
        /// Keys `>= split_key` move to the new right node.
        split_key: Key,
    },
    /// Split time at `split_time`; the older half migrates to the historical
    /// store. (The executor may follow up with a key split of the surviving
    /// current node if it still overflows — the WOBT's "split by key value
    /// and current time".)
    Time {
        /// The split time `T` of the TIME-SPLIT RULE.
        split_time: Timestamp,
    },
}

/// Chooses how to split `node`, which has overflowed its page.
///
/// `now` is the current logical time (used by WOBT-style current-time splits
/// and as the fallback split time). Returns an error only when neither kind
/// of split is possible, which means a single version is too large for a
/// page — callers reject such versions at the API boundary, so reaching the
/// error indicates a bug.
pub(crate) fn plan_data_split(
    node: &DataNode,
    cfg: &TsbConfig,
    now: Timestamp,
    page_capacity: usize,
) -> TsbResult<SplitPlan> {
    let comp = node.composition();
    let key_candidate = choose_split_key(node);
    let time_choice = match cfg.split_policy {
        // The WOBT has no freedom: it always splits at the current time.
        SplitPolicyKind::WobtLike => SplitTimeChoice::CurrentTime,
        _ => cfg.split_time_choice,
    };
    let time_candidate = choose_split_time(time_choice, &comp, node.time_range.lo, now);

    match (key_candidate, time_candidate) {
        (None, None) => Err(TsbError::EntryTooLarge {
            entry_size: node.encoded_size(),
            capacity: page_capacity,
        }),
        // Boundary condition: nothing to migrate — key split is forced.
        (Some(k), None) => Ok(SplitPlan::Key { split_key: k }),
        // Boundary condition: single key — time split is forced.
        (None, Some(t)) => Ok(SplitPlan::Time { split_time: t }),
        (Some(split_key), Some(split_time)) => {
            // §3.2 boundary condition: "if only insertion has occurred in a
            // full node requiring splitting ... time splitting by itself is
            // useless. Key space splitting must be done." Every committed
            // entry being live means nothing would migrate — only the WOBT
            // emulation ignores this (the real WOBT has no choice but to
            // copy all current data forward).
            if comp.historical_entries == 0
                && !matches!(cfg.split_policy, SplitPolicyKind::WobtLike)
            {
                return Ok(SplitPlan::Key { split_key });
            }
            let plan = match cfg.split_policy {
                SplitPolicyKind::WobtLike | SplitPolicyKind::TimePreferring => {
                    SplitPlan::Time { split_time }
                }
                SplitPolicyKind::KeyPreferring | SplitPolicyKind::KeyOnly => {
                    SplitPlan::Key { split_key }
                }
                SplitPolicyKind::Threshold {
                    key_split_live_fraction,
                } => {
                    if comp.live_fraction() >= key_split_live_fraction {
                        SplitPlan::Key { split_key }
                    } else {
                        SplitPlan::Time { split_time }
                    }
                }
                SplitPolicyKind::CostBased => cost_based_plan(node, cfg, split_key, split_time),
            };
            Ok(plan)
        }
    }
}

/// Picks the split kind that adds the least storage cost under the
/// configured `CS = SpaceM·CM + SpaceO·CO` parameters.
///
/// * A key split allocates one more magnetic page: `ΔCS = CM · page_size`.
/// * A time split appends the migrated entries (rounded up to whole WORM
///   sectors) to the historical store: `ΔCS = CO · sectors · sector_size`.
///   The magnetic footprint is unchanged (the surviving current node keeps
///   its page).
fn cost_based_plan(
    node: &DataNode,
    cfg: &TsbConfig,
    split_key: Key,
    split_time: Timestamp,
) -> SplitPlan {
    let hist_bytes: usize = node
        .iter()
        .filter(|e| e.commit_time().map(|t| t < split_time).unwrap_or(false))
        .map(|e| e.encoded_size())
        .sum();
    let hist_sectors = hist_bytes.div_ceil(cfg.worm_sector_size);
    let time_cost = cfg.cost.worm_cost_per_byte * (hist_sectors * cfg.worm_sector_size) as f64;
    let key_cost = cfg.cost.magnetic_cost_per_byte * cfg.page_size as f64;
    if time_cost <= key_cost {
        SplitPlan::Time { split_time }
    } else {
        SplitPlan::Key { split_key }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsb_common::{CostParams, KeyRange, TimeRange, Version};

    fn node_with(entries: Vec<Version>) -> DataNode {
        DataNode::from_entries(KeyRange::full(), TimeRange::full(), entries)
    }

    fn v(key: u64, ts: u64) -> Version {
        Version::committed(key, Timestamp(ts), vec![b'x'; 32])
    }

    fn insert_only_node() -> DataNode {
        node_with((1..=8).map(|k| v(k, k)).collect())
    }

    fn update_only_node() -> DataNode {
        node_with((1..=8).map(|t| v(42, t)).collect())
    }

    fn mixed_node() -> DataNode {
        // Keys 1..4, each updated twice: half the committed entries are
        // superseded.
        let mut entries = Vec::new();
        for k in 1..=4u64 {
            entries.push(v(k, k));
            entries.push(v(k, k + 10));
        }
        node_with(entries)
    }

    fn cfg(policy: SplitPolicyKind) -> TsbConfig {
        TsbConfig::small_pages().with_split_policy(policy)
    }

    #[test]
    fn insert_only_nodes_are_key_split_under_every_policy_except_wobt() {
        // Boundary condition from §3.2: with LastUpdate time choice there is
        // no admissible split time... except the fallback to "now". The
        // threshold policy still picks a key split because everything is live.
        for policy in [
            SplitPolicyKind::Threshold {
                key_split_live_fraction: 0.66,
            },
            SplitPolicyKind::KeyPreferring,
            SplitPolicyKind::KeyOnly,
        ] {
            let plan =
                plan_data_split(&insert_only_node(), &cfg(policy), Timestamp(100), 256).unwrap();
            assert!(matches!(plan, SplitPlan::Key { .. }), "{policy:?}");
        }
    }

    #[test]
    fn single_key_nodes_are_time_split_under_every_policy() {
        for policy in [
            SplitPolicyKind::Threshold {
                key_split_live_fraction: 0.66,
            },
            SplitPolicyKind::KeyPreferring,
            SplitPolicyKind::KeyOnly,
            SplitPolicyKind::TimePreferring,
            SplitPolicyKind::WobtLike,
            SplitPolicyKind::CostBased,
        ] {
            let plan =
                plan_data_split(&update_only_node(), &cfg(policy), Timestamp(100), 256).unwrap();
            assert!(matches!(plan, SplitPlan::Time { .. }), "{policy:?}");
        }
    }

    #[test]
    fn threshold_policy_splits_by_live_fraction() {
        // Mixed node: live fraction is 0.5.
        let node = mixed_node();
        let key_plan = plan_data_split(
            &node,
            &cfg(SplitPolicyKind::Threshold {
                key_split_live_fraction: 0.4,
            }),
            Timestamp(100),
            256,
        )
        .unwrap();
        assert!(matches!(key_plan, SplitPlan::Key { .. }));

        let time_plan = plan_data_split(
            &node,
            &cfg(SplitPolicyKind::Threshold {
                key_split_live_fraction: 0.9,
            }),
            Timestamp(100),
            256,
        )
        .unwrap();
        assert!(matches!(time_plan, SplitPlan::Time { .. }));
    }

    #[test]
    fn wobt_policy_time_splits_at_the_current_time() {
        let plan = plan_data_split(
            &mixed_node(),
            &cfg(SplitPolicyKind::WobtLike),
            Timestamp(99),
            256,
        )
        .unwrap();
        assert_eq!(
            plan,
            SplitPlan::Time {
                split_time: Timestamp(99)
            }
        );
        // Even an insert-only node gets a time split under the WOBT: all of
        // its current data will be duplicated (the waste §2.6 describes).
        let plan = plan_data_split(
            &insert_only_node(),
            &cfg(SplitPolicyKind::WobtLike),
            Timestamp(99),
            256,
        )
        .unwrap();
        assert!(matches!(plan, SplitPlan::Time { .. }));
    }

    #[test]
    fn last_update_choice_picks_the_last_update_time() {
        let config = cfg(SplitPolicyKind::TimePreferring)
            .with_split_time_choice(SplitTimeChoice::LastUpdate);
        let plan = plan_data_split(&mixed_node(), &config, Timestamp(100), 256).unwrap();
        assert_eq!(
            plan,
            SplitPlan::Time {
                split_time: Timestamp(14) // last update: key 4 updated at 14
            }
        );
    }

    #[test]
    fn cost_based_policy_follows_the_price_ratio() {
        // Expensive WORM storage relative to magnetic: prefer the key split.
        let mut expensive_worm = cfg(SplitPolicyKind::CostBased);
        expensive_worm.cost = CostParams {
            magnetic_cost_per_byte: 1.0,
            worm_cost_per_byte: 100.0,
            ..CostParams::default()
        };
        let plan = plan_data_split(&mixed_node(), &expensive_worm, Timestamp(100), 256).unwrap();
        assert!(matches!(plan, SplitPlan::Key { .. }));

        // Cheap WORM storage (the realistic case): prefer the time split.
        let mut cheap_worm = cfg(SplitPolicyKind::CostBased);
        cheap_worm.cost = CostParams {
            magnetic_cost_per_byte: 100.0,
            worm_cost_per_byte: 1.0,
            ..CostParams::default()
        };
        let plan = plan_data_split(&mixed_node(), &cheap_worm, Timestamp(100), 256).unwrap();
        assert!(matches!(plan, SplitPlan::Time { .. }));
    }

    #[test]
    fn impossible_split_is_an_error() {
        // A node holding a single uncommitted entry can be neither key split
        // (one key) nor time split (nothing committed).
        let node = node_with(vec![Version::uncommitted(
            1u64,
            tsb_common::TxnId(1),
            vec![0u8; 500],
        )]);
        let err = plan_data_split(&node, &cfg(SplitPolicyKind::default()), Timestamp(10), 256)
            .unwrap_err();
        assert!(matches!(err, TsbError::EntryTooLarge { .. }));
    }
}
