//! Choosing the split time for a time split (§3.3).
//!
//! The WOBT is forced to split at the *current* time because the old node
//! has already been burned to the optical disk. The TSB-tree's current nodes
//! are erasable, so "any convenient time more recent than the last time
//! split for the node can be chosen as the split value". The choice controls
//! redundancy (Figure 6): splitting at the time of the last update keeps
//! trailing insertions out of the historical node; pushing the split time
//! further back moves less data to the historical store at the price of
//! keeping historical data on the magnetic disk.

use tsb_common::{SplitTimeChoice, Timestamp};

use crate::node::DataComposition;

/// Picks the timestamp to use for a time split of a data node, or `None` if
/// no valid split time exists (e.g. the node holds only insertions that are
/// all newer than any admissible split point, or only uncommitted data).
///
/// A valid split time `T` must satisfy:
///
/// * `node_lo < T <= now` — more recent than the node's last time split and
///   not in the future;
/// * at least one committed entry has commit time `< T` — otherwise the
///   historical node would be empty and the split useless.
pub(crate) fn choose_split_time(
    choice: SplitTimeChoice,
    comp: &DataComposition,
    node_lo: Timestamp,
    now: Timestamp,
) -> Option<Timestamp> {
    let candidate = match choice {
        SplitTimeChoice::CurrentTime => Some(now),
        SplitTimeChoice::LastUpdate => comp.last_update_time,
        SplitTimeChoice::MedianVersion => comp.median_commit_time,
    };
    let validate = |t: Timestamp| -> Option<Timestamp> {
        if t <= node_lo || t > now {
            return None;
        }
        match comp.min_commit_time {
            Some(min) if min < t => Some(t),
            _ => None,
        }
    };
    match candidate.and_then(validate) {
        Some(t) => Some(t),
        None if choice != SplitTimeChoice::CurrentTime => {
            // Fall back to the WOBT behaviour when the preferred choice is
            // not admissible (e.g. LastUpdate on a node whose only update is
            // also its oldest committed entry).
            validate(now)
        }
        None => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn comp(min: Option<u64>, median: Option<u64>, last_update: Option<u64>) -> DataComposition {
        DataComposition {
            total_entries: 4,
            distinct_keys: 2,
            live_entries: 2,
            historical_entries: 2,
            uncommitted_entries: 0,
            entry_bytes: 400,
            live_entry_bytes: 200,
            last_update_time: last_update.map(Timestamp),
            median_commit_time: median.map(Timestamp),
            min_commit_time: min.map(Timestamp),
            max_commit_time: median.map(|m| Timestamp(m + 10)),
        }
    }

    #[test]
    fn current_time_choice_requires_history_before_now() {
        let c = comp(Some(3), Some(5), Some(6));
        assert_eq!(
            choose_split_time(
                SplitTimeChoice::CurrentTime,
                &c,
                Timestamp(0),
                Timestamp(10)
            ),
            Some(Timestamp(10))
        );
        // Node freshly time-split at 10: now == node_lo, no valid time.
        assert_eq!(
            choose_split_time(
                SplitTimeChoice::CurrentTime,
                &c,
                Timestamp(10),
                Timestamp(10)
            ),
            None
        );
        // No committed history at all.
        let empty = comp(None, None, None);
        assert_eq!(
            choose_split_time(
                SplitTimeChoice::CurrentTime,
                &empty,
                Timestamp(0),
                Timestamp(10)
            ),
            None
        );
    }

    #[test]
    fn last_update_choice_uses_the_last_update_and_falls_back() {
        let c = comp(Some(1), Some(4), Some(6));
        assert_eq!(
            choose_split_time(SplitTimeChoice::LastUpdate, &c, Timestamp(0), Timestamp(10)),
            Some(Timestamp(6))
        );
        // All versions are fresh inserts: no updates, fall back to "now".
        let inserts_only = comp(Some(2), Some(4), None);
        assert_eq!(
            choose_split_time(
                SplitTimeChoice::LastUpdate,
                &inserts_only,
                Timestamp(0),
                Timestamp(10)
            ),
            Some(Timestamp(10))
        );
        // The single update is also the oldest entry: T must leave something
        // older than it; fall back to now.
        let degenerate = comp(Some(6), Some(6), Some(6));
        assert_eq!(
            choose_split_time(
                SplitTimeChoice::LastUpdate,
                &degenerate,
                Timestamp(0),
                Timestamp(10)
            ),
            Some(Timestamp(10))
        );
    }

    #[test]
    fn median_choice() {
        let c = comp(Some(1), Some(5), Some(8));
        assert_eq!(
            choose_split_time(
                SplitTimeChoice::MedianVersion,
                &c,
                Timestamp(0),
                Timestamp(10)
            ),
            Some(Timestamp(5))
        );
        // Median not above the node's start: fall back to now.
        assert_eq!(
            choose_split_time(
                SplitTimeChoice::MedianVersion,
                &c,
                Timestamp(5),
                Timestamp(10)
            ),
            Some(Timestamp(10))
        );
    }

    #[test]
    fn split_time_never_exceeds_now_or_precedes_node_start() {
        let c = comp(Some(1), Some(20), Some(15));
        // Median (20) is beyond "now" (10): falls back to now.
        assert_eq!(
            choose_split_time(
                SplitTimeChoice::MedianVersion,
                &c,
                Timestamp(0),
                Timestamp(10)
            ),
            Some(Timestamp(10))
        );
        for choice in [
            SplitTimeChoice::CurrentTime,
            SplitTimeChoice::LastUpdate,
            SplitTimeChoice::MedianVersion,
        ] {
            if let Some(t) = choose_split_time(choice, &c, Timestamp(3), Timestamp(10)) {
                assert!(t > Timestamp(3) && t <= Timestamp(10));
            }
        }
    }
}
