//! Tree-level statistics: exactly the quantities the paper's planned
//! evaluation names (§5) — total space use, space use in the current
//! database, and the amount of redundancy — plus node counts and WORM
//! utilization.

use std::collections::HashSet;
use std::fmt;

use tsb_common::{Timestamp, TsbResult};
use tsb_storage::SpaceSnapshot;

use crate::node::{Node, NodeAddr};
use crate::tree::TsbTree;

/// A full structural census of a TSB-tree.
#[derive(Clone, Debug, PartialEq)]
pub struct TreeStats {
    /// Data nodes on the magnetic (current) store.
    pub current_data_nodes: usize,
    /// Index nodes on the magnetic store.
    pub current_index_nodes: usize,
    /// Data nodes on the WORM (historical) store.
    pub historical_data_nodes: usize,
    /// Index nodes on the WORM store.
    pub historical_index_nodes: usize,
    /// Committed version copies stored across all data nodes (each physical
    /// copy counted, including rule-3 duplicates).
    pub version_copies: usize,
    /// Distinct logical versions (unique `(key, commit time)` pairs).
    pub distinct_versions: usize,
    /// Redundant copies: `version_copies - distinct_versions`.
    pub redundant_copies: usize,
    /// Uncommitted versions currently resident.
    pub uncommitted_versions: usize,
    /// Live entries in current data nodes (the current database's records).
    pub live_versions: usize,
    /// Device space occupied.
    pub space: SpaceSnapshot,
    /// The storage cost `CS = SpaceM·CM + SpaceO·CO` under the tree's cost
    /// parameters.
    pub storage_cost: f64,
    /// Depth of the current-part search path (root to current leaves).
    pub depth: usize,
}

impl TreeStats {
    /// Redundancy ratio: redundant copies / distinct versions (0 when empty).
    pub fn redundancy_ratio(&self) -> f64 {
        if self.distinct_versions == 0 {
            0.0
        } else {
            self.redundant_copies as f64 / self.distinct_versions as f64
        }
    }

    /// Total nodes of any kind.
    pub fn total_nodes(&self) -> usize {
        self.current_data_nodes
            + self.current_index_nodes
            + self.historical_data_nodes
            + self.historical_index_nodes
    }

    /// The census of two trees over disjoint keys as one: counts, space
    /// and cost added, the depth the deeper tree's.
    pub(crate) fn plus(self, other: TreeStats) -> TreeStats {
        let space = SpaceSnapshot {
            magnetic_bytes: self.space.magnetic_bytes + other.space.magnetic_bytes,
            worm_bytes: self.space.worm_bytes + other.space.worm_bytes,
            magnetic_payload_bytes: self.space.magnetic_payload_bytes
                + other.space.magnetic_payload_bytes,
            worm_payload_bytes: self.space.worm_payload_bytes + other.space.worm_payload_bytes,
        };
        TreeStats {
            current_data_nodes: self.current_data_nodes + other.current_data_nodes,
            current_index_nodes: self.current_index_nodes + other.current_index_nodes,
            historical_data_nodes: self.historical_data_nodes + other.historical_data_nodes,
            historical_index_nodes: self.historical_index_nodes + other.historical_index_nodes,
            version_copies: self.version_copies + other.version_copies,
            distinct_versions: self.distinct_versions + other.distinct_versions,
            redundant_copies: self.redundant_copies + other.redundant_copies,
            uncommitted_versions: self.uncommitted_versions + other.uncommitted_versions,
            live_versions: self.live_versions + other.live_versions,
            space,
            storage_cost: self.storage_cost + other.storage_cost,
            depth: self.depth.max(other.depth),
        }
    }
}

impl fmt::Display for TreeStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "nodes: {} current data, {} current index, {} historical data, {} historical index (depth {})",
            self.current_data_nodes,
            self.current_index_nodes,
            self.historical_data_nodes,
            self.historical_index_nodes,
            self.depth
        )?;
        writeln!(
            f,
            "versions: {} copies of {} distinct ({} redundant, ratio {:.3}), {} live, {} uncommitted",
            self.version_copies,
            self.distinct_versions,
            self.redundant_copies,
            self.redundancy_ratio(),
            self.live_versions,
            self.uncommitted_versions
        )?;
        write!(
            f,
            "space: magnetic {} B, worm {} B, total {} B, cost {:.1}",
            self.space.magnetic_bytes,
            self.space.worm_bytes,
            self.space.total_bytes(),
            self.storage_cost
        )
    }
}

impl TsbTree {
    /// Walks the whole structure (current and historical parts, deduplicating
    /// DAG-shared historical nodes) and returns a census. Intended for
    /// experiments and tests, not hot paths.
    ///
    /// `space.worm_payload_bytes` is the sum of the lengths of the
    /// historical nodes the walk visits, not the WORM store's counter: a
    /// reopened store cannot tell payload from sector padding, but every
    /// historical address records its node's exact length.
    pub fn tree_stats(&self) -> TsbResult<TreeStats> {
        let mut visited: HashSet<NodeAddr> = HashSet::new();
        let mut stats = TreeStats {
            current_data_nodes: 0,
            current_index_nodes: 0,
            historical_data_nodes: 0,
            historical_index_nodes: 0,
            version_copies: 0,
            distinct_versions: 0,
            redundant_copies: 0,
            uncommitted_versions: 0,
            live_versions: 0,
            space: SpaceSnapshot {
                worm_payload_bytes: 0,
                ..self.space()
            },
            storage_cost: self.storage_cost(),
            depth: 0,
        };
        let mut distinct: HashSet<(Vec<u8>, Timestamp)> = HashSet::new();
        self.census(self.current_root(), &mut visited, &mut distinct, &mut stats)?;
        stats.distinct_versions = distinct.len();
        stats.redundant_copies = stats.version_copies - stats.distinct_versions;
        stats.depth = self.current_depth()?;
        Ok(stats)
    }

    fn census(
        &self,
        addr: NodeAddr,
        visited: &mut HashSet<NodeAddr>,
        distinct: &mut HashSet<(Vec<u8>, Timestamp)>,
        stats: &mut TreeStats,
    ) -> TsbResult<()> {
        if !visited.insert(addr) {
            return Ok(());
        }
        if let Some(hist) = addr.as_hist() {
            stats.space.worm_payload_bytes += u64::from(hist.len);
        }
        match &*self.read_node(addr)? {
            Node::Data(data) => {
                if addr.is_current() {
                    stats.current_data_nodes += 1;
                    stats.live_versions += data.composition().live_entries;
                } else {
                    stats.historical_data_nodes += 1;
                }
                for v in data.iter() {
                    match v.commit_time() {
                        Some(t) => {
                            stats.version_copies += 1;
                            distinct.insert((v.key.to_vec(), t));
                        }
                        None => stats.uncommitted_versions += 1,
                    }
                }
            }
            Node::Index(index) => {
                if addr.is_current() {
                    stats.current_index_nodes += 1;
                } else {
                    stats.historical_index_nodes += 1;
                }
                for e in index.iter() {
                    self.census(e.child, visited, distinct, stats)?;
                }
            }
        }
        Ok(())
    }

    /// Depth of the current search path (1 for a tree whose root is a leaf).
    pub fn current_depth(&self) -> TsbResult<usize> {
        let mut addr = self.current_root();
        let mut depth = 1;
        loop {
            match &*self.read_node(addr)? {
                Node::Data(_) => return Ok(depth),
                Node::Index(ix) => {
                    let next = ix.iter().find(|e| e.is_current()).map(|e| e.child);
                    match next {
                        Some(n) => {
                            addr = n;
                            depth += 1;
                        }
                        None => return Ok(depth),
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsb_common::{SplitPolicyKind, TsbConfig};

    fn workload(policy: SplitPolicyKind, ops: u64, keys: u64) -> TsbTree {
        let cfg = TsbConfig::small_pages().with_split_policy(policy);
        let tree = crate::TsbOptions::in_memory()
            .config(cfg)
            .open_tree()
            .unwrap();
        for i in 0..ops {
            tree.insert(i % keys, format!("value-{i}").into_bytes())
                .unwrap();
        }
        tree
    }

    #[test]
    fn census_accounts_for_every_distinct_version() {
        let tree = workload(SplitPolicyKind::default(), 300, 30);
        let stats = tree.tree_stats().unwrap();
        // 300 inserts => 300 distinct logical versions, no losses.
        assert_eq!(stats.distinct_versions, 300);
        assert!(stats.version_copies >= stats.distinct_versions);
        assert_eq!(
            stats.redundant_copies,
            stats.version_copies - stats.distinct_versions
        );
        assert_eq!(stats.live_versions, 30);
        assert_eq!(stats.uncommitted_versions, 0);
        assert!(stats.depth >= 2);
        assert!(stats.total_nodes() >= 3);
        let text = stats.to_string();
        assert!(text.contains("versions:"));
        assert!(text.contains("space:"));
    }

    #[test]
    fn time_preferring_policy_produces_more_redundancy_than_key_preferring() {
        let time_tree = workload(SplitPolicyKind::TimePreferring, 400, 40);
        let key_tree = workload(SplitPolicyKind::KeyPreferring, 400, 40);
        let time_stats = time_tree.tree_stats().unwrap();
        let key_stats = key_tree.tree_stats().unwrap();
        // Time splits duplicate spanning versions; key splits never do
        // (key-preferring still time-splits the occasional single-key node,
        // so its redundancy is low but not necessarily zero).
        assert!(time_stats.redundant_copies >= key_stats.redundant_copies);
        // Key-preferring keeps (at least as much) data on the magnetic store.
        assert!(key_stats.space.magnetic_bytes >= time_stats.space.magnetic_bytes);
        // Time-preferring migrates more to the WORM store.
        assert!(time_stats.space.worm_bytes > 0);
        assert!(time_stats.space.worm_bytes >= key_stats.space.worm_bytes);
        assert!(
            time_stats.historical_data_nodes + time_stats.historical_index_nodes
                >= key_stats.historical_data_nodes + key_stats.historical_index_nodes
        );
    }

    #[test]
    fn key_only_policy_is_the_single_store_baseline() {
        // Few enough versions per key that every key's history fits in one
        // page: the key-only baseline then never needs the forced time split
        // and keeps everything on the magnetic store with zero redundancy.
        let tree = workload(SplitPolicyKind::KeyOnly, 300, 100);
        let stats = tree.tree_stats().unwrap();
        assert_eq!(stats.space.worm_bytes, 0);
        assert_eq!(stats.redundant_copies, 0);
        assert_eq!(stats.version_copies, 300);
        assert_eq!(
            stats.historical_data_nodes + stats.historical_index_nodes,
            0
        );
    }

    #[test]
    fn empty_tree_stats() {
        let tree = crate::TsbOptions::in_memory()
            .config(TsbConfig::small_pages())
            .open_tree()
            .unwrap();
        let stats = tree.tree_stats().unwrap();
        assert_eq!(stats.distinct_versions, 0);
        assert_eq!(stats.redundancy_ratio(), 0.0);
        assert_eq!(stats.current_data_nodes, 1);
        assert_eq!(stats.depth, 1);
    }
}
