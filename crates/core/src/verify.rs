//! Whole-tree structural verification.
//!
//! [`TsbTree::verify`] walks the entire structure (current and historical
//! parts) and checks the invariants that make the TSB-tree correct:
//!
//! * every node passes its local validation (entry ordering, rectangles,
//!   rule-3 shape, no uncommitted data in historical nodes, and — for index
//!   nodes — the historical/current region partition that backs the
//!   binary-search routing, see [`crate::node::IndexNode`]);
//! * every index entry's rectangle equals the rectangle stored in the child
//!   node it references, and the entry's device (current vs. historical)
//!   matches the child's address and open/closed time range;
//! * within an index node, child rectangles are pairwise disjoint and cover
//!   the node's rectangle (checked by the node-local validation);
//! * the *current* part is a tree: every current page is referenced by at
//!   most one parent (historical nodes may have several parents — the DAG
//!   the paper describes);
//! * all leaves sit at the same depth;
//! * no magnetic page is leaked: the allocated page set is exactly the
//!   reachable current pages.
//!
//! Integration and property tests call this after every mutation batch.

use std::collections::{HashMap, HashSet};

use tsb_common::{TsbError, TsbResult};
use tsb_storage::PageId;

use crate::node::{Node, NodeAddr};
use crate::tree::TsbTree;

impl TsbTree {
    /// Verifies the structural invariants of the whole tree. Returns the
    /// first violation found.
    pub(crate) fn verify(&self) -> TsbResult<()> {
        let mut current_page_refs: HashMap<PageId, usize> = HashMap::new();
        let mut visited: HashSet<NodeAddr> = HashSet::new();
        let mut leaf_depths: HashSet<usize> = HashSet::new();

        // The root must be a current node.
        let root = self.current_root();
        let root_page = root.as_page().ok_or_else(|| {
            TsbError::invariant("the root must live on the erasable current store")
        })?;
        current_page_refs.insert(root_page, 1);

        self.verify_node(
            root,
            1,
            &mut visited,
            &mut current_page_refs,
            &mut leaf_depths,
        )?;

        if leaf_depths.len() > 1 {
            return Err(TsbError::invariant(format!(
                "leaves found at different depths: {leaf_depths:?}"
            )));
        }
        for (page, refs) in &current_page_refs {
            if *refs > 1 {
                return Err(TsbError::invariant(format!(
                    "current page {page} is referenced by {refs} parents; the current part must be a tree"
                )));
            }
        }

        // No leaked or dangling magnetic pages.
        let expected: HashSet<PageId> = current_page_refs.keys().copied().collect();
        let allocated: HashSet<PageId> = self.magnetic.allocated_page_ids().into_iter().collect();
        if expected != allocated {
            let leaked: Vec<_> = allocated.difference(&expected).collect();
            let dangling: Vec<_> = expected.difference(&allocated).collect();
            return Err(TsbError::invariant(format!(
                "magnetic page set mismatch: leaked {leaked:?}, dangling {dangling:?}"
            )));
        }
        Ok(())
    }

    fn verify_node(
        &self,
        addr: NodeAddr,
        depth: usize,
        visited: &mut HashSet<NodeAddr>,
        current_page_refs: &mut HashMap<PageId, usize>,
        leaf_depths: &mut HashSet<usize>,
    ) -> TsbResult<()> {
        if !visited.insert(addr) {
            // Already verified via another parent (historical nodes may have
            // several parents). Reference counting happens at the parent, so
            // nothing more to do here.
            return Ok(());
        }
        let node = self.read_node(addr)?;
        node.validate()?;
        match &*node {
            Node::Data(data) => {
                leaf_depths.insert(depth);
                if addr.is_current() != data.is_current() {
                    return Err(TsbError::invariant(format!(
                        "data node at {addr} has time range {} inconsistent with its device",
                        data.time_range
                    )));
                }
            }
            Node::Index(index) => {
                if addr.is_current() != index.is_current() {
                    return Err(TsbError::invariant(format!(
                        "index node at {addr} has time range {} inconsistent with its device",
                        index.time_range
                    )));
                }
                for entry in index.iter() {
                    // Entry/child consistency.
                    if entry.is_current() != entry.time_range.is_current() {
                        return Err(TsbError::invariant(format!(
                            "entry for {} mixes device and time range",
                            entry.child
                        )));
                    }
                    if addr.is_historical() && entry.child.is_current() {
                        return Err(TsbError::invariant(format!(
                            "historical index node {addr} references current child {}",
                            entry.child
                        )));
                    }
                    let child = self.read_node(entry.child)?;
                    let (child_kr, child_tr) = match &*child {
                        Node::Data(d) => (&d.key_range, &d.time_range),
                        Node::Index(i) => (&i.key_range, &i.time_range),
                    };
                    let entry_kr = entry.key_range();
                    if *child_kr != entry_kr || *child_tr != entry.time_range {
                        return Err(TsbError::invariant(format!(
                            "entry rectangle {} x {} does not match child {}'s own rectangle {} x {}",
                            entry_kr, entry.time_range, entry.child, child_kr, child_tr
                        )));
                    }
                    if let Some(page) = entry.child.as_page() {
                        *current_page_refs.entry(page).or_insert(0) += 1;
                    }
                    self.verify_node(
                        entry.child,
                        depth + 1,
                        visited,
                        current_page_refs,
                        leaf_depths,
                    )?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use tsb_common::{SplitPolicyKind, SplitTimeChoice, TsbConfig};

    #[test]
    fn fresh_tree_verifies() {
        let tree = crate::TsbOptions::in_memory()
            .config(TsbConfig::small_pages())
            .open_tree()
            .unwrap();
        tree.verify().unwrap();
    }

    #[test]
    fn verification_passes_after_heavy_mixed_workloads() {
        for policy in [
            SplitPolicyKind::WobtLike,
            SplitPolicyKind::KeyPreferring,
            SplitPolicyKind::TimePreferring,
            SplitPolicyKind::KeyOnly,
            SplitPolicyKind::CostBased,
        ] {
            for choice in [
                SplitTimeChoice::CurrentTime,
                SplitTimeChoice::LastUpdate,
                SplitTimeChoice::MedianVersion,
            ] {
                let cfg = TsbConfig::small_pages()
                    .with_split_policy(policy)
                    .with_split_time_choice(choice);
                let tree = crate::TsbOptions::in_memory()
                    .config(cfg)
                    .open_tree()
                    .unwrap();
                for i in 0..250u64 {
                    tree.insert(i % 20, format!("{policy:?}-{i}").into_bytes())
                        .unwrap();
                    if i % 17 == 0 {
                        tree.delete((i + 3) % 20).unwrap();
                    }
                }
                tree.verify()
                    .unwrap_or_else(|e| panic!("{policy:?}/{choice:?}: {e}"));
            }
        }
    }

    #[test]
    fn verification_passes_with_transactions_in_flight() {
        let tree = crate::TsbOptions::in_memory()
            .config(TsbConfig::small_pages())
            .open_tree()
            .unwrap();
        let txn = tree.begin_txn();
        tree.txn_insert(txn, 1000u64, b"pending".to_vec()).unwrap();
        for i in 0..120u64 {
            tree.insert(i % 12, format!("v{i}").into_bytes()).unwrap();
        }
        tree.verify().unwrap();
        tree.commit_txn(txn).unwrap();
        tree.verify().unwrap();
    }
}
