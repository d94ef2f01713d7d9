//! Node splitting: policy (key vs. time), split-time choice, and the pure
//! partitioning mechanics for data and index nodes.
//!
//! The TSB-tree's contribution over the WOBT is concentrated here (§3):
//! pure B+-tree-style key splits, time splits at a *chosen* time rather than
//! the current time, the TIME-SPLIT RULE that keeps the version valid at the
//! split time in the current node, the Index Node Keyspace Split Rule that
//! duplicates straddling historical references, and local index time splits
//! constrained to never place a current reference in a write-once index
//! node.
//!
//! The functions in these modules are pure (they operate on entry slices and
//! return partitions); the tree's insert path performs the device I/O.

mod data_split;
mod index_split;
mod policy;
mod time_choice;

pub(crate) use data_split::{choose_split_key, partition_by_key, partition_by_time};
pub(crate) use index_split::{
    choose_index_split_key, local_time_split_point, partition_index_by_key, partition_index_by_time,
};
pub(crate) use policy::{plan_data_split, SplitPlan};
pub(crate) use time_choice::choose_split_time;

#[cfg(test)]
mod tests;
