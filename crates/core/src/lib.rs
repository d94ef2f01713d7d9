//! # tsb-core — the Time-Split B-tree
//!
//! A reproduction of **Lomet & Salzberg, "Access Methods for Multiversion
//! Data", SIGMOD 1989**: a single integrated index over a versioned,
//! timestamped database with a non-deletion policy, in which
//!
//! * the **current database** (newest versions) lives on an erasable,
//!   random-access store ([`tsb_storage::MagneticStore`]), and
//! * the **historical database** (superseded versions) is consolidated and
//!   appended to a write-once store ([`tsb_storage::WormStore`]),
//!
//! with data migrating incrementally from the former to the latter, one node
//! at a time, whenever a node is *time split*.
//!
//! ## What the crate provides
//!
//! * [`ShardedTsb`] — the engine, and the one implementor of
//!   [`EngineHandle`], the object-safe surface an engine serves through.
//!   It answers point lookups (current and as-of-time), range scans and
//!   snapshots at any past time, and per-record version histories, and
//!   every write goes through it: inserts/updates/logical deletes, with
//!   incremental migration driven by configurable split policies
//!   ([`tsb_common::SplitPolicyKind`], [`tsb_common::SplitTimeChoice`]).
//!   It hash-partitions the keyspace over
//!   N shards (one is the unsharded case) that share one WAL, group-commit
//!   pipeline and checkpoint under one global commit clock. Each shard
//!   serializes its writes and serves lock-free concurrent reads against
//!   immutable historical nodes with seqlock-validated descents, behind an
//!   install fence; [`ShardedSnapshot`]s are lock-free read-only
//!   transactions pinned at one fence across every shard (§4.1), and
//!   writer transactions' uncommitted versions carry no timestamp, are
//!   never migrated, and are erased on abort (§4); a cross-shard
//!   transaction commits as one fence (see [`sharded`]). A replica is a
//!   `ShardedTsb` whose one writer applies a shipped log (see [`replica`]).
//! * [`TsbOptions`] — the one door: every engine that comes from a
//!   configuration or a directory is opened through it (see [`options`]).
//! * [`TsbTree`] — one shard's index, read back from a directory a
//!   `ShardedTsb` wrote ([`TsbOptions::open_tree`]); all it answers
//!   outside this crate is its census, [`TsbTree::tree_stats`]. Nodes,
//!   splits, the tree's own verbs and the verifier are the engine's
//!   internals: the crate exports an engine, not a tree kit.
//! * [`SecondaryIndex`] — `<timestamp, secondary key, primary key>` indexes,
//!   themselves TSB-trees (§3.6).
//! * **Durability** — [`TsbOptions::durable`] /
//!   [`EngineHandle::checkpoint`]: a write-ahead redo log
//!   ([`tsb_storage::Wal`]) makes the erasable current database
//!   crash-consistent (the WORM side is durable by hardware). Every
//!   mutation's page images are logged before they may dirty a page, a
//!   commit fence ends each mutation, checkpoints fence replay, and
//!   recovery replays the log, erases in-flight transactions, and
//!   verifies before serving. Group commit ([`tsb_common::FsyncPolicy`])
//!   sits on top.
//! * [`TreeStats`] / [`EngineHandle::verify`] — the measurements the
//!   paper's evaluation plan calls for (total space, current-database
//!   space, redundancy; [`ShardedTsb::tree_stats`]) and a full structural
//!   invariant checker.
//!
//! ## Quick start
//!
//! ```
//! use tsb_common::{Key, TsbConfig};
//! use tsb_core::EngineHandle;
//!
//! let db = tsb_core::TsbOptions::in_memory().config(TsbConfig::default()).open().unwrap();
//!
//! // A tiny account history (Figure 1's stepwise-constant data).
//! let t_open = db.insert(Key::from("acct-42"), b"balance=100".to_vec()).unwrap();
//! let t_deposit = db.insert(Key::from("acct-42"), b"balance=250".to_vec()).unwrap();
//!
//! // Current state.
//! assert_eq!(db.get_current(&Key::from("acct-42")).unwrap().unwrap(), b"balance=250".to_vec());
//! // The balance as of any moment between the two transactions is the
//! // earlier one.
//! assert_eq!(db.get_as_of(&Key::from("acct-42"), t_open).unwrap().unwrap(), b"balance=100".to_vec());
//! // Full history of the record.
//! assert_eq!(db.versions(&Key::from("acct-42")).unwrap().len(), 2);
//! // Snapshot of the whole database at a past time, without locks.
//! let snapshot = db.snapshot_at(t_deposit).unwrap();
//! assert_eq!(snapshot.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod concurrent;
pub mod engine;
pub mod epoch;
mod node;
pub mod options;
pub mod replica;
pub mod secondary;
pub mod sharded;
mod split;
mod stats;
mod tree;
mod txn;
mod verify;

pub use engine::{EngineHandle, EngineRole};
pub use options::TsbOptions;
pub use replica::{ReplicaBase, ReplicaStatus, ReplicationSource, ShardImage, ShippedBatch};
pub use secondary::SecondaryIndex;
pub use sharded::{ShardLsn, ShardedSnapshot, ShardedTsb};
pub use stats::TreeStats;
pub use tree::TsbTree;

// Re-export the shared vocabulary so that downstream users only need this
// crate for typical use.
pub use tsb_common::{
    CostParams, FsyncPolicy, Key, KeyBound, KeyRange, SplitPolicyKind, SplitTimeChoice, TimeBound,
    TimeRange, Timestamp, TsState, TsbConfig, TsbError, TsbResult, TxnId, Version,
};
// Durability vocabulary: log positions and the fault plumbing the
// recovery test matrix drives.
pub use tsb_storage::{CrashPoint, FaultInjector, Lsn, PageId};
