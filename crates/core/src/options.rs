//! [`TsbOptions`] — the one front door for opening an engine.
//!
//! Every engine that is opened from a configuration or a directory is
//! opened here; there is no per-flavour constructor to reach for instead.
//! One chain names each decision once:
//!
//! ```no_run
//! use tsb_common::FsyncPolicy;
//! use tsb_core::TsbOptions;
//!
//! // A durable, 4-way sharded engine with per-commit fsync.
//! let db = TsbOptions::durable("/var/lib/tsb")
//!     .fsync(FsyncPolicy::Always)
//!     .shards(4)
//!     .open()?;
//! # let _ = db; Ok::<(), tsb_core::TsbError>(())
//! ```
//!
//! Three terminal methods: two open the engine, the third reads back what
//! it wrote.
//!
//! * [`TsbOptions::open`] — a [`ShardedTsb`], *the* concurrent engine:
//!   one writer and lock-free readers per shard, every temporal query of
//!   the paper, and the one implementor of [`crate::EngineHandle`]. One
//!   shard is the common case, costs nothing extra, and can feed replicas;
//!   more shards only add scale.
//! * [`TsbOptions::open_replica`] — a [`ShardedTsb`] too, whose one
//!   writer is the log applier: it awaits (or recovers) a shipped log at
//!   the directory and refuses every write verb until promoted.
//! * [`TsbOptions::open_tree`] — a bare [`TsbTree`], one shard's index
//!   read back from a directory an engine wrote. Outside this crate it
//!   answers one question, its census ([`TsbTree::tree_stats`]).
//!
//! Every write goes through an engine, and every reopen is recovery: a
//! tree's state lives in its log's fences alone, so [`TsbOptions::open`]
//! and [`TsbOptions::open_tree`] on a durable directory both replay its
//! log.

use std::path::PathBuf;
use std::sync::Arc;

use tsb_common::{FsyncPolicy, LogicalClock, TsbConfig, TsbError, TsbResult};

use crate::sharded::ShardedTsb;
use crate::tree::TsbTree;

/// Builder for every way of opening an engine; see the module docs.
#[derive(Clone, Debug)]
pub struct TsbOptions {
    dir: Option<PathBuf>,
    cfg: TsbConfig,
    shards: usize,
    reference_image_log: bool,
}

impl TsbOptions {
    /// Starts options for an in-memory (non-durable) engine.
    pub fn in_memory() -> TsbOptions {
        TsbOptions {
            dir: None,
            cfg: TsbConfig::default(),
            shards: 1,
            reference_image_log: false,
        }
    }

    /// Starts options for a durable engine rooted at `dir` (created on
    /// first open, recovered on reopen).
    pub fn durable(dir: impl Into<PathBuf>) -> TsbOptions {
        TsbOptions {
            dir: Some(dir.into()),
            cfg: TsbConfig::default(),
            shards: 1,
            reference_image_log: false,
        }
    }

    /// Replaces the whole configuration (for knobs without a dedicated
    /// builder method, e.g. split policies).
    pub fn config(mut self, cfg: TsbConfig) -> TsbOptions {
        self.cfg = cfg;
        self
    }

    /// Sets the commit fsync policy (durable engines only; ignored
    /// in memory).
    pub fn fsync(mut self, policy: FsyncPolicy) -> TsbOptions {
        self.cfg = self.cfg.with_fsync_policy(policy);
        self
    }

    /// Not a product option: makes the trees [`Self::open`] and
    /// [`Self::open_tree`] return log a full page image for every rewrite instead of first-touch images + deltas
    /// — the reference the shipped log is tested against
    /// (`delta_replay_equals_image_replay`,
    /// `replica_equals_primary_durable_prefix`). In memory, and for a
    /// replica, it changes nothing.
    #[doc(hidden)]
    pub fn reference_image_log(mut self) -> TsbOptions {
        self.reference_image_log = true;
        self
    }

    /// Swaps in the small-page test configuration (tiny nodes so splits
    /// happen early), preserving the fsync policy already chosen.
    pub fn small_pages(mut self) -> TsbOptions {
        self.cfg = TsbConfig::small_pages().with_fsync_policy(self.cfg.fsync_policy);
        self
    }

    /// Sets the shard count for [`Self::open`] (default 1): a choice of
    /// scale only, since every count answers the same queries.
    /// [`Self::open_tree`] refuses counts above 1; [`Self::open_replica`]
    /// refuses any count, since a replica takes its primary's.
    pub fn shards(mut self, shards: usize) -> TsbOptions {
        self.shards = shards;
        self
    }

    /// Opens a [`ShardedTsb`] primary with these options (one shard
    /// unless [`Self::shards`] said otherwise).
    ///
    /// On disk, one shard lives directly in the directory
    /// (`current.pages` / `history.worm` / `redo.wal`); N > 1 shards keep
    /// their stores in `shard-NNN/` subdirectories beside one `redo.wal`
    /// and a `shards.manifest`. Reopening with a contradicting shard count
    /// is a hard error, because the hash partition is only stable while N
    /// is; a directory of the first sharded layout (a log per shard) is
    /// [`TsbError::OldLayout`].
    pub fn open(self) -> TsbResult<ShardedTsb> {
        let Some(dir) = &self.dir else {
            return ShardedTsb::open_in_memory(self.shards, self.cfg);
        };
        let mut db = ShardedTsb::open_durable(dir, self.shards, self.cfg)?;
        if self.reference_image_log {
            db.log_images_only();
        }
        Ok(db)
    }

    /// Opens a bare [`TsbTree`]: in memory an empty one, durable the tree
    /// a [`ShardedTsb`] left at the directory. Outside this crate all it
    /// answers is [`TsbTree::tree_stats`], the census
    /// [`ShardedTsb::tree_stats`] gives of a live engine.
    ///
    /// Durable: the directory holds the magnetic store (`current.pages`),
    /// the WORM store (`history.worm`), and the redo log (`redo.wal`) —
    /// or it is the `shard-NNN/` directory of a sharded engine, whose
    /// stores it holds and whose log it shares: that shard's tree is
    /// opened, recovered with the engine it belongs to.
    ///
    /// * A fresh directory creates a new tree, fenced from its first
    ///   instant.
    /// * A directory with durable state runs crash-consistent recovery
    ///   (`tree/recover.rs`) — the same code path whether the last
    ///   session shut down cleanly (the log's tail is a checkpoint; replay
    ///   is empty) or died mid-write.
    /// * A directory where *nothing* was ever durably committed (a crash
    ///   inside the very first create before its checkpoint fence) is
    ///   recreated; no acknowledged state can be lost because none ever
    ///   existed. A directory that holds *real store data* but no usable
    ///   log — a pre-WAL database, or a lost/deleted `redo.wal` — is a hard
    ///   error instead: recreating it would destroy data this method
    ///   cannot prove disposable.
    pub fn open_tree(self) -> TsbResult<TsbTree> {
        if self.shards != 1 {
            return Err(TsbError::config(format!(
                "a bare tree is one shard but {} shards were requested \
                 (use .open() for a sharded engine)",
                self.shards
            )));
        }
        let mut tree = match &self.dir {
            Some(dir) => ShardedTsb::open_tree(dir, self.cfg),
            None => TsbTree::new_in_memory_with_clock(self.cfg, Arc::new(LogicalClock::new())),
        }?;
        // Every record an open path itself logs (recovery's repairs, a
        // fresh tree's root) is already a full image, so choosing the
        // reference mode after the open loses nothing.
        tree.log_images_only = self.reference_image_log;
        Ok(tree)
    }

    /// Opens the replica at the directory: recovers a local log copy if
    /// one is usable, else starts with no shard, answering reads with a
    /// not-serving error until [`ShardedTsb::install_base`]. Durable only
    /// (a replica *is* its local log copy). Its shard count is its
    /// primary's, read from the base image and, on reopen, from the
    /// directory, which is laid out as a primary of that count is.
    pub fn open_replica(self) -> TsbResult<ShardedTsb> {
        let Some(dir) = self.dir else {
            return Err(TsbError::config(
                "a replica needs a directory: use TsbOptions::durable(dir)",
            ));
        };
        if self.shards != 1 {
            return Err(TsbError::config(
                "a replica takes its shard count from its primary; do not set one",
            ));
        }
        ShardedTsb::open_replica(&dir, self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EngineHandle;
    use tsb_common::Key;

    #[test]
    fn builder_opens_each_flavour() {
        let tree = TsbOptions::in_memory().small_pages().open_tree().unwrap();
        assert_eq!(tree.config().page_size, TsbConfig::small_pages().page_size);

        let db = TsbOptions::in_memory().open().unwrap();
        db.insert(Key::from_u64(1), b"x".to_vec()).unwrap();
        assert_eq!(db.shard_count(), 1);

        let sharded = TsbOptions::in_memory().shards(4).open().unwrap();
        assert_eq!(sharded.shard_count(), 4);

        assert!(TsbOptions::in_memory().shards(2).open_tree().is_err());
        assert!(TsbOptions::in_memory().open_replica().is_err());
        // Refused before the directory is touched.
        let replica = TsbOptions::durable("unused").shards(2).open_replica();
        assert!(matches!(replica, Err(TsbError::Config(_))));
    }

    #[test]
    fn small_pages_preserves_durability_knobs() {
        let opts = TsbOptions::in_memory()
            .fsync(FsyncPolicy::Os)
            .reference_image_log()
            .small_pages();
        assert_eq!(opts.cfg.fsync_policy, FsyncPolicy::Os);
        assert!(opts.reference_image_log);
        assert_eq!(opts.cfg.page_size, TsbConfig::small_pages().page_size);
    }
}
