//! Configuration for the TSB-tree and the storage substrate.
//!
//! The paper's central tuning knobs are (a) **whether** to key-split or
//! time-split a full node (§3.2), (b) **which time** to split at when
//! time-splitting (§3.3), and (c) the **storage cost function**
//! `CS = SpaceM · CM + SpaceO · CO` that the policy may optimize (§3.2).
//! [`SplitPolicyKind`], [`SplitTimeChoice`], and [`CostParams`] expose exactly
//! those knobs; everything else is conventional storage-engine configuration
//! (page size, WORM sector size, node-cache size).

use crate::error::{TsbError, TsbResult};

/// How a full *data* node chooses between a key split and a time split.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum SplitPolicyKind {
    /// Mimic the Write-Once B-tree: always time-split at the *current* time;
    /// if the surviving current versions alone still overflow, follow with a
    /// key split (the WOBT's "split by key value and current time").
    WobtLike,
    /// Threshold policy (the paper's qualitative rule): if the fraction of
    /// entries that are *current* versions is at least
    /// `key_split_live_fraction`, do a key split (most data is live, so
    /// migrating would just duplicate it); otherwise do a time split
    /// (most data is historical, so migrate it).
    Threshold {
        /// Fraction of live entries at or above which a key split is chosen.
        /// `2/3` is a reasonable default; `1.0` means "time-split whenever
        /// any historical version exists".
        key_split_live_fraction: f64,
    },
    /// Always prefer key splits (minimizes total space and redundancy at the
    /// price of a larger current database). Time splits still happen when a
    /// key split is impossible (a single key fills the node).
    KeyPreferring,
    /// Always prefer time splits (minimizes the current database at the price
    /// of redundancy). Key splits still happen when a time split is useless
    /// (every entry is a current version).
    TimePreferring,
    /// Choose the split that minimizes the incremental storage cost under
    /// [`CostParams`], i.e. the paper's `CS = SpaceM·CM + SpaceO·CO`.
    CostBased,
    /// Never time split: every version stays in the current (magnetic) store
    /// and nodes are only ever key split. This degenerates into a
    /// conventional versioned B+-tree with all versions inline — the
    /// "single-store" baseline the paper argues against. (A node holding
    /// versions of a single key cannot be key split; in that corner case a
    /// time split is still performed so the structure can make progress.)
    KeyOnly,
}

impl Default for SplitPolicyKind {
    fn default() -> Self {
        SplitPolicyKind::Threshold {
            key_split_live_fraction: 2.0 / 3.0,
        }
    }
}

/// Which timestamp a time split uses (§3.3).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SplitTimeChoice {
    /// Split at the current time, as the WOBT is forced to do. Every version
    /// alive *now* is duplicated into the current node.
    CurrentTime,
    /// Split at the time of the last update (the newest commit timestamp of a
    /// *superseded* version). Insertions performed after the last update are
    /// then not carried into the historical node (§3.3's example), which is
    /// usually the best redundancy/space trade-off.
    #[default]
    LastUpdate,
    /// Split at the median commit timestamp present in the node: pushes the
    /// split time further back, moving less data to the historical store but
    /// keeping more historical data on magnetic disk.
    MedianVersion,
}

/// Whether a commit waits for the write-ahead log's `fsync`. Either way
/// the *append* is synchronous — a commit's records are written to the log
/// file before the engine touches the page store — and checkpoints always
/// sync; the policy chooses what an acknowledged commit survives, which is
/// where the durability-versus-throughput trade lives (measured by the
/// E12 experiment).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum FsyncPolicy {
    /// A commit is acknowledged only once an fsync covers its record (one
    /// fsync is shared by every commit waiting at that moment — group
    /// commit). No acknowledged commit can be lost to a power failure.
    #[default]
    Always,
    /// Never fsync explicitly; leave flushing to the operating system.
    /// A process crash loses nothing (the records are in the OS page
    /// cache); a power failure can lose everything since the last
    /// checkpoint. The fastest policy.
    Os,
}

/// Per-byte storage prices used by the cost function `CS` and by the
/// cost-based split policy. Units are arbitrary; only the ratio matters.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct CostParams {
    /// Cost per byte on the magnetic (current) store — the paper's `CM`.
    pub magnetic_cost_per_byte: f64,
    /// Cost per byte on the optical/WORM (historical) store — the paper's `CO`.
    pub worm_cost_per_byte: f64,
    /// Average access (seek + transfer) time for a magnetic-disk node, in
    /// milliseconds. Used by the access-time experiments.
    pub magnetic_access_ms: f64,
    /// Average access time for an optical-disk node, in milliseconds. The
    /// paper cites roughly a 3× slower seek for optical drives.
    pub worm_access_ms: f64,
    /// Time to mount an off-line optical platter from a robot library, in
    /// milliseconds (the paper cites ~20 s). Only charged by experiments that
    /// model platter exchange; 0 disables it.
    pub worm_mount_ms: f64,
}

impl Default for CostParams {
    fn default() -> Self {
        // The paper motivates the design with optical storage being
        // substantially cheaper per byte and ~3x slower to access.
        CostParams {
            magnetic_cost_per_byte: 10.0,
            worm_cost_per_byte: 1.0,
            magnetic_access_ms: 15.0,
            worm_access_ms: 45.0,
            worm_mount_ms: 0.0,
        }
    }
}

impl CostParams {
    /// The total storage cost `CS = SpaceM·CM + SpaceO·CO`.
    pub fn storage_cost(&self, magnetic_bytes: u64, worm_bytes: u64) -> f64 {
        magnetic_bytes as f64 * self.magnetic_cost_per_byte
            + worm_bytes as f64 * self.worm_cost_per_byte
    }
}

/// Configuration of a TSB-tree and its two stores.
#[derive(Clone, Debug)]
pub struct TsbConfig {
    /// Size of a magnetic-disk page in bytes (current nodes). Default 4096.
    pub page_size: usize,
    /// Size of a WORM sector in bytes (the smallest writable unit on the
    /// historical device). The paper cites ~1 KB sectors. Default 1024.
    pub worm_sector_size: usize,
    /// Number of clean decoded nodes the node cache holds (current pages
    /// and immutable historical nodes), split evenly over its shards.
    /// Descents served from this cache perform no decode at all. When a
    /// shard is full it evicts its coldest clean leaf, and a clean index
    /// node only when it holds no clean leaf, so index nodes — each on the
    /// path to every node below it — outlive leaves. Dirty nodes are pinned
    /// on top of this count until they are written back; the writer writes
    /// the oldest back once a shard holds more dirty nodes than its share.
    /// Default 512.
    pub node_cache_entries: usize,
    /// Maximum key length in bytes. Default 512.
    pub max_key_len: usize,
    /// How full (fraction of usable page bytes) a data node must be before an
    /// insertion triggers a split. Default 1.0 (split only when the entry no
    /// longer fits); values below 1.0 split earlier.
    pub split_fill_threshold: f64,
    /// Data-node split policy (§3.2).
    pub split_policy: SplitPolicyKind,
    /// Split-time choice for time splits (§3.3).
    pub split_time_choice: SplitTimeChoice,
    /// Storage cost parameters (§3.2's cost function).
    pub cost: CostParams,
    /// When an index node cannot be *locally* time split because a child
    /// current node still holds old data (Figure 9), mark that child so it is
    /// time split at its next split opportunity. This is the optimization the
    /// paper sketches at the end of §3.5.
    pub mark_recalcitrant_children: bool,
    /// Whether a commit waits for the write-ahead log's fsync (only
    /// meaningful for trees opened with a WAL attached; in-memory trees
    /// ignore it). Default [`FsyncPolicy::Always`].
    pub fsync_policy: FsyncPolicy,
}

impl Default for TsbConfig {
    fn default() -> Self {
        TsbConfig {
            page_size: 4096,
            worm_sector_size: 1024,
            node_cache_entries: 512,
            max_key_len: 512,
            split_fill_threshold: 1.0,
            split_policy: SplitPolicyKind::default(),
            split_time_choice: SplitTimeChoice::default(),
            cost: CostParams::default(),
            mark_recalcitrant_children: true,
            fsync_policy: FsyncPolicy::default(),
        }
    }
}

impl TsbConfig {
    /// A small-page configuration convenient for tests: nodes hold only a
    /// handful of entries so splits happen constantly.
    pub fn small_pages() -> Self {
        TsbConfig {
            page_size: 256,
            worm_sector_size: 64,
            node_cache_entries: 128,
            max_key_len: 64,
            ..TsbConfig::default()
        }
    }

    /// Validates the configuration, returning an error describing the first
    /// problem found.
    pub fn validate(&self) -> TsbResult<()> {
        if self.page_size < 128 {
            return Err(TsbError::config(format!(
                "page_size must be at least 128 bytes, got {}",
                self.page_size
            )));
        }
        if self.page_size > 1 << 24 {
            return Err(TsbError::config(format!(
                "page_size must be at most 16 MiB, got {}",
                self.page_size
            )));
        }
        if self.worm_sector_size < 32 {
            return Err(TsbError::config(format!(
                "worm_sector_size must be at least 32 bytes, got {}",
                self.worm_sector_size
            )));
        }
        if self.node_cache_entries < 8 {
            return Err(TsbError::config(format!(
                "node_cache_entries must be at least 8, got {}",
                self.node_cache_entries
            )));
        }
        if self.max_key_len == 0 || self.max_key_len > self.page_size / 4 {
            return Err(TsbError::config(format!(
                "max_key_len must be between 1 and page_size/4 ({}), got {}",
                self.page_size / 4,
                self.max_key_len
            )));
        }
        if !(0.1..=1.0).contains(&self.split_fill_threshold) {
            return Err(TsbError::config(format!(
                "split_fill_threshold must be in [0.1, 1.0], got {}",
                self.split_fill_threshold
            )));
        }
        if let SplitPolicyKind::Threshold {
            key_split_live_fraction,
        } = self.split_policy
        {
            if !(0.0..=1.0).contains(&key_split_live_fraction) {
                return Err(TsbError::config(format!(
                    "key_split_live_fraction must be in [0.0, 1.0], got {key_split_live_fraction}"
                )));
            }
        }
        if self.cost.magnetic_cost_per_byte < 0.0 || self.cost.worm_cost_per_byte < 0.0 {
            return Err(TsbError::config(
                "storage costs must be non-negative".to_string(),
            ));
        }
        Ok(())
    }

    /// Builder-style setter for the split policy.
    pub fn with_split_policy(mut self, policy: SplitPolicyKind) -> Self {
        self.split_policy = policy;
        self
    }

    /// Builder-style setter for the split-time choice.
    pub fn with_split_time_choice(mut self, choice: SplitTimeChoice) -> Self {
        self.split_time_choice = choice;
        self
    }

    /// Builder-style setter for the page size.
    pub fn with_page_size(mut self, page_size: usize) -> Self {
        self.page_size = page_size;
        self
    }

    /// Builder-style setter for the WORM sector size.
    pub fn with_worm_sector_size(mut self, sector_size: usize) -> Self {
        self.worm_sector_size = sector_size;
        self
    }

    /// Builder-style setter for the cost parameters.
    pub fn with_cost(mut self, cost: CostParams) -> Self {
        self.cost = cost;
        self
    }

    /// Builder-style setter for the decoded-node cache capacity.
    pub fn with_node_cache_entries(mut self, entries: usize) -> Self {
        self.node_cache_entries = entries;
        self
    }

    /// Builder-style setter for the WAL fsync policy.
    pub fn with_fsync_policy(mut self, policy: FsyncPolicy) -> Self {
        self.fsync_policy = policy;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        TsbConfig::default().validate().unwrap();
        TsbConfig::small_pages().validate().unwrap();
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let cases: Vec<TsbConfig> = vec![
            TsbConfig {
                page_size: 16,
                ..TsbConfig::default()
            },
            TsbConfig {
                worm_sector_size: 4,
                ..TsbConfig::default()
            },
            TsbConfig {
                // Larger than page_size / 4.
                max_key_len: TsbConfig::default().page_size,
                ..TsbConfig::default()
            },
            TsbConfig {
                node_cache_entries: 2,
                ..TsbConfig::default()
            },
            TsbConfig {
                split_fill_threshold: 0.0,
                ..TsbConfig::default()
            },
            TsbConfig {
                split_policy: SplitPolicyKind::Threshold {
                    key_split_live_fraction: 1.5,
                },
                ..TsbConfig::default()
            },
            TsbConfig {
                cost: CostParams {
                    worm_cost_per_byte: -1.0,
                    ..CostParams::default()
                },
                ..TsbConfig::default()
            },
        ];
        for (i, c) in cases.iter().enumerate() {
            assert!(c.validate().is_err(), "case {i} should be rejected");
        }
    }

    #[test]
    fn builders_compose() {
        let c = TsbConfig::default()
            .with_page_size(8192)
            .with_worm_sector_size(2048)
            .with_split_policy(SplitPolicyKind::TimePreferring)
            .with_split_time_choice(SplitTimeChoice::CurrentTime);
        assert_eq!(c.page_size, 8192);
        assert_eq!(c.worm_sector_size, 2048);
        assert_eq!(c.split_policy, SplitPolicyKind::TimePreferring);
        assert_eq!(c.split_time_choice, SplitTimeChoice::CurrentTime);
        c.validate().unwrap();
    }

    #[test]
    fn cost_function_matches_paper_formula() {
        let p = CostParams {
            magnetic_cost_per_byte: 10.0,
            worm_cost_per_byte: 1.0,
            ..CostParams::default()
        };
        // CS = SpaceM * CM + SpaceO * CO
        assert_eq!(p.storage_cost(100, 1000), 100.0 * 10.0 + 1000.0 * 1.0);
        assert_eq!(p.storage_cost(0, 0), 0.0);
    }
}
