//! The WOBT handle: configuration, node I/O over the WORM store, creation,
//! and the root list.

use std::sync::Arc;

use tsb_common::{Key, LogicalClock, Timestamp, TsbError, TsbResult, Version};
use tsb_storage::{IoStats, WormStore};

use crate::node::{
    decode_sector, encode_data_sector, ExtentId, WobtEntries, WobtIndexEntry, WobtNode,
    WobtNodeKind,
};

/// Configuration of a Write-Once B-tree.
#[derive(Clone, Debug)]
pub struct WobtConfig {
    /// WORM sector size in bytes; must match the store's sector size.
    pub sector_size: usize,
    /// Number of sectors per node extent (data and index nodes alike).
    pub node_sectors: u64,
    /// Maximum key length in bytes.
    pub max_key_len: usize,
}

impl Default for WobtConfig {
    fn default() -> Self {
        WobtConfig {
            sector_size: 1024,
            node_sectors: 8,
            max_key_len: 512,
        }
    }
}

impl WobtConfig {
    /// A small configuration for tests: tiny sectors and extents so splits
    /// happen constantly.
    pub fn small() -> Self {
        WobtConfig {
            sector_size: 128,
            node_sectors: 4,
            max_key_len: 64,
        }
    }

    /// Validates the configuration.
    pub fn validate(&self) -> TsbResult<()> {
        if self.sector_size < 32 {
            return Err(TsbError::config(format!(
                "sector_size must be at least 32 bytes, got {}",
                self.sector_size
            )));
        }
        if self.node_sectors < 2 {
            return Err(TsbError::config(format!(
                "node_sectors must be at least 2, got {}",
                self.node_sectors
            )));
        }
        if self.max_key_len == 0 || self.max_key_len > self.sector_size / 2 {
            return Err(TsbError::config(format!(
                "max_key_len must be between 1 and sector_size/2 ({}), got {}",
                self.sector_size / 2,
                self.max_key_len
            )));
        }
        Ok(())
    }

    /// Bytes available to a node's consolidated content when a split creates
    /// it: half the extent, leaving the other half for future one-per-sector
    /// insertions.
    pub fn consolidation_budget(&self) -> usize {
        (self.node_sectors as usize).div_ceil(2) * self.sector_size
    }
}

/// Easton's Write-Once B-tree, stored entirely on the write-once device.
pub struct Wobt {
    pub(crate) cfg: WobtConfig,
    pub(crate) worm: Arc<WormStore>,
    pub(crate) clock: LogicalClock,
    pub(crate) root: ExtentId,
    pub(crate) root_history: Vec<ExtentId>,
}

impl std::fmt::Debug for Wobt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wobt")
            .field("root", &self.root)
            .field("roots", &self.root_history.len())
            .field("node_sectors", &self.cfg.node_sectors)
            .finish()
    }
}

impl Wobt {
    /// Creates a fresh WOBT with its own in-memory WORM store.
    pub fn new_in_memory(cfg: WobtConfig) -> TsbResult<Self> {
        let stats = Arc::new(IoStats::new());
        let worm = Arc::new(WormStore::in_memory(cfg.sector_size, stats));
        Self::create(worm, cfg)
    }

    /// Creates a fresh WOBT on the provided WORM store.
    pub fn create(worm: Arc<WormStore>, cfg: WobtConfig) -> TsbResult<Self> {
        cfg.validate()?;
        if worm.sector_size() != cfg.sector_size {
            return Err(TsbError::config(format!(
                "WORM store sector size {} does not match config sector size {}",
                worm.sector_size(),
                cfg.sector_size
            )));
        }
        // The initial root is an empty data node: burn its first sector so
        // the node exists on the device.
        let first = worm.allocate_extent(cfg.node_sectors)?;
        let root = ExtentId(first.0);
        worm.write_sector(root.first_sector(), &encode_data_sector(&[], None))?;
        Ok(Wobt {
            cfg,
            worm,
            clock: LogicalClock::new(),
            root,
            root_history: vec![root],
        })
    }

    /// The configuration.
    pub fn config(&self) -> &WobtConfig {
        &self.cfg
    }

    /// The WORM store backing the tree.
    pub fn worm(&self) -> &Arc<WormStore> {
        &self.worm
    }

    /// The shared I/O statistics.
    pub fn io_stats(&self) -> &Arc<IoStats> {
        self.worm.stats()
    }

    /// The current logical time.
    pub fn now(&self) -> Timestamp {
        self.clock.now()
    }

    /// The list of successive roots, oldest first (§2.4: "a list of
    /// successive addresses for the root nodes must also be kept").
    pub fn root_history(&self) -> &[ExtentId] {
        &self.root_history
    }

    // ----- node I/O -------------------------------------------------------

    /// Reads a node: the concatenation of its written sectors, in order.
    pub(crate) fn read_node(&self, extent: ExtentId) -> TsbResult<WobtNode> {
        self.worm.stats().record_historical_node_access();
        let mut kind: Option<WobtNodeKind> = None;
        let mut back_pointer = None;
        let mut data: Vec<Version> = Vec::new();
        let mut index: Vec<WobtIndexEntry> = Vec::new();
        let mut sectors_used = 0u64;
        for i in 0..self.cfg.node_sectors {
            let sector = extent.sector(i);
            if !self.worm.is_sector_written(sector) {
                break;
            }
            let decoded = decode_sector(&self.worm.read_sector(sector)?)?;
            match kind {
                None => kind = Some(decoded.kind),
                Some(k) if k != decoded.kind => {
                    return Err(TsbError::corruption(format!(
                        "extent {extent} mixes data and index sectors"
                    )))
                }
                Some(_) => {}
            }
            if i == 0 {
                back_pointer = decoded.back_pointer;
            }
            match decoded.entries {
                WobtEntries::Data(mut v) => data.append(&mut v),
                WobtEntries::Index(mut v) => index.append(&mut v),
            }
            sectors_used += 1;
        }
        let kind = kind.ok_or_else(|| {
            TsbError::corruption(format!("extent {extent} has no written sectors"))
        })?;
        let entries = match kind {
            WobtNodeKind::Data => WobtEntries::Data(data),
            WobtNodeKind::Index => WobtEntries::Index(index),
        };
        Ok(WobtNode {
            kind,
            entries,
            sectors_used,
            back_pointer,
        })
    }

    /// Allocates a new extent and burns the given pre-packed sector images
    /// into its first sectors. Fails if there are more images than sectors in
    /// an extent.
    pub(crate) fn write_new_node(&self, sector_images: &[Vec<u8>]) -> TsbResult<ExtentId> {
        if sector_images.len() as u64 > self.cfg.node_sectors {
            return Err(TsbError::internal(format!(
                "node needs {} sectors but extents have only {}",
                sector_images.len(),
                self.cfg.node_sectors
            )));
        }
        let first = self.worm.allocate_extent(self.cfg.node_sectors)?;
        let extent = ExtentId(first.0);
        for (i, image) in sector_images.iter().enumerate() {
            self.worm.write_sector(extent.sector(i as u64), image)?;
        }
        Ok(extent)
    }

    /// Burns one more sector of an existing node. The caller must have
    /// checked that the extent has a free sector.
    pub(crate) fn append_sector(&self, extent: ExtentId, used: u64, image: &[u8]) -> TsbResult<()> {
        if used >= self.cfg.node_sectors {
            return Err(TsbError::internal(format!(
                "extent {extent} is already full"
            )));
        }
        self.worm.write_sector(extent.sector(used), image)
    }

    // ----- search ---------------------------------------------------------

    /// The descent path for `key` as of `as_of`: `(extent, separator key)`
    /// pairs from the root to the leaf. The separator key is the key of the
    /// index entry followed to reach the node (the root's separator is the
    /// minimum key).
    pub(crate) fn descend_path(
        &self,
        key: &Key,
        as_of: Timestamp,
    ) -> TsbResult<Vec<(ExtentId, Key)>> {
        let mut path = vec![(self.root, Key::MIN)];
        loop {
            let (extent, _) = *path.last().expect("path starts non-empty");
            let node = self.read_node(extent)?;
            match node.kind {
                WobtNodeKind::Data => return Ok(path),
                WobtNodeKind::Index => {
                    let entries = node.index_entries()?;
                    let mut best: Option<&WobtIndexEntry> = None;
                    for e in entries {
                        if e.ts > as_of || e.key > *key {
                            continue;
                        }
                        match best {
                            None => best = Some(e),
                            Some(b) if e.key >= b.key => best = Some(e),
                            Some(_) => {}
                        }
                    }
                    let best = best.ok_or_else(|| {
                        TsbError::corruption(format!(
                            "WOBT index node {extent} has no entry routing key {key} as of {as_of}"
                        ))
                    })?;
                    path.push((best.child, best.key.clone()));
                }
            }
        }
    }

    /// The newest committed value of `key`, or `None` if absent or deleted.
    pub fn get_current(&self, key: &Key) -> TsbResult<Option<Vec<u8>>> {
        self.get_as_of(key, Timestamp::MAX)
    }

    /// The value of `key` as of time `ts` (§2.5's rollback search).
    pub fn get_as_of(&self, key: &Key, ts: Timestamp) -> TsbResult<Option<Vec<u8>>> {
        let path = self.descend_path(key, ts)?;
        let (leaf, _) = *path.last().expect("non-empty path");
        let node = self.read_node(leaf)?;
        let entries = node.data_entries()?;
        let governing = entries
            .iter()
            .filter(|v| v.key == *key)
            .rfind(|v| v.commit_time().map(|t| t <= ts).unwrap_or(false));
        Ok(governing
            .filter(|v| !v.is_tombstone())
            .and_then(|v| v.value.clone()))
    }

    /// Number of nodes visited by an as-of lookup (for the experiments).
    pub fn lookup_node_accesses(&self, key: &Key, ts: Timestamp) -> TsbResult<usize> {
        Ok(self.descend_path(key, ts)?.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_validation() {
        WobtConfig::default().validate().unwrap();
        WobtConfig::small().validate().unwrap();
        let c = WobtConfig {
            sector_size: 4,
            ..WobtConfig::default()
        };
        assert!(c.validate().is_err());
        let c = WobtConfig {
            node_sectors: 1,
            ..WobtConfig::default()
        };
        assert!(c.validate().is_err());
        let c = WobtConfig {
            max_key_len: WobtConfig::default().sector_size,
            ..WobtConfig::default()
        };
        assert!(c.validate().is_err());
        assert_eq!(WobtConfig::small().consolidation_budget(), 2 * 128);
    }

    #[test]
    fn create_rejects_mismatched_sector_size() {
        let stats = Arc::new(IoStats::new());
        let worm = Arc::new(WormStore::in_memory(256, stats));
        let cfg = WobtConfig {
            sector_size: 128,
            ..WobtConfig::small()
        };
        assert!(Wobt::create(worm, cfg).is_err());
    }

    #[test]
    fn empty_tree_reads_nothing() {
        let w = Wobt::new_in_memory(WobtConfig::small()).unwrap();
        assert!(w.get_current(&Key::from_u64(1)).unwrap().is_none());
        assert!(w
            .get_as_of(&Key::from_u64(1), Timestamp(100))
            .unwrap()
            .is_none());
        assert_eq!(w.root_history().len(), 1);
        assert_eq!(
            w.lookup_node_accesses(&Key::from_u64(1), Timestamp::MAX)
                .unwrap(),
            1
        );
    }
}
