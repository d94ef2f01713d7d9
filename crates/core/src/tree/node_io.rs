//! Node I/O: how a node travels between the decoded-node cache and the
//! two devices — reads and cache fills, the write-install path (log first,
//! then the cache), dirty write-back, page allocation — and the metadata
//! page. The node cache is the only cache: a miss reads the device, and a
//! write-back writes it.

use std::collections::HashSet;
use std::sync::Arc;

use tsb_common::encode::{ByteReader, ByteWriter};
use tsb_common::{Timestamp, TsbError, TsbResult};
use tsb_storage::{HistAddr, PageId, PageOp, WalRecord};

#[cfg(debug_assertions)]
use super::replay::ReplayPage;
use super::TsbTree;
use crate::node::{Node, NodeAddr};

/// Magic number opening the metadata encoding.
const META_MAGIC: u64 = 0x5453_4254_5245_4531; // "TSBTREE1"

impl TsbTree {
    /// Usable bytes for an encoded node on a magnetic page.
    pub(crate) fn page_capacity(&self) -> usize {
        self.magnetic.capacity()
    }

    /// The size at which an insertion triggers a split.
    pub(crate) fn split_threshold(&self) -> usize {
        (self.page_capacity() as f64 * self.cfg.split_fill_threshold) as usize
    }

    /// Reads the node at `addr`, recording a logical node access. Served
    /// from the decoded-node cache when possible — a hit performs no decode
    /// and no page-image copy, just a shared handle.
    pub(crate) fn read_node(&self, addr: NodeAddr) -> TsbResult<Arc<Node>> {
        self.check_not_poisoned()?;
        match addr {
            NodeAddr::Current(_) => self.stats.record_current_node_access(),
            NodeAddr::Historical(_) => self.stats.record_historical_node_access(),
        }
        let fill_stamp = match self.cache.begin_fill(addr) {
            Ok(node) => {
                self.stats.record_node_cache_hit();
                return Ok(node);
            }
            Err(stamp) => stamp,
        };
        self.stats.record_node_cache_miss();
        let decoded = Arc::new(self.decode_node_at(addr)?);
        // Caching a clean node is pure in-memory bookkeeping (dirty entries
        // are pinned against eviction), so the read path never writes a
        // page or forces the log: its only I/O is the read above. The fill
        // is stamp-validated: if the writer changed this cache shard's
        // contents while we were decoding, our decode may be stale and is
        // returned *uncached* (still a legal answer for a read that began
        // before the write installed); a resident entry always wins.
        Ok(self.cache.complete_fill(addr, decoded, fill_stamp))
    }

    /// Decodes the node at `addr` from its device image (magnetic store for
    /// current pages, WORM store for historical nodes), bypassing the
    /// decoded-node cache.
    fn decode_node_at(&self, addr: NodeAddr) -> TsbResult<Node> {
        Node::decode(self.read_image(addr)?)
    }

    /// The device image of the node at `addr`, as a buffer the decoded node
    /// takes over as its body: either device's read hands back a buffer of
    /// its own.
    fn read_image(&self, addr: NodeAddr) -> TsbResult<Vec<u8>> {
        self.stats.record_node_decode();
        match addr {
            NodeAddr::Current(page) => self.magnetic.read(page),
            NodeAddr::Historical(hist) => self.worm.read(hist),
        }
    }

    /// Reads and decodes the node at `addr` directly from the devices. Any
    /// pending dirty state *for that address* is flushed first so its
    /// device image is the newest one (other deferred encodes stay
    /// deferred). Diagnostic surface used to check cache coherence.
    pub fn read_node_bypass(&self, addr: NodeAddr) -> TsbResult<Node> {
        self.flush_dirty_node_at(addr)?;
        self.decode_node_at(addr)
    }

    /// Installs the newest version of a current node after a **structural**
    /// rewrite (split piece, migration survivor, root growth, node
    /// initialization, wholesale repair): the redo log always receives the
    /// full page image. Content-only rewrites should use
    /// [`Self::write_current_delta`] instead.
    pub(crate) fn write_current(&self, page: PageId, node: Node) -> TsbResult<()> {
        self.write_current_inner(page, node, Vec::new())
    }

    /// Installs the newest version of a current node after a
    /// **content-only** rewrite fully described by `ops` (the logical redo
    /// deltas that turn the node's previous state into `node`). The first
    /// dirtying of the page per checkpoint interval still logs the full
    /// image (the replay base); every later call logs only `ops` — tens of
    /// bytes instead of a page. `ops` may be empty when nothing would
    /// consume them (see [`Self::logs_deltas`]).
    pub(crate) fn write_current_delta(
        &self,
        page: PageId,
        node: Node,
        ops: Vec<PageOp>,
    ) -> TsbResult<()> {
        self.write_current_inner(page, node, ops)
    }

    /// Shared write-install path. The node goes into the decoded-node
    /// cache marked dirty; the encode into its page image is deferred
    /// until the entry is evicted or the tree flushes, so a hot leaf
    /// rewritten many times between flushes encodes once.
    fn write_current_inner(&self, page: PageId, node: Node, ops: Vec<PageOp>) -> TsbResult<()> {
        let size = node.encoded_size();
        if size > self.page_capacity() {
            return Err(TsbError::internal(format!(
                "attempted to write a {}-byte node into a {}-byte page; splitting should have prevented this",
                size,
                self.page_capacity()
            )));
        }
        // WAL-before-page: the redo record(s) go into the log *before* the
        // cache may hold the node dirty. If an append fails nothing has
        // changed in memory, so the error is clean (though the tree is
        // poisoned — the log device is gone).
        //
        // First-touch rule: a page's first dirtying per checkpoint
        // interval logs its full image whatever the caller offered —
        // recovery replays deltas against in-log images only, never the
        // (possibly torn, possibly never-written) device page. After that,
        // a content-only rewrite with ops logs just the deltas; the full
        // encode this path used to pay per mutation happens only on first
        // touch and structural rewrites.
        if let Some(d) = &self.durability {
            let first_touch = d.pages.first_touch(page);
            if first_touch || ops.is_empty() || self.log_images_only {
                let record = WalRecord::PageImage {
                    page,
                    bytes: node.encode(),
                };
                let lsn = self.wal_append(&record)?;
                d.pages.record(page, lsn);
            } else {
                // Caller contract, cross-checked in debug builds: the ops
                // must derive `node` from the page's logged state. Checked
                // only for pure content ops — there the logged state *is*
                // the cached prior node; a split survivor's ops instead
                // build on pending deltas logged mid-mutation
                // ([`Self::wal_append_ops`]), which the cache never held.
                #[cfg(debug_assertions)]
                {
                    let content_only = ops.iter().all(|op| {
                        matches!(
                            op,
                            PageOp::InsertVersion(_)
                                | PageOp::RemoveUncommitted { .. }
                                | PageOp::IndexReplaceChild { .. }
                        )
                    });
                    if content_only {
                        if let Ok(prior) = self.read_node(NodeAddr::Current(page)) {
                            let mut derived = ReplayPage::Decoded(Node::clone(&prior));
                            let applied = ops.iter().try_for_each(|op| derived.apply(op));
                            if let (Ok(()), ReplayPage::Decoded(derived)) = (applied, derived) {
                                debug_assert_eq!(
                                    derived, node,
                                    "WAL delta contract violated for page {page}: the \
                                     logged ops do not derive the installed node from \
                                     its prior state"
                                );
                            }
                        }
                    }
                }
                for op in ops {
                    let record = WalRecord::PageDelta { page, op };
                    let lsn = self.wal_append(&record)?;
                    d.pages.record(page, lsn);
                }
            }
        }
        self.cache.insert_dirty(page, Arc::new(node));
        // Bound the dirty residency: when this page's cache shard holds
        // more deferred encodes than its capacity, write the least recently
        // written one back now (writer context, so this is race-free). The
        // victim stays resident and is marked clean only after its image is
        // on the device — a concurrent reader therefore never sees a gap.
        //
        // Durable trees defer this to the end of the mutation
        // ([`Self::wal_commit`]): writing a victim back here could push an
        // image from the *in-flight* mutation toward the device before its
        // commit fence exists, and recovery discards un-fenced images — the
        // device would hold state replay cannot reproduce.
        if self.durability.is_none() {
            if let Some((victim_page, victim_node)) =
                self.cache.dirty_overflow_victim(NodeAddr::Current(page))
            {
                self.write_back_dirty(victim_page, &victim_node)?;
            }
        }
        Ok(())
    }

    /// The one device write-back site of a tree page: encodes a dirty
    /// cached node, writes it to its page, then confirms the write-back so
    /// the cache unpins the entry. The entry stays dirty — pinned against
    /// eviction — until its image is on the device, so a concurrent reader
    /// can never evict-then-refill it from a stale page image mid-flush;
    /// the device's own lock orders a reader's page read against this
    /// write.
    pub(super) fn write_back_dirty(&self, page: PageId, node: &Node) -> TsbResult<()> {
        // WAL-before-page: the page's image was logged when the node was
        // installed (`write_current`); the log must be on stable storage
        // through it before the page may change on the device.
        if let Some(d) = &self.durability {
            d.pages.ensure_durable(page)?;
        }
        self.stats.record_node_encode();
        self.magnetic.write(page, &node.encode())?;
        self.cache.mark_clean(NodeAddr::Current(page));
        Ok(())
    }

    /// Writes every dirty cached node back to its page (ascending `PageId`
    /// order). The entries stay cached, now clean. Public so measurement
    /// harnesses can draw a line between build-phase and query-phase
    /// encode/write traffic without a checkpoint.
    pub fn flush_node_cache(&self) -> TsbResult<()> {
        for (page, node) in self.cache.dirty_entries() {
            self.write_back_dirty(page, &node)?;
        }
        Ok(())
    }

    /// Writes one address's dirty cached node back to its page, if it has
    /// one; every other deferred encode stays deferred.
    fn flush_dirty_node_at(&self, addr: NodeAddr) -> TsbResult<()> {
        match self.cache.dirty_at(addr) {
            Some((page, node)) => self.write_back_dirty(page, &node),
            None => Ok(()),
        }
    }

    /// Consolidates a node and appends it to the historical store,
    /// returning its address (§3.4: the historical node is written once, at
    /// whatever length it has). The node is retained in the decoded-node
    /// cache — freshly migrated history is the history most likely to be
    /// queried.
    pub(crate) fn append_historical(&self, node: Node) -> TsbResult<HistAddr> {
        self.stats.record_node_encode();
        let addr = self.worm.append(&node.encode())?;
        self.cache
            .insert_clean(NodeAddr::Historical(addr), Arc::new(node));
        Ok(addr)
    }

    /// Drops every cached node, writing dirty ones back to the device
    /// first. Each later node access pays one device read and one decode
    /// until the cache is warm again — the fully-cold baseline.
    pub fn drop_caches(&self) -> TsbResult<()> {
        self.flush_node_cache()?;
        self.cache.clear();
        Ok(())
    }

    /// Invalidates the decoded-node cache entry for `addr`, if any. That
    /// entry's dirty state is flushed first, so no write is lost — and
    /// *only* that entry's, so invalidating one node does not act as a
    /// full flush; the next read re-decodes the device image.
    pub fn invalidate_cached_node(&self, addr: NodeAddr) -> TsbResult<()> {
        self.flush_dirty_node_at(addr)?;
        self.cache.discard(addr);
        Ok(())
    }

    /// Walks every node reachable from the root and checks that the cached
    /// copy equals what decoding the device image produces (pending dirty
    /// nodes are flushed first), and that the decoded node re-encodes to
    /// exactly that image — a node in memory *is* its device bytes. Returns
    /// the first divergence found.
    pub fn verify_cache_coherence(&self) -> TsbResult<()> {
        self.flush_node_cache()?;
        let mut visited: HashSet<NodeAddr> = HashSet::new();
        self.check_coherence(self.current_root(), &mut visited)
    }

    fn check_coherence(&self, addr: NodeAddr, visited: &mut HashSet<NodeAddr>) -> TsbResult<()> {
        if !visited.insert(addr) {
            return Ok(());
        }
        let cached = self.read_node(addr)?;
        let image = self.read_image(addr)?;
        let direct = Node::decode(image.clone())?;
        if *cached != direct {
            return Err(TsbError::invariant(format!(
                "decoded-node cache diverges from the device image at {addr}"
            )));
        }
        if direct.encode() != image {
            return Err(TsbError::invariant(format!(
                "node at {addr} does not re-encode to its device image"
            )));
        }
        if let Node::Index(index) = &*cached {
            for entry in index.iter() {
                self.check_coherence(entry.child, visited)?;
            }
        }
        Ok(())
    }

    /// Allocates a fresh current page. Under durability, anything the WAL
    /// page table knew about a recycled page is forgotten: its old image
    /// is not a redo base for its new life, so the first write of new
    /// content logs a fresh full image.
    pub(crate) fn allocate_page(&self) -> TsbResult<PageId> {
        let page = self.magnetic.allocate()?;
        if let Some(d) = &self.durability {
            d.pages.forget(page);
        }
        Ok(page)
    }

    // ----- metadata -------------------------------------------------------

    /// The metadata encoding shared by the on-device metadata page and the
    /// WAL's commit / checkpoint records (recovery trusts the latter; the
    /// page is a convenience for non-durable reopen).
    pub(super) fn encode_meta_bytes(&self) -> Vec<u8> {
        Self::encode_meta(
            self.current_root(),
            self.clock.now(),
            self.txns.lock().next_id_value(),
        )
    }

    /// Encodes `(root, clock-next, next-txn)`; the inverse of
    /// [`Self::decode_meta`].
    pub(super) fn encode_meta(root: NodeAddr, clock_next: Timestamp, next_txn: u64) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u64(META_MAGIC);
        root.encode(&mut w);
        w.put_u64(clock_next.value());
        w.put_u64(next_txn);
        w.into_vec()
    }

    /// Writes the metadata page to the device. Called where the whole tree
    /// reaches the device — the flush, `create` and recovery's rebuild —
    /// not on every root change: a non-durable tree reopens from the last
    /// flush, and a durable one from its log's fences.
    pub(crate) fn write_meta(&self) -> TsbResult<()> {
        self.magnetic
            .write(self.meta_page, &self.encode_meta_bytes())
    }

    pub(super) fn decode_meta(bytes: &[u8]) -> TsbResult<(NodeAddr, Timestamp, u64)> {
        let mut r = ByteReader::new(bytes);
        if r.get_u64()? != META_MAGIC {
            return Err(TsbError::corruption("bad TSB-tree metadata magic"));
        }
        let root = NodeAddr::decode(&mut r)?;
        let clock_next = Timestamp(r.get_u64()?);
        let next_txn = r.get_u64()?;
        Ok((root, clock_next, next_txn))
    }

    /// Updates the root pointer; the metadata page follows at the next
    /// flush. A root replacement is a structural change, so the caller
    /// (the insert path) must have noted the structure epoch as in-flight.
    pub(crate) fn set_root(&self, root: NodeAddr) {
        *self.root.write() = root;
    }
}
