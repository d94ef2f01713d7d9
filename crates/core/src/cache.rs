//! The decoded-node cache: `NodeAddr -> Arc<Node>`.
//!
//! The only cache of the current database (and of historical nodes read
//! back from the WORM): there is no page cache beneath it, so a miss reads
//! the device and a write-back writes it. The paper's access-cost argument
//! (§2.2, §2.5) counts a search as one root-to-leaf path of node accesses;
//! this cache makes a warm access what the model says it is: a hash lookup
//! handing out a shared, already-decoded node.
//!
//! What sits in the cache is cheap to make and cheap to drop: a [`Node`] is
//! its page image plus one `u32` offset per entry (see
//! [`crate::node::data`]), so the three cache events cost
//!
//! * a **hit**: the hash lookup, a recency touch and an `Arc` clone — the
//!   shard latch is held for nothing else;
//! * a **miss**: the device read (outside any latch), whose buffer becomes
//!   the node, one walk of it to check lengths and tags and record the
//!   offsets, and three allocations (the buffer, the offsets, the `Arc`)
//!   whatever the entry count;
//! * an **eviction**: one pop off a recency list and two frees, made
//!   *after* the shard latch is released ([`NodeCache::complete_fill`]
//!   holds its one victim and drops it once the guard is gone), so a
//!   second reader never waits on another thread's frees.
//!
//! # Three recency lists per shard
//!
//! Every resident node sits in exactly one of three O(1) [`LruList`]s:
//!
//! * **clean leaves**,
//! * **clean index nodes**,
//! * **dirty nodes** (current nodes whose newest image exists only here),
//!   ordered by last *write*.
//!
//! A hit on a clean node touches its kind's list; a hit on a dirty node
//! touches nothing, so the dirty order stays "least recently written" for
//! the write-back drain. [`NodeCache::insert_dirty`] takes the address out of
//! both clean lists — also when the page was recycled as the other kind —
//! and [`NodeCache::mark_clean`] puts it back, as most recently used, in the
//! list of the kind it now is.
//!
//! **Leaf-first eviction.** The victim is the coldest clean leaf; a clean
//! index node goes only when the shard holds no clean leaf. The paper prices
//! a query as one root-to-leaf path of node accesses (§2.2, §2.5), so an
//! index node lies on the path to every node below it: on an as-of workload
//! a few hundred historical index nodes route tens of thousands of
//! historical leaves, and under one shared recency order those index nodes
//! lost to leaves that are visited once. A reserved index share measured
//! worse than the pure rule (1.51 against 1.36 decodes per as-of probe,
//! 1.73 under one list); where the whole index fits a shard many times
//! over, the rule changes nothing.
//!
//! **Eviction never scans dirty entries.** They are not in either clean
//! list, so each victim costs one pop whatever the size of the dirty set.
//!
//! Design points:
//!
//! * **Both devices.** Current pages and immutable historical (WORM) nodes
//!   share one cache, keyed by [`NodeAddr`]. Historical nodes never change,
//!   so cached copies are valid forever; current entries are replaced by
//!   every [`insert_dirty`](NodeCache::insert_dirty) on their page.
//! * **Write-back of nodes, not bytes.** A current-node write installs the
//!   decoded node marked dirty; the encode is deferred until the shard's
//!   dirty set overflows or the tree flushes. Repeated rewrites of a hot
//!   leaf (the common insert pattern) therefore encode once, not once per
//!   insert. Dirty entries are **pinned**: no eviction sees them, because a
//!   dirty entry is the sole copy of its node's newest state, and removing
//!   it before its encode reaches the device would let a concurrent reader
//!   decode a stale page image (the shard may temporarily exceed its
//!   capacity by the writer's dirty working set between flushes).
//! * **No I/O in this module.** The cache hands dirty nodes back through
//!   [`dirty_entries`](NodeCache::dirty_entries) /
//!   [`dirty_overflow_victim`](NodeCache::dirty_overflow_victim) to the caller
//!   ([`TsbTree`](crate::TsbTree)), which owns the devices, performs the
//!   encode + page write, and confirms per entry with
//!   [`mark_clean`](NodeCache::mark_clean). This keeps the storage
//!   boundary clean: `tsb-storage` moves bytes, `tsb-core` decides what
//!   they mean.
//! * **Lock-sharded for concurrent readers.** A warm concurrent read
//!   (a shard of a [`crate::ShardedTsb`]) touches nothing but this cache and the
//!   atomic [`tsb_storage::IoStats`] counters, so a single global mutex
//!   would serialize every reader on every node access. The cache is
//!   therefore split into [`SHARD_COUNT`] independent shards (hash of the
//!   address picks the shard), each with its own mutex, map and recency
//!   lists; readers on disjoint paths proceed in parallel. A hit holds its
//!   shard latch only for the hash lookup and recency touch — never across
//!   I/O, decode, or another node. Eviction is per-shard (each shard holds
//!   `capacity / SHARD_COUNT` clean entries), which approximates a global
//!   order the same way any sharded cache does. [`NodeCache::new`] keeps a
//!   single shard — exact order, used by tests that assert eviction order;
//!   [`NodeCache::sharded`] is what [`TsbTree`](crate::TsbTree) uses.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use parking_lot::Mutex;

use tsb_storage::{LruList, PageId};

use crate::node::{Node, NodeAddr};

/// Shards used by [`NodeCache::sharded`]. Sixteen keeps the chance of two
/// concurrent descents colliding on a shard low while the per-shard
/// capacity stays large enough for exact recency order not to matter.
pub(crate) const SHARD_COUNT: usize = 16;

struct CacheEntry {
    node: Arc<Node>,
    /// Dirty entries are current nodes whose newest image exists only here;
    /// they are encoded and written back when the tree flushes or the
    /// shard's dirty set overflows (and are pinned against eviction until
    /// then). Historical entries are never dirty.
    dirty: bool,
}

struct Shard {
    entries: HashMap<NodeAddr, CacheEntry>,
    /// Recency order over the clean leaves: eviction's first choice.
    leaves: LruList<NodeAddr>,
    /// Recency order over the clean index nodes: evicted only when
    /// `leaves` is empty.
    index: LruList<NodeAddr>,
    /// Write order over the *dirty* entries, which are in neither clean
    /// list. Dirty entries are pinned (not evictable), so eviction bounds
    /// the clean residency — `leaves.len() + index.len()` — by the shard
    /// capacity; the writer drains this list's cold end through
    /// [`NodeCache::dirty_overflow_victim`] to bound the dirty residency
    /// too.
    dirty_lru: LruList<NodeAddr>,
    /// Bumped by every content-changing operation on this shard
    /// ([`NodeCache::insert_dirty`], [`NodeCache::discard`], `clear`). A
    /// reader's miss→decode→fill window ([`NodeCache::begin_fill`] /
    /// [`NodeCache::complete_fill`]) validates against it: a fill that
    /// raced a content change must not install its (possibly stale)
    /// decode as the canonical cached node.
    stamp: u64,
}

impl Shard {
    /// The clean recency list `node`'s kind belongs to.
    fn clean_list(&mut self, node: &Node) -> &mut LruList<NodeAddr> {
        match node {
            Node::Data(_) => &mut self.leaves,
            Node::Index(_) => &mut self.index,
        }
    }

    /// A hit: the resident node, with a clean one made its list's most
    /// recently used. A dirty one touches nothing, so the dirty order stays
    /// the order of writes.
    fn hit(&mut self, addr: NodeAddr) -> Option<Arc<Node>> {
        let entry = self.entries.get(&addr)?;
        let node = Arc::clone(&entry.node);
        if !entry.dirty {
            self.clean_list(&node).touch(addr);
        }
        Some(node)
    }

    /// The dirty-overflow drain step shared by
    /// [`NodeCache::dirty_overflow_victim`] and
    /// [`NodeCache::any_dirty_overflow_victim`]: while more than
    /// `capacity` entries are dirty, offer the least recently written one
    /// for write-back. Peek, don't pop — the victim leaves the dirty set
    /// only in [`NodeCache::mark_clean`], after the caller's write-back
    /// succeeded, so an errored write-back leaves the accounting intact
    /// and the same victim is offered again. A dirty-list address with no
    /// cache entry violates the shard invariant; the orphan is shed and
    /// the drain continues rather than letting it wedge overflow control.
    fn dirty_overflow_victim(&mut self, capacity: usize) -> Option<(PageId, Arc<Node>)> {
        while self.dirty_lru.len() > capacity {
            let victim = *self.dirty_lru.peek_lru()?;
            let Some(entry) = self.entries.get(&victim) else {
                debug_assert!(false, "dirty-list victim {victim} has no cache entry");
                self.dirty_lru.remove(&victim);
                continue;
            };
            let node = Arc::clone(&entry.node);
            let page = victim.as_page().expect("only current nodes are ever dirty");
            return Some((page, node));
        }
        None
    }

    /// Evicts a clean entry if the shard's clean residency is over
    /// `capacity`: the coldest clean leaf, or — only when no clean leaf is
    /// left — the coldest clean index node. A fill or a `mark_clean` adds
    /// one clean entry, so one victim is all either can need. One pop;
    /// dirty entries are in neither list, so no eviction ever looks at them
    /// (see [`NodeCache::insert_dirty`] for why they are pinned).
    ///
    /// The victim is *returned*, not dropped — and not collected into a
    /// heap container, so a miss on a full shard allocates nothing here:
    /// the caller lets it go after releasing the shard latch, so the next
    /// reader of this shard never waits on another thread's frees.
    #[must_use = "drop the victim after releasing the shard latch"]
    fn evict_clean_overflow(&mut self, capacity: usize) -> Option<Arc<Node>> {
        if self.leaves.len() + self.index.len() <= capacity {
            return None;
        }
        let victim = self.leaves.pop_lru().or_else(|| self.index.pop_lru())?;
        let entry = self.entries.remove(&victim);
        debug_assert!(
            entry.as_ref().is_some_and(|e| !e.dirty),
            "clean-list victim {victim} is not a clean cache entry"
        );
        debug_assert!(
            self.leaves.len() + self.index.len() <= capacity,
            "the clean residency overflowed by more than one entry"
        );
        entry.map(|e| e.node)
    }
}

/// A fixed-capacity cache of decoded nodes spanning both devices,
/// lock-sharded for concurrent readers, that evicts clean leaves before
/// clean index nodes (see the module docs).
pub(crate) struct NodeCache {
    /// Maximum clean entries per shard.
    shard_capacity: usize,
    shards: Vec<Mutex<Shard>>,
}

impl std::fmt::Debug for NodeCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeCache")
            .field("shards", &self.shards.len())
            .field("capacity", &(self.shard_capacity * self.shards.len()))
            .field("resident", &self.len())
            .finish()
    }
}

impl NodeCache {
    /// Creates a single-shard cache holding at most `capacity` clean
    /// decoded nodes, with an exact eviction order (tests that assert
    /// eviction order use this; the tree itself uses [`Self::sharded`]).
    #[cfg(test)]
    pub(crate) fn new(capacity: usize) -> Self {
        Self::with_shards(capacity, 1)
    }

    /// Creates a cache of [`SHARD_COUNT`] shards holding at most `capacity`
    /// clean decoded nodes in total.
    pub(crate) fn sharded(capacity: usize) -> Self {
        Self::with_shards(capacity, SHARD_COUNT)
    }

    fn with_shards(capacity: usize, shards: usize) -> Self {
        // Every shard must hold at least one entry; small capacities
        // collapse to fewer shards rather than growing beyond the target.
        // Floor division keeps the aggregate clean residency at or below
        // the configured capacity (the clamp guarantees a quotient ≥ 1).
        let shards = shards.clamp(1, capacity.max(1));
        let shard_capacity = capacity.max(1) / shards;
        NodeCache {
            shard_capacity,
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(Shard {
                        entries: HashMap::new(),
                        leaves: LruList::new(),
                        index: LruList::new(),
                        dirty_lru: LruList::new(),
                        stamp: 0,
                    })
                })
                .collect(),
        }
    }

    fn shard(&self, addr: &NodeAddr) -> &Mutex<Shard> {
        let mut h = DefaultHasher::new();
        addr.hash(&mut h);
        &self.shards[(h.finish() as usize) % self.shards.len()]
    }

    /// Number of cached nodes.
    pub(crate) fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().entries.len()).sum()
    }

    /// Returns the cached node at `addr`, a hit like any other. (The
    /// tree's read path uses [`Self::begin_fill`] / [`Self::complete_fill`]
    /// instead, which combine the lookup with a stamp-validated fill
    /// window.)
    #[cfg(test)]
    pub(crate) fn get(&self, addr: NodeAddr) -> Option<Arc<Node>> {
        self.shard(&addr).lock().hit(addr)
    }

    /// Opens a fill window for `addr`: returns the resident node on a hit
    /// (`Ok`), or the shard's content stamp on a miss (`Err`) for the
    /// caller to pass back through [`Self::complete_fill`] after decoding.
    pub(crate) fn begin_fill(&self, addr: NodeAddr) -> Result<Arc<Node>, u64> {
        let mut shard = self.shard(&addr).lock();
        shard.hit(addr).ok_or(shard.stamp)
    }

    /// Completes a fill opened by [`Self::begin_fill`], returning the
    /// canonical node for the caller to use.
    ///
    /// A fill races: between the miss and this call, the writer may have
    /// installed a newer dirty version of the same address and that entry
    /// may even have been written back and evicted again — the caller's
    /// decode would then be stale, and caching it would poison every later
    /// read (including the writer's own read-modify-write). Two guards
    /// close the window: a resident entry always wins, and a shard whose
    /// content stamp moved since `begin_fill` refuses the install (the
    /// caller still gets *its* decode back, which is a legal answer for a
    /// read that began before the racing write installed — it just never
    /// becomes canonical).
    pub(crate) fn complete_fill(&self, addr: NodeAddr, node: Arc<Node>, stamp: u64) -> Arc<Node> {
        let mut shard = self.shard(&addr).lock();
        if let Some(existing) = shard.hit(addr) {
            return existing;
        }
        if shard.stamp != stamp {
            return node;
        }
        shard.entries.insert(
            addr,
            CacheEntry {
                node: Arc::clone(&node),
                dirty: false,
            },
        );
        shard.clean_list(&node).touch(addr);
        let evicted = shard.evict_clean_overflow(self.shard_capacity);
        drop(shard);
        drop(evicted);
        node
    }

    /// Caches an *immutable* node (a historical WORM append, whose address
    /// can never hold different content) without a fill window. Also used
    /// by tests. The resident entry wins if one exists.
    pub(crate) fn insert_clean(&self, addr: NodeAddr, node: Arc<Node>) -> Arc<Node> {
        let stamp = match self.begin_fill(addr) {
            Ok(existing) => return existing,
            Err(stamp) => stamp,
        };
        self.complete_fill(addr, node, stamp)
    }

    /// Installs the newest version of a current node, superseding the page
    /// image until a flush or overflow write-back re-encodes it. Writer-only:
    /// callers serialize mutations.
    ///
    /// The entry is **pinned** resident (and dirty) until then: it leaves
    /// both clean lists — whichever kind the page held before — so no
    /// eviction sees it. A dirty entry is the *sole* copy of its node's
    /// newest state; removing it before its encode reaches the device would
    /// open a window in which a concurrent reader misses here and decodes a
    /// stale (or still-empty) page image — a torn read on a content-only
    /// path the structure epoch does not cover. Only the writer-serialized
    /// write-back ([`Self::dirty_entries`] / [`Self::dirty_overflow_victim`]
    /// then [`Self::mark_clean`]) unpins it, so the shard may exceed its
    /// capacity by the writer's dirty working set, and every page write
    /// stays off the read path. Taking an entry out of the clean lists never
    /// raises the clean residency, so nothing is evicted here;
    /// [`Self::mark_clean`] evicts when the entry rejoins them.
    pub(crate) fn insert_dirty(&self, page: PageId, node: Arc<Node>) {
        let addr = NodeAddr::Current(page);
        let mut shard = self.shard(&addr).lock();
        shard.stamp += 1;
        let replaced = shard.entries.insert(addr, CacheEntry { node, dirty: true });
        shard.leaves.remove(&addr);
        shard.index.remove(&addr);
        shard.dirty_lru.touch(addr);
        drop(shard);
        drop(replaced);
    }

    /// Writer-side dirty residency control. If `addr`'s shard holds more
    /// dirty entries than its capacity, returns the least recently written
    /// one for write-back. The entry **stays resident and stays dirty**
    /// until the caller has written its encode to the device and calls
    /// [`Self::mark_clean`] — marking it clean (and therefore evictable)
    /// any earlier would reopen the stale-decode window this
    /// cache pins dirty entries to avoid. Single-writer only: the caller's
    /// serialization guarantees nobody re-dirties the entry in between.
    pub(crate) fn dirty_overflow_victim(&self, addr: NodeAddr) -> Option<(PageId, Arc<Node>)> {
        self.shard(&addr)
            .lock()
            .dirty_overflow_victim(self.shard_capacity)
    }

    /// [`Self::dirty_overflow_victim`] across every shard: returns an
    /// overflow victim from *any* shard holding more dirty entries than its
    /// capacity, or `None` when all shards fit. Used by the durable write
    /// path, which defers overflow write-back to the end of the mutation
    /// (after the WAL commit fence) and therefore cannot rely on knowing
    /// which shard the overflowing page hashed to. The same
    /// peek/write/confirm protocol applies: the victim stays resident and
    /// dirty until [`Self::mark_clean`].
    pub(crate) fn any_dirty_overflow_victim(&self) -> Option<(PageId, Arc<Node>)> {
        // One shard coming up empty (fits, or inconsistent) must not end
        // the whole drain — every later shard still gets its turn.
        self.shards
            .iter()
            .find_map(|shard| shard.lock().dirty_overflow_victim(self.shard_capacity))
    }

    /// Marks `addr` clean after its newest encode reached the device (the
    /// second half of [`Self::dirty_overflow_victim`]): it moves from the
    /// dirty list to its kind's clean list, as most recently used. This is
    /// where the clean residency grows without a fill, so the shard's
    /// overflow is evicted here too.
    pub(crate) fn mark_clean(&self, addr: NodeAddr) {
        let mut shard = self.shard(&addr).lock();
        if !shard.dirty_lru.remove(&addr) {
            return;
        }
        if let Some(entry) = shard.entries.get_mut(&addr) {
            entry.dirty = false;
            let node = Arc::clone(&entry.node);
            shard.clean_list(&node).touch(addr);
        }
        let evicted = shard.evict_clean_overflow(self.shard_capacity);
        drop(shard);
        drop(evicted);
    }

    /// Invalidates one address (page freed, node superseded out of band).
    /// Any dirty state is dropped — the caller decides whether the page
    /// image is still meaningful.
    pub(crate) fn discard(&self, addr: NodeAddr) {
        let mut shard = self.shard(&addr).lock();
        shard.stamp += 1;
        let removed = shard.entries.remove(&addr);
        shard.leaves.remove(&addr);
        shard.index.remove(&addr);
        shard.dirty_lru.remove(&addr);
        drop(shard);
        drop(removed);
    }

    /// Drops every cached node. The caller must have flushed dirty entries
    /// first.
    #[cfg(test)]
    pub(crate) fn clear(&self) {
        for shard in &self.shards {
            let mut shard = shard.lock();
            debug_assert!(
                shard.entries.values().all(|e| !e.dirty),
                "clearing a node cache with dirty entries loses writes"
            );
            shard.stamp += 1;
            let dropped = std::mem::take(&mut shard.entries);
            shard.leaves.clear();
            shard.index.clear();
            shard.dirty_lru.clear();
            drop(shard);
            drop(dropped);
        }
    }

    /// Returns `addr`'s node if it is cached and dirty, *without* changing
    /// any state. The caller writes the encode to the device and then
    /// confirms with [`Self::mark_clean`] — the same peek/write/confirm
    /// protocol as [`Self::dirty_overflow_victim`], so the entry stays
    /// pinned (dirty, unevictable) until its image is on the device and a
    /// concurrent reader can never evict-then-refill it from a stale page
    /// image.
    #[cfg(test)]
    pub(crate) fn dirty_at(&self, addr: NodeAddr) -> Option<(PageId, Arc<Node>)> {
        let shard = self.shard(&addr).lock();
        let entry = shard.entries.get(&addr)?;
        if !entry.dirty {
            return None;
        }
        let node = Arc::clone(&entry.node);
        let page = addr.as_page().expect("only current nodes are ever dirty");
        Some((page, node))
    }

    /// Returns every dirty node in ascending `PageId` order (deterministic
    /// write traces) *without changing any state* — the flush protocol
    /// writes each encode to the device and then confirms per entry
    /// with [`Self::mark_clean`]. Flipping everything clean up front would
    /// unpin not-yet-written entries, and a concurrent reader could evict
    /// one and refill it from its stale pre-flush page image.
    pub(crate) fn dirty_entries(&self) -> Vec<(PageId, Arc<Node>)> {
        let mut dirty: Vec<(PageId, Arc<Node>)> = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock();
            dirty.extend(
                shard
                    .entries
                    .iter()
                    .filter(|(_, e)| e.dirty)
                    .map(|(addr, e)| {
                        let page = addr.as_page().expect("only current nodes are ever dirty");
                        (page, Arc::clone(&e.node))
                    }),
            );
        }
        dirty.sort_by_key(|(page, _)| *page);
        dirty
    }

    /// Whether `addr` is cached and dirty (test/diagnostic helper).
    #[cfg(test)]
    pub(crate) fn is_dirty(&self, addr: NodeAddr) -> bool {
        self.shard(&addr)
            .lock()
            .entries
            .get(&addr)
            .map(|e| e.dirty)
            .unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{DataNode, IndexNode};
    use tsb_common::{KeyRange, TimeRange};

    fn node() -> Arc<Node> {
        Arc::new(Node::Data(DataNode::initial_root()))
    }

    fn index_node() -> Arc<Node> {
        Arc::new(Node::Index(IndexNode::new(
            KeyRange::full(),
            TimeRange::full(),
        )))
    }

    /// The shard invariant the three lists keep: every entry is in exactly
    /// one list — dirty ones in the dirty list, clean ones in their kind's.
    fn assert_lists_partition_the_entries(cache: &NodeCache) {
        for shard in &cache.shards {
            let shard = shard.lock();
            for (addr, entry) in &shard.entries {
                let (own, other) = match *entry.node {
                    Node::Data(_) => (&shard.leaves, &shard.index),
                    Node::Index(_) => (&shard.index, &shard.leaves),
                };
                assert_eq!(shard.dirty_lru.contains(addr), entry.dirty, "{addr}");
                assert_eq!(own.contains(addr), !entry.dirty, "{addr}");
                assert!(!other.contains(addr), "{addr} is in the other kind's list");
            }
            assert_eq!(
                shard.leaves.len() + shard.index.len() + shard.dirty_lru.len(),
                shard.entries.len(),
                "a list holds an address with no entry"
            );
        }
    }

    /// The flush protocol as the tree drives it: peek the dirty set, then
    /// confirm each entry (here without the device write in between).
    fn flush_all(cache: &NodeCache) -> Vec<PageId> {
        let dirty = cache.dirty_entries();
        let pages: Vec<PageId> = dirty.iter().map(|(p, _)| *p).collect();
        for page in &pages {
            cache.mark_clean(NodeAddr::Current(*page));
        }
        pages
    }

    #[test]
    fn hit_returns_the_shared_node() {
        let cache = NodeCache::new(4);
        let addr = NodeAddr::Current(PageId(1));
        assert!(cache.get(addr).is_none());
        let n = node();
        cache.insert_clean(addr, Arc::clone(&n));
        let got = cache.get(addr).unwrap();
        assert!(Arc::ptr_eq(&got, &n));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn eviction_skips_pinned_dirty_entries() {
        let cache = NodeCache::new(2);
        cache.insert_dirty(PageId(1), node());
        cache.insert_clean(NodeAddr::Current(PageId(2)), node());
        cache.insert_clean(NodeAddr::Current(PageId(3)), node());
        cache.insert_clean(NodeAddr::Current(PageId(4)), node());
        // Dirty page 1 is pinned (it rides along outside the capacity);
        // the clean overflow evicted the least recent clean entry.
        assert!(cache.get(NodeAddr::Current(PageId(1))).is_some());
        assert!(cache.get(NodeAddr::Current(PageId(2))).is_none());
        assert!(cache.get(NodeAddr::Current(PageId(3))).is_some());
        assert!(cache.get(NodeAddr::Current(PageId(4))).is_some());
        assert!(cache.is_dirty(NodeAddr::Current(PageId(1))));
        assert_eq!(cache.len(), 3, "capacity 2 clean + 1 pinned dirty");
        // Once flushed (clean), the entry becomes evictable again.
        let flushed = flush_all(&cache);
        assert_eq!(flushed, vec![PageId(1)]);
        cache.insert_clean(NodeAddr::Current(PageId(5)), node());
        cache.insert_clean(NodeAddr::Current(PageId(6)), node());
        assert_eq!(cache.len(), 2, "clean entries respect the capacity");
    }

    #[test]
    fn eviction_hands_its_victims_out_of_the_latch() {
        let cache = NodeCache::new(1);
        let victim = node();
        let watch = Arc::downgrade(&victim);
        cache.insert_clean(NodeAddr::Current(PageId(1)), victim);
        // A second fill, by hand, the way `complete_fill` does it.
        let second = NodeAddr::Current(PageId(2));
        let mut shard = cache.shards[0].lock();
        shard.entries.insert(
            second,
            CacheEntry {
                node: node(),
                dirty: false,
            },
        );
        shard.leaves.touch(second);
        let evicted = shard.evict_clean_overflow(cache.shard_capacity);
        assert!(evicted.is_some());
        assert!(
            watch.upgrade().is_some(),
            "the victim must still be alive while the latch is held"
        );
        drop(shard);
        drop(evicted);
        assert!(
            watch.upgrade().is_none(),
            "and freed once the caller lets go"
        );
    }

    #[test]
    fn dirty_entries_is_sorted_and_mark_clean_confirms() {
        let cache = NodeCache::new(8);
        for page in [5u64, 1, 3] {
            cache.insert_dirty(PageId(page), node());
        }
        cache.insert_clean(NodeAddr::Current(PageId(2)), node());
        // Peeking does not change state: the entries stay dirty (pinned)
        // until each write-back is confirmed.
        let dirty = cache.dirty_entries();
        let pages: Vec<u64> = dirty.iter().map(|(p, _)| p.0).collect();
        assert_eq!(pages, vec![1, 3, 5]);
        assert!(cache.is_dirty(NodeAddr::Current(PageId(5))));
        let flushed = flush_all(&cache);
        assert_eq!(flushed.len(), 3);
        assert!(cache.dirty_entries().is_empty(), "entries are clean now");
        assert_eq!(cache.len(), 4, "flushing does not evict");
        assert!(!cache.is_dirty(NodeAddr::Current(PageId(5))));
    }

    #[test]
    fn dirty_at_peeks_only_the_target() {
        let cache = NodeCache::new(8);
        cache.insert_dirty(PageId(1), node());
        cache.insert_dirty(PageId(2), node());
        let (page, _) = cache.dirty_at(NodeAddr::Current(PageId(1))).unwrap();
        assert_eq!(page, PageId(1));
        assert!(
            cache.is_dirty(NodeAddr::Current(PageId(1))),
            "peeking keeps the entry pinned until mark_clean"
        );
        cache.mark_clean(NodeAddr::Current(PageId(1)));
        assert!(!cache.is_dirty(NodeAddr::Current(PageId(1))));
        assert!(
            cache.is_dirty(NodeAddr::Current(PageId(2))),
            "other deferred encodes stay deferred"
        );
        assert!(cache.dirty_at(NodeAddr::Current(PageId(1))).is_none());
        assert!(cache.dirty_at(NodeAddr::Current(PageId(99))).is_none());
    }

    #[test]
    fn discard_invalidates_without_writeback() {
        let cache = NodeCache::new(4);
        let addr = NodeAddr::Current(PageId(9));
        cache.insert_dirty(PageId(9), node());
        assert!(cache.is_dirty(addr));
        cache.discard(addr);
        assert!(cache.get(addr).is_none());
        assert!(cache.dirty_entries().is_empty());
    }

    #[test]
    fn rewriting_a_page_replaces_its_entry() {
        let cache = NodeCache::new(4);
        let addr = NodeAddr::Current(PageId(1));
        let first = node();
        let second = node();
        cache.insert_clean(addr, Arc::clone(&first));
        cache.insert_dirty(PageId(1), Arc::clone(&second));
        assert_eq!(cache.len(), 1);
        assert!(Arc::ptr_eq(&cache.get(addr).unwrap(), &second));
        assert!(cache.is_dirty(addr));
    }

    #[test]
    fn dirty_overflow_victim_drains_lru_dirty_without_unpinning() {
        let cache = NodeCache::new(2);
        for page in [1u64, 2, 3, 4] {
            cache.insert_dirty(PageId(page), node());
        }
        // 4 dirty > capacity 2: the victim is the least recently written.
        let (page, _) = cache
            .dirty_overflow_victim(NodeAddr::Current(PageId(1)))
            .unwrap();
        assert_eq!(page, PageId(1));
        // Still resident and dirty until the caller confirms the
        // write-back — the stale-decode window never opens.
        assert!(cache.is_dirty(NodeAddr::Current(PageId(1))));
        cache.mark_clean(NodeAddr::Current(PageId(1)));
        assert!(!cache.is_dirty(NodeAddr::Current(PageId(1))));
        assert!(
            cache.get(NodeAddr::Current(PageId(1))).is_some(),
            "write-back does not evict"
        );
        // The flushed entry is no longer part of the dirty set.
        assert_eq!(cache.dirty_entries().len(), 3);
        assert_eq!(flush_all(&cache).len(), 3);
        assert!(cache
            .dirty_overflow_victim(NodeAddr::Current(PageId(1)))
            .is_none());
    }

    #[test]
    fn a_fill_that_raced_a_write_is_not_cached() {
        let cache = NodeCache::new(4);
        let addr = NodeAddr::Current(PageId(1));
        let stamp = cache.begin_fill(addr).unwrap_err();
        // While the "reader" decodes, the writer installs v2, which is
        // flushed and then leaves the cache entirely.
        let v2 = node();
        cache.insert_dirty(PageId(1), Arc::clone(&v2));
        flush_all(&cache);
        cache.discard(addr);
        // The stale fill is handed back to its caller but refused as the
        // canonical cached node — caching it would hide v2 forever.
        let stale = node();
        let returned = cache.complete_fill(addr, Arc::clone(&stale), stamp);
        assert!(Arc::ptr_eq(&returned, &stale));
        assert!(
            cache.get(addr).is_none(),
            "a raced fill must not become canonical"
        );
        // A fresh fill with a current stamp installs normally.
        let stamp = cache.begin_fill(addr).unwrap_err();
        let fresh = node();
        cache.complete_fill(addr, Arc::clone(&fresh), stamp);
        assert!(Arc::ptr_eq(&cache.get(addr).unwrap(), &fresh));
    }

    #[test]
    fn racing_clean_fill_never_displaces_a_dirty_entry() {
        // A reader's miss-decode-fill can interleave with the writer
        // installing a newer dirty version of the same page. The stale
        // fill must lose: the dirty entry (the sole copy of the newest
        // state) stays resident, stays dirty, and is what the fill
        // returns.
        let cache = NodeCache::new(4);
        let addr = NodeAddr::Current(PageId(1));
        let newer = node();
        cache.insert_dirty(PageId(1), Arc::clone(&newer));
        let stale = node();
        let resident = cache.insert_clean(addr, Arc::clone(&stale));
        assert!(Arc::ptr_eq(&resident, &newer), "resident entry wins");
        assert!(Arc::ptr_eq(&cache.get(addr).unwrap(), &newer));
        assert!(cache.is_dirty(addr), "deferred encode is preserved");
        assert_eq!(
            cache.dirty_entries().len(),
            1,
            "the newest state still flushes"
        );

        // Racing fills between two readers agree on one canonical handle.
        let first = cache.insert_clean(NodeAddr::Current(PageId(2)), node());
        let second = cache.insert_clean(NodeAddr::Current(PageId(2)), node());
        assert!(Arc::ptr_eq(&first, &second));
    }

    #[test]
    fn sharded_capacity_never_exceeds_the_configured_total() {
        // Floor division: 100 entries over 16 shards must bound the clean
        // residency by 100, not round it up per shard.
        let cache = NodeCache::sharded(100);
        for page in 0..10_000u64 {
            cache.insert_clean(NodeAddr::Current(PageId(page)), node());
        }
        assert!(
            cache.len() <= 100,
            "resident {} > configured 100",
            cache.len()
        );
    }

    #[test]
    fn sharded_cache_round_trips_across_shards() {
        let cache = NodeCache::sharded(256);
        for page in 0..100u64 {
            cache.insert_dirty(PageId(page), node());
        }
        assert_eq!(cache.len(), 100);
        for page in 0..100u64 {
            assert!(cache.get(NodeAddr::Current(PageId(page))).is_some());
        }
        // dirty_entries spans every shard, globally page-sorted.
        let dirty = cache.dirty_entries();
        let pages: Vec<u64> = dirty.iter().map(|(p, _)| p.0).collect();
        assert_eq!(pages, (0..100u64).collect::<Vec<_>>());
        flush_all(&cache);
        cache.clear();
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn sharded_eviction_bounds_clean_entries_and_pins_dirty_ones() {
        // Clean inserts respect the capacity across shards.
        let cache = NodeCache::sharded(32);
        for page in 0..1000u64 {
            cache.insert_clean(NodeAddr::Current(PageId(page)), node());
        }
        assert!(cache.len() <= 32);

        // Dirty inserts are pinned until flushed — nothing may be lost.
        let cache = NodeCache::sharded(32);
        for page in 0..1000u64 {
            cache.insert_dirty(PageId(page), node());
        }
        assert_eq!(cache.len(), 1000, "dirty entries are pinned resident");
        assert_eq!(flush_all(&cache).len(), 1000, "and all flushable");
        assert!(cache.len() <= 32, "written back, they are evictable");
        // Flushed clean, the overflow drains as new inserts evict.
        for page in 1000..2000u64 {
            cache.insert_clean(NodeAddr::Current(PageId(page)), node());
        }
        assert!(cache.len() < 1000 + 32);
    }

    #[test]
    fn tiny_capacity_collapses_shards() {
        // capacity 2 with 16 requested shards must still hold 2 entries.
        let cache = NodeCache::with_shards(2, 16);
        cache.insert_clean(NodeAddr::Current(PageId(1)), node());
        cache.insert_clean(NodeAddr::Current(PageId(2)), node());
        assert!(cache.len() <= 2);
        assert!(cache.len() >= 1);
    }

    #[test]
    fn clean_leaf_fills_never_evict_an_index_node_while_a_clean_leaf_remains() {
        let cache = NodeCache::new(4);
        let (a, b) = (
            NodeAddr::Current(PageId(1)),
            NodeAddr::Historical(tsb_storage::HistAddr::new(0, 64)),
        );
        cache.insert_clean(a, index_node());
        cache.insert_clean(b, index_node());
        // A long stream of once-visited leaves, far more than the shard
        // holds, with the index nodes never touched again: under one
        // recency order they would be the first to go.
        for page in 100..1100u64 {
            cache.insert_clean(NodeAddr::Current(PageId(page)), node());
            let shard = cache.shards[0].lock();
            assert!(
                shard.entries.contains_key(&a) && shard.entries.contains_key(&b),
                "leaf fill {page} evicted an index node"
            );
            assert_eq!(shard.index.len(), 2);
            assert!(shard.leaves.len() <= 2);
        }
        assert_eq!(cache.len(), 4);
        assert_lists_partition_the_entries(&cache);
        // With no clean leaf left, an index fill evicts the coldest index
        // node.
        cache.discard(NodeAddr::Current(PageId(1098)));
        cache.discard(NodeAddr::Current(PageId(1099)));
        for off in 1..4u64 {
            cache.insert_clean(
                NodeAddr::Historical(tsb_storage::HistAddr::new(off * 64, 64)),
                index_node(),
            );
        }
        assert!(cache.get(a).is_none(), "the coldest index node goes");
        assert_eq!(cache.len(), 4);
    }

    #[test]
    fn a_clean_fill_evicts_one_clean_entry_whatever_the_dirty_set() {
        // A 2-entry shard holding 1 000 pinned dirty entries: every clean
        // fill past the second evicts exactly one clean entry, with one pop.
        let cache = NodeCache::new(2);
        for page in 0..1000u64 {
            cache.insert_dirty(PageId(page), node());
        }
        assert_lists_partition_the_entries(&cache);
        for page in 1000..1100u64 {
            let addr = NodeAddr::Current(PageId(page));
            let mut shard = cache.shards[0].lock();
            shard.entries.insert(
                addr,
                CacheEntry {
                    node: node(),
                    dirty: false,
                },
            );
            shard.leaves.touch(addr);
            let evicted = shard.evict_clean_overflow(cache.shard_capacity);
            assert_eq!(evicted.is_some(), page >= 1002, "fill {page}");
            assert_eq!(shard.dirty_lru.len(), 1000);
            assert_eq!(shard.leaves.len(), (page - 999).min(2) as usize);
            for dirty in 0..1000u64 {
                let dirty = NodeAddr::Current(PageId(dirty));
                assert!(
                    !shard.leaves.contains(&dirty) && !shard.index.contains(&dirty),
                    "a clean list holds dirty {dirty}"
                );
            }
            drop(shard);
            drop(evicted);
        }
        // A hit on a dirty entry leaves the write order alone.
        assert!(cache.get(NodeAddr::Current(PageId(0))).is_some());
        let (victim, _) = cache
            .dirty_overflow_victim(NodeAddr::Current(PageId(0)))
            .unwrap();
        assert_eq!(victim, PageId(0), "a read re-ordered the dirty list");
        assert_lists_partition_the_entries(&cache);
    }

    #[test]
    fn a_page_recycled_from_index_to_leaf_leaves_no_stale_recency_entry() {
        let cache = NodeCache::new(2);
        let page = PageId(7);
        let addr = NodeAddr::Current(page);
        cache.insert_clean(addr, index_node());
        // The page is freed and reallocated as a leaf: its new content
        // arrives dirty, then is written back.
        cache.insert_dirty(page, node());
        assert_lists_partition_the_entries(&cache);
        cache.mark_clean(addr);
        assert_lists_partition_the_entries(&cache);
        {
            let shard = cache.shards[0].lock();
            assert!(shard.leaves.contains(&addr));
            assert!(shard.index.is_empty(), "the index list kept the page");
        }
        // And back: leaf to index.
        cache.insert_dirty(page, index_node());
        cache.mark_clean(addr);
        assert_lists_partition_the_entries(&cache);
        // Leaves stream through; the page, an index node now, stays.
        for p in 100..110u64 {
            cache.insert_clean(NodeAddr::Current(PageId(p)), node());
            assert_lists_partition_the_entries(&cache);
        }
        assert!(matches!(*cache.get(addr).unwrap(), Node::Index(_)));
        assert_eq!(cache.len(), 2);
    }
}
