//! An O(1) least-recently-used ordering over hashable keys.
//!
//! The engine's one cache, `tsb-core`'s decoded-node cache, needs recency
//! bookkeeping: *touch* on every access, *insert* on fill, *remove* on
//! discard, and *pop the coldest* on eviction, each in constant time. The
//! classic intrusive doubly-linked list over a slab does exactly that
//! without per-operation allocation; a `HashMap` maps keys to slab slots.
//!
//! This replaces the seed's "scan every frame for the minimum tick" victim
//! search, which made eviction O(n) per fill once a cache was warm.

use std::collections::HashMap;
use std::hash::Hash;

const NIL: usize = usize::MAX;

#[derive(Debug)]
struct Link<K> {
    key: K,
    prev: usize,
    next: usize,
}

/// A constant-time LRU ordering. Tracks *order only*; callers keep the
/// associated values in their own map keyed by `K`.
#[derive(Debug)]
pub struct LruList<K> {
    slots: Vec<Link<K>>,
    free: Vec<usize>,
    index: HashMap<K, usize>,
    /// Most recently used slot.
    head: usize,
    /// Least recently used slot.
    tail: usize,
}

impl<K: Eq + Hash + Clone> Default for LruList<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Eq + Hash + Clone> LruList<K> {
    /// Creates an empty list.
    pub fn new() -> Self {
        LruList {
            slots: Vec::new(),
            free: Vec::new(),
            index: HashMap::new(),
            head: NIL,
            tail: NIL,
        }
    }

    /// Number of tracked keys.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether no keys are tracked.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Whether `key` is tracked.
    pub fn contains(&self, key: &K) -> bool {
        self.index.contains_key(key)
    }

    fn unlink(&mut self, slot: usize) {
        let (prev, next) = (self.slots[slot].prev, self.slots[slot].next);
        if prev == NIL {
            self.head = next;
        } else {
            self.slots[prev].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.slots[next].prev = prev;
        }
    }

    fn link_front(&mut self, slot: usize) {
        self.slots[slot].prev = NIL;
        self.slots[slot].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }

    /// Marks `key` most recently used, inserting it if absent.
    pub fn touch(&mut self, key: K) {
        if let Some(&slot) = self.index.get(&key) {
            if self.head != slot {
                self.unlink(slot);
                self.link_front(slot);
            }
            return;
        }
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot].key = key.clone();
                slot
            }
            None => {
                self.slots.push(Link {
                    key: key.clone(),
                    prev: NIL,
                    next: NIL,
                });
                self.slots.len() - 1
            }
        };
        self.index.insert(key, slot);
        self.link_front(slot);
    }

    /// Stops tracking `key`. Returns whether it was tracked.
    pub fn remove(&mut self, key: &K) -> bool {
        match self.index.remove(key) {
            Some(slot) => {
                self.unlink(slot);
                self.free.push(slot);
                true
            }
            None => false,
        }
    }

    /// Returns the least recently used key without removing it.
    pub fn peek_lru(&self) -> Option<&K> {
        if self.tail == NIL {
            None
        } else {
            Some(&self.slots[self.tail].key)
        }
    }

    /// Removes and returns the least recently used key.
    pub fn pop_lru(&mut self) -> Option<K> {
        if self.tail == NIL {
            return None;
        }
        let slot = self.tail;
        let key = self.slots[slot].key.clone();
        self.unlink(slot);
        self.index.remove(&key);
        self.free.push(slot);
        Some(key)
    }

    /// Drops all tracked keys.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.free.clear();
        self.index.clear();
        self.head = NIL;
        self.tail = NIL;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eviction_order_is_least_recently_used() {
        let mut lru = LruList::new();
        for k in [1, 2, 3] {
            lru.touch(k);
        }
        lru.touch(1); // order (cold -> hot): 2, 3, 1
        assert_eq!(lru.pop_lru(), Some(2));
        assert_eq!(lru.pop_lru(), Some(3));
        assert_eq!(lru.pop_lru(), Some(1));
        assert_eq!(lru.pop_lru(), None);
        assert!(lru.is_empty());
    }

    #[test]
    fn remove_and_reuse_slots() {
        let mut lru = LruList::new();
        for k in 0..100 {
            lru.touch(k);
        }
        assert!(lru.remove(&50));
        assert!(!lru.remove(&50));
        assert!(!lru.contains(&50));
        assert_eq!(lru.len(), 99);
        // Freed slot gets reused without growing the slab.
        let slots_before = lru.slots.len();
        lru.touch(1000);
        assert_eq!(lru.slots.len(), slots_before);
        assert_eq!(lru.pop_lru(), Some(0));
    }

    #[test]
    fn touch_moves_to_front_and_clear_resets() {
        let mut lru = LruList::new();
        lru.touch("a");
        lru.touch("b");
        lru.touch("a"); // "b" is now coldest
        assert_eq!(lru.pop_lru(), Some("b"));
        lru.clear();
        assert!(lru.is_empty());
        assert_eq!(lru.pop_lru(), None);
    }

    #[test]
    fn single_element_edge_cases() {
        let mut lru = LruList::new();
        lru.touch(7);
        lru.touch(7);
        assert_eq!(lru.len(), 1);
        assert_eq!(lru.pop_lru(), Some(7));
        assert!(lru.pop_lru().is_none());
        lru.touch(8);
        assert!(lru.remove(&8));
        assert!(lru.pop_lru().is_none());
    }
}
