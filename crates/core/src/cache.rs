//! A content-addressed result cache with a byte budget.
//!
//! The compile service (`plimd`) keys finished artifacts by
//! [`CacheKey`] — the canonical structural digest of the input graph
//! ([`mig::canon::structural_digest`]) plus a fingerprint of the request
//! options — and bounds memory with a byte budget: inserting past the
//! budget evicts least-recently-used entries until the new value fits.
//!
//! The cache itself is single-threaded; the service keeps one
//! [`LruCache`] behind a mutex that its workers and its reactor share.
//! Hit/miss/eviction counters and the live byte total are tracked for
//! the `stats` endpoint.
//!
//! ```
//! use plim_compiler::cache::{CacheKey, LruCache};
//!
//! let mut cache = LruCache::new(1024);
//! let key = CacheKey::new(0xFEED, 0xF00D);
//! assert!(cache.get(&key).is_none());
//! cache.insert(key, "artifact".to_string(), 8);
//! assert_eq!(cache.get(&key).map(String::as_str), Some("artifact"));
//! assert_eq!(cache.stats().hits, 1);
//! ```

use std::collections::HashMap;

/// 128-bit FNV-1a over a byte string — the unkeyed hash of the values
/// that must agree across processes (store checksums, the options
/// fingerprint). Re-exported from [`mig::canon`] so those layers share one
/// implementation; text a client chooses is hashed with the keyed
/// [`mig::hash::TextHash`] instead.
pub use mig::canon::fnv128;

/// Content address of one cached compile result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Canonical structural digest of the input graph.
    pub graph: u128,
    /// Fingerprint of everything else that shapes the artifact (rewrite
    /// effort, compiler options, emit kind, …).
    pub options: u64,
}

impl CacheKey {
    /// Creates a key from its two components.
    pub fn new(graph: u128, options: u64) -> Self {
        CacheKey { graph, options }
    }

    /// Compact hex spelling (graph digest then options fingerprint), used
    /// as the `key` field of service responses.
    pub fn hex(&self) -> String {
        format!("{:032x}{:016x}", self.graph, self.options)
    }
}

/// Cumulative counters of one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// `get` calls that found a live entry.
    pub hits: u64,
    /// `get` calls that found nothing.
    pub misses: u64,
    /// Entries evicted to respect the byte budget.
    pub evictions: u64,
    /// Bytes currently held (sum of entry weights).
    pub bytes: usize,
    /// Entries currently held.
    pub entries: usize,
}

/// Slab slot of one entry, intrusively linked in recency order.
///
/// `value` is an `Option` so removal can drop the payload *immediately*:
/// a freed slot whose multi-megabyte artifact lingered until the slot's
/// reuse would let real memory sit far above the accounted byte total.
#[derive(Debug)]
struct Entry<V> {
    key: CacheKey,
    value: Option<V>,
    weight: usize,
    /// Slab index of the more recently used neighbor (`usize::MAX` = none).
    prev: usize,
    /// Slab index of the less recently used neighbor (`usize::MAX` = none).
    next: usize,
}

const NONE: usize = usize::MAX;

/// A least-recently-used cache bounded by a byte budget instead of an
/// entry count.
///
/// Every entry carries an explicit *weight* (its memory footprint in
/// bytes, as accounted by the caller). Inserting a value whose weight
/// exceeds the whole budget is a no-op — the value is simply not cached.
#[derive(Debug)]
pub struct LruCache<V> {
    map: HashMap<CacheKey, usize>,
    slab: Vec<Entry<V>>,
    free: Vec<usize>,
    /// Most recently used entry.
    head: usize,
    /// Least recently used entry.
    tail: usize,
    budget: usize,
    stats: CacheStats,
}

impl<V> LruCache<V> {
    /// Creates a cache that holds at most `budget` bytes of entry weight.
    pub fn new(budget: usize) -> Self {
        LruCache {
            map: HashMap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            head: NONE,
            tail: NONE,
            budget,
            stats: CacheStats::default(),
        }
    }

    /// The configured byte budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Current counters (hits, misses, evictions, live bytes/entries).
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when no entry is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Looks up `key`, marking the entry most recently used on a hit.
    pub fn get(&mut self, key: &CacheKey) -> Option<&V> {
        match self.map.get(key).copied() {
            Some(index) => {
                self.stats.hits += 1;
                self.unlink(index);
                self.push_front(index);
                self.slab[index].value.as_ref()
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Looks up `key` without touching counters or recency.
    pub fn peek(&self, key: &CacheKey) -> Option<&V> {
        self.map
            .get(key)
            .and_then(|&index| self.slab[index].value.as_ref())
    }

    /// Inserts `value` under `key` with the given weight, evicting
    /// least-recently-used entries until the budget holds it. Re-inserting
    /// an existing key replaces the value (and its weight). A value
    /// heavier than the whole budget is not cached at all — and on a
    /// replace, the now-stale old value is dropped rather than kept.
    pub fn insert(&mut self, key: CacheKey, value: V, weight: usize) {
        if weight > self.budget {
            // Uncacheable. This must be checked on the replace path too:
            // falling through would push `bytes` past the budget and the
            // eviction loop below would drain the entire cache.
            if let Some(&index) = self.map.get(&key) {
                self.remove_index(index);
            }
            return;
        }
        if let Some(&index) = self.map.get(&key) {
            self.stats.bytes = self.stats.bytes - self.slab[index].weight + weight;
            self.slab[index].value = Some(value);
            self.slab[index].weight = weight;
            self.unlink(index);
            self.push_front(index);
        } else {
            let entry = Entry {
                key,
                value: Some(value),
                weight,
                prev: NONE,
                next: NONE,
            };
            let index = match self.free.pop() {
                Some(slot) => {
                    self.slab[slot] = entry;
                    slot
                }
                None => {
                    self.slab.push(entry);
                    self.slab.len() - 1
                }
            };
            self.map.insert(key, index);
            self.push_front(index);
            self.stats.bytes += weight;
            self.stats.entries += 1;
        }
        while self.stats.bytes > self.budget {
            self.evict_lru();
        }
    }

    fn evict_lru(&mut self) {
        let index = self.tail;
        debug_assert_ne!(index, NONE, "over budget with no entries");
        self.remove_index(index);
        self.stats.evictions += 1;
    }

    /// Unlinks and frees one entry (not counted as an eviction). The
    /// payload is dropped here, not when the slot is eventually reused.
    fn remove_index(&mut self, index: usize) {
        self.unlink(index);
        let key = self.slab[index].key;
        self.map.remove(&key);
        self.free.push(index);
        self.stats.bytes -= self.slab[index].weight;
        self.stats.entries -= 1;
        self.slab[index].value = None;
    }

    fn unlink(&mut self, index: usize) {
        let (prev, next) = (self.slab[index].prev, self.slab[index].next);
        if prev == NONE {
            if self.head == index {
                self.head = next;
            }
        } else {
            self.slab[prev].next = next;
        }
        if next == NONE {
            if self.tail == index {
                self.tail = prev;
            }
        } else {
            self.slab[next].prev = prev;
        }
        self.slab[index].prev = NONE;
        self.slab[index].next = NONE;
    }

    fn push_front(&mut self, index: usize) {
        self.slab[index].prev = NONE;
        self.slab[index].next = self.head;
        if self.head != NONE {
            self.slab[self.head].prev = index;
        }
        self.head = index;
        if self.tail == NONE {
            self.tail = index;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: u64) -> CacheKey {
        CacheKey::new(n as u128, n)
    }

    #[test]
    fn insert_and_get_round_trip() {
        let mut cache = LruCache::new(100);
        cache.insert(key(1), "one", 10);
        cache.insert(key(2), "two", 10);
        assert_eq!(cache.get(&key(1)), Some(&"one"));
        assert_eq!(cache.get(&key(2)), Some(&"two"));
        assert_eq!(cache.get(&key(3)), None);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (2, 1));
        assert_eq!((stats.entries, stats.bytes), (2, 20));
    }

    #[test]
    fn peek_does_not_touch_counters_or_recency() {
        let mut cache = LruCache::new(20);
        cache.insert(key(1), "one", 10);
        cache.insert(key(2), "two", 10);
        // Peeking at 1 must NOT refresh it...
        assert_eq!(cache.peek(&key(1)), Some(&"one"));
        assert_eq!(cache.peek(&key(3)), None);
        assert_eq!(cache.stats().hits + cache.stats().misses, 0);
        // ...so it is still the LRU entry and gets evicted first.
        cache.insert(key(3), "three", 10);
        assert_eq!(cache.peek(&key(1)), None);
        assert_eq!(cache.peek(&key(2)), Some(&"two"));
    }

    #[test]
    fn evicts_least_recently_used_first() {
        let mut cache = LruCache::new(30);
        cache.insert(key(1), 1, 10);
        cache.insert(key(2), 2, 10);
        cache.insert(key(3), 3, 10);
        // Touch 1 so 2 becomes the LRU entry.
        assert!(cache.get(&key(1)).is_some());
        cache.insert(key(4), 4, 10);
        assert!(cache.get(&key(2)).is_none(), "LRU entry must be evicted");
        assert!(cache.get(&key(1)).is_some());
        assert!(cache.get(&key(3)).is_some());
        assert!(cache.get(&key(4)).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn heavy_insert_evicts_many() {
        let mut cache = LruCache::new(100);
        for n in 0..10 {
            cache.insert(key(n), n, 10);
        }
        cache.insert(key(99), 99, 95);
        assert!(cache.get(&key(99)).is_some());
        // 95 + 10 > 100, so at most one light entry survives... in fact
        // none: eviction keeps going until the budget holds.
        assert_eq!(cache.stats().bytes, 95);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().evictions, 10);
    }

    #[test]
    fn oversized_values_are_not_cached() {
        let mut cache = LruCache::new(50);
        cache.insert(key(1), 1, 10);
        cache.insert(key(2), 2, 51);
        assert!(cache.get(&key(2)).is_none());
        assert!(cache.get(&key(1)).is_some(), "existing entries survive");
        assert_eq!(cache.stats().evictions, 0);
    }

    #[test]
    fn oversized_replace_drops_the_key_without_draining_the_cache() {
        let mut cache = LruCache::new(50);
        cache.insert(key(1), 1, 10);
        cache.insert(key(2), 2, 10);
        // Replacing key 1 with an over-budget value must not wipe key 2
        // (the old buggy path pushed bytes past the budget and the
        // eviction loop drained everything).
        cache.insert(key(1), 99, 51);
        assert!(cache.peek(&key(1)).is_none(), "stale value must be gone");
        assert!(cache.peek(&key(2)).is_some(), "other entries survive");
        assert_eq!(cache.stats().evictions, 0);
        assert_eq!(cache.stats().bytes, 10);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn reinsert_replaces_value_and_weight() {
        let mut cache = LruCache::new(100);
        cache.insert(key(1), "a", 60);
        cache.insert(key(1), "b", 20);
        assert_eq!(cache.get(&key(1)), Some(&"b"));
        assert_eq!(cache.stats().bytes, 20);
        assert_eq!(cache.len(), 1);
        // The freed headroom is usable again.
        cache.insert(key(2), "c", 80);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 0);
    }

    #[test]
    fn eviction_drops_the_payload_immediately() {
        // Freed slots must not pin their (potentially huge) values until
        // reuse — real memory would sit far above the accounted bytes.
        let payload = std::rc::Rc::new(());
        let mut cache = LruCache::new(10);
        cache.insert(key(1), std::rc::Rc::clone(&payload), 10);
        assert_eq!(std::rc::Rc::strong_count(&payload), 2);
        cache.insert(key(2), std::rc::Rc::new(()), 10); // evicts key 1
        assert_eq!(
            std::rc::Rc::strong_count(&payload),
            1,
            "evicted value must be dropped at eviction time"
        );
    }

    #[test]
    fn slots_are_reused_after_eviction() {
        let mut cache = LruCache::new(10);
        for n in 0..100 {
            cache.insert(key(n), n, 10);
        }
        assert_eq!(cache.len(), 1);
        assert!(cache.slab.len() <= 2, "slab must recycle evicted slots");
        assert_eq!(cache.stats().evictions, 99);
        assert!(cache.get(&key(99)).is_some());
    }

    #[test]
    fn zero_weight_entries_and_empty_cache_edge_cases() {
        let mut cache: LruCache<&str> = LruCache::new(0);
        cache.insert(key(1), "w", 1);
        assert!(cache.is_empty());
        cache.insert(key(2), "free", 0);
        assert_eq!(cache.get(&key(2)), Some(&"free"));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn hex_spelling_is_fixed_width() {
        let k = CacheKey::new(0xABC, 0x123);
        let hex = k.hex();
        assert_eq!(hex.len(), 48);
        assert!(hex.ends_with("0000000000000123"));
    }

    #[test]
    fn fnv128_distinguishes_and_is_stable() {
        assert_eq!(fnv128(b""), 0x6c62272e07bb014262b821756295c58d);
        assert_ne!(fnv128(b"a"), fnv128(b"b"));
        assert_ne!(fnv128(b"ab"), fnv128(b"ba"));
        assert_eq!(fnv128(b"inputs a b\n"), fnv128(b"inputs a b\n"));
    }
}
