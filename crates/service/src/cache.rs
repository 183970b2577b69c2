//! The result cache: a process-local sharded LRU.
//!
//! [`MemoryLru`] maps 64-bit canonical request digests (scenario content
//! hash folded with the operation and grid flavour) to the *rendered JSON
//! text* of a completed request — not the solver's data structures:
//! replaying the exact bytes is what makes a cache hit indistinguishable
//! from a fresh solve on the wire.
//!
//! Sharding bounds lock contention: a key's upper bits pick a shard, each
//! shard is an independent mutex-guarded LRU, and capacity is divided
//! evenly across shards. Recency is tracked with a per-shard logical
//! clock; eviction scans the (small, bounded) shard for the stalest entry.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of independently locked shards.
const SHARDS: usize = 8;

struct Entry {
    value: Arc<String>,
    last_used: u64,
}

#[derive(Default)]
struct Shard {
    map: HashMap<u64, Entry>,
    clock: u64,
}

/// A fixed-capacity sharded LRU from request digests to rendered results.
pub struct MemoryLru {
    shards: Vec<Mutex<Shard>>,
    per_shard_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl MemoryLru {
    /// A cache holding at most `capacity` entries in total (rounded up to
    /// a multiple of the shard count). `capacity == 0` disables caching:
    /// every lookup misses and inserts are dropped.
    pub fn new(capacity: usize) -> Self {
        MemoryLru {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            per_shard_capacity: capacity.div_ceil(SHARDS),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: u64) -> &Mutex<Shard> {
        // Upper bits: the low bits of FNV digests are the best mixed, but
        // any fixed slice works; SHARDS is a power of two.
        &self.shards[(key >> 32) as usize % SHARDS]
    }

    /// Entries currently cached, across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map.len()).sum()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total capacity (as rounded at construction).
    pub fn capacity(&self) -> usize {
        self.per_shard_capacity * SHARDS
    }

    /// Lifetime hit count.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lifetime miss count.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Look up `key`, refreshing its recency. Counts a hit or miss.
    pub fn get(&self, key: u64) -> Option<Arc<String>> {
        if self.per_shard_capacity == 0 {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let mut shard = self.shard(key).lock();
        shard.clock += 1;
        let clock = shard.clock;
        match shard.map.get_mut(&key) {
            Some(entry) => {
                entry.last_used = clock;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(&entry.value))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Insert (or refresh) `key`, evicting the shard's stalest entry if
    /// it is full.
    pub fn insert(&self, key: u64, value: Arc<String>) {
        if self.per_shard_capacity == 0 {
            return;
        }
        let mut shard = self.shard(key).lock();
        shard.clock += 1;
        let clock = shard.clock;
        if !shard.map.contains_key(&key) && shard.map.len() >= self.per_shard_capacity {
            if let Some(&stalest) = shard
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k)
            {
                shard.map.remove(&stalest);
            }
        }
        shard.map.insert(
            key,
            Entry {
                value,
                last_used: clock,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn value(s: &str) -> Arc<String> {
        Arc::new(s.to_string())
    }

    #[test]
    fn get_after_insert_hits() {
        let cache = MemoryLru::new(16);
        assert!(cache.get(7).is_none());
        cache.insert(7, value("seven"));
        assert_eq!(cache.get(7).as_deref().map(String::as_str), Some("seven"));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = MemoryLru::new(0);
        cache.insert(1, value("x"));
        assert!(cache.get(1).is_none());
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.capacity(), 0);
    }

    #[test]
    fn lru_evicts_the_stalest_entry() {
        let cache = MemoryLru::new(SHARDS); // one entry per shard
                                            // Keys in the same shard: same upper bits.
        let k = |i: u64| i; // all in shard 0
        cache.insert(k(1), value("a"));
        cache.insert(k(2), value("b")); // evicts 1 (shard holds one entry)
        assert!(cache.get(k(1)).is_none());
        assert!(cache.get(k(2)).is_some());
    }

    #[test]
    fn recency_refresh_protects_entries() {
        let cache = MemoryLru::new(2 * SHARDS); // two entries per shard
        cache.insert(1, value("a"));
        cache.insert(2, value("b"));
        assert!(cache.get(1).is_some()); // 1 is now the most recent
        cache.insert(3, value("c")); // evicts 2, not 1
        assert!(cache.get(1).is_some());
        assert!(cache.get(2).is_none());
        assert!(cache.get(3).is_some());
    }

    #[test]
    fn concurrent_access_is_safe() {
        let cache = Arc::new(MemoryLru::new(64));
        let handles: Vec<_> = (0..8u64)
            .map(|t| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || {
                    for i in 0..500u64 {
                        let key = (t << 32) | (i % 16);
                        cache.insert(key, value("v"));
                        let _ = cache.get(key);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(cache.len() <= cache.capacity());
    }
}
