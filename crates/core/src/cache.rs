//! An optional feature-vector cache for stepping-API callers.
//!
//! Sessions and service tenants run without one: the candidate set's
//! dense matrix is the run's single copy of the feature vectors, and the
//! pairs a run vectorizes twice (the four seeds, the blocker sample's
//! overlap with `C`) are a fraction of a percent of its work. A caller
//! driving [`Engine::start_run`](crate::engine::Engine::start_run) and
//! friends directly may still pass a [`FeatureCache`]; results are
//! identical with or without one, and its counters land in
//! `PerfReport::cache`. It is never written into a snapshot.
//!
//! The cache is sharded: a key hashes to one of a fixed number of
//! independently locked shards, so concurrent `get_or_compute` calls from
//! the parallel vectorization loops rarely contend. Vectorization itself
//! always happens *outside* any lock.
//!
//! Capacity is a bound on entries, enforced per shard by refusing new
//! inserts once a shard is full (no eviction): the computed vector is
//! still returned, it just isn't retained. This keeps memory bounded with
//! zero bookkeeping on the hot hit path.

use crowd::PairKey;
use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const N_SHARDS: usize = 16;

/// Suggested entry capacity for a caller-owned feature cache (~262k
/// vectors).
pub const DEFAULT_CACHE_CAPACITY: usize = 1 << 18;

/// Hit/miss/occupancy counters, surfaced in `RunReport`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to vectorize.
    pub misses: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Maximum entries the cache will retain.
    pub capacity: usize,
}

impl CacheStats {
    /// Hit fraction over all lookups (0 when there were none).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A sharded, capacity-bounded, read-through cache from pair keys to
/// feature vectors.
pub struct FeatureCache {
    shards: Vec<RwLock<HashMap<PairKey, Arc<Vec<f64>>>>>,
    shard_capacity: usize,
    /// The capacity the caller asked for. Per-shard enforcement rounds up
    /// (`shard_capacity * N_SHARDS` may exceed this), but stats report the
    /// requested number.
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl std::fmt::Debug for FeatureCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("FeatureCache")
            .field("entries", &s.entries)
            .field("capacity", &s.capacity)
            .field("hits", &s.hits)
            .field("misses", &s.misses)
            .finish()
    }
}

impl FeatureCache {
    /// A cache retaining at most `capacity` feature vectors.
    pub fn with_capacity(capacity: usize) -> Self {
        FeatureCache {
            shards: (0..N_SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
            shard_capacity: capacity.div_ceil(N_SHARDS),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn shard_of(key: PairKey) -> usize {
        // SplitMix64-style mix of the packed key; low bits pick the shard.
        let mut h = ((key.a as u64) << 32) | key.b as u64;
        h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (h ^ (h >> 31)) as usize % N_SHARDS
    }

    /// Look up `key`, computing and (capacity permitting) retaining the
    /// vector on a miss. `compute` runs outside any lock.
    ///
    /// Hit/miss counters are exact when concurrent callers use distinct
    /// keys — which every parallel vectorization batch in this workspace
    /// does; concurrent lookups of the *same* absent key may each count a
    /// miss.
    pub fn get_or_compute(
        &self,
        key: PairKey,
        compute: impl FnOnce() -> Vec<f64>,
    ) -> Arc<Vec<f64>> {
        let shard = &self.shards[Self::shard_of(key)];
        if let Some(v) = shard.read().get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(v);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let value = Arc::new(compute());
        let mut guard = shard.write();
        if let Some(existing) = guard.get(&key) {
            // Another thread computed it between our read and write; keep
            // the resident copy so all holders share one allocation.
            return Arc::clone(existing);
        }
        if guard.len() < self.shard_capacity {
            guard.insert(key, Arc::clone(&value));
        }
        value
    }

    /// Current counters and occupancy.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.shards.iter().map(|s| s.read().len()).sum(),
            capacity: self.capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(a: u32, b: u32) -> PairKey {
        PairKey::new(a, b)
    }

    #[test]
    fn miss_then_hit() {
        let cache = FeatureCache::with_capacity(100);
        let v1 = cache.get_or_compute(key(1, 2), || vec![1.0, 2.0]);
        let v2 = cache.get_or_compute(key(1, 2), || panic!("must not recompute"));
        assert!(Arc::ptr_eq(&v1, &v2));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        assert!((cache.stats().hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn capacity_bounds_retention_but_not_results() {
        let cache = FeatureCache::with_capacity(N_SHARDS); // 1 per shard
        for i in 0..1000u32 {
            let v = cache.get_or_compute(key(i, i), || vec![i as f64]);
            assert_eq!(*v, vec![i as f64], "value correct even when not retained");
        }
        let s = cache.stats();
        assert!(s.entries <= N_SHARDS, "entries {} over capacity", s.entries);
        assert_eq!(s.misses, 1000);
    }

    #[test]
    fn concurrent_distinct_keys_count_exactly() {
        let cache = FeatureCache::with_capacity(100_000);
        let keys: Vec<PairKey> = (0..4000u32).map(|i| key(i / 100, i % 100)).collect();
        std::thread::scope(|s| {
            let cache = &cache;
            for chunk in keys.chunks(500) {
                s.spawn(move || {
                    for &k in chunk {
                        let v = cache.get_or_compute(k, || vec![k.a as f64, k.b as f64]);
                        assert_eq!(v[0], k.a as f64);
                    }
                });
            }
        });
        let s = cache.stats();
        assert_eq!(s.misses, 4000, "each distinct key misses exactly once");
        assert_eq!(s.hits, 0);
        assert_eq!(s.entries, 4000);
        // Second pass from many threads: all hits.
        std::thread::scope(|scope| {
            let cache = &cache;
            for chunk in keys.chunks(500) {
                scope.spawn(move || {
                    for &k in chunk {
                        cache.get_or_compute(k, || panic!("resident key recomputed"));
                    }
                });
            }
        });
        assert_eq!(cache.stats().hits, 4000);
    }

    #[test]
    fn concurrent_same_key_returns_shared_value() {
        let cache = FeatureCache::with_capacity(100);
        let results: Vec<Arc<Vec<f64>>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| s.spawn(|| cache.get_or_compute(key(7, 7), || vec![7.0])))
                .collect();
            handles.into_iter().map(|h| h.join().expect("no panic")).collect()
        });
        for r in &results {
            assert_eq!(**r, vec![7.0]);
        }
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn stats_report_requested_capacity() {
        // Regression: per-shard rounding used to leak into stats —
        // with_capacity(100) reported ceil(100/16)*16 = 112.
        assert_eq!(FeatureCache::with_capacity(100).stats().capacity, 100);
        assert_eq!(FeatureCache::with_capacity(0).stats().capacity, 0);
        assert_eq!(
            FeatureCache::with_capacity(super::DEFAULT_CACHE_CAPACITY).stats().capacity,
            super::DEFAULT_CACHE_CAPACITY
        );
    }
}
