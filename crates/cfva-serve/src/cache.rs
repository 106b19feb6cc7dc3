//! The memoized result cache behind the O(1) serve path.
//!
//! Responses are pure functions of `(map spec, request)` — and, for
//! measurements, of strictly *less* than the request: any two accesses
//! in one [`StrideClass`] produce bit-identical [`AccessStats`]
//! (`cfva-core/tests/stride_class.rs` proves it per map, the serve
//! proptests prove it end to end). The cache therefore keys on the
//! **canonical spec string** plus the **class-reduced request**, so a
//! repeated measurement — even spelled with a different base, an
//! equivalent odd part, or a scrambled spec string — resolves without
//! touching the pool.
//!
//! Sharded (8 ways, keyed by the request hash) so concurrent
//! submitters do not serialize on one lock; bounded with exact
//! least-recently-used eviction per shard (a monotonic clock stamp per
//! entry, the minimum evicted on overflow — an `O(shard)` scan, cheap
//! at serving shard sizes and free of linked-list bookkeeping). Only
//! `Ok` responses are cached: a session build failure may be transient
//! (a matrix file appearing later), and errors are cheap to recompute.
//!
//! Counters ([`CacheStats`]) are relaxed atomics — monitoring data,
//! not synchronization.

use std::collections::HashMap;
use std::hash::{BuildHasher, RandomState};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cfva_core::plan::Strategy;
use cfva_core::StrideClass;
use cfva_memsim::IssuePolicy;

use crate::api::{Estimator, Response, SchedulePlan};
use crate::locks::{ClassedMutex, LockClass};

/// Shard count; a power of two so the shard pick is a mask.
const SHARDS: usize = 8;

/// The request part of a cache key, with measurements reduced to their
/// stride-equivalence classes (see the [module docs](self)).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum RequestKey {
    /// `Request::Measure`, class-reduced.
    Measure {
        /// The access's stride-equivalence class under the spec'd map.
        class: StrideClass,
        /// The requested ordering strategy.
        strategy: Strategy,
    },
    /// `Request::MeasureBatch`, each access class-reduced, in order.
    Batch {
        /// The batch's classes with their strategies, in request order.
        items: Vec<(StrideClass, Strategy)>,
    },
    /// `Request::FamilySweep` — already fully determined by its
    /// parameters (the sweep constructs its own accesses).
    FamilySweep {
        /// Vector length of every swept access.
        len: u64,
        /// Largest family exponent swept.
        max_x: u32,
        /// Odd stride part shared by all families.
        sigma: i64,
    },
    /// `Request::MultiStream`, each stream class-reduced, in order.
    /// Sound for the same reason as `Measure`: per-stream statistics,
    /// wave structure, and conflict counts are invariant within a
    /// stream's stride class under the spec'd map.
    MultiStream {
        /// The streams' stride-equivalence classes, in request order.
        streams: Vec<StrideClass>,
        /// The ordering strategy every stream is planned with.
        strategy: Strategy,
        /// The issue policy of every co-run wave.
        policy: IssuePolicy,
        /// The wave-partition plan (FIFO vs conflict-aware, width).
        schedule: SchedulePlan,
    },
    /// `Request::Efficiency` — deterministic in `(parameters, seed)`.
    Efficiency {
        /// Ordering strategy for every sampled access.
        strategy: Strategy,
        /// Vector length of every sampled access.
        len: u64,
        /// Estimator selection and parameters.
        estimator: Estimator,
        /// The RNG seed.
        seed: u64,
    },
}

/// A full cache key: canonical spec string + class-reduced request.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct CacheKey {
    /// The **canonical** spec string (`MapSpec::canonical`), so
    /// equivalent spellings share one entry; shared with the service's
    /// spec table, so building a key allocates nothing.
    pub(crate) spec: Arc<str>,
    /// The class-reduced request.
    pub(crate) req: RequestKey,
}

/// One cached response with its recency stamp.
#[derive(Debug)]
struct Entry {
    value: Response,
    stamp: u64,
}

/// Counters and occupancy of the serving result cache, as reported by
/// `Service::stats()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Requests resolved from the cache (no pool submission).
    pub hits: u64,
    /// Cacheable requests that went to the pool (and populate the
    /// cache on success).
    pub misses: u64,
    /// Entries evicted to stay within the capacity bound.
    pub evictions: u64,
    /// Requests that skipped the cache: explicit
    /// `Service::submit_uncached` calls, and requests with no sound
    /// key (an unbuildable spec has no stride-class reduction).
    pub bypasses: u64,
    /// Entries dropped by whole-cache invalidation (the fault
    /// injector's cache poisoning, or an explicit flush) — distinct
    /// from capacity `evictions`.
    pub invalidations: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// The configured capacity bound.
    pub capacity: usize,
}

impl CacheStats {
    /// Hits as a fraction of cache-consulting requests (`0.0` before
    /// any lookup; never `NaN`).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        self.hits as f64 / total as f64
    }
}

/// The sharded, bounded, LRU result cache. See the [module docs](self).
#[derive(Debug)]
pub(crate) struct ResultCache {
    shards: Vec<ClassedMutex<HashMap<CacheKey, Entry>>>,
    /// Entry bound per shard (total capacity split evenly, minimum 1).
    shard_capacity: usize,
    /// Monotonic recency clock; every touch stamps the entry.
    clock: AtomicU64,
    /// Stable hasher for shard selection (the maps hash independently).
    shard_hasher: RandomState,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    bypasses: AtomicU64,
    invalidations: AtomicU64,
}

impl ResultCache {
    /// A cache bounded to (about) `capacity` entries. `capacity` must
    /// be at least 1 — a zero capacity means "no cache" and is the
    /// caller's branch, not this type's.
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "a result cache needs capacity");
        ResultCache {
            shards: (0..SHARDS)
                .map(|_| ClassedMutex::new(LockClass::CacheShard, HashMap::new()))
                .collect(),
            shard_capacity: capacity.div_ceil(SHARDS).max(1),
            clock: AtomicU64::new(0),
            shard_hasher: RandomState::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            bypasses: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &CacheKey) -> &ClassedMutex<HashMap<CacheKey, Entry>> {
        // cfva-lint: allow(L002, reason = "index is masked with SHARDS - 1, a power-of-two bound, so it is always < SHARDS")
        &self.shards[(self.shard_hasher.hash_one(key) as usize) & (SHARDS - 1)]
    }

    /// Looks `key` up, counting a hit (and refreshing the entry's
    /// recency) or a miss.
    pub(crate) fn get(&self, key: &CacheKey) -> Option<Response> {
        let mut shard = self.shard(key).lock();
        match shard.get_mut(key) {
            Some(entry) => {
                entry.stamp = self.clock.fetch_add(1, Ordering::Relaxed);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(entry.value.clone())
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts (or refreshes) `key → value`, evicting the shard's
    /// least-recently-used entry if it is full. Concurrent misses of
    /// the same key overwrite each other — responses are deterministic,
    /// so both wrote the same value.
    pub(crate) fn insert(&self, key: CacheKey, value: Response) {
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        let mut shard = self.shard(&key).lock();
        if !shard.contains_key(&key) && shard.len() >= self.shard_capacity {
            if let Some(oldest) = shard
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| k.clone())
            {
                shard.remove(&oldest);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        shard.insert(key, Entry { value, stamp });
    }

    /// Counts a request that skipped the cache.
    pub(crate) fn note_bypass(&self) {
        self.bypasses.fetch_add(1, Ordering::Relaxed);
    }

    /// Drops every resident entry — the fault injector's cache
    /// poisoning. Correctness-neutral by construction: the next lookup
    /// of any dropped key misses and recomputes the same deterministic
    /// response. Shards are flushed one at a time (the lock hierarchy
    /// holds one shard at most), so a concurrent insert may survive;
    /// that is fine — poisoning promises "entries dropped", not a
    /// linearized snapshot.
    pub(crate) fn invalidate_all(&self) {
        for shard in &self.shards {
            let mut shard = shard.lock();
            let dropped = shard.len() as u64;
            shard.clear();
            drop(shard);
            self.invalidations.fetch_add(dropped, Ordering::Relaxed);
        }
    }

    /// A snapshot of the counters and occupancy.
    pub(crate) fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            bypasses: self.bypasses.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            entries: self.shards.iter().map(|s| s.lock().len()).sum(),
            capacity: self.shard_capacity * SHARDS,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(seed: u64) -> CacheKey {
        CacheKey {
            spec: "interleaved:m=3".into(),
            req: RequestKey::Efficiency {
                strategy: Strategy::Auto,
                len: 64,
                estimator: Estimator::Stratified {
                    max_x: 4,
                    per_family: 1,
                },
                seed,
            },
        }
    }

    #[test]
    fn hit_miss_and_occupancy_counters() {
        let cache = ResultCache::new(64);
        assert_eq!(cache.get(&key(1)), None);
        cache.insert(key(1), Response::Efficiency(0.5));
        assert_eq!(cache.get(&key(1)), Some(Response::Efficiency(0.5)));
        assert_eq!(cache.get(&key(2)), None);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 2, 1));
        assert!((stats.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn capacity_bound_evicts_least_recently_used() {
        // Capacity 8 → one entry per shard: every insert beyond a
        // shard's slot evicts its previous occupant.
        let cache = ResultCache::new(8);
        for seed in 0..64 {
            cache.insert(key(seed), Response::Efficiency(seed as f64));
        }
        let stats = cache.stats();
        assert!(stats.entries <= 8, "bounded: {} entries", stats.entries);
        assert_eq!(stats.evictions as usize + stats.entries, 64);

        // Recency: with two slots per shard, an entry touched before
        // every insert always outranks the churn slot — it must never
        // be the LRU victim.
        let cache = ResultCache::new(16);
        cache.insert(key(0), Response::Efficiency(0.0));
        for seed in 1..256 {
            cache.get(&key(0));
            cache.insert(key(seed), Response::Efficiency(seed as f64));
        }
        assert_eq!(
            cache.get(&key(0)),
            Some(Response::Efficiency(0.0)),
            "a constantly-touched entry is never the LRU victim"
        );
    }

    #[test]
    fn invalidate_all_flushes_everything_and_counts_it() {
        let cache = ResultCache::new(64);
        for seed in 0..10 {
            cache.insert(key(seed), Response::Efficiency(seed as f64));
        }
        cache.invalidate_all();
        let stats = cache.stats();
        assert_eq!(stats.entries, 0, "poisoned cache holds nothing");
        assert_eq!(stats.invalidations, 10);
        assert_eq!(stats.evictions, 0, "invalidation is not eviction");
        assert_eq!(cache.get(&key(3)), None, "flushed entries simply miss");
    }

    #[test]
    fn equivalent_spellings_would_share_keys() {
        // The key is the canonical spec string: the service hands every
        // spelling through `MapSpec::canonical()` first, so this is the
        // identity that makes "xor-matched:s=0x4,t=3" hit the entry of
        // "xor-matched:s=4,t=3".
        let a = CacheKey {
            spec: "xor-matched:s=4,t=3".into(),
            req: RequestKey::FamilySweep {
                len: 64,
                max_x: 4,
                sigma: 1,
            },
        };
        let b = a.clone();
        assert_eq!(a, b);
        let cache = ResultCache::new(16);
        cache.insert(a, Response::FamilySweep(Vec::new()));
        assert!(cache.get(&b).is_some());
    }
}
