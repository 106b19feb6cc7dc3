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
//! submitters do not serialize on one lock. Only `Ok` responses are
//! cached: a session build failure may be transient (a matrix file
//! appearing later), and errors are cheap to recompute.
//!
//! # Admission
//!
//! A key is cached on its **second** miss, not its first (TinyLFU's
//! doorkeeper: a response whose key never comes back should not
//! displace one whose key does). Each shard keeps, under its lock, an
//! admission window: the 64-bit fingerprints (the shard hash the lookup
//! computes anyway) of its most recently missed keys, oldest first,
//! with a set for lookup. A miss whose fingerprint is in the window is
//! admitted — its response is inserted once computed. Any other miss is
//! declined: its fingerprint is recorded and the oldest one drops out.
//! So a repeated key misses twice and hits from its third submission,
//! and a one-off key costs a fingerprint instead of an entry and an
//! eviction. Declined misses are the misses that no insert accounts
//! for: on a quiesced service they number `misses − (entries +
//! evictions + invalidations + oversize)`.
//!
//! The window is exact, not a lossy table, so admission never depends
//! on the per-process hash beyond which keys share a shard: a run with
//! fewer misses per shard than the window holds admits exactly the
//! keys it has seen before. Invalidation drops entries and keeps the
//! window, so a flushed key that comes back is admitted at once.
//!
//! # Byte bound
//!
//! The cache is bounded in **bytes**. Each entry is charged its payload
//! (arrival and module-busy words, batch items, sweep rows, co-run
//! summaries, a batch or co-run key's classes) plus
//! [`ENTRY_OVERHEAD`], the fixed cost of its key, response header,
//! table slot and queue slot. Each shard holds at most an eighth of the
//! budget; a response charged more than that is answered but never
//! cached, and counted ([`CacheStats::oversize`]). A shard's admission
//! window holds as many fingerprints as the shard could hold entries
//! (`shard budget / ENTRY_OVERHEAD`), up to [`WINDOW_CAP`], and is
//! allocated once, outside the byte bound: at the 8 MiB default the cap
//! binds, and the 8 windows hold 28,672 fingerprints in about 0.8 MiB.
//!
//! # Shared entries
//!
//! An entry holds its response behind an `Arc`, and the response's
//! arrival cycles are themselves shared ([`cfva_memsim::Arrivals`]). A
//! hit clones the `Arc` under the shard lock and the response after it:
//! the arrivals of every hit on one entry are one buffer, never a copy.
//!
//! # Recency: second chance
//!
//! Each shard keeps its keys in a FIFO queue in insertion order, and a
//! hit sets the entry's reference bit — the only write a hit makes
//! under the lock (no allocation, no key clone, no window access). To
//! make room, an insert pops the queue's head: a referenced entry has
//! its bit cleared and goes to the back (its second chance), an
//! unreferenced one is evicted. So the order kept is insertion order
//! with one reprieve per hit: no entry hit since it last passed the
//! head is evicted while an entry without such a hit remains. Each bit
//! a hit sets is cleared at most once, so an insert that evicts `k`
//! entries costs amortized `O(k)`. Only admitted keys are inserted, so
//! every entry has been asked for at least twice.
//!
//! Counters ([`CacheStats`]) are relaxed atomics — monitoring data,
//! not synchronization.

use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::{BuildHasher, RandomState};
use std::mem::size_of;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cfva_core::plan::Strategy;
use cfva_core::StrideClass;
use cfva_memsim::{AccessStats, IssuePolicy};

use crate::api::{Estimator, FamilyPoint, Response, SchedulePlan, StreamSummary};
use crate::locks::{ClassedMutex, LockClass};

/// Shard count; a power of two so the shard pick is a mask.
const SHARDS: usize = 8;

/// The most fingerprints one shard's admission window holds, whatever
/// the byte bound. Its set, reserved at twice this, then fits 8,192
/// buckets, so a full window's ring and set take about 0.1 MiB per
/// shard. A shard's 1 MiB share of the default bound could hold 4,854
/// entries, so the cap binds there; it also keeps a very large bound
/// from asking for a window of its size up front.
const WINDOW_CAP: usize = 3584;

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

/// One cached response, shared with every hit.
#[derive(Debug)]
struct Entry {
    value: Arc<Response>,
    /// Bytes charged against the shard's budget.
    bytes: usize,
    /// Set by a hit; cleared when the entry passes the queue's head.
    referenced: bool,
}

/// One shard: the table, its keys in insertion order, their charge,
/// and the admission window.
#[derive(Debug)]
struct Shard {
    map: HashMap<Arc<CacheKey>, Entry>,
    /// Every resident key once, oldest insertion (or second chance)
    /// first.
    queue: VecDeque<Arc<CacheKey>>,
    bytes: usize,
    window: Window,
}

/// The fingerprints of a shard's most recently missed keys (see
/// [Admission](self#admission)): each at most once, oldest first, with
/// a set for lookup. The set is reserved at twice the window's length,
/// so FIFO churn never fills it past half: its tombstones are cleared by
/// rehashing in place, and the window's heap is fixed when it is built.
#[derive(Debug)]
struct Window {
    /// The fingerprints, oldest first.
    order: VecDeque<u64>,
    /// Each fingerprint in `order`.
    set: HashSet<u64>,
    /// The most fingerprints held.
    len: usize,
}

impl Window {
    /// An empty window holding at most `len` fingerprints.
    fn new(len: usize) -> Self {
        Window {
            order: VecDeque::with_capacity(len),
            set: HashSet::with_capacity(2 * len),
            len,
        }
    }

    /// Whether `print` is in the window; if not, records it, dropping
    /// the oldest fingerprint when the window is full.
    fn admit(&mut self, print: u64) -> bool {
        if self.set.contains(&print) {
            return true;
        }
        if self.len == 0 {
            return false;
        }
        if self.order.len() == self.len {
            if let Some(oldest) = self.order.pop_front() {
                self.set.remove(&oldest);
            }
        }
        self.set.insert(print);
        self.order.push_back(print);
        false
    }
}

/// The outcome of [`ResultCache::get`].
#[derive(Debug, PartialEq)]
pub(crate) enum Lookup {
    /// The cached response, sharing the entry's arrival buffers.
    Hit(Response),
    /// Not cached. `admit`: the key was missed recently, so its
    /// response should be inserted once computed.
    Miss {
        /// Whether to insert the computed response.
        admit: bool,
    },
}

/// Bytes a reference-counted allocation adds before its value.
const ARC_HEADER: usize = 2 * size_of::<usize>();

/// The fixed bytes charged per entry on top of its payload: the key and
/// the response in their shared allocations, the table slot (the key's
/// handle and the [`Entry`]) and the queue slot.
const ENTRY_OVERHEAD: usize = ARC_HEADER
    + size_of::<CacheKey>()
    + ARC_HEADER
    + size_of::<Response>()
    + size_of::<(Arc<CacheKey>, Entry)>()
    + size_of::<Arc<CacheKey>>();

/// Heap bytes one `AccessStats` holds: its shared arrival buffer
/// (header and cycles) and its module-busy words.
fn stats_bytes(s: &AccessStats) -> usize {
    ARC_HEADER + size_of::<Vec<u64>>() + (s.arrival.len() + s.module_busy.len()) * size_of::<u64>()
}

/// Heap bytes `r` holds beyond its `Response` header.
fn response_bytes(r: &Response) -> usize {
    match r {
        Response::Measured(s) => s.as_ref().map_or(0, stats_bytes),
        Response::Batch(items) => items
            .iter()
            .map(|s| size_of::<Option<AccessStats>>() + s.as_ref().map_or(0, stats_bytes))
            .sum(),
        Response::FamilySweep(rows) => rows.len() * size_of::<FamilyPoint>(),
        Response::Efficiency(_) => 0,
        Response::MultiStream(o) => {
            o.per_stream.len() * size_of::<StreamSummary>()
                + o.wave_makespans.len() * size_of::<u64>()
        }
        Response::Degraded { response, .. } => size_of::<Response>() + response_bytes(response),
    }
}

/// The bytes an entry for `key → value` is charged: its payload plus
/// [`ENTRY_OVERHEAD`]. The spec text is shared with the spec table and
/// not charged.
fn entry_bytes(key: &CacheKey, value: &Response) -> usize {
    let key_bytes = match &key.req {
        RequestKey::Batch { items } => items.len() * size_of::<(StrideClass, Strategy)>(),
        RequestKey::MultiStream { streams, .. } => streams.len() * size_of::<StrideClass>(),
        _ => 0,
    };
    ENTRY_OVERHEAD + key_bytes + response_bytes(value)
}

/// Counters and occupancy of the serving result cache, as reported by
/// `Service::stats()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Requests resolved from the cache (no pool submission).
    pub hits: u64,
    /// Cacheable requests that went to the pool. A key's first miss
    /// only records it in the admission window; later misses populate
    /// the cache on success.
    pub misses: u64,
    /// Entries evicted to stay within the byte bound.
    pub evictions: u64,
    /// Requests that skipped the cache: explicit
    /// `Service::submit_uncached` calls, and requests with no sound
    /// key (an unbuildable spec has no stride-class reduction).
    pub bypasses: u64,
    /// Entries dropped by whole-cache invalidation (the fault
    /// injector's cache poisoning, or an explicit flush) — distinct
    /// from capacity `evictions`.
    pub invalidations: u64,
    /// Responses answered but not cached because one entry would be
    /// charged more than a shard's share of the byte bound.
    pub oversize: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Bytes currently charged to resident entries (a gauge).
    pub bytes: usize,
    /// The byte bound: the shards' budgets summed.
    pub capacity_bytes: usize,
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

/// The sharded, byte-bounded, second-chance result cache. See the
/// [module docs](self).
#[derive(Debug)]
pub(crate) struct ResultCache {
    shards: Vec<ClassedMutex<Shard>>,
    /// Byte budget per shard (the total split evenly).
    shard_bytes: usize,
    /// Stable hasher for shard selection (the maps hash independently).
    shard_hasher: RandomState,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    bypasses: AtomicU64,
    invalidations: AtomicU64,
    oversize: AtomicU64,
}

impl ResultCache {
    /// A cache bounded to `capacity_bytes` (rounded down to a multiple
    /// of the shard count), each shard's admission window sized to the
    /// most entries its budget could hold, up to [`WINDOW_CAP`]. A zero
    /// bound means "no cache" and is the caller's branch, not this
    /// type's.
    pub(crate) fn new(capacity_bytes: usize) -> Self {
        assert!(capacity_bytes >= 1, "a result cache needs capacity");
        let shard_bytes = capacity_bytes / SHARDS;
        ResultCache {
            shards: (0..SHARDS)
                .map(|_| {
                    let shard = Shard {
                        map: HashMap::new(),
                        queue: VecDeque::new(),
                        bytes: 0,
                        window: Window::new((shard_bytes / ENTRY_OVERHEAD).min(WINDOW_CAP)),
                    };
                    ClassedMutex::new(LockClass::CacheShard, shard)
                })
                .collect(),
            shard_bytes,
            shard_hasher: RandomState::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            bypasses: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            oversize: AtomicU64::new(0),
        }
    }

    /// `key`'s fingerprint: the shard hash, which picks the shard by its
    /// low bits and stands for the key in the admission window.
    fn fingerprint(&self, key: &CacheKey) -> u64 {
        self.shard_hasher.hash_one(key)
    }

    fn shard(&self, print: u64) -> &ClassedMutex<Shard> {
        // cfva-lint: allow(L002, reason = "index is masked with SHARDS - 1, a power-of-two bound, so it is always < SHARDS")
        &self.shards[(print as usize) & (SHARDS - 1)]
    }

    /// Looks `key` up under one lock, counting a hit (and setting the
    /// entry's reference bit) or a miss, which the shard's admission
    /// window admits or declines (see [Admission](self#admission)). A
    /// hit's response is cloned after the lock is released, sharing the
    /// entry's arrival buffers.
    pub(crate) fn get(&self, key: &CacheKey) -> Lookup {
        let print = self.fingerprint(key);
        let mut shard = self.shard(print).lock();
        let hit = shard.map.get_mut(key).map(|entry| {
            entry.referenced = true;
            Arc::clone(&entry.value)
        });
        match hit {
            Some(value) => {
                drop(shard);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Lookup::Hit(Response::clone(&value))
            }
            None => {
                let admit = shard.window.admit(print);
                drop(shard);
                self.misses.fetch_add(1, Ordering::Relaxed);
                Lookup::Miss { admit }
            }
        }
    }

    /// Caches `key → value` (sharing `value`'s arrivals), evicting by
    /// second chance until the shard is back within its budget. A
    /// response charged more than a shard's budget is counted and not
    /// cached. Concurrent misses of the same key insert once —
    /// responses are deterministic, so both computed the same value.
    pub(crate) fn insert(&self, key: CacheKey, value: &Response) {
        let bytes = entry_bytes(&key, value);
        if bytes > self.shard_bytes {
            self.oversize.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let value = Arc::new(value.clone());
        // Declared before the guard, so evicted responses are freed
        // after the lock is released.
        let mut evicted = Vec::new();
        let mut guard = self.shard(self.fingerprint(&key)).lock();
        let shard = &mut *guard;
        if shard.map.contains_key(&key) {
            return;
        }
        let key = Arc::new(key);
        shard.queue.push_back(Arc::clone(&key));
        shard.map.insert(
            key,
            Entry {
                value,
                bytes,
                referenced: false,
            },
        );
        shard.bytes += bytes;
        while shard.bytes > self.shard_bytes {
            let Some(oldest) = shard.queue.pop_front() else {
                break;
            };
            match shard.map.get_mut(&*oldest) {
                Some(entry) if entry.referenced => {
                    entry.referenced = false;
                    shard.queue.push_back(oldest);
                }
                _ => {
                    if let Some(entry) = shard.map.remove(&*oldest) {
                        shard.bytes -= entry.bytes;
                        evicted.push(entry.value);
                    }
                }
            }
        }
        drop(guard);
        self.evictions
            .fetch_add(evicted.len() as u64, Ordering::Relaxed);
    }

    /// Counts a request that skipped the cache.
    pub(crate) fn note_bypass(&self) {
        self.bypasses.fetch_add(1, Ordering::Relaxed);
    }

    /// Drops every resident entry — the fault injector's cache
    /// poisoning — and keeps the admission windows. Correctness-neutral
    /// by construction: the next lookup of any dropped key misses and
    /// recomputes the same deterministic response. Shards are flushed
    /// one at a time (the lock hierarchy holds one shard at most), so a
    /// concurrent insert may survive; that is fine — poisoning promises
    /// "entries dropped", not a linearized snapshot.
    pub(crate) fn invalidate_all(&self) {
        for shard in &self.shards {
            let dropped = {
                let mut shard = shard.lock();
                shard.bytes = 0;
                shard.queue.clear();
                std::mem::take(&mut shard.map)
            };
            self.invalidations
                .fetch_add(dropped.len() as u64, Ordering::Relaxed);
        }
    }

    /// A snapshot of the counters and occupancy.
    pub(crate) fn stats(&self) -> CacheStats {
        let (mut entries, mut bytes) = (0, 0);
        for shard in &self.shards {
            let shard = shard.lock();
            entries += shard.map.len();
            bytes += shard.bytes;
        }
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            bypasses: self.bypasses.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            oversize: self.oversize.load(Ordering::Relaxed),
            entries,
            bytes,
            capacity_bytes: self.shard_bytes * SHARDS,
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
        let cache = ResultCache::new(64 * ENTRY_OVERHEAD);
        assert_eq!(cache.get(&key(1)), Lookup::Miss { admit: false });
        cache.insert(key(1), &Response::Efficiency(0.5));
        assert_eq!(cache.get(&key(1)), Lookup::Hit(Response::Efficiency(0.5)));
        assert_eq!(cache.get(&key(2)), Lookup::Miss { admit: false });
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 2, 1));
        assert!((stats.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn capacity_bound_evicts_least_recently_used() {
        // Eight entries' bytes → one entry per shard: every insert
        // beyond a shard's slot evicts its previous occupant.
        let cache = ResultCache::new(8 * ENTRY_OVERHEAD);
        for seed in 0..64 {
            cache.insert(key(seed), &Response::Efficiency(seed as f64));
        }
        let stats = cache.stats();
        assert!(stats.entries <= 8, "bounded: {} entries", stats.entries);
        assert_eq!(stats.evictions as usize + stats.entries, 64);

        // Recency: with two slots per shard, an entry touched before
        // every insert always outranks the churn slot — it must never
        // be evicted.
        let cache = ResultCache::new(16 * ENTRY_OVERHEAD);
        cache.insert(key(0), &Response::Efficiency(0.0));
        for seed in 1..256 {
            cache.get(&key(0));
            cache.insert(key(seed), &Response::Efficiency(seed as f64));
        }
        assert_eq!(
            cache.get(&key(0)),
            Lookup::Hit(Response::Efficiency(0.0)),
            "a constantly-touched entry is never the LRU victim"
        );
    }

    fn measured(len: usize) -> Response {
        Response::Measured(Some(AccessStats {
            arrival: vec![7; len].into(),
            module_busy: vec![1; 8],
            ..AccessStats::default()
        }))
    }

    #[test]
    fn entries_are_charged_their_words_and_oversize_ones_are_not_cached() {
        let cache = ResultCache::new(8 * (ENTRY_OVERHEAD + 1024 * 8));
        let small = measured(64);
        cache.insert(key(1), &small);
        let charged = entry_bytes(&key(1), &small);
        assert_eq!(
            charged,
            ENTRY_OVERHEAD + ARC_HEADER + size_of::<Vec<u64>>() + (64 + 8) * 8
        );
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.bytes), (1, charged));
        assert_eq!(stats.capacity_bytes, 8 * (ENTRY_OVERHEAD + 1024 * 8));

        // Over a shard's eighth of the bound: answered, counted, not kept.
        cache.insert(key(2), &measured(1024));
        assert_eq!(cache.get(&key(2)), Lookup::Miss { admit: false });
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.oversize), (1, 1));

        // A hit shares the entry's arrival buffer.
        let (Lookup::Hit(Response::Measured(Some(a))), Lookup::Hit(Response::Measured(Some(b)))) =
            (cache.get(&key(1)), cache.get(&key(1)))
        else {
            panic!("two hits");
        };
        assert!(a.arrival.ptr_eq(&b.arrival));
    }

    #[test]
    fn invalidate_all_flushes_everything_and_counts_it() {
        let cache = ResultCache::new(64 * ENTRY_OVERHEAD);
        for seed in 0..10 {
            cache.insert(key(seed), &Response::Efficiency(seed as f64));
        }
        cache.invalidate_all();
        let stats = cache.stats();
        assert_eq!(stats.entries, 0, "poisoned cache holds nothing");
        assert_eq!(stats.bytes, 0, "and is charged nothing");
        assert_eq!(stats.invalidations, 10);
        assert_eq!(stats.evictions, 0, "invalidation is not eviction");
        assert_eq!(
            cache.get(&key(3)),
            Lookup::Miss { admit: false },
            "flushed entries simply miss"
        );
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
        let cache = ResultCache::new(16 * ENTRY_OVERHEAD);
        cache.insert(a, &Response::FamilySweep(Vec::new()));
        assert!(matches!(cache.get(&b), Lookup::Hit(_)));
    }

    /// Heap bytes of a window: its ring's words and its set's buckets,
    /// a word and a control byte each, at most 7/8 of them usable.
    fn window_heap_bytes(window: &Window) -> usize {
        let buckets = (window.set.capacity() * 8).div_ceil(7).next_power_of_two();
        window.order.capacity() * size_of::<u64>() + buckets * (size_of::<u64>() + 1)
    }

    #[test]
    fn window_churn_keeps_the_latest_fingerprints_and_never_grows_the_set() {
        let mut window = Window::new(WINDOW_CAP);
        let heap = window_heap_bytes(&window);
        let set = window.set.capacity();
        let rounds = 10 * WINDOW_CAP as u64;
        for print in 0..rounds {
            assert!(!window.admit(print), "{print} is new");
            assert!(window.set.capacity() <= set, "the set grew at {print}");
        }
        assert_eq!(window_heap_bytes(&window), heap);
        assert_eq!(window.set.len(), WINDOW_CAP);
        assert!(window.admit(rounds - WINDOW_CAP as u64), "the oldest held");
        assert!(!window.admit(rounds - WINDOW_CAP as u64 - 1), "aged out");
    }

    #[test]
    fn window_heap_stays_within_a_mebibyte_at_the_default_and_is_capped() {
        const DEFAULT: usize = 8 << 20;
        let prints = |bytes: usize| (bytes / SHARDS / ENTRY_OVERHEAD).min(WINDOW_CAP);
        for bytes in [
            DEFAULT / 32,
            DEFAULT / 8,
            DEFAULT / 2,
            DEFAULT,
            2 * DEFAULT,
            usize::MAX / 2,
        ] {
            let cache = ResultCache::new(bytes);
            let mut heap = 0;
            for shard in &cache.shards {
                let window = &shard.lock().window;
                assert_eq!(window.len, prints(bytes), "{bytes}-byte bound");
                heap += window_heap_bytes(window);
            }
            let held = SHARDS * prints(bytes);
            assert!(
                held * size_of::<u64>() <= heap && heap <= held * 64,
                "{heap} bytes for {held} fingerprints at a {bytes}-byte bound"
            );
            if bytes == DEFAULT {
                assert!(heap <= 1 << 20, "{heap} bytes at the 8 MiB default");
            }
        }
    }
}
