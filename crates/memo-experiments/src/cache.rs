//! A sharded, capacity-bounded, single-flight memoization cache.
//!
//! This is the paper's memo-table idea lifted to the request level: a
//! small associative store in front of an expensive unit that returns a
//! previously computed result without re-running the computation. The
//! process-wide experiment cache ([`crate::results`]) and the
//! `memo-serve` response cache are both instances of this one type.
//!
//! Three properties the call sites need:
//!
//! * **sharded** — the key space is split across independently locked
//!   shards, so unrelated computations never contend on one mutex;
//! * **single-flight** — each key holds a [`OnceLock`] cell, so
//!   concurrent requests for the *same* key block on one computation
//!   instead of redundantly computing (the request-level analogue of the
//!   table returning a hit in one cycle);
//! * **bounded** — each shard evicts its least-recently-used *completed*
//!   entry once over capacity. In-flight entries are never evicted, so
//!   single-flight coalescing cannot be defeated by pressure.

use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Monotonic cache counters (cumulative since construction; `clear` does
/// not reset them).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups served from a completed entry.
    pub hits: u64,
    /// Lookups that created a new entry and ran the computation.
    pub misses: u64,
    /// Lookups that joined another request's in-flight computation.
    pub coalesced: u64,
    /// Tiered lookups whose value was loaded from the persistent tier
    /// instead of computed (see [`ShardedLru::get_or_compute_tiered_guarded`]).
    pub disk_hits: u64,
    /// Completed entries evicted by the capacity bound.
    pub evictions: u64,
    /// Entries currently resident (completed or in flight).
    pub len: usize,
    /// Approximate bytes held by resident completed values, as measured
    /// by the configured weigher (0 when no weigher is set). Approximate:
    /// the gauge is updated outside the shard locks, so a racing eviction
    /// can transiently skew it; it is eventually consistent.
    pub approx_bytes: u64,
}

/// Which tier satisfied a [`ShardedLru::get_or_compute_tiered_guarded`] lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TierOutcome {
    /// The value was already resident and complete in memory.
    Memory,
    /// The value was loaded from the persistent tier (no computation).
    Disk,
    /// The value was computed (and offered to the persistent tier).
    /// Coalesced waiters that joined an in-flight lookup also report
    /// `Computed` — they cannot know which tier the flight leader used.
    Computed,
}

/// Circuit-breaker state for a persistent tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: every lookup may probe the tier.
    Closed,
    /// Tripped: the tier is skipped entirely until the cooldown elapses.
    Open,
    /// Cooling down: exactly one probe is allowed through; its outcome
    /// closes or re-opens the breaker.
    HalfOpen,
}

/// A snapshot of a [`TierBreaker`]'s counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierBreakerStats {
    /// Current state.
    pub state: BreakerState,
    /// Closed → Open transitions (including half-open probes that failed).
    pub trips: u64,
    /// Failures recorded, cumulative.
    pub failures: u64,
    /// Half-open probes admitted.
    pub probes: u64,
}

#[derive(Debug)]
struct BreakerInner {
    state: BreakerState,
    /// Consecutive failures while closed; reset by any success.
    consecutive: u32,
    opened_at: Option<Instant>,
    probe_in_flight: bool,
}

/// A circuit breaker for the disk tier of
/// [`ShardedLru::get_or_compute_tiered_guarded`] — the same
/// trip/degrade/probe protocol the `MemoBank` soft-error breaker applies
/// to a faulty memo table, one level up: after `threshold` *consecutive*
/// store failures the tier is skipped (lookups degrade to
/// memory → compute), and after `cooldown` a single probe is let through
/// to test recovery.
///
/// A `threshold` of 0 disables the breaker: it never trips.
#[derive(Debug)]
pub struct TierBreaker {
    threshold: u32,
    cooldown: Duration,
    inner: Mutex<BreakerInner>,
    trips: AtomicU64,
    failures: AtomicU64,
    probes: AtomicU64,
}

impl TierBreaker {
    /// A closed breaker tripping after `threshold` consecutive failures,
    /// probing again `cooldown` after each trip.
    #[must_use]
    pub fn new(threshold: u32, cooldown: Duration) -> Self {
        TierBreaker {
            threshold,
            cooldown,
            inner: Mutex::new(BreakerInner {
                state: BreakerState::Closed,
                consecutive: 0,
                opened_at: None,
                probe_in_flight: false,
            }),
            trips: AtomicU64::new(0),
            failures: AtomicU64::new(0),
            probes: AtomicU64::new(0),
        }
    }

    /// May the caller touch the tier right now? Open breakers start a
    /// half-open probe once the cooldown has elapsed; in half-open, only
    /// one probe is admitted at a time. A `true` answer obligates the
    /// caller to report [`record_success`](Self::record_success) or
    /// [`record_failure`](Self::record_failure).
    pub fn allow(&self) -> bool {
        if self.threshold == 0 {
            return true;
        }
        let mut inner = self.inner.lock().expect("breaker poisoned");
        match inner.state {
            BreakerState::Closed => true,
            BreakerState::Open => {
                let cooled =
                    inner.opened_at.is_none_or(|at| at.elapsed() >= self.cooldown);
                if cooled {
                    inner.state = BreakerState::HalfOpen;
                    inner.probe_in_flight = true;
                    self.probes.fetch_add(1, Ordering::Relaxed);
                    true
                } else {
                    false
                }
            }
            BreakerState::HalfOpen => {
                if inner.probe_in_flight {
                    false
                } else {
                    inner.probe_in_flight = true;
                    self.probes.fetch_add(1, Ordering::Relaxed);
                    true
                }
            }
        }
    }

    /// The tier answered (a hit *or* a clean miss): close the breaker and
    /// forget the failure streak.
    pub fn record_success(&self) {
        let mut inner = self.inner.lock().expect("breaker poisoned");
        inner.state = BreakerState::Closed;
        inner.consecutive = 0;
        inner.opened_at = None;
        inner.probe_in_flight = false;
    }

    /// The tier failed. Closed breakers trip once the streak reaches the
    /// threshold; a failed half-open probe re-opens immediately.
    pub fn record_failure(&self) {
        self.failures.fetch_add(1, Ordering::Relaxed);
        if self.threshold == 0 {
            return;
        }
        let mut inner = self.inner.lock().expect("breaker poisoned");
        match inner.state {
            BreakerState::Closed => {
                inner.consecutive += 1;
                if inner.consecutive >= self.threshold {
                    inner.state = BreakerState::Open;
                    inner.opened_at = Some(Instant::now());
                    self.trips.fetch_add(1, Ordering::Relaxed);
                }
            }
            BreakerState::HalfOpen => {
                inner.state = BreakerState::Open;
                inner.opened_at = Some(Instant::now());
                inner.probe_in_flight = false;
                self.trips.fetch_add(1, Ordering::Relaxed);
            }
            // Failures reported while open (e.g. a persist that was
            // already in flight when the breaker tripped) don't extend
            // the cooldown — recovery probing must not starve.
            BreakerState::Open => {}
        }
    }

    /// Current state.
    #[must_use]
    pub fn state(&self) -> BreakerState {
        self.inner.lock().expect("breaker poisoned").state
    }

    /// Snapshot the counters.
    #[must_use]
    pub fn stats(&self) -> TierBreakerStats {
        TierBreakerStats {
            state: self.state(),
            trips: self.trips.load(Ordering::Relaxed),
            failures: self.failures.load(Ordering::Relaxed),
            probes: self.probes.load(Ordering::Relaxed),
        }
    }
}

/// A deterministic FNV-1a hasher: shard selection must not depend on the
/// process's random `HashMap` seed, so cache behaviour is reproducible.
#[derive(Debug, Default)]
pub struct Fnv1a(u64);

impl Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut h = if self.0 == 0 { 0xcbf2_9ce4_8422_2325 } else { self.0 };
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        self.0 = h;
    }
}

struct Entry<V> {
    cell: Arc<OnceLock<Arc<V>>>,
    /// Recency stamp from the shard clock; smallest = coldest.
    stamp: u64,
}

struct Shard<K, V> {
    map: HashMap<K, Entry<V>>,
    clock: u64,
}

/// The cache. `K` must hash deterministically (it is hashed with FNV-1a
/// for shard selection); `V` is stored behind an [`Arc`] so readers keep
/// their result across evictions.
pub struct ShardedLru<K, V> {
    shards: Box<[Mutex<Shard<K, V>>]>,
    /// Max completed entries per shard; `usize::MAX` when unbounded.
    per_shard: usize,
    /// Measures a completed value's footprint for the byte gauge.
    weigher: fn(&V) -> usize,
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
    disk_hits: AtomicU64,
    evictions: AtomicU64,
    bytes: AtomicU64,
}

impl<K: Eq + Hash + Clone, V> ShardedLru<K, V> {
    /// A cache with `shards` shards holding at most `capacity` completed
    /// entries in total (rounded up to a multiple of the shard count).
    ///
    /// # Panics
    ///
    /// Panics if `shards` or `capacity` is zero.
    #[must_use]
    pub fn new(shards: usize, capacity: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        assert!(capacity > 0, "a zero-capacity cache cannot hold results");
        let per_shard = if capacity == usize::MAX {
            usize::MAX
        } else {
            capacity.div_ceil(shards)
        };
        let shards = (0..shards)
            .map(|_| Mutex::new(Shard { map: HashMap::new(), clock: 0 }))
            .collect();
        ShardedLru {
            shards,
            per_shard,
            weigher: |_| 0,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        }
    }

    /// Install a weigher measuring each completed value's approximate
    /// footprint; the aggregate is exposed as [`CacheStats::approx_bytes`].
    /// Set before the cache holds values (weights of values already
    /// resident are not retroactively measured).
    #[must_use]
    pub fn with_weigher(mut self, weigher: fn(&V) -> usize) -> Self {
        self.weigher = weigher;
        self
    }

    /// An unbounded cache (the experiment-result store: every key is
    /// eventually re-requested, so eviction would only cost recomputes).
    #[must_use]
    pub fn unbounded(shards: usize) -> Self {
        Self::new(shards, usize::MAX)
    }

    fn shard_of(&self, key: &K) -> &Mutex<Shard<K, V>> {
        let h = BuildHasherDefault::<Fnv1a>::default().hash_one(key);
        &self.shards[(h as usize) % self.shards.len()]
    }

    /// Return the value for `key`, computing it on first request.
    ///
    /// The shard lock is held only to fetch or create the per-key cell;
    /// `compute` runs under the cell's [`OnceLock`], so distinct keys
    /// compute concurrently while concurrent requests for one key block
    /// on a single computation.
    pub fn get_or_compute(&self, key: &K, compute: impl FnOnce() -> V) -> Arc<V> {
        let (cell, fresh) = self.lookup_cell(key);

        let mut ran = false;
        let value = Arc::clone(cell.get_or_init(|| {
            ran = true;
            Arc::new(compute())
        }));
        if ran {
            self.bytes.fetch_add((self.weigher)(&value) as u64, Ordering::Relaxed);
        }

        if fresh && self.per_shard != usize::MAX {
            self.evict_over_capacity(key);
        }
        value
    }

    /// Like [`get_or_compute`](Self::get_or_compute), but with a
    /// fallible persistent tier, guarded by a [`TierBreaker`], between
    /// memory and computation: on a memory miss, `load` is consulted
    /// first; only if it finds nothing does `compute` run, and the fresh
    /// value is offered to `persist`. All of this happens inside the
    /// per-key single-flight cell, so concurrent requests for one key
    /// share a single load *or* computation, and `persist` is called at
    /// most once per computed value. The returned [`TierOutcome`] says
    /// which tier answered for *this* caller; coalesced waiters report
    /// [`TierOutcome::Computed`].
    ///
    /// The degraded-mode ladder, per lookup:
    ///
    /// * breaker closed (or half-open with this caller as the probe):
    ///   `load` runs; `Ok(Some)` is a disk hit, `Ok(None)` a clean miss
    ///   (both record success), `Err` records a failure and falls through
    ///   to `compute`;
    /// * breaker open: `load` and `persist` are skipped entirely —
    ///   memory → compute, the store is not touched;
    /// * `persist` failures record on the breaker but never fail the
    ///   lookup (the value is already computed and cached in memory).
    ///
    /// The lookup itself is therefore infallible: a broken disk degrades
    /// to recomputation, never to an error.
    pub fn get_or_compute_tiered_guarded(
        &self,
        key: &K,
        breaker: &TierBreaker,
        load: impl FnOnce() -> Result<Option<V>, ()>,
        persist: impl FnOnce(&V) -> Result<(), ()>,
        compute: impl FnOnce() -> V,
    ) -> (Arc<V>, TierOutcome) {
        let (cell, fresh) = self.lookup_cell(key);
        if let Some(value) = cell.get() {
            return (Arc::clone(value), TierOutcome::Memory);
        }

        let mut ran = None;
        let value = Arc::clone(cell.get_or_init(|| {
            let loaded = if breaker.allow() {
                match load() {
                    Ok(found) => {
                        breaker.record_success();
                        found
                    }
                    Err(()) => {
                        breaker.record_failure();
                        None
                    }
                }
            } else {
                None // tier skipped: degrade to memory → compute
            };
            let (value, outcome) = match loaded {
                Some(value) => (value, TierOutcome::Disk),
                None => {
                    let value = compute();
                    if breaker.allow() {
                        match persist(&value) {
                            Ok(()) => breaker.record_success(),
                            Err(()) => breaker.record_failure(),
                        }
                    }
                    (value, TierOutcome::Computed)
                }
            };
            ran = Some(outcome);
            Arc::new(value)
        }));
        let outcome = match ran {
            Some(outcome) => {
                if outcome == TierOutcome::Disk {
                    self.disk_hits.fetch_add(1, Ordering::Relaxed);
                }
                self.bytes.fetch_add((self.weigher)(&value) as u64, Ordering::Relaxed);
                outcome
            }
            None => TierOutcome::Computed,
        };

        if fresh && self.per_shard != usize::MAX {
            self.evict_over_capacity(key);
        }
        (value, outcome)
    }

    /// Fetch or create the single-flight cell for `key`, updating recency
    /// and the hit/coalesced/miss counters. Returns `(cell, fresh)`.
    fn lookup_cell(&self, key: &K) -> (Arc<OnceLock<Arc<V>>>, bool) {
        let mut shard = self.shard_of(key).lock().expect("cache shard poisoned");
        shard.clock += 1;
        let stamp = shard.clock;
        match shard.map.get_mut(key) {
            Some(entry) => {
                entry.stamp = stamp;
                let complete = entry.cell.get().is_some();
                let counter = if complete { &self.hits } else { &self.coalesced };
                counter.fetch_add(1, Ordering::Relaxed);
                (Arc::clone(&entry.cell), false)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                let cell = Arc::new(OnceLock::new());
                shard.map.insert(key.clone(), Entry { cell: Arc::clone(&cell), stamp });
                (cell, true)
            }
        }
    }

    /// Return the value for `key` only if it is already resident and
    /// complete (no computation, counted as a hit), else `None`.
    #[must_use]
    pub fn peek(&self, key: &K) -> Option<Arc<V>> {
        let mut shard = self.shard_of(key).lock().expect("cache shard poisoned");
        shard.clock += 1;
        let stamp = shard.clock;
        let entry = shard.map.get_mut(key)?;
        entry.stamp = stamp;
        let value = entry.cell.get().map(Arc::clone)?;
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(value)
    }

    /// Drop the coldest completed entries of `key`'s shard until it is
    /// back under capacity. In-flight entries never leave; if the shard
    /// is over capacity purely with in-flight work it temporarily
    /// overflows (bounded by the caller's concurrency).
    fn evict_over_capacity(&self, key: &K) {
        let mut shard = self.shard_of(key).lock().expect("cache shard poisoned");
        while shard.map.len() > self.per_shard {
            let coldest = shard
                .map
                .iter()
                .filter(|(_, e)| e.cell.get().is_some())
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| k.clone());
            let Some(coldest) = coldest else { break };
            if let Some(entry) = shard.map.remove(&coldest) {
                if let Some(value) = entry.cell.get() {
                    self.bytes.fetch_sub((self.weigher)(value) as u64, Ordering::Relaxed);
                }
            }
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Forget every entry (counters keep accumulating; the byte gauge
    /// returns to zero, in-flight values excepted).
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut shard = shard.lock().expect("cache shard poisoned");
            for entry in shard.map.values() {
                if let Some(value) = entry.cell.get() {
                    self.bytes.fetch_sub((self.weigher)(value) as u64, Ordering::Relaxed);
                }
            }
            shard.map.clear();
        }
    }

    /// Resident entry count across shards.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").map.len())
            .sum()
    }

    /// `true` when no entries are resident.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot the counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            len: self.len(),
            approx_bytes: self.bytes.load(Ordering::Relaxed),
        }
    }
}

impl<K, V> std::fmt::Debug for ShardedLru<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedLru")
            .field("shards", &self.shards.len())
            .field("per_shard", &self.per_shard)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn computes_once_per_key() {
        let cache: ShardedLru<u32, u32> = ShardedLru::unbounded(4);
        let runs = AtomicUsize::new(0);
        for _ in 0..3 {
            let v = cache.get_or_compute(&7, || {
                runs.fetch_add(1, Ordering::Relaxed);
                49
            });
            assert_eq!(*v, 49);
        }
        assert_eq!(runs.load(Ordering::Relaxed), 1);
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.hits), (1, 2));
    }

    #[test]
    fn concurrent_requests_single_flight() {
        let cache: ShardedLru<u32, u32> = ShardedLru::unbounded(4);
        let runs = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    let v = cache.get_or_compute(&1, || {
                        runs.fetch_add(1, Ordering::Relaxed);
                        // Widen the race window so other threads arrive
                        // while this computation is in flight.
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        11
                    });
                    assert_eq!(*v, 11);
                });
            }
        });
        assert_eq!(runs.load(Ordering::Relaxed), 1, "exactly one thread computes");
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits + stats.coalesced, 7);
    }

    #[test]
    fn capacity_evicts_least_recently_used() {
        // One shard so the capacity bound is exact.
        let cache: ShardedLru<u32, u32> = ShardedLru::new(1, 2);
        cache.get_or_compute(&1, || 1);
        cache.get_or_compute(&2, || 2);
        cache.get_or_compute(&1, || unreachable!("still resident")); // touch 1: now 2 is coldest
        cache.get_or_compute(&3, || 3); // evicts 2
        assert_eq!(cache.len(), 2);
        assert!(cache.peek(&2).is_none(), "LRU key evicted");
        assert_eq!(*cache.get_or_compute(&1, || unreachable!("recently used survives")), 1);
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn clear_forgets_but_counters_accumulate() {
        let cache: ShardedLru<u32, u32> = ShardedLru::unbounded(2);
        cache.get_or_compute(&1, || 1);
        cache.clear();
        assert!(cache.is_empty());
        cache.get_or_compute(&1, || 2);
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn tiered_lookup_reports_the_answering_tier() {
        let cache: ShardedLru<u32, u32> = ShardedLru::unbounded(2);
        let never_trips = TierBreaker::new(0, Duration::from_secs(1));
        // First request: no disk copy → computed (and persisted).
        let persisted = AtomicUsize::new(0);
        let (v, outcome) = cache.get_or_compute_tiered_guarded(
            &1,
            &never_trips,
            || Ok(None),
            |_| {
                persisted.fetch_add(1, Ordering::Relaxed);
                Ok(())
            },
            || 10,
        );
        assert_eq!((*v, outcome), (10, TierOutcome::Computed));
        assert_eq!(persisted.load(Ordering::Relaxed), 1);
        // Second request for the same key: memory.
        let (v, outcome) = cache.get_or_compute_tiered_guarded(
            &1,
            &never_trips,
            || unreachable!("memory hit must not probe disk"),
            |_| unreachable!(),
            || unreachable!(),
        );
        assert_eq!((*v, outcome), (10, TierOutcome::Memory));
        // A key the disk knows: loaded, not computed.
        let (v, outcome) = cache.get_or_compute_tiered_guarded(
            &2,
            &never_trips,
            || Ok(Some(20)),
            |_| unreachable!("loaded values are not re-persisted"),
            || unreachable!("loaded values are not computed"),
        );
        assert_eq!((*v, outcome), (20, TierOutcome::Disk));
        let stats = cache.stats();
        assert_eq!(stats.disk_hits, 1);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.hits, 1);
    }

    #[test]
    fn weigher_tracks_resident_bytes_through_eviction_and_clear() {
        let cache: ShardedLru<u32, Vec<u8>> =
            ShardedLru::new(1, 2).with_weigher(Vec::len);
        cache.get_or_compute(&1, || vec![0; 100]);
        cache.get_or_compute(&2, || vec![0; 50]);
        assert_eq!(cache.stats().approx_bytes, 150);
        cache.get_or_compute(&3, || vec![0; 7]); // evicts key 1 (coldest)
        assert_eq!(cache.stats().approx_bytes, 57);
        cache.clear();
        assert_eq!(cache.stats().approx_bytes, 0);
        // The tiered path weighs loaded values too.
        let never_trips = TierBreaker::new(0, Duration::from_secs(1));
        let (_, outcome) = cache.get_or_compute_tiered_guarded(
            &4,
            &never_trips,
            || Ok(Some(vec![0; 9])),
            |_| Ok(()),
            Vec::new,
        );
        assert_eq!(outcome, TierOutcome::Disk);
        assert_eq!(cache.stats().approx_bytes, 9);
    }

    #[test]
    fn values_survive_eviction_for_holders() {
        let cache: ShardedLru<u32, Vec<u8>> = ShardedLru::new(1, 1);
        let held = cache.get_or_compute(&1, || vec![9; 3]);
        cache.get_or_compute(&2, || vec![8; 3]); // evicts 1
        assert_eq!(*held, vec![9; 3], "Arc keeps the evicted value alive");
    }

    #[test]
    fn breaker_trips_after_consecutive_failures_and_recovers_via_probe() {
        let breaker = TierBreaker::new(3, Duration::from_millis(10));
        assert_eq!(breaker.state(), BreakerState::Closed);
        // Two failures, then a success: the streak resets.
        for _ in 0..2 {
            assert!(breaker.allow());
            breaker.record_failure();
        }
        assert!(breaker.allow());
        breaker.record_success();
        assert_eq!(breaker.state(), BreakerState::Closed);
        // Three consecutive failures trip it.
        for _ in 0..3 {
            assert!(breaker.allow());
            breaker.record_failure();
        }
        assert_eq!(breaker.state(), BreakerState::Open);
        assert!(!breaker.allow(), "open: the tier is skipped");
        // After the cooldown, exactly one probe goes through.
        std::thread::sleep(Duration::from_millis(15));
        assert!(breaker.allow(), "cooldown elapsed: half-open probe admitted");
        assert_eq!(breaker.state(), BreakerState::HalfOpen);
        assert!(!breaker.allow(), "only one probe at a time");
        breaker.record_failure();
        assert_eq!(breaker.state(), BreakerState::Open, "failed probe re-opens");
        std::thread::sleep(Duration::from_millis(15));
        assert!(breaker.allow());
        breaker.record_success();
        assert_eq!(breaker.state(), BreakerState::Closed, "successful probe closes");
        let stats = breaker.stats();
        assert_eq!(stats.trips, 2);
        assert_eq!(stats.probes, 2);
        assert_eq!(stats.failures, 6);
    }

    #[test]
    fn zero_threshold_disables_the_breaker() {
        let breaker = TierBreaker::new(0, Duration::ZERO);
        for _ in 0..10 {
            assert!(breaker.allow());
            breaker.record_failure();
        }
        assert_eq!(breaker.state(), BreakerState::Closed);
        assert_eq!(breaker.stats().trips, 0);
    }

    #[test]
    fn guarded_lookup_degrades_to_compute_and_skips_a_tripped_tier() {
        let cache: ShardedLru<u32, u32> = ShardedLru::unbounded(2);
        let breaker = TierBreaker::new(2, Duration::from_secs(60));
        // Failing loads: the value is still served (computed), and two
        // failures trip the breaker (the skipped persist can't succeed
        // either once the breaker is open).
        let (v, outcome) =
            cache.get_or_compute_tiered_guarded(&1, &breaker, || Err(()), |_| Err(()), || 10);
        assert_eq!((*v, outcome), (10, TierOutcome::Computed));
        let (v, outcome) =
            cache.get_or_compute_tiered_guarded(&2, &breaker, || Err(()), |_| Err(()), || 20);
        assert_eq!((*v, outcome), (20, TierOutcome::Computed));
        assert_eq!(breaker.state(), BreakerState::Open);
        // Open: neither load nor persist must run.
        let (v, outcome) = cache.get_or_compute_tiered_guarded(
            &3,
            &breaker,
            || unreachable!("open breaker must skip the load"),
            |_| unreachable!("open breaker must skip the persist"),
            || 30,
        );
        assert_eq!((*v, outcome), (30, TierOutcome::Computed));
        // Memory hits bypass the breaker entirely.
        let (v, outcome) = cache.get_or_compute_tiered_guarded(
            &1,
            &breaker,
            || unreachable!(),
            |_| unreachable!(),
            || unreachable!(),
        );
        assert_eq!((*v, outcome), (10, TierOutcome::Memory));
    }

    #[test]
    fn guarded_lookup_serves_disk_hits_and_persists_when_healthy() {
        let cache: ShardedLru<u32, u32> = ShardedLru::unbounded(2);
        let breaker = TierBreaker::new(2, Duration::ZERO);
        let (v, outcome) =
            cache.get_or_compute_tiered_guarded(&1, &breaker, || Ok(Some(11)), |_| unreachable!(), || {
                unreachable!()
            });
        assert_eq!((*v, outcome), (11, TierOutcome::Disk));
        assert_eq!(cache.stats().disk_hits, 1);
        let persisted = AtomicUsize::new(0);
        let (v, outcome) = cache.get_or_compute_tiered_guarded(
            &2,
            &breaker,
            || Ok(None),
            |_| {
                persisted.fetch_add(1, Ordering::Relaxed);
                Ok(())
            },
            || 22,
        );
        assert_eq!((*v, outcome), (22, TierOutcome::Computed));
        assert_eq!(persisted.load(Ordering::Relaxed), 1);
        assert_eq!(breaker.state(), BreakerState::Closed);
    }
}
