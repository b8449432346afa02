//! The engine-level query-result cache.
//!
//! A serving engine sees the same [`QueryRequest`]s
//! over and over — popular example regions, dashboard refreshes, retries —
//! and every search is deterministic, so recomputing an identical request
//! is pure waste.  [`QueryCache`] memoises successful
//! [`QueryResponse`]s keyed by the request's
//! canonical fingerprint ([`RequestKey`]), which collapses representation
//! differences (`-0.0` vs `+0.0`) but never conflates genuinely different
//! requests.
//!
//! The cache is sharded: keys are distributed over independently locked
//! shards so concurrent readers on different shards never contend, and each
//! shard evicts its least-recently-used entry when full.  A cache *hit*
//! returns the stored response verbatim — byte-identical to what the cold
//! computation produced, statistics included — so cached and uncached
//! answers are indistinguishable on the wire.  Hit/miss counters are kept
//! engine-wide and surfaced through [`CacheStats`] (and from there into
//! aggregate snapshots such as a serving `/metrics` endpoint).
//!
//! # Single-flight miss coalescing
//!
//! Concurrent identical misses on the same key share one computation
//! through [`QueryCache::compute_coalesced`]: the first arrival (the
//! *leader*) registers an in-flight slot, computes while holding it, and
//! publishes the result; later arrivals (*waiters*) block on the slot and
//! clone whatever the leader produced — a success **or** an error, which
//! therefore propagates to every coalesced caller.  A leader that panics
//! poisons its slot; waiters detect the poison and degrade to independent
//! misses, so coalescing can only ever save work, never lose answers.
//! Lock order: `cache.inflight → cache.flight_slot → cache.shard`.
//!
//! # Cross-generation carry-forward
//!
//! Entries remember their originating request, so the mutation publish
//! path can *prove* that a commit batch cannot have changed an entry's
//! answer and re-stamp it to the next generation
//! ([`QueryCache::carry`]) instead of letting it age out.  A carried
//! entry records the generation it was proven at
//! ([`StampProvenance::carried_from`]) so the invariant auditor can check
//! the "stamped N+1, proven at N" contract.

use crate::error::AsrsError;
use crate::request::{QueryRequest, QueryResponse, RequestKey};
use crate::stats::LatencyHistogram;
use crate::sync::Mutex;
use serde::Serialize;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Number of independently locked shards.  A fixed power of two keeps the
/// key → shard mapping a cheap mask; 16 shards already make lock collisions
/// rare at the worker-pool sizes the server runs.
const SHARD_COUNT: usize = 16;

#[derive(Debug)]
struct Entry {
    response: QueryResponse,
    last_used: u64,
    /// The originating request, kept so a publish can re-prove the entry
    /// against the successor generation (carry-forward).  `None` for
    /// entries stored through the request-less [`QueryCache::insert`].
    request: Option<Arc<QueryRequest>>,
    /// The generation this entry was last *proven unchanged* at when it
    /// was carried forward instead of recomputed; `None` for entries the
    /// engine actually computed.
    carried_from: Option<u64>,
}

/// Keys are shared between the entry map and the recency index behind an
/// [`Arc`], so maintaining both costs reference counts, not byte copies.
#[derive(Debug, Default)]
struct Shard {
    entries: HashMap<Arc<RequestKey>, Entry>,
    /// Recency index: per-shard clock stamp → key.  Stamps are unique
    /// within a shard, so the first entry is always the least recently
    /// used one and eviction is `O(log n)` instead of a full scan.
    order: BTreeMap<u64, Arc<RequestKey>>,
    /// Monotonic per-shard use counter; the entry with the smallest stamp
    /// is the least recently used one.
    clock: u64,
}

impl Shard {
    fn touch(&mut self, key: &RequestKey) -> Option<QueryResponse> {
        self.clock += 1;
        let clock = self.clock;
        let entry = self.entries.get_mut(key)?;
        let shared_key = self
            .order
            .remove(&entry.last_used)
            // lint:allow(entries and order are updated together under one lock; a missing stamp is a cache-coherence bug worth a loud stop)
            .expect("every entry has a recency stamp");
        self.order.insert(clock, shared_key);
        entry.last_used = clock;
        Some(entry.response.clone())
    }

    fn insert(
        &mut self,
        key: RequestKey,
        response: QueryResponse,
        request: Option<Arc<QueryRequest>>,
        carried_from: Option<u64>,
        capacity: usize,
    ) {
        self.clock += 1;
        let clock = self.clock;
        let key = Arc::new(key);
        if let Some(replaced) = self.entries.insert(
            Arc::clone(&key),
            Entry {
                response,
                last_used: clock,
                request,
                carried_from,
            },
        ) {
            self.order.remove(&replaced.last_used);
        }
        self.order.insert(clock, key);
        while self.entries.len() > capacity {
            let (&stamp, _) = self
                .order
                .first_key_value()
                // lint:allow(the loop condition guarantees entries is non-empty, and order mirrors entries under the same lock)
                .expect("shard over capacity implies at least one entry");
            let lru = self
                .order
                .remove(&stamp)
                // lint:allow(the stamp was read from order one line above under the same lock)
                .expect("stamp was just observed in the index");
            self.entries.remove(&lru);
        }
    }

    /// Removes an entry, keeping the recency index coherent.
    fn remove(&mut self, key: &RequestKey) -> Option<Entry> {
        let entry = self.entries.remove(key)?;
        self.order.remove(&entry.last_used);
        Some(entry)
    }
}

/// One leader's result slot: waiters block on the inner mutex until the
/// leader (who holds it for the whole computation) publishes.
#[derive(Debug, Default)]
struct InFlight {
    slot: Mutex<Option<Result<QueryResponse, AsrsError>>>,
}

/// Removes a leader's in-flight registration when its computation ends —
/// on success, on error, *and* on panic (the drop runs during unwinding),
/// so a dead flight never pins its key in the table.
struct ClearFlight<'a> {
    cache: &'a QueryCache,
    key: &'a RequestKey,
    flight: &'a Arc<InFlight>,
}

impl Drop for ClearFlight<'_> {
    fn drop(&mut self) {
        if let Ok(mut table) = self.cache.inflight.lock() {
            if table
                .get(self.key)
                .is_some_and(|f| Arc::ptr_eq(f, self.flight))
            {
                table.remove(self.key);
            }
        }
    }
}

/// A stored key's generation stamp plus carry provenance, for the
/// invariant auditor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct StampProvenance {
    /// The generation the key is stamped with.
    pub stamp: u64,
    /// The generation the entry was proven at when carried forward
    /// (`None` for computed entries).  Sound carries have
    /// `carried_from < stamp`.
    pub carried_from: Option<u64>,
}

/// A carry-forward candidate: an entry of the just-retired generation
/// that still knows its originating request, handed to the publish path
/// for re-proving against the successor core.
#[derive(Debug, Clone)]
pub(crate) struct CarryCandidate {
    /// The entry's current (old-generation) stamped key.
    pub key: RequestKey,
    /// The originating request.
    pub request: Arc<QueryRequest>,
    /// The stored response (what a carried hit would serve verbatim).
    pub response: QueryResponse,
}

/// A point-in-time snapshot of the cache counters, serialized into the
/// server's `/metrics` endpoint.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CacheStats {
    /// Requests answered from the cache.
    pub hits: u64,
    /// Lookups that found no entry.  This counts every caller that then
    /// computed the answer *and* every caller that waited on another
    /// caller's in-flight computation instead, so the requests actually
    /// computed are `misses - coalesced_waits`.
    pub misses: u64,
    /// Entries currently cached.
    pub entries: usize,
    /// Maximum number of entries the cache retains.
    pub capacity: usize,
    /// Misses that blocked on another caller's in-flight computation and
    /// shared its result instead of recomputing.
    pub coalesced_waits: u64,
    /// Entries re-stamped to a successor generation because a commit
    /// batch provably could not change their answer.
    pub carried_forward: u64,
    /// Carry-forward attempts rejected by the byte-identity proof path —
    /// each one is a soundness near-miss worth investigating.
    pub carry_proof_failures: u64,
    /// Carry passes run: one per published generation.
    pub carry_passes: u64,
    /// Total microseconds spent in those passes.
    pub carry_pass_total_us: u64,
    /// Carry-pass latency histogram bucket counts, one per
    /// [`CARRY_PASS_BUCKET_BOUNDS_US`] bound plus a trailing overflow
    /// bucket.
    pub carry_pass_latency_us: Vec<u64>,
    /// Influence windows the carry passes' R3 test settled without a
    /// search: the window's Equation-1 bound exceeded the cutoff, or the
    /// empty covering already reached it.
    pub carry_windows_bounded: u64,
    /// Influence windows the bound did not settle: R3 ran the
    /// branch-and-bound over them, or refused them as too dense.  With
    /// `carry_windows_bounded` it sums to every window R3 examined.
    pub carry_windows_searched: u64,
}

/// What one carry pass counted, besides its duration: how R3 settled the
/// influence windows it examined.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct CarryPassCounts {
    pub(crate) windows_bounded: u64,
    pub(crate) windows_searched: u64,
}

/// Upper bounds (microseconds, inclusive) of the carry-pass latency
/// histogram buckets; one implicit overflow bucket follows the last bound.
pub const CARRY_PASS_BUCKET_BOUNDS_US: [u64; 12] = [
    50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000,
];

impl CacheStats {
    /// Fraction of lookups answered from the cache (0 when none happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A sharded LRU cache from canonical request keys to query responses.
///
/// Keys are distributed over independently locked shards so concurrent
/// readers on different shards never contend; each shard evicts its least
/// recently used entry when full.  A hit returns the stored response
/// verbatim, so cached and freshly computed answers are byte-identical on
/// the wire.  Misses can be coalesced (concurrent callers of one key share
/// a single computation) and entries can survive generation bumps when a
/// publish proves them unchanged (the engine's carry-forward pass).
#[derive(Debug)]
pub struct QueryCache {
    shards: Vec<Mutex<Shard>>,
    /// Single-flight table: stamped key → the leader's in-flight slot.
    inflight: Mutex<HashMap<RequestKey, Arc<InFlight>>>,
    per_shard_capacity: usize,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced_waits: AtomicU64,
    carried_forward: AtomicU64,
    carry_proof_failures: AtomicU64,
    carry_pass_latency: LatencyHistogram,
    carry_windows_bounded: AtomicU64,
    carry_windows_searched: AtomicU64,
}

impl QueryCache {
    /// Creates a cache retaining up to `capacity` responses, rounded up to
    /// the next multiple of the shard count (16) so every shard holds the
    /// same number of entries — `new(100)` retains up to 112, `new(1)` up
    /// to 16.  [`CacheStats::capacity`] always reports the effective
    /// (rounded) value.  A zero capacity is the caller's cue not to build
    /// a cache at all and is rounded up here defensively.
    pub fn new(capacity: usize) -> Self {
        let per_shard_capacity = capacity.div_ceil(SHARD_COUNT).max(1);
        Self {
            shards: (0..SHARD_COUNT).map(|_| Mutex::default()).collect(),
            inflight: Mutex::new(HashMap::new()),
            per_shard_capacity,
            capacity: per_shard_capacity * SHARD_COUNT,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            coalesced_waits: AtomicU64::new(0),
            carried_forward: AtomicU64::new(0),
            carry_proof_failures: AtomicU64::new(0),
            carry_pass_latency: LatencyHistogram::new(&CARRY_PASS_BUCKET_BOUNDS_US),
            carry_windows_bounded: AtomicU64::new(0),
            carry_windows_searched: AtomicU64::new(0),
        }
    }

    fn shard_of(&self, key: &RequestKey) -> &Mutex<Shard> {
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        &self.shards[(hasher.finish() as usize) % SHARD_COUNT]
    }

    /// Looks up a response, refreshing its recency and counting the
    /// hit/miss.
    pub fn get(&self, key: &RequestKey) -> Option<QueryResponse> {
        // A poisoned shard (a panicking peer mid-update) simply stops
        // serving hits: a cache may always degrade to doing nothing.
        let found = self
            .shard_of(key)
            .lock()
            .ok()
            .and_then(|mut shard| shard.touch(key));
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Stores a response, evicting the shard's least recently used entry
    /// when the shard is full.  Entries stored this way carry no request
    /// and therefore never qualify for carry-forward; the engine's submit
    /// path stores through its coalesced compute path instead.
    pub fn insert(&self, key: RequestKey, response: QueryResponse) {
        if let Ok(mut shard) = self.shard_of(&key).lock() {
            shard.insert(key, response, None, None, self.per_shard_capacity);
        }
    }

    /// Computes a missed response exactly once across concurrent callers.
    ///
    /// The first caller for `key` becomes the leader: it runs `run` while
    /// holding the flight's result slot, stores a successful response
    /// (remembering `request` for carry-forward) and publishes the result
    /// — success or error — to every waiter blocked on the slot.  Waiters
    /// clone the leader's result without recomputing; a poisoned slot
    /// (the leader panicked) or a poisoned table degrades a caller to an
    /// ordinary independent miss.
    pub(crate) fn compute_coalesced<F>(
        &self,
        key: RequestKey,
        request: &QueryRequest,
        run: F,
    ) -> Result<QueryResponse, AsrsError>
    where
        F: FnOnce() -> Result<QueryResponse, AsrsError>,
    {
        let mut table = match self.inflight.lock() {
            Ok(table) => table,
            // Poisoned table: single-flight is unavailable, but a cache
            // may always degrade to independent misses.
            Err(_) => return self.compute_independent(key, request, run),
        };
        if let Some(existing) = table.get(&key) {
            let flight = Arc::clone(existing);
            drop(table);
            return self.wait_for_leader(flight, key, request, run);
        }
        let flight = Arc::new(InFlight::default());
        table.insert(key.clone(), Arc::clone(&flight));
        // Deregister on every exit — including a panic inside `run`, so a
        // dead flight never pins the key.  Declared before the slot guard:
        // it must run *after* the slot is released (poisoned or filled),
        // never while holding it.
        let clear = ClearFlight {
            cache: self,
            key: &key,
            flight: &flight,
        };
        // Take the result slot before the table is released so no waiter
        // can observe an unheld empty slot (uncontended: the flight was
        // created two lines up).
        let mut slot = match flight.slot.lock() {
            Ok(slot) => slot,
            Err(poisoned) => poisoned.into_inner(),
        };
        drop(table);
        let result = run();
        if let Ok(response) = &result {
            if let Ok(mut shard) = self.shard_of(&key).lock() {
                shard.insert(
                    key.clone(),
                    response.clone(),
                    Some(Arc::new(request.clone())),
                    None,
                    self.per_shard_capacity,
                );
            }
        }
        *slot = Some(result.clone());
        drop(slot);
        drop(clear);
        result
    }

    /// Blocks on a leader's result slot and shares its outcome; degrades
    /// to an independent miss when the leader died without publishing.
    fn wait_for_leader<F>(
        &self,
        flight: Arc<InFlight>,
        key: RequestKey,
        request: &QueryRequest,
        run: F,
    ) -> Result<QueryResponse, AsrsError>
    where
        F: FnOnce() -> Result<QueryResponse, AsrsError>,
    {
        if let Ok(slot) = flight.slot.lock() {
            if let Some(result) = slot.as_ref() {
                self.coalesced_waits.fetch_add(1, Ordering::Relaxed);
                return result.clone();
            }
        }
        // The leader panicked (poisoned slot) or never published.  Clear
        // the dead flight if it still owns the key, then miss normally.
        if let Ok(mut table) = self.inflight.lock() {
            if table.get(&key).is_some_and(|f| Arc::ptr_eq(f, &flight)) {
                table.remove(&key);
            }
        }
        self.compute_independent(key, request, run)
    }

    /// An un-coalesced miss: compute, store on success.
    fn compute_independent<F>(
        &self,
        key: RequestKey,
        request: &QueryRequest,
        run: F,
    ) -> Result<QueryResponse, AsrsError>
    where
        F: FnOnce() -> Result<QueryResponse, AsrsError>,
    {
        let response = run()?;
        if let Ok(mut shard) = self.shard_of(&key).lock() {
            shard.insert(
                key,
                response.clone(),
                Some(Arc::new(request.clone())),
                None,
                self.per_shard_capacity,
            );
        }
        Ok(response)
    }

    /// Collects the entries stamped exactly `generation` that still know
    /// their originating request — the carry-forward candidates a publish
    /// re-proves against the successor core.  Entries with older stamps
    /// were already missed by readers of the retiring generation and are
    /// left to age out.
    pub(crate) fn carry_candidates(&self, generation: u64) -> Vec<CarryCandidate> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let Ok(shard) = shard.lock() else { continue };
            for (key, entry) in &shard.entries {
                if key.generation_stamp() != Some(generation) {
                    continue;
                }
                let Some(request) = &entry.request else {
                    continue;
                };
                out.push(CarryCandidate {
                    key: (**key).clone(),
                    request: Arc::clone(request),
                    response: entry.response.clone(),
                });
            }
        }
        out
    }

    /// Re-stamps a proven entry from `old_key` to `new_key`, recording
    /// that it was proven at generation `proven_at`.  The entry keeps its
    /// originating request, so it can be proven and carried again by
    /// later publishes.  Returns `false` when the entry aged out between
    /// candidate collection and the carry (nothing is inserted then —
    /// carrying must never resurrect evicted data).
    pub(crate) fn carry(&self, old_key: &RequestKey, new_key: RequestKey, proven_at: u64) -> bool {
        let entry = {
            let Ok(mut shard) = self.shard_of(old_key).lock() else {
                return false;
            };
            let Some(entry) = shard.remove(old_key) else {
                return false;
            };
            entry
        };
        if let Ok(mut shard) = self.shard_of(&new_key).lock() {
            shard.insert(
                new_key,
                entry.response,
                entry.request,
                Some(proven_at),
                self.per_shard_capacity,
            );
            self.carried_forward.fetch_add(1, Ordering::Relaxed);
            return true;
        }
        false
    }

    /// Records a carry-forward attempt rejected by the byte-identity
    /// proof path (debug builds are the only caller — release builds
    /// trust the predicate and compile the recompute out).
    #[cfg(debug_assertions)]
    pub(crate) fn note_carry_proof_failure(&self) {
        self.carry_proof_failures.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one carry pass: its duration and what it counted.  Passes
    /// run under the engine's mutation mutex, so the counters need no lock
    /// of their own.
    pub(crate) fn note_carry_pass(&self, elapsed: Duration, counts: CarryPassCounts) {
        self.carry_pass_latency
            .record(u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX));
        for (counter, n) in [
            (&self.carry_windows_bounded, counts.windows_bounded),
            (&self.carry_windows_searched, counts.windows_searched),
        ] {
            counter.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// The generation stamp and carry provenance of every stored key, for
    /// the invariant auditor (an engine-owned cache only ever stores
    /// [`RequestKey::stamped`](crate::RequestKey::stamped) keys).  Keys
    /// too short to carry a stamp are skipped.
    pub(crate) fn stamp_provenance(&self) -> Vec<StampProvenance> {
        self.shards
            .iter()
            .filter_map(|s| s.lock().ok())
            .flat_map(|shard| {
                shard
                    .entries
                    .iter()
                    .filter_map(|(key, entry)| {
                        key.generation_stamp().map(|stamp| StampProvenance {
                            stamp,
                            carried_from: entry.carried_from,
                        })
                    })
                    .collect::<Vec<StampProvenance>>()
            })
            .collect()
    }

    /// Current counters and occupancy.
    pub fn stats(&self) -> CacheStats {
        let (carry_passes, carry_pass_total_us, carry_pass_latency_us) =
            self.carry_pass_latency.snapshot();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self
                .shards
                .iter()
                .filter_map(|s| s.lock().ok())
                .map(|shard| shard.entries.len())
                .sum(),
            capacity: self.capacity,
            coalesced_waits: self.coalesced_waits.load(Ordering::Relaxed),
            carried_forward: self.carried_forward.load(Ordering::Relaxed),
            carry_proof_failures: self.carry_proof_failures.load(Ordering::Relaxed),
            carry_passes,
            carry_pass_total_us,
            carry_pass_latency_us,
            carry_windows_bounded: self.carry_windows_bounded.load(Ordering::Relaxed),
            carry_windows_searched: self.carry_windows_searched.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::AsrsQuery;
    use crate::request::{Backend, QueryOutcome, QueryRequest};
    use crate::result::SearchResult;
    use crate::stats::SearchStats;
    use asrs_aggregator::{FeatureVector, Weights};
    use asrs_geo::{Point, Rect, RegionSize};
    use std::sync::atomic::AtomicUsize;

    fn request(i: u32) -> QueryRequest {
        QueryRequest::similar(AsrsQuery::new(
            RegionSize::new(1.0 + i as f64, 2.0),
            FeatureVector::new(vec![i as f64]),
            Weights::uniform(1),
        ))
    }

    fn response(d: f64) -> QueryResponse {
        QueryResponse {
            backend: Backend::DsSearch,
            outcome: QueryOutcome::Best(SearchResult::new(
                Point::new(0.0, 0.0),
                Rect::new(0.0, 0.0, 1.0, 1.0),
                d,
                FeatureVector::new(vec![d]),
            )),
            stats: SearchStats::new(),
        }
    }

    #[test]
    fn hits_and_misses_are_counted() {
        let cache = QueryCache::new(8);
        let key = request(1).cache_key();
        assert!(cache.get(&key).is_none());
        cache.insert(key.clone(), response(1.0));
        assert_eq!(cache.get(&key).unwrap(), response(1.0));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(stats.entries, 1);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn reinsert_replaces_the_stored_response() {
        let cache = QueryCache::new(8);
        let key = request(1).cache_key();
        cache.insert(key.clone(), response(1.0));
        cache.insert(key.clone(), response(2.0));
        assert_eq!(cache.get(&key).unwrap(), response(2.0));
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn least_recently_used_entry_is_evicted_first() {
        // Single-slot shards: force every key into eviction pressure by
        // inserting colliding keys until a shard overflows.
        let cache = QueryCache::new(1);
        assert_eq!(cache.per_shard_capacity, 1);
        // Find two distinct requests that land on the same shard.
        let keys: Vec<_> = (0..64).map(|i| request(i).cache_key()).collect();
        let mut same_shard = None;
        'outer: for (i, a) in keys.iter().enumerate() {
            for b in keys.iter().skip(i + 1) {
                if std::ptr::eq(cache.shard_of(a), cache.shard_of(b)) {
                    same_shard = Some((a.clone(), b.clone()));
                    break 'outer;
                }
            }
        }
        let (a, b) = same_shard.expect("64 keys over 16 shards must collide");
        cache.insert(a.clone(), response(1.0));
        cache.insert(b.clone(), response(2.0));
        assert!(
            cache.get(&a).is_none(),
            "older entry must have been evicted"
        );
        assert_eq!(cache.get(&b).unwrap(), response(2.0));
    }

    #[test]
    fn concurrent_access_is_safe_and_consistent() {
        // Capacity comfortably exceeds the 256 distinct keys inserted, so
        // no eviction can race an insert-then-get pair and the hit count
        // below is deterministic.
        let cache = QueryCache::new(1024);
        std::thread::scope(|scope| {
            for t in 0..8u32 {
                let cache = &cache;
                scope.spawn(move || {
                    for i in 0..32 {
                        let req = request(t * 32 + i);
                        cache.insert(req.cache_key(), response(i as f64));
                        assert_eq!(cache.get(&req.cache_key()), Some(response(i as f64)));
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.hits, 8 * 32);
        assert!(stats.entries <= stats.capacity);
    }

    #[test]
    fn coalesced_leader_computes_once_and_waiters_share_the_result() {
        let cache = Arc::new(QueryCache::new(64));
        let req = request(1);
        let key = req.cache_key().stamped(3);
        let computes = AtomicUsize::new(0);
        // A barrier makes every thread race into compute_coalesced while
        // the key is cold; the leader's slow computation keeps the flight
        // open long enough for the rest to register as waiters.
        let barrier = std::sync::Barrier::new(8);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let cache = &cache;
                let req = &req;
                let key = key.clone();
                let computes = &computes;
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    let got = cache
                        .compute_coalesced(key, req, || {
                            computes.fetch_add(1, Ordering::SeqCst);
                            std::thread::sleep(std::time::Duration::from_millis(20));
                            Ok(response(7.0))
                        })
                        .unwrap();
                    assert_eq!(got, response(7.0));
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(
            computes.load(Ordering::SeqCst) as u64 + stats.coalesced_waits,
            8,
            "every caller either computed or coalesced"
        );
        assert!(
            stats.coalesced_waits > 0,
            "with an open flight at the barrier, some caller must have coalesced"
        );
        // The flight table must be empty again.
        assert!(cache.inflight.lock().unwrap().is_empty());
    }

    #[test]
    fn coalesced_errors_propagate_to_every_waiter() {
        let cache = QueryCache::new(8);
        let req = request(2);
        let key = req.cache_key().stamped(1);
        let err = cache
            .compute_coalesced(key.clone(), &req, || {
                Err(AsrsError::Internal {
                    message: "boom".to_string(),
                })
            })
            .unwrap_err();
        assert!(matches!(err, AsrsError::Internal { .. }));
        // Errors are not cached: the next lookup misses.
        assert!(cache.get(&key).is_none());
        assert!(cache.inflight.lock().unwrap().is_empty());
    }

    #[test]
    fn leader_panic_degrades_waiters_to_independent_misses() {
        let cache = Arc::new(QueryCache::new(64));
        let req = request(3);
        let key = req.cache_key().stamped(2);
        let entered = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            let leader = scope.spawn({
                let cache = Arc::clone(&cache);
                let req = req.clone();
                let key = key.clone();
                let entered = &entered;
                move || {
                    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        cache.compute_coalesced(key, &req, || {
                            entered.wait();
                            std::thread::sleep(std::time::Duration::from_millis(20));
                            panic!("leader died");
                        })
                    }));
                    assert!(result.is_err(), "the leader must observe its own panic");
                }
            });
            entered.wait();
            // The flight is open and its leader is doomed; this waiter must
            // fall back to computing independently.
            let got = cache
                .compute_coalesced(key.clone(), &req, || Ok(response(9.0)))
                .unwrap();
            assert_eq!(got, response(9.0));
            leader.join().unwrap();
        });
        assert_eq!(cache.get(&key), Some(response(9.0)));
        assert!(cache.inflight.lock().unwrap().is_empty());
    }

    #[test]
    fn carry_restamps_an_entry_with_provenance() {
        let cache = QueryCache::new(8);
        let req = request(4);
        let old_key = req.cache_key().stamped(5);
        cache
            .compute_coalesced(old_key.clone(), &req, || Ok(response(1.5)))
            .unwrap();
        let candidates = cache.carry_candidates(5);
        assert_eq!(candidates.len(), 1);
        assert_eq!(candidates[0].key, old_key);
        assert_eq!(candidates[0].response, response(1.5));

        let new_key = req.cache_key().stamped(6);
        assert!(cache.carry(&old_key, new_key.clone(), 5));
        assert!(cache.get(&old_key).is_none(), "old stamp must be gone");
        assert_eq!(cache.get(&new_key), Some(response(1.5)));
        assert_eq!(cache.stats().carried_forward, 1);
        let provenance = cache.stamp_provenance();
        assert_eq!(provenance.len(), 1);
        assert_eq!(provenance[0].stamp, 6);
        assert_eq!(provenance[0].carried_from, Some(5));

        // A carried entry keeps its request, so it is a candidate again at
        // the new generation.
        assert_eq!(cache.carry_candidates(6).len(), 1);
        // Carrying a vanished key is refused.
        assert!(!cache.carry(&old_key, req.cache_key().stamped(7), 6));
    }

    #[test]
    fn requestless_inserts_are_not_carry_candidates() {
        let cache = QueryCache::new(8);
        let key = request(5).cache_key().stamped(4);
        cache.insert(key, response(2.0));
        assert!(cache.carry_candidates(4).is_empty());
        let provenance = cache.stamp_provenance();
        assert_eq!(provenance.len(), 1);
        assert_eq!(provenance[0].carried_from, None);
    }
}
