//! Server-side observability: request counters plus the merged
//! [`SearchStats`] of every executed query, snapshotted by `GET /metrics`.

use asrs_core::sync::Mutex;
use asrs_core::{
    CacheStats, MutationReceipt, MutationStats, SearchStats, CARRY_PASS_BUCKET_BOUNDS_US,
};
use asrs_persist::{PersistStats, FSYNC_BUCKET_BOUNDS_US};
use serde::Serialize;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Upper bounds (inclusive) of the commit-batch-size histogram buckets —
/// how many mutations each published generation folded together — with an
/// implicit overflow bucket after the last bound.
const COMMIT_BATCH_BOUNDS: [u64; 9] = [1, 2, 4, 8, 16, 32, 64, 128, 256];

/// Live counters, updated lock-free on the request path (the merged search
/// statistics take a short mutex — they are a dozen additions).
#[derive(Debug)]
pub struct ServerMetrics {
    started: Instant,
    requests_total: AtomicU64,
    queries_ok: AtomicU64,
    queries_client_error: AtomicU64,
    queries_server_error: AtomicU64,
    mutations_ok: AtomicU64,
    mutations_client_error: AtomicU64,
    mutations_server_error: AtomicU64,
    batch_ingests: AtomicU64,
    batch_objects: AtomicU64,
    plans_explained: AtomicU64,
    protocol_errors: AtomicU64,
    /// Commit-batch-size histogram: one bucket per
    /// [`COMMIT_BATCH_BOUNDS`] bound plus an overflow bucket.
    commit_batch_buckets: [AtomicU64; COMMIT_BATCH_BOUNDS.len() + 1],
    commit_batches: AtomicU64,
    commit_ops: AtomicU64,
    /// Newest generation already recorded in the batch histogram: a group
    /// commit hands every participating request receipts stamped with the
    /// *same* generation, and the batch must be counted once, not once
    /// per caller.
    last_commit_generation: AtomicU64,
    search: Mutex<SearchStats>,
}

impl ServerMetrics {
    pub(crate) fn new() -> Self {
        Self {
            started: Instant::now(),
            requests_total: AtomicU64::new(0),
            queries_ok: AtomicU64::new(0),
            queries_client_error: AtomicU64::new(0),
            queries_server_error: AtomicU64::new(0),
            mutations_ok: AtomicU64::new(0),
            mutations_client_error: AtomicU64::new(0),
            mutations_server_error: AtomicU64::new(0),
            batch_ingests: AtomicU64::new(0),
            batch_objects: AtomicU64::new(0),
            plans_explained: AtomicU64::new(0),
            protocol_errors: AtomicU64::new(0),
            commit_batch_buckets: Default::default(),
            commit_batches: AtomicU64::new(0),
            commit_ops: AtomicU64::new(0),
            last_commit_generation: AtomicU64::new(0),
            search: Mutex::new(SearchStats::new()),
        }
    }

    pub(crate) fn record_mutation_ok(&self) {
        self.mutations_ok.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_mutation_error(&self, status: u16) {
        if status >= 500 {
            self.mutations_server_error.fetch_add(1, Ordering::Relaxed);
        } else {
            self.mutations_client_error.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub(crate) fn record_request(&self) {
        self.requests_total.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_batch_ingest(&self, objects: u64) {
        self.batch_ingests.fetch_add(1, Ordering::Relaxed);
        self.batch_objects.fetch_add(objects, Ordering::Relaxed);
    }

    /// Records the published commit batch behind `receipts` in the
    /// batch-size histogram, exactly once per generation: every receipt of
    /// one group commit carries the same `generation` and the same `batch`
    /// size, and concurrent callers race to claim the generation with a
    /// compare-exchange.
    pub(crate) fn record_commit(&self, receipts: &[MutationReceipt]) {
        let Some(first) = receipts.first() else {
            return;
        };
        let generation = first.generation;
        let mut seen = self.last_commit_generation.load(Ordering::Relaxed);
        loop {
            if generation <= seen {
                return;
            }
            match self.last_commit_generation.compare_exchange_weak(
                seen,
                generation,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => seen = actual,
            }
        }
        let batch = first.batch as u64;
        let slot = COMMIT_BATCH_BOUNDS
            .iter()
            .position(|&bound| batch <= bound)
            .unwrap_or(COMMIT_BATCH_BOUNDS.len());
        self.commit_batch_buckets[slot].fetch_add(1, Ordering::Relaxed);
        self.commit_batches.fetch_add(1, Ordering::Relaxed);
        self.commit_ops.fetch_add(batch, Ordering::Relaxed);
    }

    pub(crate) fn record_query_ok(&self, stats: &SearchStats) {
        self.queries_ok.fetch_add(1, Ordering::Relaxed);
        // Metrics are plain counters; recover a poisoned lock rather than
        // let observability take the serving thread down.
        self.search
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .merge(stats);
    }

    pub(crate) fn record_query_error(&self, status: u16) {
        if status >= 500 {
            self.queries_server_error.fetch_add(1, Ordering::Relaxed);
        } else {
            self.queries_client_error.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub(crate) fn record_plan_explained(&self) {
        self.plans_explained.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_protocol_error(&self) {
        self.protocol_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time snapshot.  `cache` carries the engine's query-result
    /// cache counters when one is attached; they are also surfaced in
    /// `search.cache_hits` / `search.cache_misses`, keeping the whole
    /// search-side story in one [`SearchStats`] value.  `shard_requests`
    /// carries the engine's per-shard scattered-execution counts when the
    /// engine is sharded; `mutations` the generational engine's mutation
    /// counters (generation number included).
    pub(crate) fn snapshot(
        &self,
        cache: Option<CacheStats>,
        shard_requests: Option<Vec<u64>>,
        mutations: MutationStats,
        sweeper: Option<SweeperSnapshot>,
        persistence: Option<PersistStats>,
    ) -> MetricsSnapshot {
        let mut search = self
            .search
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone();
        let carry_pass_latency_us = cache.as_ref().map(|c| HistogramSnapshot {
            bounds: CARRY_PASS_BUCKET_BOUNDS_US.to_vec(),
            counts: c.carry_pass_latency_us.clone(),
            count: c.carry_passes,
            sum: c.carry_pass_total_us,
        });
        let cache = cache.map(|c| {
            search.cache_hits = c.hits;
            search.cache_misses = c.misses;
            CacheSnapshot {
                hit_rate: c.hit_rate(),
                hits: c.hits,
                misses: c.misses,
                entries: c.entries as u64,
                capacity: c.capacity as u64,
                coalesced_waits: c.coalesced_waits,
                carried_forward: c.carried_forward,
                carry_proof_failures: c.carry_proof_failures,
                carry_contexts_patched: c.carry_contexts_patched,
                carry_contexts_rebuilt: c.carry_contexts_rebuilt,
                carry_windows_bounded: c.carry_windows_bounded,
                carry_windows_searched: c.carry_windows_searched,
            }
        });
        let shards = shard_requests.map(|requests| ShardsSnapshot {
            shard_count: requests.len() as u64,
            requests,
        });
        let commit_batch_sizes = HistogramSnapshot {
            bounds: COMMIT_BATCH_BOUNDS.to_vec(),
            counts: self
                .commit_batch_buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.commit_batches.load(Ordering::Relaxed),
            sum: self.commit_ops.load(Ordering::Relaxed),
        };
        let fsync_latency_us = persistence.as_ref().map(|p| HistogramSnapshot {
            bounds: FSYNC_BUCKET_BOUNDS_US.to_vec(),
            counts: p.fsync_latency_us.clone(),
            count: p.fsyncs,
            sum: p.fsync_total_us,
        });
        MetricsSnapshot {
            uptime_ms: self.started.elapsed().as_millis() as u64,
            generation: mutations.generation,
            requests_total: self.requests_total.load(Ordering::Relaxed),
            queries_ok: self.queries_ok.load(Ordering::Relaxed),
            queries_client_error: self.queries_client_error.load(Ordering::Relaxed),
            queries_server_error: self.queries_server_error.load(Ordering::Relaxed),
            mutations_ok: self.mutations_ok.load(Ordering::Relaxed),
            mutations_client_error: self.mutations_client_error.load(Ordering::Relaxed),
            mutations_server_error: self.mutations_server_error.load(Ordering::Relaxed),
            batch_ingests: self.batch_ingests.load(Ordering::Relaxed),
            batch_objects: self.batch_objects.load(Ordering::Relaxed),
            plans_explained: self.plans_explained.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            commit_batch_sizes,
            fsync_latency_us,
            carry_pass_latency_us,
            cache,
            shards,
            mutations,
            sweeper,
            persistence,
            search,
        }
    }
}

/// Background maintenance-thread counters, as served by `/metrics`
/// (absent when the server runs with `sweep_interval: None`).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SweeperSnapshot {
    /// Configured sweep cadence in milliseconds.
    pub interval_ms: u64,
    /// Completed background sweeps.
    pub sweeps: u64,
    /// TTL'd objects expired by those sweeps.
    pub swept_objects: u64,
    /// Sweeps that failed (the engine refused the mutation).
    pub sweep_errors: u64,
    /// Timer ticks that skipped the sweep because write traffic had
    /// advanced the generation since the previous tick — application
    /// commit batches piggyback due expiries, so the timer sweep would
    /// have found nothing due.
    pub sweeps_skipped: u64,
    /// Background snapshots taken because the write-ahead log outgrew its
    /// compaction threshold.
    pub snapshots_taken: u64,
    /// Background snapshots that failed.
    pub snapshot_errors: u64,
}

/// Per-shard serving counters of a sharded engine, as served by `/metrics`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ShardsSnapshot {
    /// Number of shards the engine was built with.
    pub shard_count: u64,
    /// Scattered executions each shard participated in, in shard order.
    /// A shard skipped by routing (no rectangle reached its slab) is not
    /// counted, so the spread shows how evenly the partition carries load.
    pub requests: Vec<u64>,
}

/// Query-result cache counters as served by `/metrics`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CacheSnapshot {
    /// Fraction of lookups answered from the cache.
    pub hit_rate: f64,
    /// Requests answered from the cache.
    pub hits: u64,
    /// Requests that had to be computed.
    pub misses: u64,
    /// Entries currently cached.
    pub entries: u64,
    /// Maximum entries retained.
    pub capacity: u64,
    /// Misses that blocked on another caller's identical in-flight
    /// computation and shared its result (single-flight coalescing).
    pub coalesced_waits: u64,
    /// Entries re-stamped to a successor generation because a commit
    /// batch provably could not change their answer (carry-forward).
    pub carried_forward: u64,
    /// Carry-forward attempts rejected by the byte-identity proof path.
    pub carry_proof_failures: u64,
    /// Per-size probe contexts the carry passes patched in place.
    pub carry_contexts_patched: u64,
    /// Per-size probe contexts the carry passes built from scratch (first
    /// probes of a size, contexts a pass left behind, inconsistent ones).
    pub carry_contexts_rebuilt: u64,
    /// Influence windows the carry passes' R3 test settled without a
    /// search (by the window's Equation-1 bound or the empty covering).
    pub carry_windows_bounded: u64,
    /// Influence windows R3 searched (or refused as too dense); with
    /// `carry_windows_bounded` it sums to every window R3 examined.
    pub carry_windows_searched: u64,
}

/// A fixed-bucket histogram as served by `/metrics`: `counts[i]` holds the
/// observations `≤ bounds[i]`, with one trailing overflow bucket
/// (`counts.len() == bounds.len() + 1`); `count`/`sum` give totals for
/// deriving a mean.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct HistogramSnapshot {
    /// Inclusive bucket upper bounds.
    pub bounds: Vec<u64>,
    /// Observations per bucket (overflow bucket last).
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
}

/// The `GET /metrics` payload.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MetricsSnapshot {
    /// Milliseconds since the server started.
    pub uptime_ms: u64,
    /// Current engine generation (0 until the first mutation; mirrors
    /// `mutations.generation`).
    pub generation: u64,
    /// Every request routed, any endpoint.
    pub requests_total: u64,
    /// `/query` requests answered 200.
    pub queries_ok: u64,
    /// `/query` requests answered 4xx.
    pub queries_client_error: u64,
    /// `/query` requests answered 5xx.
    pub queries_server_error: u64,
    /// Mutation requests (`/append`, `/append_batch`,
    /// `DELETE /objects/{id}`, `/sweep`) answered 200.
    pub mutations_ok: u64,
    /// Mutation requests answered 4xx.
    pub mutations_client_error: u64,
    /// Mutation requests answered 5xx.
    pub mutations_server_error: u64,
    /// `/append_batch` payloads accepted (each is one atomic commit — one
    /// published generation regardless of payload size).
    pub batch_ingests: u64,
    /// Objects ingested through accepted `/append_batch` payloads.
    pub batch_objects: u64,
    /// `/explain` requests answered.
    pub plans_explained: u64,
    /// Connections dropped for malformed framing.
    pub protocol_errors: u64,
    /// Histogram of mutations folded per published generation — the
    /// group-commit amortisation factor under concurrent write load.
    pub commit_batch_sizes: HistogramSnapshot,
    /// Histogram of WAL `write + fsync` critical-section latencies in
    /// microseconds (absent without a persistence directory).
    pub fsync_latency_us: Option<HistogramSnapshot>,
    /// Histogram of carry-pass latencies in microseconds, one observation
    /// per published generation: the write stage that re-stamps the cache
    /// entries a batch provably left unchanged (absent without a cache).
    pub carry_pass_latency_us: Option<HistogramSnapshot>,
    /// Engine query-result cache counters (absent without a cache).
    pub cache: Option<CacheSnapshot>,
    /// Per-shard request counters (absent on single-engine deployments).
    pub shards: Option<ShardsSnapshot>,
    /// Background maintenance-thread counters (absent when the sweeper is
    /// disabled).
    pub sweeper: Option<SweeperSnapshot>,
    /// Snapshot/WAL counters (absent without a persistence directory).
    pub persistence: Option<PersistStats>,
    /// Generational-engine mutation counters: generation number, applied
    /// appends/removals/expiries, incremental index updates vs rebuilds,
    /// pending TTLs.
    pub mutations: MutationStats,
    /// Merged statistics of every successful query; `cache_hits` /
    /// `cache_misses` mirror the cache counters above.
    pub search: SearchStats,
}
