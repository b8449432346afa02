//! The declarative query surface: [`QueryRequest`] in, [`QueryResponse`]
//! out.
//!
//! A request is a plain serializable value describing *what* the caller
//! wants — it names no algorithm.  The engine's
//! [`Planner`](crate::Planner) turns a request plus dataset/index
//! statistics into an [`ExecutionPlan`](crate::ExecutionPlan) choosing the
//! backend, and [`AsrsEngine::submit`](crate::AsrsEngine::submit) executes
//! the plan.  Because requests and responses round-trip through JSON they
//! can cross process boundaries, be queued, logged and replayed — the
//! prerequisite for serving the engine to many concurrent users.

use crate::maxrs::MaxRsResult;
use crate::query::AsrsQuery;
use crate::result::SearchResult;
use crate::stats::SearchStats;
use asrs_aggregator::Selection;
use asrs_geo::RegionSize;
use serde::{Deserialize, Serialize, Value};
use std::fmt;
use std::hash::{Hash, Hasher};

/// A concrete search backend a plan can dispatch to.
///
/// It is what a finished [`ExecutionPlan`](crate::ExecutionPlan) names and
/// what a request can force via [`QueryRequest::with_backend`]; without a
/// force, the [`Planner`](crate::Planner) chooses one per request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Backend {
    /// The exact discretize–split algorithm (no index needed).
    DsSearch,
    /// The grid-index-accelerated algorithm; requires an index.
    GiDs,
    /// The exhaustive arrangement oracle — exact but `O(n²)` probes.
    Naive,
}

impl Backend {
    /// The short human-readable backend name used in logs and plans.
    pub fn name(&self) -> &'static str {
        match self {
            Backend::DsSearch => "ds-search",
            Backend::GiDs => "gi-ds",
            Backend::Naive => "naive",
        }
    }
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A declarative query: every operation the engine supports, as one
/// serializable value.
///
/// Construct requests with the associated functions ([`QueryRequest::similar`],
/// [`QueryRequest::top_k`], …) and attach per-request execution options with
/// the [`QueryRequest::with_budget_ms`] / [`QueryRequest::with_backend`]
/// combinators, which wrap the operation in a [`QueryRequest::Configured`]
/// envelope:
///
/// ```
/// use asrs_core::{Backend, QueryRequest};
/// use asrs_geo::RegionSize;
///
/// let req = QueryRequest::max_rs(RegionSize::new(10.0, 10.0))
///     .with_budget_ms(250)
///     .with_backend(Backend::DsSearch);
/// let json = serde::json::to_string(&req);
/// let back: QueryRequest = serde::json::from_str(&json).unwrap();
/// assert_eq!(back, req);
/// assert_eq!(back.budget_ms(), Some(250));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum QueryRequest {
    /// Find the single region most similar to the query representation.
    Similar {
        /// The ASRS query (size, target, weights, metric).
        query: AsrsQuery,
    },
    /// Find the `k` best candidate regions with pairwise distinct anchors.
    TopK {
        /// The ASRS query.
        query: AsrsQuery,
        /// Number of ranked results requested (must be ≥ 1).
        k: usize,
    },
    /// Answer many similar-region queries; results come back in input
    /// order.
    Batch {
        /// The queries, answered independently.
        queries: Vec<AsrsQuery>,
    },
    /// The (1+δ)-approximate variant: the returned region's distance is at
    /// most `1 + delta` times the optimum (Section 6 of the paper).
    Approximate {
        /// The ASRS query.
        query: AsrsQuery,
        /// Approximation parameter δ ≥ 0 (0 = exact).
        delta: f64,
    },
    /// The MaxRS problem: the `a × b` region enclosing the maximum number
    /// of objects (Section 7.5).
    MaxRs {
        /// Size of the region to place.
        size: RegionSize,
    },
    /// The class-constrained MaxRS variant: counts only objects accepted by
    /// the selection.
    MaxRsSelective {
        /// Size of the region to place.
        size: RegionSize,
        /// Which objects count.
        selection: Selection,
    },
    /// An envelope attaching execution options to an inner request; the
    /// options do not change *what* is computed, only *how*.
    Configured {
        /// The wrapped operation (possibly itself configured; inner
        /// envelopes are read outside-in, the outermost setting wins).
        request: Box<QueryRequest>,
        /// Optional wall-clock budget in milliseconds; execution aborts
        /// with [`AsrsError::DeadlineExceeded`](crate::AsrsError::DeadlineExceeded)
        /// once spent.
        budget_ms: Option<u64>,
        /// Optional forced backend, bypassing the planner's cost model.
        backend: Option<Backend>,
    },
}

impl QueryRequest {
    /// A [`QueryRequest::Similar`] request.
    pub fn similar(query: AsrsQuery) -> Self {
        QueryRequest::Similar { query }
    }

    /// A [`QueryRequest::TopK`] request.
    pub fn top_k(query: AsrsQuery, k: usize) -> Self {
        QueryRequest::TopK { query, k }
    }

    /// A [`QueryRequest::Batch`] request.
    pub fn batch(queries: Vec<AsrsQuery>) -> Self {
        QueryRequest::Batch { queries }
    }

    /// A [`QueryRequest::Approximate`] request.
    pub fn approximate(query: AsrsQuery, delta: f64) -> Self {
        QueryRequest::Approximate { query, delta }
    }

    /// A [`QueryRequest::MaxRs`] request.
    pub fn max_rs(size: RegionSize) -> Self {
        QueryRequest::MaxRs { size }
    }

    /// A [`QueryRequest::MaxRsSelective`] request.
    pub fn max_rs_selective(size: RegionSize, selection: Selection) -> Self {
        QueryRequest::MaxRsSelective { size, selection }
    }

    /// Attaches a wall-clock budget in milliseconds (see
    /// [`Budget`](crate::Budget)), wrapping the request in a
    /// [`QueryRequest::Configured`] envelope when needed.
    pub fn with_budget_ms(self, budget_ms: u64) -> Self {
        match self {
            QueryRequest::Configured {
                request, backend, ..
            } => QueryRequest::Configured {
                request,
                budget_ms: Some(budget_ms),
                backend,
            },
            op => QueryRequest::Configured {
                request: Box::new(op),
                budget_ms: Some(budget_ms),
                backend: None,
            },
        }
    }

    /// Forces a backend, bypassing the planner's cost model, wrapping the
    /// request in a [`QueryRequest::Configured`] envelope when needed.
    pub fn with_backend(self, backend: Backend) -> Self {
        match self {
            QueryRequest::Configured {
                request, budget_ms, ..
            } => QueryRequest::Configured {
                request,
                budget_ms,
                backend: Some(backend),
            },
            op => QueryRequest::Configured {
                request: Box::new(op),
                budget_ms: None,
                backend: Some(backend),
            },
        }
    }

    /// The innermost operation, with every [`QueryRequest::Configured`]
    /// envelope peeled off.
    pub fn operation(&self) -> &QueryRequest {
        let mut op = self;
        while let QueryRequest::Configured { request, .. } = op {
            op = request;
        }
        op
    }

    /// The effective wall-clock budget in milliseconds, if any.  With
    /// nested envelopes the outermost setting wins.
    pub fn budget_ms(&self) -> Option<u64> {
        let mut op = self;
        while let QueryRequest::Configured {
            request, budget_ms, ..
        } = op
        {
            if budget_ms.is_some() {
                return *budget_ms;
            }
            op = request;
        }
        None
    }

    /// The effective forced backend, if any.  With nested envelopes the
    /// outermost setting wins.
    pub fn forced_backend(&self) -> Option<Backend> {
        let mut op = self;
        while let QueryRequest::Configured {
            request, backend, ..
        } = op
        {
            if backend.is_some() {
                return *backend;
            }
            op = request;
        }
        None
    }

    /// A short name of the operation (envelope-transparent), for plans and
    /// error messages.
    pub fn operation_name(&self) -> &'static str {
        match self.operation() {
            QueryRequest::Similar { .. } => "similar",
            QueryRequest::TopK { .. } => "top-k",
            QueryRequest::Batch { .. } => "batch",
            QueryRequest::Approximate { .. } => "approximate",
            QueryRequest::MaxRs { .. } => "max-rs",
            QueryRequest::MaxRsSelective { .. } => "max-rs-selective",
            // lint:allow(operation() strips every Configured envelope before this match; the arm is statically dead)
            QueryRequest::Configured { .. } => unreachable!("operation() peels envelopes"),
        }
    }

    /// The region size the operation searches for, used by the planner's
    /// cost model.  Batch requests report their largest query (the most
    /// index-hostile one); empty batches report `None`.
    pub(crate) fn planning_size(&self) -> Option<RegionSize> {
        match self.operation() {
            QueryRequest::Similar { query }
            | QueryRequest::TopK { query, .. }
            | QueryRequest::Approximate { query, .. } => Some(query.size),
            QueryRequest::Batch { queries } => queries
                .iter()
                .map(|q| q.size)
                .max_by(|a, b| a.area().total_cmp(&b.area())),
            QueryRequest::MaxRs { size } | QueryRequest::MaxRsSelective { size, .. } => Some(*size),
            // lint:allow(operation() strips every Configured envelope before this match; the arm is statically dead)
            QueryRequest::Configured { .. } => unreachable!("operation() peels envelopes"),
        }
    }
}

/// A canonical fingerprint of a [`QueryRequest`], usable as a lookup key
/// (`Hash + Eq`) for the engine's query-result cache.
///
/// Two requests that describe the same computation map to the same key
/// even when their float components differ in representation only:
/// `-0.0` and `+0.0` collapse to one bit pattern, and every NaN collapses
/// to the canonical quiet NaN (a NaN never validates, but it must not be
/// able to poison the key space either).  All other floats are compared by
/// exact bits, so keys never conflate genuinely different requests.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RequestKey(Vec<u8>);

impl RequestKey {
    /// Stamps the key with an engine generation, producing the composite
    /// key a *mutable* engine caches under.
    ///
    /// The generation is prepended to the canonical fingerprint, so the
    /// same request submitted before and after a mutation maps to two
    /// disjoint keys — a stale hit is structurally impossible rather than
    /// merely invalidated.  Entries of superseded generations age out of
    /// the cache through normal LRU eviction.
    pub fn stamped(mut self, generation: u64) -> RequestKey {
        let mut bytes = Vec::with_capacity(self.0.len() + 8);
        bytes.extend_from_slice(&generation.to_le_bytes());
        bytes.append(&mut self.0);
        RequestKey(bytes)
    }

    /// The generation a [`RequestKey::stamped`] key was stamped with —
    /// the stamp is the key's first eight little-endian bytes.  `None`
    /// for a key too short to carry one (an unstamped key of a tiny
    /// request); the invariant auditor treats those as unstamped.
    pub(crate) fn generation_stamp(&self) -> Option<u64> {
        let bytes: [u8; 8] = self.0.get(..8)?.try_into().ok()?;
        Some(u64::from_le_bytes(bytes))
    }
}

/// Collapses `-0.0`/`+0.0` and all NaN payloads; every other value keeps
/// its exact bit pattern.
fn canonical_f64_bits(v: f64) -> u64 {
    if v == 0.0 {
        0
    } else if v.is_nan() {
        0x7ff8_0000_0000_0000
    } else {
        v.to_bits()
    }
}

/// Encodes a serde value into an unambiguous byte string: one tag byte per
/// shape, lengths before variable-size payloads, floats as canonical bits.
fn encode_canonical(value: &Value, out: &mut Vec<u8>) {
    match value {
        Value::Null => out.push(0),
        Value::Bool(b) => {
            out.push(1);
            out.push(*b as u8);
        }
        Value::Num(n) => {
            out.push(2);
            out.extend_from_slice(&canonical_f64_bits(*n).to_le_bytes());
        }
        Value::UInt(n) => {
            out.push(3);
            out.extend_from_slice(&n.to_le_bytes());
        }
        Value::Str(s) => {
            out.push(4);
            out.extend_from_slice(&(s.len() as u64).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        Value::Seq(items) => {
            out.push(5);
            out.extend_from_slice(&(items.len() as u64).to_le_bytes());
            for item in items {
                encode_canonical(item, out);
            }
        }
        Value::Map(entries) => {
            out.push(6);
            out.extend_from_slice(&(entries.len() as u64).to_le_bytes());
            for (key, item) in entries {
                out.extend_from_slice(&(key.len() as u64).to_le_bytes());
                out.extend_from_slice(key.as_bytes());
                encode_canonical(item, out);
            }
        }
    }
}

impl QueryRequest {
    /// The canonical cache key of this request (see [`RequestKey`]).
    ///
    /// The key is derived from the request's serde value tree, so it covers
    /// every variant — including [`QueryRequest::Configured`] envelopes,
    /// whose budget and backend legitimately change what a response looks
    /// like (a deadline can fail one phrasing of a request and not
    /// another).
    pub fn cache_key(&self) -> RequestKey {
        let mut bytes = Vec::with_capacity(128);
        encode_canonical(&self.to_value(), &mut bytes);
        RequestKey(bytes)
    }
}

/// Hashing follows the canonical fingerprint: requests equal under the
/// derived `PartialEq` hash identically (`-0.0 == 0.0` and both canonicalise
/// to the same bits; NaN components make a request unequal to everything
/// including itself, so they impose no constraint).
impl Hash for QueryRequest {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write(&self.cache_key().0);
    }
}

/// The results of one executed operation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum QueryOutcome {
    /// The single best region ([`QueryRequest::Similar`] /
    /// [`QueryRequest::Approximate`]).
    Best(SearchResult),
    /// Up to `k` regions, best first ([`QueryRequest::TopK`]).
    Ranked(Vec<SearchResult>),
    /// One result per input query, in input order
    /// ([`QueryRequest::Batch`]).
    Batch(Vec<SearchResult>),
    /// The MaxRS answer ([`QueryRequest::MaxRs`] /
    /// [`QueryRequest::MaxRsSelective`]).
    MaxRs(MaxRsResult),
}

/// The engine's answer to a [`QueryRequest`]: the results, the backend the
/// planner chose, and the statistics of the run that found them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryResponse {
    /// The backend that executed the request.
    pub backend: Backend,
    /// The results.
    pub outcome: QueryOutcome,
    /// Statistics of the execution, the one record of the response: the
    /// single run's for best, ranked and MaxRS outcomes, the
    /// [`SearchStats::merge`] of every query's run, in input order, for a
    /// batch.
    pub stats: SearchStats,
}

impl QueryResponse {
    /// The best region of the response: the single result for
    /// similar/approximate, the top-ranked result for top-k, and `None`
    /// for batch (which has no global ranking) and MaxRS responses.
    pub fn best(&self) -> Option<&SearchResult> {
        match &self.outcome {
            QueryOutcome::Best(r) => Some(r),
            QueryOutcome::Ranked(rs) => rs.first(),
            QueryOutcome::Batch(_) | QueryOutcome::MaxRs(_) => None,
        }
    }

    /// All region results carried by the response (empty for MaxRS).
    pub fn results(&self) -> &[SearchResult] {
        match &self.outcome {
            QueryOutcome::Best(r) => std::slice::from_ref(r),
            QueryOutcome::Ranked(rs) | QueryOutcome::Batch(rs) => rs,
            QueryOutcome::MaxRs(_) => &[],
        }
    }

    /// The MaxRS result, when the request was a MaxRS variant.
    pub fn max_rs(&self) -> Option<&MaxRsResult> {
        match &self.outcome {
            QueryOutcome::MaxRs(r) => Some(r),
            _ => None,
        }
    }

    /// A copy of the response with its [`SearchStats`] reset to the
    /// default.
    ///
    /// This is the comparison form of the sharded-engine parity guarantee:
    /// outcomes — regions, anchors, distances, representations, counts and
    /// the chosen backend — are byte-identical across shard counts, while
    /// the statistics necessarily describe the decomposition that ran
    /// (different shard counts discretise different sub-spaces and report
    /// different wall clocks).  Differential tests serialize
    /// `stats_stripped()` responses and compare the bytes.
    pub fn stats_stripped(&self) -> QueryResponse {
        QueryResponse {
            stats: SearchStats::default(),
            ..self.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asrs_aggregator::{FeatureVector, Weights};

    fn query() -> AsrsQuery {
        AsrsQuery::new(
            RegionSize::new(3.0, 4.0),
            FeatureVector::new(vec![1.0, 2.0]),
            Weights::uniform(2),
        )
    }

    #[test]
    fn combinators_wrap_once_and_update_in_place() {
        let req = QueryRequest::similar(query())
            .with_budget_ms(100)
            .with_backend(Backend::Naive)
            .with_budget_ms(50);
        // One envelope, both options set, the later budget wins.
        assert!(matches!(
            &req,
            QueryRequest::Configured {
                request,
                budget_ms: Some(50),
                backend: Some(Backend::Naive),
            } if matches!(**request, QueryRequest::Similar { .. })
        ));
        assert_eq!(req.budget_ms(), Some(50));
        assert_eq!(req.forced_backend(), Some(Backend::Naive));
        assert_eq!(req.operation_name(), "similar");
    }

    #[test]
    fn nested_envelopes_read_outside_in() {
        let inner = QueryRequest::Configured {
            request: Box::new(QueryRequest::max_rs(RegionSize::new(1.0, 1.0))),
            budget_ms: Some(10),
            backend: Some(Backend::DsSearch),
        };
        let outer = QueryRequest::Configured {
            request: Box::new(inner),
            budget_ms: Some(99),
            backend: None,
        };
        assert_eq!(outer.budget_ms(), Some(99));
        assert_eq!(outer.forced_backend(), Some(Backend::DsSearch));
        assert!(matches!(outer.operation(), QueryRequest::MaxRs { .. }));
    }

    #[test]
    fn planning_size_reports_the_largest_batch_query() {
        let mut small = query();
        small.size = RegionSize::new(1.0, 1.0);
        let mut large = query();
        large.size = RegionSize::new(9.0, 9.0);
        let req = QueryRequest::batch(vec![small, large]);
        assert_eq!(req.planning_size(), Some(RegionSize::new(9.0, 9.0)));
        assert_eq!(QueryRequest::batch(vec![]).planning_size(), None);
    }

    #[test]
    fn every_variant_round_trips_through_json() {
        let requests = vec![
            QueryRequest::similar(query()),
            QueryRequest::top_k(query(), 4),
            QueryRequest::batch(vec![query(), query()]),
            QueryRequest::approximate(query(), 0.25),
            QueryRequest::max_rs(RegionSize::new(5.0, 6.0)),
            QueryRequest::max_rs_selective(RegionSize::new(5.0, 6.0), Selection::cat_equals(0, 2)),
            QueryRequest::top_k(query(), 2)
                .with_budget_ms(750)
                .with_backend(Backend::GiDs),
        ];
        for req in requests {
            let json = serde::json::to_string(&req);
            let back: QueryRequest = serde::json::from_str(&json).unwrap();
            assert_eq!(back, req, "round trip failed for {json}");
        }
    }

    #[test]
    fn cache_keys_canonicalise_floats_and_separate_requests() {
        let base = QueryRequest::similar(query());
        assert_eq!(base.cache_key(), base.cache_key(), "keys are deterministic");

        // -0.0 and +0.0 describe the same computation.
        let mut negzero = query();
        negzero.target = FeatureVector::new(vec![1.0, -0.0]);
        let mut poszero = query();
        poszero.target = FeatureVector::new(vec![1.0, 0.0]);
        assert_eq!(
            QueryRequest::similar(negzero).cache_key(),
            QueryRequest::similar(poszero).cache_key()
        );

        // Different operations, parameters and envelopes all separate.
        assert_ne!(
            base.cache_key(),
            QueryRequest::top_k(query(), 2).cache_key()
        );
        assert_ne!(
            QueryRequest::top_k(query(), 2).cache_key(),
            QueryRequest::top_k(query(), 3).cache_key()
        );
        assert_ne!(
            base.cache_key(),
            base.clone().with_budget_ms(10).cache_key(),
            "a budget changes failure behaviour, so it must change the key"
        );
        assert_ne!(
            base.clone().with_backend(Backend::Naive).cache_key(),
            base.clone().with_backend(Backend::DsSearch).cache_key()
        );

        // All NaN payloads collapse to one key (and never collide with a
        // real value's key by construction).
        let mut nan_a = query();
        nan_a.target = FeatureVector::new(vec![1.0, f64::NAN]);
        let mut nan_b = query();
        nan_b.target = FeatureVector::new(vec![1.0, f64::from_bits(0x7ff8_dead_beef_0000)]);
        assert_eq!(
            QueryRequest::similar(nan_a).cache_key(),
            QueryRequest::similar(nan_b).cache_key()
        );
    }

    #[test]
    fn generation_stamps_separate_otherwise_equal_keys() {
        let req = QueryRequest::similar(query());
        let g0 = req.cache_key().stamped(0);
        let g1 = req.cache_key().stamped(1);
        assert_ne!(g0, g1, "different generations must never collide");
        assert_eq!(g0, req.cache_key().stamped(0), "stamping is deterministic");
        // Stamping must not conflate different requests of one generation.
        assert_ne!(
            QueryRequest::top_k(query(), 2).cache_key().stamped(3),
            QueryRequest::top_k(query(), 4).cache_key().stamped(3)
        );
    }

    #[test]
    fn equal_requests_hash_identically() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let hash_of = |r: &QueryRequest| {
            let mut h = DefaultHasher::new();
            r.hash(&mut h);
            h.finish()
        };
        let a = QueryRequest::top_k(query(), 4).with_budget_ms(100);
        let b = QueryRequest::top_k(query(), 4).with_budget_ms(100);
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn backend_names_are_stable() {
        assert_eq!(Backend::DsSearch.name(), "ds-search");
        assert_eq!(Backend::GiDs.to_string(), "gi-ds");
        assert_eq!(Backend::Naive.name(), "naive");
    }
}
