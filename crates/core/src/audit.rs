//! Deep invariant auditing of an engine generation.
//!
//! The engine's correctness rests on structural invariants that normal
//! operation only exercises indirectly: the grid index's suffix tables
//! must be the deterministic sweep of its base table, an incrementally
//! maintained index must be bit-identical to a fresh build — the grid
//! index and the location index a publish patches alike — shard object
//! counts must agree with routing, and every cache key's
//! generation stamp must refer to a generation that exists.  A violation
//! of any of these would surface — much later — as a wrong answer or a
//! byte-parity test failure with no pointer back to the corrupting step.
//!
//! [`audit_core`] checks them all *directly* against one immutable
//! [`EngineCore`] and reports every violation as an [`AuditFinding`].
//! Debug builds run it after every mutation publish (see
//! [`mutate`](crate::mutate)), so the whole mutation-parity and
//! persistence-recovery suites execute under continuous audit; release
//! builds compile the hook out.  Callers can audit on demand through
//! [`AsrsEngine::audit`](crate::AsrsEngine::audit), and a serving
//! engine exposes the report as `GET /audit`.

use crate::asp::LocationIndex;
use crate::engine::{EngineCore, EngineShared};
use crate::grid_index::GridIndex;
use asrs_data::Dataset;
use asrs_geo::Rect;
use serde::Serialize;

/// One violated invariant: which check tripped and what it saw.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AuditFinding {
    /// Stable identifier of the violated check (e.g.
    /// `"index-suffix-table"`, `"shard-routing"`).
    pub check: &'static str,
    /// Human-readable description of the observed violation.
    pub detail: String,
}

/// The outcome of one audit run over one engine generation.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AuditReport {
    /// Generation of the audited core.
    pub generation: u64,
    /// Number of invariant checks that ran (a check skipped because its
    /// subject is absent — no index, no shards, no cache — is not
    /// counted).
    pub checks_run: usize,
    /// Every violated invariant; empty for a healthy core.
    pub findings: Vec<AuditFinding>,
}

impl AuditReport {
    /// Whether every check passed.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Collects check outcomes while the audit walks the core.
struct Auditor {
    checks_run: usize,
    findings: Vec<AuditFinding>,
}

impl Auditor {
    fn check(&mut self, check: &'static str, ok: bool, detail: impl FnOnce() -> String) {
        self.checks_run += 1;
        if !ok {
            self.findings.push(AuditFinding {
                check,
                detail: detail(),
            });
        }
    }
}

/// Audits every structural invariant of one engine generation.
///
/// The checks, by subject:
///
/// * **dataset** — the cached bounding box equals a fresh fold over the
///   objects, bitwise.
/// * **index** (when held) — the statistics dimensionality matches the
///   aggregator, the object count matches the dataset, the suffix table
///   equals the deterministic sweep of the base table bitwise, and the
///   whole index, grid geometry included, equals a fresh
///   [`GridIndex::build`] over the dataset bitwise (the
///   incremental-maintenance guarantee).  The planner statistics need no
///   check of their own: they are derived from the dataset, the
///   granularity and the shards whenever the planner reads them, and the
///   index checks tie the held index to that same grid.
/// * **location index** (when a search, carry pass or publish built it) —
///   it equals a fresh [`LocationIndex::of`] the dataset bitwise (the
///   guarantee a publish's patch must keep).
/// * **shards** (when sharded) — the per-shard object counts sum to the
///   dataset size, and each count equals the number of objects routing
///   sends to that shard.
/// * **cache** (when attached) — every stored key's generation stamp
///   refers to this or an earlier generation.  Meaningful when no
///   mutation publishes concurrently; the facade methods hold the
///   mutation lock for exactly that reason.
///
/// Audits the current generation with mutations paused: the mutation
/// lock is held for the duration, so no successor generation can publish
/// — and no query can stamp a newer cache key — while the audit reads.
/// Queries themselves are never blocked (they only snapshot the core).
pub(crate) fn audit_shared(shared: &EngineShared) -> AuditReport {
    let _mutations_paused = shared.mutator.lock().expect("mutation lock poisoned"); // lint:allow(poisoned mutation lock is unrecoverable)
    audit_core(&shared.load())
}

pub(crate) fn audit_core(core: &EngineCore) -> AuditReport {
    let mut audit = Auditor {
        checks_run: 0,
        findings: Vec::new(),
    };

    audit_dataset(&mut audit, &core.dataset);
    if let Some(index) = core.index.as_deref() {
        audit_index(&mut audit, index, core);
    }
    if let Some(index) = core.locations.get() {
        audit.check(
            "location-index",
            index.bits_eq(&LocationIndex::of(&core.dataset)),
            || "the location index differs from a fresh build of the dataset".to_string(),
        );
    }
    if let Some(set) = &core.shards {
        audit_shards(&mut audit, core, set);
    }
    if let Some(cache) = &core.cache {
        let provenance = cache.stamp_provenance();
        let stale: Vec<u64> = provenance
            .iter()
            .map(|p| p.stamp)
            .filter(|g| *g > core.generation)
            .collect();
        audit.check("cache-generation-stamps", stale.is_empty(), || {
            format!(
                "cache holds {} key(s) stamped past generation {} (first: {})",
                stale.len(),
                core.generation,
                stale[0]
            )
        });
        // A carried entry must have been proven at a generation strictly
        // before the one it is stamped with ("stamped N+1, proven at N"):
        // equal or newer provenance would mean the entry skipped the
        // publish that was supposed to prove it.
        let bad_carries: Vec<String> = provenance
            .iter()
            .filter_map(|p| {
                let proven = p.carried_from?;
                (proven >= p.stamp).then(|| format!("stamped {} proven at {proven}", p.stamp))
            })
            .collect();
        audit.check("cache-carry-provenance", bad_carries.is_empty(), || {
            format!(
                "{} carried cache entr(ies) with provenance not before their stamp (first: {})",
                bad_carries.len(),
                bad_carries[0]
            )
        });
    }

    AuditReport {
        generation: core.generation,
        checks_run: audit.checks_run,
        findings: audit.findings,
    }
}

/// Recomputes the dataset bounding box from the objects and compares it
/// bitwise with the cached one.
fn audit_dataset(audit: &mut Auditor, dataset: &Dataset) {
    let recomputed = recompute_bounding_box(dataset);
    let cached = dataset.bounding_box();
    audit.check(
        "dataset-bounding-box",
        rect_options_bit_equal(recomputed.as_ref(), cached.as_ref()),
        || format!("cached bounding box {cached:?} != recomputed {recomputed:?}"),
    );
}

fn recompute_bounding_box(dataset: &Dataset) -> Option<Rect> {
    let mut objects = dataset.objects();
    let first = objects.next()?;
    let mut rect = Rect::new(
        first.location.x,
        first.location.y,
        first.location.x,
        first.location.y,
    );
    for o in objects {
        rect.min_x = rect.min_x.min(o.location.x);
        rect.min_y = rect.min_y.min(o.location.y);
        rect.max_x = rect.max_x.max(o.location.x);
        rect.max_y = rect.max_y.max(o.location.y);
    }
    Some(rect)
}

fn rect_options_bit_equal(a: Option<&Rect>, b: Option<&Rect>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(a), Some(b)) => {
            a.min_x.to_bits() == b.min_x.to_bits()
                && a.min_y.to_bits() == b.min_y.to_bits()
                && a.max_x.to_bits() == b.max_x.to_bits()
                && a.max_y.to_bits() == b.max_y.to_bits()
        }
        _ => false,
    }
}

/// Audits the core's grid index against the dataset it summarises.
fn audit_index(audit: &mut Auditor, index: &GridIndex, core: &EngineCore) {
    let dataset = core.dataset.as_ref();
    audit.check(
        "index-stats-dim",
        index.stats_dim() == core.aggregator.stats_dim(),
        || {
            format!(
                "index carries {} statistics dims, aggregator needs {}",
                index.stats_dim(),
                core.aggregator.stats_dim()
            )
        },
    );
    audit.check(
        "index-object-count",
        index.objects_indexed() == dataset.len(),
        || {
            format!(
                "index summarises {} objects, dataset holds {}",
                index.objects_indexed(),
                dataset.len()
            )
        },
    );

    // The suffix table must be the deterministic sweep of the base table.
    // `from_base_table` runs exactly that sweep, so reassembling the index
    // from its own base table must reproduce the suffix table bitwise —
    // geometry match or not.
    match GridIndex::from_base_table(
        index.spec().clone(),
        index.stats_dim(),
        index.objects_indexed(),
        index.base_table().to_vec(),
    ) {
        Ok(swept) => audit.check(
            "index-suffix-table",
            tables_bit_equal(index.suffix_table(), swept.suffix_table()),
            || "suffix table diverges from the sweep of its base table".to_string(),
        ),
        Err(err) => audit.check("index-suffix-table", false, || {
            format!("base table failed to reassemble: {err}")
        }),
    }

    // The maintained index must equal a fresh build over the dataset
    // bitwise, geometry included: the engine holds an index only at the
    // grid its dataset lays (a mutation that moves the geometry rebuilds),
    // which is also the grid the planner statistics are derived from.
    let (cols, rows) = index.granularity();
    match GridIndex::build(dataset, &core.aggregator, cols, rows) {
        Ok(fresh) => {
            audit.check(
                "index-rebuild-identity",
                index.spec() == fresh.spec()
                    && tables_bit_equal(index.base_table(), fresh.base_table())
                    && tables_bit_equal(index.suffix_table(), fresh.suffix_table()),
                || "maintained index diverges bitwise from a fresh build".to_string(),
            );
        }
        Err(err) => audit.check("index-rebuild-identity", false, || {
            format!("fresh index build failed during audit: {err}")
        }),
    }
}

fn tables_bit_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Audits the shard table's object counts: they sum to the dataset size,
/// and each one equals what routing every object afresh gives.
fn audit_shards(audit: &mut Auditor, core: &EngineCore, set: &crate::shard::ShardSet) {
    let total: usize = set.counts().iter().sum();
    audit.check("shard-count-total", total == core.dataset.len(), || {
        format!(
            "shard counts sum to {total}, dataset holds {}",
            core.dataset.len()
        )
    });
    let mut routed = vec![0; set.len()];
    for o in core.dataset.objects() {
        routed[set.route(&o.location)] += 1;
    }
    audit.check("shard-routing", routed == set.counts(), || {
        format!(
            "shard counts {:?} disagree with routing {:?}",
            set.counts(),
            routed
        )
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{AsrsEngine, EngineState};
    use asrs_aggregator::{CompositeAggregator, Selection};
    use asrs_data::gen::UniformGenerator;
    use std::sync::Arc;

    fn engine(n: usize, shards: usize, index: bool, cache: usize) -> AsrsEngine {
        let ds = UniformGenerator::default().generate(n, 7);
        let agg = CompositeAggregator::builder(ds.schema())
            .distribution("category", Selection::All)
            .build()
            .unwrap();
        let mut b = AsrsEngine::builder(ds, agg).cache_capacity(cache);
        if index {
            b = b.build_index(12, 12);
        }
        if shards > 0 {
            b = b.shards(shards);
        }
        b.build().unwrap()
    }

    #[test]
    fn fresh_engines_audit_clean_in_every_configuration() {
        // The checks that run: the dataset's one, the index's four (only
        // an unsharded engine holds one), two for shards and two for a
        // cache.
        for (shards, index, cache, checks) in [
            (0, false, 0, 1),
            (0, true, 16, 7),
            (2, true, 16, 5),
            (3, true, 0, 3),
            (4, false, 8, 5),
        ] {
            let engine = engine(250, shards, index, cache);
            let report = engine.audit();
            assert!(
                report.is_clean(),
                "shards={shards} index={index} cache={cache}: {:?}",
                report.findings
            );
            assert_eq!(
                report.checks_run, checks,
                "shards={shards} index={index} cache={cache}"
            );
            assert_eq!(report.generation, 0);
        }
    }

    #[test]
    fn mutated_engines_stay_clean_under_audit() {
        let engine = engine(200, 2, true, 32);
        let bbox = engine.dataset().bounding_box().unwrap();
        for i in 0..10u64 {
            let f = i as f64 / 9.0;
            engine
                .append(asrs_data::SpatialObject::new(
                    50_000 + i,
                    asrs_geo::Point::new(
                        bbox.min_x + bbox.width() * (0.1 + 0.8 * f),
                        bbox.min_y + bbox.height() * (0.9 - 0.8 * f),
                    ),
                    engine.dataset().object(0).values.clone(),
                ))
                .unwrap();
        }
        engine.remove(50_003).unwrap();
        let report = engine.audit();
        assert!(report.is_clean(), "{:?}", report.findings);
        assert_eq!(report.generation, 11);
    }

    /// An 8×8 engine restored from `dataset` and a persisted `index`: the
    /// one way a caller hands the engine an index it did not build.
    fn restored(dataset: Dataset, agg: CompositeAggregator, index: GridIndex) -> AsrsEngine {
        AsrsEngine::builder(dataset.clone(), agg)
            .build_index(8, 8)
            .build_restored(EngineState {
                generation: 0,
                dataset: Arc::new(dataset),
                index: Some(Arc::new(index)),
            })
            .unwrap()
    }

    fn category_aggregator(ds: &Dataset) -> CompositeAggregator {
        CompositeAggregator::builder(ds.schema())
            .distribution("category", Selection::All)
            .build()
            .unwrap()
    }

    #[test]
    fn a_corrupted_suffix_table_is_detected() {
        let ds = UniformGenerator::default().generate(150, 3);
        let agg = category_aggregator(&ds);
        let mut broken = GridIndex::build(&ds, &agg, 8, 8).unwrap();
        broken.corrupt_suffix_for_test(0, 1.0);
        let report = restored(ds, agg, broken).audit();
        assert!(!report.is_clean());
        assert!(
            report
                .findings
                .iter()
                .any(|f| f.check == "index-suffix-table"),
            "{:?}",
            report.findings
        );
    }

    #[test]
    fn an_index_over_another_dataset_is_detected() {
        // Same size, same granularity, another dataset: every check but
        // the rebuild identity passes.
        let ds = UniformGenerator::default().generate(150, 3);
        let other = UniformGenerator::default().generate(150, 4);
        let agg = category_aggregator(&ds);
        let foreign = GridIndex::build(&other, &agg, 8, 8).unwrap();
        let report = restored(ds, agg, foreign).audit();
        let checks: Vec<&str> = report.findings.iter().map(|f| f.check).collect();
        assert_eq!(checks, ["index-rebuild-identity"], "{:?}", report.findings);
    }

    #[test]
    fn a_corrupted_location_index_is_detected() {
        let engine = engine(150, 2, false, 8);
        let core = engine.core();
        let missing = crate::asp::tests::index_missing_y(&core.dataset, 9);
        crate::asp::tests::set_index(&core.locations, missing);
        let report = engine.audit();
        assert!(
            report.findings.iter().any(|f| f.check == "location-index"),
            "{:?}",
            report.findings
        );
    }

    #[test]
    fn a_stale_object_count_is_detected() {
        let ds = UniformGenerator::default().generate(150, 3);
        let agg = category_aggregator(&ds);
        let built = GridIndex::build(&ds, &agg, 8, 8).unwrap();
        let index = GridIndex::from_base_table(
            built.spec().clone(),
            agg.stats_dim(),
            ds.len() + 5,
            built.base_table().to_vec(),
        )
        .unwrap();
        let report = restored(ds, agg, index).audit();
        assert!(report
            .findings
            .iter()
            .any(|f| f.check == "index-object-count"));
    }
}
