//! Shards and their scatter: the [`Slabs::Shards`](crate::executor::Slabs)
//! plan of the engine's executor.
//!
//! # Topology
//!
//! [`EngineBuilder::shards(n)`](crate::EngineBuilder::shards) partitions
//! the plane around the dataset (longest-axis recursive splits at
//! object-count medians, outer edges unbounded, see
//! [`SpatialPartition`]) into `n` disjoint regions.  A shard is nothing
//! more than its region, the number of objects the region owns, and a
//! serving counter: there is no per-shard dataset or index.  A request is
//! *scattered*: each shard searches the anchor slab induced by its region
//! over the shared full instance, and the slab answers are *gathered* in
//! one [`BestSet`] with the engine's deterministic `(distance, anchor.y,
//! anchor.x)` tie-break.
//!
//! The regions never change during an engine's lifetime.  Every point of
//! the plane routes to exactly one region, so an append anywhere — inside
//! the seed extent or far outside it — only bumps one count, and
//! `slab_for` clips each slab to the current search space.  Shard layout
//! never affects answers, only how the search space is divided.
//!
//! # Exactness
//!
//! The ASRS problem does not decompose by objects alone: a candidate
//! region that straddles a shard boundary draws objects from several
//! shards, so searching each sub-dataset independently would under-count
//! it.  The scatter therefore runs over *anchor slabs* instead: shard
//! `i` is responsible for every candidate anchor inside its region
//! extended one query size down and left (exactly the ASP rectangles'
//! footprint), and each slab search runs over the **full** instance's
//! rectangles intersecting the slab — the same per-sub-space machinery
//! GI-DS uses per index cell, so every slab answer is exact.  The slabs
//! cover the whole ASP space, hence the gathered answer is the global
//! optimum.
//!
//! # Byte-identical answers, for every shard count
//!
//! Two decompositions of the same search space probe equally-optimal
//! candidates at different points, so a naïve scatter would return
//! different — equally correct — anchors for different shard counts.  The
//! scatter closes that hole with the canonical mode of [`DsSearch`]:
//!
//! * every offered anchor is snapped to the canonical representative of
//!   its arrangement cell ([`EdgeSnapper`](crate::asp::EdgeSnapper)),
//!   making candidate identity a property of the instance rather than of
//!   the decomposition, and
//! * pruning keeps candidates *tied* with the best distance alive, so
//!   every decomposition discovers the complete set of optimal candidates
//!   and the `(distance, y, x)` tie-break picks the same winner.
//!
//! Together these make the gathered outcome byte-identical for every shard
//! count (statistics excepted — counters necessarily describe the actual
//! decomposition; see [`QueryResponse::stats_stripped`]).  The guarantee
//! is bit-exact for aggregates computed in exact arithmetic (counts and
//! distributions — the paper's primary composite aggregators); aggregates
//! summing floating-point attribute values are equal up to summation
//! order.
//!
//! Approximate requests are answered *exactly* by the scatter (δ only
//! relaxes pruning, and relaxed pruning is trajectory-dependent);
//! exact answers trivially satisfy the (1+δ) guarantee and stay
//! shard-count-invariant.

use crate::asp::AspInstance;
use crate::best::BestSet;
use crate::ds_search::DsSearch;
use crate::error::AsrsError;
use crate::stats::SearchStats;
use crate::sync::Mutex;
use asrs_data::{Dataset, SpatialPartition};
use asrs_geo::{Point, Rect};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// The shard table of a sharded engine: the partition regions,
/// the objects each region owns, and per-shard serving counters.
///
/// The regions are fixed for the engine's lifetime — their outer edges
/// are unbounded, so every point of the plane has an owner and no
/// mutation ever needs a new layout.  A mutation only moves one count.
#[derive(Debug, Clone)]
pub(crate) struct ShardSet {
    partition: Arc<SpatialPartition>,
    /// Objects each region owns, in shard order.
    counts: Vec<usize>,
    /// Scattered executions per shard (serving metrics), shared by every
    /// generation of the engine.
    requests: Arc<[AtomicU64]>,
}

impl ShardSet {
    /// Partitions the plane around `dataset` into `n` regions and counts
    /// the objects each one owns.
    pub(crate) fn build(dataset: &Dataset, n: usize) -> Self {
        let partition = SpatialPartition::build(dataset, n);
        let mut set = Self {
            counts: vec![0; partition.shard_count()],
            requests: (0..partition.shard_count())
                .map(|_| AtomicU64::new(0))
                .collect(),
            partition: Arc::new(partition),
        };
        for o in dataset.objects() {
            set.add(&o.location);
        }
        set
    }

    /// Number of shards.
    pub(crate) fn len(&self) -> usize {
        self.counts.len()
    }

    /// The shard owning point `p` (see [`SpatialPartition::route`]).
    pub(crate) fn route(&self, p: &Point) -> usize {
        self.partition.route(p)
    }

    /// Counts an object added at `p` in its owning region.
    pub(crate) fn add(&mut self, p: &Point) {
        self.counts[self.partition.route(p)] += 1;
    }

    /// Counts an object removed from `p` out of its owning region.
    pub(crate) fn remove(&mut self, p: &Point) {
        self.counts[self.partition.route(p)] -= 1;
    }

    /// Objects per shard, in shard order.
    pub(crate) fn counts(&self) -> &[usize] {
        &self.counts
    }

    /// Per-shard scattered-execution counts, in shard order.
    pub(crate) fn request_counts(&self) -> Vec<u64> {
        self.requests
            .iter()
            .map(|r| r.load(Ordering::Relaxed))
            .collect()
    }

    /// Per-shard partition regions, in shard order.
    pub(crate) fn regions(&self) -> &[Rect] {
        self.partition.regions()
    }

    /// The fan-out description surfaced by plans and `/metrics`.
    pub(crate) fn fan_out(&self) -> crate::planner::ShardFanOut {
        crate::planner::ShardFanOut {
            shards: self.len(),
            populated: self.counts.iter().filter(|&&c| c > 0).count(),
        }
    }
}

/// The anchor slab shard `region` is responsible for: the region extended
/// one ASP-rectangle footprint down and left (every rectangle whose object
/// lies in the region reaches at most that far), clipped to the instance's
/// search space.  The slabs of a partition cover the space exactly;
/// overlaps on the cut lines are harmless because canonical candidates are
/// deduplicated by the gather.
fn slab_for(region: &Rect, asp: &AspInstance) -> Option<Rect> {
    let space = asp.space()?;
    let size = asp.size();
    let slab = Rect::new(
        region.min_x - size.width,
        region.min_y - size.height,
        region.max_x,
        region.max_y,
    );
    slab.intersection(&space)
}

/// Scatters one search over the anchor slabs of `shards` and gathers the
/// answers into `best` (see the module documentation for the guarantees).
/// `solver` runs in canonical-tie mode, `best` snaps its anchors and holds
/// the empty-region seed.
///
/// Runs shard tasks on up to `available_parallelism` threads; with a
/// single worker the tasks share `best`, so the cutoff found in an early
/// slab prunes the later ones.  Both schedules produce identical results:
/// strict tie-retaining pruning never discards a candidate tied with the
/// final cutoff, whatever the cutoff trajectory.
pub(crate) fn scatter(
    solver: &DsSearch<'_>,
    shards: &ShardSet,
    best: &mut BestSet,
    stats: &mut SearchStats,
) -> Result<(), AsrsError> {
    let (asp, table) = (solver.asp, solver.table);
    // The representation and distance of a candidate covering nothing —
    // what every point of a rectangle-free slab evaluates to.
    let (empty_rep, empty_distance) = solver.empty_candidate();

    // Route: a shard *executes* only when at least one contributing
    // rectangle reaches its anchor slab.  A slab no rectangle reaches is
    // uniform empty covering, but its arrangement cells are still
    // candidates — and when the empty covering ties the optimum they can
    // hold the tie-break winner, so the slab is offered as one region
    // (O(1) via the minimal-representative skip whenever the empty
    // distance cannot improve the gather) instead of silently dropped.
    let mut tasks: Vec<(usize, Rect, Vec<u32>)> = Vec::with_capacity(shards.len());
    for (i, region) in shards.regions().iter().enumerate() {
        let Some(slab) = slab_for(region, asp) else {
            continue;
        };
        let candidates = table.contributing(asp.rects_intersecting(&slab));
        if candidates.is_empty() {
            if empty_distance <= best.cutoff() {
                best.offer_region(empty_distance, &slab, empty_rep.clone());
            }
            continue;
        }
        tasks.push((i, slab, candidates));
    }
    stats.shards_touched = tasks.len() as u64;
    stats.shards_pruned = (shards.len() - tasks.len()) as u64;
    for (i, _, _) in &tasks {
        shards.requests[*i].fetch_add(1, Ordering::Relaxed);
    }

    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(tasks.len());
    if workers <= 1 {
        let mut scratch = solver.scratch();
        for (_, slab, candidates) in tasks {
            solver.search_space(slab, candidates, best, stats, &mut scratch)?;
        }
        return Ok(());
    }
    // Work-stealing over shard tasks with per-task result sets, merged in
    // task order afterwards (the gather's total order makes the merge order
    // immaterial; task order keeps error reporting deterministic).
    let empty = best.emptied();
    let outcomes = parallel_map(tasks.len(), workers, |t| {
        let (_, slab, candidates) = &tasks[t];
        let mut local = empty.clone();
        let mut local_stats = SearchStats::new();
        solver
            .search_space(
                *slab,
                candidates.clone(),
                &mut local,
                &mut local_stats,
                &mut solver.scratch(),
            )
            .map(|()| (local, local_stats))
    });
    for outcome in outcomes {
        let (local, local_stats) = outcome?;
        stats.merge(&local_stats);
        for entry in local.into_entries() {
            best.offer(entry.distance, entry.anchor, entry.representation);
        }
    }
    Ok(())
}

/// Runs `count` independent tasks on up to `workers` threads
/// (work-stealing over task indices) and returns their results in task
/// order.  A panicking task propagates on join, exactly as it would under
/// the sequential schedule.
pub(crate) fn parallel_map<T, F>(count: usize, workers: usize, task: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if workers <= 1 || count <= 1 {
        return (0..count).map(task).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..count).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers.min(count));
        for _ in 0..workers.min(count) {
            let next = &next;
            let slots = &slots;
            let task = &task;
            handles.push(scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= count {
                    return;
                }
                // A slot holds one Option; overwriting it is safe even if
                // a sibling worker poisoned the mutex.
                *slots[i]
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(task(i));
            }));
        }
        for handle in handles {
            if let Err(payload) = handle.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                // lint:allow(the join loop above resume_unwinds worker panics, so reaching here means every index was claimed and filled)
                .expect("every stolen task fills its slot")
        })
        .collect()
}
