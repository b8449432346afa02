//! Generational mutation machinery: append / remove / TTL expiry with
//! incremental index maintenance and rebuild-equivalence guarantees.
//!
//! # The epoch-swap model
//!
//! Every clone of an [`AsrsEngine`](crate::AsrsEngine) shares one
//! [`EngineShared`]: the current generation's
//! immutable [`EngineCore`] behind a read lock,
//! plus the mutation state behind a mutex.  A query snapshots the current
//! core (one `Arc` clone) and runs on it to completion; a mutation takes
//! the mutation mutex, assembles a complete successor core off to the
//! side, and publishes it with a single pointer swap.  In-flight queries
//! therefore finish on the generation they started on — no torn reads, no
//! locks on the query path beyond the snapshot.
//!
//! # Group commit
//!
//! Mutations do not race for the mutator directly: each caller first
//! enqueues its *commit group* (one op for [`append`]/[`remove`], a whole
//! payload for [`append_batch`]) on the commit queue
//! (`engine.commit_queue`), then blocks on the mutator.  Whoever acquires
//! the mutator drains **every** pending group — its own plus any enqueued
//! by callers still blocked behind it — applies them all to a single
//! successor core, writes all their WAL frames with **one fsync**, and
//! publishes **one** generation.  The receipts of the folded groups are
//! deposited under their tickets; when a blocked caller finally gets the
//! mutator it finds its receipts waiting and returns without touching the
//! engine.  Coalescing therefore happens exactly under contention: an
//! uncontended mutation drains only itself and publishes a batch of one,
//! preserving the historical one-generation-per-mutation behaviour of
//! sequential callers.  [`sweep_expired`] is a batch leader too: one sweep
//! folds every due expiry *and* every pending group into one generation.
//!
//! Each group is atomic — it is validated in full against the evolving id
//! set before the dataset is touched, and an invalid group fails alone
//! while its batch-mates still commit.
//!
//! # Rebuild equivalence
//!
//! The invariant every mutation upholds: the published core is
//! *semantically identical* to the core a fresh
//! [`EngineBuilder`](crate::EngineBuilder) would produce from the final
//! dataset — identical object vector (appends go to the tail, removals
//! shift without reordering), bit-identical grid indexes (see
//! [`GridIndex::update_append`](crate::GridIndex::update_append) /
//! [`GridIndex::update_remove`](crate::GridIndex::update_remove), rebuilt
//! only where they must be: the padded grid geometry moved, or the
//! dataset gained its first object), and planner statistics that each
//! generation derives from its dataset, index granularity and shards.  An
//! incrementally maintained index *is* a fresh build, so
//! no number of accumulated deltas calls for a rebuild.  A coalesced batch
//! applies its ops *in serialization order* through the exact per-delta
//! maintenance a sequence of solo mutations would run, so batching never
//! changes answers.  `tests/mutation_parity.rs` enforces the consequence
//! end-to-end: query responses from a mutated engine are byte-identical to
//! a fresh engine rebuilt from the equivalent final dataset, unsharded
//! and at 2 and 4 shards, cache enabled — batched and sequential
//! application alike.
//!
//! Sharded engines keep no per-shard state beyond an object count per
//! region: a mutation routes the object's location to the one region that
//! owns it (the regions tile the whole plane and never change) and moves
//! that count.  Shard layout never affects answers — the scatter searches
//! the full instance — so nothing else needs maintaining.
//!
//! # Cache invalidation
//!
//! The query-result cache is shared across generations; every key is
//! stamped with the generation that computed the entry
//! ([`RequestKey::stamped`](crate::RequestKey::stamped)).  A mutation
//! therefore *invalidates nothing* — it simply moves the engine to a key
//! space no stale entry can inhabit, and superseded entries age out
//! through LRU eviction.

use crate::engine::{EngineCore, EngineShared};
use crate::error::AsrsError;
use crate::grid_index::GridIndex;
use crate::shard::ShardSet;
use asrs_aggregator::CompositeAggregator;
use asrs_data::{Dataset, Mutation, SpatialObject};
use asrs_geo::Point;
use serde::Serialize;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What happened to the engine's index when a mutation was applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum IndexMaintenance {
    /// The engine maintains no index.
    NotIndexed,
    /// The affected index absorbed the delta incrementally: one cell edit
    /// plus a suffix-table sweep, no rescan of the dataset.
    Incremental,
    /// The affected index was rebuilt from scratch — the grid geometry
    /// moved, or a previously empty (hence unindexed) dataset gained its
    /// first object.
    Rebuilt,
    /// The index was dropped because the dataset emptied.
    Dropped,
}

/// The outcome of one applied mutation, stamped with the generation it
/// produced.  Serialized verbatim by the server's `POST /append`,
/// `POST /append_batch` and `DELETE /objects/{id}` responses.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MutationReceipt {
    /// `"append"`, `"remove"` or `"expire"`.
    pub kind: String,
    /// Id of the affected object.
    pub id: u64,
    /// Generation of the engine state after the mutation.  Mutations
    /// coalesced into one group commit share a generation.
    pub generation: u64,
    /// Objects in the dataset after this mutation applied (within a
    /// coalesced batch: after this op's position in serialization order).
    pub object_count: usize,
    /// How the index was maintained for this op.
    pub index: IndexMaintenance,
    /// How many mutations were folded into the published generation —
    /// 1 for an uncontended mutation, more when concurrent mutations (or a
    /// bulk `append_batch`) coalesced into one commit.
    pub batch: usize,
}

/// Mutation counters for observability, served by `/metrics`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MutationStats {
    /// Current engine generation.  With group commit this counts *published
    /// batches*, so it is at most (and under contention less than) the sum
    /// of the applied-mutation counters below.
    pub generation: u64,
    /// Objects currently in the dataset.
    pub object_count: usize,
    /// Lifetime appends.
    pub appends: u64,
    /// Lifetime caller-initiated removals.
    pub removes: u64,
    /// Lifetime TTL expiries.
    pub expiries: u64,
    /// Index deltas absorbed incrementally.
    pub incremental_index_updates: u64,
    /// Full index rebuilds (geometry moves, first objects).
    pub index_rebuilds: u64,
    /// TTL'd objects whose deadline has not passed yet.
    pub pending_ttl: usize,
}

/// A TTL deadline; min-heap via `Reverse`.  The token ties the entry to
/// one specific arming (see [`MutationState::ttl_armed`]).
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
struct TtlEntry {
    deadline: Instant,
    id: u64,
    token: u64,
}

/// The serialized-mutator side of [`EngineShared`]: everything mutations
/// read-modify-write outside the published cores.
#[derive(Debug)]
pub(crate) struct MutationState {
    /// Lifetime appends, caller removals and TTL expiries.
    appends: u64,
    removes: u64,
    expiries: u64,
    ttl: BinaryHeap<Reverse<TtlEntry>>,
    /// The *armed* TTLs: object id → the token of its latest arming.  A
    /// heap entry only expires an object while its token is still the
    /// armed one — any removal disarms the id, so a later re-append under
    /// the same id can never be killed by a stale deadline (the heap is
    /// never searched, entries just lose their token and fall through on
    /// pop).
    ttl_armed: std::collections::HashMap<u64, u64>,
    /// Monotonic token source for [`MutationState::ttl_armed`].
    ttl_token: u64,
    incremental_updates: u64,
    index_rebuilds: u64,
}

impl MutationState {
    pub(crate) fn new() -> Self {
        Self {
            appends: 0,
            removes: 0,
            expiries: 0,
            ttl: BinaryHeap::new(),
            ttl_armed: std::collections::HashMap::new(),
            ttl_token: 0,
            incremental_updates: 0,
            index_rebuilds: 0,
        }
    }
}

/// One mutation inside a commit group.
#[derive(Debug, Clone)]
pub(crate) enum BatchOp {
    /// Append `object`; a TTL arms after the batch publishes.
    Append {
        object: SpatialObject,
        ttl: Option<Duration>,
    },
    /// Caller-initiated removal of the object with this id.
    Remove { id: u64 },
    /// TTL-expiry removal of the object with this id.  Live sweeps feed
    /// expiries into the batch directly; this variant carries *replayed*
    /// expiries (WAL recovery), which skip the TTL bookkeeping.
    Expire { id: u64 },
}

impl BatchOp {
    /// The id of the object the op appends or removes.
    fn id(&self) -> u64 {
        match self {
            BatchOp::Append { object, .. } => object.id,
            BatchOp::Remove { id } | BatchOp::Expire { id } => *id,
        }
    }
}

/// A group of mutations committed atomically under one queue ticket:
/// either every op applies — all sharing the published generation — or
/// none does and the caller gets the group's error.  Solo mutations are
/// groups of one.
#[derive(Debug)]
struct PendingGroup {
    ticket: u64,
    ops: Vec<BatchOp>,
}

/// The group-commit queue behind `EngineShared::commit_queue`
/// (lock identity `engine.commit_queue`).
///
/// Lock order: a caller enqueues while holding **only** this lock, then
/// releases it before blocking on `engine.mutator`; the batch leader
/// re-acquires it *under* the mutator to drain and to deposit — so the one
/// acquisition-order edge is `engine.mutator → engine.commit_queue`, and
/// the queue lock is never held across publish, fsync or any other
/// blocking operation.
#[derive(Debug, Default)]
pub(crate) struct CommitQueue {
    next_ticket: u64,
    pending: Vec<PendingGroup>,
    /// Receipts (or errors) of groups another mutator folded into its
    /// batch, keyed by ticket, awaiting pickup by their blocked callers.
    deposits: HashMap<u64, Result<Vec<MutationReceipt>, AsrsError>>,
}

impl CommitQueue {
    fn enqueue(&mut self, ops: Vec<BatchOp>) -> u64 {
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        self.pending.push(PendingGroup { ticket, ops });
        ticket
    }
}

/// Applies an append (optionally TTL'd) through the group commit and
/// returns its receipt.
pub(crate) fn append(
    shared: &EngineShared,
    object: SpatialObject,
    ttl: Option<Duration>,
) -> Result<MutationReceipt, AsrsError> {
    check_location(&object)?;
    sole(commit(shared, vec![BatchOp::Append { object, ttl }])?)
}

/// Refuses an object whose location is not finite (see
/// [`AsrsError::NonFiniteLocation`]).  Checked wherever objects enter an
/// engine: appends before the commit queue and the WAL, the seed dataset
/// at build, and a persisted image and its replayed WAL batches at boot.
pub(crate) fn check_location(object: &SpatialObject) -> Result<(), AsrsError> {
    let p = object.location;
    if p.x.is_finite() && p.y.is_finite() {
        Ok(())
    } else {
        Err(AsrsError::NonFiniteLocation {
            id: object.id,
            x: p.x,
            y: p.y,
        })
    }
}

/// Applies a removal through the group commit and returns its receipt.
/// Any pending TTL on the id is disarmed — a later re-append under the
/// same id starts with a clean slate.
pub(crate) fn remove(shared: &EngineShared, id: u64) -> Result<MutationReceipt, AsrsError> {
    sole(commit(shared, vec![BatchOp::Remove { id }])?)
}

/// Applies a whole payload of appends as **one atomic commit group**: one
/// published generation, one WAL fsync, all-or-nothing validation (a
/// duplicate or schema-violating object fails the entire payload without
/// touching the dataset; so does a non-finite location).  Returns one
/// receipt per object, all sharing the batch's generation.
pub(crate) fn append_batch(
    shared: &EngineShared,
    items: Vec<(SpatialObject, Option<Duration>)>,
) -> Result<Vec<MutationReceipt>, AsrsError> {
    for (object, _) in &items {
        check_location(object)?;
    }
    commit(
        shared,
        items
            .into_iter()
            .map(|(object, ttl)| BatchOp::Append { object, ttl })
            .collect(),
    )
}

/// Applies a replayed WAL batch — every mutation of one logged generation
/// — as one atomic commit group producing exactly one generation, so a
/// recovered engine's generation counter lands where the log says it
/// should.  Replayed `Expire` records apply as plain removals (there is no
/// armed TTL state at boot).
pub(crate) fn apply_batch(
    shared: &EngineShared,
    mutations: &[Mutation],
) -> Result<Vec<MutationReceipt>, AsrsError> {
    for mutation in mutations {
        if let Mutation::Append { object } = mutation {
            check_location(object)?;
        }
    }
    commit(
        shared,
        mutations
            .iter()
            .map(|m| match m {
                Mutation::Append { object } => BatchOp::Append {
                    object: object.clone(),
                    ttl: None,
                },
                Mutation::Remove { id } => BatchOp::Remove { id: *id },
                Mutation::Expire { id } => BatchOp::Expire { id: *id },
            })
            .collect(),
    )
}

fn sole(receipts: Vec<MutationReceipt>) -> Result<MutationReceipt, AsrsError> {
    match receipts.into_iter().next() {
        Some(receipt) => Ok(receipt),
        None => Err(AsrsError::Internal {
            message: "single-mutation commit returned no receipt".to_string(),
        }),
    }
}

/// Commits one group through the group-commit queue (see the module
/// documentation): enqueue, block on the mutator, then either pick up the
/// receipts a faster leader deposited or drain everything pending and
/// publish one batch.
pub(crate) fn commit(
    shared: &EngineShared,
    ops: Vec<BatchOp>,
) -> Result<Vec<MutationReceipt>, AsrsError> {
    if ops.is_empty() {
        return Ok(Vec::new());
    }
    let ticket = {
        // lint:allow(a poisoned commit queue means a mutator died mid-deposit; continuing could lose or double-deliver receipts)
        let mut queue = shared.commit_queue.lock().expect("commit queue poisoned");
        queue.enqueue(ops)
    };
    // interlock:allow(the mutator is defined as held across publish: it serializes the epoch swap and WAL append)
    // lint:allow(a poisoned mutation lock means a mutator died mid-publish; the TTL/log state is unknowable and continuing could corrupt history)
    let mut state = shared.mutator.lock().expect("mutation lock poisoned");
    let drained = {
        // lint:allow(a poisoned commit queue means a mutator died mid-deposit; continuing could lose or double-deliver receipts)
        let mut queue = shared.commit_queue.lock().expect("commit queue poisoned");
        if let Some(result) = queue.deposits.remove(&ticket) {
            // A faster mutator folded this group into its batch while we
            // were blocked; the engine is already past our commit.
            return result;
        }
        std::mem::take(&mut queue.pending)
    };
    // Piggyback: while write traffic flows, due TTL expiries ride the
    // application's commit batches — same generation, same WAL fsync —
    // instead of waiting for the sweeper's next timer tick.  They
    // serialize before the drained groups, exactly as a sweep leader
    // orders them.  Ids the batch's own operations reference are left
    // for the sweeper: expiring them here would fail a caller's
    // `remove(id)` (or let a duplicate `append(id)` through) that was
    // valid when issued.  The expiry receipts have no caller to go to;
    // the WAL and the expiry counter record them all the same.
    let referenced: HashSet<u64> = drained
        .iter()
        .flat_map(|group| group.ops.iter())
        .map(BatchOp::id)
        .collect();
    let popped = pop_due_expiries(&mut state, &referenced);
    let expiries = popped.iter().map(|e| e.id).collect();
    let (expired, outcomes) = publish(shared, &mut state, expiries, drained);
    if expired.is_err() {
        reinstate_popped(&mut state, popped);
    }
    let mut own = Err(AsrsError::Internal {
        message: format!("group commit lost ticket {ticket}"),
    });
    // lint:allow(a poisoned commit queue means a mutator died mid-deposit; continuing could lose or double-deliver receipts)
    let mut queue = shared.commit_queue.lock().expect("commit queue poisoned");
    for (t, result) in outcomes {
        if t == ticket {
            own = result;
        } else {
            queue.deposits.insert(t, result);
        }
    }
    drop(queue);
    own
}

/// Pops every armed TTL entry whose deadline has passed, disarming each.
/// Must run under the mutation mutex; a popped entry is *owed* an expiry —
/// either the caller publishes it or it must be reinstated with
/// [`reinstate_popped`].  Entries whose token is no longer the armed one
/// for their id (removed or re-appended since) fall through silently.
///
/// Entries whose id is in `exclude` are left armed for a later sweep: a
/// commit batch must not expire an id its own operations reference —
/// expiries serialize *before* the drained groups, so piggybacking one
/// would make the caller's `remove(id)` deterministically fail on an
/// object that was live when the caller issued it.
fn pop_due_expiries(state: &mut MutationState, exclude: &HashSet<u64>) -> Vec<TtlEntry> {
    let now = Instant::now();
    let mut popped: Vec<TtlEntry> = Vec::new();
    let mut deferred: Vec<TtlEntry> = Vec::new();
    loop {
        let due = matches!(state.ttl.peek(), Some(Reverse(entry)) if entry.deadline <= now);
        if !due {
            break;
        }
        let Some(entry) = state.ttl.pop().map(|e| e.0) else {
            break;
        };
        if state.ttl_armed.get(&entry.id) != Some(&entry.token) {
            continue;
        }
        if exclude.contains(&entry.id) {
            // Still armed; goes back on the heap once the scan is done
            // (re-pushing inside the loop would pop it right back).
            deferred.push(entry);
            continue;
        }
        state.ttl_armed.remove(&entry.id);
        popped.push(entry);
    }
    for entry in deferred {
        state.ttl.push(Reverse(entry));
    }
    popped
}

/// Puts popped-but-unpublished deadlines back — token, heap entry and all
/// — so the next sweep retries them.  Dropping them would leave the
/// objects live but unexpirable forever.  Nothing re-armed concurrently
/// (the mutator is held throughout), so reinstating the original tokens
/// is exact.
fn reinstate_popped(state: &mut MutationState, popped: Vec<TtlEntry>) {
    for entry in popped {
        state.ttl_armed.insert(entry.id, entry.token);
        state.ttl.push(Reverse(entry));
    }
}

/// Expires every TTL'd object whose deadline has passed — as **one**
/// published generation and one WAL fsync for the whole sweep.  A popped
/// heap entry only fires while its token is still the armed one for its
/// id: ids removed by a caller (or re-appended since) were disarmed and
/// fall through without touching the dataset.  The sweep is itself a batch
/// leader: any commit groups enqueued behind the mutator are folded into
/// the sweep's generation.
pub(crate) fn sweep_expired(shared: &EngineShared) -> Result<Vec<MutationReceipt>, AsrsError> {
    // interlock:allow(the mutator is defined as held across publish: it serializes the epoch swap and WAL append)
    // lint:allow(a poisoned mutation lock means a mutator died mid-publish; the TTL/log state is unknowable and continuing could corrupt history)
    let mut state = shared.mutator.lock().expect("mutation lock poisoned");
    let popped = pop_due_expiries(&mut state, &HashSet::new());
    let drained = {
        // lint:allow(a poisoned commit queue means a mutator died mid-deposit; continuing could lose or double-deliver receipts)
        let mut queue = shared.commit_queue.lock().expect("commit queue poisoned");
        std::mem::take(&mut queue.pending)
    };
    if popped.is_empty() && drained.is_empty() {
        return Ok(Vec::new());
    }
    let expiries = popped.iter().map(|e| e.id).collect();
    let (expired, outcomes) = publish(shared, &mut state, expiries, drained);
    if expired.is_err() {
        // A batch-level failure (WAL veto, assembly error) published
        // nothing: reinstate the deadlines for the next sweep.
        reinstate_popped(&mut state, popped);
    }
    // lint:allow(a poisoned commit queue means a mutator died mid-deposit; continuing could lose or double-deliver receipts)
    let mut queue = shared.commit_queue.lock().expect("commit queue poisoned");
    for (t, result) in outcomes {
        queue.deposits.insert(t, result);
    }
    drop(queue);
    expired
}

/// A snapshot of the mutation counters.
pub(crate) fn stats_snapshot(shared: &EngineShared) -> MutationStats {
    // lint:allow(a poisoned mutation lock means a mutator died mid-publish; the TTL/log state is unknowable and continuing could corrupt history)
    let state = shared.mutator.lock().expect("mutation lock poisoned");
    let core = shared.load();
    MutationStats {
        generation: core.generation,
        object_count: core.dataset.len(),
        appends: state.appends,
        removes: state.removes,
        expiries: state.expiries,
        incremental_index_updates: state.incremental_updates,
        index_rebuilds: state.index_rebuilds,
        pending_ttl: state.ttl_armed.len(),
    }
}

/// One accepted op in serialization order: provenance (`None` = sweep
/// expiry, `Some(i)` = the i-th drained group) plus the op itself.
type PlannedOp = (Option<usize>, BatchOp);

/// One TTL bookkeeping action, recorded during assembly **in
/// serialization order** and replayed in that same order once the batch
/// publishes.  Order matters: when contention coalesces `append(id, ttl)`
/// before `remove(id)` into one batch, the disarm must win (sequentially
/// the remove would disarm the TTL) — and when a remove precedes a
/// re-append-with-TTL, the arm must win.  A single ordered list makes
/// both fall out of replay; separate arm/disarm sets cannot express the
/// difference.
#[derive(Debug)]
enum TtlEvent {
    /// An appended object arms a deadline.
    Arm { id: u64, ttl: Duration },
    /// A caller-removal disarms whatever deadline the id had pending.
    Disarm { id: u64 },
}

/// Working copy of the index maintenance counters a batch evolves
/// while assembling its successor core.  The durable [`MutationState`]
/// only absorbs the draft at the commit point — a batch aborted by a WAL
/// veto leaves the published counters exactly as they were, so `/metrics`
/// never records maintenance that no generation shipped.
#[derive(Debug, Clone, Copy)]
struct CounterDraft {
    incremental_updates: u64,
    index_rebuilds: u64,
}

impl CounterDraft {
    fn from_state(state: &MutationState) -> Self {
        Self {
            incremental_updates: state.incremental_updates,
            index_rebuilds: state.index_rebuilds,
        }
    }
}

/// The evolving id set a batch is validated against.  Multi-op batches
/// materialize, in one scan of the dataset, which of the ids they
/// reference are live, and replay their edits on that set: validation
/// only ever asks about the ids the batch references.  The solo variant —
/// one op in the whole batch, the uncontended common case — delegates
/// membership straight to [`Dataset::contains_id`] and skips the O(n)
/// scan and the set.  Solo edits deliberately record nothing: with a single op
/// there is no later membership query (nor an earlier-op rollback) that
/// could observe them.
enum LiveIds<'a> {
    Solo(&'a Dataset),
    Set(HashSet<u64>),
}

impl LiveIds<'_> {
    fn contains(&self, id: u64) -> bool {
        match self {
            LiveIds::Solo(dataset) => dataset.contains_id(id),
            LiveIds::Set(set) => set.contains(&id),
        }
    }

    fn insert(&mut self, id: u64) {
        if let LiveIds::Set(set) = self {
            set.insert(id);
        }
    }

    /// Removes `id`, reporting whether it was live.
    fn remove(&mut self, id: u64) -> bool {
        match self {
            LiveIds::Solo(dataset) => dataset.contains_id(id),
            LiveIds::Set(set) => set.remove(&id),
        }
    }
}

/// The ids among `ids` that `dataset` holds, found in one scan of the
/// dataset: a binary search of the sorted `ids` per object, where hashing
/// every live id would cost a set insertion per object.
fn live_among(dataset: &Dataset, ids: impl Iterator<Item = u64>) -> HashSet<u64> {
    let mut wanted: Vec<u64> = ids.collect();
    wanted.sort_unstable();
    wanted.dedup();
    dataset
        .objects()
        .map(|o| o.id)
        .filter(|id| wanted.binary_search(id).is_ok())
        .collect()
}

/// Everything a successfully applied batch produced, pending the
/// WAL-then-swap commit point.
struct AssembledBatch {
    next: EngineCore,
    receipts: Vec<(Option<usize>, MutationReceipt)>,
    logged: Vec<Mutation>,
    /// TTL bookkeeping actions in serialization order (see [`TtlEvent`]).
    ttl_events: Vec<TtlEvent>,
    /// The maintenance counters as this batch evolved them; folded into
    /// [`MutationState`] only after the WAL accepts the batch.
    counters: CounterDraft,
    /// Location of every object the batch appended or removed — the
    /// influence-window inputs of the cache carry-forward pass (see
    /// [`carry`](crate::carry)), which reads nothing else of the batch.
    touched: Vec<Point>,
}

/// What a published (or failed) batch hands back: the sweep expiries' own
/// outcome, plus one `(ticket, outcome)` pair per drained group.
type BatchOutcome = (
    Result<Vec<MutationReceipt>, AsrsError>,
    Vec<(u64, Result<Vec<MutationReceipt>, AsrsError>)>,
);

/// Applies the sweep's expiries and every drained group to **one**
/// successor core and publishes it: the group-commit fold.  Called with
/// the mutation mutex held.
///
/// Expiries serialize *before* the groups (the sweep popped them before
/// draining), so a queued re-append of an expired id lands after its
/// expiry.  Each group is validated in full against the evolving id set
/// before the dataset is touched; an invalid group fails alone — its
/// batch-mates still commit.  A failure *after* validation (index rebuild,
/// WAL write) aborts the whole batch: nothing
/// publishes and every participant sees that error.
///
/// Returns the expiries' own outcome plus one `(ticket, outcome)` pair per
/// drained group.
fn publish(
    shared: &EngineShared,
    state: &mut MutationState,
    expiries: Vec<u64>,
    groups: Vec<PendingGroup>,
) -> BatchOutcome {
    let core = shared.load();

    // Validation pass: replay the batch against the current id set so a
    // group is accepted or rejected in full before anything applies.
    // Only a genuine multi-op batch pays for materializing the live set of
    // the ids it references.
    let total_ops = expiries.len() + groups.iter().map(|g| g.ops.len()).sum::<usize>();
    let mut live = if total_ops > 1 {
        let ops = groups.iter().flat_map(|g| g.ops.iter().map(BatchOp::id));
        LiveIds::Set(live_among(
            &core.dataset,
            expiries.iter().copied().chain(ops),
        ))
    } else {
        LiveIds::Solo(core.dataset.as_ref())
    };
    let mut plan: Vec<PlannedOp> = Vec::new();
    for id in expiries {
        // A disarmed-and-vanished id falls through receipt-less, exactly
        // as the per-object sweep used to skip it.
        if live.remove(id) {
            plan.push((None, BatchOp::Expire { id }));
        }
    }
    let mut verdicts: Vec<(u64, Result<(), AsrsError>)> = Vec::with_capacity(groups.len());
    for (slot, group) in groups.into_iter().enumerate() {
        let mut added: Vec<u64> = Vec::new();
        let mut dropped: Vec<u64> = Vec::new();
        let mut error: Option<AsrsError> = None;
        for op in &group.ops {
            match op {
                BatchOp::Append { object, .. } => {
                    if live.contains(object.id) {
                        error = Some(AsrsError::DuplicateObjectId { id: object.id });
                        break;
                    }
                    if let Err(e) = core.dataset.schema().validate_values(&object.values) {
                        error = Some(e.into());
                        break;
                    }
                    live.insert(object.id);
                    added.push(object.id);
                }
                BatchOp::Remove { id } | BatchOp::Expire { id } => {
                    if !live.remove(*id) {
                        error = Some(AsrsError::UnknownObjectId { id: *id });
                        break;
                    }
                    dropped.push(*id);
                }
            }
        }
        match error {
            Some(e) => {
                // Roll the rejected group's tentative id edits back so the
                // groups behind it validate against the true state.
                for id in added {
                    live.remove(id);
                }
                for id in dropped {
                    live.insert(id);
                }
                verdicts.push((group.ticket, Err(e)));
            }
            None => {
                for op in group.ops {
                    plan.push((Some(slot), op));
                }
                verdicts.push((group.ticket, Ok(())));
            }
        }
    }

    if plan.is_empty() {
        // Every group failed validation (or there was nothing to do): the
        // engine stays on `core`, no generation publishes.
        let outcomes = verdicts
            .into_iter()
            .map(|(t, v)| (t, v.map(|()| Vec::new())))
            .collect();
        return (Ok(Vec::new()), outcomes);
    }

    let generation = core.generation + 1;
    let assembled = match assemble(&core, state, plan, generation) {
        Ok(assembled) => assembled,
        Err(e) => return fail_batch(verdicts, e),
    };

    // Write-ahead: the durability sink must accept the whole batch —
    // every frame, one fsync — *before* the generation becomes visible.
    // A sink failure aborts the batch: the assembled core is dropped, the
    // engine stays on `core`, and every participant sees the error
    // instead of an acknowledgement the log lost.
    if let Some(sink) = shared.durability.get() {
        if let Err(e) = sink.log_batch(generation, &assembled.logged) {
            return fail_batch(verdicts, e);
        }
    }
    let next = Arc::new(assembled.next);
    // Carry-forward pass: re-stamp every cache entry the batch provably
    // did not affect to the successor generation (see the `carry` module
    // docs).  Runs after the WAL accepted the batch — nothing can abort
    // the publish past this point, so a re-stamped entry can never name a
    // generation that fails to appear — and *before* the swap, so by the
    // time readers can see the new generation its surviving entries are
    // already re-stamped: no cold window for the pass's duration.  A
    // reader still on the old generation may miss an entry the pass just
    // moved; that is an ordinary cold miss, never a stale hit.  The
    // mutation mutex is held throughout, so two publishes cannot re-stamp
    // one generation's entries concurrently.
    crate::carry::carry_forward(&core, &next, &assembled.touched);
    shared.swap(Arc::clone(&next));
    for logged in &assembled.logged {
        match logged {
            Mutation::Append { .. } => state.appends += 1,
            Mutation::Remove { .. } => state.removes += 1,
            Mutation::Expire { .. } => state.expiries += 1,
        }
    }
    let CounterDraft {
        incremental_updates,
        index_rebuilds,
    } = assembled.counters;
    state.incremental_updates = incremental_updates;
    state.index_rebuilds = index_rebuilds;
    // Replay the TTL bookkeeping in serialization order, so whichever of
    // an arm/disarm pair for the same id came later in the batch wins —
    // exactly the armed set sequential solo mutations would leave.
    for event in assembled.ttl_events {
        match event {
            TtlEvent::Disarm { id } => {
                state.ttl_armed.remove(&id);
            }
            TtlEvent::Arm { id, ttl } => {
                // `checked_add` keeps absurd TTLs (u64::MAX ms ≈ 584
                // million years) from panicking while the mutation mutex
                // is held — an unrepresentable deadline simply never
                // expires, which is what it means.
                if let Some(deadline) = Instant::now().checked_add(ttl) {
                    state.ttl_token += 1;
                    let token = state.ttl_token;
                    state.ttl_armed.insert(id, token);
                    state.ttl.push(Reverse(TtlEntry {
                        deadline,
                        id,
                        token,
                    }));
                }
            }
        }
    }

    // Distribute the receipts back to their groups.
    let mut expired: Vec<MutationReceipt> = Vec::new();
    let mut per_group: Vec<Vec<MutationReceipt>> = Vec::new();
    per_group.resize_with(verdicts.len(), Vec::new);
    for (slot, receipt) in assembled.receipts {
        match slot {
            None => expired.push(receipt),
            Some(slot) => per_group[slot].push(receipt),
        }
    }
    let outcomes = verdicts
        .into_iter()
        .enumerate()
        .map(|(slot, (ticket, verdict))| {
            (
                ticket,
                verdict.map(|()| std::mem::take(&mut per_group[slot])),
            )
        })
        .collect();
    (Ok(expired), outcomes)
}

/// Batch-level failure: every group that passed validation fails with the
/// batch's error; groups that failed validation keep their own.
fn fail_batch(verdicts: Vec<(u64, Result<(), AsrsError>)>, error: AsrsError) -> BatchOutcome {
    let outcomes = verdicts
        .into_iter()
        .map(|(t, v)| {
            (
                t,
                match v {
                    Ok(()) => Err(error.clone()),
                    Err(e) => Err(e),
                },
            )
        })
        .collect();
    (Err(error), outcomes)
}

/// Applies the validated plan to a single successor core: one dataset
/// clone, per-op index maintenance and shard counting in serialization
/// order (exactly what a sequence of solo mutations would run, so batched
/// and sequential application are bit-identical), then one core assembly.
fn assemble(
    core: &Arc<EngineCore>,
    state: &MutationState,
    plan: Vec<PlannedOp>,
    generation: u64,
) -> Result<AssembledBatch, AsrsError> {
    let batch = plan.len();
    let mut dataset = (*core.dataset).clone();
    let mut index: Option<Arc<GridIndex>> = core.index.clone();
    let mut shards: Option<ShardSet> = core.shards.clone();
    let mut receipts: Vec<(Option<usize>, MutationReceipt)> = Vec::with_capacity(batch);
    let mut logged: Vec<Mutation> = Vec::with_capacity(batch);
    let mut ttl_events: Vec<TtlEvent> = Vec::new();
    let mut counters = CounterDraft::from_state(state);
    let mut touched: Vec<Point> = Vec::with_capacity(batch);

    for (slot, op) in plan {
        let (kind, id, how) = match op {
            BatchOp::Append { object, ttl } => {
                touched.push(object.location);
                dataset.append(object.clone())?;
                let how = fold_delta(
                    core,
                    &mut counters,
                    &dataset,
                    &mut index,
                    &mut shards,
                    Delta::Append(&object),
                )?;
                if let Some(ttl) = ttl {
                    ttl_events.push(TtlEvent::Arm { id: object.id, ttl });
                }
                let id = object.id;
                logged.push(Mutation::Append { object });
                ("append", id, how)
            }
            BatchOp::Remove { id } => {
                let removed = take_by_id(&mut dataset, id)?;
                touched.push(removed.location);
                let how = fold_delta(
                    core,
                    &mut counters,
                    &dataset,
                    &mut index,
                    &mut shards,
                    Delta::Remove(&removed),
                )?;
                ttl_events.push(TtlEvent::Disarm { id });
                logged.push(Mutation::Remove { id });
                ("remove", id, how)
            }
            BatchOp::Expire { id } => {
                // No TTL event: a live sweep already disarmed the id when
                // it popped the deadline, and replayed expiries (WAL
                // recovery) have no armed state to touch.
                let removed = take_by_id(&mut dataset, id)?;
                touched.push(removed.location);
                let how = fold_delta(
                    core,
                    &mut counters,
                    &dataset,
                    &mut index,
                    &mut shards,
                    Delta::Remove(&removed),
                )?;
                logged.push(Mutation::Expire { id });
                ("expire", id, how)
            }
        };
        receipts.push((
            slot,
            MutationReceipt {
                kind: kind.to_string(),
                id,
                generation,
                object_count: dataset.len(),
                index: how,
                batch,
            },
        ));
    }

    // The successor inherits the predecessor's location index, patched by
    // the batch, when a search or carry pass built it.
    let locations = core.locations.successor(&core.dataset, &dataset);
    let next = EngineCore {
        generation,
        dataset: Arc::new(dataset),
        aggregator: Arc::clone(&core.aggregator),
        config: core.config.clone(),
        index,
        granularity: core.granularity,
        planner: core.planner.clone(),
        cache: core.cache.clone(),
        shards,
        locations,
    };
    // Debug builds audit every assembled successor before it publishes:
    // the whole mutation-parity and persistence-recovery suites therefore
    // run under continuous invariant audit, while release builds compile
    // the hook out entirely.
    #[cfg(debug_assertions)]
    {
        let report = crate::audit::audit_core(&next);
        debug_assert!(
            report.is_clean(),
            "invariant audit failed publishing generation {generation} (batch of {batch}): {:#?}",
            report.findings
        );
    }
    Ok(AssembledBatch {
        next,
        receipts,
        logged,
        ttl_events,
        counters,
        touched,
    })
}

/// Removes a validated id from the working dataset; its absence at this
/// point is an engine bug, not caller input.
fn take_by_id(dataset: &mut Dataset, id: u64) -> Result<SpatialObject, AsrsError> {
    dataset.remove_by_id(id).ok_or(AsrsError::Internal {
        message: format!("validated id {id} vanished from the working dataset"),
    })
}

/// What a mutation did to the dataset, borrowed for the maintenance paths.
#[derive(Debug, Clone, Copy)]
enum Delta<'a> {
    Append(&'a SpatialObject),
    Remove(&'a SpatialObject),
}

/// Folds one delta into the working index and shard counts — the per-op
/// maintenance step of a batch, identical to what one solo mutation used
/// to run.  `dataset` is the working dataset *after* the delta applied.
/// Returns what happened to the index.
fn fold_delta(
    core: &EngineCore,
    counters: &mut CounterDraft,
    dataset: &Dataset,
    index: &mut Option<Arc<GridIndex>>,
    shards: &mut Option<ShardSet>,
    delta: Delta<'_>,
) -> Result<IndexMaintenance, AsrsError> {
    if let Some(set) = shards {
        match delta {
            Delta::Append(object) => set.add(&object.location),
            Delta::Remove(object) => set.remove(&object.location),
        }
    }
    // The index rule the builder applies: only an unsharded core with a
    // granularity holds an index.
    let Some((cols, rows)) = core.granularity.filter(|_| core.shards.is_none()) else {
        return Ok(IndexMaintenance::NotIndexed);
    };
    maintain_index(
        index,
        dataset,
        &core.aggregator,
        cols,
        rows,
        delta,
        counters,
    )
}

/// Maintains the batch's working grid index under `delta`: incremental
/// while the grid geometry still matches, a full rebuild where it must be
/// — the geometry moved, or there was no index to update.  Both paths
/// produce bit-identical indexes (see [`GridIndex`]).  The working index
/// is copied from the predecessor's by the batch's first incremental
/// update only ([`Arc::make_mut`]); later ops edit the batch's own copy.
fn maintain_index(
    index: &mut Option<Arc<GridIndex>>,
    dataset: &Dataset,
    aggregator: &CompositeAggregator,
    cols: usize,
    rows: usize,
    delta: Delta<'_>,
    counters: &mut CounterDraft,
) -> Result<IndexMaintenance, AsrsError> {
    if dataset.is_empty() {
        // Nothing left to index; a fresh builder over the empty dataset
        // would refuse to build one too.
        *index = None;
        return Ok(IndexMaintenance::Dropped);
    }
    if let Some(current) = index.as_mut().filter(|idx| idx.space_matches(dataset)) {
        let next = Arc::make_mut(current);
        match delta {
            Delta::Append(object) => next.update_append(object, aggregator),
            Delta::Remove(object) => next.update_remove(object, dataset, aggregator),
        }
        counters.incremental_updates += 1;
        return Ok(IndexMaintenance::Incremental);
    }
    *index = Some(Arc::new(GridIndex::build(dataset, aggregator, cols, rows)?));
    counters.index_rebuilds += 1;
    Ok(IndexMaintenance::Rebuilt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::DurabilitySink;
    use crate::AsrsEngine;
    use asrs_aggregator::Selection;
    use asrs_data::gen::UniformGenerator;
    use std::sync::atomic::{AtomicBool, Ordering};

    fn test_engine(n: usize) -> (AsrsEngine, SpatialObject) {
        let ds = UniformGenerator::default().generate(n, 7);
        let agg = CompositeAggregator::builder(ds.schema())
            .distribution("category", Selection::All)
            .build()
            .unwrap();
        let template = ds.object(0).clone();
        let engine = AsrsEngine::builder(ds, agg)
            .build_index(8, 8)
            .build()
            .unwrap();
        (engine, template)
    }

    fn fresh(template: &SpatialObject, id: u64) -> SpatialObject {
        let mut object = template.clone();
        object.id = id;
        object
    }

    /// A durability sink that can be told to veto batches, standing in
    /// for a WAL whose fsync fails.
    #[derive(Debug)]
    struct TogglingSink {
        fail: AtomicBool,
    }

    impl DurabilitySink for TogglingSink {
        fn log_batch(&self, _generation: u64, _mutations: &[Mutation]) -> Result<(), AsrsError> {
            if self.fail.load(Ordering::SeqCst) {
                Err(AsrsError::Internal {
                    message: "sink vetoed".to_string(),
                })
            } else {
                Ok(())
            }
        }
    }

    /// What validating `batch` against every live id decides: the first
    /// op, in order, that appends a live id or removes one that is not.
    fn full_set_verdict(dataset: &Dataset, batch: &[Mutation]) -> Result<(), AsrsError> {
        let mut live: HashSet<u64> = dataset.objects().map(|o| o.id).collect();
        for m in batch {
            match m {
                Mutation::Append { object } if !live.insert(object.id) => {
                    return Err(AsrsError::DuplicateObjectId { id: object.id });
                }
                Mutation::Remove { id } | Mutation::Expire { id } if !live.remove(id) => {
                    return Err(AsrsError::UnknownObjectId { id: *id });
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Multi-op batches validate against the live ids they reference
    /// only; each verdict must be the one validation against every live
    /// id gives, and a rejected batch must leave the dataset as it was.
    #[test]
    fn referenced_id_validation_decides_like_the_full_live_set() {
        let (engine, template) = test_engine(60);
        let core = engine.core();
        let (kept, other) = (core.dataset.object(10).id, core.dataset.object(20).id);
        let mut moved = core.dataset.object(10).clone();
        moved.location = core.dataset.object(30).location;
        let batches = [
            // A remove then a re-append of one id: accepted.
            vec![
                Mutation::Remove { id: kept },
                Mutation::Append { object: moved },
            ],
            // A duplicate append: one fresh id twice, then a live id.
            vec![
                Mutation::Append {
                    object: fresh(&template, 7_000),
                },
                Mutation::Append {
                    object: fresh(&template, 7_000),
                },
            ],
            vec![
                Mutation::Append {
                    object: fresh(&template, 7_001),
                },
                Mutation::Append {
                    object: fresh(&template, other),
                },
            ],
            // An unknown remove, and a live id removed twice.
            vec![
                Mutation::Remove { id: other },
                Mutation::Remove { id: 9_999_999 },
            ],
            vec![
                Mutation::Remove { id: other },
                Mutation::Expire { id: other },
            ],
        ];
        let mut accepted = 0;
        for batch in batches {
            let before = engine.core();
            let expected = full_set_verdict(&before.dataset, &batch);
            let verdict = engine.apply_mutations(&batch).map(|_| ());
            assert_eq!(format!("{verdict:?}"), format!("{expected:?}"), "{batch:?}");
            let after = engine.core();
            if verdict.is_ok() {
                accepted += 1;
                assert_eq!(after.generation, before.generation + 1);
            } else {
                assert_eq!(after.generation, before.generation);
                assert_eq!(after.dataset.len(), before.dataset.len());
            }
        }
        assert_eq!(accepted, 1);
        assert!(engine.core().dataset.contains_id(kept));
    }

    /// A batch coalescing `append(id, ttl)` before `remove(id)` must
    /// leave the id disarmed, exactly as sequential application would —
    /// not armed with a stale deadline that later expires a re-appended
    /// live object.
    #[test]
    fn coalesced_arm_then_remove_leaves_id_disarmed() {
        let (engine, template) = test_engine(60);
        let receipts = commit(
            &engine.shared,
            vec![
                BatchOp::Append {
                    object: fresh(&template, 1_000),
                    ttl: Some(Duration::from_millis(1)),
                },
                BatchOp::Remove { id: 1_000 },
            ],
        )
        .unwrap();
        assert_eq!(receipts.len(), 2);
        assert_eq!(engine.mutation_stats().pending_ttl, 0);

        // Re-append the id without a TTL; the old deadline must not fire.
        engine.append(fresh(&template, 1_000)).unwrap();
        std::thread::sleep(Duration::from_millis(10));
        assert!(engine.sweep_expired().unwrap().is_empty());
        assert!(engine.dataset().contains_id(1_000));
    }

    /// The mirror ordering: remove-then-re-append-with-TTL in one batch
    /// must leave the *new* deadline armed.
    #[test]
    fn coalesced_remove_then_arm_leaves_id_armed() {
        let (engine, template) = test_engine(60);
        engine
            .append_with_ttl(fresh(&template, 1_001), Duration::from_secs(3600))
            .unwrap();
        commit(
            &engine.shared,
            vec![
                BatchOp::Remove { id: 1_001 },
                BatchOp::Append {
                    object: fresh(&template, 1_001),
                    ttl: Some(Duration::from_millis(1)),
                },
            ],
        )
        .unwrap();
        assert_eq!(engine.mutation_stats().pending_ttl, 1);
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(engine.sweep_expired().unwrap().len(), 1);
        assert!(!engine.dataset().contains_id(1_001));
    }

    /// A WAL veto during a sweep publishes nothing; the popped deadlines
    /// must be re-armed so the next sweep retries them instead of leaving
    /// the objects live-but-unexpirable.
    #[test]
    fn failed_sweep_rearms_popped_deadlines() {
        let (engine, template) = test_engine(60);
        let sink = Arc::new(TogglingSink {
            fail: AtomicBool::new(false),
        });
        engine.attach_durability(Arc::clone(&sink) as _).unwrap();
        engine
            .append_with_ttl(fresh(&template, 2_000), Duration::from_millis(1))
            .unwrap();
        std::thread::sleep(Duration::from_millis(10));
        sink.fail.store(true, Ordering::SeqCst);
        assert!(engine.sweep_expired().is_err());
        // The deadline survived the aborted batch…
        assert_eq!(engine.mutation_stats().pending_ttl, 1);
        assert!(engine.dataset().contains_id(2_000));
        // …and fires once the log recovers.
        sink.fail.store(false, Ordering::SeqCst);
        assert_eq!(engine.sweep_expired().unwrap().len(), 1);
        assert!(!engine.dataset().contains_id(2_000));
    }

    /// An aborted batch must not move the durable maintenance counters
    /// (or the rebuild budget): `/metrics` records only what published.
    #[test]
    fn aborted_batch_leaves_counters_untouched() {
        let (engine, template) = test_engine(60);
        let sink = Arc::new(TogglingSink {
            fail: AtomicBool::new(false),
        });
        engine.attach_durability(Arc::clone(&sink) as _).unwrap();
        engine.append(fresh(&template, 3_000)).unwrap();
        let before = engine.mutation_stats();
        sink.fail.store(true, Ordering::SeqCst);
        assert!(engine.append(fresh(&template, 3_001)).is_err());
        let after = engine.mutation_stats();
        assert_eq!(after.generation, before.generation);
        assert_eq!(
            after.incremental_index_updates,
            before.incremental_index_updates
        );
        assert_eq!(after.index_rebuilds, before.index_rebuilds);
        sink.fail.store(false, Ordering::SeqCst);
        engine.append(fresh(&template, 3_001)).unwrap();
        assert!(
            engine.mutation_stats().incremental_index_updates > before.incremental_index_updates
        );
    }
}
