//! Deterministic-schedule model checking of the engine's lock protocol.
//!
//! Run with `cargo test -p asrs-core --features model --test model`.
//!
//! These tests drive distilled replicas of the engine's concurrency
//! protocol — the mutator-publish epoch swap, reader snapshot +
//! generation-stamped cache insert, auditor mutation-pause, WAL append
//! under the mutator, the cache's single-flight in-flight-slot handoff,
//! and the server worker queue — through *every*
//! interleaving of their lock operations via
//! [`asrs_core::sync::model::Explorer`].  The declared lock order is read
//! from the edge table of `crates/interlock/LOCK_ORDER.md`, the static
//! pass's committed output, so the two cannot drift apart.

#![cfg(feature = "model")]

use asrs_core::sync::model::{self, Explorer, ModelViolation, ViolationKind};
use asrs_core::sync::{Mutex, RwLock};
use std::sync::Arc;

/// The engine's published-generation epoch plus its mutation-serializing
/// lock and one generation-stamped cache shard: the skeleton of
/// `EngineShared` + `QueryCache`.
struct ProtocolState {
    /// `engine.epoch` — the published generation (stands in for the
    /// `RwLock<Arc<EngineCore>>` swap).
    epoch: RwLock<u64>,
    /// `engine.mutator` — serializes mutations; holds the count of
    /// mutations applied so far.
    mutator: Mutex<u64>,
    /// `cache.shard` — entries are `(stamped_generation, observed_generation)`.
    shard: Mutex<Vec<(u64, u64)>>,
}

impl ProtocolState {
    fn new() -> Self {
        Self {
            epoch: RwLock::named("engine.epoch", 0),
            mutator: Mutex::named("engine.mutator", 0),
            shard: Mutex::named("cache.shard", Vec::new()),
        }
    }

    /// `AsrsEngine::append` shape: serialize on the mutator, publish the
    /// next generation through the epoch write lock.
    fn mutate(&self) {
        let mut applied = self.mutator.lock().expect("mutator");
        let next = *applied + 1;
        {
            let mut gen = self.epoch.write().expect("epoch");
            model::check(*gen == *applied, || {
                format!(
                    "published generation {} != applied count {}",
                    *gen, *applied
                )
            });
            *gen = next;
        }
        *applied = next;
    }

    /// `AsrsEngine::submit` shape: snapshot the published generation,
    /// then insert a result stamped with that generation.
    fn read_and_cache(&self) {
        let snapshot = *self.epoch.read().expect("epoch");
        let mut shard = self.shard.lock().expect("shard");
        shard.push((snapshot, snapshot));
    }

    /// `audit_shared` shape: pause mutations by holding the mutator,
    /// then verify no cache entry is stamped newer than the published
    /// generation.
    fn audit(&self) {
        let _mutations_paused = self.mutator.lock().expect("mutator");
        let published = *self.epoch.read().expect("epoch");
        let shard = self.shard.lock().expect("shard");
        for &(stamp, _) in shard.iter() {
            model::check(stamp <= published, || {
                format!("cache entry stamped generation {stamp} > published {published}")
            });
        }
    }
}

/// The acquisition-order edges of the committed lock-order manifest, as
/// `(held, then acquired)` pairs.
fn manifest_edges() -> Vec<(&'static str, &'static str)> {
    const MANIFEST: &str = include_str!("../../interlock/LOCK_ORDER.md");
    let table = MANIFEST
        .split("## Acquisition-order edges")
        .nth(1)
        .and_then(|rest| rest.split("\n## ").next())
        .expect("LOCK_ORDER.md has an acquisition-order edge table");
    // Table rows are `| held | then acquired | via |`; the header and the
    // separator row name no lock (lock names are dotted).
    table
        .lines()
        .filter_map(|line| {
            let mut cells = line.strip_prefix('|')?.split('|').map(str::trim);
            let (held, then) = (cells.next()?, cells.next()?);
            (held.contains('.') && then.contains('.')).then_some((held, then))
        })
        .collect()
}

fn protocol_explorer() -> Explorer {
    let edges = manifest_edges();
    assert!(
        edges.contains(&("engine.mutator", "engine.epoch")),
        "the manifest edge table parsed to {edges:?}"
    );
    Explorer::new()
        .declared_order(&edges)
        .allow_blocking("fsync", "persist.wal")
        .allow_blocking("fsync", "engine.mutator")
}

/// The tentpole assertion: the mutator-publish / reader-snapshot /
/// cache-insert / audit-pause protocol survives *every* schedule — no
/// deadlock, every acquisition edge within the declared manifest order,
/// and no reader's cache stamp ever exceeds the published generation.
#[test]
fn publish_read_cache_audit_protocol_is_schedule_clean() {
    let report = protocol_explorer()
        .explore(|run| {
            let state = Arc::new(ProtocolState::new());
            let s = Arc::clone(&state);
            run.thread("mutator", move || s.mutate());
            let s = Arc::clone(&state);
            run.thread("reader", move || s.read_and_cache());
            let s = Arc::clone(&state);
            run.thread("auditor", move || s.audit());
            run.finally(move || {
                let published = *state.epoch.read().expect("epoch");
                let shard = state.shard.lock().expect("shard");
                for &(stamp, _) in shard.iter() {
                    if stamp > published {
                        return Err(format!(
                            "final cache stamp {stamp} > published generation {published}"
                        ));
                    }
                }
                Ok(())
            });
        })
        .unwrap_or_else(|violation| panic!("{violation}"));
    assert!(
        report.exhausted,
        "exploration should exhaust the schedule space"
    );
    assert!(
        report.schedules > 100,
        "expected a non-trivial schedule space, got {}",
        report.schedules
    );
    for (from, to) in &report.edges {
        assert_eq!(from, "engine.mutator", "unexpected edge {from} -> {to}");
    }
}

/// The group-commit deposit protocol, distilled from
/// `crates/core/src/mutate.rs::commit`: every committer enqueues its
/// ticket under `engine.commit_queue` *alone*, then takes the mutator;
/// whoever wins first drains the queue, publishes **one** generation for
/// the whole batch, and deposits receipts for the tickets it folded in —
/// all before releasing the mutator.  Model invariants: a committer that
/// finds no deposit must find its own ticket in its drain (no lost
/// tickets), every published batch is exactly one epoch bump, and every
/// queue acquisition nests inside the declared
/// `engine.mutator -> engine.commit_queue` edge or happens lock-free.
#[test]
fn group_commit_deposit_protocol_is_schedule_clean() {
    struct Queue {
        pending: Vec<u64>,
        deposits: Vec<u64>,
    }
    struct BatchState {
        epoch: RwLock<u64>,
        mutator: Mutex<u64>,
        queue: Mutex<Queue>,
    }
    impl BatchState {
        fn commit(&self, ticket: u64) {
            {
                let mut q = self.queue.lock().expect("queue");
                q.pending.push(ticket);
            }
            let mut applied = self.mutator.lock().expect("mutator");
            let drained = {
                let mut q = self.queue.lock().expect("queue");
                if let Some(at) = q.deposits.iter().position(|&t| t == ticket) {
                    // A leader folded this mutation into its batch and
                    // deposited the receipt before releasing the mutator.
                    q.deposits.remove(at);
                    return;
                }
                std::mem::take(&mut q.pending)
            };
            model::check(drained.contains(&ticket), || {
                format!("leader drained a batch that lost its own ticket {ticket}")
            });
            {
                let mut gen = self.epoch.write().expect("epoch");
                model::check(*gen <= *applied, || {
                    format!(
                        "generation {} ran ahead of applied count {}",
                        *gen, *applied
                    )
                });
                *gen += 1;
            }
            *applied += drained.len() as u64;
            let mut q = self.queue.lock().expect("queue");
            for t in drained {
                if t != ticket {
                    q.deposits.push(t);
                }
            }
        }
    }

    let report = protocol_explorer()
        .explore(|run| {
            let state = Arc::new(BatchState {
                epoch: RwLock::named("engine.epoch", 0),
                mutator: Mutex::named("engine.mutator", 0),
                queue: Mutex::named(
                    "engine.commit_queue",
                    Queue {
                        pending: Vec::new(),
                        deposits: Vec::new(),
                    },
                ),
            });
            for (name, ticket) in [("committer-a", 1u64), ("committer-b", 2u64)] {
                let s = Arc::clone(&state);
                run.thread(name, move || s.commit(ticket));
            }
            run.finally(move || {
                let q = state.queue.lock().expect("queue");
                if !q.pending.is_empty() {
                    return Err(format!("{} tickets never drained", q.pending.len()));
                }
                if !q.deposits.is_empty() {
                    return Err(format!("{} receipts never collected", q.deposits.len()));
                }
                let batches = *state.epoch.read().expect("epoch");
                let applied = *state.mutator.lock().expect("mutator");
                if applied != 2 {
                    return Err(format!("expected 2 applied mutations, got {applied}"));
                }
                if batches == 0 || batches > applied {
                    return Err(format!(
                        "published {batches} generations for {applied} mutations"
                    ));
                }
                Ok(())
            });
        })
        .unwrap_or_else(|violation| panic!("{violation}"));
    assert!(report.exhausted, "schedule space should exhaust");
    assert!(
        report
            .edges
            .iter()
            .any(|(from, to)| from == "engine.mutator" && to == "engine.commit_queue"),
        "the deposit/drain edge must be exercised: {:?}",
        report.edges
    );
    for (from, to) in &report.edges {
        assert_eq!(from, "engine.mutator", "unexpected edge {from} -> {to}");
    }
}

/// The single-flight miss-coalescing protocol, distilled from
/// `crates/core/src/cache.rs::compute_coalesced` / `wait_for_leader`:
/// the first cold caller (the leader) registers an in-flight slot in the
/// table and — before releasing the table — takes the slot; later
/// arrivals (waiters) find the flight in the table, release the table,
/// and block on the slot for the leader's published result.  The
/// load-bearing ordering is exactly the declared
/// `cache.inflight -> cache.flight_slot -> cache.shard` chain: because
/// the leader acquires the slot *while still holding the table*, no
/// waiter can ever observe an unheld empty slot, and because the leader
/// stores into the cache shard *while holding the slot*, the shard is
/// written by the time any waiter shares the result.  A caller that
/// arrives after the leader cleared the flight re-leads and must
/// recompute the identical value.
#[test]
fn single_flight_slot_protocol_is_schedule_clean() {
    struct Flight {
        slot: Mutex<Option<u64>>,
    }
    struct CacheState {
        inflight: Mutex<Option<Arc<Flight>>>,
        shard: Mutex<Option<u64>>,
    }
    impl CacheState {
        fn new() -> Self {
            Self {
                inflight: Mutex::named("cache.inflight", None),
                shard: Mutex::named("cache.shard", None),
            }
        }

        fn submit(&self) {
            let mut table = self.inflight.lock().expect("table");
            if let Some(flight) = table.as_ref() {
                let flight = Arc::clone(flight);
                drop(table);
                // Waiter: the leader took the slot before the table was
                // released, so this acquisition can only succeed once
                // the result is published.
                let slot = flight.slot.lock().expect("slot");
                model::check(slot.is_some(), || {
                    "waiter observed an unheld empty slot: the leader must take the slot before releasing the table".to_string()
                });
                model::check(*slot == Some(42), || {
                    format!("waiter shared a wrong result: {:?}", *slot)
                });
                return;
            }
            // Leader: register the flight, then take its slot while the
            // table is still held.
            let flight = Arc::new(Flight {
                slot: Mutex::named("cache.flight_slot", None),
            });
            *table = Some(Arc::clone(&flight));
            let mut slot = flight.slot.lock().expect("slot");
            drop(table);
            let value = 42; // the deterministic recompute
            {
                let mut shard = self.shard.lock().expect("shard");
                if let Some(cached) = *shard {
                    // A fully completed earlier flight may have cached
                    // already; a re-lead must agree with it.
                    model::check(cached == value, || {
                        format!("re-lead computed {value} != cached {cached}")
                    });
                }
                *shard = Some(value);
            }
            *slot = Some(value);
            drop(slot);
            // ClearFlight: deregister only after the slot is released.
            let mut table = self.inflight.lock().expect("table");
            *table = None;
        }
    }

    let report = protocol_explorer()
        .explore(|run| {
            let state = Arc::new(CacheState::new());
            for name in ["caller-a", "caller-b"] {
                let s = Arc::clone(&state);
                run.thread(name, move || s.submit());
            }
            run.finally(move || match *state.shard.lock().expect("shard") {
                Some(42) => Ok(()),
                other => Err(format!("final cache entry {other:?}, expected Some(42)")),
            });
        })
        .unwrap_or_else(|violation| panic!("{violation}"));
    assert!(report.exhausted);
    assert!(
        report.schedules > 10,
        "expected a non-trivial schedule space, got {}",
        report.schedules
    );
    for edge in [
        ("cache.inflight", "cache.flight_slot"),
        ("cache.flight_slot", "cache.shard"),
    ] {
        assert!(
            report
                .edges
                .iter()
                .any(|(from, to)| (from.as_str(), to.as_str()) == edge),
            "the {} -> {} edge must be exercised: {:?}",
            edge.0,
            edge.1,
            report.edges
        );
    }
}

/// The WAL critical section: fsync happens while holding both the
/// mutator and the WAL lock — exactly the holds `LOCK_ORDER.md`
/// allow-lists — and two concurrent appenders still serialize cleanly.
#[test]
fn wal_append_under_mutator_is_schedule_clean() {
    let report = protocol_explorer()
        .explore(|run| {
            let mutator = Arc::new(Mutex::named("engine.mutator", 0u64));
            let wal = Arc::new(Mutex::named("persist.wal", Vec::<u64>::new()));
            for name in ["appender-a", "appender-b"] {
                let mutator = Arc::clone(&mutator);
                let wal = Arc::clone(&wal);
                run.thread(name, move || {
                    let mut applied = mutator.lock().expect("mutator");
                    *applied += 1;
                    let mut wal = wal.lock().expect("wal");
                    wal.push(*applied);
                    model::blocking("fsync");
                });
            }
        })
        .unwrap_or_else(|violation| panic!("{violation}"));
    assert!(report.exhausted);
    assert!(report
        .edges
        .iter()
        .any(|(from, to)| from == "engine.mutator" && to == "persist.wal"));
}

/// PR 7 worker-queue regression, buggy shape: the worker holds the
/// queue guard across serving the request.  The explorer must flag it
/// with the blocking-while-locked category and a replayable trace.
#[test]
fn worker_queue_guard_across_serve_is_caught() {
    let run_once = || -> Box<ModelViolation> {
        Explorer::new()
            .allow_blocking("recv", "server.worker_queue")
            .explore(|run| {
                let queue = Arc::new(Mutex::named("server.worker_queue", vec![1u64, 2]));
                let q = Arc::clone(&queue);
                run.thread("worker", move || {
                    let mut guard = q.lock().expect("queue");
                    model::blocking("recv");
                    let _job = guard.pop();
                    // BUG (the PR 7 shape): the guard is still alive here.
                    model::blocking("serve");
                });
            })
            .expect_err("the stale guard across `serve` must be flagged")
    };
    let violation = run_once();
    assert_eq!(violation.kind, ViolationKind::BlockingWhileLocked);
    assert!(
        violation.message.contains("server.worker_queue"),
        "message should name the held lock: {}",
        violation.message
    );
    let rendered = violation.to_string();
    assert!(
        rendered.contains("schedule trace:"),
        "failure must print the schedule trace:\n{rendered}"
    );
    // Seeded/deterministic: a second exploration reproduces the same
    // schedule and trace.
    let again = run_once();
    assert_eq!(violation.schedule, again.schedule);
    assert_eq!(violation.trace, again.trace);
}

/// PR 7 worker-queue fixed shape: guard dropped at last use, serving
/// happens lock-free; two contending workers explore clean.
#[test]
fn worker_queue_fixed_shape_is_schedule_clean() {
    let report = Explorer::new()
        .allow_blocking("recv", "server.worker_queue")
        .explore(|run| {
            let queue = Arc::new(Mutex::named("server.worker_queue", vec![1u64, 2]));
            for name in ["worker-a", "worker-b"] {
                let q = Arc::clone(&queue);
                run.thread(name, move || {
                    let job = {
                        let mut guard = q.lock().expect("queue");
                        model::blocking("recv");
                        guard.pop()
                    };
                    if job.is_some() {
                        model::blocking("serve");
                    }
                });
            }
        })
        .unwrap_or_else(|violation| panic!("{violation}"));
    assert!(report.exhausted);
}

/// A reader stamping a generation newer than the one it observed is the
/// protocol violation the auditor exists to catch.
#[test]
fn stale_stamp_is_caught_by_auditor() {
    let violation = protocol_explorer()
        .explore(|run| {
            let state = Arc::new(ProtocolState::new());
            let s = Arc::clone(&state);
            run.thread("bad-reader", move || {
                let snapshot = *s.epoch.read().expect("epoch");
                let mut shard = s.shard.lock().expect("shard");
                // BUG: stamps one generation ahead of what it read.
                shard.push((snapshot + 1, snapshot));
            });
            let s = Arc::clone(&state);
            run.thread("auditor", move || s.audit());
        })
        .expect_err("the auditor must catch the stale stamp");
    assert_eq!(violation.kind, ViolationKind::Assertion);
    assert!(
        violation.message.contains("stamped generation"),
        "unexpected message: {}",
        violation.message
    );
}

/// A thread re-acquiring a mutex it already holds can never be granted:
/// the explorer reports it as a deadlock, naming waiter and holder.
#[test]
fn reentrant_lock_is_reported_as_deadlock() {
    let violation = Explorer::new()
        .explore(|run| {
            let lock = Arc::new(Mutex::named("m", ()));
            run.thread("selfish", move || {
                let _outer = lock.lock().expect("outer");
                let _inner = lock.lock().expect("inner");
            });
        })
        .expect_err("self-deadlock must be reported");
    assert_eq!(violation.kind, ViolationKind::Deadlock);
    assert!(
        violation.message.contains("waits for m"),
        "unexpected message: {}",
        violation.message
    );
}

/// Classic AB/BA: the cycle is flagged as soon as both orders have been
/// observed — before the explorer even needs to hit a hung schedule.
#[test]
fn ab_ba_acquisition_cycle_is_flagged() {
    let violation = Explorer::new()
        .explore(|run| {
            let a = Arc::new(Mutex::named("a", ()));
            let b = Arc::new(Mutex::named("b", ()));
            let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
            run.thread("forward", move || {
                let _a = a.lock().expect("a");
                let _b = b.lock().expect("b");
            });
            run.thread("backward", move || {
                let _b = b2.lock().expect("b");
                let _a = a2.lock().expect("a");
            });
        })
        .expect_err("AB/BA ordering must be flagged");
    assert!(
        matches!(
            violation.kind,
            ViolationKind::OrderCycle | ViolationKind::Deadlock
        ),
        "unexpected kind: {:?}",
        violation.kind
    );
}

/// With a declared order in force, any nesting outside it is an error
/// even when it is cycle-free.
#[test]
fn undeclared_edge_is_flagged() {
    let violation = Explorer::new()
        .declared_order(&[("a", "b")])
        .explore(|run| {
            let a = Arc::new(Mutex::named("a", ()));
            let b = Arc::new(Mutex::named("b", ()));
            run.thread("rebel", move || {
                let _b = b.lock().expect("b");
                let _a = a.lock().expect("a");
            });
        })
        .expect_err("the undeclared b -> a edge must be flagged");
    assert_eq!(violation.kind, ViolationKind::UndeclaredEdge);
    assert!(
        violation.message.contains("b -> a"),
        "unexpected message: {}",
        violation.message
    );
}

/// Outside an exploration the shims behave exactly like `std::sync` —
/// the whole engine test suite runs through them with the feature on.
#[test]
fn shims_pass_through_outside_a_run() {
    let m = Mutex::new(7u64);
    *m.lock().expect("lock") += 1;
    assert_eq!(*m.lock().expect("lock"), 8);
    let rw = RwLock::new(3u64);
    assert_eq!(*rw.read().expect("read"), 3);
    *rw.write().expect("write") = 4;
    assert_eq!(rw.into_inner().expect("into_inner"), 4);
}
