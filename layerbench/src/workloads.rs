//! The three workloads.  Each one boots an in-process server, measures a
//! closed-loop window over keep-alive HTTP, checks the answers, and in a
//! traced run adds the per-layer replay and twin probes.

use crate::host::{probe_ms, OneCpu, REFERENCE_MS};
use crate::load::{drive, send_all, Family, Op, OpKind, Record, WriteKind};
use crate::report::{peak_rss_mib, Metrics, Outcome};
use crate::setup::{
    connections, json, more_setups, start_server, stream, Env, Pool, QueryMix, Write, WriteStream,
    CACHE_CAPACITY, CHURN_BUDGET_MS, CHURN_SIZES, READ_BUDGET_MS, READ_SIZES, WINDOW_CONNECTIONS,
};
use crate::stats::{median, percentile, ratio, sorted};
use crate::trace::{self, ReadOutcome, Tracer};
use asrs_bench::workloads::Workload;
use asrs_core::{AsrsEngine, CacheStats, EngineHandle, MutationStats, QueryRequest, QueryResponse};
use asrs_persist::{PersistExt, PersistHandle};
use asrs_server::ServerHandle;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const WORKLOADS: [&str; 3] = ["hot_read", "cold_read", "churn"];

const HOT_POOL: usize = 256;
/// Every cached entry of the current generation costs the carry pass of
/// each write (~0.9 ms per entry and object), so the churn pool is smaller
/// than hot_read's to leave the window enough writes to measure: five
/// entries per family.
const CHURN_POOL: usize = 25;
/// One op in eight per churn connection is a write.
const WRITE_EVERY: usize = 8;
/// A read slower than this is counted as a miss in the churn gap split;
/// hits take ~0.1 ms and the cheapest misses ~20 ms.
const MISS_US: u64 = 2_000;
/// WAL frames that make a snapshot due on the churn engine, low enough
/// that background snapshots land in every window.
const COMPACTION_FRAMES: u64 = 256;
/// Writes in the WAL tail the churn set-up replays at boot (114 frames,
/// below the compaction threshold, so booting never snapshots).
const WAL_TAIL: usize = 24;
/// Responses recomputed on a twin engine by the correctness checks.
const CHECK_SAMPLE: usize = 16;
const HOT_REPLAY: usize = 4_000;
const COLD_REPLAY: usize = 32;
const CHURN_REPLAY: usize = 64;
/// Distinct requests and passes of the tracing-overhead probe.
const OVERHEAD_REQUESTS: usize = 32;
const OVERHEAD_PASSES: usize = 32;

pub struct Ctx {
    pub workload: String,
    pub env: Env,
    pub seed: u64,
    pub window: Duration,
    pub trace: bool,
    /// Per-run temporary directory, removed when the run ends.
    pub scratch: PathBuf,
    /// Where span files are written.
    pub out: PathBuf,
}

pub fn run(name: &str, ctx: &Ctx) -> Outcome {
    match name {
        "hot_read" => hot_read(ctx),
        "cold_read" => cold_read(ctx),
        "churn" => churn(ctx),
        other => unreachable!("unknown workload {other}"),
    }
}

struct Served {
    server: ServerHandle,
    engine: AsrsEngine,
    persist: Option<Arc<PersistHandle>>,
}

/// One timed set-up and the speed probe run just before it.
#[derive(Debug, Clone, Copy)]
struct SetupTime {
    secs: f64,
    probe_ms: f64,
}

/// Builds the unsharded read engine and starts a server as often as
/// [`more_setups`] asks, on one CPU; returns the last and every set-up.
fn serve_in_memory(env: &Env) -> (Served, Vec<SetupTime>) {
    let _cpu = OneCpu::hold();
    let mut served = None;
    let mut times = Vec::new();
    let began = Instant::now();
    while more_setups(times.len(), began) {
        drop(served.take());
        let builder = env.builder(0, CACHE_CAPACITY);
        let probe_ms = probe_ms();
        let t = Instant::now();
        let engine = builder.build().expect("engine builds");
        let server = start_server(engine.handle(), None);
        times.push(SetupTime {
            secs: t.elapsed().as_secs_f64(),
            probe_ms,
        });
        served = Some(Served {
            server,
            engine,
            persist: None,
        });
    }
    (served.expect("at least one set-up"), times)
}

#[derive(Clone)]
struct Counters {
    cache: Option<CacheStats>,
    mutations: MutationStats,
}

impl Counters {
    fn take(engine: &AsrsEngine) -> Counters {
        Counters {
            cache: engine.cache_stats(),
            mutations: engine.mutation_stats(),
        }
    }
}

/// A measured window: every connection's records, the responses that
/// differed from their expectation, the kept responses, and the probes.
struct Measured {
    records: Vec<Record>,
    mismatches: usize,
    kept: Vec<(usize, String)>,
    elapsed: Duration,
    probes_ms: Vec<f64>,
    connections: usize,
}

fn merge((outcomes, elapsed): (Vec<crate::load::ConnOutcome>, Duration)) -> Measured {
    let mut m = Measured {
        records: Vec::new(),
        mismatches: 0,
        kept: Vec::new(),
        elapsed,
        probes_ms: Vec::new(),
        connections: outcomes.len().max(1),
    };
    for o in outcomes {
        m.records.extend(o.records);
        m.mismatches += o.mismatches;
        m.kept.extend(o.kept);
        m.probes_ms.extend(o.probes_ms);
    }
    m
}

fn latencies_ms(records: &[Record], query: bool) -> Vec<f64> {
    sorted(
        records
            .iter()
            .filter(|r| r.ok && matches!(r.kind, OpKind::Query(_)) == query)
            .map(|r| r.latency_ns as f64 / 1e6)
            .collect(),
    )
}

/// The end-to-end metrics every workload reports, and the `write_*` ones
/// where the window holds writes (churn).  `peak_rss` is read as the
/// window ends, before any check or probe engine exists.
///
/// Times are scaled to the reference speed: a window time is multiplied
/// by `REFERENCE_MS` over the median probe time of the window, a set-up by
/// `REFERENCE_MS` over the probe run just before it, and `query_rps`
/// counts the window without its probes.  The unscaled figures are
/// printed beside them.  `setup_s` is the 10th percentile of the set-ups.
fn end_to_end(o: &mut Outcome, measured: &Measured, setups: &[SetupTime], peak_rss: f64) {
    let window = &measured.records[..];
    let speed = median(&measured.probes_ms) / REFERENCE_MS;
    let probing = measured.probes_ms.iter().sum::<f64>() / 1e3 / measured.connections as f64;
    let busy_s = measured.elapsed.as_secs_f64() - probing;
    o.notes.push(format!(
        "speed: window probes took {speed:.3} of the reference ({} probes, {:.2} s)",
        measured.probes_ms.len(),
        probing
    ));
    let scale = |ms: Vec<f64>| -> Vec<f64> { ms.into_iter().map(|t| t / speed).collect() };
    let unscaled = latencies_ms(window, true);
    let queries = scale(unscaled.clone());
    let write_ms = scale(latencies_ms(window, false));
    for (what, samples) in [("query", &queries), ("write", &write_ms)] {
        if samples.is_empty() {
            continue;
        }
        let beyond = |p: f64| samples.len() - (samples.len() as f64 * p).ceil() as usize;
        o.notes.push(format!(
            "{what}: {} samples, {} beyond p90, {} beyond p99",
            samples.len(),
            beyond(0.90),
            beyond(0.99)
        ));
    }
    let by_kind: Vec<String> = [
        WriteKind::Append,
        WriteKind::Batch16,
        WriteKind::AppendTtl,
        WriteKind::Remove,
    ]
    .iter()
    .filter_map(|&k| {
        let ms: Vec<f64> = window
            .iter()
            .filter(|r| r.ok && r.kind == OpKind::Write(k))
            .map(|r| r.latency_ns as f64 / 1e6)
            .collect();
        (!ms.is_empty()).then(|| format!("{k:?} {:.2} ms (n={})", median(&ms), ms.len()))
    })
    .collect();
    if !by_kind.is_empty() {
        o.notes
            .push(format!("write p50 by kind: {}", by_kind.join(", ")));
    }
    o.notes.push(format!(
        "slowest query {:.1} ms",
        queries.last().copied().unwrap_or(0.0)
    ));
    let setup_ms = sorted(setups.iter().map(|s| s.secs * 1e3).collect());
    o.notes.push(format!(
        "{} set-ups, p10/p50/p90 {:.3}/{:.3}/{:.3} ms",
        setup_ms.len(),
        percentile(&setup_ms, 0.1),
        percentile(&setup_ms, 0.5),
        percentile(&setup_ms, 0.9)
    ));
    let m = &mut o.metrics;
    m.add("query_rps", queries.len() as f64 / busy_s * speed, "req/s");
    m.add("query_p50_ms", percentile(&queries, 0.50), "ms");
    m.add(
        "query_rps_unscaled",
        queries.len() as f64 / measured.elapsed.as_secs_f64(),
        "req/s",
    );
    m.add("query_p50_ms_unscaled", percentile(&unscaled, 0.50), "ms");
    m.add("query_p90_ms", percentile(&queries, 0.90), "ms");
    m.add("query_p99_ms", percentile(&queries, 0.99), "ms");
    if !write_ms.is_empty() {
        m.add("write_p50_ms", percentile(&write_ms, 0.50), "ms");
        m.add("write_p90_ms", percentile(&write_ms, 0.90), "ms");
        m.add("write_p99_ms", percentile(&write_ms, 0.99), "ms");
    }
    let attempted = window.len();
    let failed = window.iter().filter(|r| !r.ok).count();
    o.attempted = attempted as u64;
    o.failed = failed as u64;
    m.add(
        "ok_share",
        1.0 - ratio(failed as f64, attempted as f64),
        "ratio",
    );
    // Set-up times are bimodal inside one run (in-memory: ~1.0 and
    // ~1.55 ms), and the share in each mode moves from run to run, so the
    // median jumps between them; the 10th percentile stays in the fast one.
    let scaled = sorted(
        setups
            .iter()
            .map(|s| s.secs * REFERENCE_MS / s.probe_ms)
            .collect(),
    );
    m.add("setup_s", percentile(&scaled, 0.1), "s");
    m.add("setup_s_unscaled", percentile(&setup_ms, 0.1) / 1e3, "s");
    m.add("peak_rss_mb", peak_rss, "MiB");
}

/// Canonical bytes of a response: statistics stripped, serialized.
fn canonical(response: &QueryResponse) -> String {
    serde::json::to_string(&response.stats_stripped())
}

fn served_canonical(body: &str) -> Option<String> {
    serde::json::from_str::<QueryResponse>(body)
        .ok()
        .map(|r| canonical(&r))
}

/// Counter deltas of the served engine over the measured part of the run.
fn counter_metrics(
    m: &mut Metrics,
    before: &Counters,
    window_end: &Counters,
    end: &Counters,
    served: &Served,
) {
    let (c0, c1) = (before.cache.as_ref(), window_end.cache.as_ref());
    let delta = |f: fn(&CacheStats) -> u64| match (c0, c1) {
        (Some(a), Some(b)) => (f(b) - f(a)) as f64,
        _ => 0.0,
    };
    let hits = delta(|s| s.hits);
    m.add(
        "cache.hit_rate",
        ratio(hits, hits + delta(|s| s.misses)),
        "ratio",
    );
    m.add(
        "cache.coalesced_waits",
        delta(|s| s.coalesced_waits),
        "count",
    );
    let (a, b) = (&before.mutations, &end.mutations);
    let writes = (b.appends + b.removes + b.expiries) - (a.appends + a.removes + a.expiries);
    m.add(
        "mutate.writes_per_generation",
        ratio(writes as f64, (b.generation - a.generation) as f64),
        "count",
    );
    m.add(
        "grid_index.rebuilds",
        (b.index_rebuilds - a.index_rebuilds) as f64,
        "count",
    );
    let snapshots = served
        .server
        .metrics()
        .sweeper
        .map_or(0, |s| s.snapshots_taken);
    m.add("snapshot.background_count", snapshots as f64, "count");
}

/// One replayed operation of a workload's sequence.
enum ReplayOp {
    Read(Family, Arc<str>),
    Write(Write),
}

/// The traced part of a run: the span replay of the workload's own
/// sequence on `engine`, a search sample on a cache-less twin, the
/// tracing-overhead probe, and the twin probes of the other layers.
/// Returns the carry-proof failures the probes saw.
fn traced_layers(
    ctx: &Ctx,
    m: &mut Metrics,
    engine: &EngineHandle,
    ops: &[ReplayOp],
    sample: &[(Family, QueryRequest)],
    twin_shards: usize,
    window: &[Record],
) -> u64 {
    trace::gap_metrics(m, window, MISS_US);
    let window_p50_ms = percentile(&latencies_ms(window, true), 0.5);
    let mut tr = Tracer::new(true);
    let mut reads: Vec<ReadOutcome> = Vec::new();
    let mut replayed: Vec<(Family, Arc<str>)> = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        match op {
            ReplayOp::Read(family, body) => {
                reads.push(trace::replay_read(&mut tr, i as u64, engine, *family, body));
                replayed.push((*family, body.clone()));
            }
            ReplayOp::Write(w) => {
                trace::replay_write(&mut tr, i as u64, engine, w);
            }
        }
    }
    let twin = ctx.env.engine(twin_shards, 0).handle();
    let mut searched: Vec<ReadOutcome> = Vec::new();
    for (i, (family, request)) in sample.iter().enumerate() {
        let req = (ops.len() + i) as u64;
        searched.push(trace::replay_read(
            &mut tr,
            req,
            &twin,
            *family,
            &json(request),
        ));
    }
    let path = ctx
        .out
        .join(format!("spans-{}-seed{}.json", ctx.workload, ctx.seed));
    if let Err(e) = tr.write(&path) {
        eprintln!("could not write {}: {e}", path.display());
    }

    // Tracing overhead on the hit path: the same requests untraced, then
    // traced, after one warming pass.
    let tail: Vec<&(Family, Arc<str>)> = replayed.iter().rev().take(OVERHEAD_REQUESTS).collect();
    let pass = |enabled: bool, passes: usize| -> Vec<ReadOutcome> {
        let mut t = Tracer::new(enabled);
        let mut out = Vec::new();
        for _ in 0..passes {
            for (family, body) in &tail {
                out.push(trace::replay_read(&mut t, 0, engine, *family, body));
            }
        }
        out
    };
    pass(false, 1);
    let untraced = pass(false, OVERHEAD_PASSES);
    let traced = pass(true, OVERHEAD_PASSES);
    let total = |v: &[ReadOutcome]| median(&v.iter().map(|o| o.total_us).collect::<Vec<_>>());
    m.add("trace.overhead_us", total(&traced) - total(&untraced), "us");

    trace::read_metrics(m, &reads, &traced);
    let explained: f64 = trace::stage_medians(&reads).iter().sum();
    let all: Vec<ReadOutcome> = reads.into_iter().chain(searched).collect();
    trace::search_metrics(m, &all);
    m.add(
        "transport.residual_us",
        window_p50_ms * 1e3 - explained,
        "us",
    );
    m.add(
        "trace.explained_share",
        ratio(explained, window_p50_ms * 1e3),
        "ratio",
    );

    trace::shard_probe(m, &ctx.env, ctx.seed);
    trace::paper_probe(m, &ctx.env, ctx.seed);
    trace::write_probe(m, &ctx.env, ctx.seed, &ctx.scratch)
}

/// Two requests of each family from the front of `requests`.
fn search_sample(requests: &[(Family, QueryRequest)]) -> Vec<(Family, QueryRequest)> {
    Family::ALL
        .iter()
        .flat_map(|f| {
            requests
                .iter()
                .filter(move |(g, _)| g == f)
                .take(2)
                .cloned()
        })
        .collect()
}

/// `hot_read`: a primed 256-request pool drawn Zipf-skewed; nearly every
/// request is a cache hit, so the time goes to HTTP, JSON and the cache.
fn hot_read(ctx: &Ctx) -> Outcome {
    let env = &ctx.env;
    let mut o = Outcome::default();
    let pool = Pool::new(env, 1, READ_SIZES, READ_BUDGET_MS, HOT_POOL);
    let (served, setups) = serve_in_memory(env);
    let addr = served.server.addr();
    let primed = send_all(
        addr,
        &(0..pool.len())
            .map(|s| pool.query_op(s))
            .collect::<Vec<_>>(),
        connections(),
    );
    o.check(
        primed.iter().all(Option::is_some),
        "every pool request primes with 200",
    );
    let expected: Vec<Arc<str>> = primed
        .into_iter()
        .map(|b| b.unwrap_or_default().into())
        .collect();

    let before = Counters::take(&served.engine);
    let gens: Vec<_> = (0..WINDOW_CONNECTIONS)
        .map(|c| {
            let mut rng = stream(ctx.seed, 100 + c as u64);
            let (pool, expected) = (&pool, &expected);
            move |i: usize| {
                let slot = pool.draw(i, &mut rng);
                let mut op = pool.query_op(slot);
                op.expect = Some(expected[slot].clone());
                op
            }
        })
        .collect();
    let cpu = OneCpu::hold();
    let measured = merge(drive(addr, gens, ctx.window));
    drop(cpu);
    let peak_rss = peak_rss_mib();
    let window_end = Counters::take(&served.engine);
    let mismatches = measured.mismatches;
    o.check(
        mismatches == 0,
        format!("{mismatches} hits differed from their priming response"),
    );

    let mut layers = Metrics::default();
    let mut proof_failures = 0;
    if ctx.trace {
        let mut rng = stream(ctx.seed, 100);
        let ops: Vec<ReplayOp> = (0..HOT_REPLAY)
            .map(|n| {
                let slot = pool.draw(n, &mut rng);
                ReplayOp::Read(pool.requests[slot].0, pool.bodies[slot].clone())
            })
            .collect();
        proof_failures = traced_layers(
            ctx,
            &mut layers,
            &served.engine.handle(),
            &ops,
            &search_sample(&pool.requests),
            0,
            &measured.records,
        );
    }
    let end = Counters::take(&served.engine);
    finish(
        o,
        &served,
        &measured,
        &setups,
        peak_rss,
        layers,
        (&before, &window_end, &end),
        proof_failures,
    )
}

/// `cold_read`: every request a distinct key, so every request plans,
/// searches, inserts and evicts; search is nearly all of the time.
fn cold_read(ctx: &Ctx) -> Outcome {
    let env = &ctx.env;
    let conns = WINDOW_CONNECTIONS;
    let mut o = Outcome::default();
    let mix = QueryMix::new(ctx.seed, 2, READ_SIZES, READ_BUDGET_MS);
    let (served, setups) = serve_in_memory(env);
    let addr = served.server.addr();
    fill_cache(env, &served.engine);

    let phase = (ctx.seed % 29) as usize;
    let before = Counters::take(&served.engine);
    let gens: Vec<_> = (0..conns)
        .map(|c| {
            let mix = &mix;
            move |i: usize| {
                let n = i * conns + c;
                let (family, request) = mix.at(env, n);
                let mut op = Op::query(family, json(&request), n);
                op.keep = n % 29 == phase;
                op
            }
        })
        .collect();
    let cpu = OneCpu::hold();
    let mut measured = merge(drive(addr, gens, ctx.window));
    drop(cpu);
    let peak_rss = peak_rss_mib();
    let window_end = Counters::take(&served.engine);
    let kept = &mut measured.kept;

    // A seeded sample of responses against a cache-less twin.
    kept.sort_by_key(|k| k.0);
    let twin = env.engine(0, 0);
    let mut compared = 0;
    for (n, body) in kept.iter().take(CHECK_SAMPLE) {
        let expected = twin.submit(&mix.at(env, *n).1).ok().map(|r| canonical(&r));
        o.check(
            expected.is_some() && served_canonical(body) == expected,
            format!("cold request {n} differs from its recompute on a cache-less twin"),
        );
        compared += 1;
    }
    o.check(compared > 0, "the cold window kept no response to check");

    let mut layers = Metrics::default();
    let mut proof_failures = 0;
    if ctx.trace {
        let replay_engine = env.engine(0, CACHE_CAPACITY);
        let ops: Vec<ReplayOp> = (0..COLD_REPLAY)
            .map(|n| {
                let (family, request) = mix.at(env, n);
                ReplayOp::Read(family, json(&request))
            })
            .collect();
        proof_failures = traced_layers(
            ctx,
            &mut layers,
            &replay_engine.handle(),
            &ops,
            &[],
            0,
            &measured.records,
        );
    }
    let end = Counters::take(&served.engine);
    finish(
        o,
        &served,
        &measured,
        &setups,
        peak_rss,
        layers,
        (&before, &window_end, &end),
        proof_failures,
    )
}

/// Fills the cache to capacity with cheap keys no measured request uses
/// (approximate queries at 200q–1000q, ~5 ms each), so that every
/// measured insert evicts.
fn fill_cache(env: &Env, engine: &AsrsEngine) {
    let threads = connections();
    std::thread::scope(|scope| {
        for t in 0..threads {
            scope.spawn(move || {
                for n in (t..CACHE_CAPACITY).step_by(threads) {
                    let k = 200.0 + 800.0 * (n as f64 * 0.618_033_988_749_894_9).fract();
                    let request =
                        QueryRequest::approximate(Workload::Tweet.query(&env.ds, k), 0.25)
                            .with_budget_ms(READ_BUDGET_MS);
                    let _ = engine.submit(&request);
                }
            });
        }
    });
}

/// `churn`: a 2-shard persistent engine under reads and writes; the only
/// workload where carry-forward, WAL fsyncs, background snapshots and
/// sharded misses run inside the measured window.
fn churn(ctx: &Ctx) -> Outcome {
    let env = &ctx.env;
    let conns = WINDOW_CONNECTIONS;
    let mut o = Outcome::default();
    let dir = ctx.scratch.join("persist");
    prepare_persist_dir(ctx, &dir);
    let cpu = OneCpu::hold();
    let mut served = None;
    let mut setups = Vec::new();
    let began = Instant::now();
    while more_setups(setups.len(), began) {
        drop(served.take());
        let builder = env
            .builder(2, CACHE_CAPACITY)
            .persist_dir(&dir)
            .compaction_threshold(COMPACTION_FRAMES);
        let probe_ms = probe_ms();
        let t = Instant::now();
        let (engine, persist, boot) = builder.build().expect("churn engine boots").into_parts();
        let server = start_server(engine.handle(), Some(persist.clone()));
        setups.push(SetupTime {
            secs: t.elapsed().as_secs_f64(),
            probe_ms,
        });
        o.check(
            !boot.cold_start && boot.replayed_entries > 0,
            "churn boots from a snapshot plus a WAL tail",
        );
        served = Some(Served {
            server,
            engine,
            persist: Some(persist),
        });
    }
    drop(cpu);
    let served = served.expect("at least one set-up");
    let addr = served.server.addr();

    let pool = Pool::new(env, 3, CHURN_SIZES, CHURN_BUDGET_MS, CHURN_POOL);
    let primed = send_all(
        addr,
        &(0..pool.len())
            .map(|s| pool.query_op(s))
            .collect::<Vec<_>>(),
        conns,
    );
    o.check(
        primed.iter().all(Option::is_some),
        "every churn pool request primes with 200",
    );

    let before = Counters::take(&served.engine);
    let gens: Vec<_> = (0..conns)
        .map(|c| {
            let mut rng = stream(ctx.seed, 100 + c as u64);
            let mut writes = WriteStream::new(ctx.seed, c);
            let pool = &pool;
            move |i: usize| {
                if i % WRITE_EVERY == WRITE_EVERY - 1 {
                    writes.next(env).op(i)
                } else {
                    pool.query_op(pool.draw(i, &mut rng))
                }
            }
        })
        .collect();
    let cpu = OneCpu::hold();
    let measured = merge(drive(addr, gens, ctx.window));
    drop(cpu);
    let peak_rss = peak_rss_mib();
    let window_end = Counters::take(&served.engine);

    let mut layers = Metrics::default();
    let mut proof_failures = 0;
    if ctx.trace {
        let mut rng = stream(ctx.seed, 100);
        let mut writes = WriteStream::with_ids(ctx.seed, 0, conns + 1);
        let ops: Vec<ReplayOp> = (0..CHURN_REPLAY)
            .map(|i| {
                if i % WRITE_EVERY == WRITE_EVERY - 1 {
                    ReplayOp::Write(writes.next(env))
                } else {
                    let slot = pool.draw(i, &mut rng);
                    ReplayOp::Read(pool.requests[slot].0, pool.bodies[slot].clone())
                }
            })
            .collect();
        let sample = search_sample(&pool.requests);
        proof_failures = traced_layers(
            ctx,
            &mut layers,
            &served.engine.handle(),
            &ops,
            &sample,
            2,
            &measured.records,
        );
    }
    let end = Counters::take(&served.engine);
    let outcome = finish(
        o,
        &served,
        &measured,
        &setups,
        peak_rss,
        layers,
        (&before, &window_end, &end),
        proof_failures,
    );
    churn_parity(outcome, env, served, &pool)
}

/// The mutation-parity oracle at the end of churn: the served engine
/// answers every pool entry like a fresh engine rebuilt from its final
/// dataset, byte for byte, except MaxRS.  After churn the 2-shard engine
/// can return a different tied MaxRS region than a rebuild (seed 1: the
/// same count, the anchor shifted along x at the extent's top edge), so a
/// MaxRS answer passes when its count equals the rebuild's and the final
/// dataset confirms it: the count lies between the objects strictly inside
/// its region and those inside or on its boundary.  Both bounds are needed
/// because the engine can report the anchor on the edge of its optimal
/// cell: at the extent's top edge (seed 1) a region claiming 53 objects
/// holds 5 strictly, on a fresh rebuild too, with 48 on its boundary.  A
/// tied region passes, a wrong one fails, and ties are reported as a note.
fn churn_parity(mut o: Outcome, env: &Env, served: Served, pool: &Pool) -> Outcome {
    let Served {
        server,
        engine,
        persist,
    } = served;
    server.shutdown();
    let dataset = engine.dataset();
    let fresh = AsrsEngine::builder((*dataset).clone(), env.agg.clone())
        .build_index(crate::setup::GRID, crate::setup::GRID)
        .shards(2)
        .build()
        .expect("fresh engine builds");
    let mut tied = 0;
    for (slot, (_, request)) in pool.requests.iter().enumerate() {
        let differs = match (engine.submit(request), fresh.submit(request)) {
            (Ok(a), Ok(b)) => match (a.max_rs(), b.max_rs()) {
                (Some(x), Some(y)) => {
                    let strict = dataset.count_strictly_in(&x.region);
                    let closed = dataset
                        .objects()
                        .filter(|obj| x.region.contains_point(&obj.location))
                        .count();
                    tied += usize::from(x.count == y.count && canonical(&a) != canonical(&b));
                    (x.count != y.count || x.count < strict || x.count > closed).then(|| {
                        format!(
                            "MaxRS count {} against {} rebuilt; its region holds {strict} \
                             objects strictly, {closed} with its boundary",
                            x.count, y.count
                        )
                    })
                }
                _ => (canonical(&a) != canonical(&b)).then(|| "answer bytes".to_string()),
            },
            (a, b) => Some(format!("served ok {}, rebuilt ok {}", a.is_ok(), b.is_ok())),
        };
        if let Some(why) = differs {
            o.check(
                false,
                format!("churn pool slot {slot} differs from a fresh rebuild: {why}"),
            );
        }
    }
    if tied > 0 {
        o.notes.push(format!(
            "{tied} MaxRS answers are another tied region than a fresh rebuild's"
        ));
    }
    let failures = engine.cache_stats().map_or(0, |s| s.carry_proof_failures);
    o.check(failures == 0, format!("{failures} carry proof failures"));
    drop(persist);
    o
}

/// The churn persistence directory: a cold-start snapshot, then
/// `WAL_TAIL` writes left in the log for every boot to replay.
fn prepare_persist_dir(ctx: &Ctx, dir: &std::path::Path) {
    let _ = std::fs::remove_dir_all(dir);
    let live = ctx
        .env
        .builder(2, 0)
        .persist_dir(dir)
        .compaction_threshold(COMPACTION_FRAMES)
        .build()
        .expect("churn persistence directory initialises");
    let mut writes = WriteStream::new(ctx.seed, 80);
    for _ in 0..WAL_TAIL {
        let w = writes.next(&ctx.env);
        assert!(w.apply(&live.handle()), "WAL tail write applies");
    }
}

#[allow(clippy::too_many_arguments)]
fn finish(
    mut o: Outcome,
    served: &Served,
    measured: &Measured,
    setups: &[SetupTime],
    peak_rss: f64,
    mut layers: Metrics,
    counters: (&Counters, &Counters, &Counters),
    probe_proof_failures: u64,
) -> Outcome {
    end_to_end(&mut o, measured, setups, peak_rss);
    if !layers.0.is_empty() {
        counter_metrics(&mut layers, counters.0, counters.1, counters.2, served);
        let served_failures = served
            .engine
            .cache_stats()
            .map_or(0, |s| s.carry_proof_failures);
        layers.add(
            "carry.proof_failures",
            (served_failures + probe_proof_failures) as f64,
            "count",
        );
        o.check(
            served_failures + probe_proof_failures == 0,
            "carry proofs failed",
        );
        if let Some(p) = &served.persist {
            let stats = p.stats();
            o.notes.push(format!(
                "persistence: {} snapshots written, {} WAL fsyncs",
                stats.snapshots_written, stats.fsyncs
            ));
        }
        o.metrics.0.extend(layers.0);
    }
    o
}
