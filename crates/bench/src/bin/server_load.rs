//! Load generator for the `asrs-server` serving layer.
//!
//! Boots an engine plus server in-process, then drives it over real
//! sockets with keep-alive HTTP clients issuing a mixed workload drawn
//! from a fixed request pool (so repeats exercise the query-result cache).
//! Writes `BENCH_server.json` with throughput, latency percentiles and the
//! cache hit rate — the serving-side companion to the paper-figure
//! benchmarks.
//!
//! ```text
//! server_load [--smoke] [--objects N] [--clients C] [--requests R]
//!             [--cache N] [--shards S] [--append-every A] [--batch B]
//!             [--rate R[,R2,..]] [--persist-dir PATH] [--boot-bench]
//!             [--boot-objects N] [--out PATH]
//! ```
//!
//! Without `--shards` one row is written (a single JSON object, as
//! before).  With `--shards S` the same workload is measured twice — once
//! unsharded, once on an `EngineBuilder::shards(S)` engine — and the file
//! holds a JSON array of the two rows, making the sharding axis directly
//! comparable.
//!
//! `--append-every A` adds a *mixed read/append* row: every client issues
//! a `POST /append` (a fresh object with a unique id) after every `A`
//! queries, so the measured window spans live generational mutations —
//! cache hit rate under churn, mutation throughput and the final engine
//! generation are reported.  A second mixed row repeats the run with
//! `POST /append_batch` payloads of `--batch B` objects (default 16) in
//! place of the solo appends, measuring the bulk-ingest path: one commit
//! (one generation, one WAL fsync) per payload.
//!
//! The worker pool is sized from `--clients` (never below the config
//! default), so a C-client run is actually served by ≥ C workers — the
//! committed open-loop sweep once ran every client against a single
//! worker, which measured the queue, not the engine.
//!
//! `--rate R` switches the generator from closed-loop (send, wait, send)
//! to **open-loop** (constant aggregate rate of `R` requests/second split
//! evenly across clients).  Each request has a *scheduled* start time and
//! latency is measured from the schedule, not from the actual send —
//! closed-loop latencies silently pause the clock while the server makes
//! the client wait (coordinated omission), so they understate
//! latency-under-saturation; the open-loop numbers do not.  A
//! comma-separated list (`--rate 100,200,400`) sweeps the offered rate and
//! emits one row per point — the latency-vs-offered-rate curve.
//!
//! `--persist-dir PATH` boots every phase's engine through the
//! `asrs-persist` subsystem (snapshot + write-ahead log under `PATH`),
//! attaches the handle to the server (so `POST /snapshot` and the
//! persistence counters in `/metrics` are live), and smoke-checks both.
//!
//! `--boot-bench` adds a boot-time row: a live engine serves a stream of
//! acknowledged mutations and checkpoints, then its current state is
//! recovered two ways — a snapshot boot, and a build-from-scratch that
//! re-parses the text file, rebuilds the index, and re-applies every
//! mutation the snapshot folded in.  The row reports both durations,
//! their ratio, and a bit-identity check between the two engines (full
//! response parity is also replayed at ≤100k objects).  At 1M+ objects
//! the snapshot boot must win by ≥10×.
//! `--boot-objects N` sizes the boot-bench dataset independently of the
//! serving phases, so one invocation can serve at 10k objects and still
//! measure boot time at 1M.
//!
//! Cache metrics are reported per phase: the cache-identity probe that
//! precedes the measured run warms the cache, so the steady-state hit rate
//! is computed from the *delta* of the cache counters across the measured
//! window rather than the lifetime totals (which would let warm-up hits
//! inflate the number).
//!
//! `--smoke` shrinks everything to a boot → one-round-trip → clean-shutdown
//! check suitable for CI.  The process exits non-zero on any protocol
//! error, non-200 response, or a cached response that is not byte-identical
//! to its cold computation.

use asrs_bench::report::Table;
use asrs_bench::workloads::Workload;
use asrs_core::{AsrsEngine, QueryRequest};
use asrs_geo::RegionSize;
use asrs_persist::PersistExt;
use asrs_server::{AsrsServer, HttpClient, ServerConfig};
use serde::Serialize;
use std::net::SocketAddr;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Args {
    smoke: bool,
    objects: usize,
    clients: usize,
    requests_per_client: usize,
    cache_capacity: usize,
    shards: usize,
    /// Issue one append per client after every N queries (0 = read-only).
    append_every: usize,
    /// Objects per `/append_batch` payload in the bulk-ingest row.
    batch: usize,
    /// Open-loop aggregate request rates in req/s (empty = closed loop
    /// only; several values sweep the offered-rate axis).
    rates: Vec<usize>,
    /// Boot every phase through the persistence subsystem rooted here.
    persist_dir: Option<String>,
    /// Measure boot-from-snapshot vs build-from-scratch.
    boot_bench: bool,
    /// Dataset size for the boot bench; defaults to `objects`.
    boot_objects: Option<usize>,
    out: String,
}

impl Args {
    fn parse() -> Args {
        let mut args = Args {
            smoke: false,
            objects: 20_000,
            clients: 4,
            requests_per_client: 200,
            cache_capacity: 1024,
            shards: 0,
            append_every: 0,
            batch: 16,
            rates: Vec::new(),
            persist_dir: None,
            boot_bench: false,
            boot_objects: None,
            out: "BENCH_server.json".to_string(),
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut num = |name: &str| -> usize {
                it.next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| panic!("{name} expects a number"))
            };
            match flag.as_str() {
                "--smoke" => args.smoke = true,
                "--objects" => args.objects = num("--objects"),
                "--clients" => args.clients = num("--clients"),
                "--requests" => args.requests_per_client = num("--requests"),
                "--cache" => args.cache_capacity = num("--cache"),
                "--shards" => args.shards = num("--shards"),
                "--append-every" => args.append_every = num("--append-every"),
                "--batch" => args.batch = num("--batch"),
                "--rate" => {
                    let list = it.next().expect("--rate expects a number or comma list");
                    args.rates = list
                        .split(',')
                        .map(|v| {
                            v.trim()
                                .parse()
                                .unwrap_or_else(|_| panic!("--rate got {v:?}, want a number"))
                        })
                        .collect();
                }
                "--persist-dir" => {
                    args.persist_dir = Some(it.next().expect("--persist-dir expects a path"));
                }
                "--boot-bench" => args.boot_bench = true,
                "--boot-objects" => args.boot_objects = Some(num("--boot-objects")),
                "--out" => args.out = it.next().expect("--out expects a path"),
                other => panic!("unknown flag {other:?}"),
            }
        }
        if args.smoke {
            args.objects = args.objects.min(2_000);
            args.boot_objects = args.boot_objects.map(|n| n.min(2_000));
            args.clients = args.clients.min(2);
            args.requests_per_client = args.requests_per_client.min(20);
        }
        args
    }
}

/// A fixed pool of mixed requests; clients cycle through it, so every
/// request past the first pool lap is a cache hit.
fn request_pool(workload: Workload, engine: &AsrsEngine) -> Vec<QueryRequest> {
    let dataset = engine.dataset();
    let dataset = &*dataset;
    let mut pool = Vec::new();
    for k in [10.0, 20.0, 40.0, 80.0] {
        pool.push(QueryRequest::similar(workload.query(dataset, k)));
    }
    pool.push(QueryRequest::top_k(workload.query(dataset, 25.0), 3));
    pool.push(QueryRequest::approximate(
        workload.query(dataset, 30.0),
        0.25,
    ));
    pool.push(QueryRequest::batch(vec![
        workload.query(dataset, 15.0),
        workload.query(dataset, 35.0),
    ]));
    pool.push(QueryRequest::similar(workload.query(dataset, 50.0)).with_budget_ms(120_000));
    let bbox = dataset
        .bounding_box()
        .expect("generated dataset is non-empty");
    pool.push(QueryRequest::max_rs(RegionSize::new(
        bbox.width() / 50.0,
        bbox.height() / 50.0,
    )));
    pool
}

#[derive(Debug, Default)]
struct ClientOutcome {
    latencies_us: Vec<u64>,
    mutations_applied: usize,
    http_errors: usize,
    protocol_errors: usize,
}

/// One client's work order: the shared query pool, its own append bodies
/// (unique ids), and — in open-loop mode — the fixed schedule its sends
/// must follow regardless of how slowly the server answers.
struct ClientPlan<'a> {
    addr: SocketAddr,
    bodies: &'a [String],
    offset: usize,
    requests: usize,
    /// Issue `append_bodies[j]` after every `append_every` queries
    /// (0 = read-only client).
    append_every: usize,
    append_bodies: Vec<String>,
    /// Mutation endpoint the append bodies target: `/append` (one object
    /// per request) or `/append_batch` (`append_objects` per request).
    append_path: &'static str,
    /// Objects each accepted append request ingests.
    append_objects: usize,
    /// Open-loop schedule: request `i` is *due* at `start + i · interval`,
    /// and its latency is measured from that due time.  `None` = closed
    /// loop (latency from the actual send).
    schedule: Option<(Instant, f64)>,
}

fn drive_client(plan: ClientPlan<'_>) -> ClientOutcome {
    let mut outcome = ClientOutcome::default();
    let Ok(mut client) = HttpClient::connect(plan.addr) else {
        outcome.protocol_errors += 1;
        return outcome;
    };
    let mut next_append = 0usize;
    for i in 0..plan.requests {
        // Open loop: wait for the scheduled send time (if the server is
        // behind, don't wait — the backlog is exactly what we measure),
        // and clock the request from the schedule.
        let scheduled = plan.schedule.map(|(start, interval_s)| {
            let due = start + std::time::Duration::from_secs_f64(interval_s * i as f64);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            due
        });
        let is_append = plan.append_every > 0
            && i > 0
            && i % plan.append_every == 0
            && next_append < plan.append_bodies.len();
        let (path, body) = if is_append {
            let body = &plan.append_bodies[next_append];
            next_append += 1;
            (plan.append_path, body)
        } else {
            (
                "/query",
                &plan.bodies[(plan.offset + i) % plan.bodies.len()],
            )
        };
        let started = Instant::now();
        match client.request("POST", path, body) {
            Ok((200, _)) => {
                if is_append {
                    outcome.mutations_applied += plan.append_objects;
                } else {
                    let from = scheduled.unwrap_or(started);
                    outcome.latencies_us.push(from.elapsed().as_micros() as u64);
                }
            }
            Ok((status, response)) => {
                eprintln!("unexpected status {status}: {response}");
                outcome.http_errors += 1;
            }
            Err(e) => {
                eprintln!("protocol error: {e}");
                outcome.protocol_errors += 1;
                // Reconnect and keep going; a load generator should not
                // stop at the first hiccup.
                match HttpClient::connect(plan.addr) {
                    Ok(fresh) => client = fresh,
                    Err(_) => return outcome,
                }
            }
        }
    }
    outcome
}

fn percentile(sorted_us: &[u64], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let rank = ((sorted_us.len() as f64 * p).ceil() as usize).clamp(1, sorted_us.len());
    sorted_us[rank - 1] as f64 / 1000.0
}

#[derive(Debug, Serialize)]
struct BenchReport {
    benchmark: String,
    smoke: bool,
    objects: usize,
    clients: usize,
    requests_per_client: usize,
    cache_capacity: usize,
    shards: usize,
    /// One append per client after every N queries (0 = read-only phase).
    append_every: usize,
    /// Objects per mutation request: 0 = read-only phase, 1 = solo
    /// `POST /append`, >1 = `POST /append_batch` payloads of this size
    /// (each one atomic commit — one generation, one WAL fsync).
    ingest_batch_size: usize,
    /// Open-loop aggregate request rate in req/s (0 = closed loop); when
    /// set, latencies are measured from the schedule, so queueing delay
    /// under saturation is included (no coordinated omission).
    open_loop_rate_rps: usize,
    server_workers: usize,
    requests_total: usize,
    /// Appends applied during the measured window.
    mutations_applied: usize,
    /// Engine generation when the measured window closed.
    final_generation: u64,
    http_errors: usize,
    protocol_errors: usize,
    elapsed_ms: f64,
    throughput_rps: f64,
    latency_ms_p50: f64,
    latency_ms_p99: f64,
    latency_ms_mean: f64,
    latency_ms_max: f64,
    /// Cache counters of the measured (steady-state) window only; the
    /// warm-up probe's hit and misses are reported separately below.
    cache_hits: u64,
    cache_misses: u64,
    cache_hit_rate: f64,
    warmup_cache_hits: u64,
    warmup_cache_misses: u64,
    cached_response_byte_identical: bool,
}

/// Runs one measured serving phase (build → probe → load → metrics →
/// shutdown) with the given shard count (`0` = classic single engine),
/// mutation mix (`append_every` queries per append, `0` = read-only;
/// `batch` > 1 switches the appends to `/append_batch` payloads of that
/// many objects), and offered rate (`0` = closed loop).
fn run_phase(
    args: &Args,
    shards: usize,
    append_every: usize,
    batch: usize,
    rate: usize,
) -> BenchReport {
    let workload = Workload::Tweet;
    eprintln!(
        "building engine: {} objects, cache capacity {}, shards {}, append-every {} (x{}), rate {} ...",
        args.objects, args.cache_capacity, shards, append_every, batch.max(1), rate
    );
    let dataset = workload.dataset(args.objects, 42);
    let aggregator = workload.aggregator(&dataset);
    let mut builder = AsrsEngine::builder(dataset, aggregator)
        .build_index(32, 32)
        .cache_capacity(args.cache_capacity);
    if shards > 0 {
        builder = builder.shards(shards);
    }
    // With a persistence root every phase gets its own subdirectory, so
    // each phase starts from the seed rather than from the history an
    // earlier phase left behind.
    let (engine, persist) = match &args.persist_dir {
        Some(root) => {
            let dir = format!("{root}/phase-s{shards}-a{append_every}-r{rate}");
            let persistent = builder
                .persist_dir(&dir)
                .build()
                .expect("persistent engine boots");
            let (engine, handle, boot) = persistent.into_parts();
            eprintln!(
                "persistence at {dir}: cold_start={} replayed={}",
                boot.cold_start, boot.replayed_entries
            );
            (engine, Some(handle))
        }
        None => (builder.build().expect("engine builds"), None),
    };
    let pool = request_pool(workload, &engine);
    let bodies: Vec<String> = pool.iter().map(serde::json::to_string).collect();

    // Size the worker pool from the client count (never below the config
    // default): a C-client load otherwise serializes behind however many
    // workers `available_parallelism` happened to report — the committed
    // open-loop sweep once measured 4 clients against 1 worker.
    let mut config = ServerConfig::default();
    config.workers = config.workers.max(args.clients);
    let server_workers = config.workers;
    let mut server =
        AsrsServer::bind(engine.handle(), "127.0.0.1:0", config).expect("server binds");
    if let Some(handle) = &persist {
        server = server.with_persistence(handle.clone());
    }
    let server = server.start().expect("server starts");
    let addr = server.addr();
    eprintln!("serving on http://{addr}");

    // Persistence smoke: POST /snapshot must answer 200 and the metrics
    // payload must carry the persistence counters.
    if persist.is_some() {
        let mut probe = HttpClient::connect(addr).expect("snapshot client connects");
        let (status, body) = probe.request("POST", "/snapshot", "").expect("snapshot");
        assert_eq!(status, 200, "POST /snapshot must answer 200: {body}");
        let (_, metrics) = probe.request("GET", "/metrics", "").expect("metrics");
        assert!(
            metrics.contains("\"persistence\":{"),
            "metrics must expose persistence counters"
        );
    }

    // Cache identity check: the same request issued cold and warm must
    // produce byte-identical response bodies (acceptance criterion).
    let mut probe = HttpClient::connect(addr).expect("probe client connects");
    let (s1, cold) = probe
        .request("POST", "/query", &bodies[0])
        .expect("cold probe");
    let (s2, warm) = probe
        .request("POST", "/query", &bodies[0])
        .expect("warm probe");
    let identical = s1 == 200 && s2 == 200 && cold == warm;
    drop(probe);

    // Flush the warm-up phase: counters accumulated so far belong to the
    // probe, not to the measured window.
    let warmup = engine.cache_stats().expect("engine has a cache");

    // Per-client append bodies: unique ids, locations spread over the
    // extent, attribute values copied from a real object (schema-valid).
    let template = engine.dataset().object(0).values.clone();
    let bbox = engine.dataset().bounding_box().expect("non-empty dataset");
    let fresh_object = |client: usize, seq: usize| -> asrs_data::SpatialObject {
        let id = 10_000_000 + (client as u64) * 100_000 + seq as u64;
        let f = ((client * 131 + seq * 17) % 97) as f64 / 97.0;
        let g = ((client * 29 + seq * 43) % 89) as f64 / 89.0;
        asrs_data::SpatialObject::new(
            id,
            asrs_geo::Point::new(
                bbox.min_x + bbox.width() * f,
                bbox.min_y + bbox.height() * g,
            ),
            template.clone(),
        )
    };
    let append_bodies_for = |client: usize| -> Vec<String> {
        if append_every == 0 {
            return Vec::new();
        }
        let count = args.requests_per_client / append_every + 1;
        (0..count)
            .map(|j| {
                if batch > 1 {
                    let items: Vec<String> = (0..batch)
                        .map(|b| {
                            let object = fresh_object(client, j * batch + b);
                            format!("{{\"object\":{}}}", serde::json::to_string(&object))
                        })
                        .collect();
                    format!("{{\"items\":[{}]}}", items.join(","))
                } else {
                    format!(
                        "{{\"object\":{}}}",
                        serde::json::to_string(&fresh_object(client, j))
                    )
                }
            })
            .collect()
    };

    // Open-loop schedule: the aggregate rate splits evenly across clients
    // and every client's clock starts at the same instant.
    let open_loop_start = Instant::now();
    let per_client_interval_s = if rate > 0 {
        Some(args.clients as f64 / rate as f64)
    } else {
        None
    };

    let started = Instant::now();
    let outcomes: Vec<ClientOutcome> = std::thread::scope(|scope| {
        (0..args.clients)
            .map(|c| {
                let bodies = &bodies;
                let append_bodies = append_bodies_for(c);
                scope.spawn(move || {
                    drive_client(ClientPlan {
                        addr,
                        bodies,
                        offset: c * 3,
                        requests: args.requests_per_client,
                        append_every,
                        append_bodies,
                        append_path: if batch > 1 {
                            "/append_batch"
                        } else {
                            "/append"
                        },
                        append_objects: batch.max(1),
                        schedule: per_client_interval_s.map(|s| (open_loop_start, s)),
                    })
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|j| j.join().expect("client thread"))
            .collect()
    });
    let elapsed = started.elapsed();
    let final_generation = engine.generation();

    // Read /metrics over the wire (smoke for the endpoint), but take the
    // authoritative numbers from the in-process handle.
    let mut probe = HttpClient::connect(addr).expect("metrics client connects");
    let (metrics_status, metrics_body) = probe.request("GET", "/metrics", "").expect("metrics");
    assert_eq!(metrics_status, 200, "GET /metrics must answer 200");
    if shards > 0 {
        assert!(
            metrics_body.contains("\"shard_count\""),
            "sharded engines must expose per-shard counters: {metrics_body}"
        );
    }
    drop(probe);
    let metrics = server.metrics();
    server.shutdown();

    let mut latencies: Vec<u64> = outcomes
        .iter()
        .flat_map(|o| o.latencies_us.iter().copied())
        .collect();
    latencies.sort_unstable();
    let http_errors: usize = outcomes.iter().map(|o| o.http_errors).sum();
    let protocol_errors: usize = outcomes.iter().map(|o| o.protocol_errors).sum();
    let cache = metrics.cache.expect("engine has a cache");
    // Steady-state counters: lifetime totals minus the warm-up probe.
    let steady_hits = cache.hits - warmup.hits;
    let steady_misses = cache.misses - warmup.misses;
    let steady_lookups = steady_hits + steady_misses;

    let mutations_applied: usize = outcomes.iter().map(|o| o.mutations_applied).sum();

    BenchReport {
        benchmark: "server_load".to_string(),
        smoke: args.smoke,
        objects: args.objects,
        clients: args.clients,
        requests_per_client: args.requests_per_client,
        cache_capacity: args.cache_capacity,
        shards,
        append_every,
        ingest_batch_size: if append_every > 0 { batch.max(1) } else { 0 },
        open_loop_rate_rps: rate,
        server_workers,
        requests_total: args.clients * args.requests_per_client,
        mutations_applied,
        final_generation,
        http_errors,
        protocol_errors,
        elapsed_ms: elapsed.as_secs_f64() * 1000.0,
        throughput_rps: latencies.len() as f64 / elapsed.as_secs_f64().max(1e-9),
        latency_ms_p50: percentile(&latencies, 0.50),
        latency_ms_p99: percentile(&latencies, 0.99),
        latency_ms_mean: latencies.iter().sum::<u64>() as f64
            / 1000.0
            / latencies.len().max(1) as f64,
        latency_ms_max: latencies.last().copied().unwrap_or(0) as f64 / 1000.0,
        cache_hits: steady_hits,
        cache_misses: steady_misses,
        cache_hit_rate: if steady_lookups == 0 {
            0.0
        } else {
            steady_hits as f64 / steady_lookups as f64
        },
        warmup_cache_hits: warmup.hits,
        warmup_cache_misses: warmup.misses,
        cached_response_byte_identical: identical,
    }
}

fn print_report(report: &BenchReport) {
    let mut label = if report.shards > 0 {
        format!(
            "Serving load, sharded x{} (mixed workload over HTTP/1.1 keep-alive)",
            report.shards
        )
    } else {
        "Serving load (mixed workload over HTTP/1.1 keep-alive)".to_string()
    };
    if report.append_every > 0 {
        if report.ingest_batch_size > 1 {
            label.push_str(&format!(
                " + 1 batch of {} per {} queries (/append_batch)",
                report.ingest_batch_size, report.append_every
            ));
        } else {
            label.push_str(&format!(" + 1 append per {} queries", report.append_every));
        }
    }
    if report.open_loop_rate_rps > 0 {
        label.push_str(&format!(
            " [open loop @ {} req/s]",
            report.open_loop_rate_rps
        ));
    }
    let mut table = Table::new(&label, &["metric", "value"]);
    table.row(vec![
        "requests ok".into(),
        (report.requests_total - report.http_errors - report.protocol_errors).to_string(),
    ]);
    table.row(vec![
        "throughput".into(),
        format!("{:.0} req/s", report.throughput_rps),
    ]);
    table.row(vec![
        "latency p50 / p99".into(),
        format!(
            "{:.2} ms / {:.2} ms",
            report.latency_ms_p50, report.latency_ms_p99
        ),
    ]);
    table.row(vec![
        "cache hit rate (steady state)".into(),
        format!(
            "{:.1}% ({} / {})",
            report.cache_hit_rate * 100.0,
            report.cache_hits,
            report.cache_hits + report.cache_misses
        ),
    ]);
    if report.append_every > 0 {
        table.row(vec![
            "mutations applied / final generation".into(),
            format!("{} / {}", report.mutations_applied, report.final_generation),
        ]);
    }
    table.row(vec![
        "errors (http / protocol)".into(),
        format!("{} / {}", report.http_errors, report.protocol_errors),
    ]);
    table.print();
}

fn check_phase(report: &BenchReport) -> bool {
    let mut ok = true;
    if report.http_errors > 0 || report.protocol_errors > 0 {
        eprintln!("FAIL: the run saw errors (shards {})", report.shards);
        ok = false;
    }
    if !report.cached_response_byte_identical {
        eprintln!(
            "FAIL: cached response differed from the cold computation (shards {})",
            report.shards
        );
        ok = false;
    }
    if report.append_every == 0 && report.cache_hits == 0 {
        // A read-only repeated workload must hit; under churn every
        // mutation moves the engine to a fresh (generation-stamped) key
        // space, so a low hit rate there is expected, not a failure.
        eprintln!(
            "FAIL: a repeated workload must produce cache hits (shards {})",
            report.shards
        );
        ok = false;
    }
    if report.append_every > 0 {
        if report.mutations_applied == 0 {
            eprintln!("FAIL: the mixed phase applied no mutation");
            ok = false;
        }
        // Group commit folds concurrent mutations (and whole /append_batch
        // payloads) into one published generation, so the generation counts
        // *batches*: it must move, and it can never exceed the object count.
        if report.final_generation == 0 {
            eprintln!("FAIL: mutations were applied but the generation never moved");
            ok = false;
        }
        if report.final_generation > report.mutations_applied as u64 {
            eprintln!(
                "FAIL: generation {} > mutations {} (more publishes than objects ingested)",
                report.final_generation, report.mutations_applied
            );
            ok = false;
        }
    }
    ok
}

/// The boot-time row: recover the engine's *current* state — the seed
/// dataset plus every acknowledged mutation — two ways and time both.
///
/// * **Boot from snapshot**: what a `--persist-dir` server does after a
///   restart.  The background compaction pump keeps the latest snapshot
///   current, so boot reads one file, restores dataset columns and index
///   base tables without re-indexing, and replays the (empty) WAL tail.
/// * **Build from scratch**: what a server without persistence must do
///   to reach the same state — re-parse the dataset text file, rebuild
///   the index, then re-apply all `mutations_folded` acknowledged
///   mutations one by one.  There is no other path to the mutated state,
///   and each mutation publishes a full generation (the PR 5 write
///   path), which is exactly the work the snapshot folds in for free.
///
/// Recovery fidelity: the booted engine must match the rebuilt engine
/// **bit for bit** — same generation, identical object vectors, identical
/// index base tables (the suffix table is a pure function of the base).
/// Up to 100k objects the check additionally
/// replays the full mixed request pool on both engines and compares the
/// responses byte-for-byte (`stats_stripped`); past that scale a single
/// similar-region search runs for minutes on clustered data (the ROADMAP
/// AQP item), so the bit-level state check carries the parity claim.
#[derive(Debug, Serialize)]
struct BootBenchReport {
    benchmark: String,
    smoke: bool,
    objects: usize,
    /// Acknowledged mutations folded into the snapshot, which the
    /// build-from-scratch side must re-apply one generation at a time.
    mutations_folded: u64,
    /// Snapshot file size in bytes.
    snapshot_bytes: u64,
    /// Parse the text dataset + build the engine (index included) +
    /// re-apply the `mutations_folded` mutations.
    rebuild_ms: f64,
    /// Boot from the snapshot (read + restore, no re-indexing, empty WAL
    /// tail).
    boot_from_snapshot_ms: f64,
    /// `rebuild_ms / boot_from_snapshot_ms`.
    speedup: f64,
    /// The restored engine is bit-identical to the rebuilt one (and, at
    /// ≤100k objects, answers the request pool byte-identically).
    boot_byte_identical: bool,
}

/// One recorded live mutation, re-applied verbatim by the rebuild side.
enum RecordedMutation {
    Append(asrs_data::SpatialObject),
    Remove(u64),
}

/// Bit-level equality of two exported engine images: generation, object
/// vector, and index base table.
fn states_identical(a: &asrs_core::EngineState, b: &asrs_core::EngineState) -> bool {
    fn index_eq(x: Option<&asrs_core::GridIndex>, y: Option<&asrs_core::GridIndex>) -> bool {
        match (x, y) {
            (None, None) => true,
            (Some(x), Some(y)) => {
                x.granularity() == y.granularity()
                    && x.spec().space() == y.spec().space()
                    && x.stats_dim() == y.stats_dim()
                    && x.objects_indexed() == y.objects_indexed()
                    && x.base_table() == y.base_table()
            }
            _ => false,
        }
    }
    a.generation == b.generation
        && *a.dataset == *b.dataset
        && index_eq(a.index.as_deref(), b.index.as_deref())
}

fn run_boot_bench(args: &Args) -> BootBenchReport {
    let workload = Workload::Tweet;
    let objects = args.boot_objects.unwrap_or(args.objects);
    let mutations: u64 = if args.smoke { 4 } else { 64 };
    eprintln!("boot bench: generating {objects} objects ...");
    let dataset = workload.dataset(objects, 42);
    let schema = dataset.schema().clone();
    let bbox = dataset
        .bounding_box()
        .expect("boot bench dataset is non-empty");

    let scratch = match &args.persist_dir {
        Some(root) => std::path::PathBuf::from(root).join("boot-bench"),
        None => std::env::temp_dir().join(format!("asrs-boot-bench-{}", std::process::id())),
    };
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).expect("scratch directory");
    let text_path = scratch.join("dataset.txt");
    asrs_data::io::save(&dataset, &text_path).expect("dataset saved");

    // Live phase (untimed): a persistent engine seeds its cold snapshot,
    // then serves a stream of acknowledged mutations — appends spread over
    // the extent with an occasional removal, every one fsync'd to the WAL.
    let snap_dir = scratch.join("persist");
    // Scale the grid with the dataset: ~16 objects per cell keeps index
    // pruning effective (a 32×32 grid at 1M objects averages ~1000 objects
    // per cell, which defeats the GI-DS bounds and degrades every
    // verification query to a near-naive scan).
    let side = ((objects as f64).sqrt() / 4.0).clamp(32.0, 256.0) as usize;
    let builder = |ds: asrs_data::Dataset| {
        let aggregator = workload.aggregator(&ds);
        AsrsEngine::builder(ds, aggregator)
            .build_index(side, side)
            .cache_capacity(args.cache_capacity)
    };
    let live = builder(dataset)
        .persist_dir(&snap_dir)
        .build()
        .expect("live engine boots cold");
    let template = live.engine().dataset().object(0).values.clone();
    let mut recorded: Vec<RecordedMutation> = Vec::new();
    eprintln!("boot bench: applying {mutations} acknowledged mutations ...");
    for i in 0..mutations {
        if i % 8 == 7 {
            // Remove the append from two steps ago (always present).
            let id = 900_000_000 + i - 2;
            live.engine().remove(id).expect("live remove");
            recorded.push(RecordedMutation::Remove(id));
        } else {
            let f = (i as f64 + 0.5) / mutations as f64;
            let object = asrs_data::SpatialObject::new(
                900_000_000 + i,
                asrs_geo::Point::new(
                    bbox.min_x + f * (bbox.max_x - bbox.min_x),
                    bbox.min_y + (1.0 - f) * (bbox.max_y - bbox.min_y),
                ),
                template.clone(),
            );
            live.engine().append(object.clone()).expect("live append");
            recorded.push(RecordedMutation::Append(object));
        }
    }
    let generation = live.engine().generation();
    assert_eq!(generation, mutations, "every mutation publishes once");
    // Steady state: the compaction pump folds the tail into a snapshot
    // (here forced explicitly) and truncates the log.
    let snapshot = live.snapshot().expect("checkpoint");
    let snapshot_bytes = snapshot.bytes;
    drop(live); // crash

    // Boot side (timed): restore the snapshot.  The seed dataset is an
    // empty shell (schema only) — a real boot has no objects in hand, and
    // the restore path never reads the seed.
    let empty = asrs_data::Dataset::new_unchecked(schema, Vec::new());
    let started = Instant::now();
    let booted = builder(empty)
        .persist_dir(&snap_dir)
        .build()
        .expect("engine boots from snapshot");
    let boot_ms = started.elapsed().as_secs_f64() * 1000.0;
    let boot = booted.boot();
    assert!(!boot.cold_start, "the checkpoint snapshot must be used");
    assert_eq!(boot.replayed_entries, 0, "the checkpoint compacted the log");
    assert_eq!(booted.engine().generation(), generation);
    eprintln!("boot bench: snapshot boot took {boot_ms:.0} ms, rebuilding from scratch ...");

    // Rebuild side (timed): parse the text file, build the index, re-apply
    // every acknowledged mutation.
    let started = Instant::now();
    let reloaded = asrs_data::io::load(&text_path).expect("dataset loads");
    let rebuilt = builder(reloaded).build().expect("engine rebuilds");
    for mutation in &recorded {
        match mutation {
            RecordedMutation::Append(object) => rebuilt.append(object.clone()),
            RecordedMutation::Remove(id) => rebuilt.remove(*id),
        }
        .expect("replayed mutation");
    }
    let rebuild_ms = started.elapsed().as_secs_f64() * 1000.0;
    assert_eq!(rebuilt.generation(), generation);
    eprintln!("boot bench: rebuild took {rebuild_ms:.0} ms, verifying bit-identity ...");

    // Bit-level identity always; response byte-identity while queries are
    // tractable (see the struct docs).
    let mut boot_byte_identical =
        states_identical(&rebuilt.export_state(), &booted.engine().export_state());
    if boot_byte_identical && objects <= 100_000 {
        let pool = request_pool(workload, &rebuilt);
        boot_byte_identical = pool.iter().all(|request| {
            let a = rebuilt.submit(request).expect("rebuilt engine answers");
            let b = booted
                .engine()
                .submit(request)
                .expect("booted engine answers");
            serde::json::to_string(&a.stats_stripped())
                == serde::json::to_string(&b.stats_stripped())
        });
    }

    if args.persist_dir.is_none() {
        let _ = std::fs::remove_dir_all(&scratch);
    }
    BootBenchReport {
        benchmark: "server_boot".to_string(),
        smoke: args.smoke,
        objects,
        mutations_folded: mutations,
        snapshot_bytes,
        rebuild_ms,
        boot_from_snapshot_ms: boot_ms,
        speedup: rebuild_ms / boot_ms.max(1e-9),
        boot_byte_identical,
    }
}

fn print_boot_report(report: &BootBenchReport) {
    let mut table = Table::new(
        &format!("Boot time at {} objects", report.objects),
        &["metric", "value"],
    );
    table.row(vec![
        format!(
            "rebuild (parse + index + {} mutations)",
            report.mutations_folded
        ),
        format!("{:.0} ms", report.rebuild_ms),
    ]);
    table.row(vec![
        "boot from snapshot".into(),
        format!("{:.0} ms", report.boot_from_snapshot_ms),
    ]);
    table.row(vec!["speedup".into(), format!("{:.1}x", report.speedup)]);
    table.row(vec![
        "snapshot size".into(),
        format!(
            "{:.1} MiB",
            report.snapshot_bytes as f64 / (1024.0 * 1024.0)
        ),
    ]);
    table.row(vec![
        "bit-identical recovery".into(),
        report.boot_byte_identical.to_string(),
    ]);
    table.print();
}

fn check_boot(report: &BootBenchReport) -> bool {
    let mut ok = true;
    if !report.boot_byte_identical {
        eprintln!("FAIL: the booted engine is not bit-identical to the rebuilt engine");
        ok = false;
    }
    // The ≥10x acceptance bar is pinned to the 1M-object row; small smoke
    // datasets boot in microseconds where the ratio is mostly noise.
    if report.objects >= 1_000_000 && report.speedup < 10.0 {
        eprintln!(
            "FAIL: boot from snapshot must beat rebuild by >=10x at 1M objects (got {:.1}x)",
            report.speedup
        );
        ok = false;
    }
    ok
}

fn main() {
    let args = Args::parse();
    let mut reports: Vec<BenchReport> = vec![run_phase(&args, 0, 0, 0, 0)];
    if args.shards > 0 {
        reports.push(run_phase(&args, args.shards, 0, 0, 0));
    }
    if args.append_every > 0 {
        // The mutation rows: same workload, same shard setting as the last
        // read-only phase, with live appends interleaved — once with solo
        // `/append` requests, once with `/append_batch` payloads.
        reports.push(run_phase(&args, args.shards, args.append_every, 1, 0));
        if args.batch > 1 {
            reports.push(run_phase(
                &args,
                args.shards,
                args.append_every,
                args.batch,
                0,
            ));
        }
    }
    // The offered-rate sweep: one open-loop row per requested rate.
    for &rate in &args.rates {
        reports.push(run_phase(&args, args.shards, 0, 0, rate));
    }
    let boot = args.boot_bench.then(|| run_boot_bench(&args));

    // The file holds one object for the single-row legacy shape, otherwise
    // an array; the boot row (a different shape) is appended to the array.
    let mut rows: Vec<String> = reports.iter().map(serde::json::to_string).collect();
    if let Some(boot) = &boot {
        rows.push(serde::json::to_string(boot));
    }
    let json = if rows.len() == 1 {
        rows.pop().expect("one row")
    } else {
        format!("[{}]", rows.join(","))
    };
    std::fs::write(&args.out, json).expect("report written");

    let mut ok = true;
    for report in &reports {
        print_report(report);
        ok &= check_phase(report);
    }
    if let Some(boot) = &boot {
        print_boot_report(boot);
        ok &= check_boot(boot);
    }
    if reports.len() >= 2 && reports[1].shards > 0 {
        let (unsharded, sharded) = (&reports[0], &reports[1]);
        println!(
            "sharded x{} vs unsharded throughput: {:.0} vs {:.0} req/s ({:+.1}%)",
            sharded.shards,
            sharded.throughput_rps,
            unsharded.throughput_rps,
            (sharded.throughput_rps / unsharded.throughput_rps.max(1e-9) - 1.0) * 100.0
        );
    }
    println!("report written to {}", args.out);
    if !ok {
        std::process::exit(1);
    }
    println!("OK");
}
