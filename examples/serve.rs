//! Serving smoke: boot the HTTP server, drive one of every endpoint over a
//! real socket, and shut down cleanly.
//!
//! Run with `cargo run --example serve --release`.  Pass
//! `--persist-dir <path>` to boot the engine through the persistence
//! subsystem: a snapshot + write-ahead log live in that directory, and the
//! server exposes `POST /snapshot` plus persistence counters in `/metrics`.
//!
//! This is the example CI uses as its server smoke step: it exercises the
//! whole serving path — bind, worker pool, JSON round trip, query-result
//! cache, metrics, planner explain, error mapping, shutdown — and exits
//! non-zero if any step misbehaves.

use asrs_suite::prelude::*;

/// The engine, either plain or booted through the persistence subsystem.
enum Boot {
    Plain(AsrsEngine),
    Durable(PersistentEngine),
}

impl Boot {
    fn engine(&self) -> &AsrsEngine {
        match self {
            Boot::Plain(engine) => engine,
            Boot::Durable(persistent) => persistent.engine(),
        }
    }
}

fn main() {
    let mut cli = std::env::args().skip(1);
    let mut persist_dir: Option<String> = None;
    while let Some(arg) = cli.next() {
        match arg.as_str() {
            "--persist-dir" => persist_dir = Some(cli.next().expect("--persist-dir needs a path")),
            other => panic!("unknown flag {other:?} (supported: --persist-dir <path>)"),
        }
    }

    // An engine with a grid index and a query-result cache, shared with the
    // server through a cheap clone.
    let dataset = UniformGenerator::default().generate(5_000, 42);
    let aggregator = CompositeAggregator::builder(dataset.schema())
        .distribution("category", Selection::All)
        .build()
        .expect("schema has a 'category' attribute");
    let builder = AsrsEngine::builder(dataset, aggregator)
        .build_index(64, 64)
        .cache_capacity(256);
    let boot = match &persist_dir {
        Some(dir) => {
            let persistent = builder
                .persist_dir(dir)
                .build()
                .expect("persistent engine boots");
            let report = persistent.boot();
            println!(
                "persistence: {dir} (cold_start={}, replayed {} WAL frames)",
                report.cold_start, report.replayed_entries
            );
            Boot::Durable(persistent)
        }
        None => Boot::Plain(builder.build().expect("valid configuration")),
    };
    let engine = boot.engine();

    let mut server = AsrsServer::bind(engine.handle(), "127.0.0.1:0", ServerConfig::default())
        .expect("server binds an ephemeral port");
    if let Boot::Durable(persistent) = &boot {
        server = server.with_persistence(persistent.persist().clone());
    }
    let server = server.start().expect("server starts");
    println!("serving on http://{}", server.addr());

    let mut client = HttpClient::connect(server.addr()).expect("client connects");

    // One query round trip: serialize a request, POST it, decode the
    // response.
    let query = engine
        .query_from_example(&Rect::new(10.0, 10.0, 30.0, 25.0))
        .expect("non-degenerate example");
    let request = QueryRequest::similar(query).with_budget_ms(30_000);
    let body = serde::json::to_string(&request);
    let (status, response) = client
        .request("POST", "/query", &body)
        .expect("query round-trips");
    assert_eq!(status, 200, "{response}");
    let decoded: QueryResponse = serde::json::from_str(&response).expect("valid response JSON");
    let best = decoded.best().expect("similar yields a best region");
    println!(
        "[{}] best region {} at distance {:.4}",
        decoded.backend, best.region, best.distance
    );

    // The same request again: served from the cache, byte-identical.
    let (status, cached) = client
        .request("POST", "/query", &body)
        .expect("cached round trip");
    assert_eq!(status, 200);
    assert_eq!(cached, response, "cache hit must be byte-identical");
    println!("cache hit is byte-identical to the cold response ✓");

    // The planner's reasoning, without executing.
    let (status, explain) = client
        .request("GET", "/explain", &body)
        .expect("explain round-trips");
    assert_eq!(status, 200, "{explain}");
    println!("explain: {explain}");

    // Metrics: two queries served, one cache hit.
    let (status, metrics) = client.request("GET", "/metrics", "").expect("metrics");
    assert_eq!(status, 200);
    println!("metrics: {metrics}");
    assert!(metrics.contains("\"queries_ok\":2"), "{metrics}");
    assert!(metrics.contains("\"hits\":1"), "{metrics}");

    // Error mapping: a spent deadline answers 408, garbage answers 400.
    let expired = serde::json::to_string(&request.with_budget_ms(0));
    let (status, _) = client
        .request("POST", "/query", &expired)
        .expect("expired round trip");
    assert_eq!(status, 408);
    let (status, _) = client
        .request("POST", "/query", "{broken")
        .expect("garbage round trip");
    assert_eq!(status, 400);
    println!("error statuses map correctly (408 deadline, 400 malformed) ✓");

    // With persistence configured, a snapshot can be forced over HTTP.
    if matches!(boot, Boot::Durable(_)) {
        let (status, body) = client
            .request("POST", "/snapshot", "")
            .expect("snapshot round-trips");
        assert_eq!(status, 200, "{body}");
        println!("POST /snapshot ✓");
    }

    drop(client);
    server.shutdown();
    println!("clean shutdown ✓");
}
