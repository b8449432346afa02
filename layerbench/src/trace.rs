//! The traced run: spans recorded from benchmark code around each call into
//! a layer's public functions, and twin-engine probes for the layers that
//! are reachable only inside another call.

use crate::load::{Family, OpKind, Record, WriteKind};
use crate::report::Metrics;
use crate::setup::{
    stream, Env, QueryMix, Write, BATCH, CACHE_CAPACITY, CHURN_SIZES, GRID, PLATEAU_SIZE,
};
use crate::stats::{mean, median, ratio};
use asrs_core::{AsrsEngine, Backend, EngineHandle, GridIndex, QueryRequest, SearchStats};
use asrs_data::{Mutation, SpatialObject};
use asrs_persist::PersistExt;
use asrs_server::http;
use rand::rngs::SmallRng;
use rand::Rng;
use serde::Deserialize;
use std::hint::black_box;
use std::io::Cursor;
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded span.  Spans of one request share `req`; `parent` indexes
/// the enclosing span in [`Tracer::spans`].
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub req: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn us(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e3
    }
}

/// In-memory span recorder; disabled, it records nothing and costs two
/// branches per span.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    enabled: bool,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            enabled,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, req: u64, parent: Option<usize>) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            req,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        Some(self.spans.len() - 1)
    }

    pub fn close(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    pub fn span<T>(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(name, req, parent);
        let value = f();
        self.close(id);
        (value, id.map_or(0.0, |i| self.spans[i].us()))
    }

    /// Writes every span as one JSON array.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96 + 2);
        out.push('[');
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"req\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.req, s.start_ns, s.end_ns
            ));
        }
        out.push(']');
        std::fs::write(path, out)
    }
}

/// What one replayed request did, and the span duration of each stage in
/// request order: HTTP parse, JSON decode, cache key, plan, engine call,
/// JSON encode, HTTP write (zero when the tracer is disabled).
pub struct ReadOutcome {
    pub family: Family,
    pub hit: bool,
    pub ok: bool,
    pub stats: Option<SearchStats>,
    pub response_bytes: usize,
    pub stage_us: [f64; 7],
    pub total_us: f64,
}

fn search_span(family: Family) -> &'static str {
    match family {
        Family::Similar => "search.similar",
        Family::TopK => "search.top_k",
        Family::Approx => "search.approx",
        Family::Batch => "search.batch",
        Family::MaxRs => "search.maxrs",
    }
}

fn raw_request(method: &str, path: &str, body: &str) -> String {
    format!(
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
}

/// Replays one `/query` through the server's codec, the JSON codec, the
/// cache key, the planner and the engine, the way the server's handler
/// calls them.  A hit or miss is told apart by the cache's hit counter.
pub fn replay_read(
    tr: &mut Tracer,
    req: u64,
    engine: &EngineHandle,
    family: Family,
    body: &str,
) -> ReadOutcome {
    let raw = raw_request("POST", "/query", body);
    let mut stage_us = [0.0; 7];
    let mut out = ReadOutcome {
        family,
        hit: false,
        ok: false,
        stats: None,
        response_bytes: 0,
        stage_us,
        total_us: 0.0,
    };
    let started = Instant::now();
    let root = tr.open("request", req, None);
    let (parsed, us) = tr.span("http.parse", req, root, || {
        http::read_request(&mut Cursor::new(raw.as_bytes()), Duration::from_secs(30))
    });
    stage_us[0] = us;
    let Ok(Some(parsed)) = parsed else {
        tr.close(root);
        return out;
    };
    let (request, us) = tr.span("json.decode", req, root, || {
        std::str::from_utf8(&parsed.body)
            .ok()
            .and_then(|t| serde::json::from_str::<QueryRequest>(t).ok())
    });
    stage_us[1] = us;
    let Some(request) = request else {
        tr.close(root);
        return out;
    };
    let (_, us) = tr.span("cache.key", req, root, || {
        black_box(request.cache_key().stamped(engine.generation()))
    });
    stage_us[2] = us;
    let (_, us) = tr.span("planner.plan", req, root, || {
        black_box(engine.plan(&request))
    });
    stage_us[3] = us;
    let hits_before = engine.cache_stats().map(|s| s.hits);
    let id = tr.open("engine", req, root);
    let response = engine.submit(&request);
    tr.close(id);
    out.hit = engine.cache_stats().map(|s| s.hits) > hits_before;
    if let Some(i) = id {
        tr.spans[i].name = if out.hit {
            "cache.hit"
        } else {
            search_span(family)
        };
        stage_us[4] = tr.spans[i].us();
    }
    if let Ok(response) = response {
        let (text, us) = tr.span("json.encode", req, root, || {
            serde::json::to_string(&response)
        });
        stage_us[5] = us;
        let mut wire = Vec::with_capacity(text.len() + 128);
        let (_, us) = tr.span("http.write", req, root, || {
            http::write_response(&mut wire, 200, &text, true)
        });
        stage_us[6] = us;
        out.ok = true;
        out.response_bytes = text.len();
        out.stats = Some(response.stats);
    }
    tr.close(root);
    out.total_us = started.elapsed().as_secs_f64() * 1e6;
    out.stage_us = stage_us;
    out
}

#[derive(Deserialize)]
struct AppendBody {
    object: SpatialObject,
    ttl_ms: Option<u64>,
}

#[derive(Deserialize)]
struct AppendBatchBody {
    items: Vec<AppendBody>,
}

/// Replays one write through the codecs and the engine's mutation entry
/// point (group commit, index maintenance, WAL fsync and carry pass).
pub fn replay_write(tr: &mut Tracer, req: u64, engine: &EngineHandle, write: &Write) -> bool {
    let op = write.op(0);
    let raw = raw_request(op.method, &op.path, &op.body);
    let root = tr.open("request", req, None);
    let (parsed, _) = tr.span("http.parse", req, root, || {
        http::read_request(&mut Cursor::new(raw.as_bytes()), Duration::from_secs(30))
    });
    if let Ok(Some(parsed)) = parsed {
        tr.span("json.decode", req, root, || {
            let text = std::str::from_utf8(&parsed.body).unwrap_or("");
            match write {
                Write::Batch(_) => {
                    black_box(
                        serde::json::from_str::<AppendBatchBody>(text)
                            .ok()
                            .map(|b| b.items.len()),
                    );
                }
                Write::Remove(_) => {}
                _ => {
                    black_box(
                        serde::json::from_str::<AppendBody>(text)
                            .ok()
                            .map(|b| (b.object.id, b.ttl_ms)),
                    );
                }
            }
        });
    }
    let name = match write.kind() {
        WriteKind::Append => "mutate.append",
        WriteKind::AppendTtl => "mutate.append_ttl",
        WriteKind::Batch16 => "mutate.append_batch16",
        WriteKind::Remove => "mutate.remove",
    };
    let (ok, _) = tr.span(name, req, root, || write.apply(engine));
    tr.close(root);
    ok
}

/// Median self time of each stage over the successful outcomes.
pub fn stage_medians(outcomes: &[ReadOutcome]) -> [f64; 7] {
    let ok: Vec<&ReadOutcome> = outcomes.iter().filter(|o| o.ok).collect();
    std::array::from_fn(|i| median(&ok.iter().map(|o| o.stage_us[i]).collect::<Vec<_>>()))
}

/// Per-layer metrics of a read replay (codec, cache key, planner) and of a
/// pass of pure hits (`hits`).
pub fn read_metrics(m: &mut Metrics, outcomes: &[ReadOutcome], hits: &[ReadOutcome]) {
    let ok: Vec<&ReadOutcome> = outcomes.iter().filter(|o| o.ok).collect();
    let medians = stage_medians(outcomes);
    let stage = |i: usize| medians[i];
    m.add("http.parse_us", stage(0), "us");
    m.add("http.write_us", stage(6), "us");
    m.add("json.decode_us", stage(1), "us");
    m.add("json.encode_us", stage(5), "us");
    m.add(
        "json.response_bytes",
        median(
            &ok.iter()
                .map(|o| o.response_bytes as f64)
                .collect::<Vec<_>>(),
        ),
        "bytes",
    );
    m.add("cache.key_us", stage(2), "us");
    let hit_us: Vec<f64> = hits
        .iter()
        .filter(|o| o.ok && o.hit)
        .map(|o| o.stage_us[4])
        .collect();
    m.add("cache.hit_us", median(&hit_us), "us");
    m.add("planner.plan_us", stage(3), "us");
}

/// Search metrics from misses: per-family medians and the work counters.
pub fn search_metrics(m: &mut Metrics, outcomes: &[ReadOutcome]) {
    let misses: Vec<&ReadOutcome> = outcomes.iter().filter(|o| o.ok && !o.hit).collect();
    for family in Family::ALL {
        let ms: Vec<f64> = misses
            .iter()
            .filter(|o| o.family == family)
            .map(|o| o.stage_us[4] / 1e3)
            .collect();
        m.add(&format!("search.{}_ms", family.name()), median(&ms), "ms");
    }
    let stats: Vec<&SearchStats> = misses.iter().filter_map(|o| o.stats.as_ref()).collect();
    m.add(
        "search.cells_examined",
        median(
            &stats
                .iter()
                .map(|s| s.cells_examined as f64)
                .collect::<Vec<_>>(),
        ),
        "count",
    );
    let sum = |f: fn(&SearchStats) -> u64| stats.iter().map(|s| f(s) as f64).sum::<f64>();
    m.add(
        "search.dirty_prune_ratio",
        ratio(sum(|s| s.dirty_cells_pruned), sum(|s| s.dirty_cells)),
        "ratio",
    );
    m.add(
        "search.index_cells_ratio",
        ratio(
            sum(|s| s.index_cells_searched),
            sum(|s| s.index_cells_total),
        ),
        "ratio",
    );
}

/// Splits churn reads by the kind of the last write acknowledged before
/// they were sent, and counts the misses (reads slower than `miss_us`)
/// each write kind is followed by.
pub fn gap_metrics(m: &mut Metrics, records: &[Record], miss_us: u64) {
    let mut writes: Vec<(u64, WriteKind)> = records
        .iter()
        .filter_map(|r| match r.kind {
            OpKind::Write(k) if r.ok => Some((r.start_us + r.latency_ns / 1_000, k)),
            _ => None,
        })
        .collect();
    writes.sort_by_key(|w| w.0);
    let solo = |k: WriteKind| matches!(k, WriteKind::Append | WriteKind::AppendTtl);
    let mut misses = [0usize; 3];
    for r in records
        .iter()
        .filter(|r| r.ok && matches!(r.kind, OpKind::Query(_)))
    {
        let before = writes.partition_point(|w| w.0 <= r.start_us);
        if before == 0 || r.latency_ns < miss_us * 1_000 {
            continue;
        }
        let slot = match writes[before - 1].1 {
            k if solo(k) => 0,
            WriteKind::Batch16 => 1,
            _ => 2,
        };
        misses[slot] += 1;
    }
    let count = |f: &dyn Fn(WriteKind) -> bool| writes.iter().filter(|w| f(w.1)).count() as f64;
    m.add(
        "gap.misses_per_solo_append",
        ratio(misses[0] as f64, count(&|k| solo(k))),
        "count",
    );
    m.add(
        "gap.misses_per_batch16",
        ratio(misses[1] as f64, count(&|k| k == WriteKind::Batch16)),
        "count",
    );
    m.add(
        "gap.misses_per_remove",
        ratio(misses[2] as f64, count(&|k| k == WriteKind::Remove)),
        "count",
    );
}

fn timed_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let v = f();
    (v, t.elapsed().as_secs_f64() * 1e3)
}

fn submit_ms(
    engine: &AsrsEngine,
    request: &QueryRequest,
) -> (Option<asrs_core::QueryResponse>, f64) {
    timed_ms(|| engine.submit(request).ok())
}

/// The shard layer, timed from outside: the same miss on cache-less twins
/// with 1, 2 and 4 shards against the unsharded engine, plus one request
/// on the >= 40q tie plateau.
pub fn shard_probe(m: &mut Metrics, env: &Env, seed: u64) {
    let mix = QueryMix::new(seed, 31, CHURN_SIZES, 60_000);
    let requests: Vec<QueryRequest> = Family::ALL
        .iter()
        .enumerate()
        .map(|(i, &f)| {
            mix.request(
                env,
                f,
                (0.13 + 0.19 * i as f64 + stream(seed, 32).gen::<f64>()).fract(),
                0.5,
            )
        })
        .collect();
    let mut pruned = 0.0;
    let mut touched = 0.0;
    let unsharded = env.engine(0, 0);
    let mut miss = |engine: &AsrsEngine| -> f64 {
        let times: Vec<f64> = requests
            .iter()
            .map(|r| {
                let (resp, ms) = submit_ms(engine, r);
                if let Some(resp) = resp {
                    pruned += resp.stats.shards_pruned as f64;
                    touched += resp.stats.shards_touched as f64;
                }
                ms
            })
            .collect();
        median(&times)
    };
    m.add("shard.miss_unsharded_ms", miss(&unsharded), "ms");
    for shards in [1, 2, 4] {
        let engine = env.engine(shards, 0);
        m.add(&format!("shard.miss_s{shards}_ms"), miss(&engine), "ms");
    }
    m.add(
        "shard.pruned_ratio",
        ratio(pruned, pruned + touched),
        "ratio",
    );
    let k = PLATEAU_SIZE + stream(seed, 33).gen_range(-0.2..0.2);
    let plateau = mix.similar_at(env, k);
    m.add(
        "shard.plateau_unsharded_ms",
        submit_ms(&unsharded, &plateau).1,
        "ms",
    );
    m.add(
        "shard.plateau_s2_ms",
        submit_ms(&env.engine(2, 0), &plateau).1,
        "ms",
    );
}

/// Paper rows at one tractable size each, through `submit` with a pinned
/// backend: DS-Search vs GI-DS (figs 8, 11), the share of index cells
/// GI-DS searches (Table 1), and d_app / d_opt at delta = 0.25 (fig 12,
/// Table 2).  MaxRS (fig 13) is `search.maxrs_ms` of the replay.
pub fn paper_probe(m: &mut Metrics, env: &Env, seed: u64) {
    let engine = env.engine(0, 0);
    let mut rng = stream(seed, 41);
    let mix = QueryMix::new(seed, 42, (20.0, 30.0), 60_000);
    let mut ds = Vec::new();
    let mut gi = Vec::new();
    let mut cells = (0.0, 0.0);
    let mut quality = Vec::new();
    for _ in 0..2 {
        let request = mix.request(env, Family::Similar, rng.gen(), 0.0);
        let (exact, ms) = submit_ms(&engine, &request.clone().with_backend(Backend::GiDs));
        gi.push(ms);
        ds.push(submit_ms(&engine, &request.clone().with_backend(Backend::DsSearch)).1);
        let asrs_core::QueryRequest::Configured { request: inner, .. } = &request else {
            continue;
        };
        let asrs_core::QueryRequest::Similar { query } = inner.as_ref() else {
            continue;
        };
        let approx = QueryRequest::approximate(query.clone(), 0.25).with_backend(Backend::GiDs);
        if let (Some(exact), (Some(app), _)) = (exact, submit_ms(&engine, &approx)) {
            cells.0 += exact.stats.index_cells_searched as f64;
            cells.1 += exact.stats.index_cells_total as f64;
            if let (Some(e), Some(a)) = (exact.best(), app.best()) {
                quality.push(ratio(a.distance, e.distance));
            }
        }
    }
    m.add("search.ds_search_ms", median(&ds), "ms");
    m.add("search.gi_ds_ms", median(&gi), "ms");
    m.add(
        "search.table1_index_cells_ratio",
        ratio(cells.0, cells.1),
        "ratio",
    );
    m.add("search.approx_quality", mean(&quality), "ratio");
}

/// The write layers: mutation entry points on cache-less and cached 2-shard
/// twins (their difference is the carry pass), the WAL, snapshots, boot and
/// incremental index maintenance, each through its public functions.
pub fn write_probe(m: &mut Metrics, env: &Env, seed: u64, scratch: &Path) -> u64 {
    const ROUNDS: usize = 4;
    let mut rng = stream(seed, 51);
    let mut next_id = 2_000_000_000u64;
    let mut object = |rng: &mut SmallRng| {
        next_id += 1;
        env.object(next_id, rng)
    };
    let plain = env.engine(2, 0);
    let cached = env.engine(2, CACHE_CAPACITY);
    let mix = QueryMix::new(seed, 52, CHURN_SIZES, 60_000);
    let primed: Vec<QueryRequest> = (0..8).map(|n| mix.at(env, n).1).collect();
    let prime = |e: &AsrsEngine| {
        for r in &primed {
            let _ = e.submit(r);
        }
    };
    prime(&cached);
    let carried = |e: &AsrsEngine| e.cache_stats().map_or(0, |s| s.carried_forward);
    let (mut solo, mut batch, mut remove) = (Vec::new(), Vec::new(), Vec::new());
    let (mut solo_c, mut batch_c) = (Vec::new(), Vec::new());
    let (mut share_solo, mut share_batch) = (Vec::new(), Vec::new());
    for _ in 0..ROUNDS {
        let o = object(&mut rng);
        let id = o.id;
        solo.push(timed_ms(|| plain.append(o.clone())).1);
        let items: Vec<SpatialObject> = (0..BATCH).map(|_| object(&mut rng)).collect();
        batch.push(
            timed_ms(|| plain.append_batch(items.iter().map(|o| (o.clone(), None)).collect())).1,
        );
        remove.push(timed_ms(|| plain.remove(id)).1);

        let before = carried(&cached);
        solo_c.push(timed_ms(|| cached.append(o.clone())).1);
        share_solo.push((carried(&cached) - before) as f64 / primed.len() as f64);
        prime(&cached);
        let before = carried(&cached);
        batch_c.push(
            timed_ms(|| cached.append_batch(items.iter().map(|o| (o.clone(), None)).collect())).1,
        );
        share_batch.push((carried(&cached) - before) as f64 / primed.len() as f64);
        let _ = cached.remove(id);
        prime(&cached);
    }
    m.add("mutate.append_ms", median(&solo), "ms");
    m.add("mutate.append_batch16_ms", median(&batch), "ms");
    m.add("mutate.remove_ms", median(&remove), "ms");
    m.add("carry.pass_ms", median(&solo_c) - median(&solo), "ms");
    m.add(
        "carry.pass_batch16_ms",
        median(&batch_c) - median(&batch),
        "ms",
    );
    m.add("carry.carried_share", mean(&share_solo), "ratio");
    m.add("carry.carried_share_batch16", mean(&share_batch), "ratio");
    let proof_failures = cached.cache_stats().map_or(0, |s| s.carry_proof_failures);

    // WAL: solo frames and one 16-frame group commit, each with its fsync.
    let wal_dir = scratch.join("wal-probe");
    let _ = std::fs::remove_dir_all(&wal_dir);
    std::fs::create_dir_all(&wal_dir).expect("WAL probe directory");
    let (wal, _) = asrs_persist::Wal::open(&wal_dir.join("probe.wal")).expect("WAL opens");
    let mut generation = 0;
    let mut objects = 0usize;
    let mut fsync = Vec::new();
    let mut fsync16 = Vec::new();
    for _ in 0..16 {
        generation += 1;
        let append = Mutation::Append {
            object: object(&mut rng),
        };
        fsync.push(timed_ms(|| wal.append(generation, &append)).1);
        objects += 1;
    }
    for _ in 0..8 {
        generation += 1;
        let items: Vec<Mutation> = (0..BATCH)
            .map(|_| Mutation::Append {
                object: object(&mut rng),
            })
            .collect();
        fsync16.push(timed_ms(|| wal.append_batch(generation, &items)).1);
        objects += BATCH;
    }
    m.add("wal.fsync_ms", median(&fsync), "ms");
    m.add("wal.batch16_fsync_ms", median(&fsync16), "ms");
    m.add(
        "wal.bytes_per_object",
        ratio(wal.bytes() as f64, objects as f64),
        "bytes",
    );
    drop(wal);

    // Snapshots of the 2-shard twin, and a persistent boot from one.
    let snap_dir = scratch.join("snapshot-probe");
    let _ = std::fs::remove_dir_all(&snap_dir);
    std::fs::create_dir_all(&snap_dir).expect("snapshot probe directory");
    let state = plain.export_state();
    let mut writes = Vec::new();
    let mut file = None;
    for _ in 0..3 {
        let (written, ms) = timed_ms(|| asrs_persist::write_snapshot(&snap_dir, &state));
        writes.push(ms);
        file = written.ok();
    }
    let file = file.expect("snapshot written");
    let reads: Vec<f64> = (0..3)
        .map(|_| timed_ms(|| asrs_persist::read_snapshot(&file.path).is_ok()).1)
        .collect();
    m.add("snapshot.write_ms", median(&writes), "ms");
    m.add("snapshot.read_ms", median(&reads), "ms");
    m.add(
        "snapshot.bytes_per_object",
        ratio(file.bytes as f64, state.dataset.len() as f64),
        "bytes",
    );
    let boots: Vec<f64> = (0..3)
        .map(|_| {
            let builder = env.builder(2, CACHE_CAPACITY).persist_dir(&snap_dir);
            timed_ms(|| builder.build().expect("boot from the probe snapshot")).1
        })
        .collect();
    m.add("store.boot_ms", median(&boots), "ms");

    // Incremental grid-index maintenance, append then remove.
    let mut index = GridIndex::build(&env.ds, &env.agg, GRID, GRID).expect("index builds");
    let mut ds = env.ds.clone();
    let added: Vec<SpatialObject> = (0..64).map(|_| object(&mut rng)).collect();
    let mut up = Vec::new();
    for o in &added {
        ds.append(o.clone()).expect("schema-valid object");
        let t = Instant::now();
        index.update_append(o, &env.agg);
        up.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let mut down = Vec::new();
    for o in &added {
        let removed = ds.remove_by_id(o.id).expect("appended object");
        let t = Instant::now();
        index.update_remove(&removed, &ds, &env.agg);
        down.push(t.elapsed().as_secs_f64() * 1e6);
    }
    black_box(&index);
    m.add("grid_index.update_append_us", median(&up), "us");
    m.add("grid_index.update_remove_us", median(&down), "us");
    let _ = std::fs::remove_dir_all(&wal_dir);
    let _ = std::fs::remove_dir_all(&snap_dir);
    proof_failures
}
