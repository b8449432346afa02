//! The closed-loop keep-alive HTTP load driver.
//!
//! Each connection runs on its own thread and sends its next operation only
//! after the previous response arrived.  Operations come from a per-
//! connection generator, so a seed fixes the whole sequence each connection
//! would send; how far along it gets in the window depends on the server.

use crate::host::{probe_ms, PROBE_EVERY};
use asrs_server::HttpClient;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The query families of the paper's F1 workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    Similar,
    TopK,
    Approx,
    Batch,
    MaxRs,
}

impl Family {
    pub const ALL: [Family; 5] = [
        Family::Similar,
        Family::TopK,
        Family::Approx,
        Family::Batch,
        Family::MaxRs,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Family::Similar => "similar",
            Family::TopK => "top_k",
            Family::Approx => "approx",
            Family::Batch => "batch",
            Family::MaxRs => "maxrs",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteKind {
    Append,
    AppendTtl,
    Batch16,
    Remove,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Query(Family),
    Write(WriteKind),
}

/// One request a connection sends.
#[derive(Debug, Clone)]
pub struct Op {
    pub method: &'static str,
    pub path: String,
    pub body: Arc<str>,
    pub kind: OpKind,
    /// The response body must equal this, byte for byte.
    pub expect: Option<Arc<str>>,
    /// Keep the response body for a check after the run.
    pub keep: bool,
    /// The op's index in its generator's sequence (a pool slot for pooled
    /// reads).
    pub tag: usize,
}

impl Op {
    pub fn query(kind: Family, body: Arc<str>, tag: usize) -> Op {
        Op {
            method: "POST",
            path: "/query".to_string(),
            body,
            kind: OpKind::Query(kind),
            expect: None,
            keep: false,
            tag,
        }
    }
}

/// One completed operation.
#[derive(Debug, Clone, Copy)]
pub struct Record {
    pub kind: OpKind,
    /// Microseconds from the window start to the send.
    pub start_us: u64,
    pub latency_ns: u64,
    pub ok: bool,
}

#[derive(Debug, Default)]
pub struct ConnOutcome {
    pub records: Vec<Record>,
    /// Responses that differed from their `expect` body.
    pub mismatches: usize,
    /// `(tag, body)` of every op sent with `keep`.
    pub kept: Vec<(usize, String)>,
    /// [`probe_ms`] times, one at the start and one every [`PROBE_EVERY`].
    pub probes_ms: Vec<f64>,
}

/// Drives one connection per generator until `window` has passed; an op
/// in flight at the deadline completes and counts.  Between operations each
/// connection runs the speed probe every [`PROBE_EVERY`].
pub fn drive<G>(
    addr: SocketAddr,
    generators: Vec<G>,
    window: Duration,
) -> (Vec<ConnOutcome>, Duration)
where
    G: FnMut(usize) -> Op + Send,
{
    let origin = Instant::now();
    let outcomes = std::thread::scope(|scope| {
        let handles: Vec<_> = generators
            .into_iter()
            .map(|mut next| scope.spawn(move || run_connection(addr, &mut next, origin, window)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a load connection panicked"))
            .collect()
    });
    (outcomes, origin.elapsed())
}

fn run_connection(
    addr: SocketAddr,
    next: &mut dyn FnMut(usize) -> Op,
    origin: Instant,
    window: Duration,
) -> ConnOutcome {
    let mut outcome = ConnOutcome::default();
    let mut client = HttpClient::connect(addr).ok();
    let mut i = 0;
    let mut next_probe = Duration::ZERO;
    while origin.elapsed() < window {
        if origin.elapsed() >= next_probe {
            outcome.probes_ms.push(probe_ms());
            next_probe = origin.elapsed() + PROBE_EVERY;
        }
        let op = next(i);
        i += 1;
        let started = Instant::now();
        let result = match client.as_mut() {
            Some(c) => c.request(op.method, &op.path, &op.body),
            None => Err(std::io::Error::other("not connected")),
        };
        let latency_ns = started.elapsed().as_nanos() as u64;
        let ok = match result {
            Ok((200, body)) => {
                if op.expect.as_deref().is_some_and(|e| e != body) {
                    outcome.mismatches += 1;
                }
                if op.keep {
                    outcome.kept.push((op.tag, body));
                }
                true
            }
            Ok((status, body)) => {
                eprintln!("{} {} answered {status}: {body}", op.method, op.path);
                false
            }
            Err(e) => {
                eprintln!("{} {} failed: {e}", op.method, op.path);
                client = HttpClient::connect(addr).ok();
                false
            }
        };
        outcome.records.push(Record {
            kind: op.kind,
            start_us: started.duration_since(origin).as_micros() as u64,
            latency_ns,
            ok,
        });
    }
    outcome
}

/// Sends `ops` over `connections` keep-alive connections (op `i` goes to
/// connection `i % connections`) and returns every response body in input
/// order; `None` for a failed op.
pub fn send_all(addr: SocketAddr, ops: &[Op], connections: usize) -> Vec<Option<String>> {
    let connections = connections.max(1);
    let mut out: Vec<Option<String>> = vec![None; ops.len()];
    let parts: Vec<Vec<(usize, Option<String>)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|c| {
                scope.spawn(move || {
                    let mut client = HttpClient::connect(addr).expect("load client connects");
                    (c..ops.len())
                        .step_by(connections)
                        .map(|i| {
                            let op = &ops[i];
                            let body = match client.request(op.method, &op.path, &op.body) {
                                Ok((200, body)) => Some(body),
                                _ => None,
                            };
                            (i, body)
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a load connection panicked"))
            .collect()
    });
    for (i, body) in parts.into_iter().flatten() {
        out[i] = body;
    }
    out
}
